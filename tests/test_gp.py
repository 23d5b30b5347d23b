import math
import tracemalloc

import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, given, settings, strategies as st

from gpcert import gp, kernels
from gpcert.bounds import DomainBox, probabilistic_lipschitz
from gpcert.density import data_density_batch
from gpcert.errors import IllConditionedDataError
from gpcert.gp import TrainingSet, add_samples, downsample, fit
from gpcert.kernels import LINEAR, MATERN32, MATERN52, SQUARED_EXPONENTIAL, KernelSpec, gram, kernel_diag
from gpcert.simulation import prior_draw, prior_factor

from conftest import random_kernel, random_model, se_unit


def one_point_model(noise=0.01):
    return fit(se_unit(), TrainingSet(np.array([[0.0]]), np.array([1.0]), noise))


def test_empty_model_is_prior():
    m = fit(se_unit(), TrainingSet.empty(1, 0.01))
    assert m.predict_mean(np.array([2.7])) == 0.0
    assert m.predict_var(np.array([2.7])) == pytest.approx(1.0)
    # at N = 0 every family, at d = 1 and 2, takes the general closed forms: mu = 0, sigma^2 = k(x,x), rho = 0
    for family in (SQUARED_EXPONENTIAL, MATERN32, MATERN52, LINEAR):
        for dim in (1, 2):
            spec = KernelSpec(family, 0.7, (1.3, 0.6)[:dim])
            m = fit(spec, TrainingSet.empty(dim, 0.01))
            X = np.array([[2.7, -1.3], [0.4, 5.0], [-3.0, 0.2]])[:, :dim]
            assert m.chol.shape == (0, 0)
            assert m.predict_mean(X).tolist() == [0.0] * 3 and m.predict_mean(X[0]) == 0.0
            assert m.predict_var(X).tolist() == kernel_diag(spec, X).tolist()
            assert data_density_batch(m, X).tolist() == [0.0] * 3


def test_one_point_closed_form():
    m = one_point_model()
    # k / (k + noise) * y  and  k - k^2 / (k + noise)
    assert m.predict_mean(np.array([0.0])) == pytest.approx(1.0 / 1.01)
    assert m.predict_var(np.array([0.0])) == pytest.approx(1.0 - 1.0 / 1.01)


def test_far_query_decays():
    m = one_point_model()
    assert abs(m.predict_mean(np.array([10.0]))) < 1e-20


def test_coincident_points_rank_one_formula():
    m = fit(se_unit(), TrainingSet(np.zeros((25, 1)), np.ones(25), 0.01))
    assert m.predict_var(np.array([0.0])) == pytest.approx(0.01 / 25.01, rel=1e-9)


def test_add_zero_samples_is_identity():
    m = one_point_model()
    m2 = add_samples(m, TrainingSet.empty(1, 0.01))
    assert m2 is m


def test_add_samples_equals_fit():
    rng = np.random.default_rng(0)
    spec = se_unit(2)
    d = TrainingSet(rng.uniform(-2, 2, (6, 2)), rng.normal(size=6), 0.01)
    empty = fit(spec, TrainingSet.empty(2, 0.01))
    combined = add_samples(empty, d)
    direct = fit(spec, d)
    q = rng.uniform(-2, 2, (10, 2))
    np.testing.assert_allclose(combined.predict_mean(q), direct.predict_mean(q), atol=1e-10)
    np.testing.assert_allclose(combined.predict_var(q), direct.predict_var(q), atol=1e-10)


def test_variance_monotone_under_new_samples():
    # brute-force comparison before/after one extra point, 1000 random triples
    rng = np.random.default_rng(1)
    for _ in range(1000):
        spec = random_kernel(rng, d=int(rng.integers(1, 3)))
        model = random_model(rng, spec, n=int(rng.integers(1, 8)))
        extra = TrainingSet(
            rng.uniform(-3, 3, (1, spec.dim)), rng.normal(size=1), model.data.noise_variance
        )
        grown = add_samples(model, extra)
        q = rng.uniform(-3, 3, spec.dim)
        assert grown.predict_var(q) <= model.predict_var(q) + 1e-8


def test_interpolation_as_noise_vanishes():
    rng = np.random.default_rng(2)
    X = np.array([[-4.0], [-2.0], [0.0], [2.0], [4.0]])
    y = rng.normal(size=5)
    m = fit(se_unit(), TrainingSet(X, y, 1e-10))
    for xi, yi in zip(X, y):
        assert m.predict_mean(xi) == pytest.approx(yi, abs=1e-4)


def test_exactness_against_dense_inverse():
    rng = np.random.default_rng(3)
    for _ in range(25):
        spec = random_kernel(rng, d=2)
        n = int(rng.integers(1, 9))
        X = rng.uniform(-3, 3, (n, 2))
        y = rng.normal(size=n)
        noise = 0.05
        m = fit(spec, TrainingSet(X, y, noise))
        q = rng.uniform(-3, 3, (5, 2))
        # oracle: direct dense inverse of the regularized Gram matrix
        Kinv = np.linalg.inv(gram(spec, X) + noise * np.eye(n))
        kq = gram(spec, q, X)
        mu_direct = kq @ Kinv @ y
        var_direct = np.array(
            [gram(spec, q[i : i + 1])[0, 0] - kq[i] @ Kinv @ kq[i] for i in range(5)]
        )
        np.testing.assert_allclose(m.predict_mean(q), mu_direct, atol=1e-9)
        np.testing.assert_allclose(m.predict_var(q), np.maximum(var_direct, 0), atol=1e-9)


def test_variance_never_exceeds_prior():
    rng = np.random.default_rng(4)
    for _ in range(50):
        spec = random_kernel(rng, d=1)
        m = random_model(rng, spec, n=6)
        q = rng.uniform(-5, 5, (20, 1))
        prior = np.array([gram(spec, q[i : i + 1])[0, 0] for i in range(20)])
        assert np.all(m.predict_var(q) <= prior + 1e-12)


def test_refit_matches_cached_factorization():
    m = random_model(np.random.default_rng(5), se_unit(2), n=12)
    refit = fit(m.kernel, m.data)
    q = np.random.default_rng(6).uniform(-3, 3, (7, 2))
    np.testing.assert_allclose(refit.predict_mean(q), m.predict_mean(q), rtol=1e-8)
    np.testing.assert_allclose(refit.predict_var(q), m.predict_var(q), rtol=1e-8, atol=1e-12)


def test_ill_conditioned_duplicates_raise():
    d = TrainingSet(np.zeros((2, 1)), np.ones(2), 1e-30)
    with pytest.raises(IllConditionedDataError) as exc:
        fit(se_unit(), d)
    assert exc.value.smallest_pivot is not None


def test_downsample_identity_and_strides():
    raw = TrainingSet(np.arange(7.0)[:, None], np.arange(7.0), 0.01)
    same = downsample(raw, 3e-4, 3e-4)
    assert len(same) == 7
    third = downsample(raw, 3e-4, 3 * 3e-4)
    np.testing.assert_array_equal(third.inputs.ravel(), [0.0, 3.0, 6.0])
    big = TrainingSet(np.arange(1000.0)[:, None], np.zeros(1000), 0.01)
    assert len(downsample(big, 3e-4, 3e-3)) == 100
    with pytest.raises(ValueError):
        downsample(raw, 3e-4, 1e-4)


def test_training_set_validation():
    with pytest.raises(ValueError):
        TrainingSet(np.zeros((2, 1)), np.zeros(3), 0.01)
    with pytest.raises(ValueError):
        TrainingSet(np.zeros((2, 1)), np.zeros(2), 0.0)


def test_fit_checks_the_dimension_of_every_training_set():
    for data in (TrainingSet(np.zeros((2, 1)), np.zeros(2), 0.01), TrainingSet.empty(1, 0.01)):
        with pytest.raises(ValueError):
            fit(se_unit(2), data)


# ---------------------------------------------------------------------------
# blocked kernel evaluation: the unblocked formulas, kept here as the oracle
# ---------------------------------------------------------------------------

def _gram_unblocked(spec, X, Y):
    sf2 = spec.signal_variance
    if spec.family == LINEAR:
        return sf2 * ((X / spec.ell) @ (Y / spec.ell).T)
    d = (X[:, None, :] - Y[None, :, :]) / spec.ell
    r2 = np.einsum("ijk,ijk->ij", d, d)
    if spec.family == SQUARED_EXPONENTIAL:
        return sf2 * np.exp(-0.5 * r2)
    r = np.sqrt(r2)
    if spec.family == MATERN32:
        return sf2 * (1.0 + math.sqrt(3.0) * r) * np.exp(-math.sqrt(3.0) * r)
    return sf2 * (1.0 + math.sqrt(5.0) * r + 5.0 / 3.0 * r * r) * np.exp(-math.sqrt(5.0) * r)


def _mean_unblocked(model, X):
    return _gram_unblocked(model.kernel, X, model.data.inputs) @ model.alpha


def _var_unblocked(model, X):
    prior = kernel_diag(model.kernel, X)
    v = scipy.linalg.solve_triangular(model.chol, _gram_unblocked(model.kernel, model.data.inputs, X), lower=True)
    return np.clip(prior - np.einsum("ij,ij->j", v, v), 0.0, prior)


def _density_unblocked(model, X):
    kxx = kernel_diag(model.kernel, X)
    diag = kernel_diag(model.kernel, model.data.inputs)
    kxp = _gram_unblocked(model.kernel, X, model.data.inputs)
    denom = diag[None, :] ** 2 - kxp ** 2
    thr = np.where(denom > 0, 1.0 / np.where(denom > 0, denom, 1.0), np.inf)
    thr = np.where(kxx[:, None] ** 2 <= diag[None, :] ** 2, thr, -np.inf)
    thr.sort(axis=1)
    thr = thr[:, ::-1]
    counts = np.arange(1, len(model) + 1)[None, :]
    values = np.minimum(thr, counts / (model.data.noise_variance * kxx)[:, None])
    return np.maximum(values.max(axis=1), 0.0)


# 1 and 2 rows, and k * 256 + r rows around the block boundaries
_BLOCKED_ROWS = st.one_of(
    st.sampled_from([1, 2]),
    st.builds(lambda k, r: max(k * kernels._BLOCK_ROWS + r, 1), st.integers(0, 4), st.integers(-3, 40)),
)


@settings(max_examples=40, deadline=None)
@example(family=SQUARED_EXPONENTIAL, dim=1, n=2, m=257, sf2=1.3, seed=0)  # one row past a boundary
@example(family=SQUARED_EXPONENTIAL, dim=2, n=30, m=2 * 256 + 1, sf2=1.0, seed=1)
@example(family=MATERN52, dim=1, n=7, m=300, sf2=1.0, seed=3)  # one coordinate, two scratch arrays
@example(family=LINEAR, dim=2, n=5, m=3 * 256 + 2, sf2=0.7, seed=2)
@given(
    family=st.sampled_from([SQUARED_EXPONENTIAL, MATERN32, MATERN52, LINEAR]),
    dim=st.integers(1, 3),
    n=st.integers(1, 30),
    m=_BLOCKED_ROWS,
    # at 1.0 the kernel routine skips its multiply by sf2, which the unblocked formula keeps
    sf2=st.one_of(st.just(1.0), st.floats(0.5, 2.0)),
    seed=st.integers(0, 2 ** 32 - 1),
)
def test_blocked_evaluations_are_bytewise_unblocked(family, dim, n, m, sf2, seed):
    rng = np.random.default_rng(seed)
    spec = KernelSpec(family, sf2, tuple(rng.uniform(0.5, 2.0, dim)))
    model = random_model(rng, spec, n)
    X = rng.uniform(-4.0, 4.0, (m, dim))
    with pytest.MonkeyPatch.context() as mp:
        # a tiny budget: every block but the last has 256 rows, however narrow
        mp.setattr(kernels, "_BLOCK_ELEMENTS", 1)
        assert gram(spec, X, model.data.inputs).tobytes() == _gram_unblocked(spec, X, model.data.inputs).tobytes()
        assert model.predict_mean(X).tobytes() == _mean_unblocked(model, X).tobytes()
        assert model.predict_var(X).tobytes() == _var_unblocked(model, X).tobytes()
        assert data_density_batch(model, X).tobytes() == _density_unblocked(model, X).tobytes()


def test_row_blocks_are_aligned_and_cover():
    for n, width in [(1, 1), (255, 10), (513, 512), (4097, 1), (3000, 2000), (70000, 3)]:
        blocks = list(kernels._row_blocks(n, width))
        assert blocks[0].start == 0 and blocks[-1].stop == n
        assert all(a.stop == b.start for a, b in zip(blocks, blocks[1:]))
        sizes = [b.stop - b.start for b in blocks]
        assert all(s % kernels._BLOCK_ROWS == 0 for s in sizes[:-1])
        assert max(sizes) < max(kernels._BLOCK_ELEMENTS // width, kernels._BLOCK_ROWS) + kernels._BLOCK_ROWS
        assert len(blocks) == 1 or sizes[-1] >= kernels._BLOCK_ROWS


def _traced_peak(f):
    tracemalloc.start()
    try:
        out = f()
        return tracemalloc.get_traced_memory()[1] - np.asarray(out).nbytes
    finally:
        tracemalloc.stop()


def test_blocked_evaluations_stay_within_a_few_blocks():
    # unblocked, these queries cost about 150 MB: a (20000, 200, 2) tensor
    rng = np.random.default_rng(9)
    model = random_model(rng, KernelSpec(SQUARED_EXPONENTIAL, 1.0, (0.8, 1.5)), 200)
    X = rng.uniform(-3.0, 3.0, (20_000, 2))
    block_bytes = 8 * kernels._BLOCK_ELEMENTS
    for evaluate in (lambda: model.predict_mean(X), lambda: model.predict_var(X),
                     lambda: data_density_batch(model, X)):
        assert _traced_peak(evaluate) < 6 * block_bytes


def test_probabilistic_lipschitz_grid_is_blocked():
    spec = KernelSpec(SQUARED_EXPONENTIAL, 1.0, (1.0, 1.5))
    peak = _traced_peak(lambda: probabilistic_lipschitz(spec, DomainBox(2, 10.0), 0.01))
    assert peak < 24 * 2 ** 20


def test_with_targets_is_fit_on_the_new_targets():
    rng = np.random.default_rng(12)
    X = rng.uniform(-4.0, 4.0, (30, 2))
    spec = KernelSpec(MATERN52, 1.3, (0.8, 1.5))
    y = rng.normal(size=30)
    refit = fit(spec, TrainingSet(X, y, 0.02))
    reused = fit(spec, TrainingSet(X, rng.normal(size=30), 0.02)).with_targets(y)
    assert reused.alpha.tobytes() == refit.alpha.tobytes()
    assert reused.chol.tobytes() == refit.chol.tobytes()
    np.testing.assert_array_equal(reused.data.targets, y)


# the thread rule of gp._blas_threads: one OpenBLAS thread for every factor, whatever its size

def _pool_counts():
    return [get() for get, _ in gp._blas_pools()]


def _set_pools(count):
    for _, put in gp._blas_pools():
        put(count)


@pytest.fixture
def caller_threads():
    """The process's real pool counts, restored after the test."""
    before = _pool_counts()
    yield before
    for (_, put), count in zip(gp._blas_pools(), before):
        put(count)


def _fake_pools(monkeypatch, count):
    """One stand-in pool at ``count`` threads; returns the log of its set calls and its state."""
    state, log = {"count": count}, []

    def put(c):
        log.append(c)
        state["count"] = c

    monkeypatch.setattr(gp, "_blas_pools", lambda: ((lambda: state["count"], put),))
    return log, state


@pytest.mark.parametrize("n", [200, 400, 600])
def test_small_factor_results_do_not_depend_on_blas_threads(n, caller_threads):
    rng = np.random.default_rng(n)
    X = rng.uniform(-4.0, 4.0, (n, 2))
    y = rng.normal(size=n)
    Q = rng.uniform(-4.0, 4.0, (700, 2))
    spec = KernelSpec(SQUARED_EXPONENTIAL, 1.0, (0.8, 1.5))
    results = []
    for count in (1, 2):
        _set_pools(count)
        m = fit(spec, TrainingSet(X, y, 0.01))
        results.append([a.tobytes() for a in (m.chol, m.alpha, m.predict_mean(Q), m.predict_var(Q))])
    assert results[0] == results[1]


def test_blas_threads_pins_small_factors_and_restores_the_callers_count(caller_threads):
    if not gp._blas_pools():
        pytest.skip("no OpenBLAS in this process")
    _set_pools(2)
    before = _pool_counts()
    with gp._blas_threads():
        assert _pool_counts() == [1] * len(before)
    assert _pool_counts() == before
    fit(se_unit(), TrainingSet(np.linspace(0.0, 5.0, 50)[:, None], np.zeros(50), 0.01))
    assert _pool_counts() == before
    with pytest.raises(IllConditionedDataError):
        fit(se_unit(), TrainingSet(np.zeros((2, 1)), np.ones(2), 1e-30))
    assert _pool_counts() == before


def test_blas_threads_restores_the_count_after_an_error(monkeypatch):
    log, state = _fake_pools(monkeypatch, 3)
    with pytest.raises(IllConditionedDataError):
        fit(se_unit(), TrainingSet(np.zeros((2, 1)), np.ones(2), 1e-30))
    assert log[0] == 1 and state["count"] == 3


def test_prior_factor_and_draw_do_not_depend_on_blas_threads(caller_threads):
    # a 23 x 23 grid, 529 rows: threaded, this factor and its draws change bits with the thread count
    axis = np.linspace(-5.0, 5.0, 23)
    grid = np.column_stack([a.ravel() for a in np.meshgrid(axis, axis, indexing="ij")])
    spec = KernelSpec(SQUARED_EXPONENTIAL, 1.0, (1.0, 1.0))
    results = []
    for count in (1, 2):
        _set_pools(count)
        L = prior_factor(spec, grid)
        results.append([L.tobytes(), prior_draw(L, np.random.default_rng(0)).tobytes()])
    assert results[0] == results[1]


def test_blas_threads_without_openblas_is_a_no_op(monkeypatch):
    def no_proc(*args, **kwargs):
        raise OSError("no /proc")

    monkeypatch.setattr(gp, "open", no_proc, raising=False)
    assert gp._blas_pools.__wrapped__() == ()
    monkeypatch.setattr(gp, "_blas_pools", lambda: ())
    with gp._blas_threads():
        pass
    m = fit(se_unit(), TrainingSet(np.array([[0.0]]), np.array([1.0]), 0.01))
    assert m.predict_mean(np.array([0.0])) == pytest.approx(1.0 / 1.01)
