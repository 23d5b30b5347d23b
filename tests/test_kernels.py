import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gpcert.bounds import DomainBox
from gpcert.errors import UnsupportedOperationError
from gpcert.kernels import (
    LINEAR,
    MATERN32,
    MATERN52,
    SQUARED_EXPONENTIAL,
    KernelSpec,
    _rows,
    gradient_lipschitz,
    gram,
    kernel_eval,
    kernel_lipschitz,
    stddev_lipschitz,
)

from oracles import derivative_kernel_eval, kernel_gradient, kernel_metric

SE1 = KernelSpec(SQUARED_EXPONENTIAL, 1.0, (1.0,))
LIN2 = KernelSpec(LINEAR, 1.0, (1.0, 1.0))
BOX1 = DomainBox(1, 10.0)


def test_eval_closed_forms():
    assert kernel_eval(SE1, [0.3], [0.3]) == pytest.approx(1.0)
    assert kernel_eval(SE1, [0.0], [1.0]) == pytest.approx(math.exp(-0.5), abs=1e-12)
    assert kernel_eval(LIN2, [1.0, 2.0], [3.0, 4.0]) == pytest.approx(11.0)


def test_eval_matern_closed_forms():
    m32 = KernelSpec(MATERN32, 2.0, (0.5,))
    r = 1.0 / 0.5
    assert kernel_eval(m32, [0.0], [1.0]) == pytest.approx(
        2.0 * (1 + math.sqrt(3) * r) * math.exp(-math.sqrt(3) * r)
    )
    m52 = KernelSpec(MATERN52, 1.0, (1.0,))
    assert kernel_eval(m52, [0.0], [1.0]) == pytest.approx(
        (1 + math.sqrt(5) + 5.0 / 3.0) * math.exp(-math.sqrt(5))
    )


def test_eval_dimension_mismatch():
    with pytest.raises(ValueError):
        kernel_eval(SE1, [0.0, 1.0], [0.0, 1.0])
    with pytest.raises(ValueError):
        kernel_eval(LIN2, [1.0], [1.0])


def test_gradient_closed_forms():
    np.testing.assert_allclose(kernel_gradient(SE1, [0.7], [0.7]), [0.0], atol=1e-14)
    # 1-D SE, lag x - x' = 1: d/dx k = -e^{-1/2}
    np.testing.assert_allclose(kernel_gradient(SE1, [1.0], [0.0]), [-math.exp(-0.5)])
    np.testing.assert_allclose(kernel_gradient(LIN2, [9.0, -2.0], [3.0, 4.0]), [3.0, 4.0])


def test_metric_closed_forms():
    assert kernel_metric(SE1, [2.0], [2.0]) == 0.0
    assert kernel_metric(SE1, [0.0], [1.0]) == pytest.approx(math.sqrt(2 - 2 * math.exp(-0.5)))
    assert kernel_metric(LIN2, [1.0, 0.0], [0.0, 1.0]) == pytest.approx(math.sqrt(2.0))


def test_metric_rejects_broken_radicand():
    # feed the metric a spec whose eval we sabotage via an impossible pair:
    # simulate by monkeypatching is heavier than needed; instead check the
    # clamp window directly through a nearly-coincident pair
    assert kernel_metric(SE1, [1e-9], [0.0]) >= 0.0


def test_kernel_lipschitz_closed_forms():
    assert kernel_lipschitz(SE1, BOX1) == pytest.approx(math.exp(-0.5))
    assert kernel_lipschitz(KernelSpec(SQUARED_EXPONENTIAL, 4.0, (2.0,)), BOX1) == pytest.approx(
        2.0 * math.exp(-0.5)
    )
    assert kernel_lipschitz(LIN2, DomainBox(2, 10.0)) == pytest.approx(5.0 * math.sqrt(2.0))


@pytest.mark.parametrize("family", [SQUARED_EXPONENTIAL, MATERN32, MATERN52])
def test_kernel_lipschitz_is_gradient_sup(family):
    spec = KernelSpec(family, 1.7, (0.8,))
    L = kernel_lipschitz(spec, BOX1)
    lags = np.linspace(1e-6, 8.0, 20000)
    grads = np.array([abs(kernel_gradient(spec, [u], [0.0])[0]) for u in lags])
    assert grads.max() <= L * (1 + 1e-9)
    assert grads.max() >= 0.999 * L  # the bound is tight


def test_derivative_kernel_closed_forms():
    assert derivative_kernel_eval(SE1, 0, [0.2], [0.2]) == pytest.approx(1.0)
    assert derivative_kernel_eval(SE1, 0, [1.0], [0.0]) == pytest.approx(0.0, abs=1e-15)
    assert derivative_kernel_eval(LIN2, 1, [5.0, 6.0], [7.0, 8.0]) == pytest.approx(1.0)
    with pytest.raises(UnsupportedOperationError):
        derivative_kernel_eval(KernelSpec(MATERN32, 1.0, (1.0,)), 0, [0.0], [0.0])


@pytest.mark.parametrize(
    "spec",
    [
        KernelSpec(SQUARED_EXPONENTIAL, 1.3, (0.9, 1.4)),
        KernelSpec(MATERN52, 2.1, (1.1, 0.7)),
    ],
)
def test_derivative_kernel_matches_mixed_finite_difference(spec):
    # oracle: 4-point mixed partial of kernel_eval
    rng = np.random.default_rng(3)
    h = 1e-4
    for _ in range(10):
        x = rng.uniform(-2, 2, 2)
        y = rng.uniform(-2, 2, 2)
        for i in range(2):
            e = np.zeros(2)
            e[i] = h
            fd = (
                kernel_eval(spec, x + e, y + e)
                - kernel_eval(spec, x + e, y - e)
                - kernel_eval(spec, x - e, y + e)
                + kernel_eval(spec, x - e, y - e)
            ) / (4 * h * h)
            assert derivative_kernel_eval(spec, i, x, y) == pytest.approx(fd, rel=1e-4, abs=1e-6)


def test_stddev_lipschitz_closed_forms():
    assert stddev_lipschitz(SE1) == pytest.approx(1.0)
    assert stddev_lipschitz(KernelSpec(SQUARED_EXPONENTIAL, 4.0, (2.0,))) == pytest.approx(1.0)
    assert stddev_lipschitz(KernelSpec(SQUARED_EXPONENTIAL, 1.0, (0.5,))) == pytest.approx(2.0)
    with pytest.raises(UnsupportedOperationError):
        stddev_lipschitz(LIN2)


def test_stddev_lipschitz_numeric_maximization_cross_check():
    # independent oracle: dense scan of ||grad k|| / d_k over lags
    for spec in (SE1, KernelSpec(MATERN52, 2.0, (0.7,)), KernelSpec(MATERN32, 1.0, (1.3,))):
        L = stddev_lipschitz(spec)
        lags = np.linspace(1e-3, 10.0, 5000)
        ratios = [
            abs(kernel_gradient(spec, [u], [0.0])[0]) / kernel_metric(spec, [u], [0.0]) for u in lags
        ]
        assert max(ratios) <= L * (1 + 1e-9)


def test_gradient_lipschitz_scaling():
    assert gradient_lipschitz(SE1) == pytest.approx(1.0)
    assert gradient_lipschitz(KernelSpec(SQUARED_EXPONENTIAL, 1.0, (2.0,))) == pytest.approx(0.25)
    assert gradient_lipschitz(KernelSpec(SQUARED_EXPONENTIAL, 9.0, (3.0,))) == pytest.approx(1.0)
    with pytest.raises(UnsupportedOperationError):
        gradient_lipschitz(KernelSpec(LINEAR, 1.0, (1.0,)))


@pytest.mark.parametrize("family", [SQUARED_EXPONENTIAL, MATERN32, MATERN52])
def test_gradient_lipschitz_dominates_second_difference(family):
    # |k'(u) - k'(v)| <= L_dk |u - v| along 1-D lags
    spec = KernelSpec(family, 1.5, (0.8,))
    L = gradient_lipschitz(spec)
    lags = np.linspace(0.0, 6.0, 2000)
    g = np.array([kernel_gradient(spec, [u], [0.0])[0] for u in lags])
    slopes = np.abs(np.diff(g)) / np.diff(lags)
    assert slopes.max() <= L * (1 + 1e-6)


def test_spec_validation():
    with pytest.raises(ValueError):
        KernelSpec("periodic", 1.0, (1.0,))
    with pytest.raises(ValueError):
        KernelSpec(SQUARED_EXPONENTIAL, -1.0, (1.0,))
    with pytest.raises(ValueError):
        KernelSpec(SQUARED_EXPONENTIAL, 1.0, (1.0, 0.0))


# ---------------------------------------------------------------------------
# property tests
# ---------------------------------------------------------------------------

families = st.sampled_from([SQUARED_EXPONENTIAL, MATERN32, MATERN52, LINEAR])
dims = st.integers(min_value=1, max_value=3)


@st.composite
def spec_and_points(draw, n_points=2):
    d = draw(dims)
    family = draw(families)
    sf2 = draw(st.floats(0.5, 4.0))
    ls = tuple(draw(st.floats(0.5, 2.0)) for _ in range(d))
    pts = [
        np.array([draw(st.floats(-3.0, 3.0)) for _ in range(d)]) for _ in range(n_points)
    ]
    return KernelSpec(family, sf2, ls), pts


@settings(max_examples=150, derandomize=True)
@given(spec_and_points())
def test_symmetry(case):
    spec, (x, y) = case
    assert abs(kernel_eval(spec, x, y) - kernel_eval(spec, y, x)) <= 1e-12


@settings(max_examples=60, derandomize=True, deadline=None)
@given(spec_and_points(), st.integers(0, 2 ** 31 - 1))
def test_gram_positive_semidefinite(case, seed):
    spec, _ = case
    rng = np.random.default_rng(seed)
    X = rng.uniform(-3, 3, size=(rng.integers(2, 21), spec.dim))
    w = np.linalg.eigvalsh(gram(spec, X))
    assert w[0] >= -1e-8 * max(w[-1], 1e-300)


@settings(max_examples=100, derandomize=True)
@given(spec_and_points())
def test_gradient_matches_finite_differences(case):
    spec, (x, y) = case
    if spec.family in (MATERN32, MATERN52) and np.linalg.norm(x - y) < 0.1:
        y = y + 0.2  # keep Matern finite differences away from the kink region
    g = kernel_gradient(spec, x, y)
    h = 1e-5
    for i in range(spec.dim):
        e = np.zeros(spec.dim)
        e[i] = h
        fd = (kernel_eval(spec, x + e, y) - kernel_eval(spec, x - e, y)) / (2 * h)
        assert g[i] == pytest.approx(fd, rel=1e-5, abs=1e-7)


@settings(max_examples=100, derandomize=True)
@given(spec_and_points())
def test_metric_below_sqrt_rate(case):
    # d_k(x, x') <= sqrt(2 L_k ||x - x'||), the square-root continuity rate
    spec, (x, y) = case
    box = DomainBox(spec.dim, 12.0)
    L_k = kernel_lipschitz(spec, box)
    assert kernel_metric(spec, x, y) <= math.sqrt(2 * L_k * np.linalg.norm(x - y)) + 1e-9


@settings(max_examples=100, derandomize=True)
@given(spec_and_points())
def test_metric_below_linear_rate_stationary(case):
    spec, (x, y) = case
    if not spec.stationary:
        return
    L_sigma = stddev_lipschitz(spec)
    assert kernel_metric(spec, x, y) <= L_sigma * np.linalg.norm(x - y) + 1e-9


@settings(max_examples=30, derandomize=True, deadline=None)
@given(
    family=st.sampled_from([SQUARED_EXPONENTIAL, MATERN32, MATERN52]),
    log_sf2=st.floats(-3.0, 3.0),
    log_ell=st.tuples(st.floats(-1.5, 1.5), st.floats(-1.5, 1.5)),
)
def test_closed_form_constants_dominate_scans_along_the_shortest_axis(family, log_sf2, log_ell):
    # oracle: kernel_gradient and kernel_metric at lags u along the minimum-lengthscale axis
    spec = KernelSpec(family, math.exp(log_sf2), tuple(math.exp(v) for v in log_ell))
    lm = spec.ell_min
    axis = np.zeros(2)
    axis[int(np.argmin(spec.ell))] = 1.0
    zero = np.zeros(2)

    def grads(lags):
        return np.array([kernel_gradient(spec, u * axis, zero) for u in lags])

    lags = lm * np.linspace(1e-3, 10.0, 2000)
    g = grads(lags)
    ratios = np.linalg.norm(g, axis=1) / np.array([kernel_metric(spec, u * axis, zero) for u in lags])
    assert ratios.max() <= stddev_lipschitz(spec)
    # each finite-difference slope of k' is the mean of k'' over its step
    slopes = np.abs(np.diff(g @ axis)) / np.diff(lags)
    assert slopes.max() <= gradient_lipschitz(spec)
    if family == MATERN52:
        # the finer scan's nearest point lies 6.8e-6 from the peak v* = (5 + sqrt5) / 10 in scaled
        # lag, where ||grad k|| is 6e-11 below its maximum: far above rounding, far below 1e-9
        norms = np.linalg.norm(np.vstack([g, grads(lm * np.linspace(0.7, 0.75, 2001))]), axis=1)
        L_k = kernel_lipschitz(spec, BOX1)
        assert norms.max() <= L_k
        assert norms.max() >= L_k * (1 - 1e-9)


def einsum_sqdist(spec, X, Y):
    # the (rows, m, d) tensor and einsum that the per-coordinate sums of _rows replace
    d = (X[:, None, :] - Y[None, :, :]) / spec.ell
    return np.einsum("ijk,ijk->ij", d, d)


def routine_sqdist(spec, X, Y):
    # the distance stage of _rows, steps 1 and 2: the linear family has no closed form there,
    # so q keeps the scaled squared distance
    D = np.empty((spec.dim, len(X), len(Y)))
    q = np.empty((len(X), len(Y)))
    _rows(KernelSpec(LINEAR, 1.0, spec.lengthscales), X.T[:, :, None], Y.T[:, None, :],
          spec.ell[:, None, None], D, q)
    return q


@settings(max_examples=150, deadline=None)
@given(
    ell=st.lists(st.floats(1e-2, 1e2), min_size=1, max_size=7),
    n=st.integers(1, 40),
    m=st.integers(1, 40),
    scale=st.sampled_from([1e-3, 1.0, 1e3]),
    seed=st.integers(0, 2 ** 32 - 1),
)
def test_per_coordinate_sqdist_is_bytewise_the_einsum(ell, n, m, scale, seed):
    rng = np.random.default_rng(seed)
    spec = KernelSpec(SQUARED_EXPONENTIAL, 1.0, tuple(ell))
    X = scale * rng.uniform(-5.0, 5.0, (n, len(ell)))
    Y = rng.uniform(-5.0, 5.0, (m, len(ell)))
    got = routine_sqdist(spec, X, Y)
    assert got.shape == (n, m)
    assert got.tobytes() == einsum_sqdist(spec, X, Y).tobytes()


@pytest.mark.parametrize("family", [SQUARED_EXPONENTIAL, MATERN32, MATERN52])
@pytest.mark.parametrize("sf2", [1.0, 2.5])
def test_gram_at_a_tiny_lengthscale_is_sf2_times_the_identity(family, sf2):
    # the scaled distance of distinct points overflows to inf; k there is exactly 0, not
    # inf * exp(-inf) = NaN, and no overflow warning is raised
    X = np.random.default_rng(0).uniform(-4.0, 4.0, (30, 2))
    spec = KernelSpec(family, sf2, (1e-200, 1.0))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        K = gram(spec, X)
    assert K.tobytes() == (sf2 * np.eye(30)).tobytes()
