import math

import numpy as np
import pytest

from gpcert.density import (
    data_density,
    data_density_batch,
    kernel_subset,
)
from gpcert.errors import DegenerateInputError, UnsupportedOperationError
from gpcert.gp import TrainingSet, fit
from gpcert.kernels import (
    LINEAR,
    MATERN32,
    MATERN52,
    SQUARED_EXPONENTIAL,
    KernelSpec,
    kernel_diag,
    gram,
)

from conftest import random_kernel, random_model, se_unit
from oracles import (
    density_variance_bound,
    geometric_ball_radius,
    geometric_subset_linear,
    variance_bound_general,
    variance_bound_stationary,
)


def brute_force_density(model, x, grid_points=1_000_000):
    """Independent oracle: feasibility of the defining inequalities on a dense
    geometric rho' grid, refined once around the coarse winner."""
    x = np.asarray(x, dtype=float)
    kxx = float(kernel_diag(model.kernel, x[None, :])[0])
    c = model.data.noise_variance * kxx
    if len(model) == 0:
        return 0.0
    diag = kernel_diag(model.kernel, model.data.inputs)
    kxp = gram(model.kernel, model.data.inputs, x[None, :])[:, 0]

    def best_on(grid):
        # membership straight from the defining inequalities, broadcast
        member = (kxx ** 2 <= diag[:, None] ** 2) & (
            diag[:, None] ** 2 <= 1.0 / grid[None, :] + kxp[:, None] ** 2
        )
        counts = member.sum(axis=0)
        feasible = counts >= c * grid
        return float(grid[feasible].max()) if feasible.any() else 0.0

    hi = (len(model) / c) * 2.0
    lo = min(1.0 / c, hi) * 1e-12
    coarse = np.geomspace(lo, hi, 20000)
    rough = best_on(coarse)
    if rough == 0.0:
        return 0.0
    step = coarse[1] / coarse[0]
    fine = np.geomspace(rough / step ** 2, rough * step ** 2, grid_points)
    return best_on(fine)


def test_subset_all_coincident():
    m = fit(se_unit(), TrainingSet(np.zeros((5, 1)), np.ones(5), 0.01))
    for rho in (0.1, 1.0, 100.0):
        assert kernel_subset(m, np.array([0.0]), rho) == [0, 1, 2, 3, 4]


def test_subset_hand_inequality():
    # point at the lag where k = 1/2: excluded at rho' = 2 since
    # 1 > 1/2 + 1/4, included once 1/rho' + k^2 reaches 1
    lag = math.sqrt(-2.0 * math.log(0.5))
    m = fit(se_unit(), TrainingSet(np.array([[lag]]), np.array([0.0]), 0.01))
    assert kernel_subset(m, np.array([0.0]), 2.0) == []
    assert kernel_subset(m, np.array([0.0]), 1.0 / 0.75) == [0]


def test_subset_linear_smaller_norm_excluded():
    lin = KernelSpec(LINEAR, 1.0, (1.0, 1.0))
    m = fit(lin, TrainingSet(np.array([[0.3, 0.4]]), np.array([0.0]), 0.01))
    x = np.array([1.0, 1.0])
    for rho in (1e-6, 1.0, 1e6):
        assert kernel_subset(m, x, rho) == []


def test_subset_monotone_in_rho():
    rng = np.random.default_rng(0)
    for _ in range(30):
        spec = random_kernel(rng, d=2)
        m = random_model(rng, spec, n=12)
        x = rng.uniform(-3, 3, 2)
        if kernel_diag(spec, x[None, :])[0] <= 0:
            continue
        r1, r2 = sorted(rng.uniform(0.1, 50.0, 2))
        assert set(kernel_subset(m, x, r2)) <= set(kernel_subset(m, x, r1))


def test_density_coincident_and_empty():
    m25 = fit(se_unit(), TrainingSet(np.zeros((25, 1)), np.ones(25), 0.01))
    res = data_density(m25, np.array([0.0]))
    assert res.rho == pytest.approx(2500.0)
    assert len(res.subset_indices) == 25
    empty = fit(se_unit(), TrainingSet.empty(1, 0.01))
    assert data_density(empty, np.array([0.0])).rho == 0.0


def test_density_degenerate_query():
    lin = KernelSpec(LINEAR, 1.0, (1.0, 1.0))
    m = fit(lin, TrainingSet(np.array([[1.0, 1.0]]), np.array([1.0]), 0.01))
    with pytest.raises(DegenerateInputError):
        data_density(m, np.zeros(2))


def test_density_matches_brute_force():
    rng = np.random.default_rng(1)
    checked = 0
    for _ in range(40):
        spec = random_kernel(rng, d=int(rng.integers(1, 3)))
        m = random_model(rng, spec, n=int(rng.integers(1, 21)))
        x = rng.uniform(-3, 3, spec.dim)
        if kernel_diag(spec, x[None, :])[0] <= 1e-9:
            continue
        exact = data_density(m, x).rho
        grid = brute_force_density(m, x)
        assert exact == pytest.approx(grid, rel=1e-6, abs=1e-12)
        checked += 1
    assert checked >= 30


def test_density_feasible_and_maximal():
    rng = np.random.default_rng(2)
    for _ in range(50):
        spec = random_kernel(rng, d=2, families=(SQUARED_EXPONENTIAL, MATERN32, MATERN52))
        m = random_model(rng, spec, n=int(rng.integers(1, 15)))
        x = rng.uniform(-3, 3, 2)
        res = data_density(m, x)
        kxx = float(kernel_diag(spec, x[None, :])[0])
        c = m.data.noise_variance * kxx
        if res.rho == 0.0:
            continue
        # feasibility, recounted from the defining inequalities
        assert len(kernel_subset(m, x, res.rho)) >= res.rho * c - 1e-9
        assert len(res.subset_indices) >= res.rho * c - 1e-9
        # maximality: a relative nudge up is infeasible
        bumped = res.rho * (1.0 + 1e-6)
        assert len(kernel_subset(m, x, bumped)) < bumped * c


def test_density_batch_matches_scalar():
    rng = np.random.default_rng(3)
    spec = se_unit(2)
    m = random_model(rng, spec, n=15)
    X = rng.uniform(-3, 3, (20, 2))
    batch = data_density_batch(m, X)
    singles = np.array([data_density(m, x).rho for x in X])
    np.testing.assert_allclose(batch, singles, rtol=1e-12)


@pytest.mark.parametrize("family", [SQUARED_EXPONENTIAL, MATERN32, MATERN52])
def test_density_batch_equals_scalar_bit_for_bit(family):
    # both read one exit-threshold table; the queries include data points, whose own
    # threshold is infinite
    rng = np.random.default_rng(4)
    m = random_model(rng, KernelSpec(family, 1.7, (0.8, 1.5)), n=40)
    X = np.vstack([rng.uniform(-3, 3, (60, 2)), m.data.inputs[:5]])
    singles = np.array([data_density(m, x).rho for x in X])
    assert data_density_batch(m, X).tobytes() == singles.tobytes()


def test_variance_bound_examples():
    one_at = fit(se_unit(), TrainingSet(np.array([[0.0]]), np.array([1.0]), 0.01))
    x = np.array([0.0])
    assert variance_bound_general(one_at, x) == pytest.approx(0.01 / 1.01)
    empty = fit(se_unit(), TrainingSet.empty(1, 0.01))
    assert variance_bound_general(empty, x) == pytest.approx(1.0)

    # one point at lag 1: Delta k = 1 - e^{-1}; bound is tight for N = 1
    lag1 = fit(se_unit(), TrainingSet(np.array([[1.0]]), np.array([1.0]), 0.01))
    kp = math.exp(-0.5)
    expect = (0.01 + (1.0 - kp ** 2)) / 1.01
    assert variance_bound_general(lag1, x) == pytest.approx(expect)
    assert lag1.predict_var(x) == pytest.approx(expect)


def test_variance_bound_stationary_examples():
    x = np.array([0.0])
    one_at = fit(se_unit(), TrainingSet(np.array([[0.0]]), np.array([1.0]), 0.01))
    assert variance_bound_stationary(one_at, x) == pytest.approx(1.0 - 1.0 / 1.01)
    # a single far point degrades the bound to nearly the prior variance
    far = fit(se_unit(), TrainingSet(np.array([[8.0]]), np.array([1.0]), 0.01))
    assert variance_bound_stationary(far, x) == pytest.approx(1.0, abs=1e-10)
    # N -> infinity with coincident data: bound -> 0
    many = fit(se_unit(), TrainingSet(np.zeros((4000, 1)), np.ones(4000), 0.01))
    assert variance_bound_stationary(many, x) < 3e-6
    lin = KernelSpec(LINEAR, 1.0, (1.0,))
    mlin = fit(lin, TrainingSet(np.array([[1.0]]), np.array([1.0]), 0.01))
    with pytest.raises(UnsupportedOperationError):
        variance_bound_stationary(mlin, np.array([1.0]))


def test_density_variance_bound_examples():
    m25 = fit(se_unit(), TrainingSet(np.zeros((25, 1)), np.ones(25), 0.01))
    x = np.array([0.0])
    b = density_variance_bound(m25, x)
    assert b == pytest.approx(math.sqrt(2.0 / 2500.0))
    assert m25.predict_stddev(x) <= b
    empty = fit(se_unit(), TrainingSet.empty(1, 0.01))
    assert density_variance_bound(empty, x) == math.inf


def test_bound_chain_on_random_instances():
    rng = np.random.default_rng(4)
    for _ in range(100):
        spec = random_kernel(rng, d=int(rng.integers(1, 3)))
        m = random_model(rng, spec, n=int(rng.integers(1, 21)))
        x = rng.uniform(-3, 3, spec.dim)
        kxx = float(kernel_diag(spec, x[None, :])[0])
        exact = m.predict_var(x)
        assert exact <= variance_bound_general(m, x) + 1e-9
        if spec.stationary:
            stat = variance_bound_stationary(m, x)
            assert exact <= stat + 1e-9
            # for stationary kernels the general and stationary forms agree
            assert variance_bound_general(m, x) == pytest.approx(stat, rel=1e-9)
        if kxx > 1e-9:
            assert math.sqrt(exact) <= density_variance_bound(m, x) + 1e-9


def test_bound_chain_through_density_subset():
    # exact variance <= Gershgorin bound restricted to the density subset,
    # and the standard deviation obeys the density bound
    rng = np.random.default_rng(7)
    for _ in range(50):
        spec = random_kernel(rng, d=2, families=(SQUARED_EXPONENTIAL, MATERN32, MATERN52))
        m = random_model(rng, spec, n=int(rng.integers(2, 15)))
        x = rng.uniform(-3, 3, 2)
        res = data_density(m, x)
        exact = m.predict_var(x)
        assert exact <= variance_bound_general(m, x, subset=res.subset_indices) + 1e-9
        if res.rho > 0:
            assert math.sqrt(exact) <= math.sqrt(2.0 / (res.rho * spec.signal_variance)) + 1e-9


def test_geometric_ball_examples():
    assert geometric_ball_radius(se_unit(), 2.0) == pytest.approx(0.5)
    assert geometric_ball_radius(se_unit(), 1e12) < 1e-5
    with pytest.raises(UnsupportedOperationError):
        geometric_ball_radius(KernelSpec(LINEAR, 1.0, (1.0,)), 2.0)


def test_geometric_ball_inclusion():
    rng = np.random.default_rng(5)
    for _ in range(200):
        spec = random_kernel(rng, d=2, families=(SQUARED_EXPONENTIAL, MATERN32, MATERN52))
        m = random_model(rng, spec, n=10)
        x = rng.uniform(-2, 2, 2)
        rho = float(rng.uniform(0.05, 20.0))
        r = geometric_ball_radius(spec, rho)
        inside = [
            i for i in range(10) if np.linalg.norm(m.data.inputs[i] - x) <= r
        ]
        members = set(kernel_subset(m, x, rho))
        assert set(inside) <= members


def test_linear_subset_examples():
    x = np.array([1.0, 0.0])
    # x' = x: conditions reduce to ||x||^4 (1 - c) <= 1/rho'
    assert geometric_subset_linear(x, x[None, :], 1.0, 0.5) == [0]
    assert geometric_subset_linear(x, x[None, :], 3.0, 0.5) == []
    # orthogonal point: the alignment condition fails
    assert geometric_subset_linear(x, np.array([[0.0, 1.0]]), 1e-9, 0.5) == []


def test_linear_subset_contained_in_kernel_subset():
    lin = KernelSpec(LINEAR, 1.0, (1.0, 1.0))
    rng = np.random.default_rng(6)
    for _ in range(200):
        pts = rng.uniform(-2, 2, (12, 2))
        m = fit(lin, TrainingSet(pts, rng.normal(size=12), 0.01))
        x = rng.uniform(-2, 2, 2)
        if np.linalg.norm(x) < 1e-6:
            continue
        rho = float(rng.uniform(0.05, 10.0))
        c = float(rng.uniform(0.05, 0.95))
        H = set(geometric_subset_linear(x, pts, rho, c))
        K = set(kernel_subset(m, x, rho))
        assert H <= K
