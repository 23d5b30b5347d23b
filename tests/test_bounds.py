import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gpcert import bounds, kernels
from gpcert.bounds import (
    BoundReport,
    DomainBox,
    _derivative_kernel_constants,
    auto_tau,
    beta,
    bound_constants,
    covering_number_bound,
    gamma,
    geometric_bisect,
    mean_lipschitz,
    probabilistic_lipschitz,
    stddev_modulus,
    uniform_error_bound,
)
from gpcert.errors import DomainError, UnsupportedOperationError
from gpcert.gp import TrainingSet, fit
from gpcert.kernels import (
    LINEAR,
    MATERN32,
    MATERN52,
    SQUARED_EXPONENTIAL,
    KernelSpec,
    kernel_eval,
    kernel_lipschitz,
    stddev_lipschitz,
)

from conftest import random_kernel, random_model, se_unit
from oracles import derivative_kernel_eval, expected_sup_bound, sample_sup_bound

BOX2 = DomainBox(2, 10.0)

# independent high-precision evaluation of 2 ln(5e7): the confidence factor
# for M = 5e5 cover points at delta = 0.01
BETA_ORACLE = 2.0 * (math.log(5.0) + 7.0 * math.log(10.0))


def test_covering_number_examples():
    assert covering_number_bound(0.01, BOX2) == pytest.approx(500000.0)
    assert covering_number_bound(10.0, BOX2) == 1.0  # tau >= r sqrt(d)/2
    assert covering_number_bound(0.25, DomainBox(1, 1.0)) == pytest.approx(2.0)


def test_beta_examples():
    assert beta(0.01, 0.01, BOX2) == pytest.approx(BETA_ORACLE, rel=1e-12)
    # one cover ball at delta = 1/e gives exactly 2
    big_tau_box = DomainBox(1, 1.0)
    assert beta(10.0, math.exp(-1.0), big_tau_box) == pytest.approx(2.0)
    # beta -> 0+ as delta -> 1- when the cover bound is 1
    assert beta(10.0, 0.999, big_tau_box) < beta(10.0, 0.9, big_tau_box)
    assert beta(10.0, 0.999999, big_tau_box) > 0.0


def test_mean_lipschitz_examples():
    L_k = math.exp(-0.5)
    assert mean_lipschitz(fit(se_unit(), TrainingSet.empty(1, 0.01)), L_k) == 0.0
    one = fit(se_unit(), TrainingSet(np.array([[0.0]]), np.array([1.0]), 0.01))
    assert mean_lipschitz(one, L_k) == pytest.approx(L_k / 1.01)
    two = fit(se_unit(), TrainingSet(np.zeros((2, 1)), np.ones(2), 0.01))
    # hand-solved 2x2 system: alpha_i = 1/2.01
    assert mean_lipschitz(two, L_k) == pytest.approx(L_k * math.sqrt(2) * math.sqrt(2) / 2.01)


def test_stddev_modulus_examples():
    assert stddev_modulus(0.01, 1.0, None) == pytest.approx(math.sqrt(0.02))
    assert stddev_modulus(0.01, 1.0, 1.0) == pytest.approx(0.01)
    assert stddev_modulus(0.0, 1.0, 1.0) == 0.0


def test_gamma_examples():
    assert gamma(0.0, 1.0, 2.0, 4.0, 0.0) == 0.0
    g = gamma(0.01, 0.0, 2.0, BETA_ORACLE, math.sqrt(0.02))
    assert g == pytest.approx(0.02 + math.sqrt(BETA_ORACLE) * math.sqrt(0.02), rel=1e-12)
    assert g == pytest.approx(0.862124, abs=3e-3)  # quoted value carries rounding
    assert gamma(0.1, 1.0, 1.0, 4.0, 0.1) == pytest.approx(0.4)


def eta_at(model, x, tau=0.01, delta=0.01, L_f=2.0):
    """uniform_error_bound at x, with the kernel's own constants."""
    rep = bound_constants(model, tau, delta, L_f, BOX2)
    return uniform_error_bound(rep, x, model.predict_stddev(x))


def assembled_report(model, tau, delta, L_f, box, L_k, L_sigma):
    """The report of beta, mean_lipschitz, stddev_modulus and gamma at the given kernel constants."""
    b = beta(tau, delta, box)
    L_mu = mean_lipschitz(model, L_k)
    om = stddev_modulus(tau, L_k, L_sigma)
    return BoundReport(tau, delta, b, gamma(tau, L_mu, L_f, b, om), L_mu, L_f, covering_number_bound(tau, box), om,
                       box)


def test_uniform_bound_composes_beta_and_gamma():
    model = fit(se_unit(2), TrainingSet.empty(2, 0.01))
    x = np.zeros(2)

    def forced_eta(model):
        # spec example forces L_k = 1 and the sqrt(2 L_k tau) modulus, which no kernel's own constants give
        rep = assembled_report(model, 0.01, 0.01, 2.0, BOX2, 1.0, None)
        return uniform_error_bound(rep, x, model.predict_stddev(x))

    eta = forced_eta(model)
    expect = math.sqrt(BETA_ORACLE) * 1.0 + (0.02 + math.sqrt(BETA_ORACLE) * math.sqrt(0.02))
    assert eta == pytest.approx(expect, rel=1e-12)
    assert eta == pytest.approx(6.81673, abs=5e-3)

    m25 = fit(se_unit(2), TrainingSet(np.zeros((25, 2)), np.ones(25), 0.01))
    eta25 = forced_eta(m25)
    sigma25 = math.sqrt(0.01 / 25.01)
    gamma25 = (mean_lipschitz(m25, 1.0) + 2.0) * 0.01 + math.sqrt(BETA_ORACLE) * math.sqrt(0.02)
    assert eta25 == pytest.approx(math.sqrt(BETA_ORACLE) * sigma25 + gamma25, rel=1e-12)


@pytest.mark.parametrize("family", [SQUARED_EXPONENTIAL, MATERN32, MATERN52, LINEAR])
def test_bound_constants_uses_the_kernels_own_constants(family):
    # no caller can hand in a smaller L_k or L_sigma, and with it a smaller gamma
    rng = np.random.default_rng(7)
    spec = random_kernel(rng, 2, families=(family,))
    model = random_model(rng, spec, 12)
    box = DomainBox(2, 6.0, np.array([1.0, -2.0]))  # off-center: the linear L_k reads the box's far corner
    L_k = kernel_lipschitz(spec, box)
    L_sigma = stddev_lipschitz(spec) if family != LINEAR else None  # linear: the square-root modulus alone
    assert bounds.kernel_constants(spec, box) == (L_k, L_sigma)
    for tau in (1e-6, 1e-3, 0.5):
        rep = bound_constants(model, tau, 0.01, 2.0, box)
        assert rep == assembled_report(model, tau, 0.01, 2.0, box, L_k, L_sigma)
        assert rep.omega_sigma == stddev_modulus(tau, L_k, L_sigma)


def test_uniform_bound_zero_sigma_limit():
    # with sigma = 0 the bound reduces to gamma; the empty prior never has
    # sigma = 0, so check via the analytic decomposition instead
    model = fit(se_unit(2), TrainingSet.empty(2, 0.01))
    rep = bound_constants(model, 0.01, 0.01, 2.0, BOX2)
    eta = eta_at(model, np.zeros(2))
    assert eta - math.sqrt(rep.beta) * 1.0 == pytest.approx(rep.gamma, rel=1e-12)


def test_uniform_bound_outside_box():
    model = fit(se_unit(2), TrainingSet.empty(2, 0.01))
    with pytest.raises(DomainError):
        eta_at(model, np.array([6.0, 0.0]))
    # a batch fails on its first row outside the box, which the message names
    batch = np.array([[0.0, 0.0], [4.0, -5.0], [0.0, 5.5], [6.0, 0.0]])
    with pytest.raises(DomainError, match=r"\[0\.\s+5\.5\]"):
        eta_at(model, batch)
    # points exactly on the box edge are inside
    edge = np.array([[5.0, 5.0], [-5.0, 0.0], [0.0, -5.0], [-5.0, -5.0]])
    eta = eta_at(model, edge)
    assert eta.shape == (4,) and np.all(np.isfinite(eta))


def test_eta_monotonicity_sweeps():
    rng = np.random.default_rng(0)
    X = rng.uniform(-4, 4, (12, 2))
    y = rng.normal(size=12)
    model = fit(se_unit(2), TrainingSet(X, y, 0.01))
    q = np.array([1.0, 1.0])

    def eta(delta=0.01, L_f=2.0):
        return eta_at(model, q, delta=delta, L_f=L_f)

    assert eta(delta=0.001) > eta(delta=0.01) > eta(delta=0.1)  # nondecreasing as delta drops
    assert eta(L_f=5.0) > eta(L_f=2.0) > eta(L_f=0.0)
    # nondecreasing in sigma: farther queries have larger sigma
    near = eta_at(model, X[0])
    far_pt = np.array([-4.9, 4.9])
    assert model.predict_stddev(far_pt) > model.predict_stddev(X[0])
    assert eta_at(model, far_pt) > near


def test_gamma_decreases_with_tau():
    model = fit(se_unit(2), TrainingSet(np.zeros((4, 2)), np.ones(4), 0.01))
    vals = []
    for tau in (1e-2, 1e-4, 1e-6):
        rep = bound_constants(model, tau, 0.01, 2.0, BOX2)
        vals.append(rep.gamma)
    assert vals[0] > vals[1] > vals[2]


def test_expected_sup_examples():
    se2 = se_unit(2)
    v = expected_sup_bound(se2, BOX2, 1.0)
    assert v == pytest.approx(12.0 * math.sqrt(12.0) * math.sqrt(10.0), rel=1e-12)
    assert v == pytest.approx(131.453, abs=1e-3)
    assert expected_sup_bound(se_unit(), DomainBox(1, 1.0), 1.0) == pytest.approx(12.0 * math.sqrt(6.0))
    # r -> 0: the kernel term dominates
    assert expected_sup_bound(se2, DomainBox(2, 1e-12), 1.0) == pytest.approx(12.0 * math.sqrt(12.0))


def test_sample_sup_examples():
    se2 = se_unit(2)
    v = sample_sup_bound(se2, BOX2, 0.01, 1.0)
    assert v == pytest.approx(math.sqrt(2 * math.log(100.0)) + 131.4534138, abs=1e-3)
    # delta_L -> 1-: only the expected-supremum term remains
    assert sample_sup_bound(se2, BOX2, 1 - 1e-12, 1.0) == pytest.approx(
        expected_sup_bound(se2, BOX2, 1.0), rel=1e-6
    )
    assert sample_sup_bound(se_unit(), DomainBox(1, 1.0), math.exp(-2.0), 1.0) == pytest.approx(
        2.0 + 12.0 * math.sqrt(6.0), rel=1e-12
    )


def _brute_force_derivative_constants(spec, i, d):
    """Oracle for the per-axis supremum-bound inputs.

    Derivative-kernel variance at zero lag by mixed finite differences of the
    base kernel; Lipschitz constant of the derivative kernel by the maximum
    finite-difference slope of derivative_kernel_eval over a dense lag grid.
    """
    h = 1e-5
    zero = np.zeros(d)
    e = np.zeros(d)
    e[i] = h
    var0 = (
        kernel_eval(spec, e, e)
        - kernel_eval(spec, e, -e)
        - kernel_eval(spec, -e, e)
        + kernel_eval(spec, -e, -e)
    ) / (4 * h * h)
    if d == 1:
        lags = np.linspace(0.0, 10.0, 4001)[:, None]
    else:
        g1, g2 = np.meshgrid(np.linspace(0, 6, 121), np.linspace(0, 6, 121), indexing="ij")
        lags = np.column_stack([g1.ravel(), g2.ravel()])
    vals = np.array([derivative_kernel_eval(spec, i, lag, zero) for lag in lags])
    if d == 1:
        slopes = np.abs(np.diff(vals)) / np.diff(lags[:, 0])
        L = slopes.max()
    else:
        grid = vals.reshape(121, 121)
        step = 6.0 / 120
        gx, gy = np.gradient(grid, step, step)
        L = float(np.sqrt(gx ** 2 + gy ** 2).max())  # joint gradient magnitude
    return math.sqrt(var0), L


def test_probabilistic_lipschitz_1d_reduces_to_single_sup():
    spec = se_unit()
    box = DomainBox(1, 10.0)
    val = probabilistic_lipschitz(spec, box, 0.02)
    # oracle: evaluate the closed form with brute-force constants
    max_sq, L_d = _brute_force_derivative_constants(spec, 0, 1)
    delta = 0.02 / 2.0
    oracle = math.sqrt(2 * math.log(1 / delta)) * max_sq + 12 * math.sqrt(6) * max(
        max_sq, math.sqrt(10.0 * L_d)
    )
    # the implementation may be slightly more conservative in L_d but must
    # stay within a tight band of the brute-force value
    assert val == pytest.approx(oracle, rel=2e-2)
    assert val >= oracle * (1 - 1e-6)


def test_probabilistic_lipschitz_2d_isotropy():
    spec = se_unit(2)
    val = probabilistic_lipschitz(spec, BOX2, 0.02)
    # equal per-axis components: norm is sqrt(2) times the common value
    axis = val / math.sqrt(2.0)
    max_sq, L_d = _brute_force_derivative_constants(spec, 0, 2)
    delta = 0.02 / 4.0
    oracle_axis = math.sqrt(2 * math.log(1 / delta)) * max_sq + 12 * math.sqrt(12) * max(
        max_sq, math.sqrt(10.0 * L_d)
    )
    assert axis >= oracle_axis * (1 - 1e-6)  # conservative against brute force
    assert axis == pytest.approx(oracle_axis, rel=5e-2)


def test_probabilistic_lipschitz_rejects_matern32():
    with pytest.raises(UnsupportedOperationError):
        probabilistic_lipschitz(KernelSpec(MATERN32, 1.0, (1.0,)), DomainBox(1, 10.0), 0.01)


def test_probabilistic_lipschitz_matern52_runs():
    v = probabilistic_lipschitz(KernelSpec(MATERN52, 1.0, (1.0,)), DomainBox(1, 10.0), 0.01)
    assert v > 0


def _full_grid_derivative_lipschitz(spec, i, dim):
    """Lipschitz constant of k^di as the maximum over the whole 1601^2 grid of [0, 12]^2, in 100-row strips."""
    sf2, li, lm = spec.signal_variance, spec.lengthscales[i], spec.ell_min
    axis = np.linspace(0.0, 12.0, 1601)
    s = axis[None, :] if dim > 1 else np.zeros((1, 1))
    best = 0.0
    for start in range(0, axis.size, 100):
        a = axis[start:start + 100, None]
        if spec.family == SQUARED_EXPONENTIAL:
            E = np.exp(-0.5 * (a * a + s * s))
            dFa = -(sf2 / li ** 3) * a * (3.0 - a * a) * E
            dFs = -(sf2 / li ** 2) * s * (1.0 - a * a) * E
            g2 = dFa ** 2 + ((dFs / lm) ** 2 if dim > 1 else 0.0)
        else:
            c = (5.0 / 3.0) * sf2 / li ** 2
            r = np.sqrt(a * a + s * s)
            rsafe = np.maximum(r, 1e-300)
            E = np.exp(-math.sqrt(5.0) * r)
            dGa = 5.0 * a * E * (math.sqrt(5.0) * a * a / rsafe - 3.0)
            dGs = math.sqrt(5.0) * (s / rsafe) * E * (5.0 * a * a - math.sqrt(5.0) * r)
            g2 = (c * dGa / li) ** 2 + ((c * dGs / lm) ** 2 if dim > 1 else 0.0)
        best = max(best, float(g2.max()))
    return math.sqrt(best)


@settings(max_examples=60, deadline=None)
@given(family=st.sampled_from([SQUARED_EXPONENTIAL, MATERN52]), log_sf2=st.floats(-3.0, 3.0),
       log_ells=st.lists(st.floats(-1.5, 1.5), min_size=1, max_size=3), data=st.data())
def test_derivative_kernel_window_matches_full_grid(family, log_sf2, log_ells, data):
    # the [0, 6]^2 window holds the maximum of the [0, 12]^2 grid, bit for bit
    dim = len(log_ells)
    spec = KernelSpec(family, math.exp(log_sf2), tuple(math.exp(v) for v in log_ells))
    i = data.draw(st.integers(0, dim - 1))
    assert _derivative_kernel_constants(spec, i, dim)[1] == _full_grid_derivative_lipschitz(spec, i, dim)


@pytest.mark.parametrize("family", [SQUARED_EXPONENTIAL, MATERN52])
@pytest.mark.parametrize("dim", [1, 2])
def test_derivative_kernel_grid_blocks_do_not_move_bits(monkeypatch, family, dim):
    # one row a block, the budget's blocks (20 rows at d = 2, all 801 at d = 1) and one block of all 801 rows
    spec = KernelSpec(family, 1.7, (0.8, 1.5)[:dim])
    found = []
    for budget in (1, kernels._BLOCK_ELEMENTS, bounds._GRID_TEMPORARIES * 801 * 801):
        monkeypatch.setattr(kernels, "_BLOCK_ELEMENTS", budget)
        found.append([_derivative_kernel_constants(spec, i, dim) for i in range(dim)])
    assert found[0] == found[1] == found[2]


@pytest.mark.parametrize("family", [SQUARED_EXPONENTIAL, MATERN52])
def test_probabilistic_lipschitz_holds_a_bounded_grid(family):
    # the 801 x 801 grid of the benchmark tracking kernel is evaluated in blocks whose live
    # arrays fit the 2^17-element (1 MiB) budget; one whole-grid array alone is 5.1 MB
    spec = KernelSpec(family, 1.0, (1.0, 1.5))
    tracemalloc.start()
    try:
        probabilistic_lipschitz(spec, BOX2, 0.01)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2e6


def test_params_validation():
    model = fit(se_unit(2), TrainingSet.empty(2, 0.01))
    with pytest.raises(ValueError):
        bound_constants(model, 0.0, 0.01, 1.0, BOX2)
    with pytest.raises(ValueError):
        bound_constants(model, 0.01, 1.5, 1.0, BOX2)
    with pytest.raises(ValueError):
        bound_constants(model, 0.01, 0.01, -1.0, BOX2)
    with pytest.raises(ValueError):
        DomainBox(0, 1.0)
    with pytest.raises(ValueError):
        DomainBox(2, -1.0)


def test_auto_tau_is_boundary():
    rng = np.random.default_rng(1)
    model = fit(se_unit(2), TrainingSet(rng.uniform(-3, 3, (10, 2)), rng.normal(size=10), 0.01))
    rep = auto_tau(model, 0.01, 2.0, BOX2)
    tau = rep.tau
    assert rep == bound_constants(model, tau, 0.01, 2.0, BOX2)
    assert rep.gamma <= 0.01 * math.sqrt(rep.beta) * 1.0
    bigger = bound_constants(model, tau * 1.05, 0.01, 2.0, BOX2)
    assert bigger.gamma > 0.01 * math.sqrt(bigger.beta) * 1.0


def _fixed_step_search(feasible, lo, hi):
    """Reference: the endpoint checks and fixed 200-step geometric bisection
    that auto_tau and tau_for_density ran before geometric_bisect."""
    if feasible(hi):
        return hi
    if not feasible(lo):
        return None
    for _ in range(200):
        mid = math.sqrt(lo * hi)
        if feasible(mid):
            lo = mid
        else:
            hi = mid
    return lo


@settings(max_examples=300, deadline=None)
@given(r=st.floats(2e-12, 1e6), data=st.data())
def test_geometric_bisect_matches_fixed_step_reference(r, data):
    threshold = data.draw(st.floats(5e-13, 2.0 * r))
    probes = []

    def feasible(tau):
        probes.append(tau)
        return tau <= threshold

    expected = _fixed_step_search(lambda t: t <= threshold, 1e-12, r)
    assert geometric_bisect(feasible, 1e-12, r) == expected
    assert len(probes) < 100


def test_bound_report_json_keys():
    model = fit(se_unit(2), TrainingSet.empty(2, 0.01))
    rep = bound_constants(model, 0.01, 0.01, 2.0, BOX2)
    d = rep.to_json_dict()
    assert set(d) == {
        "tau", "delta", "beta", "gamma", "L_mu", "L_f", "coverage_number_bound",
    }
