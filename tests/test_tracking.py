import math

import numpy as np
import pytest

from gpcert.bounds import DomainBox, bound_constants, stddev_modulus
from gpcert.errors import InfeasibilityError, UnsupportedOperationError
from gpcert.gp import TrainingSet, fit
from gpcert.kernels import SQUARED_EXPONENTIAL, KernelSpec, kernel_lipschitz, stddev_lipschitz
from gpcert.simulation import ReferenceSpec, integrate
from gpcert.tracking import (
    SAFETY_FACTOR,
    ClosedLoop,
    LinearPlant,
    certificate_holds,
    certify,
    closed_loop,
    contraction_rate,
    gain_condition,
    gains_for_kappa,
    half_step_times,
    kappa,
    lambda_for_kappa,
    max_tracking_bound,
    scalar_gain_vector,
    solve_scalar_gain,
    tau_for_density,
    tracking_bound_ode,
    zeta_constant,
)

from conftest import se_unit

PLANT = LinearPlant(np.array([[0.0, 1.0], [0.0, 0.0]]), np.array([0.0, 1.0]))


def synthetic_loop(lambda_max, zeta):
    """Bare comparison-system parameters for formula-level checks."""
    return ClosedLoop(
        plant=PLANT,
        theta=np.zeros(2),
        A_theta=np.zeros((2, 2)),
        eigenvalues=np.array([lambda_max + 0j]),
        U=np.eye(2),
        lambda_max=lambda_max,
        zeta=zeta,
        stable=lambda_max < 0,
    )


def test_benchmark_closed_loop():
    loop = closed_loop(PLANT, np.array([200.0, 20.0]))
    np.testing.assert_allclose(loop.A_theta, [[0.0, 1.0], [-200.0, -20.0]])
    # oracle: roots of the characteristic polynomial s^2 + 20 s + 200
    roots = np.sort_complex(np.roots([1.0, 20.0, 200.0]))
    np.testing.assert_allclose(np.sort_complex(loop.eigenvalues), roots, atol=1e-9)
    assert loop.lambda_max == pytest.approx(-10.0)
    assert loop.stable
    # zeta against a from-scratch evaluation of ||U|| ||U^-1 b||
    s = np.linalg.svd(loop.U, compute_uv=False)
    z = s[0] * np.linalg.norm(np.linalg.solve(loop.U, PLANT.b.astype(complex)))
    assert loop.zeta == pytest.approx(z, rel=1e-12)


def test_zeta_diagonal_examples():
    assert zeta_constant(np.eye(2), np.array([0.0, 1.0])) == pytest.approx(1.0)
    b = np.array([0.4, -2.2])
    assert zeta_constant(np.eye(2), b) == pytest.approx(np.linalg.norm(b))


def test_controllability_required():
    with pytest.raises(ValueError):
        LinearPlant(np.array([[-1.0, 0.0], [3.0, 2.0]]), np.array([0.0, 1.0]))


def test_repeated_eigenvalues_rejected():
    # theta = [100, 20] gives (s + 10)^2
    with pytest.raises(UnsupportedOperationError):
        closed_loop(PLANT, np.array([100.0, 20.0]))


def test_unstable_loop_is_flagged():
    loop = closed_loop(PLANT, np.array([-200.0, -20.0]))
    assert not loop.stable
    assert loop.lambda_max > 0


def test_gain_condition_examples():
    loop = synthetic_loop(-10.0, 2.0)
    assert gain_condition(loop, 0.1, 36.0)  # -10 + 1.2 < 0
    assert not gain_condition(synthetic_loop(0.0, 2.0), 0.1, 36.0)
    # boundary: equality is not sufficient
    boundary = synthetic_loop(-1.2, 2.0)
    assert contraction_rate(boundary, 0.1, 36.0) == pytest.approx(0.0)
    assert not gain_condition(boundary, 0.1, 36.0)


def test_ode_matches_closed_form():
    # a = lambda_max + L_sigma zeta sqrt(beta) = -1 with L_sigma = 0
    loop = synthetic_loop(-1.0, 1.0)
    v = tracking_bound_ode(loop, np.full(2001, 0.0), 0.0, 1.0, v0=1.0, horizon=1.0, dt=1e-3)
    assert v[-1] == pytest.approx(math.exp(-1.0), abs=1e-6)
    v2 = tracking_bound_ode(loop, np.full(2001, 1.0), 0.0, 1.0, v0=0.0, horizon=1.0, dt=1e-3)
    assert v2[-1] == pytest.approx(1.0 - math.exp(-1.0), abs=1e-6)
    # full-trajectory agreement with the analytic solution
    ts = np.arange(0, 1.0 + 1e-12, 1e-3)
    exact = 1.0 - np.exp(-ts)
    np.testing.assert_allclose(v2, exact, atol=1e-6)


@pytest.mark.parametrize("horizon, dt, message", [
    (1.0, 0.0, "dt must be positive"),
    (1.0, -1e-3, "dt must be positive"),
    (1.0, math.nan, "dt must be positive"),
    (-1.0, 1e-3, "horizon must be nonnegative"),
])
def test_the_step_grid_rejects_a_bad_pitch_or_horizon(horizon, dt, message):
    loop = synthetic_loop(-1.0, 1.0)
    calls = (
        lambda: integrate(lambda t, x: -x, np.array([1.0]), horizon, dt),
        lambda: tracking_bound_ode(loop, np.zeros(3), 0.0, 1.0, v0=0.0, horizon=horizon, dt=dt),
        lambda: half_step_times(horizon, dt),
    )
    for call in calls:
        with pytest.raises(ValueError, match=f"^{message}$"):
            call()


def test_ode_steady_state_equals_max_bound():
    loop = synthetic_loop(-2.5, 1.7)
    v = tracking_bound_ode(loop, np.full(80001, 0.8), 0.3, 4.0, v0=0.0, horizon=40.0, dt=1e-3)
    assert v[-1] == pytest.approx(max_tracking_bound(loop, 0.8, 0.3, 4.0), rel=1e-9)


def test_max_tracking_bound_examples():
    loop = synthetic_loop(-10.0, 2.0)
    assert max_tracking_bound(loop, 1.0, 0.1, 36.0) == pytest.approx(2.0 / 8.8)
    assert max_tracking_bound(loop, 0.0, 0.1, 36.0) == 0.0
    # doubling zeta with the denominator held fixed doubles the bound:
    # zeta = 4 and lambda chosen so lambda + L_s zeta sqrt(beta) = -8.8
    double = synthetic_loop(-8.8 - 0.1 * 4.0 * 6.0, 4.0)
    assert max_tracking_bound(double, 1.0, 0.1, 36.0) == pytest.approx(2.0 * 2.0 / 8.8)
    with pytest.raises(InfeasibilityError):
        max_tracking_bound(synthetic_loop(-1.0, 2.0), 1.0, 0.1, 36.0)


def test_kappa_examples():
    loop = synthetic_loop(-10.0, 2.0)
    assert kappa(loop, 0.1, 36.0) == pytest.approx(24.0 / 8.8)
    assert kappa(loop, 0.1, 1e-12) == pytest.approx(0.0, abs=1e-5)
    with pytest.raises(InfeasibilityError):
        kappa(synthetic_loop(0.0, 2.0), 0.1, 36.0)


def test_lambda_for_kappa_inversion():
    lam = lambda_for_kappa(10.0, 2.0, 0.1, 36.0)
    assert lam == pytest.approx(-2.0 * 2.0 * 6.0 / 10.0 - 0.1 * 2.0 * 6.0)
    loop = synthetic_loop(lam, 2.0)
    assert kappa(loop, 0.1, 36.0) == pytest.approx(10.0, rel=1e-12)


def test_kappa_round_trip_through_gains():
    for target in (3.0, 10.0, 40.0):
        loop = gains_for_kappa(PLANT, target, 1.0, 35.0)
        assert kappa(loop, 1.0, 35.0) == pytest.approx(target, rel=1e-6)


def test_scalar_gain_family():
    theta = scalar_gain_vector(63.0)
    np.testing.assert_allclose(theta, [63.0 ** 2, 63.0])
    loop = closed_loop(PLANT, theta)
    assert loop.lambda_max == pytest.approx(-31.5, rel=1e-9)


def test_solve_scalar_gain_fixed_point():
    loop = solve_scalar_gain(PLANT, lambda zeta: 30.0 * zeta)
    assert -loop.lambda_max == pytest.approx(30.0 * loop.zeta, rel=1e-9)


def test_tau_for_density():
    spec = se_unit(2)
    box = DomainBox(2, 10.0)
    model = fit(spec, TrainingSet.empty(2, 0.01))
    L_k, L_sigma = kernel_lipschitz(spec, box), stddev_lipschitz(spec)
    assert tau_for_density(model, 0.0, box, 0.01, 2.0).tau == box.edge
    taus = [tau_for_density(model, r, box, 0.01, 2.0).tau for r in (1.0, 10.0, 100.0)]
    assert taus[0] >= taus[1] >= taus[2]
    # feasibility certificate: the returned tau satisfies the inequality
    from gpcert import bounds as bnd

    for rho, tau in zip((1.0, 10.0, 100.0), taus):
        b = bnd.beta(tau, 0.01, box)
        om = bnd.stddev_modulus(tau, L_k, L_sigma)
        g = bnd.gamma(tau, 0.0, 2.0, b, om)
        assert b >= g * g * rho * spec.signal_variance / 2.0


def test_tau_for_density_infeasible_raises():
    spec = se_unit(2)
    box = DomainBox(2, 10.0)
    model = fit(spec, TrainingSet.empty(2, 0.01))
    with pytest.raises(InfeasibilityError):
        tau_for_density(model, 1e30, box, 0.01, 2.0)


def test_tau_for_density_is_boundary():
    rng = np.random.default_rng(1)
    spec = se_unit(2)
    box = DomainBox(2, 10.0)
    model = fit(spec, TrainingSet(rng.uniform(-3, 3, (10, 2)), rng.normal(size=10), 0.01))
    rho = 50.0
    rep = tau_for_density(model, rho, box, 0.01, 2.0)
    tau = rep.tau
    assert tau < box.edge
    assert rep == bound_constants(model, tau, 0.01, 2.0, box)
    assert rep.beta >= rep.gamma * rep.gamma * rho * spec.signal_variance / 2.0
    bigger = bound_constants(model, tau * 1.05, 0.01, 2.0, box)
    assert bigger.beta < bigger.gamma * bigger.gamma * rho * spec.signal_variance / 2.0


def test_certify_rejects_points_too_coarse_for_the_safety_factor():
    # a grid of data around the reference circle of radius 2
    g = np.linspace(-3.0, 3.0, 13)
    X = np.array([[a, b] for a in g for b in g])
    spec = KernelSpec(SQUARED_EXPONENTIAL, 1.0, (1.0, 1.5))
    box = DomainBox(2, 10.0)
    model = fit(spec, TrainingSet(X, np.sin(X[:, 0]), 0.01))
    L_k, L_sigma = kernel_lipschitz(spec, box), stddev_lipschitz(spec)
    ref = ReferenceSpec(2.0, 1.0)

    def certify_on(n_points):
        points = ref.state(np.linspace(0.0, ref.period, n_points))
        max_arc = ref.max_speed * ref.period / (n_points - 1)
        return certify(model, 1.0, points, model.predict_stddev(points), max_arc,
                       lambda b: gains_for_kappa(PLANT, 0.5, L_sigma, b), box, 0.01, 2.0)

    fine = certify_on(4001)
    arc = 2.0 * 2.0 * math.pi / 4000  # one 4000th of the circle of radius 2
    expect = math.sqrt(fine.beta) * stddev_modulus(arc / 2.0, L_k, L_sigma)
    assert fine.sampling_term == pytest.approx(expect, rel=1e-9)
    assert fine.sup_eta >= fine.sup_eta / SAFETY_FACTOR + fine.sampling_term
    with pytest.raises(InfeasibilityError, match="too coarse"):
        certify_on(5)  # arcs of pi: sqrt(beta) omega_sigma is far above 5 % of max eta


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_certify_refuses_a_max_eta_that_is_not_finite(bad):
    # a NaN bound would pass "not upsilon_bar > target" as reached; the gain rule is never asked
    rng = np.random.default_rng(1)
    model = fit(se_unit(2), TrainingSet(rng.uniform(-3, 3, (10, 2)), rng.normal(size=10), 0.01))
    ref = ReferenceSpec(2.0, 1.0)
    points = ref.state(np.linspace(0.0, ref.period, 401))
    sigma = model.predict_stddev(points)
    sigma[200] = bad
    asked = []
    with pytest.raises(InfeasibilityError, match="max eta is"):
        certify(model, 50.0, points, sigma, ref.max_speed * ref.period / 400,
                lambda b: asked.append(b), DomainBox(2, 10.0), 0.01, 2.0)
    assert asked == []


def test_certify_builds_each_report_once(tau_probes):
    # the search's accepted probe serves the certificate; no report is rebuilt at its tau
    rng = np.random.default_rng(1)
    spec = se_unit(2)
    box = DomainBox(2, 10.0)
    model = fit(spec, TrainingSet(rng.uniform(-3, 3, (10, 2)), rng.normal(size=10), 0.01))
    L_sigma = stddev_lipschitz(spec)
    ref = ReferenceSpec(2.0, 1.0)
    points = ref.state(np.linspace(0.0, ref.period, 4001))
    cert = certify(model, 50.0, points, model.predict_stddev(points), ref.max_speed * ref.period / 4000,
                   lambda b: gains_for_kappa(PLANT, 0.5, L_sigma, b), box, 0.01, 2.0)
    assert len(tau_probes.probes) > 2
    assert [rep.tau for rep in tau_probes.reports] == tau_probes.probes
    fresh = tau_probes.real_constants(model, cert.tau, 0.01, 2.0, box)
    assert (cert.beta, cert.gamma, cert.L_mu) == (fresh.beta, fresh.gamma, fresh.L_mu)


def test_a_certificate_allows_no_slack():
    box = DomainBox(2, 10.0)
    states = np.zeros((3, 2))
    bound = np.array([0.0, 1.0, 2.0])
    assert certificate_holds(bound, bound, states, box)
    assert certificate_holds(np.zeros(3), 2.0, states, box)
    assert not certificate_holds(bound + [0.0, 5e-13, 0.0], bound, states, box)
    assert not certificate_holds(np.array([0.0, 1.0, np.nan]), bound, states, box)
    assert not certificate_holds(np.zeros(3), bound, states + [0.0, 5.0 + 1e-9], box)
