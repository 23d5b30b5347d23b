import math

import numpy as np
import pytest

from gpcert.bounds import DomainBox
from gpcert.episodic import (
    EpisodeConfig,
    episode_count_bound,
    learn_control,
    min_sampling_time,
    select_gains,
    select_sampling_time,
)
from gpcert.errors import ConditionUnreachableError, EpisodeCapExceededError, InfeasibilityError
from gpcert.gp import TrainingSet, add_samples, downsample, fit
from gpcert.kernels import SQUARED_EXPONENTIAL, KernelSpec, gradient_lipschitz, stddev_lipschitz
from gpcert.simulation import ReferenceSpec
from gpcert.tracking import LinearPlant, certify

from conftest import benchmark_f, se_unit

PLANT = LinearPlant(np.array([[0.0, 1.0], [0.0, 0.0]]), np.array([0.0, 1.0]))


def small_episode_config(target=0.1, **overrides):
    kwargs = dict(
        target_error=target,
        xi=0.95,
        horizon=2 * math.pi,
        fine_dt=3e-4,
        delta=0.01,
        kernel=KernelSpec(SQUARED_EXPONENTIAL, 1.0, (0.8, 1.5)),
        reference=ReferenceSpec(2.0, 1.0),
        domain=DomainBox(2, 10.0),
        noise_variance=0.01,
        L_f=2.0,
        seed=0,
        max_episodes=200,
    )
    kwargs.update(overrides)
    return EpisodeConfig(**kwargs)


def run_episodes(cfg):
    return learn_control(cfg)


def test_select_gains_margin():
    L_sigma, beta, L_dk, xi = 1.0, 36.0, 1.5, 0.9
    loop = select_gains(PLANT, L_sigma, beta, L_dk, xi, margin=1.05)
    rhs = (8 * math.sqrt(L_dk) + xi * L_sigma) / xi * loop.zeta * math.sqrt(beta)
    assert -loop.lambda_max >= rhs
    assert -loop.lambda_max == pytest.approx(1.05 * rhs, rel=1e-9)


def test_select_gains_margin_below_one_raises():
    # an explicit check, not an assert, so it also holds under python -O
    with pytest.raises(InfeasibilityError):
        select_gains(PLANT, 1.0, 36.0, 1.5, 0.9, margin=0.9)


def test_select_gains_xi_limit():
    # xi -> 1- lowers the requirement toward (8 sqrt(L_dk) + L_sigma) zeta sqrt(beta)
    L_sigma, beta, L_dk = 1.0, 36.0, 1.5

    def lam(xi):
        return -select_gains(PLANT, L_sigma, beta, L_dk, xi, margin=1.0).lambda_max

    assert lam(0.5) > lam(0.9) > lam(0.999)
    loop = select_gains(PLANT, L_sigma, beta, L_dk, 0.999999, margin=1.0)
    limit = (8 * math.sqrt(L_dk) + L_sigma) * loop.zeta * math.sqrt(beta)
    assert -loop.lambda_max == pytest.approx(limit, rel=1e-4)


def test_select_gains_benchmark_pole_pair():
    # requirement fixed at 30 (zeta-independent): poles at -31.5 (1 +- i sqrt(3))/... wait,
    # scalar family poles are theta(-1 +- i sqrt 3)/2 with -Re = theta/2 = 31.5
    from gpcert.tracking import solve_scalar_gain

    loop = solve_scalar_gain(PLANT, lambda zeta: 1.05 * 30.0)
    assert loop.lambda_max == pytest.approx(-31.5, rel=1e-9)
    assert abs(loop.eigenvalues[0].imag) > 0


def line_data(n, dt, noise=0.01, speed=1.0):
    ts = np.arange(n) * dt
    X = np.column_stack([speed * ts])
    return TrainingSet(X, np.sin(X[:, 0]), noise)


def test_select_sampling_time_matches_exhaustive():
    spec = se_unit()
    raw = line_data(4096, 1e-3)
    ref_points = np.linspace(0.0, 4.0, 41)[:, None]
    L_dk = gradient_lipschitz(spec)
    empty = fit(spec, TrainingSet.empty(1, 0.01))

    # oracle: evaluate every rung independently
    def rung_ok(ts, threshold):
        m = fit(spec, downsample(raw, 1e-3, ts))
        return float(np.max(m.predict_var(ref_points))) <= threshold

    for upsilon_prev in (0.03, 0.05, 0.08, 0.3):
        threshold = 16.0 * L_dk * upsilon_prev ** 2
        rungs = [1e-3 * 2 ** j for j in range(13) if 1e-3 * 2 ** j <= 4.0]
        satisfying = [r for r in rungs if rung_ok(r, threshold)]
        if satisfying:
            ts, _, _ = select_sampling_time(raw, empty, ref_points, upsilon_prev, L_dk, 1e-3, 4.0)
            assert ts == pytest.approx(max(satisfying))
        else:
            with pytest.raises(ConditionUnreachableError):
                select_sampling_time(raw, empty, ref_points, upsilon_prev, L_dk, 1e-3, 4.0)


def test_select_sampling_time_crossing_between_rungs():
    # engineered instance where the condition flips between two adjacent rungs
    spec = se_unit()
    raw = line_data(4096, 1e-3)
    ref_points = np.linspace(0.0, 4.0, 41)[:, None]
    L_dk = gradient_lipschitz(spec)
    empty = fit(spec, TrainingSet.empty(1, 0.01))
    rungs = [1e-3 * 2 ** j for j in range(12)]
    variances = [float(np.max(fit(spec, downsample(raw, 1e-3, r)).predict_var(ref_points))) for r in rungs]
    # pick a threshold strictly between the rung-4 and rung-5 variances
    threshold = 0.5 * (variances[4] + variances[5])
    upsilon_prev = math.sqrt(threshold / (16.0 * L_dk))
    ts, model, _ = select_sampling_time(raw, empty, ref_points, upsilon_prev, L_dk, 1e-3, 4.0)
    assert ts == pytest.approx(rungs[4])
    assert float(np.max(model.predict_var(ref_points))) <= threshold


def test_select_sampling_time_monotone_in_target():
    spec = se_unit()
    raw = line_data(2048, 1e-3)
    ref_points = np.linspace(0.0, 2.0, 21)[:, None]
    L_dk = gradient_lipschitz(spec)
    empty = fit(spec, TrainingSet.empty(1, 0.01))
    prev = None
    for upsilon_prev in (0.4, 0.2, 0.1, 0.05):
        ts, _, _ = select_sampling_time(raw, empty, ref_points, upsilon_prev, L_dk, 1e-3, 2.0)
        if prev is not None:
            assert ts <= prev
        prev = ts


def test_select_sampling_time_slack_condition_returns_top():
    spec = se_unit()
    raw = line_data(1024, 1e-3)
    ref_points = np.linspace(0.0, 1.0, 11)[:, None]
    ts, _, _ = select_sampling_time(raw, fit(spec, TrainingSet.empty(1, 0.01)), ref_points, 1e6,
                                 gradient_lipschitz(spec), 1e-3, 1.0)
    assert ts == pytest.approx(1e-3 * 2 ** 9)  # largest power-of-two rung <= 1.0


def test_min_sampling_time_examples():
    assert min_sampling_time(1.0, 0.1, 0.01, 10.0) == pytest.approx(0.16)
    assert min_sampling_time(1.0, 0.05, 0.01, 10.0) == pytest.approx(0.16 / 8.0)
    assert min_sampling_time(1.0, 0.1, 0.02, 10.0) == pytest.approx(0.08)


def test_episode_count_bound_examples():
    assert episode_count_bound(0.025, 1.0, 1.0, 0.95) == 45
    assert episode_count_bound(0.3, 1.0, 1.0, 0.95) == 0  # 4 e sqrt(L) >= sqrt(k0)
    with pytest.warns(RuntimeWarning):
        big = episode_count_bound(1e-9, 1.0, 1.0, 1.0 - 1e-15)
    assert big == 10 ** 9


def test_learn_control_zero_episodes():
    cfg = small_episode_config(target=10.0)
    reports = run_episodes(cfg)
    assert len(reports) == 1
    assert reports[0].episode == 0
    assert reports[0].certificate.upsilon_bar <= 10.0


def test_learn_control_short_run_invariants():
    cfg = small_episode_config(target=0.1)
    reports = run_episodes(cfg)
    assert reports[-1].certificate.upsilon_bar <= 0.1
    assert len(reports) >= 2
    sizes = [r.data_size for r in reports[1:]]
    assert all(b > a for a, b in zip(sizes, sizes[1:])) or len(sizes) == 1
    ts = [r.sampling_time for r in reports[1:]]
    assert all(b <= a for a, b in zip(ts, ts[1:]))
    # soundness: each episode ran under the previous certificate
    for prev, cur in zip(reports, reports[1:]):
        assert cur.observed_max_error <= prev.certificate.upsilon_bar
    # certified contraction never exceeds xi
    for prev, cur in zip(reports, reports[1:]):
        assert cur.certificate.upsilon_bar <= cfg.xi * prev.certificate.upsilon_bar + 1e-12
    # (the min_sampling_time <= T_s comparison lives in the acceptance suite:
    # the cubic lower bound is meaningful only at benchmark-scale targets)


def test_learn_control_cap():
    cfg = small_episode_config(target=1e-4, max_episodes=2)
    with pytest.raises(EpisodeCapExceededError):
        run_episodes(cfg)


def test_config_validation():
    with pytest.raises(ValueError):
        small_episode_config(xi=1.0)
    with pytest.raises(ValueError):
        small_episode_config(target=-1.0)


def test_ladder_variance_serves_the_next_certificate():
    # learn_control certifies on the root of the accepted refit's variance in place of a second predict_var
    spec = KernelSpec(SQUARED_EXPONENTIAL, 1.0, (0.8, 1.5))
    box = DomainBox(2, 10.0)
    L_sigma, L_dk = stddev_lipschitz(spec), gradient_lipschitz(spec)
    ref = ReferenceSpec(2.0, 1.0)
    ref_points = ref.state(np.arange(0.0, ref.period, 0.01))
    states = ref.state(np.arange(0.0, ref.period, 1e-3))
    raw = TrainingSet(states, benchmark_f(states), 0.01)
    empty = fit(spec, TrainingSet.empty(2, 0.01))
    _, refit, variance = select_sampling_time(raw, empty, ref_points, 0.05, L_dk, 1e-3, 1.0)
    assert variance.tobytes() == refit.predict_var(ref_points).tobytes()

    def cert(sigma):
        return certify(refit, 1.0, ref_points, sigma, ref.max_speed * 0.01,
                       lambda b: select_gains(PLANT, L_sigma, b, L_dk, 0.95), box, 0.01, 2.0)

    passed, recomputed = cert(np.sqrt(variance)), cert(refit.predict_stddev(ref_points))
    assert passed.to_json_dict() == recomputed.to_json_dict()
    assert (passed.sup_eta, passed.sampling_term) == (recomputed.sup_eta, recomputed.sampling_term)


def full_ladder(raw, model, ref_points, upsilon_prev, L_dk, fine_dt, ladder_top):
    # every rung's variance evaluated at every point; returns the answer and the rungs rejected
    threshold = 16.0 * L_dk * upsilon_prev ** 2
    rungs = [fine_dt * 2.0 ** j for j in range(64) if fine_dt * 2.0 ** j <= ladder_top * (1.0 + 1e-9)]
    for rejected, candidate in enumerate(reversed(rungs)):
        refit = add_samples(model, downsample(raw, fine_dt, candidate))
        var = refit.predict_var(ref_points)
        if float(np.max(var)) <= threshold:
            return (candidate, refit, var), rejected
    return None, len(rungs)


def test_ladder_stopping_at_a_violating_block_matches_full_evaluation():
    # 3142 reference points: the variance runs in several row blocks at every rung
    spec = KernelSpec(SQUARED_EXPONENTIAL, 1.0, (0.8, 1.5))
    L_dk = gradient_lipschitz(spec)
    ref = ReferenceSpec(2.0, 1.0)
    ref_points = ref.state(np.arange(0.0, ref.period, 0.002))
    states = ref.state(np.arange(0.0, ref.period, 0.01)) * 0.97
    raw = TrainingSet(states, benchmark_f(states)
                      + 0.1 * np.random.default_rng(0).normal(size=len(states)), 0.01)
    prior = fit(spec, TrainingSet.empty(2, 0.01))
    base = add_samples(prior, downsample(raw, 0.01, 0.64))
    rejections = 0
    for model in (prior, base):
        for upsilon_prev in (0.3, 0.05, 0.02, 0.01, 0.004):
            args = (raw, model, ref_points, upsilon_prev, L_dk, 0.01, 1.0)
            expected, rejected = full_ladder(*args)
            if expected is None:
                with pytest.raises(ConditionUnreachableError):
                    select_sampling_time(*args)
                continue
            rejections += rejected
            ts, refit, var = select_sampling_time(*args)
            assert ts == expected[0]
            assert refit.data.inputs.tobytes() == expected[1].data.inputs.tobytes()
            assert refit.alpha.tobytes() == expected[1].alpha.tobytes()
            assert var.tobytes() == expected[2].tobytes()
    assert rejections > 0
