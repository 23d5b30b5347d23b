"""The closed-loop RK4 stepper and the comparison ODE against the generic loops.

``run_closed_loop`` carries the state as two floats with the reference
sampled once per stage time, and ``tracking_bound_ode`` reads eta from a
half-step table.  The references below are the generic forms they replace: a
dynamics closure driven by ``integrate``, and the comparison RK4 with eta
looked up by time.  Every output must agree bit for bit.
"""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from gpcert.errors import DivergenceError, UnsupportedOperationError
from gpcert.gp import GPModel, TrainingSet, fit
from gpcert.kernels import KernelSpec
from gpcert.simulation import ReferenceSpec, SimRun, benchmark_system, integrate, measure, run_closed_loop
from gpcert.tracking import LinearPlant, closed_loop, contraction_rate, tracking_bound_ode


def generic_run_closed_loop(loop, model, ref, horizon, fine_dt, nonlinearity):
    A, b = loop.plant.A, loop.plant.b
    theta = loop.theta
    xc = np.empty(2)
    mean = model.mean_at(xc)

    def predict(x):
        xc[:] = x
        return mean()

    def dynamics(t, x):
        e = x - ref.state(t)
        u_nom = -float(theta @ e) + float(ref.signal(t)) - predict(x)
        return A @ x + b * (u_nom + float(nonlinearity(x[0], x[1])))

    times, states = integrate(dynamics, ref.state(0.0), horizon, fine_dt)
    return SimRun(times, states, ref.state(times))


def generic_tracking_bound_ode(loop, eta_ref, L_sigma, beta, v0, horizon, dt):
    a = contraction_rate(loop, L_sigma, beta)
    zeta = loop.zeta

    def rhs(t, v):
        return a * v + zeta * eta_ref(t)

    n = int(round(horizon / dt))
    out = np.empty(n + 1)
    out[0] = v = float(v0)
    t = 0.0
    for k in range(n):
        k1 = rhs(t, v)
        k2 = rhs(t + 0.5 * dt, v + 0.5 * dt * k1)
        k3 = rhs(t + 0.5 * dt, v + 0.5 * dt * k2)
        k4 = rhs(t + dt, v + dt * k3)
        v = v + dt / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        t += dt
        out[k + 1] = v
    return out


def half_step_lookup(values, dt):
    return lambda t: float(values[int(round(2.0 * t / dt))])


def same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


DOUBLE_INTEGRATOR = LinearPlant(np.array([[0.0, 1.0], [0.0, 0.0]]), np.array([0.0, 1.0]))
# a row with two nonzero entries: A x is a sum, so it stays a numpy product
COMPANION = LinearPlant(np.array([[0.0, 1.0], [-2.0, -0.7]]), np.array([0.0, 1.0]))


@settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    theta=st.tuples(st.floats(1.0, 400.0), st.floats(1.0, 40.0)),
    plant=st.sampled_from([DOUBLE_INTEGRATOR, COMPANION]),
    n_data=st.sampled_from([0, 1, 7, 40]),
    seed=st.integers(0, 2 ** 31 - 1),
    steps=st.integers(0, 300),
    dt=st.sampled_from([3e-4, 1e-3, 0.02, 0.05]),
)
def test_run_closed_loop_matches_generic_integrate(theta, plant, n_data, seed, steps, dt):
    # at the coarse pitches one stage's h k is not small against x, so a
    # last-bit change in the field reaches the states
    try:
        loop = closed_loop(plant, np.array(theta))
    except UnsupportedOperationError:
        assume(False)
    f, _, _ = benchmark_system()
    rng = np.random.default_rng(seed)
    X = rng.uniform(-3.0, 3.0, (n_data, 2))
    model = fit(KernelSpec("squared_exponential", 1.0, (0.8, 1.5)),
                TrainingSet(X, f(X[:, 0], X[:, 1]) + 0.1 * rng.normal(size=n_data), 0.01))
    ref = ReferenceSpec(2.0, 1.0)
    horizon = steps * dt

    args = (loop, model, ref, horizon, dt, f)
    try:
        new = run_closed_loop(*args)
    except DivergenceError as exc:  # RK4 is unstable for some fast poles at the coarse pitches
        with pytest.raises(DivergenceError) as old:
            generic_run_closed_loop(*args)
        assert old.value.time == exc.time
        return
    old = generic_run_closed_loop(*args)
    for field in ("times", "states", "reference_states"):
        assert same_bits(getattr(new, field), getattr(old, field)), field


def test_diverging_loop_raises_at_the_same_time():
    def cubic(x1, x2):
        return np.power(x2, 3)  # x2' = x2^3 + ... blows up in finite time; numpy gives inf where float ** raises

    loop = closed_loop(DOUBLE_INTEGRATOR, np.array([2.0, 1.0]))
    model = fit(KernelSpec("squared_exponential", 1.0, (1.0, 1.0)), TrainingSet.empty(2, 0.01))
    ref = ReferenceSpec(2.0, 1.0)
    with np.errstate(all="ignore"):
        with pytest.raises(DivergenceError) as new:
            run_closed_loop(loop, model, ref, 5.0, 1e-3, cubic)
        with pytest.raises(DivergenceError) as old:
            generic_run_closed_loop(loop, model, ref, 5.0, 1e-3, cubic)
    assert 0.0 < new.value.time < 5.0
    assert new.value.time == old.value.time
    assert str(new.value) == str(old.value)


def test_run_closed_loop_rejects_other_plant_dimensions():
    plant = LinearPlant(np.diag([1.0, 1.0], 1), np.array([0.0, 0.0, 1.0]))
    loop = closed_loop(plant, np.array([6.0, 11.0, 6.0]))
    model = fit(KernelSpec("squared_exponential", 1.0, (1.0, 1.0)), TrainingSet.empty(2, 0.01))
    f, _, _ = benchmark_system()
    with pytest.raises(ValueError):
        run_closed_loop(loop, model, ReferenceSpec(2.0, 1.0), 1.0, 1e-3, f)


@settings(max_examples=60, deadline=None)
@given(
    theta=st.floats(0.5, 60.0),
    L_sigma=st.floats(0.0, 3.0),
    beta=st.floats(0.1, 50.0),
    v0=st.floats(0.0, 2.0),
    horizon=st.sampled_from([0.0, 0.01, 0.7, 3.0]),
    dt=st.sampled_from([1e-2, 1e-3, 3e-4]),
    seed=st.integers(0, 2 ** 31 - 1),
)
def test_tracking_bound_ode_matches_generic_rk4(theta, L_sigma, beta, v0, horizon, dt, seed):
    loop = closed_loop(DOUBLE_INTEGRATOR, np.array([theta * theta, theta]))
    n = int(round(horizon / dt))
    eta_half = np.random.default_rng(seed).uniform(0.0, 1.0, 2 * n + 1)

    table = tracking_bound_ode(loop, eta_half, L_sigma, beta, v0, horizon, dt)
    assert same_bits(table, generic_tracking_bound_ode(
        loop, half_step_lookup(eta_half, dt), L_sigma, beta, v0, horizon, dt))


def test_tracking_bound_ode_rejects_a_table_of_the_wrong_length():
    loop = closed_loop(DOUBLE_INTEGRATOR, np.array([100.0, 10.0]))
    with pytest.raises(ValueError):
        tracking_bound_ode(loop, np.zeros(100), 0.0, 1.0, v0=0.0, horizon=0.1, dt=1e-3)


def batch_benchmark_f(x):
    # benchmark_system's f as it was when it took (..., 2) arrays, kept verbatim
    x = np.asarray(x, dtype=float)
    x1, x2 = x[..., 0], x[..., 1]
    return 1.0 - np.sin(2.0 * x1) + 1.0 / (1.0 + np.exp(-x2))


def independent_states(loop, model, ref, horizon, dt):
    # mu through the batch predict_mean and f through the batch formula: a
    # change to mean_at or to f on two floats shows up here
    A, b, theta = loop.plant.A, loop.plant.b, loop.theta

    def dynamics(t, x):
        e = x - ref.state(t)
        u_nom = -float(theta @ e) + float(ref.signal(t)) - model.predict_mean(x)
        return A @ x + b * (u_nom + float(batch_benchmark_f(x)))

    return integrate(dynamics, ref.state(0.0), horizon, dt)


@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    theta=st.tuples(st.floats(1.0, 400.0), st.floats(1.0, 40.0)),
    plant=st.sampled_from([DOUBLE_INTEGRATOR, COMPANION]),
    n_data=st.sampled_from([0, 1, 2, 25, 179]),
    ell=st.tuples(st.floats(0.05, 5.0), st.floats(0.05, 5.0)),
    seed=st.integers(0, 2 ** 31 - 1),
    steps=st.integers(0, 200),
    dt=st.sampled_from([3e-4, 1e-3, 0.02, 0.05]),
)
def test_run_closed_loop_matches_an_independent_batch_reference(theta, plant, n_data, ell, seed, steps, dt):
    try:
        loop = closed_loop(plant, np.array(theta))
    except UnsupportedOperationError:
        assume(False)
    f, _, _ = benchmark_system()
    rng = np.random.default_rng(seed)
    X = rng.uniform(-3.0, 3.0, (n_data, 2))
    model = fit(KernelSpec("squared_exponential", 1.0, ell),
                TrainingSet(X, batch_benchmark_f(X) + 0.1 * rng.normal(size=n_data), 0.01))
    ref = ReferenceSpec(2.0, 1.0)
    horizon = steps * dt
    try:
        with np.errstate(over="ignore"):
            new = run_closed_loop(loop, model, ref, horizon, dt, f)
    except DivergenceError as exc:
        with pytest.raises(DivergenceError) as old, np.errstate(over="ignore"):
            independent_states(loop, model, ref, horizon, dt)
        assert old.value.time == exc.time
        return
    times, states = independent_states(loop, model, ref, horizon, dt)
    assert same_bits(new.times, times)
    assert same_bits(new.states, states)
    noise = np.random.default_rng(seed).normal(0.0, math.sqrt(0.01), len(states))
    assert same_bits(measure(new.states, f, 0.01, seed).targets, batch_benchmark_f(states) + noise)


# finite inputs: a NaN result may carry another sign bit in a vector lane
_FINITE = st.floats(allow_nan=False, allow_infinity=False)


@settings(max_examples=300, deadline=None)
@given(x1=_FINITE, x2=st.one_of(_FINITE, st.floats(709.0, 1e4), st.floats(-1e4, -709.0)))
def test_nonlinearity_on_two_floats_is_the_batch_formula(x1, x2):
    # beyond |x2| = 709.78 np.exp(-x2) overflows to inf or underflows to 0
    f, _, _ = benchmark_system()
    point = np.array([x1, x2])
    batch = np.array([[0.5, -1.0], [x1, x2], [2.0, 3.0]])
    with np.errstate(all="ignore"):
        one = f(x1, x2)
        assert same_bits(one, batch_benchmark_f(point))
        assert same_bits(one, batch_benchmark_f(batch)[1])
        assert same_bits(f(batch[:, 0], batch[:, 1]), batch_benchmark_f(batch))


def same_run(a, b):
    return all(same_bits(getattr(a, name), getattr(b, name)) for name in ("times", "states", "reference_states"))


def models_on_one_grid(rng, n_data, count, ell=(0.8, 1.5)):
    # the models of a tracking batch: shared inputs, kernel and noise; only the targets differ
    f, _, _ = benchmark_system()
    X = rng.uniform(-3.0, 3.0, (n_data, 2))
    spec = KernelSpec("squared_exponential", 1.0, ell)
    return [fit(spec, TrainingSet(X, f(X[:, 0], X[:, 1]) + 0.1 * rng.normal(size=n_data), 0.01)) for _ in range(count)]


@settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    theta=st.tuples(st.floats(1.0, 400.0), st.floats(1.0, 40.0)),
    plant=st.sampled_from([DOUBLE_INTEGRATOR, COMPANION]),
    n_data=st.sampled_from([1, 7, 40]),
    count=st.sampled_from([2, 3]),
    seed=st.integers(0, 2 ** 31 - 1),
    steps=st.integers(0, 200),
    dt=st.sampled_from([0.02, 0.05]),
)
def test_batched_rollout_matches_each_seed_alone(theta, plant, n_data, count, seed, steps, dt):
    # at the coarse pitches a last-bit change in any stage reaches the states
    try:
        loop = closed_loop(plant, np.array(theta))
    except UnsupportedOperationError:
        assume(False)
    f, _, _ = benchmark_system()
    models = models_on_one_grid(np.random.default_rng(seed), n_data, count)
    args = (ReferenceSpec(2.0, 1.0), steps * dt, dt)
    alone, first_divergence = [], None
    with np.errstate(all="ignore"):
        for model in models:
            try:
                alone.append(run_closed_loop(loop, model, *args, f))
            except DivergenceError as exc:
                first_divergence = min(exc.time, first_divergence or math.inf)
        if first_divergence is not None:
            with pytest.raises(DivergenceError) as batch:
                run_closed_loop(loop, models, *args, f)
            assert batch.value.time == first_divergence
            return
        runs = run_closed_loop(loop, models, *args, f)
    assert len(runs) == count
    for run, one in zip(runs, alone):
        assert same_run(run, one)


def test_batched_rollout_with_models_that_do_not_share_a_grid():
    # other grids, another kernel and an empty model share no stacked mean: each model's own mean runs on its point
    f, _, _ = benchmark_system()
    loop = closed_loop(COMPANION, np.array([200.0, 20.0]))
    rng = np.random.default_rng(3)
    models = [models_on_one_grid(rng, 25, 1)[0], models_on_one_grid(rng, 7, 1, ell=(1.0, 1.0))[0],
              fit(KernelSpec("matern52", 1.0, (1.0, 1.5)), TrainingSet(rng.uniform(-3, 3, (9, 2)), rng.normal(size=9), 0.01)),
              fit(KernelSpec("squared_exponential", 1.0, (1.0, 1.0)), TrainingSet.empty(2, 0.01))]
    ref = ReferenceSpec(2.0, 1.0)
    runs = run_closed_loop(loop, models, ref, 0.3, 1e-3, f)
    for model, run in zip(models, runs):
        assert same_run(run, run_closed_loop(loop, model, ref, 0.3, 1e-3, f))


def far_cubic(x1, x2):
    # zero near the reference, x2^3 beyond |x2| = 6, where it blows up in finite time
    return np.where(np.abs(x2) > 6.0, np.power(x2, 3), 0.0)


def test_a_diverging_seed_stops_its_batch_at_its_own_time():
    loop = closed_loop(DOUBLE_INTEGRATOR, np.array([200.0, 20.0]))
    models = models_on_one_grid(np.random.default_rng(0), 25, 3)
    # a mean 1000 times too large throws the second seed out to where far_cubic diverges
    models[1] = dataclasses.replace(models[1], alpha=models[1].alpha * 1e3)
    ref = ReferenceSpec(2.0, 1.0)
    with np.errstate(all="ignore"):
        for s in (0, 2):
            run_closed_loop(loop, models[s], ref, 3.0, 1e-3, far_cubic)
        with pytest.raises(DivergenceError) as alone:
            run_closed_loop(loop, models[1], ref, 3.0, 1e-3, far_cubic)
        with pytest.raises(DivergenceError) as batch:
            run_closed_loop(loop, models, ref, 3.0, 1e-3, far_cubic)
    assert 0.5 < batch.value.time < 3.0
    assert batch.value.time == alone.value.time
    assert str(batch.value) == str(alone.value)


def test_diverging_matern_seeds_stop_their_batch_at_the_earliest_time():
    # the batch stops at the earliest divergence time of any seed, not at the first seed's
    loop = closed_loop(DOUBLE_INTEGRATOR, np.array([200.0, 20.0]))
    rng = np.random.default_rng(5)
    X = rng.uniform(-3.0, 3.0, (25, 2))
    f, _, _ = benchmark_system()
    spec = KernelSpec("matern52", 1.0, (0.8, 1.5))
    models = [fit(spec, TrainingSet(X, f(X[:, 0], X[:, 1]) + 0.1 * rng.normal(size=25), 0.01)) for _ in range(3)]
    # means 1500 and 3000 times too large throw seeds 0 and 2 out to where far_cubic diverges
    models[0] = dataclasses.replace(models[0], alpha=models[0].alpha * 1.5e3)
    models[2] = dataclasses.replace(models[2], alpha=models[2].alpha * 3e3)
    ref = ReferenceSpec(2.0, 1.0)
    alone = []
    with np.errstate(all="ignore"):
        run_closed_loop(loop, models[1], ref, 3.0, 1e-3, far_cubic)
        for s in (0, 2):
            with pytest.raises(DivergenceError) as exc:
                run_closed_loop(loop, models[s], ref, 3.0, 1e-3, far_cubic)
            alone.append(exc.value)
        with pytest.raises(DivergenceError) as batch:
            run_closed_loop(loop, models, ref, 3.0, 1e-3, far_cubic)
    assert alone[1].time < alone[0].time
    assert batch.value.time == alone[1].time
    assert str(batch.value) == str(alone[1])


@pytest.mark.parametrize("count", [1, 3])
def test_rollout_calls_the_nonlinearity_on_two_python_floats(count):
    f, _, _ = benchmark_system()
    types = set()

    def two_float_f(x1, x2):
        types.add((type(x1), type(x2)))
        return f(x1, x2)

    loop = closed_loop(COMPANION, np.array([200.0, 20.0]))
    models = models_on_one_grid(np.random.default_rng(4), 7, count)
    run_closed_loop(loop, models[0] if count == 1 else models, ReferenceSpec(2.0, 1.0), 0.05, 1e-3, two_float_f)
    assert types == {(float, float)}


@pytest.mark.parametrize("family", ["squared_exponential", "matern32", "matern52"])
@pytest.mark.parametrize("plant", [DOUBLE_INTEGRATOR, COMPANION], ids=["double_integrator", "companion"])
@pytest.mark.parametrize("sf2", [1.0, 0.7, 2.5])
@settings(max_examples=8, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    theta=st.tuples(st.floats(1.0, 400.0), st.floats(1.0, 40.0)),
    n_data=st.sampled_from([1, 7, 40]),
    seed=st.integers(0, 2 ** 31 - 1),
    steps=st.integers(1, 200),
    dt=st.sampled_from([0.02, 0.05]),
)
def test_one_seed_rollout_matches_generic_integrate_at_each_signal_variance(sf2, plant, family, theta, n_data,
                                                                           seed, steps, dt):
    # sf2 = 1.0 drops the kernel routine's multiply; the companion row makes A x a sum that one
    # fused gemm would round differently
    try:
        loop = closed_loop(plant, np.array(theta))
    except UnsupportedOperationError:
        assume(False)
    f, _, _ = benchmark_system()
    rng = np.random.default_rng(seed)
    X = rng.uniform(-3.0, 3.0, (n_data, 2))
    model = fit(KernelSpec(family, sf2, (0.8, 1.5)),
                TrainingSet(X, f(X[:, 0], X[:, 1]) + 0.1 * rng.normal(size=n_data), 0.01))
    ref = ReferenceSpec(2.0, 1.0)
    args = (loop, model, ref, steps * dt, dt, f)
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            new = run_closed_loop(*args)
        except DivergenceError as exc:
            with pytest.raises(DivergenceError) as old:
                generic_run_closed_loop(*args)
            assert old.value.time == exc.time
            return
        old = generic_run_closed_loop(*args)
        times, states = independent_states(loop, model, ref, steps * dt, dt)
    assert same_run(new, old)
    assert same_bits(new.times, times)
    assert same_bits(new.states, states)


@pytest.mark.parametrize("count", [1, 3])
def test_matern_rollout_never_calls_predict_mean(count, monkeypatch):
    # every stationary family reaches the kernel through the buffered routine at every stage
    f, _, _ = benchmark_system()
    rng = np.random.default_rng(6)
    X = rng.uniform(-3.0, 3.0, (25, 2))
    spec = KernelSpec("matern52", 1.3, (0.8, 1.5))
    models = [fit(spec, TrainingSet(X, f(X[:, 0], X[:, 1]) + 0.1 * rng.normal(size=25), 0.01)) for _ in range(count)]
    calls = []
    predict_mean = GPModel.predict_mean
    monkeypatch.setattr(GPModel, "predict_mean", lambda self, x: calls.append(x) or predict_mean(self, x))
    loop = closed_loop(COMPANION, np.array([200.0, 20.0]))
    run_closed_loop(loop, models[0] if count == 1 else models, ReferenceSpec(2.0, 1.0), 0.05, 1e-3, f)
    assert calls == []
    models[0].predict_mean(X[0])  # the spy does see a call
    assert len(calls) == 1
