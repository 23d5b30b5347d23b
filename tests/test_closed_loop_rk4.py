"""The compiled closed-loop rollout against its scalar oracle, and the comparison ODE.

``run_closed_loop`` steps one model's closed loop in ``_rollout.c``.
``tests/oracles.py::scalar_closed_loop`` repeats its operations on Python
floats, so every state, divergence time and message must agree bit for bit.
``tracking_bound_ode`` reads eta from a half-step table; its reference is the
comparison RK4 with eta looked up by time.
"""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from gpcert import simulation
from gpcert.errors import DivergenceError, UnsupportedOperationError
from gpcert.gp import GPModel, TrainingSet, fit
from gpcert.kernels import KernelSpec, gram
from gpcert.simulation import ReferenceSpec, benchmark_system, run_closed_loop
from gpcert.tracking import LinearPlant, closed_loop, contraction_rate, tracking_bound_ode

from conftest import reference_table
from oracles import scalar_mean, scalar_closed_loop


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


def same_run(a, b):
    return all(same_bits(getattr(a, name), getattr(b, name)) for name in ("times", "states", "reference_states"))


DOUBLE_INTEGRATOR = LinearPlant(np.array([[0.0, 1.0], [0.0, 0.0]]), np.array([0.0, 1.0]))
# a row with two nonzero entries: A x is a sum of two products
COMPANION = LinearPlant(np.array([[0.0, 1.0], [-2.0, -0.7]]), np.array([0.0, 1.0]))
REF = ReferenceSpec(2.0, 1.0)


def models_on_one_grid(rng, n_data, count, family="squared_exponential", sf2=1.0, ell=(0.8, 1.5)):
    # the models of a tracking batch: shared inputs, kernel and noise; only the targets differ
    f, _, _ = benchmark_system()
    X = rng.uniform(-3.0, 3.0, (n_data, 2))
    spec = KernelSpec(family, sf2, ell)
    return [fit(spec, TrainingSet(X, f(X[:, 0], X[:, 1]) + 0.1 * rng.normal(size=n_data), 0.01)) for _ in range(count)]


def assert_matches_the_oracle(loop, model, horizon, dt):
    """run_closed_loop against scalar_closed_loop: the same states, or the same divergence.

    Returns the run, or the DivergenceError both raised.
    """
    table = reference_table(REF, horizon, dt)
    try:
        expected = scalar_closed_loop(loop, model, table, dt)
    except DivergenceError as exc:
        with pytest.raises(DivergenceError) as new:
            run_closed_loop(loop, model, table, dt)
        assert new.value.time == exc.time
        assert str(new.value) == str(exc)
        return exc
    run = run_closed_loop(loop, model, table, dt)
    assert same_bits(run.states, expected)
    return run


@pytest.mark.parametrize("family", ["squared_exponential", "matern32", "matern52"])
@pytest.mark.parametrize("plant", [DOUBLE_INTEGRATOR, COMPANION], ids=["double_integrator", "companion"])
@pytest.mark.parametrize("sf2", [1.0, 0.7, 2.5])
@settings(max_examples=10, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    theta=st.tuples(st.floats(1.0, 400.0), st.floats(1.0, 40.0)),
    n_data=st.sampled_from([0, 1, 7, 40]),
    seed=st.integers(0, 2 ** 31 - 1),
    steps=st.integers(0, 150),
    dt=st.sampled_from([3e-4, 1e-3, 0.02, 0.05]),
)
def test_rollout_matches_the_scalar_oracle(sf2, plant, family, theta, n_data, seed, steps, dt):
    # at the coarse pitches one stage's h k is not small against x, so a last-bit change in the
    # field reaches the states, and RK4 is unstable for some fast poles there
    try:
        loop = closed_loop(plant, np.array(theta))
    except UnsupportedOperationError:
        assume(False)
    model = models_on_one_grid(np.random.default_rng(seed), n_data, 1, family, sf2)[0]
    assert_matches_the_oracle(loop, model, steps * dt, dt)


def mixed_models(rng):
    # other grids, other kernels and an empty model
    f, _, _ = benchmark_system()
    X = rng.uniform(-3, 3, (9, 2))
    return [models_on_one_grid(rng, 25, 1)[0], models_on_one_grid(rng, 7, 1, ell=(1.0, 1.0))[0],
            fit(KernelSpec("matern52", 2.5, (1.0, 1.5)), TrainingSet(X, f(X[:, 0], X[:, 1]), 0.01)),
            models_on_one_grid(rng, 12, 1, "matern32", 0.7, (0.5, 2.0))[0],
            fit(KernelSpec("squared_exponential", 1.0, (1.0, 1.0)), TrainingSet.empty(2, 0.01))]


@pytest.mark.parametrize("plant", [DOUBLE_INTEGRATOR, COMPANION], ids=["double_integrator", "companion"])
def test_mixed_models_each_match_the_oracle(plant):
    loop = closed_loop(plant, np.array([200.0, 20.0]))
    for model in mixed_models(np.random.default_rng(3)):
        assert isinstance(assert_matches_the_oracle(loop, model, 0.3, 1e-3), simulation.SimRun)


# poles -5.86 and -34.1: at dt = 0.1, -3.41 lies outside RK4's stability interval [-2.79, 0]
UNSTABLE_AT_A_TENTH = np.array([200.0, 40.0])


@pytest.mark.parametrize("family", ["squared_exponential", "matern52"])
def test_diverging_models_match_the_oracle(family):
    # at an RK4-unstable pitch every model diverges, from a kick as large as its weights: weights
    # 1e100 and 1e200 times too large diverge earlier
    loop = closed_loop(DOUBLE_INTEGRATOR, UNSTABLE_AT_A_TENTH)
    models = models_on_one_grid(np.random.default_rng(5), 25, 3, family)
    models[0] = dataclasses.replace(models[0], alpha=models[0].alpha * 1e100)
    models[2] = dataclasses.replace(models[2], alpha=models[2].alpha * 1e200)
    errors = [assert_matches_the_oracle(loop, model, 100.0, 0.1) for model in models]
    assert all(isinstance(exc, DivergenceError) for exc in errors)
    assert errors[2].time < errors[0].time < errors[1].time < 100.0


def test_a_mean_that_overflows_diverges_at_the_first_step():
    # weights of 1e308 near the start: the sum of the kernel terms overflows to inf
    loop = closed_loop(DOUBLE_INTEGRATOR, np.array([200.0, 20.0]))
    model = models_on_one_grid(np.random.default_rng(0), 25, 1, ell=(50.0, 50.0))[0]
    model = dataclasses.replace(model, alpha=np.full(25, 1e308))
    with pytest.raises(DivergenceError) as exc:
        run_closed_loop(loop, model, reference_table(REF, 3.0, 1e-3), 1e-3)
    assert exc.value.time == 1e-3
    assert str(exc.value) == "state diverged at t = 0.001"
    assert_matches_the_oracle(loop, model, 3.0, 1e-3)


def test_run_closed_loop_rejects_other_plant_dimensions():
    plant = LinearPlant(np.diag([1.0, 1.0], 1), np.array([0.0, 0.0, 1.0]))
    loop = closed_loop(plant, np.array([6.0, 11.0, 6.0]))
    model = fit(KernelSpec("squared_exponential", 1.0, (1.0, 1.0)), TrainingSet.empty(2, 0.01))
    with pytest.raises(ValueError):
        run_closed_loop(loop, model, reference_table(REF, 1.0, 1e-3), 1e-3)


def test_run_closed_loop_rejects_a_non_stationary_kernel():
    # the core has no linear kernel, and the rollout takes stationary models only, with or without data
    loop = closed_loop(DOUBLE_INTEGRATOR, np.array([200.0, 20.0]))
    spec = KernelSpec("linear", 1.0, (1.0, 1.0))
    table = reference_table(REF, 0.1, 1e-3)
    with pytest.raises(UnsupportedOperationError):
        run_closed_loop(loop, fit(spec, TrainingSet(np.ones((3, 2)), np.ones(3), 0.01)), table, 1e-3)
    with pytest.raises(UnsupportedOperationError):
        run_closed_loop(loop, fit(spec, TrainingSet.empty(2, 0.01)), table, 1e-3)


def test_zero_row_models_of_every_stationary_family_roll_out_alike():
    # with no rows the core reads no kernel parameter: the mean is 0 whatever the family and its constants
    loop = closed_loop(DOUBLE_INTEGRATOR, np.array([200.0, 20.0]))
    table = reference_table(REF, 0.1, 1e-3)
    se = run_closed_loop(loop, fit(KernelSpec("squared_exponential", 1.0, (1.0, 1.0)), TrainingSet.empty(2, 0.01)),
                         table, 1e-3)
    for spec in (KernelSpec("matern52", 2.5, (0.3, 4.0)), KernelSpec("matern32", 0.7, (1.0, 1.0))):
        assert same_run(run_closed_loop(loop, fit(spec, TrainingSet.empty(2, 0.01)), table, 1e-3), se)


def test_run_closed_loop_refuses_models_the_core_would_misread():
    # a kernel of another dimension, or weights that do not match the inputs, would make the core
    # read past the arrays it is handed
    loop = closed_loop(DOUBLE_INTEGRATOR, np.array([200.0, 20.0]))
    X = np.random.default_rng(0).uniform(-3.0, 3.0, (5, 2))
    spec = KernelSpec("squared_exponential", 1.0, (1.0, 1.0))
    model = fit(spec, TrainingSet(X, np.ones(5), 0.01))
    for bad in (GPModel(KernelSpec("squared_exponential", 1.0, (1.0, 1.0, 1.0)),
                        TrainingSet(np.ones((5, 3)), np.ones(5), 0.01), None, np.ones(5)),
                dataclasses.replace(model, alpha=np.ones(4))):
        with pytest.raises(ValueError):
            run_closed_loop(loop, bad, reference_table(REF, 0.1, 1e-3), 1e-3)


def test_run_closed_loop_rejects_a_table_of_the_wrong_shape():
    # the core reads 3 C-order rows of 2n + 1 half-step samples; it would misread any other shape or layout
    loop = closed_loop(DOUBLE_INTEGRATOR, np.array([200.0, 20.0]))
    model = fit(KernelSpec("squared_exponential", 1.0, (1.0, 1.0)), TrainingSet.empty(2, 0.01))
    table = reference_table(REF, 0.1, 1e-3)  # n = 100 steps: 201 samples
    for bad in (np.zeros((3, 202)), table[:, :-1], table[:2], np.zeros((2, 201)), table[0], np.zeros(603),
                np.asfortranarray(table)):
        with pytest.raises(ValueError):
            run_closed_loop(loop, model, bad, 1e-3)
    assert len(run_closed_loop(loop, model, table, 1e-3).times) == 101


def test_the_core_reads_its_callers_table_in_place(monkeypatch):
    # the table goes to the core as it is: no copy per rollout
    seen = []

    class Core:
        def gpcert_rollout(self, *args):
            seen.append(args[5])  # ref
            return 0

    monkeypatch.setattr(simulation, "_library", Core)
    loop = closed_loop(DOUBLE_INTEGRATOR, np.array([200.0, 20.0]))
    model = models_on_one_grid(np.random.default_rng(2), 9, 1)[0]
    table = reference_table(REF, 0.1, 1e-3)
    run = run_closed_loop(loop, model, table, 1e-3)
    assert len(seen) == 1 and seen[0] is table
    assert np.shares_memory(run.reference_states, table)


@pytest.mark.parametrize("count", [1, 3])
def test_matern_rollout_never_calls_predict_mean(count, monkeypatch):
    # the core evaluates the mean itself, from the inputs and alpha, for one model or for several
    # rolled out one after another as a worker's seeds are
    calls = []
    predict_mean = GPModel.predict_mean
    monkeypatch.setattr(GPModel, "predict_mean", lambda self, x: calls.append(x) or predict_mean(self, x))
    models = models_on_one_grid(np.random.default_rng(6), 25, count, "matern52", 1.3)
    loop = closed_loop(COMPANION, np.array([200.0, 20.0]))
    table = reference_table(REF, 0.05, 1e-3)
    for model in models:
        run_closed_loop(loop, model, table, 1e-3)
    assert calls == []
    models[0].predict_mean(np.zeros(2))  # the spy does see a call
    assert len(calls) == 1


@settings(max_examples=40, deadline=None)
@given(
    family=st.sampled_from(["squared_exponential", "matern32", "matern52"]),
    n=st.sampled_from([1, 2, 25, 179]),
    ell=st.tuples(st.floats(1e-2, 1e2), st.floats(1e-2, 1e2)),
    sf2=st.floats(0.1, 10.0),
    scale=st.sampled_from([0.0, 1e-3, 0.3, 3.0, 40.0]),
    seed=st.integers(0, 2 ** 32 - 1),
)
def test_the_oracle_mean_is_predict_mean_to_rounding(family, n, ell, sf2, scale, seed):
    # the rollout's mean, which the oracle pins bit for bit, is the posterior mean: only the
    # summation order differs from predict_mean's BLAS dot
    rng = np.random.default_rng(seed)
    X = rng.uniform(-5.0, 5.0, (n, 2))
    model = GPModel(KernelSpec(family, sf2, ell), TrainingSet(X, rng.normal(size=n), 0.01), None, rng.normal(size=n))
    for _ in range(5):
        x = X[rng.integers(n)] + scale * np.asarray(ell) * rng.normal(size=2)
        terms = np.abs(gram(model.kernel, x[None, :], X)[0] * model.alpha).sum()
        assert abs(scalar_mean(model, *x.tolist()) - model.predict_mean(x)) <= 1e-14 * terms


def test_the_compiled_f_is_numpys_f_to_1e_15_on_the_box():
    # the benchmark box [-5, 5]^2 at pitch 0.005: sin and exp of libm and of numpy differ in
    # their last bits on some inputs, and f by at most a few ulps of its values (below 3)
    f, _, _ = benchmark_system()
    axis = np.linspace(-5.0, 5.0, 2001)
    x1, x2 = (np.ascontiguousarray(c.ravel()) for c in np.meshgrid(axis, axis, indexing="ij"))
    compiled = np.empty_like(x1)
    lib = simulation._library()
    lib.gpcert_benchmark_f.restype = None
    lib.gpcert_benchmark_f.argtypes = [simulation.ctypes.c_int64] + [simulation._DOUBLES] * 3
    lib.gpcert_benchmark_f(len(x1), x1, x2, compiled)
    numpy_f = f(x1, x2)
    assert np.abs(compiled - numpy_f).max() <= 1e-15
    # and the oracle's f is the compiled one bit for bit
    probe = [(a, b) for a, b in zip(x1[::40009].tolist(), x2[::40009].tolist())]
    oracle_f = [1.0 - math.sin(2.0 * a) + 1.0 / (1.0 + math.exp(-b)) for a, b in probe]
    assert same_bits(np.array(oracle_f), compiled[::40009])


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


