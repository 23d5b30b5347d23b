import math

import numpy as np
import pytest

from gpcert.errors import DivergenceError
from gpcert.gp import TrainingSet, fit
from gpcert.simulation import (
    ReferenceSpec,
    benchmark_system,
    integrate,
    measure,
    prior_draw,
    prior_factor,
    run_closed_loop,
)
from gpcert.tracking import closed_loop

from conftest import reference_table, se_unit


def test_integrate_exponential_decay():
    _, x = integrate(lambda t, x: -x, np.array([1.0]), 1.0, 1e-3)
    assert x[-1, 0] == pytest.approx(math.exp(-1.0), abs=1e-9)


def test_integrate_constant_field():
    _, x = integrate(lambda t, x: np.zeros_like(x), np.array([2.0, -1.0]), 5.0, 1e-2)
    np.testing.assert_array_equal(x[-1], [2.0, -1.0])


def test_integrate_fourth_order():
    def err(dt):
        _, x = integrate(lambda t, x: -x, np.array([1.0]), 2.0, dt)
        return abs(x[-1, 0] - math.exp(-2.0))

    ratio = err(0.2) / err(0.1)
    assert 12.0 <= ratio <= 20.0


def test_integrate_harmonic_energy_drift():
    # 100 periods of the unit oscillator at dt = 0.02: RK4 loses n h^6 / 72 = 2.8e-8 of the
    # energy over n steps, while a second-order scheme drifts by about 1e-3
    def osc(t, x):
        return np.array([x[1], -x[0]])

    _, x = integrate(osc, np.array([1.0, 0.0]), 100 * 2 * math.pi, 0.02)
    energy = 0.5 * (x[:, 0] ** 2 + x[:, 1] ** 2)
    assert np.abs(energy - energy[0]).max() / energy[0] <= 1e-6


@pytest.mark.filterwarnings("ignore:overflow")
def test_integrate_divergence_detected():
    with pytest.raises(DivergenceError) as exc:
        integrate(lambda t, x: x ** 3, np.array([5.0]), 10.0, 0.5)
    assert exc.value.time is not None


def test_benchmark_values():
    f, g, plant = benchmark_system()
    assert f(0.0, 0.0) == pytest.approx(1.5)
    assert g(0.0, 0.0) == pytest.approx(1.0)
    np.testing.assert_array_equal(plant.A, [[0.0, 1.0], [0.0, 0.0]])
    np.testing.assert_array_equal(plant.b, [0.0, 1.0])


def test_benchmark_partial_derivative_bounds():
    # |df/dx1| <= 2 (attained), |df/dx2| <= 1/4: the basis for L_f = 2
    f, _, _ = benchmark_system()
    xs = np.linspace(-5, 5, 301)
    g1, g2 = np.meshgrid(xs, xs, indexing="ij")
    x1, x2 = g1.ravel(), g2.ravel()
    h = 1e-6
    d1 = (f(x1 + h, x2) - f(x1 - h, x2)) / (2 * h)
    d2 = (f(x1, x2 + h) - f(x1, x2 - h)) / (2 * h)
    assert np.abs(d1).max() <= 2.0 + 1e-6
    assert np.abs(d1).max() >= 1.99
    assert np.abs(d2).max() <= 0.25 + 1e-6


def test_benchmark_input_gain_bounded_away_from_zero():
    _, g, _ = benchmark_system()
    xs = np.linspace(-50, 50, 10001)
    vals = g(np.zeros_like(xs), xs)
    assert vals.min() >= 0.5 - 1e-12


def test_reference_examples():
    ref = ReferenceSpec(2.0, 1.0)
    np.testing.assert_allclose(ref.state(0.0), [0.0, 2.0], atol=1e-12)
    np.testing.assert_allclose(ref.state(math.pi / 2), [2.0, 0.0], atol=1e-12)
    assert ref.signal(0.5) == pytest.approx(-2.0 * math.sin(0.5))


def test_reference_consistency_residual():
    # finite-difference x_ref' against A x_ref + b r_ref on a grid
    _, _, plant = benchmark_system()
    ref = ReferenceSpec(2.0, 1.0)
    ts = np.linspace(0.1, 6.0, 60)
    h = 1e-4
    xdot = (ref.state(ts + h) - ref.state(ts - h)) / (2 * h)
    rhs = ref.state(ts) @ plant.A.T + np.outer(ref.signal(ts), plant.b)
    assert np.abs(xdot - rhs).max() <= 1e-8


@pytest.mark.parametrize("a, w", [(2.0, 1.0), (1.5, 0.4), (0.5, 3.0), (-2.0, 1.0)])
def test_reference_max_speed_is_the_sup_of_the_speed(a, w):
    ref = ReferenceSpec(a, w)
    ts = np.linspace(0.0, ref.period, 20001)
    speed = np.linalg.norm(np.stack([a * w * np.cos(w * ts), -a * w * w * np.sin(w * ts)], axis=-1), axis=1)
    assert speed.max() <= ref.max_speed * (1 + 1e-12)
    assert speed.max() == pytest.approx(ref.max_speed, rel=1e-6)


def test_measurements_are_f_plus_seeded_noise():
    f, _, plant = benchmark_system()
    loop = closed_loop(plant, np.array([200.0, 20.0]))
    model = fit(se_unit(2), TrainingSet.empty(2, 0.01))
    sim = run_closed_loop(loop, model, reference_table(ReferenceSpec(2.0, 1.0), 1.0, 1e-3), 1e-3)
    n, s2 = len(sim.states), 0.01
    raw = measure(sim.states, f, s2, 3)
    expected = f(sim.states[:, 0], sim.states[:, 1]) + np.random.default_rng(3).normal(0.0, math.sqrt(s2), n)
    assert raw.targets.tobytes() == expected.tobytes()
    np.testing.assert_array_equal(raw.inputs, sim.states)
    assert raw.noise_variance == s2


def test_measurement_count_and_grid():
    f, _, plant = benchmark_system()
    loop = closed_loop(plant, np.array([200.0, 20.0]))
    model = fit(se_unit(2), TrainingSet.empty(2, 0.01))
    T, dt = 3.0, 1e-3
    sim = run_closed_loop(loop, model, reference_table(ReferenceSpec(2.0, 1.0), T, dt), dt)
    assert len(measure(sim.states, f, 0.01, 1)) == int(math.floor(1 + T / dt + 1e-9))
    steps = np.diff(sim.times)
    assert steps.max() - steps.min() <= 1e-12


def test_measurement_noise_variance():
    f, _, plant = benchmark_system()
    loop = closed_loop(plant, np.array([200.0, 20.0]))
    model = fit(se_unit(2), TrainingSet.empty(2, 0.01))
    sim = run_closed_loop(loop, model, reference_table(ReferenceSpec(2.0, 1.0), 2.0, 1e-3), 1e-3)
    resid = measure(sim.states, f, 0.01, 7).targets - f(sim.states[:, 0], sim.states[:, 1])
    assert len(resid) >= 1000
    assert resid.var() == pytest.approx(0.01, rel=0.10)


def test_run_determinism():
    f, _, plant = benchmark_system()
    loop = closed_loop(plant, np.array([200.0, 20.0]))
    model = fit(se_unit(2), TrainingSet.empty(2, 0.01))
    a = run_closed_loop(loop, model, reference_table(ReferenceSpec(2.0, 1.0), 1.0, 1e-3), 1e-3)
    b = run_closed_loop(loop, model, reference_table(ReferenceSpec(2.0, 1.0), 1.0, 1e-3), 1e-3)
    np.testing.assert_array_equal(a.states, b.states)
    np.testing.assert_array_equal(measure(a.states, f, 0.01, 42).targets, measure(b.states, f, 0.01, 42).targets)


def test_prior_sampling_statistics():
    spec = se_unit()
    grid = np.array([[0.0]])
    # one factor, one draw per seed, as the CLI runners draw
    L = prior_factor(spec, grid)
    draws = np.array([prior_draw(L, np.random.default_rng(s))[0] for s in range(10000)])
    assert draws.var() == pytest.approx(1.0, rel=0.05)
    assert abs(draws.mean()) <= 3.0 / math.sqrt(10000)
    two = np.array([[0.0], [10.0]])
    L = prior_factor(spec, two)
    pairs = np.array([prior_draw(L, np.random.default_rng(s)) for s in range(10000)])
    corr = np.corrcoef(pairs[:, 0], pairs[:, 1])[0, 1]
    assert abs(corr) <= 0.05
