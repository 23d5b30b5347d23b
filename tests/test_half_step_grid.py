"""Every RK4 loop reads its stage times from one grid, ``tracking.half_step_times``.

Step k of the rollout, of ``integrate`` and of the comparison ODE reads
samples 2k, 2k + 1 (stages 2 and 3) and 2k + 2 of that grid; the rollout
reads x_ref and r_ref from its caller's table on it.  A stage time
formed as t_k + dt/2 or t_k + dt differs from the grid's by one ulp at many
steps, so the pitch below is one where the two forms disagree.
"""

import numpy as np
import pytest

from gpcert.gp import TrainingSet, fit
from gpcert.kernels import KernelSpec
from gpcert.simulation import ReferenceSpec, benchmark_plant, integrate, run_closed_loop
from gpcert.tracking import closed_loop, half_step_times, stage_samples

from conftest import benchmark_f

HORIZON, DT = 0.3, 3e-4  # 1000 steps


def same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def test_stage_samples_reads_samples_2k_2k1_and_2k2_of_each_column():
    a, b = np.arange(7.0), np.arange(14.0).reshape(7, 2)[:, 1]  # b is a strided column
    steps = list(stage_samples(a, b))
    assert steps == [(2 * k, 2 * k + 1, 2 * k + 2, b[2 * k], b[2 * k + 1], b[2 * k + 2]) for k in range(3)]
    assert all(type(v) is float for step in steps for v in step)
    assert list(stage_samples(np.zeros(1))) == []


@pytest.mark.parametrize("seed", [1, 3])
def test_run_closed_loop_reads_its_callers_table_on_the_half_step_grid(seed, monkeypatch):
    rng = np.random.default_rng(seed)
    X = rng.uniform(-3.0, 3.0, (9, 2))
    spec = KernelSpec("squared_exponential", 1.0, (0.8, 1.5))
    model = fit(spec, TrainingSet(X, benchmark_f(X) + 0.1 * rng.normal(size=9), 0.01))
    ref, grid = ReferenceSpec(2.0, 1.0), half_step_times(HORIZON, DT)
    x_half = ref.state(grid)
    table = np.array([*x_half.T, ref.signal(grid)])
    calls = []
    monkeypatch.setattr(ReferenceSpec, "state", lambda self, t: calls.append(t))
    monkeypatch.setattr(ReferenceSpec, "signal", lambda self, t: calls.append(t))

    run = run_closed_loop(closed_loop(benchmark_plant(), np.array([200.0, 20.0])), model, table, DT)

    assert calls == []  # the rollout samples no reference of its own
    assert same_bits(run.times, grid[::2])
    assert same_bits(run.reference_states, x_half[::2])
    assert same_bits(run.states[0], x_half[0])


def test_run_closed_loop_times_are_the_even_half_step_times_at_any_pitch():
    # the rollout forms k dt, the grid 2k (dt / 2): dt / 2 is exact, so both round the same real number
    loop = closed_loop(benchmark_plant(), np.array([1.0, 1.0]))  # slow poles: RK4 stays stable up to the largest pitch
    model = fit(KernelSpec("squared_exponential", 1.0, (0.8, 1.5)), TrainingSet.empty(2, 0.01))
    for dt in [DT, 1e-3, 1.0 / 3.0, *np.random.default_rng(0).uniform(1e-4, 1.0, 40)]:
        grid = half_step_times(1000 * dt, dt)
        table = np.array([np.zeros_like(grid), np.zeros_like(grid), np.zeros_like(grid)])
        assert same_bits(run_closed_loop(loop, model, table, dt).times, grid[::2]), dt


def test_integrate_calls_dynamics_at_samples_2k_2k1_2k1_and_2k2():
    seen = []

    def dynamics(t, x):
        seen.append(t)
        return -x

    times, _ = integrate(dynamics, np.array([1.0]), HORIZON, DT)
    grid = half_step_times(HORIZON, DT)
    n = len(grid) // 2
    t = np.arange(n) * DT  # at this pitch, summed stage times miss the grid by an ulp at some steps
    assert not same_bits(t + 0.5 * DT, grid[1::2]) and not same_bits(t + DT, grid[2::2])
    expected = [grid[j] for k in range(n) for j in (2 * k, 2 * k + 1, 2 * k + 1, 2 * k + 2)]
    assert same_bits(np.array(seen, dtype=float), np.array(expected))
    assert same_bits(times, grid[::2])
