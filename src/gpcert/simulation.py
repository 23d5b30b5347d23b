"""Deterministic fixed-step simulation of the benchmark closed loop.

Runs use classical RK4 with a constant pitch so that identical seeds and
configs reproduce outputs bit for bit and so the comparison-ODE certificate
can be sampled on the same grid.  Noise enters only the measurements
(y = f(x) + eps, :func:`measure`), never the plant dynamics.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import DivergenceError, IllConditionedDataError
from .gp import GPModel, TrainingSet, _blas_threads, stacked_mean_function
from .kernels import KernelSpec, gram
from .tracking import ClosedLoop, LinearPlant, half_step_times, stage_samples


def integrate(dynamics, x0, horizon: float, dt: float):
    """Classical 4th-order Runge-Kutta at fixed pitch dt.

    Returns (times, states) with states[k] = x(k dt), the times being the even
    samples of :func:`tracking.half_step_times`; step k calls ``dynamics`` at
    samples 2k, 2k + 1 (twice) and 2k + 2.  A non-finite state aborts with
    the offending time stamp.
    """
    t_half = half_step_times(horizon, dt)
    times = t_half[::2]
    x = np.asarray(x0, dtype=float).copy()
    states = np.empty((len(times), x.shape[0]))
    states[0] = x
    h = dt / 2.0
    for k, (ta, tb, tc) in enumerate(stage_samples(t_half), 1):
        k1 = dynamics(ta, x)
        k2 = dynamics(tb, x + h * k1)
        k3 = dynamics(tb, x + h * k2)
        k4 = dynamics(tc, x + dt * k3)
        x = x + dt / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if not np.all(np.isfinite(x)):
            raise _diverged(times, k)
        states[k] = x
    return times, states


# sup ||grad f|| of the benchmark f below, rounded up: |df/dx1| = |2 cos 2 x1| <= 2 and
# |df/dx2| = s (1 - s) <= 1/4 for the logistic s(x2), both at x1 = k pi / 2, x2 = 0,
# so the supremum is sqrt(4 + 1/16) = 2.015564 on any box holding such a point
BENCHMARK_L_F = 2.0156


def benchmark_system():
    """Nonlinearity, input gain and plant of the simulation benchmark.

    f(x1, x2) = 1 - sin(2 x1) + 1 / (1 + exp(-x2)),  g(x1, x2) = 1 + sin(x2 / 2) / 2,
    each on two floats or two equally shaped arrays, with the feedback-linearized
    double integrator A = [[0,1],[0,0]], b = [0,1].  g is bounded away from zero
    (minimum 1/2), so dividing the nominal control by it is always well defined.
    """

    def f(x1, x2):
        # np.exp, not math.exp: the two differ in the last bit on some inputs
        return 1.0 - np.sin(2.0 * x1) + 1.0 / (1.0 + np.exp(-x2))

    def g(x1, x2):
        return 1.0 + 0.5 * np.sin(x2 / 2.0)

    plant = LinearPlant(A=np.array([[0.0, 1.0], [0.0, 0.0]]), b=np.array([0.0, 1.0]))
    return f, g, plant


@dataclass(frozen=True)
class ReferenceSpec:
    """Sinusoidal reference for the double integrator.

    x_ref(t) = [a sin(w t), a w cos(w t)] solves x_ref' = A x_ref + b r_ref
    with r_ref(t) = -a w^2 sin(w t).
    """

    amplitude: float = 2.0
    frequency: float = 1.0

    @property
    def period(self) -> float:
        return 2.0 * math.pi / self.frequency

    @property
    def max_speed(self) -> float:
        """max_t |x_ref'(t)| = |a| w max(1, w)."""
        return abs(self.amplitude) * self.frequency * max(1.0, self.frequency)

    def state(self, t):
        t = np.asarray(t, dtype=float)
        a, w = self.amplitude, self.frequency
        return np.stack([a * np.sin(w * t), a * w * np.cos(w * t)], axis=-1)

    def signal(self, t):
        t = np.asarray(t, dtype=float)
        a, w = self.amplitude, self.frequency
        return -a * w * w * np.sin(w * t)


@dataclass(frozen=True)
class SimRun:
    """One closed-loop roll-out: sample times, states and reference states."""

    times: np.ndarray
    states: np.ndarray
    reference_states: np.ndarray

    @property
    def error_norms(self) -> np.ndarray:
        return np.linalg.norm(self.states - self.reference_states, axis=1)

    @property
    def max_speed(self) -> float:
        dt = float(self.times[1] - self.times[0])
        dx = np.diff(self.states, axis=0) / dt
        return float(np.linalg.norm(dx, axis=1).max())


def run_closed_loop(loop: ClosedLoop, models, ref: ReferenceSpec, horizon: float, fine_dt: float, nonlinearity):
    """Simulate u = -theta^T (x - x_ref) + r_ref - mu(x) against the true plant.

    The sign convention matches the error dynamics e' = (A - b theta^T) e +
    b (f - mu).  The applied input is u / g(x) with g known exactly, so g
    cancels from the dynamics; the tracking writer records that input.

    One model gives one :class:`SimRun`.  A sequence of S models gives a
    list of S runs; every run is bit-identical to the run of its model
    alone.  S = 1 is stepped by :func:`_closed_loop_rk4` and S > 1 by
    :func:`_closed_loop_rk4_batch`, with the models'
    :func:`gp.stacked_mean_function`; a model that diverges raises at the
    earliest divergence time of the batch.  x_ref and r_ref are sampled once,
    on :func:`tracking.half_step_times`: every run starts at x_ref(0), and its
    times and reference states are the even samples.

    ``nonlinearity`` is f(x1, x2).  Every RK4 stage calls it once per model on
    two Python floats, so it should use numpy operations: on a diverging state
    numpy returns inf where Python float arithmetic raises.
    """
    single = isinstance(models, GPModel)
    if single:
        models = [models]
    if loop.plant.A.shape != (2, 2):
        raise ValueError("the closed-loop simulation needs a plant of dimension 2")
    t_half = half_step_times(horizon, fine_dt)
    x_half, r_half = ref.state(t_half), ref.signal(t_half)
    times, ref_states = t_half[::2], x_half[::2]
    args = times, x_half[0], stage_samples(x_half[:, 0], x_half[:, 1], r_half), fine_dt, nonlinearity
    per_model = ([_closed_loop_rk4(loop, models[0], *args)] if len(models) == 1
                 else _closed_loop_rk4_batch(loop, stacked_mean_function(models), len(models), *args))
    runs = [SimRun(times, states, ref_states) for states in per_model]
    return runs[0] if single else runs


def measure(states: np.ndarray, nonlinearity, noise_variance: float, seed: int) -> TrainingSet:
    """y = f(x1, x2) + eps on the columns of ``states``, eps ~ N(0, noise_variance) from ``default_rng(seed)``."""
    f_vals = np.asarray(nonlinearity(states[:, 0], states[:, 1]), dtype=float)
    eps = np.random.default_rng(seed).normal(0.0, math.sqrt(noise_variance), size=f_vals.shape)
    return TrainingSet(states, f_vals + eps, noise_variance)


def _diverged(times, k: int) -> DivergenceError:
    return DivergenceError(f"state diverged at t = {times[k]:.6g}", time=float(times[k]))


def _closed_loop_rk4(loop: ClosedLoop, model: GPModel, times, x_init, stages, dt: float, nonlinearity):
    """:func:`integrate` specialised to x' = A x + b (u_nom + f(x)) on a 2-d plant.

    u_nom = -theta^T (x - x_ref) + r_ref - mu(x).  Returns the states at
    ``times`` from ``x_init``.  ``stages`` is :func:`tracking.stage_samples`
    of x_ref's two coordinates and r_ref on :func:`tracking.half_step_times`,
    the grid :func:`integrate` steps on.  The result is bit-identical to
    :func:`integrate` on that field: the state is carried as two floats, and
    every sum keeps the generic loop's operation order.  The products
    theta^T e and A x stay separate numpy calls, because BLAS fuses their
    multiply-adds.  The stage point, x - x_ref and A x live in three
    2-buffers reused by every stage, and mu reads the stage point in place
    (:meth:`GPModel.mean_at`).
    """
    A, b, theta = loop.plant.A, loop.plant.b, loop.theta
    b0, b1 = b.tolist()
    x = np.empty(2)  # the stage point, read by mu
    e = np.empty(2)  # x - x_ref; read only by theta.dot
    ax = np.empty(2)  # A x
    predict = model.mean_at(x)
    h, h6 = dt / 2.0, dt / 6.0

    def field(x0, x1, r0, r1, r_ff):
        x[0] = x0
        x[1] = x1
        e[0] = x0 - r0
        e[1] = x1 - r1
        s = -float(theta.dot(e)) + r_ff - predict() + float(nonlinearity(x0, x1))
        np.matmul(A, x, ax)
        ax0, ax1 = ax.tolist()
        return ax0 + b0 * s, ax1 + b1 * s

    states = np.empty((len(times), 2))
    states[0] = x_init
    x0, x1 = states[0].tolist()
    for k, (ra0, rb0, rc0, ra1, rb1, rc1, sa, sb, sc) in enumerate(stages, 1):
        k10, k11 = field(x0, x1, ra0, ra1, sa)
        k20, k21 = field(x0 + h * k10, x1 + h * k11, rb0, rb1, sb)
        k30, k31 = field(x0 + h * k20, x1 + h * k21, rb0, rb1, sb)
        k40, k41 = field(x0 + dt * k30, x1 + dt * k31, rc0, rc1, sc)
        x0 = x0 + h6 * (k10 + 2.0 * k20 + 2.0 * k30 + k40)
        x1 = x1 + h6 * (k11 + 2.0 * k21 + 2.0 * k31 + k41)
        if not (math.isfinite(x0) and math.isfinite(x1)):
            raise _diverged(times, k)
        states[k, 0] = x0
        states[k, 1] = x1
    return states


def _closed_loop_rk4_batch(loop: ClosedLoop, mean, S: int, times, x_init, stages, dt: float, nonlinearity):
    """:func:`_closed_loop_rk4` for S models at once; returns S state arrays.

    ``mean`` is the models' :func:`gp.stacked_mean_function`.

    Every state is bit-identical to the single-model stepper's.  The S states
    are carried as one list of 2S floats, and each stage makes one set of
    numpy calls for all S points: the stacked products theta^T e as
    (1, 2) @ (S, 2, 1) and A x as (2, 2) @ (S, 2, 1), which make the same
    BLAS dot and gemv per model as the single-model products, and the GP
    mean.  The three land in one buffer that a single ``tolist`` reads.  The
    nonlinearity runs per model on its two floats: one call on all S points
    pays only from about S = 5.  The scalar sums stay Python floats in the
    single-model operation order.  The first non-finite state raises at its
    step, as it would alone.

    Both steppers stay because each wins where it serves (median of 15
    alternating in-process pairs at horizon 2 s, dt 1e-3, N = 25, on a
    2-vCPU Xeon): at S = 1 this loop is 1.42 times slower than
    :func:`_closed_loop_rk4`, while stepping the models one by one is 1.19
    times slower than this loop at S = 2 and 2.8 times slower at S = 10.
    """
    A, theta = loop.plant.A, loop.theta[None, :]
    b0, b1 = loop.plant.b.tolist()
    pe = np.empty((2, S, 2, 1))  # the S stage points, then the S values of x - x_ref
    pe_flat = pe.reshape(4 * S)
    p, e = pe
    p_t = p.transpose(1, 0, 2)  # the points coordinate first, as the mean takes them
    out = np.empty(4 * S)  # theta^T e for each seed, then A x, then mu
    te, ax, mu = out[:S].reshape(S, 1, 1), out[S:3 * S].reshape(S, 2, 1), out[3 * S:].reshape(S, 1, 1)
    h, h6 = dt / 2.0, dt / 6.0

    def field(x, r0, r1, r_ff):
        pe_flat[:] = x + [xi - ri for xi, ri in zip(x, (r0, r1) * S)]
        np.matmul(theta, e, out=te)
        np.matmul(A, p, out=ax)
        mean(p_t, mu)
        v = out.tolist()
        k = []
        for s in range(S):
            u = -v[s] + r_ff - v[3 * S + s] + float(nonlinearity(x[2 * s], x[2 * s + 1]))
            k += (v[S + 2 * s] + b0 * u, v[S + 2 * s + 1] + b1 * u)
        return k

    states = np.empty((len(times), 2 * S))  # seed s in columns 2s and 2s + 1
    states[0] = np.tile(x_init, S)
    x = states[0].tolist()
    with np.errstate(over="ignore", invalid="ignore"):  # divergence is caught below, as in the scalar loop
        for k, (ra0, rb0, rc0, ra1, rb1, rc1, sa, sb, sc) in enumerate(stages, 1):
            k1 = field(x, ra0, ra1, sa)
            k2 = field([xi + h * ki for xi, ki in zip(x, k1)], rb0, rb1, sb)
            k3 = field([xi + h * ki for xi, ki in zip(x, k2)], rb0, rb1, sb)
            k4 = field([xi + dt * ki for xi, ki in zip(x, k3)], rc0, rc1, sc)
            x = [xi + h6 * (a + 2.0 * b + 2.0 * c + d) for xi, a, b, c, d in zip(x, k1, k2, k3, k4)]
            if not all(map(math.isfinite, x)):
                raise _diverged(times, k)
            states[k] = x
    return [states[:, 2 * s:2 * s + 2] for s in range(S)]


def prior_factor(spec: KernelSpec, grid) -> np.ndarray:
    """Lower Cholesky factor L of the prior covariance on a grid (1e-10 jitter)."""
    grid = np.atleast_2d(np.asarray(grid, dtype=float))
    K = gram(spec, grid) + 1e-10 * np.eye(grid.shape[0])
    try:
        with _blas_threads():
            return scipy.linalg.cholesky(K, lower=True)
    except scipy.linalg.LinAlgError as exc:
        raise IllConditionedDataError(f"prior covariance factorization failed: {exc}") from None


def prior_draw(L: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """One prior sample L z on the grid of the factor L, with z standard normal from rng."""
    with _blas_threads():
        return L @ rng.standard_normal(L.shape[0])

