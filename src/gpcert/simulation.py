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
from .tracking import ClosedLoop, LinearPlant


def integrate(dynamics, x0, horizon: float, dt: float):
    """Classical 4th-order Runge-Kutta at fixed pitch dt.

    Returns (times, states) with states[k] = x(k dt).  A non-finite state
    aborts with the offending time stamp.
    """
    if not dt > 0:
        raise ValueError("dt must be positive")
    x = np.asarray(x0, dtype=float).copy()
    n = int(round(horizon / dt))
    times = np.arange(n + 1) * dt
    states = np.empty((n + 1, x.shape[0]))
    states[0] = x
    for k in range(n):
        t = times[k]
        k1 = dynamics(t, x)
        k2 = dynamics(t + 0.5 * dt, x + 0.5 * dt * k1)
        k3 = dynamics(t + 0.5 * dt, x + 0.5 * dt * k2)
        k4 = dynamics(t + dt, x + dt * k3)
        x = x + dt / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if not np.all(np.isfinite(x)):
            raise DivergenceError(f"state diverged at t = {times[k + 1]:.6g}", time=float(times[k + 1]))
        states[k + 1] = x
    return times, states


def benchmark_system():
    """Nonlinearity, input gain and plant of the simulation benchmark.

    f(x) = 1 - sin(2 x1) + 1 / (1 + exp(-x2)),  g(x) = 1 + sin(x2 / 2) / 2,
    with the feedback-linearized double integrator A = [[0,1],[0,0]],
    b = [0,1].  g is bounded away from zero (minimum 1/2), so dividing the
    nominal control by it is always well defined.
    """

    def f(x):
        x = np.asarray(x, dtype=float)
        if x.ndim == 1:  # one point, as the RK4 stages ask: float scalars skip 0-d arrays
            x1, x2 = x.tolist()
        else:
            x1, x2 = x[..., 0], x[..., 1]
        # np.exp, not math.exp: the two differ in the last bit on some inputs
        return 1.0 - np.sin(2.0 * x1) + 1.0 / (1.0 + np.exp(-x2))

    def g(x):
        x = np.asarray(x, dtype=float)
        return 1.0 + 0.5 * np.sin(x[..., 1] / 2.0)

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
        """max_t |x_ref'(t)| = a w max(1, w)."""
        return self.amplitude * self.frequency * max(1.0, self.frequency)

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
    earliest divergence time of the batch.

    At every RK4 stage ``nonlinearity`` is called on one point of shape (2,).
    That array is a scratch buffer the stepper overwrites at the next stage:
    the callee must read it and must not keep it, or a view of it.
    """
    single = isinstance(models, GPModel)
    if single:
        models = [models]
    if len(models) == 1:
        times, states = _closed_loop_rk4(loop, models[0], ref, horizon, fine_dt, nonlinearity)
        per_model = [states]
    else:
        times, per_model = _closed_loop_rk4_batch(loop, stacked_mean_function(models), len(models), ref, horizon,
                                                  fine_dt, nonlinearity)
    ref_states = ref.state(times)
    runs = [SimRun(times, states, ref_states) for states in per_model]
    return runs[0] if single else runs


def measure(states: np.ndarray, nonlinearity, noise_variance: float, seed: int) -> TrainingSet:
    """Measurements y = f(x) + eps at every state, eps ~ N(0, noise_variance) from ``default_rng(seed)``."""
    f_vals = np.asarray(nonlinearity(states), dtype=float)
    eps = np.random.default_rng(seed).normal(0.0, math.sqrt(noise_variance), size=f_vals.shape)
    return TrainingSet(states, f_vals + eps, noise_variance)


def _stage_table(loop: ClosedLoop, ref: ReferenceSpec, horizon: float, dt: float):
    """Sample times and, per step, x_ref at the three stage times then r_ref at them."""
    if not dt > 0:
        raise ValueError("dt must be positive")
    if loop.plant.A.shape != (2, 2):
        raise ValueError("the closed-loop simulation needs a plant of dimension 2")
    n = int(round(horizon / dt))
    if n < 0:
        raise ValueError("horizon must be nonnegative")
    times = np.arange(n + 1) * dt
    t = times[:-1, None]
    stage_times = np.hstack([t, t + 0.5 * dt, t + dt])  # (n, 3): the three distinct stage times
    return times, np.hstack([ref.state(stage_times).reshape(n, 6), ref.signal(stage_times)])


def _diverged(times, k: int) -> DivergenceError:
    return DivergenceError(f"state diverged at t = {times[k]:.6g}", time=float(times[k]))


def _closed_loop_rk4(loop: ClosedLoop, model: GPModel, ref: ReferenceSpec, horizon: float, dt: float,
                     nonlinearity):
    """:func:`integrate` specialised to x' = A x + b (u_nom + f(x)) on a 2-d plant.

    u_nom = -theta^T (x - x_ref) + r_ref - mu(x).  The result is bit-identical
    to :func:`integrate` on that field: x_ref and r_ref are sampled once at
    the stage times times[k], times[k] + 0.5 dt and times[k] + dt of every
    step, the state is carried as two floats, and every sum keeps the
    generic loop's operation order.  The products theta^T e and A x stay
    separate numpy calls, because BLAS fuses their multiply-adds.  The stage
    point, x - x_ref and A x live in three 2-buffers reused by every stage,
    and mu reads the stage point in place (:meth:`GPModel.mean_at`).
    """
    times, table = _stage_table(loop, ref, horizon, dt)
    A, b, theta = loop.plant.A, loop.plant.b, loop.theta
    b0, b1 = b.tolist()
    x = np.empty(2)  # the stage point, handed to mu and nonlinearity
    e = np.empty(2)  # x - x_ref; read only by theta.dot
    ax = np.empty(2)  # A x
    predict = model.mean_at(x)
    h, h6 = 0.5 * dt, dt / 6.0

    def field(x0, x1, r0, r1, r_ff):
        x[0] = x0
        x[1] = x1
        e[0] = x0 - r0
        e[1] = x1 - r1
        s = -float(theta.dot(e)) + r_ff - predict() + float(nonlinearity(x))
        np.matmul(A, x, ax)
        ax0, ax1 = ax.tolist()
        return ax0 + b0 * s, ax1 + b1 * s

    states = np.empty((len(times), 2))
    states[0] = ref.state(0.0)
    x0, x1 = states[0].tolist()
    for k, row in enumerate(table, 1):
        ra0, ra1, rb0, rb1, rc0, rc1, sa, sb, sc = row.tolist()
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
    return times, states


def _closed_loop_rk4_batch(loop: ClosedLoop, mean, S: int, ref: ReferenceSpec, horizon: float, dt: float,
                           nonlinearity):
    """:func:`_closed_loop_rk4` for S models at once; returns times and S state arrays.

    ``mean`` is the models' :func:`gp.stacked_mean_function`.

    Every state is bit-identical to the single-model stepper's.  The S states
    are carried as one list of 2S floats, and each stage makes one set of
    numpy calls for all S points: the stacked products theta^T e as
    (1, 2) @ (S, 2, 1) and A x as (2, 2) @ (S, 2, 1), which make the same
    BLAS dot and gemv per model as the single-model products, and the GP
    mean.  The three land in one buffer that a single ``tolist`` reads.  The
    nonlinearity still runs per model, on one point.  The scalar sums stay
    Python floats in the single-model operation order.  The first non-finite
    state raises at its step, as it would alone.

    Both steppers stay because each wins where it serves (median of
    alternating in-process pairs at horizon 2 s, dt 1e-3, N = 25, on a
    2-core Xeon): at S = 1 this loop is 1.4 times slower than
    :func:`_closed_loop_rk4`, while stepping the models one by one is 1.2
    times slower than this loop at S = 2 and 2.8 times slower at S = 10.
    """
    times, table = _stage_table(loop, ref, horizon, dt)
    A, theta = loop.plant.A, loop.theta[None, :]
    b0, b1 = loop.plant.b.tolist()
    pe = np.empty((2, S, 2, 1))  # the S stage points, then the S values of x - x_ref
    pe_flat = pe.reshape(4 * S)
    p, e = pe
    p_t = p.transpose(1, 0, 2)  # the points coordinate first, as the mean takes them
    point = list(p.reshape(S, 2))  # seed s's (2,) point, handed to nonlinearity
    out = np.empty(4 * S)  # theta^T e for each seed, then A x, then mu
    te, ax, mu = out[:S].reshape(S, 1, 1), out[S:3 * S].reshape(S, 2, 1), out[3 * S:].reshape(S, 1, 1)
    h, h6 = 0.5 * dt, dt / 6.0

    def field(x, r0, r1, r_ff):
        pe_flat[:] = x + [xi - ri for xi, ri in zip(x, (r0, r1) * S)]
        np.matmul(theta, e, out=te)
        np.matmul(A, p, out=ax)
        mean(p_t, mu)
        v = out.tolist()
        k = []
        for s in range(S):
            u = -v[s] + r_ff - v[3 * S + s] + float(nonlinearity(point[s]))
            k += (v[S + 2 * s] + b0 * u, v[S + 2 * s + 1] + b1 * u)
        return k

    states = np.empty((len(times), 2 * S))  # seed s in columns 2s and 2s + 1
    states[0] = np.tile(ref.state(0.0), S)
    x = states[0].tolist()
    with np.errstate(over="ignore", invalid="ignore"):  # divergence is caught below, as in the scalar loop
        for k, row in enumerate(table, 1):
            ra0, ra1, rb0, rb1, rc0, rc1, sa, sb, sc = row.tolist()
            k1 = field(x, ra0, ra1, sa)
            k2 = field([xi + h * ki for xi, ki in zip(x, k1)], rb0, rb1, sb)
            k3 = field([xi + h * ki for xi, ki in zip(x, k2)], rb0, rb1, sb)
            k4 = field([xi + dt * ki for xi, ki in zip(x, k3)], rc0, rc1, sc)
            x = [xi + h6 * (a + 2.0 * b + 2.0 * c + d) for xi, a, b, c, d in zip(x, k1, k2, k3, k4)]
            if not all(map(math.isfinite, x)):
                raise _diverged(times, k)
            states[k] = x
    return times, [states[:, 2 * s:2 * s + 2] for s in range(S)]


def prior_factor(spec: KernelSpec, grid) -> np.ndarray:
    """Lower Cholesky factor L of the prior covariance on a grid (1e-10 jitter)."""
    grid = np.atleast_2d(np.asarray(grid, dtype=float))
    K = gram(spec, grid) + 1e-10 * np.eye(grid.shape[0])
    try:
        with _blas_threads(grid.shape[0]):
            return scipy.linalg.cholesky(K, lower=True)
    except scipy.linalg.LinAlgError as exc:
        raise IllConditionedDataError(f"prior covariance factorization failed: {exc}") from None

