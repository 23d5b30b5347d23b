"""Deterministic fixed-step simulation of the benchmark closed loop.

Runs use classical RK4 with a constant pitch so that identical seeds and
configs reproduce outputs bit for bit and so the comparison-ODE certificate
can be sampled on the same grid.  Noise enters only the measurements
(y = f(x) + eps, :func:`measure`), never the plant dynamics.

:func:`run_closed_loop` steps the loop in C: ``_rollout.c``, compiled on
first use with the C compiler Python was built with and cached in the
package's ``__pycache__`` (:func:`_library`).  The core evaluates the GP mean
and the benchmark f itself, so the loop's f is always the benchmark's; the
numpy f of :func:`benchmark_system` serves :func:`measure` and the tracking
writer.  :func:`integrate` is the generic RK4 on a Python vector field.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import hashlib
import math
import os
import shlex
import subprocess
import sysconfig
import tempfile
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import CoreBuildError, DivergenceError, IllConditionedDataError, UnsupportedOperationError
from .gp import GPModel, TrainingSet, _blas_threads
from .kernels import MATERN32, MATERN52, SQUARED_EXPONENTIAL, KernelSpec, gram
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
    :func:`run_closed_loop` simulates the same f, compiled into ``_rollout.c``
    in the same operation order on libm's sin and exp.
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

    amplitude: float
    frequency: float

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


def run_closed_loop(loop: ClosedLoop, model: GPModel, ref: ReferenceSpec, horizon: float, fine_dt: float) -> SimRun:
    """Simulate u = -theta^T (x - x_ref) + r_ref - mu(x) against the benchmark plant.

    The sign convention matches the error dynamics e' = (A - b theta^T) e +
    b (f - mu), with f the benchmark nonlinearity of :func:`benchmark_system`.
    The applied input is u / g(x) with g known exactly, so g cancels from the
    dynamics; the tracking writer records that input.

    The model needs a stationary kernel at d = 2 or no data.  x_ref and r_ref
    are sampled once, on :func:`tracking.half_step_times`: the run starts at
    x_ref(0), and its times and reference states are the even samples.  The
    compiled core (:func:`_library`) steps the loop; a state that is not
    finite raises :class:`DivergenceError` at its time.
    """
    if loop.plant.A.shape != (2, 2):
        raise ValueError("the closed-loop simulation needs a plant of dimension 2")
    spec, N = model.kernel, len(model)
    if N and not spec.stationary:
        raise UnsupportedOperationError(f"the rollout needs a stationary kernel, got {spec.family!r}")
    # the core reads N rows of two inputs and N weights
    if N and (spec.dim != 2 or model.data.inputs.shape != (N, 2) or model.alpha.shape != (N,)):
        raise ValueError("the closed-loop simulation needs a model of dimension 2 with one weight per input")
    t_half = half_step_times(horizon, fine_dt)
    x_half, r_half = ref.state(t_half), ref.signal(t_half)
    times, n = t_half[::2], len(t_half) // 2
    states = np.empty((n + 1, 2))
    states[0] = x_half[0]
    # family, sf2, l0, l1; the core reads none of them for an empty model, which has no rows
    kernel = (_FAMILY_CODES[spec.family], spec.signal_variance, *spec.lengthscales) if N else (0, 1.0, 1.0, 1.0)
    diverged = _library().gpcert_rollout(
        n, fine_dt, _doubles(loop.plant.A), _doubles(loop.plant.b), _doubles(loop.theta),
        _doubles(np.vstack([x_half.T, r_half])), *kernel, N, _doubles(model.data.inputs), _doubles(model.alpha),
        states)
    if diverged:
        raise _diverged(times, diverged)
    return SimRun(times, states, x_half[::2])


def measure(states: np.ndarray, nonlinearity, noise_variance: float, seed: int) -> TrainingSet:
    """y = f(x1, x2) + eps on the columns of ``states``, eps ~ N(0, noise_variance) from ``default_rng(seed)``."""
    f_vals = np.asarray(nonlinearity(states[:, 0], states[:, 1]), dtype=float)
    eps = np.random.default_rng(seed).normal(0.0, math.sqrt(noise_variance), size=f_vals.shape)
    return TrainingSet(states, f_vals + eps, noise_variance)


def _diverged(times, k: int) -> DivergenceError:
    return DivergenceError(f"state diverged at t = {times[k]:.6g}", time=float(times[k]))


# ---------------------------------------------------------------------------
# the compiled rollout core, _rollout.c
# ---------------------------------------------------------------------------

_FAMILY_CODES = {SQUARED_EXPONENTIAL: 1, MATERN32: 2, MATERN52: 3}  # as _rollout.c numbers them
_SOURCE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "_rollout.c")
_FLAGS = ("-O2", "-ffp-contract=off", "-fPIC", "-shared")  # no -march, no fast-math: the bits stay IEEE's
_CACHE = os.path.join(os.path.dirname(_SOURCE), "__pycache__")
_DOUBLES = np.ctypeslib.ndpointer(np.float64, flags="C_CONTIGUOUS")


def _doubles(a) -> np.ndarray:
    return np.ascontiguousarray(a, dtype=np.float64)


def _compiler() -> list[str]:
    """The C compiler command Python was built with (sysconfig's ``CC``), as an argument list."""
    return shlex.split(sysconfig.get_config_var("CC") or "cc")


@functools.cache
def _library() -> ctypes.CDLL:
    """``_rollout.c`` as a shared library, compiled on first use and loaded with ctypes.

    The library is cached in the package's ``__pycache__`` under the SHA-256
    of the source, the compiler command and flags, and the platform, so a
    later process loads it without compiling.  It is compiled under a
    temporary name and renamed into place, so processes that build at once
    each load a whole file.  Where that directory cannot be written, the
    library is built in a private temporary directory for this process.  A
    compiler that is missing or fails raises :class:`CoreBuildError`.
    """
    cc = _compiler()
    with open(_SOURCE, "rb") as fh:
        key = hashlib.sha256(b"\0".join([fh.read(), " ".join([*cc, *_FLAGS]).encode(),
                                         sysconfig.get_platform().encode()])).hexdigest()
    path = os.path.join(_CACHE, f"_rollout-{key[:20]}.so")
    if not os.path.exists(path):
        try:
            os.makedirs(_CACHE, exist_ok=True)
            fd, tmp = tempfile.mkstemp(suffix=".so.tmp", dir=_CACHE)
            os.close(fd)
        except OSError:  # e.g. a read-only install
            with tempfile.TemporaryDirectory(prefix="gpcert-", ignore_cleanup_errors=True) as private:
                return _load(_compile(cc, os.path.join(private, "_rollout.so")))  # the mapping outlives the file
        try:
            os.replace(_compile(cc, tmp), path)
        finally:
            with contextlib.suppress(FileNotFoundError):
                os.remove(tmp)
    return _load(path)


def _load(path: str) -> ctypes.CDLL:
    lib = ctypes.CDLL(path)
    lib.gpcert_rollout.restype = ctypes.c_int64
    lib.gpcert_rollout.argtypes = [
        ctypes.c_int64, ctypes.c_double, _DOUBLES, _DOUBLES, _DOUBLES, _DOUBLES,
        ctypes.c_int32, ctypes.c_double, ctypes.c_double, ctypes.c_double, ctypes.c_int64, _DOUBLES, _DOUBLES,
        np.ctypeslib.ndpointer(np.float64, flags=("C_CONTIGUOUS", "WRITEABLE"))]
    return lib


def _compile(cc: list[str], out: str) -> str:
    """Compile ``_rollout.c`` into the shared library ``out``; returns ``out``."""
    cmd = [*cc, *_FLAGS, "-o", out, _SOURCE, "-lm"]
    try:
        subprocess.run(cmd, check=True, capture_output=True, text=True)
    except OSError as exc:
        raise CoreBuildError(f"cannot build the rollout core: {cc[0]}: {exc.strerror}") from None
    except subprocess.CalledProcessError as exc:
        first = (exc.stderr.strip().splitlines() or ["no output"])[0]
        raise CoreBuildError(f"cannot build the rollout core: {' '.join(cmd)} exited with code "
                             f"{exc.returncode}: {first}") from None
    return out


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

