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
The same library holds ``_csv.c``, which formats the CSV cells of every
artifact (:func:`csv_chunks`).
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

from .bounds import DomainBox
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


def half_step_reference(ref: ReferenceSpec, box: DomainBox, horizon: float, fine_dt: float) -> np.ndarray:
    """The table :func:`run_closed_loop` reads: x_ref and r_ref on :func:`tracking.half_step_times`.

    One C-contiguous (3, 2n + 1) float64 array, n being :func:`tracking.step_count`,
    whose rows are x_ref's two coordinates and r_ref.  x_ref must lie in
    ``box``, where the error bound holds: the first point outside raises
    :class:`DomainError` before r_ref = -a w^2 sin(w t) is formed, which is
    inf * 0 at t = 0 when w^2 overflows.
    """
    t_half = half_step_times(horizon, fine_dt)
    table = np.empty((3, len(t_half)))
    table[:2] = ref.state(t_half).T
    box.require(table[:2].T)
    table[2] = ref.signal(t_half)
    return table


def run_closed_loop(loop: ClosedLoop, model: GPModel, table, fine_dt: float) -> SimRun:
    """Simulate u = -theta^T (x - x_ref) + r_ref - mu(x) against the benchmark plant.

    The sign convention matches the error dynamics e' = (A - b theta^T) e +
    b (f - mu), with f the benchmark nonlinearity of :func:`benchmark_system`.
    The applied input is u / g(x) with g known exactly, so g cancels from the
    dynamics; the tracking writer records that input.

    The model needs a stationary kernel at d = 2, with or without data.
    ``table`` is the caller's (3, 2n + 1) half-step table of x_ref and r_ref
    from :func:`half_step_reference`, which the core reads in place; an array
    of any other shape or layout raises ``ValueError``.  The run takes n
    steps of pitch ``fine_dt`` from x_ref(0).  Its times k fine_dt are the
    even samples of :func:`tracking.half_step_times` bit for bit (dt/2 is
    exact), and its reference states are the table's even columns.  The
    compiled core (:func:`_library`) steps the loop; a state that is not
    finite raises :class:`DivergenceError` at its time.
    """
    if loop.plant.A.shape != (2, 2):
        raise ValueError("the closed-loop simulation needs a plant of dimension 2")
    spec, N = model.kernel, len(model)
    if not spec.stationary:
        raise UnsupportedOperationError(f"the rollout needs a stationary kernel, got {spec.family!r}")
    # the core reads N rows of two inputs and N weights
    if spec.dim != 2 or model.data.inputs.shape != (N, 2) or model.alpha.shape != (N,):
        raise ValueError("the closed-loop simulation needs a model of dimension 2 with one weight per input")
    table = np.asarray(table, dtype=np.float64)
    if table.ndim != 2 or table.shape[0] != 3 or table.shape[1] % 2 != 1 or not table.flags.c_contiguous:
        raise ValueError(f"the reference table needs shape (3, 2n + 1) in C order, got {table.shape}")
    n = table.shape[1] // 2
    times = np.arange(n + 1) * fine_dt
    states = np.empty((n + 1, 2))
    states[0] = table[:2, 0]
    # the core reads the kernel only per row, so a model with no rows has mean 0 whatever its family
    diverged = _library().gpcert_rollout(
        n, fine_dt, _doubles(loop.plant.A), _doubles(loop.plant.b), _doubles(loop.theta), table,
        _FAMILY_CODES[spec.family], spec.signal_variance, *spec.lengthscales, N, _doubles(model.data.inputs),
        _doubles(model.alpha), states)
    if diverged:
        raise _diverged(times, diverged)
    return SimRun(times, states, table[:2, ::2].T)


def measure(states: np.ndarray, nonlinearity, noise_variance: float, seed: int) -> TrainingSet:
    """y = f(x1, x2) + eps on the columns of ``states``, eps ~ N(0, noise_variance) from ``default_rng(seed)``."""
    f_vals = np.asarray(nonlinearity(states[:, 0], states[:, 1]), dtype=float)
    eps = np.random.default_rng(seed).normal(0.0, math.sqrt(noise_variance), size=f_vals.shape)
    return TrainingSet(states, f_vals + eps, noise_variance)


def _diverged(times, k: int) -> DivergenceError:
    return DivergenceError(f"state diverged at t = {times[k]:.6g}", time=float(times[k]))


# ---------------------------------------------------------------------------
# the compiled core: _rollout.c and _csv.c
# ---------------------------------------------------------------------------

_FAMILY_CODES = {SQUARED_EXPONENTIAL: 1, MATERN32: 2, MATERN52: 3}  # as _rollout.c numbers them
_SOURCES = tuple(os.path.join(os.path.dirname(os.path.abspath(__file__)), name) for name in ("_rollout.c", "_csv.c"))
_FLAGS = ("-O2", "-ffp-contract=off", "-fPIC", "-shared")  # no -march, no fast-math: the bits stay IEEE's
_CACHE = os.path.join(os.path.dirname(_SOURCES[0]), "__pycache__")
_DOUBLES = np.ctypeslib.ndpointer(np.float64, flags="C_CONTIGUOUS")
_POW5_COUNTS = (291, 326)  # the sizes of _csv.c's two power-of-5 tables
_CELL_BYTES = 25  # the longest CSV cell, -2.2250738585072014e-308, and its separator
_CSV_CHUNK_BYTES = 1 << 18  # the most bytes of CSV rows formatted at once


def _doubles(a) -> np.ndarray:
    return np.ascontiguousarray(a, dtype=np.float64)


def _compiler() -> list[str]:
    """The C compiler command Python was built with (sysconfig's ``CC``), as an argument list."""
    return shlex.split(sysconfig.get_config_var("CC") or "cc")


@functools.cache
def _library() -> ctypes.CDLL:
    """``_rollout.c`` and ``_csv.c`` as one shared library, compiled on first use and loaded with ctypes.

    The library is cached in the package's ``__pycache__`` under the SHA-256
    of the sources, the compiler command and flags, and the platform, so a
    later process loads it without compiling.  It is compiled under a
    temporary name and renamed into place, so processes that build at once
    each load a whole file.  Where that directory cannot be written, the
    library is built in a private temporary directory for this process.  A
    compiler that is missing or fails raises :class:`CoreBuildError`.
    """
    cc = _compiler()
    digest = hashlib.sha256(" ".join([*cc, *_FLAGS]).encode() + b"\0" + sysconfig.get_platform().encode())
    for source in _SOURCES:
        with open(source, "rb") as fh:
            digest.update(b"\0" + fh.read())
    path = os.path.join(_CACHE, f"_rollout-{digest.hexdigest()[:20]}.so")
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
    words = np.ctypeslib.ndpointer(np.uint64, flags="C_CONTIGUOUS")
    lib.gpcert_csv_tables.restype = ctypes.c_int32
    lib.gpcert_csv_tables.argtypes = [ctypes.c_int32, words, ctypes.c_int32, words]
    lib.gpcert_csv_rows.restype = ctypes.c_int64
    lib.gpcert_csv_rows.argtypes = [
        ctypes.c_int64, ctypes.c_int64, ctypes.c_int32, ctypes.c_char_p, ctypes.POINTER(ctypes.c_void_p),
        np.ctypeslib.ndpointer(np.int64, flags="C_CONTIGUOUS"),
        np.ctypeslib.ndpointer(np.uint8, flags=("C_CONTIGUOUS", "WRITEABLE"))]
    inv, pow5 = _pow5_tables()
    if lib.gpcert_csv_tables(len(inv), inv, len(pow5), pow5):
        raise RuntimeError("_csv.c declares power-of-5 tables of other sizes than _POW5_COUNTS")
    return lib


def _pow5_tables() -> tuple[np.ndarray, np.ndarray]:
    """The power-of-5 tables of ``_csv.c``'s shortest-digit search, exact on Python integers.

    With b the bit length of 5^i, row i of the first table is
    floor(2^(b - 1 + 125) / 5^i) + 1 and row i of the second is 5^i scaled
    by a power of 2 to exactly 125 bits; each row holds the low and then the
    high 64-bit word.
    """
    def rows(values):
        return np.array([(v & (2 ** 64 - 1), v >> 64) for v in values], dtype=np.uint64)

    inv_count, count = _POW5_COUNTS
    inv = rows((1 << (p.bit_length() - 1 + 125)) // p + 1 for p in (5 ** i for i in range(inv_count)))
    pow5 = rows(p << 125 >> p.bit_length() for p in (5 ** i for i in range(count)))
    return inv, pow5


def _compile(cc: list[str], out: str) -> str:
    """Compile ``_rollout.c`` and ``_csv.c`` into the shared library ``out``; returns ``out``."""
    cmd = [*cc, *_FLAGS, "-o", out, *_SOURCES, "-lm"]
    try:
        subprocess.run(cmd, check=True, capture_output=True, text=True)
    except OSError as exc:
        raise CoreBuildError(f"cannot build the rollout core: {cc[0]}: {exc.strerror}") from None
    except subprocess.CalledProcessError as exc:
        first = (exc.stderr.strip().splitlines() or ["no output"])[0]
        raise CoreBuildError(f"cannot build the rollout core: {' '.join(cmd)} exited with code "
                             f"{exc.returncode}: {first}") from None
    return out


def csv_chunks(columns):
    """CSV rows of equally long numeric columns, as byte chunks of at most 256 KiB.

    A float column's cells are ``repr`` of each value as a float64 and an
    integer column's ``str`` of each value as an int64; a column of another
    kind, or one that cannot be held in those exactly, raises ``TypeError``.
    The columns are checked and the compiled core (:func:`_library`) loaded
    before the first chunk is asked for; each chunk is formatted as it is
    asked for, into a view of one buffer that the next overwrites.
    """
    cols = []
    for c in columns:
        a = np.asarray(c)
        if a.ndim != 1 or a.dtype.kind not in "fiu":
            raise TypeError(f"a CSV column must be one-dimensional and numeric, got {a.dtype} of shape {a.shape}")
        cols.append(a.astype(np.float64 if a.dtype.kind == "f" else np.int64, casting="safe", copy=False))
    n = len(cols[0]) if cols else 0
    if any(len(c) != n for c in cols):
        raise ValueError(f"CSV columns of unequal lengths {[len(c) for c in cols]}")
    lib = _library()
    kinds = "".join(c.dtype.kind for c in cols).encode()
    addresses = (ctypes.c_void_p * len(cols))(*(c.ctypes.data for c in cols))
    strides = np.array([c.strides[0] for c in cols], dtype=np.int64)
    step = max(1, _CSV_CHUNK_BYTES // (_CELL_BYTES * len(cols))) if cols else 1
    buf = np.empty(step * _CELL_BYTES * len(cols), dtype=np.uint8)
    return (buf[:lib.gpcert_csv_rows(lo, min(n, lo + step), len(cols), kinds, addresses, strides, buf)]
            for lo in range(0, n, step))


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

