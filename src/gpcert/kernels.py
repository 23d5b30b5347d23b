"""Covariance kernels and their continuity constants.

Supported families: squared exponential (with per-dimension lengthscales),
Matern 3/2 and 5/2 (scaled-distance form), and the linear kernel
``k(x, x') = sigma_f^2 * sum_i x_i x'_i / l_i^2``.

Every stationary kernel value of :func:`gram` comes from one in-place
routine, :func:`_rows`; the compiled rollout core (``_rollout.c``) repeats
its operations per kernel value.  Besides plain evaluation this module
supplies the continuity constants the bound machinery consumes: the kernel Lipschitz constant L_k, the
standard-deviation Lipschitz constant L_sigma and the Lipschitz constant of
the kernel derivative L_dk.  Continuity constants for anisotropic
lengthscales use the minimum lengthscale, which is conservative and valid.
The kernel gradient, the metric d_k and the derivative kernels, whose dense
scans the tests hold these closed forms against, live in ``tests/oracles.py``.

Every constant is a closed form.  L_sigma, L_dk and the derivative-kernel
variance of :mod:`bounds` read one table, ``_CURVATURE``: the zero-lag
curvature c = -k''(0) l^2 / sigma_f^2 of each stationary family along one
axis, 1 for SE, 3 for Matern 3/2 and 5/3 for Matern 5/2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import UnsupportedOperationError

SQUARED_EXPONENTIAL = "squared_exponential"
MATERN32 = "matern32"
MATERN52 = "matern52"
LINEAR = "linear"

_STATIONARY = (SQUARED_EXPONENTIAL, MATERN32, MATERN52)
_FAMILIES = _STATIONARY + (LINEAR,)

# zero-lag curvature c = -k''(0) l^2 / sigma_f^2: k = sigma_f^2 (1 - c r^2 / 2 + o(r^2)) in the scaled lag r
_CURVATURE = {SQUARED_EXPONENTIAL: 1.0, MATERN32: 3.0, MATERN52: 5.0 / 3.0}

_SQRT3 = math.sqrt(3.0)
_SQRT5 = math.sqrt(5.0)
# a scaled distance beyond which exp(-sqrt3 r) and exp(-sqrt5 r) are 0; _rows and
# _rollout.c clamp a Matern r to it, so an overflowing distance gives k = 0
_R_MAX = 1e3

# Dense kernel evaluations run in row blocks of about this many elements, so
# memory stays bounded as data and query sets grow.  Block row counts are
# multiples of _BLOCK_ROWS: BLAS kernels treat leftover rows in a different
# summation order, and aligned cuts keep every result bit-identical to the
# unblocked evaluation.
_BLOCK_ELEMENTS = 1 << 17
_BLOCK_ROWS = 256


@dataclass(frozen=True)
class KernelSpec:
    """Immutable description of a kernel: family, signal variance, lengthscales.

    All operations on a spec are pure, so instances can be shared freely
    across threads.
    """

    family: str
    signal_variance: float
    lengthscales: tuple[float, ...]

    def __post_init__(self):
        if self.family not in _FAMILIES:
            raise ValueError(f"unknown kernel family {self.family!r}")
        if not self.signal_variance > 0:
            raise ValueError("signal_variance must be positive")
        ls = tuple(float(l) for l in np.atleast_1d(np.asarray(self.lengthscales, dtype=float)))
        if len(ls) == 0 or any(not l > 0 for l in ls):
            raise ValueError("every lengthscale must be positive")
        object.__setattr__(self, "lengthscales", ls)
        object.__setattr__(self, "signal_variance", float(self.signal_variance))

    @property
    def dim(self) -> int:
        return len(self.lengthscales)

    @property
    def ell(self) -> np.ndarray:
        return np.asarray(self.lengthscales)

    @property
    def ell_min(self) -> float:
        return min(self.lengthscales)

    @property
    def sigma_f(self) -> float:
        return math.sqrt(self.signal_variance)

    @property
    def stationary(self) -> bool:
        return self.family in _STATIONARY


def _check_point(spec: KernelSpec, x) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.ndim == 0:
        x = x.reshape(1)
    if x.shape != (spec.dim,):
        raise ValueError(f"point of dimension {x.shape} does not match kernel dimension {spec.dim}")
    return x


def _row_blocks(n: int, width: int):
    """Row slices covering range(n), each about _BLOCK_ELEMENTS / width rows.

    Every slice but the last has the same multiple of _BLOCK_ROWS rows (at
    least one multiple, however wide the rows).  A tail shorter than
    _BLOCK_ROWS joins the last slice: BLAS treats a short matrix (a product
    with one row, a solve with one right-hand side, a thin gemm) by other
    routines that sum in another order.
    """
    rows = max(_BLOCK_ELEMENTS // max(width, 1) // _BLOCK_ROWS, 1) * _BLOCK_ROWS
    start = 0
    while n - start >= rows + _BLOCK_ROWS:
        yield slice(start, start + rows)
        start += rows
    if start < n:
        yield slice(start, n)


def gram(spec: KernelSpec, X, Y=None) -> np.ndarray:
    """Kernel matrix k(X, Y), shape (n, m).  Y=None means Y=X.

    Filled in row blocks of X (see :func:`_row_blocks`), so the (d, rows, m)
    distance buffer of :func:`_rows` never exceeds one block.
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    Y = X if Y is None else np.atleast_2d(np.asarray(Y, dtype=float))
    if X.shape[1] != spec.dim or Y.shape[1] != spec.dim:
        raise ValueError("input dimension does not match kernel dimension")
    n, m = X.shape[0], Y.shape[0]
    K = np.empty((n, m))
    YT, ell = Y.T[:, None, :], spec.ell[:, None, None]
    for rows in _row_blocks(n, m * spec.dim):
        if spec.stationary:
            D = np.empty((spec.dim, rows.stop - rows.start, m))
            _rows(spec, X[rows].T[:, :, None], YT, ell, D, K[rows])
        else:
            K[rows] = spec.signal_variance * ((X[rows] / spec.ell) @ (Y / spec.ell).T)
    return K


def _rows(spec: KernelSpec, P, YT, ell, D, q) -> None:
    """Write the stationary kernel values k(P, Y) into the buffer ``q``, in place.

    ``YT - P`` (inputs and points, coordinate first) and ``ell`` broadcast to
    the (d, *q.shape) scratch buffer ``D``.  The steps: (Y - P) / ell,
    squared, on D; the even-indexed squares summed, then the odd-indexed
    ones, then the two sums, into q, which is ``einsum``'s own pairing for
    ``"ijk,ijk->ij"``, bit for bit up to d = 7 (numpy 2.4); last the family's
    closed form, in the operation order of ``sf2 * exp(-0.5 r^2)``,
    ``sf2 * (1 + sqrt3 r) * exp(-sqrt3 r)`` and
    ``sf2 * (1 + sqrt5 r + 5/3 r r) * exp(-sqrt5 r)``.  The multiply by sf2
    is skipped when sf2 is 1.0, the identity on every double.  A family with
    no closed form here (the linear one) leaves q at the squared distance.

    A distance that overflows (a tiny lengthscale) is inf and gives k = 0,
    without a warning: the Matern forms take r at most ``_R_MAX``, where
    their exponential is already 0, so the value is 0 and not inf * 0.
    """
    Dk = tuple(D)
    with np.errstate(over="ignore"):
        np.subtract(YT, P, D)
        np.divide(D, ell, D)
        np.multiply(D, D, D)
        for k in range(2, len(Dk)):
            np.add(Dk[k % 2], Dk[k], Dk[k % 2])
        if len(Dk) > 1:
            np.add(Dk[0], Dk[1], q)
        else:
            np.copyto(q, Dk[0])
    family, sf2 = spec.family, spec.signal_variance
    if family == SQUARED_EXPONENTIAL:
        np.multiply(q, -0.5, q)
        np.exp(q, q)
        if sf2 != 1.0:
            np.multiply(q, sf2, q)
        return
    if family == MATERN32:
        e = Dk[0]
        np.sqrt(q, q)
        np.minimum(q, _R_MAX, out=q)
        np.multiply(q, -_SQRT3, e)
        np.exp(e, e)
        np.multiply(q, _SQRT3, q)
        np.add(q, 1.0, q)
    elif family == MATERN52:
        e, t = Dk[0], Dk[1] if len(Dk) > 1 else np.empty_like(q)
        np.sqrt(q, q)
        np.minimum(q, _R_MAX, out=q)
        np.multiply(q, -_SQRT5, e)
        np.exp(e, e)
        np.multiply(q, 5.0 / 3.0, t)
        np.multiply(t, q, t)
        np.multiply(q, _SQRT5, q)
        np.add(q, 1.0, q)
        np.add(q, t, q)
    else:
        return
    if sf2 != 1.0:
        np.multiply(q, sf2, q)
    np.multiply(q, e, q)


def kernel_eval(spec: KernelSpec, x, y) -> float:
    """Evaluate k(x, y) for a single pair of points."""
    x = _check_point(spec, x)
    y = _check_point(spec, y)
    return float(gram(spec, x[None, :], y[None, :])[0, 0])


def kernel_diag(spec: KernelSpec, X) -> np.ndarray:
    """k(x, x) for each row of X (constant for stationary families)."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    if spec.stationary:
        return np.full(X.shape[0], spec.signal_variance)
    z = X / spec.ell
    return spec.signal_variance * np.einsum("ij,ij->i", z, z)


def _box_corner_norm(box, weights: np.ndarray) -> float:
    """max over the box of ||diag(weights) x||, attained at a corner."""
    c = np.asarray(box.center, dtype=float)
    extreme = np.abs(c) + 0.5 * box.edge
    return float(np.linalg.norm(weights * extreme))


def kernel_lipschitz(spec: KernelSpec, box) -> float:
    """Upper bound L_k on the supremum of ||grad k|| over the domain.

    Stationary families use the global maximum over lags (a valid upper
    bound for any domain).  Along the minimum-lengthscale axis, at scaled lag
    v, ||grad k|| = (sigma_f^2 / l_min) h(v), and any other direction of lag
    gives at most that; L_k is (sigma_f^2 / l_min) max_v h(v):

    * SE: h = v e^{-v^2/2}, largest at v = 1;
    * Matern 3/2: h = 3 v e^{-sqrt3 v}, largest at v = 1/sqrt3;
    * Matern 5/2: h = (5/3) v (1 + sqrt5 v) e^{-sqrt5 v}, whose derivative
      (5/3) (1 + sqrt5 v - 5 v^2) e^{-sqrt5 v} vanishes at v = (5 + sqrt5) / 10.

    The linear kernel maximizes ||x'|| over the box.
    """
    sf2 = spec.signal_variance
    lm = spec.ell_min
    if spec.family == SQUARED_EXPONENTIAL:
        return sf2 * math.exp(-0.5) / lm
    if spec.family == MATERN32:
        return _SQRT3 * sf2 * math.exp(-1.0) / lm
    if spec.family == MATERN52:
        v = (5.0 + _SQRT5) / 10.0
        return sf2 * ((5.0 / 3.0) * v * (1.0 + _SQRT5 * v) * math.exp(-_SQRT5 * v)) / lm
    return sf2 * _box_corner_norm(box, 1.0 / spec.ell ** 2)


def stddev_lipschitz(spec: KernelSpec, box) -> float:
    """Lipschitz constant L_sigma = sqrt(c) sigma_f / l_min of the posterior standard deviation.

    For stationary kernels L_sigma is the supremum over lags of
    ||grad k|| / d_k, and c is the family's zero-lag curvature
    (``_CURVATURE``).  The ratio is largest along the minimum-lengthscale
    axis and tends to sqrt(c) sigma_f / l from below as the lag shrinks: for
    SE, with w = r^2 / 2 at scaled lag r,

        (||grad k|| / d_k)^2 = (sigma_f^2 / l^2) w e^{-w} / (e^w - 1) <= sigma_f^2 / l^2,

    since w e^{-w} <= w <= e^w - 1.  With a = sqrt3 r and a = sqrt5 r the
    Matern 3/2 and 5/2 ratios stay below their limits by a^2 e^{-a} <=
    2 (e^a - 1 - a) and a^2 (1 + a)^2 e^{-a} <= 6 (e^a - 1 - a - a^2/3).  The
    bound holds over every domain, so ``box`` is not read.
    """
    if not spec.stationary:
        raise UnsupportedOperationError(
            "L_sigma needs a stationary kernel; use the sqrt(2 L_k tau) modulus instead"
        )
    return math.sqrt(_CURVATURE[spec.family]) * spec.sigma_f / spec.ell_min


def gradient_lipschitz(spec: KernelSpec) -> float:
    """Lipschitz constant L_dk = c sigma_f^2 / l_min^2 of the kernel derivative.

    L_dk is max |k''| over lags, and c the family's zero-lag curvature
    (``_CURVATURE``).  |k''| is largest at lag 0, where it is c sigma_f^2 / l^2:
    along one axis, at scaled lag v, k'' is -(sigma_f^2 / l^2) times
    (1 - v^2) e^{-v^2/2} for SE, 3 (1 - sqrt3 v) e^{-sqrt3 v} for Matern 3/2
    and (5/3) (1 + sqrt5 v - 5 v^2) e^{-sqrt5 v} for Matern 5/2, each at most
    c in absolute value.

    Not defined for the linear kernel, whose density subsets are sphere
    segments instead (``tests/oracles.py``).
    """
    if not spec.stationary:
        raise UnsupportedOperationError("gradient Lipschitz constant undefined for the linear kernel")
    return _CURVATURE[spec.family] * spec.signal_variance / spec.ell_min ** 2
