"""Kernel-based training-data density and the variance bounds it drives.

The density at a query point x is the largest rho' such that the kernel
neighborhood

    K_rho'(x) = { x' in D : k^2(x,x) <= k^2(x',x') <= 1/rho' + k^2(x',x) }

still holds at least rho' * s_on^2 * k(x,x) training points.  Membership of a
point is monotone in rho' (it exits at a fixed threshold), so the optimum is
found exactly by sweeping the sorted exit thresholds instead of a grid
search; the grid search survives in the tests as the independent oracle.

The standard-deviation consequence (sigma <= sqrt(2 / (rho k))) and the
Gershgorin variance bounds it sharpens are provided alongside, as are the
geometric inner approximations for specific kernels: a Euclidean ball for
SE/Matern and a sphere-segment set for the (unit) linear kernel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import kernels
from .errors import DegenerateInputError, UnsupportedOperationError
from .gp import GPModel
from .kernels import KernelSpec, gram, kernel_diag


@dataclass(frozen=True)
class DensityResult:
    rho: float
    subset_indices: tuple[int, ...]


def _exit_thresholds(model: GPModel, X: np.ndarray, kxx: np.ndarray) -> np.ndarray:
    """Exit threshold of every data point (columns) for each query of X (rows).

    ``kxx`` is k(x,x) for the queries.  The exit threshold of a point is the
    rho' above which its second inequality fails: 1 / (k^2(x',x') -
    k^2(x',x)), infinite when the difference is nonpositive.  A point that
    fails the first inequality is in no neighborhood of x and gets -inf.
    """
    diag = kernel_diag(model.kernel, model.data.inputs)
    denom = diag ** 2 - gram(model.kernel, X, model.data.inputs) ** 2
    thresholds = np.where(denom > 0, 1.0 / np.where(denom > 0, denom, 1.0), np.inf)
    return np.where(kxx[:, None] ** 2 <= diag ** 2, thresholds, -np.inf)


def kernel_subset(model: GPModel, x, rho_prime: float) -> list[int]:
    """Indices of training points inside K_rho'(x)."""
    if not rho_prime > 0:
        raise ValueError("rho' must be positive")
    X = np.asarray(x, dtype=float)[None, :]
    thresholds = _exit_thresholds(model, X, kernel_diag(model.kernel, X))[0]
    return [int(i) for i in np.nonzero(thresholds >= rho_prime)[0]]


def data_density(model: GPModel, x) -> DensityResult:
    """rho(x) from :func:`data_density_batch` and its neighborhood K_rho(x)."""
    x = np.asarray(x, dtype=float)
    rho = float(data_density_batch(model, x[None, :])[0])
    return DensityResult(rho, tuple(kernel_subset(model, x, rho)) if rho > 0 else ())


def data_density_batch(model: GPModel, X) -> np.ndarray:
    """Maximal rho' whose neighborhood still holds rho' s_on^2 k(x,x) points, per row of X.

    With thresholds sorted descending (T_1 >= T_2 >= ...), any feasible rho'
    satisfies rho' <= min(T_q, q / c) for q = |K_rho'(x)| and
    c = s_on^2 k(x,x); conversely each such value is feasible.  The optimum
    is therefore max_q min(T_q, q / c), computed in O(N log N) per query;
    the -inf thresholds of excluded points neither count nor win.  Runs over
    the queries in the row blocks of :func:`kernels._row_blocks`.
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    kxx = kernel_diag(model.kernel, X)
    if np.any(kxx <= 0.0):
        raise DegenerateInputError("data density undefined where k(x,x) = 0")
    if len(model) == 0:
        return np.zeros(X.shape[0])
    counts = np.arange(1, len(model) + 1)[None, :]
    c = model.data.noise_variance * kxx
    rho = np.empty(X.shape[0])
    for rows in kernels._row_blocks(X.shape[0], len(model) * model.kernel.dim):
        thr = _exit_thresholds(model, X[rows], kxx[rows])
        thr.sort(axis=1)
        thr = thr[:, ::-1]
        values = np.minimum(thr, counts / c[rows, None])
        rho[rows] = values.max(axis=1)
    return np.maximum(rho, 0.0)


def _subset_arrays(model: GPModel, x, subset) -> tuple[np.ndarray, np.ndarray, float]:
    x = np.asarray(x, dtype=float)
    kxx = float(kernel_diag(model.kernel, x[None, :])[0])
    idx = np.arange(len(model)) if subset is None else np.asarray(list(subset), dtype=int)
    if idx.size == 0:
        return np.zeros(0), np.zeros(0), kxx
    Xs = model.data.inputs[idx]
    diag = kernel_diag(model.kernel, Xs)
    kxp = gram(model.kernel, Xs, x[None, :])[:, 0]
    return diag, kxp, kxx


def variance_bound_general(model: GPModel, x, subset=None) -> float:
    """Gershgorin bound (s_on^2 k + N Delta_k) / (N max k(x',x') + s_on^2).

    Valid on any index subset by variance monotonicity; an empty subset
    returns the prior variance k(x,x).
    """
    diag, kxp, kxx = _subset_arrays(model, x, subset)
    n = diag.size
    if n == 0:
        return kxx
    max_diag = float(diag.max())
    delta_k = kxx * max_diag - float((kxp ** 2).min())
    return (model.data.noise_variance * kxx + n * delta_k) / (n * max_diag + model.data.noise_variance)


def variance_bound_stationary(model: GPModel, x) -> float:
    """Stationary specialization k(0) - min k^2(x - x') / (k(0) + s_on^2 / N)."""
    if not model.kernel.stationary:
        raise UnsupportedOperationError("stationary variance bound needs a stationary kernel")
    diag, kxp, kxx = _subset_arrays(model, x, None)
    n = diag.size
    if n == 0:
        return kxx
    k0 = model.kernel.signal_variance
    return k0 - float((kxp ** 2).min()) / (k0 + model.data.noise_variance / n)


def stddev_bound(rho, kxx):
    """The density bound sqrt(2 / (rho k(x,x))) on sigma(x), elementwise; +inf where rho = 0."""
    rho = np.asarray(rho, dtype=float)
    return np.where(rho > 0, np.sqrt(2.0 / (np.where(rho > 0, rho, 1.0) * kxx)), np.inf)


def density_variance_bound(model: GPModel, x) -> float:
    """Density bound sigma(x) <= sqrt(2 / (rho(x) k(x,x))); +inf when rho = 0.

    Also asserts the exact posterior standard deviation respects the bound;
    a violation signals a broken implementation, never valid data.
    """
    x = np.asarray(x, dtype=float)
    kxx = float(kernel_diag(model.kernel, x[None, :])[0])
    if kxx <= 0.0:
        raise DegenerateInputError("density variance bound undefined where k(x,x) = 0")
    bound = float(stddev_bound(data_density(model, x).rho, kxx))
    sd = float(model.predict_stddev(x))
    if sd > bound + 1e-9:
        raise AssertionError(
            f"posterior stddev {sd} exceeds its density bound {bound}; implementation inconsistent"
        )
    return bound


def geometric_ball_radius(spec: KernelSpec, rho_prime: float) -> float:
    """Radius sqrt(1 / (2 L_dk sigma_f^2 rho')) of the ball inside K_rho'(x).

    Every training point within this Euclidean distance of x belongs to the
    kernel neighborhood, for SE and Matern (nu >= 3/2) kernels.
    """
    if not rho_prime > 0:
        raise ValueError("rho' must be positive")
    if spec.family == kernels.LINEAR:
        raise UnsupportedOperationError("ball approximation undefined for the linear kernel")
    L_dk = kernels.gradient_lipschitz(spec)
    return math.sqrt(1.0 / (2.0 * L_dk * spec.signal_variance * rho_prime))


def geometric_subset_linear(x, data, rho_prime: float, c: float) -> list[int]:
    """Sphere-segment subset of K_rho'(x) under the unit linear kernel.

    Keeps points x' with ||x'||^2 (||x'||^2 - c ||x||^2) <= 1/rho',
    ||x|| <= ||x'||, and (x^T x')^2 >= c ||x||^2 ||x'||^2, for a c in (0, 1).
    The alignment threshold bounds the squared cosine: that is exactly what
    the inclusion into the kernel neighborhood needs, since then
    ||x'||^4 - (x^T x')^2 <= ||x'||^2 (||x'||^2 - c ||x||^2) <= 1/rho'.
    """
    if not 0 < c < 1:
        raise ValueError("c must lie in (0, 1)")
    if not rho_prime > 0:
        raise ValueError("rho' must be positive")
    x = np.asarray(x, dtype=float)
    pts = np.atleast_2d(np.asarray(data, dtype=float))
    nx = float(np.linalg.norm(x))
    npr = np.linalg.norm(pts, axis=1)
    inner2 = (pts @ x) ** 2
    cond = (
        (npr ** 2 * (npr ** 2 - c * nx ** 2) <= 1.0 / rho_prime)
        & (nx <= npr)
        & (inner2 >= c * nx ** 2 * npr ** 2)
    )
    return [int(i) for i in np.nonzero(cond)[0]]
