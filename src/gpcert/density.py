"""Kernel-based training-data density and the variance bounds it drives.

The density at a query point x is the largest rho' such that the kernel
neighborhood

    K_rho'(x) = { x' in D : k^2(x,x) <= k^2(x',x') <= 1/rho' + k^2(x',x) }

still holds at least rho' * s_on^2 * k(x,x) training points.  Membership of a
point is monotone in rho' (it exits at a fixed threshold), so the optimum is
found exactly by sweeping the sorted exit thresholds instead of a grid
search; the grid search survives in the tests as the independent oracle.

The standard-deviation consequence sigma <= sqrt(2 / (rho k)) is provided
alongside.  The paper's other density propositions, the Gershgorin variance
bounds it sharpens and the geometric inner approximations of the
neighborhood (a Euclidean ball for SE/Matern, sphere segments for the unit
linear kernel), are the formulas that ``tests/oracles.py`` checks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import kernels
from .errors import DegenerateInputError
from .gp import GPModel
from .kernels import gram, kernel_diag


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
    counts = np.arange(1, len(model) + 1)[None, :]
    c = model.data.noise_variance * kxx
    rho = np.empty(X.shape[0])
    for rows in kernels._row_blocks(X.shape[0], len(model) * model.kernel.dim):
        thr = _exit_thresholds(model, X[rows], kxx[rows])
        thr.sort(axis=1)
        thr = thr[:, ::-1]
        values = np.minimum(thr, counts / c[rows, None])
        rho[rows] = values.max(axis=1, initial=-np.inf)
    return np.maximum(rho, 0.0)


def stddev_bound(rho, kxx):
    """The density bound sqrt(2 / (rho k(x,x))) on sigma(x), elementwise; +inf where rho = 0."""
    rho = np.asarray(rho, dtype=float)
    return np.where(rho > 0, np.sqrt(2.0 / (np.where(rho > 0, rho, 1.0) * kxx)), np.inf)
