"""Probabilistic uniform prediction-error bounds and their constants.

The headline quantity is

    eta(x) = sqrt(beta_X(tau)) * sigma(x) + gamma(tau)

which bounds |f(x) - mu(x)| jointly over a compact box with probability at
least 1 - delta when the unknown function is a sample of the prior.  This
module is the only place that assembles it: :func:`bound_constants` turns a
grid constant tau into a :class:`BoundReport` (beta, L_mu, omega_sigma,
gamma), and :func:`uniform_error_bound` turns a report and the posterior
standard deviation at points of its box into eta.  The building blocks:

* ``kernel_constants``                  -- L_k and L_sigma of the kernel
  over the box, the only source of both,
* ``covering_number_bound`` / ``beta``  -- confidence scaling from a
  hypercube covering of the domain,
* ``mean_lipschitz``                    -- L_mu from the kernel Lipschitz
  constant and the cached weight vector,
* ``stddev_modulus``                    -- modulus of continuity of sigma,
  the pointwise minimum of the sqrt(2 L_k tau) rate and the stationary
  linear rate L_sigma * tau (both are valid moduli),
* ``probabilistic_lipschitz``           -- a high-probability Lipschitz
  constant derived from the prior via the expected-supremum (metric
  entropy) and Borell-TIS bounds on each derivative process.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import kernels
from .errors import DomainError, InfeasibilityError, UnsupportedOperationError
from .gp import GPModel
from .kernels import KernelSpec

_SQRT5 = math.sqrt(5.0)

# the most (rows, width) arrays that a block of the derivative-kernel grid
# holds at once: 6 for SE, 8 for Matern 5/2 (tracemalloc, numpy 2.4)
_GRID_TEMPORARIES = 8


@dataclass(frozen=True)
class DomainBox:
    """Axis-aligned hypercube: dimension d, edge length r, center point."""

    dimension: int
    edge: float
    center: np.ndarray | None = None

    def __post_init__(self):
        if self.dimension < 1:
            raise ValueError("dimension must be at least 1")
        if not self.edge > 0:
            raise ValueError("edge length must be positive")
        c = np.zeros(self.dimension) if self.center is None else np.asarray(self.center, dtype=float)
        if c.shape != (self.dimension,):
            raise ValueError("center does not match the box dimension")
        object.__setattr__(self, "center", c)

    def inside(self, x) -> np.ndarray:
        """Row mask of a point (d,) or a batch (m, d): which lie in the box, up to 1e-12."""
        x = np.atleast_2d(np.asarray(x, dtype=float))
        return np.all(np.abs(x - self.center) <= 0.5 * self.edge + 1e-12, axis=1)

    def contains(self, x) -> bool:
        return bool(self.inside(x).all())

    def require(self, x) -> None:
        """Raise :class:`DomainError` naming the first point of x, a point (d,) or a batch (m, d), outside the box."""
        inside = self.inside(x)
        if not inside.all():
            bad = np.atleast_2d(np.asarray(x, dtype=float))[int(np.argmin(inside))]
            raise DomainError(f"point {bad} outside the certified box (edge {self.edge}, center {self.center})")


def covering_number_bound(tau: float, box: DomainBox) -> float:
    """Upper bound (r sqrt(d) / (2 tau))^d on the tau-covering number, at least 1."""
    if not tau > 0:
        raise ValueError("tau must be positive")
    return max(1.0, (box.edge * math.sqrt(box.dimension) / (2.0 * tau)) ** box.dimension)


def beta(tau: float, delta: float, box: DomainBox) -> float:
    """Confidence factor beta_X(tau) = 2 log(M(tau, X) / delta)."""
    if not 0 < delta < 1:
        raise ValueError("delta must lie in (0, 1)")
    return 2.0 * math.log(covering_number_bound(tau, box) / delta)


def mean_lipschitz(model: GPModel, L_k: float) -> float:
    """L_mu = L_k sqrt(N) ||(K + s_on^2 I)^{-1} y|| from the cached weights."""
    n = len(model)
    if n == 0:
        return 0.0
    return L_k * math.sqrt(n) * float(np.linalg.norm(model.alpha))


def stddev_modulus(tau: float, L_k: float, stationary_L_sigma: float | None) -> float:
    """Modulus of continuity of sigma at lag tau.

    Returns min(sqrt(2 L_k tau), L_sigma tau) with the stationary constant
    L_sigma, or the square-root rate alone when it is None.
    """
    if tau < 0:
        raise ValueError("tau must be nonnegative")
    if tau == 0.0:
        return 0.0
    w = math.sqrt(2.0 * L_k * tau)
    if stationary_L_sigma is not None:
        w = min(w, stationary_L_sigma * tau)
    return w


def gamma(tau: float, L_mu: float, L_f: float, beta_val: float, omega_sigma: float) -> float:
    """Continuity correction gamma(tau) = (L_mu + L_f) tau + sqrt(beta) omega_sigma."""
    if min(tau, L_mu, L_f, beta_val, omega_sigma) < 0:
        raise ValueError("gamma inputs must be nonnegative")
    return (L_mu + L_f) * tau + math.sqrt(beta_val) * omega_sigma


@dataclass(frozen=True)
class BoundReport:
    """All constants of one uniform-bound evaluation over ``box``, for auditability."""

    tau: float
    delta: float
    beta: float
    gamma: float
    L_mu: float
    L_f: float
    covering_number_bound: float
    omega_sigma: float
    box: DomainBox = field(repr=False, compare=False)

    def to_json_dict(self) -> dict:
        return {
            "tau": self.tau,
            "delta": self.delta,
            "beta": self.beta,
            "gamma": self.gamma,
            "L_mu": self.L_mu,
            "L_f": self.L_f,
            "coverage_number_bound": self.covering_number_bound,
        }


def kernel_constants(spec: KernelSpec, box: DomainBox) -> tuple[float, float | None]:
    """(L_k, L_sigma): the constants the bound takes from the kernel over a box.

    L_sigma is None for the non-stationary linear kernel, whose standard
    deviation has the square-root modulus alone.
    """
    return kernels.kernel_lipschitz(spec, box), (kernels.stddev_lipschitz(spec) if spec.stationary else None)


def bound_constants(model: GPModel, tau: float, delta: float, L_f: float, box: DomainBox) -> BoundReport:
    """beta, L_mu, omega_sigma and gamma of a model at grid constant tau over a box.

    L_k and L_sigma are the kernel's own over the box (:func:`kernel_constants`).
    """
    L_k, L_sigma = kernel_constants(model.kernel, box)
    b = beta(tau, delta, box)
    L_mu = mean_lipschitz(model, L_k)
    om = stddev_modulus(tau, L_k, L_sigma)
    g = gamma(tau, L_mu, L_f, b, om)
    return BoundReport(tau, delta, b, g, L_mu, L_f, covering_number_bound(tau, box), om, box)


def uniform_error_bound(report: BoundReport, x, sigma):
    """eta = sqrt(beta) sigma + gamma at x, which must lie inside the report's box.

    ``x`` is a point (d,) or a batch (m, d) and ``sigma`` the posterior
    standard deviation there.  The returned value bounds the prediction error
    jointly over the box with probability at least 1 - delta when the unknown
    function is a prior sample.  Raises :class:`DomainError` naming the first
    point outside the box.
    """
    report.box.require(x)
    return math.sqrt(report.beta) * sigma + report.gamma


def _expected_sup(max_sqrt_k: float, L_k: float, r: float, d: int) -> float:
    return 12.0 * math.sqrt(6.0 * d) * max(max_sqrt_k, math.sqrt(r * L_k))


def _sample_sup(delta: float, max_sqrt_k: float, L_k: float, r: float, d: int) -> float:
    return math.sqrt(2.0 * math.log(1.0 / delta)) * max_sqrt_k + _expected_sup(max_sqrt_k, L_k, r, d)


def _derivative_kernel_constants(spec: KernelSpec, i: int, dim: int) -> tuple[float, float]:
    """(max sqrt(k^di(x,x)), Lipschitz constant of k^di) for axis i.

    The Lipschitz constant is the supremum of ||grad k^di|| over lags.  By
    symmetry the lag can be reduced to (a, s): the scaled offset along axis i
    and the scaled magnitude of the perpendicular offset, with the
    perpendicular direction conservatively mapped onto the minimum
    lengthscale.  The supremum over that quarter-plane is taken on the
    0.0075-pitch grid of [0, 6]^2, the first 801 points on each axis of
    ``linspace(0, 12, 1601)``.  Outside that window r = |(a, s)| > 6.  Both
    gradient components are their lengthscale factor times e^{-r^2/2} (SE)
    or e^{-sqrt(5) r} (Matern 5/2) times at most a cubic in r, a product
    that falls with r from r = 6 on.  So outside the window each component
    is below 3.6e-6 (SE) or 7.4e-4 (Matern 5/2) times its factor, while
    inside it the axis component reaches 1.38 (SE, at (a, s) = (0.74, 0))
    or 1.79 (Matern 5/2, at (0.32, 0)) times its factor and the
    perpendicular one 0.61 or 0.82 (at a = 0).  The window's maximum is
    therefore the maximum over the [0, 12]^2 grid, bit for bit.
    """
    sf2 = spec.signal_variance
    li = spec.lengthscales[i]
    lm = spec.ell_min
    if spec.family == kernels.LINEAR:
        # constant derivative kernel: the derivative process is a single
        # Gaussian slope, so its Lipschitz constant is zero
        return math.sqrt(sf2) / li, 0.0
    # k^di(x, x) = c sigma_f^2 / l_i^2, with c the family's zero-lag curvature
    curvature = kernels._CURVATURE[spec.family]
    max_sq = math.sqrt(curvature) * math.sqrt(sf2) / li

    n = 801
    axis = np.linspace(0.0, 12.0, 1601)[:n]
    a_all = axis[:, None]
    s = axis[None, :] if dim > 1 else np.zeros((1, 1))
    if spec.family == kernels.SQUARED_EXPONENTIAL:
        def block_max(a):
            E = np.exp(-0.5 * (a * a + s * s))
            dFa = -(sf2 / li ** 3) * a * (3.0 - a * a) * E
            dFs = -(sf2 / li ** 2) * s * (1.0 - a * a) * E
            return float((dFa ** 2 + ((dFs / lm) ** 2 if dim > 1 else 0.0)).max())
    else:  # matern52; its one caller rejects Matern 3/2
        c = curvature * sf2 / li ** 2

        def block_max(a):
            r = np.sqrt(a * a + s * s)
            rsafe = np.maximum(r, 1e-300)
            E = np.exp(-_SQRT5 * r)
            dGa = 5.0 * a * E * (_SQRT5 * a * a / rsafe - 3.0)
            dGs = _SQRT5 * (s / rsafe) * E * (5.0 * a * a - _SQRT5 * r)
            return float(((c * dGa / li) ** 2 + ((c * dGs / lm) ** 2 if dim > 1 else 0.0)).max())

    # the grid is evaluated in row blocks of a whose live temporaries together
    # fit the kernel block budget (20 rows at width 801); its maximum is exact
    # either way.  Not kernels._row_blocks: its 256-row floor serves BLAS
    # products, and every operation here is elementwise.
    rows = max(1, kernels._BLOCK_ELEMENTS // (_GRID_TEMPORARIES * s.shape[1]))
    grad2_max = max(block_max(a_all[lo:lo + rows]) for lo in range(0, n, rows))
    return max_sq, math.sqrt(grad2_max)


def probabilistic_lipschitz(spec: KernelSpec, box: DomainBox, delta_L: float) -> float:
    """High-probability Lipschitz constant of a prior sample function.

    Applies the supremum bound to each partial-derivative process at
    confidence delta_L / (2 d) and returns the Euclidean norm of the per-axis
    bounds.  Requires continuous partials up to fourth order.
    """
    if not 0 < delta_L < 1:
        raise ValueError("delta_L must lie in (0, 1)")
    if spec.family == kernels.MATERN32:
        raise UnsupportedOperationError(
            "probabilistic Lipschitz constants need fourth-order smoothness (SE, Matern 5/2, linear)"
        )
    d = box.dimension
    if spec.dim != d:
        raise ValueError("kernel dimension does not match the box dimension")
    per_axis = []
    for i in range(d):
        max_sq, L_di = _derivative_kernel_constants(spec, i, d)
        per_axis.append(_sample_sup(delta_L / (2.0 * d), max_sq, L_di, box.edge, d))
    return float(np.linalg.norm(per_axis))


def geometric_bisect(feasible, lo: float, hi: float) -> float | None:
    """Largest feasible point of [lo, hi] when the feasible set is (0, t*].

    Returns hi if it is feasible and None if lo is not.  Otherwise bisects at
    mid = sqrt(lo hi) and stops once mid no longer lies strictly between lo
    and hi, where no further probe can move either end (about 60 probes
    over [1e-12, r]), and returns lo.
    """
    if feasible(hi):
        return hi
    if not feasible(lo):
        return None
    while True:
        mid = math.sqrt(lo * hi)  # geometric: tau spans many decades
        if not lo < mid < hi:
            return lo
        if feasible(mid):
            lo = mid
        else:
            hi = mid


def _tau_search(model: GPModel, delta: float, L_f: float, box: DomainBox, condition) -> BoundReport:
    """Report at the largest tau whose report meets ``condition``.

    The feasible set must be an interval (0, tau*].  :func:`geometric_bisect`
    searches [1e-12, r]; its answer is the last probe it accepted, whose
    report is returned as built.  Raises :class:`InfeasibilityError` when
    even 1e-12 fails.
    """
    accepted = None

    def feasible(tau: float) -> bool:
        nonlocal accepted
        rep = bound_constants(model, tau, delta, L_f, box)
        if condition(rep):
            accepted = rep
            return True
        return False

    if geometric_bisect(feasible, 1e-12, box.edge) is None:
        raise InfeasibilityError("no feasible tau in [1e-12, r]; check L_f and the box")
    return accepted


def auto_tau(model: GPModel, delta: float, L_f: float, box: DomainBox) -> BoundReport:
    """Report at the largest tau with gamma <= 0.01 sqrt(beta) sigma_f.

    Implements the default grid-constant rule: make the continuity correction
    negligible relative to the confidence term at prior scale.
    """
    sigma_f = model.kernel.sigma_f
    return _tau_search(model, delta, L_f, box, lambda rep: rep.gamma <= 0.01 * math.sqrt(rep.beta) * sigma_f)
