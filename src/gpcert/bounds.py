"""Probabilistic uniform prediction-error bounds and their constants.

The headline quantity is

    eta(x) = sqrt(beta_X(tau)) * sigma(x) + gamma(tau)

which bounds |f(x) - mu(x)| jointly over a compact box with probability at
least 1 - delta when the unknown function is a sample of the prior.  This
module is the only place that assembles it: :func:`bound_constants` turns a
grid constant tau into a :class:`BoundReport` (beta, L_mu, omega_sigma,
gamma), and :func:`uniform_error_bound` turns a report and the posterior
standard deviation at points of its box into eta.  The building blocks:

* ``covering_number_bound`` / ``beta``  -- confidence scaling from a
  hypercube covering of the domain,
* ``mean_lipschitz``                    -- L_mu from the kernel Lipschitz
  constant and the cached weight vector,
* ``stddev_modulus``                    -- modulus of continuity of sigma,
  the pointwise minimum of the sqrt(2 L_k tau) rate and the stationary
  linear rate L_sigma * tau (both are valid moduli),
* ``noise_norm_bound``                  -- chi-squared bound on ||eps||^2,
* ``expected_sup_bound`` / ``sample_sup_bound`` / ``probabilistic_lipschitz``
  -- high-probability Lipschitz constants derived from the prior via the
  expected-supremum (metric entropy) and Borell-TIS routes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import kernels
from .errors import DomainError, UnsupportedOperationError
from .gp import GPModel
from .kernels import KernelSpec

_SQRT5 = math.sqrt(5.0)


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

    def inside(self, x, tol: float = 1e-12) -> np.ndarray:
        """Row mask of a point (d,) or a batch (m, d): which lie in the box."""
        x = np.atleast_2d(np.asarray(x, dtype=float))
        return np.all(np.abs(x - self.center) <= 0.5 * self.edge + tol, axis=1)

    def contains(self, x, tol: float = 1e-12) -> bool:
        return bool(self.inside(x, tol).all())


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


def stddev_modulus(tau: float, L_k: float, stationary_L_sigma: float | None = None) -> float:
    """Modulus of continuity of sigma at lag tau.

    Returns min(sqrt(2 L_k tau), L_sigma tau) when the stationary constant is
    supplied, otherwise the square-root rate alone.
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
    L_k: float
    L_sigma: float | None
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


def bound_constants(model: GPModel, tau: float, delta: float, L_f: float, box: DomainBox,
                    L_k: float, L_sigma: float | None) -> BoundReport:
    """beta, L_mu, omega_sigma and gamma of a model at grid constant tau over a box.

    ``L_k`` and ``L_sigma`` are the caller's kernel constants; ``L_sigma``
    None means the square-root modulus alone.
    """
    b = beta(tau, delta, box)
    L_mu = mean_lipschitz(model, L_k)
    om = stddev_modulus(tau, L_k, L_sigma)
    g = gamma(tau, L_mu, L_f, b, om)
    return BoundReport(tau, delta, b, g, L_mu, L_f, covering_number_bound(tau, box), L_k, L_sigma, om, box)


def uniform_error_bound(report: BoundReport, x, sigma):
    """eta = sqrt(beta) sigma + gamma at x, which must lie inside the report's box.

    ``x`` is a point (d,) or a batch (m, d) and ``sigma`` the posterior
    standard deviation there.  The returned value bounds the prediction error
    jointly over the box with probability at least 1 - delta when the unknown
    function is a prior sample.  Raises :class:`DomainError` naming the first
    point outside the box.
    """
    box = report.box
    inside = box.inside(x)
    if not inside.all():
        bad = np.atleast_2d(np.asarray(x, dtype=float))[int(np.argmin(inside))]
        raise DomainError(f"point {bad} outside the certified box (edge {box.edge}, center {box.center})")
    return math.sqrt(report.beta) * sigma + report.gamma


def noise_norm_bound(N: int, delta: float, noise_variance: float) -> float:
    """High-probability bound on ||eps||^2 for N i.i.d. Gaussian noise terms."""
    if N < 1:
        raise ValueError("N must be at least 1")
    if not 0 < delta < 1:
        raise ValueError("delta must lie in (0, 1)")
    t = math.log(2.0 / delta)
    return (2.0 * math.sqrt(N * t) + 2.0 * t + N) * noise_variance


def _max_sqrt_k(spec: KernelSpec, box: DomainBox) -> float:
    if spec.stationary:
        return spec.sigma_f
    return spec.sigma_f * kernels._box_corner_norm(box, 1.0 / spec.ell)


def _expected_sup(max_sqrt_k: float, L_k: float, r: float, d: int) -> float:
    return 12.0 * math.sqrt(6.0 * d) * max(max_sqrt_k, math.sqrt(r * L_k))


def _sample_sup(delta: float, max_sqrt_k: float, L_k: float, r: float, d: int) -> float:
    return math.sqrt(2.0 * math.log(1.0 / delta)) * max_sqrt_k + _expected_sup(max_sqrt_k, L_k, r, d)


def expected_sup_bound(spec: KernelSpec, box: DomainBox, L_k: float) -> float:
    """Metric-entropy bound 12 sqrt(6 d) max{max sqrt(k), sqrt(r L_k)} on E[sup f]."""
    return _expected_sup(_max_sqrt_k(spec, box), L_k, box.edge, box.dimension)


def sample_sup_bound(spec: KernelSpec, box: DomainBox, delta_L: float, L_k: float) -> float:
    """Borell-TIS bound on sup f holding with probability at least 1 - delta_L."""
    if not 0 < delta_L < 1:
        raise ValueError("delta_L must lie in (0, 1)")
    return _sample_sup(delta_L, _max_sqrt_k(spec, box), L_k, box.edge, box.dimension)


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

    # the grid is evaluated in row blocks of a; its maximum is exact either way
    grad2_max = max(block_max(a_all[rows]) for rows in kernels._row_blocks(n, s.shape[1]))
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


def auto_tau(model: GPModel, delta: float, L_f: float, box: DomainBox, L_k: float,
             L_sigma: float | None) -> float:
    """Largest tau at which gamma <= 0.01 sqrt(beta) sigma_f.

    Implements the default grid-constant rule: make the continuity correction
    negligible relative to the confidence term at prior scale.  The feasible
    set is an interval (0, tau*], searched by :func:`geometric_bisect` over
    [1e-12, r], which stops once the midpoint no longer lies strictly between
    the ends.  ``L_k`` and ``L_sigma`` are the caller's kernel constants
    (``L_sigma`` None: the square-root modulus alone).
    """
    sigma_f = model.kernel.sigma_f

    def feasible(tau: float) -> bool:
        rep = bound_constants(model, tau, delta, L_f, box, L_k, L_sigma)
        return rep.gamma <= 0.01 * math.sqrt(rep.beta) * sigma_f

    tau = geometric_bisect(feasible, 1e-12, box.edge)
    if tau is None:
        raise ValueError("no feasible tau in the search range; check L_f and the box")
    return tau
