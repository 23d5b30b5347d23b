"""Closed forms the suite checks the library against; nothing in ``gpcert`` calls them.

* ``kernel_gradient``, ``kernel_metric`` and ``derivative_kernel_eval``: the
  kernel gradient, the kernel metric d_k and the mixed partial derivative
  kernels, whose dense scans bound the closed-form constants of
  :mod:`gpcert.kernels` and :mod:`gpcert.bounds`;
* ``expected_sup_bound`` / ``sample_sup_bound``: the expected-supremum
  (metric entropy) and Borell-TIS bounds that
  ``bounds.probabilistic_lipschitz`` applies per derivative process;
* the paper's density propositions: the Gershgorin variance bounds
  (``variance_bound_general``, ``variance_bound_stationary``), the density
  bound on sigma (``density_variance_bound``), and the geometric inner
  approximations of the kernel neighborhood, a Euclidean ball for SE/Matern
  (``geometric_ball_radius``) and sphere segments for the unit linear kernel
  (``geometric_subset_linear``);
* ``scalar_closed_loop`` and ``scalar_mean``: the closed-loop RK4 rollout
  and its GP mean on Python floats, in the operation order of the compiled
  core ``_rollout.c``;
* ``csv_bytes``: the bytes of a CSV written with Python's ``repr``, which
  the compiled formatter ``_csv.c`` must reproduce.
"""

from __future__ import annotations

import math

import numpy as np

from gpcert import bounds, kernels, tracking
from gpcert.bounds import DomainBox
from gpcert.density import data_density, stddev_bound
from gpcert.errors import DegenerateInputError, DivergenceError, UnsupportedOperationError
from gpcert.gp import GPModel
from gpcert.kernels import (
    LINEAR,
    MATERN32,
    SQUARED_EXPONENTIAL,
    KernelSpec,
    _SQRT3,
    _SQRT5,
    _check_point,
    gram,
    kernel_diag,
    kernel_eval,
)

# radicand clamp for the kernel metric: [-1e-12, 0] is round-off, below is a bug
_METRIC_TOL = 1e-12


# ---------------------------------------------------------------------------
# kernels
# ---------------------------------------------------------------------------

def kernel_gradient(spec: KernelSpec, x, y) -> np.ndarray:
    """Gradient of k with respect to its first argument, evaluated at (x, y)."""
    x = _check_point(spec, x)
    y = _check_point(spec, y)
    sf2 = spec.signal_variance
    ell2 = spec.ell ** 2
    if spec.family == LINEAR:
        return sf2 * y / ell2
    u = x - y
    r = math.sqrt(float(np.sum((u / spec.ell) ** 2)))
    if spec.family == SQUARED_EXPONENTIAL:
        return -sf2 * math.exp(-0.5 * r * r) * u / ell2
    if spec.family == MATERN32:
        return -3.0 * sf2 * math.exp(-_SQRT3 * r) * u / ell2
    # matern52; the 1/r singularity cancels analytically
    return -(5.0 / 3.0) * sf2 * (1.0 + _SQRT5 * r) * math.exp(-_SQRT5 * r) * u / ell2


def kernel_metric(spec: KernelSpec, x, y) -> float:
    """Kernel metric d_k(x, y) = sqrt(k(x,x) + k(y,y) - 2 k(x,y))."""
    rad = kernel_eval(spec, x, x) + kernel_eval(spec, y, y) - 2.0 * kernel_eval(spec, x, y)
    if rad < -_METRIC_TOL:
        raise AssertionError(f"kernel metric radicand {rad:.3e} below tolerance; kernel is not PSD")
    return math.sqrt(max(rad, 0.0))


def derivative_kernel_eval(spec: KernelSpec, i: int, x, y) -> float:
    """Mixed second partial k^di(x, y) = d^2 k / (dx_i dy_i).

    Requires continuous partials up to fourth order, so Matern 3/2 is
    rejected.
    """
    if spec.family == MATERN32:
        raise UnsupportedOperationError("Matern 3/2 lacks the smoothness for derivative kernels")
    x = _check_point(spec, x)
    y = _check_point(spec, y)
    if not 0 <= i < spec.dim:
        raise ValueError(f"axis {i} out of range for dimension {spec.dim}")
    sf2 = spec.signal_variance
    li2 = spec.lengthscales[i] ** 2
    if spec.family == LINEAR:
        return sf2 / li2
    u = x - y
    if spec.family == SQUARED_EXPONENTIAL:
        k = kernel_eval(spec, x, y)
        return (1.0 - u[i] ** 2 / li2) * k / li2
    # matern52
    r = math.sqrt(float(np.sum((u / spec.ell) ** 2)))
    vi2 = u[i] ** 2 / li2
    return (5.0 / 3.0) * sf2 * math.exp(-_SQRT5 * r) * ((1.0 + _SQRT5 * r) - 5.0 * vi2) / li2


# ---------------------------------------------------------------------------
# supremum bounds
# ---------------------------------------------------------------------------

def _max_sqrt_k(spec: KernelSpec, box: DomainBox) -> float:
    if spec.stationary:
        return spec.sigma_f
    return spec.sigma_f * kernels._box_corner_norm(box, 1.0 / spec.ell)


def expected_sup_bound(spec: KernelSpec, box: DomainBox, L_k: float) -> float:
    """Metric-entropy bound 12 sqrt(6 d) max{max sqrt(k), sqrt(r L_k)} on E[sup f]."""
    return bounds._expected_sup(_max_sqrt_k(spec, box), L_k, box.edge, box.dimension)


def sample_sup_bound(spec: KernelSpec, box: DomainBox, delta_L: float, L_k: float) -> float:
    """Borell-TIS bound on sup f holding with probability at least 1 - delta_L."""
    if not 0 < delta_L < 1:
        raise ValueError("delta_L must lie in (0, 1)")
    return bounds._sample_sup(delta_L, _max_sqrt_k(spec, box), L_k, box.edge, box.dimension)


# ---------------------------------------------------------------------------
# density propositions
# ---------------------------------------------------------------------------

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
    if spec.family == LINEAR:
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


# ---------------------------------------------------------------------------
# the closed-loop rollout
# ---------------------------------------------------------------------------

def _exp(x: float) -> float:
    # libm's exp, which math.exp calls, returns inf where math.exp raises
    try:
        return math.exp(x)
    except OverflowError:
        return math.inf


def _sin(x: float) -> float:
    # libm's sin of an infinity is NaN, where math.sin raises
    return math.sin(x) if math.isfinite(x) else math.nan


def scalar_mean(model: GPModel, p0: float, p1: float) -> float:
    if len(model) == 0:
        return 0.0
    family, sf2 = model.kernel.family, model.kernel.signal_variance
    l0, l1 = model.kernel.lengthscales
    acc = 0.0
    for (y0, y1), a in zip(model.data.inputs.tolist(), model.alpha.tolist()):
        d0, d1 = (y0 - p0) / l0, (y1 - p1) / l1
        r2 = d0 * d0 + d1 * d1
        if family == SQUARED_EXPONENTIAL:
            k = _exp(r2 * -0.5) * sf2
        else:
            r = math.sqrt(r2)
            r = kernels._R_MAX if r > kernels._R_MAX else r
            if family == MATERN32:
                k = (r * _SQRT3 + 1.0) * sf2 * _exp(r * -_SQRT3)
            else:
                k = (r * _SQRT5 + 1.0 + r * (5.0 / 3.0) * r) * sf2 * _exp(r * -_SQRT5)
        acc += k * a
    return acc


def scalar_closed_loop(loop, model, table, dt: float) -> np.ndarray:
    """The states of ``simulation.run_closed_loop`` for one model, stepped on Python floats.

    Every operation of ``_rollout.c`` in its order: the benchmark f as
    1 - sin(2 x1) + 1 / (1 + exp(-x2)), the kernel as in ``kernels._rows``,
    the mean, theta^T e and A x as plain left-to-right sums, and the RK4
    stages on the half-step table ``table``, whose rows are x_ref's two
    coordinates and r_ref.  Python floats do not fuse multiply-adds, and
    math.exp and math.sin are libm's.  The first step whose state is not finite raises
    :class:`DivergenceError` with its time, as the rollout does.
    """
    (a00, a01), (a10, a11) = loop.plant.A.tolist()
    b0, b1 = loop.plant.b.tolist()
    th0, th1 = loop.theta.tolist()
    times = (np.arange(table.shape[1]) * (dt / 2.0))[::2]  # the half-step grid's even samples
    h, h6 = dt / 2.0, dt / 6.0

    def field(x0, x1, r0, r1, rff):
        u = (-(th0 * (x0 - r0) + th1 * (x1 - r1)) + rff - scalar_mean(model, x0, x1)
             + (1.0 - _sin(2.0 * x0) + 1.0 / (1.0 + _exp(-x1))))
        return (a00 * x0 + a01 * x1) + b0 * u, (a10 * x0 + a11 * x1) + b1 * u

    x0, x1 = table[:2, 0].tolist()
    states = [(x0, x1)]
    stages = tracking.stage_samples(*table)
    for k, (ra0, rb0, rc0, ra1, rb1, rc1, sa, sb, sc) in enumerate(stages, 1):
        k10, k11 = field(x0, x1, ra0, ra1, sa)
        k20, k21 = field(x0 + h * k10, x1 + h * k11, rb0, rb1, sb)
        k30, k31 = field(x0 + h * k20, x1 + h * k21, rb0, rb1, sb)
        k40, k41 = field(x0 + dt * k30, x1 + dt * k31, rc0, rc1, sc)
        x0 = x0 + h6 * (k10 + 2.0 * k20 + 2.0 * k30 + k40)
        x1 = x1 + h6 * (k11 + 2.0 * k21 + 2.0 * k31 + k41)
        if not (math.isfinite(x0) and math.isfinite(x1)):
            raise DivergenceError(f"state diverged at t = {times[k]:.6g}", time=float(times[k]))
        states.append((x0, x1))
    return np.array(states, dtype=float).reshape(-1, 2)


# ---------------------------------------------------------------------------
# CSV
# ---------------------------------------------------------------------------

def csv_bytes(header, columns) -> bytes:
    """The bytes ``cli._write_csv(path, header, columns)`` must write.

    Each column goes through ``tolist()`` in one call and each cell is its
    ``repr``: a float's shortest round-trip string, an integer's ``str``.
    """
    cells = [list(map(repr, np.asarray(c).tolist())) for c in columns]
    return "".join([",".join(header) + "\n", *(",".join(row) + "\n" for row in zip(*cells))]).encode()
