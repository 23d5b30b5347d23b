"""Closed-loop tracking-error certificates for linear plants with GP compensation.

The error dynamics e' = A_theta e + b (f - mu) with A_theta = A - b theta^T
admit a scalar comparison system

    v' = (lambda_max + L_sigma zeta sqrt(beta)) v + zeta eta(x_ref(t))

whose solution dominates ||e(t)|| with the confidence of the underlying
uniform error bound.  zeta = ||U|| ||U^{-1} b|| comes from the complex
eigendecomposition of A_theta (matrix norms are spectral norms).  The module
also provides the fixed-step grid of every RK4 loop (:func:`step_count`,
:func:`half_step_times`, its first period :func:`period_samples`, and
:func:`stage_samples`, through which the Python loops read it per step), the
stationary maximum bound, the decay ratio kappa, the grid constant
satisfying the density condition beta >= gamma^2 rho k(0) / 2,
:func:`certify`, which chains them into one stationary certificate, and
:func:`certificate_holds`, the verdict on a rollout against a certified bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import bounds as bnd
from .errors import InfeasibilityError, UnsupportedOperationError
from .gp import GPModel


@dataclass(frozen=True)
class LinearPlant:
    """Known linear part (A, b) of the plant; (A, b) must be controllable."""

    A: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        A = np.asarray(self.A, dtype=float)
        b = np.asarray(self.b, dtype=float).reshape(-1)
        if A.ndim != 2 or A.shape[0] != A.shape[1]:
            raise ValueError("A must be square")
        if b.shape[0] != A.shape[0]:
            raise ValueError("b does not match the dimension of A")
        ctrb = np.hstack([np.linalg.matrix_power(A, k) @ b[:, None] for k in range(A.shape[0])])
        if np.linalg.matrix_rank(ctrb, tol=1e-8 * max(1.0, np.abs(ctrb).max())) < A.shape[0]:
            raise ValueError("(A, b) is not controllable")
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "b", b)

    @property
    def dimension(self) -> int:
        return self.A.shape[0]


@dataclass(frozen=True)
class ClosedLoop:
    """Eigendecomposition artifacts of A_theta = A - b theta^T."""

    plant: LinearPlant
    theta: np.ndarray
    A_theta: np.ndarray = field(repr=False)
    eigenvalues: np.ndarray = field(repr=False)
    U: np.ndarray = field(repr=False)
    lambda_max: float
    zeta: float
    stable: bool


def zeta_constant(U: np.ndarray, b: np.ndarray) -> float:
    """Conditioning constant ||U|| ||U^{-1} b|| (spectral / Euclidean norms)."""
    return float(np.linalg.norm(U, 2) * np.linalg.norm(np.linalg.inv(U) @ np.asarray(b, dtype=complex)))


def closed_loop(plant: LinearPlant, theta) -> ClosedLoop:
    """Build the closed loop for gains theta; eigenvalues must be distinct.

    A positive-real-part spectrum is flagged (``stable=False``) rather than
    rejected; bounds computed from an unstable loop are meaningless but the
    decomposition itself is well defined.
    """
    theta = np.asarray(theta, dtype=float).reshape(-1)
    if theta.shape[0] != plant.dimension:
        raise ValueError("gain vector does not match the plant dimension")
    A_theta = plant.A - np.outer(plant.b, theta)
    eigvals, U = np.linalg.eig(A_theta)
    radius = float(np.abs(eigvals).max())
    sep = np.abs(eigvals[:, None] - eigvals[None, :]) + np.eye(len(eigvals)) * (radius + 1.0)
    if sep.min() <= 1e-8 * max(radius, 1.0):
        raise UnsupportedOperationError(
            "repeated eigenvalues: the diagonalization-based bounds do not apply"
        )
    lam = float(eigvals.real.max())
    zeta = zeta_constant(U, plant.b)
    return ClosedLoop(
        plant=plant,
        theta=theta,
        A_theta=A_theta,
        eigenvalues=eigvals,
        U=U,
        lambda_max=lam,
        zeta=zeta,
        stable=lam < 0.0,
    )


def contraction_rate(loop: ClosedLoop, L_sigma: float, beta: float) -> float:
    """Drift coefficient lambda_max + L_sigma zeta sqrt(beta) of the comparison ODE."""
    return loop.lambda_max + L_sigma * loop.zeta * math.sqrt(beta)


def gain_condition(loop: ClosedLoop, L_sigma: float, beta: float) -> bool:
    """True iff the comparison dynamics are contracting (strict inequality)."""
    return contraction_rate(loop, L_sigma, beta) < 0.0


def step_count(horizon: float, dt: float) -> int:
    """Number n = horizon / dt of fixed steps at pitch dt (dt > 0, n >= 0)."""
    if not dt > 0:
        raise ValueError("dt must be positive")
    n = int(round(horizon / dt))
    if n < 0:
        raise ValueError("horizon must be nonnegative")
    return n


def half_step_times(horizon: float, dt: float) -> np.ndarray:
    """Times 0, dt/2, ..., n dt (n = :func:`step_count`): every RK4 stage time."""
    return np.arange(2 * step_count(horizon, dt) + 1) * (dt / 2.0)


def period_samples(period: float, dt: float) -> int:
    """How many :func:`half_step_times` samples span the first period; a shorter grid sliced to it stays whole."""
    return 2 * step_count(period, dt) + 1


def stage_samples(*columns):
    """Samples 2k, 2k + 1 and 2k + 2 of each 1-d float64 :func:`half_step_times` column, per RK4 step k.

    They are the values at t_k, t_k + dt/2 and t_{k+1}, as Python floats in one flat tuple per step.
    """
    views = [memoryview(c) for c in columns]
    return zip(*(s for v in views for s in (v[0:-1:2], v[1::2], v[2::2])))


def tracking_bound_ode(
    loop: ClosedLoop,
    eta_ref,
    L_sigma: float,
    beta: float,
    v0: float,
    horizon: float,
    dt: float,
) -> np.ndarray:
    """Integrate the comparison ODE with fixed-step RK4 at pitch dt.

    ``eta_ref`` is the error bound along the reference at the
    :func:`half_step_times`, the RK4 stage times of v and of the rollout.
    Returns v at times 0, dt, ..., matching the simulator's sample grid so
    the certificate can be compared sample-by-sample.
    """
    n = step_count(horizon, dt)
    eta = np.asarray(eta_ref, dtype=float)
    if eta.shape != (2 * n + 1,):
        raise ValueError(f"eta_ref needs {2 * n + 1} half-step values, got shape {eta.shape}")
    a = contraction_rate(loop, L_sigma, beta)
    h, h6 = 0.5 * dt, dt / 6.0
    out = np.empty(n + 1)
    out[0] = v = float(v0)
    for k, (z1, z2, z4) in enumerate(stage_samples(loop.zeta * eta), 1):  # zeta eta at the stage times
        k1 = a * v + z1
        k2 = a * (v + h * k1) + z2
        k3 = a * (v + h * k2) + z2
        k4 = a * (v + dt * k3) + z4
        v = v + h6 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        out[k] = v
    return out


def max_tracking_bound(loop: ClosedLoop, sup_eta_ref: float, L_sigma: float, beta: float) -> float:
    """Stationary bound -zeta sup eta(x_ref) / (lambda_max + L_sigma zeta sqrt(beta)).

    Requires the gain condition (assumes e(0) = 0).
    """
    a = contraction_rate(loop, L_sigma, beta)
    if a >= 0.0:
        raise InfeasibilityError(
            f"gain condition violated: lambda_max + L_sigma zeta sqrt(beta) = {a:.4g} >= 0"
        )
    return -loop.zeta * sup_eta_ref / a


def kappa(loop: ClosedLoop, L_sigma: float, beta: float) -> float:
    """Decay ratio kappa = -2 zeta sqrt(beta) / (lambda_max + L_sigma zeta sqrt(beta))."""
    a = contraction_rate(loop, L_sigma, beta)
    if a >= 0.0:
        raise InfeasibilityError("kappa undefined: gain condition violated")
    return -2.0 * loop.zeta * math.sqrt(beta) / a


def lambda_for_kappa(kappa_target: float, zeta: float, L_sigma: float, beta: float) -> float:
    """Invert kappa for the eigenvalue: lambda_max = -2 zeta sqrt(beta)/kappa - L_sigma zeta sqrt(beta)."""
    if not kappa_target > 0:
        raise ValueError("kappa must be positive")
    sb = math.sqrt(beta)
    return -2.0 * zeta * sb / kappa_target - L_sigma * zeta * sb


def scalar_gain_vector(theta: float) -> np.ndarray:
    """Benchmark gain family theta_1 = theta_2 = theta, i.e. the vector [theta^2, theta].

    For the double-integrator plant this places the eigenvalue pair
    theta (-1 +- i sqrt(3)) / 2, so -lambda_max = theta / 2.
    """
    if not theta > 0:
        raise ValueError("theta must be positive")
    return np.array([theta * theta, theta])


def solve_scalar_gain(plant: LinearPlant, lambda_requirement) -> ClosedLoop:
    """Fixed-point solve for the scalarized gain against a zeta-dependent target.

    ``lambda_requirement`` maps zeta to the required -lambda_max.  zeta varies
    slowly with the eigenvalue magnitude, so the iteration converges in a few
    rounds; failure to converge within 50 raises.
    """
    zeta = float(np.linalg.norm(plant.b))
    loop = None
    for _ in range(50):
        q = lambda_requirement(zeta)
        if not q > 0:
            raise ValueError("required eigenvalue magnitude must be positive")
        loop = closed_loop(plant, scalar_gain_vector(2.0 * q))
        if abs(loop.zeta - zeta) <= 1e-12 * max(1.0, zeta):
            return loop
        zeta = loop.zeta
    raise InfeasibilityError("gain/zeta fixed point did not converge in 50 rounds")


def gains_for_kappa(plant: LinearPlant, kappa_target: float, L_sigma: float, beta: float) -> ClosedLoop:
    """Scalarized gains achieving a prescribed kappa (fixed point over zeta)."""
    return solve_scalar_gain(
        plant, lambda zeta: -lambda_for_kappa(kappa_target, zeta, L_sigma, beta)
    )


def tau_for_density(model: GPModel, rho_lower: float, box: bnd.DomainBox, delta: float,
                    L_f: float) -> bnd.BoundReport:
    """Report at the largest tau with beta >= gamma^2 rho k(0) / 2 (both at tau).

    beta grows and gamma shrinks as tau decreases, so the feasible set is an
    interval (0, tau*], searched as for :func:`bounds.auto_tau`.
    """
    if rho_lower < 0:
        raise ValueError("rho lower bound must be nonnegative")
    spec = model.kernel
    if not spec.stationary:
        raise UnsupportedOperationError("density-matched tau needs a stationary kernel")
    k0 = spec.signal_variance
    return bnd._tau_search(model, delta, L_f, box,
                           lambda rep: rep.beta >= rep.gamma * rep.gamma * rho_lower * k0 / 2.0)


SAFETY_FACTOR = 1.05  # inflates sup eta over sampled points; the episodic gain margin


@dataclass(frozen=True)
class Certificate:
    """Stationary tracking certificate of one model at one density level."""

    tau: float
    beta: float
    gamma: float
    L_mu: float
    loop: ClosedLoop
    sup_eta: float
    upsilon_bar: float
    kappa: float
    sampling_term: float  # sqrt(beta) omega_sigma(max_arc / 2): eta's proven rise between samples

    def to_json_dict(self) -> dict:
        return {
            "upsilon_bar": self.upsilon_bar,
            "tau": self.tau,
            "beta": self.beta,
            "gamma": self.gamma,
            "L_mu": self.L_mu,
            "kappa": self.kappa,
            "lambda_max": self.loop.lambda_max,
            "zeta": self.loop.zeta,
        }


def certify(model: GPModel, rho: float, points, sigma, max_arc: float, gains: Callable[[float], ClosedLoop],
            box: bnd.DomainBox, delta: float, L_f: float) -> Certificate:
    """The chain tau -> beta -> gains -> gamma -> sup eta -> upsilon_bar.

    tau is the density-matched grid constant for density level ``rho``;
    ``gains`` maps beta to the closed loop; sup eta is taken over the
    reference states ``points``, consecutive samples of one curve, at which
    ``sigma`` is the model's posterior standard deviation, and inflated by
    :data:`SAFETY_FACTOR`.  ``max_arc`` bounds the arc length of the curve
    between consecutive samples, so every point of the curve lies within
    arc length, and hence distance, max_arc / 2 of a sample, and eta
    = sqrt(beta) sigma + gamma there exceeds the larger of the two sampled
    values by at most sqrt(beta) omega_sigma(max_arc / 2).  The certificate
    stands only while the inflation covers that term.  Raises
    :class:`InfeasibilityError` if it does not or if the gain condition
    fails, and :class:`DomainError` if a point lies outside the box.
    """
    rep = tau_for_density(model, rho, box, delta, L_f)
    L_k, L_sigma = bnd.kernel_constants(model.kernel, box)
    loop = gains(rep.beta)
    eta = bnd.uniform_error_bound(rep, points, sigma)
    max_eta = float(np.max(eta))
    term = math.sqrt(rep.beta) * bnd.stddev_modulus(max_arc / 2.0, L_k, L_sigma)
    sup_eta = SAFETY_FACTOR * max_eta
    if sup_eta < max_eta + term:
        raise InfeasibilityError(
            f"sampling term {term:.4g} exceeds the {SAFETY_FACTOR:g} inflation of max eta "
            f"{max_eta:.4g}: the reference points are too coarse"
        )
    vbar = max_tracking_bound(loop, sup_eta, L_sigma, rep.beta)
    return Certificate(rep.tau, rep.beta, rep.gamma, rep.L_mu, loop, sup_eta, vbar,
                       kappa(loop, L_sigma, rep.beta), term)


def certificate_holds(errors, bound, states, box: bnd.DomainBox) -> bool:
    """The verdict on one rollout: every error norm is at most its bound and
    every state lies in the box that the bound holds in.  ``bound`` is a
    scalar or one value per error; no slack is allowed.
    """
    return bool(np.all(errors <= bound)) and box.contains(states)
