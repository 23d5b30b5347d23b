"""Episodic data generation driving the tracking certificate below a target.

Each episode rolls the closed loop out for T_p seconds with the current
model and gains, records measurements at the fine pitch, picks the largest
sampling time whose downsampled refit satisfies the variance condition

    max_t sigma_Ts^2(x_ref(t)) <= 16 L_dk vbar_{i-1}^2,

refits on the cumulative downsampled data, re-selects gains against

    -lambda_max >= (8 sqrt(L_dk) + xi L_sigma) / xi * zeta sqrt(beta)

(with a 5% margin), and recomputes the certified bound vbar_i.  Under these
conditions the certified bound contracts by at least xi per episode and the
loop terminates within the episode-count bound.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from . import bounds as bnd
from . import kernels as kern
from . import tracking as trk
from .density import data_density_batch
from .errors import ConditionUnreachableError, EpisodeCapExceededError, InfeasibilityError
from .gp import GPModel, TrainingSet, add_samples, downsample, fit
from .kernels import KernelSpec
from .simulation import ReferenceSpec, benchmark_plant, half_step_reference, measure, run_closed_loop
from .tracking import ClosedLoop, LinearPlant

_N_E_CAP = 10 ** 9


@dataclass(frozen=True)
class EpisodeConfig:
    """Everything one episodic run needs; immutable.  The plant and its unknown
    nonlinearity f are the benchmark's (:func:`simulation.benchmark_plant`).
    """

    target_error: float
    xi: float
    horizon: float
    fine_dt: float
    delta: float
    kernel: KernelSpec
    reference: ReferenceSpec
    domain: bnd.DomainBox
    noise_variance: float
    L_f: float
    seed: int
    max_episodes: int

    def __post_init__(self):
        if not 0 < self.xi < 1:
            raise ValueError("xi must lie in (0, 1)")
        if not self.target_error > 0:
            raise ValueError("target error must be positive")
        if not 0 < self.fine_dt <= self.horizon:
            raise ValueError("fine_dt must be positive and at most the horizon")


@dataclass(frozen=True)
class EpisodeReport:
    """Per-episode record; episode 0 is the data-free initialization."""

    episode: int
    sampling_time: float | None
    data_size: int
    certificate: trk.Certificate
    observed_max_error: float | None
    rho_min: float
    min_sampling_time: float | None
    max_speed: float | None
    violated: bool  # the rollout broke the previous episode's certificate

    def to_json_dict(self) -> dict:
        # violated reaches the summary as a count of certificate violations instead
        return {
            **self.certificate.to_json_dict(),
            "episode": self.episode,
            "T_s": self.sampling_time,
            "theta": self.certificate.loop.theta.tolist(),
            "N": self.data_size,
            "observed_max_error": self.observed_max_error,
            "rho_min": self.rho_min,
            "T_s_lower_bound": self.min_sampling_time,
            "max_speed": self.max_speed,
        }


def select_gains(
    plant: LinearPlant,
    L_sigma: float,
    beta: float,
    L_dk: float,
    xi: float,
    margin: float = trk.SAFETY_FACTOR,
) -> ClosedLoop:
    """Scalarized gains meeting the episodic eigenvalue requirement with margin.

    The requirement couples to zeta through the eigenvectors; the fixed point
    is resolved inside :func:`tracking.solve_scalar_gain`.  A margin below 1
    misses the requirement and raises :class:`InfeasibilityError`.
    """
    coeff = (8.0 * math.sqrt(L_dk) + xi * L_sigma) / xi

    def requirement(zeta: float) -> float:
        return margin * coeff * zeta * math.sqrt(beta)

    loop = trk.solve_scalar_gain(plant, requirement)
    if -loop.lambda_max < coeff * loop.zeta * math.sqrt(beta):
        raise InfeasibilityError(f"gains miss the episodic eigenvalue requirement (margin {margin})")
    return loop


def select_sampling_time(
    raw: TrainingSet,
    model: GPModel,
    ref_points: np.ndarray,
    upsilon_prev: float,
    L_dk: float,
    fine_dt: float,
    ladder_top: float,
):
    """Largest T_s on the ladder {fine_dt 2^j} meeting the variance condition.

    Each rung refits ``model`` with the raw recording downsampled to it.
    Rungs are evaluated coarsest-first; the variance condition is monotone
    along the ladder (coarser data can only increase the posterior variance),
    so the first success is the answer.  Failure at the finest rung means the
    recording itself is too sparse or noisy.  Returns (T_s, refit, variance),
    the variance being the refit's at ``ref_points``.  A rung is rejected at
    the first row block of the variance whose maximum breaks the condition,
    so only an accepted rung evaluates it at every point.
    """
    threshold = 16.0 * L_dk * upsilon_prev ** 2
    rungs = []
    ts = fine_dt
    while ts <= ladder_top * (1.0 + 1e-9):
        rungs.append(ts)
        ts *= 2.0
    for candidate in reversed(rungs):
        refit = add_samples(model, downsample(raw, fine_dt, candidate))
        var = np.empty(len(ref_points))
        for rows, block in refit.var_blocks(ref_points):
            if not float(np.max(block)) <= threshold:  # a NaN rejects, as it did in the full maximum
                break
            var[rows] = block
        else:
            return candidate, refit, var
    raise ConditionUnreachableError(
        f"variance condition sigma^2 <= {threshold:.3g} unreachable even at T_s = {fine_dt}"
    )


def min_sampling_time(L_dk: float, e_bar: float, noise_variance: float, max_speed: float) -> float:
    """Lower bound 16 L_dk e_bar^3 / (s_on^2 max||x'||) on the required T_s."""
    if min(L_dk, e_bar, noise_variance, max_speed) <= 0:
        raise ValueError("all inputs must be positive")
    return 16.0 * L_dk * e_bar ** 3 / (noise_variance * max_speed)


def episode_count_bound(e_bar: float, L_dk: float, k0: float, xi: float) -> int:
    """Termination bound ceil((log(4 e_bar sqrt(L_dk)) - log sqrt(k0)) / log xi)."""
    if not 0 < xi < 1:
        raise ValueError("xi must lie in (0, 1)")
    if not e_bar > 0:
        raise ValueError("target error must be positive")
    ratio = 4.0 * e_bar * math.sqrt(L_dk) / math.sqrt(k0)
    if ratio >= 1.0:
        return 0
    n = math.ceil(math.log(ratio) / math.log(xi))
    if n > _N_E_CAP:
        warnings.warn(f"episode-count bound exceeds {_N_E_CAP}; capping", RuntimeWarning)
        return _N_E_CAP
    return int(n)


def _required_density(L_dk: float, k0: float, upsilon: float) -> float:
    # density level at which the variance condition follows from the
    # standard-deviation bound sigma <= sqrt(2 / (rho k0))
    return 1.0 / (8.0 * L_dk * k0 * upsilon ** 2)


def learn_control(config: EpisodeConfig) -> list[EpisodeReport]:
    """Run the episodic loop until the certified bound drops below the target.

    The gain rule takes the kernel's own L_sigma over the config's box.
    The reference is sampled once, before episode 0, into the half-step
    table of :func:`simulation.half_step_reference`, which every rollout
    reads; the certificates, the ladder and the data density read slices of it.
    Returns one report per episode, including the data-free initialization as
    episode 0.  Raises :class:`EpisodeCapExceededError` if the safety cap is
    reached first.
    """
    spec = config.kernel
    box = config.domain
    k0 = spec.signal_variance
    L_dk = kern.gradient_lipschitz(spec)
    L_sigma = bnd.kernel_constants(spec, box)[1]

    table = half_step_reference(config.reference, box, config.horizon, config.fine_dt)
    # x_ref at pitch fine_dt over the first period, or over a shorter horizon: what the next rollout visits
    ref_points = table[:2, :trk.period_samples(config.reference.period, config.fine_dt):2].T
    # density is measured on a strided grid; over-reporting the measured
    # minimum only tightens the grid-constant condition, which stays valid
    density_points = ref_points[:: max(1, len(ref_points) // 2048)]

    model = fit(spec, TrainingSet.empty(spec.dim, config.noise_variance))
    # seed level producing gamma <= sqrt(beta) sigma_f, the data-free analogue
    # of the variance condition
    upsilon_prev = math.sqrt(k0) / (4.0 * math.sqrt(L_dk))
    # episode 0 is the data-free initialization: nothing sampled or observed,
    # and its certificate takes the prior variance along the reference
    T_s = observed = T_s_lower = max_speed = None
    variance = model.predict_var(ref_points)
    violated = False
    rho_measured = 0.0
    ladder_top = config.horizon
    reports = []
    i = 0
    while True:
        rho_eff = max(rho_measured, _required_density(L_dk, k0, upsilon_prev))
        cert = trk.certify(model, rho_eff, ref_points, np.sqrt(variance),
                           config.reference.max_speed * config.fine_dt,
                           lambda b: select_gains(benchmark_plant(), L_sigma, b, L_dk, config.xi),
                           box, config.delta, config.L_f)
        reports.append(
            EpisodeReport(
                episode=i,
                sampling_time=T_s,
                data_size=len(model),
                certificate=cert,
                observed_max_error=observed,
                rho_min=rho_measured,
                min_sampling_time=T_s_lower,
                max_speed=max_speed,
                violated=violated,
            )
        )
        if not cert.upsilon_bar > config.target_error:
            return reports
        i += 1
        if i > config.max_episodes:
            raise EpisodeCapExceededError(
                f"certified bound {cert.upsilon_bar:.4g} still above target "
                f"{config.target_error} after {config.max_episodes} episodes"
            )
        upsilon_prev = cert.upsilon_bar
        sim = run_closed_loop(cert.loop, model, table, config.fine_dt)
        errors = sim.error_norms
        observed = float(errors.max())
        violated = not trk.certificate_holds(errors, upsilon_prev, sim.states, box)
        # the chosen refit's data is the cumulative downsampled data, and its
        # variance along the reference serves the next certificate
        raw = measure(sim.states, config.noise_variance, config.seed + 1000003 * i)
        T_s, model, variance = select_sampling_time(
            raw, model, ref_points, upsilon_prev, L_dk, config.fine_dt, ladder_top
        )
        ladder_top = T_s  # sampling times never increase across episodes

        rho_measured = float(np.min(data_density_batch(model, density_points)))
        max_speed = sim.max_speed
        T_s_lower = min_sampling_time(L_dk, config.target_error, config.noise_variance, max_speed)
