"""Config-driven experiment runner.

Subcommands::

    gpcert run      --config cfg.json [--seed N] [--workers N] [--out DIR]
    gpcert validate --config cfg.json

Experiments: ``tracking`` (closed-loop certificate on the benchmark),
``density_sweep`` (bound decay against data density at fixed kappa),
``episodic`` (iterative data generation to a target bound),
``validate_bounds`` (Monte-Carlo coverage of the uniform error bound), and
``validate_lipschitz`` (coverage of the prior Lipschitz constant).

Exit codes: 0 success, 2 config error, 3 certificate violation, 4 numerical
failure.  Trajectories go to CSV, scalars to JSON; identical configs and
seeds reproduce artifacts byte for byte, and every summary embeds the fully
resolved config so a run can be reproduced from its own output.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import copy
import functools
import json
import math
import os
import sys

import numpy as np

from . import bounds as bnd
from . import density as dens
from . import episodic as epi
from . import kernels as kern
from . import tracking as trk
from .errors import GPCertError
from .gp import TrainingSet, fit
from .kernels import KernelSpec
from .simulation import ReferenceSpec, benchmark_system, prior_factor, run_closed_loop
from .tracking import LinearPlant, closed_loop

EXPERIMENTS = ("tracking", "density_sweep", "episodic", "validate_bounds", "validate_lipschitz")

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_CERTIFICATE = 3
EXIT_NUMERICAL = 4


# ---------------------------------------------------------------------------
# config handling
# ---------------------------------------------------------------------------

_DEFAULTS = {
    "kernel": {"family": kern.SQUARED_EXPONENTIAL, "signal_variance": 1.0, "lengthscales": [1.0, 1.0]},
    "plant": {"A": [[0.0, 1.0], [0.0, 0.0]], "b": [0.0, 1.0]},
    "domain": {"dimension": 2, "edge": 10.0, "center": [0.0, 0.0]},
    "bound": {"tau": 0.01, "delta": 0.01, "L_f": 2.0, "delta_L": 0.01},
    "reference": {"amplitude": 2.0, "frequency": 1.0},
    "noise_variance": 0.01,
    "seeds": [0],
    "out_dir": "runs",
}


def load_config(path: str) -> dict:
    with open(path) as fh:
        return json.load(fh)


def _merged(config: dict) -> dict:
    cfg = copy.deepcopy(_DEFAULTS)
    for key, value in config.items():
        if isinstance(value, dict) and isinstance(cfg.get(key), dict):
            cfg[key].update(value)
        else:
            cfg[key] = copy.deepcopy(value)
    return cfg


def _positive(v, kind=(int, float)) -> bool:
    return isinstance(v, kind) and v > 0


def validate(config: dict) -> list[str]:
    """Schema and cross-field checks; returns diagnostics (empty = valid)."""
    problems = []
    exp = config.get("experiment")
    if exp not in EXPERIMENTS:
        problems.append(f"experiment must be one of {EXPERIMENTS}, got {exp!r}")
    cfg = _merged(config)
    kb = cfg["kernel"]
    if kb.get("family") not in kern._FAMILIES:
        problems.append(f"kernel.family: unknown family {kb.get('family')!r}")
    elif exp in ("tracking", "density_sweep", "episodic") and kb["family"] not in kern._STATIONARY:
        problems.append(f"kernel.family: {exp} needs L_sigma, which the non-stationary "
                        f"{kb['family']!r} kernel lacks")
    if not _positive(kb.get("signal_variance")):
        problems.append("kernel.signal_variance: must be a positive number")
    ls = kb.get("lengthscales", [])
    if not (isinstance(ls, list) and ls and all(_positive(l) for l in ls)):
        problems.append("kernel.lengthscales: must be a nonempty list of positive numbers")
    bb = cfg["bound"]
    for name in ("delta", "delta_L"):
        v = bb.get(name)
        if v is not None and not (isinstance(v, (int, float)) and 0 < v < 1):
            problems.append(f"bound.{name}: must lie in (0, 1), got {v!r}")
    tau = bb.get("tau")
    if tau != "auto" and not _positive(tau):
        problems.append(f"bound.tau: must be positive or 'auto', got {tau!r}")
    lf = bb.get("L_f")
    if lf == "probabilistic":
        if kb.get("family") == kern.MATERN32:
            problems.append("bound.L_f: probabilistic Lipschitz constants need fourth-order "
                            "smoothness; Matern 3/2 is not smooth enough")
    elif not (isinstance(lf, (int, float)) and lf >= 0):
        problems.append(f"bound.L_f: must be a nonnegative number or 'probabilistic', got {lf!r}")
    db = cfg["domain"]
    if not _positive(db.get("dimension"), int):
        problems.append(f"domain.dimension: must be a positive integer, got {db.get('dimension')!r}")
    if not _positive(db.get("edge")):
        problems.append(f"domain.edge: must be a positive number, got {db.get('edge')!r}")
    rb = cfg["reference"]
    if not isinstance(rb.get("amplitude"), (int, float)):
        problems.append(f"reference.amplitude: must be a number, got {rb.get('amplitude')!r}")
    if not _positive(rb.get("frequency")):
        problems.append(f"reference.frequency: must be a positive number, got {rb.get('frequency')!r}")
    if "data_grid" in cfg:
        gb = cfg["data_grid"] if isinstance(cfg["data_grid"], dict) else {}
        for axis in ("x1", "x2"):
            ax = gb.get(axis)
            if not (isinstance(ax, list) and len(ax) == 3 and all(isinstance(v, (int, float)) for v in ax)
                    and _positive(ax[2], int)):
                problems.append(f"data_grid.{axis}: must be [lo, hi, count], count a positive integer, got {ax!r}")
    if not _positive(cfg["noise_variance"]):
        problems.append("noise_variance: must be a positive number")
    seeds = cfg["seeds"]
    if not (isinstance(seeds, list) and seeds and all(isinstance(s, int) for s in seeds)):
        problems.append("seeds: must be a nonempty list of integers")
    for name in ("fine_dt", "sim_dt"):
        if name in cfg and not _positive(cfg[name]):
            problems.append(f"{name}: must be a positive number, got {cfg[name]!r}")
    if "horizon" in cfg and not isinstance(cfg["horizon"], (int, float)):
        problems.append(f"horizon: must be a number, got {cfg['horizon']!r}")
    if exp == "tracking" and "gains" not in config:
        problems.append("tracking: missing 'gains' block (theta or theta1/theta2)")
    if exp == "density_sweep":
        sw = config["sweep"] if isinstance(config.get("sweep"), dict) else {}
        pitches = sw.get("pitches")
        if not (isinstance(pitches, list) and pitches and all(_positive(p) for p in pitches)):
            problems.append(f"sweep.pitches: must be a nonempty list of positive numbers, got {pitches!r}")
        if not _positive(sw.get("kappa", 10.0)):
            problems.append(f"sweep.kappa: must be a positive number, got {sw.get('kappa')!r}")
        ext = sw.get("extent", [-4.0, 4.0])
        if not (isinstance(ext, list) and len(ext) == 2 and all(isinstance(v, (int, float)) for v in ext)
                and ext[0] < ext[1]):
            problems.append(f"sweep.extent: must be [lo, hi] with lo < hi, got {ext!r}")
    if exp == "episodic":
        ep = config["episodic"] if isinstance(config.get("episodic"), dict) else {}
        xi = ep.get("xi", 0.95)
        if not (isinstance(xi, (int, float)) and 0 < xi < 1):
            problems.append(f"episodic.xi: must lie in (0, 1), got {xi!r}")
        if not _positive(ep.get("target_error")):
            problems.append("episodic.target_error: must be a positive number")
        for name in ("fine_dt", "horizon"):
            if name in ep and not _positive(ep[name]):
                problems.append(f"episodic.{name}: must be a positive number, got {ep[name]!r}")
    vb = cfg.get("validation", {})
    if not isinstance(vb, dict):
        problems.append(f"validation: must be an object, got {vb!r}")
        vb = {}
    for name, least in (("trials", 1), ("draws", 1), ("grid_points_per_axis", 2), ("train_points", 1)):
        if name in vb and not (isinstance(vb[name], int) and vb[name] >= least):
            problems.append(f"validation.{name}: must be an integer of at least {least}, got {vb[name]!r}")
    return problems


def _kernel_from(cfg: dict) -> KernelSpec:
    kb = cfg["kernel"]
    return KernelSpec(kb["family"], kb["signal_variance"], tuple(kb["lengthscales"]))


def _plant_from(cfg: dict) -> LinearPlant:
    pb = cfg["plant"]
    return LinearPlant(np.asarray(pb["A"], dtype=float), np.asarray(pb["b"], dtype=float))


def _box_from(cfg: dict) -> bnd.DomainBox:
    db = cfg["domain"]
    return bnd.DomainBox(db["dimension"], db["edge"], np.asarray(db["center"], dtype=float))


def _reference_from(cfg: dict) -> ReferenceSpec:
    rb = cfg["reference"]
    return ReferenceSpec(rb["amplitude"], rb["frequency"])


def _theta_from(cfg: dict) -> np.ndarray:
    gb = cfg["gains"]
    if "theta" in gb:
        return np.asarray(gb["theta"], dtype=float)
    t1, t2 = float(gb["theta1"]), float(gb["theta2"])
    return np.array([t1 * t2, t2])


# ---------------------------------------------------------------------------
# artifact helpers
# ---------------------------------------------------------------------------

def _fmt(v) -> str:
    if v is None:
        return ""
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    return repr(float(v))


def _cells(values) -> list[str]:
    """CSV cells of one column; numeric arrays go through tolist() in one call."""
    if isinstance(values, np.ndarray) and values.dtype.kind in "iuf":
        return list(map(repr, values.tolist()))  # repr of a Python int is str(int)
    return [_fmt(v) for v in values]


_CSV_CHUNK_ROWS = 256  # bounds the cell strings held at once (and so peak RSS)


def _write_csv(path: str, header: list[str], columns) -> None:
    """Write equally long columns as CSV rows: repr of floats, integers as such, None empty."""
    n = len(columns[0]) if columns else 0
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for lo in range(0, n, _CSV_CHUNK_ROWS):
            cells = [_cells(c[lo:lo + _CSV_CHUNK_ROWS]) for c in columns]
            fh.write("".join([",".join(row) + "\n" for row in zip(*cells)]))


def _write_json(path: str, obj: dict) -> None:
    with open(path, "w") as fh:
        json.dump(obj, fh, sort_keys=True, indent=2)
        fh.write("\n")


def _half_step_times(horizon: float, dt: float) -> np.ndarray:
    """Times 0, dt/2, ..., n dt (n = horizon / dt): every RK4 stage time."""
    n = int(round(horizon / dt))
    return np.arange(2 * n + 1) * (dt / 2.0)


def _grid(*axes) -> np.ndarray:
    """Rows of the tensor grid over the given axes, the first axis slowest."""
    return np.column_stack([m.ravel() for m in np.meshgrid(*axes, indexing="ij")])


# ---------------------------------------------------------------------------
# tracking experiment (closed-loop certificate)
# ---------------------------------------------------------------------------

def _run_tracking_seed(cfg: dict, out_dir: str, L_f: float, L_k: float, L_sigma: float, seed: int) -> dict:
    """One seed of the tracking experiment; L_f, L_k and L_sigma are the run's."""
    spec = _kernel_from(cfg)
    box = _box_from(cfg)
    ref = _reference_from(cfg)
    f, g, _ = benchmark_system()
    bb = cfg["bound"]
    horizon = float(cfg.get("horizon", 30.0))
    dt = float(cfg.get("fine_dt", 3e-4))
    noise = float(cfg["noise_variance"])

    gb = cfg.get("data_grid", {"x1": [0.0, 3.0, 5], "x2": [-4.0, 4.0, 5]})
    grid = _grid(*(np.linspace(lo, hi, int(n)) for lo, hi, n in (gb["x1"], gb["x2"])))
    rng = np.random.default_rng(seed)
    y = f(grid) + rng.normal(0.0, math.sqrt(noise), size=grid.shape[0])
    data = TrainingSet(grid, y, noise)
    model = fit(spec, data)

    tau = bnd.auto_tau(model, bb["delta"], L_f, box, L_k, L_sigma) if bb["tau"] == "auto" else float(bb["tau"])
    source = "probabilistic" if bb["L_f"] == "probabilistic" else "given"
    rep = bnd.bound_constants(model, tau, bb["delta"], L_f, box, L_k, L_sigma)
    loop = closed_loop(_plant_from(cfg), _theta_from(cfg))
    stable = trk.gain_condition(loop, L_sigma, rep.beta)

    t_half = _half_step_times(horizon, dt)
    x_half = ref.state(t_half)
    sigma_half = model.predict_stddev(x_half)
    eta_half = bnd.uniform_error_bound(rep, x_half, sigma_half)
    upsilon = trk.tracking_bound_ode(loop, eta_half, L_sigma, rep.beta, v0=0.0, horizon=horizon, dt=dt)
    sim = run_closed_loop(loop, model, ref, horizon, dt, seed, f, input_gain=g, noise_variance=noise)
    e = sim.error_norms
    # eta, and so upsilon, holds only inside the box
    certified = bool(np.all(e <= upsilon + 1e-12)) and box.contains(sim.states)

    # phase structure: the worst tracking error should fall in the same
    # half-period of the reference as the worst posterior uncertainty
    period = ref.period
    t_e = float(sim.times[int(np.argmax(e))]) % period
    t_sig = float(t_half[int(np.argmax(sigma_half[: int(round(2 * period / dt)) + 1]))]) % period
    same_half = (t_e < period / 2.0) == (t_sig < period / 2.0)

    _write_csv(
        os.path.join(out_dir, f"tracking_run_seed{seed}.csv"),
        ["t", "e_norm", "upsilon", "eta_ref", "sigma_ref"],
        [sim.times, e, upsilon, eta_half[::2], sigma_half[::2]],
    )
    _write_csv(
        os.path.join(out_dir, f"sim_run_seed{seed}.csv"),
        ["t", "x_1", "x_2", "xref_1", "xref_2", "u", "e_norm"],
        [sim.times, sim.states[:, 0], sim.states[:, 1],
         sim.reference_states[:, 0], sim.reference_states[:, 1], sim.controls, e],
    )
    data.to_csv(os.path.join(out_dir, f"training_data_seed{seed}.csv"))
    return {
        "seed": seed,
        "certified": certified,
        "gain_condition": stable,
        "max_error": float(e.max()),
        "max_upsilon": float(upsilon.max()),
        "argmax_error_time": t_e,
        "argmax_sigma_time": t_sig,
        "error_peak_in_uncertain_half_period": bool(same_half),
        "bound": {**rep.to_json_dict(), "L_f_source": source},
        "resolved_bound": {**bb, "tau": tau, "L_f": L_f, "L_f_source": source},
        "zeta": loop.zeta,
        "lambda_max": loop.lambda_max,
        "L_sigma": L_sigma,
        "L_k": L_k,
    }


def run_tracking(cfg: dict, out_dir: str, workers: int = 1) -> tuple[dict, bool]:
    """Every seed, fanned out over ``workers`` processes; the kernel and box
    constants L_f, L_k and L_sigma are computed once, here."""
    spec, box, bb = _kernel_from(cfg), _box_from(cfg), cfg["bound"]
    L_f = bnd.probabilistic_lipschitz(spec, box, bb["delta_L"]) if bb["L_f"] == "probabilistic" else float(bb["L_f"])
    seed_run = functools.partial(_run_tracking_seed, cfg, out_dir, L_f,
                                 kern.kernel_lipschitz(spec, box), kern.stddev_lipschitz(spec, box))
    seeds = cfg["seeds"]
    if workers > 1 and len(seeds) > 1:
        with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(seed_run, seeds))
    else:
        results = [seed_run(s) for s in seeds]
    results.sort(key=lambda r: r["seed"])
    ok = all(r["certified"] for r in results)
    gains_ok = all(r["gain_condition"] for r in results)
    if not gains_ok:
        # the bound still holds, but without contraction it can grow without limit
        print("note: the gain condition fails for some seed; its tracking bound may be vacuous",
              file=sys.stderr)
    return {
        "resolved_config": {**cfg, "bound": results[0]["resolved_bound"]},
        "per_seed": results,
        "all_certified": ok,
        "all_gain_conditions": gains_ok,
        "phase_agreement_fraction": float(np.mean([r["error_peak_in_uncertain_half_period"] for r in results])),
    }, ok


# ---------------------------------------------------------------------------
# density sweep (bound decay against data density, kappa fixed)
# ---------------------------------------------------------------------------

def run_density_sweep(cfg: dict, out_dir: str) -> tuple[dict, bool]:
    spec = _kernel_from(cfg)
    plant = _plant_from(cfg)
    box = _box_from(cfg)
    ref = _reference_from(cfg)
    f, g, _ = benchmark_system()
    sw = cfg["sweep"]
    pitches = [float(p) for p in sw["pitches"]]
    kappa_target = float(sw.get("kappa", 10.0))
    lo, hi = sw.get("extent", [-4.0, 4.0])
    horizon = float(cfg.get("horizon", 2.0 * math.pi))
    dt = float(cfg.get("sim_dt", 1e-3))
    noise = float(cfg["noise_variance"])
    delta = float(cfg["bound"]["delta"])
    L_f = float(cfg["bound"]["L_f"])
    seed = cfg["seeds"][0]

    L_k = kern.kernel_lipschitz(spec, box)
    L_sigma = kern.stddev_lipschitz(spec, box)
    n_profile = 128
    t_profile = np.arange(n_profile) * (ref.period / n_profile)
    profile_points = ref.state(t_profile)
    half_step_points = ref.state(_half_step_times(horizon, dt))

    rows = []
    violations = 0
    for j, pitch in enumerate(pitches):
        ax = np.linspace(lo, hi, int(round((hi - lo) / pitch)) + 1)
        grid = _grid(ax, ax)
        rng = np.random.default_rng(seed + j)
        data = TrainingSet(grid, f(grid) + rng.normal(0.0, math.sqrt(noise), grid.shape[0]), noise)
        model = fit(spec, data)

        rho = dens.data_density_batch(model, profile_points)
        rho_min = float(rho.min())
        cert = trk.certify(model, rho_min, half_step_points, ref.max_speed * dt / 2.0,
                           lambda b: trk.gains_for_kappa(plant, kappa_target, L_sigma, b),
                           box, delta, L_f, L_k, L_sigma)
        loop = cert.loop
        sim = run_closed_loop(loop, model, ref, horizon, dt, seed + j, f, input_gain=g, noise_variance=noise)
        e_max = float(sim.error_norms.max())
        if e_max > cert.upsilon_bar or not box.contains(sim.states):
            violations += 1

        sigma_profile = model.predict_stddev(profile_points)
        density_sd_bound = np.where(
            rho > 0, np.sqrt(2.0 / (np.maximum(rho, 1e-300) * spec.signal_variance)), np.inf
        )
        _write_csv(
            os.path.join(out_dir, f"density_profile_pitch{j}.csv"),
            ["x_1", "x_2", "rho", "sigma_exact", "sigma_bound_prop10"],
            [profile_points[:, 0], profile_points[:, 1], rho, sigma_profile, density_sd_bound],
        )
        rows.append({
            "pitch": pitch, "n_train": len(data), "rho_min": rho_min,
            "upsilon_bar": cert.upsilon_bar, "e_max": e_max, "tau": cert.tau, "beta": cert.beta,
            "gamma": cert.gamma, "L_mu": cert.L_mu, "lambda_max": loop.lambda_max, "zeta": loop.zeta,
            "kappa": cert.kappa,
        })

    header = ["rho_min", "upsilon_bar", "e_max", "pitch", "n_train", "tau", "beta", "lambda_max", "zeta", "kappa"]
    _write_csv(os.path.join(out_dir, "density_sweep.csv"), header, [[r[k] for r in rows] for k in header])
    logr = np.log([r["rho_min"] for r in rows])
    slope_bound = float(np.polyfit(logr, np.log([r["upsilon_bar"] for r in rows]), 1)[0])
    slope_observed = float(np.polyfit(logr, np.log([r["e_max"] for r in rows]), 1)[0])
    return {
        "kappa_target": kappa_target,
        "L_k": L_k,
        "L_sigma": L_sigma,
        "rows": rows,
        "slope_log_upsilon_vs_log_rho": slope_bound,
        "slope_log_e_max_vs_log_rho": slope_observed,
        "certificate_violations": violations,
    }, violations == 0


# ---------------------------------------------------------------------------
# episodic experiment
# ---------------------------------------------------------------------------

def run_episodic(cfg: dict, out_dir: str) -> tuple[dict, bool]:
    spec = _kernel_from(cfg)
    plant = _plant_from(cfg)
    box = _box_from(cfg)
    L_k = kern.kernel_lipschitz(spec, box)
    L_sigma = kern.stddev_lipschitz(spec, box)
    ref = _reference_from(cfg)
    f, g, _ = benchmark_system()
    ep = cfg.get("episodic", {})
    config = epi.EpisodeConfig(
        target_error=float(ep["target_error"]),
        xi=float(ep.get("xi", 0.95)),
        horizon=float(ep.get("horizon", 2.0 * math.pi)),
        fine_dt=float(ep.get("fine_dt", 3e-4)),
        delta=float(cfg["bound"]["delta"]),
        kernel=spec,
        plant=plant,
        reference=ref,
        domain=box,
        noise_variance=float(cfg["noise_variance"]),
        L_f=float(cfg["bound"]["L_f"]),
        nonlinearity=f,
        input_gain=g,
        seed=int(cfg["seeds"][0]),
        max_episodes=int(ep.get("max_episodes", epi.EPISODE_CAP_DEFAULT)),
    )
    reports = epi.learn_control(config, L_k, L_sigma)
    with open(os.path.join(out_dir, "episodes.jsonl"), "w") as fh:
        for r in reports:
            fh.write(json.dumps(r.to_json_dict(), sort_keys=True) + "\n")

    L_dk = kern.gradient_lipschitz(spec)
    n_e = epi.episode_count_bound(config.target_error, L_dk, spec.signal_variance, config.xi)
    # a rollout breaks its episode's certificate if its error exceeds the
    # bound or its states leave the box the bound holds in
    violations = sum(
        1
        for prev, cur in zip(reports, reports[1:])
        if cur.states_left_box
        or (cur.observed_max_error is not None and cur.observed_max_error > prev.certified_bound)
    )
    return {
        "episodes_run": len(reports) - 1,
        "N_E": n_e,
        "total_confidence": 1.0 - n_e * config.delta,
        "terminated": reports[-1].certified_bound <= config.target_error,
        "final_upsilon_bar": reports[-1].certified_bound,
        "upsilon_bar_0": reports[0].certified_bound,
        "certificate_violations": violations,
        "L_dk": L_dk,
        "L_k": L_k,
        "L_sigma": L_sigma,
        "xi": config.xi,
    }, violations == 0


# ---------------------------------------------------------------------------
# Monte-Carlo validation of the uniform bound (prior draws)
# ---------------------------------------------------------------------------

def _axis_fd_slope(values: np.ndarray, shape: tuple[int, ...], pitch: float) -> float:
    """Max finite-difference slope of grid values along the coordinate axes."""
    v = values.reshape(shape)
    worst = 0.0
    for axis in range(v.ndim):
        d = np.abs(np.diff(v, axis=axis)) / pitch
        if d.size:
            worst = max(worst, float(d.max()))
    return worst


def run_validate_bounds(cfg: dict, out_dir: str) -> tuple[dict, bool]:
    spec = _kernel_from(cfg)
    box = _box_from(cfg)
    vb = cfg.get("validation", {})
    trials = int(vb.get("trials", 200))
    n_axis = int(vb.get("grid_points_per_axis", 41))
    n_train = int(vb.get("train_points", 25))
    noise = float(cfg["noise_variance"])
    delta = float(cfg["bound"]["delta"])
    tau = float(cfg["bound"]["tau"])
    seed0 = int(cfg["seeds"][0])

    grid = _grid(*(np.linspace(c - box.edge / 2.0, c + box.edge / 2.0, n_axis) for c in box.center))
    pitch = box.edge / (n_axis - 1)

    L = prior_factor(spec, grid)
    L_k = kern.kernel_lipschitz(spec, box)
    L_sigma = kern.stddev_lipschitz(spec, box) if spec.stationary else None

    rows = []
    covered_n = 0
    for t in range(trials):
        rng = np.random.default_rng(seed0 + t)
        fvals = L @ rng.standard_normal(grid.shape[0])
        idx = rng.choice(grid.shape[0], size=n_train, replace=False)
        y = fvals[idx] + rng.normal(0.0, math.sqrt(noise), n_train)
        model = fit(spec, TrainingSet(grid[idx], y, noise))
        L_f = _axis_fd_slope(fvals, (n_axis,) * box.dimension, pitch)
        rep = bnd.bound_constants(model, tau, delta, L_f, box, L_k, L_sigma)
        eta = bnd.uniform_error_bound(rep, grid, model.predict_stddev(grid))
        err = np.abs(fvals - model.predict_mean(grid))
        margin = float(np.min(eta - err))
        covered = margin >= 0.0
        covered_n += covered
        rows.append((t, L_f, rep.gamma, float(err.max()), margin, int(covered)))

    coverage = covered_n / trials
    _write_csv(os.path.join(out_dir, "bound_trials.csv"),
               ["trial", "L_f", "gamma", "max_error", "min_margin", "covered"], list(zip(*rows)))
    return {
        "trials": trials,
        "coverage": coverage,
        "required_coverage": 1.0 - delta,
        "beta": rep.beta,  # beta and omega_sigma do not depend on the trial
        "tau": tau,
        "omega_sigma": rep.omega_sigma,
        "L_k": L_k,
    }, coverage >= 1.0 - delta


def run_validate_lipschitz(cfg: dict, out_dir: str) -> tuple[dict, bool]:
    spec = _kernel_from(cfg)
    box = _box_from(cfg)
    vb = cfg.get("validation", {})
    draws = int(vb.get("draws", 500))
    delta_L = float(cfg["bound"]["delta_L"])
    seed0 = int(cfg["seeds"][0])
    if box.dimension != 1 or spec.dim != 1:
        raise ValueError("validate_lipschitz runs on a one-dimensional domain")

    L_hat = bnd.probabilistic_lipschitz(spec, box, delta_L)
    pitch = spec.ell_min / 8.0
    n = int(round(box.edge / pitch)) + 1
    grid = np.linspace(box.center[0] - box.edge / 2.0, box.center[0] + box.edge / 2.0, n)[:, None]
    pitch = float(grid[1, 0] - grid[0, 0])
    L = prior_factor(spec, grid)

    slopes = np.empty(draws)
    for t in range(draws):
        f = L @ np.random.default_rng(seed0 + t).standard_normal(n)
        slopes[t] = float(np.abs(np.diff(f)).max() / pitch)
    covered = slopes <= L_hat
    coverage = float(covered.mean())
    _write_csv(os.path.join(out_dir, "lipschitz_trials.csv"),
               ["trial", "max_slope", "covered"], [range(draws), slopes, covered.astype(int)])
    return {
        "draws": draws,
        "coverage": coverage,
        "required_coverage": 1.0 - delta_L,
        "L_f_hat": L_hat,
        "max_observed_slope": float(slopes.max()),
    }, coverage >= 1.0 - delta_L


# ---------------------------------------------------------------------------
# entry points
# ---------------------------------------------------------------------------

_RUNNERS = {  # every experiment but tracking, the one that takes workers
    "density_sweep": run_density_sweep,
    "episodic": run_episodic,
    "validate_bounds": run_validate_bounds,
    "validate_lipschitz": run_validate_lipschitz,
}


def run(config: dict, workers: int = 1) -> int:
    """Validate, dispatch, and write artifacts; returns the process exit code.

    Each runner writes its artifacts and returns ``(summary, ok)``; the summary
    gains the experiment and the merged config (unless the runner resolves it
    further) and goes to ``summary.json``.  ``workers`` serves tracking only.
    """
    problems = validate(config)
    if problems:
        for p in problems:
            print(f"config error: {p}", file=sys.stderr)
        return EXIT_CONFIG
    cfg = _merged(config)
    out_dir = cfg["out_dir"]
    os.makedirs(out_dir, exist_ok=True)
    exp = cfg["experiment"]
    try:
        summary, ok = run_tracking(cfg, out_dir, workers) if exp == "tracking" else _RUNNERS[exp](cfg, out_dir)
    except GPCertError as exc:
        print(f"numerical failure in {exp}: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except ValueError as exc:  # malformed values that validate() does not catch
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    _write_json(os.path.join(out_dir, "summary.json"), {"experiment": exp, "resolved_config": cfg, **summary})
    return EXIT_OK if ok else EXIT_CERTIFICATE


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="gpcert", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("run", "validate"):
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="path to the experiment config JSON")
        if name == "run":
            p.add_argument("--seed", type=int, default=None, help="override: run this single seed")
            p.add_argument("--workers", type=int, default=1, help="processes for the seeds of a tracking run")
            p.add_argument("--out", default=None, help="override the output directory")
    args = parser.parse_args(argv)

    try:
        config = load_config(args.config)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"config error: cannot read {args.config}: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    if args.command == "validate":
        problems = validate(config)
        for p in problems:
            print(f"config error: {p}", file=sys.stderr)
        if not problems:
            print("config OK")
        return EXIT_OK if not problems else EXIT_CONFIG

    if args.seed is not None:
        config["seeds"] = [args.seed]
    if args.out is not None:
        config["out_dir"] = args.out
    return run(config, workers=args.workers)


if __name__ == "__main__":
    sys.exit(main())
