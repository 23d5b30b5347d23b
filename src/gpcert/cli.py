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
failure.  Trajectories go to CSV, scalars to JSON, byte for byte the same for
the same config and seeds.  Every summary embeds the config with every default
of its experiment filled in from one table, ``_SCHEMA``, to be rerun from.
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
from .gp import GPModel, TrainingSet, fit
from .kernels import KernelSpec
from .simulation import ReferenceSpec, benchmark_system, prior_factor, run_closed_loop
from .tracking import LinearPlant, closed_loop

EXPERIMENTS = ("tracking", "density_sweep", "episodic", "validate_bounds", "validate_lipschitz")

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_CERTIFICATE = 3
EXIT_NUMERICAL = 4


# ---------------------------------------------------------------------------
# config schema
# ---------------------------------------------------------------------------

def _number(v, kind=(int, float)) -> bool:
    """A finite number of ``kind``; never a bool, though JSON true is a Python int."""
    return isinstance(v, kind) and not isinstance(v, bool) and abs(v) <= sys.float_info.max


def _positive(v) -> bool:
    return _number(v) and v > 0


def _nonnegative(v) -> bool:
    return _number(v) and v >= 0


def _list_of(ok):
    return lambda v: isinstance(v, list) and len(v) > 0 and all(ok(x) for x in v)


def _count(least: int):
    return (lambda v: _number(v, int) and v >= least), f"an integer of at least {least}"


_REQUIRED = object()  # the default of a field that has none; its absence is a problem

_POSITIVE = _positive, "a positive number"
_FRACTION = (lambda v: _number(v) and 0 < v < 1), "a number in (0, 1)"
_NOT_TRACKING = tuple(e for e in EXPERIMENTS if e != "tracking")
_AXIS = (lambda v: isinstance(v, list) and len(v) == 3 and _number(v[0]) and _number(v[1])
         and _number(v[2], int) and v[2] > 0), "[lo, hi, count] with count a positive integer"

# (dotted path, (predicate, what the field "must be"), default or _REQUIRED,
# experiments).  A row checks and fills its field only for its experiments;
# a field that no row names passes through unchecked.
_SCHEMA = (
    ("kernel.family", (lambda v: v in kern._FAMILIES, f"one of {', '.join(kern._FAMILIES)}"),
     kern.SQUARED_EXPONENTIAL, EXPERIMENTS),
    ("kernel.signal_variance", _POSITIVE, 1.0, EXPERIMENTS),
    ("kernel.lengthscales", (_list_of(_positive), "a nonempty list of positive numbers"), [1.0, 1.0], EXPERIMENTS),
    ("plant.A", (_list_of(_list_of(_number)), "a list of rows of numbers"), [[0.0, 1.0], [0.0, 0.0]], EXPERIMENTS),
    ("plant.b", (_list_of(_number), "a nonempty list of numbers"), [0.0, 1.0], EXPERIMENTS),
    ("domain.dimension", _count(1), 2, EXPERIMENTS),
    ("domain.edge", _POSITIVE, 10.0, EXPERIMENTS),
    ("domain.center", (_list_of(_number), "a nonempty list of numbers"), [0.0, 0.0], EXPERIMENTS),
    # only tracking resolves tau "auto" and L_f "probabilistic"; the other
    # experiments take the fields as numbers
    ("bound.tau", (lambda v: v == "auto" or _positive(v), "a positive number or 'auto'"), 0.01, ("tracking",)),
    ("bound.tau", _POSITIVE, 0.01, _NOT_TRACKING),
    ("bound.delta", _FRACTION, 0.01, EXPERIMENTS),
    ("bound.L_f", (lambda v: v == "probabilistic" or _nonnegative(v),
                   "a nonnegative number or 'probabilistic'"), 2.0, ("tracking",)),
    ("bound.L_f", (_nonnegative, "a nonnegative number"), 2.0, _NOT_TRACKING),
    ("bound.delta_L", _FRACTION, 0.01, EXPERIMENTS),
    ("reference.amplitude", (_number, "a finite number"), 2.0, EXPERIMENTS),
    ("reference.frequency", _POSITIVE, 1.0, EXPERIMENTS),
    ("noise_variance", _POSITIVE, 0.01, EXPERIMENTS),
    ("seeds", (_list_of(lambda s: _number(s, int)), "a nonempty list of integers"), [0], ("tracking",)),
    # the other experiments run one seed; a second one would be dropped unread
    ("seeds", (lambda v: isinstance(v, list) and len(v) == 1 and _number(v[0], int),
               "a list of exactly one integer"), [0], _NOT_TRACKING),
    ("out_dir", (lambda v: isinstance(v, str) and v != "", "a nonempty path"), "runs", EXPERIMENTS),
    ("gains", (lambda v: isinstance(v, dict), "an object"), _REQUIRED, ("tracking",)),
    # any finite horizon reaches the runner, which rejects a negative one
    ("horizon", (_number, "a finite number"), 30.0, ("tracking",)),
    ("horizon", (_number, "a finite number"), 2.0 * math.pi, ("density_sweep",)),
    ("fine_dt", _POSITIVE, 3e-4, ("tracking",)),
    ("data_grid.x1", _AXIS, [0.0, 3.0, 5], ("tracking",)),
    ("data_grid.x2", _AXIS, [-4.0, 4.0, 5], ("tracking",)),
    ("sim_dt", _POSITIVE, 1e-3, ("density_sweep",)),
    ("sweep.pitches", (_list_of(_positive), "a nonempty list of positive numbers"), _REQUIRED, ("density_sweep",)),
    ("sweep.kappa", _POSITIVE, 10.0, ("density_sweep",)),
    ("sweep.extent", (lambda v: isinstance(v, list) and len(v) == 2 and all(map(_number, v)) and v[0] < v[1],
                      "[lo, hi] with lo < hi"), [-4.0, 4.0], ("density_sweep",)),
    ("episodic.target_error", _POSITIVE, _REQUIRED, ("episodic",)),
    ("episodic.xi", _FRACTION, 0.95, ("episodic",)),
    ("episodic.horizon", _POSITIVE, 2.0 * math.pi, ("episodic",)),
    ("episodic.fine_dt", _POSITIVE, 3e-4, ("episodic",)),
    ("episodic.max_episodes", _count(0), epi.EPISODE_CAP_DEFAULT, ("episodic",)),
    ("validation.trials", _count(1), 200, ("validate_bounds",)),
    ("validation.grid_points_per_axis", _count(2), 41, ("validate_bounds",)),
    ("validation.train_points", _count(1), 25, ("validate_bounds",)),
    ("validation.draws", _count(1), 500, ("validate_lipschitz",)),
)


def load_config(path: str) -> dict:
    with open(path) as fh:
        config = json.load(fh)
    if not isinstance(config, dict):
        raise ValueError("the top level is not an object")
    return config


def resolve(config: dict) -> tuple[dict, list[str]]:
    """The config with its experiment's defaults filled in, and its problems.

    Walks ``_SCHEMA``: every block its rows name must be an object, a field
    present must meet its row's predicate, and a missing one takes the row's
    default (or reads as None, when required).  The cross-field rules run once
    every field is well-formed.
    """
    exp = config.get("experiment")
    if exp not in EXPERIMENTS:
        return config, [f"experiment: must be one of {', '.join(EXPERIMENTS)}, got {exp!r}"]
    cfg = copy.deepcopy(config)
    rows = [row for row in _SCHEMA if exp in row[3]]
    problems = []
    for block in dict.fromkeys(path.rpartition(".")[0] for path, *_ in rows):
        if block and not isinstance(cfg.setdefault(block, {}), dict):
            problems.append(f"{block}: must be an object, got {cfg[block]!r}")
    for path, (ok, must), default, _ in rows:
        block, _, name = path.rpartition(".")
        node = cfg[block] if block else cfg
        if not isinstance(node, dict):
            continue
        if name not in node and default is not _REQUIRED:
            node[name] = copy.deepcopy(default)
        elif not ok(node.get(name)):
            problems.append(f"{path}: must be {must}, got {node.get(name)!r}")
    if problems:
        return cfg, problems

    family = cfg["kernel"]["family"]
    if exp in ("tracking", "density_sweep", "episodic") and family not in kern._STATIONARY:
        problems.append(f"kernel.family: {exp} needs L_sigma, which the non-stationary {family!r} kernel lacks")
    if cfg["bound"]["L_f"] == "probabilistic" and family == kern.MATERN32:
        problems.append("bound.L_f: probabilistic Lipschitz constants need fourth-order "
                        "smoothness; Matern 3/2 is not smooth enough")
    gains = cfg.get("gains")
    if exp == "tracking" and "theta" not in gains and not all(_number(gains.get(k)) for k in ("theta1", "theta2")):
        problems.append(f"gains: must hold theta, or numbers theta1 and theta2, got {gains!r}")
    return cfg, problems


def validate(config: dict) -> list[str]:
    """Schema and cross-field checks; returns diagnostics (empty = valid)."""
    return resolve(config)[1]


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

def _tracking_models(cfg: dict, seeds) -> list[GPModel]:
    """One fitted model per seed, on noisy samples of the benchmark f at the data grid.

    The seeds share the grid and the noise, so one factorization serves them
    all and each further seed solves for its own alpha only.
    """
    f, _, _ = benchmark_system()
    noise = float(cfg["noise_variance"])
    grid = _grid(*(np.linspace(*cfg["data_grid"][axis]) for axis in ("x1", "x2")))
    clean = f(grid)
    targets = [clean + np.random.default_rng(seed).normal(0.0, math.sqrt(noise), size=grid.shape[0])
               for seed in seeds]
    first = fit(_kernel_from(cfg), TrainingSet(grid, targets[0], noise))
    return [first] + [first.with_targets(y) for y in targets[1:]]


def _tracking_bound(cfg: dict, model: GPModel, L_f: float, L_k: float, L_sigma: float):
    """tau and the bound constants of one seed's model."""
    box = _box_from(cfg)
    bb = cfg["bound"]
    tau = bnd.auto_tau(model, bb["delta"], L_f, box, L_k, L_sigma) if bb["tau"] == "auto" else float(bb["tau"])
    return tau, bnd.bound_constants(model, tau, bb["delta"], L_f, box, L_k, L_sigma)


def _run_tracking_batch(cfg: dict, out_dir: str, L_f: float, L_k: float, L_sigma: float, seeds) -> list[dict]:
    """Seeds of the tracking experiment, rolled out together; L_f, L_k and L_sigma are the run's.

    One factorization serves every seed's model (:func:`_tracking_models`),
    one :func:`run_closed_loop` steps every seed, and a per-seed writer forms
    eta and upsilon and writes the seed's CSVs.  The seeds share inputs,
    kernel, noise, gains and reference, so their posterior stddev along the
    reference is one array, computed once.
    """
    box = _box_from(cfg)
    ref = _reference_from(cfg)
    f, g, _ = benchmark_system()
    bb = cfg["bound"]
    horizon = float(cfg["horizon"])
    dt = float(cfg["fine_dt"])
    source = "probabilistic" if bb["L_f"] == "probabilistic" else "given"
    loop = closed_loop(_plant_from(cfg), _theta_from(cfg))

    models = _tracking_models(cfg, seeds)
    taus, reps = zip(*(_tracking_bound(cfg, model, L_f, L_k, L_sigma) for model in models))
    t_half = _half_step_times(horizon, dt)
    x_half = ref.state(t_half)
    sigma_half = models[0].predict_stddev(x_half)
    sims = run_closed_loop(loop, models, ref, horizon, dt, f)
    # the phase of the worst posterior uncertainty, over the first two periods
    period = ref.period
    t_sig = float(t_half[int(np.argmax(sigma_half[: int(round(2 * period / dt)) + 1]))]) % period

    results = []
    for seed, model, tau, rep, sim in zip(seeds, models, taus, reps, sims):
        eta_half = bnd.uniform_error_bound(rep, x_half, sigma_half)
        upsilon = trk.tracking_bound_ode(loop, eta_half, L_sigma, rep.beta, v0=0.0, horizon=horizon, dt=dt)
        e = sim.error_norms
        # the applied input: the nominal one divided by g, which the plant knows exactly
        u = (-((sim.states - sim.reference_states) @ loop.theta) + ref.signal(sim.times)
             - model.predict_mean(sim.states)) / g(sim.states)
        # eta, and so upsilon, holds only inside the box
        certified = bool(np.all(e <= upsilon + 1e-12)) and box.contains(sim.states)
        # phase structure: the worst tracking error should fall in the same
        # half-period of the reference as the worst posterior uncertainty
        t_e = float(sim.times[int(np.argmax(e))]) % period
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
             sim.reference_states[:, 0], sim.reference_states[:, 1], u, e],
        )
        model.data.to_csv(os.path.join(out_dir, f"training_data_seed{seed}.csv"))
        results.append({
            "seed": seed,
            "certified": certified,
            "gain_condition": trk.gain_condition(loop, L_sigma, rep.beta),
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
        })
    return results


def run_tracking(cfg: dict, out_dir: str, workers: int = 1) -> tuple[dict, bool]:
    """Every seed, in one contiguous batch per worker process; the kernel and
    box constants L_f, L_k and L_sigma are computed once, here.

    A seed's artifacts do not depend on its batch.  A seed that diverges
    stops its whole batch before the batch writes any artifact.
    """
    spec, box, bb = _kernel_from(cfg), _box_from(cfg), cfg["bound"]
    L_f = bnd.probabilistic_lipschitz(spec, box, bb["delta_L"]) if bb["L_f"] == "probabilistic" else float(bb["L_f"])
    batch_run = functools.partial(_run_tracking_batch, cfg, out_dir, L_f,
                                  kern.kernel_lipschitz(spec, box), kern.stddev_lipschitz(spec, box))
    seeds = cfg["seeds"]
    count = max(1, min(workers, len(seeds)))  # workers < 1 runs serially, as one batch
    batches = [seeds[len(seeds) * i // count: len(seeds) * (i + 1) // count] for i in range(count)]
    if count > 1:
        with concurrent.futures.ProcessPoolExecutor(max_workers=count) as pool:
            results = [r for batch in pool.map(batch_run, batches) for r in batch]
    else:
        results = [r for batch in batches for r in batch_run(batch)]
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
    f, _, _ = benchmark_system()
    sw = cfg["sweep"]
    pitches = [float(p) for p in sw["pitches"]]
    kappa_target = float(sw["kappa"])
    lo, hi = sw["extent"]
    horizon = float(cfg["horizon"])
    dt = float(cfg["sim_dt"])
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
        sim = run_closed_loop(cert.loop, model, ref, horizon, dt, f)
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
        rows.append({"pitch": pitch, "n_train": len(data), "rho_min": rho_min, "e_max": e_max,
                     **cert.to_json_dict()})

    header = ["rho_min", "upsilon_bar", "e_max", "pitch", "n_train", "tau", "beta", "lambda_max", "zeta", "kappa"]
    _write_csv(os.path.join(out_dir, "density_sweep.csv"), header, [[r[k] for r in rows] for k in header])
    logr = np.log([r["rho_min"] for r in rows])
    # a log-log slope needs two distinct densities, which one pitch lacks
    slope = {key: float(np.polyfit(logr, np.log([r[key] for r in rows]), 1)[0]) if np.ptp(logr) > 0 else None
             for key in ("upsilon_bar", "e_max")}
    return {
        "kappa_target": kappa_target,
        "L_k": L_k,
        "L_sigma": L_sigma,
        "rows": rows,
        "slope_log_upsilon_vs_log_rho": slope["upsilon_bar"],
        "slope_log_e_max_vs_log_rho": slope["e_max"],
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
    f, _, _ = benchmark_system()
    ep = cfg["episodic"]
    config = epi.EpisodeConfig(
        target_error=float(ep["target_error"]),
        xi=float(ep["xi"]),
        horizon=float(ep["horizon"]),
        fine_dt=float(ep["fine_dt"]),
        delta=float(cfg["bound"]["delta"]),
        kernel=spec,
        plant=plant,
        reference=ref,
        domain=box,
        noise_variance=float(cfg["noise_variance"]),
        L_f=float(cfg["bound"]["L_f"]),
        nonlinearity=f,
        seed=cfg["seeds"][0],
        max_episodes=ep["max_episodes"],
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
        or (cur.observed_max_error is not None and cur.observed_max_error > prev.certificate.upsilon_bar)
    )
    return {
        "episodes_run": len(reports) - 1,
        "N_E": n_e,
        "total_confidence": 1.0 - n_e * config.delta,
        "terminated": reports[-1].certificate.upsilon_bar <= config.target_error,
        "final_upsilon_bar": reports[-1].certificate.upsilon_bar,
        "upsilon_bar_0": reports[0].certificate.upsilon_bar,
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
    vb = cfg["validation"]
    trials = vb["trials"]
    n_axis = vb["grid_points_per_axis"]
    n_train = vb["train_points"]
    noise = float(cfg["noise_variance"])
    delta = float(cfg["bound"]["delta"])
    tau = float(cfg["bound"]["tau"])
    seed0 = cfg["seeds"][0]

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
    draws = cfg["validation"]["draws"]
    delta_L = float(cfg["bound"]["delta_L"])
    seed0 = cfg["seeds"][0]
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
    gains the experiment and the resolved config (unless the runner resolves it
    further) and goes to ``summary.json``.  ``workers`` serves tracking only.
    """
    cfg, problems = resolve(config)
    if problems:
        for p in problems:
            print(f"config error: {p}", file=sys.stderr)
        return EXIT_CONFIG
    out_dir = cfg["out_dir"]
    try:
        os.makedirs(out_dir, exist_ok=True)
    except OSError as exc:  # e.g. a path naming an existing file
        print(f"config error: out_dir: {exc}", file=sys.stderr)
        return EXIT_CONFIG
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
    except (OSError, ValueError) as exc:  # ValueError: also a JSON syntax error
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
