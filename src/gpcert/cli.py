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
failure, 5 the compiled rollout core could not be built.  Trajectories go to
CSV, scalars to JSON, byte for byte the same for the same config and seeds.
Every summary embeds the config with every default of its experiment filled
in from one table, ``_SCHEMA``, to be rerun from.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import contextlib
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
from .errors import CoreBuildError, GPCertError
from .gp import GPModel, TrainingSet, fit
from .kernels import KernelSpec
from .simulation import (BENCHMARK_L_F, ReferenceSpec, benchmark_system, measure, prior_draw, prior_factor,
                         run_closed_loop)
from .tracking import closed_loop

EXPERIMENTS = ("tracking", "density_sweep", "episodic", "validate_bounds", "validate_lipschitz")

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_CERTIFICATE = 3
EXIT_NUMERICAL = 4
EXIT_BUILD = 5


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
_SEED = _count(0)[0]  # a seed seeds numpy's default_rng, which takes no negative integer
_NOT_TRACKING = tuple(e for e in EXPERIMENTS if e != "tracking")
_CLOSED_LOOP = ("tracking", "density_sweep", "episodic")  # simulate the benchmark loop against the reference
_ERROR_BOUND = _CLOSED_LOOP + ("validate_bounds",)  # fit noisy data and evaluate the uniform error bound
_LENGTHSCALES = _list_of(_positive), "a nonempty list of positive numbers"
_CENTER = _list_of(_number), "a nonempty list of numbers"
_AXIS = (lambda v: isinstance(v, list) and len(v) == 3 and _number(v[0]) and _number(v[1])
         and _number(v[2], int) and v[2] > 0), "[lo, hi, count] with count a positive integer"

# (dotted path, (predicate, what the field "must be"), default or _REQUIRED,
# experiments).  An experiment's rows are exactly the fields its runner reads,
# each checked and filled in; a field that no row names passes through unread.
_SCHEMA = (
    ("kernel.family", (lambda v: v in kern._FAMILIES, f"one of {', '.join(kern._FAMILIES)}"),
     kern.SQUARED_EXPONENTIAL, EXPERIMENTS),
    ("kernel.signal_variance", _POSITIVE, 1.0, EXPERIMENTS),
    # resolve() holds the three dimension fields to one another and to the experiment's dimension
    ("kernel.lengthscales", _LENGTHSCALES, [1.0, 1.0], _ERROR_BOUND),
    ("kernel.lengthscales", _LENGTHSCALES, [1.0], ("validate_lipschitz",)),
    ("domain.dimension", _count(1), 2, _ERROR_BOUND),
    ("domain.dimension", _count(1), 1, ("validate_lipschitz",)),
    ("domain.edge", _POSITIVE, 10.0, EXPERIMENTS),
    ("domain.center", _CENTER, [0.0, 0.0], _ERROR_BOUND),
    ("domain.center", _CENTER, [0.0], ("validate_lipschitz",)),
    # only tracking resolves tau "auto" and L_f "probabilistic"; density_sweep and
    # episodic match tau to rho, and validate_bounds derives L_f per trial
    ("bound.tau", (lambda v: v == "auto" or _positive(v), "a positive number or 'auto'"), 0.01, ("tracking",)),
    ("bound.tau", _POSITIVE, 0.01, ("validate_bounds",)),
    ("bound.delta", _FRACTION, 0.01, _ERROR_BOUND),
    ("bound.L_f", (lambda v: v == "probabilistic" or _nonnegative(v),
                   "a nonnegative number or 'probabilistic'"), BENCHMARK_L_F, ("tracking",)),
    ("bound.L_f", (_nonnegative, "a nonnegative number"), BENCHMARK_L_F, ("density_sweep", "episodic")),
    ("bound.delta_L", _FRACTION, 0.01, ("tracking", "validate_lipschitz")),
    ("reference.amplitude", (_number, "a finite number"), 2.0, _CLOSED_LOOP),
    ("reference.frequency", _POSITIVE, 1.0, _CLOSED_LOOP),
    ("noise_variance", _POSITIVE, 0.01, _ERROR_BOUND),
    # a seed listed twice would roll out twice, count twice and write its CSVs twice
    ("seeds", (lambda v: _list_of(_SEED)(v) and len(set(v)) == len(v),
               "a nonempty list of distinct integers of at least 0"), [0], ("tracking",)),
    # the other experiments run one seed; a second one would be dropped unread
    ("seeds", (lambda v: isinstance(v, list) and len(v) == 1 and _SEED(v[0]),
               "a list of exactly one integer of at least 0"), [0], _NOT_TRACKING),
    ("out_dir", (lambda v: isinstance(v, str) and v != "", "a nonempty path"), "runs", EXPERIMENTS),
    ("gains.theta1", (_number, "a finite number"), _REQUIRED, ("tracking",)),
    ("gains.theta2", (_number, "a finite number"), _REQUIRED, ("tracking",)),
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
    ("episodic.max_episodes", _count(0), 200, ("episodic",)),
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

    # the closed loop and its reference live in the plane; validate_lipschitz scans a line
    dim = cfg["domain"]["dimension"]
    need = 2 if exp in _CLOSED_LOOP else 1 if exp == "validate_lipschitz" else dim
    if dim != need:
        problems.append(f"domain.dimension: must be {need} for {exp}, got {dim}")
    for path in ("kernel.lengthscales", "domain.center"):
        block, _, name = path.partition(".")
        if len(cfg[block][name]) != need:
            problems.append(f"{path}: must hold one entry per dimension ({need}), got {cfg[block][name]!r}")
    family = cfg["kernel"]["family"]
    if exp in _CLOSED_LOOP and family not in kern._STATIONARY:
        problems.append(f"kernel.family: {exp} needs L_sigma, which the non-stationary {family!r} kernel lacks")
    # validate_lipschitz always derives a probabilistic L_f, tracking when asked to
    lipschitz = exp == "validate_lipschitz"
    if family == kern.MATERN32 and (lipschitz or exp in _CLOSED_LOOP and cfg["bound"]["L_f"] == "probabilistic"):
        problems.append(f"{'kernel.family' if lipschitz else 'bound.L_f'}: probabilistic Lipschitz constants need "
                        "fourth-order smoothness; Matern 3/2 is not smooth enough")
    if exp == "episodic" and cfg["episodic"]["fine_dt"] > cfg["episodic"]["horizon"]:
        problems.append(f"episodic.fine_dt: must be at most episodic.horizon, got {cfg['episodic']['fine_dt']!r}")
    if exp == "validate_bounds" and not problems:
        # the training inputs are drawn from the grid without replacement; once the
        # lengthscales hold one entry per dimension, the grid's size is a modest power
        vb = cfg["validation"]
        cells = vb["grid_points_per_axis"] ** dim
        if vb["train_points"] > cells:
            problems.append(f"validation.train_points: must be at most grid_points_per_axis ** domain.dimension "
                            f"({cells}), got {vb['train_points']!r}")
    return cfg, problems


def validate(config: dict) -> list[str]:
    """Schema and cross-field checks; returns diagnostics (empty = valid)."""
    return resolve(config)[1]


def _kernel_from(cfg: dict) -> KernelSpec:
    kb = cfg["kernel"]
    return KernelSpec(kb["family"], kb["signal_variance"], tuple(kb["lengthscales"]))


def _box_from(cfg: dict) -> bnd.DomainBox:
    db = cfg["domain"]
    return bnd.DomainBox(db["dimension"], db["edge"], np.asarray(db["center"], dtype=float))


def _reference_from(cfg: dict) -> ReferenceSpec:
    rb = cfg["reference"]
    return ReferenceSpec(rb["amplitude"], rb["frequency"])


def _theta_from(cfg: dict) -> np.ndarray:
    t1, t2 = float(cfg["gains"]["theta1"]), float(cfg["gains"]["theta2"])
    return np.array([t1 * t2, t2])


# ---------------------------------------------------------------------------
# artifact helpers
# ---------------------------------------------------------------------------

def _cells(values) -> list[str]:
    """CSV cells of one numeric column, through tolist() in one call: repr of a Python int is str(int)."""
    return list(map(repr, np.asarray(values).tolist()))


_CSV_CHUNK_ROWS = 256  # bounds the cell strings held at once (and so peak RSS)


def _write_csv(path: str, header: list[str], columns) -> None:
    """Write equally long columns as CSV rows: repr of floats, integers as such."""
    _write_csvs([(path, header, columns)])


def _write_csvs(files) -> None:
    """Write several CSVs, each a (path, header, columns) triple, in one chunked pass.

    A column object that more than one file holds is formatted once per
    chunk.  Every file gets the bytes :func:`_write_csv` writes for it.
    """
    n = max((len(columns[0]) for _, _, columns in files if columns), default=0)
    with contextlib.ExitStack() as stack:
        handles = [stack.enter_context(open(path, "w", newline="")) for path, _, _ in files]
        for fh, (_, header, _) in zip(handles, files):
            fh.write(",".join(header) + "\n")
        for lo in range(0, n, _CSV_CHUNK_ROWS):
            cells = {}
            for fh, (_, _, columns) in zip(handles, files):
                for c in columns:
                    if id(c) not in cells:
                        cells[id(c)] = _cells(c[lo:lo + _CSV_CHUNK_ROWS])
                fh.write("".join([",".join(row) + "\n" for row in zip(*(cells[id(c)] for c in columns))]))


def _write_json(path: str, obj: dict) -> None:
    with open(path, "w") as fh:
        json.dump(obj, fh, sort_keys=True, indent=2)
        fh.write("\n")


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
    grid = _grid(*(np.linspace(*cfg["data_grid"][axis]) for axis in ("x1", "x2")))
    data = [measure(grid, f, float(cfg["noise_variance"]), seed) for seed in seeds]
    first = fit(_kernel_from(cfg), data[0])
    return [first] + [first.with_targets(d.targets) for d in data[1:]]


def _run_tracking_batch(cfg: dict, out_dir: str, L_f: float, seeds) -> list[dict]:
    """Seeds of the tracking experiment, one after another; L_f is the run's, and the
    comparison ODE and the gain condition take the kernel's own L_sigma.

    One factorization serves every seed's model (:func:`_tracking_models`).
    The seeds share the config, gains and reference, so the batch decodes
    them, samples the reference on the half-step grid, checks it against the
    box and takes the posterior stddev along it once: the ``t`` and ``xref``
    columns and the ``r_ref`` in ``u`` are the same arrays for every seed.
    Each seed's eta and upsilon are formed, it is rolled out by
    :func:`run_closed_loop` and its CSVs are written before the next seed is
    rolled out, so one seed's states are held at a time.  A seed that
    diverges raises there: the seeds before it have written their
    artifacts, it and the later ones write none.
    """
    box = _box_from(cfg)
    L_k, L_sigma = bnd.kernel_constants(_kernel_from(cfg), box)
    ref = _reference_from(cfg)
    _, g, plant = benchmark_system()
    bb = cfg["bound"]
    horizon = float(cfg["horizon"])
    dt = float(cfg["fine_dt"])
    source = "probabilistic" if bb["L_f"] == "probabilistic" else "given"
    # the bound fields the run read: delta_L only when it derived L_f
    resolved_bound = {"delta": bb["delta"], "L_f": L_f, "L_f_source": source}
    if source == "probabilistic":
        resolved_bound["delta_L"] = bb["delta_L"]
    loop = closed_loop(plant, _theta_from(cfg))

    t_half = trk.half_step_times(horizon, dt)
    x_half = ref.state(t_half)
    box.require(x_half)  # a reference outside the box ends the run here, before it is rolled out
    t, x_ref, r_ref = t_half[::2], x_half[::2], ref.signal(t_half[::2])
    xref_1, xref_2 = x_ref.T
    models = _tracking_models(cfg, seeds)
    if bb["tau"] == "auto":
        reps = [bnd.auto_tau(model, bb["delta"], L_f, box) for model in models]
    else:
        reps = [bnd.bound_constants(model, float(bb["tau"]), bb["delta"], L_f, box) for model in models]
    sigma_half = models[0].predict_stddev(x_half)
    # the phase of the worst posterior uncertainty, over one period of the half-step grid (pitch dt/2)
    period = ref.period
    t_sig = float(t_half[int(np.argmax(sigma_half[: int(round(2 * period / dt)) + 1]))]) % period

    def seed_result(seed, model, rep):
        eta_half = bnd.uniform_error_bound(rep, x_half, sigma_half)
        upsilon = trk.tracking_bound_ode(loop, eta_half, L_sigma, rep.beta, v0=0.0, horizon=horizon, dt=dt)
        sim = run_closed_loop(loop, model, ref, horizon, dt)
        e = sim.error_norms
        # the applied input: the nominal one divided by g, which the plant knows exactly
        u = (-((sim.states - x_ref) @ loop.theta) + r_ref
             - model.predict_mean(sim.states)) / g(sim.states[:, 0], sim.states[:, 1])
        # phase structure: the worst tracking error should fall in the same
        # half-period of the reference as the worst posterior uncertainty
        t_e = float(t[int(np.argmax(e))]) % period
        same_half = (t_e < period / 2.0) == (t_sig < period / 2.0)

        # t and e_norm, in both run CSVs, are formatted once
        _write_csvs([
            (os.path.join(out_dir, f"tracking_run_seed{seed}.csv"),
             ["t", "e_norm", "upsilon", "eta_ref", "sigma_ref"],
             [t, e, upsilon, eta_half[::2], sigma_half[::2]]),
            (os.path.join(out_dir, f"sim_run_seed{seed}.csv"),
             ["t", "x_1", "x_2", "xref_1", "xref_2", "u", "e_norm"],
             [t, sim.states[:, 0], sim.states[:, 1], xref_1, xref_2, u, e]),
        ])
        _write_csv(
            os.path.join(out_dir, f"training_data_seed{seed}.csv"),
            [f"x_{i + 1}" for i in range(model.data.dimension)] + ["y"],
            [*model.data.inputs.T, model.data.targets],
        )
        return {
            "seed": seed,
            "certified": trk.certificate_holds(e, upsilon, sim.states, box),
            "gain_condition": trk.gain_condition(loop, L_sigma, rep.beta),
            "max_error": float(e.max()),
            "max_upsilon": float(upsilon.max()),
            "argmax_error_time": t_e,
            "argmax_sigma_time": t_sig,
            "error_peak_in_uncertain_half_period": bool(same_half),
            "bound": {**rep.to_json_dict(), "L_f_source": source},
            "resolved_bound": resolved_bound | {"tau": rep.tau},
            "zeta": loop.zeta,
            "lambda_max": loop.lambda_max,
            "L_sigma": L_sigma,
            "L_k": L_k,
        }

    return list(map(seed_result, seeds, models, reps))


def run_tracking(cfg: dict, out_dir: str, workers: int = 1) -> tuple[dict, bool]:
    """Every seed, in one contiguous batch per worker process; L_f, the one
    costly constant, is computed once, here, and handed to every batch.

    A seed's artifacts do not depend on its batch.  A seed that diverges
    ends its batch (see :func:`_run_tracking_batch`) after the earlier seeds
    of that batch have written their artifacts.
    """
    spec, box, bb = _kernel_from(cfg), _box_from(cfg), cfg["bound"]
    L_f = bnd.probabilistic_lipschitz(spec, box, bb["delta_L"]) if bb["L_f"] == "probabilistic" else float(bb["L_f"])
    batch_run = functools.partial(_run_tracking_batch, cfg, out_dir, L_f)
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
    box = _box_from(cfg)
    ref = _reference_from(cfg)
    f, _, plant = benchmark_system()
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

    L_k, L_sigma = bnd.kernel_constants(spec, box)
    n_profile = 128
    t_profile = np.arange(n_profile) * (ref.period / n_profile)
    profile_points = ref.state(t_profile)
    half_step_points = ref.state(trk.half_step_times(horizon, dt))

    rows = []
    violations = 0
    for j, pitch in enumerate(pitches):
        ax = np.linspace(lo, hi, int(round((hi - lo) / pitch)) + 1)
        grid = _grid(ax, ax)
        data = measure(grid, f, noise, seed + j)
        model = fit(spec, data)

        rho = dens.data_density_batch(model, profile_points)
        rho_min = float(rho.min())
        cert = trk.certify(model, rho_min, half_step_points, model.predict_stddev(half_step_points),
                           ref.max_speed * dt / 2.0,
                           lambda b: trk.gains_for_kappa(plant, kappa_target, L_sigma, b),
                           box, delta, L_f)
        sim = run_closed_loop(cert.loop, model, ref, horizon, dt)
        e_max = float(sim.error_norms.max())
        violations += not trk.certificate_holds(sim.error_norms, cert.upsilon_bar, sim.states, box)

        sigma_profile = model.predict_stddev(profile_points)
        _write_csv(
            os.path.join(out_dir, f"density_profile_pitch{j}.csv"),
            ["x_1", "x_2", "rho", "sigma_exact", "sigma_bound_prop10"],
            [profile_points[:, 0], profile_points[:, 1], rho, sigma_profile,
             dens.stddev_bound(rho, spec.signal_variance)],
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
    box = _box_from(cfg)
    ep = cfg["episodic"]
    config = epi.EpisodeConfig(
        target_error=float(ep["target_error"]),
        xi=float(ep["xi"]),
        horizon=float(ep["horizon"]),
        fine_dt=float(ep["fine_dt"]),
        delta=float(cfg["bound"]["delta"]),
        kernel=spec,
        reference=_reference_from(cfg),
        domain=box,
        noise_variance=float(cfg["noise_variance"]),
        L_f=float(cfg["bound"]["L_f"]),
        seed=cfg["seeds"][0],
        max_episodes=ep["max_episodes"],
    )
    reports = epi.learn_control(config)
    with open(os.path.join(out_dir, "episodes.jsonl"), "w") as fh:
        for r in reports:
            fh.write(json.dumps(r.to_json_dict(), sort_keys=True) + "\n")

    L_dk = kern.gradient_lipschitz(spec)
    L_k, L_sigma = bnd.kernel_constants(spec, box)
    n_e = epi.episode_count_bound(config.target_error, L_dk, spec.signal_variance, config.xi)
    violations = sum(r.violated for r in reports)
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

    rows = []
    covered_n = 0
    for t in range(trials):
        rng = np.random.default_rng(seed0 + t)
        fvals = prior_draw(L, rng)
        idx = rng.choice(grid.shape[0], size=n_train, replace=False)
        y = fvals[idx] + rng.normal(0.0, math.sqrt(noise), n_train)
        model = fit(spec, TrainingSet(grid[idx], y, noise))
        L_f = _axis_fd_slope(fvals, (n_axis,) * box.dimension, pitch)
        rep = bnd.bound_constants(model, tau, delta, L_f, box)
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
        "L_k": bnd.kernel_constants(spec, box)[0],
    }, coverage >= 1.0 - delta


def run_validate_lipschitz(cfg: dict, out_dir: str) -> tuple[dict, bool]:
    spec = _kernel_from(cfg)
    box = _box_from(cfg)
    draws = cfg["validation"]["draws"]
    delta_L = float(cfg["bound"]["delta_L"])
    seed0 = cfg["seeds"][0]

    L_hat = bnd.probabilistic_lipschitz(spec, box, delta_L)
    pitch = spec.ell_min / 8.0
    n = max(2, int(round(box.edge / pitch)) + 1)  # a slope needs two points, however short the interval
    grid = np.linspace(box.center[0] - box.edge / 2.0, box.center[0] + box.edge / 2.0, n)[:, None]
    pitch = float(grid[1, 0] - grid[0, 0])
    L = prior_factor(spec, grid)

    slopes = np.array([_axis_fd_slope(prior_draw(L, np.random.default_rng(seed0 + t)), (n,), pitch)
                       for t in range(draws)])
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
    gains the experiment and the resolved config and goes to ``summary.json``.
    ``workers`` serves tracking only.
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
    except CoreBuildError as exc:  # no C compiler, or a failed compile
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUILD
    except (GPCertError, ArithmeticError) as exc:  # ArithmeticError: e.g. a constant of an extreme lengthscale
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
