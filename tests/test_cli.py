import contextlib
import dataclasses
import io
import json
import math
import os
import warnings
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import numpy as np
import scipy.linalg

from gpcert import cli, gp
from gpcert.kernels import KernelSpec
from gpcert.simulation import ReferenceSpec, benchmark_system

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def read_bytes(path):
    with open(path, "rb") as fh:
        return fh.read()


def lipschitz_config(out_dir, draws=40):
    return {
        "experiment": "validate_lipschitz",
        "kernel": {"family": "squared_exponential", "signal_variance": 1.0, "lengthscales": [1.0]},
        "domain": {"dimension": 1, "edge": 10.0, "center": [0.0]},
        "bound": {"delta_L": 0.01},
        "validation": {"draws": draws},
        "seeds": [0],
        "out_dir": str(out_dir),
    }


def tracking_config(out_dir, seeds=(0,), horizon=3.0, dt=1e-3):
    return {
        "experiment": "tracking",
        "kernel": {"family": "squared_exponential", "signal_variance": 1.0, "lengthscales": [1.0, 1.5]},
        "gains": {"theta1": 10.0, "theta2": 20.0},
        "bound": {"tau": 0.01, "delta": 0.01, "L_f": 2.0, "delta_L": 0.01},
        "horizon": horizon,
        "fine_dt": dt,
        "seeds": list(seeds),
        "out_dir": str(out_dir),
    }


def test_validate_rejects_bad_delta():
    cfg = {"experiment": "tracking", "gains": {"theta": [200, 20]}, "bound": {"delta": 1.5}}
    problems = cli.validate(cfg)
    assert any("delta" in p for p in problems)


def test_validate_rejects_matern32_probabilistic():
    cfg = {
        "experiment": "tracking",
        "gains": {"theta": [200, 20]},
        "kernel": {"family": "matern32", "signal_variance": 1.0, "lengthscales": [1.0, 1.0]},
        "bound": {"L_f": "probabilistic"},
    }
    problems = cli.validate(cfg)
    assert any("probabilistic" in p for p in problems)


def test_validate_accepts_benchmark(tmp_path):
    assert cli.validate(tracking_config(tmp_path)) == []


@pytest.mark.parametrize("path", sorted(CONFIGS.glob("*.json")), ids=lambda p: p.name)
def test_validate_accepts_shipped_configs(path):
    assert cli.validate(cli.load_config(str(path))) == []


def test_validate_rejects_unknown_experiment():
    assert cli.validate({"experiment": "nope"})


def test_run_returns_config_error_code(tmp_path):
    rc = cli.run({"experiment": "tracking", "bound": {"delta": 2.0}, "gains": {"theta": [1, 1]}})
    assert rc == cli.EXIT_CONFIG


@pytest.mark.parametrize("change", [
    {"kernel": {"family": "squared_exponential", "signal_variance": 1.0, "lengthscales": [1.0, 1.0, 1.0]}},
    {"plant": {"A": [[0.0, 0.0], [0.0, 0.0]], "b": [0.0, 1.0]}},
    {"horizon": -1},
    {"gains": {"theta": ["a", "b"]}},
], ids=["kernel_dimension", "uncontrollable_plant", "negative_horizon", "non_numeric_gains"])
def test_run_maps_malformed_values_to_config_error(tmp_path, capsys, change):
    cfg = tracking_config(tmp_path / "t", horizon=0.1)
    cfg.update(change)
    assert cli.validate(cfg) == []
    assert cli.run(cfg) == cli.EXIT_CONFIG
    assert capsys.readouterr().err.startswith("config error: ")


@pytest.mark.parametrize("block, change, field", [
    ("domain", {"dimension": "2"}, "domain.dimension"),
    ("domain", {"edge": "10"}, "domain.edge"),
    ("reference", {"amplitude": "x"}, "reference.amplitude"),
    ("data_grid", {"x1": [0.0, 3.0], "x2": [-4.0, 4.0, 5]}, "data_grid.x1"),
], ids=["string_dimension", "string_edge", "string_amplitude", "two_entry_grid_axis"])
def test_validate_rejects_wrongly_typed_fields(tmp_path, capsys, block, change, field):
    cfg = tracking_config(tmp_path / "t", horizon=0.1)
    cfg[block] = change
    assert any(p.startswith(field + ":") for p in cli.validate(cfg))
    assert cli.run(cfg) == cli.EXIT_CONFIG
    assert capsys.readouterr().err.startswith(f"config error: {field}:")


@pytest.mark.parametrize("name, block, change, field", [
    ("density_sweep.json", "sweep", {"extent": 5}, "sweep.extent"),
    ("density_sweep.json", "sweep", {"extent": [4.0, -4.0]}, "sweep.extent"),
    ("density_sweep.json", "sweep", {"kappa": None}, "sweep.kappa"),
    ("density_sweep.json", "sweep", {"pitches": [1.0, "x"]}, "sweep.pitches"),
    ("validate_bounds.json", "validation", {"trials": None}, "validation.trials"),
    ("validate_bounds.json", "validation", {"grid_points_per_axis": 1}, "validation.grid_points_per_axis"),
    ("validate_bounds.json", "validation", {"train_points": 2.5}, "validation.train_points"),
    ("validate_lipschitz.json", "validation", {"draws": 0}, "validation.draws"),
    # the certificates need L_sigma; a linear-kernel tracking run used to drop
    # the L_sigma zeta sqrt(beta) drift term and certify unsoundly
    ("tracking.json", "kernel", {"family": "linear"}, "kernel.family"),
    ("density_sweep.json", "kernel", {"family": "linear"}, "kernel.family"),
    ("episodic.json", "kernel", {"family": "linear"}, "kernel.family"),
    # time fields (block None: top level); a negative horizon reaches the runner
    ("tracking.json", None, {"fine_dt": 0}, "fine_dt"),
    ("tracking.json", None, {"horizon": None}, "horizon"),
    ("density_sweep.json", None, {"sim_dt": 0}, "sim_dt"),
    ("density_sweep.json", None, {"horizon": "x"}, "horizon"),
    ("episodic.json", "episodic", {"fine_dt": 0}, "episodic.fine_dt"),
    ("episodic.json", "episodic", {"horizon": None}, "episodic.horizon"),
], ids=["scalar_extent", "reversed_extent", "null_kappa", "string_pitch", "null_trials",
        "one_grid_point", "float_train_points", "zero_draws",
        "linear_tracking", "linear_density_sweep", "linear_episodic",
        "zero_fine_dt", "null_horizon", "zero_sim_dt", "string_horizon",
        "zero_episodic_fine_dt", "null_episodic_horizon"])
def test_validate_rejects_bad_fields_in_shipped_configs(tmp_path, capsys, name, block, change, field):
    cfg = cli.load_config(str(CONFIGS / name))
    if block is None:
        cfg.update(change)
    else:
        cfg[block] = {**cfg[block], **change}
    cfg["out_dir"] = str(tmp_path / "out")
    assert any(p.startswith(field + ":") for p in cli.validate(cfg))
    assert cli.run(cfg) == cli.EXIT_CONFIG
    assert capsys.readouterr().err.startswith(f"config error: {field}:")


def shipped_tracking_config(out_dir, block, change):
    """configs/tracking.json cut to seed 0 over 2 s, with one block changed."""
    cfg = cli.load_config(str(CONFIGS / "tracking.json"))
    cfg[block] = {**cfg[block], **change}
    cfg.update(horizon=2.0, seeds=[0], out_dir=str(out_dir))
    return cfg


def test_tracking_states_outside_the_box_are_not_certified(tmp_path):
    # the reference stays on the edge of a box of half-edge 2; the states leave it
    out = tmp_path / "t"
    assert cli.run(shipped_tracking_config(out, "domain", {"edge": 4.0})) == cli.EXIT_CERTIFICATE
    summary = json.loads((out / "summary.json").read_text())
    assert not summary["all_certified"]
    assert not summary["per_seed"][0]["certified"]


def test_tracking_reference_outside_the_box_is_refused(tmp_path, capsys):
    cfg = shipped_tracking_config(tmp_path / "t", "reference", {"amplitude": 6.0})
    assert cli.run(cfg) == cli.EXIT_NUMERICAL
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "outside the certified box" in err


def test_validate_accepts_non_stationary_kernel_for_bound_validation():
    cfg = cli.load_config(str(CONFIGS / "validate_bounds.json"))
    cfg["kernel"]["family"] = "linear"
    assert cli.validate(cfg) == []


def test_cli_main_validate(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(lipschitz_config(tmp_path / "out")))
    assert cli.main(["validate", "--config", str(path)]) == 0
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"experiment": "nope"}))
    assert cli.main(["validate", "--config", str(bad)]) == cli.EXIT_CONFIG
    assert cli.main(["validate", "--config", str(tmp_path / "missing.json")]) == cli.EXIT_CONFIG


def test_cli_main_run_with_overrides(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(lipschitz_config(tmp_path / "ignored")))
    out = tmp_path / "actual"
    rc = cli.main(["run", "--config", str(path), "--out", str(out), "--seed", "3"])
    assert rc == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["resolved_config"]["seeds"] == [3]


def test_byte_identical_reruns(tmp_path):
    out = tmp_path / "v"
    cfg = lipschitz_config(out)
    assert cli.run(cfg) == 0
    first = {
        name: read_bytes(out / name)
        for name in ("summary.json", "lipschitz_trials.csv")
    }
    assert cli.run(cfg) == 0
    for name, blob in first.items():
        assert read_bytes(out / name) == blob


def test_tracking_run_round_trip(tmp_path):
    out = tmp_path / "t"
    cfg = tracking_config(out)
    assert cli.run(cfg) == 0
    artifacts = ["tracking_run_seed0.csv", "sim_run_seed0.csv", "training_data_seed0.csv"]
    first = {name: read_bytes(out / name) for name in artifacts}
    summary = json.loads((out / "summary.json").read_text())
    # re-feed the resolved config: outputs must be identical
    assert cli.run(summary["resolved_config"]) == 0
    for name, blob in first.items():
        assert read_bytes(out / name) == blob
    summary2 = json.loads((out / "summary.json").read_text())
    assert summary2 == summary
    assert summary["per_seed"][0]["bound"]["L_f_source"] == "given"


def test_tracking_csv_headers(tmp_path):
    out = tmp_path / "t"
    cfg = tracking_config(out)
    assert cli.run(cfg) == 0
    assert read_bytes(out / "tracking_run_seed0.csv").splitlines()[0] == b"t,e_norm,upsilon,eta_ref,sigma_ref"
    assert read_bytes(out / "sim_run_seed0.csv").splitlines()[0] == b"t,x_1,x_2,xref_1,xref_2,u,e_norm"
    assert read_bytes(out / "training_data_seed0.csv").splitlines()[0] == b"x_1,x_2,y"


def test_tracking_csv_records_the_applied_input(tmp_path):
    # u = (-theta^T (x - x_ref) + r_ref - mu(x)) / g(x), with the model refit from the seed's
    # training data and every term evaluated one point at a time
    out = tmp_path / "t"
    assert cli.run(tracking_config(out, horizon=0.5)) == 0
    resolved = json.loads((out / "summary.json").read_text())["resolved_config"]
    ref = ReferenceSpec(resolved["reference"]["amplitude"], resolved["reference"]["frequency"])
    model = gp.fit(KernelSpec("squared_exponential", 1.0, (1.0, 1.5)),
                   gp.TrainingSet.from_csv(out / "training_data_seed0.csv", resolved["noise_variance"]))
    _, g, _ = benchmark_system()
    theta = np.array([200.0, 20.0])  # [theta1 * theta2, theta2] of the config's gains
    rows = np.loadtxt(out / "sim_run_seed0.csv", delimiter=",", skiprows=1)
    assert len(rows) == 501
    for t, x1, x2, r1, r2, u, _ in rows[::25]:
        x = np.array([x1, x2])
        assert [r1, r2] == pytest.approx(ref.state(t).tolist(), rel=1e-12, abs=1e-12)
        nominal = -float(theta @ (x - [r1, r2])) + float(ref.signal(t)) - model.predict_mean(x)
        assert u == pytest.approx(nominal / float(g(x)), rel=1e-12, abs=1e-12)


def test_tracking_workers_match_serial(tmp_path):
    out1 = tmp_path / "serial"
    out2 = tmp_path / "parallel"
    cfg1 = tracking_config(out1, seeds=(0, 1), horizon=1.0)
    cfg2 = tracking_config(out2, seeds=(0, 1), horizon=1.0)
    assert cli.run(cfg1, workers=1) == 0
    assert cli.run(cfg2, workers=2) == 0
    for seed in (0, 1):
        for stem in ("tracking_run", "sim_run", "training_data"):
            name = f"{stem}_seed{seed}.csv"
            assert read_bytes(out1 / name) == read_bytes(out2 / name), name
    summaries = [json.loads((out / "summary.json").read_text()) for out in (out1, out2)]
    for summary in summaries:
        del summary["resolved_config"]["out_dir"]
    assert summaries[0]["per_seed"] == summaries[1]["per_seed"]
    assert summaries[0] == summaries[1]


def test_episodic_zero_episode_exit(tmp_path):
    out = tmp_path / "e"
    cfg = {
        "experiment": "episodic",
        "kernel": {"family": "squared_exponential", "signal_variance": 1.0, "lengthscales": [0.8, 1.5]},
        "bound": {"delta": 0.01, "L_f": 2.0},
        "episodic": {"target_error": 10.0, "xi": 0.95, "horizon": 2 * math.pi, "fine_dt": 3e-4},
        "seeds": [0],
        "out_dir": str(out),
    }
    assert cli.run(cfg) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["episodes_run"] == 0
    assert summary["terminated"]
    lines = (out / "episodes.jsonl").read_text().strip().splitlines()
    assert len(lines) == 1
    row = json.loads(lines[0])
    assert row["episode"] == 0 and row["T_s"] is None


def test_density_sweep_artifact_schemas(tmp_path):
    out = tmp_path / "ds"
    cfg = {
        "experiment": "density_sweep",
        "kernel": {"family": "squared_exponential", "signal_variance": 1.0, "lengthscales": [1.0, 1.5]},
        "bound": {"delta": 0.01, "L_f": 2.0},
        "sweep": {"pitches": [2.0, 1.0], "kappa": 10.0, "extent": [-4.0, 4.0]},
        "horizon": 1.0,
        "sim_dt": 1e-3,
        "seeds": [0],
        "out_dir": str(out),
    }
    assert cli.run(cfg) == 0
    profile_header = read_bytes(out / "density_profile_pitch0.csv").splitlines()[0]
    assert profile_header == b"x_1,x_2,rho,sigma_exact,sigma_bound_prop10"
    sweep_header = read_bytes(out / "density_sweep.csv").splitlines()[0]
    assert sweep_header.startswith(b"rho_min,upsilon_bar,e_max")
    summary = json.loads((out / "summary.json").read_text())
    for key in ("beta", "gamma", "L_mu", "lambda_max", "zeta", "kappa", "rho_min", "tau"):
        assert key in summary["rows"][0]
    assert "L_sigma" in summary


def test_episodic_cap_exit_code(tmp_path):
    cfg = {
        "experiment": "episodic",
        "kernel": {"family": "squared_exponential", "signal_variance": 1.0, "lengthscales": [0.8, 1.5]},
        "bound": {"delta": 0.01, "L_f": 2.0},
        "episodic": {"target_error": 1e-6, "xi": 0.95, "horizon": 2 * math.pi,
                      "fine_dt": 3e-4, "max_episodes": 1},
        "seeds": [0],
        "out_dir": str(tmp_path / "cap"),
    }
    assert cli.run(cfg) == cli.EXIT_NUMERICAL


def test_auto_tau_and_probabilistic_lf_resolve(tmp_path):
    out = tmp_path / "t"
    cfg = tracking_config(out, horizon=1.0)
    cfg["bound"]["tau"] = "auto"
    cfg["bound"]["L_f"] = "probabilistic"
    assert cli.run(cfg) == 0
    summary = json.loads((out / "summary.json").read_text())
    resolved = summary["resolved_config"]["bound"]
    assert isinstance(resolved["tau"], float) and resolved["tau"] > 0
    assert isinstance(resolved["L_f"], float) and resolved["L_f"] > 0
    assert resolved["L_f_source"] == "probabilistic"
    assert summary["per_seed"][0]["bound"]["L_f_source"] == "probabilistic"


def test_episodic_states_outside_the_box_are_violations(tmp_path):
    # every rollout tracks a reference on the edge of a box of half-edge 2,
    # so its states leave the box and no episode's certificate covers them
    out = tmp_path / "e"
    cfg = {
        "experiment": "episodic",
        "kernel": {"family": "squared_exponential", "signal_variance": 1.0, "lengthscales": [0.8, 1.5]},
        "bound": {"delta": 0.01, "L_f": 2.0},
        "domain": {"dimension": 2, "edge": 4.0, "center": [0.0, 0.0]},
        "episodic": {"target_error": 0.1, "xi": 0.95, "horizon": 2 * math.pi, "fine_dt": 3e-3},
        "seeds": [0],
        "out_dir": str(out),
    }
    assert cli.run(cfg) == cli.EXIT_CERTIFICATE
    summary = json.loads((out / "summary.json").read_text())
    assert summary["episodes_run"] > 0
    assert summary["certificate_violations"] == summary["episodes_run"]
    # the flag stays out of the per-episode artifact
    assert "states_left_box" not in (out / "episodes.jsonl").read_text()


def test_tracking_reports_failed_gain_condition(tmp_path, capsys):
    out = tmp_path / "t"
    assert cli.run(shipped_tracking_config(out, "gains", {"theta1": 1.0, "theta2": 1.0})) == cli.EXIT_OK
    summary = json.loads((out / "summary.json").read_text())
    assert summary["all_certified"] and not summary["all_gain_conditions"]
    assert not summary["per_seed"][0]["gain_condition"]
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "gain condition" in err


def test_tracking_reports_gain_conditions_that_hold(tmp_path, capsys):
    out = tmp_path / "t"
    assert cli.run(tracking_config(out, horizon=1.0)) == cli.EXIT_OK
    assert json.loads((out / "summary.json").read_text())["all_gain_conditions"]
    assert capsys.readouterr().err == ""


# ---------------------------------------------------------------------------
# the config schema: every malformed field ends in exit code 2 and its path
# ---------------------------------------------------------------------------

SMALL = {  # block (None: top level) -> fields that cut a shipped config to a fraction of a second
    "tracking": {None: {"horizon": 0.1, "seeds": [0]}},
    "density_sweep": {None: {"horizon": 0.1}, "sweep": {"pitches": [2.0]}},
    "episodic": {"episodic": {"target_error": 10.0, "horizon": 0.1, "fine_dt": 0.01}},  # stops at episode 0
    "validate_bounds": {"validation": {"trials": 1, "grid_points_per_axis": 5, "train_points": 5}},
    "validate_lipschitz": {"validation": {"draws": 2}},
}


def small_config(experiment, out_dir):
    """configs/<experiment>.json, cut by SMALL, writing to out_dir."""
    cfg = cli.load_config(str(CONFIGS / f"{experiment}.json"))
    for block, fields in SMALL[experiment].items():
        (cfg if block is None else cfg[block]).update(fields)
    cfg["out_dir"] = str(out_dir)
    return cfg


def set_field(cfg, path, value):
    block, _, name = path.rpartition(".")
    (cfg.setdefault(block, {}) if block else cfg)[name] = value


@pytest.mark.parametrize("experiment, path, value, field", [
    # each of these used to end in a traceback
    ("episodic", "episodic.max_episodes", None, "episodic.max_episodes"),
    ("tracking", "gains", {}, "gains"),
    ("tracking", "gains", 5, "gains"),
    ("tracking", "gains.theta1", None, "gains"),
    ("tracking", "bound.delta", None, "bound.delta"),
    ("density_sweep", "bound.delta", None, "bound.delta"),
    ("episodic", "bound.delta", None, "bound.delta"),
    ("validate_lipschitz", "bound.delta_L", None, "bound.delta_L"),
    ("tracking", "plant", 5, "plant"),
    ("tracking", "kernel", 5, "kernel"),
    ("tracking", "out_dir", 5, "out_dir"),
    ("tracking", "horizon", math.inf, "horizon"),
    ("density_sweep", "horizon", math.inf, "horizon"),
    # each of these used to be accepted: true is not a number or a count
    ("tracking", "bound.tau", True, "bound.tau"),
    ("tracking", "noise_variance", True, "noise_variance"),
    ("tracking", "seeds", [True], "seeds"),
    ("validate_bounds", "validation.trials", True, "validation.trials"),
    ("tracking", "data_grid.x1", [0.0, 3.0, True], "data_grid.x1"),
    # and these used to reach the runner: no infinity or NaN in a variance, time or amplitude
    ("tracking", "noise_variance", math.inf, "noise_variance"),
    ("tracking", "horizon", math.nan, "horizon"),
    ("episodic", "reference.amplitude", math.nan, "reference.amplitude"),
    # only tracking resolves these strings; the others used to fail on float() with no path
    ("density_sweep", "bound.L_f", "probabilistic", "bound.L_f"),
    ("episodic", "bound.L_f", "probabilistic", "bound.L_f"),
    ("validate_bounds", "bound.tau", "auto", "bound.tau"),
], ids=["null_max_episodes", "empty_gains", "scalar_gains", "null_theta1", "null_delta_tracking",
        "null_delta_density_sweep", "null_delta_episodic", "null_delta_L", "scalar_plant", "scalar_kernel",
        "scalar_out_dir", "infinite_horizon_tracking", "infinite_horizon_density_sweep", "true_tau",
        "true_noise_variance", "true_seed", "true_trials", "true_grid_count", "infinite_noise_variance",
        "nan_horizon", "nan_amplitude", "probabilistic_L_f_density_sweep", "probabilistic_L_f_episodic",
        "auto_tau_validate_bounds"])
def test_run_reports_malformed_fields_by_path(tmp_path, capsys, experiment, path, value, field):
    cfg = small_config(experiment, tmp_path / "out")
    set_field(cfg, path, value)
    assert cli.run(cfg) == cli.EXIT_CONFIG
    assert capsys.readouterr().err.startswith(f"config error: {field}:")


@pytest.mark.parametrize("experiment", ["density_sweep", "episodic", "validate_bounds", "validate_lipschitz"])
def test_one_seed_experiments_reject_a_second_seed(tmp_path, capsys, experiment):
    # these runners read one seed; a second one used to be dropped without a word
    cfg = small_config(experiment, tmp_path / "out")
    cfg["seeds"] = [0, 1]
    assert cli.run(cfg) == cli.EXIT_CONFIG
    assert capsys.readouterr().err.startswith("config error: seeds: must be a list of exactly one integer")
    assert not (tmp_path / "out").exists()
    # --seed N replaces the list with one seed
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert cli.main(["run", "--config", str(path), "--seed", "1"]) != cli.EXIT_CONFIG
    assert json.loads((tmp_path / "out" / "summary.json").read_text())["resolved_config"]["seeds"] == [1]


FUZZ_POOL = [None, True, "x", [], {}, 5, -1, 0, 2, math.nan, math.inf, [1.0, "x"]]
FUZZ_OUTCOMES = (cli.EXIT_OK, cli.EXIT_CONFIG, cli.EXIT_CERTIFICATE, cli.EXIT_NUMERICAL)


@settings(deadline=None, max_examples=300)
@given(experiment=st.sampled_from(sorted(SMALL)),
       path=st.sampled_from(sorted({path for path, *_ in cli._SCHEMA})),
       value=st.sampled_from(FUZZ_POOL))
def test_any_schema_field_set_to_any_pool_value_ends_in_an_exit_code(tmp_path_factory, experiment, path, value):
    # the pool holds no large count and no tiny time step, so no draw can allocate a huge grid
    work = tmp_path_factory.mktemp("fuzz")
    cfg = small_config(experiment, work / "out")
    set_field(cfg, path, value)
    err = io.StringIO()
    cwd = os.getcwd()
    os.chdir(work)  # a relative out_dir such as "x" lands here
    try:
        with warnings.catch_warnings(record=True) as caught, contextlib.redirect_stderr(err):
            warnings.simplefilter("always")
            code = cli.run(cfg)  # a traceback fails the test
    finally:
        os.chdir(cwd)
    assert code in FUZZ_OUTCOMES
    assert [str(w.message) for w in caught] == []  # the CLI would print each to stderr
    for line in err.getvalue().splitlines():
        assert line.startswith(("config error: ", "numerical failure in ", "note: ")), line


def test_resolved_config_holds_the_defaults_of_its_experiment_only():
    cfg, problems = cli.resolve({"experiment": "tracking", "gains": {"theta": [200.0, 20.0]}})
    assert problems == []
    assert cfg["horizon"] == 30.0 and cfg["fine_dt"] == 3e-4
    assert cfg["data_grid"] == {"x1": [0.0, 3.0, 5], "x2": [-4.0, 4.0, 5]}
    assert cfg["bound"] == {"tau": 0.01, "delta": 0.01, "L_f": 2.0, "delta_L": 0.01}
    assert not {"sim_dt", "sweep", "episodic", "validation"} & set(cfg)
    cfg, problems = cli.resolve({"experiment": "validate_lipschitz", "unknown": {"kept": 1}})
    assert problems == []
    assert cfg["validation"] == {"draws": 500} and cfg["unknown"] == {"kept": 1}
    assert "horizon" not in cfg and "gains" not in cfg


def test_resolve_leaves_its_argument_alone():
    config = {"experiment": "density_sweep", "sweep": {"pitches": [1.0]}}
    cfg, problems = cli.resolve(config)
    assert problems == [] and cfg["sweep"]["kappa"] == 10.0 and cfg["sweep"]["extent"] == [-4.0, 4.0]
    assert config == {"experiment": "density_sweep", "sweep": {"pitches": [1.0]}}


def test_cli_main_rejects_a_config_that_is_not_an_object(tmp_path, capsys):
    path = tmp_path / "list.json"
    path.write_text("[1, 2]")
    assert cli.main(["validate", "--config", str(path)]) == cli.EXIT_CONFIG
    assert cli.main(["run", "--config", str(path), "--seed", "1"]) == cli.EXIT_CONFIG
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 2 and all(line.startswith("config error: cannot read ") for line in err)


def test_one_pitch_density_sweep_has_no_slope(tmp_path):
    out = tmp_path / "ds"
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a line through one point used to raise a RankWarning
        assert cli.run(small_config("density_sweep", out)) == cli.EXIT_OK
    summary = json.loads((out / "summary.json").read_text())
    assert summary["slope_log_upsilon_vs_log_rho"] is None and summary["slope_log_e_max_vs_log_rho"] is None


def test_out_dir_naming_a_file_is_a_config_error(tmp_path, capsys):
    path = tmp_path / "file"
    path.write_text("")
    assert cli.run(small_config("validate_lipschitz", path)) == cli.EXIT_CONFIG
    assert capsys.readouterr().err.startswith("config error: out_dir: ")


CERTIFICATE_KEYS = {"upsilon_bar", "tau", "beta", "gamma", "L_mu", "kappa", "lambda_max", "zeta"}


def test_episode_and_density_sweep_rows_hold_exactly_their_keys(tmp_path):
    ep, ds = tmp_path / "ep", tmp_path / "ds"
    assert cli.run(small_config("episodic", ep)) == cli.EXIT_OK
    assert cli.run(small_config("density_sweep", ds)) == cli.EXIT_OK
    episodes = [json.loads(line) for line in (ep / "episodes.jsonl").read_text().splitlines()]
    assert episodes and all(set(row) == CERTIFICATE_KEYS | {
        "episode", "T_s", "theta", "N", "observed_max_error", "rho_min", "T_s_lower_bound", "max_speed",
    } for row in episodes)
    rows = json.loads((ds / "summary.json").read_text())["rows"]
    assert rows and all(set(row) == CERTIFICATE_KEYS | {"pitch", "n_train", "rho_min", "e_max"} for row in rows)


def tracking_outputs(out, seeds):
    files = {f"{stem}_seed{seed}.csv": read_bytes(out / f"{stem}_seed{seed}.csv")
             for seed in seeds for stem in ("tracking_run", "sim_run", "training_data")}
    summary = json.loads((out / "summary.json").read_text())
    return files, {r["seed"]: r for r in summary["per_seed"]}, summary


def test_a_seeds_artifacts_do_not_depend_on_its_batch(tmp_path):
    # seed 3 stepped alone takes the one-seed stepper, inside seeds 0-9 the batched one
    assert cli.run(tracking_config(tmp_path / "alone", seeds=(3,), horizon=0.5)) == 0
    assert cli.run(tracking_config(tmp_path / "batch", seeds=range(10), horizon=0.5)) == 0
    alone, alone_rows, _ = tracking_outputs(tmp_path / "alone", (3,))
    batch, batch_rows, _ = tracking_outputs(tmp_path / "batch", range(10))
    for name, body in alone.items():
        assert batch[name] == body, name
    assert batch_rows[3] == alone_rows[3]


@pytest.mark.parametrize("workers", [2, 3])
def test_uneven_worker_batches_match_serial(tmp_path, workers):
    seeds = range(5)
    assert cli.run(tracking_config(tmp_path / "serial", seeds=seeds, horizon=0.5)) == 0
    assert cli.run(tracking_config(tmp_path / "fanned", seeds=seeds, horizon=0.5), workers=workers) == 0
    serial_files, _, serial = tracking_outputs(tmp_path / "serial", seeds)
    fanned_files, _, fanned = tracking_outputs(tmp_path / "fanned", seeds)
    assert fanned_files == serial_files
    for summary in (serial, fanned):
        del summary["resolved_config"]["out_dir"]
    assert fanned == serial


def test_a_diverging_seed_in_a_batch_is_a_numerical_failure(tmp_path, monkeypatch, capsys):
    fits = []
    tracking_models = cli._tracking_models

    def models_with_overflowing_weights_for_the_second_seed(cfg, seeds):
        # one model per seed of the batch, in order
        models = tracking_models(cfg, seeds)
        fits.extend(models)
        return [dataclasses.replace(m, alpha=m.alpha * 1e308) if k == 1 else m for k, m in enumerate(models)]

    monkeypatch.setattr(cli, "_tracking_models", models_with_overflowing_weights_for_the_second_seed)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # the overflow itself, in the bound constants
        rc = cli.run(tracking_config(tmp_path / "t", seeds=(0, 1, 2), horizon=0.5))
    assert rc == cli.EXIT_NUMERICAL
    assert len(fits) == 3
    assert capsys.readouterr().err.startswith("numerical failure in tracking: state diverged at t = ")


def test_tracking_factors_once_per_batch(tmp_path, monkeypatch):
    factors = []
    cholesky = scipy.linalg.cholesky

    def counted(*args, **kwargs):
        factors.append(args[0].shape)
        return cholesky(*args, **kwargs)

    monkeypatch.setattr(scipy.linalg, "cholesky", counted)
    assert cli.run(tracking_config(tmp_path / "t", seeds=(0, 1, 2), horizon=0.2)) == 0
    assert factors == [(25, 25)]
    rows = [json.loads((tmp_path / "t" / "summary.json").read_text())["per_seed"][k]["max_error"] for k in range(3)]
    assert len(set(rows)) == 3  # each seed keeps its own data


def test_shipped_lipschitz_constants_bound_the_benchmark_gradient():
    # grad f = (-2 cos 2 x1, s(x2) (1 - s(x2))) with s the logistic function, largest at x1 = k pi / 2, x2 = 0
    analytic = math.sqrt(2.0 ** 2 + 0.25 ** 2)
    f, _, _ = benchmark_system()
    given = {}
    for path in sorted(CONFIGS.glob("*.json")):
        cfg = cli.load_config(str(path))
        L_f = cfg.get("bound", {}).get("L_f")
        if isinstance(L_f, (int, float)):
            given[path.name] = (L_f, cfg["domain"])
    assert set(given) == {"density_sweep.json", "episodic.json", "tracking.json"}
    for name, (L_f, domain) in given.items():
        half = domain["edge"] / 2.0
        axes = [np.linspace(c - half, c + half, 1001) for c in domain["center"]]
        g1, g2 = np.meshgrid(*axes, indexing="ij")
        pts = np.column_stack([g1.ravel(), g2.ravel()])
        h = 1e-6
        d1 = (f(pts + [h, 0.0]) - f(pts - [h, 0.0])) / (2.0 * h)
        d2 = (f(pts + [0.0, h]) - f(pts - [0.0, h])) / (2.0 * h)
        grid_max = float(np.sqrt(d1 * d1 + d2 * d2).max())
        assert 2.0 < grid_max <= analytic + 1e-8, name  # the old L_f = 2.0 was below it
        assert L_f >= analytic and L_f >= grid_max, name
