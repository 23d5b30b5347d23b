import contextlib
import dataclasses
import io
import json
import math
import os
import tracemalloc
import warnings
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import numpy as np
import scipy.linalg

from gpcert import cli, gp, simulation, tracking
from gpcert.errors import DivergenceError
from gpcert.kernels import KernelSpec
from gpcert.simulation import ReferenceSpec, benchmark_plant, measure

from conftest import benchmark_f, reference_table
from oracles import csv_bytes, scalar_closed_loop

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
    cfg = {"experiment": "tracking", "gains": {"theta1": 10, "theta2": 20}, "bound": {"delta": 1.5}}
    problems = cli.validate(cfg)
    assert any("delta" in p for p in problems)


def test_validate_rejects_matern32_probabilistic():
    cfg = {
        "experiment": "tracking",
        "gains": {"theta1": 10, "theta2": 20},
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
    rc = cli.run({"experiment": "tracking", "bound": {"delta": 2.0}, "gains": {"theta1": 1, "theta2": 1}})
    assert rc == cli.EXIT_CONFIG


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
    # validate_lipschitz always derives a probabilistic L_f, which Matern 3/2 cannot give;
    # the run used to end in exit code 4
    ("validate_lipschitz.json", "kernel", {"family": "matern32"}, "kernel.family"),
    # time fields (block None: top level); a negative horizon used to pass validate and fail in the runner
    ("tracking.json", None, {"fine_dt": 0}, "fine_dt"),
    ("tracking.json", None, {"horizon": None}, "horizon"),
    ("tracking.json", None, {"horizon": -1}, "horizon"),
    ("density_sweep.json", None, {"sim_dt": 0}, "sim_dt"),
    ("density_sweep.json", None, {"horizon": "x"}, "horizon"),
    ("density_sweep.json", None, {"horizon": -1.0}, "horizon"),
    ("episodic.json", "episodic", {"fine_dt": 0}, "episodic.fine_dt"),
    ("episodic.json", "episodic", {"horizon": None}, "episodic.horizon"),
], ids=["scalar_extent", "reversed_extent", "null_kappa", "string_pitch", "null_trials",
        "one_grid_point", "float_train_points", "zero_draws",
        "linear_tracking", "linear_density_sweep", "linear_episodic", "matern32_validate_lipschitz",
        "zero_fine_dt", "null_horizon", "negative_horizon", "zero_sim_dt", "string_horizon",
        "negative_sweep_horizon",
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


@pytest.mark.parametrize("change, point", [({"frequency": 1e300}, "[0.e+000 2.e+300]"),
                                           ({"amplitude": 1e308}, "[0.e+000 1.e+308]")],
                         ids=["frequency", "amplitude"])
def test_a_reference_far_outside_the_box_is_refused_before_it_is_rolled_out(tmp_path, capsys, change, point):
    # the box check comes before the rollout, where such a reference diverges, and before
    # r_ref = -a w^2 sin(w t), which is inf * 0 at t = 0 when w^2 overflows
    cfg = shipped_tracking_config(tmp_path / "t", "reference", change)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert cli.run(cfg) == cli.EXIT_NUMERICAL
    assert [str(w.message) for w in caught] == []
    assert capsys.readouterr().err == (f"numerical failure in tracking: point {point} outside the certified box "
                                       f"(edge 10.0, center [0. 0.])\n")


@pytest.mark.parametrize("experiment", ["density_sweep", "episodic"])
@pytest.mark.parametrize("change, point", [({"frequency": 1e300}, "[0.e+000 2.e+300]"),
                                           ({"amplitude": 1e308}, "[0.e+000 1.e+308]")],
                         ids=["frequency", "amplitude"])
def test_sweep_and_episodic_refuse_a_far_reference_before_forming_r_ref(tmp_path, capsys, experiment, change, point):
    # as in tracking: the runner samples the rollout's reference once, up front, and checks x_ref
    # against the box before r_ref, which is inf * 0 at t = 0 when w^2 overflows
    cfg = small_config(experiment, tmp_path / "out")
    cfg["reference"].update(change)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert cli.run(cfg) == cli.EXIT_NUMERICAL
    assert [str(w.message) for w in caught] == []
    assert capsys.readouterr().err == (f"numerical failure in {experiment}: point {point} outside the certified box "
                                       f"(edge 10.0, center [0. 0.])\n")


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
    # u = (-theta^T (x - x_ref) + r_ref - mu(x)) / g(x) as the rollout applied it: the scalar oracle's
    # inputs bit for bit, with the model refit from the seed's training data
    out = tmp_path / "t"
    assert cli.run(tracking_config(out, horizon=0.5)) == 0
    resolved = json.loads((out / "summary.json").read_text())["resolved_config"]
    data = np.loadtxt(out / "training_data_seed0.csv", delimiter=",", skiprows=1)
    model = gp.fit(KernelSpec("squared_exponential", 1.0, (1.0, 1.5)),
                   gp.TrainingSet(data[:, :-1], data[:, -1], resolved["noise_variance"]))
    loop = tracking.closed_loop(benchmark_plant(), cli._theta_from(resolved))
    states, inputs = scalar_closed_loop(loop, model, reference_table(cli._reference_from(resolved), 0.5, 1e-3), 1e-3)
    rows = np.loadtxt(out / "sim_run_seed0.csv", delimiter=",", skiprows=1)
    assert len(rows) == 501
    assert rows[:, 1:3].tobytes() == states.tobytes()
    assert rows[:, 5].tobytes() == inputs.tobytes()


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
    resolved = summary["per_seed"][0]["resolved_bound"]
    assert isinstance(resolved["tau"], float) and resolved["tau"] > 0
    assert isinstance(resolved["L_f"], float) and resolved["L_f"] > 0
    assert resolved["L_f_source"] == "probabilistic"
    assert summary["per_seed"][0]["bound"]["L_f_source"] == "probabilistic"
    # the summary keeps the config's own rules, which a rerun resolves again per seed
    assert summary["resolved_config"]["bound"]["tau"] == "auto"
    assert summary["resolved_config"]["bound"]["L_f"] == "probabilistic"


def test_a_resolved_bound_holds_delta_L_only_when_the_run_derived_L_f(tmp_path):
    # a given L_f leaves delta_L unread, so the summary must not echo it
    for L_f, read in ((2.0, set()), ("probabilistic", {"delta_L"})):
        out = tmp_path / str(L_f)
        cfg = tracking_config(out, horizon=0.1)
        cfg["bound"]["L_f"] = L_f
        assert cli.run(cfg) == 0
        resolved = json.loads((out / "summary.json").read_text())["per_seed"][0]["resolved_bound"]
        assert set(resolved) == {"tau", "delta", "L_f", "L_f_source"} | read, L_f


def test_an_infeasible_auto_tau_is_a_numerical_failure(tmp_path, capsys):
    # like an infeasible density-matched tau: no tau in [1e-12, r] meets the prior-scale rule
    cfg = tracking_config(tmp_path / "t", horizon=0.1)
    cfg["bound"].update(tau="auto", L_f=1e12)
    assert cli.run(cfg) == cli.EXIT_NUMERICAL
    assert "no feasible tau" in capsys.readouterr().err


def test_the_auto_tau_report_is_built_once_per_probe(tmp_path, tau_probes):
    # the report of the search's accepted probe serves the seed; none is rebuilt at its tau
    out = tmp_path / "t"
    cfg = tracking_config(out, horizon=0.1)
    cfg["bound"]["tau"] = "auto"
    assert cli.run(cfg) == 0
    assert len(tau_probes.probes) > 2
    assert [rep.tau for rep in tau_probes.reports] == tau_probes.probes
    seed = json.loads((out / "summary.json").read_text())["per_seed"][0]
    tau = seed["resolved_bound"]["tau"]
    resolved = cli.resolve(cfg)[0]
    box = cli._box_from(resolved)
    model = cli._tracking_models(resolved, [0])[0]
    fresh = tau_probes.real_constants(model, tau, 0.01, 2.0, box)
    assert seed["bound"] == {**fresh.to_json_dict(), "L_f_source": "given"}


def test_every_tracking_csv_ends_its_lines_with_a_line_feed_only(tmp_path):
    out = tmp_path / "t"
    assert cli.run(tracking_config(out, seeds=(0, 1), horizon=0.1)) == 0
    csvs = sorted(out.glob("*.csv"))
    assert len(csvs) == 6
    for path in csvs:
        body = read_bytes(path)
        assert body.endswith(b"\n") and b"\r" not in body, path.name


def test_an_auto_tau_summary_reruns_every_seed(tmp_path):
    # each seed's model resolves its own tau, so the summary must not pin seed 0's
    out = tmp_path / "t"
    cfg = tracking_config(out, seeds=(0, 1), horizon=0.5)
    cfg["bound"]["tau"] = "auto"
    assert cli.run(cfg) == 0
    names = [f"{stem}_seed{seed}.csv" for seed in (0, 1) for stem in ("tracking_run", "sim_run", "training_data")]
    first = {name: read_bytes(out / name) for name in names}
    summary = json.loads((out / "summary.json").read_text())
    taus = [r["resolved_bound"]["tau"] for r in summary["per_seed"]]
    assert taus[0] != taus[1]
    assert cli.run(summary["resolved_config"]) == 0
    for name, blob in first.items():
        assert read_bytes(out / name) == blob, name
    assert json.loads((out / "summary.json").read_text()) == summary


def test_training_data_holds_the_measurements_of_its_seed(tmp_path):
    out = tmp_path / "t"
    assert cli.run(tracking_config(out, seeds=(0, 3), horizon=0.1)) == 0
    # the default data grid, x1 slowest
    grid = np.array([[x1, x2] for x1 in np.linspace(0.0, 3.0, 5) for x2 in np.linspace(-4.0, 4.0, 5)])
    for seed in (0, 3):
        data = measure(grid, 0.01, seed)
        rows = [f"{x1!r},{x2!r},{y!r}\n" for (x1, x2), y in zip(data.inputs.tolist(), data.targets.tolist())]
        assert read_bytes(out / f"training_data_seed{seed}.csv") == ("x_1,x_2,y\n" + "".join(rows)).encode()


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
    assert "violated" not in (out / "episodes.jsonl").read_text()


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


@pytest.mark.parametrize("experiment, count", [("tracking", 3), ("density_sweep", 2), ("episodic", 0),
                                               ("validate_bounds", 1), ("validate_lipschitz", 1)])
def test_every_csv_of_a_small_run_is_the_oracles_bytes(tmp_path, monkeypatch, experiment, count):
    expected = {}
    write = cli._write_csv

    def spy(path, header, columns):
        expected[os.path.basename(path)] = csv_bytes(header, columns)
        write(path, header, columns)

    monkeypatch.setattr(cli, "_write_csv", spy)
    out = tmp_path / "out"
    assert cli.run(small_config(experiment, out)) in (cli.EXIT_OK, cli.EXIT_CERTIFICATE)
    assert len(expected) == count
    assert sorted(p.name for p in out.glob("*.csv")) == sorted(expected)
    for name, blob in expected.items():
        assert read_bytes(out / name) == blob, name


def set_field(cfg, path, value):
    block, _, name = path.rpartition(".")
    (cfg.setdefault(block, {}) if block else cfg)[name] = value


@pytest.mark.parametrize("experiment, path, value, field", [
    # each of these used to end in a traceback
    ("episodic", "episodic.max_episodes", None, "episodic.max_episodes"),
    ("tracking", "gains", {}, "gains.theta1"),
    ("tracking", "gains", 5, "gains"),
    ("tracking", "gains.theta1", None, "gains.theta1"),
    ("tracking", "bound.delta", None, "bound.delta"),
    ("density_sweep", "bound.delta", None, "bound.delta"),
    ("episodic", "bound.delta", None, "bound.delta"),
    ("validate_lipschitz", "bound.delta_L", None, "bound.delta_L"),
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
    # each of these passed validate and then failed in the runner, with no path or a numpy message
    ("validate_lipschitz", "domain.dimension", 2, "domain.dimension"),
    ("validate_lipschitz", "domain.center", [0.0, 0.0], "domain.center"),
    ("validate_lipschitz", "kernel.lengthscales", [1.0, 1.0], "kernel.lengthscales"),
    ("tracking", "domain.dimension", 3, "domain.dimension"),
    ("tracking", "kernel.lengthscales", [1.0, 1.0, 1.0], "kernel.lengthscales"),
    ("tracking", "domain.center", [0.0], "domain.center"),
    ("validate_bounds", "kernel.lengthscales", [1.0], "kernel.lengthscales"),
    ("episodic", "episodic.fine_dt", 1.0, "episodic.fine_dt"),
    # the gains are two finite numbers, theta1 and theta2; the list spelling theta is gone
    ("tracking", "gains", {"theta": [200, 20]}, "gains.theta1"),
    ("tracking", "gains.theta1", "a", "gains.theta1"),
    ("tracking", "gains.theta2", True, "gains.theta2"),
    ("tracking", "gains.theta2", [1, 2, 3], "gains.theta2"),
    ("tracking", "gains.theta1", "ab", "gains.theta1"),
    ("tracking", "gains.theta1", [[1, 2]], "gains.theta1"),
    # each of these passed validate and then failed in the runner with numpy's message and no path
    ("tracking", "seeds", [0, -1], "seeds"),
    ("tracking", "seeds", [1, 1], "seeds"),  # this one ran the seed twice and counted it twice
    ("density_sweep", "seeds", [-1], "seeds"),
    ("episodic", "seeds", [-1], "seeds"),  # this one used to run: its noise seeds are seed + 1000003 i, i >= 1
    ("validate_bounds", "seeds", [-1], "seeds"),
    ("validate_lipschitz", "seeds", [-1], "seeds"),
    ("validate_bounds", "validation.train_points", 26, "validation.train_points"),  # 5 ** 2 = 25 grid points
], ids=["null_max_episodes", "empty_gains", "scalar_gains", "null_theta1", "null_delta_tracking",
        "null_delta_density_sweep", "null_delta_episodic", "null_delta_L", "scalar_kernel",
        "scalar_out_dir", "infinite_horizon_tracking", "infinite_horizon_density_sweep", "true_tau",
        "true_noise_variance", "true_seed", "true_trials", "true_grid_count", "infinite_noise_variance",
        "nan_horizon", "nan_amplitude", "probabilistic_L_f_density_sweep", "probabilistic_L_f_episodic",
        "auto_tau_validate_bounds", "dimension_2_validate_lipschitz", "two_center_coordinates_validate_lipschitz",
        "two_lengthscales_validate_lipschitz", "dimension_3_tracking", "three_lengthscales_tracking",
        "one_center_coordinate_tracking", "one_lengthscale_validate_bounds",
        "fine_dt_above_horizon_episodic", "theta_list_gains", "non_numeric_gains", "true_theta", "three_theta",
        "string_theta", "nested_theta", "negative_seed_tracking", "duplicate_seeds_tracking",
        "negative_seed_density_sweep", "negative_seed_episodic", "negative_seed_validate_bounds", "negative_seed_validate_lipschitz",
        "train_points_above_grid_validate_bounds"])
def test_run_reports_malformed_fields_by_path(tmp_path, capsys, experiment, path, value, field):
    cfg = small_config(experiment, tmp_path / "out")
    set_field(cfg, path, value)
    assert cli.run(cfg) == cli.EXIT_CONFIG
    assert capsys.readouterr().err.startswith(f"config error: {field}:")


def test_validate_lipschitz_on_a_short_interval_and_at_extreme_lengthscales(tmp_path, capsys):
    # an interval shorter than half a pitch had a one-point grid and no slope; the derivative-kernel
    # constants of an extreme lengthscale overflow, and where l ** 3 underflows to 0 or overflows
    # (1e-120, 1e110) they cannot be formed at all: a config error, no longer a numerical failure
    short = cli.load_config(str(CONFIGS / "validate_lipschitz.json"))
    short.update(out_dir=str(tmp_path / "short"))
    short["domain"]["edge"] = 0.05
    assert cli.run(short) == cli.EXIT_OK
    assert (tmp_path / "short" / "lipschitz_trials.csv").exists()
    for ell, code, prefix in [(1e-60, cli.EXIT_NUMERICAL, "numerical failure in validate_lipschitz:"),
                              (1e-100, cli.EXIT_NUMERICAL, "numerical failure in validate_lipschitz:"),
                              (1e-105, cli.EXIT_NUMERICAL, "numerical failure in validate_lipschitz:"),
                              (1e-120, cli.EXIT_CONFIG, "config error: kernel.lengthscales:"),
                              (1e110, cli.EXIT_CONFIG, "config error: kernel.lengthscales:")]:
        cfg = lipschitz_config(tmp_path / "extreme")
        cfg["kernel"]["lengthscales"] = [ell]
        capsys.readouterr()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cli.run(cfg) == code, ell
        assert capsys.readouterr().err.startswith(prefix), ell


@pytest.mark.parametrize("family, power", [("squared_exponential", 3), ("matern52", 2)])
def test_a_probabilistic_lf_takes_lengthscales_whose_power_is_a_positive_finite_double(family, power):
    # the derivative-kernel constants divide sigma_f^2 by l ** power: find the smallest and the largest
    # double at which that power is positive and finite, by bisection on the bit patterns
    def ok(v):
        try:
            return v ** power > 0.0
        except OverflowError:
            return False

    def as_float(bits):
        return float(np.uint64(bits).view(np.float64))

    def edge(lo, hi):  # ok(as_float(lo)) != ok(as_float(hi)); the last bits on lo's side
        while hi - lo > 1:
            mid = (lo + hi) // 2
            lo, hi = (mid, hi) if ok(as_float(mid)) == ok(as_float(lo)) else (lo, mid)
        return as_float(lo), as_float(hi)

    one, inf = int(np.float64(1.0).view(np.uint64)), int(np.float64(math.inf).view(np.uint64))
    below, smallest = edge(0, one)
    largest, above = edge(one, inf)
    assert {3: (1.3e-108, 1.4e-108, 5.6e102, 5.7e102), 2: (1.5e-162, 1.6e-162, 1.3e154, 1.4e154)}[power] \
        == pytest.approx((smallest, smallest, largest, largest), rel=0.05)
    tracking = tracking_config("unused")
    tracking["kernel"]["family"] = family
    tracking["bound"]["L_f"] = "probabilistic"
    lipschitz = lipschitz_config("unused")
    lipschitz["kernel"]["family"] = family
    for cfg, bad in ((tracking, [[1.0, below], [above, 1.0]]), (lipschitz, [[below], [above]])):
        for good in ([smallest] * len(bad[0]), [largest] * len(bad[0])):
            cfg["kernel"]["lengthscales"] = good
            assert cli.validate(cfg) == [], good
        for ls in bad:
            cfg["kernel"]["lengthscales"] = ls
            problems = cli.validate(cfg)
            assert len(problems) == 1 and problems[0].startswith("kernel.lengthscales:"), ls
    # a given L_f forms no derivative-kernel constants, so it takes any positive lengthscale
    tracking["bound"]["L_f"] = 2.0156
    assert cli.validate(tracking) == []


@pytest.mark.parametrize("ell", [1e-100, 1e-105])
def test_a_probabilistic_lf_that_overflows_or_goes_nan_is_a_numerical_failure(tmp_path, capsys, ell):
    # L_f came out inf (1e-100) or, with the NaN dropped by a max, finite and unsound (1e-105), and the
    # run exited 0 with every seed "certified"
    out = tmp_path / "t"
    cfg = shipped_tracking_config(out, "kernel", {"lengthscales": [ell, ell]})
    cfg["bound"]["L_f"] = "probabilistic"
    cfg["horizon"] = 0.5
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli.run(cfg) == cli.EXIT_NUMERICAL
    err = capsys.readouterr().err
    assert err.startswith("numerical failure in tracking:") and err.count("\n") == 1
    assert not out.exists() or not any(out.iterdir())


def test_a_probabilistic_lf_that_overflows_names_the_axis_its_lengthscale_and_sigma_f2(tmp_path, capsys):
    # (sigma_f^2 / l^3)^2 overflows at l = 1e-60 on the first axis; the one line names where
    cfg = shipped_tracking_config(tmp_path / "t", "kernel", {"signal_variance": 2.5, "lengthscales": [1e-60, 1e-60]})
    cfg["bound"]["L_f"] = "probabilistic"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli.run(cfg) == cli.EXIT_NUMERICAL
    err = capsys.readouterr().err
    assert err.startswith("numerical failure in tracking: derivative-kernel constants of axis 1 at lengthscale "
                          "1e-60 and signal variance 2.5: overflow encountered in ")
    assert err.count("\n") == 1


@pytest.mark.parametrize("experiment", ["tracking", "density_sweep", "validate_bounds"])
def test_a_grid_too_large_for_memory_is_a_numerical_failure(tmp_path, capsys, monkeypatch, experiment):
    # sweep.pitches [1e-4] asks numpy for 47.7 GiB; a host that overcommits would grant a real
    # request, so the grid builder raises as numpy does when it cannot allocate
    message = "Unable to allocate 47.7 GiB for an array with shape (80001, 80001) and data type float64"

    def refuse(*axes):
        raise MemoryError(message)

    monkeypatch.setattr(cli, "_grid", refuse)
    assert cli.run(small_config(experiment, tmp_path / "out")) == cli.EXIT_NUMERICAL
    assert capsys.readouterr().err == f"numerical failure in {experiment}: {message}\n"


@pytest.mark.parametrize("family", ["matern52", "squared_exponential"])
def test_tracking_at_a_tiny_lengthscale_runs_without_runtime_warnings(tmp_path, capsys, family):
    # at lengthscale 1e-200 every scaled distance between distinct points overflows: the Matern
    # kernel gave NaN (inf * 0) and a config error, and both families warned of the overflow
    cfg = shipped_tracking_config(tmp_path / "t", "kernel", {"family": family, "lengthscales": [1e-200, 1.0]})
    cfg["horizon"] = 0.5
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert cli.run(cfg) == cli.EXIT_OK
    assert "Warning" not in capsys.readouterr().err


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


@pytest.mark.parametrize("experiment", ["density_sweep", "episodic"])
def test_a_negative_amplitude_runs_as_a_positive_one_does(tmp_path, experiment):
    # max_speed is |a| w max(1, w); with a < 0 it was negative, and certify refused the negative arc
    for a in (2.0, -2.0):
        cfg = small_config(experiment, tmp_path / str(a))
        cfg["reference"]["amplitude"] = a
        assert cli.run(cfg) == cli.EXIT_OK, a


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
    cfg, problems = cli.resolve({"experiment": "tracking", "gains": {"theta1": 10.0, "theta2": 20.0}})
    assert problems == []
    assert cfg["horizon"] == 30.0 and cfg["fine_dt"] == 3e-4
    assert cfg["data_grid"] == {"x1": [0.0, 3.0, 5], "x2": [-4.0, 4.0, 5]}
    assert cfg["bound"] == {"tau": 0.01, "delta": 0.01, "L_f": 2.0156, "delta_L": 0.01}
    assert not {"sim_dt", "sweep", "episodic", "validation"} & set(cfg)
    cfg, problems = cli.resolve({"experiment": "validate_lipschitz", "unknown": {"kept": 1}})
    assert problems == []
    assert cfg["validation"] == {"draws": 500} and cfg["unknown"] == {"kept": 1}
    assert cfg["bound"] == {"delta_L": 0.01}
    assert not {"horizon", "gains", "plant", "reference", "noise_variance"} & set(cfg)


def test_resolve_leaves_its_argument_alone():
    config = {"experiment": "density_sweep", "sweep": {"pitches": [1.0]}}
    cfg, problems = cli.resolve(config)
    assert problems == [] and cfg["sweep"]["kappa"] == 10.0 and cfg["sweep"]["extent"] == [-4.0, 4.0]
    assert config == {"experiment": "density_sweep", "sweep": {"pitches": [1.0]}}


class Recording(dict):
    """A config block that records the dotted path of every key read from it."""

    def __init__(self, block, reads, prefix=""):
        super().__init__({k: Recording(v, reads, f"{prefix}{k}.") if isinstance(v, dict) else v
                          for k, v in block.items()})
        self.reads, self.prefix = reads, prefix

    def __getitem__(self, key):
        self.reads.add(self.prefix + key)
        return super().__getitem__(key)

    def get(self, key, default=None):
        self.reads.add(self.prefix + key)
        return super().get(key, default)


def fields_read(experiment, out_dir, **bound):
    """The schema paths that the runner of a SMALL config reads, its bound block updated by ``bound``."""
    cfg = small_config(experiment, out_dir)
    cfg["bound"].update(bound)
    resolved, problems = cli.resolve(cfg)
    assert problems == []
    reads = set()
    out_dir.mkdir()
    runner = cli.run_tracking if experiment == "tracking" else cli._RUNNERS[experiment]
    runner(Recording(resolved, reads), str(out_dir))
    paths = {path for path, *_ in cli._SCHEMA}
    # a read of a block ("kernel") names no field; a read inside a field ("gains.theta1") is that field's
    return {next((p for p in paths if r == p or r.startswith(p + ".")), r)
            for r in reads if not any(p.startswith(r + ".") for p in paths)}


@pytest.mark.parametrize("experiment", sorted(SMALL))
def test_each_experiment_has_a_schema_row_for_exactly_the_fields_its_runner_reads(tmp_path, experiment):
    read = fields_read(experiment, tmp_path / "given")
    if experiment == "tracking":  # bound.delta_L serves only a probabilistic L_f
        read |= fields_read(experiment, tmp_path / "probabilistic", L_f="probabilistic")
    rows = {path for path, _, _, experiments in cli._SCHEMA if experiment in experiments}
    assert read | {"out_dir"} == rows  # run reads out_dir and hands it to the runner


@pytest.mark.parametrize("experiment", sorted(SMALL))
def test_every_experiment_reruns_from_its_resolved_config(tmp_path, experiment):
    out = tmp_path / "out"
    assert cli.run(small_config(experiment, out)) == cli.EXIT_OK
    first = {path.name: read_bytes(path) for path in out.iterdir()}
    out.rename(tmp_path / "first")  # the rerun must write every artifact afresh
    assert cli.run(json.loads(first["summary.json"])["resolved_config"]) == cli.EXIT_OK
    assert {path.name: read_bytes(path) for path in out.iterdir()} == first


def test_a_plant_block_passes_through_unread(tmp_path):
    # the reference solves x_ref' = A x_ref + b r_ref for the benchmark double integrator
    # only, so the closed loop always simulates that plant; a plant block used to replace it
    plant = {"A": [[0.0, 1.0], [-40.0, 0.0]], "b": [0.0, 1.0]}
    given = small_config("tracking", tmp_path / "given")
    changed = {**small_config("tracking", tmp_path / "changed"), "plant": plant}
    assert cli.run(given) == cli.run(changed) == cli.EXIT_OK
    for name in ("tracking_run_seed0.csv", "sim_run_seed0.csv"):
        assert read_bytes(tmp_path / "changed" / name) == read_bytes(tmp_path / "given" / name), name
    assert json.loads((tmp_path / "changed" / "summary.json").read_text())["resolved_config"]["plant"] == plant


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
    # seed 3 alone fits its own model; inside seeds 0-9 its model reuses seed 0's factorization
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

    def f(x1, x2):
        return benchmark_f(np.column_stack([x1, x2]))

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
        x1, x2 = g1.ravel(), g2.ravel()
        h = 1e-6
        d1 = (f(x1 + h, x2) - f(x1 - h, x2)) / (2.0 * h)
        d2 = (f(x1, x2 + h) - f(x1, x2 - h)) / (2.0 * h)
        grid_max = float(np.sqrt(d1 * d1 + d2 * d2).max())
        assert 2.0 < grid_max <= analytic + 1e-8, name  # the old L_f = 2.0 was below it
        assert L_f >= analytic and L_f >= grid_max, name
        # a config that omits L_f is certified with the default, which must bound the gradient too
        cfg = cli.load_config(str(CONFIGS / name))
        del cfg["bound"]["L_f"]
        resolved, problems = cli.resolve(cfg)
        assert problems == [], name
        default = resolved["bound"]["L_f"]
        assert default >= analytic and default >= grid_max, name


CHUNK = simulation._CSV_CHUNK_BYTES // (simulation._CELL_BYTES * 4)  # rows of one chunk of b.csv below


@pytest.mark.parametrize("rows", [0, 1, CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK + 1],
                         ids=["0", "1", "chunk-1", "chunk", "chunk+1", "2chunks+1"])
def test_the_writer_writes_the_oracle_bytes_across_chunk_boundaries(tmp_path, rows):
    rng = np.random.default_rng(rows)
    t = rng.standard_normal(rows)
    counts = np.arange(rows) * 7  # an integer column, in both files
    listed = [float(v) for v in rng.standard_normal(rows)]  # not an ndarray
    files = [("a.csv", ["t", "k", "x"], [t, counts, rng.standard_normal(rows)]),
             ("b.csv", ["t", "l", "k", "t"], [t, listed, counts, t[::-1]])]
    for name, header, columns in files:
        cli._write_csv(str(tmp_path / name), header, columns)
        body = read_bytes(tmp_path / name)
        assert body.count(b"\n") == rows + 1
        assert body == csv_bytes(header, columns), name


def test_each_seed_is_one_rollout_after_one_factor_serially_and_with_workers(tmp_path, monkeypatch):
    seeds, horizon = range(5), 0.5
    assert cli.run(tracking_config(tmp_path / "fanned", seeds=seeds, horizon=horizon), workers=2) == 0
    rollouts, factors = [], []
    run_closed_loop, cholesky = cli.run_closed_loop, scipy.linalg.cholesky

    def counted_rollout(loop, model, *args):
        rollouts.append(model)
        return run_closed_loop(loop, model, *args)

    def counted_factor(*args, **kwargs):
        factors.append(args[0].shape)
        return cholesky(*args, **kwargs)

    monkeypatch.setattr(cli, "run_closed_loop", counted_rollout)
    monkeypatch.setattr(scipy.linalg, "cholesky", counted_factor)
    assert cli.run(tracking_config(tmp_path / "serial", seeds=seeds, horizon=horizon)) == 0
    assert len(rollouts) == 5 and all(isinstance(m, gp.GPModel) for m in rollouts)
    assert factors == [(25, 25)]  # once per worker batch
    serial_files, _, serial = tracking_outputs(tmp_path / "serial", seeds)
    fanned_files, _, fanned = tracking_outputs(tmp_path / "fanned", seeds)
    assert fanned_files == serial_files
    for summary in (serial, fanned):
        del summary["resolved_config"]["out_dir"]
    assert fanned == serial


def test_each_runner_samples_the_rollouts_reference_once(tmp_path, monkeypatch):
    # the rollouts read their runner's samples of x_ref and r_ref: one state and one signal call on
    # the half-step grid per run, whatever its seeds, pitches or episodes
    calls = []
    state, signal = ReferenceSpec.state, ReferenceSpec.signal
    monkeypatch.setattr(ReferenceSpec, "state", lambda self, t: calls.append(("state", t)) or state(self, t))
    monkeypatch.setattr(ReferenceSpec, "signal", lambda self, t: calls.append(("signal", t)) or signal(self, t))
    sweep = small_config("density_sweep", tmp_path / "sweep")
    sweep["sweep"]["pitches"] = [2.0, 1.6]
    episodic = small_config("episodic", tmp_path / "episodic")
    episodic["episodic"].update(target_error=0.1, horizon=2.0 * math.pi, fine_dt=0.01)
    period = 2.0 * math.pi  # the shipped reference's frequency is 1
    runs = [(tracking_config(tmp_path / "tracking", seeds=range(3), horizon=0.5), 0.5, 1e-3, None),
            (sweep, 0.1, 1e-3, np.arange(128) * (period / 128)),
            (episodic, 2.0 * math.pi, 0.01, None)]
    for cfg, horizon, dt, other in runs:
        calls.clear()
        assert cli.run(cfg) == cli.EXIT_OK
        grid = tracking.half_step_times(horizon, dt)
        on_grid = [name for name, t in calls if np.array_equal(t, grid)]
        assert sorted(on_grid) == ["signal", "state"], cfg["experiment"]
        # the sweep's density profile is another grid; the episodic certificate reads the rollout's table
        rest = [(name, t) for name, t in calls if not np.array_equal(t, grid)]
        assert [name for name, _ in rest] == ([] if other is None else ["state"]), cfg["experiment"]
        assert other is None or np.array_equal(rest[0][1], other)
    assert json.loads((tmp_path / "episodic" / "summary.json").read_text())["episodes_run"] >= 2


def test_an_episode_shorter_than_the_period_is_certified_over_its_horizon(tmp_path):
    # each certificate covers the reference the next rollout visits, here half a period; over a whole
    # period it demanded a small variance where no episode measures, and the ladder could not reach it
    out = tmp_path / "half"
    cfg = small_config("episodic", out)
    cfg["episodic"].update(target_error=0.1, horizon=math.pi, fine_dt=0.01)
    assert cli.run(cfg) == cli.EXIT_OK
    summary = json.loads((out / "summary.json").read_text())
    assert summary["terminated"] and summary["episodes_run"] == 3
    assert summary["certificate_violations"] == 0


def test_a_diverging_seed_ends_its_batch_after_the_earlier_seeds_wrote(tmp_path, monkeypatch, capsys):
    horizon, fits = 0.5, []
    tracking_models = cli._tracking_models

    def models_with_overflowing_weights_for_the_third_seed(cfg, seeds):
        fits.extend(dataclasses.replace(m, alpha=m.alpha * 1e308) if k == 2 else m
                    for k, m in enumerate(tracking_models(cfg, seeds)))
        return fits

    monkeypatch.setattr(cli, "_tracking_models", models_with_overflowing_weights_for_the_third_seed)
    out = tmp_path / "t"
    cfg = tracking_config(out, seeds=range(5), horizon=horizon)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # the overflow itself, in the bound constants
        rc = cli.run(cfg)
    assert rc == cli.EXIT_NUMERICAL
    # the message is the third seed's own divergence
    resolved, _ = cli.resolve(cfg)
    loop = tracking.closed_loop(benchmark_plant(), cli._theta_from(resolved))
    table = reference_table(cli._reference_from(resolved), horizon, 1e-3)
    with pytest.raises(DivergenceError) as alone:
        cli.run_closed_loop(loop, fits[2], table, 1e-3)
    assert capsys.readouterr().err == f"numerical failure in tracking: {alone.value}\n"
    # seeds 0 and 1 wrote their artifacts; seed 2 stopped the batch before writing any
    assert sorted(p.name for p in out.glob("*.csv")) == sorted(
        f"{stem}_seed{seed}.csv" for seed in (0, 1) for stem in ("tracking_run", "sim_run", "training_data"))


def test_a_batch_holds_one_seeds_states_at_a_time(tmp_path):
    # numpy reports its buffers to tracemalloc; at this horizon the rollouts, not the set-up,
    # make the peak, and four more seeds may add well under one seed's states to it
    horizon = 10.0
    states = 2 * 8 * (tracking.step_count(horizon, 1e-3) + 1)

    def peak(seeds):
        cfg, problems = cli.resolve(tracking_config(tmp_path / f"s{len(seeds)}", seeds=seeds, horizon=horizon))
        assert problems == []
        os.makedirs(cfg["out_dir"])
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            cli._run_tracking_batch(cfg, cfg["out_dir"], 2.0, cfg["seeds"])
            return tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()

    peak([7])  # warm-up: the compiled core and first-call caches are loaded
    two = peak(range(2))
    assert two > 10 * states  # the states arrays are traced at all
    assert peak(range(6)) <= two + states // 4
