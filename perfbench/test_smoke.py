"""Smoke test of the benchmark at tiny sizes.

Run from the repository root with ``python3 -m pytest perfbench/test_smoke.py``.
It checks that every metric named in BENCHMARK.json is printed with its unit,
for untraced and traced runs, that a wrong reference scalar at the default
seed makes every run count as failed, and that a run killed at the time limit
still prints its figures as a failed run.
"""

import json
import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import run as bench  # noqa: E402

with open(os.path.join(bench.ROOT, "BENCHMARK.json")) as fh:
    SPEC = json.load(fh)


def _tiny_tracking(seed):
    cfg = bench.tracking_config(seed)
    cfg["bound"].update(tau=0.01, L_f=2.0)  # skip the auto_tau bisection
    cfg["horizon"] = 0.03
    return cfg


def _tiny_episodic(seed):
    cfg = bench.episodic_config(seed)
    cfg["episodic"].update(target_error=0.2, horizon=1.0, fine_dt=0.001)
    return cfg


TINY = {"tracking": _tiny_tracking, "episodic": _tiny_episodic}


@pytest.fixture
def tiny(monkeypatch, tmp_path):
    monkeypatch.setattr(bench, "WORKLOADS", TINY)
    monkeypatch.setattr(bench, "SETUP_SAMPLES", 1)
    monkeypatch.setattr(bench, "WORK", str(tmp_path / "work"))
    reference = tmp_path / "reference.json"
    monkeypatch.setattr(bench, "REFERENCE", str(reference))
    return reference


def _result(capsys, argv):
    assert bench.main(argv) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    return lines, json.loads(lines[-1])


def test_workload_names_match_spec():
    assert sorted(w["name"] for w in SPEC["workloads"]) == sorted(bench.WORKLOADS)


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_printed_with_its_unit(tiny, capsys, trace, section):
    for workload in TINY:
        lines, result = _result(capsys, ["--workload", workload, "--seed", "5",
                                         "--seconds", "0", "--trace", str(trace)])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        expected = {m["name"]: m["unit"] for m in SPEC[section]}
        assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
        for name, unit in expected.items():
            assert any(line.split()[:1] == [name] and line.split()[-1] == unit for line in lines), name


def test_wrong_reference_scalar_fails_the_run(tiny, capsys):
    argv = ["--workload", "episodic", "--seed", str(bench.DEFAULT_SEED), "--seconds", "0"]
    tiny.write_text(json.dumps({"episodic": {"episodes_run": 1, "final_upsilon_bar": 1e6}}))
    lines, result = _result(capsys, argv)
    assert not result["correct"]
    assert result["failed"] == result["attempted"] >= 1
    assert any(line.startswith("FAILED: episodic: headline scalars") for line in lines)

    # the same run passes against the scalars it actually produced
    with open(os.path.join(bench.WORK, "episodic", "out", "summary.json")) as fh:
        tiny.write_text(json.dumps({"episodic": bench.headline("episodic", json.load(fh))}))
    _, result = _result(capsys, argv)
    assert result["correct"] and result["failed"] == 0


def test_run_killed_at_time_limit_prints_failed_result(tiny, capsys, monkeypatch):
    monkeypatch.setattr(bench, "WORKLOADS", {"tracking": bench.tracking_config})  # about 25 s a run
    monkeypatch.setattr(bench, "LIMIT_S", 3.0)
    monkeypatch.setattr(bench, "_setup", lambda config_path, deadline: 0.5)
    lines, result = _result(capsys, ["--workload", "tracking", "--seed", "1", "--seconds", "0"])
    assert not result["correct"]
    assert result["failed"] == result["attempted"] == 1
    assert set(result["metrics"]) == set(bench.END_TO_END)
    assert 2.0 < result["metrics"]["wall_s"]["value"] < 30.0
    assert any("killed at the time limit" in line for line in lines)
