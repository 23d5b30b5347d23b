"""How the compiled rollout core is built, cached and loaded.

``simulation._library`` compiles ``_rollout.c`` on first use into a cache
directory, ``simulation._CACHE``; each test below points it at an empty
directory of its own.
"""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

from gpcert import cli, simulation
from gpcert.gp import TrainingSet, fit
from gpcert.kernels import KernelSpec
from gpcert.simulation import ReferenceSpec, benchmark_plant, run_closed_loop
from gpcert.tracking import closed_loop

from conftest import benchmark_f, reference_table

CONFIGS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "configs")
SRC = os.path.join(os.path.dirname(CONFIGS), "src")


@pytest.fixture
def cold_cache(tmp_path, monkeypatch):
    """An empty cache directory, and no library loaded in this process yet."""
    cache = tmp_path / "cache"
    monkeypatch.setattr(simulation, "_CACHE", str(cache))
    simulation._library.cache_clear()
    yield cache
    simulation._library.cache_clear()


def rollout():
    X = np.random.default_rng(0).uniform(-3.0, 3.0, (9, 2))
    model = fit(KernelSpec("squared_exponential", 1.0, (0.8, 1.5)), TrainingSet(X, benchmark_f(X), 0.01))
    table = reference_table(ReferenceSpec(2.0, 1.0), 0.1, 1e-3)
    return run_closed_loop(closed_loop(benchmark_plant(), np.array([200.0, 20.0])), model, table, 1e-3)


def test_a_cold_cache_compiles_once_and_a_fresh_process_loads_without_compiling(cold_cache, monkeypatch):
    calls = []
    compile_ = simulation._compile
    monkeypatch.setattr(simulation, "_compile", lambda *args: calls.append(args) or compile_(*args))
    first = rollout()
    rollout()
    assert len(calls) == 1
    assert [p.suffix for p in cold_cache.iterdir()] == [".so"]  # no temporary file is left behind

    # a fresh process finds the library in the cache; compiling there would fail
    script = (f"from gpcert import simulation\n"
              f"simulation._CACHE = {str(cold_cache)!r}\n"
              f"def refuse(*args): raise AssertionError('compiled again')\n"
              f"simulation._compile = refuse\n"
              f"import sys; sys.path.insert(0, {os.path.dirname(os.path.abspath(__file__))!r})\n"
              f"from test_rollout_core import rollout\n"
              f"sys.stdout.buffer.write(rollout().states.tobytes())\n")
    fresh = subprocess.run([sys.executable, "-c", script], capture_output=True, env={**os.environ, "PYTHONPATH": SRC},
                           check=True)
    assert fresh.stdout == first.states.tobytes()


def test_a_cache_that_cannot_be_made_builds_a_private_library_once(cold_cache, monkeypatch, tmp_path):
    # a cache directory below a regular file cannot be made, even by root, who can write a read-only one
    cached = rollout()
    blocker = tmp_path / "blocker"
    blocker.write_bytes(b"")
    monkeypatch.setattr(simulation, "_CACHE", str(blocker / "__pycache__"))
    simulation._library.cache_clear()
    calls = []
    compile_ = simulation._compile
    monkeypatch.setattr(simulation, "_compile", lambda *args: calls.append(args) or compile_(*args))
    assert rollout().states.tobytes() == cached.states.tobytes()
    assert len(calls) == 1
    rollout()  # the private directory is gone, and the loaded library still runs
    assert len(calls) == 1
    assert blocker.read_bytes() == b"" and not os.path.exists(simulation._CACHE)


def tracking10(out_dir):
    cfg = cli.load_config(os.path.join(CONFIGS, "tracking.json"))
    cfg.update(horizon=2.0, seeds=list(range(10)), out_dir=str(out_dir))
    return cfg


@pytest.mark.parametrize("command", [["gpcert-no-such-cc"], [sys.executable, "-c", "import sys; sys.exit(3)"]],
                         ids=["missing", "failing"])
def test_a_compiler_that_cannot_build_is_one_diagnostic_line(cold_cache, monkeypatch, capsys, tmp_path, command):
    monkeypatch.setattr(simulation, "_compiler", lambda: command)
    cfg = tracking10(tmp_path / "t")
    cfg["seeds"] = [0]
    assert cli.run(cfg) == cli.EXIT_BUILD
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err.startswith("error: cannot build the rollout core: ")
    assert command[0] in err
    assert "Traceback" not in err
    assert list(cold_cache.iterdir()) == []


@pytest.mark.parametrize("experiment, cut", [
    ("validate_bounds", {"trials": 1, "grid_points_per_axis": 5, "train_points": 5}),
    ("validate_lipschitz", {"draws": 2})])
def test_an_experiment_that_only_writes_csvs_needs_the_core_too(cold_cache, monkeypatch, capsys, tmp_path,
                                                                experiment, cut):
    # the core formats every CSV cell, so a run that writes a CSV cannot end without it
    monkeypatch.setattr(simulation, "_compiler", lambda: ["gpcert-no-such-cc"])
    cfg = cli.load_config(os.path.join(CONFIGS, f"{experiment}.json"))
    cfg["validation"].update(cut)
    cfg["out_dir"] = str(tmp_path / "out")
    assert cli.run(cfg) == cli.EXIT_BUILD
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error: cannot build the rollout core: gpcert-no-such-cc")
    assert list((tmp_path / "out").iterdir()) == []  # the writer loads the core before it opens a file


def test_workers_starting_on_an_empty_cache_write_the_serial_bytes(cold_cache, tmp_path):
    # three worker processes find no library and each compiles one; their renames do not collide
    assert cli.run(tracking10(tmp_path / "w3"), workers=3) == cli.EXIT_OK
    assert len(list(cold_cache.iterdir())) == 1
    assert cli.run(tracking10(tmp_path / "w1")) == cli.EXIT_OK
    names = sorted(os.listdir(tmp_path / "w1"))
    assert len(names) == 31 and names == sorted(os.listdir(tmp_path / "w3"))
    for name in names:
        one, three = (tmp_path / "w1" / name).read_bytes(), (tmp_path / "w3" / name).read_bytes()
        if name == "summary.json":  # the resolved configs differ in out_dir alone
            one, three = (json.loads(b.replace(str(tmp_path / w).encode(), b"OUT")) for b, w in ((one, "w1"), (three, "w3")))
        assert one == three, name
