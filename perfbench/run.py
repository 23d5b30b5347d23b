"""End-to-end benchmark of gpcert: time to a certified result, per workload.

Usage (from the repository root)::

    python3 perfbench/run.py --workload tracking --seed 0 --seconds 60 --trace 0
    python3 perfbench/run.py                     # every workload in turn

Each workload is one experiment config generated from ``--seed``.  Every
measured ``gpcert.cli.run`` call happens in a fresh process
(``perfbench/child.py``) with default BLAS threading and one worker, and its
exit code and artifacts are checked afterwards; a run that fails either
counts toward ``fail_frac``.  A process that has not ended when the
invocation's time limit comes is killed, counted as failed and measured from
outside, so a slowdown still reads as a figure.  ``--trace 0`` reports the end-to-end metrics
(medians over the processes of the run); ``--trace 1`` alternates traced and
untraced processes and reports per-layer metrics from the traced ones (see
``perfbench/spans.py``) plus the tracing overhead.  Each workload prints the
machine, ``fail_frac`` and a metric table, then one JSON line: ``correct``,
``attempted``, ``failed`` and ``metrics``.  Samples and the machine record
also go to ``.perfbench_work/result_<workload>_trace<0|1>.json``.

``perfbench/reference.json`` holds the headline scalars (see :func:`headline`)
of one run of each workload at the default seed, made at the commit that
introduced the benchmark; runs at the default seed must reproduce them to a
relative tolerance of 1e-6.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(ROOT, ".perfbench_work")
REFERENCE = os.path.join(HERE, "reference.json")

DEFAULT_SEED = 0
REL_TOL = 1e-6
SETUP_SAMPLES = 3  # set-up-only processes per untraced run, for the setup_s median
LIMIT_S = 165.0  # per workload; an invocation must end within 180 s

_BOX = {"dimension": 2, "edge": 10.0, "center": [0.0, 0.0]}
_REFERENCE_SIGNAL = {"amplitude": 2.0, "frequency": 1.0}


def tracking_config(seed: int) -> dict:
    """Closed-loop certificate with tau and L_f derived, not given.

    Two seeds share one data grid.  The horizon is cut from 30 s to 4 s so
    that two runs fit in one measurement: auto_tau (a 200-step bisection per
    seed, about three quarters of the run) dominates, with RK4, the
    comparison ODE and CSV writing after it.
    """
    return {
        "experiment": "tracking",
        "kernel": {"family": "squared_exponential", "signal_variance": 1.0, "lengthscales": [1.0, 1.5]},
        "gains": {"theta1": 10.0, "theta2": 20.0},
        "bound": {"tau": "auto", "delta": 0.01, "L_f": "probabilistic", "delta_L": 0.01},
        "domain": _BOX,
        "data_grid": {"x1": [0.0, 3.0, 5], "x2": [-4.0, 4.0, 5]},
        "reference": _REFERENCE_SIGNAL,
        "noise_variance": 0.01,
        "horizon": 4.0,
        "fine_dt": 0.0003,
        "seeds": [2 * seed, 2 * seed + 1],
    }


def episodic_config(seed: int) -> dict:
    """Episodic data generation: 11 episodes, N grows to about 180.

    The repository config (target 0.003, fine_dt 0.0003) runs 26 episodes in
    170 s.  Here fine_dt is 0.001, which cuts RK4 steps per episode to a
    third, and the target is 0.01: a run takes 11-16 s on a 2-vCPU Xeon, so
    three or more runs fit in one measurement and their median is reported.
    """
    return {
        "experiment": "episodic",
        "kernel": {"family": "squared_exponential", "signal_variance": 1.0, "lengthscales": [0.8, 1.5]},
        "bound": {"delta": 0.01, "L_f": 2.0},
        "domain": _BOX,
        "episodic": {"target_error": 0.01, "xi": 0.95, "horizon": 2.0 * math.pi,
                     "fine_dt": 0.001, "max_episodes": 120},
        "reference": _REFERENCE_SIGNAL,
        "noise_variance": 0.01,
        "seeds": [seed],
    }


WORKLOADS = {
    "tracking": tracking_config,
    "episodic": episodic_config,
}

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "cpu_s": "s"}


# ---------------------------------------------------------------------------
# artifact checks
# ---------------------------------------------------------------------------

def headline(workload: str, summary: dict) -> dict:
    """The scalars compared against the reference at the default seed."""
    if workload == "tracking":
        return {"per_seed": [
            {"seed": r["seed"], "max_upsilon": r["max_upsilon"], "tau": r["resolved_bound"]["tau"]}
            for r in summary["per_seed"]
        ]}
    return {"episodes_run": summary["episodes_run"], "final_upsilon_bar": summary["final_upsilon_bar"]}


def _same(expected, actual) -> bool:
    if isinstance(expected, dict):
        return isinstance(actual, dict) and expected.keys() == actual.keys() and all(
            _same(expected[k], actual[k]) for k in expected
        )
    if isinstance(expected, list):
        return isinstance(actual, list) and len(expected) == len(actual) and all(
            _same(e, a) for e, a in zip(expected, actual)
        )
    if isinstance(expected, float):
        return isinstance(actual, (int, float)) and math.isclose(actual, expected, rel_tol=REL_TOL)
    return expected == actual  # integers (episodes_run, seeds) compare exactly


def check_artifacts(workload: str, out_dir: str, exit_code, reference: dict | None) -> list[str]:
    """Problems with one run's exit code and artifacts; empty means it passed."""
    if exit_code != 0:
        return [f"exit code {exit_code}"]
    try:
        with open(os.path.join(out_dir, "summary.json")) as fh:
            summary = json.load(fh)
    except (OSError, ValueError) as exc:
        return [f"summary.json unreadable: {exc}"]
    try:
        return _summary_problems(workload, summary, reference)
    except KeyError as exc:
        return [f"summary.json has no field {exc}"]


def _summary_problems(workload: str, summary: dict, reference: dict | None) -> list[str]:
    problems = []
    if workload == "tracking":
        if not summary["all_certified"]:
            problems.append("tracking: all_certified is false")
        problems += [f"tracking: seed {r['seed']} fails the gain condition"
                     for r in summary["per_seed"] if not r["gain_condition"]]
    else:
        if not summary["terminated"]:
            problems.append("episodic: not terminated")
        if summary["certificate_violations"] != 0:
            problems.append(f"episodic: {summary['certificate_violations']} certificate violations")
        if summary["episodes_run"] > summary["N_E"]:
            problems.append(f"episodic: {summary['episodes_run']} episodes exceed N_E = {summary['N_E']}")
    if reference is not None and not _same(reference, headline(workload, summary)):
        problems.append(f"{workload}: headline scalars {headline(workload, summary)} != reference {reference}")
    return problems


# ---------------------------------------------------------------------------
# processes
# ---------------------------------------------------------------------------

class SetupFailed(RuntimeError):
    """A process could not even set up: the program is missing or broken."""


def _child(mode: str, config_path: str, deadline: float, spans_path: str | None = None) -> dict:
    """Run one child process until it ends or ``deadline`` passes.

    Returns the child's own report.  A child that is killed at the deadline or
    ends without a report is measured from outside instead: its whole wall and
    CPU time and the peak RSS of any child so far, with an ``error``.
    """
    cmd = [sys.executable, os.path.join(HERE, "child.py"), mode, config_path]
    if spans_path is not None:
        cmd.append(spans_path)
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    try:
        stdout, stderr = proc.communicate(timeout=max(deadline - t0, 1.0))
        error = None
    except subprocess.TimeoutExpired:
        proc.kill()
        stdout, stderr = proc.communicate()
        error = f"{mode} process killed at the time limit after {time.perf_counter() - t0:.1f} s"
    wall = time.perf_counter() - t0
    lines = stdout.strip().splitlines()
    if error is None and proc.returncode == 0 and lines:
        return json.loads(lines[-1])
    if error is None:
        last = stderr.strip().splitlines()[-1:] or ["no output"]
        error = f"{mode} process exited with code {proc.returncode}: {last[0]}"
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    return {"error": error, "exit_code": None, "wall_s": wall,
            "cpu_s": after.ru_utime + after.ru_stime - before.ru_utime - before.ru_stime,
            "peak_rss_mb": after.ru_maxrss / 1024.0}


def _setup(config_path: str, deadline: float) -> float:
    result = _child("setup", config_path, deadline)
    if "error" in result:
        raise SetupFailed(result["error"])
    return result["setup_s"]


def measure(workload: str, config: dict, seconds: float, trace: bool, reference: dict | None) -> dict:
    """Run fresh processes for about ``seconds`` and check each run's artifacts.

    Returns the set-up times, the per-process samples by mode (a traced
    sample carries its per-layer metrics) and the failures.  Every process
    ends within ``LIMIT_S`` of the call.
    """
    base = os.path.join(WORK, workload)
    out_dir = os.path.join(base, "out")
    config_path = os.path.join(base, "config.json")
    os.makedirs(base, exist_ok=True)
    with open(config_path, "w") as fh:
        json.dump(dict(config, out_dir=out_dir), fh)

    start = time.perf_counter()
    deadline = start + LIMIT_S
    _setup(config_path, deadline)  # warm-up: file cache and bytecode, not timed
    setups = [] if trace else [_setup(config_path, deadline) for _ in range(SETUP_SAMPLES)]
    modes = ("traced", "run") if trace else ("run",)
    samples = {m: [] for m in modes}
    failures = []
    attempted = failed = 0
    slowest = 0.0  # longest round so far; a round that would end past ``seconds`` is not started
    spans_path = os.path.join(WORK, f"spans_{workload}.jsonl")
    while True:
        round_start = time.perf_counter()
        for mode in modes:
            shutil.rmtree(out_dir, ignore_errors=True)
            attempted += 1
            result = _child(mode, config_path, deadline, spans_path if mode == "traced" else None)
            problems = check_artifacts(workload, out_dir, result["exit_code"], reference)
            if result.get("error"):
                problems.insert(0, result["error"])
            failures += problems
            failed += bool(problems)
            samples[mode].append(result)
            if "setup_s" in result:
                setups.append(result["setup_s"])
        now = time.perf_counter()
        slowest = max(slowest, now - round_start)
        if now - start + slowest > seconds or now >= deadline:
            break
    return {"setups": setups, "samples": samples, "attempted": attempted, "failed": failed,
            "failures": failures, "seconds": time.perf_counter() - start}


def end_to_end_metrics(m: dict) -> dict:
    runs = m["samples"]["run"]
    return {
        "wall_s": statistics.median([s["wall_s"] for s in runs]),
        "setup_s": statistics.median(m["setups"]),
        "peak_rss_mb": statistics.median([s["peak_rss_mb"] for s in runs]),
        "cpu_s": statistics.median([s["cpu_s"] for s in runs]),
    }


def layer_metrics(m: dict) -> dict:
    traced = [s for s in m["samples"]["traced"] if "layers" in s]
    if not traced:
        return {}
    out = {name: statistics.median(s["layers"][name] for s in traced) for name in traced[0]["layers"]}
    out["trace.overhead_s"] = (statistics.median([s["wall_s"] for s in traced])
                               - statistics.median([s["wall_s"] for s in m["samples"]["run"]]))
    return out


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("bytes") or name.endswith("bytes_computed"):
        return "B"
    if name.endswith("flops_computed"):
        return "flop"
    return "count"


# ---------------------------------------------------------------------------
# machine record
# ---------------------------------------------------------------------------

def machine() -> dict:
    import ctypes

    import numpy
    import scipy
    import scipy.linalg  # noqa: F401  (loads scipy's own BLAS)

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((l.split(":", 1)[1].strip() for l in fh if l.startswith("model name")), cpu)
    except OSError:
        pass
    threads = {}
    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({l.split()[-1] for l in fh if "openblas" in l.lower() and l.split()[-1].startswith("/")})
    except OSError:
        libs = []
    for path in libs:
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(lib, sym):
                get_num_threads = getattr(lib, sym)
                get_num_threads.argtypes, get_num_threads.restype = [], ctypes.c_int
                threads[os.path.basename(path)] = get_num_threads()
                break
    blas = numpy.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": threads,
    }


# ---------------------------------------------------------------------------
# entry points
# ---------------------------------------------------------------------------

def load_reference(workload: str, seed: int) -> dict | None:
    if seed != DEFAULT_SEED:
        return None
    with open(REFERENCE) as fh:
        return json.load(fh)[workload]


def bench(workload: str, seed: int, seconds: float, trace: bool, info: dict) -> int:
    """Measure one workload and print its metrics; the last line is the result."""
    try:
        m = measure(workload, WORKLOADS[workload](seed), seconds, trace, load_reference(workload, seed))
    except SetupFailed as exc:
        print(f"error: set-up failed: {exc}", file=sys.stderr)
        return 1
    metrics = layer_metrics(m) if trace else end_to_end_metrics(m)
    units = {name: layer_unit(name) for name in metrics} if trace else END_TO_END
    result = {
        "correct": m["failed"] == 0,
        "attempted": m["attempted"],
        "failed": m["failed"],
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    record = dict(result, workload=workload, seed=seed, trace=int(trace), machine=info,
                  samples=m["samples"], setups=m["setups"], failures=m["failures"])
    with open(os.path.join(WORK, f"result_{workload}_trace{int(trace)}.json"), "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    print(f"machine {json.dumps(info, sort_keys=True)}")
    print(f"workload {workload} seed {seed} trace {int(trace)}: {m['attempted']} runs "
          f"({len(m['setups'])} set-ups) in {m['seconds']:.1f} s, fail_frac {m['failed'] / m['attempted']:.3g}")
    for problem in m["failures"]:
        print(f"FAILED: {problem}")
    for name, value in metrics.items():
        print(f"  {name:48s} {value:>16.6g} {units[name]}")
    print(json.dumps(result))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), help="default: every workload in turn")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=60.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "gpcert", "cli.py")):
        print(f"error: no gpcert sources under {ROOT}/src", file=sys.stderr)
        return 2
    info = machine()
    for workload in [args.workload] if args.workload else WORKLOADS:
        code = bench(workload, args.seed, args.seconds, bool(args.trace), info)
        if code:
            return code
    return 0


if __name__ == "__main__":
    sys.exit(main())
