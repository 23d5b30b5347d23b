"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
report as it executes.  The heavy experiments (closed-loop certificate,
density sweep, episodic run) exercise the CLI end to end and inspect its
artifacts rather than re-implementing the pipelines.
"""

import json
import math

import numpy as np
import pytest

from gpcert import cli
from gpcert.density import data_density
from gpcert.episodic import episode_count_bound
from gpcert.kernels import (
    SQUARED_EXPONENTIAL,
    KernelSpec,
    gradient_lipschitz,
    kernel_diag,
)
from gpcert.tracking import LinearPlant, closed_loop

from conftest import random_kernel, random_model
from oracles import density_variance_bound, variance_bound_general, variance_bound_stationary
from test_density import brute_force_density


def report(num, description, ok, detail=""):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {description} {detail}".rstrip())
    assert ok, f"criterion {num} failed: {description} {detail}"


def test_criterion_1_uniform_bound_coverage(tmp_path):
    cfg = {
        "experiment": "validate_bounds",
        "kernel": {"family": "squared_exponential", "signal_variance": 1.0, "lengthscales": [1.0, 1.0]},
        "bound": {"tau": 0.01, "delta": 0.01},
        "validation": {"trials": 200, "grid_points_per_axis": 41, "train_points": 25},
        "noise_variance": 0.01,
        "seeds": [0],
        "out_dir": str(tmp_path / "vb"),
    }
    rc = cli.run(cfg)
    s = json.loads((tmp_path / "vb" / "summary.json").read_text())
    ok = rc == 0 and s["trials"] == 200 and s["coverage"] >= 0.99
    report(1, "uniform-bound coverage over 200 prior draws",
           ok, f"(coverage = {s['coverage']:.3f})")


def test_criterion_2_probabilistic_lipschitz_coverage(tmp_path):
    cfg = {
        "experiment": "validate_lipschitz",
        "kernel": {"family": "squared_exponential", "signal_variance": 1.0, "lengthscales": [1.0]},
        "domain": {"dimension": 1, "edge": 10.0, "center": [0.0]},
        "bound": {"delta_L": 0.01},
        "validation": {"draws": 500},
        "seeds": [0],
        "out_dir": str(tmp_path / "vl"),
    }
    rc = cli.run(cfg)
    s = json.loads((tmp_path / "vl" / "summary.json").read_text())
    ok = rc == 0 and s["draws"] == 500 and s["coverage"] >= 0.99
    report(2, "probabilistic Lipschitz coverage over 500 prior draws",
           ok, f"(coverage = {s['coverage']:.3f}, L_hat = {s['L_f_hat']:.1f})")


def test_criterion_3_variance_bound_dominance():
    rng = np.random.default_rng(30)
    violations = 0
    checked = 0
    for _ in range(1000):
        spec = random_kernel(rng, d=int(rng.integers(1, 4)))
        m = random_model(rng, spec, n=int(rng.integers(1, 21)))
        x = rng.uniform(-3, 3, spec.dim)
        exact_var = m.predict_var(x)
        if exact_var > variance_bound_general(m, x) + 1e-9:
            violations += 1
        if spec.stationary and exact_var > variance_bound_stationary(m, x) + 1e-9:
            violations += 1
        if float(kernel_diag(spec, x[None, :])[0]) > 1e-9:
            if math.sqrt(exact_var) > density_variance_bound(m, x) + 1e-9:
                violations += 1
        checked += 1
    ok = checked == 1000 and violations == 0
    report(3, "variance bounds dominate the exact variance on 1000 instances",
           ok, f"({violations} violations)")


def test_criterion_4_density_oracle_equivalence():
    rng = np.random.default_rng(40)
    worst = 0.0
    checked = 0
    while checked < 200:
        spec = random_kernel(rng, d=int(rng.integers(1, 3)))
        m = random_model(rng, spec, n=int(rng.integers(1, 21)))
        x = rng.uniform(-3, 3, spec.dim)
        if float(kernel_diag(spec, x[None, :])[0]) <= 1e-9:
            continue
        exact = data_density(m, x).rho
        grid = brute_force_density(m, x)
        denom = max(abs(exact), 1e-12)
        worst = max(worst, abs(exact - grid) / denom)
        checked += 1
    ok = worst <= 1e-6
    report(4, "breakpoint density equals the 1e6-point grid oracle on 200 instances",
           ok, f"(worst relative gap = {worst:.2e})")


@pytest.fixture(scope="module")
def tracking_artifacts(tmp_path_factory):
    out = tmp_path_factory.mktemp("tracking")
    cfg = {
        "experiment": "tracking",
        "kernel": {"family": "squared_exponential", "signal_variance": 1.0, "lengthscales": [1.0, 1.5]},
        "gains": {"theta1": 10.0, "theta2": 20.0},
        "bound": {"tau": 0.01, "delta": 0.01, "L_f": 2.0, "delta_L": 0.01},
        "data_grid": {"x1": [0.0, 3.0, 5], "x2": [-4.0, 4.0, 5]},
        "horizon": 30.0,
        "fine_dt": 3e-4,
        "noise_variance": 0.01,
        "seeds": list(range(10)),
        "out_dir": str(out),
    }
    rc = cli.run(cfg)
    return rc, out, json.loads((out / "summary.json").read_text())


def test_criterion_5_tracking_certificate(tracking_artifacts):
    rc, out, s = tracking_artifacts
    per_seed = s["per_seed"]
    certified = sum(r["certified"] for r in per_seed)
    gain_ok = all(r["gain_condition"] for r in per_seed)
    phase = sum(r["error_peak_in_uncertain_half_period"] for r in per_seed)
    # within-period sign property: binned max error correlates with binned
    # max posterior stddev along the reference
    rows = np.genfromtxt(out / "tracking_run_seed0.csv", delimiter=",", names=True)
    phase_angle = np.mod(rows["t"], 2 * math.pi)
    bins = np.minimum((phase_angle / (2 * math.pi) * 8).astype(int), 7)
    e_bin = np.array([rows["e_norm"][bins == b].max() for b in range(8)])
    s_bin = np.array([rows["sigma_ref"][bins == b].max() for b in range(8)])
    corr = float(np.corrcoef(e_bin, s_bin)[0, 1])
    ok = rc == 0 and certified == 10 and gain_ok and phase == 10 and corr > 0
    report(5, "closed-loop certificate holds in 10/10 seeded benchmark runs",
           ok, f"(certified {certified}/10, phase {phase}/10, bin corr {corr:.2f})")


def test_criterion_6_density_sweep_slope(tmp_path):
    cfg = {
        "experiment": "density_sweep",
        "kernel": {"family": "squared_exponential", "signal_variance": 1.0, "lengthscales": [1.0, 1.5]},
        "bound": {"delta": 0.01, "L_f": 2.0},
        "sweep": {"pitches": [2.0, 1.6, 1.2, 1.0, 0.8, 0.6, 0.5, 0.4, 0.32, 0.25, 0.2],
                   "kappa": 10.0, "extent": [-4.0, 4.0]},
        "horizon": 2 * math.pi,
        "sim_dt": 1e-3,
        "noise_variance": 0.01,
        "seeds": [0],
        "out_dir": str(tmp_path / "ds"),
    }
    rc = cli.run(cfg)
    s = json.loads((tmp_path / "ds" / "summary.json").read_text())
    slope = s["slope_log_upsilon_vs_log_rho"]
    slope_obs = s["slope_log_e_max_vs_log_rho"]
    ok = rc == 0 and -0.6 <= slope <= -0.4 and slope_obs < 0 and s["certificate_violations"] == 0
    report(6, "certified-bound decay slope against density in [-0.6, -0.4]",
           ok, f"(slope {slope:.3f}, observed-error slope {slope_obs:.3f})")


def test_criterion_7_episodic_decay(tmp_path):
    cfg = {
        "experiment": "episodic",
        "kernel": {"family": "squared_exponential", "signal_variance": 1.0, "lengthscales": [0.8, 1.5]},
        "bound": {"delta": 0.01, "L_f": 2.0},
        "episodic": {"target_error": 0.003, "xi": 0.95, "horizon": 2 * math.pi,
                      "fine_dt": 3e-4, "max_episodes": 120},
        "noise_variance": 0.01,
        "seeds": [0],
        "out_dir": str(tmp_path / "ep"),
    }
    rc = cli.run(cfg)
    rows = [json.loads(line) for line in (tmp_path / "ep" / "episodes.jsonl").read_text().splitlines()]
    s = json.loads((tmp_path / "ep" / "summary.json").read_text())
    bounds = [r["upsilon_bar"] for r in rows]
    ratios = [b / a for a, b in zip(bounds, bounds[1:])]
    late_ok = len(ratios) > 10 and all(r <= 0.96 for r in ratios[10:])
    spec = KernelSpec(SQUARED_EXPONENTIAL, 1.0, (0.8, 1.5))
    n_e = episode_count_bound(0.003, gradient_lipschitz(spec), 1.0, 0.95)
    episodes = s["episodes_run"]
    ts_ok = all(r["T_s_lower_bound"] <= r["T_s"] for r in rows[1:])
    ok = (rc == 0 and s["terminated"] and episodes <= n_e and late_ok and ts_ok
          and s["certificate_violations"] == 0)
    report(7, "episodic bound contracts at rate <= 0.96 after burn-in and terminates",
           ok, f"({episodes} episodes <= N_E = {n_e}, max late ratio "
               f"{max(ratios[10:]) if len(ratios) > 10 else float('nan'):.3f})")


def test_criterion_8_unit_closed_forms():
    # beta for M = 5e5 cover points at delta = 0.01: independent oracle
    from gpcert.bounds import DomainBox, beta, covering_number_bound

    box = DomainBox(2, 10.0)
    m = covering_number_bound(0.01, box)
    b = beta(0.01, 0.01, box)
    oracle = 2.0 * (math.log(5.0) + 7.0 * math.log(10.0))
    beta_ok = (abs(m - 500000.0) < 1e-6 and abs(b - oracle) < 1e-12
               and abs(b - 35.4572) < 3e-3)  # quoted figure carries hand rounding

    plant = LinearPlant(np.array([[0.0, 1.0], [0.0, 0.0]]), np.array([0.0, 1.0]))
    loop = closed_loop(plant, np.array([200.0, 20.0]))
    eig = np.sort_complex(loop.eigenvalues)
    eig_ok = np.allclose(eig, np.sort_complex(np.roots([1.0, 20.0, 200.0])), atol=1e-9)
    sv = np.linalg.svd(loop.U, compute_uv=False)
    zeta_oracle = sv[0] * np.linalg.norm(np.linalg.solve(loop.U, plant.b.astype(complex)))
    zeta_ok = abs(loop.zeta - zeta_oracle) < 1e-12

    ne_ok = episode_count_bound(0.025, 1.0, 1.0, 0.95) == 45

    ok = beta_ok and eig_ok and zeta_ok and ne_ok
    report(8, "named closed forms (beta, benchmark eigenvalues, zeta, N_E) reproduce",
           ok, f"(beta = {b:.4f}, eig = {eig[1]:.6g}, zeta = {loop.zeta:.6f}, N_E = 45)")


def test_criterion_9_determinism(tmp_path):
    out = tmp_path / "det"
    cfg = {
        "experiment": "tracking",
        "kernel": {"family": "squared_exponential", "signal_variance": 1.0, "lengthscales": [1.0, 1.5]},
        "gains": {"theta1": 10.0, "theta2": 20.0},
        "bound": {"tau": 0.01, "delta": 0.01, "L_f": 2.0, "delta_L": 0.01},
        "horizon": 2.0,
        "fine_dt": 1e-3,
        "noise_variance": 0.01,
        "seeds": [0],
        "out_dir": str(out),
    }
    names = ["summary.json", "tracking_run_seed0.csv", "sim_run_seed0.csv", "training_data_seed0.csv"]
    assert cli.run(cfg) == 0
    first = {n: (out / n).read_bytes() for n in names}
    assert cli.run(cfg) == 0
    identical = all((out / n).read_bytes() == first[n] for n in names)

    out2 = tmp_path / "det2"
    cfg2 = {
        "experiment": "validate_lipschitz",
        "kernel": {"family": "squared_exponential", "signal_variance": 1.0, "lengthscales": [1.0]},
        "domain": {"dimension": 1, "edge": 10.0, "center": [0.0]},
        "bound": {"delta_L": 0.01},
        "validation": {"draws": 50},
        "seeds": [0],
        "out_dir": str(out2),
    }
    assert cli.run(cfg2) == 0
    blob = (out2 / "summary.json").read_bytes() + (out2 / "lipschitz_trials.csv").read_bytes()
    assert cli.run(cfg2) == 0
    blob2 = (out2 / "summary.json").read_bytes() + (out2 / "lipschitz_trials.csv").read_bytes()
    ok = identical and blob == blob2
    report(9, "identical config and seed reproduce artifacts byte for byte", ok)
