"""One measured gpcert process: set up, optionally trace, run, report.

Usage::

    python3 perfbench/child.py setup  CONFIG_JSON
    python3 perfbench/child.py run    CONFIG_JSON
    python3 perfbench/child.py traced CONFIG_JSON SPANS_JSONL

Set-up is everything a user pays once per process before ``cli.run`` can
start: importing numpy, scipy and gpcert, loading the config, and the first
LAPACK call (OpenBLAS starts its threads there).  ``setup`` stops after it;
``run`` then times ``gpcert.cli.run`` on the config; ``traced`` does the same
with the span tracer installed and writes the spans at the end.  The last
line of standard output is one JSON object with the measurements.
"""

import time

_T0 = time.perf_counter()

import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def main(argv) -> int:
    mode, config_path = argv[0], argv[1]
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import numpy as np
    import scipy.linalg

    from gpcert import cli

    config = cli.load_config(config_path)
    a = np.random.default_rng(0).standard_normal((256, 256))
    scipy.linalg.cholesky(a @ a.T + 256.0 * np.eye(256), lower=True)
    out = {"setup_s": time.perf_counter() - _T0}

    if mode != "setup":
        tracer = None
        if mode == "traced":
            import spans

            tracer = spans.Tracer()
            spans.install(tracer)
        cpu0, t0 = _cpu_s(), time.perf_counter()
        try:
            out["exit_code"] = cli.run(config)
        except Exception as exc:  # the parent counts a crash as a failed run
            out["exit_code"] = None
            out["error"] = f"{type(exc).__name__}: {exc}"
        out["wall_s"] = time.perf_counter() - t0
        out["cpu_s"] = _cpu_s() - cpu0
        if tracer is not None:
            out["layers"] = tracer.layer_metrics()
            tracer.write(argv[2])
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
