"""Span tracing of gpcert's layers from outside the package.

:func:`install` replaces every module binding of a chosen set of gpcert
functions with a wrapper that records one span per call: (name, start, end,
parent).  Spans stay in memory until :meth:`Tracer.write` dumps them, and
:meth:`Tracer.layer_metrics` turns them into per-function calls, total time
and self time (span duration minus the time its child spans cover).  Where a
call's arguments or files give the work done, a counter records it; the
time a counter update takes is left out of the enclosing span's self time.

Nothing that runs per RK4 stage or per scalar kernel evaluation is wrapped:
``GPModel.mean_function``, ``ReferenceSpec.state`` and ``kernel_eval`` stay
untraced, and ``kernel_eval`` keeps calling the untraced ``gram``.
"""

from __future__ import annotations

import collections
import functools
import inspect
import json
import sys
import time
import types

import numpy as np

# (module, attribute path) of every traced function; a dotted path names a
# method, which is replaced on its class.  For kernels other than the squared
# exponential, GPModel.mean_function falls back to predict_mean, which would
# then be traced per RK4 stage; every workload uses the squared exponential.
TARGETS = (
    ("kernels", "gram"),
    ("kernels", "kernel_lipschitz"),
    ("kernels", "stddev_lipschitz"),
    ("gp", "fit"),
    ("gp", "GPModel.predict_mean"),
    ("gp", "GPModel.predict_var"),
    ("gp", "downsample"),
    ("bounds", "auto_tau"),
    ("bounds", "bound_constants"),
    ("bounds", "beta"),
    ("bounds", "probabilistic_lipschitz"),
    ("density", "data_density_batch"),
    ("tracking", "tracking_bound_ode"),
    ("tracking", "tau_for_density"),
    ("tracking", "solve_scalar_gain"),
    ("simulation", "integrate"),
    ("simulation", "run_closed_loop"),
    ("episodic", "learn_control"),
    ("episodic", "select_sampling_time"),
    ("cli", "run"),
    ("cli", "_write_csv"),
)

MODULES = tuple(dict.fromkeys(module for module, _ in TARGETS))


def span_name(module: str, path: str) -> str:
    return f"{module}.{path.rsplit('.', 1)[-1]}"


def _rows(a) -> int:
    shape = np.shape(a)
    return 1 if len(shape) < 2 else int(shape[0])


def _gram_work(c, a, result):
    n = _rows(a["X"])
    m = n if a.get("Y") is None else _rows(a["Y"])
    c["bytes_computed"] += n * m * a["spec"].dim * 8


def _fit_work(c, a, result):
    n = len(a["data"])
    c["n_max"] = max(c["n_max"], n)
    c["flops_computed"] += n ** 3 / 3.0


def _points_work(key):
    def work(c, a, result):
        c["points"] += _rows(a[key])

    return work


def _steps_work(c, a, result):
    c["steps"] += int(round(a["horizon"] / a["dt"]))


def _csv_work(c, a, result):
    with open(a["path"], "rb") as fh:
        body = fh.read()
    c["rows"] += body.count(b"\n") - 1
    c["bytes"] += len(body)


# work counters: span name -> (counter names, update(counters, bound args, result))
COUNTERS = {
    "kernels.gram": (("bytes_computed",), _gram_work),
    "gp.fit": (("n_max", "flops_computed"), _fit_work),
    "gp.predict_mean": (("points",), _points_work("x")),
    "gp.predict_var": (("points",), _points_work("x")),
    "density.data_density_batch": (("points",), _points_work("X")),
    "simulation.integrate": (("steps",), _steps_work),
    "tracking.tracking_bound_ode": (("steps",), _steps_work),
    "cli._write_csv": (("rows", "bytes"), _csv_work),
}


class Tracer:
    """In-memory span recorder; one per traced process."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1]
        self._stack = []
        self._excluded = collections.defaultdict(float)  # span index -> counter time inside it
        self.counters = {name: dict.fromkeys(keys, 0) for name, (keys, _) in COUNTERS.items()}

    def wrap(self, name: str, func):
        spans, stack, excluded = self.spans, self._stack, self._excluded
        update = COUNTERS[name][1] if name in COUNTERS else None
        signature = inspect.signature(func) if update else None
        counters = self.counters.get(name)
        clock = time.perf_counter

        @functools.wraps(func)
        def traced(*args, **kwargs):
            span = [name, clock(), 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = func(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if update is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                update(counters, bound.arguments, result)
                if stack:
                    excluded[stack[-1]] += clock() - span[2]
            return result

        return traced

    def layer_metrics(self) -> dict:
        """Per-function calls / total_s / self_s, per-module self_s, counters.

        Self time is a span's duration minus its child spans and the counter
        updates run inside it.
        """
        child_time = [self._excluded.get(i, 0.0) for i in range(len(self.spans))]
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out = {span_name(module, path): {"calls": 0, "total_s": 0.0, "self_s": 0.0} for module, path in TARGETS}
        for (name, start, end, _), inner in zip(self.spans, child_time):
            rec = out[name]
            rec["calls"] += 1
            rec["total_s"] += end - start
            rec["self_s"] += end - start - inner
        metrics = {}
        for name, rec in out.items():
            for key, value in rec.items():
                metrics[f"{name}.{key}"] = value
        for module in MODULES:
            metrics[f"{module}.self_s"] = sum(
                rec["self_s"] for name, rec in out.items() if name.split(".", 1)[0] == module
            )
        for name, values in self.counters.items():
            for key, value in values.items():
                metrics[f"{name}.{key}"] = value
        metrics["trace.spans"] = len(self.spans)
        return metrics

    def write(self, path: str) -> None:
        """One JSON line per span: name, start, end, parent (index, -1 for roots)."""
        with open(path, "w") as fh:
            for name, start, end, parent in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end, "parent": parent}) + "\n")


def install(tracer: Tracer) -> None:
    """Replace every binding of each target in the loaded gpcert modules."""
    import gpcert.cli  # noqa: F401  (loads every module that holds a binding)
    from gpcert import kernels

    modules = [m for n, m in sys.modules.items() if n == "gpcert" or n.startswith("gpcert.")]
    # kernel_eval runs per scalar kernel evaluation; a copy of it that sees the
    # module namespace as it is now keeps calling the untraced gram
    scalar = kernels.kernel_eval
    untraced_eval = types.FunctionType(
        scalar.__code__, dict(vars(kernels)), scalar.__name__, scalar.__defaults__, scalar.__closure__
    )
    _rebind(modules, scalar, untraced_eval)
    for module, path in TARGETS:
        owner = sys.modules[f"gpcert.{module}"]
        *cls_path, attr = path.split(".")
        for part in cls_path:
            owner = getattr(owner, part)
        func = getattr(owner, attr)
        wrapper = tracer.wrap(span_name(module, path), func)
        if cls_path:
            setattr(owner, attr, wrapper)
        else:
            _rebind(modules, func, wrapper)


def _rebind(modules, old, new) -> None:
    for mod in modules:
        for attr, value in list(vars(mod).items()):
            if value is old:
                setattr(mod, attr, new)
