"""Per-layer tracing for ``run.py --trace 1``.

Wrappers defined here replace orbuq functions where their callers look them
up: ``orbuq.pipeline.propagate_hf`` (called by ``batch_propagate_chunked``),
``orbuq.highfi.acceleration`` (called by the right-hand side),
``orbuq.forces.sun_position`` (called by ``forces.acceleration``), and so on.
Every wrapped call becomes a span (name, start, end, parent, operation,
rows); the hot Taylor-algebra operators are only counted.  ``uninstall``
restores every attribute, so the program itself is never edited.
"""

from __future__ import annotations

import importlib
import json
import statistics
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

# (module or "module:Class", attribute, span name, how to read rows,
#  span name and rows for the callable passed as argument 0)
_SPANS = [
    ("orbuq.pipeline", "lf_stage", "pipeline.lf_stage", None, None),
    ("orbuq.pipeline", "mf_propagate", "pipeline.mf_propagate", None, None),
    ("orbuq.pipeline", "mc_reference", "pipeline.mc_reference", None, None),
    ("orbuq.pipeline", "mf_sample_eval", "pipeline.mf_sample_eval", None, None),
    ("orbuq.pipeline", "ut_sigma", "gmm.ut_sigma", None, None),
    ("orbuq.pipeline", "kernel_logpdf_support", "gmm.kernel_logpdf_support", None, None),
    ("orbuq.pipeline", "loads_gmm", "loads.loads_gmm", None, ("loads.target", None)),
    ("orbuq.loads", "split_domain", "loads.split_domain", None, None),
    ("orbuq.pipeline", "osc_to_mean", "lowfi.osc_to_mean", None, None),
    ("orbuq.lowfi", "osc_to_mean", "lowfi.osc_to_mean", None, None),
    ("orbuq.lowfi:Sgp4Theory", "propagate_mean", "lowfi.propagate_mean", None, None),
    ("orbuq.lowfi:KeplerJ2Theory", "propagate_mean", "lowfi.propagate_mean", None, None),
    ("orbuq.sgp4:Sgp4", "propagate", "sgp4.propagate", None, None),
    ("orbuq.pipeline", "convert_values", "elements.convert_values", None, None),
    ("orbuq.lowfi", "convert_values", "elements.convert_values", None, None),
    ("orbuq.pipeline", "propagate_hf", "highfi.propagate_hf", "state", None),
    ("orbuq.highfi", "integrate_batch", "integrate.integrate_batch", None, ("integrate.rhs", "rhs")),
    ("orbuq.highfi", "integrate_single", "integrate.integrate_single", None, ("integrate.rhs", "rhs")),
    ("orbuq.highfi", "acceleration", "forces.acceleration", "time", None),
    ("orbuq.forces", "gravity_acceleration", "forces.gravity", None, None),
    ("orbuq.forces", "sun_position", "forces.sun_position", None, None),
    ("orbuq.forces", "moon_position", "forces.moon_position", None, None),
    ("orbuq.forces", "drag_acceleration", "forces.drag", None, None),
    ("orbuq.forces", "srp_acceleration", "forces.srp", None, None),
]
_COUNTS = [
    ("orbuq.ta:TaylorPoly", ("__mul__", "__rmul__"), "ta.mul"),
    ("orbuq.ta:TaylorPoly", ("__add__", "__radd__"), "ta.add"),
]


def _resolve(path: str):
    mod, _, cls = path.partition(":")
    obj = importlib.import_module(mod)
    return getattr(obj, cls) if cls else obj


def _rows(kind, args) -> int:
    """Rows of a batch call: (N, 6) states or an (N,) time vector; else 0."""
    if kind == "state":
        x = args[0]
        return x.shape[0] if isinstance(x, np.ndarray) and x.ndim == 2 else 0
    if kind == "time":
        return int(np.size(args[0]))
    if kind == "rhs":
        y = args[1]
        return y.shape[0] if isinstance(y, np.ndarray) and y.ndim == 2 else 1
    return 0


class Tracer:
    """Spans and counts of one traced run, tagged with the running operation.

    Calls made while ``op`` is empty (checks, microbenchmarks) are not traced.
    """

    def __init__(self):
        self.spans: list = []        # [name, start, end, parent, op, rows]
        self.counts: dict = defaultdict(int)
        self.op = ""
        self._stack: list[int] = []
        self._undo: list = []

    def _span(self, name, fn, rows=None, wrap_arg=None):
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            if not self.op:
                return fn(*args, **kwargs)
            if wrap_arg is not None:
                args = (self._span(wrap_arg[0], args[0], wrap_arg[1]),) + args[1:]
            idx = len(spans)
            spans.append([name, 0.0, 0.0, stack[-1] if stack else -1, self.op,
                          _rows(rows, args)])
            stack.append(idx)
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                spans[idx][2] = time.perf_counter()
                spans[idx][1] = t0
                stack.pop()

        return wrapper

    def _counter(self, name, fn):
        counts = self.counts

        def wrapper(a, b):
            if self.op:
                counts[(self.op, name)] += 1
            return fn(a, b)

        return wrapper

    def _patch(self, owner, attr, new):
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def install(self):
        wrapped_target = self._span
        lf_target = _resolve("orbuq.pipeline").lf_target

        def traced_lf_target(*args, **kwargs):
            return wrapped_target("lowfi.target", lf_target(*args, **kwargs))

        self._patch(_resolve("orbuq.pipeline"), "lf_target", traced_lf_target)
        for path, attr, name, rows, wrap_arg in _SPANS:
            owner = _resolve(path)
            fn = owner.__dict__[attr]
            self._patch(owner, attr, self._span(name, fn, rows, wrap_arg))
        for path, attrs, name in _COUNTS:
            owner = _resolve(path)
            for attr in attrs:
                self._patch(owner, attr, self._counter(name, owner.__dict__[attr]))

    def uninstall(self):
        while self._undo:
            owner, attr, old = self._undo.pop()
            setattr(owner, attr, old)

    # -- queries ----------------------------------------------------------

    def select(self, name, op=None):
        return [i for i, s in enumerate(self.spans)
                if s[0] == name and (op is None or s[4] == op)]

    def total(self, name, op=None) -> float:
        return sum(self.spans[i][2] - self.spans[i][1] for i in self.select(name, op))

    def self_time(self, name, child: str, op=None) -> float:
        """Time in ``name`` spans outside their direct ``child`` spans."""
        own = set(self.select(name, op))
        out = sum(self.spans[i][2] - self.spans[i][1] for i in own)
        for s in self.spans:
            if s[0] == child and s[3] in own:
                out -= s[2] - s[1]
        return out

    def under(self, name, ancestor, op=None) -> list[int]:
        """``name`` spans with an ``ancestor`` span somewhere above them."""
        out = []
        for i in self.select(name, op):
            p = self.spans[i][3]
            while p >= 0 and self.spans[p][0] != ancestor:
                p = self.spans[p][3]
            if p >= 0:
                out.append(i)
        return out

    def write(self, path: Path, summary: dict):
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            json.dump({"summary": summary,
                       "columns": ["name", "start", "end", "parent", "op", "rows"],
                       "spans": self.spans}, fh)


def microbenchmarks() -> dict:
    """Taylor operations (order 2, 6 variables) and one DA SGP4 propagation."""
    from orbuq.lowfi import MeanElements, Sgp4Theory
    from orbuq.ta import AlgebraContext, TaylorPoly

    ctx = AlgebraContext(2, 6)
    rng = np.random.default_rng(0)
    p, q = (TaylorPoly(ctx, rng.uniform(-1, 1, ctx.size)) for _ in range(2))
    sub = [TaylorPoly(ctx, 0.1 * rng.uniform(-1, 1, ctx.size)) for _ in range(6)]

    def per_call_us(fn, n):
        laps = []
        for _ in range(5):
            t0 = time.perf_counter()
            for _ in range(n):
                fn()
            laps.append((time.perf_counter() - t0) / n * 1e6)
        return statistics.median(laps)

    theory = Sgp4Theory()
    var = [ctx.variable(j + 1) for j in range(6)]
    mean = MeanElements("sgp4", 0.0, [
        6678.0 + 1.0 * var[0], 0.01 + 1e-4 * var[1], 0.2 + 1e-4 * var[2],
        0.1 + 1e-4 * var[3], 0.3 + 1e-4 * var[4], 0.5 + 1e-4 * var[5],
    ])
    return {
        "ta.mul_us": per_call_us(lambda: p * q, 20000),
        "ta.add_us": per_call_us(lambda: p + q, 20000),
        "ta.sin_us": per_call_us(p.sin, 5000),
        "ta.compose_us": per_call_us(lambda: p.compose(sub), 500),
        "sgp4.da_propagate_ms": per_call_us(
            lambda: theory.propagate_mean(mean, 5400.0), 20) / 1e3,
    }


def unit(name: str) -> str:
    """Unit of a per-layer metric, read from its name."""
    for suffix, u in (("_per_kernel", "ms"), ("_per_row", "us"), ("_per_target", "1/eval"),
                      ("_per_accel", "1/call"), ("_per_state", "1/state"),
                      ("_ms", "ms"), ("_us", "us"), ("_mb", "MB"), ("_s", "s")):
        if name.endswith(suffix):
            return u
    return "count"


def layer_metrics(tr: Tracer, setups: list[dict], micro: dict, result,
                  lf_alloc_mb: float) -> dict:
    """Every per-layer metric of one traced round: name -> (value, unit)."""
    dur = lambda idx: sum(tr.spans[i][2] - tr.spans[i][1] for i in idx)  # noqa: E731
    rows = lambda idx: sum(tr.spans[i][5] for i in idx)  # noqa: E731
    med = lambda key: statistics.median(s[key] for s in setups)  # noqa: E731

    ut = tr.under("gmm.ut_sigma", "pipeline.mf_propagate", "pipeline")
    targets = tr.select("lowfi.target", "pipeline")
    props = tr.under("lowfi.propagate_mean", "lowfi.target", "pipeline")
    sgp4 = tr.select("sgp4.propagate", "pipeline")
    accel = tr.select("forces.acceleration")
    sun = tr.select("forces.sun_position")
    batch = [i for i in tr.select("highfi.propagate_hf", "pipeline") if tr.spans[i][5]]
    states = sum(tr.spans[i][5] or 1 for i in tr.select("highfi.propagate_hf"))
    timings = result.timings
    m = {
        "config.import_s": med("import_s"),
        "config.load_scenario_ms": med("load_scenario_ms"),
        "gmm.split_library_s": med("split_library_s"),
        "gmm.ut_kernels": len(ut),
        "gmm.ut_ms_per_kernel": timings["t_moments_s"] * 1e3 / max(len(ut), 1),
        "gmm.logpdf_calls": len(tr.select("gmm.kernel_logpdf_support", "eval")),
        "gmm.logpdf_s": tr.total("gmm.kernel_logpdf_support", "eval"),
        "ta.mul_calls": tr.counts[("pipeline", "ta.mul")],
        "ta.add_calls": tr.counts[("pipeline", "ta.add")],
        "sgp4.propagate_calls": len(sgp4),
        "lowfi.target_evals": len(targets),
        "lowfi.target_ms": dur(targets) * 1e3 / max(len(targets), 1),
        "lowfi.props_per_target": len(props) / max(len(targets), 1),
        "lowfi.osc_to_mean_s": tr.total("lowfi.osc_to_mean", "pipeline"),
        "loads.kernels": result.n_kernels,
        "loads.splits": len(tr.select("loads.split_domain", "pipeline")),
        "loads.self_s": tr.self_time("loads.loads_gmm", "loads.target", "pipeline"),
        "elements.convert_calls": len(tr.select("elements.convert_values")),
        "elements.convert_s": tr.total("elements.convert_values"),
        "forces.accel_rows": rows(accel),
        "forces.accel_us_per_row": dur(accel) * 1e6 / max(rows(accel), 1),
        "forces.gravity_s": tr.total("forces.gravity"),
        "forces.sun_s": tr.total("forces.sun_position"),
        "forces.moon_s": tr.total("forces.moon_position"),
        "forces.drag_s": tr.total("forces.drag"),
        "forces.srp_s": tr.total("forces.srp"),
        "forces.sun_calls_per_accel": len(sun) / max(len(accel), 1),
        "integrate.rhs_evals_per_state": rows(tr.select("integrate.rhs")) / max(states, 1),
        "integrate.batch_self_s": tr.self_time("integrate.integrate_batch", "integrate.rhs"),
        "integrate.single_s": tr.total("integrate.integrate_single"),
        "highfi.batch_calls": len(batch),
        "highfi.batch_rows": rows(batch),
        "pipeline.lf_stage_s": tr.total("pipeline.lf_stage", "pipeline"),
        "pipeline.hf_correction_s": timings["t_hf_correction_s"],
        "pipeline.shift_s": timings["t_shift_s"],
        "pipeline.moments_s": timings["t_moments_s"],
        "pipeline.sample_eval_s": tr.total("pipeline.mf_sample_eval", "eval"),
        "pipeline.mc_s": tr.total("pipeline.mc_reference", "mc"),
        "pipeline.lf_alloc_mb": lf_alloc_mb,
    }
    m.update(micro)
    return {k: (v, unit(k)) for k, v in m.items()}
