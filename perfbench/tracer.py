"""Spans around calls into floerlab's public functions, recorded from outside.

`install()` wraps each function named in `HOOKS` and rebinds the wrapper
everywhere a `floerlab.*` module holds the original, because
`from .x import y` copies the binding into the importing module.  Spans
stay in memory and are written as JSONL when the process ends;
`summarize()` turns a span file into the per-layer metrics.

A span nested inside another span of the same name is not recorded (its
time stays in the outer span), which keeps recursive helpers such as the
report serialiser from being counted once per level.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import sys
import threading
import time
from collections import defaultdict

LAYERS = (
    "scale_space",
    "scale_operator",
    "charts",
    "floer_map",
    "floer_function",
    "pullback",
    "sobolev_evidence",
    "loop_atlas",
    "suites",
    "cli",
)


def _svd_size(args, kwargs, result):
    m, n = args[0].matrix.shape
    return {"dim": max(m, n), "d3": m * n * min(m, n)}


def _matrix_bytes(args, kwargs, result):
    return {"bytes": int(result.nbytes)}


def _report_bytes(args, kwargs, result):
    return {"bytes": len(args[0].encode("utf-8"))}


def _suite_name(args, kwargs, result):
    return {"suite": str(args[0])}


def _atlas_suite(args, kwargs, result):
    return {"suite": "loop_atlas"}


# (module, attribute, span name, extra-fields hook); "Class.method" patches the class.
# Modules are floerlab's, except `workloads`: the benchmark's scaled loop_atlas
# suite is traced as that suite's run_suite span.
HOOKS = (
    ("charts", "chart_from_sympy", "charts.sympy_build", None),
    ("loop_atlas", "SphereChart.transition_to", "loop_atlas.transition_to", None),
    ("loop_atlas", "PlanarChart.transition_to", "loop_atlas.transition_to", None),
    ("loop_atlas", "check_compatibility", "loop_atlas.check_compatibility", None),
    ("loop_atlas", "check_transitivity", "loop_atlas.check_transitivity", None),
    ("floer_map", "BilinearLevelMap.norm", "floer_map.bilinear_norm", None),
    ("floer_map", "dphi", "floer_map.dphi", None),
    ("floer_map", "verify_floer_axioms", "floer_map.verify_floer_axioms", None),
    ("scale_operator", "weighted_singular_values", "scale_operator.svd", _svd_size),
    ("scale_operator", "fredholm_diagnostic", "scale_operator.fredholm_diagnostic", None),
    ("scale_space", "multiplication_matrix", "scale_space.multiplication_matrix", _matrix_bytes),
    ("scale_space", "to_grid", "scale_space.grid_bridge", None),
    ("scale_space", "from_grid", "scale_space.grid_bridge", None),
    ("floer_function", "full_report", "floer_function.full_report", None),
    ("pullback", "kappa_bound_check", "pullback.kappa_bound_check", None),
    ("sobolev_evidence", "mult_norm_sweep", "sobolev_evidence.mult_norm_sweep", None),
    ("sobolev_evidence", "holder_embedding_check", "sobolev_evidence.holder_embedding_check", None),
    ("suites", "run_suite", "suites.run_suite", _suite_name),
    ("workloads", "atlas_report", "suites.run_suite", _atlas_suite),
    ("cli", "_jsonable", "cli.report", None),
    ("cli", "_write", "cli.report", _report_bytes),
)


class Tracer:
    """In-memory span recorder; one per traced process."""

    def __init__(self):
        self.spans = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn, extra=None):
        layer = name.split(".", 1)[0]
        spans, ids, stack_of = self.spans, self._ids, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = stack_of()
            if any(frame[1] == name for frame in stack):
                return fn(*args, **kwargs)
            span_id = next(ids)
            parent = stack[-1][0] if stack else 0
            stack.append((span_id, name))
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
            span = {
                "id": span_id,
                "parent": parent,
                "layer": layer,
                "name": name,
                "thread": threading.get_ident(),
                "start": start,
                "end": end,
            }
            if extra is not None:
                span.update(extra(args, kwargs, result))
            spans.append(span)
            return result

        return traced

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in sorted(self.spans, key=lambda s: s["start"]):
                fh.write(json.dumps(span) + "\n")


def install(tracer: Tracer) -> None:
    """Wrap every hooked function and rebind it wherever floerlab holds it."""
    names = {h[0] for h in HOOKS}
    modules = {m: importlib.import_module(m if m == "workloads" else f"floerlab.{m}") for m in names}
    for module_name, attr, span_name, extra in HOOKS:
        owner = modules[module_name]
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(owner, cls_name)
            setattr(cls, meth, tracer.wrap(span_name, cls.__dict__[meth], extra))
            continue
        original = getattr(owner, attr)
        wrapped = tracer.wrap(span_name, original, extra)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod is owner or mod_name == "floerlab" or mod_name.startswith("floerlab.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapped)


def _union_length(intervals) -> float:
    total, cur_start, cur_end = 0.0, None, None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def read_spans(path: str) -> list[dict]:
    with open(path, "r", encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def summarize(spans: list[dict], wall_s: float) -> dict:
    """Per-layer metrics of one traced process.

    A span's self time is its duration minus that of its direct child
    spans; a layer's self_s sums that over its spans, so time in a nested
    span of another layer is counted there and nowhere else.  uncovered_s
    is the process wall time that no span on any thread covers.
    """
    child_time = defaultdict(float)
    for s in spans:
        if s["parent"]:
            child_time[s["parent"]] += s["end"] - s["start"]
    m = defaultdict(float)
    for layer in LAYERS:
        m[f"{layer}.self_s"] = 0.0
    for s in spans:
        dur = s["end"] - s["start"]
        m[f"{s['layer']}.self_s"] += dur - child_time[s["id"]]
        name = s["name"]
        if name == "suites.run_suite":
            m[f"suites.{s['suite']}.s"] += dur
            continue
        m[f"{name}.calls"] += 1
        m[f"{name}.s"] += dur
        if name == "scale_operator.svd":
            m["scale_operator.svd.d3"] += s["d3"]
            m["scale_operator.svd.max_dim"] = max(m["scale_operator.svd.max_dim"], s["dim"])
        elif name in ("scale_space.multiplication_matrix", "cli.report"):
            m[f"{name}.bytes"] += s.get("bytes", 0)
    roots = [(s["start"], s["end"]) for s in spans if not s["parent"]]
    m["trace.uncovered_s"] = max(wall_s - _union_length(roots), 0.0)
    m["trace.wall_s"] = wall_s
    return dict(m)
