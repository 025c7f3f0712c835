"""Layer tracing from outside the program, and the per-layer metrics.

Run as a script, this module imports regime_xai, replaces the functions each
layer's callers resolve with timing wrappers, runs the CLI with the remaining
arguments and, when the run ends, writes the recorded spans to a JSON file:

    python3 perfbench/tracer.py TRACE.json RUN_ID run --config CONFIG

Spans stay in memory until the run ends. A span's parent is the innermost
open span on the same thread; a span opened on a worker thread with nothing
open there (the KernelSHAP row pool) takes the innermost open span of the
main thread. The functions after the script part turn spans into metrics.
"""

from __future__ import annotations

import importlib
import inspect
import itertools
import json
import os
import resource
import sys
import threading
import time
from pathlib import Path

# (span name, module, attribute): each attribute is the name a layer's caller
# resolves at call time, so replacing it there times every call.
WRAPPED = (
    ("config.load", "regime_xai.cli", "load_config"),
    ("timeseries.load", "regime_xai.cli", "load_table"),
    ("timeseries.resample", "regime_xai.cli", "resample_mean"),
    ("timeseries.residual_load", "regime_xai.cli", "residual_load"),
    ("timeseries.mixed_price", "regime_xai.cli", "mixed_price"),
    ("timeseries.with_column", "regime_xai.cli", "with_column"),
    ("timeseries.align_join", "regime_xai.cli", "align_join"),
    ("experiment.run_period", "regime_xai.cli", "run_period"),
    ("experiment.export", "regime_xai.cli", "write_importance_csv"),
    ("experiment.export", "regime_xai.cli", "write_comparison_csv"),
    ("experiment.export", "regime_xai.cli", "write_dependence_csv"),
    ("experiment.export", "regime_xai.cli", "write_manifest"),
    ("experiment.make_windows", "regime_xai.experiment", "make_windows"),
    ("experiment.split", "regime_xai.experiment", "split_blocks"),
    ("gbt.fit", "regime_xai.experiment", "fit_gbt"),
    ("gbt.predict", "regime_xai.experiment", "predict_gbt"),
    ("gbt.predict", "regime_xai.shap", "predict_gbt"),
    ("mlp.fit", "regime_xai.experiment", "fit_mlp"),
    ("mlp.predict", "regime_xai.experiment", "predict_mlp"),
    ("mlp.predict", "regime_xai.shap", "predict_mlp"),
    ("shap.explain", "regime_xai.experiment", "explain_dataset"),
    ("shap.importance", "regime_xai.experiment", "feature_importance"),
    ("shap.subsample", "regime_xai.shap", "Background.subsample"),
)

ENGINEER_SPANS = (
    "timeseries.resample",
    "timeseries.residual_load",
    "timeseries.mixed_price",
    "timeseries.with_column",
    "timeseries.align_join",
)

# name, unit, better: every metric a traced run reports
PER_LAYER = (
    ("timeseries.load_s", "s", "lower"),
    ("timeseries.load_rows", "count", "lower"),
    ("timeseries.load_bytes", "B", "lower"),
    ("timeseries.engineer_s", "s", "lower"),
    ("timeseries.join_kept_ratio", "1", "higher"),
    ("experiment.split_s", "s", "lower"),
    ("experiment.glue_s", "s", "lower"),
    ("experiment.windows", "count", "higher"),
    ("experiment.windows_failed", "count", "lower"),
    ("experiment.export_s", "s", "lower"),
    ("experiment.export_bytes", "B", "lower"),
    ("gbt.fit_s", "s", "lower"),
    ("gbt.trees", "count", "lower"),
    ("gbt.leaves", "count", "lower"),
    ("gbt.fit_rows", "count", "lower"),
    ("gbt.predict_s", "s", "lower"),
    ("gbt.predict_rows", "count", "lower"),
    ("mlp.fit_s", "s", "lower"),
    ("mlp.fit_rows", "count", "lower"),
    ("mlp.predict_s", "s", "lower"),
    ("mlp.predict_calls", "count", "lower"),
    ("mlp.predict_rows", "count", "lower"),
    ("shap.tree_s", "s", "lower"),
    ("shap.kernel_s", "s", "lower"),
    ("shap.kernel_self_s", "s", "lower"),
    ("shap.rows_explained", "count", "higher"),
    ("shap.background_rows", "count", "lower"),
    ("shap.model_eval_rows", "count", "lower"),
    ("shap.model_eval_rows_per_row", "count", "lower"),
    ("shap.minor_faults", "count", "lower"),
    ("shap.subsample_s", "s", "lower"),
    ("shap.importance_s", "s", "lower"),
    ("cli.import_s", "s", "lower"),
    ("config.load_s", "s", "lower"),
    ("trace.run_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
    ("trace.focus_share", "1", "higher"),
)

# layer -> span names of which at least one must be recorded when a workload
# says it exercises that layer
LAYER_SPANS = {
    "timeseries": ("timeseries.load", "timeseries.align_join"),
    "experiment": ("experiment.run_period", "experiment.split", "experiment.export"),
    "gbt": ("gbt.fit", "gbt.predict"),
    "mlp": ("mlp.fit", "mlp.predict"),
    "shap.tree": ("shap.explain:tree",),
    "shap.kernel": ("shap.explain:kernel",),
    "config": ("config.load",),
}


TRACE_ERROR_EXIT = 3


class TraceError(RuntimeError):
    """A wrapped name is missing, or a layer a workload must use recorded nothing."""


# ------------------------------------------------------------------ recording


class Tracer:
    """Collects spans for one run; install() wraps the program's functions."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[dict] = []
        self._ids = itertools.count(1)
        self._stacks: dict[int, list[int]] = {}
        self._main = threading.get_ident()
        self._t0 = time.perf_counter()

    def _parent(self, stack: list[int]) -> int | None:
        if stack:
            return stack[-1]
        main_stack = self._stacks.get(self._main)
        return main_stack[-1] if main_stack else None

    def span(self, name: str, fn, attrs=None):
        """Call fn() inside a span; attrs(result) adds counts to the span.

        Every span also records the minor page faults the process took
        during it (all threads, so parallel spans overlap)."""
        tid = threading.get_ident()
        stack = self._stacks.setdefault(tid, [])
        record = {"id": next(self._ids), "parent": self._parent(stack), "name": name,
                  "thread": tid, "run": self.run_id, "attrs": {}}
        stack.append(record["id"])
        faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        record["start"] = time.perf_counter() - self._t0
        try:
            result = fn()
        finally:
            record["end"] = time.perf_counter() - self._t0
            record["attrs"]["minor_faults"] = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults
            stack.pop()
            self.spans.append(record)
        if attrs is not None:
            record["attrs"].update(attrs(result))
        return result

    def _wrap(self, name: str, original):
        attrs_of = _ATTRS.get(name)
        signature = inspect.signature(original)

        def wrapper(*args, **kwargs):
            attrs = None
            if attrs_of is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                attrs = lambda result: attrs_of(result, bound.arguments)  # noqa: E731
            return self.span(name, lambda: original(*args, **kwargs), attrs)

        wrapper.__wrapped__ = original
        return wrapper

    def install(self) -> None:
        """Replace every name in WRAPPED; raise TraceError if one is gone."""
        for name, module_name, attr in WRAPPED:
            module = importlib.import_module(module_name)
            owner_name, _, leaf = attr.rpartition(".")
            owner = getattr(module, owner_name, None) if owner_name else module
            original = getattr(owner, leaf, None)
            if original is None:
                raise TraceError(f"{module_name}.{attr} no longer exists; update perfbench/tracer.py")
            if isinstance(owner, type):
                setattr(owner, leaf, classmethod(self._wrap(name, original.__func__)))
            else:
                setattr(owner, leaf, self._wrap(name, original))


_ATTRS = {
    "timeseries.load": lambda r, a: {"rows": len(r), "bytes": os.path.getsize(a["path"])},
    "timeseries.align_join": lambda r, a: {"kept": len(r), "dropped": r.n_dropped},
    "experiment.run_period": lambda r, a: {
        "windows": len(r.windows), "degenerate": len(r.degenerate_windows)},
    "experiment.make_windows": lambda r, a: {"planned": len(r)},
    "experiment.export": lambda r, a: {"bytes": os.path.getsize(a["path"])},
    "gbt.fit": lambda r, a: {
        "rows": len(a["train"]), "trees": len(r.trees), "leaves": sum(_leaves(t) for t in r.trees)},
    "gbt.predict": lambda r, a: {"rows": len(a["X"])},
    "mlp.fit": lambda r, a: {"rows": len(a["train"])},
    "mlp.predict": lambda r, a: {"rows": len(a["X"])},
    "shap.explain": lambda r, a: {"method": a["method"], "rows": len(a["X"]), "background": a["bg"].size},
}


def _leaves(node) -> int:
    return 1 if node.is_leaf else _leaves(node.left) + _leaves(node.right)


def main(argv: list[str]) -> int:
    trace_path, run_id, cli_args = argv[0], argv[1], argv[2:]
    start = time.perf_counter()
    import regime_xai.cli

    import_s = time.perf_counter() - start
    tracer = Tracer(run_id)
    try:
        tracer.install()
    except TraceError as exc:
        print(f"tracing failed: {exc}", file=sys.stderr)
        return TRACE_ERROR_EXIT
    code = tracer.span("run", lambda: regime_xai.cli.main(cli_args))
    Path(trace_path).write_text(
        json.dumps({"run": run_id, "import_s": import_s, "spans": tracer.spans}), encoding="utf-8"
    )
    return code


# ------------------------------------------------------------------- analysis


def union_length(intervals) -> float:
    """Total length covered by a set of (start, end) intervals."""
    total = 0.0
    cur_start = cur_end = None
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


def self_times(spans: list[dict]) -> dict[int, float]:
    """Span id -> duration minus the part of it that its child spans cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append((s["start"], s["end"]))
    out = {}
    for s in spans:
        clipped = [(max(a, s["start"]), min(b, s["end"])) for a, b in children.get(s["id"], [])]
        covered = union_length([(a, b) for a, b in clipped if b > a])
        out[s["id"]] = (s["end"] - s["start"]) - covered
    return out


def _key(span: dict) -> str:
    method = span["attrs"].get("method")
    return f"{span['name']}:{method}" if method else span["name"]


def layer_metrics(trace: dict) -> dict[str, float]:
    """Per-layer metrics of one traced run (all of PER_LAYER but the trace.* ones)."""
    spans = trace["spans"]
    by_id = {s["id"]: s for s in spans}
    own = self_times(spans)

    def pick(*keys):
        return [s for s in spans if s["name"] in keys or _key(s) in keys]

    def busy(*keys):
        return union_length([(s["start"], s["end"]) for s in pick(*keys)])

    def self_busy(*keys):
        return sum(own[s["id"]] for s in pick(*keys))

    def total(attr, *keys):
        return sum(s["attrs"].get(attr, 0) for s in pick(*keys))

    def under_explain(span):
        parent = span["parent"]
        while parent is not None:
            if by_id[parent]["name"] == "shap.explain":
                return True
            parent = by_id[parent]["parent"]
        return False

    kept, dropped = total("kept", "timeseries.align_join"), total("dropped", "timeseries.align_join")
    windows = total("windows", "experiment.run_period")
    rows_explained = total("rows", "shap.explain")
    eval_rows = sum(s["attrs"]["rows"] for s in pick("gbt.predict", "mlp.predict") if under_explain(s))
    return {
        "timeseries.load_s": busy("timeseries.load"),
        "timeseries.load_rows": total("rows", "timeseries.load"),
        "timeseries.load_bytes": total("bytes", "timeseries.load"),
        "timeseries.engineer_s": busy(*ENGINEER_SPANS),
        "timeseries.join_kept_ratio": kept / (kept + dropped) if kept + dropped else 0.0,
        "experiment.split_s": busy("experiment.make_windows", "experiment.split"),
        "experiment.glue_s": self_busy("experiment.run_period"),
        "experiment.windows": windows,
        "experiment.windows_failed": total("planned", "experiment.make_windows") - windows
        + total("degenerate", "experiment.run_period"),
        "experiment.export_s": busy("experiment.export"),
        "experiment.export_bytes": total("bytes", "experiment.export"),
        "gbt.fit_s": busy("gbt.fit"),
        "gbt.trees": total("trees", "gbt.fit"),
        "gbt.leaves": total("leaves", "gbt.fit"),
        "gbt.fit_rows": sum(s["attrs"]["rows"] * s["attrs"]["trees"] for s in pick("gbt.fit")),
        "gbt.predict_s": busy("gbt.predict"),
        "gbt.predict_rows": total("rows", "gbt.predict"),
        "mlp.fit_s": busy("mlp.fit"),
        "mlp.fit_rows": total("rows", "mlp.fit"),
        "mlp.predict_s": busy("mlp.predict"),
        "mlp.predict_calls": len(pick("mlp.predict")),
        "mlp.predict_rows": total("rows", "mlp.predict"),
        "shap.tree_s": self_busy("shap.explain:tree"),
        "shap.kernel_s": busy("shap.explain:kernel"),
        "shap.kernel_self_s": self_busy("shap.explain:kernel"),
        "shap.rows_explained": rows_explained,
        "shap.background_rows": total("background", "shap.explain"),
        "shap.model_eval_rows": eval_rows,
        "shap.model_eval_rows_per_row": eval_rows / rows_explained if rows_explained else 0.0,
        "shap.minor_faults": total("minor_faults", "shap.explain"),
        "shap.subsample_s": busy("shap.subsample"),
        "shap.importance_s": busy("shap.importance"),
        "cli.import_s": trace["import_s"],
        "config.load_s": busy("config.load"),
    }


def check_exercised(trace: dict, layers) -> None:
    """Raise TraceError if a layer the workload must use recorded no call."""
    keys = {_key(s) for s in trace["spans"]} | {s["name"] for s in trace["spans"]}
    missing = [layer for layer in layers if not keys & set(LAYER_SPANS[layer])]
    if missing:
        raise TraceError(f"layers recorded no calls: {', '.join(missing)}")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
