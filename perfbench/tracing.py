"""Spans around the public functions of each airtwin module, for the traced run.

Run as a script, this replays one CLI argv in-process through
``airtwin.cli.main`` with every hook installed and writes the spans to a JSON
file when the command ends:

    python3 perfbench/tracing.py --spans out.json --workload w --run-id r -- build ...

A hook wraps a function at every module attribute that holds it, so a
function imported into several modules (``assemble_sinr`` in both
``airtwin.interference`` and ``airtwin.optimizer``) is traced whichever
module the caller reaches it through. A hook whose function no longer exists
is reported as missing, not raised.

Spans stay in memory until the command ends. Each records its name, start,
end, parent span, thread and a few counts taken at the call boundary.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import sys
import threading
import time
import tracemalloc
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable

KERNEL_BYTES_PER_EVAL = 32   # three center coordinates read, one RSRP written (float64)
MODULES = ("cli", "scene", "kernels", "spectrum", "interference", "report", "optimizer",
           "validation", "synth", "measurements")


@dataclass(frozen=True)
class Hook:
    """One traced function: ``module.attr``, recorded under span ``name``.

    ``prepare(args, kwargs) -> (args, kwargs, state)`` may replace the
    arguments before the call; ``attrs(args, kwargs, result, state) -> dict``
    gives the span's counts after it, also after a raise when
    ``attrs_on_raise`` (with ``result`` None). ``alloc`` records the peak
    traced allocation of the call (tracemalloc, only while the call runs).
    """

    name: str
    module: str
    attr: str
    attrs: Callable | None = None
    prepare: Callable | None = None
    attrs_on_raise: bool = False
    alloc: bool = False


def _file_bytes(fh) -> int:
    fh.flush()
    return os.fstat(fh.fileno()).st_size


def _materialize_points(position):
    """Pass ``points`` on as a list so the hook can count it without consuming it."""
    def prepare(args, kwargs):
        if "points" in kwargs:
            kwargs = dict(kwargs, points=list(kwargs["points"]))
            return args, kwargs, len(kwargs["points"])
        args = list(args)
        args[position] = list(args[position])
        return tuple(args), kwargs, len(args[position])
    return prepare


def _count_residuals(args, kwargs):
    counter = [0]
    fun = args[0]

    def counted(*a, **k):
        counter[0] += 1
        return fun(*a, **k)

    return (counted, *args[1:]), kwargs, counter


def _greedy_attrs(args, kwargs, result, state):
    steps = result[1].steps
    return {"candidates": sum(s.n_candidates for s in steps),
            "reused_steps": sum(1 for s in steps if s.reused)}


def _kriging_attrs(args, kwargs, result, state):
    attrs = {"points": state}
    if isinstance(result, tuple):
        attrs["fallbacks"] = int(result[1].sum())
    return attrs


HOOKS = (
    Hook("scene.scene_from_dict", "airtwin.scene", "scene_from_dict"),
    Hook("scene.build_voxel_grid", "airtwin.scene", "build_voxel_grid",
         attrs=lambda a, k, r, s: {"voxels": r.count}),
    Hook("kernels.beam_rsrp_numpy", "airtwin.kernels", "beam_rsrp_numpy",
         attrs=lambda a, k, r, s: {"voxel_evals": len(a[0])}),
    Hook("spectrum.build_field", "airtwin.spectrum", "build_field", alloc=True),
    Hook("spectrum.cell_max_from_beams", "airtwin.spectrum", "cell_max_from_beams"),
    Hook("spectrum.predict_at", "airtwin.spectrum", "predict_at",
         prepare=_materialize_points(3), attrs=lambda a, k, r, s: {"points": s}),
    Hook("spectrum.export_field_csv", "airtwin.spectrum", "export_field_csv",
         attrs=lambda a, k, r, s: {"bytes": _file_bytes(a[1])}),
    Hook("interference.cell_linear_sums", "airtwin.interference", "cell_linear_sums"),
    Hook("interference.assemble_sinr", "airtwin.interference", "assemble_sinr"),
    Hook("interference.build_sinr_field", "airtwin.interference", "build_sinr_field"),
    Hook("interference.export_sinr_csv", "airtwin.interference", "export_sinr_csv",
         attrs=lambda a, k, r, s: {"bytes": _file_bytes(a[1])}),
    Hook("report.compare_report", "airtwin.report", "compare_report"),
    Hook("report.coverage_ratios", "airtwin.report", "coverage_ratios"),
    Hook("report.difference_heatmap", "airtwin.report", "difference_heatmap"),
    Hook("report.export_heatmap_csv", "airtwin.report", "export_heatmap_csv"),
    Hook("optimizer.greedy_optimize", "airtwin.optimizer", "greedy_optimize",
         attrs=_greedy_attrs),
    Hook("optimizer.score_fields", "airtwin.optimizer", "score_fields"),
    Hook("validation.run_validation", "airtwin.validation", "run_validation"),
    Hook("validation.fit_variogram", "airtwin.validation", "fit_variogram"),
    Hook("validation.least_squares", "airtwin.validation", "least_squares",
         prepare=_count_residuals, attrs_on_raise=True,
         attrs=lambda a, k, r, s: {"residual_evals": s[0]}),
    Hook("validation.kriging_predict", "airtwin.validation", "kriging_predict",
         prepare=_materialize_points(1), attrs=_kriging_attrs),
    Hook("synth.synthesize_measurements", "airtwin.synth", "synthesize_measurements"),
    Hook("measurements.save_measurements", "airtwin.measurements", "save_measurements"),
    Hook("measurements.load_measurements", "airtwin.measurements", "load_measurements"),
)


class Recorder:
    """In-memory span store; one parent stack per thread."""

    def __init__(self):
        self.spans: list[dict] = []
        self._ids = itertools.count()
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, name, fn, args=(), kwargs=None, hook: Hook | None = None):
        """Run ``fn(*args, **kwargs)`` inside a span called ``name``."""
        kwargs = kwargs or {}
        state = None
        if hook is not None and hook.prepare is not None:
            args, kwargs, state = hook.prepare(args, kwargs)
        stack = self._stack()
        span = {"id": next(self._ids), "name": name,
                "parent": stack[-1] if stack else None,
                "thread": threading.get_ident(), "attrs": {}}
        stack.append(span["id"])
        alloc = hook is not None and hook.alloc and not tracemalloc.is_tracing()
        if alloc:
            tracemalloc.start()
        span["start"] = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            span["attrs"]["raised"] = 1
            if hook is not None and hook.attrs is not None and hook.attrs_on_raise:
                span["attrs"].update(hook.attrs(args, kwargs, None, state))
            raise
        else:
            if hook is not None and hook.attrs is not None:
                span["attrs"].update(hook.attrs(args, kwargs, result, state))
            return result
        finally:
            span["end"] = time.perf_counter()
            if alloc:
                span["attrs"]["peak_alloc_bytes"] = tracemalloc.get_traced_memory()[1]
                tracemalloc.stop()
            stack.pop()
            self.spans.append(span)

    def wrap(self, hook: Hook, fn):
        def traced(*args, **kwargs):
            return self.call(hook.name, fn, args, kwargs, hook)
        return traced


def install(recorder: Recorder, hooks=HOOKS) -> list[str]:
    """Patch every airtwin module attribute holding a hooked function.

    Returns the names of hooks whose function does not exist.
    """
    modules = [m for name, m in sorted(sys.modules.items())
               if m is not None and (name == "airtwin" or name.startswith("airtwin."))]
    missing = []
    for hook in hooks:
        original = getattr(sys.modules.get(hook.module), hook.attr, None)
        if not callable(original):
            missing.append(hook.name)
            continue
        traced = recorder.wrap(hook, original)
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, traced)
    return missing


# ---------------------------------------------------------------------------
# Span arithmetic
# ---------------------------------------------------------------------------
def resolve_parents(spans: list[dict], main_thread) -> dict:
    """Map span id -> parent id.

    A span with no caller on its own thread that ran on a pool thread is
    attributed by time to the innermost span of another thread that covers
    it (for a kernel chunk, the ``build_field`` that started the pool).
    """
    parents = {}
    for span in spans:
        parent = span["parent"]
        if parent is None and span["thread"] != main_thread:
            covering = [o for o in spans
                        if o["thread"] != span["thread"]
                        and o["start"] <= span["start"] and span["end"] <= o["end"]]
            if covering:
                parent = max(covering, key=lambda o: (o["start"], -o["end"]))["id"]
        parents[span["id"]] = parent
    return parents


def _covered(intervals, lo, hi) -> float:
    total, cur_lo, cur_hi = 0.0, None, None
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: list[dict], main_thread) -> dict:
    """Span id -> duration minus the part of it that its child spans cover.

    Overlapping children (pool threads running side by side) count once.
    """
    parents = resolve_parents(spans, main_thread)
    children: dict = {}
    for span in spans:
        parent = parents[span["id"]]
        if parent is not None:
            children.setdefault(parent, []).append((span["start"], span["end"]))
    return {s["id"]: (s["end"] - s["start"])
            - _covered(children.get(s["id"], ()), s["start"], s["end"])
            for s in spans}


def layer_metrics(traces: list[dict]) -> dict:
    """Per-layer metrics of one traced pass, from the span files of its commands.

    ``*_s`` metrics are inclusive span time summed over calls (for the kernel,
    summed over pool threads); ``self.<module>_s`` is span self time summed by
    module, where ``cli`` holds whatever the CLI does outside the hooks.
    """
    calls: dict = defaultdict(int)
    secs: dict = defaultdict(float)
    sums: dict = defaultdict(lambda: defaultdict(int))
    peaks: dict = defaultdict(lambda: defaultdict(int))
    self_s: dict = defaultdict(float)
    for trace in traces:
        selfs = self_times(trace["spans"], trace["main_thread"])
        for span in trace["spans"]:
            name = span["name"]
            calls[name] += 1
            secs[name] += span["end"] - span["start"]
            for key, value in span["attrs"].items():
                sums[name][key] += value
                peaks[name][key] = max(peaks[name][key], value)
            self_s[name.split(".")[0]] += selfs[span["id"]]

    def ratio(num, den, scale=1.0):
        return num * scale / den if den else 0.0

    kernel_evals = sums["kernels.beam_rsrp_numpy"]["voxel_evals"]
    candidates = sums["optimizer.greedy_optimize"]["candidates"]
    kriging_points = sums["validation.kriging_predict"]["points"]
    metrics = {
        "scene.load_s": secs["scene.scene_from_dict"],
        "scene.voxelize_s": secs["scene.build_voxel_grid"],
        "scene.voxels": peaks["scene.build_voxel_grid"]["voxels"],
        "kernels.calls": calls["kernels.beam_rsrp_numpy"],
        "kernels.voxel_evals": kernel_evals,
        "kernels.busy_s": secs["kernels.beam_rsrp_numpy"],
        "kernels.ns_per_voxel_eval": ratio(secs["kernels.beam_rsrp_numpy"], kernel_evals, 1e9),
        "kernels.bytes_computed": KERNEL_BYTES_PER_EVAL * kernel_evals,
        "spectrum.build_field.calls": calls["spectrum.build_field"],
        "spectrum.build_field_s": secs["spectrum.build_field"],
        "spectrum.build_field.peak_alloc_mb":
            peaks["spectrum.build_field"]["peak_alloc_bytes"] / 2**20,
        "spectrum.cell_max_s": secs["spectrum.cell_max_from_beams"],
        "spectrum.predict_at_s": secs["spectrum.predict_at"],
        "spectrum.predict_at.points": sums["spectrum.predict_at"]["points"],
        "spectrum.export_field_csv_s": secs["spectrum.export_field_csv"],
        "spectrum.export_field_csv.bytes": sums["spectrum.export_field_csv"]["bytes"],
        "optimizer.greedy_optimize_s": secs["optimizer.greedy_optimize"],
        "optimizer.candidates": candidates,
        "optimizer.ms_per_candidate": ratio(secs["optimizer.greedy_optimize"], candidates, 1e3),
        "optimizer.score_fields.calls": calls["optimizer.score_fields"],
        "optimizer.score_fields_s": secs["optimizer.score_fields"],
        "optimizer.reused_steps": sums["optimizer.greedy_optimize"]["reused_steps"],
        "validation.run_validation_s": secs["validation.run_validation"],
        "validation.fit_variogram.calls": calls["validation.fit_variogram"],
        "validation.fit_variogram_s": secs["validation.fit_variogram"],
        "validation.least_squares.calls": calls["validation.least_squares"],
        "validation.residual_evals": sums["validation.least_squares"]["residual_evals"],
        "validation.least_squares.failures": sums["validation.least_squares"]["raised"],
        "validation.kriging_predict_s": secs["validation.kriging_predict"],
        "validation.kriging.points": kriging_points,
        "validation.kriging.fallback_ratio":
            ratio(sums["validation.kriging_predict"]["fallbacks"], kriging_points),
        "synth.synthesize_s": secs["synth.synthesize_measurements"],
        "measurements.save_s": secs["measurements.save_measurements"],
        "measurements.load_s": secs["measurements.load_measurements"],
    }
    for name in ("cell_linear_sums", "assemble_sinr"):
        metrics[f"interference.{name}.calls"] = calls[f"interference.{name}"]
        metrics[f"interference.{name}_s"] = secs[f"interference.{name}"]
    metrics["interference.build_sinr_field_s"] = secs["interference.build_sinr_field"]
    metrics["interference.export_sinr_csv_s"] = secs["interference.export_sinr_csv"]
    metrics["interference.export_sinr_csv.bytes"] = sums["interference.export_sinr_csv"]["bytes"]
    for name in ("compare_report", "coverage_ratios", "difference_heatmap", "export_heatmap_csv"):
        metrics[f"report.{name}_s"] = secs[f"report.{name}"]
    for module in MODULES:
        metrics[f"self.{module}_s"] = self_s[module]
    metrics["trace.spans"] = sum(len(t["spans"]) for t in traces)
    metrics["trace.missing_hooks"] = len(set().union(*(t["missing"] for t in traces)))
    return metrics


# ---------------------------------------------------------------------------
# Child entry point
# ---------------------------------------------------------------------------
def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--spans", required=True, help="JSON file to write the spans to")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--run-id", required=True)
    parser.add_argument("cli_args", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    cli_args = args.cli_args[1:] if args.cli_args[:1] == ["--"] else args.cli_args

    import airtwin.cli

    recorder = Recorder()
    missing = install(recorder)
    rc = 1
    try:
        rc = recorder.call("cli.main", airtwin.cli.main, (cli_args,))
    finally:
        thread = threading.main_thread().ident
        for span in recorder.spans:
            span["workload"] = args.workload
            span["run_id"] = args.run_id
        with open(args.spans, "w") as fh:
            json.dump({"command": cli_args[0], "main_thread": thread, "missing": missing,
                       "spans": recorder.spans}, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main())
