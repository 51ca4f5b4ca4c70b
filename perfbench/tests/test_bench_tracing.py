"""Span arithmetic, hook installation and the metric names of the traced run."""

import json
import os
import sys
import types

import pytest

from perfbench import tracing

MAIN, POOL_A, POOL_B = 1, 2, 3


def span(id, name, start, end, parent=None, thread=MAIN, **attrs):
    return {"id": id, "name": name, "start": start, "end": end, "parent": parent,
            "thread": thread, "attrs": attrs}


def test_self_time_subtracts_the_union_of_nested_children():
    spans = [span(0, "cli.main", 0.0, 10.0),
             span(1, "spectrum.build_field", 1.0, 3.0, parent=0),
             span(2, "interference.build_sinr_field", 2.0, 5.0, parent=0),
             span(3, "spectrum.export_field_csv", 7.0, 8.0, parent=0),
             span(4, "spectrum.cell_max_from_beams", 1.5, 2.5, parent=1)]
    selfs = tracing.self_times(spans, MAIN)
    assert selfs[0] == pytest.approx(10.0 - 4.0 - 1.0)   # [1, 5] and [7, 8] covered
    assert selfs[1] == pytest.approx(2.0 - 1.0)
    assert selfs[2] == pytest.approx(3.0)
    assert selfs[4] == pytest.approx(1.0)


def test_pool_thread_spans_are_attributed_to_the_enclosing_span_by_time():
    spans = [span(0, "cli.main", 0.0, 20.0),
             span(1, "spectrum.build_field", 2.0, 12.0, parent=0),
             span(2, "kernels.beam_rsrp_numpy", 3.0, 6.0, thread=POOL_A),
             span(3, "kernels.beam_rsrp_numpy", 4.0, 8.0, thread=POOL_B),
             span(4, "kernels.beam_rsrp_numpy", 30.0, 31.0, thread=POOL_A)]
    parents = tracing.resolve_parents(spans, MAIN)
    assert parents[2] == 1 and parents[3] == 1   # innermost covering span, not cli.main
    assert parents[4] is None                    # covered by nothing
    selfs = tracing.self_times(spans, MAIN)
    assert selfs[1] == pytest.approx(10.0 - 5.0)  # overlapping pool spans count once
    assert selfs[0] == pytest.approx(20.0 - 10.0)


def test_install_patches_every_importer_and_reports_missing_hooks(monkeypatch):
    def kernel(centers):
        return len(centers)

    home = types.ModuleType("airtwin.fakehome")
    home.kernel = kernel
    user = types.ModuleType("airtwin.fakeuser")
    user.alias = kernel
    monkeypatch.setitem(sys.modules, home.__name__, home)
    monkeypatch.setitem(sys.modules, user.__name__, user)
    hooks = (tracing.Hook("fake.kernel", home.__name__, "kernel",
                          attrs=lambda a, k, r, s: {"voxel_evals": r}),
             tracing.Hook("fake.gone", home.__name__, "no_such_function"))
    recorder = tracing.Recorder()
    assert tracing.install(recorder, hooks) == ["fake.gone"]
    assert home.kernel is not kernel and user.alias is home.kernel
    assert user.alias([1, 2, 3]) == 3
    (recorded,) = recorder.spans
    assert recorded["name"] == "fake.kernel" and recorded["attrs"] == {"voxel_evals": 3}


def test_layer_metrics_cover_every_per_layer_metric_of_the_benchmark(repo_root):
    with open(os.path.join(repo_root, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    metrics = tracing.layer_metrics([{"spans": [
        span(0, "cli.main", 0.0, 2.0),
        span(1, "kernels.beam_rsrp_numpy", 0.5, 1.5, parent=0, voxel_evals=1000)],
        "main_thread": MAIN, "missing": []}])
    assert metrics["kernels.ns_per_voxel_eval"] == pytest.approx(1e6)
    assert metrics["kernels.bytes_computed"] == 32 * 1000
    assert metrics["self.cli_s"] == pytest.approx(1.0)
    from_untraced = {"cli.import_s", "trace.overhead_s"} | {
        f"cli.{c}.{m}" for c in ("build", "evaluate", "optimize", "synth", "calibrate",
                                 "validate") for m in ("wall_s", "peak_rss_mb")}
    declared = {m["name"] for m in spec["per_layer"]}
    assert declared - from_untraced <= set(metrics)
