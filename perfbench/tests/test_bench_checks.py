"""The output checks accept good outputs and reject corrupted ones."""

import json

import pytest

from airtwin.scene import build_voxel_grid
from airtwin.spectrum import build_field, export_field_csv
from perfbench import checks, workloads

SMALL = ("airspace.radius_m=150", "airspace.voxel_m=100")


@pytest.fixture
def field_csv(repo_root, tmp_path):
    scene = workloads.load_scene(SMALL)
    grid = build_voxel_grid(scene.airspace)
    assignment = workloads.seeded_assignment(scene, 5)
    assert grid.count * len(scene.cell_ids) <= checks.SPOT_ROWS   # every row is checked
    path = tmp_path / "field.csv"
    with open(path, "w") as fh:
        export_field_csv(build_field(scene, grid, assignment), fh)
    return path, (scene, grid, assignment, 5)


def test_field_csv_passes_when_untouched(field_csv):
    path, args = field_csv
    assert checks.check_field_csv(str(path), *args) == []


def test_field_csv_rejects_a_corrupted_row(field_csv):
    path, args = field_csv
    lines = path.read_text().splitlines(keepends=True)
    x, y, z, cell, value = lines[5].rstrip("\n").split(",")
    lines[5] = f"{x},{y},{z},{cell},{float(value) + 0.01:.4f}\n"
    path.write_text("".join(lines))
    (error,) = checks.check_field_csv(str(path), *args)
    assert "row 4" in error


def test_field_csv_rejects_a_missing_row(field_csv):
    path, args = field_csv
    lines = path.read_text().splitlines(keepends=True)
    path.write_text("".join(lines[:-1]))
    assert any("rows, expected" in e for e in checks.check_field_csv(str(path), *args))


def _trace(tmp_path, objectives, candidates=56):
    steps = [{"objective_before": a, "objective_after": b, "n_candidates": candidates}
             for a, b in objectives]
    path = tmp_path / "trace.json"
    path.write_text(json.dumps(steps))
    return str(path)


def test_trace_accepts_a_monotone_objective(tmp_path):
    assert checks.check_trace(_trace(tmp_path, [(1.0, 2.0), (2.0, 2.0)]), 112) == []


def test_trace_rejects_a_decreasing_objective(tmp_path):
    errors = checks.check_trace(_trace(tmp_path, [(1.0, 2.0), (2.0, 1.5)]), 112)
    assert errors and "decreases" in errors[0]
    errors = checks.check_trace(_trace(tmp_path, [(1.0, 2.0), (1.9, 2.5)]), 112)
    assert errors and "decreases" in errors[0]


def test_trace_rejects_a_wrong_candidate_count(tmp_path):
    assert checks.check_trace(_trace(tmp_path, [(1.0, 2.0)]), 57)


def _report(tmp_path, pooled, failed=None):
    path = tmp_path / "validation_report.json"
    path.write_text(json.dumps({"folds": [{"fold": 0, "failed": failed or {}}],
                                "pooled_rmse_db": pooled}))
    return str(path)


def test_validation_tolerates_a_small_kriging_change_only(tmp_path):
    reference = {"twin_offset": 1.9865, "nearest_neighbor": 10.4469, "kriging": 11.5138}
    assert checks.check_validation(_report(tmp_path, dict(reference, kriging=11.52)),
                                   reference) == []
    assert checks.check_validation(_report(tmp_path, dict(reference, kriging=11.53)),
                                   reference)
    assert checks.check_validation(_report(tmp_path, dict(reference, twin_offset=1.9866)),
                                   reference)
    assert checks.check_validation(_report(tmp_path, reference, {"kriging": "boom"}),
                                   reference)


def test_repeat_check_names_the_file_that_changed():
    assert checks.check_repeat({"a/x": "1"}, {"a/x": "1"}) == []
    assert checks.check_repeat({"a/x": "1"}, {"a/x": "2", "a/y": "3"}) == [
        "a/x: bytes differ from the first pass", "a/y: bytes differ from the first pass"]
