"""Output checks of the benchmark; every failure counts against a command.

Each check returns a list of error strings, empty when the output is right.
"""

from __future__ import annotations

import hashlib
import json
import os

import numpy as np

from airtwin.scene import BeamAssignment
from airtwin.spectrum import beam_rsrp

FIELD_HEADER = "x_m,y_m,z_m,cell_id,rsrp_dbm"
FIELD_TOL_DB = 1e-3
KRIGING_TOL_DB = 0.01
SPOT_ROWS = 200


def sha256_file(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def output_digests(out_dir: str) -> dict:
    """``command/file`` -> SHA-256 of every file under ``out_dir``."""
    digests = {}
    for command in sorted(os.listdir(out_dir)):
        for name in sorted(os.listdir(os.path.join(out_dir, command))):
            digests[f"{command}/{name}"] = sha256_file(os.path.join(out_dir, command, name))
    return digests


def _drop_kriging(node):
    if isinstance(node, dict):
        return {k: _drop_kriging(v) for k, v in node.items() if k != "kriging"}
    if isinstance(node, list):
        return [_drop_kriging(v) for v in node]
    return node


def golden_digests(out_dir: str, digests: dict) -> dict:
    """Digests compared with ``golden.json`` at the default seed.

    ``manifest.json`` embeds ``out_dir`` and is left out. The validation
    report is hashed without its ``kriging`` entries, whose pooled RMSE is
    compared within ``KRIGING_TOL_DB`` instead, so that a Kriging fit that
    moves the result by less than that still passes.
    """
    golden = {}
    for key, digest in digests.items():
        if key.endswith("/manifest.json"):
            continue
        if key.endswith("/validation_report.json"):
            with open(os.path.join(out_dir, key)) as fh:
                stripped = json.dumps(_drop_kriging(json.load(fh)), sort_keys=True)
            digest = hashlib.sha256(stripped.encode()).hexdigest()
        golden[key] = digest
    return golden


def check_golden(out_dir: str, actual: dict, golden: dict) -> list[str]:
    """``golden_digests`` of the default seed match ``golden.json``."""
    errors = []
    for key in sorted(set(golden["files"]) | set(actual)):
        if golden["files"].get(key) != actual.get(key):
            errors.append(f"{key}: SHA-256 differs from golden.json")
    if "kriging_pooled_rmse_db" in golden:
        with open(os.path.join(out_dir, "validate", "validation_report.json")) as fh:
            value = json.load(fh)["pooled_rmse_db"]["kriging"]
        if abs(value - golden["kriging_pooled_rmse_db"]) > KRIGING_TOL_DB:
            errors.append(f"validate/validation_report.json: kriging pooled RMSE {value} "
                          f"is not within {KRIGING_TOL_DB} dB of golden.json")
    return errors


def check_repeat(first: dict, again: dict) -> list[str]:
    """Both passes wrote the same files with the same bytes."""
    return [f"{key}: bytes differ from the first pass"
            for key in sorted(set(first) | set(again)) if first.get(key) != again.get(key)]


def check_field_csv(path: str, scene, grid, assignment: BeamAssignment,
                    seed: int) -> list[str]:
    """Row count is voxels x cells; seeded rows match the scalar reference.

    The reference is ``spectrum.beam_rsrp`` at the voxel center, maxed over
    the cell's sub-beams.
    """
    cell_ids = scene.cell_ids
    n_rows = grid.count * len(cell_ids)
    rng = np.random.default_rng(seed)
    wanted = set(int(r) for r in rng.choice(n_rows, size=min(SPOT_ROWS, n_rows), replace=False))
    errors = []
    count = -1
    with open(path) as fh:
        for count, line in enumerate(fh, start=-1):
            if count == -1:
                if line.rstrip("\n") != FIELD_HEADER:
                    errors.append(f"field.csv: bad header {line.rstrip()!r}")
            elif count in wanted:
                errors += _check_field_row(count, line, scene, grid, assignment, cell_ids)
    if count + 1 != n_rows:
        errors.append(f"field.csv: {count + 1} rows, expected {n_rows} "
                      f"({grid.count} voxels x {len(cell_ids)} cells)")
    return errors


def _check_field_row(row, line, scene, grid, assignment, cell_ids) -> list[str]:
    voxel, c = divmod(row, len(cell_ids))
    center = grid.centers[voxel]
    prefix = f"{center[0]:.3f},{center[1]:.3f},{center[2]:.3f},{cell_ids[c]},"
    if not line.startswith(prefix):
        return [f"field.csv row {row}: {line.strip()!r} does not start with {prefix!r}"]
    site, cell = scene.cell(cell_ids[c])
    reference = max(beam_rsrp(site, cell, sb, assignment.angle(cell.id, sb.index),
                              center, scene.radio) for sb in cell.sub_beams)
    value = float(line[len(prefix):])
    if not abs(value - reference) <= FIELD_TOL_DB:
        return [f"field.csv row {row}: {value} dBm, reference {reference:.6f} dBm"]
    return []


def check_trace(path: str, expected_candidates: int) -> list[str]:
    """The greedy objective never decreases; candidate scores add up."""
    with open(path) as fh:
        steps = json.load(fh)
    errors = []
    values = [v for s in steps for v in (s["objective_before"], s["objective_after"])]
    for i in range(1, len(values)):
        if values[i] < values[i - 1]:
            errors.append(f"trace.json: objective decreases at step {(i - 1) // 2} "
                          f"({values[i - 1]} -> {values[i]})")
            break
    total = sum(s["n_candidates"] for s in steps)
    if total != expected_candidates:
        errors.append(f"trace.json: {total} candidates, expected {expected_candidates}")
    return errors


def validation_reference(scene, measurements_path: str) -> dict:
    """Pooled RMSE per predictor from the library, on the CLI's default settings."""
    from airtwin.measurements import load_measurements
    from airtwin.validation import (
        KrigingPredictor,
        NearestNeighborPredictor,
        TwinPredictor,
        run_validation,
    )

    predictors = {"twin_offset": TwinPredictor(scene, BeamAssignment.baseline(scene)),
                  "kriging": KrigingPredictor(),
                  "nearest_neighbor": NearestNeighborPredictor()}
    report = run_validation(load_measurements(measurements_path), predictors)
    return {name: round(value, 4) for name, value in report.pooled_rmse_db.items()}


def check_validation(path: str, reference: dict) -> list[str]:
    """No fold failed; twin and nearest neighbor exact; Kriging within tolerance."""
    with open(path) as fh:
        report = json.load(fh)
    errors = [f"validation_report.json: fold {f['fold']} failed {f['failed']}"
              for f in report["folds"] if f["failed"]]
    pooled = report["pooled_rmse_db"]
    for name in ("twin_offset", "nearest_neighbor"):
        if pooled.get(name) != reference[name]:
            errors.append(f"validation_report.json: {name} pooled RMSE {pooled.get(name)}, "
                          f"reference {reference[name]}")
    kriging = pooled.get("kriging")
    if kriging is None or abs(kriging - reference["kriging"]) > KRIGING_TOL_DB:
        errors.append(f"validation_report.json: kriging pooled RMSE {kriging}, "
                      f"reference {reference['kriging']} (tolerance {KRIGING_TOL_DB} dB)")
    return errors
