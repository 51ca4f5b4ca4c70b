"""Oracles and fixtures the tests check the package against.

No command runs them, so they live beside the tests: the full-path
objective and the exhaustive search the greedy pass is compared with, the
scene writer that turns test scenes into files, and the Kriging weights the
unbiasedness checks read.
"""

import itertools
import json
import os

import numpy as np

from airtwin.antenna import AntennaPattern, Orientation
from airtwin.errors import InputError, SceneValidationError
from airtwin.interference import sinr_from_field
from airtwin.optimizer import ObjectiveWeights, _same_angle, score_fields
from airtwin.report import CompareReport, coverage_ratios
from airtwin.scene import (
    BeamAssignment,
    CoverageThresholds,
    CylinderSpec,
    SceneConfig,
    VoxelGrid,
    read_json,
    scene_from_dict,
)
from airtwin.spectrum import build_field
from airtwin.validation import KrigingModel, _kriging_system, _layer_bin


class CapExceededError(InputError):
    """Exhaustive search refused: candidate product exceeds the configured cap."""


def objective(scene: SceneConfig, grid: VoxelGrid, assignment: BeamAssignment,
              weights: ObjectiveWeights, thresholds: CoverageThresholds | None = None,
              *, activity_factor: float = 1.0, offset_db: float = 0.0,
              threads: int = 1) -> float:
    """Full-path objective: build the field and its SINR, then score."""
    thresholds = thresholds or scene.thresholds
    field = build_field(scene, grid, assignment, offset_db, threads=threads)
    sinr_field = sinr_from_field(field, scene.radio, activity_factor)
    return score_fields(sinr_field.serving_rsrp_dbm, sinr_field.sinr_db,
                        weights, thresholds, grid.shape)


def brute_force_optimize(scene: SceneConfig, grid: VoxelGrid,
                         weights: ObjectiveWeights,
                         thresholds: CoverageThresholds | None = None, *,
                         initial: BeamAssignment | None = None,
                         cap: int = 100_000, activity_factor: float = 1.0,
                         offset_db: float = 0.0,
                         threads: int = 1) -> tuple[BeamAssignment, float]:
    """Exhaustive search over the candidate lattice product (oracle).

    Candidate sets are each sub-beam's lattice plus its baseline (or the
    initial angle when given); enumeration is lexicographic over (az, tilt)
    tuples so ties resolve to the smallest angle tuple.
    """
    keys = scene.beam_keys()
    candidate_sets = []
    for key in keys:
        _, _, sb = scene.sub_beam(*key)
        cands = sb.lattice()
        extra = initial.angles[key] if initial is not None else sb.baseline
        if not any(_same_angle(extra, c) for c in cands):
            cands.append(extra)
        cands.sort(key=lambda o: (o.azimuth_deg, o.tilt_deg))
        candidate_sets.append(cands)

    size = 1
    for cands in candidate_sets:
        size *= len(cands)
    if size > cap:
        raise CapExceededError(
            f"brute force refused: candidate product {size} exceeds cap {cap}"
        )

    best_assignment = None
    best_value = -np.inf
    for combo in itertools.product(*candidate_sets):
        assignment = BeamAssignment(dict(zip(keys, combo)))
        value = objective(scene, grid, assignment, weights, thresholds,
                          activity_factor=activity_factor, offset_db=offset_db,
                          threads=threads)
        if value > best_value:
            best_value = value
            best_assignment = assignment
    return best_assignment, float(best_value)


def compare_report(sinr_before, sinr_after, thresholds, mask=None) -> CompareReport:
    """The compare report of two whole SinrFields, as ``evaluate --compare-to`` writes it."""
    return CompareReport(before=coverage_ratios(sinr_before, thresholds, mask),
                         after=coverage_ratios(sinr_after, thresholds, mask))


def replaced(assignment: BeamAssignment, key: tuple[str, int],
             orientation: Orientation) -> BeamAssignment:
    """``assignment`` with the angle of ``key`` replaced by ``orientation``."""
    new = dict(assignment.angles)
    new[key] = orientation
    return BeamAssignment(new)


def layer_indices(grid: VoxelGrid, z_m: float) -> np.ndarray:
    """Dense indices of the voxel layer whose slab contains altitude z_m."""
    n_columns = len(grid.columns)
    return np.arange(n_columns) + grid.layer(z_m) * n_columns


def layer_bounds(grid: VoxelGrid) -> np.ndarray:
    """The first dense index of each layer, then the voxel count."""
    return np.arange(grid.layer_z.size + 1) * len(grid.columns)


def contains(spec: CylinderSpec, points) -> np.ndarray:
    """Membership test for point(s); boundary (distance == radius) included."""
    p = np.atleast_2d(np.asarray(points, dtype=float))
    dx = p[:, 0] - spec.center_m[0]
    dy = p[:, 1] - spec.center_m[1]
    inside = (dx * dx + dy * dy <= spec.radius_m * spec.radius_m)
    inside &= (p[:, 2] >= spec.z_min_m) & (p[:, 2] <= spec.z_max_m)
    return inside if np.asarray(points).ndim == 2 else bool(inside[0])


def load_scene(path) -> SceneConfig:
    """Load and validate a scene JSON file."""
    return scene_from_dict(read_json(path, "scene"),
                           base_dir=os.path.dirname(os.path.abspath(path)))


def _pattern_to_dict(pattern) -> dict:
    if isinstance(pattern, AntennaPattern):
        return {"type": "parametric", "g_max_dbi": pattern.g_max_dbi,
                "hpbw_az_deg": pattern.hpbw_az_deg, "hpbw_el_deg": pattern.hpbw_el_deg,
                "sla_db": pattern.sla_db, "fbr_db": pattern.fbr_db}
    raise SceneValidationError("table patterns can only be serialized by file reference")


def scene_to_dict(scene: SceneConfig) -> dict:
    return {
        "airspace": {
            "center_m": list(scene.airspace.center_m),
            "radius_m": scene.airspace.radius_m,
            "z_min_m": scene.airspace.z_min_m,
            "z_max_m": scene.airspace.z_max_m,
            "voxel_m": scene.airspace.voxel_m,
        },
        "radio": {
            "frequency_hz": scene.radio.frequency_hz,
            "bandwidth_hz": scene.radio.bandwidth_hz,
            "noise_figure_db": scene.radio.noise_figure_db,
        },
        "thresholds": {
            "rsrp_basic_dbm": scene.thresholds.rsrp_basic_dbm,
            "rsrp_strict_dbm": scene.thresholds.rsrp_strict_dbm,
            "sinr_basic_db": scene.thresholds.sinr_basic_db,
            "sinr_strict_db": scene.thresholds.sinr_strict_db,
        },
        "sites": [
            {
                "id": site.id,
                "position_m": list(site.position_m),
                "cells": [
                    {
                        "id": cell.id,
                        "tx_power_dbm": cell.tx_power_dbm,
                        "sub_beams": [
                            {
                                "index": sb.index,
                                "pattern": _pattern_to_dict(sb.pattern),
                                "bounds": {
                                    "az_min_deg": sb.bounds.az_min_deg,
                                    "az_max_deg": sb.bounds.az_max_deg,
                                    "tilt_min_deg": sb.bounds.tilt_min_deg,
                                    "tilt_max_deg": sb.bounds.tilt_max_deg,
                                },
                                "baseline": [sb.baseline.azimuth_deg, sb.baseline.tilt_deg],
                                "candidate_step": list(sb.candidate_step),
                            }
                            for sb in cell.sub_beams
                        ],
                    }
                    for cell in site.cells
                ],
            }
            for site in scene.sites
        ],
    }


def save_scene(scene: SceneConfig, path) -> None:
    with open(path, "w") as fh:
        json.dump(scene_to_dict(scene), fh, indent=2, sort_keys=True)
        fh.write("\n")


def kriging_weights(model: KrigingModel, position, cell_id: str) -> np.ndarray:
    """Kriging weights for one prediction (exposed for the unbiasedness check)."""
    pos = np.asarray(position, dtype=float)
    key = (_layer_bin(pos[2], model.layer_height_m), str(cell_id))
    layer = model.layers[key]
    if layer.variogram is None:
        return np.full(len(layer.values), 1.0 / len(layer.values))
    return _kriging_system(layer, pos[:2])[0]
