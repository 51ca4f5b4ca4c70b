"""Spectrum twin: per-voxel RSRP fields from geometry, antenna gain, and FSPL.

A sub-beam's received power at a point is

    RSRP = tx_power_dbm + G(pattern, steering, direction) - FSPL(d, f) + offset_db

with FSPL = 20 log10(4 pi d f / c). The cell-level value at a voxel is the
maximum over the cell's sub-beams (beam-swept reference-signal coverage). A
single global calibration offset, fitted against measurements, absorbs
deployment-dependent factors.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import kernels
from .antenna import Orientation, gain
from .errors import EmptySetError, SingularityError
from .interference import cell_linear_sums
from .scene import BeamAssignment, Cell, SceneConfig, Site, SubBeam, VoxelGrid


def fspl_db(distance_m, frequency_hz):
    """Free-space path loss 20 log10(4 pi d f / c) in dB; scalar or array."""
    d = np.asarray(distance_m, dtype=float)
    f = np.asarray(frequency_hz, dtype=float)
    if np.any(d <= 0):
        raise ValueError("distance_m must be > 0")
    if np.any(f <= 0):
        raise ValueError("frequency_hz must be > 0")
    out = kernels.fspl(d, f)
    if np.ndim(distance_m) == 0 and np.ndim(frequency_hz) == 0:
        return float(out)
    return out


def beam_rsrp(site: Site, cell: Cell, sub_beam: SubBeam, angle: Orientation,
              point, radio, offset_db: float = 0.0) -> float:
    """Scalar single-point RSRP for one sub-beam (reference path for tests)."""
    p = np.asarray(point, dtype=float)
    delta = p - np.asarray(site.position_m)
    dist = float(np.linalg.norm(delta))
    if dist == 0.0:
        raise SingularityError(
            f"evaluation point coincides with site '{site.id}' at {tuple(site.position_m)}"
        )
    g = gain(sub_beam.pattern, angle, delta / dist)
    return cell.tx_power_dbm + g - fspl_db(dist, radio.frequency_hz) + offset_db


@dataclass(frozen=True)
class RadioField:
    """Per-voxel, per-cell RSRP (max over sub-beams, dBm) and summed power (mW)."""

    grid: VoxelGrid
    cell_ids: tuple[str, ...]   # lexicographic
    cell_rsrp_dbm: np.ndarray   # (n_cells, count)
    cell_lin_mw: np.ndarray     # (n_cells, count), sub-beams added in index order


def cell_beam_slices(cell_ids, beam_keys) -> list[tuple[int, int]]:
    """Row range [start, stop) of each cell's rows in beam-keyed arrays.

    ``beam_keys`` must be grouped by cell in ``cell_ids`` order.
    """
    slices = []
    start = 0
    for cell_id in cell_ids:
        stop = start
        while stop < len(beam_keys) and beam_keys[stop][0] == cell_id:
            stop += 1
        slices.append((start, stop))
        start = stop
    return slices


def _any_at(points: np.ndarray, pos) -> bool:
    """Whether any (n, 3) point equals ``pos``; column by column, without an (n, 3) mask."""
    return bool(np.any((points[:, 0] == pos[0]) & (points[:, 1] == pos[1])
                       & (points[:, 2] == pos[2])))


def _check_no_coincidence(scene: SceneConfig, centers: np.ndarray) -> None:
    for site in scene.sites:
        pos = np.asarray(site.position_m)
        if _any_at(centers, pos):
            raise SingularityError(
                f"a voxel center coincides with site '{site.id}' at {tuple(pos)}"
            )


def cell_max_from_beams(beam_dbm: np.ndarray,
                        slices: list[tuple[int, int]]) -> np.ndarray:
    """Cell-level field: per-voxel max over each cell's sub-beam rows."""
    n = beam_dbm.shape[1]
    out = np.empty((len(slices), n), dtype=np.float64)
    for c, (a, b) in enumerate(slices):
        out[c] = np.maximum.reduce(beam_dbm[a:b], axis=0)
    return out


def build_field(scene: SceneConfig, grid: VoxelGrid, assignment: BeamAssignment,
                offset_db: float = 0.0, *, threads: int = 1) -> RadioField:
    """Evaluate every (voxel, sub-beam) RSRP and reduce it to cell level.

    One task per (site, voxel chunk) evaluates the chunk's sub-beam rows of
    the site's cells and reduces them to the cells' max and mW sum, so no
    (sub-beam, voxel) array outlives a chunk. Deterministic regardless of
    ``threads``: chunk boundaries are fixed, the max is exact, and each cell's
    mW sum adds its rows in sub-beam index order for every voxel.
    """
    assignment.validate_for(scene, require_lattice=False)
    centers = grid.centers
    _check_no_coincidence(scene, centers)

    cell_ids = scene.cell_ids
    beam_keys = scene.beam_keys()
    cell_rsrp = np.empty((len(cell_ids), grid.count), dtype=np.float64)
    cell_lin = np.empty_like(cell_rsrp)
    frequency_hz = scene.radio.frequency_hz

    def work(task):
        site, (rows_of_cells, slices, beams), lo, hi = task
        az, el, loss = kernels.site_geometry(centers[lo:hi], site.position_m, frequency_hz)
        rows = np.empty((len(beams), hi - lo), dtype=np.float64)
        for row, ((cell, sb), angle) in zip(rows, beams):
            row[:] = kernels.beam_rsrp_numpy(az, el, loss, sb.pattern, angle,
                                             cell.tx_power_dbm, offset_db)
        cell_rsrp[rows_of_cells, lo:hi] = cell_max_from_beams(rows, slices)
        cell_lin[rows_of_cells, lo:hi] = cell_linear_sums(rows, slices)

    tasks = []
    for site in scene.sites:
        own = sorted(cell.id for cell in site.cells)   # the order of cell_ids
        keys = [key for key in beam_keys if key[0] in own]
        plan = ([cell_ids.index(cell_id) for cell_id in own], cell_beam_slices(own, keys),
                [(scene.sub_beam(*key)[1:], assignment.angle(*key)) for key in keys])
        tasks.extend((site, plan, lo, hi) for lo, hi in kernels.chunks(grid.count))
    kernels.run_tasks(work, tasks, threads)
    return RadioField(grid=grid, cell_ids=cell_ids, cell_rsrp_dbm=cell_rsrp,
                      cell_lin_mw=cell_lin)


def predict_at(scene: SceneConfig, assignment: BeamAssignment, offset_db: float,
               points) -> np.ndarray:
    """Cell-level RSRP at arbitrary (position, cell id) points, in input order."""
    assignment.validate_for(scene, require_lattice=False)
    pts = list(points)
    out = np.empty(len(pts), dtype=np.float64)
    if not pts:
        return out
    positions = np.asarray([np.asarray(p[0], dtype=float) for p in pts])
    cell_ids = [p[1] for p in pts]
    for cell_id in sorted(set(cell_ids)):
        site, cell = scene.cell(cell_id)
        idx = np.asarray([i for i, c in enumerate(cell_ids) if c == cell_id])
        sub = np.ascontiguousarray(positions[idx])
        pos = np.asarray(site.position_m)
        if _any_at(sub, pos):
            raise SingularityError(f"a prediction point coincides with site '{site.id}'")
        geometry = kernels.site_geometry(sub, site.position_m, scene.radio.frequency_hz)
        rows = np.stack([kernels.beam_rsrp_numpy(*geometry, sb.pattern,
                                                 assignment.angle(cell_id, sb.index),
                                                 cell.tx_power_dbm, offset_db)
                         for sb in cell.sub_beams])
        out[idx] = cell_max_from_beams(rows, [(0, len(rows))])[0]
    return out


@dataclass(frozen=True)
class CalibrationOffset:
    """Single global additive correction fitted to measurements."""

    offset_db: float
    residual_rmse_db: float
    n_samples: int

    def __post_init__(self):
        if self.n_samples < 1:
            raise EmptySetError("calibration needs at least one matched pair")
        if self.residual_rmse_db < 0:
            raise ValueError("residual_rmse_db must be >= 0")


def calibrate_offset(predicted, measured) -> CalibrationOffset:
    """Least-squares single offset: mean(measured - predicted), plus fit RMSE.

    ``measured`` may be a MeasurementSet or a plain array aligned with
    ``predicted`` (pairs already matched by position and cell id).
    """
    measured_values = getattr(measured, "rsrp_dbm", measured)
    p = np.asarray(predicted, dtype=float)
    m = np.asarray(measured_values, dtype=float)
    if p.shape != m.shape:
        raise ValueError(f"predicted {p.shape} and measured {m.shape} are not aligned")
    if p.size == 0:
        raise EmptySetError("no matched (prediction, measurement) pairs")
    residuals = m - p
    offset = float(np.mean(residuals))
    rmse = float(np.sqrt(np.mean((residuals - offset) ** 2)))
    return CalibrationOffset(offset_db=offset, residual_rmse_db=rmse, n_samples=p.size)


@dataclass(frozen=True)
class TwinModel:
    """A calibrated twin: scene + assignment + global offset."""

    scene: SceneConfig
    assignment: BeamAssignment
    offset_db: float = 0.0

    def predict(self, positions, cell_ids) -> np.ndarray:
        pts = list(zip(np.asarray(positions, dtype=float), cell_ids))
        return predict_at(self.scene, self.assignment, self.offset_db, pts)

    def predict_set(self, measurements) -> np.ndarray:
        return self.predict(measurements.positions, measurements.cell_ids)


@dataclass(frozen=True)
class DriftReport:
    """Model-vs-measurement discrepancy check against a threshold."""

    rmse_db: float
    drifted: bool
    threshold_db: float
    refit: CalibrationOffset
    n_samples: int


def drift_check(model: TwinModel, measurements, threshold_db: float) -> DriftReport:
    """RMSE of the current model on fresh measurements; flag if above threshold.

    Always returns the refit offset (an absolute replacement for the model's
    current offset) so the caller can choose to adopt it.
    """
    if len(measurements.rsrp_dbm) == 0:
        raise EmptySetError("drift check needs a nonempty measurement set")
    predicted = model.predict_set(measurements)
    errors = np.asarray(measurements.rsrp_dbm) - predicted
    rmse = float(np.sqrt(np.mean(errors ** 2)))
    uncalibrated = predicted - model.offset_db
    refit = calibrate_offset(uncalibrated, measurements.rsrp_dbm)
    return DriftReport(rmse_db=rmse, drifted=bool(rmse > threshold_db),
                       threshold_db=float(threshold_db), refit=refit,
                       n_samples=int(len(measurements.rsrp_dbm)))


def export_field_csv(field: RadioField, fh) -> None:
    """Write `x_m,y_m,z_m,cell_id,rsrp_dbm`, voxel-major then cell lexicographic."""
    fh.write("x_m,y_m,z_m,cell_id,rsrp_dbm\n")
    centers = field.grid.centers
    for v in range(field.grid.count):
        x, y, z = centers[v]
        for c, cell_id in enumerate(field.cell_ids):
            fh.write(f"{x:.3f},{y:.3f},{z:.3f},{cell_id},{field.cell_rsrp_dbm[c, v]:.4f}\n")
