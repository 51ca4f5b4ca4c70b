"""Spectrum twin: per-voxel RSRP fields from geometry, antenna gain, and FSPL.

A sub-beam's received power at a point is

    RSRP = tx_power_dbm + G(pattern, steering, direction) - FSPL(d, f) + offset_db

with FSPL = 20 log10(4 pi d f / c). The cell-level value at a voxel is the
maximum over the cell's sub-beams (beam-swept reference-signal coverage). A
single global calibration offset, fitted against measurements, absorbs
deployment-dependent factors. A field is built one block of voxel columns,
over every layer, at a time.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _csv, kernels
from .antenna import Orientation, gain
from .errors import EmptySetError, SingularityError
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


def cell_fold(scene: SceneConfig, assignment: BeamAssignment, offset_db: float, cell_ids):
    """The one cell reduction: ``geometry, fold`` for ``cell_ids``.

    ``geometry(x, y, z)`` yields each listed site's ``kernels.site_geometry``
    to the points as it is read: three (n,) arrays, or a grid block's column
    x and y (c,) and layer z (L, 1). ``fold(geometry, cell_rsrp, cell_lin)``
    writes the cell max RSRP (dBm) and summed mW of each listed cell at the
    points into row ``cell_ids.index(cell)`` of the (len(cell_ids), *points)
    arrays it is given, which may be views. Passed ``geometry(...)`` itself,
    it holds one site's geometry at a time; folds of several assignments may
    share a list of it. A cell takes one pass: ``kernels.cell_rows`` writes
    its sub-beam rows as one (sub-beams, *points) stack over the one
    ``kernels.chunks`` range a caller passes, the only (sub-beam, point)
    array; a max, its mW in place and an in-order sum (``kernels.add_rows``)
    along axis 0 reduce it. The max is exact and the sum's order is fixed,
    so the fold is deterministic for any chunking.
    """
    frequency_hz = scene.radio.frequency_hz
    sites = []
    for site in scene.sites:
        cells = [(cell_ids.index(cell.id), len(cell.sub_beams), cell.tx_power_dbm,
                  kernels.pattern_runs((sb.pattern, assignment.angle(cell.id, sb.index))
                                       for sb in sorted(cell.sub_beams, key=lambda b: b.index)))
                 for cell in site.cells if cell.id in cell_ids]
        if cells:
            sites.append((site, cells))
    depth = max((k for _, cells in sites for _, k, _, _ in cells), default=0)

    def geometry(x, y, z):
        return (kernels.site_geometry(x, y, z, site, frequency_hz) for site, _ in sites)

    def fold(geometry, cell_rsrp, cell_lin):
        stack = np.empty((depth, *cell_rsrp.shape[1:]), dtype=np.float64)
        for (_, cells), site_geometry in zip(sites, geometry):
            for c, k, tx_power_dbm, runs in cells:
                rows = kernels.cell_rows(site_geometry, runs, tx_power_dbm, offset_db, stack[:k])
                np.maximum.reduce(rows, axis=0, out=cell_rsrp[c])
                kernels.add_rows(kernels.linear_mw(rows, out=rows), cell_lin[c])

    return geometry, fold


def build_field(scene: SceneConfig, grid: VoxelGrid, assignment: BeamAssignment,
                offset_db: float = 0.0, *, threads: int = 1) -> RadioField:
    """Every voxel's cell-level RSRP and mW sum: ``cell_fold`` over every cell.

    Each task is a range of columns over every layer, one block of the
    (cells, L, C) view of the field.
    """
    assignment.validate_for(scene, require_lattice=False)
    geometry, fold = cell_fold(scene, assignment, offset_db, scene.cell_ids)
    values = np.empty((2, len(scene.cell_ids), grid.count))   # cell max and cell mW sum
    blocks = values.reshape(2, len(scene.cell_ids), *grid.shape)
    n_layers, n_columns = grid.shape
    kernels.run_tasks(lambda cols: fold(geometry(*grid.coordinates(*cols)),
                                        *blocks[..., slice(*cols)]),
                      kernels.chunks(n_columns, n_layers), threads)
    return RadioField(grid=grid, cell_ids=scene.cell_ids, cell_rsrp_dbm=values[0],
                      cell_lin_mw=values[1])


def predict_at(scene: SceneConfig, assignment: BeamAssignment, offset_db: float,
               points) -> np.ndarray:
    """Cell-level RSRP at arbitrary (position, cell id) points, in input order.

    Each cell's points go through ``build_field``'s fold, ``cell_fold``, for
    that cell alone. An unknown cell id raises ``UnknownCellError``.
    """
    assignment.validate_for(scene, require_lattice=False)
    pts = list(points)
    out = np.empty(len(pts), dtype=np.float64)
    if not pts:
        return out
    positions = np.asarray([np.asarray(p[0], dtype=float) for p in pts])
    cell_ids = [p[1] for p in pts]
    for cell_id in sorted(set(cell_ids)):
        scene.cell(cell_id)   # an unknown id raises here
        idx = np.asarray([i for i, c in enumerate(cell_ids) if c == cell_id])
        geometry, fold = cell_fold(scene, assignment, offset_db, (cell_id,))
        rsrp, lin = np.empty((2, 1, idx.size))
        for lo, hi in kernels.chunks(idx.size):
            fold(geometry(*positions[idx[lo:hi]].T), rsrp[:, lo:hi], lin[:, lo:hi])
        out[idx] = rsrp[0]
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


def export_field_csv(field: RadioField, fh) -> None:
    """Write `x_m,y_m,z_m,cell_id,rsrp_dbm`, voxel-major then cell lexicographic."""
    def lines(lo, hi):   # one record per voxel: a line per cell, each with its coordinates
        centers = field.grid.voxel_centers(lo, hi)
        xyz = [_csv.distinct(centers[:, axis], ".3f") for axis in range(3)]
        return [[*xyz, cell_id, _csv.fixed(field.cell_rsrp_dbm[c, lo:hi], 4)]
                for c, cell_id in enumerate(field.cell_ids)]

    _csv.write_csv(fh, "x_m,y_m,z_m,cell_id,rsrp_dbm", field.grid.count, lines)
