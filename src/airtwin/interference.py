"""Interference twin: per-voxel serving cell, interference power, and SINR.

Serving cell is the strongest cell by cell-level RSRP, found by one running
first max over the cell rows: a later cell takes a voxel only when strictly
stronger, so a tie goes to the lexicographically smallest cell id. The same
pass yields the serving RSRP. Interference is the activity-factor-scaled
linear sum of ALL sub-beams of every non-serving cell (full-load worst case
by default). SINR is computed as

    SINR_dB = serving_dBm - noise_floor_dBm - 10 log10(1 + I_mW / N_mW)

which is algebraically serving - 10 log10(I + N) but keeps the single-cell
case exact (I = 0 gives SINR = RSRP - noise floor with no rounding) and makes
"more interference never raises SINR" hold in floating point.

``build_sinr_field`` streams assignments one block at a time, a range of
voxel columns over every layer, into per-layer coverage counts and heatmap
layers, holding no per-voxel array over the grid; ``sinr_from_field`` derives
a SinrField from a RadioField a caller keeps (``build`` exports it,
``optimize`` scores it). Both end in ``assemble_sinr``.
"""

from __future__ import annotations

import contextlib
import math
from dataclasses import dataclass

import numpy as np

from . import _csv, kernels
from .errors import EmptySetError, LayerError
from .report import CRITERIA, layer_counts, selection
from .scene import RadioConstants, SceneConfig, VoxelGrid
from .spectrum import RadioField, cell_fold

THERMAL_NOISE_DBM_PER_HZ = -174.0


def noise_floor_dbm(radio: RadioConstants) -> float:
    """Thermal noise floor over the receive bandwidth plus noise figure."""
    return (THERMAL_NOISE_DBM_PER_HZ + 10.0 * math.log10(radio.bandwidth_hz)
            + radio.noise_figure_db)


@dataclass(frozen=True)
class SinrField:
    """Per-voxel serving cell, serving RSRP, and SINR."""

    grid: VoxelGrid
    cell_ids: tuple[str, ...]
    serving_index: np.ndarray        # (count,) int, into cell_ids
    serving_rsrp_dbm: np.ndarray     # (count,)
    sinr_db: np.ndarray              # (count,)


def check_activity_factor(activity_factor: float) -> None:
    if not 0.0 <= activity_factor <= 1.0:
        raise ValueError(f"activity_factor must be in [0, 1], got {activity_factor}")


def first_max(cell_rsrp_dbm: np.ndarray, cells) -> tuple[np.ndarray, np.ndarray]:
    """Per voxel, the first of ``cells`` with the highest RSRP, and that RSRP.

    One running max over the cells' rows, in the order given: a later cell
    takes a voxel only when it is strictly stronger, so a tie keeps the
    earlier cell.
    """
    first, *rest = cells
    best = np.full(cell_rsrp_dbm.shape[1:], first)
    best_dbm = cell_rsrp_dbm[first].copy()
    better = np.empty(best.shape, dtype=bool)
    for c in rest:
        np.greater(cell_rsrp_dbm[c], best_dbm, out=better)
        np.copyto(best_dbm, cell_rsrp_dbm[c], where=better)
        np.copyto(best, c, where=better)
    return best, best_dbm


def assemble_sinr(cell_rsrp_dbm: np.ndarray, cell_lin_sums: np.ndarray,
                  noise_floor: float, activity_factor: float):
    """Serving index/value and SINR from cell-level arrays.

    Shared by the field builder and the optimizer's incremental evaluator so
    both produce bit-identical results.
    """
    n_cells = len(cell_rsrp_dbm)
    serving, serving_dbm = first_max(cell_rsrp_dbm, range(n_cells))   # ties: smaller id
    interference = np.zeros(serving.shape, dtype=np.float64)
    for c in range(n_cells):
        np.add(interference, cell_lin_sums[c], out=interference, where=serving != c)
    return serving, serving_dbm, sinr_db(serving_dbm, interference, noise_floor,
                                         activity_factor)


def sinr_db(serving_dbm: np.ndarray, interference_mw: np.ndarray, noise_floor: float,
            activity_factor: float, out=None) -> np.ndarray:
    """The module-level SINR formula, elementwise; ``out`` may be ``interference_mw``."""
    noise_mw = 10.0 ** (noise_floor * 0.1)
    loss = np.multiply(activity_factor, interference_mw, out=out)
    loss = np.divide(loss, noise_mw, out=out)
    loss = np.add(1.0, loss, out=out)
    loss = np.log10(loss, out=out)
    loss = np.multiply(10.0, loss, out=out)
    return np.subtract(serving_dbm - noise_floor, loss, out=out)


def sinr_from_field(field: RadioField, radio: RadioConstants,
                    activity_factor: float = 1.0) -> SinrField:
    """Derive the SINR field from a RadioField's cell max and cell mW sum."""
    if len(field.cell_ids) < 1:
        raise EmptySetError("field must contain at least one cell")
    check_activity_factor(activity_factor)
    serving, serving_dbm, sinr = assemble_sinr(field.cell_rsrp_dbm, field.cell_lin_mw,
                                               noise_floor_dbm(radio), activity_factor)
    return SinrField(grid=field.grid, cell_ids=field.cell_ids, serving_index=serving,
                     serving_rsrp_dbm=serving_dbm, sinr_db=sinr)


def build_sinr_field(scene: SceneConfig, grid: VoxelGrid, assignments, offset_db: float = 0.0,
                     activity_factor: float = 1.0, *, mask=None, altitudes=(),
                     threads: int = 1):
    """``(counts, layers)`` of each of ``assignments``, streamed one block at a time.

    ``counts[a]`` is assignment ``a``'s ``report.layer_counts`` against
    ``scene.thresholds``, the ``mask`` selection ANDed in. ``layers`` maps each
    of ``altitudes`` in the grid to its layer's serving RSRP and SINR, an
    (assignments, 2, columns) array. A block is a ``kernels.chunks`` range of
    columns over every layer. Each block folds one assignment after another
    (``spectrum.cell_fold``) into one set of reused (cells, L, c) buffers;
    several share one list of the sites' geometry, a single one reads it a
    site at a time. Counts are integers and every other step is elementwise
    per voxel, so every number equals ``report``'s from ``sinr_from_field``
    of ``build_field``, bit for bit, for any ``threads``.
    """
    for assignment in assignments:
        assignment.validate_for(scene, require_lattice=False)
    check_activity_factor(activity_factor)
    selected = None if mask is None else selection(mask, grid.count).reshape(grid.shape)
    folds = [cell_fold(scene, assignment, offset_db, scene.cell_ids) for assignment in assignments]
    geometry = folds[0][0]   # the same sites for every assignment
    noise_floor = noise_floor_dbm(scene.radio)
    n_layers, n_columns = grid.shape
    layers = {}   # each altitude's layer index and values
    for alt in altitudes:
        with contextlib.suppress(LayerError):   # an altitude outside the grid has no layer
            layers[alt] = grid.layer(alt), np.empty((len(folds), 2, n_columns))
    tasks = kernels.chunks(n_columns, n_layers)
    threads = max(1, min(threads, len(tasks)))
    counts = np.zeros((threads, len(folds), 1 + len(CRITERIA), n_layers), np.int64)

    def work(t):   # thread t's blocks and counts, in one set of block buffers
        lo, hi = tasks[t]   # its widest block
        buffers = np.empty((2, len(scene.cell_ids), n_layers, hi - lo))
        for lo, hi in tasks[t::threads]:
            cell_rsrp, cell_lin = buffers[..., :hi - lo]
            sites = geometry(*grid.coordinates(lo, hi))
            sites = sites if len(folds) == 1 else list(sites)
            for a, (_, fold) in enumerate(folds):
                fold(sites, cell_rsrp, cell_lin)
                _, serving_dbm, sinr = assemble_sinr(cell_rsrp, cell_lin, noise_floor,
                                                     activity_factor)
                counts[t, a] += layer_counts(serving_dbm, sinr, scene.thresholds,
                                             None if selected is None else selected[:, lo:hi])
                for k, layer in layers.values():
                    layer[a, 0, lo:hi] = serving_dbm[k]
                    layer[a, 1, lo:hi] = sinr[k]

    kernels.run_tasks(work, range(threads), threads)
    return counts.sum(axis=0), {alt: layer for alt, (_, layer) in layers.items()}


def export_sinr_csv(sinr_field: SinrField, fh) -> None:
    """Write `x_m,y_m,z_m,serving_cell,rsrp_dbm,sinr_db`, voxel order."""
    grid = sinr_field.grid
    ids = _csv.text_rows(sinr_field.cell_ids)

    def lines(lo, hi):
        centers = grid.voxel_centers(lo, hi)
        return [[*(_csv.distinct(centers[:, axis], ".3f") for axis in range(3)),
                 _csv.take(ids, sinr_field.serving_index[lo:hi]),
                 _csv.fixed(sinr_field.serving_rsrp_dbm[lo:hi], 4),
                 _csv.fixed(sinr_field.sinr_db[lo:hi], 4)]]

    _csv.write_csv(fh, "x_m,y_m,z_m,serving_cell,rsrp_dbm,sinr_db", grid.count, lines)
