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
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from . import _csv, kernels
from .errors import EmptySetError

if TYPE_CHECKING:
    from .scene import RadioConstants
    from .spectrum import RadioField

THERMAL_NOISE_DBM_PER_HZ = -174.0

_TENS = np.full(kernels._CHUNK, 10.0)   # the base of every linear_mw
_TENS.flags.writeable = False


def noise_floor_dbm(radio: RadioConstants) -> float:
    """Thermal noise floor over the receive bandwidth plus noise figure."""
    return (THERMAL_NOISE_DBM_PER_HZ + 10.0 * math.log10(radio.bandwidth_hz)
            + radio.noise_figure_db)


@dataclass(frozen=True)
class SinrField:
    """Per-voxel serving cell, serving RSRP, and SINR."""

    grid: object
    cell_ids: tuple[str, ...]
    serving_index: np.ndarray        # (count,) int, into cell_ids
    serving_rsrp_dbm: np.ndarray     # (count,)
    sinr_db: np.ndarray              # (count,)


def check_activity_factor(activity_factor: float) -> None:
    if not 0.0 <= activity_factor <= 1.0:
        raise ValueError(f"activity_factor must be in [0, 1], got {activity_factor}")


def linear_mw(rsrp_dbm: np.ndarray, out=None) -> np.ndarray:
    """dBm to mW, elementwise: ``10 ** (0.1 x)``; ``out`` may be ``rsrp_dbm``.

    numpy raises a contiguous array of bases about twice as fast as a scalar
    or stride-0 base, with the same bits. So the exponents are raised against
    the read-only ``_TENS``, in place, one ``kernels`` chunk of the last axis
    at a time, and no temporary is made: the optimizer passes a (7, N) array
    of rows that is 200+ MB at paper scale.
    """
    mw = np.multiply(rsrp_dbm, 0.1, out=out)
    if np.ndim(mw) == 0:
        return np.power(10.0, mw, out=out)
    for index in np.ndindex(mw.shape[:-1]):
        line = mw[index]
        for lo in range(0, line.size, _TENS.size):
            part = line[lo:lo + _TENS.size]
            np.power(_TENS[:part.size], part, out=part)
    return mw


def first_max(cell_rsrp_dbm: np.ndarray, cells) -> tuple[np.ndarray, np.ndarray]:
    """Per voxel, the first of ``cells`` with the highest RSRP, and that RSRP.

    One running max over the cells' rows, in the order given: a later cell
    takes a voxel only when it is strictly stronger, so a tie keeps the
    earlier cell.
    """
    first, *rest = cells
    best = np.full(cell_rsrp_dbm.shape[1], first)
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
    n_cells, n = cell_rsrp_dbm.shape
    serving, serving_dbm = first_max(cell_rsrp_dbm, range(n_cells))   # ties: smaller id
    interference = np.zeros(n, dtype=np.float64)
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


def build_sinr_field(field: RadioField, radio: RadioConstants,
                     activity_factor: float = 1.0) -> SinrField:
    """Derive the SINR field from a RadioField's cell max and cell mW sum."""
    if len(field.cell_ids) < 1:
        raise EmptySetError("field must contain at least one cell")
    check_activity_factor(activity_factor)
    serving, serving_dbm, sinr = assemble_sinr(field.cell_rsrp_dbm, field.cell_lin_mw,
                                               noise_floor_dbm(radio), activity_factor)
    return SinrField(grid=field.grid, cell_ids=field.cell_ids, serving_index=serving,
                     serving_rsrp_dbm=serving_dbm, sinr_db=sinr)


def export_sinr_csv(sinr_field: SinrField, fh) -> None:
    """Write `x_m,y_m,z_m,serving_cell,rsrp_dbm,sinr_db`, voxel order."""
    centers = sinr_field.grid.centers
    ids = np.asarray(_csv.formatted(sinr_field.cell_ids, ""), dtype=object)

    def lines(lo, hi):
        return [[*(_csv.distinct(centers[lo:hi, axis], ".3f") for axis in range(3)),
                 ids[sinr_field.serving_index[lo:hi]].tolist(),
                 _csv.formatted(sinr_field.serving_rsrp_dbm[lo:hi], ".4f"),
                 _csv.formatted(sinr_field.sinr_db[lo:hi], ".4f")]]

    _csv.write_csv(fh, "x_m,y_m,z_m,serving_cell,rsrp_dbm,sinr_db", centers.shape[0], lines)
