"""Interference twin: per-voxel serving cell, interference power, and SINR.

Serving cell is the argmax of cell-level RSRP (ties to the lexicographically
smallest cell id). Interference is the activity-factor-scaled linear sum of
ALL sub-beams of every non-serving cell (full-load worst case by default).
SINR is computed as

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

from .errors import EmptySetError
from .scene import RadioConstants

if TYPE_CHECKING:
    from .spectrum import RadioField

THERMAL_NOISE_DBM_PER_HZ = -174.0


@dataclass(frozen=True)
class NoiseModel:
    bandwidth_hz: float
    noise_figure_db: float
    thermal_dbm_per_hz: float = THERMAL_NOISE_DBM_PER_HZ

    def __post_init__(self):
        if self.bandwidth_hz <= 0:
            raise ValueError("bandwidth_hz must be > 0")
        if self.noise_figure_db < 0:
            raise ValueError("noise_figure_db must be >= 0")

    @classmethod
    def from_radio(cls, radio: RadioConstants) -> "NoiseModel":
        return cls(bandwidth_hz=radio.bandwidth_hz, noise_figure_db=radio.noise_figure_db)


def noise_floor_dbm(model: NoiseModel) -> float:
    """Thermal noise floor over the receive bandwidth plus noise figure."""
    return model.thermal_dbm_per_hz + 10.0 * math.log10(model.bandwidth_hz) + model.noise_figure_db


@dataclass(frozen=True)
class SinrField:
    """Per-voxel serving cell, serving RSRP, and SINR."""

    grid: object
    cell_ids: tuple[str, ...]
    serving_index: np.ndarray        # (count,) int, into cell_ids
    serving_rsrp_dbm: np.ndarray     # (count,)
    sinr_db: np.ndarray              # (count,)
    activity_factor: float
    noise_floor_dbm: float


def check_activity_factor(activity_factor: float) -> None:
    if not 0.0 <= activity_factor <= 1.0:
        raise ValueError(f"activity_factor must be in [0, 1], got {activity_factor}")


def linear_mw(rsrp_dbm: np.ndarray, out=None) -> np.ndarray:
    """dBm to mW, elementwise."""
    return np.power(10.0, np.multiply(rsrp_dbm, 0.1, out=out), out=out)


def cell_linear_sums(beam_dbm: np.ndarray,
                     slices: list[tuple[int, int]]) -> np.ndarray:
    """Per-cell linear-domain (mW) sum over sub-beam rows, fixed beam order."""
    lin = linear_mw(beam_dbm)
    out = np.empty((len(slices), beam_dbm.shape[1]), dtype=np.float64)
    for c, (a, b) in enumerate(slices):
        out[c] = np.add.reduce(lin[a:b], axis=0)
    return out


def assemble_sinr(cell_rsrp_dbm: np.ndarray, cell_lin_sums: np.ndarray,
                  noise_floor: float, activity_factor: float):
    """Serving index/value and SINR from cell-level arrays.

    Shared by the field builder and the optimizer's incremental evaluator so
    both produce bit-identical results.
    """
    n_cells, n = cell_rsrp_dbm.shape
    serving = np.argmax(cell_rsrp_dbm, axis=0)   # first max = smallest cell id
    serving_dbm = cell_rsrp_dbm[serving, np.arange(n)]
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


def build_sinr_field(field: RadioField, model: NoiseModel,
                     activity_factor: float = 1.0) -> SinrField:
    """Derive the SINR field from a RadioField's cell max and cell mW sum."""
    if len(field.cell_ids) < 1:
        raise EmptySetError("field must contain at least one cell")
    check_activity_factor(activity_factor)
    floor = noise_floor_dbm(model)
    serving, serving_dbm, sinr = assemble_sinr(field.cell_rsrp_dbm, field.cell_lin_mw,
                                               floor, activity_factor)
    return SinrField(grid=field.grid, cell_ids=field.cell_ids, serving_index=serving,
                     serving_rsrp_dbm=serving_dbm, sinr_db=sinr,
                     activity_factor=float(activity_factor), noise_floor_dbm=floor)


def serving_map(field: RadioField) -> np.ndarray:
    """Per-voxel serving cell id (argmax of cell-level RSRP, ties to smallest id)."""
    if len(field.cell_ids) < 1:
        raise EmptySetError("field must contain at least one cell")
    serving = np.argmax(field.cell_rsrp_dbm, axis=0)
    return np.asarray(field.cell_ids, dtype=object)[serving]


def export_sinr_csv(sinr_field: SinrField, fh) -> None:
    """Write `x_m,y_m,z_m,serving_cell,rsrp_dbm,sinr_db`, voxel order."""
    fh.write("x_m,y_m,z_m,serving_cell,rsrp_dbm,sinr_db\n")
    centers = sinr_field.grid.centers
    ids = sinr_field.cell_ids
    for v in range(centers.shape[0]):
        x, y, z = centers[v]
        fh.write(f"{x:.3f},{y:.3f},{z:.3f},{ids[sinr_field.serving_index[v]]},"
                 f"{sinr_field.serving_rsrp_dbm[v]:.4f},{sinr_field.sinr_db[v]:.4f}\n")
