"""Coverage satisfaction ratios, difference heatmaps, and comparison reports.

RSRP ratios are computed on the per-voxel serving-cell (best) value, the
analogue of a scanner's best-cell measurement. A voxel counts as jointly
covered only if it satisfies the RSRP and SINR thresholds simultaneously.
Threshold comparisons use >= throughout.

Per-layer ratios read the grid's shape: a per-voxel array is an (L, C)
array of layers by columns, so ``layer_counts`` counts a criterion's flags
in each layer of an (L, c) block as one sum over the block's rows, for a
whole SinrField or for each range of columns ``interference.build_sinr_field``
streams. A ``mask`` may pick any voxels: it becomes one boolean selection
ANDed into the flags, and a layer it leaves empty is omitted.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from . import _csv
from .errors import DimensionError
from .scene import CoverageThresholds, VoxelGrid

if TYPE_CHECKING:
    from .interference import SinrField

DEFAULT_HEATMAP_ALTITUDES_M = (50.0, 150.0, 300.0, 450.0)

# Each coverage criterion and its test on a voxel's (serving RSRP, SINR).
CRITERIA = {
    "rsrp_basic": lambda rsrp, sinr, t: rsrp >= t.rsrp_basic_dbm,
    "rsrp_strict": lambda rsrp, sinr, t: rsrp >= t.rsrp_strict_dbm,
    "sinr_basic": lambda rsrp, sinr, t: sinr >= t.sinr_basic_db,
    "sinr_strict": lambda rsrp, sinr, t: sinr >= t.sinr_strict_db,
    "joint_basic": lambda rsrp, sinr, t: (rsrp >= t.rsrp_basic_dbm) & (sinr >= t.sinr_basic_db),
}


class _Counts:
    """``n_voxels`` and ``counts``, the voxels that meet each criterion."""

    def ratio(self, name: str) -> float:
        return self.counts[name] / self.n_voxels


@dataclass(frozen=True)
class LayerCoverage(_Counts):
    z_m: float
    n_voxels: int
    counts: dict[str, int]


@dataclass(frozen=True)
class CoverageReport(_Counts):
    n_voxels: int
    counts: dict[str, int]
    layers: tuple[LayerCoverage, ...]

    def to_json_dict(self) -> dict:
        return {
            "n_voxels": self.n_voxels,
            "ratios": {name: round(self.ratio(name), 6) for name in CRITERIA},
            "counts": dict(self.counts),
            "layers": [{"z_m": round(l.z_m, 3), "n_voxels": l.n_voxels,
                        **{name: round(l.ratio(name), 6) for name in CRITERIA}}
                       for l in self.layers],
        }


def layer_counts(serving_rsrp_dbm, sinr_db, thresholds: CoverageThresholds, selected=None):
    """Int64 (1 + len(CRITERIA), L) counts of an (L, c) block of voxels, per layer.

    ``selected`` is the block's part of a mask's ``selection`` (None: all).
    Column k is layer k: row 0 counts its selected voxels, row 1 + i those
    meeting criterion i.
    """
    n_layers, n_columns = np.shape(sinr_db)
    counts = [np.full(n_layers, n_columns) if selected is None
              else np.count_nonzero(selected, axis=1)]
    for test in CRITERIA.values():
        flags = test(serving_rsrp_dbm, sinr_db, thresholds)
        if selected is not None:
            flags &= selected
        counts.append(np.count_nonzero(flags, axis=1))
    return np.stack(counts)


def coverage_report(grid: VoxelGrid, counts) -> CoverageReport:
    """The report of a ``layer_counts`` array over every layer of ``grid``."""
    n, *met = counts
    layers = tuple(
        LayerCoverage(z_m=float(grid.layer_z[k]), n_voxels=int(n[k]),
                      counts={name: int(count[k]) for name, count in zip(CRITERIA, met)})
        for k in np.flatnonzero(n))
    return CoverageReport(n_voxels=int(n.sum()), layers=layers,
                          counts={name: int(count.sum()) for name, count in zip(CRITERIA, met)})


def coverage_ratios(sinr: SinrField, thresholds: CoverageThresholds,
                    mask=None) -> CoverageReport:
    """Threshold satisfaction ratios, aggregate and per altitude layer.

    ``mask`` optionally restricts the computation to a subset of voxel indices
    (e.g. voxels along measured flight routes); each index may appear once.
    """
    grid = sinr.grid
    selected = None if mask is None else selection(mask, grid.count).reshape(grid.shape)
    return coverage_report(grid, layer_counts(sinr.serving_rsrp_dbm.reshape(grid.shape),
                                              sinr.sinr_db.reshape(grid.shape), thresholds,
                                              selected))


def selection(mask, count: int) -> np.ndarray:
    """The voxels a mask of indices picks, as a (count,) boolean array."""
    idx = np.asarray(mask, dtype=np.int64)
    if idx.size == 0:
        raise DimensionError("voxel mask selects no voxels")
    if idx.min() < 0 or idx.max() >= count:
        raise DimensionError(
            f"voxel mask indices must lie in [0, {count}), got {idx.min()}..{idx.max()}")
    selected = np.zeros(count, dtype=bool)
    selected[idx] = True
    if np.count_nonzero(selected) < idx.size:
        first = np.unique(idx, return_index=True)[1]
        repeat = np.ones(idx.size, dtype=bool)
        repeat[first] = False
        raise DimensionError(f"voxel mask repeats index {idx[repeat][0]}")
    return selected


@dataclass(frozen=True)
class HeatmapLayer:
    z_m: float
    x_m: np.ndarray
    y_m: np.ndarray
    delta_db: np.ndarray


def difference_heatmap(before, after, grid: VoxelGrid, altitude_m: float) -> HeatmapLayer:
    """(after - before) on the layer containing ``altitude_m``, from that layer's values."""
    k = grid.layer(altitude_m)
    before = np.asarray(before, dtype=float)
    after = np.asarray(after, dtype=float)
    shape = grid.columns.shape[:1]
    if before.shape != shape or after.shape != shape:
        raise DimensionError(
            f"layer values must have shape {shape}, got {before.shape} and {after.shape}")
    return HeatmapLayer(
        z_m=float(grid.layer_z[k]),
        x_m=grid.columns[:, 0].copy(),
        y_m=grid.columns[:, 1].copy(),
        delta_db=after - before,
    )


def export_heatmap_csv(layer: HeatmapLayer, fh) -> None:
    """Write `x_m,y_m,delta_db`, one line per voxel of the layer."""
    _csv.write_csv(fh, "x_m,y_m,delta_db", len(layer.delta_db), lambda lo, hi: [[
        _csv.distinct(layer.x_m[lo:hi], ".3f"), _csv.distinct(layer.y_m[lo:hi], ".3f"),
        _csv.fixed(layer.delta_db[lo:hi], 4)]])


@dataclass(frozen=True)
class CompareReport:
    before: CoverageReport
    after: CoverageReport

    def to_json_dict(self) -> dict:
        return {
            "before": self.before.to_json_dict(),
            "after": self.after.to_json_dict(),
            "ratio_deltas": {name: round(self.after.ratio(name) - self.before.ratio(name), 6)
                             for name in CRITERIA},
        }


def save_json_report(data: dict, path) -> None:
    with open(path, "w") as fh:
        json.dump(data, fh, indent=2, sort_keys=True)
        fh.write("\n")
