"""Coverage satisfaction ratios, difference heatmaps, and comparison reports.

RSRP ratios are computed on the per-voxel serving-cell (best) value, the
analogue of a scanner's best-cell measurement. A voxel counts as jointly
covered only if it satisfies the RSRP and SINR thresholds simultaneously.
Threshold comparisons use >= throughout.

Per-layer ratios read the grid's layer table: every altitude layer is one
contiguous index range, so ``layer_counts`` counts a criterion's flags in
every layer a run of voxels meets with one ``np.add.reduceat``, for a whole
SinrField or for each chunk ``interference.build_sinr_field`` streams. A
``mask`` may pick any voxels: it becomes one boolean selection ANDed into
the flags, and a layer it leaves empty is omitted.
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


def layer_counts(grid: VoxelGrid, lo: int, serving_rsrp_dbm, sinr_db,
                 thresholds: CoverageThresholds, selected=None):
    """``(k, counts)`` over voxels ``lo`` to ``lo + len(sinr_db)``, per altitude layer.

    ``selected`` is their slice of a mask's ``selection`` (None: all). Column
    j of the int64 (1 + len(CRITERIA), layers) ``counts`` is layer ``k + j``:
    row 0 counts its selected voxels, row 1 + i those meeting criterion i.
    """
    hi = lo + len(sinr_db)
    bounds = grid.layer_bounds
    k = int(np.searchsorted(bounds, lo, side="right")) - 1
    edges = np.clip(bounds[k:np.searchsorted(bounds, hi) + 1], lo, hi) - lo
    starts = edges[:-1]   # each layer met is a non-empty contiguous range
    n = np.diff(edges) if selected is None else np.add.reduceat(selected, starts, dtype=np.int64)
    counts = [n]
    for test in CRITERIA.values():
        flags = test(serving_rsrp_dbm, sinr_db, thresholds)
        if selected is not None:
            flags &= selected
        counts.append(np.add.reduceat(flags, starts, dtype=np.int64))
    return k, np.stack(counts)


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
    selected = None if mask is None else selection(mask, sinr.grid.count)
    return coverage_report(sinr.grid, layer_counts(sinr.grid, 0, sinr.serving_rsrp_dbm,
                                                   sinr.sinr_db, thresholds, selected)[1])


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
    idx = grid.layer_indices(altitude_m)
    before = np.asarray(before, dtype=float)
    after = np.asarray(after, dtype=float)
    if before.shape != idx.shape or after.shape != idx.shape:
        raise DimensionError(
            f"layer values must have shape {idx.shape}, got {before.shape} and {after.shape}")
    return HeatmapLayer(
        z_m=float(grid.centers[idx[0], 2]),
        x_m=grid.centers[idx, 0].copy(),
        y_m=grid.centers[idx, 1].copy(),
        delta_db=after - before,
    )


def export_heatmap_csv(layer: HeatmapLayer, fh) -> None:
    """Write `x_m,y_m,delta_db`, one line per voxel of the layer."""
    _csv.write_csv(fh, "x_m,y_m,delta_db", len(layer.delta_db), lambda lo, hi: [[
        _csv.distinct(layer.x_m[lo:hi], ".3f"), _csv.distinct(layer.y_m[lo:hi], ".3f"),
        _csv.formatted(layer.delta_db[lo:hi], ".4f")]])


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


def compare_report(sinr_before: SinrField, sinr_after: SinrField,
                   thresholds: CoverageThresholds, mask=None) -> CompareReport:
    """Coverage reports for two configurations; ``to_json_dict`` adds per-ratio deltas."""
    if sinr_before.grid.count != sinr_after.grid.count:
        raise DimensionError("before/after fields do not share a grid")
    return CompareReport(before=coverage_ratios(sinr_before, thresholds, mask),
                         after=coverage_ratios(sinr_after, thresholds, mask))


def save_json_report(data: dict, path) -> None:
    with open(path, "w") as fh:
        json.dump(data, fh, indent=2, sort_keys=True)
        fh.write("\n")
