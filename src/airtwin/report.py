"""Coverage satisfaction ratios, difference heatmaps, and comparison reports.

RSRP ratios are computed on the per-voxel serving-cell (best) value, the
analogue of a scanner's best-cell measurement. A voxel counts as jointly
covered only if it satisfies the RSRP and SINR thresholds simultaneously.
Threshold comparisons use >= throughout.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .errors import DimensionError
from .interference import SinrField
from .scene import CoverageThresholds, VoxelGrid
from .spectrum import RadioField

DEFAULT_HEATMAP_ALTITUDES_M = (50.0, 150.0, 300.0, 450.0)


@dataclass(frozen=True)
class LayerCoverage:
    z_m: float
    n_voxels: int
    ratio_rsrp_basic: float
    ratio_rsrp_strict: float
    ratio_sinr_basic: float
    ratio_sinr_strict: float
    ratio_joint_basic: float


@dataclass(frozen=True)
class CoverageReport:
    n_voxels: int
    count_rsrp_basic: int
    count_rsrp_strict: int
    count_sinr_basic: int
    count_sinr_strict: int
    count_joint_basic: int
    layers: tuple[LayerCoverage, ...]

    @property
    def ratio_rsrp_basic(self) -> float:
        return self.count_rsrp_basic / self.n_voxels

    @property
    def ratio_rsrp_strict(self) -> float:
        return self.count_rsrp_strict / self.n_voxels

    @property
    def ratio_sinr_basic(self) -> float:
        return self.count_sinr_basic / self.n_voxels

    @property
    def ratio_sinr_strict(self) -> float:
        return self.count_sinr_strict / self.n_voxels

    @property
    def ratio_joint_basic(self) -> float:
        return self.count_joint_basic / self.n_voxels

    def to_json_dict(self) -> dict:
        return {
            "n_voxels": self.n_voxels,
            "ratios": {
                "rsrp_basic": round(self.ratio_rsrp_basic, 6),
                "rsrp_strict": round(self.ratio_rsrp_strict, 6),
                "sinr_basic": round(self.ratio_sinr_basic, 6),
                "sinr_strict": round(self.ratio_sinr_strict, 6),
                "joint_basic": round(self.ratio_joint_basic, 6),
            },
            "counts": {
                "rsrp_basic": self.count_rsrp_basic,
                "rsrp_strict": self.count_rsrp_strict,
                "sinr_basic": self.count_sinr_basic,
                "sinr_strict": self.count_sinr_strict,
                "joint_basic": self.count_joint_basic,
            },
            "layers": [
                {
                    "z_m": round(l.z_m, 3),
                    "n_voxels": l.n_voxels,
                    "rsrp_basic": round(l.ratio_rsrp_basic, 6),
                    "rsrp_strict": round(l.ratio_rsrp_strict, 6),
                    "sinr_basic": round(l.ratio_sinr_basic, 6),
                    "sinr_strict": round(l.ratio_sinr_strict, 6),
                    "joint_basic": round(l.ratio_joint_basic, 6),
                }
                for l in self.layers
            ],
        }


def coverage_ratios(field: RadioField, sinr: SinrField,
                    thresholds: CoverageThresholds, mask=None) -> CoverageReport:
    """Threshold satisfaction ratios, aggregate and per altitude layer.

    ``mask`` optionally restricts the computation to a subset of voxel indices
    (e.g. voxels along measured flight routes); each index may appear once.
    """
    if field.grid is not sinr.grid and field.grid.count != sinr.grid.count:
        raise DimensionError("RSRP and SINR fields do not share a grid")
    idx = np.arange(field.grid.count) if mask is None else np.asarray(mask, dtype=np.int64)
    if idx.size == 0:
        raise DimensionError("voxel mask selects no voxels")
    if idx.min() < 0 or idx.max() >= field.grid.count:
        raise DimensionError(
            f"voxel mask indices must lie in [0, {field.grid.count}), "
            f"got {idx.min()}..{idx.max()}")
    if mask is not None:
        first = np.unique(idx, return_index=True)[1]
        if first.size < idx.size:
            repeat = np.ones(idx.size, dtype=bool)
            repeat[first] = False
            raise DimensionError(f"voxel mask repeats index {idx[repeat][0]}")
    serving = sinr.serving_rsrp_dbm[idx]
    sinr_db = sinr.sinr_db[idx]
    zs = field.grid.centers[idx, 2]

    rsrp_basic = serving >= thresholds.rsrp_basic_dbm
    rsrp_strict = serving >= thresholds.rsrp_strict_dbm
    sinr_basic = sinr_db >= thresholds.sinr_basic_db
    sinr_strict = sinr_db >= thresholds.sinr_strict_db
    joint = rsrp_basic & sinr_basic

    layers = []
    for z in np.unique(zs):
        sel = zs == z
        n = int(np.count_nonzero(sel))
        layers.append(LayerCoverage(
            z_m=float(z), n_voxels=n,
            ratio_rsrp_basic=int(np.count_nonzero(rsrp_basic[sel])) / n,
            ratio_rsrp_strict=int(np.count_nonzero(rsrp_strict[sel])) / n,
            ratio_sinr_basic=int(np.count_nonzero(sinr_basic[sel])) / n,
            ratio_sinr_strict=int(np.count_nonzero(sinr_strict[sel])) / n,
            ratio_joint_basic=int(np.count_nonzero(joint[sel])) / n,
        ))

    return CoverageReport(
        n_voxels=int(idx.size),
        count_rsrp_basic=int(np.count_nonzero(rsrp_basic)),
        count_rsrp_strict=int(np.count_nonzero(rsrp_strict)),
        count_sinr_basic=int(np.count_nonzero(sinr_basic)),
        count_sinr_strict=int(np.count_nonzero(sinr_strict)),
        count_joint_basic=int(np.count_nonzero(joint)),
        layers=tuple(layers),
    )


@dataclass(frozen=True)
class HeatmapLayer:
    z_m: float
    x_m: np.ndarray
    y_m: np.ndarray
    delta_db: np.ndarray


def difference_heatmap(before, after, grid: VoxelGrid, altitude_m: float) -> HeatmapLayer:
    """Per-voxel (after - before) for the layer containing ``altitude_m``."""
    before = np.asarray(before, dtype=float)
    after = np.asarray(after, dtype=float)
    if before.shape != (grid.count,) or after.shape != (grid.count,):
        raise DimensionError(
            f"per-voxel arrays must have shape ({grid.count},), "
            f"got {before.shape} and {after.shape}"
        )
    idx = grid.layer_indices(altitude_m)
    return HeatmapLayer(
        z_m=float(grid.centers[idx[0], 2]),
        x_m=grid.centers[idx, 0].copy(),
        y_m=grid.centers[idx, 1].copy(),
        delta_db=after[idx] - before[idx],
    )


def export_heatmap_csv(layer: HeatmapLayer, fh) -> None:
    fh.write("x_m,y_m,delta_db\n")
    for x, y, d in zip(layer.x_m, layer.y_m, layer.delta_db):
        fh.write(f"{x:.3f},{y:.3f},{d:.4f}\n")


@dataclass(frozen=True)
class CompareReport:
    before: CoverageReport
    after: CoverageReport

    def deltas(self) -> dict:
        return {
            "rsrp_basic": self.after.ratio_rsrp_basic - self.before.ratio_rsrp_basic,
            "rsrp_strict": self.after.ratio_rsrp_strict - self.before.ratio_rsrp_strict,
            "sinr_basic": self.after.ratio_sinr_basic - self.before.ratio_sinr_basic,
            "sinr_strict": self.after.ratio_sinr_strict - self.before.ratio_sinr_strict,
            "joint_basic": self.after.ratio_joint_basic - self.before.ratio_joint_basic,
        }

    def to_json_dict(self) -> dict:
        return {
            "before": self.before.to_json_dict(),
            "after": self.after.to_json_dict(),
            "ratio_deltas": {k: round(v, 6) for k, v in self.deltas().items()},
        }


def compare_report(before: tuple[RadioField, SinrField],
                   after: tuple[RadioField, SinrField],
                   thresholds: CoverageThresholds, mask=None) -> CompareReport:
    """Coverage reports for two configurations plus per-ratio deltas."""
    field_b, sinr_b = before
    field_a, sinr_a = after
    if field_b.grid.count != field_a.grid.count:
        raise DimensionError("before/after fields do not share a grid")
    return CompareReport(
        before=coverage_ratios(field_b, sinr_b, thresholds, mask),
        after=coverage_ratios(field_a, sinr_a, thresholds, mask),
    )


def save_json_report(data: dict, path) -> None:
    with open(path, "w") as fh:
        json.dump(data, fh, indent=2, sort_keys=True)
        fh.write("\n")
