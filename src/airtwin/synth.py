"""Synthetic measurement generation: a desk-scale stand-in for UAV scans.

Trajectories (helix or lawnmower passes) are sampled inside the airspace;
values are twin predictions plus seeded Gaussian noise, so generated datasets
have a known ground truth for calibration/validation experiments.
"""

from __future__ import annotations

import math
import sys

import numpy as np

from .errors import InputError
from .measurements import MeasurementSet
from .scene import CylinderSpec, SceneConfig
from .spectrum import predict_at


def helix_trajectory(airspace: CylinderSpec, n_points: int = 400,
                     turns: float = 3.0) -> np.ndarray:
    """Ascending spiral at 0.8 of the radius over 10-90% of the altitude band; (n_points, 3)."""
    t = np.linspace(0.0, 1.0, n_points)
    angle = 2.0 * np.pi * turns * t
    r = 0.8 * airspace.radius_m
    z0 = airspace.z_min_m + 0.1 * (airspace.z_max_m - airspace.z_min_m)
    z1 = airspace.z_min_m + 0.9 * (airspace.z_max_m - airspace.z_min_m)
    out = np.empty((n_points, 3))
    out[:, 0] = airspace.center_m[0] + r * np.sin(angle)
    out[:, 1] = airspace.center_m[1] + r * np.cos(angle)
    out[:, 2] = z0 + (z1 - z0) * t
    return out


def lawnmower_trajectory(airspace: CylinderSpec, altitudes_m, line_spacing_m: float = 100.0,
                         step_m: float = 50.0) -> np.ndarray:
    """Serpentine x-sweeps at each altitude, restricted to the cylinder."""
    cx, cy = airspace.center_m
    r = airspace.radius_m
    ys = np.arange(cy - r + line_spacing_m / 2.0, cy + r, line_spacing_m)
    points = []
    for z in altitudes_m:
        for row, y in enumerate(ys):
            half = np.sqrt(max(r * r - (y - cy) ** 2, 0.0))
            if half < step_m:
                continue
            xs = np.arange(cx - half + step_m / 2.0, cx + half, step_m)
            if row % 2 == 1:
                xs = xs[::-1]
            for x in xs:
                points.append((x, y, z))
    return np.asarray(points, dtype=float).reshape(-1, 3)


def clip_to_airspace(points: np.ndarray, airspace: CylinderSpec) -> tuple[np.ndarray, int]:
    """Clamp positions onto the cylinder; returns (points, n_clipped)."""
    p = np.array(points, dtype=float)
    dx = p[:, 0] - airspace.center_m[0]
    dy = p[:, 1] - airspace.center_m[1]
    dist = np.sqrt(dx * dx + dy * dy)
    outside = (dist > airspace.radius_m) | (p[:, 2] < airspace.z_min_m) | (p[:, 2] > airspace.z_max_m)
    n_clipped = int(np.count_nonzero(outside))
    radial = dist > airspace.radius_m
    if np.any(radial):
        scale = airspace.radius_m / dist[radial]
        p[radial, 0] = airspace.center_m[0] + dx[radial] * scale
        p[radial, 1] = airspace.center_m[1] + dy[radial] * scale
    p[:, 2] = np.clip(p[:, 2], airspace.z_min_m, airspace.z_max_m)
    return p, n_clipped


def synthesize_measurements(scene: SceneConfig, assignment, trajectory: np.ndarray,
                            sigma_db: float, seed: int, offset_db: float = 0.0,
                            cells: str = "all") -> MeasurementSet:
    """Twin predictions along a trajectory plus seeded Gaussian noise.

    ``cells`` is "all" (one sample per cell per point) or "serving" (the
    best cell only). Out-of-airspace trajectory points are clipped with a
    warning on stderr.
    """
    if not (math.isfinite(sigma_db) and sigma_db >= 0):
        raise InputError(f"noise sigma_db must be finite and >= 0, got {sigma_db}")
    trajectory, n_clipped = clip_to_airspace(trajectory, scene.airspace)
    if n_clipped:
        print(f"warning: clipped {n_clipped} trajectory point(s) to the airspace",
              file=sys.stderr)

    cell_ids = scene.cell_ids
    points = []
    for pos in trajectory:
        for cid in cell_ids:
            points.append((pos, cid))
    predictions = predict_at(scene, assignment, offset_db, points)

    if cells == "serving":
        per_point = predictions.reshape(len(trajectory), len(cell_ids))
        best = np.argmax(per_point, axis=1)
        keep_positions = trajectory
        keep_cells = [cell_ids[b] for b in best]
        keep_values = per_point[np.arange(len(trajectory)), best]
    elif cells == "all":
        keep_positions = np.repeat(trajectory, len(cell_ids), axis=0)
        keep_cells = [cid for _ in range(len(trajectory)) for cid in cell_ids]
        keep_values = predictions
    else:
        raise ValueError(f"cells must be 'all' or 'serving', got {cells!r}")

    rng = np.random.default_rng(seed)
    noisy = keep_values + rng.normal(0.0, sigma_db, size=len(keep_values)) if sigma_db > 0 \
        else np.asarray(keep_values, dtype=float)
    return MeasurementSet(
        seq=np.arange(len(noisy), dtype=np.int64),
        positions=np.asarray(keep_positions, dtype=float),
        cell_ids=np.asarray(keep_cells, dtype=object),
        rsrp_dbm=np.asarray(noisy, dtype=float),
    )

