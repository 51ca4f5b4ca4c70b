"""Network and airspace geometry: scene configuration, voxel grid, assignments.

Coordinates are a local ENU frame in meters (x east, y north, z up) with an
origin declared by whoever produced the scene file; geodetic conversion
happens at ingestion, never here.
"""

from __future__ import annotations

import functools
import json
import math
import os
from dataclasses import dataclass, field

import numpy as np

from .antenna import (
    MAX_LEVEL_DB,
    AntennaPattern,
    Orientation,
    TablePattern,
    load_pattern_table,
)
from .errors import (
    BoundsError,
    EmptyGridError,
    IncompleteAssignmentError,
    SceneSchemaError,
    SceneValidationError,
    UnknownCellError,
)

DEFAULT_CANDIDATE_STEP = (5.0, 3.0)  # az, tilt degrees

MIN_FREQUENCY_HZ = 1e3
MIN_BANDWIDTH_HZ, MAX_BANDWIDTH_HZ = 1.0, 1e12
MAX_COORDINATE_M = 1e7   # farther out, a site's squared distance to a point could overflow

_ANGLE_TOL = 1e-6


def _require_finite(section: str, spec, names) -> None:
    for name in names:
        if not math.isfinite(getattr(spec, name)):
            raise SceneValidationError(
                f"{section}.{name} must be finite, got {getattr(spec, name)}")


# ---------------------------------------------------------------------------
# Airspace and voxel grid
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class CylinderSpec:
    """Cylindrical airspace: horizontal center, radius, altitude band, voxel edge."""

    center_m: tuple[float, float]
    radius_m: float
    z_min_m: float
    z_max_m: float
    voxel_m: float

    def __post_init__(self):
        object.__setattr__(self, "center_m", (float(self.center_m[0]), float(self.center_m[1])))
        _require_finite("airspace", self, ("radius_m", "z_min_m", "z_max_m", "voxel_m"))
        if self.radius_m <= 0:
            raise SceneValidationError(f"airspace.radius_m must be > 0, got {self.radius_m}")
        # Like a site, so a voxel's squared distance to a site cannot overflow.
        extent = (*(abs(c) + self.radius_m for c in self.center_m),
                  abs(self.z_min_m), abs(self.z_max_m))
        if not all(e <= MAX_COORDINATE_M for e in extent):
            raise SceneValidationError(
                f"airspace.center_m +- radius_m and z_min_m..z_max_m must lie within "
                f"+-{MAX_COORDINATE_M:g} m, got center_m {self.center_m}, radius_m "
                f"{self.radius_m}, z {self.z_min_m}..{self.z_max_m}")
        if self.z_max_m <= self.z_min_m:
            raise SceneValidationError(
                f"airspace.z_max_m ({self.z_max_m}) must exceed z_min_m ({self.z_min_m})"
            )
        if self.voxel_m <= 0:
            raise SceneValidationError(f"airspace.voxel_m must be > 0, got {self.voxel_m}")


@dataclass(frozen=True)
class VoxelGrid:
    """Voxel centers inside a cylinder: one circle of columns, stacked in layers.

    Layer ``k`` sits at altitude ``layer_z[k]`` (ascending) and holds one voxel
    per column, at ``columns``' x and y. The dense voxel order is z-major, then
    y, then x: voxel ``k * C + j`` is column ``j`` of layer ``k``, so a
    per-voxel array is a C-order ``shape`` array and a range of columns over
    every layer is one block of it.
    """

    spec: CylinderSpec
    columns: np.ndarray          # (C, 2) float64 x and y of one layer, y then x order
    layer_z: np.ndarray          # (L,) distinct center altitudes, ascending

    @property
    def shape(self) -> tuple[int, int]:
        return self.layer_z.size, len(self.columns)

    @property
    def count(self) -> int:
        return self.layer_z.size * len(self.columns)

    def coordinates(self, lo=0, hi=None):
        """Columns ``lo`` to ``hi``' x and y (c,), and z (L, 1): they broadcast to the block."""
        return self.columns[lo:hi, 0], self.columns[lo:hi, 1], self.layer_z[:, None]

    def voxel_centers(self, lo=0, hi=None) -> np.ndarray:
        """(n, 3) centers of dense voxels ``lo`` to ``hi``, built on demand."""
        k, j = np.divmod(np.arange(lo, self.count if hi is None else hi), len(self.columns))
        return np.column_stack((self.columns[j], self.layer_z[k]))

    @functools.cached_property
    def centers(self) -> np.ndarray:
        """(count, 3) centers of every voxel; no command builds them."""
        return self.voxel_centers()

    def layer(self, z_m: float) -> int:
        """The index of the voxel layer whose slab contains altitude z_m."""
        half = self.spec.voxel_m / 2.0
        zs = self.layer_z
        hits = np.nonzero(np.abs(zs - z_m) <= half)[0]
        if hits.size == 0:
            from .errors import LayerError

            raise LayerError(
                f"altitude {z_m} m is outside the grid layers "
                f"[{zs[0] - half}, {zs[-1] + half}] m"
            )
        return int(hits[0])


def build_voxel_grid(spec: CylinderSpec) -> VoxelGrid:
    """Discretize the cylinder into voxel centers on a regular lattice.

    Centers sit at (i + 0.5) * voxel_m offsets from the bounding-box minimum
    corner; a center is kept iff it lies inside the cylinder (boundary
    included). Ordering is deterministic: z-major, then y, then x.
    """
    v = spec.voxel_m
    cx, cy = spec.center_m
    x0, y0, z0 = cx - spec.radius_m, cy - spec.radius_m, spec.z_min_m
    nx = max(int(math.ceil(2.0 * spec.radius_m / v)), 1)
    ny = nx
    nz = max(int(math.ceil((spec.z_max_m - spec.z_min_m) / v)), 1)

    xs, ys, zs = (o + (np.arange(n) + 0.5) * v for o, n in ((x0, nx), (y0, ny), (z0, nz)))

    dx = xs - cx
    dy = ys - cy
    in_circle = (dy[:, None] ** 2 + dx[None, :] ** 2) <= spec.radius_m ** 2  # (ny, nx)
    layer_z = zs[zs <= spec.z_max_m]   # the kept layers, a prefix of zs

    # Every kept layer holds the same circle of voxels, in C order: y, then x.
    iy, ix = np.nonzero(in_circle)
    if layer_z.size * iy.size == 0:
        raise EmptyGridError("voxelization produced zero voxels for this airspace spec")
    return VoxelGrid(spec=spec, columns=np.column_stack((xs[ix], ys[iy])), layer_z=layer_z)


# ---------------------------------------------------------------------------
# Radio constants and coverage thresholds
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class RadioConstants:
    frequency_hz: float
    bandwidth_hz: float
    noise_figure_db: float

    def __post_init__(self):
        _require_finite("radio", self, ("frequency_hz", "bandwidth_hz", "noise_figure_db"))
        # Bounds that keep the FSPL, the noise floor and I/N finite at levels
        # within +-MAX_LEVEL_DB and --offset-db within +-1000 dB.
        if not self.frequency_hz >= MIN_FREQUENCY_HZ:
            raise SceneValidationError(f"radio.frequency_hz must be >= {MIN_FREQUENCY_HZ:g}, "
                                       f"got {self.frequency_hz}")
        if not MIN_BANDWIDTH_HZ <= self.bandwidth_hz <= MAX_BANDWIDTH_HZ:
            raise SceneValidationError(f"radio.bandwidth_hz must be in [{MIN_BANDWIDTH_HZ:g}, "
                                       f"{MAX_BANDWIDTH_HZ:g}], got {self.bandwidth_hz}")
        if not 0 <= self.noise_figure_db <= MAX_LEVEL_DB:
            raise SceneValidationError(f"radio.noise_figure_db must be in [0, {MAX_LEVEL_DB:g}], "
                                       f"got {self.noise_figure_db}")


@dataclass(frozen=True)
class CoverageThresholds:
    """Basic/strict service thresholds; a voxel is 'covered' only jointly."""

    rsrp_basic_dbm: float = -95.0
    rsrp_strict_dbm: float = -85.0
    sinr_basic_db: float = -3.0
    sinr_strict_db: float = 5.0

    def __post_init__(self):
        _require_finite("thresholds", self,
                        ("rsrp_basic_dbm", "rsrp_strict_dbm", "sinr_basic_db", "sinr_strict_db"))
        if self.rsrp_strict_dbm < self.rsrp_basic_dbm:
            raise SceneValidationError("thresholds: rsrp_strict_dbm must be >= rsrp_basic_dbm")
        if self.sinr_strict_db < self.sinr_basic_db:
            raise SceneValidationError("thresholds: sinr_strict_db must be >= sinr_basic_db")


# ---------------------------------------------------------------------------
# Sites, cells, sub-beams
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class SteeringBounds:
    az_min_deg: float
    az_max_deg: float
    tilt_min_deg: float
    tilt_max_deg: float

    def __post_init__(self):
        if self.az_max_deg < self.az_min_deg:
            raise SceneValidationError("bounds: az_max_deg < az_min_deg")
        if self.tilt_max_deg < self.tilt_min_deg:
            raise SceneValidationError("bounds: tilt_max_deg < tilt_min_deg")

    def contains(self, orientation: Orientation, tol: float = _ANGLE_TOL) -> bool:
        if not (self.tilt_min_deg - tol <= orientation.tilt_deg <= self.tilt_max_deg + tol):
            return False
        return _azimuth_in_range(orientation.azimuth_deg,
                                 self.az_min_deg, self.az_max_deg, tol)


def _azimuth_in_range(az_deg: float, lo: float, hi: float, tol: float = _ANGLE_TOL) -> bool:
    # Bounds are plain numbers on the real line; membership is modulo 360.
    span = hi - lo
    if span >= 360.0 - tol:
        return True
    t = (az_deg - lo) % 360.0
    return t <= span + tol or t >= 360.0 - tol


@dataclass(frozen=True)
class SubBeam:
    """One independently steerable beam of a cell."""

    index: int
    pattern: AntennaPattern | TablePattern
    bounds: SteeringBounds
    baseline: Orientation
    candidate_step: tuple[float, float] = DEFAULT_CANDIDATE_STEP

    def __post_init__(self):
        step_az, step_tilt = self.candidate_step
        if step_az <= 0 or step_tilt <= 0:
            raise SceneValidationError(
                f"sub_beam {self.index}: candidate_step entries must be > 0"
            )
        if not self.bounds.contains(self.baseline):
            raise SceneValidationError(
                f"sub_beam {self.index}: baseline angle "
                f"({self.baseline.azimuth_deg}, {self.baseline.tilt_deg}) "
                "lies outside its steering bounds"
            )

    def lattice(self) -> list[Orientation]:
        """Candidate steering angles: az-major, then tilt, both ascending."""
        step_az, step_tilt = self.candidate_step
        n_az = int(math.floor((self.bounds.az_max_deg - self.bounds.az_min_deg) / step_az + _ANGLE_TOL)) + 1
        n_tilt = int(math.floor((self.bounds.tilt_max_deg - self.bounds.tilt_min_deg) / step_tilt + _ANGLE_TOL)) + 1
        out = []
        for i in range(n_az):
            az = self.bounds.az_min_deg + i * step_az
            for j in range(n_tilt):
                out.append(Orientation(az, self.bounds.tilt_min_deg + j * step_tilt))
        return out

    def admits(self, orientation: Orientation, tol: float = _ANGLE_TOL) -> bool:
        """True iff the angle is on the candidate lattice or equals the baseline."""
        if (abs(orientation.azimuth_deg - self.baseline.azimuth_deg) <= tol
                and abs(orientation.tilt_deg - self.baseline.tilt_deg) <= tol):
            return True
        if not self.bounds.contains(orientation, tol):
            return False
        step_az, step_tilt = self.candidate_step
        t_az = (orientation.azimuth_deg - self.bounds.az_min_deg) % 360.0
        k_az = t_az / step_az
        k_tilt = (orientation.tilt_deg - self.bounds.tilt_min_deg) / step_tilt
        return (abs(k_az - round(k_az)) * step_az <= tol
                and abs(k_tilt - round(k_tilt)) * step_tilt <= tol)


@dataclass(frozen=True)
class Cell:
    id: str
    tx_power_dbm: float
    sub_beams: tuple[SubBeam, ...]

    def __post_init__(self):
        object.__setattr__(self, "sub_beams", tuple(self.sub_beams))
        if not abs(self.tx_power_dbm) <= MAX_LEVEL_DB:
            raise SceneValidationError(f"cell {self.id}: tx_power_dbm must be finite and within "
                                       f"+-{MAX_LEVEL_DB:g} dBm, got {self.tx_power_dbm}")
        if not self.sub_beams:
            raise SceneValidationError(f"cell {self.id}: sub_beams must be nonempty")
        indices = sorted(sb.index for sb in self.sub_beams)
        if indices != list(range(len(self.sub_beams))):
            raise SceneValidationError(
                f"cell {self.id}: sub-beam indices must be exactly 0..{len(self.sub_beams) - 1}"
            )


@dataclass(frozen=True)
class Site:
    id: str
    position_m: tuple[float, float, float]
    cells: tuple[Cell, ...]

    def __post_init__(self):
        object.__setattr__(self, "position_m", tuple(float(c) for c in self.position_m))
        object.__setattr__(self, "cells", tuple(self.cells))
        if not all(abs(c) <= MAX_COORDINATE_M for c in self.position_m):
            raise SceneValidationError(f"site {self.id}: position_m must lie within "
                                       f"+-{MAX_COORDINATE_M:g} m, got {self.position_m}")
        if self.position_m[2] < 0:
            raise SceneValidationError(f"site {self.id}: position z must be >= 0")
        if not self.cells:
            raise SceneValidationError(f"site {self.id}: cells must be nonempty")


@dataclass(frozen=True)
class SceneConfig:
    """The physical network description every other module consumes."""

    sites: tuple[Site, ...]
    airspace: CylinderSpec
    radio: RadioConstants
    thresholds: CoverageThresholds = field(default_factory=CoverageThresholds)

    def __post_init__(self):
        object.__setattr__(self, "sites", tuple(self.sites))
        if not self.sites:
            raise SceneValidationError("scene must declare at least one site")
        seen = set()
        for site in self.sites:
            for cell in site.cells:
                if cell.id in seen:
                    raise SceneValidationError(f"duplicate cell id '{cell.id}'")
                seen.add(cell.id)

    @property
    def cell_ids(self) -> tuple[str, ...]:
        """All cell ids, lexicographically sorted (the canonical cell order)."""
        return tuple(sorted(c.id for s in self.sites for c in s.cells))

    def cell(self, cell_id: str) -> tuple[Site, Cell]:
        for site in self.sites:
            for cell in site.cells:
                if cell.id == cell_id:
                    return site, cell
        raise UnknownCellError(f"unknown cell id '{cell_id}'")

    def sub_beam(self, cell_id: str, index: int) -> tuple[Site, Cell, SubBeam]:
        site, cell = self.cell(cell_id)
        for sb in cell.sub_beams:
            if sb.index == index:
                return site, cell, sb
        raise UnknownCellError(f"cell '{cell_id}' has no sub-beam index {index}")

    def beam_keys(self) -> list[tuple[str, int]]:
        """(cell_id, sub-beam index) pairs: cells lexicographic, beams ascending."""
        keys = []
        for cell_id in self.cell_ids:
            _, cell = self.cell(cell_id)
            keys.extend((cell_id, sb.index) for sb in sorted(cell.sub_beams, key=lambda b: b.index))
        return keys


# ---------------------------------------------------------------------------
# Beam assignments
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class BeamAssignment:
    """One steering angle per sub-beam, keyed by (cell id, sub-beam index)."""

    angles: dict[tuple[str, int], Orientation]

    @classmethod
    def baseline(cls, scene: SceneConfig) -> "BeamAssignment":
        return cls({(c.id, sb.index): sb.baseline
                    for s in scene.sites for c in s.cells for sb in c.sub_beams})

    def angle(self, cell_id: str, index: int) -> Orientation:
        return self.angles[(cell_id, index)]

    def validate_for(self, scene: SceneConfig, require_lattice: bool = True) -> None:
        """Check completeness, bounds, and (optionally) lattice membership."""
        expected = set(scene.beam_keys())
        got = set(self.angles)
        missing = expected - got
        if missing:
            raise IncompleteAssignmentError(
                f"assignment missing {len(missing)} sub-beam(s), e.g. {sorted(missing)[0]}"
            )
        unknown = got - expected
        if unknown:
            raise UnknownCellError(
                f"assignment refers to unknown sub-beam(s), e.g. {sorted(unknown)[0]}"
            )
        for (cell_id, index), orientation in self.angles.items():
            _, _, sb = scene.sub_beam(cell_id, index)
            if not sb.bounds.contains(orientation):
                raise BoundsError(
                    f"angle ({orientation.azimuth_deg}, {orientation.tilt_deg}) for "
                    f"{cell_id}[{index}] is outside bounds "
                    f"az [{sb.bounds.az_min_deg}, {sb.bounds.az_max_deg}], "
                    f"tilt [{sb.bounds.tilt_min_deg}, {sb.bounds.tilt_max_deg}]"
                )
            if require_lattice and not sb.admits(orientation):
                raise BoundsError(
                    f"angle ({orientation.azimuth_deg}, {orientation.tilt_deg}) for "
                    f"{cell_id}[{index}] is neither on the candidate lattice nor the baseline"
                )

    def to_json_dict(self) -> dict:
        out: dict[str, dict[str, list[float]]] = {}
        for (cell_id, index), o in sorted(self.angles.items()):
            out.setdefault(cell_id, {})[str(index)] = [o.azimuth_deg, o.tilt_deg]
        return out


def save_assignment(assignment: BeamAssignment, path) -> None:
    with open(path, "w") as fh:
        json.dump(assignment.to_json_dict(), fh, indent=2, sort_keys=True)
        fh.write("\n")


def read_json(path, kind: str):
    """The document in the JSON file ``path``, of the given ``kind`` (for messages).

    A file that cannot be read, is not UTF-8, is not JSON or nests too deep for
    the parser raises SceneSchemaError, an input error.
    """
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise SceneSchemaError(f"cannot read {kind} file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise SceneSchemaError(f"{path}: invalid JSON at line {exc.lineno}: {exc.msg}") from exc
    except (UnicodeDecodeError, RecursionError) as exc:
        raise SceneSchemaError(f"{path}: not a readable JSON {kind} file: {exc}") from None


def load_assignment(path) -> BeamAssignment:
    data = read_json(path, "assignment")
    read_document(_read_assignment, data, f"{path}: assignment")
    return BeamAssignment({(cell_id, int(index)): Orientation(*pair)
                           for cell_id, beams in data.items() for index, pair in beams.items()})


# ---------------------------------------------------------------------------
# Scene file I/O
# ---------------------------------------------------------------------------
# The scene format, one reader per value. A reader checks the value's JSON type
# (a number is an int or a float, never a bool), an array's length and an
# object's keys, and raises SceneSchemaError naming the value's path;
# ``read_document`` names the document too. A number must also be finite: NaN
# compares false with every bound, so a range check alone would let it through.
# Ranges are left to the dataclasses' own checks. Assignment files, and the
# mapping file of ``measurements``, are read with the same readers.
_ID_FORBIDDEN = (",", '"', "\r", "\n")   # ids are written unquoted into CSV rows


def _violation(path, reason: str) -> SceneSchemaError:
    # Escaped, so that a key holding a line break cannot split the error line.
    where = "/".join(str(p) for p in path).encode("unicode_escape").decode() or "<root>"
    return SceneSchemaError(f"schema violation at '{where}': {reason}")


def read_document(read, data, label: str) -> None:
    """Check the parsed document ``data`` with ``read``; an error begins with ``label``."""
    try:
        read(data, ())
    except SceneSchemaError as exc:
        raise SceneSchemaError(f"{label} {exc}") from None


def _json_type(value) -> str:
    for kind, name in ((bool, "a boolean"), ((int, float), "a number"), (str, "a string"),
                       (list, "an array"), (dict, "an object")):
        if isinstance(value, kind):
            return name
    return "null" if value is None else type(value).__name__


def _number(value, path) -> None:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise _violation(path, f"expected a number, got {_json_type(value)}")
    try:
        finite = math.isfinite(value)
    except OverflowError:
        raise _violation(path, "number out of range") from None
    if not finite:
        raise _violation(path, f"expected a finite number, got {value}")


def _index(value, path) -> None:
    _number(value, path)
    if not (isinstance(value, int) or value.is_integer()) or value < 0:
        raise _violation(path, f"expected an integer >= 0, got {value}")


def _string(value, path) -> None:
    if not isinstance(value, str):
        raise _violation(path, f"expected a string, got {_json_type(value)}")


def _id(value, path) -> None:
    _string(value, path)
    if not value or any(c in value for c in _ID_FORBIDDEN):
        raise _violation(path, "an id must be a non-empty string without a comma, "
                               "a double quote, CR or LF")


def _array(value, path) -> list:
    if not isinstance(value, list):
        raise _violation(path, f"expected an array, got {_json_type(value)}")
    return value


def _numbers(length: int):
    def read(value, path) -> None:
        if len(_array(value, path)) != length:
            raise _violation(path, f"expected {length} numbers, got {len(value)}")
        for i, item in enumerate(value):
            _number(item, (*path, i))
    return read


def _nonempty(read_item):
    def read(value, path) -> None:
        if not _array(value, path):
            raise _violation(path, "expected at least 1 item, got 0")
        for i, item in enumerate(value):
            read_item(item, (*path, i))
    return read


def _object(required: dict, optional: dict | None = None):
    fields = {**required, **(optional or {})}

    def read(value, path) -> None:
        if not isinstance(value, dict):
            raise _violation(path, f"expected an object, got {_json_type(value)}")
        for key, item in value.items():
            if key not in fields:
                raise _violation((*path, key), "unknown key")
            fields[key](item, (*path, key))
        for key in required:
            if key not in value:
                raise _violation((*path, key), "missing required key")
    return read


def _keyed(read_key, read_item):
    """An object whose every key ``read_key`` checks and every value ``read_item`` does."""
    def read(value, path) -> None:
        if not isinstance(value, dict):
            raise _violation(path, f"expected an object, got {_json_type(value)}")
        for key, item in value.items():
            read_key(key, (*path, key))
            read_item(item, (*path, key))
    return read


def _index_key(key, path) -> None:
    if not (key.isascii() and key.isdigit()):
        raise _violation(path, "expected a sub-beam index, an integer >= 0")


def _numbers_named(*names: str) -> dict:
    return dict.fromkeys(names, _number)


_PATTERN_KINDS = {
    "parametric": _object({}, {"type": _string, **_numbers_named(
        "g_max_dbi", "hpbw_az_deg", "hpbw_el_deg", "sla_db", "fbr_db")}),
    "table": _object({"type": _string, "path": _string}),
}


def _pattern(value, path) -> None:
    kind = value.get("type", "parametric") if isinstance(value, dict) else "parametric"
    if not (isinstance(kind, str) and kind in _PATTERN_KINDS):
        raise _violation((*path, "type"), "expected 'parametric' or 'table'")
    _PATTERN_KINDS[kind](value, path)


_read_scene = _object({
    "airspace": _object({"center_m": _numbers(2),
                         **_numbers_named("radius_m", "z_min_m", "z_max_m", "voxel_m")}),
    "radio": _object(_numbers_named("frequency_hz", "bandwidth_hz", "noise_figure_db")),
    "sites": _nonempty(_object({
        "id": _id,
        "position_m": _numbers(3),
        "cells": _nonempty(_object({
            "id": _id,
            "tx_power_dbm": _number,
            "sub_beams": _nonempty(_object(
                {"index": _index,
                 "bounds": _object(_numbers_named("az_min_deg", "az_max_deg",
                                                  "tilt_min_deg", "tilt_max_deg")),
                 "baseline": _numbers(2)},
                {"pattern": _pattern, "candidate_step": _numbers(2)})),
        }, {"pattern": _pattern})),
    })),
}, {"thresholds": _object({}, _numbers_named("rsrp_basic_dbm", "rsrp_strict_dbm",
                                              "sinr_basic_db", "sinr_strict_db"))})


# {cell id: {sub-beam index: [azimuth_deg, tilt_deg]}}, as ``save_assignment`` writes it.
_read_assignment = _keyed(_id, _keyed(_index_key, _numbers(2)))


def _pattern_from_dict(data: dict | None, base_dir: str):
    if data is None:
        return AntennaPattern()
    if data.get("type") == "table":
        path = data["path"]
        if not os.path.isabs(path):
            path = os.path.join(base_dir, path)
        return load_pattern_table(path)
    return AntennaPattern(**{k: float(v) for k, v in data.items() if k != "type"})


def scene_from_dict(data: dict, base_dir: str = ".") -> SceneConfig:
    """Build a validated SceneConfig from a parsed scene document (README, "Scene JSON")."""
    read_document(_read_scene, data, "scene")

    air = data["airspace"]
    airspace = CylinderSpec(center_m=tuple(air["center_m"]), radius_m=air["radius_m"],
                            z_min_m=air["z_min_m"], z_max_m=air["z_max_m"],
                            voxel_m=air["voxel_m"])
    radio = RadioConstants(**data["radio"])
    thresholds = CoverageThresholds(**data.get("thresholds", {}))

    sites = []
    for site_doc in data["sites"]:
        cells = []
        for cell_doc in site_doc["cells"]:
            cell_pattern = cell_doc.get("pattern")
            beams = []
            for beam_doc in cell_doc["sub_beams"]:
                bounds_doc = beam_doc["bounds"]
                step = beam_doc.get("candidate_step", list(DEFAULT_CANDIDATE_STEP))
                beams.append(SubBeam(
                    index=int(beam_doc["index"]),
                    pattern=_pattern_from_dict(beam_doc.get("pattern", cell_pattern), base_dir),
                    bounds=SteeringBounds(
                        az_min_deg=bounds_doc["az_min_deg"],
                        az_max_deg=bounds_doc["az_max_deg"],
                        tilt_min_deg=bounds_doc["tilt_min_deg"],
                        tilt_max_deg=bounds_doc["tilt_max_deg"],
                    ),
                    baseline=Orientation(beam_doc["baseline"][0], beam_doc["baseline"][1]),
                    candidate_step=(float(step[0]), float(step[1])),
                ))
            cells.append(Cell(id=cell_doc["id"], tx_power_dbm=cell_doc["tx_power_dbm"],
                              sub_beams=tuple(beams)))
        sites.append(Site(id=site_doc["id"], position_m=tuple(site_doc["position_m"]),
                          cells=tuple(cells)))
    return SceneConfig(sites=tuple(sites), airspace=airspace, radio=radio,
                       thresholds=thresholds)
