"""Georeferenced RSRP samples: the calibration/validation ground truth.

Native CSV schema: header ``seq,x_m,y_m,z_m,cell_id,rsrp_dbm``. Foreign drive
-test exports are converted at ingestion through a JSON mapping file that
renames columns and, optionally, converts lat/lon/alt to the local ENU frame:

    {
      "columns": {"seq": "idx", "x_m": "lon", "y_m": "lat", "z_m": "alt",
                  "cell_id": "pci", "rsrp_dbm": "rsrp"},
      "position": {"frame": "lla", "origin_lla": [22.6, 113.9, 0.0]}
    }

``columns.seq`` may be omitted; rows are then numbered in file order. Every
column name is a string, ``frame`` is "enu" (the default) or "lla", "lla"
needs ``origin_lla`` (three finite numbers, the first a latitude in [-90, 90]),
and no other key is allowed. Through an "lla" mapping, every row's latitude
must lie in [-90, 90] too.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from . import _csv
from .antenna import MAX_LEVEL_DB
from .errors import SceneSchemaError, SceneValidationError
from .scene import (
    MAX_COORDINATE_M,
    _numbers,
    _object,
    _string,
    _violation,
    read_document,
    read_json,
)

EARTH_RADIUS_M = 6_371_000.0
MAX_SEQ = 2.0 ** 63   # seq is stored as int64

NATIVE_COLUMNS = ("seq", "x_m", "y_m", "z_m", "cell_id", "rsrp_dbm")


def _frame(value, path) -> None:
    if value not in ("enu", "lla"):
        raise _violation(path, "expected 'enu' or 'lla'")


def _origin_lla(value, path) -> None:
    _numbers(3)(value, path)
    if not -90.0 <= value[0] <= 90.0:
        raise _violation((*path, 0), f"latitude must be in [-90, 90], got {value[0]}")


_read_mapping = _object(
    {"columns": _object(dict.fromkeys(NATIVE_COLUMNS[1:], _string), {"seq": _string})},
    {"position": _object({}, {"frame": _frame, "origin_lla": _origin_lla})})


@dataclass(frozen=True)
class MeasurementSet:
    """Ordered UAV samples: (seq, position, cell id, rsrp)."""

    seq: np.ndarray           # (n,) int64, strictly increasing
    positions: np.ndarray     # (n, 3) float64
    cell_ids: np.ndarray      # (n,) object (str)
    rsrp_dbm: np.ndarray      # (n,) float64

    def __post_init__(self):
        seq = np.asarray(self.seq, dtype=np.int64)
        pos = np.asarray(self.positions, dtype=np.float64)
        ids = np.asarray(self.cell_ids, dtype=object)
        rsrp = np.asarray(self.rsrp_dbm, dtype=np.float64)
        n = seq.shape[0]
        if pos.shape != (n, 3) or ids.shape != (n,) or rsrp.shape != (n,):
            raise SceneValidationError("measurement arrays have inconsistent lengths")
        if n > 1 and np.any(np.diff(seq) <= 0):
            raise SceneValidationError("seq must be strictly increasing along the trajectory")
        if not np.all(np.isfinite(rsrp)):
            raise SceneValidationError("rsrp_dbm values must all be finite")
        if not np.all(np.isfinite(pos)):
            raise SceneValidationError("sample positions must all be finite")
        object.__setattr__(self, "seq", seq)
        object.__setattr__(self, "positions", pos)
        object.__setattr__(self, "cell_ids", ids)
        object.__setattr__(self, "rsrp_dbm", rsrp)

    def __len__(self) -> int:
        return int(self.seq.shape[0])

    def subset(self, indices) -> "MeasurementSet":
        idx = np.asarray(indices, dtype=np.int64)
        return MeasurementSet(seq=self.seq[idx], positions=self.positions[idx],
                              cell_ids=self.cell_ids[idx], rsrp_dbm=self.rsrp_dbm[idx])


def lla_to_enu(lat_deg, lon_deg, alt_m, origin_lla) -> tuple[float, float, float]:
    """Equirectangular lat/lon/alt to local ENU meters (fine at km scale)."""
    lat0, lon0, alt0 = origin_lla
    k = math.pi / 180.0 * EARTH_RADIUS_M
    x = (lon_deg - lon0) * k * math.cos(math.radians(lat0))
    y = (lat_deg - lat0) * k
    return x, y, alt_m - alt0


def load_mapping(path) -> dict:
    mapping = read_json(path, "mapping")
    read_document(_read_mapping, mapping, f"{path}: mapping")
    position = mapping.get("position", {})
    if position.get("frame") == "lla" and "origin_lla" not in position:
        raise SceneSchemaError(f"{path}: mapping position.frame 'lla' requires "
                               f"position.origin_lla")
    return mapping


def load_measurements(path, mapping=None) -> MeasurementSet:
    """Load a measurement CSV, optionally through a column/frame mapping file."""
    if mapping is None:
        columns, position = dict(zip(NATIVE_COLUMNS, NATIVE_COLUMNS)), {}
    else:
        mapping = load_mapping(mapping)
        columns, position = mapping["columns"], mapping.get("position", {})
    frame = position.get("frame", "enu")
    origin = position.get("origin_lla")

    seq, positions, cell_ids, rsrp = [], [], [], []
    fields = None
    try:
        with open(path, newline="") as fh:
            reader = csv.DictReader(fh)
            fields = reader.fieldnames or []
            needed = [columns[c] for c in ("x_m", "y_m", "z_m", "cell_id", "rsrp_dbm")]
            missing = [c for c in needed if c not in fields]
            if missing:
                raise SceneSchemaError(f"{path}: missing column(s) {missing}")
            has_seq = "seq" in columns and columns["seq"] in fields
            for i, row in enumerate(reader):
                if None in row.values():   # the row ends before the header does
                    raise SceneSchemaError(f"{path}: data row {i + 1}: fewer fields than the "
                                           f"header's {len(fields)}")
                try:
                    x = float(row[columns["x_m"]])
                    y = float(row[columns["y_m"]])
                    z = float(row[columns["z_m"]])
                    value = float(row[columns["rsrp_dbm"]])
                    s = row[columns["seq"]] if has_seq else i
                    try:
                        s = int(s)   # exact past 2^53, where a float is not
                    except ValueError:
                        s = float(s)   # integral text such as 3.0 or 1e3
                except (TypeError, ValueError) as exc:
                    raise SceneSchemaError(
                        f"{path}: bad numeric value on data row {i + 1}: {exc}"
                    ) from exc
                if not (-MAX_SEQ <= s < MAX_SEQ and s == int(s)):   # false for NaN
                    raise SceneValidationError(
                        f"{path}: data row {i + 1}: seq must be an integer in [-2^63, 2^63), "
                        f"got {s} in column '{columns['seq']}'")
                if frame == "lla":   # the x column holds the longitude, y the latitude
                    if not -90.0 <= y <= 90.0:
                        raise SceneValidationError(
                            f"{path}: data row {i + 1}: latitude must be in [-90, 90], "
                            f"got {y} in column '{columns['y_m']}'")
                    x, y, z = lla_to_enu(y, x, z, origin)
                seq.append(int(s))
                positions.append((x, y, z))
                cell_ids.append(row[columns["cell_id"]])
                rsrp.append(value)
    except (OSError, UnicodeDecodeError) as exc:
        raise SceneSchemaError(f"cannot read measurement file {path}: {exc}") from exc
    except csv.Error as exc:   # each data row read so far was kept, or raised
        where = "header" if fields is None else f"data row {len(seq) + 1}"
        raise SceneSchemaError(f"{path}: {where}: unreadable CSV: {exc}") from exc

    positions = np.asarray(positions, dtype=np.float64).reshape(-1, 3)
    rsrp = np.asarray(rsrp, dtype=np.float64)
    # Within these bounds every squared distance and semivariance stays finite.
    bad_position = ~np.all(np.abs(positions) <= MAX_COORDINATE_M, axis=1)
    bad_rsrp = ~(np.abs(rsrp) <= MAX_LEVEL_DB)
    if np.any(bad_position | bad_rsrp):
        i = int(np.argmax(bad_position | bad_rsrp))
        if bad_position[i]:
            raise SceneValidationError(
                f"{path}: data row {i + 1}: sample positions must all be finite and within "
                f"+-{MAX_COORDINATE_M:g} m, got {tuple(positions[i].tolist())}")
        raise SceneValidationError(f"{path}: data row {i + 1}: rsrp_dbm must be finite and "
                                   f"within +-{MAX_LEVEL_DB:g} dBm, got {float(rsrp[i])}")
    return MeasurementSet(
        seq=np.asarray(seq, dtype=np.int64),
        positions=positions,
        cell_ids=np.asarray(cell_ids, dtype=object),
        rsrp_dbm=rsrp,
    )


def save_measurements(measurements: MeasurementSet, fh) -> None:
    """Write the native CSV schema with stable formatting.

    Positions carry 6 decimals (micrometers) so values re-predicted at the
    stored coordinates agree with the stored RSRP to its own 4-decimal
    precision.
    """
    m = measurements
    _csv.write_csv(fh, ",".join(NATIVE_COLUMNS), len(m), lambda lo, hi: [[
        _csv.distinct(m.seq[lo:hi], ""),
        *(_csv.distinct(m.positions[lo:hi, axis], ".6f") for axis in range(3)),
        _csv.distinct(m.cell_ids[lo:hi], ""), _csv.fixed(m.rsrp_dbm[lo:hi], 4)]])
