"""Directional antenna gain models and steering geometry.

Angle conventions (used everywhere in the package):
  * azimuth in degrees, clockwise from north (+y axis), normalized to [0, 360)
  * tilt/elevation in degrees, positive upward from horizontal, in [-90, 90]

Two pattern models share one interface: a parametric single-element pattern
(quadratic roll-off with side-lobe and front-to-back caps) and a table pattern
(gain sampled on a regular az/el offset grid, bilinearly interpolated). Both
are rotated rigidly to the steered boresight; pattern distortion at extreme
steering angles is a known fidelity gap of the rigid-rotation approach.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from .errors import SceneSchemaError, SceneValidationError

# A scene's transmit power (dBm) and peak gain (dBi) each lie within +-500.
# With --offset-db at +-1000 dB a voxel's RSRP then stays within about
# +-2000 dBm, so its mW and the SINR's I/N stay far inside a double's range.
MAX_LEVEL_DB = 500.0


def wrap_angle_deg(angle):
    """Wrap an angle (scalar or array) into (-180, 180] degrees.

    Equal bit for bit to ``np.mod(angle, 360)`` followed by ``-360`` above
    180. ``np.mod`` calls fmod, which costs about 30 ns a value, so a float64
    array whose values all lie in (-720, 720) takes a path without it. There
    one conditional -360 and one conditional +360 are exact (Sterbenz) and
    give fmod(a, 360); adding 360 to a negative remainder is the same rounded
    add ``np.mod`` makes, and it also turns -0.0 into +0.0 as ``np.mod`` does.
    A NaN or inf fails the range check and takes ``np.mod``.
    """
    a = np.asarray(angle)
    if a.ndim == 0:
        wrapped = float(np.mod(angle, 360.0))
        return wrapped - 360.0 if wrapped > 180.0 else wrapped
    lo = hi = np.nan
    if a.dtype == np.float64:
        lo, hi = a.min(initial=0.0), a.max(initial=0.0)
    if -720.0 < lo and hi < 720.0:
        # A step that no value needs is skipped: -360 * 0 leaves every bit
        # as it is, and +360 * 0 only turns -0.0 into +0.0, which the third
        # step, always run, does as well.
        m = a - 360.0 * (a >= 360.0) if hi >= 360.0 else a.copy()
        if lo <= -360.0:
            m += 360.0 * (m <= -360.0)
        m += 360.0 * (m < 0.0)
    else:
        m = np.mod(a, 360.0)
    m -= 360.0 * (m > 180.0)
    return m


def normalize_azimuth_deg(azimuth_deg: float) -> float:
    """Normalize an azimuth into [0, 360)."""
    a = float(azimuth_deg) % 360.0
    # Python's % can return 360.0 for tiny negative inputs (e.g. -1e-15).
    return 0.0 if a == 360.0 else a


@dataclass(frozen=True)
class Orientation:
    """A steering direction: azimuth (clockwise from north) and upward tilt."""

    azimuth_deg: float
    tilt_deg: float

    def __post_init__(self):
        if not math.isfinite(self.azimuth_deg):
            raise SceneValidationError(f"azimuth_deg must be finite, got {self.azimuth_deg}")
        object.__setattr__(self, "azimuth_deg", normalize_azimuth_deg(self.azimuth_deg))
        object.__setattr__(self, "tilt_deg", float(self.tilt_deg))
        if not -90.0 <= self.tilt_deg <= 90.0:
            raise SceneValidationError(f"tilt_deg must be in [-90, 90], got {self.tilt_deg}")


def _capped_quadratic_db(delta_deg, hpbw_deg, cap_db, out=None):
    """``min(12 (delta/hpbw)^2, cap)``, written into ``out`` when it is given."""
    q = np.divide(delta_deg, hpbw_deg, out=out)
    if out is None:
        q = q ** 2   # a scalar squares through pow(), which can differ from x*x
    else:
        np.square(q, out=q)   # the ndarray ** 2 fast path
    q = np.multiply(12.0, q, out=out)
    return np.minimum(q, cap_db, out=out)


@dataclass(frozen=True)
class AntennaPattern:
    """Parametric single-element pattern.

    Attenuation relative to boresight is quadratic in the normalized az/el
    offsets, each capped at ``sla_db``; the summed attenuation is capped at
    ``fbr_db``:

        A(daz, del) = min( min(12 (daz/hpbw_az)^2, sla)
                         + min(12 (del/hpbw_el)^2, sla), fbr )
        G = g_max - A
    """

    g_max_dbi: float = 17.0
    hpbw_az_deg: float = 65.0
    hpbw_el_deg: float = 35.0
    sla_db: float = 30.0
    fbr_db: float = 30.0

    def __post_init__(self):
        if not abs(self.g_max_dbi) <= MAX_LEVEL_DB:
            raise SceneValidationError(f"g_max_dbi must be finite and within "
                                       f"+-{MAX_LEVEL_DB:g} dBi, got {self.g_max_dbi}")
        for name in ("hpbw_az_deg", "hpbw_el_deg"):
            value = getattr(self, name)
            if not 0.0 < value <= 180.0:
                raise SceneValidationError(f"{name} must be in (0, 180], got {value}")
        if self.sla_db <= 0.0:
            raise SceneValidationError(f"sla_db must be > 0, got {self.sla_db}")
        if self.fbr_db < self.sla_db:
            raise SceneValidationError(
                f"fbr_db ({self.fbr_db}) must be >= sla_db ({self.sla_db})"
            )

    def azimuth_attenuation_db(self, delta_az_deg, out=None):
        """Capped azimuth term ``min(12 (daz/hpbw_az)^2, sla)``; daz already wrapped."""
        return _capped_quadratic_db(delta_az_deg, self.hpbw_az_deg, self.sla_db, out)

    def elevation_attenuation_db(self, delta_el_deg, out=None):
        """Capped elevation term ``min(12 (del/hpbw_el)^2, sla)``."""
        return _capped_quadratic_db(delta_el_deg, self.hpbw_el_deg, self.sla_db, out)

    def gain_from_attenuation_dbi(self, a_az_db, a_el_db, out=None):
        """``g_max - min(a_az + a_el, fbr)`` from the two capped terms."""
        total = np.add(a_az_db, a_el_db, out=out)
        total = np.minimum(total, self.fbr_db, out=out)
        return np.subtract(self.g_max_dbi, total, out=out)

    def offset_gain_dbi(self, delta_az_deg, delta_el_deg):
        """Gain at an (az, el) offset from boresight; scalar or array.

        The pattern is separable: the azimuth and elevation terms are capped
        apart and only then combined, so a caller holding one of them fixed
        may compute it once and combine it with many of the other.
        """
        gain_dbi = self.gain_from_attenuation_dbi(self.azimuth_attenuation_db(delta_az_deg),
                                                  self.elevation_attenuation_db(delta_el_deg))
        if np.ndim(delta_az_deg) == 0 and np.ndim(delta_el_deg) == 0:
            return float(gain_dbi)
        return gain_dbi


@dataclass(frozen=True)
class TablePattern:
    """Measured pattern on a regular (az offset, el offset) grid, bilinear lookup.

    Azimuth offsets are wrapped into (-180, 180] before lookup; offsets beyond
    the table edges are clamped to the edge value.
    """

    az_deg: np.ndarray      # ascending, shape (n_az,)
    el_deg: np.ndarray      # ascending, shape (n_el,)
    gain_dbi: np.ndarray    # shape (n_az, n_el)

    def __post_init__(self):
        az = np.asarray(self.az_deg, dtype=float)
        el = np.asarray(self.el_deg, dtype=float)
        g = np.asarray(self.gain_dbi, dtype=float)
        _check_table_values("pattern table", az, el, g)
        if g.shape != (az.size, el.size):
            raise SceneValidationError(
                f"gain table shape {g.shape} does not match grid ({az.size}, {el.size})"
            )
        if az.size < 1 or el.size < 1:
            raise SceneValidationError("pattern table must have at least one az and el sample")
        if np.any(np.diff(az) <= 0) or np.any(np.diff(el) <= 0):
            raise SceneValidationError("pattern table grid axes must be strictly ascending")
        object.__setattr__(self, "az_deg", az)
        object.__setattr__(self, "el_deg", el)
        object.__setattr__(self, "gain_dbi", g)

    @property
    def g_max_dbi(self) -> float:
        return float(np.max(self.gain_dbi))

    def offset_gain_dbi(self, delta_az_deg, delta_el_deg):
        daz = np.atleast_1d(np.asarray(wrap_angle_deg(delta_az_deg), dtype=float))
        del_ = np.atleast_1d(np.asarray(delta_el_deg, dtype=float))
        daz, del_ = np.broadcast_arrays(daz, del_)
        values = _bilinear(self.az_deg, self.el_deg, self.gain_dbi, daz.ravel(), del_.ravel())
        values = values.reshape(daz.shape)
        if np.ndim(delta_az_deg) == 0 and np.ndim(delta_el_deg) == 0:
            return float(values[()] if values.shape == () else values[0])
        return values


def _check_table_values(source, az_deg, el_deg, gain_dbi) -> None:
    """Every node finite, and every gain within +-MAX_LEVEL_DB like ``g_max_dbi``."""
    for name, values, limit in (("az_deg", az_deg, np.inf), ("el_deg", el_deg, np.inf),
                                ("gain_dbi", gain_dbi, MAX_LEVEL_DB)):
        bad = ~(np.isfinite(values) & (np.abs(values) <= limit))
        if bad.any():
            bound = "" if limit == np.inf else f" and within +-{limit:g} dBi"
            raise SceneValidationError(f"{source}: column {name} must be finite{bound}, "
                                       f"got {values[bad][0]}")


def _bilinear(xs, ys, table, x, y):
    x = np.clip(x, xs[0], xs[-1])
    y = np.clip(y, ys[0], ys[-1])
    ix = np.clip(np.searchsorted(xs, x, side="right") - 1, 0, max(xs.size - 2, 0))
    iy = np.clip(np.searchsorted(ys, y, side="right") - 1, 0, max(ys.size - 2, 0))
    if xs.size == 1:
        fx = np.zeros_like(x)
        ix1 = ix
    else:
        ix1 = ix + 1
        fx = (x - xs[ix]) / (xs[ix1] - xs[ix])
    if ys.size == 1:
        fy = np.zeros_like(y)
        iy1 = iy
    else:
        iy1 = iy + 1
        fy = (y - ys[iy]) / (ys[iy1] - ys[iy])
    v00 = table[ix, iy]
    v10 = table[ix1, iy]
    v01 = table[ix, iy1]
    v11 = table[ix1, iy1]
    return (v00 * (1 - fx) * (1 - fy) + v10 * fx * (1 - fy)
            + v01 * (1 - fx) * fy + v11 * fx * fy)


def load_pattern_table(path) -> TablePattern:
    """Load a pattern table CSV with header ``az_deg,el_deg,gain_dbi``.

    Each data row holds exactly three fields, and the (az, el) samples must
    form a complete regular grid.
    """
    rows, where = [], "header"
    try:
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header is None or [f.strip() for f in header] != ["az_deg", "el_deg", "gain_dbi"]:
                raise SceneSchemaError(
                    f"{path}: pattern table header must be 'az_deg,el_deg,gain_dbi'"
                )
            where = "data row 1"
            for row in reader:
                if not row:   # a blank line
                    continue
                if len(row) != 3:   # a 4th field may be a decimal comma's second half
                    raise SceneSchemaError(
                        f"{path}: {where}: expected 3 fields (az_deg,el_deg,gain_dbi), "
                        f"got {len(row)}")
                rows.append((float(row[0]), float(row[1]), float(row[2])))
                where = f"data row {len(rows) + 1}"
    except OSError as exc:
        raise SceneSchemaError(f"cannot read pattern table {path}: {exc}") from exc
    except csv.Error as exc:
        raise SceneSchemaError(f"{path}: {where}: unreadable CSV: {exc}") from exc
    except ValueError as exc:
        raise SceneSchemaError(
            f"{path}: {where}: non-numeric value in pattern table: {exc}") from exc
    if not rows:
        raise SceneSchemaError(f"{path}: pattern table is empty")
    _check_table_values(path, *np.asarray(rows).T)
    az = np.unique([r[0] for r in rows])
    el = np.unique([r[1] for r in rows])
    if az.size * el.size != len(rows):
        raise SceneSchemaError(
            f"{path}: pattern table is not a complete regular grid "
            f"({len(rows)} rows, expected {az.size * el.size})"
        )
    table = np.full((az.size, el.size), np.nan)
    for a, e, g in rows:
        table[np.searchsorted(az, a), np.searchsorted(el, e)] = g
    if np.any(np.isnan(table)):
        raise SceneSchemaError(f"{path}: pattern table has duplicate or missing grid nodes")
    return TablePattern(az_deg=az, el_deg=el, gain_dbi=table)


def direction_azel_deg(direction):
    """Convert unit direction vector(s) to (azimuth, elevation) in degrees.

    Directions at zenith/nadir have undefined azimuth; it is reported as 0.
    Accepts shape (3,) or (n, 3).
    """
    d = np.asarray(direction, dtype=float)
    if d.ndim == 1:
        az = np.degrees(np.arctan2(d[0], d[1]))
        el = np.degrees(np.arcsin(np.clip(d[2], -1.0, 1.0)))
        return normalize_azimuth_deg(az), float(el)
    az = np.degrees(np.arctan2(d[:, 0], d[:, 1]))
    az = np.mod(az, 360.0)
    az[az == 360.0] = 0.0
    el = np.degrees(np.arcsin(np.clip(d[:, 2], -1.0, 1.0)))
    return az, el


def _check_unit(direction):
    d = np.asarray(direction, dtype=float)
    norm = np.linalg.norm(d, axis=-1)
    if np.any(np.abs(norm - 1.0) > 1e-9):
        raise ValueError("direction must be a unit vector (|norm - 1| <= 1e-9)")
    return d


def steered_offsets(orientation: Orientation, direction):
    """Azimuth/elevation offsets of a unit direction from a steered boresight.

    Returns (delta_az_deg, delta_el_deg) with the azimuth offset wrapped into
    (-180, 180]. Accepts a single direction (3,) or a batch (n, 3).
    """
    d = _check_unit(direction)
    az, el = direction_azel_deg(d)
    daz = wrap_angle_deg(np.asarray(az) - orientation.azimuth_deg)
    del_ = np.asarray(el) - orientation.tilt_deg
    if d.ndim == 1:
        return float(daz), float(del_)
    return daz, del_


def gain(pattern, orientation: Orientation, direction):
    """Directional gain (dBi) of a steered pattern toward unit direction(s)."""
    daz, del_ = steered_offsets(orientation, direction)
    return pattern.offset_gain_dbi(daz, del_)
