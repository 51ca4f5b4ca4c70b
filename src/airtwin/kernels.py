"""Per-point RSRP in two steps: site geometry, then one gain formula per sub-beam.

Every sub-beam of a site sees a point at the same azimuth, elevation and
free-space path loss, so ``site_geometry`` works those out once per site and
``beam_rsrp_numpy`` adds a sub-beam's steered antenna gain on top:

    RSRP = tx_power_dbm + G(wrap(az - az0), el - tilt0) - FSPL + offset_db

``site_geometry`` broadcasts: for a block of the grid's voxel columns it
gives one azimuth per column and an elevation and path loss per voxel. It is
the one check of a site against the points it is evaluated at: a point too
close for a finite path loss, distance 0 included, raises
``SingularityError`` before anything divides by that distance.

``G`` comes from the pattern's own terms, so the gain formula exists only
in ``antenna``. ``AntennaPattern`` is separable: its capped azimuth term
depends only on ``(hpbw_az_deg, sla_db, azimuth)`` and the column, its
capped elevation term only on ``(hpbw_el_deg, sla_db, tilt_deg)`` and the
voxel. ``beam_rsrp_numpy`` computes each once into a dict that holds for one
geometry (``spectrum``'s fold keeps one per site and block; a site's 14
sub-beams use 6 to 8 tilts in a random lattice assignment and 1 in the
baseline) and broadcasts the azimuth term over the layers. A table pattern
takes ``offset_gain_dbi``. The optimizer's candidate loop builds a
parametric gain from the same terms and assembles the RSRP with
``rsrp_from_gain``. The field build and that loop work block by block in
reused buffers, so ``beam_rsrp_numpy`` and the helpers they call
(``rsrp_from_gain``, the pattern terms, ``linear_mw`` and ``sinr_db``) take
an ``out=`` array and run the same operations, in the same order, with or
without it.

Threading: a grid is split into fixed ranges of columns, each over every
layer, and points into fixed chunks (``chunks``), whatever the thread count;
``run_tasks`` spreads independent tasks over one thread pool, so results are
bit-identical for any ``threads`` value.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from .antenna import MAX_LEVEL_DB, AntennaPattern, wrap_angle_deg
from .errors import SingularityError

SPEED_OF_LIGHT_M_S = 299_792_458.0
_FOUR_PI_OVER_C = 4.0 * math.pi / SPEED_OF_LIGHT_M_S

_CHUNK = 65536  # points (voxels) per work unit; fixed so output never depends on threads

_TENS = np.full(_CHUNK, 10.0)   # the base of every linear_mw
_TENS.flags.writeable = False


def fspl(distance_m, frequency_hz):
    """Free-space path loss 20 log10(4 pi d f / c) in dB, unchecked."""
    return 20.0 * np.log10(_FOUR_PI_OVER_C * distance_m * frequency_hz)


def site_geometry(x, y, z, site, frequency_hz):
    """Azimuth and elevation (degrees) and FSPL (dB) from ``site`` to points x, y, z.

    The coordinates broadcast: three (n,) arrays give three (n,) results; a
    grid's column x and y (c,) and its layer z (L, 1) give the azimuth per
    column (c,) and the elevation and FSPL per voxel (L, c). Each voxel's
    squared distance is ``(dx*dx + dy*dy) + dz*dz`` in both forms, so every
    value has the same bits whichever form computes it.

    Azimuth is clockwise from north in (-180, 180]; elevation is upward.
    Raises ``SingularityError``, naming the site and the nearest point, when
    a point is no farther from the site than the distance at which the FSPL
    reaches -``MAX_LEVEL_DB``: at distance 0 (the same position, or an
    offset whose square underflows) a point has no direction, and closer
    than that its level could overflow the dBm-to-mW conversion.
    """
    sx, sy, sz = site.position_m
    dx = x - sx
    dy = y - sy
    dz = z - sz
    dist = np.sqrt((dx * dx + dy * dy) + dz * dz)
    near_m = 10.0 ** (-MAX_LEVEL_DB / 20.0) / (_FOUR_PI_OVER_C * frequency_hz)
    if dist.size and not dist.min() > near_m:
        i = np.unravel_index(np.argmin(dist), dist.shape)
        point = tuple(float(np.broadcast_to(v, dist.shape)[i]) for v in (x, y, z))
        raise SingularityError(
            f"evaluation point {point} is {float(dist[i])!r} m from "
            f"site '{site.id}' at {site.position_m}; it must be farther than {near_m:.3g} m")
    az = np.degrees(np.arctan2(dx, dy))
    el = np.degrees(np.arcsin(np.clip(dz / dist, -1.0, 1.0)))
    return az, el, fspl(dist, frequency_hz)


def rsrp_from_gain(tx_power_dbm, gain_dbi, fspl_db, offset_db, out=None):
    """RSRP (dBm) from the transmit power, antenna gain, path loss and offset."""
    rsrp = np.add(tx_power_dbm, gain_dbi, out=out)
    rsrp = np.subtract(rsrp, fspl_db, out=out)
    return np.add(rsrp, offset_db, out=out)


def beam_rsrp_numpy(az_deg, el_deg, fspl_db, pattern, angle, tx_power_dbm, offset_db,
                    out=None, terms=None):
    """RSRP of one sub-beam steered to ``angle``, from its site's geometry.

    The azimuth may be one per column, (c,), against (L, c) elevations and
    path losses. A parametric pattern's capped azimuth term is computed once
    per ``(hpbw_az_deg, sla_db, azimuth)`` and its capped elevation term once
    per ``(hpbw_el_deg, sla_db, tilt_deg)`` into ``terms``, a dict for this
    geometry only, or into a fresh dict; the combine broadcasts them. The bits
    are the same with or without ``terms`` and ``out``.
    """
    if not isinstance(pattern, AntennaPattern):
        gain_dbi = pattern.offset_gain_dbi(wrap_angle_deg(az_deg - angle.azimuth_deg),
                                           el_deg - angle.tilt_deg)
        return rsrp_from_gain(tx_power_dbm, gain_dbi, fspl_db, offset_db, out=out)
    terms = {} if terms is None else terms
    az_key = ("az", pattern.hpbw_az_deg, pattern.sla_db, angle.azimuth_deg)
    if az_key not in terms:
        delta_az = wrap_angle_deg(az_deg - angle.azimuth_deg)
        terms[az_key] = pattern.azimuth_attenuation_db(delta_az, out=delta_az)
    el_key = ("el", pattern.hpbw_el_deg, pattern.sla_db, angle.tilt_deg)
    if el_key not in terms:
        terms[el_key] = pattern.elevation_attenuation_db(el_deg - angle.tilt_deg)
    gain_dbi = pattern.gain_from_attenuation_dbi(terms[az_key], terms[el_key], out=out)
    return rsrp_from_gain(tx_power_dbm, gain_dbi, fspl_db, offset_db, out=out)


def linear_mw(rsrp_dbm: np.ndarray, out=None) -> np.ndarray:
    """dBm to mW, elementwise: ``10 ** (0.1 x)``; ``out`` may be ``rsrp_dbm``.

    numpy raises a contiguous array of bases about twice as fast as a scalar
    or stride-0 base, with the same bits. So the exponents are raised against
    the read-only ``_TENS``, in place, one chunk of the last axis at a time
    (of the whole array, when it is contiguous), and no temporary is made:
    the optimizer passes a (7, L, C) array of rows that is 200+ MB at paper
    scale.
    """
    mw = np.multiply(rsrp_dbm, 0.1, out=out)
    if np.ndim(mw) == 0:
        return np.power(10.0, mw, out=out)
    lines = ((mw.reshape(-1),) if mw.flags.c_contiguous
             else (mw[index] for index in np.ndindex(mw.shape[:-1])))
    for line in lines:
        for lo in range(0, line.size, _TENS.size):
            part = line[lo:lo + _TENS.size]
            np.power(_TENS[:part.size], part, out=part)
    return mw


def active_backend() -> str:
    return "numpy"


def chunks(n, layers=1):
    """Fixed [lo, hi) ranges of [0, n), each of about ``_CHUNK`` points over ``layers``."""
    step = max(1, _CHUNK // layers)
    return [(lo, min(lo + step, n)) for lo in range(0, n, step)]


def run_tasks(work, tasks, threads=1):
    """Run ``work(task)`` for every task, on a thread pool when ``threads`` > 1."""
    if threads <= 1 or len(tasks) <= 1:
        for task in tasks:
            work(task)
        return
    with ThreadPoolExecutor(max_workers=int(threads)) as pool:
        list(pool.map(work, tasks))
