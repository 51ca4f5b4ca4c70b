"""Per-point RSRP in two steps: site geometry, then a stack of sub-beam gains.

Every sub-beam of a site sees a point at the same azimuth, elevation and
free-space path loss, so ``site_geometry`` works those out once per site
(one azimuth per grid column) and checks the site against its points, and
``beam_rsrp_numpy`` adds sub-beams' steered antenna gain on top:

    RSRP = tx_power_dbm + G(wrap(az - az0), el - tilt0) - FSPL + offset_db

``G`` comes from the pattern's own terms, so the gain formula exists only
in ``antenna``. ``beam_rsrp_numpy`` writes the rows of sub-beams that share
one pattern and power as one (k, *points) stack, each step one numpy call
for all k rows; ``pattern_runs`` splits a cell's sub-beams into such runs,
and ``cell_rows`` writes the cell's stack run by run. Work runs block by
block in reused buffers, so these helpers and those they call (the pattern
terms, ``rsrp_from_gain``, ``linear_mw`` and ``sinr_db``) take an ``out=``
array and run the same operations, in the same order, with or without it.

Threading: a grid is split into fixed ranges of columns over every layer,
and points into fixed chunks (``chunks``), whatever the thread count, so
``run_tasks`` gives bit-identical results for any ``threads`` value.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from .antenna import MAX_LEVEL_DB, AntennaPattern, wrap_angle_deg
from .errors import SingularityError

SPEED_OF_LIGHT_M_S = 299_792_458.0
_FOUR_PI_OVER_C = 4.0 * math.pi / SPEED_OF_LIGHT_M_S

_CHUNK = 24576  # points (voxels) per work unit; fixed so output never depends on threads

_TENS = np.full(65536, 10.0)   # the base of every linear_mw; a block's stack takes a few calls
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


def beam_rsrp_numpy(az_deg, el_deg, fspl_db, pattern, angles, tx_power_dbm, offset_db,
                    out=None):
    """The (k, *points) RSRP stack of k sub-beams sharing ``pattern`` and power.

    Row i, steered to ``angles[i]``, has the bits of a one-angle call; ``out``
    receives the stack. The azimuth may be one per column, (c,), against
    (L, c) elevations and path losses. A parametric pattern caps the (k, c)
    azimuth offsets at once and takes every later step on the whole stack in
    place; a table pattern takes ``offset_gain_dbi`` row by row.
    """
    ndim = np.ndim(el_deg)
    az_deg = np.reshape(az_deg, (1,) * (ndim - np.ndim(az_deg)) + np.shape(az_deg))
    steer = np.reshape([(a.azimuth_deg, a.tilt_deg) for a in angles], (-1, 2) + (1,) * ndim)
    stack = np.empty((len(angles), *np.shape(el_deg))) if out is None else out
    delta_az = wrap_angle_deg(az_deg - steer[:, 0])
    if not isinstance(pattern, AntennaPattern):
        for row, daz, tilt in zip(stack, delta_az, steer[:, 1]):
            rsrp_from_gain(tx_power_dbm, pattern.offset_gain_dbi(daz, el_deg - tilt), fspl_db,
                           offset_db, out=row)
        return stack
    a_az = pattern.azimuth_attenuation_db(delta_az, out=delta_az)
    a_el = pattern.elevation_attenuation_db(np.subtract(el_deg, steer[:, 1], out=stack),
                                            out=stack)
    gain_dbi = pattern.gain_from_attenuation_dbi(a_az, a_el, out=stack)
    return rsrp_from_gain(tx_power_dbm, gain_dbi, fspl_db, offset_db, out=stack)


def pattern_runs(beams):
    """``(pattern, angles)`` runs of ``beams``: equal parametric patterns share one call."""
    runs = []
    for pattern, angle in beams:
        if runs and isinstance(pattern, AntennaPattern) and runs[-1][0] == pattern:
            runs[-1][1].append(angle)
        else:
            runs.append((pattern, [angle]))
    return runs


def cell_rows(geometry, runs, tx_power_dbm, offset_db, out):
    """A cell's sub-beam rows at ``geometry`` into ``out``, (k, *points), one call per run."""
    lo = 0
    for pattern, angles in runs:
        beam_rsrp_numpy(*geometry, pattern, angles, tx_power_dbm, offset_db,
                        out=out[lo:lo + len(angles)])
        lo += len(angles)
    return out


def add_rows(rows, out):
    """The in-order sum of ``rows`` along axis 0 into ``out``.

    ``np.add.reduce`` adds rows of one point pairwise from 8 rows on."""
    if rows[:1].size != 1:
        return np.add.reduce(rows, axis=0, out=out)
    out[...] = rows[0]
    for row in rows[1:]:
        out += row
    return out


def linear_mw(rsrp_dbm: np.ndarray, out=None) -> np.ndarray:
    """dBm to mW, elementwise: ``10 ** (0.1 x)``; ``out`` may be ``rsrp_dbm``.

    numpy raises a contiguous array of bases about twice as fast as a scalar
    or stride-0 base, with the same bits. So the exponents are raised against
    the read-only ``_TENS``, in place, one piece of the last axis at a time
    (of the whole array, when it is contiguous, as a block's stack of sub-beam
    rows is), and no temporary is made.
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


def chunks(n, layers=1, blocks=1):
    """Fixed [lo, hi) ranges of [0, n), each of about ``blocks * _CHUNK`` points over ``layers``."""
    step = max(1, blocks * _CHUNK // layers)
    return [(lo, min(lo + step, n)) for lo in range(0, n, step)]


def run_tasks(work, tasks, threads=1):
    """Run ``work(task)`` for every task, on a thread pool when ``threads`` > 1."""
    if threads <= 1 or len(tasks) <= 1:
        for task in tasks:
            work(task)
        return
    with ThreadPoolExecutor(max_workers=int(threads)) as pool:
        list(pool.map(work, tasks))
