"""Per-voxel RSRP in two steps: site geometry, then one gain formula per sub-beam.

Every sub-beam of a site sees a voxel at the same azimuth, elevation and
free-space path loss, so ``site_geometry`` works those out once per site and
``beam_rsrp_numpy`` adds a sub-beam's steered antenna gain on top:

    RSRP = tx_power_dbm + G(wrap(az - az0), el - tilt0) - FSPL + offset_db

``G`` is the pattern's own ``offset_gain_dbi``, so parametric and table
patterns share one code path and the gain formula exists only in
``antenna``. ``rsrp_from_gain`` is the last step on its own: the optimizer's
candidate loop builds a parametric gain from an azimuth term it computes
once per distinct azimuth (``AntennaPattern`` is separable) and an
elevation term per angle, then assembles the RSRP with the same helper.
That loop scores a candidate chunk by chunk in reused buffers, so the
helpers it calls (here ``rsrp_from_gain``; the pattern terms, ``linear_mw``
and ``sinr_db``) take an ``out=`` array and run the same operations, in the
same order, with or without it.

Threading: voxels are split into fixed-size chunks whose boundaries do not
depend on the thread count, and ``run_tasks`` spreads independent tasks over
one thread pool, so results are bit-identical for any ``threads`` value.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from .antenna import wrap_angle_deg

SPEED_OF_LIGHT_M_S = 299_792_458.0
_FOUR_PI_OVER_C = 4.0 * math.pi / SPEED_OF_LIGHT_M_S

_CHUNK = 65536  # voxels per work unit; fixed so output never depends on threads


def fspl(distance_m, frequency_hz):
    """Free-space path loss 20 log10(4 pi d f / c) in dB, unchecked."""
    return 20.0 * np.log10(_FOUR_PI_OVER_C * distance_m * frequency_hz)


def site_geometry(centers, site_xyz, frequency_hz):
    """Azimuth and elevation (degrees) and FSPL (dB) from one site to each point.

    Azimuth is clockwise from north in (-180, 180]; elevation is upward.
    """
    dx = centers[:, 0] - site_xyz[0]
    dy = centers[:, 1] - site_xyz[1]
    dz = centers[:, 2] - site_xyz[2]
    dist = np.sqrt(dx * dx + dy * dy + dz * dz)
    az = np.degrees(np.arctan2(dx, dy))
    el = np.degrees(np.arcsin(np.clip(dz / dist, -1.0, 1.0)))
    return az, el, fspl(dist, frequency_hz)


def rsrp_from_gain(tx_power_dbm, gain_dbi, fspl_db, offset_db, out=None):
    """RSRP (dBm) from the transmit power, antenna gain, path loss and offset."""
    rsrp = np.add(tx_power_dbm, gain_dbi, out=out)
    rsrp = np.subtract(rsrp, fspl_db, out=out)
    return np.add(rsrp, offset_db, out=out)


def beam_rsrp_numpy(az_deg, el_deg, fspl_db, pattern, angle, tx_power_dbm, offset_db):
    """Per-voxel RSRP of one sub-beam steered to ``angle``, from its site's geometry."""
    gain_dbi = pattern.offset_gain_dbi(wrap_angle_deg(az_deg - angle.azimuth_deg),
                                       el_deg - angle.tilt_deg)
    return rsrp_from_gain(tx_power_dbm, gain_dbi, fspl_db, offset_db)


def active_backend() -> str:
    return "numpy"


def chunks(n):
    """Fixed [lo, hi) voxel chunks of [0, n)."""
    return [(lo, min(lo + _CHUNK, n)) for lo in range(0, n, _CHUNK)]


def run_tasks(work, tasks, threads=1):
    """Run ``work(task)`` for every task, on a thread pool when ``threads`` > 1."""
    if threads is None or threads <= 1 or len(tasks) <= 1:
        for task in tasks:
            work(task)
        return
    with ThreadPoolExecutor(max_workers=int(threads)) as pool:
        list(pool.map(work, tasks))
