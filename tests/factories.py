"""Scene factories shared by the test modules.

They live outside ``conftest.py`` so that a test module imports them by a
name no other test directory's conftest shares.
"""

import dataclasses

import numpy as np

from airtwin.antenna import AntennaPattern, Orientation, TablePattern
from airtwin.scene import (
    Cell,
    CoverageThresholds,
    CylinderSpec,
    RadioConstants,
    SceneConfig,
    Site,
    SteeringBounds,
    SubBeam,
)


def simple_scene(n_cells=1, n_beams=1, radius_m=100.0, z_max_m=60.0, voxel_m=20.0,
                 tx_power_dbm=30.0, pattern=None, tilt_bounds=(0.0, 15.0),
                 az_halfwidth_deg=15.0, candidate_step=(5.0, 5.0), site_ring_m=80.0,
                 site_z_m=10.0, thresholds=None, frequency_hz=3.5e9,
                 bandwidth_hz=1e8, noise_figure_db=7.0, beam_fan_deg=10.0) -> SceneConfig:
    """One site per cell on a ring, cells aimed at the cylinder center."""
    pattern = pattern or AntennaPattern(g_max_dbi=17.0, hpbw_az_deg=65.0,
                                        hpbw_el_deg=35.0, sla_db=30.0, fbr_db=30.0)
    sites = []
    for c in range(n_cells):
        ring_deg = 360.0 * c / max(n_cells, 1)
        ring = np.radians(ring_deg)
        pos = (site_ring_m * np.sin(ring), site_ring_m * np.cos(ring), site_z_m)
        inward = (ring_deg + 180.0) % 360.0
        beams = []
        for b in range(n_beams):
            az = inward + (b - (n_beams - 1) / 2.0) * beam_fan_deg
            beams.append(SubBeam(
                index=b, pattern=pattern,
                bounds=SteeringBounds(az - az_halfwidth_deg, az + az_halfwidth_deg,
                                      tilt_bounds[0], tilt_bounds[1]),
                baseline=Orientation(az, tilt_bounds[0]),
                candidate_step=candidate_step))
        sites.append(Site(id=f"site{c}", position_m=pos,
                          cells=(Cell(id=f"cell{c}", tx_power_dbm=tx_power_dbm,
                                      sub_beams=tuple(beams)),)))
    return SceneConfig(
        sites=tuple(sites),
        airspace=CylinderSpec((0.0, 0.0), radius_m, 0.0, z_max_m, voxel_m),
        radio=RadioConstants(frequency_hz, bandwidth_hz, noise_figure_db),
        thresholds=thresholds or CoverageThresholds())


def with_table_beam(scene):
    """``scene`` with sub-beam 0 of its first cell on an asymmetric table pattern."""
    rng = np.random.default_rng(3)
    az = np.arange(-180.0, 181.0, 15.0)
    el = np.arange(-90.0, 91.0, 15.0)
    table = TablePattern(az_deg=az, el_deg=el,
                         gain_dbi=rng.uniform(-13.0, 17.0, (az.size, el.size)))
    site = scene.sites[0]
    cell = site.cells[0]
    beams = (dataclasses.replace(cell.sub_beams[0], pattern=table),) + cell.sub_beams[1:]
    cells = (dataclasses.replace(cell, sub_beams=beams),) + site.cells[1:]
    sites = (dataclasses.replace(site, cells=cells),) + scene.sites[1:]
    return dataclasses.replace(scene, sites=sites)


def random_instance(seed, n_cells=2, n_beams=2, n_tilts=3):
    """Small randomized optimizer instance: per-beam lattice of ``n_tilts`` tilts."""
    rng = np.random.default_rng(seed)
    pattern = AntennaPattern(
        g_max_dbi=float(rng.uniform(10.0, 18.0)),
        hpbw_az_deg=float(rng.uniform(20.0, 70.0)),
        hpbw_el_deg=float(rng.uniform(10.0, 40.0)),
        sla_db=25.0, fbr_db=30.0)
    sites = []
    for c in range(n_cells):
        ring_deg = 360.0 * c / n_cells + float(rng.uniform(-20.0, 20.0))
        ring = np.radians(ring_deg)
        ring_r = float(rng.uniform(50.0, 70.0))
        pos = (ring_r * np.sin(ring), ring_r * np.cos(ring), float(rng.uniform(5.0, 15.0)))
        inward = (ring_deg + 180.0) % 360.0
        beams = []
        tilt_step = 7.0
        for b in range(n_beams):
            az = inward + (b - (n_beams - 1) / 2.0) * 25.0
            beams.append(SubBeam(
                index=b, pattern=pattern,
                bounds=SteeringBounds(az, az, 0.0, tilt_step * (n_tilts - 1)),
                baseline=Orientation(az, 0.0),
                candidate_step=(5.0, tilt_step)))
        sites.append(Site(id=f"site{c}", position_m=pos,
                          cells=(Cell(id=f"cell{c}",
                                      tx_power_dbm=float(rng.uniform(22.0, 34.0)),
                                      sub_beams=tuple(beams)),)))
    scene = SceneConfig(
        sites=tuple(sites),
        airspace=CylinderSpec((0.0, 0.0), 50.0, 0.0, 40.0, 20.0),
        radio=RadioConstants(3.5e9, 1e8, 7.0),
        thresholds=CoverageThresholds(rsrp_basic_dbm=-95.0, rsrp_strict_dbm=-85.0,
                                      sinr_basic_db=-3.0, sinr_strict_db=5.0))
    return scene
