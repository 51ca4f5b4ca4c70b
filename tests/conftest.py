"""Shared fixtures."""

import pytest

from airtwin.scene import BeamAssignment, build_voxel_grid
from factories import DEMO_SCENE, simple_scene
from oracles import load_scene


@pytest.fixture(scope="session")
def demo():
    scene = load_scene(DEMO_SCENE)
    grid = build_voxel_grid(scene.airspace)
    return scene, grid


@pytest.fixture()
def tiny():
    scene = simple_scene(n_cells=2, n_beams=2, radius_m=60.0, z_max_m=40.0, voxel_m=20.0)
    grid = build_voxel_grid(scene.airspace)
    return scene, grid


def baseline(scene) -> BeamAssignment:
    return BeamAssignment.baseline(scene)
