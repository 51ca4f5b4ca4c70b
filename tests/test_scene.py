import json

import numpy as np
import pytest

from airtwin.errors import (
    BoundsError,
    EmptyGridError,
    IncompleteAssignmentError,
    SceneSchemaError,
    SceneValidationError,
)
from airtwin.scene import (
    BeamAssignment,
    CylinderSpec,
    RadioConstants,
    build_voxel_grid,
    load_assignment,
    load_scene,
    nearest_voxel_index,
    save_assignment,
    save_scene,
    scene_from_dict,
    scene_to_dict,
    voxel_center,
)
from airtwin.antenna import Orientation
from airtwin.synth import demo_scene

from factories import simple_scene


def brute_force_count(spec: CylinderSpec) -> int:
    """Independent enumeration of lattice centers inside the cylinder."""
    v = spec.voxel_m
    cx, cy = spec.center_m
    nx = int(np.ceil(2 * spec.radius_m / v))
    nz = int(np.ceil((spec.z_max_m - spec.z_min_m) / v))
    count = 0
    for k in range(max(nz, 1)):
        z = spec.z_min_m + (k + 0.5) * v
        if z > spec.z_max_m:
            continue
        for j in range(max(nx, 1)):
            y = cy - spec.radius_m + (j + 0.5) * v
            for i in range(max(nx, 1)):
                x = cx - spec.radius_m + (i + 0.5) * v
                if (x - cx) ** 2 + (y - cy) ** 2 <= spec.radius_m ** 2:
                    count += 1
    return count


@pytest.mark.parametrize("field", ["frequency_hz", "bandwidth_hz", "noise_figure_db"])
@pytest.mark.parametrize("value", [float("nan"), float("inf")])
def test_radio_constants_must_be_finite(field, value):
    values = {"frequency_hz": 3.5e9, "bandwidth_hz": 1e8, "noise_figure_db": 7.0, field: value}
    with pytest.raises(SceneValidationError, match=field):
        RadioConstants(**values)


class TestVoxelGrid:
    def test_single_voxel_degenerate(self):
        grid = build_voxel_grid(CylinderSpec((3.0, -2.0), 5.0, 0.0, 10.0, 10.0))
        assert grid.count == 1
        assert np.allclose(voxel_center(grid, 0), [3.0, -2.0, 5.0])

    def test_small_radius_matches_bruteforce(self):
        spec = CylinderSpec((0.0, 0.0), 15.0, 0.0, 10.0, 10.0)
        grid = build_voxel_grid(spec)
        assert grid.count == brute_force_count(spec)

    @pytest.mark.parametrize("radius,z_max,voxel", [
        (37.0, 25.0, 5.0),
        (100.0, 40.0, 10.0),
        (52.5, 33.0, 7.5),
    ])
    def test_count_matches_bruteforce(self, radius, z_max, voxel):
        spec = CylinderSpec((10.0, -5.0), radius, 0.0, z_max, voxel)
        grid = build_voxel_grid(spec)
        assert grid.count == brute_force_count(spec)

    def test_production_scale_count(self):
        # 2 km radius, 0-500 m, 10 m voxels; oracle enumerates one layer.
        spec = CylinderSpec((0.0, 0.0), 2000.0, 0.0, 500.0, 10.0)
        grid = build_voxel_grid(spec)
        per_layer = 0
        for j in range(400):
            y = -2000.0 + (j + 0.5) * 10.0
            for i in range(400):
                x = -2000.0 + (i + 0.5) * 10.0
                if x * x + y * y <= 2000.0 ** 2:
                    per_layer += 1
        assert grid.count == per_layer * 50
        assert abs(grid.count - 6.28e6) < 0.02e6

    def test_halving_voxel_roughly_octuples_count(self):
        coarse = build_voxel_grid(CylinderSpec((0.0, 0.0), 300.0, 0.0, 100.0, 10.0))
        fine = build_voxel_grid(CylinderSpec((0.0, 0.0), 300.0, 0.0, 100.0, 5.0))
        factor = fine.count / coarse.count
        assert 7.0 <= factor <= 9.0

    def test_iteration_order_z_major(self):
        grid = build_voxel_grid(CylinderSpec((0.0, 0.0), 25.0, 0.0, 30.0, 10.0))
        z = grid.centers[:, 2]
        assert np.all(np.diff(z) >= 0)
        first_layer = grid.centers[z == z[0]]
        # within a layer, y ascends and x ascends within fixed y
        assert np.all(np.diff(first_layer[:, 1]) >= 0)

    def test_centers_inside_cylinder(self):
        spec = CylinderSpec((5.0, 5.0), 40.0, 10.0, 50.0, 7.0)
        grid = build_voxel_grid(spec)
        d = np.hypot(grid.centers[:, 0] - 5.0, grid.centers[:, 1] - 5.0)
        assert np.all(d <= 40.0)
        assert np.all((grid.centers[:, 2] >= 10.0) & (grid.centers[:, 2] <= 50.0))

    def test_empty_grid_error(self):
        with pytest.raises(EmptyGridError):
            build_voxel_grid(CylinderSpec((0.0, 0.0), 1.0, 0.0, 10.0, 10.0))

    def test_voxel_center_out_of_range(self):
        grid = build_voxel_grid(CylinderSpec((0.0, 0.0), 5.0, 0.0, 10.0, 10.0))
        with pytest.raises(IndexError):
            voxel_center(grid, 1)
        with pytest.raises(IndexError):
            voxel_center(grid, -1)

    def test_nearest_voxel_roundtrip_exhaustive(self):
        grid = build_voxel_grid(CylinderSpec((-4.0, 9.0), 35.0, 0.0, 30.0, 10.0))
        for idx in range(grid.count):
            assert nearest_voxel_index(grid, voxel_center(grid, idx)) == idx

    def test_nearest_voxel_outside_raises(self):
        grid = build_voxel_grid(CylinderSpec((0.0, 0.0), 25.0, 0.0, 10.0, 10.0))
        with pytest.raises(IndexError):
            nearest_voxel_index(grid, (24.0, 24.0, 5.0))  # corner cell outside circle

    def test_spec_invariants(self):
        with pytest.raises(SceneValidationError):
            CylinderSpec((0, 0), -1.0, 0.0, 10.0, 10.0)
        with pytest.raises(SceneValidationError):
            CylinderSpec((0, 0), 10.0, 5.0, 5.0, 10.0)
        with pytest.raises(SceneValidationError):
            CylinderSpec((0, 0), 10.0, 0.0, 10.0, 0.0)


class TestSceneIO:
    def test_demo_scene_file_matches_generator(self):
        loaded = load_scene("scenes/demo_6cell.json")
        assert scene_to_dict(loaded) == scene_to_dict(demo_scene())

    def test_42_sub_beams(self):
        scene = load_scene("scenes/demo_6cell.json")
        assert scene.n_sub_beams == 42
        assert len(scene.cell_ids) == 6

    def test_roundtrip_idempotent(self, tmp_path):
        scene = demo_scene()
        p1 = tmp_path / "a.json"
        p2 = tmp_path / "b.json"
        save_scene(scene, p1)
        reloaded = load_scene(p1)
        save_scene(reloaded, p2)
        assert p1.read_text() == p2.read_text()
        assert scene_to_dict(reloaded) == scene_to_dict(scene)

    def test_duplicate_cell_id_named(self, tmp_path):
        doc = scene_to_dict(demo_scene())
        doc["sites"][1]["cells"][0]["id"] = doc["sites"][0]["cells"][0]["id"]
        with pytest.raises(SceneValidationError, match="s1c1"):
            scene_from_dict(doc)

    def test_inverted_tilt_bounds(self):
        doc = scene_to_dict(demo_scene())
        beam = doc["sites"][0]["cells"][0]["sub_beams"][0]
        beam["bounds"]["tilt_min_deg"] = 10.0
        beam["bounds"]["tilt_max_deg"] = 0.0
        with pytest.raises(SceneValidationError, match="tilt"):
            scene_from_dict(doc)

    def test_missing_file(self):
        with pytest.raises(SceneSchemaError, match="no_such"):
            load_scene("no_such_scene.json")

    def test_parse_error_reports_line(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{\n  "airspace": [,]\n}\n')
        with pytest.raises(SceneSchemaError, match="line 2"):
            load_scene(bad)

    def test_schema_violation_names_field(self, tmp_path):
        doc = scene_to_dict(demo_scene())
        del doc["radio"]["frequency_hz"]
        p = tmp_path / "scene.json"
        p.write_text(json.dumps(doc))
        with pytest.raises(SceneSchemaError, match="frequency_hz"):
            load_scene(p)

    def test_nonpositive_frequency_rejected(self):
        doc = scene_to_dict(demo_scene())
        doc["radio"]["frequency_hz"] = 0.0
        with pytest.raises(SceneValidationError, match="frequency_hz"):
            scene_from_dict(doc)

    def test_baseline_outside_bounds_rejected(self):
        doc = scene_to_dict(demo_scene())
        doc["sites"][0]["cells"][0]["sub_beams"][0]["baseline"] = [0.0, 90.0]
        with pytest.raises(SceneValidationError, match="baseline"):
            scene_from_dict(doc)


class TestBeamAssignment:
    def test_baseline_complete_and_valid(self):
        scene = simple_scene(n_cells=2, n_beams=3)
        assignment = BeamAssignment.baseline(scene)
        assignment.validate_for(scene, require_lattice=True)
        assert len(assignment.angles) == 6

    def test_missing_beam_rejected(self):
        scene = simple_scene(n_cells=2, n_beams=2)
        assignment = BeamAssignment.baseline(scene)
        partial = dict(assignment.angles)
        partial.popitem()
        with pytest.raises(IncompleteAssignmentError):
            BeamAssignment(partial).validate_for(scene)

    def test_out_of_bounds_rejected(self):
        scene = simple_scene()
        bad = BeamAssignment.baseline(scene).replaced(("cell0", 0), Orientation(0.0, 89.0))
        with pytest.raises(BoundsError):
            bad.validate_for(scene)

    def test_off_lattice_rejected_but_baseline_admitted(self):
        scene = simple_scene(candidate_step=(5.0, 5.0))
        key = ("cell0", 0)
        base_angle = scene.sub_beam(*key)[2].baseline
        off = BeamAssignment.baseline(scene).replaced(
            key, Orientation(base_angle.azimuth_deg + 2.5, base_angle.tilt_deg))
        with pytest.raises(BoundsError):
            off.validate_for(scene, require_lattice=True)
        off.validate_for(scene, require_lattice=False)

    def test_json_roundtrip(self, tmp_path):
        scene = simple_scene(n_cells=2, n_beams=2)
        assignment = BeamAssignment.baseline(scene)
        path = tmp_path / "assign.json"
        save_assignment(assignment, path)
        again = load_assignment(path)
        assert again.angles == assignment.angles

    def test_wraparound_azimuth_bounds(self):
        # bounds straddling north: raw az range [350, 370]
        from airtwin.scene import SteeringBounds

        bounds = SteeringBounds(350.0, 370.0, 0.0, 10.0)
        assert bounds.contains(Orientation(355.0, 5.0))
        assert bounds.contains(Orientation(5.0, 5.0))     # 365 normalized
        assert not bounds.contains(Orientation(20.0, 5.0))


def test_lattice_enumeration_order():
    scene = simple_scene(candidate_step=(5.0, 5.0), tilt_bounds=(0.0, 10.0),
                         az_halfwidth_deg=5.0)
    sb = scene.sub_beam("cell0", 0)[2]
    lattice = sb.lattice()
    assert len(lattice) == 3 * 3
    azs = [o.azimuth_deg for o in lattice]
    tilts = [o.tilt_deg for o in lattice]
    assert tilts[:3] == [0.0, 5.0, 10.0]       # tilt minor
    assert azs[0] == azs[1] == azs[2]          # az major
