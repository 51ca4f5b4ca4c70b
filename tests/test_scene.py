import copy
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from airtwin.errors import (
    BoundsError,
    EmptyGridError,
    IncompleteAssignmentError,
    InputError,
    SceneSchemaError,
    SceneValidationError,
)
from airtwin.scene import (
    DEFAULT_CANDIDATE_STEP,
    BeamAssignment,
    CoverageThresholds,
    CylinderSpec,
    RadioConstants,
    SceneConfig,
    build_voxel_grid,
    load_assignment,
    save_assignment,
    scene_from_dict,
)
from airtwin.antenna import AntennaPattern, Orientation, TablePattern

from factories import DEMO_SCENE, demo_doc, simple_scene
from oracles import layer_bounds, layer_indices, load_scene, replaced, save_scene, scene_to_dict


def mask_voxel_grid(spec: CylinderSpec):
    """Centers, layer altitudes and layer bounds from a (nz, ny, nx) mask.

    The construction ``build_voxel_grid`` used before it filled one circle
    per layer, kept as an oracle for it.
    """
    v = spec.voxel_m
    cx, cy = spec.center_m
    x0, y0, z0 = cx - spec.radius_m, cy - spec.radius_m, spec.z_min_m
    nx = max(int(np.ceil(2.0 * spec.radius_m / v)), 1)
    nz = max(int(np.ceil((spec.z_max_m - spec.z_min_m) / v)), 1)
    xs, ys, zs = (o + (np.arange(n) + 0.5) * v for o, n in ((x0, nx), (y0, nx), (z0, nz)))
    in_circle = ((ys - cy)[:, None] ** 2 + (xs - cx)[None, :] ** 2) <= spec.radius_m ** 2
    in_band = zs <= spec.z_max_m
    mask = in_band[:, None, None] & in_circle[None, :, :]
    iz, iy, ix = np.nonzero(mask)
    centers = np.empty((int(mask.sum()), 3), dtype=np.float64)
    centers[:, 0] = xs[ix]
    centers[:, 1] = ys[iy]
    centers[:, 2] = zs[iz]
    layer_bounds = np.arange(np.count_nonzero(in_band) + 1) * np.count_nonzero(in_circle)
    return centers, zs[in_band], layer_bounds


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


# Past these the FSPL, the noise floor or I/N could leave float range at
# levels within +-500 dB and --offset-db within +-1000 dB.
@pytest.mark.parametrize("field, value", [
    ("frequency_hz", 1e-300), ("frequency_hz", 999.0), ("frequency_hz", 0.0),
    ("bandwidth_hz", 1e-300), ("bandwidth_hz", 0.5), ("bandwidth_hz", 1.5e12),
    ("noise_figure_db", 1e300), ("noise_figure_db", 500.5), ("noise_figure_db", -1.0),
])
def test_radio_constants_bounded(field, value):
    values = {"frequency_hz": 3.5e9, "bandwidth_hz": 1e8, "noise_figure_db": 7.0, field: value}
    with pytest.raises(SceneValidationError, match=f"radio.{field} must be"):
        RadioConstants(**values)


@pytest.mark.parametrize("values", [(1e3, 1.0, 0.0), (1.7976931348623157e308, 1e12, 500.0)])
def test_radio_constants_at_their_bounds_load(values):
    assert RadioConstants(*values) == RadioConstants(*map(float, values))


@pytest.mark.parametrize("position", [(1e300, 0.0, 10.0), (0.0, -1.0000001e7, 10.0),
                                      (0.0, 0.0, 2e7)])
def test_site_position_bounded(position):
    # farther out, a site's squared distance to a point or its FSPL could overflow
    doc = _demo_doc()
    doc["sites"][1]["position_m"] = list(position)
    with pytest.raises(SceneValidationError, match="site s2: position_m must lie within"):
        scene_from_dict(doc)


@pytest.mark.parametrize("center, radius, z", [
    ((1e200, 0.0), 100.0, (0.0, 300.0)),
    ((0.0, -9_999_990.0), 60.0, (0.0, 300.0)),      # the center inside, its extent past
    ((0.0, 0.0), 2e7, (0.0, 300.0)),
    ((0.0, 0.0), 100.0, (0.0, 1.0000001e7)),
    ((0.0, 0.0), 100.0, (-2e7, 0.0)),
    ((np.inf, 0.0), 100.0, (0.0, 300.0)),
    ((0.0, np.nan), 100.0, (0.0, 300.0)),
])
def test_airspace_bounded_like_a_site(center, radius, z):
    with pytest.raises(SceneValidationError, match="airspace.center_m"):
        CylinderSpec(center, radius, *z, 10.0)


def test_airspace_at_its_bound_loads():
    spec = CylinderSpec((9_999_900.0, -9_999_900.0), 100.0, -1e7, 1e7, 10.0)
    assert spec.center_m == (9_999_900.0, -9_999_900.0)


LATTICE_SPECS = [
    CylinderSpec((3.0, -2.0), 5.0, 0.0, 10.0, 10.0),      # one voxel, off the origin
    CylinderSpec((0.0, 0.0), 25.0, 0.0, 8.0, 10.0),       # one layer
    CylinderSpec((-4.0, 9.0), 35.0, 12.5, 55.0, 7.0),     # z_min > 0, last tick cut
    CylinderSpec((5.0, 5.0), 40.0, 10.0, 50.0, 7.0),
]


class TestVoxelGrid:
    def test_single_voxel_degenerate(self):
        grid = build_voxel_grid(CylinderSpec((3.0, -2.0), 5.0, 0.0, 10.0, 10.0))
        assert grid.count == 1
        assert np.allclose(grid.centers[0], [3.0, -2.0, 5.0])

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

    @pytest.mark.parametrize("spec", [
        CylinderSpec((10.0, -5.0), 37.0, 0.0, 25.0, 5.0),
        CylinderSpec((10.0, -5.0), 100.0, 0.0, 40.0, 10.0),
        CylinderSpec((10.0, -5.0), 52.5, 0.0, 33.0, 7.5),
        # 26 / 6 leaves a top layer whose center, 27 m, lies above the band
        CylinderSpec((3.0, 4.0), 41.0, 0.0, 26.0, 6.0),
    ])
    def test_equals_the_three_dimensional_mask_construction(self, spec):
        grid = build_voxel_grid(spec)
        centers, layer_z, bounds = mask_voxel_grid(spec)
        assert grid.centers.tobytes() == centers.tobytes()
        assert grid.centers.shape == centers.shape
        assert grid.layer_z.tobytes() == layer_z.tobytes()
        assert np.array_equal(layer_bounds(grid), bounds)
        assert grid.shape == (layer_z.size, bounds[1]) and grid.count == bounds[-1]

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

    @pytest.mark.parametrize("spec", LATTICE_SPECS)
    def test_layer_table_matches_a_scan_of_the_centers(self, spec):
        grid = build_voxel_grid(spec)
        zs = grid.centers[:, 2]
        np.testing.assert_array_equal(grid.layer_z, np.unique(zs))
        bounds = layer_bounds(grid)
        assert bounds[0] == 0 and bounds[-1] == grid.count
        for k, z in enumerate(np.unique(zs)):
            expected = np.nonzero(zs == z)[0]
            np.testing.assert_array_equal(np.arange(bounds[k], bounds[k + 1]), expected)
            assert grid.layer(z) == k
            np.testing.assert_array_equal(layer_indices(grid, z), expected)
            # Any altitude inside the layer's slab selects it.
            assert grid.layer(z + 0.49 * spec.voxel_m) == k

    def test_spec_invariants(self):
        with pytest.raises(SceneValidationError):
            CylinderSpec((0, 0), -1.0, 0.0, 10.0, 10.0)
        with pytest.raises(SceneValidationError):
            CylinderSpec((0, 0), 10.0, 5.0, 5.0, 10.0)
        with pytest.raises(SceneValidationError):
            CylinderSpec((0, 0), 10.0, 0.0, 10.0, 0.0)


class TestSceneIO:
    def test_42_sub_beams(self):
        scene = load_scene(DEMO_SCENE)
        assert len(scene.beam_keys()) == 42
        assert len(scene.cell_ids) == 6

    def test_roundtrip_idempotent(self, tmp_path):
        scene = load_scene(DEMO_SCENE)
        p1 = tmp_path / "a.json"
        p2 = tmp_path / "b.json"
        save_scene(scene, p1)
        reloaded = load_scene(p1)
        save_scene(reloaded, p2)
        assert p1.read_text() == p2.read_text()
        assert scene_to_dict(reloaded) == scene_to_dict(scene)

    def test_duplicate_cell_id_named(self, tmp_path):
        doc = demo_doc()
        doc["sites"][1]["cells"][0]["id"] = doc["sites"][0]["cells"][0]["id"]
        with pytest.raises(SceneValidationError, match="s1c1"):
            scene_from_dict(doc)

    def test_inverted_tilt_bounds(self):
        doc = demo_doc()
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
        doc = demo_doc()
        del doc["radio"]["frequency_hz"]
        p = tmp_path / "scene.json"
        p.write_text(json.dumps(doc))
        with pytest.raises(SceneSchemaError, match="frequency_hz"):
            load_scene(p)

    def test_nonpositive_frequency_rejected(self):
        doc = demo_doc()
        doc["radio"]["frequency_hz"] = 0.0
        with pytest.raises(SceneValidationError, match="frequency_hz"):
            scene_from_dict(doc)

    def test_baseline_outside_bounds_rejected(self):
        doc = demo_doc()
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
        bad = replaced(BeamAssignment.baseline(scene), ("cell0", 0), Orientation(0.0, 89.0))
        with pytest.raises(BoundsError):
            bad.validate_for(scene)

    def test_off_lattice_rejected_but_baseline_admitted(self):
        scene = simple_scene(candidate_step=(5.0, 5.0))
        key = ("cell0", 0)
        base_angle = scene.sub_beam(*key)[2].baseline
        off = replaced(BeamAssignment.baseline(scene), key,
                       Orientation(base_angle.azimuth_deg + 2.5, base_angle.tilt_deg))
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


# ---------------------------------------------------------------------------
# The scene format: what scene_from_dict accepts and rejects
# ---------------------------------------------------------------------------
def _demo_doc():
    doc = demo_doc()
    # A cell-level table pattern that no sub-beam uses (each has its own), so
    # the table pattern's keys are checked without a table file.
    doc["sites"][1]["cells"][0]["pattern"] = {"type": "table", "path": "pattern.csv"}
    return doc


# Each closed object of the format, as (where it sits in the document, its path
# in error messages, its required keys).
SCENE_OBJECTS = {
    "root": ((), "", ("airspace", "radio", "sites")),
    "airspace": (("airspace",), "airspace",
                 ("center_m", "radius_m", "z_min_m", "z_max_m", "voxel_m")),
    "radio": (("radio",), "radio", ("frequency_hz", "bandwidth_hz", "noise_figure_db")),
    "thresholds": (("thresholds",), "thresholds", ()),
    "site": (("sites", 0), "sites/0", ("id", "position_m", "cells")),
    "cell": (("sites", 0, "cells", 1), "sites/0/cells/1", ("id", "tx_power_dbm", "sub_beams")),
    "sub_beam": (("sites", 0, "cells", 0, "sub_beams", 2), "sites/0/cells/0/sub_beams/2",
                 ("index", "bounds", "baseline")),
    "bounds": (("sites", 0, "cells", 0, "sub_beams", 2, "bounds"),
               "sites/0/cells/0/sub_beams/2/bounds",
               ("az_min_deg", "az_max_deg", "tilt_min_deg", "tilt_max_deg")),
    "parametric_pattern": (("sites", 0, "cells", 0, "sub_beams", 2, "pattern"),
                           "sites/0/cells/0/sub_beams/2/pattern", ()),
    "table_pattern": (("sites", 1, "cells", 0, "pattern"), "sites/1/cells/0/pattern",
                      ("type", "path")),
}


def _node(doc, where):
    for part in where:
        doc = doc[part]
    return doc


def _schema_error(doc, path):
    """The SceneSchemaError ``doc`` raises; its message names ``path``."""
    with pytest.raises(SceneSchemaError) as exc:
        scene_from_dict(doc)
    message = str(exc.value)
    assert message.startswith("scene schema violation at '")
    assert f"at '{path}" in message
    return message


@pytest.mark.parametrize("name", sorted(SCENE_OBJECTS))
def test_unknown_key_rejected(name):
    where, path, _ = SCENE_OBJECTS[name]
    doc = _demo_doc()
    _node(doc, where)["bogus"] = 1.0
    message = _schema_error(doc, path)
    if not name.endswith("_pattern"):   # a pattern of neither kind may be named as a whole
        assert "bogus" in message


@pytest.mark.parametrize("key, shown", [("a\nb", "a\\nb"), ("a\x85b", "a\\x85b")])
def test_unknown_key_with_a_line_break_is_named_on_one_line(key, shown):
    doc = _demo_doc()
    doc["radio"][key] = 1.0
    assert _schema_error(doc, f"radio/{shown}").splitlines() == [
        f"scene schema violation at 'radio/{shown}': unknown key"]


@pytest.mark.parametrize("name, key", [(name, key) for name in sorted(SCENE_OBJECTS)
                                       for key in SCENE_OBJECTS[name][2]])
def test_missing_required_key_rejected(name, key):
    where, path, _ = SCENE_OBJECTS[name]
    doc = _demo_doc()
    del _node(doc, where)[key]
    _schema_error(doc, path)


@pytest.mark.parametrize("where, path", [
    (("sites",), "sites"),
    (("sites", 0, "cells"), "sites/0/cells"),
    (("sites", 0, "cells", 1, "sub_beams"), "sites/0/cells/1/sub_beams"),
])
def test_empty_array_rejected(where, path):
    doc = _demo_doc()
    _node(doc, where[:-1])[where[-1]] = []
    _schema_error(doc, path)


@pytest.mark.parametrize("pattern", [
    {"type": "dipole"},                       # unknown type
    {"type": "table"},                        # a table without its path
    {"type": "table", "path": 3},             # a path that is not a string
    {"path": "pattern.csv"},                  # a parametric pattern carrying a path
    {"type": "parametric", "path": "pattern.csv"},
    {"type": "parametric", "sla_db": "30"},
    [],
])
def test_bad_pattern_rejected(pattern):
    doc = _demo_doc()
    doc["sites"][0]["cells"][0]["sub_beams"][2]["pattern"] = pattern
    _schema_error(doc, "sites/0/cells/0/sub_beams/2/pattern")


@pytest.mark.parametrize("where, value", [
    (("radio", "bandwidth_hz"), True),
    (("radio", "bandwidth_hz"), None),
    (("airspace", "radius_m"), "500"),
    (("airspace", "center_m"), [0.0, False]),
    (("airspace", "center_m"), {"x": 0.0}),
    (("thresholds", "sinr_basic_db"), [1.0]),
    (("sites", 0, "cells", 0, "tx_power_dbm"), False),
    (("sites", 0, "cells", 0, "sub_beams", 0, "index"), 1.5),
    (("sites", 0, "cells", 0, "sub_beams", 0, "index"), "0"),
    (("sites", 0, "cells", 0, "sub_beams", 0, "bounds"), None),
    (("sites", 0, "cells", 0, "sub_beams", 0, "candidate_step"), [5.0, 3.0, 1.0]),
    (("sites", 0, "cells", 0, "sub_beams", 0, "baseline"), [115.0]),
    (("sites", 0, "cells", 0, "id"), 5),
    (("sites", 0, "id"), ""),
    (("sites", 0, "cells"), {}),
    (("thresholds",), []),
])
def test_wrong_type_rejected(where, value):
    doc = _demo_doc()
    _node(doc, where[:-1])[where[-1]] = value
    _schema_error(doc, "/".join(str(p) for p in where))


def test_root_must_be_an_object():
    with pytest.raises(SceneSchemaError, match="scene schema violation at '<root>'"):
        scene_from_dict([])


@pytest.mark.parametrize("char", [",", '"', "\r", "\n"])
@pytest.mark.parametrize("where", [("sites", 1, "id"), ("sites", 1, "cells", 0, "id")])
def test_id_with_a_csv_delimiter_rejected(char, where):
    doc = _demo_doc()
    _node(doc, where[:-1])[where[-1]] = f"A{char}1"
    _schema_error(doc, "/".join(str(p) for p in where))


def test_number_beyond_float_range_rejected():
    doc = _demo_doc()
    doc["airspace"]["radius_m"] = 10 ** 400
    assert "out of range" in _schema_error(doc, "airspace/radius_m")


def test_integer_beyond_int64_loads():
    doc = _demo_doc()
    doc["radio"]["frequency_hz"] = 2 ** 70
    assert scene_from_dict(doc).radio.frequency_hz == 2 ** 70


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
@pytest.mark.parametrize("where", [
    ("sites", 0, "position_m", 0),
    ("sites", 0, "cells", 0, "tx_power_dbm"),
    ("sites", 0, "cells", 0, "sub_beams", 0, "bounds", "tilt_min_deg"),
    ("sites", 0, "cells", 0, "sub_beams", 0, "baseline", 1),
    ("sites", 0, "cells", 0, "sub_beams", 0, "candidate_step", 0),
    ("sites", 0, "cells", 0, "sub_beams", 0, "pattern", "fbr_db"),
    ("thresholds", "sinr_strict_db"),
])
def test_non_finite_number_rejected(where, value):
    doc = _demo_doc()
    _node(doc, where[:-1])[where[-1]] = value
    assert "expected a finite number" in _schema_error(doc, "/".join(map(str, where)))


def test_scene_file_with_a_nan_literal_rejected(tmp_path):
    doc = demo_doc()
    doc["sites"][0]["position_m"][0] = float("nan")
    path = tmp_path / "scene.json"
    path.write_text(json.dumps(doc))   # Python's json writes and reads the literal NaN
    assert "NaN" in path.read_text()
    with pytest.raises(SceneSchemaError, match="at 'sites/0/position_m/0': expected a finite"):
        load_scene(path)


@pytest.mark.parametrize("value", [1e300, -1e300, 500.5, -500.5])
def test_tx_power_and_peak_gain_bounded(value):
    doc = _demo_doc()
    doc["sites"][0]["cells"][0]["tx_power_dbm"] = value
    with pytest.raises(SceneValidationError, match="tx_power_dbm must be finite and within"):
        scene_from_dict(doc)
    with pytest.raises(SceneValidationError, match="g_max_dbi must be finite and within"):
        AntennaPattern(g_max_dbi=value)


def test_tx_power_and_peak_gain_at_their_bounds_load():
    doc = _demo_doc()
    doc["sites"][0]["cells"][0]["tx_power_dbm"] = 500
    doc["sites"][0]["cells"][1]["tx_power_dbm"] = -500.0
    doc["sites"][0]["cells"][0]["sub_beams"][0]["pattern"]["g_max_dbi"] = -500
    cells = scene_from_dict(doc).sites[0].cells
    assert [c.tx_power_dbm for c in cells[:2]] == [500, -500.0]
    assert cells[0].sub_beams[0].pattern.g_max_dbi == -500.0
    assert AntennaPattern(g_max_dbi=500.0).g_max_dbi == 500.0


def test_integral_index_and_integers_accepted():
    doc = demo_doc()
    beams = doc["sites"][0]["cells"][0]["sub_beams"]
    beams[0]["index"] = -0.0
    beams[1]["index"] = 1.0
    doc["airspace"].update(center_m=[0, 0], radius_m=500, z_min_m=0, z_max_m=300, voxel_m=25)
    doc["radio"]["noise_figure_db"] = 7
    doc["thresholds"]["rsrp_basic_dbm"] = -95
    doc["sites"][0]["cells"][0]["tx_power_dbm"] = 15
    beams[2].update(baseline=[int(v) for v in beams[2]["baseline"]], candidate_step=[5, 3])
    scene = scene_from_dict(doc)
    assert [sb.index for sb in scene.sites[0].cells[0].sub_beams][:2] == [0, 1]
    assert scene_to_dict(scene) == demo_doc()


def test_optional_parts_take_their_defaults():
    doc = demo_doc()
    del doc["thresholds"]
    beam = doc["sites"][0]["cells"][0]["sub_beams"][0]
    del beam["pattern"], beam["candidate_step"]
    doc["sites"][0]["cells"][0]["sub_beams"][1]["pattern"] = {}
    doc["sites"][0]["cells"][0]["sub_beams"][2]["pattern"] = {"type": "parametric"}
    doc["sites"][0]["cells"][0]["sub_beams"][3]["pattern"] = {"g_max_dbi": 12}
    scene = scene_from_dict(doc)
    beams = scene.sites[0].cells[0].sub_beams
    assert scene.thresholds == CoverageThresholds()
    assert beams[0].pattern == beams[1].pattern == beams[2].pattern == AntennaPattern()
    assert beams[3].pattern == AntennaPattern(g_max_dbi=12.0)
    assert beams[0].candidate_step == DEFAULT_CANDIDATE_STEP


def test_cell_pattern_is_the_default_of_its_sub_beams(tmp_path):
    (tmp_path / "pattern.csv").write_text(
        "az_deg,el_deg,gain_dbi\n-90,-45,0\n-90,45,1\n90,-45,2\n90,45,17\n")
    doc = demo_doc()
    cell = doc["sites"][0]["cells"][0]
    cell["pattern"] = {"type": "table", "path": "pattern.csv"}
    del cell["sub_beams"][0]["pattern"]
    scene = scene_from_dict(doc, base_dir=str(tmp_path))
    beams = scene.sites[0].cells[0].sub_beams
    assert isinstance(beams[0].pattern, TablePattern)
    assert beams[0].pattern.g_max_dbi == 17.0
    assert isinstance(beams[1].pattern, AntennaPattern)


# Values a mutation puts in place of a scene value. 10**400 is a JSON integer
# no float can hold, and 2**70 one no int64 can.
ODD_VALUES = [True, False, None, "", "x", "A,1", [], [1.0], [1.0, 2.0, 3.0], {}, {"a": 1},
              float("nan"), float("inf"), -float("inf"), 0, -1, 0.5, 2 ** 70, 10 ** 400]


def _paths(node, prefix=()):
    """Every path into ``node``, containers included, root first."""
    yield prefix
    items = node.items() if isinstance(node, dict) else (
        enumerate(node) if isinstance(node, list) else ())
    for key, child in items:
        yield from _paths(child, (*prefix, key))


DEMO_TEXT = json.dumps(demo_doc())
# Every place in the demo document, by its keys without the list indices. A
# mutation picks a key first, then a place, so that the 42 sub-beams' values
# do not crowd out the few airspace, radio and cell ones.
DEMO_PLACES = {}
for _path in _paths(json.loads(DEMO_TEXT)):
    DEMO_PLACES.setdefault(tuple(p for p in _path if isinstance(p, str)), []).append(_path)


def _holds(node, part):
    return (isinstance(node, dict) and part in node
            or isinstance(node, list) and isinstance(part, int) and part < len(node))


def _mutate(draw, doc, where):
    parent, node = None, doc
    for part in where:
        if not _holds(node, part):
            return   # an earlier mutation removed this place
        parent, node = node, node[part]
    op = draw(st.sampled_from(["drop", "add_key", "swap", "shorten", "lengthen"]))
    if op == "add_key" and isinstance(node, dict):
        key = draw(st.sampled_from(["bogus", "type", "path", "id"]))
        node[key] = copy.deepcopy(draw(st.sampled_from(ODD_VALUES)))
    elif op == "shorten" and isinstance(node, list) and node:
        node.pop()
    elif op == "lengthen" and isinstance(node, list):
        node.append(copy.deepcopy(node[-1]) if node else 0.0)
    elif op == "drop" and where:
        del parent[where[-1]]
    elif where:
        parent[where[-1]] = copy.deepcopy(draw(st.sampled_from(ODD_VALUES)))


@st.composite
def mutated_scene_docs(draw):
    doc = json.loads(DEMO_TEXT)
    for _ in range(draw(st.integers(1, 3))):
        _mutate(draw, doc, draw(st.sampled_from(DEMO_PLACES[draw(st.sampled_from(
            sorted(DEMO_PLACES)))])))
    return doc


@settings(max_examples=1000, deadline=None, database=None)
@given(mutated_scene_docs())
def test_mutated_scene_is_loaded_or_rejected_as_input(doc):
    # The scene is never voxelized: a mutated voxel_m can ask for any grid.
    try:
        scene = scene_from_dict(doc)
    except InputError:
        return
    assert isinstance(scene, SceneConfig)
