"""The stacked sub-beam kernel: each row of a stack has the bits of a one-angle evaluation."""

import dataclasses
import tracemalloc

import numpy as np
import pytest

from airtwin import kernels
from airtwin.antenna import AntennaPattern, Orientation, wrap_angle_deg
from airtwin.interference import build_sinr_field
from airtwin.optimizer import ObjectiveWeights, _FieldEvaluator
from airtwin.scene import BeamAssignment, build_voxel_grid, scene_from_dict
from airtwin.spectrum import beam_rsrp, build_field

from factories import demo_doc, simple_scene, with_table_beam

PARAMETRIC = AntennaPattern(g_max_dbi=16.0, hpbw_az_deg=40.0, hpbw_el_deg=12.0,
                            sla_db=22.0, fbr_db=28.0)


def table_pattern():
    return with_table_beam(simple_scene()).sites[0].cells[0].sub_beams[0].pattern


def one_angle(az, el, loss, pattern, angle, tx_power_dbm, offset_db):
    """One sub-beam's RSRP in the per-row form: the pattern's own gain, then the sum."""
    gain_dbi = pattern.offset_gain_dbi(wrap_angle_deg(az - angle.azimuth_deg),
                                       el - angle.tilt_deg)
    return tx_power_dbm + gain_dbi - loss + offset_db


def angles_of(rng, k):
    return [Orientation(float(az), float(tilt))
            for az, tilt in zip(rng.uniform(0.0, 360.0, k), rng.uniform(-40.0, 60.0, k))]


def grid_block(shift_deg=0.0):
    """A site's geometry at a block of grid columns: azimuth (c,), the rest (L, c)."""
    scene = simple_scene(n_cells=2, radius_m=120.0, z_max_m=80.0, voxel_m=10.0)
    grid = build_voxel_grid(scene.airspace)
    az, el, loss = kernels.site_geometry(*grid.coordinates(3, 61), scene.sites[1],
                                         scene.radio.frequency_hz)
    assert az.shape == (58,) and el.shape == loss.shape == (grid.shape[0], 58)
    return az + shift_deg, el, loss


def point_block(shift_deg=0.0):
    """A site's geometry at scattered points: three (n,) arrays."""
    rng = np.random.default_rng(4)
    points = rng.uniform((-300.0, -300.0, 20.0), (300.0, 300.0, 400.0), (97, 3))
    site = simple_scene().sites[0]
    az, el, loss = kernels.site_geometry(*points.T, site, 3.5e9)
    return az + shift_deg, el, loss


def assert_rows_are_one_angle_calls(geometry, pattern, angles, tx_power_dbm=31.5,
                                    offset_db=-2.25):
    stack = kernels.beam_rsrp_numpy(*geometry, pattern, angles, tx_power_dbm, offset_db)
    assert stack.shape == (len(angles), *geometry[1].shape)
    out = np.full_like(stack, np.nan)
    assert kernels.beam_rsrp_numpy(*geometry, pattern, angles, tx_power_dbm, offset_db,
                                   out=out) is out
    assert out.view(np.int64).tobytes() == stack.view(np.int64).tobytes()
    for row, angle in zip(stack, angles):
        single = kernels.beam_rsrp_numpy(*geometry, pattern, [angle], tx_power_dbm, offset_db)
        reference = one_angle(*geometry, pattern, angle, tx_power_dbm, offset_db)
        assert np.array_equal(row.view(np.int64), single[0].view(np.int64))
        assert np.array_equal(row.view(np.int64), reference.view(np.int64))


class TestStackedKernel:
    @pytest.mark.parametrize("make_pattern", [lambda: PARAMETRIC, table_pattern],
                             ids=["parametric", "table"])
    @pytest.mark.parametrize("block", [grid_block, point_block], ids=["grid", "points"])
    def test_rows_equal_one_angle_evaluations(self, block, make_pattern):
        pattern = make_pattern()
        angles = angles_of(np.random.default_rng(5), 9)
        angles[3] = angles[1]   # a repeated angle is just another row
        assert_rows_are_one_angle_calls(block(), pattern, angles)

    @pytest.mark.parametrize("shift_deg", [0.0, 400.0, -400.0, 900.0, -1000.0])
    @pytest.mark.parametrize("make_pattern", [lambda: PARAMETRIC, table_pattern],
                             ids=["parametric", "table"])
    def test_either_wrap_path(self, shift_deg, make_pattern):
        # ``wrap_angle_deg`` skips fmod when every value lies in (-720, 720),
        # with a -360 step above 360 (the +400 shift) and a +360 step below
        # -360. Shifted by -400 or +900, the whole stack goes through fmod
        # while some of its rows alone would not.
        az, el, loss = grid_block(shift_deg)
        angles = [Orientation(a, 5.0) for a in (0.0, 90.0, 179.5, 200.0, 359.0)]
        offsets = az - np.asarray([[a.azimuth_deg] for a in angles])
        rows_fast = [-720.0 < row.min() and row.max() < 720.0 for row in offsets]
        assert all(rows_fast) == (shift_deg in (0.0, 400.0))
        assert any(rows_fast) == (shift_deg != -1000.0)
        assert (offsets.max() >= 360.0) == (shift_deg in (400.0, 900.0))
        assert (offsets.min() <= -360.0) == (shift_deg in (0.0, -400.0, -1000.0))
        assert_rows_are_one_angle_calls((az, el, loss), make_pattern(), angles)

    def test_pattern_runs_split_at_each_change(self):
        other = dataclasses.replace(PARAMETRIC, hpbw_el_deg=20.0)
        table = table_pattern()
        equal_copy = dataclasses.replace(PARAMETRIC)
        angles = angles_of(np.random.default_rng(6), 6)
        patterns = [PARAMETRIC, equal_copy, other, table, table, PARAMETRIC]
        runs = kernels.pattern_runs(zip(patterns, angles))
        assert [(pattern, len(run)) for pattern, run in runs] == [
            (PARAMETRIC, 2), (other, 1), (table, 1), (table, 1), (PARAMETRIC, 1)]
        assert [angle for _, run in runs for angle in run] == angles

    @pytest.mark.parametrize("block", [grid_block, point_block], ids=["grid", "points"])
    def test_cell_of_two_patterns_equals_one_angle_rows_and_the_scalar_path(self, block):
        # Sub-beams on two parametric patterns and a table, interleaved, so
        # the cell takes four kernel calls for its seven rows.
        scene = simple_scene(n_beams=7, radius_m=120.0, z_max_m=80.0, voxel_m=10.0)
        other = dataclasses.replace(PARAMETRIC, hpbw_az_deg=25.0, sla_db=18.0)
        table = table_pattern()
        site, cell = scene.sites[0], scene.sites[0].cells[0]
        patterns = [PARAMETRIC, PARAMETRIC, other, other, other, table, PARAMETRIC]
        cell = dataclasses.replace(cell, sub_beams=tuple(
            dataclasses.replace(sb, pattern=p) for sb, p in zip(cell.sub_beams, patterns)))
        angles = angles_of(np.random.default_rng(7), len(patterns))
        runs = kernels.pattern_runs(zip(patterns, angles))
        assert len(runs) == 4
        if block is grid_block:
            grid = build_voxel_grid(scene.airspace)
            lo, hi = 3, 61
            x, y, z = grid.coordinates(lo, hi)
            points = grid.voxel_centers(0, grid.count).reshape(*grid.shape, 3)[:, lo:hi]
        else:
            points = np.random.default_rng(4).uniform((-300.0, -300.0, 20.0),
                                                      (300.0, 300.0, 400.0), (97, 3))
            x, y, z = points.T
        geometry = kernels.site_geometry(x, y, z, site, scene.radio.frequency_hz)
        rows = kernels.cell_rows(geometry, runs, cell.tx_power_dbm, 1.5,
                                 np.empty((len(patterns), *geometry[1].shape)))
        for row, pattern, angle in zip(rows, patterns, angles):
            reference = one_angle(*geometry, pattern, angle, cell.tx_power_dbm, 1.5)
            assert np.array_equal(row.view(np.int64), reference.view(np.int64))
        flat_points = points.reshape(-1, 3)
        flat_rows = rows.reshape(len(patterns), -1)
        for v in range(0, len(flat_points), 7):
            for row, sb, angle in zip(flat_rows, cell.sub_beams, angles):
                scalar = beam_rsrp(site, cell, sb, angle, flat_points[v], scene.radio, 1.5)
                assert row[v] == pytest.approx(scalar, abs=1e-9)


@pytest.mark.parametrize("shape", [(9, 1), (9, 1, 1), (12, 1, 1), (3, 1), (0, 1, 1), (0, 4),
                                   (9, 2), (9, 3, 5)])
def test_add_rows_adds_in_row_order(shape):
    # numpy adds the rows of a one-point stack pairwise from 8 rows on
    rng = np.random.default_rng(9)
    rows = rng.standard_normal(shape) * 10.0 ** rng.uniform(-8.0, 8.0, shape)
    expected = np.zeros(shape[1:])
    for i, row in enumerate(rows):
        expected = row.copy() if i == 0 else expected + row
    out = np.full(shape[1:], np.nan)
    assert kernels.add_rows(rows, out) is out
    assert out.view(np.int64).tobytes() == expected.view(np.int64).tobytes()


def test_one_voxel_blocks_give_the_one_block_field(monkeypatch):
    # Nine sub-beams per cell on a one-layer grid: a one-column block is one voxel.
    scene = simple_scene(n_cells=2, n_beams=9, radius_m=100.0, z_max_m=20.0, voxel_m=20.0)
    grid = build_voxel_grid(scene.airspace)
    assert grid.shape == (1, 80)
    assignment = BeamAssignment.baseline(scene)
    whole = build_field(scene, grid, assignment)
    monkeypatch.setattr(kernels, "_CHUNK", 1)
    field = build_field(scene, grid, assignment)
    assert field.cell_lin_mw.tobytes() == whole.cell_lin_mw.tobytes()
    assert field.cell_rsrp_dbm.tobytes() == whole.cell_rsrp_dbm.tobytes()
    ev = _FieldEvaluator(scene, grid, ObjectiveWeights(), 1.0, 0.0)
    ev.set_assignment(assignment, field)
    key = ("cell0", 8)
    angle = scene.sub_beam(*key)[2].lattice()[2]
    ev.apply(key, angle)
    after = build_field(scene, grid, BeamAssignment({**assignment.angles, key: angle}))
    assert ev.field.cell_lin_mw.tobytes() == after.cell_lin_mw.tobytes()


def test_streamed_block_workspace_stays_a_few_blocks(monkeypatch):
    """One thread of ``build_sinr_field`` holds only its block workspace.

    The workspace is one (sub-beams, block) stack, the cell max and mW sum of
    every cell, one site's elevation and path loss, and the SINR and count
    temporaries: 7 + 2 x 6 + 2 + about 11 block-sized float64 arrays for the
    demo scene, which measured 32.1 on a 60-column block of 30 layers. Every
    site's geometry held at once (4 blocks more) measured 36.2, and per-tilt
    elevation terms beside the stack would add up to 8.
    """
    scene = scene_from_dict(demo_doc(radius_m=300.0, z_max_m=300.0, voxel_m=10.0))
    grid = build_voxel_grid(scene.airspace)
    n_layers, n_columns = grid.shape
    block = 60 * n_layers
    monkeypatch.setattr(kernels, "_CHUNK", block)
    assert len(kernels.chunks(n_columns, n_layers)) > 40
    angles = {}
    rng = np.random.default_rng(8)
    for key in scene.beam_keys():   # several tilts per cell
        lattice = scene.sub_beam(*key)[2].lattice()
        angles[key] = lattice[int(rng.integers(len(lattice)))]
    tracemalloc.start()
    try:
        counts, _ = build_sinr_field(scene, grid, (BeamAssignment(angles),), threads=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert counts[0, 0].sum() == grid.count
    assert peak < 35 * block * 8, peak / (block * 8)
