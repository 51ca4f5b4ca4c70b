import io

import numpy as np
import pytest

from airtwin.errors import DimensionError, LayerError
from airtwin.interference import NoiseModel, build_sinr_field
from airtwin.report import (
    compare_report,
    coverage_ratios,
    difference_heatmap,
    export_heatmap_csv,
)
from airtwin.scene import BeamAssignment, CoverageThresholds, build_voxel_grid
from airtwin.spectrum import build_field
from airtwin.antenna import Orientation

from factories import simple_scene

THR = CoverageThresholds()


def fields_for(scene, assignment=None, activity=1.0):
    grid = build_voxel_grid(scene.airspace)
    assignment = assignment or BeamAssignment.baseline(scene)
    field = build_field(scene, grid, assignment)
    sinr = build_sinr_field(field, NoiseModel.from_radio(scene.radio), activity)
    return grid, field, sinr


class TestCoverageRatios:
    def test_all_strong(self):
        scene = simple_scene(n_cells=1, tx_power_dbm=60.0, radius_m=60.0,
                             z_max_m=40.0, voxel_m=20.0)
        _, field, sinr = fields_for(scene)
        report = coverage_ratios(field, sinr, THR)
        assert report.ratio_rsrp_basic == 1.0
        assert report.ratio_rsrp_strict == 1.0
        assert report.ratio_sinr_basic == 1.0
        assert report.ratio_sinr_strict == 1.0
        assert report.ratio_joint_basic == 1.0

    def test_half_and_half_counting(self, tiny):
        scene, grid = tiny
        _, field, sinr = fields_for(scene)
        n = grid.count
        serving = np.where(np.arange(n) < n // 2, -90.0, -80.0)
        doctored = type(sinr)(grid=grid, cell_ids=sinr.cell_ids,
                              serving_index=sinr.serving_index,
                              serving_rsrp_dbm=serving, sinr_db=np.full(n, 20.0),
                              activity_factor=1.0, noise_floor_dbm=-87.0)
        report = coverage_ratios(field, doctored, THR)
        assert report.ratio_rsrp_basic == 1.0
        assert report.ratio_rsrp_strict == pytest.approx((n - n // 2) / n)

    def test_matches_recount(self, tiny):
        scene, grid = tiny
        _, field, sinr = fields_for(scene)
        report = coverage_ratios(field, sinr, THR)
        # independent recount
        assert report.count_rsrp_strict == int(
            np.sum(sinr.serving_rsrp_dbm >= THR.rsrp_strict_dbm))
        assert report.count_joint_basic == int(np.sum(
            (sinr.serving_rsrp_dbm >= THR.rsrp_basic_dbm)
            & (sinr.sinr_db >= THR.sinr_basic_db)))

    def test_threshold_ordering(self, tiny):
        scene, _ = tiny
        _, field, sinr = fields_for(scene)
        report = coverage_ratios(field, sinr, THR)
        assert report.ratio_rsrp_strict <= report.ratio_rsrp_basic
        assert report.ratio_sinr_strict <= report.ratio_sinr_basic
        assert report.ratio_joint_basic <= min(report.ratio_rsrp_basic,
                                               report.ratio_sinr_basic)

    def test_layer_weighted_mean_equals_aggregate(self, tiny):
        scene, _ = tiny
        _, field, sinr = fields_for(scene)
        report = coverage_ratios(field, sinr, THR)
        total = sum(l.n_voxels for l in report.layers)
        assert total == report.n_voxels
        weighted = sum(l.ratio_rsrp_strict * l.n_voxels for l in report.layers) / total
        assert weighted == pytest.approx(report.ratio_rsrp_strict, abs=1e-12)

    def test_mask_restricts(self, tiny):
        scene, grid = tiny
        _, field, sinr = fields_for(scene)
        mask = np.arange(grid.count // 2)
        report = coverage_ratios(field, sinr, THR, mask=mask)
        assert report.n_voxels == len(mask)
        assert report.count_rsrp_strict == int(
            np.sum(sinr.serving_rsrp_dbm[mask] >= THR.rsrp_strict_dbm))

    @pytest.mark.parametrize("bad", [-1, "count"])
    def test_mask_index_out_of_range_rejected(self, tiny, bad):
        scene, grid = tiny
        _, field, sinr = fields_for(scene)
        mask = np.array([0, grid.count if bad == "count" else bad])
        with pytest.raises(DimensionError, match="mask"):
            coverage_ratios(field, sinr, THR, mask=mask)

    def test_mask_repeated_index_rejected(self, tiny):
        # A repeat would weight that voxel once per occurrence in every ratio.
        scene, _ = tiny
        _, field, sinr = fields_for(scene)
        with pytest.raises(DimensionError, match="repeats index 5$"):
            coverage_ratios(field, sinr, THR, mask=np.array([3, 5, 7, 5, 3]))

    def test_invariant_under_voxel_reordering(self, tiny):
        scene, grid = tiny
        _, field, sinr = fields_for(scene)
        full = coverage_ratios(field, sinr, THR)
        perm = np.random.default_rng(0).permutation(grid.count)
        shuffled = coverage_ratios(field, sinr, THR, mask=perm)
        assert shuffled.count_rsrp_strict == full.count_rsrp_strict
        assert shuffled.count_joint_basic == full.count_joint_basic


class TestDifferenceHeatmap:
    def test_identical_fields_zero(self, tiny):
        scene, grid = tiny
        values = np.linspace(-90, -60, grid.count)
        layer = difference_heatmap(values, values, grid, altitude_m=10.0)
        np.testing.assert_array_equal(layer.delta_db, 0.0)

    def test_constant_offset(self, tiny):
        scene, grid = tiny
        values = np.linspace(-90, -60, grid.count)
        layer = difference_heatmap(values, values + 3.0, grid, altitude_m=30.0)
        np.testing.assert_allclose(layer.delta_db, 3.0)

    def test_unknown_layer(self, tiny):
        scene, grid = tiny
        values = np.zeros(grid.count)
        with pytest.raises(LayerError):
            difference_heatmap(values, values, grid, altitude_m=500.0)

    def test_untouched_region_zero_when_one_cell_moves(self):
        # two far-apart cells; steering cell1 leaves voxels where its sub-beam
        # field is pinned at the front-to-back floor (hence unchanged) intact
        scene = simple_scene(n_cells=2, n_beams=1, radius_m=120.0, z_max_m=40.0,
                             voxel_m=20.0, site_ring_m=100.0, tilt_bounds=(0.0, 15.0))
        grid = build_voxel_grid(scene.airspace)
        noise = NoiseModel.from_radio(scene.radio)
        before_assign = BeamAssignment.baseline(scene)
        after_assign = before_assign.replaced(
            ("cell1", 0),
            Orientation(before_assign.angle("cell1", 0).azimuth_deg + 10.0, 5.0))
        field_b = build_field(scene, grid, before_assign)
        field_a = build_field(scene, grid, after_assign)
        sinr_b = build_sinr_field(field_b, noise, 1.0)
        sinr_a = build_sinr_field(field_a, noise, 1.0)
        c = field_b.cell_ids.index("cell1")   # one sub-beam, so its cell row is its row
        unchanged = ((field_b.cell_rsrp_dbm[c] == field_a.cell_rsrp_dbm[c])
                     & (field_b.cell_lin_mw[c] == field_a.cell_lin_mw[c]))
        assert np.any(unchanged), "expected a floor region where the move is invisible"
        layer_idx = grid.layer_indices(10.0)
        sel = unchanged[layer_idx]
        heat_rsrp = difference_heatmap(sinr_b.serving_rsrp_dbm, sinr_a.serving_rsrp_dbm,
                                       grid, 10.0)
        heat_sinr = difference_heatmap(sinr_b.sinr_db, sinr_a.sinr_db, grid, 10.0)
        np.testing.assert_array_equal(heat_rsrp.delta_db[sel], 0.0)
        np.testing.assert_array_equal(heat_sinr.delta_db[sel], 0.0)
        # and the recomputation oracle for the whole layer
        np.testing.assert_array_equal(
            heat_sinr.delta_db, (sinr_a.sinr_db - sinr_b.sinr_db)[layer_idx])

    def test_export_format(self, tiny):
        scene, grid = tiny
        values = np.zeros(grid.count)
        layer = difference_heatmap(values, values, grid, 10.0)
        buf = io.StringIO()
        export_heatmap_csv(layer, buf)
        lines = buf.getvalue().splitlines()
        assert lines[0] == "x_m,y_m,delta_db"
        assert len(lines) == 1 + len(layer.delta_db)


class TestCompareReport:
    def test_identical_inputs_zero_deltas(self, tiny):
        scene, _ = tiny
        _, field, sinr = fields_for(scene)
        report = compare_report((field, sinr), (field, sinr), THR)
        assert all(v == 0.0 for v in report.deltas().values())

    def test_dominating_after_nonnegative_deltas(self, tiny):
        scene, grid = tiny
        _, field, sinr = fields_for(scene)
        boosted = type(sinr)(grid=grid, cell_ids=sinr.cell_ids,
                             serving_index=sinr.serving_index,
                             serving_rsrp_dbm=sinr.serving_rsrp_dbm + 5.0,
                             sinr_db=sinr.sinr_db + 5.0,
                             activity_factor=1.0, noise_floor_dbm=-87.0)
        report = compare_report((field, sinr), (field, boosted), THR)
        assert all(v >= 0.0 for v in report.deltas().values())

    def test_deltas_match_recount(self, tiny):
        scene, grid = tiny
        _, field_b, sinr_b = fields_for(scene)
        optimized = BeamAssignment.baseline(scene).replaced(
            ("cell0", 0), Orientation(180.0, 10.0))
        field_a = build_field(scene, grid, optimized)
        sinr_a = build_sinr_field(field_a, NoiseModel.from_radio(scene.radio), 1.0)
        report = compare_report((field_b, sinr_b), (field_a, sinr_a), THR)
        expected = (np.mean(sinr_a.serving_rsrp_dbm >= THR.rsrp_strict_dbm)
                    - np.mean(sinr_b.serving_rsrp_dbm >= THR.rsrp_strict_dbm))
        assert report.deltas()["rsrp_strict"] == pytest.approx(expected, abs=1e-12)

    def test_grid_mismatch_rejected(self, tiny):
        scene, _ = tiny
        _, field, sinr = fields_for(scene)
        other = simple_scene(radius_m=40.0, z_max_m=40.0, voxel_m=20.0)
        _, field2, sinr2 = fields_for(other)
        with pytest.raises(DimensionError):
            compare_report((field, sinr), (field2, sinr2), THR)

    def test_json_structure(self, tiny):
        scene, _ = tiny
        _, field, sinr = fields_for(scene)
        doc = compare_report((field, sinr), (field, sinr), THR).to_json_dict()
        assert set(doc) == {"before", "after", "ratio_deltas"}
        assert set(doc["ratio_deltas"]) == {"rsrp_basic", "rsrp_strict", "sinr_basic",
                                            "sinr_strict", "joint_basic"}
        for side in ("before", "after"):
            assert set(doc[side]["ratios"]) == {"rsrp_basic", "rsrp_strict",
                                                "sinr_basic", "sinr_strict",
                                                "joint_basic"}
