import contextlib
import csv
import dataclasses
import io
import json
import os
import pathlib
import subprocess
import sys
import tempfile
import warnings

import numpy as np
import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

import airtwin.cli
import airtwin.optimizer
from airtwin.cli import main
from airtwin.measurements import NATIVE_COLUMNS, load_measurements
from airtwin.optimizer import ObjectiveWeights
from airtwin.scene import BeamAssignment, VoxelGrid, build_voxel_grid, save_assignment
from airtwin.spectrum import predict_at
from factories import simple_scene
from oracles import brute_force_optimize, contains, load_scene, save_scene


@pytest.fixture()
def tiny_scene_path(tmp_path):
    scene = simple_scene(n_cells=2, n_beams=2, radius_m=60.0, z_max_m=40.0,
                         voxel_m=20.0)
    path = tmp_path / "scene.json"
    save_scene(scene, path)
    return str(path)


@pytest.fixture()
def single_voxel_scene_path(tmp_path):
    scene = simple_scene(n_cells=2, n_beams=1, radius_m=5.0, z_max_m=10.0,
                         voxel_m=10.0, site_ring_m=30.0)
    path = tmp_path / "scene1.json"
    save_scene(scene, path)
    return str(path)


def read(path):
    with open(path) as fh:
        return fh.read()


class TestBuild:
    def test_rows_equal_voxels_times_cells(self, tiny_scene_path, tmp_path):
        out = tmp_path / "out"
        assert main(["build", "--scene", tiny_scene_path, "--out", str(out)]) == 0
        scene = load_scene(tiny_scene_path)
        grid = build_voxel_grid(scene.airspace)
        field_lines = read(out / "field.csv").splitlines()
        assert len(field_lines) == 1 + grid.count * 2
        sinr_lines = read(out / "sinr.csv").splitlines()
        assert len(sinr_lines) == 1 + grid.count
        manifest = json.loads(read(out / "manifest.json"))
        assert manifest["command"] == "build"
        assert manifest["seed"] == 0

    def test_single_voxel_scene(self, single_voxel_scene_path, tmp_path):
        out = tmp_path / "out"
        assert main(["build", "--scene", single_voxel_scene_path, "--out", str(out)]) == 0
        assert len(read(out / "field.csv").splitlines()) == 1 + 1 * 2

    def test_missing_scene_exits_2(self, tmp_path, capsys):
        rc = main(["build", "--scene", "definitely_missing.json",
                   "--out", str(tmp_path / "o")])
        assert rc == 2
        assert "definitely_missing.json" in capsys.readouterr().err

    def test_singularity_exits_3(self, tmp_path):
        # a site placed exactly on the single voxel center
        scene = simple_scene(n_cells=1, n_beams=1, radius_m=5.0, z_max_m=10.0,
                             voxel_m=10.0, site_ring_m=0.0, site_z_m=5.0)
        path = tmp_path / "scene.json"
        save_scene(scene, path)
        rc = main(["build", "--scene", str(path), "--out", str(tmp_path / "o")])
        assert rc == 3

    def test_rerun_byte_identical(self, tiny_scene_path, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        main(["build", "--scene", tiny_scene_path, "--out", str(out1)])
        main(["build", "--scene", tiny_scene_path, "--out", str(out2)])
        assert read(out1 / "field.csv") == read(out2 / "field.csv")
        assert read(out1 / "sinr.csv") == read(out2 / "sinr.csv")

    def test_threads_invariant_output(self, tiny_scene_path, tmp_path):
        outs = []
        for threads in ("1", "2", "7"):
            out = tmp_path / f"t{threads}"
            main(["build", "--scene", tiny_scene_path, "--out", str(out),
                  "--threads", threads])
            outs.append(read(out / "field.csv"))
        assert outs[0] == outs[1] == outs[2]

    def test_set_override(self, tiny_scene_path, tmp_path):
        out = tmp_path / "o"
        rc = main(["build", "--scene", tiny_scene_path, "--out", str(out),
                   "--set", "airspace.voxel_m=40"])
        assert rc == 0
        manifest = json.loads(read(out / "manifest.json"))
        assert manifest["overrides"] == {"airspace.voxel_m": 40}
        scene = load_scene(tiny_scene_path)
        coarse = build_voxel_grid(type(scene.airspace)(
            scene.airspace.center_m, scene.airspace.radius_m, scene.airspace.z_min_m,
            scene.airspace.z_max_m, 40.0))
        assert len(read(out / "sinr.csv").splitlines()) == 1 + coarse.count

    def test_bad_override_path_exits_2(self, tiny_scene_path, tmp_path):
        rc = main(["build", "--scene", tiny_scene_path, "--out", str(tmp_path / "o"),
                   "--set", "nope.key=1"])
        assert rc == 2


class TestSynthAndCalibrate:
    def test_sigma_zero_matches_predictions(self, tiny_scene_path, tmp_path):
        out = tmp_path / "synth"
        assert main(["synth", "--scene", tiny_scene_path, "--out", str(out),
                     "--samples", "50", "--noise-sigma-db", "0"]) == 0
        mset = load_measurements(out / "measurements.csv")
        scene = load_scene(tiny_scene_path)
        predicted = predict_at(scene, BeamAssignment.baseline(scene), 0.0,
                               zip(mset.positions, mset.cell_ids))
        np.testing.assert_allclose(mset.rsrp_dbm, predicted, atol=2e-4)

    def test_same_seed_identical_files(self, tiny_scene_path, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        args = ["synth", "--scene", tiny_scene_path, "--samples", "40",
                "--noise-sigma-db", "2", "--seed", "9"]
        main(args + ["--out", str(a)])
        main(args + ["--out", str(b)])
        assert read(a / "measurements.csv") == read(b / "measurements.csv")

    def test_noise_sigma_recovered(self, tiny_scene_path, tmp_path):
        out = tmp_path / "synth"
        main(["synth", "--scene", tiny_scene_path, "--out", str(out),
              "--samples", "250", "--noise-sigma-db", "2", "--seed", "3"])
        mset = load_measurements(out / "measurements.csv")
        assert len(mset) == 500  # 250 trajectory points x 2 cells
        scene = load_scene(tiny_scene_path)
        residuals = mset.rsrp_dbm - predict_at(scene, BeamAssignment.baseline(scene), 0.0,
                                               zip(mset.positions, mset.cell_ids))
        assert 1.8 <= np.std(residuals) <= 2.2

    def test_calibrate_recovers_injected_offset(self, tiny_scene_path, tmp_path):
        synth_out = tmp_path / "synth"
        main(["synth", "--scene", tiny_scene_path, "--out", str(synth_out),
              "--samples", "60", "--offset-db", "4.5"])
        cal_out = tmp_path / "cal"
        rc = main(["calibrate", "--scene", tiny_scene_path,
                   "--measurements", str(synth_out / "measurements.csv"),
                   "--out", str(cal_out)])
        assert rc == 0
        cal = json.loads(read(cal_out / "calibration.json"))
        assert cal["offset_db"] == pytest.approx(4.5, abs=1e-3)
        assert cal["residual_rmse_db"] == pytest.approx(0.0, abs=1e-3)


class TestValidate:
    def test_zero_noise_pooled_rmse_zero(self, tiny_scene_path, tmp_path):
        synth_out = tmp_path / "synth"
        main(["synth", "--scene", tiny_scene_path, "--out", str(synth_out),
              "--samples", "60"])
        out = tmp_path / "val"
        rc = main(["validate", "--scene", tiny_scene_path,
                   "--measurements", str(synth_out / "measurements.csv"),
                   "--out", str(out)])
        assert rc == 0
        report = json.loads(read(out / "validation_report.json"))
        assert report["pooled_rmse_db"]["twin_offset"] == pytest.approx(0.0, abs=1e-3)
        assert len(report["folds"]) == 3

    def test_known_noise_recovered(self, tiny_scene_path, tmp_path):
        synth_out = tmp_path / "synth"
        main(["synth", "--scene", tiny_scene_path, "--out", str(synth_out),
              "--samples", "250", "--noise-sigma-db", "2", "--seed", "1"])
        out = tmp_path / "val"
        main(["validate", "--scene", tiny_scene_path,
              "--measurements", str(synth_out / "measurements.csv"),
              "--out", str(out)])
        report = json.loads(read(out / "validation_report.json"))
        assert 1.8 <= report["pooled_rmse_db"]["twin_offset"] <= 2.2


    def test_predictor_failing_every_fold_is_one_warning(self, tiny_scene_path, tmp_path,
                                                          capsys):
        synth_out = tmp_path / "synth"
        main(["synth", "--scene", tiny_scene_path, "--out", str(synth_out),
              "--samples", "60"])
        argv = ["validate", "--scene", tiny_scene_path,
                "--measurements", str(synth_out / "measurements.csv")]
        capsys.readouterr()
        assert main([*argv, "--out", str(tmp_path / "ok")]) == 0
        assert capsys.readouterr().err == ""
        # 1 mm layers leave every (layer, cell) group too small to krige
        assert main([*argv, "--out", str(tmp_path / "val"), "--layer-height", "0.001"]) == 0
        captured = capsys.readouterr()
        assert captured.err.splitlines() == [
            "warning: kriging failed in every fold: SizeError: no (layer, cell) group has "
            "the 3+ samples needed to fit"]
        assert "kriging" not in captured.out
        report = json.loads(read(tmp_path / "val" / "validation_report.json"))
        assert all("kriging" in fold["failed"] for fold in report["folds"])


class TestOptimizeAndEvaluate:
    def make_tiny_opt_scene(self, tmp_path, n_cells=2):
        from factories import random_instance

        scene = random_instance(0, n_cells=n_cells, n_beams=1, n_tilts=3)
        path = tmp_path / "opt_scene.json"
        save_scene(scene, path)
        return scene, str(path)

    def test_matches_bruteforce_on_tiny_scene(self, tmp_path):
        # single decision variable: greedy is exhaustive, so the CLI result
        # must equal the brute-force oracle
        scene, path = self.make_tiny_opt_scene(tmp_path, n_cells=1)
        out = tmp_path / "opt"
        rc = main(["optimize", "--scene", path, "--out", str(out),
                   "--epsilon-gain", "0"])
        assert rc == 0
        grid = build_voxel_grid(scene.airspace)
        best, best_value = brute_force_optimize(
            scene, grid, ObjectiveWeights(epsilon_gain=0.0),
            initial=BeamAssignment.baseline(scene))
        trace = json.loads(read(out / "trace.json"))
        assert trace[-1]["objective_after"] == pytest.approx(best_value, abs=1e-3)
        result = json.loads(read(out / "assignment.json"))
        for cell_id, beams in result.items():
            for index, pair in beams.items():
                assert tuple(pair) == (
                    best.angles[(cell_id, int(index))].azimuth_deg,
                    best.angles[(cell_id, int(index))].tilt_deg)

    def test_already_optimal_is_fixed_point(self, tmp_path):
        scene, path = self.make_tiny_opt_scene(tmp_path)
        out1 = tmp_path / "one"
        main(["optimize", "--scene", path, "--out", str(out1), "--epsilon-gain", "0"])
        out2 = tmp_path / "two"
        rc = main(["optimize", "--scene", path, "--initial",
                   str(out1 / "assignment.json"), "--out", str(out2),
                   "--epsilon-gain", "0"])
        assert rc == 0
        assert read(out1 / "assignment.json") == read(out2 / "assignment.json")
        trace = json.loads(read(out2 / "trace.json"))
        assert all(abs(s["chosen_delta"]) <= 1e-3 for s in trace)

    def test_optimize_builds_the_initial_field_once(self, tmp_path, monkeypatch):
        # The report's "before" side comes from the set-up build, taken before
        # the pass rewrites that field.
        scene, path = self.make_tiny_opt_scene(tmp_path, n_cells=3)
        calls = []
        original = airtwin.optimizer.build_field

        def counted(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        for module in (airtwin.cli, airtwin.optimizer):
            monkeypatch.setattr(module, "build_field", counted)
        out = tmp_path / "opt"
        assert main(["optimize", "--scene", path, "--out", str(out), "--offset-db", "1.5"]) == 0
        assert len(calls) == 1
        monkeypatch.undo()
        report = json.loads(read(out / "compare_report.json"))
        for side, assignment in (("before", []), ("after", ["--assignment",
                                                          str(out / "assignment.json")])):
            ev = tmp_path / side
            assert main(["evaluate", "--scene", path, "--out", str(ev), "--offset-db", "1.5",
                         *assignment]) == 0
            assert report[side] == json.loads(read(ev / "coverage_report.json")), side
        assert report["before"] != report["after"]

    def test_evaluate_coverage_report(self, tmp_path):
        scene, path = self.make_tiny_opt_scene(tmp_path)
        opt_out = tmp_path / "opt"
        main(["optimize", "--scene", path, "--out", str(opt_out)])
        ev_out = tmp_path / "ev"
        rc = main(["evaluate", "--scene", path,
                   "--assignment", str(opt_out / "assignment.json"),
                   "--out", str(ev_out)])
        assert rc == 0
        report = json.loads(read(ev_out / "coverage_report.json"))
        assert 0.0 <= report["ratios"]["rsrp_strict"] <= 1.0
        cmp_out = tmp_path / "cmp"
        rc = main(["evaluate", "--scene", path,
                   "--assignment", str(opt_out / "assignment.json"),
                   "--compare-to", str(tmp_path / "missing.json"),
                   "--out", str(cmp_out)])
        assert rc == 2  # missing comparison assignment is an input error

    def test_compare_emits_heatmaps(self, tiny_scene_path, tmp_path):
        scene = load_scene(tiny_scene_path)
        base = BeamAssignment.baseline(scene)
        base_path = tmp_path / "base.json"
        save_assignment(base, base_path)
        out = tmp_path / "cmp"
        rc = main(["evaluate", "--scene", tiny_scene_path,
                   "--assignment", str(base_path), "--compare-to", str(base_path),
                   "--out", str(out)])
        assert rc == 0
        report = json.loads(read(out / "compare_report.json"))
        assert all(v == 0.0 for v in report["ratio_deltas"].values())
        assert not os.path.exists(out / "heatmap_rsrp_450m.csv")  # above the grid

    def test_mask_restricts_ratios(self, tiny_scene_path, tmp_path):
        scene = load_scene(tiny_scene_path)
        grid = build_voxel_grid(scene.airspace)
        mask_path = tmp_path / "mask.txt"
        np.savetxt(mask_path, np.arange(grid.count // 3), fmt="%d")
        out = tmp_path / "ev"
        rc = main(["evaluate", "--scene", tiny_scene_path, "--mask", str(mask_path),
                   "--out", str(out)])
        assert rc == 0
        report = json.loads(read(out / "coverage_report.json"))
        assert report["n_voxels"] == grid.count // 3


def test_synth_lawnmower_and_clipping(tiny_scene_path, tmp_path, capsys):
    out = tmp_path / "lawn"
    rc = main(["synth", "--scene", tiny_scene_path, "--out", str(out),
               "--trajectory", "lawnmower", "--altitudes", "10,30",
               "--line-spacing", "30", "--step", "15"])
    assert rc == 0
    mset = load_measurements(out / "measurements.csv")
    assert len(mset) > 0
    scene = load_scene(tiny_scene_path)
    assert np.all(contains(scene.airspace, mset.positions))


def test_version_and_help():
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0


# Each bad input fails with exit 2 (input) or 3 (computation), one `error:`
# line, and no result file.
FAILURE_CASES = {
    "alpha_nan": (2, ["optimize", "--alpha", "nan"]),
    "beta_nan": (2, ["optimize", "--beta", "nan"]),
    # Past MAX_WEIGHT the objective overflows and every candidate delta turns NaN.
    "alpha_huge": (2, ["optimize", "--alpha", "1e308"]),
    "beta_huge": (2, ["optimize", "--beta", "1e307"]),
    "margin_cap_nan": (2, ["optimize", "--margin-cap", "nan"]),
    "epsilon_gain_inf": (2, ["optimize", "--epsilon-gain", "inf"]),
    "activity_factor_5": (2, ["optimize", "--activity-factor", "5"]),
    # Checked before any file is read or any field is built.
    "activity_factor_nan": (2, ["evaluate", "--activity-factor", "nan"]),
    "activity_factor_above_one": (2, ["build", "--activity-factor", "1.5"]),
    "activity_factor_negative": (2, ["optimize", "--activity-factor", "-0.1"]),
    "frequency_nan": (2, ["build", "--set", "radio.frequency_hz=NaN"]),
    "bandwidth_inf": (2, ["build", "--set", "radio.bandwidth_hz=Infinity"]),
    "noise_figure_nan": (2, ["build", "--set", "radio.noise_figure_db=NaN"]),
    "out_under_a_file": (2, ["build"]),
    "mask_past_end": (2, ["evaluate", "--mask", "99999999"]),
    "mask_negative": (2, ["evaluate", "--mask", "-1"]),
    "mask_not_integer": (2, ["evaluate", "--mask", "1.5"]),
    "mask_empty": (2, ["evaluate", "--mask", ""]),
    "mask_duplicate": (2, ["evaluate", "--mask", "5\n5\n5"]),
    "offset_db_nan": (2, ["build", "--offset-db", "nan"]),
    # 10^(dBm/10) would overflow and SINR turn NaN.
    "offset_db_huge": (2, ["evaluate", "--offset-db", "1e308"]),
    "threads_zero": (2, ["build", "--threads", "0"]),
    "threads_negative": (2, ["optimize", "--threads", "-3"]),
    "voxel_m_nan": (2, ["build", "--set", "airspace.voxel_m=NaN"]),
    "rsrp_basic_nan": (2, ["build", "--set", "thresholds.rsrp_basic_dbm=NaN"]),
    "set_index_past_end": (2, ["build", "--set", "sites.9.id=x"]),
    "set_index_not_a_number": (2, ["build", "--set", "sites.x.id=x"]),
    "synth_noise_sigma_nan": (2, ["synth", "--noise-sigma-db", "nan"]),
    "synth_samples_negative": (2, ["synth", "--samples", "-5"]),
    "synth_altitudes_not_a_number": (2, ["synth", "--altitudes", "10,abc",
                                         "--trajectory", "lawnmower"]),
    "synth_altitudes_nan": (2, ["synth", "--altitudes", "10,nan", "--trajectory", "lawnmower"]),
    "synth_step_zero": (2, ["synth", "--step", "0", "--trajectory", "lawnmower"]),
    "synth_step_inf": (2, ["synth", "--step", "inf", "--trajectory", "lawnmower"]),
    "synth_line_spacing_negative": (2, ["synth", "--line-spacing", "-1",
                                        "--trajectory", "lawnmower"]),
    "synth_turns_inf": (2, ["synth", "--turns", "inf"]),
    "synth_line_spacing_past_airspace": (2, ["synth", "--line-spacing", "1e6",
                                             "--trajectory", "lawnmower"]),
    # The measurement file does not exist: the flag check must come first.
    "validate_folds_zero": (2, ["validate", "--folds", "0", "--measurements", "none.csv"]),
    "validate_folds_negative": (2, ["validate", "--folds", "-2", "--measurements", "none.csv"]),
    "validate_train_fraction_above_one": (2, ["validate", "--train-fraction", "1.5",
                                              "--measurements", "none.csv"]),
    "validate_train_fraction_nan": (2, ["validate", "--train-fraction", "nan",
                                        "--measurements", "none.csv"]),
    "validate_layer_height_zero": (2, ["validate", "--layer-height", "0",
                                       "--measurements", "none.csv"]),
    "validate_layer_height_nan": (2, ["validate", "--layer-height", "nan",
                                      "--measurements", "none.csv"]),
}

# Scene format violations reached through --set: each error names the path of
# the bad value (or of the object holding it).
SCENE_FORMAT_CASES = {
    "frequency_bool": ("radio.frequency_hz=true", "radio/frequency_hz"),
    "tx_power_string": ("sites.0.cells.0.tx_power_dbm=x", "sites/0/cells/0/tx_power_dbm"),
    "center_one_item": ("airspace.center_m=[0]", "airspace/center_m"),
    "center_three_items": ("airspace.center_m=[0,0,0]", "airspace/center_m"),
    "position_two_items": ("sites.0.position_m=[0,0]", "sites/0/position_m"),
    "baseline_one_item": ("sites.0.cells.0.sub_beams.0.baseline=[0]",
                          "sites/0/cells/0/sub_beams/0/baseline"),
    "candidate_step_three_items": ("sites.0.cells.0.sub_beams.0.candidate_step=[5,5,5]",
                                   "sites/0/cells/0/sub_beams/0/candidate_step"),
    "index_negative": ("sites.0.cells.0.sub_beams.0.index=-1",
                       "sites/0/cells/0/sub_beams/0/index"),
    "index_fraction": ("sites.0.cells.0.sub_beams.0.index=1.5",
                       "sites/0/cells/0/sub_beams/0/index"),
    "index_bool": ("sites.0.cells.0.sub_beams.0.index=true",
                   "sites/0/cells/0/sub_beams/0/index"),
    "site_id_empty": ('sites.0.id=""', "sites/0/id"),
    "cell_id_comma": ('sites.0.cells.0.id="A,1"', "sites/0/cells/0/id"),
    "sites_empty": ("sites=[]", "sites"),
    "cells_empty": ("sites.1.cells=[]", "sites/1/cells"),
    "thresholds_null": ("thresholds=null", "thresholds"),
    "unknown_radio_key": ("radio.bogus=1", "radio"),
    "unknown_root_key": ("bogus=1", ""),
    "pattern_unknown_type": ('sites.0.cells.0.sub_beams.0.pattern={"type":"dipole"}',
                             "sites/0/cells/0/sub_beams/0/pattern"),
    # A non-finite number is a format violation: NaN passes every range check.
    "position_nan": ("sites.0.position_m=[NaN,0,10]", "sites/0/position_m/0"),
    "bounds_inf": ("sites.0.cells.0.sub_beams.0.bounds.az_max_deg=Infinity",
                   "sites/0/cells/0/sub_beams/0/bounds/az_max_deg"),
    "baseline_nan": ("sites.0.cells.0.sub_beams.0.baseline=[NaN,0]",
                     "sites/0/cells/0/sub_beams/0/baseline/0"),
    "candidate_step_minus_inf": ("sites.0.cells.0.sub_beams.0.candidate_step=[5,-Infinity]",
                                 "sites/0/cells/0/sub_beams/0/candidate_step/1"),
    "sla_nan": ("sites.0.cells.0.sub_beams.0.pattern.sla_db=NaN",
                "sites/0/cells/0/sub_beams/0/pattern/sla_db"),
}
FAILURE_CASES.update({f"scene_{name}": (2, ["build", "--set", override])
                      for name, (override, _) in SCENE_FORMAT_CASES.items()})

# Values past +-500 dBm (dBi) would overflow the dBm-to-mW conversion, like
# --offset-db past its bound; each error names the field.
LEVEL_CASES = {
    "tx_power_huge": ("sites.0.cells.0.tx_power_dbm=1e300", "tx_power_dbm"),
    "g_max_huge": ("sites.0.cells.0.sub_beams.0.pattern.g_max_dbi=1e300", "g_max_dbi"),
    "tx_power_past_bound": ("sites.0.cells.0.tx_power_dbm=-500.5", "tx_power_dbm"),
    # The FSPL, the noise floor and I/N stay finite only for radio values in range.
    "frequency_tiny": ("radio.frequency_hz=1e-300", "radio.frequency_hz"),
    "bandwidth_tiny": ("radio.bandwidth_hz=1e-300", "radio.bandwidth_hz"),
    "noise_figure_huge": ("radio.noise_figure_db=1e300", "radio.noise_figure_db"),
}
FAILURE_CASES.update({f"level_{name}": (2, ["evaluate", "--set", override])
                      for name, (override, _) in LEVEL_CASES.items()})

# A site on a voxel center has no direction and no path loss to it. Moving the
# airspace's center to x = 10 puts a lattice tick at x = 0, so a site 5e-324 m
# from the center (0, 10, 10) is a distinct position whose distance squares to 0.
FAILURE_CASES.update({
    "site_on_a_voxel_center": (3, ["evaluate", "--set", "sites.0.position_m=[10,10,10]"]),
    "site_subnormal_offset_from_a_voxel_center": (3, [
        "evaluate", "--set", "airspace.center_m=[10,0]",
        "--set", "sites.0.position_m=[5e-324,10,10]"]),
})

# A pattern table node that is not finite, or a gain past +-500 dBi; each
# error names the table file and the column. The test writes the table.
TABLE_CASES = {
    "gain_inf": ("gain_dbi", "inf"),
    "gain_huge": ("gain_dbi", "1e300"),
    "gain_nan": ("gain_dbi", "nan"),
    "az_nan": ("az_deg", "nan"),
}
FAILURE_CASES.update({f"table_{name}": (2, ["evaluate"]) for name in TABLE_CASES})

# A measurement row past +-1e7 m, +-500 dBm or a pole, or whose seq is not an
# int64; each error names the file and the row. The test writes the file, whose
# second data row holds the value.
MEASUREMENT_CASES = {
    "x_huge": ("calibrate", "x_m", "1e300", "sample positions"),
    "z_past_bound": ("validate", "z_m", "-1.0000001e7", "sample positions"),
    "rsrp_huge": ("calibrate", "rsrp_dbm", "1e300", "rsrp_dbm"),
    "rsrp_huge_validate": ("validate", "rsrp_dbm", "1e300", "rsrp_dbm"),
    # Read through LLA_MAPPING, whose y column holds the latitude.
    "latitude_past_pole": ("calibrate", "y_m", "95.0001", "latitude"),
    "seq_inf": ("calibrate", "seq", "inf", "seq"),
    "seq_huge": ("validate", "seq", "1e20", "seq"),
    "seq_minus_huge": ("calibrate", "seq", "-1e300", "seq"),
    "seq_fraction": ("validate", "seq", "1.5", "seq"),
}
FAILURE_CASES.update({f"measurement_{name}": (2, [command])
                      for name, (command, *_) in MEASUREMENT_CASES.items()})

# A CSV the reader cannot take: a pattern table row with too few or too many
# fields, a measurement row longer than its header (a decimal comma splits the
# RSRP in two), or a measurement field past the csv module's 131,072-character
# limit; each error names the file and the row. The test writes the file.
LONG_FIELD_ROW = "0,1,2,3,s1c1," + "x" * 200_000 + "\n"
DECIMAL_COMMA_ROW = "0,0,10,10,s1c1,-49,7859\n"
UNREADABLE_CASES = {
    "table_short_row": ("evaluate", "az_deg,el_deg,gain_dbi\n0,0\n"),
    "table_long_row": ("evaluate", "az_deg,el_deg,gain_dbi\n-10,0,1,7\n"),
    "measurement_decimal_comma": ("calibrate",
                                  "seq,x_m,y_m,z_m,cell_id,rsrp_dbm\n" + DECIMAL_COMMA_ROW),
    "measurement_decimal_comma_validate": ("validate", "seq,x_m,y_m,z_m,cell_id,rsrp_dbm\n"
                                           + DECIMAL_COMMA_ROW),
    "measurement_long_field": ("calibrate", "seq,x_m,y_m,z_m,cell_id,rsrp_dbm\n" + LONG_FIELD_ROW),
    "measurement_long_field_validate": ("validate",
                                        "seq,x_m,y_m,z_m,cell_id,rsrp_dbm\n" + LONG_FIELD_ROW),
}
FAILURE_CASES.update({f"unreadable_{name}": (2, [command])
                      for name, (command, _) in UNREADABLE_CASES.items()})

# A mapping file with a value of the wrong type, an unknown frame or an origin
# latitude past a pole; each error names the mapping file and the key. The test
# writes the mapping over a native-schema measurement file.
NATIVE_MAPPING = {"columns": {c: c for c in NATIVE_COLUMNS[1:]}}
LLA_MAPPING = {**NATIVE_MAPPING, "position": {"frame": "lla", "origin_lla": [0, 0, 0]}}
MAPPING_CASES = {
    "position_not_an_object": ({"position": "lla"}, "position"),
    "origin_not_an_array": ({"position": {"frame": "lla", "origin_lla": 5}},
                            "position/origin_lla"),
    "origin_not_numbers": ({"position": {"frame": "lla", "origin_lla": ["a", 2, 3]}},
                           "position/origin_lla/0"),
    "origin_two_numbers": ({"position": {"frame": "lla", "origin_lla": [1, 2]}},
                           "position/origin_lla"),
    "frame_unknown": ({"position": {"frame": "utm"}}, "position/frame"),
    "column_not_a_string": ({"columns": {**NATIVE_MAPPING["columns"], "x_m": 5}},
                            "columns/x_m"),
    "origin_latitude_past_pole": ({"position": {"frame": "lla", "origin_lla": [95, 0, 0]}},
                                  "position/origin_lla/0"),
}
FAILURE_CASES.update({f"mapping_{name}": (2, ["calibrate"]) for name in MAPPING_CASES})

# An assignment angle that is not a finite number, read where sub-beam 0 of
# cell0 may point anywhere; each error names the assignment file and the angle.
# The test writes the file: the baseline with ``token`` as that angle's entry.
ASSIGNMENT_CASES = {
    "azimuth_nan": ("evaluate", 0, "NaN"),
    "azimuth_infinity": ("evaluate", 0, "Infinity"),
    "azimuth_huge": ("evaluate", 0, "1e400"),
    "azimuth_nan_build": ("build", 0, "NaN"),
    "tilt_bool": ("evaluate", 1, "true"),
}
ANY_AZIMUTH = ["--set", "sites.0.cells.0.sub_beams.0.bounds.az_min_deg=0",
               "--set", "sites.0.cells.0.sub_beams.0.bounds.az_max_deg=360"]
FAILURE_CASES.update({f"assignment_{name}": (2, [command, *ANY_AZIMUTH])
                      for name, (command, *_) in ASSIGNMENT_CASES.items()})

# The airspace is bounded like a site: its center and its extent.
FAILURE_CASES.update({
    "airspace_center_huge": (2, ["evaluate", "--set", "airspace.center_m=[1e200,0]"]),
    "airspace_extent_past_bound": (2, ["evaluate", "--set", "airspace.center_m=[0,-9999990]"]),
})


def write_measurements(path, column, value):
    """Two native-schema rows, the second with ``value`` in ``column``."""
    rows = [dict(seq=str(i), x_m="0", y_m="10", z_m="10", cell_id="s0c0", rsrp_dbm="-80")
            for i in range(2)]
    rows[1][column] = value
    path.write_text("seq,x_m,y_m,z_m,cell_id,rsrp_dbm\n"
                    + "".join(",".join(row.values()) + "\n" for row in rows))


def write_assignment(path, scene_path, position, token):
    """The scene's baseline assignment, with ``token`` at ``position`` of cell0's beam 0."""
    doc = BeamAssignment.baseline(load_scene(scene_path)).to_json_dict()
    doc["cell0"]["0"][position] = "TOKEN"
    path.write_text(json.dumps(doc).replace('"TOKEN"', token))


def write_table(path, column, values):
    """A 2x2 pattern table with ``values`` in ``column``, one per node; the rest finite.

    Returns the ``--set`` that gives the first sub-beam of the first cell this table.
    """
    rows = [{"az_deg": a, "el_deg": e, "gain_dbi": "3"} for a in ("-180", "180")
            for e in ("-90", "90")]
    for row, value in zip(rows, values):
        row[column] = value
    path.write_text("az_deg,el_deg,gain_dbi\n"
                    + "".join(f"{r['az_deg']},{r['el_deg']},{r['gain_dbi']}\n" for r in rows))
    return ["--set", f'sites.0.cells.0.sub_beams.0.pattern={{"type":"table","path":"{path}"}}']


@pytest.mark.parametrize("case", sorted(FAILURE_CASES))
def test_failure_contract(case, tiny_scene_path, tmp_path, capsys):
    code, argv = FAILURE_CASES[case]
    argv = list(argv)
    if "--mask" in argv:
        mask_path = tmp_path / "mask.txt"
        mask_path.write_text(argv[-1] + "\n")
        argv[-1] = str(mask_path)
    if case.startswith("table_"):
        table = tmp_path / "pattern.csv"
        column, value = TABLE_CASES[case[len("table_"):]]
        argv += write_table(table, column, [value] * 4)
    if case.startswith("measurement_"):
        measurements = tmp_path / "measurements.csv"
        write_measurements(measurements, *MEASUREMENT_CASES[case[len("measurement_"):]][1:3])
        argv += ["--measurements", str(measurements)]
        if case == "measurement_latitude_past_pole":
            mapping = tmp_path / "mapping.json"
            mapping.write_text(json.dumps(LLA_MAPPING))
            argv += ["--mapping", str(mapping)]
    if case.startswith("assignment_"):
        assignment = tmp_path / "assignment.json"
        position, token = ASSIGNMENT_CASES[case[len("assignment_"):]][1:]
        write_assignment(assignment, tiny_scene_path, position, token)
        argv += ["--assignment", str(assignment)]
    if case.startswith("unreadable_"):
        unreadable = tmp_path / "unreadable.csv"
        unreadable.write_text(UNREADABLE_CASES[case[len("unreadable_"):]][1])
        if argv[0] == "evaluate":
            argv += ["--set", f'sites.0.cells.0.sub_beams.0.pattern={{"type":"table",'
                              f'"path":"{unreadable}"}}']
        else:
            argv += ["--measurements", str(unreadable)]
    if case.startswith("mapping_"):
        mapping = tmp_path / "mapping.json"
        update, key = MAPPING_CASES[case[len("mapping_"):]]
        mapping.write_text(json.dumps({**NATIVE_MAPPING, **update}))
        measurements = tmp_path / "measurements.csv"
        write_measurements(measurements, "rsrp_dbm", "-80")
        argv += ["--measurements", str(measurements), "--mapping", str(mapping)]
    out = tmp_path / "out"
    if case == "out_under_a_file":
        (tmp_path / "blocker").write_text("")
        out = tmp_path / "blocker" / "out"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc = main([argv[0], "--scene", tiny_scene_path, "--out", str(out), *argv[1:]])
    err = capsys.readouterr().err
    assert rc == code
    assert [str(w.message) for w in caught] == []
    assert [line for line in err.splitlines() if line.startswith("error:")] == err.splitlines()
    assert len(err.splitlines()) == 1
    assert "Traceback" not in err
    assert "np.float64(" not in err
    flag_cases = ("synth_", "validate_", "threads_", "offset_db_", "activity_factor_")
    if (case.startswith(flag_cases)
            or case in ("mask_not_integer", "mask_empty")) and case != "synth_noise_sigma_nan":
        assert argv[1] in err   # the bad flag is named in the error
    if case.startswith("activity_factor_"):
        assert not out.exists()   # rejected before the manifest is written
    if case == "mask_duplicate":
        assert "repeats index 5" in err
    if case.startswith("scene_"):
        path = SCENE_FORMAT_CASES[case[len("scene_"):]][1]
        assert f"error: scene schema violation at '{path}" in err
    if case.startswith("level_"):
        assert LEVEL_CASES[case[len("level_"):]][1] in err
    if case.startswith("measurement_"):
        field = MEASUREMENT_CASES[case[len("measurement_"):]][3]
        assert f"error: {measurements}: data row 2: {field} must" in err
    if case.startswith("mapping_"):
        assert f"error: {mapping}: mapping schema violation at '{key}'" in err
    if case.startswith("assignment_"):
        assert f"error: {assignment}: assignment schema violation at 'cell0/0/{position}'" in err
    if case.startswith("airspace_"):
        assert "airspace.center_m" in err
    if case.startswith("site_"):
        assert "from site 'site0' at (" in err
    if case.startswith("unreadable_"):
        assert err.startswith(f"error: {unreadable}: data row 1: ")
    if case.startswith("table_"):
        assert f"{table}: column {TABLE_CASES[case[len('table_'):]][0]} must be finite" in err
    if out.is_dir():
        assert set(os.listdir(out)) <= {"manifest.json"}


@pytest.mark.parametrize("content", [b"\xff\xfe{}", b"[" * 100_000 + b"]" * 100_000],
                         ids=["not_utf8", "nested_too_deep"])
@pytest.mark.parametrize("flag", ["--scene", "--assignment", "--mapping"])
def test_unreadable_json_file_is_an_input_error(flag, content, tiny_scene_path, tmp_path,
                                                capsys):
    bad = tmp_path / "bad.json"
    bad.write_bytes(content)
    measurements = tmp_path / "measurements.csv"
    write_measurements(measurements, "rsrp_dbm", "-80")
    files = {"--scene": tiny_scene_path, "--measurements": str(measurements), flag: str(bad)}
    argv = ["calibrate", "--out", str(tmp_path / "out")]
    for option, path in files.items():
        argv += [option, path]
    assert main(argv) == 2
    [line] = capsys.readouterr().err.splitlines()
    assert line.startswith(f"error: {bad}: not a readable JSON ")


# The largest levels over the smallest noise floor, and the smallest over the largest.
RADIO_AT_BOUNDS = {500.0: ("1e3", "1", "0"), -500.0: ("1.7976931348623157e308", "1e12", "500")}


@pytest.mark.parametrize("level, offset", [(500.0, 1000.0), (-500.0, -1000.0)])
def test_levels_at_their_bounds_give_finite_sinr(level, offset, tiny_scene_path, tmp_path,
                                                 capsys):
    out = tmp_path / "out"
    overrides = []
    for name, value in zip(("frequency_hz", "bandwidth_hz", "noise_figure_db"),
                           RADIO_AT_BOUNDS[level]):
        overrides += ["--set", f"radio.{name}={value}"]
    for site in (0, 1):   # every cell at the bound, so each interferes at the bound too
        cell = f"sites.{site}.cells.0"
        overrides += ["--set", f"{cell}.tx_power_dbm={level}"]
        for beam in (0, 1):
            overrides += ["--set", f"{cell}.sub_beams.{beam}.pattern.g_max_dbi={level}"]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc = main(["build", "--scene", tiny_scene_path, "--out", str(out),
                   "--offset-db", str(offset), *overrides])
    assert rc == 0
    assert [str(w.message) for w in caught] == []
    assert capsys.readouterr().err == ""
    sinr = np.loadtxt(out / "sinr.csv", delimiter=",", skiprows=1, usecols=(4, 5))
    assert sinr.size and np.all(np.isfinite(sinr))


def shifted_tiny_scene():
    """The tiny test scene with its airspace centered at x = 10: a lattice tick at x = 0."""
    scene = simple_scene(n_cells=2, n_beams=2, radius_m=60.0, z_max_m=40.0, voxel_m=20.0)
    airspace = dataclasses.replace(scene.airspace, center_m=(10.0, 0.0))
    return dataclasses.replace(scene, airspace=airspace)


SHIFTED_CENTERS = [tuple(c) for c in build_voxel_grid(shifted_tiny_scene().airspace).centers]
EXTREMES = [0.0, 5e-324, 1e-300, 0.5, 1.0, 999.9, 1e3, 3.5e9, 2.0 ** 70, 1e12, 1.1e12,
            500.0, 500.5, 1e300, 1.7976931348623157e308]


def mostly(valid, *others):
    """Mostly ``valid``, else one of ``others``."""
    return st.integers(0, 4).flatmap(lambda k: st.one_of(*others) if k == 4 else valid)


def radio_value(low, high):
    """Mostly in [low, high], else any finite float or a value at some edge."""
    return mostly(st.floats(low, high), st.floats(allow_nan=False, allow_infinity=False),
                  st.sampled_from(EXTREMES + [-v for v in EXTREMES]))


radio_values = st.tuples(radio_value(1e3, 1.7976931348623157e308), radio_value(1.0, 1e12),
                         radio_value(0.0, 500.0))
table_gains = st.none() | st.lists(mostly(st.floats(-500.0, 500.0), st.floats(),
                                          st.sampled_from([500.0, -500.0, 500.5])),
                                   min_size=4, max_size=4)
offsets = st.sampled_from([0.0, 5e-324, -5e-324, 1e-200, 1e-160, 1e-100, 1e-30, 1e-3, 7.0])
site_positions = st.one_of(
    st.builds(lambda c, d: [c[0] + d[0], c[1] + d[1], c[2] + d[2]],
              st.sampled_from(SHIFTED_CENTERS), st.tuples(offsets, offsets, offsets)),
    st.tuples(st.floats(-200.0, 200.0), st.floats(-200.0, 200.0), st.floats(0.0, 100.0)),
    st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=3, max_size=3))


@settings(max_examples=150, deadline=None)
@given(radio=radio_values, gains=table_gains,
       position=site_positions, tx_power=st.sampled_from([30.0, 500.0, -500.0]),
       offset=st.sampled_from([0.0, 1000.0, -1000.0]))
def test_evaluate_on_any_radio_table_and_site_position(radio, gains, position, tx_power,
                                                       offset):
    """Exit 0, 2 or 3, at most one ``error:`` line, and never a warning or a traceback."""
    with tempfile.TemporaryDirectory() as tmp:
        scene_path = os.path.join(tmp, "scene.json")
        save_scene(shifted_tiny_scene(), scene_path)
        argv = ["evaluate", "--scene", scene_path, "--out", os.path.join(tmp, "out"),
                "--offset-db", str(offset),
                "--set", f"sites.0.position_m={json.dumps(list(position))}",
                "--set", f"sites.0.cells.0.tx_power_dbm={tx_power}"]
        for name, value in zip(("frequency_hz", "bandwidth_hz", "noise_figure_db"), radio):
            argv += ["--set", f"radio.{name}={json.dumps(value)}"]
        if gains is not None:
            argv += write_table(pathlib.Path(tmp, "pattern.csv"), "gain_dbi", map(repr, gains))
        err = io.StringIO()
        with (warnings.catch_warnings(record=True) as caught,
              contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO())):
            warnings.simplefilter("always")
            rc = main(argv)
    event(f"exit {rc}")
    assert [str(w.message) for w in caught] == []
    lines = err.getvalue().splitlines()
    assert rc in (0, 2, 3)
    assert len(lines) == (rc != 0) and all(line.startswith("error:") for line in lines)


# Each command takes only the options it reads.
REMOVED_OPTIONS = [*((command, "--seed") for command in
                     ("build", "calibrate", "validate", "optimize", "evaluate")),
                   *((command, option) for command in ("calibrate", "validate")
                     for option in ("--offset-db", "--activity-factor")),
                   ("synth", "--activity-factor")]


@pytest.mark.parametrize("command, option", REMOVED_OPTIONS)
def test_option_a_command_does_not_read_is_rejected(command, option, tiny_scene_path, tmp_path,
                                                    capsys):
    argv = [command, "--scene", tiny_scene_path, "--out", str(tmp_path / "out"), option, "1"]
    if command in ("calibrate", "validate"):
        argv += ["--measurements", "none.csv"]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert f"unrecognized arguments: {option} 1" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.fixture(scope="module")
def synthesized(tmp_path_factory):
    """A scene file and the ``synth`` measurements of its baseline."""
    root = tmp_path_factory.mktemp("synthesized")
    save_scene(simple_scene(n_cells=2, n_beams=2, radius_m=60.0, z_max_m=40.0, voxel_m=20.0),
               root / "scene.json")
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["synth", "--scene", str(root / "scene.json"), "--out", str(root / "synth"),
                     "--samples", "20"]) == 0
    return str(root / "scene.json"), str(root / "synth" / "measurements.csv")


json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=4), inner,
                                                                max_size=3),
    max_leaves=6)


def column_name(column):
    """Mostly ``column`` itself, else another column's name or any JSON value."""
    return mostly(st.just(column), st.sampled_from(NATIVE_COLUMNS), json_values)


mapping_docs = mostly(st.fixed_dictionaries(
    {"columns": mostly(st.fixed_dictionaries({c: column_name(c) for c in NATIVE_COLUMNS[1:]},
                                             optional={"seq": column_name("seq")}),
                       json_values)},
    optional={"position": mostly(st.fixed_dictionaries({}, optional={
        "frame": mostly(st.sampled_from(["enu", "lla"]), json_values),
        "origin_lla": mostly(st.lists(st.floats(-90.0, 90.0), min_size=3, max_size=3),
                             json_values)}), json_values)}), json_values)


@settings(max_examples=200, deadline=None)
@given(mapping=mapping_docs)
def test_calibrate_on_any_mapping(mapping, synthesized):
    """Exit 0 or 2, at most one ``error:`` line, and never a warning or a traceback."""
    scene_path, measurements = synthesized
    with tempfile.TemporaryDirectory() as tmp:
        mapping_path = os.path.join(tmp, "mapping.json")
        with open(mapping_path, "w") as fh:
            json.dump(mapping, fh)
        err = io.StringIO()
        with (warnings.catch_warnings(record=True) as caught,
              contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO())):
            warnings.simplefilter("always")
            rc = main(["calibrate", "--scene", scene_path, "--out", os.path.join(tmp, "out"),
                       "--measurements", measurements, "--mapping", mapping_path])
    event(f"exit {rc}")
    assert [str(w.message) for w in caught] == []
    lines = err.getvalue().splitlines()
    assert rc in (0, 2)
    assert len(lines) == (rc != 0) and all(line.startswith("error:") for line in lines)


# What a drive-test export can hold where a number belongs: non-finite, past
# every bound, past int64, not an integer, empty or not a number at all.
ODD_CELLS = ["inf", "-inf", "nan", "NaN", "1e20", "-1e300", "1e400", "9223372036854775808",
             "1.5", "-0.5", "0", "", " ", "abc", "0x10", "1e", "--1"]
csv_headers = mostly(st.just(list(NATIVE_COLUMNS)), st.permutations(NATIVE_COLUMNS),
                     st.lists(st.sampled_from([*NATIVE_COLUMNS, "extra"]), max_size=7))
csv_edits = st.lists(st.tuples(st.integers(0, 39), st.sampled_from([*NATIVE_COLUMNS, "extra"]),
                               st.sampled_from(ODD_CELLS)), max_size=3)


@settings(max_examples=200, deadline=None)
@given(header=csv_headers, n_rows=mostly(st.just(40), st.integers(0, 40)), edits=csv_edits)
@example(header=list(NATIVE_COLUMNS), n_rows=40, edits=[(1, "seq", "inf")])
@example(header=list(NATIVE_COLUMNS), n_rows=40, edits=[(1, "seq", "1e20")])
def test_calibrate_on_any_measurement_file(header, n_rows, edits, synthesized):
    """Exit 0 or 2, at most one ``error:`` line, and never a warning or a traceback.

    The file is the first ``n_rows`` samples of a ``synth`` run under ``header``,
    with each edit's cell replaced; a column the header does not name stays out.
    """
    scene_path, measurements = synthesized
    with open(measurements) as fh:
        rows = list(csv.DictReader(fh))[:n_rows]
    for row, column, value in edits:
        if row < len(rows):
            rows[row][column] = value
    table = [header, *([row.get(column, "") for column in header] for row in rows)]
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "measurements.csv")
        with open(path, "w") as fh:
            fh.write("".join(",".join(line) + "\n" for line in table))
        err = io.StringIO()
        with (warnings.catch_warnings(record=True) as caught,
              contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO())):
            warnings.simplefilter("always")
            rc = main(["calibrate", "--scene", scene_path, "--out", os.path.join(tmp, "out"),
                       "--measurements", path])
    event(f"exit {rc}")
    assert [str(w.message) for w in caught] == []
    lines = err.getvalue().splitlines()
    assert rc in (0, 2)
    assert len(lines) == (rc != 0) and all(line.startswith("error:") for line in lines)


# perfbench/workloads.py runs every command with --threads.
@pytest.mark.parametrize("command", ["build", "calibrate", "validate", "optimize", "evaluate",
                                     "synth"])
def test_every_command_accepts_threads(command, synthesized, tmp_path):
    scene_path, measurements = synthesized
    argv = [command, "--scene", scene_path, "--threads", "1", "--out", str(tmp_path / "out")]
    if command in ("calibrate", "validate"):
        argv += ["--measurements", measurements]
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(argv) == 0


@pytest.mark.parametrize("command", ["build", "calibrate", "validate", "optimize", "evaluate",
                                     "synth"])
def test_no_command_builds_the_voxel_centers(command, synthesized, tmp_path, monkeypatch):
    """Commands read the grid as columns and layers; its (N, 3) centers are for checks."""
    def no_centers(grid):
        raise AssertionError("a command built VoxelGrid.centers")

    monkeypatch.setattr(VoxelGrid, "centers", property(no_centers))
    scene_path, measurements = synthesized
    argv = [command, "--scene", scene_path, "--out", str(tmp_path / "out")]
    if command in ("calibrate", "validate"):
        argv += ["--measurements", measurements]
    if command == "evaluate":   # a compare, with a heatmap at 50 m and a mask
        save_assignment(BeamAssignment.baseline(load_scene(scene_path)), tmp_path / "base.json")
        np.savetxt(tmp_path / "mask.txt", np.arange(0, 20, 3), fmt="%d")
        argv += ["--compare-to", str(tmp_path / "base.json"), "--mask", str(tmp_path / "mask.txt"),
                 "--set", "airspace.z_max_m=60"]
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(argv) == 0
    if command == "evaluate":
        assert any(path.name.startswith("heatmap_") for path in (tmp_path / "out").iterdir())


@pytest.mark.parametrize("message, line", [
    ("Unable to allocate 14.6 TiB", "error: out of memory: Unable to allocate 14.6 TiB"),
    ("", "error: out of memory"),
])
def test_out_of_memory_is_one_error_line(message, line, tiny_scene_path, tmp_path, capsys,
                                         monkeypatch):
    def no_memory(airspace):
        raise MemoryError(message)

    monkeypatch.setattr(airtwin.cli, "build_voxel_grid", no_memory)
    rc = main(["build", "--scene", tiny_scene_path, "--out", str(tmp_path / "out")])
    assert rc == 3
    assert capsys.readouterr().err.splitlines() == [line]


SRC_DIR = os.path.dirname(os.path.dirname(airtwin.__file__))


def loaded_packages(code: str, packages: tuple[str, ...]) -> list[str]:
    """The modules of ``packages`` a fresh interpreter holds after running ``code``."""
    code += ("; import json, sys; print(json.dumps(sorted(m for m in sys.modules "
             f"if m.split('.')[0] in {packages!r})))")
    out = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=SRC_DIR),
                         capture_output=True, text=True, check=True).stdout
    return json.loads(out)


def test_cli_import_loads_no_scipy(tiny_scene_path, tmp_path):
    """Neither ``import`` nor a whole ``validate`` run, Kriging fits included, loads scipy."""
    assert loaded_packages("import airtwin.cli, airtwin", ("scipy",)) == []
    common = ["--scene", tiny_scene_path]
    measurements = str(tmp_path / "synth" / "measurements.csv")
    argvs = [["synth", *common, "--out", str(tmp_path / "synth"), "--samples", "120",
              "--noise-sigma-db", "2"],
             ["validate", *common, "--out", str(tmp_path / "val"), "--measurements", measurements]]
    code = ("import io, sys, airtwin.cli; sys.stdout = io.StringIO(); "
            + "".join(f"assert airtwin.cli.main({argv!r}) == 0; " for argv in argvs)
            + "sys.stdout = sys.__stdout__")
    assert loaded_packages(code, ("scipy",)) == []
    report = json.loads(read(tmp_path / "val" / "validation_report.json"))
    assert "kriging" in report["pooled_rmse_db"]


def test_scene_load_imports_no_schema_library():
    """Every command's start-up, ``import airtwin.cli`` then loading a scene, stays light."""
    scene = os.path.join(os.path.dirname(SRC_DIR), "scenes", "demo_6cell.json")
    code = f"import airtwin.cli; airtwin.cli._load_scene_with_overrides({scene!r}, [])"
    assert loaded_packages(code, ("jsonschema", "referencing")) == []
