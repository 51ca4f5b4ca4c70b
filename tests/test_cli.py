import json
import os
import subprocess
import sys

import numpy as np
import pytest

import airtwin.cli
import airtwin.optimizer
import airtwin.validation
from airtwin.cli import main
from airtwin.measurements import load_measurements
from airtwin.scene import BeamAssignment, build_voxel_grid, load_scene, save_assignment, save_scene
from airtwin.spectrum import TwinModel
from factories import simple_scene


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
        model = TwinModel(scene, BeamAssignment.baseline(scene), 0.0)
        predicted = model.predict_set(mset)
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
        model = TwinModel(scene, BeamAssignment.baseline(scene), 0.0)
        residuals = mset.rsrp_dbm - model.predict_set(mset)
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

    def test_variogram_fit_fallback_is_one_warning(self, tiny_scene_path, tmp_path, capsys,
                                                   monkeypatch):
        synth_out = tmp_path / "synth"
        main(["synth", "--scene", tiny_scene_path, "--out", str(synth_out),
              "--samples", "120", "--noise-sigma-db", "2"])
        calls = []

        def failing(fun, x0, **kwargs):
            calls.append(fun)
            raise RuntimeError(f"no convergence {len(calls)}")

        monkeypatch.setattr(airtwin.validation, "least_squares", failing)
        capsys.readouterr()
        rc = main(["validate", "--scene", tiny_scene_path, "--out", str(tmp_path / "val"),
                   "--measurements", str(synth_out / "measurements.csv")])
        assert rc == 0
        assert len(calls) >= 1
        assert capsys.readouterr().err.splitlines() == [
            f"warning: {len(calls)} variogram fit(s) fell back to the default model: "
            "RuntimeError: no convergence 1"]
        report = json.loads(read(tmp_path / "val" / "validation_report.json"))
        assert "kriging" in report["pooled_rmse_db"]


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
        from airtwin.optimizer import ObjectiveWeights, brute_force_optimize

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
    assert np.all(scene.airspace.contains(mset.positions))


def test_version_and_help():
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0


# Each bad input fails with exit 2 (input) or 3 (computation), one `error:`
# line, and no result file.
FAILURE_CASES = {
    "alpha_nan": (2, ["optimize", "--alpha", "nan"]),
    "beta_nan": (2, ["optimize", "--beta", "nan"]),
    "margin_cap_nan": (2, ["optimize", "--margin-cap", "nan"]),
    "epsilon_gain_inf": (2, ["optimize", "--epsilon-gain", "inf"]),
    "activity_factor_5": (3, ["optimize", "--activity-factor", "5"]),
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


@pytest.mark.parametrize("case", sorted(FAILURE_CASES))
def test_failure_contract(case, tiny_scene_path, tmp_path, capsys):
    code, argv = FAILURE_CASES[case]
    argv = list(argv)
    if "--mask" in argv:
        mask_path = tmp_path / "mask.txt"
        mask_path.write_text(argv[-1] + "\n")
        argv[-1] = str(mask_path)
    out = tmp_path / "out"
    if case == "out_under_a_file":
        (tmp_path / "blocker").write_text("")
        out = tmp_path / "blocker" / "out"
    rc = main([argv[0], "--scene", tiny_scene_path, "--out", str(out), *argv[1:]])
    err = capsys.readouterr().err
    assert rc == code
    assert [line for line in err.splitlines() if line.startswith("error:")] == err.splitlines()
    assert len(err.splitlines()) == 1
    assert "Traceback" not in err
    if (case.startswith(("synth_", "validate_", "threads_", "offset_db_"))
            or case in ("mask_not_integer", "mask_empty")) and case != "synth_noise_sigma_nan":
        assert argv[1] in err   # the bad flag is named in the error
    if case == "mask_duplicate":
        assert "repeats index 5" in err
    if out.is_dir():
        assert set(os.listdir(out)) <= {"manifest.json"}


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


def test_cli_import_loads_no_scipy():
    """scipy is imported by the first variogram fit or tree build, not by ``import``."""
    src = os.path.dirname(os.path.dirname(airtwin.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    code = ("import sys, airtwin.cli, airtwin; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out.strip() == "[]"
