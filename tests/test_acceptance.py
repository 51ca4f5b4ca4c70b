"""Acceptance suite: one test per release criterion, each timed against its
runtime budget and printing a PASS line (run with ``pytest -s`` to see them).

Criterion 10 (real-dataset validation) is optional: it runs only when the
AIRTWIN_REAL_MEASUREMENTS / AIRTWIN_REAL_SCENE environment variables point at
a fetched dataset, and reports the twin-vs-Kriging comparison directionally
without hard-asserting it.
"""

import math
import os
import time

import numpy as np
import pytest

from airtwin.antenna import AntennaPattern, Orientation, gain
from airtwin.interference import NoiseModel, build_sinr_field, linear_mw, noise_floor_dbm
from airtwin.measurements import load_measurements
from airtwin.optimizer import (
    ObjectiveWeights,
    brute_force_optimize,
    greedy_optimize,
    objective,
)
from airtwin.scene import BeamAssignment, build_voxel_grid
from airtwin.spectrum import (
    RadioField,
    build_field,
    calibrate_offset,
    export_field_csv,
    fspl_db,
)
from airtwin.synth import lawnmower_trajectory, synthesize_measurements
from airtwin.validation import (
    KrigingPredictor,
    NearestNeighborPredictor,
    TwinPredictor,
    block_holdout_folds,
    kriging_fit,
    kriging_predict,
    kriging_weights,
    run_validation,
)

from factories import random_instance, simple_scene


class _Budget:
    def __init__(self, n, name, seconds):
        self.n, self.name, self.seconds = n, name, seconds

    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.t0
        if exc_type is None:
            assert elapsed < self.seconds, (
                f"criterion {self.n} exceeded its {self.seconds}s budget: {elapsed:.2f}s")
            print(f"[acceptance] criterion {self.n} ({self.name}): "
                  f"PASS ({elapsed:.2f}s < {self.seconds}s)")
        else:
            print(f"[acceptance] criterion {self.n} ({self.name}): FAIL")
        return False


@pytest.fixture(scope="module", autouse=True)
def warm_kernels():
    scene = simple_scene(radius_m=30.0, z_max_m=20.0, voxel_m=10.0)
    grid = build_voxel_grid(scene.airspace)
    build_field(scene, grid, BeamAssignment.baseline(scene))


def test_criterion_1_radio_math():
    with _Budget(1, "radio math unit suite", 1.0):
        assert fspl_db(1000.0, 3.5e9) == pytest.approx(103.32, abs=0.01)
        for f in (0.7e9, 3.5e9, 26e9):
            for d in (1.0, 57.0, 1000.0):
                assert fspl_db(2 * d, f) - fspl_db(d, f) == pytest.approx(6.0206, abs=1e-6)
        assert noise_floor_dbm(NoiseModel(1e8, 7.0)) == -87.0
        pattern = AntennaPattern(g_max_dbi=17.0, hpbw_az_deg=65.0, hpbw_el_deg=35.0)
        north = np.array([0.0, 1.0, 0.0])
        assert gain(pattern, Orientation(0.0, 0.0), north) == pytest.approx(17.0, abs=1e-9)
        half = np.array([math.sin(math.radians(32.5)), math.cos(math.radians(32.5)), 0.0])
        assert gain(pattern, Orientation(0.0, 0.0), half) == pytest.approx(14.0, abs=1e-9)


def _random_1k_scene(seed):
    rng = np.random.default_rng(seed)
    return simple_scene(
        n_cells=int(rng.integers(2, 4)), n_beams=int(rng.integers(1, 3)),
        radius_m=80.0, z_max_m=50.0, voxel_m=10.0,
        tx_power_dbm=float(rng.uniform(10.0, 30.0)),
        pattern=AntennaPattern(g_max_dbi=float(rng.uniform(10.0, 18.0)),
                               hpbw_az_deg=float(rng.uniform(25.0, 70.0)),
                               hpbw_el_deg=float(rng.uniform(10.0, 40.0)),
                               sla_db=28.0, fbr_db=30.0),
        site_ring_m=float(rng.uniform(50.0, 90.0)),
        tilt_bounds=(0.0, 15.0))


def test_criterion_2_sinr_properties():
    with _Budget(2, "SINR properties, 20 random scenes", 30.0):
        for seed in range(20):
            scene = _random_1k_scene(seed)
            grid = build_voxel_grid(scene.airspace)
            assert 900 <= grid.count <= 1100
            noise = NoiseModel.from_radio(scene.radio)
            floor = noise_floor_dbm(noise)
            field = build_field(scene, grid, BeamAssignment.baseline(scene))
            sinr = build_sinr_field(field, noise, 1.0)
            assert np.all(sinr.sinr_db <= sinr.serving_rsrp_dbm - floor)

            # adding an interfering sub-beam (a -20 dB clone, which cannot
            # change any cell-level max) never increases SINR anywhere
            lin = field.cell_lin_mw.copy()
            lin[-1] += linear_mw(field.cell_rsrp_dbm[-1] - 20.0)
            bigger = RadioField(grid=grid, cell_ids=field.cell_ids,
                                cell_rsrp_dbm=field.cell_rsrp_dbm, cell_lin_mw=lin)
            sinr_more = build_sinr_field(bigger, noise, 1.0)
            assert np.all(sinr_more.sinr_db <= sinr.sinr_db)

            single = simple_scene(n_cells=1, n_beams=2, radius_m=80.0, z_max_m=50.0,
                                  voxel_m=10.0)
            sf = build_field(single, grid, BeamAssignment.baseline(single))
            ss = build_sinr_field(sf, NoiseModel.from_radio(single.radio), 1.0)
            np.testing.assert_array_equal(ss.sinr_db, ss.serving_rsrp_dbm - (-87.0))


def test_criterion_3_field_determinism(demo, tmp_path):
    scene, grid = demo
    with _Budget(3, "field determinism across thread counts", 30.0):
        exports = []
        for threads in (1, 2, os.cpu_count() or 4):
            field = build_field(scene, grid, BeamAssignment.baseline(scene),
                                threads=threads)
            path = tmp_path / f"field_{threads}.csv"
            with open(path, "w") as fh:
                export_field_csv(field, fh)
            exports.append(path.read_bytes())
        assert exports[0] == exports[1] == exports[2]


W = ObjectiveWeights(alpha=1.0, beta=0.1, margin_cap_db=10.0, epsilon_gain=0.005)


def test_criterion_4_optimizer_oracle_equivalence():
    with _Budget(4, "greedy vs brute-force oracle", 120.0):
        for seed in range(10):
            scene = random_instance(seed, n_cells=2, n_beams=2, n_tilts=3)
            grid = build_voxel_grid(scene.airspace)
            assert grid.count <= 300
            base = BeamAssignment.baseline(scene)
            initial = objective(scene, grid, base, W)
            optimized, trace, _ = greedy_optimize(scene, grid, base, W)
            _, best = brute_force_optimize(scene, grid, W, initial=base)
            assert initial - 1e-9 <= trace.final_objective <= best + 1e-9
            for step in trace.steps:
                assert step.objective_after >= step.objective_before - 1e-12
        for seed in range(5):
            scene = random_instance(100 + seed, n_cells=1, n_beams=1, n_tilts=3)
            grid = build_voxel_grid(scene.airspace)
            base = BeamAssignment.baseline(scene)
            _, trace, _ = greedy_optimize(scene, grid, base, W)
            _, best = brute_force_optimize(scene, grid, W, initial=base)
            assert trace.final_objective == pytest.approx(best, abs=1e-9)


def test_criterion_5_reuse_rule_soundness():
    with _Budget(5, "reuse rule soundness", 60.0):
        eager = ObjectiveWeights(alpha=1.0, beta=0.1, margin_cap_db=10.0,
                                 epsilon_gain=0.5)
        disabled = ObjectiveWeights(alpha=1.0, beta=0.1, margin_cap_db=10.0,
                                    epsilon_gain=0.0)
        total_reused = 0
        scenes = [simple_scene(n_cells=1, n_beams=2, radius_m=60.0, z_max_m=60.0,
                               voxel_m=20.0, tx_power_dbm=10.0, beam_fan_deg=0.0,
                               tilt_bounds=(0.0, 20.0), candidate_step=(10.0, 10.0))]
        scenes += [random_instance(s, n_cells=2, n_beams=3, n_tilts=3)
                   for s in range(5)]
        for scene in scenes:
            grid = build_voxel_grid(scene.airspace)
            base = BeamAssignment.baseline(scene)
            _, trace, _ = greedy_optimize(scene, grid, base, eager)
            assigned = {}
            for step in trace.steps:
                if step.reused:
                    total_reused += 1
                    assert step.cell_id in assigned
                    assert (step.chosen_az_deg, step.chosen_tilt_deg) in assigned[step.cell_id]
                    assert step.chosen_delta >= 0.0
                assigned.setdefault(step.cell_id, set()).add(
                    (step.chosen_az_deg, step.chosen_tilt_deg))
            _, trace0, _ = greedy_optimize(scene, grid, base, disabled)
            assert all(not s.reused for s in trace0.steps)
        assert total_reused > 0


def test_criterion_6_calibration_recovery():
    with _Budget(6, "calibration offset recovery", 10.0):
        predicted = np.linspace(-100.0, -60.0, 1000)
        exact = calibrate_offset(predicted, predicted + 3.0)
        assert exact.offset_db == 3.0
        assert exact.residual_rmse_db == 0.0
        for seed in range(10):
            rng = np.random.default_rng(seed)
            measured = predicted + 3.0 + rng.normal(0.0, 2.0, 1000)
            cal = calibrate_offset(predicted, measured)
            assert abs(cal.offset_db - 3.0) <= 0.2  # 3 sigma / sqrt(n)


def _smooth_flat_dataset(seed=21):
    scene = simple_scene(n_cells=2, n_beams=1, radius_m=200.0, z_max_m=100.0,
                         voxel_m=50.0, site_ring_m=150.0)
    assignment = BeamAssignment.baseline(scene)
    trajectory = lawnmower_trajectory(scene.airspace, altitudes_m=[15.0],
                                      line_spacing_m=40.0, step_m=25.0)
    mset = synthesize_measurements(scene, assignment, trajectory, sigma_db=1.0,
                                   seed=seed, warn=False)
    return scene, assignment, mset


def test_criterion_7_kriging_suite():
    with _Budget(7, "kriging suite", 60.0):
        _, _, mset = _smooth_flat_dataset()
        model = kriging_fit(mset, layer_height_m=10.0)
        points = [(tuple(p), c) for p, c in zip(mset.positions, mset.cell_ids)]
        values = kriging_predict(model, points)
        np.testing.assert_allclose(values, mset.rsrp_dbm, atol=1e-6)

        rng = np.random.default_rng(2)
        for _ in range(20):
            pos = (rng.uniform(-150, 150), rng.uniform(-150, 150), 15.0)
            w = kriging_weights(model, pos, "cell0")
            assert abs(w.sum() - 1.0) <= 1e-9

        flat = mset.subset(np.arange(len(mset)))
        flat = type(flat)(seq=flat.seq, positions=flat.positions,
                          cell_ids=flat.cell_ids,
                          rsrp_dbm=np.full(len(flat), -72.5))
        const_model = kriging_fit(flat, layer_height_m=10.0)
        out = kriging_predict(const_model, points[:20])
        np.testing.assert_allclose(out, -72.5, atol=1e-12)

        report = run_validation(mset, {
            "kriging": KrigingPredictor(layer_height_m=10.0),
            "nearest_neighbor": NearestNeighborPredictor(),
        })
        assert (report.pooled_rmse_db["kriging"]
                <= report.pooled_rmse_db["nearest_neighbor"])


def test_criterion_8_block_holdout_structure():
    with _Budget(8, "block hold-out structure", 1.0):
        for n in (10, 100, 1000):
            folds = block_holdout_folds(n, train_fraction=0.7, n_folds=3)
            expected = int(np.floor(0.3 * n))
            for k, fold in enumerate(folds):
                assert fold.test_start == k * expected
                assert abs((fold.test_stop - fold.test_start) - expected) <= 1
                union = np.union1d(fold.train_indices, fold.test_indices)
                np.testing.assert_array_equal(union, np.arange(n))


def test_criterion_9_end_to_end_desk_scale(demo):
    scene, grid = demo
    assert len(scene.cell_ids) == 6 and scene.n_sub_beams == 42
    assert 1.2e4 <= grid.count <= 1.8e4
    base = BeamAssignment.baseline(scene)
    assert all(o.tilt_deg == 0.0 for o in base.angles.values())
    thresholds = scene.thresholds
    noise = NoiseModel.from_radio(scene.radio)

    with _Budget(9, "end-to-end desk-scale optimization", 300.0):
        optimized, trace, _ = greedy_optimize(scene, grid, base, W, threads=1)
        # (a) the objective never decreases
        assert trace.final_objective >= trace.initial_objective
        for step in trace.steps:
            assert step.objective_after >= step.objective_before

        def ratios(assignment):
            field = build_field(scene, grid, assignment, threads=1)
            sinr = build_sinr_field(field, noise, 1.0)
            strict = float(np.mean(sinr.serving_rsrp_dbm >= thresholds.rsrp_strict_dbm))
            joint = float(np.mean((sinr.serving_rsrp_dbm >= thresholds.rsrp_basic_dbm)
                                  & (sinr.sinr_db >= thresholds.sinr_basic_db)))
            return strict, joint

        strict_before, joint_before = ratios(base)
        strict_after, joint_after = ratios(optimized)
        # (b) strictly better high-quality coverage
        assert strict_after > strict_before
        # (c) basic joint coverage held within one percentage point
        assert joint_after >= joint_before - 0.01
        print(f"[acceptance] criterion 9 detail: strict RSRP "
              f"{strict_before:.3f} -> {strict_after:.3f}, joint basic "
              f"{joint_before:.3f} -> {joint_after:.3f}")


@pytest.mark.skipif(
    "AIRTWIN_REAL_MEASUREMENTS" not in os.environ,
    reason="optional: set AIRTWIN_REAL_MEASUREMENTS (CSV), AIRTWIN_REAL_SCENE "
           "(scene JSON) and optionally AIRTWIN_REAL_MAPPING to run")
def test_criterion_10_real_dataset_validation():
    from airtwin.scene import load_scene

    with _Budget(10, "real-dataset validation (optional)", 1800.0):
        scene = load_scene(os.environ["AIRTWIN_REAL_SCENE"])
        mset = load_measurements(os.environ["AIRTWIN_REAL_MEASUREMENTS"],
                                 mapping=os.environ.get("AIRTWIN_REAL_MAPPING"))
        report = run_validation(mset, {
            "twin_offset": TwinPredictor(scene, BeamAssignment.baseline(scene)),
            "kriging": KrigingPredictor(),
        })
        assert len(report.folds) == 3
        twin = report.pooled_rmse_db.get("twin_offset")
        kriging = report.pooled_rmse_db.get("kriging")
        print(f"[acceptance] criterion 10 detail: twin RMSE {twin:.2f} dB, "
              f"kriging RMSE {kriging:.2f} dB, twin<=kriging: {twin <= kriging}")
