import sys

import numpy as np
import pytest

from airtwin import validation
from airtwin.errors import EmptySetError, SizeError
from airtwin.measurements import MeasurementSet
from airtwin.scene import BeamAssignment
from airtwin.spectrum import TwinModel
from airtwin.synth import helix_trajectory, synthesize_measurements
from airtwin.validation import (
    KrigingPredictor,
    NearestNeighborPredictor,
    TwinPredictor,
    VariogramModel,
    block_holdout_folds,
    error_cdf,
    fit_variogram,
    kriging_fit,
    kriging_predict,
    kriging_weights,
    rmse,
    run_validation,
)

from conftest import simple_scene


class TestFolds:
    def test_n100_intervals(self):
        folds = block_holdout_folds(100)
        assert [(f.test_start, f.test_stop) for f in folds] == [(0, 30), (30, 60), (60, 90)]

    def test_n10_lengths(self):
        folds = block_holdout_folds(10)
        assert all(f.test_stop - f.test_start == 3 for f in folds)

    @pytest.mark.parametrize("n", [10, 100, 1000, 101, 997])
    def test_formula_and_union(self, n):
        folds = block_holdout_folds(n)
        expected_len = int(np.floor(0.3 * n))
        for f in folds:
            got_len = f.test_stop - f.test_start
            assert abs(got_len - expected_len) <= 1
            union = np.union1d(f.train_indices, f.test_indices)
            np.testing.assert_array_equal(union, np.arange(n))
        starts = [f.test_start for f in folds]
        assert starts == [k * expected_len for k in range(3)]

    def test_disjoint_tests(self):
        folds = block_holdout_folds(100)
        all_test = np.concatenate([f.test_indices for f in folds])
        assert len(np.unique(all_test)) == len(all_test)

    def test_too_small_rejected(self):
        with pytest.raises(SizeError):
            block_holdout_folds(9)

    def test_accepts_measurement_set(self):
        mset = MeasurementSet(seq=np.arange(20), positions=np.zeros((20, 3)),
                              cell_ids=np.asarray(["a"] * 20, dtype=object),
                              rsrp_dbm=np.full(20, -80.0))
        folds = block_holdout_folds(mset)
        assert folds[0].n_total == 20


class TestErrorMetrics:
    def test_rmse_unit_magnitudes(self):
        assert rmse([1.0, -1.0, 1.0, -1.0]) == 1.0

    def test_rmse_three_four(self):
        assert rmse([3.0, 4.0]) == pytest.approx(3.5355, abs=1e-4)

    def test_rmse_zeros(self):
        assert rmse([0.0] * 8) == 0.0

    def test_rmse_empty(self):
        with pytest.raises(EmptySetError):
            rmse([])

    def test_cdf_single_error_step(self):
        cdf = dict(error_cdf([2.0], grid=[1.0, 1.999, 2.0, 3.0]))
        assert cdf[1.0] == 0.0 and cdf[1.999] == 0.0
        assert cdf[2.0] == 1.0 and cdf[3.0] == 1.0

    def test_cdf_counting(self):
        cdf = dict(error_cdf([1.0, 2.0, 3.0], grid=[2.0]))
        assert cdf[2.0] == pytest.approx(2.0 / 3.0)

    def test_cdf_nondecreasing_and_uses_abs(self):
        rng = np.random.default_rng(1)
        errors = rng.normal(0, 3, 500)
        values = [p for _, p in error_cdf(errors, grid=np.linspace(0, 12, 200))]
        assert all(b >= a for a, b in zip(values, values[1:]))
        assert values[-1] == 1.0

    def test_cdf_empty(self):
        with pytest.raises(EmptySetError):
            error_cdf([])


def flat_set(positions, values, cell="a"):
    positions = np.asarray(positions, dtype=float)
    return MeasurementSet(seq=np.arange(len(positions)), positions=positions,
                          cell_ids=np.asarray([cell] * len(positions), dtype=object),
                          rsrp_dbm=np.asarray(values, dtype=float))


class TestVariogram:
    def test_gamma_zero_at_origin(self):
        v = VariogramModel(nugget=1.0, sill=4.0, range_m=100.0)
        assert v.gamma(0.0) == 0.0
        assert v.gamma(1e-9) > 0.99  # nugget appears immediately off zero

    def test_invariants(self):
        with pytest.raises(ValueError):
            VariogramModel(nugget=-1.0, sill=4.0, range_m=10.0)
        with pytest.raises(ValueError):
            VariogramModel(nugget=5.0, sill=4.0, range_m=10.0)

    def test_recovers_known_range(self):
        # Gaussian process with exponential covariance: sill 4, range 200 m
        sill, rng_m = 4.0, 200.0
        rng = np.random.default_rng(42)
        pts = rng.uniform(0.0, 1000.0, size=(500, 2))
        d = np.sqrt(((pts[:, None, :] - pts[None, :, :]) ** 2).sum(axis=2))
        cov = sill * np.exp(-3.0 * d / rng_m)
        chol = np.linalg.cholesky(cov + 1e-8 * np.eye(500))
        values = chol @ rng.standard_normal(500)
        model = fit_variogram(pts, values)
        assert 0.5 * rng_m <= model.range_m <= 1.5 * rng_m

    @staticmethod
    def _noisy_field():
        rng = np.random.default_rng(7)
        pts = rng.uniform(0.0, 500.0, size=(60, 2))
        return pts, np.sin(pts[:, 0] / 80.0) + 0.1 * rng.standard_normal(60)

    def test_fit_goes_through_module_least_squares(self, monkeypatch):
        # Tracing counts residual evaluations by patching this module attribute.
        calls = []
        scipy_fit = validation.least_squares

        def counting(fun, x0, **kwargs):
            calls.append(fun)
            return scipy_fit(fun, x0, **kwargs)

        monkeypatch.setattr(validation, "least_squares", counting)
        fit_variogram(*self._noisy_field())
        assert len(calls) >= 1
        assert "scipy.optimize" in sys.modules

    def test_missing_scipy_raises_instead_of_falling_back(self, monkeypatch):
        monkeypatch.setitem(sys.modules, "scipy.optimize", None)
        with pytest.raises(ImportError):
            fit_variogram(*self._noisy_field())


class TestKriging:
    def test_constant_field(self):
        rng = np.random.default_rng(0)
        pts = np.column_stack([rng.uniform(0, 100, 30), rng.uniform(0, 100, 30),
                               np.full(30, 5.0)])
        mset = flat_set(pts, np.full(30, -77.25))
        model = kriging_fit(mset, layer_height_m=10.0)
        out = kriging_predict(model, [((x, y, 5.0), "a")
                                      for x, y in rng.uniform(0, 100, size=(10, 2))])
        np.testing.assert_allclose(out, -77.25, atol=1e-12)

    def test_duplicate_points_fit_proceeds(self):
        pts = np.array([[0.0, 0.0, 5.0], [0.0, 0.0, 5.0], [10.0, 0.0, 5.0],
                        [0.0, 10.0, 5.0], [10.0, 10.0, 5.0]])
        mset = flat_set(pts, [-80.0, -84.0, -70.0, -72.0, -74.0])
        model = kriging_fit(mset, layer_height_m=10.0)
        out = kriging_predict(model, [((5.0, 5.0, 5.0), "a")])
        assert np.isfinite(out[0])

    def _smooth_set(self, n=120, seed=3):
        rng = np.random.default_rng(seed)
        pts = np.column_stack([rng.uniform(0, 400, n), rng.uniform(0, 400, n),
                               np.full(n, 15.0)])
        values = -70.0 - 0.02 * pts[:, 0] + 0.01 * pts[:, 1] \
            + 2.0 * np.sin(pts[:, 0] / 80.0)
        return flat_set(pts, values)

    def test_exact_interpolation_at_training_nodes(self):
        mset = self._smooth_set()
        model = kriging_fit(mset, layer_height_m=10.0)
        points = [(tuple(p), "a") for p in mset.positions]
        out = kriging_predict(model, points)
        np.testing.assert_allclose(out, mset.rsrp_dbm, atol=1e-6)

    def test_weights_sum_to_one(self):
        mset = self._smooth_set()
        model = kriging_fit(mset, layer_height_m=10.0)
        rng = np.random.default_rng(9)
        for _ in range(25):
            w = kriging_weights(model, (rng.uniform(0, 400), rng.uniform(0, 400), 15.0), "a")
            assert abs(w.sum() - 1.0) <= 1e-9

    def test_hand_solved_five_point_system(self):
        # 1 layer, 5 points; oracle solves the ordinary-Kriging system directly
        pts = np.array([[0.0, 0.0], [100.0, 0.0], [0.0, 100.0],
                        [100.0, 100.0], [40.0, 60.0]])
        vals = np.array([-80.0, -74.0, -77.0, -70.0, -75.0])
        mset = flat_set(np.column_stack([pts, np.full(5, 5.0)]), vals)
        model = kriging_fit(mset, layer_height_m=10.0)
        vario = model.layers[(0, "a")].variogram
        target = np.array([55.0, 45.0])

        def gamma(h):
            if h == 0.0:
                return 0.0
            return vario.nugget + (vario.sill - vario.nugget) * (
                1.0 - np.exp(-3.0 * h / vario.range_m))

        a = np.zeros((6, 6))
        for i in range(5):
            for j in range(5):
                if i != j:
                    a[i, j] = gamma(np.linalg.norm(pts[i] - pts[j]))
        a[5, :5] = 1.0
        a[:5, 5] = 1.0
        b = np.array([gamma(np.linalg.norm(p - target)) for p in pts] + [1.0])
        weights = np.linalg.solve(a, b)[:5]
        expected = weights @ vals
        got = kriging_predict(model, [((55.0, 45.0, 5.0), "a")])
        assert got[0] == pytest.approx(expected, abs=1e-9)

    def test_unfittable_layer_falls_back_flagged(self):
        pts = np.array([[0.0, 0.0, 5.0], [10.0, 0.0, 5.0], [0.0, 10.0, 5.0],
                        [5.0, 5.0, 55.0]])   # one lonely sample at the top layer
        mset = flat_set(pts, [-80.0, -82.0, -84.0, -60.0])
        model = kriging_fit(mset, layer_height_m=10.0)
        values, flags = kriging_predict(model, [((1.0, 1.0, 55.0), "a")],
                                        return_flags=True)
        assert flags[0]
        assert values[0] == pytest.approx(np.mean(mset.rsrp_dbm))
        assert model.unfittable == [(5, "a", 1)]


class _OraclePredictor:
    """Returns the exact ground truth of the generating model."""

    def __init__(self, model):
        self.model = model

    def fit(self, train):
        def predict(points):
            pts = list(points)
            values = self.model.predict([p[0] for p in pts], [p[1] for p in pts])
            return values, np.zeros(len(pts), dtype=bool)
        return predict


class _FailingPredictor:
    def fit(self, train):
        raise RuntimeError("deliberate failure")


class TestRunValidation:
    def _dataset(self, noise, seed=0, n_points=120, flat=False):
        scene = simple_scene(n_cells=2, n_beams=1, radius_m=200.0, z_max_m=100.0,
                             voxel_m=50.0, site_ring_m=150.0)
        assignment = BeamAssignment.baseline(scene)
        if flat:
            # dense single-altitude sweep: every fold's training surrounds the
            # held-out band within the same Kriging layer
            from airtwin.synth import lawnmower_trajectory

            trajectory = lawnmower_trajectory(scene.airspace, altitudes_m=[15.0],
                                              line_spacing_m=40.0, step_m=25.0)
        else:
            trajectory = helix_trajectory(scene.airspace, n_points=n_points, turns=4.0)
        mset = synthesize_measurements(scene, assignment, trajectory, sigma_db=noise,
                                       seed=seed, warn=False)
        return scene, assignment, mset

    def test_oracle_predictor_zero_rmse(self):
        scene, assignment, mset = self._dataset(noise=0.0)
        model = TwinModel(scene, assignment, 0.0)
        report = run_validation(mset, {
            "oracle": _OraclePredictor(model),
            "twin": TwinPredictor(scene, assignment),
        })
        for fold in report.folds:
            assert fold.rmse_db["oracle"] == pytest.approx(0.0, abs=1e-9)
        assert report.pooled_rmse_db["oracle"] == pytest.approx(0.0, abs=1e-9)
        assert report.pooled_rmse_db["twin"] == pytest.approx(0.0, abs=1e-9)

    def test_identical_predictors_identical_reports(self):
        scene, assignment, mset = self._dataset(noise=1.0, seed=5)
        report = run_validation(mset, {
            "twin_a": TwinPredictor(scene, assignment),
            "twin_b": TwinPredictor(scene, assignment),
        })
        assert report.pooled_rmse_db["twin_a"] == report.pooled_rmse_db["twin_b"]
        for fold in report.folds:
            assert fold.rmse_db["twin_a"] == fold.rmse_db["twin_b"]

    def test_known_noise_recovered(self):
        scene, assignment, mset = self._dataset(noise=2.0, seed=11, n_points=400)
        report = run_validation(mset, {
            "twin": TwinPredictor(scene, assignment),
            "nn": NearestNeighborPredictor(),
        })
        assert 1.8 <= report.pooled_rmse_db["twin"] <= 2.2

    def test_pooled_equals_concatenated_folds(self):
        scene, assignment, mset = self._dataset(noise=1.5, seed=2)
        report = run_validation(mset, {
            "twin": TwinPredictor(scene, assignment),
            "nn": NearestNeighborPredictor(),
        })
        # recompute pooled from per-fold errors via the public pieces
        folds = block_holdout_folds(mset)
        errors = []
        for fold in folds:
            train = mset.subset(fold.train_indices)
            test = mset.subset(fold.test_indices)
            predict = TwinPredictor(scene, assignment).fit(train)
            values, _ = predict(list(zip(test.positions, test.cell_ids)))
            errors.append(test.rsrp_dbm - values)
        assert report.pooled_rmse_db["twin"] == pytest.approx(
            rmse(np.concatenate(errors)), abs=1e-12)

    def test_kriging_beats_nearest_neighbor_on_smooth_field(self):
        scene, assignment, mset = self._dataset(noise=1.0, seed=21, flat=True)
        report = run_validation(mset, {
            "kriging": KrigingPredictor(layer_height_m=10.0),
            "nn": NearestNeighborPredictor(),
        })
        assert report.pooled_rmse_db["kriging"] <= report.pooled_rmse_db["nn"]

    def test_failed_predictor_marks_fold_others_proceed(self):
        scene, assignment, mset = self._dataset(noise=1.0, seed=8)
        report = run_validation(mset, {
            "twin": TwinPredictor(scene, assignment),
            "boom": _FailingPredictor(),
        })
        for fold in report.folds:
            assert "boom" in fold.failed
            assert "twin" in fold.rmse_db
        assert "boom" not in report.pooled_rmse_db

    def test_missing_scipy_fails_the_run(self, monkeypatch):
        scene, assignment, mset = self._dataset(noise=0.0)
        monkeypatch.setitem(sys.modules, "scipy.spatial", None)
        with pytest.raises(ImportError):
            run_validation(mset, {"twin": TwinPredictor(scene, assignment),
                                  "nn": NearestNeighborPredictor()})

    def test_needs_two_predictors(self):
        scene, assignment, mset = self._dataset(noise=0.0)
        with pytest.raises(ValueError):
            run_validation(mset, {"twin": TwinPredictor(scene, assignment)})
