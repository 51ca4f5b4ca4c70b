import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from airtwin import validation
from airtwin.antenna import MAX_LEVEL_DB
from airtwin.errors import EmptySetError, SizeError
from airtwin.measurements import MeasurementSet
from airtwin.scene import MAX_COORDINATE_M, BeamAssignment
from airtwin.spectrum import predict_at
from airtwin.synth import helix_trajectory, synthesize_measurements
from airtwin.validation import (
    KRIGING_NEIGHBORS,
    MIN_PARTIAL,
    MIN_RANGE_M,
    KrigingPredictor,
    NearestNeighborPredictor,
    TwinPredictor,
    VariogramModel,
    block_holdout_folds,
    error_cdf,
    fit_exponential,
    fit_variogram,
    kriging_fit,
    kriging_predict,
    rmse,
    run_validation,
)

from factories import simple_scene
from oracles import kriging_weights


class TestFolds:
    def test_n100_intervals(self):
        folds = block_holdout_folds(range(100))
        assert [(f.test_start, f.test_stop) for f in folds] == [(0, 30), (30, 60), (60, 90)]

    def test_n10_lengths(self):
        folds = block_holdout_folds(range(10))
        assert all(f.test_stop - f.test_start == 3 for f in folds)

    @pytest.mark.parametrize("n", [10, 100, 1000, 101, 997])
    def test_formula_and_union(self, n):
        folds = block_holdout_folds(range(n))
        expected_len = int(np.floor(0.3 * n))
        for f in folds:
            got_len = f.test_stop - f.test_start
            assert abs(got_len - expected_len) <= 1
            union = np.union1d(f.train_indices, f.test_indices)
            np.testing.assert_array_equal(union, np.arange(n))
        starts = [f.test_start for f in folds]
        assert starts == [k * expected_len for k in range(3)]

    def test_disjoint_tests(self):
        folds = block_holdout_folds(range(100))
        all_test = np.concatenate([f.test_indices for f in folds])
        assert len(np.unique(all_test)) == len(all_test)

    def test_too_small_rejected(self):
        with pytest.raises(SizeError):
            block_holdout_folds(range(9))

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
        assert error_cdf([2.0]) == [(2.0, 1.0)]

    def test_cdf_counting(self):
        # Right-continuous: each distinct magnitude counts every error up to it.
        cdf = dict(error_cdf([1.0, 2.0, 3.0, 2.0]))
        assert cdf == {1.0: 0.25, 2.0: 0.75, 3.0: 1.0}

    def test_cdf_nondecreasing_and_uses_abs(self):
        rng = np.random.default_rng(1)
        errors = rng.normal(0, 3, 500)
        cdf = error_cdf(errors)
        xs, values = zip(*cdf)
        assert list(xs) == sorted(set(np.abs(errors).tolist()))
        assert all(b > a for a, b in zip(values, values[1:]))
        assert values[-1] == 1.0

    def test_cdf_empty(self):
        with pytest.raises(EmptySetError):
            error_cdf([])


def flat_set(positions, values, cell="a"):
    positions = np.asarray(positions, dtype=float)
    return MeasurementSet(seq=np.arange(len(positions)), positions=positions,
                          cell_ids=np.asarray([cell] * len(positions), dtype=object),
                          rsrp_dbm=np.asarray(values, dtype=float))


def variogram_cost(lags, gammas, nugget, partial, range_m):
    return float(((nugget + partial * -np.expm1(-3.0 * lags / range_m) - gammas) ** 2).sum())


def feasible_sills(lags, gammas, range_m):
    """Candidate (nugget, partial) pairs, among them the best within bounds for this range.

    The problem is convex, so its constrained optimum is the unconstrained
    least-squares solution when that is feasible, else the best point of an edge.
    """
    f = -np.expm1(-3.0 * lags / range_m)
    (nugget, partial), *_ = np.linalg.lstsq(np.column_stack([np.ones_like(f), f]), gammas,
                                            rcond=None)
    if nugget >= 0.0 and partial >= MIN_PARTIAL:
        yield nugget, partial
    f2 = float(f @ f)
    yield 0.0, max(float(f @ gammas) / f2 if f2 > 0.0 else 0.0, MIN_PARTIAL)
    yield max(float(np.mean(gammas - MIN_PARTIAL * f)), 0.0), MIN_PARTIAL


@st.composite
def variogram_samples(draw):
    """Bounded finite points and values, with duplicate and near-coincident points."""
    coordinate = st.floats(-MAX_COORDINATE_M, MAX_COORDINATE_M)
    centers = draw(st.lists(st.tuples(coordinate, coordinate), min_size=1, max_size=5))
    spread = draw(st.sampled_from([0.0, 1e-9, 1e-3, 1.0, 1e3]))
    n = draw(st.integers(3, 25))
    offsets = st.floats(-1.0, 1.0)
    points = np.array([np.add(draw(st.sampled_from(centers)),
                              (spread * draw(offsets), spread * draw(offsets)))
                       for _ in range(n)])
    values = np.array(draw(st.lists(st.floats(-MAX_LEVEL_DB, MAX_LEVEL_DB),
                                    min_size=n, max_size=n)))
    return points, values


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

    @pytest.mark.parametrize("nugget, partial, range_m", [
        (1.0, 3.0, 200.0),
        (0.0, 3.0, 50.0),            # the nugget at its bound
        (2.5, MIN_PARTIAL, 40.0),    # a pure nugget: the partial sill at its bound
    ])
    def test_noise_free_semivariances_recovered(self, nugget, partial, range_m):
        lags = np.linspace(5.0, 100.0, 20)
        gammas = nugget + partial * (1.0 - np.exp(-3.0 * lags / range_m))
        got = fit_exponential(lags, gammas)
        assert got[0] == pytest.approx(nugget, abs=1e-6)
        assert got[1] == pytest.approx(partial, rel=1e-6, abs=1e-6)
        if partial > MIN_PARTIAL:   # else every range fits
            assert got[2] == pytest.approx(range_m, rel=1e-6)

    def test_linear_variogram_fits_as_range_to_infinity(self):
        lags = np.linspace(5.0, 100.0, 20)
        got_nugget, got_partial, got_range = fit_exponential(lags, 0.75 + 0.02 * lags)
        assert got_nugget == pytest.approx(0.75, rel=1e-6)
        assert 3.0 * got_partial / got_range == pytest.approx(0.02, rel=1e-6)   # the slope
        assert got_range >= 1e6 * lags.max()

    @settings(max_examples=300, deadline=None)
    @given(variogram_samples())
    def test_fit_is_total_and_no_worse_than_a_range_grid(self, sample):
        points, values = sample
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            model = fit_variogram(points, values)
            lags, gammas = validation.empirical_variogram(points, values)
        assert all(np.isfinite([model.nugget, model.sill, model.range_m]))
        assert model.nugget >= 0.0 and model.sill > model.nugget
        assert model.range_m >= MIN_RANGE_M
        if lags.size < 3:
            return
        cost = variogram_cost(lags, gammas, model.nugget, model.sill - model.nugget,
                              model.range_m)
        # the start point of the iterative least-squares fit this one replaced
        sill0 = max(float(np.var(values)), float(gammas.mean()), 1e-6)
        x0 = (min(gammas[0], sill0 / 2.0), sill0, max(lags.max() / 2.0, 1.0))
        references = [variogram_cost(lags, gammas, *x0)]
        lo = max(lags.min() / 10.0, MIN_RANGE_M)
        for range_m in np.geomspace(lo, max(1e6 * lags.max(), lo), 25):
            references.append(min(variogram_cost(lags, gammas, nugget, partial, range_m)
                                  for nugget, partial in feasible_sills(lags, gammas, range_m)))
        tolerance = 1e-12 * float((gammas ** 2).sum())   # rounding in the cost sums
        assert cost <= min(references) * (1.0 + 1e-12) + tolerance


class TestKriging:
    def test_constant_field(self):
        rng = np.random.default_rng(0)
        pts = np.column_stack([rng.uniform(0, 100, 30), rng.uniform(0, 100, 30),
                               np.full(30, 5.0)])
        mset = flat_set(pts, np.full(30, -77.25))
        model = kriging_fit(mset, layer_height_m=10.0)
        out, _ = kriging_predict(model, [((x, y, 5.0), "a")
                                         for x, y in rng.uniform(0, 100, size=(10, 2))])
        np.testing.assert_allclose(out, -77.25, atol=1e-12)

    def test_duplicate_points_fit_proceeds(self):
        pts = np.array([[0.0, 0.0, 5.0], [0.0, 0.0, 5.0], [10.0, 0.0, 5.0],
                        [0.0, 10.0, 5.0], [10.0, 10.0, 5.0]])
        mset = flat_set(pts, [-80.0, -84.0, -70.0, -72.0, -74.0])
        model = kriging_fit(mset, layer_height_m=10.0)
        out, _ = kriging_predict(model, [((5.0, 5.0, 5.0), "a")])
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
        out, _ = kriging_predict(model, points)
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
        got, _ = kriging_predict(model, [((55.0, 45.0, 5.0), "a")])
        assert got[0] == pytest.approx(expected, abs=1e-9)

    def test_groups_differing_in_one_value_are_each_fitted(self, monkeypatch):
        mset = self._smooth_set(n=40)
        changed = mset.rsrp_dbm.copy()
        changed[7] += 0.5
        other = flat_set(mset.positions, changed)
        calls = []
        fit = validation.fit_variogram

        def counting(points, values):
            calls.append(values)
            return fit(points, values)

        monkeypatch.setattr(validation, "fit_variogram", counting)
        fits = {}
        first = kriging_fit(mset, 10.0, fits)
        second = kriging_fit(other, 10.0, fits)
        assert len(calls) == 2
        assert second.layers[(1, "a")].values[7] == changed[7]
        assert first.layers[(1, "a")].values[7] == mset.rsrp_dbm[7]
        kriging_fit(other, 10.0, fits)   # the same content again is reused
        assert len(calls) == 2

    def test_neighbours_equal_a_stable_argsort(self):
        # a 12 x 12 integer lattice, with every node twice: most distances tie
        xs, ys = np.meshgrid(np.arange(12.0), np.arange(12.0))
        pts = np.tile(np.column_stack([xs.ravel(), ys.ravel()]), (2, 1))
        layer = validation._LayerModel(points=pts, values=np.arange(len(pts), dtype=float),
                                       variogram=VariogramModel(0.5, 4.0, 6.0), constant=None)
        targets = [(5.0, 5.0), (5.5, 5.5), (0.0, 0.0), (11.5, 3.0), (-20.0, 40.0), (6.0, 5.5)]
        for xy in map(np.asarray, targets):
            _, neigh = validation._kriging_system(layer, xy)
            d2 = ((pts - xy) ** 2).sum(axis=1)
            np.testing.assert_array_equal(neigh, np.argsort(d2, kind="stable")[:KRIGING_NEIGHBORS])

    def test_unfittable_layer_falls_back_flagged(self):
        pts = np.array([[0.0, 0.0, 5.0], [10.0, 0.0, 5.0], [0.0, 10.0, 5.0],
                        [5.0, 5.0, 55.0]])   # one lonely sample at the top layer
        mset = flat_set(pts, [-80.0, -82.0, -84.0, -60.0])
        model = kriging_fit(mset, layer_height_m=10.0)
        values, flags = kriging_predict(model, [((1.0, 1.0, 55.0), "a")])
        assert flags[0]
        assert values[0] == pytest.approx(np.mean(mset.rsrp_dbm))
        assert model.unfittable == [(5, "a", 1)]


def brute_force_nearest(train, points):
    """The first training sample at the least distance, of the point's cell if it has any."""
    values, flags = [], []
    for pos, cell_id in points:
        rows = [j for j in range(len(train)) if train.cell_ids[j] == cell_id]
        flags.append(not rows)
        best = None
        for j in rows or range(len(train)):
            d2 = sum((float(a) - float(b)) ** 2 for a, b in zip(train.positions[j], pos))
            if best is None or d2 < best[0]:
                best = (d2, train.rsrp_dbm[j])
        values.append(best[1])
    return np.asarray(values), np.asarray(flags)


class TestNearestNeighbor:
    def test_equals_brute_force(self):
        rng = np.random.default_rng(5)
        positions = rng.integers(0, 6, size=(80, 3)).astype(float)   # many ties and duplicates
        train = MeasurementSet(seq=np.arange(80), positions=positions,
                               cell_ids=np.asarray(rng.choice(["a", "b", "c"], 80), dtype=object),
                               rsrp_dbm=rng.uniform(-100.0, -60.0, 80))
        points = [(tuple(p), cell) for p in rng.integers(-1, 7, size=(40, 3)).astype(float)
                  for cell in ("a", "b", "z")]   # no training sample is of cell z
        values, flags = NearestNeighborPredictor().fit(train)(points)
        expected_values, expected_flags = brute_force_nearest(train, points)
        np.testing.assert_array_equal(values, expected_values)
        np.testing.assert_array_equal(flags, expected_flags)
        assert flags.sum() == 40


class _OraclePredictor:
    """Returns the exact ground truth of the generating model."""

    def __init__(self, scene, assignment):
        self.scene = scene
        self.assignment = assignment

    def fit(self, train):
        def predict(points):
            values = predict_at(self.scene, self.assignment, 0.0, points)
            return values, np.zeros(len(values), dtype=bool)
        return predict


class _FailingPredictor:
    def fit(self, train):
        raise RuntimeError("deliberate failure")


class _FreshKriging:
    """A new KrigingPredictor, and so no fit kept from an earlier fold, per fold."""

    def fit(self, train):
        return KrigingPredictor().fit(train)


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
                                       seed=seed)
        return scene, assignment, mset

    def test_clipped_trajectory_warns_on_stderr(self, capsys):
        scene, assignment, _ = self._dataset(noise=0.0, n_points=10)
        outside = np.array([[0.0, 0.0, 50.0], [500.0, 0.0, 50.0], [0.0, 0.0, 1e4]])
        mset = synthesize_measurements(scene, assignment, outside, sigma_db=0.0, seed=0)
        assert len(mset) == 3 * len(scene.cell_ids)
        assert capsys.readouterr().err == (
            "warning: clipped 2 trajectory point(s) to the airspace\n")

    def test_oracle_predictor_zero_rmse(self):
        scene, assignment, mset = self._dataset(noise=0.0)
        report = run_validation(mset, {
            "oracle": _OraclePredictor(scene, assignment),
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

    @pytest.mark.parametrize("n_folds", [1, 3])
    def test_fits_shared_across_folds_give_the_same_report(self, n_folds):
        _, _, mset = self._dataset(noise=2.0, seed=4, n_points=300)
        reports = [run_validation(mset, {"kriging": kriging, "nn": NearestNeighborPredictor()},
                                  n_folds=n_folds)
                   for kriging in (KrigingPredictor(), _FreshKriging())]
        assert reports[0] == reports[1]

    def test_each_distinct_group_is_fitted_once_per_run(self, monkeypatch):
        _, _, mset = self._dataset(noise=2.0, seed=4, n_points=300)
        fitted = []   # (points, values) of every variogram-fitted group, fold by fold
        for fold in block_holdout_folds(mset):
            model = kriging_fit(mset.subset(fold.train_indices))
            fitted += [(layer.points.tobytes(), layer.values.tobytes())
                       for layer in model.layers.values() if layer.variogram is not None]
        calls = []
        fit = validation.fit_variogram

        def counting(points, values):
            calls.append(values)
            return fit(points, values)

        monkeypatch.setattr(validation, "fit_variogram", counting)
        run_validation(mset, {"kriging": KrigingPredictor(), "nn": NearestNeighborPredictor()})
        assert len(calls) == len(set(fitted)) < len(fitted)

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

    def test_needs_two_predictors(self):
        scene, assignment, mset = self._dataset(noise=0.0)
        with pytest.raises(ValueError):
            run_validation(mset, {"twin": TwinPredictor(scene, assignment)})
