"""Prediction baselines and the block hold-out validation harness.

The Kriging baseline treats each altitude layer as an independent 2D
interpolation problem, fitted per (layer, cell id): an exponential variogram
is least-squares fitted to the empirical variogram, then ordinary-Kriging
weights (summing to 1) are solved per prediction point over the nearest
training samples. The nugget applies off-diagonal only, so the interpolator
is exact at training nodes.

Folds follow the drive-test protocol: the test set is a contiguous segment of
the trajectory (30% by default), shifted along the trajectory across folds;
everything else trains.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from .errors import EmptySetError, SizeError
from .measurements import MeasurementSet
from .spectrum import TwinModel, calibrate_offset

if TYPE_CHECKING:
    from scipy.spatial import cKDTree

DEFAULT_LAYER_HEIGHT_M = 10.0
KRIGING_NEIGHBORS = 32
VARIOGRAM_LAG_BINS = 20


# scipy is imported on first use, so only the commands that fit or query a
# baseline pay its import time. fit_variogram calls this module attribute, so
# a wrapper put in its place (the benchmark's trace counts residual
# evaluations that way) sees every fit.
def least_squares(fun, x0, **kwargs):
    """``scipy.optimize.least_squares``, imported at the first call."""
    from scipy.optimize import least_squares as scipy_least_squares

    return scipy_least_squares(fun, x0, **kwargs)


# ---------------------------------------------------------------------------
# Fold construction
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class FoldSpec:
    """One block hold-out fold: a contiguous test interval, train = complement."""

    fold_id: int
    test_start: int   # inclusive row index
    test_stop: int    # exclusive
    n_total: int

    @property
    def test_indices(self) -> np.ndarray:
        return np.arange(self.test_start, self.test_stop)

    @property
    def train_indices(self) -> np.ndarray:
        return np.concatenate([np.arange(0, self.test_start),
                               np.arange(self.test_stop, self.n_total)])


def block_holdout_folds(measurements, train_fraction: float = 0.7,
                        n_folds: int = 3) -> list[FoldSpec]:
    """Contiguous shifted test segments: fold k tests rows [k*L, k*L + L).

    L = floor(N * (1 - train_fraction)); the final fold is clipped to the end.
    Accepts a MeasurementSet or a plain sample count.
    """
    n = measurements if isinstance(measurements, int) else len(measurements)
    if n < 10:
        raise SizeError(f"need at least 10 samples for block hold-out, got {n}")
    if not 0.0 < train_fraction < 1.0:
        raise ValueError("train_fraction must be in (0, 1)")
    test_len = int(np.floor(n * (1.0 - train_fraction)))
    if test_len < 1:
        raise SizeError(f"test segment would be empty for n={n}")
    folds = []
    for k in range(n_folds):
        start = k * test_len
        stop = min(start + test_len, n)
        if start >= n:
            raise SizeError(f"fold {k} starts past the end of the trajectory")
        folds.append(FoldSpec(fold_id=k, test_start=start, test_stop=stop, n_total=n))
    return folds


# ---------------------------------------------------------------------------
# Error metrics
# ---------------------------------------------------------------------------
def rmse(errors) -> float:
    e = np.asarray(errors, dtype=float)
    if e.size == 0:
        raise EmptySetError("rmse of an empty error list")
    return float(np.sqrt(np.mean(e ** 2)))


def error_cdf(errors, grid=None) -> list[tuple[float, float]]:
    """Empirical CDF of |errors|, right-continuous, evaluated on ``grid``.

    Defaults to the sorted distinct magnitudes when no grid is given.
    """
    e = np.abs(np.asarray(errors, dtype=float))
    if e.size == 0:
        raise EmptySetError("error CDF of an empty error list")
    xs = np.unique(e) if grid is None else np.asarray(grid, dtype=float)
    e_sorted = np.sort(e)
    counts = np.searchsorted(e_sorted, xs, side="right")
    return [(float(x), float(c) / e.size) for x, c in zip(xs, counts)]


# ---------------------------------------------------------------------------
# Variogram and ordinary Kriging
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class VariogramModel:
    """Exponential variogram with practical range: nugget + (sill-nugget)(1-exp(-3h/range))."""

    nugget: float
    sill: float
    range_m: float
    kind: str = "exponential"

    def __post_init__(self):
        if self.nugget < 0:
            raise ValueError("nugget must be >= 0")
        if self.sill <= self.nugget:
            raise ValueError("sill must exceed nugget")
        if self.range_m <= 0:
            raise ValueError("range_m must be > 0")

    def gamma(self, h):
        """Semivariance at lag h; gamma(0) = 0 (nugget is off-diagonal only)."""
        h = np.asarray(h, dtype=float)
        g = self.nugget + (self.sill - self.nugget) * (1.0 - np.exp(-3.0 * h / self.range_m))
        return np.where(h == 0.0, 0.0, g)


def empirical_variogram(points: np.ndarray, values: np.ndarray,
                        n_bins: int = VARIOGRAM_LAG_BINS):
    """Bin-averaged semivariances up to half the max pairwise distance."""
    d = np.sqrt(((points[:, None, :] - points[None, :, :]) ** 2).sum(axis=2))
    sv = 0.5 * (values[:, None] - values[None, :]) ** 2
    iu = np.triu_indices(len(values), k=1)
    d, sv = d[iu], sv[iu]
    h_max = d.max() / 2.0
    if h_max <= 0:
        return np.array([]), np.array([])
    edges = np.linspace(0.0, h_max, n_bins + 1)
    lags, gammas = [], []
    for i in range(n_bins):
        in_bin = (d > edges[i]) & (d <= edges[i + 1])
        if np.any(in_bin):
            lags.append(d[in_bin].mean())
            gammas.append(sv[in_bin].mean())
    return np.asarray(lags), np.asarray(gammas)


def fit_variogram(points: np.ndarray, values: np.ndarray) -> VariogramModel:
    """Least-squares exponential variogram fit over empirical bin means."""
    lags, gammas = empirical_variogram(points, values)
    var = float(np.var(values))
    h_max = float(lags.max()) if lags.size else 1.0
    if lags.size < 3:
        return VariogramModel(nugget=0.0, sill=max(var, 1e-6), range_m=max(h_max, 1.0))

    def residual(params):
        nugget, partial, rng = params
        model = nugget + partial * (1.0 - np.exp(-3.0 * lags / rng))
        return model - gammas

    sill0 = max(var, float(gammas.mean()), 1e-6)
    x0 = np.array([min(gammas[0], sill0 / 2.0), sill0, max(h_max / 2.0, 1.0)])
    try:
        fit = least_squares(residual, x0=x0,
                            bounds=([0.0, 1e-9, 1e-6], [np.inf, np.inf, np.inf]))
        nugget, partial, rng = fit.x
    except ImportError:
        raise   # a missing scipy is not a failed fit
    except Exception:
        nugget, partial, rng = 0.0, sill0, max(h_max / 3.0, 1.0)
    return VariogramModel(nugget=float(nugget), sill=float(nugget + max(partial, 1e-9)),
                          range_m=float(rng))


@dataclass
class _LayerModel:
    points: np.ndarray          # (n, 2)
    values: np.ndarray          # (n,)
    variogram: VariogramModel | None   # None => constant field
    constant: float | None
    tree: cKDTree | None = None


@dataclass
class KrigingModel:
    """Per-(altitude layer, cell) ordinary-Kriging models plus fallbacks."""

    layer_height_m: float
    layers: dict                 # (layer_bin, cell_id) -> _LayerModel
    cell_means: dict             # cell_id -> float
    global_mean: float
    unfittable: list = field(default_factory=list)   # (layer_bin, cell_id, n_samples)


def _layer_bin(z: float, layer_height_m: float) -> int:
    return int(np.floor(z / layer_height_m))


def kriging_fit(train: MeasurementSet, layer_height_m: float = DEFAULT_LAYER_HEIGHT_M) -> KrigingModel:
    """Partition training samples into altitude layers and fit per (layer, cell)."""
    from scipy.spatial import cKDTree

    if len(train) == 0:
        raise EmptySetError("kriging_fit needs a nonempty training set")
    bins = np.floor(train.positions[:, 2] / layer_height_m).astype(int)
    layers: dict = {}
    unfittable = []
    groups: dict = {}
    for i in range(len(train)):
        groups.setdefault((int(bins[i]), str(train.cell_ids[i])), []).append(i)

    fitted_any = False
    for key, rows in sorted(groups.items()):
        idx = np.asarray(rows)
        pts = train.positions[idx][:, :2]
        vals = train.rsrp_dbm[idx]
        if len(rows) < 3:
            unfittable.append((key[0], key[1], len(rows)))
            continue
        if np.ptp(vals) == 0.0:
            layers[key] = _LayerModel(points=pts, values=vals, variogram=None,
                                      constant=float(vals[0]))
            fitted_any = True
            continue
        vario = fit_variogram(pts, vals)
        layers[key] = _LayerModel(points=pts, values=vals, variogram=vario,
                                  constant=None, tree=cKDTree(pts))
        fitted_any = True
    if not fitted_any:
        raise SizeError("no (layer, cell) group has the 3+ samples needed to fit")

    cell_means = {}
    for cid in sorted(set(str(c) for c in train.cell_ids)):
        sel = np.asarray([str(c) == cid for c in train.cell_ids])
        cell_means[cid] = float(np.mean(train.rsrp_dbm[sel]))
    return KrigingModel(layer_height_m=layer_height_m, layers=layers,
                        cell_means=cell_means,
                        global_mean=float(np.mean(train.rsrp_dbm)),
                        unfittable=unfittable)


def _kriging_system(model: _LayerModel, xy: np.ndarray):
    """Ordinary-Kriging weights at ``xy`` over its nearest training samples.

    Returns (weights, neighbour indices); the weights sum to 1.
    """
    n = len(model.values)
    if n > KRIGING_NEIGHBORS:
        _, neigh = model.tree.query(xy, k=KRIGING_NEIGHBORS)
        neigh = np.atleast_1d(neigh)
    else:
        neigh = np.arange(n)
    pts = model.points[neigh]
    k = len(neigh)
    d = np.sqrt(((pts[:, None, :] - pts[None, :, :]) ** 2).sum(axis=2))
    a = np.empty((k + 1, k + 1))
    a[:k, :k] = model.variogram.gamma(d)
    np.fill_diagonal(a[:k, :k], 0.0)   # nugget off-diagonal only
    a[k, :k] = 1.0
    a[:k, k] = 1.0
    a[k, k] = 0.0
    d0 = np.sqrt(((pts - xy) ** 2).sum(axis=1))
    b = np.empty(k + 1)
    b[:k] = model.variogram.gamma(d0)
    b[k] = 1.0
    try:
        sol = np.linalg.solve(a, b)
    except np.linalg.LinAlgError:
        sol = np.linalg.lstsq(a, b, rcond=None)[0]
    return sol[:k], neigh


def _krige_point(model: _LayerModel, xy: np.ndarray) -> float:
    if model.variogram is None:
        return float(model.constant)
    weights, neigh = _kriging_system(model, xy)
    return float(weights @ model.values[neigh])


def kriging_predict(model: KrigingModel, points, return_flags: bool = False):
    """Ordinary-Kriging predictions at (position, cell id) points.

    Points whose (layer, cell) has no fitted model fall back to the training
    mean of that cell (or the global mean) and are flagged.
    """
    pts = list(points)
    values = np.empty(len(pts), dtype=float)
    flags = np.zeros(len(pts), dtype=bool)
    for i, (pos, cell_id) in enumerate(pts):
        pos = np.asarray(pos, dtype=float)
        key = (_layer_bin(pos[2], model.layer_height_m), str(cell_id))
        layer = model.layers.get(key)
        if layer is None:
            values[i] = model.cell_means.get(str(cell_id), model.global_mean)
            flags[i] = True
        else:
            values[i] = _krige_point(layer, pos[:2])
    if return_flags:
        return values, flags
    return values


def kriging_weights(model: KrigingModel, position, cell_id: str) -> np.ndarray:
    """Kriging weights for one prediction (exposed for the unbiasedness check)."""
    pos = np.asarray(position, dtype=float)
    key = (_layer_bin(pos[2], model.layer_height_m), str(cell_id))
    layer = model.layers[key]
    if layer.variogram is None:
        return np.full(len(layer.values), 1.0 / len(layer.values))
    return _kriging_system(layer, pos[:2])[0]


# ---------------------------------------------------------------------------
# Predictors for the harness
# ---------------------------------------------------------------------------
class TwinPredictor:
    """The spectrum twin with its global offset calibrated on the training split."""

    def __init__(self, scene, assignment):
        self.scene = scene
        self.assignment = assignment

    def fit(self, train: MeasurementSet):
        base = TwinModel(self.scene, self.assignment, offset_db=0.0)
        cal = calibrate_offset(base.predict_set(train), train)
        model = TwinModel(self.scene, self.assignment, offset_db=cal.offset_db)

        def predict(points):
            pts = list(points)
            positions = [p[0] for p in pts]
            ids = [p[1] for p in pts]
            return model.predict(positions, ids), np.zeros(len(pts), dtype=bool)

        return predict


class KrigingPredictor:
    def __init__(self, layer_height_m: float = DEFAULT_LAYER_HEIGHT_M):
        self.layer_height_m = layer_height_m

    def fit(self, train: MeasurementSet):
        model = kriging_fit(train, self.layer_height_m)

        def predict(points):
            return kriging_predict(model, points, return_flags=True)

        return predict


class NearestNeighborPredictor:
    """Plain nearest-training-sample lookup per cell (the Kriging foil)."""

    def fit(self, train: MeasurementSet):
        from scipy.spatial import cKDTree

        trees = {}
        values = {}
        for cid in sorted(set(str(c) for c in train.cell_ids)):
            sel = np.asarray([str(c) == cid for c in train.cell_ids])
            trees[cid] = cKDTree(train.positions[sel])
            values[cid] = train.rsrp_dbm[sel]
        all_tree = cKDTree(train.positions)
        all_values = train.rsrp_dbm

        def predict(points):
            pts = list(points)
            out = np.empty(len(pts))
            flags = np.zeros(len(pts), dtype=bool)
            for i, (pos, cell_id) in enumerate(pts):
                cid = str(cell_id)
                if cid in trees:
                    _, j = trees[cid].query(np.asarray(pos, dtype=float))
                    out[i] = values[cid][j]
                else:
                    _, j = all_tree.query(np.asarray(pos, dtype=float))
                    out[i] = all_values[j]
                    flags[i] = True
            return out, flags

        return predict


# ---------------------------------------------------------------------------
# Validation harness
# ---------------------------------------------------------------------------
@dataclass
class FoldResult:
    fold_id: int
    test_start: int
    test_stop: int
    n_test: int
    rmse_db: dict              # predictor name -> rmse
    n_fallback: dict           # predictor name -> flagged prediction count
    failed: dict               # predictor name -> error string (only failures)


@dataclass
class ValidationReport:
    folds: list
    pooled_rmse_db: dict       # predictor name -> rmse over concatenated errors
    cdf: dict                  # predictor name -> [(x, F(x)), ...]
    n_samples: int
    train_fraction: float

    def to_json_dict(self) -> dict:
        return {
            "n_samples": self.n_samples,
            "train_fraction": self.train_fraction,
            "folds": [
                {
                    "fold": f.fold_id,
                    "test_start": f.test_start,
                    "test_stop": f.test_stop,
                    "n_test": f.n_test,
                    "rmse_db": {k: round(v, 4) for k, v in sorted(f.rmse_db.items())},
                    "n_fallback": dict(sorted(f.n_fallback.items())),
                    "failed": dict(sorted(f.failed.items())),
                }
                for f in self.folds
            ],
            "pooled_rmse_db": {k: round(v, 4) for k, v in sorted(self.pooled_rmse_db.items())},
            "cdf": {k: [[round(x, 4), round(p, 6)] for x, p in v]
                    for k, v in sorted(self.cdf.items())},
        }


def run_validation(measurements: MeasurementSet, predictors: dict,
                   train_fraction: float = 0.7, n_folds: int = 3,
                   cdf_grid=None) -> ValidationReport:
    """Fit every predictor per fold, evaluate on identical test points, report.

    ``predictors`` maps a name to an object with ``fit(train) -> predict``,
    where ``predict(points) -> (values, fallback_flags)``.
    """
    if len(predictors) < 2:
        raise ValueError("run_validation expects at least 2 named predictors")
    folds = block_holdout_folds(measurements, train_fraction, n_folds)
    pooled_errors: dict = {name: [] for name in predictors}
    fold_results = []
    for fold in folds:
        train = measurements.subset(fold.train_indices)
        test = measurements.subset(fold.test_indices)
        points = list(zip(test.positions, test.cell_ids))
        rmse_db, n_fallback, failed = {}, {}, {}
        for name, predictor in predictors.items():
            try:
                predict = predictor.fit(train)
                values, flags = predict(points)
                errors = test.rsrp_dbm - np.asarray(values)
                rmse_db[name] = rmse(errors)
                n_fallback[name] = int(np.count_nonzero(flags))
                pooled_errors[name].append(errors)
            except ImportError:
                raise   # a missing scipy fails the run, not one predictor
            except Exception as exc:   # a failed predictor must not sink the fold
                failed[name] = f"{type(exc).__name__}: {exc}"
        fold_results.append(FoldResult(
            fold_id=fold.fold_id, test_start=fold.test_start, test_stop=fold.test_stop,
            n_test=fold.test_stop - fold.test_start, rmse_db=rmse_db,
            n_fallback=n_fallback, failed=failed))

    pooled_rmse, cdfs = {}, {}
    for name, chunks in pooled_errors.items():
        if chunks:
            errors = np.concatenate(chunks)
            pooled_rmse[name] = rmse(errors)
            cdfs[name] = error_cdf(errors, cdf_grid)
    return ValidationReport(folds=fold_results, pooled_rmse_db=pooled_rmse,
                            cdf=cdfs, n_samples=len(measurements),
                            train_fraction=train_fraction)


def save_validation_report(report: ValidationReport, path) -> None:
    with open(path, "w") as fh:
        json.dump(report.to_json_dict(), fh, indent=2, sort_keys=True)
        fh.write("\n")
