"""Prediction baselines and the block hold-out validation harness.

The Kriging baseline treats each altitude layer as an independent 2D
interpolation problem, fitted per (layer, cell id): an exponential variogram
is least-squares fitted to the empirical variogram (in closed form for each
range of a search, ``fit_exponential``), then ordinary-Kriging
weights (summing to 1) are solved per prediction point over the nearest
training samples. The nugget applies off-diagonal only, so the interpolator
is exact at training nodes.

Folds follow the drive-test protocol: the test set is a contiguous segment of
the trajectory (30% by default), shifted along the trajectory across folds;
everything else trains. Neighbouring folds share most of their training rows,
so ``KrigingPredictor`` keeps the (layer, cell) models it fits for the whole
run: a group whose points and values equal one fitted in an earlier fold
reuses that model instead of being fitted again.

A predictor returns its values and a fallback flag per test point. The report
pools each predictor's errors over the folds into one RMSE and one CDF of
|error| at every distinct magnitude.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .errors import EmptySetError, SizeError
from .measurements import MeasurementSet
from .spectrum import calibrate_offset, predict_at

DEFAULT_LAYER_HEIGHT_M = 10.0
KRIGING_NEIGHBORS = 32
VARIOGRAM_LAG_BINS = 20

# The variogram fit's bounds: nugget >= 0, partial sill >= MIN_PARTIAL, range >= MIN_RANGE_M.
MIN_PARTIAL = 1e-9
MIN_RANGE_M = 1e-6
# Its range search: RANGE_GRID_NODES log-spaced over [min lag / 100, 1e8 * max lag],
# then RANGE_ZOOMS rounds of RANGE_ZOOM_NODES over the bracket around the best node
# of the last round. The upper end is far out because data whose variogram is a
# line fit best as range -> inf.
RANGE_GRID_NODES = 97
RANGE_ZOOM_NODES = 33
RANGE_ZOOMS = 5


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

    L = floor(N * (1 - train_fraction)), N = ``len(measurements)``; the final
    fold is clipped to the end.
    """
    n = len(measurements)
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


def error_cdf(errors) -> list[tuple[float, float]]:
    """Empirical CDF of |errors|, right-continuous, at each distinct magnitude in order."""
    e = np.abs(np.asarray(errors, dtype=float))
    if e.size == 0:
        raise EmptySetError("error CDF of an empty error list")
    xs = np.unique(e)
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


def empirical_variogram(points: np.ndarray, values: np.ndarray):
    """Bin-averaged semivariances in ``VARIOGRAM_LAG_BINS`` bins up to half the max distance."""
    d = np.sqrt(((points[:, None, :] - points[None, :, :]) ** 2).sum(axis=2))
    sv = 0.5 * (values[:, None] - values[None, :]) ** 2
    iu = np.triu_indices(len(values), k=1)
    d, sv = d[iu], sv[iu]
    h_max = d.max() / 2.0
    if h_max <= 0:
        return np.array([]), np.array([])
    edges = np.linspace(0.0, h_max, VARIOGRAM_LAG_BINS + 1)
    lags, gammas = [], []
    for i in range(VARIOGRAM_LAG_BINS):
        in_bin = (d > edges[i]) & (d <= edges[i + 1])
        if np.any(in_bin):
            lags.append(d[in_bin].mean())
            gammas.append(sv[in_bin].mean())
    return np.asarray(lags), np.asarray(gammas)


def _best_sills(lags: np.ndarray, gammas: np.ndarray, ranges: np.ndarray):
    """Per range, the (nugget, partial) within their bounds that minimise the squared residual.

    With the range fixed the model is linear in (nugget, partial), so each
    problem is a 2-parameter box-bounded least squares: the normal equations'
    solution when it is feasible, else the better of the two bounded edges
    (nugget = 0, partial = MIN_PARTIAL), each solved in one variable and clamped.
    Returns (nugget, partial, cost), one entry per range.
    """
    f = -np.expm1(-3.0 * lags / ranges[:, None])          # (ranges, lags), in [0, 1]
    f_mean, g_mean = f.mean(axis=1), gammas.mean()
    fc = f - f_mean[:, None]
    f_var = (fc * fc).mean(axis=1)
    fg_cov = (fc @ (gammas - g_mean)) / lags.size
    partial = fg_cov / np.where(f_var > 0.0, f_var, 1.0)
    nugget = g_mean - partial * f_mean
    free = (partial >= MIN_PARTIAL) & (nugget >= 0.0)

    f_sq = f_var + f_mean * f_mean
    edge_partial = np.maximum((fg_cov + f_mean * g_mean) / np.where(f_sq > 0.0, f_sq, 1.0),
                              MIN_PARTIAL)
    edge_nugget = np.maximum(g_mean - MIN_PARTIAL * f_mean, 0.0)
    on_nugget_edge = (((edge_partial[:, None] * f - gammas) ** 2).sum(axis=1)
                      <= ((edge_nugget[:, None] + MIN_PARTIAL * f - gammas) ** 2).sum(axis=1))
    nugget = np.where(free, nugget, np.where(on_nugget_edge, 0.0, edge_nugget))
    partial = np.where(free, partial, np.where(on_nugget_edge, edge_partial, MIN_PARTIAL))
    cost = ((nugget[:, None] + partial[:, None] * f - gammas) ** 2).sum(axis=1)
    return nugget, partial, cost


def fit_exponential(lags: np.ndarray, gammas: np.ndarray) -> tuple[float, float, float]:
    """The (nugget, partial sill, range) least-squares fit of an exponential variogram.

    Minimises sum((nugget + partial * (1 - exp(-3 lags / range)) - gammas)^2)
    subject to nugget >= 0, partial >= MIN_PARTIAL and range >= MIN_RANGE_M, by
    variable projection (Golub & Pereyra 1973): ``_best_sills`` solves the
    linear parameters in closed form for every range of a log-spaced grid, and
    the search zooms in on the bracket around the best range. No iterative
    solver is involved, so finite input always gives a finite fit.
    """
    lo = max(float(lags.min()) / 100.0, MIN_RANGE_M)
    ranges = np.geomspace(lo, max(1e8 * float(lags.max()), lo), RANGE_GRID_NODES)
    best = (np.inf, 0.0, MIN_PARTIAL, lo)
    for _ in range(RANGE_ZOOMS + 1):
        nugget, partial, cost = _best_sills(lags, gammas, ranges)
        i = int(np.argmin(cost))
        if cost[i] < best[0]:
            best = (cost[i], nugget[i], partial[i], ranges[i])
        ranges = np.geomspace(ranges[max(i - 1, 0)], ranges[min(i + 1, len(ranges) - 1)],
                              RANGE_ZOOM_NODES)
    return float(best[1]), float(best[2]), float(best[3])


def fit_variogram(points: np.ndarray, values: np.ndarray) -> VariogramModel:
    """Least-squares exponential variogram fit over empirical bin means."""
    lags, gammas = empirical_variogram(points, values)
    if lags.size < 3:
        h_max = float(lags.max()) if lags.size else 1.0
        return VariogramModel(nugget=0.0, sill=max(float(np.var(values)), 1e-6),
                              range_m=max(h_max, 1.0))
    nugget, partial, range_m = fit_exponential(lags, gammas)
    return VariogramModel(nugget=nugget, sill=nugget + partial, range_m=range_m)


@dataclass
class _LayerModel:
    points: np.ndarray          # (n, 2)
    values: np.ndarray          # (n,)
    variogram: VariogramModel | None   # None => constant field
    constant: float | None


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


def _fit_layer(points: np.ndarray, values: np.ndarray) -> _LayerModel:
    """The (layer, cell) model of one group of 3+ samples."""
    if np.ptp(values) == 0.0:
        return _LayerModel(points=points, values=values, variogram=None,
                           constant=float(values[0]))
    return _LayerModel(points=points, values=values, variogram=fit_variogram(points, values),
                       constant=None)


def kriging_fit(train: MeasurementSet, layer_height_m: float = DEFAULT_LAYER_HEIGHT_M,
                fits: dict | None = None) -> KrigingModel:
    """Partition training samples into altitude layers and fit per (layer, cell).

    ``fits`` maps the bytes of a group's (points, values) to the model fitted
    from them. A group found there is reused, and each new fit is added. The
    key is the content, not (layer, cell), because which samples a (layer,
    cell) group holds changes with the training set.
    """
    if len(train) == 0:
        raise EmptySetError("kriging_fit needs a nonempty training set")
    fits = {} if fits is None else fits
    bins = np.floor(train.positions[:, 2] / layer_height_m).astype(int)
    layers: dict = {}
    unfittable = []
    groups: dict = {}
    for i in range(len(train)):
        groups.setdefault((int(bins[i]), str(train.cell_ids[i])), []).append(i)

    for key, rows in sorted(groups.items()):
        if len(rows) < 3:
            unfittable.append((key[0], key[1], len(rows)))
            continue
        idx = np.asarray(rows)
        pts = train.positions[idx][:, :2]
        vals = train.rsrp_dbm[idx]
        content = (pts.tobytes(), vals.tobytes())
        if content not in fits:
            fits[content] = _fit_layer(pts, vals)
        layers[key] = fits[content]
    if not layers:
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

    The neighbours are the ``KRIGING_NEIGHBORS`` nearest, ordered by squared
    distance; ties go to the lower index, as in a stable argsort. Returns
    (weights, neighbour indices); the weights sum to 1.
    """
    d2 = ((model.points - xy) ** 2).sum(axis=1)
    neigh = np.arange(len(d2))
    if len(d2) > KRIGING_NEIGHBORS:
        kth = np.partition(d2, KRIGING_NEIGHBORS - 1)[KRIGING_NEIGHBORS - 1]
        near = np.concatenate([np.flatnonzero(d2 < kth),
                               np.flatnonzero(d2 == kth)])[:KRIGING_NEIGHBORS]
        neigh = near[np.argsort(d2[near], kind="stable")]
    pts = model.points[neigh]
    k = len(neigh)
    d = np.sqrt(((pts[:, None, :] - pts[None, :, :]) ** 2).sum(axis=2))
    a = np.empty((k + 1, k + 1))
    a[:k, :k] = model.variogram.gamma(d)
    np.fill_diagonal(a[:k, :k], 0.0)   # nugget off-diagonal only
    a[k, :k] = 1.0
    a[:k, k] = 1.0
    a[k, k] = 0.0
    b = np.empty(k + 1)
    b[:k] = model.variogram.gamma(np.sqrt(d2[neigh]))
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


def kriging_predict(model: KrigingModel, points) -> tuple[np.ndarray, np.ndarray]:
    """Ordinary-Kriging predictions at (position, cell id) points, and their fallback flags.

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
    return values, flags


# ---------------------------------------------------------------------------
# Predictors for the harness
# ---------------------------------------------------------------------------
class TwinPredictor:
    """The spectrum twin with its global offset calibrated on the training split."""

    def __init__(self, scene, assignment):
        self.scene = scene
        self.assignment = assignment

    def fit(self, train: MeasurementSet):
        cal = calibrate_offset(predict_at(self.scene, self.assignment, 0.0,
                                          zip(train.positions, train.cell_ids)), train)

        def predict(points):
            predicted = predict_at(self.scene, self.assignment, cal.offset_db, points)
            return predicted, np.zeros(len(predicted), dtype=bool)

        return predict


class KrigingPredictor:
    """Per-(layer, cell) ordinary Kriging, reusing each group's fit across the folds of a run."""

    def __init__(self, layer_height_m: float = DEFAULT_LAYER_HEIGHT_M):
        self.layer_height_m = layer_height_m
        self.fits: dict = {}   # see kriging_fit

    def fit(self, train: MeasurementSet):
        model = kriging_fit(train, self.layer_height_m, self.fits)

        def predict(points):
            return kriging_predict(model, points)

        return predict


class NearestNeighborPredictor:
    """Plain nearest-training-sample lookup per cell (the Kriging foil).

    A point of a cell absent from training takes the nearest sample of any
    cell and is flagged. Of samples at the same distance, the first wins.
    """

    def fit(self, train: MeasurementSet):
        samples = {}   # cell id -> (positions, rsrp)
        for cid in sorted(set(str(c) for c in train.cell_ids)):
            sel = np.asarray([str(c) == cid for c in train.cell_ids])
            samples[cid] = (train.positions[sel], train.rsrp_dbm[sel])
        everything = (train.positions, train.rsrp_dbm)

        def predict(points):
            pts = list(points)
            out = np.empty(len(pts))
            flags = np.zeros(len(pts), dtype=bool)
            for i, (pos, cell_id) in enumerate(pts):
                flags[i] = str(cell_id) not in samples
                positions, values = samples.get(str(cell_id), everything)
                out[i] = values[np.argmin(((positions - np.asarray(pos, dtype=float)) ** 2)
                                          .sum(axis=1))]
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
                   train_fraction: float = 0.7, n_folds: int = 3) -> ValidationReport:
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
            cdfs[name] = error_cdf(errors)
    return ValidationReport(folds=fold_results, pooled_rmse_db=pooled_rmse,
                            cdf=cdfs, n_samples=len(measurements),
                            train_fraction=train_fraction)


def save_validation_report(report: ValidationReport, path) -> None:
    with open(path, "w") as fh:
        json.dump(report.to_json_dict(), fh, indent=2, sort_keys=True)
        fh.write("\n")
