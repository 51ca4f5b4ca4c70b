"""Greedy sequential sub-beam steering with joint coverage/interference scoring.

The objective of an assignment is

    score = alpha * N_cov + beta * M

where N_cov counts voxels whose serving RSRP meets the strict RSRP threshold
AND whose SINR meets the basic SINR threshold, and M sums the per-voxel SINR
margin over the strict SINR threshold, capped at margin_cap_db (negative
contributions included).

The greedy pass visits sub-beams round-robin across cells (``default_order``),
scores every candidate lattice angle plus the current angle, and picks the
best delta. When the best delta falls below
epsilon_gain * max(objective, 1) and another sub-beam of the same cell has
already been assigned this run, the most recently assigned angle of that cell
is reused instead (aligning sub-beams within a cell), provided it is an
admissible angle for this sub-beam and its own delta is non-negative. Since
the current angle is always a candidate and reuse requires delta >= 0, the
objective never decreases.

Scoring is incremental. The pass keeps one RadioField, ``build_field``'s
cell max and cell mW sum. Within one step only the visited sub-beam's row
changes, so the step recomputes that cell's rows once and gathers what else
the score needs (the rest of its cell, the best other cell per voxel, the
other cells' interference) into a context; each candidate then costs O(N)
for N voxels, and the chosen angle rewrites that one cell. The context adds
rows and cells in the full rebuild's order (``kernels.add_rows`` over a
cell's rows, ``assemble_sinr`` over cells); floating-point addition is not
associative, so that order makes each candidate delta, the field after each
step and so the greedy choices equal the full rebuild's bit for bit.
"""

from __future__ import annotations

import json
import math
import queue
from dataclasses import dataclass

import numpy as np

from . import kernels
from .kernels import linear_mw
from .errors import ConfigurationError
from .interference import (
    assemble_sinr,
    check_activity_factor,
    first_max,
    noise_floor_dbm,
    sinr_db,
)
from .antenna import AntennaPattern, Orientation, wrap_angle_deg
from .scene import BeamAssignment, CoverageThresholds, SceneConfig, VoxelGrid
from .spectrum import RadioField, build_field

_ANGLE_EQ_TOL = 1e-9

# The objective adds one weighted term per voxel: a count of at most 1 times
# alpha, and a margin of at most a few thousand dB times beta. Weights within
# 1e100 keep it below 1e120 for any grid that fits in memory, far from float
# overflow, so every candidate delta is finite; 1e308 would turn them inf/NaN.
MAX_WEIGHT = 1e100

# A candidate costs about 20 numpy calls per block; at 2 threads, one-chunk blocks
# cost more in GIL hand-offs (20 candidates, 942,840 voxels: 0.45 s, not 0.36 s).
_SCORING_BLOCKS = 3


@dataclass(frozen=True)
class ObjectiveWeights:
    alpha: float = 1.0            # per covered voxel
    beta: float = 0.1             # per dB*voxel of SINR margin
    margin_cap_db: float = 10.0   # per-voxel margin cap
    epsilon_gain: float = 0.005   # reuse threshold, fraction of current objective

    def __post_init__(self):
        for name in ("alpha", "beta", "margin_cap_db", "epsilon_gain"):
            if not math.isfinite(getattr(self, name)):
                raise ConfigurationError(f"{name} must be finite, got {getattr(self, name)}")
        for name in ("alpha", "beta"):
            if not 0 <= getattr(self, name) <= MAX_WEIGHT:
                raise ConfigurationError(f"{name} must be in [0, {MAX_WEIGHT:g}], "
                                         f"got {getattr(self, name)}")
        if self.margin_cap_db <= 0:
            raise ConfigurationError("margin_cap_db must be > 0")
        if self.epsilon_gain < 0:
            raise ConfigurationError("epsilon_gain must be >= 0")


@dataclass(frozen=True)
class TraceStep:
    cell_id: str
    beam_index: int
    n_candidates: int
    chosen_az_deg: float
    chosen_tilt_deg: float
    reused: bool
    objective_before: float
    objective_after: float
    best_delta: float
    chosen_delta: float


@dataclass(frozen=True)
class OptimizationTrace:
    steps: tuple[TraceStep, ...]
    initial_objective: float
    final_objective: float

    def to_json_dict(self) -> list[dict]:
        return [
            {
                "cell_id": s.cell_id,
                "beam_index": s.beam_index,
                "n_candidates": s.n_candidates,
                "chosen_az_deg": round(s.chosen_az_deg, 6),
                "chosen_tilt_deg": round(s.chosen_tilt_deg, 6),
                "reused": s.reused,
                "objective_before": round(s.objective_before, 4),
                "objective_after": round(s.objective_after, 4),
                "best_delta": round(s.best_delta, 4),
                "chosen_delta": round(s.chosen_delta, 4),
            }
            for s in self.steps
        ]


def save_trace(trace: OptimizationTrace, path) -> None:
    text = json.dumps(trace.to_json_dict(), indent=2, allow_nan=False)
    with open(path, "w") as fh:
        fh.write(text + "\n")


def _score_terms(serving_rsrp_dbm, sinr_db, weights: ObjectiveWeights,
                 thresholds: CoverageThresholds, covered=None, margin=None):
    """The per-voxel part of ``score_fields``: the covered mask and the capped margin."""
    covered = np.greater_equal(serving_rsrp_dbm, thresholds.rsrp_strict_dbm, out=covered)
    covered &= sinr_db >= thresholds.sinr_basic_db
    margin = np.subtract(sinr_db, thresholds.sinr_strict_db, out=margin)
    return covered, np.minimum(margin, weights.margin_cap_db, out=margin)


def _score_total(covered, margin, weights: ObjectiveWeights) -> float:
    """The reduction of ``score_fields``, over the whole (N,) arrays.

    ``np.sum`` adds pairwise, so its bits depend on the array it sees; a
    caller that fills the arrays chunk by chunk still sums them at once.
    """
    return (weights.alpha * int(np.count_nonzero(covered))
            + weights.beta * float(np.sum(margin)))


def score_fields(serving_rsrp_dbm, sinr_db, weights: ObjectiveWeights,
                 thresholds: CoverageThresholds) -> float:
    return _score_total(*_score_terms(serving_rsrp_dbm, sinr_db, weights, thresholds),
                        weights)


@dataclass(frozen=True)
class _StepContext:
    """Everything a candidate score needs that does not depend on the candidate.

    Built for one scored sub-beam ``key`` and valid until the evaluator's
    state changes. Every array has the grid's (L, C) shape. "Rival" is the
    best cell other than the scored sub-beam's own (first max, so ties go to
    the smaller id); it serves wherever the scored cell does not.
    """

    key: tuple[str, int]
    cell: int                            # the scored sub-beam's cell, into cell_ids
    lin_before: np.ndarray               # in-order mW sum of the cell's earlier rows
    lin_after: tuple[np.ndarray, ...]    # mW of the cell's later rows, in row order
    max_other_rows: np.ndarray           # max over the cell's other rows (-inf if none)
    rival_dbm: np.ndarray                # the rival's RSRP (-inf if no other cell)
    serves_above: np.ndarray             # the scored cell serves where its max exceeds this
    interference_if_serving: np.ndarray  # in-order mW sum of every other cell
    interference_before: np.ndarray      # in-order mW sum of earlier cells, rival skipped
    interference_after: tuple[np.ndarray, ...]  # mW of each later cell, 0 where it is the rival


def _columns(geometry, lo, hi):
    """A site's (azimuth, elevation, FSPL) geometry at grid columns [lo, hi)."""
    az, el, loss = geometry
    return az[lo:hi], el[:, lo:hi], loss[:, lo:hi]


def _cell_with_row(ctx: _StepContext, voxels, row, cell_max, cell_lin):
    """The scored cell's max and mW sum at ``voxels``, with ``row`` as the scored row.

    Writes them into ``cell_max`` (which may be ``row``) and ``cell_lin``, and
    adds the rows in row order, like ``kernels.add_rows`` in build_field.
    """
    linear_mw(row, out=cell_lin)
    cell_lin += ctx.lin_before[voxels]
    for lin in ctx.lin_after:
        cell_lin += lin[voxels]
    np.maximum(row, ctx.max_other_rows[voxels], out=cell_max)


class _FieldEvaluator:
    """Scores one-angle changes of a RadioField incrementally.

    The state is the current angles and their ``RadioField``, equal to
    ``build_field`` of them bit for bit: ``set_assignment`` builds it (or
    takes the caller's build), and ``apply`` rewrites the one cell a new
    angle changes. Each site's geometry is computed once here, its azimuth
    once per column, so a row at any angle costs only the gain formula.

    ``candidate_deltas`` scores angles for one sub-beam from a per-step
    context (``_StepContext``): the visited cell's rows at the current
    angles, computed block by block by ``kernels.cell_rows`` and reduced to
    what no candidate can change. A candidate then costs one O(N) pass per
    block through a few buffers per worker into whole (L, C) covered and
    margin buffers; one count and one sum over those, seen as (N,) arrays,
    give the score for any thread count. A parametric candidate recomputes
    its wrapped, capped azimuth term (one value per column) only when its
    azimuth differs from the previous angle's, so an az-major lattice wraps
    once per lattice column; a table pattern takes ``kernels.beam_rsrp_numpy``.

    Floating-point addition is not associative, so the context keeps the
    full path's order: a cell's rows in row order, like ``kernels.add_rows``,
    and cells in cell order, like ``assemble_sinr``. So every candidate
    score equals the full rebuild's.
    """

    def __init__(self, scene, grid, weights, activity_factor, offset_db, threads=1):
        check_activity_factor(activity_factor)
        self.scene = scene
        self.grid = grid
        self.weights = weights
        self.thresholds = scene.thresholds
        self.activity_factor = float(activity_factor)
        self.offset_db = float(offset_db)
        self.threads = threads
        self.beam_keys = list(scene.beam_keys())
        self.cell_ids = scene.cell_ids
        self.geometry = {site.id: kernels.site_geometry(*grid.coordinates(), site,
                                                        scene.radio.frequency_hz)
                         for site in scene.sites}
        self.noise_floor = noise_floor_dbm(scene.radio)
        self.angles: dict[tuple[str, int], Orientation] = {}
        self.field: RadioField | None = None
        n_layers, n_columns = grid.shape
        self._tasks = kernels.chunks(n_columns, n_layers, _SCORING_BLOCKS)
        self._row = np.empty(grid.shape, dtype=np.float64)
        self._az_term = np.empty(n_columns, dtype=np.float64)
        self._covered = np.empty(grid.shape, dtype=bool)
        self._margin = np.empty(grid.shape, dtype=np.float64)
        self._objective = None
        self._context = None

    def _eval_row_into(self, key, angle, out):
        site, cell, sb = self.scene.sub_beam(*key)
        geometry = self.geometry[site.id]
        kernels.run_tasks(lambda cols: kernels.beam_rsrp_numpy(
            *_columns(geometry, *cols), sb.pattern, (angle,), cell.tx_power_dbm,
            self.offset_db, out=out[None, :, slice(*cols)]), self._tasks, self.threads)

    def set_assignment(self, assignment: BeamAssignment, field: RadioField | None = None):
        """Take ``assignment`` as the state; ``field``, if given, is its build_field."""
        if field is None:
            field = build_field(self.scene, self.grid, assignment, self.offset_db,
                                threads=self.threads)
        self.field = field
        self.angles = dict(assignment.angles)
        self._rescore()

    def _rescore(self):
        self._context = None
        _, serving_dbm, sinr = assemble_sinr(self.field.cell_rsrp_dbm, self.field.cell_lin_mw,
                                             self.noise_floor, self.activity_factor)
        self._objective = score_fields(serving_dbm, sinr, self.weights, self.thresholds)

    @property
    def objective(self) -> float:
        return self._objective

    def _step_context(self, key) -> _StepContext:
        if self._context is not None and self._context.key == key:
            return self._context
        s = self.cell_ids.index(key[0])
        keys = [k for k in self.beam_keys if k[0] == key[0]]
        j = keys.index(key)
        site, cell, _ = self.scene.sub_beam(*key)
        runs = kernels.pattern_runs((self.scene.sub_beam(*k)[2].pattern, self.angles[k])
                                    for k in keys)
        shape = self.grid.shape
        max_other_rows, lin_before = np.empty((2, *shape))
        lin_after = np.empty((len(keys) - j - 1, *shape))

        def work(bounds):   # the cell's rows on one block, reduced around row j
            lo, hi = bounds
            rows = kernels.cell_rows(_columns(self.geometry[site.id], lo, hi), runs,
                                     cell.tx_power_dbm, self.offset_db,
                                     np.empty((len(keys), shape[0], hi - lo)))
            max_other = max_other_rows[:, lo:hi]
            np.maximum.reduce(rows[:j], axis=0, initial=-np.inf, out=max_other)
            np.maximum(max_other, np.maximum.reduce(rows[j + 1:], axis=0, initial=-np.inf),
                       out=max_other)
            lin = kernels.linear_mw(rows, out=rows)
            kernels.add_rows(lin[:j], lin_before[:, lo:hi])
            lin_after[..., lo:hi] = lin[j + 1:]

        kernels.run_tasks(work, self._tasks, self.threads)
        cell_max, cell_lin = (a.reshape(-1, *shape) for a in (self.field.cell_rsrp_dbm,
                                                              self.field.cell_lin_mw))
        others = [c for c in range(len(self.cell_ids)) if c != s]
        if others:   # the serving rule of assemble_sinr: ties keep the smaller id
            rival, rival_dbm = first_max(cell_max, others)
        else:
            rival_dbm = np.full(shape, -np.inf)
            rival = np.full(shape, s + 1)
        if_serving = np.zeros(shape)
        before = np.zeros(shape)
        for c in others:
            if_serving += cell_lin[c]
            if c < s:
                np.add(before, cell_lin[c], out=before, where=rival != c)
        self._context = _StepContext(
            key=key,
            cell=s,
            lin_before=lin_before,
            lin_after=tuple(lin_after),
            max_other_rows=max_other_rows,
            rival_dbm=rival_dbm,
            # A tie goes to the smaller id; for floats, x >= r is x > nextafter(r, -inf).
            serves_above=np.where(s < rival, np.nextafter(rival_dbm, -np.inf), rival_dbm),
            interference_if_serving=if_serving,
            interference_before=before,
            interference_after=tuple(np.where(rival != c, cell_lin[c], 0.0)
                                     for c in others if c > s))
        return self._context

    def _score_chunk(self, ctx: _StepContext, voxels, row, buffers):
        """Write the covered mask and capped margin at ``voxels`` for candidate ``row``.

        ``voxels`` indexes a block of the (L, C) arrays; ``row`` and
        ``buffers`` are block-sized scratch, and ``row`` is overwritten.
        The operands and their order are those of the full path.
        """
        lin, serves, rival_serves = buffers
        _cell_with_row(ctx, voxels, row, row, lin)   # row becomes the cell max
        np.greater(row, ctx.serves_above[voxels], out=serves)
        np.less_equal(row, ctx.serves_above[voxels], out=rival_serves)
        np.copyto(row, ctx.rival_dbm[voxels], where=rival_serves)   # now the serving RSRP
        interference = np.add(ctx.interference_before[voxels], lin, out=lin)
        for term in ctx.interference_after:
            interference += term[voxels]
        np.copyto(interference, ctx.interference_if_serving[voxels], where=serves)
        sinr = sinr_db(row, interference, self.noise_floor, self.activity_factor,
                       out=interference)
        _score_terms(row, sinr, self.weights, self.thresholds,
                     self._covered[voxels], self._margin[voxels])

    def _candidate_row(self, beam, angle, new_azimuth, cols: slice, out):
        """The RSRP of ``beam`` steered to ``angle`` at columns ``cols``, into ``out``.

        A parametric pattern recomputes the wrapped, capped azimuth term of
        each column into ``_az_term`` only when ``new_azimuth``; the elevation
        term, the combine and the RSRP follow the operands and order of
        ``kernels.beam_rsrp_numpy``. A table pattern takes that function.
        """
        pattern, tx_power_dbm, az, el, loss = beam
        if not isinstance(pattern, AntennaPattern):
            kernels.beam_rsrp_numpy(az[cols], el[:, cols], loss[:, cols], pattern, (angle,),
                                    tx_power_dbm, self.offset_db, out=out[None])
            return
        a_az = self._az_term[cols]
        if new_azimuth:
            pattern.azimuth_attenuation_db(wrap_angle_deg(az[cols] - angle.azimuth_deg),
                                           out=a_az)
        np.subtract(el[:, cols], angle.tilt_deg, out=out)
        pattern.elevation_attenuation_db(out, out=out)
        pattern.gain_from_attenuation_dbi(a_az, out, out=out)
        kernels.rsrp_from_gain(tx_power_dbm, out, loss[:, cols], self.offset_db, out=out)

    def candidate_deltas(self, key, angles) -> list[float]:
        """Objective change for steering ``key`` to each angle; state unchanged."""
        ctx = self._step_context(key)
        site, cell, sb = self.scene.sub_beam(*key)
        beam = (sb.pattern, cell.tx_power_dbm, *self.geometry[site.id])
        tasks = self._tasks
        size = (self.grid.shape[0], max((hi - lo for lo, hi in tasks), default=0))
        scratch = queue.SimpleQueue()   # one set of block buffers per running task
        for _ in range(min(self.threads, len(tasks))):
            scratch.put((np.empty(size), np.empty(size), np.empty(size, dtype=bool),
                         np.empty(size, dtype=bool)))
        last_az, deltas = None, []
        for angle in angles:
            new_azimuth = angle.azimuth_deg != last_az
            last_az = angle.azimuth_deg

            def work(bounds):
                lo, hi = bounds
                chunk_buffers = scratch.get()
                try:
                    row, *buffers = (b[:, :hi - lo] for b in chunk_buffers)
                    self._candidate_row(beam, angle, new_azimuth, slice(lo, hi), row)
                    self._score_chunk(ctx, np.s_[:, lo:hi], row, buffers)
                finally:
                    scratch.put(chunk_buffers)

            kernels.run_tasks(work, tasks, self.threads)
            deltas.append(_score_total(self._covered.ravel(), self._margin.ravel(),
                                       self.weights) - self._objective)
        return deltas

    def apply(self, key, angle):
        """Steer ``key`` to ``angle``: rewrite its cell's max and mW sum, rescore."""
        ctx = self._step_context(key)
        row = self._row
        self._eval_row_into(key, angle, row)
        _cell_with_row(ctx, slice(None), row,
                       *(a[ctx.cell].reshape(row.shape) for a in (self.field.cell_rsrp_dbm,
                                                                  self.field.cell_lin_mw)))
        self.angles[key] = angle
        self._rescore()


def default_order(scene: SceneConfig) -> list[tuple[str, int]]:
    """Round-robin across cells: every cell's beam 0, then every cell's beam 1, ..."""
    keys = scene.beam_keys()   # cells in order, each cell's beams ascending
    depth = {key: sum(1 for k in keys[:i] if k[0] == key[0]) for i, key in enumerate(keys)}
    return sorted(keys, key=depth.__getitem__)   # stable: cells stay in order at each depth


def _same_angle(a: Orientation, b: Orientation) -> bool:
    return (abs(a.azimuth_deg - b.azimuth_deg) <= _ANGLE_EQ_TOL
            and abs(a.tilt_deg - b.tilt_deg) <= _ANGLE_EQ_TOL)


def greedy_optimize(scene: SceneConfig, grid: VoxelGrid, initial: BeamAssignment,
                    weights: ObjectiveWeights, *,
                    activity_factor: float = 1.0, offset_db: float = 0.0,
                    threads: int = 1, field: RadioField | None = None
                    ) -> tuple[BeamAssignment, OptimizationTrace, RadioField]:
    """One greedy sequential pass over all sub-beams; monotone by construction.

    The pass scores against ``scene.thresholds`` in ``default_order(scene)``.
    Returns the optimized assignment, the trace and the optimized assignment's
    field, which equals ``build_field`` of it. ``field`` may pass in
    ``build_field(scene, grid, initial, offset_db)`` when the caller has
    built it already; the pass then rewrites that field in place.
    """
    initial.validate_for(scene, require_lattice=True)
    ev = _FieldEvaluator(scene, grid, weights, activity_factor, offset_db, threads)
    ev.set_assignment(initial, field)
    initial_objective = ev.objective
    last_assigned: dict[str, Orientation] = {}
    steps = []

    for key in default_order(scene):
        cell_id, index = key
        _, _, sb = scene.sub_beam(cell_id, index)
        candidates = sb.lattice()
        if not candidates:
            raise ConfigurationError(f"{cell_id}[{index}] has an empty candidate lattice")
        cur = ev.angles[key]
        if not any(_same_angle(cur, c) for c in candidates):
            candidates.append(cur)   # current angle always competes, last index

        before = ev.objective
        deltas = ev.candidate_deltas(key, candidates)
        best_i = int(np.argmax(deltas))  # ties resolve to the smallest lattice index
        chosen = candidates[best_i]
        chosen_delta = best_delta = deltas[best_i]
        reused = False

        if (best_delta < weights.epsilon_gain * max(before, 1.0)
                and cell_id in last_assigned):
            reuse_angle = last_assigned[cell_id]
            # Reuse only angles this sub-beam could legally hold itself.
            if sb.admits(reuse_angle):
                matches = [i for i, c in enumerate(candidates) if _same_angle(c, reuse_angle)]
                reuse_delta = (deltas[matches[0]] if matches
                               else ev.candidate_deltas(key, [reuse_angle])[0])
                if reuse_delta >= 0.0:
                    chosen = reuse_angle
                    chosen_delta = reuse_delta
                    reused = True

        ev.apply(key, chosen)
        last_assigned[cell_id] = chosen
        steps.append(TraceStep(
            cell_id=cell_id, beam_index=index, n_candidates=len(candidates),
            chosen_az_deg=chosen.azimuth_deg, chosen_tilt_deg=chosen.tilt_deg,
            reused=reused, objective_before=before, objective_after=ev.objective,
            best_delta=best_delta, chosen_delta=chosen_delta))

    trace = OptimizationTrace(steps=tuple(steps), initial_objective=initial_objective,
                              final_objective=ev.objective)
    return BeamAssignment(ev.angles), trace, ev.field
