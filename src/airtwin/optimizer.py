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

Scoring is incremental and block-major. The pass keeps one RadioField,
``build_field``'s cell max and cell mW sum. Within one step only the
visited sub-beam's row changes, so each scoring block (a range of voxel
columns over every layer) recomputes that cell's rows on its columns,
gathers what no candidate can change there (the rest of its cell, the best
other cell per voxel, the other cells' interference) into a block context,
and scores every candidate against it; nothing per-voxel outlives its
block. A parametric pattern caps its attenuation at the front-to-back
ratio, so where no candidate's azimuth and elevation terms add up to less
than ``fbr_db`` every candidate has the same row, the pattern's floor.
Each block scores that floor row once, then every candidate on the other,
live voxels only (about 58% of the demo grid's). Each candidate leaves a
covered count and a margin sum per block. The objective, on the full path
too, sums each block's margins with one ``np.sum`` over the whole block,
floored voxels included, and adds the block sums in block order. The
context adds rows and cells in the full rebuild's order
(``kernels.add_rows`` over a cell's rows, ``assemble_sinr`` over cells);
floating-point addition is not associative, so these orders make each
candidate's total equal the full path's objective bit for bit. The chosen
angle refolds that one cell with ``build_field``'s fold, so the field after
each step is ``build_field``'s, and the objective after it is the chosen
candidate's total.
"""

from __future__ import annotations

import json
import math
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
from .spectrum import RadioField, build_field, cell_fold

_ANGLE_EQ_TOL = 1e-9

# The objective adds one weighted term per voxel: a count of at most 1 times
# alpha, and a margin of at most a few thousand dB times beta. Weights within
# 1e100 keep it below 1e120 for any grid that fits in memory, far from float
# overflow, so every candidate delta is finite; 1e308 would turn them inf/NaN.
MAX_WEIGHT = 1e100

# A scoring block is this many kernel chunks, about 73,728 voxels. Scoring
# every candidate on one block before the next, `optimize` on 942,840 voxels at
# 2 threads took 39-41 s with 1 chunk, 31-33 s with 3 and 36-37 s with 6.
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
    """Each voxel's covered flag and capped margin; ``margin`` may be ``sinr_db``."""
    covered = np.greater_equal(serving_rsrp_dbm, thresholds.rsrp_strict_dbm, out=covered)
    covered &= sinr_db >= thresholds.sinr_basic_db
    margin = np.subtract(sinr_db, thresholds.sinr_strict_db, out=margin)
    return covered, np.minimum(margin, weights.margin_cap_db, out=margin)


def _totals(table, weights: ObjectiveWeights):
    """The objective of each column of a (2, blocks, n) table of block terms.

    ``table[0]`` holds covered counts and ``table[1]`` margin sums, one row
    per scoring block; the margin sums are added in block order.
    """
    counts, margins = table
    return (weights.alpha * counts.sum(axis=0)
            + weights.beta * kernels.add_rows(margins, np.empty(margins.shape[1:])))


def score_fields(serving_rsrp_dbm, sinr_db, weights: ObjectiveWeights,
                 thresholds: CoverageThresholds, shape) -> float:
    """The objective of a grid's serving RSRP and SINR, (N,) arrays of its (L, C) ``shape``.

    The margin is summed per scoring block, a ``kernels.chunks`` range of
    columns over every layer: ``np.sum`` of each block's margins, then the
    block sums in block order, as the greedy pass sums them. ``np.sum`` adds
    pairwise, so its bits depend on the array it sees: each block's margins
    are a new C-contiguous (L, c) array, as in the greedy pass.
    """
    n_layers, n_columns = shape
    serving, sinr = (np.reshape(a, shape) for a in (serving_rsrp_dbm, sinr_db))
    blocks = kernels.chunks(n_columns, n_layers, _SCORING_BLOCKS)
    table = np.zeros((2, len(blocks), 1))
    for b, (lo, hi) in enumerate(blocks):
        covered, margin = _score_terms(serving[:, lo:hi], sinr[:, lo:hi], weights, thresholds)
        table[:, b, 0] = np.count_nonzero(covered), np.sum(margin)
    return float(_totals(table, weights)[0])


def _elevation_term(pattern, el, tilt_deg, out):
    """``pattern``'s capped elevation term at elevations ``el`` for ``tilt_deg``, into ``out``."""
    return pattern.elevation_attenuation_db(np.subtract(el, tilt_deg, out=out), out=out)


def _floored(pattern: AntennaPattern, a_az, el, tilts):
    """The voxels where no candidate lifts a sub-beam off its pattern's floor.

    ``a_az`` holds the capped azimuth term, one per column, of each
    candidate azimuth, and ``tilts`` the candidate tilts. Rounded addition
    is monotone, so where the least azimuth term plus the least elevation
    term reaches ``fbr_db``, so does every candidate's own sum: there the
    gain of every candidate is ``g_max - fbr`` bit for bit.
    """
    least, term = np.full(el.shape, np.inf), np.empty(el.shape)
    for tilt in tilts:
        np.minimum(least, _elevation_term(pattern, el, tilt, out=term), out=least)
    least += np.minimum.reduce(list(a_az), axis=0, initial=np.inf)
    return least >= pattern.fbr_db


def _columns(geometry, lo, hi):
    """A site's (azimuth, elevation, FSPL) geometry at grid columns [lo, hi)."""
    az, el, loss = geometry
    return az[lo:hi], el[:, lo:hi], loss[:, lo:hi]


class _FieldEvaluator:
    """Scores one-angle changes of a RadioField block by block.

    The state is the current angles and their ``RadioField``, equal to
    ``build_field`` of them bit for bit: ``set_assignment`` builds it (or
    takes the caller's build), and ``apply`` refolds the one cell a new
    angle changes with ``build_field``'s own fold, ``spectrum.cell_fold``.
    Each site's geometry is computed once here, its azimuth once per column.

    ``totals`` scores angles for one sub-beam one scoring block at a time, a
    ``kernels.chunks`` range of columns over every layer (``_tasks``). A
    block's context (``_block_context``) is what no candidate can change
    there: the visited cell's other rows, recomputed on the block's columns
    by ``kernels.cell_rows`` (their max, the in-order mW sum of the rows
    before the visited one and the mW of each row after it), and from the
    field's block the rival cell (the best other cell, first max, so ties go
    to the smaller id) and the other cells' interference.

    A parametric pattern's gain is ``g_max - min(a_az + a_el, fbr)``. The
    block computes each candidate azimuth's wrapped, capped term once (one
    value per column) and finds the voxels where no candidate's sum is
    below ``fbr`` (``_floored``): there every candidate's row is the floor
    row, ``g_max - fbr``, bit for bit. That row is scored once over the
    whole block, its capped margins kept in a block-sized buffer and its
    covered count on the floored voxels kept apart. The context is then
    compacted to the other, live voxels, and every candidate runs the same
    steps (``_serve_and_score``) on those alone, tilt by tilt, so one
    elevation term is held at a time. Its margins overwrite the buffer's
    live voxels and ``np.sum`` takes the whole buffer: the array it sums is
    the one the full path sums. A table pattern has no floor; all its
    voxels are live, and its rows come from ``kernels.beam_rsrp_numpy``.

    Every step is elementwise, so a voxel's values do not depend on which
    others are computed with it. Floating-point addition is not
    associative, so the scores keep the full path's order: a cell's rows in
    row order, like ``kernels.add_rows``, cells in cell order, like
    ``assemble_sinr``, and margin sums in block order, like
    ``score_fields``. So each total equals the full path's objective of the
    changed angles bit for bit, for any thread count.
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

    def set_assignment(self, assignment: BeamAssignment, field: RadioField | None = None):
        """Take ``assignment`` as the state; ``field``, if given, is its build_field."""
        if field is None:
            field = build_field(self.scene, self.grid, assignment, self.offset_db,
                                threads=self.threads)
        self.field = field
        self.angles = dict(assignment.angles)

    def objective(self) -> float:
        """The current objective on the full path: ``assemble_sinr``, then ``score_fields``."""
        _, serving_dbm, sinr = assemble_sinr(self.field.cell_rsrp_dbm, self.field.cell_lin_mw,
                                             self.noise_floor, self.activity_factor)
        return score_fields(serving_dbm, sinr, self.weights, self.thresholds, self.grid.shape)

    def _cell_blocks(self, cells, lo, hi):
        """The field's cell max and mW sum of ``cells`` at columns [lo, hi), (cells, L, c) views."""
        return (a.reshape(-1, *self.grid.shape)[cells, :, lo:hi]
                for a in (self.field.cell_rsrp_dbm, self.field.cell_lin_mw))

    def totals(self, key, angles) -> list[float]:
        """The objective of steering ``key`` to each of ``angles``; the state is unchanged."""
        s = self.cell_ids.index(key[0])
        keys = [k for k in self.beam_keys if k[0] == key[0]]
        j = keys.index(key)
        site, cell, sb = self.scene.sub_beam(*key)
        pattern = sb.pattern
        parametric = isinstance(pattern, AntennaPattern)
        runs = kernels.pattern_runs((self.scene.sub_beam(*k)[2].pattern, self.angles[k])
                                    for k in keys)
        by_tilt = {}   # candidate indices by tilt: one elevation term at a time
        for i, angle in enumerate(angles):
            by_tilt.setdefault(angle.tilt_deg, []).append(i)
        azimuths = dict.fromkeys(angle.azimuth_deg for angle in angles)
        table = np.zeros((2, len(self._tasks), len(angles)))

        def work(b):   # block b's context and floor, then every candidate on its live voxels
            az, el, loss = geometry = _columns(self.geometry[site.id], *self._tasks[b])
            context, after = self._block_context(geometry, runs, cell.tx_power_dbm, s, j,
                                                 self._tasks[b])
            if parametric:
                a_az = {azimuth: pattern.azimuth_attenuation_db(wrap_angle_deg(az - azimuth))
                        for azimuth in azimuths}
                floored = _floored(pattern, a_az.values(), el, by_tilt)
            else:   # a table pattern has no floor
                floored = np.zeros(el.shape, dtype=bool)
            row, mw, serves = np.empty(el.shape), np.empty(el.shape), np.empty(el.shape, bool)
            floor_count = 0
            if floored.any():
                floor = pattern.gain_from_attenuation_dbi(pattern.fbr_db, 0.0)
                kernels.rsrp_from_gain(cell.tx_power_dbm, floor, loss, self.offset_db, out=row)
                covered, _ = self._serve_and_score(row, context, after, mw, serves, mw)
                floor_count = np.count_nonzero(np.logical_and(covered, floored, out=covered))
            margins = mw   # the floor's margins; each candidate overwrites the live ones
            live = np.logical_not(floored, out=floored)
            del row   # before the compaction, which holds its copies and the row stack at once
            for i in range(len(context)):   # each full array dropped once compacted
                context[i] = context[i][live]
            for i, (lin, keep) in enumerate(after):   # dense: a plain add per candidate
                after[i] = np.where(keep[live], lin[live], 0.0), True
            loss, serves = loss[live], serves[live]
            cols = np.broadcast_to(np.arange(live.shape[1]), live.shape)[live]
            row, mw = np.empty((2, cols.size))
            if not parametric:   # its rows take each voxel's azimuth
                az = np.take(az, cols)
            for tilt, members in by_tilt.items():
                term = el[live]   # the elevations; a parametric pattern's term, in place
                if parametric:
                    _elevation_term(pattern, term, tilt, out=term)
                for i in members:
                    if parametric:   # kernels.beam_rsrp_numpy's operands and order
                        # "clip" writes straight into row; "raise" would buffer it
                        np.take(a_az[angles[i].azimuth_deg], cols, out=row, mode="clip")
                        pattern.gain_from_attenuation_dbi(row, term, out=row)
                        kernels.rsrp_from_gain(cell.tx_power_dbm, row, loss, self.offset_db,
                                               out=row)
                    else:
                        kernels.beam_rsrp_numpy(az, term, loss, pattern, (angles[i],),
                                                cell.tx_power_dbm, self.offset_db, out=row[None])
                    covered, margin = self._serve_and_score(row, context, after, mw, serves, mw)
                    margins[live] = margin
                    table[:, b, i] = floor_count + np.count_nonzero(covered), np.sum(margins)

        kernels.run_tasks(work, range(len(self._tasks)), self.threads)
        return _totals(table, self.weights).tolist()

    def _block_context(self, geometry, runs, tx_power_dbm, s, j, columns):
        """What no candidate for row ``j`` of cell ``s`` changes at ``columns`` [lo, hi).

        A list of (L, c) arrays: the max of the cell's other rows, the rival
        cell's RSRP (the best other cell, first max), the level a row must
        pass to serve, the interference if the cell serves, the in-order mW
        sum of the earlier cells where they do not serve; then the in-order
        mW sum of the cell's rows before ``j`` and the mW of each row after
        it. Those last are rows of the cell's stack, recomputed on the block
        by ``kernels.cell_rows``, so the stack is freed once they are
        dropped. And, for each later cell, its mW (a view of the field) and
        where it is not the rival, the voxels its mW adds to the interference.
        """
        el = geometry[1]
        cell_max, cell_lin = self._cell_blocks(slice(None), *columns)
        rows = kernels.cell_rows(geometry, runs, tx_power_dbm, self.offset_db,
                                 np.empty((sum(len(angles) for _, angles in runs), *el.shape)))
        max_other = np.maximum.reduce(rows[:j], axis=0, initial=-np.inf)
        np.maximum(max_other, np.maximum.reduce(rows[j + 1:], axis=0, initial=-np.inf),
                   out=max_other)
        lin = kernels.linear_mw(rows, out=rows)
        lin_before = kernels.add_rows(lin[:j], lin[j])   # the visited row's own slot
        others = [c for c in range(len(self.cell_ids)) if c != s]
        if others:   # the serving rule of assemble_sinr: ties keep the smaller id
            rival, rival_dbm = first_max(cell_max, others)
        else:
            rival, rival_dbm = np.full(el.shape, s + 1), np.full(el.shape, -np.inf)
        # A tie goes to the smaller id; for floats, x >= r is x > nextafter(r, -inf).
        serves_above = np.where(s < rival, np.nextafter(rival_dbm, -np.inf), rival_dbm)
        if_serving, before = np.zeros(el.shape), np.zeros(el.shape)
        after = []
        for c in others:
            if_serving += cell_lin[c]
            if c < s:
                np.add(before, cell_lin[c], out=before, where=rival != c)
            else:
                after.append((cell_lin[c], rival != c))
        return [max_other, rival_dbm, serves_above, if_serving, before, lin_before,
                *lin[j + 1:]], after

    def _serve_and_score(self, row, context, after, mw, serves, margin):
        """Covered flags and capped margins of the visited cell holding ``row``.

        ``context`` and ``after`` are ``_block_context``'s at the same voxels
        as ``row``, full or compacted; ``after`` pairs each later cell's mW
        with the voxels it adds to (``True``: every one). The steps run
        elementwise, in the full path's order: the cell's rows in row order,
        then cells in cell order. ``row``, ``mw`` and ``serves`` are
        overwritten; ``margin`` may be ``mw``.
        """
        max_other, rival_dbm, serves_above, if_serving, before, *rows = context
        linear_mw(row, out=mw)   # the cell's mW sum, rows in row order
        for term in rows:
            mw += term
        np.maximum(row, max_other, out=row)   # the cell max
        np.greater(row, serves_above, out=serves)
        np.maximum(row, rival_dbm, out=row)   # the serving RSRP
        interference = np.add(before, mw, out=mw)
        for term, keep in after:
            np.add(interference, term, out=interference, where=keep)
        np.copyto(interference, if_serving, where=serves)
        sinr = sinr_db(row, interference, self.noise_floor, self.activity_factor,
                       out=interference)
        return _score_terms(row, sinr, self.weights, self.thresholds, serves, margin)

    def apply(self, key, angle):
        """Steer ``key`` to ``angle``: refold its cell into the field, as build_field does."""
        self.angles[key] = angle
        s = self.cell_ids.index(key[0])
        geometry = self.geometry[self.scene.sub_beam(*key)[0].id]
        _, fold = cell_fold(self.scene, BeamAssignment(self.angles), self.offset_db, (key[0],))
        kernels.run_tasks(lambda cols: fold([_columns(geometry, *cols)],
                                            *self._cell_blocks(slice(s, s + 1), *cols)),
                          self._tasks, self.threads)


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
    initial_objective = objective = ev.objective()
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

        before = objective
        totals = ev.totals(key, candidates)
        deltas = [total - before for total in totals]
        best_i = int(np.argmax(deltas))  # ties resolve to the smallest lattice index
        chosen, objective = candidates[best_i], totals[best_i]
        chosen_delta = best_delta = deltas[best_i]
        reused = False

        if (best_delta < weights.epsilon_gain * max(before, 1.0)
                and cell_id in last_assigned):
            reuse_angle = last_assigned[cell_id]
            # Reuse only angles this sub-beam could legally hold itself.
            if sb.admits(reuse_angle):
                matches = [i for i, c in enumerate(candidates) if _same_angle(c, reuse_angle)]
                reuse_total = (totals[matches[0]] if matches
                               else ev.totals(key, [reuse_angle])[0])
                if reuse_total - before >= 0.0:
                    chosen, objective = reuse_angle, reuse_total
                    chosen_delta = reuse_total - before
                    reused = True

        ev.apply(key, chosen)
        last_assigned[cell_id] = chosen
        steps.append(TraceStep(
            cell_id=cell_id, beam_index=index, n_candidates=len(candidates),
            chosen_az_deg=chosen.azimuth_deg, chosen_tilt_deg=chosen.tilt_deg,
            reused=reused, objective_before=before, objective_after=objective,
            best_delta=best_delta, chosen_delta=chosen_delta))

    trace = OptimizationTrace(steps=tuple(steps), initial_objective=initial_objective,
                              final_objective=objective)
    return BeamAssignment(ev.angles), trace, ev.field
