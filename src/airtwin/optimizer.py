"""Greedy sequential sub-beam steering with joint coverage/interference scoring.

The objective of an assignment is

    score = alpha * N_cov + beta * M

where N_cov counts voxels whose serving RSRP meets the strict RSRP threshold
AND whose SINR meets the basic SINR threshold, and M sums the per-voxel SINR
margin over the strict SINR threshold, capped at margin_cap_db (negative
contributions included).

The greedy pass visits sub-beams in a fixed order (default: round-robin
across cells), scores every candidate lattice angle plus the current angle,
and picks the best delta. When the best delta falls below
epsilon_gain * max(objective, 1) and another sub-beam of the same cell has
already been assigned this run, the most recently assigned angle of that cell
is reused instead (aligning sub-beams within a cell), provided it is an
admissible angle for this sub-beam and its own delta is non-negative. Since
the current angle is always a candidate and reuse requires delta >= 0, the
objective never decreases.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass

import numpy as np

from . import kernels
from .errors import BoundsError, CapExceededError, ConfigurationError
from .interference import (
    NoiseModel,
    assemble_sinr,
    build_sinr_field,
    cell_linear_sums,
    noise_floor_dbm,
)
from .antenna import Orientation
from .scene import BeamAssignment, CoverageThresholds, SceneConfig, VoxelGrid
from .spectrum import build_field, cell_beam_slices

_ANGLE_EQ_TOL = 1e-9


@dataclass(frozen=True)
class ObjectiveWeights:
    alpha: float = 1.0            # per covered voxel
    beta: float = 0.1             # per dB*voxel of SINR margin
    margin_cap_db: float = 10.0   # per-voxel margin cap
    epsilon_gain: float = 0.005   # reuse threshold, fraction of current objective

    def __post_init__(self):
        if self.alpha < 0 or self.beta < 0:
            raise ConfigurationError("alpha and beta must be >= 0")
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
    with open(path, "w") as fh:
        json.dump(trace.to_json_dict(), fh, indent=2)
        fh.write("\n")


def score_fields(serving_rsrp_dbm, sinr_db, weights: ObjectiveWeights,
                 thresholds: CoverageThresholds) -> float:
    covered = ((serving_rsrp_dbm >= thresholds.rsrp_strict_dbm)
               & (sinr_db >= thresholds.sinr_basic_db))
    n_cov = int(np.count_nonzero(covered))
    margin = np.minimum(sinr_db - thresholds.sinr_strict_db, weights.margin_cap_db)
    return weights.alpha * n_cov + weights.beta * float(np.sum(margin))


def objective(scene: SceneConfig, grid: VoxelGrid, assignment: BeamAssignment,
              weights: ObjectiveWeights, thresholds: CoverageThresholds | None = None,
              *, activity_factor: float = 1.0, offset_db: float = 0.0,
              threads: int = 1) -> float:
    """Full-path objective: build the RSRP and SINR fields, then score."""
    thresholds = thresholds or scene.thresholds
    radio_field = build_field(scene, grid, assignment, offset_db, threads=threads)
    sinr_field = build_sinr_field(radio_field, NoiseModel.from_radio(scene.radio),
                                  activity_factor)
    return score_fields(sinr_field.serving_rsrp_dbm, sinr_field.sinr_db,
                        weights, thresholds)


class _FieldEvaluator:
    """Caches per-beam fields so one-angle changes are scored incrementally.

    Each site's geometry to every voxel is computed once here, so a candidate
    angle costs only the gain formula. All reductions reuse the same helpers
    as build_field/build_sinr_field, so incremental scores match the full
    rebuild bit for bit.
    """

    def __init__(self, scene, grid, weights, thresholds, activity_factor,
                 offset_db, threads=1):
        self.scene = scene
        self.grid = grid
        self.weights = weights
        self.thresholds = thresholds or scene.thresholds
        self.activity_factor = float(activity_factor)
        self.offset_db = float(offset_db)
        self.threads = threads
        self.beam_keys = list(scene.beam_keys())
        self.row_of = {key: i for i, key in enumerate(self.beam_keys)}
        self.cell_ids = scene.cell_ids
        self.cell_of_row = np.asarray(
            [self.cell_ids.index(cell_id) for cell_id, _ in self.beam_keys])
        self.slices = cell_beam_slices(self.cell_ids, self.beam_keys)
        self.geometry = {site.id: kernels.site_geometry(grid.centers, site.position_m,
                                                        scene.radio.frequency_hz)
                         for site in scene.sites}
        self.noise_floor = noise_floor_dbm(NoiseModel.from_radio(scene.radio))
        n = grid.count
        self.beam_dbm = np.empty((len(self.beam_keys), n), dtype=np.float64)
        self.cell_max = np.empty((len(self.cell_ids), n), dtype=np.float64)
        self.cell_lin = np.empty((len(self.cell_ids), n), dtype=np.float64)
        self._objective = None

    def _eval_row_into(self, key, angle, out):
        site, cell, sb = self.scene.sub_beam(*key)
        az, el, loss = self.geometry[site.id]

        def work(bounds):
            lo, hi = bounds
            out[lo:hi] = kernels.beam_rsrp_numpy(az[lo:hi], el[lo:hi], loss[lo:hi],
                                                 sb.pattern, angle, cell.tx_power_dbm,
                                                 self.offset_db)

        kernels.run_tasks(work, kernels.chunks(self.grid.count), self.threads)

    def _reduce_cell(self, c):
        a, b = self.slices[c]
        self.cell_max[c] = np.maximum.reduce(self.beam_dbm[a:b], axis=0)
        self.cell_lin[c] = cell_linear_sums(self.beam_dbm[a:b], [(0, b - a)])[0]

    def set_assignment(self, assignment: BeamAssignment):
        for key in self.beam_keys:
            self._eval_row_into(key, assignment.angles[key], self.beam_dbm[self.row_of[key]])
        for c in range(len(self.cell_ids)):
            self._reduce_cell(c)
        self._objective = self._score(self.cell_max, self.cell_lin)

    def _score(self, cell_max, cell_lin):
        _, serving_dbm, sinr = assemble_sinr(cell_max, cell_lin, self.noise_floor,
                                             self.activity_factor)
        return score_fields(serving_dbm, sinr, self.weights, self.thresholds)

    @property
    def objective(self) -> float:
        return self._objective

    def candidate_objective(self, key, angle) -> float:
        """Objective if ``key`` were steered to ``angle``; state unchanged."""
        row = self.row_of[key]
        c = self.cell_of_row[row]
        a, b = self.slices[c]
        saved = self.beam_dbm[row].copy()
        self._eval_row_into(key, angle, self.beam_dbm[row])
        cell_max = self.cell_max.copy()
        cell_lin = self.cell_lin.copy()
        cell_max[c] = np.maximum.reduce(self.beam_dbm[a:b], axis=0)
        cell_lin[c] = cell_linear_sums(self.beam_dbm[a:b], [(0, b - a)])[0]
        value = self._score(cell_max, cell_lin)
        self.beam_dbm[row] = saved
        return value

    def candidate_delta(self, key, angle) -> float:
        return self.candidate_objective(key, angle) - self._objective

    def apply(self, key, angle):
        row = self.row_of[key]
        c = self.cell_of_row[row]
        self._eval_row_into(key, angle, self.beam_dbm[row])
        self._reduce_cell(c)
        self._objective = self._score(self.cell_max, self.cell_lin)


def score_candidate(scene: SceneConfig, grid: VoxelGrid, current: BeamAssignment,
                    target: tuple[str, int], angle: Orientation,
                    weights: ObjectiveWeights,
                    thresholds: CoverageThresholds | None = None, *,
                    activity_factor: float = 1.0, offset_db: float = 0.0,
                    threads: int = 1) -> float:
    """Objective delta of steering one sub-beam to ``angle``."""
    _, _, sb = scene.sub_beam(*target)
    if not sb.bounds.contains(angle):
        raise BoundsError(
            f"candidate ({angle.azimuth_deg}, {angle.tilt_deg}) out of bounds for "
            f"{target[0]}[{target[1]}]"
        )
    ev = _FieldEvaluator(scene, grid, weights, thresholds, activity_factor,
                         offset_db, threads)
    ev.set_assignment(current)
    return ev.candidate_delta(target, angle)


def default_order(scene: SceneConfig) -> list[tuple[str, int]]:
    """Round-robin across cells: every cell's beam 0, then every cell's beam 1, ..."""
    per_cell = {cell_id: [] for cell_id in scene.cell_ids}
    for cell_id, index in scene.beam_keys():
        per_cell[cell_id].append(index)
    order = []
    depth = 0
    while True:
        added = False
        for cell_id in scene.cell_ids:
            if depth < len(per_cell[cell_id]):
                order.append((cell_id, per_cell[cell_id][depth]))
                added = True
        if not added:
            return order
        depth += 1


def _same_angle(a: Orientation, b: Orientation) -> bool:
    return (abs(a.azimuth_deg - b.azimuth_deg) <= _ANGLE_EQ_TOL
            and abs(a.tilt_deg - b.tilt_deg) <= _ANGLE_EQ_TOL)


def greedy_optimize(scene: SceneConfig, grid: VoxelGrid, initial: BeamAssignment,
                    weights: ObjectiveWeights,
                    thresholds: CoverageThresholds | None = None,
                    order: list[tuple[str, int]] | None = None, *,
                    activity_factor: float = 1.0, offset_db: float = 0.0,
                    threads: int = 1) -> tuple[BeamAssignment, OptimizationTrace]:
    """One greedy sequential pass over all sub-beams; monotone by construction."""
    initial.validate_for(scene, require_lattice=True)
    if order is None:
        order = default_order(scene)
    if sorted(order) != sorted(scene.beam_keys()):
        raise ConfigurationError("order must visit every sub-beam exactly once")

    ev = _FieldEvaluator(scene, grid, weights, thresholds, activity_factor,
                         offset_db, threads)
    ev.set_assignment(initial)
    current = dict(initial.angles)
    initial_objective = ev.objective
    last_assigned: dict[str, Orientation] = {}
    steps = []

    for key in order:
        cell_id, index = key
        _, _, sb = scene.sub_beam(cell_id, index)
        candidates = sb.lattice()
        if not candidates:
            raise ConfigurationError(f"{cell_id}[{index}] has an empty candidate lattice")
        cur = current[key]
        if not any(_same_angle(cur, c) for c in candidates):
            candidates.append(cur)   # current angle always competes, last index

        before = ev.objective
        deltas = [ev.candidate_delta(key, cand) for cand in candidates]
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
                               else ev.candidate_delta(key, reuse_angle))
                if reuse_delta >= 0.0:
                    chosen = reuse_angle
                    chosen_delta = reuse_delta
                    reused = True

        ev.apply(key, chosen)
        current[key] = chosen
        last_assigned[cell_id] = chosen
        steps.append(TraceStep(
            cell_id=cell_id, beam_index=index, n_candidates=len(candidates),
            chosen_az_deg=chosen.azimuth_deg, chosen_tilt_deg=chosen.tilt_deg,
            reused=reused, objective_before=before, objective_after=ev.objective,
            best_delta=best_delta, chosen_delta=chosen_delta))

    trace = OptimizationTrace(steps=tuple(steps), initial_objective=initial_objective,
                              final_objective=ev.objective)
    return BeamAssignment(current), trace


def brute_force_optimize(scene: SceneConfig, grid: VoxelGrid,
                         weights: ObjectiveWeights,
                         thresholds: CoverageThresholds | None = None, *,
                         initial: BeamAssignment | None = None,
                         cap: int = 100_000, activity_factor: float = 1.0,
                         offset_db: float = 0.0,
                         threads: int = 1) -> tuple[BeamAssignment, float]:
    """Exhaustive search over the candidate lattice product (oracle).

    Candidate sets are each sub-beam's lattice plus its baseline (or the
    initial angle when given); enumeration is lexicographic over (az, tilt)
    tuples so ties resolve to the smallest angle tuple.
    """
    keys = scene.beam_keys()
    candidate_sets = []
    for key in keys:
        _, _, sb = scene.sub_beam(*key)
        cands = sb.lattice()
        extra = initial.angles[key] if initial is not None else sb.baseline
        if not any(_same_angle(extra, c) for c in cands):
            cands.append(extra)
        cands.sort(key=lambda o: (o.azimuth_deg, o.tilt_deg))
        candidate_sets.append(cands)

    size = 1
    for cands in candidate_sets:
        size *= len(cands)
    if size > cap:
        raise CapExceededError(
            f"brute force refused: candidate product {size} exceeds cap {cap}"
        )

    ev = _FieldEvaluator(scene, grid, weights, thresholds, activity_factor,
                         offset_db, threads)
    best_assignment = None
    best_value = -np.inf
    for combo in itertools.product(*candidate_sets):
        assignment = BeamAssignment(dict(zip(keys, combo)))
        ev.set_assignment(assignment)
        value = ev.objective
        if value > best_value:
            best_value = value
            best_assignment = assignment
    return best_assignment, float(best_value)
