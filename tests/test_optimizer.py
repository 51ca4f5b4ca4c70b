import sys
import threading
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from airtwin import antenna, kernels, optimizer
from airtwin.antenna import Orientation, TablePattern
from airtwin.errors import ConfigurationError
from airtwin.interference import sinr_from_field
from airtwin.optimizer import (
    ObjectiveWeights,
    OptimizationTrace,
    TraceStep,
    _FieldEvaluator,
    default_order,
    greedy_optimize,
    save_trace,
    score_fields,
)
from airtwin.scene import (
    BeamAssignment,
    CoverageThresholds,
    SceneConfig,
    Site,
    SteeringBounds,
    build_voxel_grid,
    scene_from_dict,
)
from airtwin.spectrum import build_field

from factories import demo_doc, random_instance, simple_scene, with_table_beam
from oracles import CapExceededError, brute_force_optimize, objective, replaced

W = ObjectiveWeights(alpha=1.0, beta=0.1, margin_cap_db=10.0, epsilon_gain=0.005)


class TestObjective:
    def test_counting_when_all_covered(self):
        scene = simple_scene(n_cells=1, tx_power_dbm=40.0,
                             thresholds=CoverageThresholds(
                                 rsrp_basic_dbm=-200.0, rsrp_strict_dbm=-150.0,
                                 sinr_basic_db=-100.0, sinr_strict_db=-50.0))
        grid = build_voxel_grid(scene.airspace)
        w = ObjectiveWeights(alpha=1.0, beta=0.0)
        value = objective(scene, grid, BeamAssignment.baseline(scene), w)
        assert value == grid.count

    def test_zero_margin_single_voxel(self, tiny):
        scene, grid = tiny
        field = build_field(scene, grid, BeamAssignment.baseline(scene))
        sinr = sinr_from_field(field, scene.radio, 1.0)
        voxel_sinr = float(sinr.sinr_db[0])
        thr = CoverageThresholds(rsrp_basic_dbm=-200.0, rsrp_strict_dbm=-150.0,
                                 sinr_basic_db=voxel_sinr - 1.0, sinr_strict_db=voxel_sinr)
        w = ObjectiveWeights(alpha=0.0, beta=1.0, margin_cap_db=10.0)
        value = score_fields(sinr.serving_rsrp_dbm[:1], sinr.sinr_db[:1], w, thr, (1, 1))
        assert value == 0.0

    def test_matches_recomputation_from_fields(self, tiny):
        scene, grid = tiny
        assignment = BeamAssignment.baseline(scene)
        value = objective(scene, grid, assignment, W)
        field = build_field(scene, grid, assignment)
        sinr = sinr_from_field(field, scene.radio, 1.0)
        thr = scene.thresholds
        covered = np.count_nonzero((sinr.serving_rsrp_dbm >= thr.rsrp_strict_dbm)
                                   & (sinr.sinr_db >= thr.sinr_basic_db))
        margin = np.sum(np.minimum(sinr.sinr_db - thr.sinr_strict_db, W.margin_cap_db))
        assert value == pytest.approx(W.alpha * covered + W.beta * margin, abs=1e-9)

    def test_weight_invariants(self):
        with pytest.raises(ConfigurationError):
            ObjectiveWeights(alpha=-1.0)
        with pytest.raises(ConfigurationError, match="alpha must be in"):
            ObjectiveWeights(alpha=1e101)
        with pytest.raises(ConfigurationError, match="beta must be in"):
            ObjectiveWeights(beta=1e307)

    def test_weights_at_their_bound_keep_every_delta_finite(self, tiny):
        scene, grid = tiny
        weights = ObjectiveWeights(alpha=optimizer.MAX_WEIGHT, beta=optimizer.MAX_WEIGHT)
        _, trace, _ = greedy_optimize(scene, grid, BeamAssignment.baseline(scene), weights)
        assert np.all(np.isfinite([[s.objective_after, s.best_delta, s.chosen_delta]
                                   for s in trace.steps]))
        with pytest.raises(ConfigurationError):
            ObjectiveWeights(margin_cap_db=0.0)
        with pytest.raises(ConfigurationError):
            ObjectiveWeights(epsilon_gain=-0.1)

    @pytest.mark.parametrize("name", ["alpha", "beta", "margin_cap_db", "epsilon_gain"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_weights_rejected(self, name, value):
        with pytest.raises(ConfigurationError, match=name):
            ObjectiveWeights(**{name: value})

    def test_save_trace_refuses_nan_and_writes_nothing(self, tmp_path):
        step = TraceStep(cell_id="cell0", beam_index=0, n_candidates=1, chosen_az_deg=0.0,
                         chosen_tilt_deg=0.0, reused=False, objective_before=float("nan"),
                         objective_after=0.0, best_delta=0.0, chosen_delta=0.0)
        path = tmp_path / "trace.json"
        with pytest.raises(ValueError):
            save_trace(OptimizationTrace((step,), 0.0, 0.0), path)
        assert not path.exists()


class TestScoreCandidate:
    """One candidate's score on the greedy pass's evaluator."""

    @staticmethod
    def evaluator(scene, assignment):
        ev = _FieldEvaluator(scene, build_voxel_grid(scene.airspace), W, 1.0, 0.0)
        ev.set_assignment(assignment)
        return ev

    def test_noop_delta_zero(self, tiny):
        scene, grid = tiny
        assignment = BeamAssignment.baseline(scene)
        key = ("cell0", 0)
        ev = self.evaluator(scene, assignment)
        assert ev.totals(key, [assignment.angles[key]]) == [objective(scene, grid, assignment, W)]

    def test_applying_best_then_rescoring_gives_zero(self, tiny):
        scene, grid = tiny
        key = ("cell0", 0)
        cands = scene.sub_beam(*key)[2].lattice()
        ev = self.evaluator(scene, BeamAssignment.baseline(scene))
        totals = ev.totals(key, cands)
        best = cands[int(np.argmax(totals))]
        ev.apply(key, best)
        assert ev.objective() == max(totals)
        assert ev.totals(key, [best]) == [max(totals)]
        assert max(totals) == objective(scene, grid, BeamAssignment(ev.angles), W)

    def test_incremental_equals_full_recompute(self):
        for seed in (0, 1, 2):
            scene = random_instance(seed)
            grid = build_voxel_grid(scene.airspace)
            assignment = BeamAssignment.baseline(scene)
            key = ("cell1", 0)
            angle = Orientation(assignment.angles[key].azimuth_deg, 7.0)
            [total] = self.evaluator(scene, assignment).totals(key, [angle])
            assert total == objective(scene, grid, replaced(assignment, key, angle), W)


def co_sited_tie_scene() -> SceneConfig:
    """Cells cell0 and cell1 share one site, pattern, power and baselines, so
    their cell maxima tie exactly at every voxel; cell2 is a rival elsewhere."""
    base = simple_scene(n_cells=2, n_beams=2, radius_m=60.0, z_max_m=40.0, voxel_m=20.0)
    site0, site1 = base.sites
    twin = replace(site0.cells[0], id="cell1")
    far = replace(site1.cells[0], id="cell2")
    return replace(base, sites=(Site(id="site0", position_m=site0.position_m,
                                     cells=(site0.cells[0], twin)),
                                Site(id="site1", position_m=site1.position_m,
                                     cells=(far,))))


def assert_totals_exact(scene, keys, threads=1, order=None):
    """Every lattice angle's incremental total equals the full path's objective, bit for bit.

    ``order(lattice)`` gives the angles in the order they are scored
    (default: the lattice's own az-major order).
    """
    grid = build_voxel_grid(scene.airspace)
    current = BeamAssignment.baseline(scene)
    ev = _FieldEvaluator(scene, grid, W, 1.0, 0.0, threads)
    ev.set_assignment(current)
    before = objective(scene, grid, current, W, threads=threads)
    assert ev.objective() == before
    for key in keys:
        lattice = scene.sub_beam(*key)[2].lattice()
        if order is not None:
            lattice = order(lattice)
        full = [objective(scene, grid, replaced(current, key, angle), W, threads=threads)
                for angle in lattice]
        assert ev.totals(key, lattice) == full, key
    return ev


def interleaved(lattice):
    """Tilt-major order: consecutive angles differ in azimuth, and each azimuth returns."""
    return sorted(lattice, key=lambda a: (a.tilt_deg, a.azimuth_deg))


def shuffled(lattice):
    return [lattice[i] for i in np.random.default_rng(5).permutation(len(lattice))]


class TestCandidateDeltasExact:
    # Adding a cell's rows, or the interfering cells, in another order changes
    # the last bit at some voxels. Few of those bits reach the objective, so
    # the 3-beam scenes with 7x4 lattices are what catch a reordering;
    # random_instance's 3-angle lattices rarely do.
    @pytest.mark.parametrize("scene", [
        random_instance(0, n_cells=3, n_beams=3),
        random_instance(1, n_cells=3, n_beams=3),
        random_instance(2, n_cells=3, n_beams=3),
        simple_scene(n_cells=4, n_beams=3),
    ], ids=["random0", "random1", "random2", "simple"])
    def test_first_middle_last_sub_beam_of_each_cell(self, scene):
        assert_totals_exact(scene, scene.beam_keys())

    def test_tied_cell_maxima_serve_the_smaller_id(self):
        scene = co_sited_tie_scene()
        grid = build_voxel_grid(scene.airspace)
        current = BeamAssignment.baseline(scene)
        field = build_field(scene, grid, current)
        np.testing.assert_array_equal(field.cell_rsrp_dbm[0], field.cell_rsrp_dbm[1])
        sinr = sinr_from_field(field, scene.radio, 1.0)
        assert not np.any(sinr.serving_index == 1)
        ev = assert_totals_exact(scene, scene.beam_keys())
        for key in (("cell0", 0), ("cell1", 1)):   # steering to the same angle keeps the tie
            assert ev.totals(key, [current.angles[key]]) == [ev.objective()]

    @pytest.mark.parametrize("threads", [1, 2, 3])
    def test_threads_and_chunk_boundaries(self, monkeypatch, threads):
        monkeypatch.setattr(kernels, "_CHUNK", 997)
        scene = simple_scene(n_cells=2, n_beams=3, radius_m=100.0, z_max_m=60.0, voxel_m=8.0)
        assert build_voxel_grid(scene.airspace).count > 3 * kernels._CHUNK
        assert_totals_exact(scene, scene.beam_keys(), threads=threads)
        assert_totals_exact(scene, scene.beam_keys(), threads=threads, order=interleaved)

    def test_chunk_buffers_under_more_workers_than_cores(self, monkeypatch):
        # Each scoring block allocates its own buffers; two blocks writing
        # one set would change some total. A tiny switch interval
        # makes the workers interleave inside the numpy calls' Python glue.
        monkeypatch.setattr(kernels, "_CHUNK", 101)
        scene = simple_scene(n_cells=3, n_beams=3, radius_m=100.0, z_max_m=60.0, voxel_m=10.0)
        grid = build_voxel_grid(scene.airspace)
        key = ("cell1", 1)
        lattice = scene.sub_beam(*key)[2].lattice()
        totals = {}
        for threads in (1, 6):
            ev = _FieldEvaluator(scene, grid, W, 1.0, 0.0, threads)
            ev.set_assignment(BeamAssignment.baseline(scene))
            totals[threads] = ev.totals(key, lattice)
        ev = _FieldEvaluator(scene, grid, W, 1.0, 0.0, 6)
        ev.set_assignment(BeamAssignment.baseline(scene))
        stressed = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            worker = threading.Thread(
                target=lambda: stressed.append(ev.totals(key, lattice)))
            worker.start()
            worker.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not worker.is_alive()
        assert grid.count > 6 * kernels._CHUNK
        assert totals[6] == totals[1]
        assert stressed == [totals[1]]

    def test_table_pattern_sub_beam(self):
        # The table-pattern sub-beam takes the general kernel path; the other
        # sub-beams of its cell and site take the separable one.
        scene = with_table_beam(simple_scene(n_cells=3, n_beams=3))
        assert isinstance(scene.sub_beam("cell0", 0)[2].pattern, TablePattern)
        assert_totals_exact(scene, scene.beam_keys())
        assert_totals_exact(scene, scene.beam_keys(), order=interleaved)

    @pytest.mark.parametrize("order, returns", [(lambda lat: lat[::-1], False),
                                                 (interleaved, True), (shuffled, True)],
                             ids=["reversed", "interleaved", "shuffled"])
    def test_any_angle_order(self, order, returns):
        scene = simple_scene(n_cells=4, n_beams=3)
        azimuths = [a.azimuth_deg for a in order(scene.sub_beam("cell0", 0)[2].lattice())]
        runs = [az for i, az in enumerate(azimuths) if i == 0 or az != azimuths[i - 1]]
        assert (len(runs) > len(set(runs))) == returns   # an azimuth comes back after another
        assert_totals_exact(scene, scene.beam_keys(), order=order)

    def test_same_angle_on_another_site_after_a_call(self):
        # A term kept from the previous call would belong to another site.
        scene = simple_scene(n_cells=2, n_beams=1, az_halfwidth_deg=180.0)
        grid = build_voxel_grid(scene.airspace)
        current = BeamAssignment.baseline(scene)
        ev = _FieldEvaluator(scene, grid, W, 1.0, 0.0)
        ev.set_assignment(current)
        angle = Orientation(current.angles[("cell0", 0)].azimuth_deg, 5.0)
        for key in (("cell0", 0), ("cell1", 0)):
            full = objective(scene, grid, replaced(current, key, angle), W)
            assert ev.totals(key, [angle]) == [full], key

    def test_simple_cell2_lattice_crosses_north(self):
        scene = simple_scene(n_cells=4, n_beams=3)
        keys = [key for key in scene.beam_keys() if key[0] == "cell2"]
        for key in keys:
            azimuths = [a.azimuth_deg for a in scene.sub_beam(*key)[2].lattice()]
            assert min(azimuths) < 90.0 and max(azimuths) > 270.0, key
        az = kernels.site_geometry(*build_voxel_grid(scene.airspace).coordinates(),
                                   scene.cell("cell2")[0],
                                   scene.radio.frequency_hz)[0]
        assert az.min() < 0.0 < az.max()   # the site sees voxels on both sides of north
        assert_totals_exact(scene, keys)


def test_wrap_once_per_lattice_column(monkeypatch):
    """Losing the per-azimuth term makes this 56 wraps more than the context's, not 7."""
    scene = simple_scene(n_cells=2, tilt_bounds=(0.0, 21.0), candidate_step=(5.0, 3.0))
    grid = build_voxel_grid(scene.airspace)
    assert grid.count <= kernels._CHUNK   # one block: one wrap per distinct azimuth
    key = ("cell0", 0)
    lattice = scene.sub_beam(*key)[2].lattice()
    assert len(lattice) == 56 and len({a.azimuth_deg for a in lattice}) == 7
    ev = _FieldEvaluator(scene, grid, W, 1.0, 0.0)
    ev.set_assignment(BeamAssignment.baseline(scene))
    calls = []
    original = antenna.wrap_angle_deg

    def counted(angle):
        calls.append(1)
        return original(angle)

    for module in (antenna, kernels, optimizer):
        monkeypatch.setattr(module, "wrap_angle_deg", counted)
    assert ev.totals(key, []) == []   # the block context's rows alone
    context = len(calls)
    assert context > 0
    calls.clear()
    ev.totals(key, lattice)
    assert len(calls) == context + 7


def test_block_workspace_stays_below_one_grid_array(monkeypatch):
    """One ``totals`` call holds one block's context and buffers, never a grid-sized array.

    A whole-grid step context would take about (sub-beams + 2 x cells) arrays
    of ``grid.count`` float64 values, 19 for the demo scene.
    """
    scene = scene_from_dict(demo_doc(radius_m=300.0, z_max_m=300.0, voxel_m=10.0))
    grid = build_voxel_grid(scene.airspace)
    n_layers, n_columns = grid.shape
    monkeypatch.setattr(kernels, "_CHUNK", 10 * n_layers)
    ev = _FieldEvaluator(scene, grid, W, 1.0, 0.0)
    assert len(ev._tasks) > 80
    ev.set_assignment(BeamAssignment.baseline(scene))
    key = ("s1c1", 3)
    lattice = scene.sub_beam(*key)[2].lattice()
    tracemalloc.start()
    try:
        totals = ev.totals(key, lattice)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(totals) == len(lattice) > 1
    assert peak < grid.count * 8, peak / (grid.count * 8)


def off_lattice_reuse_scene() -> SceneConfig:
    """cell0's two sub-beams have lattices half an azimuth step apart.

    Sub-beam 0 has one candidate, (az, 0), which is sub-beam 1's baseline: off
    sub-beam 1's lattice, but admissible to it. So when sub-beam 1 starts on
    its lattice, the reuse rule scores sub-beam 0's angle in a second call.
    """
    scene = simple_scene(n_cells=2, n_beams=2, radius_m=100.0, z_max_m=60.0, voxel_m=8.0)
    site = scene.sites[0]
    cell = site.cells[0]
    beam0, beam1 = cell.sub_beams
    az = beam0.baseline.azimuth_deg - 10.0
    beam0 = replace(beam0, baseline=Orientation(az, 0.0), bounds=SteeringBounds(az, az, 0.0, 0.0))
    beam1 = replace(beam1, baseline=Orientation(az, 0.0),
                    bounds=SteeringBounds(az - 12.5, az + 12.5, 0.0, 15.0))
    cells = (replace(cell, sub_beams=(beam0, beam1)),)
    return replace(scene, sites=(replace(site, cells=cells), *scene.sites[1:]))


@pytest.mark.parametrize("threads", [1, 2])
def test_objective_after_each_step_equals_the_full_path(monkeypatch, threads):
    monkeypatch.setattr(kernels, "_CHUNK", 101)
    scene = off_lattice_reuse_scene()
    grid = build_voxel_grid(scene.airspace)
    assert len(kernels.chunks(grid.shape[1], grid.shape[0], optimizer._SCORING_BLOCKS)) > 8
    key = ("cell0", 1)
    reuse_angle = scene.sub_beam("cell0", 0)[2].baseline
    sb = scene.sub_beam(*key)[2]
    assert sb.admits(reuse_angle)
    assert not any(optimizer._same_angle(reuse_angle, a) for a in sb.lattice())
    current = replaced(BeamAssignment.baseline(scene), key, sb.lattice()[22])
    w = ObjectiveWeights(alpha=1.0, beta=0.1, margin_cap_db=10.0, epsilon_gain=1e6)
    _, trace, _ = greedy_optimize(scene, grid, current, w, threads=threads)
    value = objective(scene, grid, current, w, threads=threads)
    assert trace.initial_objective == value
    for step in trace.steps:
        assert step.objective_before == value
        angle = Orientation(step.chosen_az_deg, step.chosen_tilt_deg)
        current = replaced(current, (step.cell_id, step.beam_index), angle)
        value = objective(scene, grid, current, w, threads=threads)
        assert step.objective_after == value, step
    assert trace.final_objective == value
    [step] = [s for s in trace.steps if (s.cell_id, s.beam_index) == key]
    assert step.reused and Orientation(step.chosen_az_deg, step.chosen_tilt_deg) == reuse_angle


class TestGreedy:
    def test_single_subbeam_matches_bruteforce(self):
        for seed in (0, 1, 2, 3):
            scene = random_instance(seed, n_cells=1, n_beams=1, n_tilts=3)
            grid = build_voxel_grid(scene.airspace)
            base = BeamAssignment.baseline(scene)
            got, trace, _ = greedy_optimize(scene, grid, base, W)
            best, best_value = brute_force_optimize(scene, grid, W, initial=base)
            assert trace.final_objective == pytest.approx(best_value, abs=1e-9)
            assert got.angles == best.angles

    def test_epsilon_zero_never_reuses(self):
        scene = random_instance(4, n_cells=2, n_beams=2)
        grid = build_voxel_grid(scene.airspace)
        w = ObjectiveWeights(alpha=1.0, beta=0.1, margin_cap_db=10.0, epsilon_gain=0.0)
        _, trace, _ = greedy_optimize(scene, grid, BeamAssignment.baseline(scene), w)
        assert all(not s.reused for s in trace.steps)

    def test_oracle_bracketing_ten_seeds(self):
        ratios = []
        for seed in range(10):
            scene = random_instance(seed)
            grid = build_voxel_grid(scene.airspace)
            assert grid.count <= 300
            base = BeamAssignment.baseline(scene)
            initial_value = objective(scene, grid, base, W)
            got, trace, _ = greedy_optimize(scene, grid, base, W)
            _, best_value = brute_force_optimize(scene, grid, W, initial=base)
            assert trace.initial_objective == pytest.approx(initial_value, abs=1e-9)
            assert trace.final_objective >= initial_value - 1e-9
            assert trace.final_objective <= best_value + 1e-9
            for step in trace.steps:
                assert step.objective_after >= step.objective_before - 1e-12
            if best_value != 0:
                ratios.append(trace.final_objective / best_value)
        assert ratios  # report-only: mean ratio to optimum
        print(f"greedy/brute-force mean objective ratio: {np.mean(ratios):.4f}")

    def test_deterministic_traces(self):
        scene = random_instance(7)
        grid = build_voxel_grid(scene.airspace)
        base = BeamAssignment.baseline(scene)
        a1, t1, _ = greedy_optimize(scene, grid, base, W)
        a2, t2, _ = greedy_optimize(scene, grid, base, W, threads=2)
        assert a1.angles == a2.angles
        assert t1.steps == t2.steps

    def test_threads_identical_across_chunk_boundaries(self, monkeypatch):
        monkeypatch.setattr(kernels, "_CHUNK", 997)
        scene = simple_scene(n_cells=2, n_beams=2, radius_m=100.0, z_max_m=60.0, voxel_m=8.0)
        grid = build_voxel_grid(scene.airspace)
        assert grid.count > 3 * kernels._CHUNK
        base = BeamAssignment.baseline(scene)
        a1, t1, _ = greedy_optimize(scene, grid, base, W)
        a2, t2, _ = greedy_optimize(scene, grid, base, W, threads=2)
        assert a1.angles == a2.angles
        assert t1 == t2
        assert t1.final_objective == pytest.approx(objective(scene, grid, a1, W), abs=1e-6)

    @pytest.mark.parametrize("threads", [1, 2])
    def test_returned_field_equals_build_field(self, monkeypatch, threads):
        monkeypatch.setattr(kernels, "_CHUNK", 997)
        scene = simple_scene(n_cells=3, n_beams=3, radius_m=100.0, z_max_m=60.0, voxel_m=8.0)
        grid = build_voxel_grid(scene.airspace)
        base = BeamAssignment.baseline(scene)
        optimized, _, field = greedy_optimize(scene, grid, base, W, threads=threads)
        assert optimized.angles != base.angles
        full = build_field(scene, grid, optimized, threads=threads)
        assert field.cell_ids == full.cell_ids
        assert np.array_equal(field.cell_rsrp_dbm, full.cell_rsrp_dbm)
        assert np.array_equal(field.cell_lin_mw, full.cell_lin_mw)

    @pytest.mark.parametrize("activity_factor", [5.0, -0.5, float("nan")])
    def test_bad_activity_factor_rejected_before_scoring(self, activity_factor, monkeypatch):
        scene = random_instance(1)
        grid = build_voxel_grid(scene.airspace)

        def no_kernel(*args, **kwargs):
            raise AssertionError("the kernel ran before the activity factor was checked")

        monkeypatch.setattr(kernels, "beam_rsrp_numpy", no_kernel)
        with pytest.raises(ValueError, match="activity_factor"):
            greedy_optimize(scene, grid, BeamAssignment.baseline(scene), W,
                            activity_factor=activity_factor)

    def test_default_order_round_robin(self):
        scene = simple_scene(n_cells=2, n_beams=2)
        assert default_order(scene) == [("cell0", 0), ("cell1", 0),
                                        ("cell0", 1), ("cell1", 1)]


class TestReuseRule:
    def reuse_scene(self):
        # single cell, two sub-beams with identical bounds and baselines: after
        # beam 0 moves, beam 1's marginal gains are tiny and the previously
        # assigned angle is admissible, so the reuse rule fires.
        return simple_scene(n_cells=1, n_beams=2, radius_m=60.0, z_max_m=60.0,
                            voxel_m=20.0, tx_power_dbm=10.0, beam_fan_deg=0.0,
                            tilt_bounds=(0.0, 20.0), candidate_step=(10.0, 10.0))

    def test_reuse_fires_and_is_sound(self):
        scene = self.reuse_scene()
        grid = build_voxel_grid(scene.airspace)
        w = ObjectiveWeights(alpha=1.0, beta=0.1, margin_cap_db=10.0, epsilon_gain=0.5)
        _, trace, _ = greedy_optimize(scene, grid, BeamAssignment.baseline(scene), w)
        reused_steps = [s for s in trace.steps if s.reused]
        assert reused_steps, "expected the reuse rule to fire at least once"
        assigned = {}
        for step in trace.steps:
            if step.reused:
                prev = assigned[step.cell_id]
                assert (step.chosen_az_deg, step.chosen_tilt_deg) == prev
                assert step.chosen_delta >= 0.0
            assigned[step.cell_id] = (step.chosen_az_deg, step.chosen_tilt_deg)

    def test_reused_angle_was_previously_assigned_same_cell(self, demo):
        scene, grid = demo
        w = ObjectiveWeights(alpha=1.0, beta=0.1, margin_cap_db=10.0, epsilon_gain=0.5)
        _, trace, _ = greedy_optimize(scene, grid, BeamAssignment.baseline(scene), w)
        assigned = {}
        for step in trace.steps:
            if step.reused:
                assert step.cell_id in assigned
                assert (step.chosen_az_deg, step.chosen_tilt_deg) in assigned[step.cell_id]
                assert step.chosen_delta >= 0.0
            assigned.setdefault(step.cell_id, set()).add(
                (step.chosen_az_deg, step.chosen_tilt_deg))
        assert any(s.reused for s in trace.steps)


class TestBruteForce:
    def test_single_beam_argmax(self):
        scene = random_instance(2, n_cells=1, n_beams=1, n_tilts=3)
        grid = build_voxel_grid(scene.airspace)
        base = BeamAssignment.baseline(scene)
        sb = scene.sub_beam("cell0", 0)[2]
        values = {}
        for cand in sb.lattice():
            values[(cand.azimuth_deg, cand.tilt_deg)] = objective(
                scene, grid, replaced(base, ("cell0", 0), cand), W)
        best, best_value = brute_force_optimize(scene, grid, W, initial=base)
        assert best_value == pytest.approx(max(values.values()), abs=1e-9)

    def test_all_equal_ties_to_smallest_tuple(self):
        # unreachable thresholds make every assignment score identically
        thr = CoverageThresholds(rsrp_basic_dbm=100.0, rsrp_strict_dbm=200.0,
                                 sinr_basic_db=100.0, sinr_strict_db=200.0)
        scene = random_instance(3, n_cells=1, n_beams=2, n_tilts=2)
        grid = build_voxel_grid(scene.airspace)
        w = ObjectiveWeights(alpha=1.0, beta=0.0)
        best, _ = brute_force_optimize(scene, grid, w, thresholds=thr)
        for key in scene.beam_keys():
            sb = scene.sub_beam(*key)[2]
            first = sorted(sb.lattice(), key=lambda o: (o.azimuth_deg, o.tilt_deg))[0]
            assert best.angles[key] == first

    def test_cap_refusal_names_product(self):
        scene = simple_scene(n_cells=2, n_beams=2, candidate_step=(5.0, 5.0))
        grid = build_voxel_grid(scene.airspace)
        n_per_beam = len(scene.sub_beam("cell0", 0)[2].lattice())
        product = n_per_beam ** 4
        with pytest.raises(CapExceededError, match=str(product)):
            brute_force_optimize(scene, grid, W, cap=product - 1)
