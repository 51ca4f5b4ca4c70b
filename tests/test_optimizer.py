import sys
import threading
from dataclasses import replace

import numpy as np
import pytest

from airtwin import antenna, kernels, optimizer
from airtwin.antenna import Orientation, TablePattern
from airtwin.errors import BoundsError, CapExceededError, ConfigurationError
from airtwin.interference import NoiseModel, build_sinr_field
from airtwin.optimizer import (
    ObjectiveWeights,
    OptimizationTrace,
    TraceStep,
    _FieldEvaluator,
    brute_force_optimize,
    default_order,
    greedy_optimize,
    objective,
    save_trace,
    score_candidate,
    score_fields,
)
from airtwin.scene import BeamAssignment, CoverageThresholds, SceneConfig, Site, build_voxel_grid
from airtwin.spectrum import build_field

from factories import random_instance, simple_scene, with_table_beam

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
        sinr = build_sinr_field(field, NoiseModel.from_radio(scene.radio), 1.0)
        voxel_sinr = float(sinr.sinr_db[0])
        thr = CoverageThresholds(rsrp_basic_dbm=-200.0, rsrp_strict_dbm=-150.0,
                                 sinr_basic_db=voxel_sinr - 1.0, sinr_strict_db=voxel_sinr)
        w = ObjectiveWeights(alpha=0.0, beta=1.0, margin_cap_db=10.0)
        value = score_fields(sinr.serving_rsrp_dbm[:1], sinr.sinr_db[:1], w, thr)
        assert value == 0.0

    def test_matches_recomputation_from_fields(self, tiny):
        scene, grid = tiny
        assignment = BeamAssignment.baseline(scene)
        value = objective(scene, grid, assignment, W)
        field = build_field(scene, grid, assignment)
        sinr = build_sinr_field(field, NoiseModel.from_radio(scene.radio), 1.0)
        thr = scene.thresholds
        covered = np.count_nonzero((sinr.serving_rsrp_dbm >= thr.rsrp_strict_dbm)
                                   & (sinr.sinr_db >= thr.sinr_basic_db))
        margin = np.sum(np.minimum(sinr.sinr_db - thr.sinr_strict_db, W.margin_cap_db))
        assert value == pytest.approx(W.alpha * covered + W.beta * margin, abs=1e-9)

    def test_weight_invariants(self):
        with pytest.raises(ConfigurationError):
            ObjectiveWeights(alpha=-1.0)
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
    def test_noop_delta_zero(self, tiny):
        scene, grid = tiny
        assignment = BeamAssignment.baseline(scene)
        key = ("cell0", 0)
        delta = score_candidate(scene, grid, assignment, key,
                                assignment.angles[key], W)
        assert delta == 0.0

    def test_applying_best_then_rescoring_gives_zero(self, tiny):
        scene, grid = tiny
        assignment = BeamAssignment.baseline(scene)
        key = ("cell0", 0)
        sb = scene.sub_beam(*key)[2]
        cands = sb.lattice()
        deltas = [score_candidate(scene, grid, assignment, key, c, W) for c in cands]
        best = cands[int(np.argmax(deltas))]
        moved = assignment.replaced(key, best)
        assert score_candidate(scene, grid, moved, key, best, W) == 0.0

    def test_incremental_equals_full_recompute(self):
        for seed in (0, 1, 2):
            scene = random_instance(seed)
            grid = build_voxel_grid(scene.airspace)
            assignment = BeamAssignment.baseline(scene)
            key = ("cell1", 0)
            angle = Orientation(assignment.angles[key].azimuth_deg, 7.0)
            delta = score_candidate(scene, grid, assignment, key, angle, W)
            full = (objective(scene, grid, assignment.replaced(key, angle), W)
                    - objective(scene, grid, assignment, W))
            assert delta == pytest.approx(full, abs=1e-6)

    def test_out_of_bounds_rejected(self, tiny):
        scene, grid = tiny
        assignment = BeamAssignment.baseline(scene)
        with pytest.raises(BoundsError):
            score_candidate(scene, grid, assignment, ("cell0", 0),
                            Orientation(0.0, 89.0), W)


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


def assert_deltas_exact(scene, keys, threads=1, order=None):
    """Every lattice angle's incremental delta equals the full rebuild's, bit for bit.

    ``order(lattice)`` gives the angles in the order they are scored
    (default: the lattice's own az-major order).
    """
    grid = build_voxel_grid(scene.airspace)
    current = BeamAssignment.baseline(scene)
    ev = _FieldEvaluator(scene, grid, W, None, 1.0, 0.0, threads)
    ev.set_assignment(current)
    before = objective(scene, grid, current, W, threads=threads)
    assert ev.objective == before
    for key in keys:
        lattice = scene.sub_beam(*key)[2].lattice()
        if order is not None:
            lattice = order(lattice)
        full = [objective(scene, grid, current.replaced(key, angle), W, threads=threads)
                - before for angle in lattice]
        assert ev.candidate_deltas(key, lattice) == full, key
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
        assert_deltas_exact(scene, scene.beam_keys())

    def test_tied_cell_maxima_serve_the_smaller_id(self):
        scene = co_sited_tie_scene()
        grid = build_voxel_grid(scene.airspace)
        current = BeamAssignment.baseline(scene)
        field = build_field(scene, grid, current)
        np.testing.assert_array_equal(field.cell_rsrp_dbm[0], field.cell_rsrp_dbm[1])
        sinr = build_sinr_field(field, NoiseModel.from_radio(scene.radio), 1.0)
        assert not np.any(sinr.serving_index == 1)
        ev = assert_deltas_exact(scene, scene.beam_keys())
        for key in (("cell0", 0), ("cell1", 1)):   # steering to the same angle keeps the tie
            assert ev.candidate_deltas(key, [current.angles[key]]) == [0.0]

    @pytest.mark.parametrize("threads", [1, 2, 3])
    def test_threads_and_chunk_boundaries(self, monkeypatch, threads):
        monkeypatch.setattr(kernels, "_CHUNK", 997)
        scene = simple_scene(n_cells=2, n_beams=3, radius_m=100.0, z_max_m=60.0, voxel_m=8.0)
        assert build_voxel_grid(scene.airspace).count > 3 * kernels._CHUNK
        assert_deltas_exact(scene, scene.beam_keys(), threads=threads)
        assert_deltas_exact(scene, scene.beam_keys(), threads=threads, order=interleaved)

    def test_chunk_buffers_under_more_workers_than_cores(self, monkeypatch):
        # Each running chunk task holds its own scratch buffers; two tasks
        # writing one set would change some delta. A tiny switch interval
        # makes the workers interleave inside the numpy calls' Python glue.
        monkeypatch.setattr(kernels, "_CHUNK", 101)
        scene = simple_scene(n_cells=3, n_beams=3, radius_m=100.0, z_max_m=60.0, voxel_m=10.0)
        grid = build_voxel_grid(scene.airspace)
        key = ("cell1", 1)
        lattice = scene.sub_beam(*key)[2].lattice()
        deltas = {}
        for threads in (1, 6):
            ev = _FieldEvaluator(scene, grid, W, None, 1.0, 0.0, threads)
            ev.set_assignment(BeamAssignment.baseline(scene))
            deltas[threads] = ev.candidate_deltas(key, lattice)
        ev = _FieldEvaluator(scene, grid, W, None, 1.0, 0.0, 6)
        ev.set_assignment(BeamAssignment.baseline(scene))
        stressed = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            worker = threading.Thread(
                target=lambda: stressed.append(ev.candidate_deltas(key, lattice)))
            worker.start()
            worker.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not worker.is_alive()
        assert grid.count > 6 * kernels._CHUNK
        assert deltas[6] == deltas[1]
        assert stressed == [deltas[1]]

    def test_table_pattern_sub_beam(self):
        # The table-pattern sub-beam takes the general kernel path; the other
        # sub-beams of its cell and site take the separable one.
        scene = with_table_beam(simple_scene(n_cells=3, n_beams=3))
        assert isinstance(scene.sub_beam("cell0", 0)[2].pattern, TablePattern)
        assert_deltas_exact(scene, scene.beam_keys())
        assert_deltas_exact(scene, scene.beam_keys(), order=interleaved)

    @pytest.mark.parametrize("order, returns", [(lambda lat: lat[::-1], False),
                                                 (interleaved, True), (shuffled, True)],
                             ids=["reversed", "interleaved", "shuffled"])
    def test_any_angle_order(self, order, returns):
        scene = simple_scene(n_cells=4, n_beams=3)
        azimuths = [a.azimuth_deg for a in order(scene.sub_beam("cell0", 0)[2].lattice())]
        runs = [az for i, az in enumerate(azimuths) if i == 0 or az != azimuths[i - 1]]
        assert (len(runs) > len(set(runs))) == returns   # an azimuth comes back after another
        assert_deltas_exact(scene, scene.beam_keys(), order=order)

    def test_same_angle_on_another_site_after_a_call(self):
        # A term kept from the previous call would belong to another site.
        scene = simple_scene(n_cells=2, n_beams=1, az_halfwidth_deg=180.0)
        grid = build_voxel_grid(scene.airspace)
        current = BeamAssignment.baseline(scene)
        ev = _FieldEvaluator(scene, grid, W, None, 1.0, 0.0)
        ev.set_assignment(current)
        before = objective(scene, grid, current, W)
        angle = Orientation(current.angles[("cell0", 0)].azimuth_deg, 5.0)
        for key in (("cell0", 0), ("cell1", 0)):
            full = objective(scene, grid, current.replaced(key, angle), W) - before
            assert ev.candidate_deltas(key, [angle]) == [full], key

    def test_simple_cell2_lattice_crosses_north(self):
        scene = simple_scene(n_cells=4, n_beams=3)
        keys = [key for key in scene.beam_keys() if key[0] == "cell2"]
        for key in keys:
            azimuths = [a.azimuth_deg for a in scene.sub_beam(*key)[2].lattice()]
            assert min(azimuths) < 90.0 and max(azimuths) > 270.0, key
        az = kernels.site_geometry(build_voxel_grid(scene.airspace).centers,
                                   scene.cell("cell2")[0].position_m,
                                   scene.radio.frequency_hz)[0]
        assert az.min() < 0.0 < az.max()   # the site sees voxels on both sides of north
        assert_deltas_exact(scene, keys)


def test_wrap_once_per_lattice_column(monkeypatch):
    """Losing the per-azimuth term makes this 56 wraps, not 7."""
    scene = simple_scene(n_cells=2, tilt_bounds=(0.0, 21.0), candidate_step=(5.0, 3.0))
    grid = build_voxel_grid(scene.airspace)
    assert grid.count <= kernels._CHUNK   # one chunk: one wrap per distinct azimuth
    key = ("cell0", 0)
    lattice = scene.sub_beam(*key)[2].lattice()
    assert len(lattice) == 56 and len({a.azimuth_deg for a in lattice}) == 7
    ev = _FieldEvaluator(scene, grid, W, None, 1.0, 0.0)
    ev.set_assignment(BeamAssignment.baseline(scene))
    ev.candidate_deltas(key, [])   # the step context's rows are not counted
    calls = []
    original = antenna.wrap_angle_deg

    def counted(angle):
        calls.append(1)
        return original(angle)

    for module in (antenna, kernels, optimizer):
        monkeypatch.setattr(module, "wrap_angle_deg", counted)
    ev.candidate_deltas(key, lattice)
    assert len(calls) == 7


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

    def test_order_override_and_permutation_invariants(self):
        scene = random_instance(9)
        grid = build_voxel_grid(scene.airspace)
        base = BeamAssignment.baseline(scene)
        order_a = default_order(scene)
        order_b = list(reversed(order_a))
        for order in (order_a, order_b):
            _, trace, _ = greedy_optimize(scene, grid, base, W, order=order)
            assert trace.final_objective >= trace.initial_objective - 1e-9
            for step in trace.steps:
                assert step.objective_after >= step.objective_before - 1e-12

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

    def test_incomplete_order_rejected(self):
        scene = random_instance(1)
        grid = build_voxel_grid(scene.airspace)
        with pytest.raises(ConfigurationError):
            greedy_optimize(scene, grid, BeamAssignment.baseline(scene), W,
                            order=[("cell0", 0)])

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
                scene, grid, base.replaced(("cell0", 0), cand), W)
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
