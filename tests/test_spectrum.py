import dataclasses
import io
import math

import numpy as np
import pytest

from airtwin import kernels
from airtwin.antenna import AntennaPattern, Orientation, TablePattern, gain
from airtwin.errors import EmptySetError, SingularityError
from airtwin.interference import linear_mw
from airtwin.optimizer import ObjectiveWeights, _FieldEvaluator
from airtwin.scene import BeamAssignment, CylinderSpec, build_voxel_grid
from airtwin.spectrum import (
    TwinModel,
    beam_rsrp,
    build_field,
    calibrate_offset,
    drift_check,
    export_field_csv,
    fspl_db,
    predict_at,
)
from airtwin.measurements import MeasurementSet
from airtwin.synth import demo_scene
from factories import simple_scene, with_table_beam

C = 299_792_458.0


def antenna_rows(scene, grid, assignment, cell_id):
    """A cell's sub-beam RSRP at every voxel, in index order, through the antenna module."""
    site, cell = scene.cell(cell_id)
    delta = grid.centers - np.asarray(site.position_m)
    dist = np.linalg.norm(delta, axis=1)
    rows = []
    for sb in sorted(cell.sub_beams, key=lambda b: b.index):
        g = gain(sb.pattern, assignment.angle(cell_id, sb.index), delta / dist[:, None])
        rows.append(cell.tx_power_dbm + g - fspl_db(dist, scene.radio.frequency_hz))
    return np.asarray(rows)


def scalar_beams(scene, assignment, cell_id, point):
    """Scalar ``beam_rsrp`` of each of a cell's sub-beams at one point, in index order."""
    site, cell = scene.cell(cell_id)
    return [beam_rsrp(site, cell, sb, assignment.angle(cell_id, sb.index), point, scene.radio)
            for sb in sorted(cell.sub_beams, key=lambda b: b.index)]


def in_order_mw(values_dbm):
    total = 0.0
    for value in values_dbm:
        total += 10.0 ** (value / 10.0)
    return total


def interleaved_demo():
    """Small demo scene where site s1 owns s1c1 and s3c0, which are not adjacent in
    ``cell_ids`` order, and cell s2c1 lists its sub-beams in reverse index order."""
    scene = demo_scene(radius_m=200.0, height_m=150.0, voxel_m=15.0)
    s1, s2, s3 = scene.sites
    s1 = dataclasses.replace(s1, cells=(s1.cells[0],
                                        dataclasses.replace(s1.cells[1], id="s3c0")))
    reversed_cell = dataclasses.replace(s2.cells[0], sub_beams=s2.cells[0].sub_beams[::-1])
    s2 = dataclasses.replace(s2, cells=(reversed_cell, s2.cells[1]))
    return dataclasses.replace(scene, sites=(s1, s2, s3))


class TestFspl:
    def test_reference_value(self):
        # 20 log10(4*pi*1000*3.5e9 / c), cross-checked by hand
        assert fspl_db(1000.0, 3.5e9) == pytest.approx(103.32914410888888, abs=1e-9)
        assert fspl_db(1000.0, 3.5e9) == pytest.approx(103.32, abs=0.01)

    def test_definitional_zero(self):
        d = C / (4.0 * math.pi * 3.5e9)
        assert fspl_db(d, 3.5e9) == pytest.approx(0.0, abs=1e-9)

    def test_doubling_adds_6db(self):
        for f in (0.7e9, 3.5e9, 28e9):
            for d in (10.0, 123.0, 5000.0):
                delta = fspl_db(2 * d, f) - fspl_db(d, f)
                assert delta == pytest.approx(20.0 * math.log10(2.0), abs=1e-6)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            fspl_db(0.0, 1e9)
        with pytest.raises(ValueError):
            fspl_db(10.0, -1.0)

    def test_vectorized(self):
        d = np.array([100.0, 1000.0])
        out = fspl_db(d, 3.5e9)
        assert out.shape == (2,)
        assert out[1] - out[0] == pytest.approx(20.0, abs=1e-9)


def boresight_scene(tx=40.0):
    """Single cell at origin aimed due north with a wide-open steering box."""
    from airtwin.scene import (Cell, CoverageThresholds, RadioConstants, SceneConfig,
                               Site, SteeringBounds, SubBeam)

    pattern = AntennaPattern(g_max_dbi=17.0, hpbw_az_deg=65.0, hpbw_el_deg=35.0,
                             sla_db=30.0, fbr_db=30.0)
    beam = SubBeam(index=0, pattern=pattern,
                   bounds=SteeringBounds(-180.0, 180.0, -30.0, 30.0),
                   baseline=Orientation(0.0, 0.0), candidate_step=(5.0, 3.0))
    site = Site(id="s", position_m=(0.0, 0.0, 0.0),
                cells=(Cell(id="c", tx_power_dbm=tx, sub_beams=(beam,)),))
    return SceneConfig(sites=(site,),
                       airspace=CylinderSpec((0.0, 0.0), 2000.0, 0.0, 100.0, 50.0),
                       radio=RadioConstants(3.5e9, 1e8, 7.0),
                       thresholds=CoverageThresholds())


class TestBeamRsrp:
    def test_boresight_composition(self):
        scene = boresight_scene(tx=40.0)
        site, cell = scene.cell("c")
        sb = cell.sub_beams[0]
        value = beam_rsrp(site, cell, sb, Orientation(0.0, 0.0), (0.0, 1000.0, 0.0),
                          scene.radio)
        assert value == pytest.approx(40.0 + 17.0 - 103.32914410888888, abs=1e-9)
        assert value == pytest.approx(-46.32, abs=0.01)

    def test_offset_shifts_exactly(self):
        scene = boresight_scene()
        site, cell = scene.cell("c")
        sb = cell.sub_beams[0]
        p = (300.0, 700.0, 40.0)
        base = beam_rsrp(site, cell, sb, Orientation(20.0, 5.0), p, scene.radio, 0.0)
        shifted = beam_rsrp(site, cell, sb, Orientation(20.0, 5.0), p, scene.radio, 3.0)
        assert shifted == base + 3.0

    def test_back_lobe(self):
        scene = boresight_scene(tx=40.0)
        site, cell = scene.cell("c")
        sb = cell.sub_beams[0]
        value = beam_rsrp(site, cell, sb, Orientation(0.0, 0.0), (0.0, -1000.0, 0.0),
                          scene.radio)
        assert value == pytest.approx(-76.32, abs=0.01)

    def test_coincident_point_raises(self):
        scene = boresight_scene()
        site, cell = scene.cell("c")
        with pytest.raises(SingularityError):
            beam_rsrp(site, cell, cell.sub_beams[0], Orientation(0.0, 0.0),
                      (0.0, 0.0, 0.0), scene.radio)


class TestBuildField:
    def test_single_beam_equals_scalar(self):
        scene = simple_scene(n_cells=1, n_beams=1)
        grid = build_voxel_grid(scene.airspace)
        field = build_field(scene, grid, BeamAssignment.baseline(scene))
        site, cell = scene.cell("cell0")
        sb = cell.sub_beams[0]
        for idx in range(0, grid.count, max(grid.count // 40, 1)):
            ref = beam_rsrp(site, cell, sb, sb.baseline, grid.centers[idx], scene.radio)
            assert field.cell_rsrp_dbm[0, idx] == pytest.approx(ref, abs=1e-9)

    def test_two_identical_beams_same_angle(self):
        scene = simple_scene(n_cells=1, n_beams=2, az_halfwidth_deg=20.0)
        grid = build_voxel_grid(scene.airspace)
        assignment = BeamAssignment.baseline(scene)
        shared = assignment.angle("cell0", 0)
        assignment = assignment.replaced(("cell0", 1), shared)
        field = build_field(scene, grid, assignment)
        # two equal rows: the max is either row, and the mW sum is twice it
        np.testing.assert_array_equal(field.cell_lin_mw[0],
                                      2.0 * linear_mw(field.cell_rsrp_dbm[0]))
        rows = antenna_rows(scene, grid, assignment, "cell0")
        np.testing.assert_allclose(rows[0], rows[1], atol=1e-9)
        np.testing.assert_allclose(field.cell_rsrp_dbm[0], rows[0], atol=1e-9)

    def test_demo_scene_matches_independent_recomputation(self, demo):
        # Vectorized recomputation through the antenna module (independent of
        # the kernels), exhaustive over all beams and voxels.
        scene, grid = demo
        assignment = BeamAssignment.baseline(scene)
        field = build_field(scene, grid, assignment)
        for c, cell_id in enumerate(field.cell_ids):
            rows = antenna_rows(scene, grid, assignment, cell_id)
            np.testing.assert_allclose(field.cell_rsrp_dbm[c], rows.max(axis=0), atol=1e-9)
            np.testing.assert_allclose(field.cell_lin_mw[c],
                                       np.add.reduce(10.0 ** (rows / 10.0), axis=0),
                                       rtol=1e-9, atol=0.0)
        # spot-check the scalar reference path on random (voxel, cell) pairs
        rng = np.random.default_rng(0)
        for _ in range(100):
            c = int(rng.integers(len(field.cell_ids)))
            v = int(rng.integers(grid.count))
            refs = scalar_beams(scene, assignment, field.cell_ids[c], grid.centers[v])
            assert field.cell_rsrp_dbm[c, v] == pytest.approx(max(refs), abs=1e-9)
            assert field.cell_lin_mw[c, v] == pytest.approx(in_order_mw(refs), rel=1e-9)

    def test_cell_level_dominates_beams(self, tiny):
        scene, grid = tiny
        assignment = BeamAssignment.baseline(scene)
        field = build_field(scene, grid, assignment)
        for c, cell_id in enumerate(field.cell_ids):
            rows = antenna_rows(scene, grid, assignment, cell_id)
            assert np.all(field.cell_rsrp_dbm[c][None, :] >= rows - 1e-9)
            # the mW sum is at least its strongest sub-beam's power
            assert np.all(field.cell_lin_mw[c] >= linear_mw(field.cell_rsrp_dbm[c]))

    def test_offset_linearity_exact(self, tiny):
        scene, grid = tiny
        assignment = BeamAssignment.baseline(scene)
        f0 = build_field(scene, grid, assignment, 0.0)
        f3 = build_field(scene, grid, assignment, 3.0)
        np.testing.assert_array_equal(f3.cell_rsrp_dbm, f0.cell_rsrp_dbm + 3.0)

    def test_monotone_along_boresight_ray(self):
        scene = boresight_scene()
        site, cell = scene.cell("c")
        sb = cell.sub_beams[0]
        distances = np.linspace(50.0, 1900.0, 60)
        values = [beam_rsrp(site, cell, sb, Orientation(0.0, 0.0), (0.0, d, 0.0),
                            scene.radio) for d in distances]
        assert np.all(np.diff(values) < 0)

    def test_threads_byte_identical(self, tiny):
        scene, grid = tiny
        assignment = BeamAssignment.baseline(scene)
        outputs = []
        for threads in (1, 2, 8):
            field = build_field(scene, grid, assignment, threads=threads)
            buf = io.StringIO()
            export_field_csv(field, buf)
            outputs.append(buf.getvalue())
        assert outputs[0] == outputs[1] == outputs[2]

    def test_table_pattern_beam_matches_scalar(self):
        scene = with_table_beam(simple_scene(n_cells=2, n_beams=2, radius_m=60.0,
                                             z_max_m=40.0, voxel_m=10.0))
        grid = build_voxel_grid(scene.airspace)
        assignment = BeamAssignment.baseline(scene)
        field = build_field(scene, grid, assignment)
        site, cell, sb = scene.sub_beam("cell0", 0)
        assert isinstance(sb.pattern, TablePattern)
        c = field.cell_ids.index("cell0")
        for v in range(grid.count):
            refs = scalar_beams(scene, assignment, "cell0", grid.centers[v])
            assert field.cell_rsrp_dbm[c, v] == pytest.approx(max(refs), abs=1e-9)
            assert field.cell_lin_mw[c, v] == pytest.approx(in_order_mw(refs), rel=1e-9)
        outputs = []
        for threads in (1, 2):
            buf = io.StringIO()
            export_field_csv(build_field(scene, grid, assignment, threads=threads), buf)
            outputs.append(buf.getvalue())
        assert outputs[0] == outputs[1]

    def test_threads_identical_across_chunk_boundaries(self, monkeypatch):
        scene = simple_scene(n_cells=2, n_beams=2, radius_m=100.0, z_max_m=60.0, voxel_m=8.0)
        grid = build_voxel_grid(scene.airspace)
        assignment = BeamAssignment.baseline(scene)
        one_chunk = build_field(scene, grid, assignment)
        monkeypatch.setattr(kernels, "_CHUNK", 997)
        assert grid.count > 3 * kernels._CHUNK
        fields = [build_field(scene, grid, assignment, threads=t) for t in (1, 2, 3)]
        for f in fields:
            assert f.cell_rsrp_dbm.tobytes() == one_chunk.cell_rsrp_dbm.tobytes()
            assert f.cell_lin_mw.tobytes() == one_chunk.cell_lin_mw.tobytes()

    @pytest.mark.parametrize("threads", [1, 2, 3])
    def test_optimizer_field_after_applies_equals_build_field(self, monkeypatch, threads):
        # the field reduces per (site, chunk), the evaluator rewrites one cell
        # per step from full-grid rows; both must give the same bits, also for
        # a site whose cells are not adjacent in cell_ids order and a cell
        # listing its sub-beams out of order
        scene = interleaved_demo()
        grid = build_voxel_grid(scene.airspace)
        monkeypatch.setattr(kernels, "_CHUNK", 997)
        assert grid.count > 3 * kernels._CHUNK
        assignment = BeamAssignment.baseline(scene)
        ev = _FieldEvaluator(scene, grid, ObjectiveWeights(), None, 1.0, 0.0, threads)
        ev.set_assignment(assignment)
        keys = scene.beam_keys()
        steps = [("s1c1", 0), ("s2c1", 0), ("s2c1", 6), ("s3c0", 3), ("s1c1", 0),
                 ("s3c2", 6), ("s2c2", 1)]
        for i, key in enumerate(steps):
            lattice = scene.sub_beam(*key)[2].lattice()
            angle = lattice[(5 * i + 3) % len(lattice)]
            other = keys[(11 * i + 5) % len(keys)]   # apply must not reuse its context
            ev.candidate_deltas(other, scene.sub_beam(*other)[2].lattice()[:2])
            ev.apply(key, angle)
            assignment = assignment.replaced(key, angle)
            assert ev.angles == assignment.angles
            field = build_field(scene, grid, assignment, threads=threads)
            assert field.cell_ids == ev.field.cell_ids
            assert np.array_equal(field.cell_rsrp_dbm, ev.field.cell_rsrp_dbm), key
            assert np.array_equal(field.cell_lin_mw, ev.field.cell_lin_mw), key

    def test_export_row_order_and_format(self):
        scene = simple_scene(n_cells=2, n_beams=1, radius_m=15.0, z_max_m=10.0,
                             voxel_m=10.0, site_ring_m=12.0)
        grid = build_voxel_grid(scene.airspace)
        field = build_field(scene, grid, BeamAssignment.baseline(scene))
        buf = io.StringIO()
        export_field_csv(field, buf)
        lines = buf.getvalue().splitlines()
        assert lines[0] == "x_m,y_m,z_m,cell_id,rsrp_dbm"
        assert len(lines) == 1 + grid.count * 2
        # first voxel appears twice (both cells) before the second voxel
        assert lines[1].split(",")[3] == "cell0"
        assert lines[2].split(",")[3] == "cell1"


class TestPredictAt:
    def test_consistent_with_field(self, tiny):
        scene, grid = tiny
        assignment = BeamAssignment.baseline(scene)
        field = build_field(scene, grid, assignment)
        points = [(grid.centers[i], cid)
                  for i in range(0, grid.count, 7) for cid in scene.cell_ids]
        values = predict_at(scene, assignment, 0.0, points)
        k = 0
        for i in range(0, grid.count, 7):
            for c, _ in enumerate(scene.cell_ids):
                assert values[k] == pytest.approx(field.cell_rsrp_dbm[c, i], abs=1e-9)
                k += 1

    def test_empty_points(self, tiny):
        scene, _ = tiny
        out = predict_at(scene, BeamAssignment.baseline(scene), 0.0, [])
        assert out.shape == (0,)

    def test_random_points_match_scalar(self, tiny):
        scene, _ = tiny
        assignment = BeamAssignment.baseline(scene)
        rng = np.random.default_rng(5)
        points = []
        for _ in range(100):
            pos = (rng.uniform(-50, 50), rng.uniform(-50, 50), rng.uniform(1, 39))
            points.append((pos, rng.choice(scene.cell_ids)))
        values = predict_at(scene, assignment, 1.5, points)
        for k, (pos, cid) in enumerate(points):
            site, cell = scene.cell(cid)
            expected = max(
                beam_rsrp(site, cell, sb, assignment.angle(cid, sb.index), pos,
                          scene.radio, 1.5)
                for sb in cell.sub_beams)
            assert values[k] == pytest.approx(expected, abs=1e-9)

    def test_unknown_cell(self, tiny):
        scene, _ = tiny
        from airtwin.errors import UnknownCellError

        with pytest.raises(UnknownCellError):
            predict_at(scene, BeamAssignment.baseline(scene), 0.0,
                       [((0.0, 0.0, 10.0), "nope")])


class TestCalibration:
    def test_constant_shift_exact(self):
        predicted = np.linspace(-90.0, -60.0, 50)
        cal = calibrate_offset(predicted, predicted + 3.0)
        assert cal.offset_db == 3.0
        assert cal.residual_rmse_db == 0.0
        assert cal.n_samples == 50

    def test_two_point_symmetry(self):
        cal = calibrate_offset(np.array([0.0, 0.0]), np.array([1.0, -1.0]))
        assert cal.offset_db == 0.0
        assert cal.residual_rmse_db == pytest.approx(1.0)

    def test_monte_carlo_recovery(self):
        # offset c recovered within 3 sigma / sqrt(n) for sigma=2, n=1000
        for seed in range(10):
            rng = np.random.default_rng(seed)
            predicted = rng.uniform(-100.0, -60.0, 1000)
            measured = predicted + 3.0 + rng.normal(0.0, 2.0, 1000)
            cal = calibrate_offset(predicted, measured)
            assert abs(cal.offset_db - 3.0) <= 0.2

    def test_empty_rejected(self):
        with pytest.raises(EmptySetError):
            calibrate_offset(np.array([]), np.array([]))


def _measurements_from(scene, assignment, offset=0.0, n=60, noise=0.0, seed=0):
    rng = np.random.default_rng(seed)
    positions = np.stack([rng.uniform(-40, 40, n), rng.uniform(-40, 40, n),
                          rng.uniform(5, 35, n)], axis=1)
    cells = rng.choice(scene.cell_ids, n)
    model = TwinModel(scene, assignment, offset)
    values = model.predict(positions, cells) + rng.normal(0.0, noise, n)
    return MeasurementSet(seq=np.arange(n), positions=positions,
                          cell_ids=cells, rsrp_dbm=values)


class TestDriftCheck:
    def test_self_consistent(self, tiny):
        scene, _ = tiny
        model = TwinModel(scene, BeamAssignment.baseline(scene), offset_db=1.0)
        mset = _measurements_from(scene, model.assignment, offset=1.0)
        report = drift_check(model, mset, threshold_db=5.0)
        assert report.rmse_db == pytest.approx(0.0, abs=1e-12)
        assert not report.drifted
        assert report.refit.offset_db == pytest.approx(1.0, abs=1e-12)

    def test_shift_detected_and_refit(self, tiny):
        scene, _ = tiny
        model = TwinModel(scene, BeamAssignment.baseline(scene), offset_db=2.0)
        mset = _measurements_from(scene, model.assignment, offset=12.0)  # +10 shift
        report = drift_check(model, mset, threshold_db=5.0)
        assert report.drifted
        assert report.rmse_db == pytest.approx(10.0, abs=1e-9)
        assert report.refit.offset_db == pytest.approx(12.0, abs=1e-9)

    def test_zero_threshold_flags_noise(self, tiny):
        scene, _ = tiny
        model = TwinModel(scene, BeamAssignment.baseline(scene))
        mset = _measurements_from(scene, model.assignment, noise=0.5, seed=3)
        report = drift_check(model, mset, threshold_db=0.0)
        assert report.drifted

    def test_empty_set_rejected(self, tiny):
        scene, _ = tiny
        model = TwinModel(scene, BeamAssignment.baseline(scene))
        empty = MeasurementSet(seq=np.array([], dtype=np.int64),
                               positions=np.zeros((0, 3)),
                               cell_ids=np.array([], dtype=object),
                               rsrp_dbm=np.array([]))
        with pytest.raises(EmptySetError):
            drift_check(model, empty, 1.0)
