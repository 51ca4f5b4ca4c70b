import io

import numpy as np
import pytest

from airtwin.interference import (
    NoiseModel,
    build_sinr_field,
    export_sinr_csv,
    linear_mw,
    noise_floor_dbm,
    serving_map,
)
from airtwin.scene import BeamAssignment, build_voxel_grid
from airtwin.spectrum import RadioField, build_field

from factories import simple_scene


class TestNoiseFloor:
    def test_reference(self):
        assert noise_floor_dbm(NoiseModel(1e8, 7.0)) == -87.0

    def test_definitional(self):
        assert noise_floor_dbm(NoiseModel(1.0, 0.0)) == -174.0

    def test_bandwidth_decade(self):
        a = noise_floor_dbm(NoiseModel(1e7, 3.0))
        b = noise_floor_dbm(NoiseModel(1e8, 3.0))
        assert b - a == pytest.approx(10.0, abs=1e-9)

    def test_invariants(self):
        with pytest.raises(ValueError):
            NoiseModel(0.0, 3.0)
        with pytest.raises(ValueError):
            NoiseModel(1e8, -1.0)


def synthetic_field(beam_values, cell_of_beam, cell_ids, grid=None):
    """Hand-crafted RadioField over a tiny grid (1 voxel per column of values)."""
    beam = np.asarray(beam_values, dtype=float)
    if grid is None:
        from airtwin.scene import CylinderSpec

        grid = build_voxel_grid(CylinderSpec((0.0, 0.0), 5.0, 0.0,
                                             10.0 * beam.shape[1], 10.0))
    rows = [[i for i, cb in enumerate(cell_of_beam) if cb == c] for c in range(len(cell_ids))]
    cell_rsrp = np.stack([np.max(beam[r], axis=0) for r in rows])
    cell_lin = np.stack([np.add.reduce(linear_mw(beam[r]), axis=0) for r in rows])
    return RadioField(grid=grid, cell_ids=tuple(cell_ids), cell_rsrp_dbm=cell_rsrp,
                      cell_lin_mw=cell_lin)


class TestSinr:
    def test_worked_example(self):
        # serving -80 dBm, one interfering sub-beam -90 dBm, noise -87 dBm
        field = synthetic_field([[-80.0], [-90.0]], [0, 1], ("a", "b"))
        sinr = build_sinr_field(field, NoiseModel(1e8, 7.0), 1.0)
        assert sinr.sinr_db[0] == pytest.approx(5.24, abs=0.01)
        assert sinr.sinr_db[0] == pytest.approx(5.235651375635149, abs=1e-9)

    def test_single_cell_exact(self):
        scene = simple_scene(n_cells=1, n_beams=2)
        grid = build_voxel_grid(scene.airspace)
        field = build_field(scene, grid, BeamAssignment.baseline(scene))
        sinr = build_sinr_field(field, NoiseModel.from_radio(scene.radio), 1.0)
        np.testing.assert_array_equal(sinr.sinr_db,
                                      sinr.serving_rsrp_dbm - (-87.0))

    def test_activity_zero_reduces_to_single_cell(self, tiny):
        scene, grid = tiny
        field = build_field(scene, grid, BeamAssignment.baseline(scene))
        sinr = build_sinr_field(field, NoiseModel.from_radio(scene.radio), 0.0)
        np.testing.assert_array_equal(sinr.sinr_db, sinr.serving_rsrp_dbm - (-87.0))

    def test_bound_by_noise_limited_sinr(self, tiny):
        scene, grid = tiny
        field = build_field(scene, grid, BeamAssignment.baseline(scene))
        sinr = build_sinr_field(field, NoiseModel.from_radio(scene.radio), 1.0)
        assert np.all(sinr.sinr_db <= sinr.serving_rsrp_dbm - (-87.0))

    def test_extra_interfering_beam_never_raises_sinr(self, tiny):
        # clone one sub-beam 20 dB down: cell-level field (and serving) is
        # unchanged, interference can only grow
        scene, grid = tiny
        field = build_field(scene, grid, BeamAssignment.baseline(scene))
        noise = NoiseModel.from_radio(scene.radio)
        before = build_sinr_field(field, noise, 1.0)

        lin = field.cell_lin_mw.copy()
        lin[0] += linear_mw(field.cell_rsrp_dbm[0] - 20.0)
        bigger = RadioField(grid=grid, cell_ids=field.cell_ids,
                            cell_rsrp_dbm=field.cell_rsrp_dbm, cell_lin_mw=lin)
        after = build_sinr_field(bigger, noise, 1.0)
        np.testing.assert_array_equal(after.serving_index, before.serving_index)
        assert np.all(after.sinr_db <= before.sinr_db)
        assert np.any(after.sinr_db < before.sinr_db)

    def test_higher_activity_never_raises_sinr(self, tiny):
        scene, grid = tiny
        field = build_field(scene, grid, BeamAssignment.baseline(scene))
        noise = NoiseModel.from_radio(scene.radio)
        low = build_sinr_field(field, noise, 0.3)
        high = build_sinr_field(field, noise, 0.9)
        assert np.all(high.sinr_db <= low.sinr_db)

    def test_uniform_shift_invariance(self, tiny):
        # shifting all powers AND the noise floor by the same delta keeps SINR
        scene, grid = tiny
        delta = 7.0
        field = build_field(scene, grid, BeamAssignment.baseline(scene))
        shifted = RadioField(grid=grid, cell_ids=field.cell_ids,
                             cell_rsrp_dbm=field.cell_rsrp_dbm + delta,
                             cell_lin_mw=field.cell_lin_mw * 10.0 ** (delta / 10.0))
        a = build_sinr_field(field, NoiseModel(1e8, 7.0), 1.0)
        b = build_sinr_field(shifted, NoiseModel(1e8, 7.0 + delta), 1.0)
        np.testing.assert_allclose(a.sinr_db, b.sinr_db, atol=1e-9)

    def test_signal_only_shift_changes_sinr(self, tiny):
        scene, grid = tiny
        field = build_field(scene, grid, BeamAssignment.baseline(scene))
        shifted = build_field(scene, grid, BeamAssignment.baseline(scene), 6.0)
        noise = NoiseModel.from_radio(scene.radio)
        a = build_sinr_field(field, noise, 1.0)
        b = build_sinr_field(shifted, noise, 1.0)
        assert not np.allclose(a.sinr_db, b.sinr_db)

    def test_activity_factor_validated(self, tiny):
        scene, grid = tiny
        field = build_field(scene, grid, BeamAssignment.baseline(scene))
        with pytest.raises(ValueError):
            build_sinr_field(field, NoiseModel.from_radio(scene.radio), 1.5)


class TestServingMap:
    def test_single_cell(self):
        scene = simple_scene(n_cells=1)
        grid = build_voxel_grid(scene.airspace)
        field = build_field(scene, grid, BeamAssignment.baseline(scene))
        assert set(serving_map(field)) == {"cell0"}

    def test_tie_breaks_lexicographic(self):
        field = synthetic_field([[-70.0, -70.0], [-70.0, -70.0]], [0, 1], ("a", "b"))
        assert list(serving_map(field)) == ["a", "a"]

    def test_matches_scalar_argmax(self, tiny):
        scene, grid = tiny
        field = build_field(scene, grid, BeamAssignment.baseline(scene))
        ids = serving_map(field)
        for v in range(0, grid.count, 3):
            best = max(range(len(field.cell_ids)),
                       key=lambda c: (field.cell_rsrp_dbm[c, v], -c))
            assert ids[v] == field.cell_ids[best]

    def test_invariant_under_monotone_transform(self, tiny):
        scene, grid = tiny
        field = build_field(scene, grid, BeamAssignment.baseline(scene))
        transformed = RadioField(grid=grid, cell_ids=field.cell_ids,
                                 cell_rsrp_dbm=2.0 * field.cell_rsrp_dbm + 5.0,
                                 cell_lin_mw=field.cell_lin_mw)
        assert list(serving_map(field)) == list(serving_map(transformed))


def test_export_sinr_csv(tiny):
    scene, grid = tiny
    field = build_field(scene, grid, BeamAssignment.baseline(scene))
    sinr = build_sinr_field(field, NoiseModel.from_radio(scene.radio), 1.0)
    buf = io.StringIO()
    export_sinr_csv(sinr, buf)
    lines = buf.getvalue().splitlines()
    assert lines[0] == "x_m,y_m,z_m,serving_cell,rsrp_dbm,sinr_db"
    assert len(lines) == 1 + grid.count
