import io
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from airtwin import kernels
from airtwin.errors import SceneValidationError
from airtwin.interference import export_sinr_csv, noise_floor_dbm, sinr_from_field
from airtwin.kernels import linear_mw
from airtwin.scene import BeamAssignment, RadioConstants, build_voxel_grid
from airtwin.spectrum import RadioField, build_field

from factories import simple_scene


# dBm values whose mW overflows (above about 3,082.5), is subnormal (below about
# -3,076.5) or underflows to 0 (below about -3,240), plus the special values.
DBM = st.one_of(st.floats(-3300.0, 3300.0),
                st.sampled_from([0.0, -0.0, np.nan, np.inf, -np.inf, 3082.5, 3083.0,
                                 -3077.0, -3200.0, -3240.0]),
                st.floats(allow_nan=True, allow_infinity=True))


class TestLinearMw:
    @settings(max_examples=300, deadline=None, database=None)
    @given(hnp.arrays(np.float64, hnp.array_shapes(min_dims=0, max_dims=2, max_side=40),
                      elements=DBM),
           st.booleans(), st.booleans())
    def test_equals_power_of_ten_bit_for_bit(self, dbm, transposed, in_place):
        x = dbm.T if transposed else dbm   # a transposed 2-D view is not contiguous
        with np.errstate(over="ignore"):
            expected = np.power(10.0, x * 0.1)
            got = linear_mw(x, out=x if in_place else None)
        assert got.shape == expected.shape
        assert np.array_equal(got.view(np.int64), expected.view(np.int64))
        if in_place:
            assert got is x

    def test_in_place_allocates_less_than_a_chunk(self):
        rows = np.random.default_rng(0).uniform(-140.0, 0.0, (7, 3 * kernels._CHUNK))
        expected = np.power(10.0, rows * 0.1)
        tracemalloc.start()
        try:
            got = linear_mw(rows, out=rows)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert got is rows
        assert peak < kernels._CHUNK * rows.itemsize
        assert np.array_equal(rows.view(np.int64), expected.view(np.int64))


def radio(bandwidth_hz, noise_figure_db):
    return RadioConstants(3.5e9, bandwidth_hz, noise_figure_db)


class TestNoiseFloor:
    def test_reference(self):
        assert noise_floor_dbm(radio(1e8, 7.0)) == -87.0

    def test_definitional(self):
        assert noise_floor_dbm(radio(1.0, 0.0)) == -174.0

    def test_bandwidth_decade(self):
        a = noise_floor_dbm(radio(1e7, 3.0))
        b = noise_floor_dbm(radio(1e8, 3.0))
        assert b - a == pytest.approx(10.0, abs=1e-9)

    def test_invariants(self):
        with pytest.raises(SceneValidationError):
            radio(0.0, 3.0)
        with pytest.raises(SceneValidationError):
            radio(1e8, -1.0)


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
        sinr = sinr_from_field(field, radio(1e8, 7.0), 1.0)
        assert sinr.sinr_db[0] == pytest.approx(5.24, abs=0.01)
        assert sinr.sinr_db[0] == pytest.approx(5.235651375635149, abs=1e-9)

    def test_single_cell_exact(self):
        scene = simple_scene(n_cells=1, n_beams=2)
        grid = build_voxel_grid(scene.airspace)
        field = build_field(scene, grid, BeamAssignment.baseline(scene))
        sinr = sinr_from_field(field, scene.radio, 1.0)
        np.testing.assert_array_equal(sinr.sinr_db,
                                      sinr.serving_rsrp_dbm - (-87.0))

    def test_activity_zero_reduces_to_single_cell(self, tiny):
        scene, grid = tiny
        field = build_field(scene, grid, BeamAssignment.baseline(scene))
        sinr = sinr_from_field(field, scene.radio, 0.0)
        np.testing.assert_array_equal(sinr.sinr_db, sinr.serving_rsrp_dbm - (-87.0))

    def test_bound_by_noise_limited_sinr(self, tiny):
        scene, grid = tiny
        field = build_field(scene, grid, BeamAssignment.baseline(scene))
        sinr = sinr_from_field(field, scene.radio, 1.0)
        assert np.all(sinr.sinr_db <= sinr.serving_rsrp_dbm - (-87.0))

    def test_extra_interfering_beam_never_raises_sinr(self, tiny):
        # clone one sub-beam 20 dB down: cell-level field (and serving) is
        # unchanged, interference can only grow
        scene, grid = tiny
        field = build_field(scene, grid, BeamAssignment.baseline(scene))
        noise = scene.radio
        before = sinr_from_field(field, noise, 1.0)

        lin = field.cell_lin_mw.copy()
        lin[0] += linear_mw(field.cell_rsrp_dbm[0] - 20.0)
        bigger = RadioField(grid=grid, cell_ids=field.cell_ids,
                            cell_rsrp_dbm=field.cell_rsrp_dbm, cell_lin_mw=lin)
        after = sinr_from_field(bigger, noise, 1.0)
        np.testing.assert_array_equal(after.serving_index, before.serving_index)
        assert np.all(after.sinr_db <= before.sinr_db)
        assert np.any(after.sinr_db < before.sinr_db)

    def test_higher_activity_never_raises_sinr(self, tiny):
        scene, grid = tiny
        field = build_field(scene, grid, BeamAssignment.baseline(scene))
        noise = scene.radio
        low = sinr_from_field(field, noise, 0.3)
        high = sinr_from_field(field, noise, 0.9)
        assert np.all(high.sinr_db <= low.sinr_db)

    def test_uniform_shift_invariance(self, tiny):
        # shifting all powers AND the noise floor by the same delta keeps SINR
        scene, grid = tiny
        delta = 7.0
        field = build_field(scene, grid, BeamAssignment.baseline(scene))
        shifted = RadioField(grid=grid, cell_ids=field.cell_ids,
                             cell_rsrp_dbm=field.cell_rsrp_dbm + delta,
                             cell_lin_mw=field.cell_lin_mw * 10.0 ** (delta / 10.0))
        a = sinr_from_field(field, radio(1e8, 7.0), 1.0)
        b = sinr_from_field(shifted, radio(1e8, 7.0 + delta), 1.0)
        np.testing.assert_allclose(a.sinr_db, b.sinr_db, atol=1e-9)

    def test_signal_only_shift_changes_sinr(self, tiny):
        scene, grid = tiny
        field = build_field(scene, grid, BeamAssignment.baseline(scene))
        shifted = build_field(scene, grid, BeamAssignment.baseline(scene), 6.0)
        noise = scene.radio
        a = sinr_from_field(field, noise, 1.0)
        b = sinr_from_field(shifted, noise, 1.0)
        assert not np.allclose(a.sinr_db, b.sinr_db)

    def test_activity_factor_validated(self, tiny):
        scene, grid = tiny
        field = build_field(scene, grid, BeamAssignment.baseline(scene))
        with pytest.raises(ValueError):
            sinr_from_field(field, scene.radio, 1.5)


def serving_ids(field: RadioField) -> list[str]:
    sinr = sinr_from_field(field, radio(1e8, 7.0), 1.0)
    return [field.cell_ids[c] for c in sinr.serving_index]


class TestServingMap:
    """``sinr_from_field``'s serving cell: the first strongest cell per voxel."""

    def test_single_cell(self):
        scene = simple_scene(n_cells=1)
        grid = build_voxel_grid(scene.airspace)
        field = build_field(scene, grid, BeamAssignment.baseline(scene))
        assert set(serving_ids(field)) == {"cell0"}

    def test_tie_breaks_lexicographic(self):
        field = synthetic_field([[-70.0, -70.0], [-70.0, -70.0]], [0, 1], ("a", "b"))
        assert serving_ids(field) == ["a", "a"]

    def test_matches_scalar_argmax(self, tiny):
        scene, grid = tiny
        field = build_field(scene, grid, BeamAssignment.baseline(scene))
        ids = serving_ids(field)
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
        assert serving_ids(field) == serving_ids(transformed)

    def test_later_cell_tying_an_earlier_winner_loses(self):
        # Four cells over eight voxels. On the even voxels cell "d" ties the
        # running max set by "b" (after "c" lost to "b"), on the odd voxels it
        # is strictly stronger; "a" is weakest everywhere.
        n = 8
        rsrp = np.stack([np.full(n, -90.0), np.full(n, -70.0), np.full(n, -80.0),
                         np.where(np.arange(n) % 2 == 0, -70.0, np.nextafter(-70.0, 0.0))])
        field = RadioField(grid=None, cell_ids=("a", "b", "c", "d"), cell_rsrp_dbm=rsrp,
                           cell_lin_mw=linear_mw(rsrp))
        sinr = sinr_from_field(field, radio(1e8, 7.0), 1.0)
        np.testing.assert_array_equal(sinr.serving_index, np.tile([1, 3], n // 2))
        np.testing.assert_array_equal(sinr.serving_rsrp_dbm,
                                      rsrp[sinr.serving_index, np.arange(n)])
        np.testing.assert_array_equal(sinr.serving_index, np.argmax(rsrp, axis=0))


def test_export_sinr_csv(tiny):
    scene, grid = tiny
    field = build_field(scene, grid, BeamAssignment.baseline(scene))
    sinr = sinr_from_field(field, scene.radio, 1.0)
    buf = io.StringIO()
    export_sinr_csv(sinr, buf)
    lines = buf.getvalue().splitlines()
    assert lines[0] == "x_m,y_m,z_m,serving_cell,rsrp_dbm,sinr_db"
    assert len(lines) == 1 + grid.count
