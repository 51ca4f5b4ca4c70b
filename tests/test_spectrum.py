import contextlib
import dataclasses
import io
import math
import re
import tracemalloc
import warnings
from types import SimpleNamespace

import hypothesis
import numpy as np
import pytest
from hypothesis import strategies as st

from airtwin import kernels, report
from airtwin.antenna import AntennaPattern, Orientation, TablePattern, gain, wrap_angle_deg
from airtwin.cli import main
from airtwin.errors import EmptySetError, SingularityError
from airtwin.interference import build_sinr_field, sinr_from_field
from airtwin.kernels import linear_mw
from airtwin.optimizer import ObjectiveWeights, _FieldEvaluator
from airtwin.report import CRITERIA
from airtwin.scene import (
    BeamAssignment,
    CylinderSpec,
    build_voxel_grid,
    save_assignment,
    scene_from_dict,
)
from airtwin.spectrum import (
    beam_rsrp,
    build_field,
    calibrate_offset,
    export_field_csv,
    fspl_db,
    predict_at,
)
from factories import DEMO_SCENE, demo_doc, simple_scene, with_table_beam
from oracles import compare_report, contains, layer_bounds, layer_indices, replaced

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


def small_demo():
    """The demo scene over a 200 m radius, 150 m high airspace of 15 m voxels."""
    return scene_from_dict(demo_doc(radius_m=200.0, z_max_m=150.0, voxel_m=15.0))


def interleaved_demo():
    """Small demo scene where site s1 owns s1c1 and s3c0, which are not adjacent in
    ``cell_ids`` order, and cell s2c1 lists its sub-beams in reverse index order."""
    scene = small_demo()
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


def site_at(scene, position):
    """``scene`` with its first site moved to ``position``."""
    site = dataclasses.replace(scene.sites[0], position_m=tuple(float(p) for p in position))
    return dataclasses.replace(scene, sites=(site, *scene.sites[1:]))


class TestSiteOnVoxelCenter:
    """A site on a voxel center is rejected by ``kernels.site_geometry``."""

    def setup_method(self):
        self.scene = simple_scene(n_cells=2, radius_m=60.0, z_max_m=60.0, voxel_m=20.0)
        self.grid = build_voxel_grid(self.scene.airspace)
        assert self.grid.layer_z.size == 3

    def test_center_in_a_later_layer_rejected(self):
        center = self.grid.centers[layer_indices(self.grid, self.grid.layer_z[2])[3]]
        with pytest.raises(SingularityError, match="site0"):
            build_field(site_at(self.scene, center), self.grid,
                        BeamAssignment.baseline(self.scene))

    @pytest.mark.parametrize("axis", [0, 1, 2])
    def test_one_ulp_off_a_center_accepted(self, axis):
        center = self.grid.centers[layer_indices(self.grid, self.grid.layer_z[1])[5]].copy()
        center[axis] = np.nextafter(center[axis], np.inf)
        field = build_field(site_at(self.scene, center), self.grid,
                            BeamAssignment.baseline(self.scene))
        assert field.cell_rsrp_dbm.shape == (2, self.grid.count)

    @pytest.mark.parametrize("offset, distance", [(5e-324, 0.0), (1e-200, 0.0),
                                                  (1e-100, 1e-100), (1e-30, 1e-30)])
    def test_too_close_to_a_center_rejected_before_any_division(self, offset, distance):
        # With the airspace centered at x = 10 a lattice tick sits at x = 0, so
        # these are distinct positions: 5e-324 and 1e-200 square to 0, and the
        # others would give a path loss far below -500 dB.
        spec = dataclasses.replace(self.grid.spec, center_m=(10.0, 0.0))
        scene = dataclasses.replace(self.scene, airspace=spec)
        grid = build_voxel_grid(spec)
        assert np.any(np.all(grid.centers == (0.0, 10.0, 10.0), axis=1))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SingularityError, match=re.escape(
                    f"is {distance!r} m from site 'site0' at ({offset!r}, 10.0, 10.0)")):
                build_field(site_at(scene, (offset, 10.0, 10.0)), grid,
                            BeamAssignment.baseline(scene))

    def test_lattice_point_outside_the_cylinder_accepted(self):
        spec = self.grid.spec
        v = spec.voxel_m
        corner = [spec.center_m[0] - spec.radius_m + 0.5 * v,   # lattice (0, 0, 0)
                  spec.center_m[1] - spec.radius_m + 0.5 * v, spec.z_min_m + 0.5 * v]
        assert not contains(spec, corner)
        assert not np.any(np.all(self.grid.centers == corner, axis=1))
        field = build_field(site_at(self.scene, corner), self.grid,
                            BeamAssignment.baseline(self.scene))
        assert np.all(np.isfinite(field.cell_rsrp_dbm))


@st.composite
def airspaces(draw):
    """A cylinder of at most about 20,000 voxels, anywhere."""
    voxel_m = draw(st.floats(2.0, 40.0))
    radius_m = draw(st.floats(0.5, 40.0)) * voxel_m
    z_min_m = draw(st.floats(-300.0, 300.0))
    height_m = draw(st.floats(0.5, 20.0)) * voxel_m   # the first layer's center is in
    hypothesis.assume(math.pi * (radius_m / voxel_m + 1) ** 2 * (height_m / voxel_m + 1)
                      < 20_000)
    center = draw(st.tuples(st.floats(-1e4, 1e4), st.floats(-1e4, 1e4)))
    return CylinderSpec(center, radius_m, z_min_m, z_min_m + height_m, voxel_m)


def geometry_or_error(x, y, z, site, frequency_hz):
    """``kernels.site_geometry``'s arrays, or the message of its ``SingularityError``."""
    try:
        return kernels.site_geometry(x, y, z, site, frequency_hz)
    except SingularityError as exc:
        return str(exc)


@hypothesis.settings(max_examples=80, deadline=None)
@hypothesis.given(st.data())
def test_broadcast_site_geometry_equals_the_per_point_form(data):
    """Over (columns, layers), the geometry has the bits of the per-voxel form at the centers.

    The site sits anywhere, or on a voxel center or an offset of it whose
    square underflows or nearly does; then both forms name the same point.
    """
    grid = build_voxel_grid(data.draw(airspaces()))
    n_layers, n_columns = grid.shape
    voxel = grid.centers[data.draw(st.integers(0, grid.count - 1))]
    offset = data.draw(st.tuples(*[st.sampled_from([0.0, 5e-324, 1e-200, 1e-30, 0.25])] * 3))
    position = data.draw(st.one_of(
        st.just(tuple(map(float, voxel + offset))),
        st.tuples(*[st.floats(-2e4, 2e4)] * 3)))
    site = SimpleNamespace(id="site0", position_m=position)
    frequency_hz = data.draw(st.floats(1e6, 1e11))
    lo = data.draw(st.integers(0, n_columns - 1))
    hi = data.draw(st.integers(lo + 1, n_columns))
    block = grid.centers.reshape(n_layers, n_columns, 3)[:, lo:hi].reshape(-1, 3)
    broadcast = geometry_or_error(*grid.coordinates(lo, hi), site, frequency_hz)
    per_point = geometry_or_error(*block.T, site, frequency_hz)
    hypothesis.event("rejected" if isinstance(per_point, str) else "accepted")
    if isinstance(per_point, str):
        assert broadcast == per_point
        return
    az, el, loss = broadcast
    assert az.shape == (hi - lo,) and el.shape == loss.shape == (n_layers, hi - lo)
    for got, want in zip((np.broadcast_to(az, el.shape), el, loss), per_point):
        assert got.tobytes() == want.tobytes()
    dx, dy, dz = (block - np.asarray(position)).T   # the distance in the parent's order
    assert loss.tobytes() == kernels.fspl(np.sqrt(dx * dx + dy * dy + dz * dz),
                                          frequency_hz).tobytes()


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
        assignment = replaced(assignment, ("cell0", 1), shared)
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
        # the field reduces per chunk, the evaluator rewrites one cell
        # per step from full-grid rows; both must give the same bits, also for
        # a site whose cells are not adjacent in cell_ids order and a cell
        # listing its sub-beams out of order
        scene = interleaved_demo()
        grid = build_voxel_grid(scene.airspace)
        monkeypatch.setattr(kernels, "_CHUNK", 997)
        assert grid.count > 3 * kernels._CHUNK
        assignment = BeamAssignment.baseline(scene)
        ev = _FieldEvaluator(scene, grid, ObjectiveWeights(), 1.0, 0.0, threads)
        ev.set_assignment(assignment)
        keys = scene.beam_keys()
        steps = [("s1c1", 0), ("s2c1", 0), ("s2c1", 6), ("s3c0", 3), ("s1c1", 0),
                 ("s3c2", 6), ("s2c2", 1)]
        for i, key in enumerate(steps):
            lattice = scene.sub_beam(*key)[2].lattice()
            angle = lattice[(5 * i + 3) % len(lattice)]
            other = keys[(11 * i + 5) % len(keys)]   # apply must not reuse its context
            ev.totals(other, scene.sub_beam(*other)[2].lattice()[:2])
            ev.apply(key, angle)
            assignment = replaced(assignment, key, angle)
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


def rows_block_field(scene, grid, assignment, offset_db=0.0):
    """Reference for ``build_field``: the earlier rows-block build, kept here.

    Per (site, chunk) it fills each cell's (sub-beam, voxel) block of rows
    through the pattern's own ``offset_gain_dbi``, then reduces the block with
    ``np.maximum.reduce`` and ``np.add.reduce`` of ``np.power(10.0, 0.1 x)``
    along axis 0. Returns the cell max and the cell mW sum.
    """
    cell_ids = scene.cell_ids
    cell_rsrp = np.empty((len(cell_ids), grid.count))
    cell_lin = np.empty_like(cell_rsrp)
    for site in scene.sites:
        for lo, hi in kernels.chunks(grid.count):
            az, el, loss = kernels.site_geometry(*grid.centers[lo:hi].T, site,
                                                 scene.radio.frequency_hz)
            for cell in site.cells:
                beams = sorted(cell.sub_beams, key=lambda b: b.index)
                rows = np.empty((len(beams), hi - lo))
                for row, sb in zip(rows, beams):
                    angle = assignment.angle(cell.id, sb.index)
                    gain_dbi = sb.pattern.offset_gain_dbi(
                        wrap_angle_deg(az - angle.azimuth_deg), el - angle.tilt_deg)
                    row[:] = cell.tx_power_dbm + gain_dbi - loss + offset_db
                c = cell_ids.index(cell.id)
                cell_rsrp[c, lo:hi] = np.maximum.reduce(rows, axis=0)
                cell_lin[c, lo:hi] = np.add.reduce(np.power(10.0, rows * 0.1), axis=0)
    return cell_rsrp, cell_lin


def seeded_assignment(scene, seed):
    """One lattice angle per sub-beam, drawn at random: several tilts per site."""
    rng = np.random.default_rng(seed)
    angles = {}
    for key in scene.beam_keys():
        lattice = scene.sub_beam(*key)[2].lattice()
        angles[key] = lattice[int(rng.integers(len(lattice)))]
    return BeamAssignment(angles)


def with_cell_pattern(scene, cell_id, **changes):
    """``scene`` with every sub-beam of ``cell_id`` on its pattern changed by ``changes``."""
    sites = []
    for site in scene.sites:
        cells = tuple(dataclasses.replace(cell, sub_beams=tuple(
            dataclasses.replace(sb, pattern=dataclasses.replace(sb.pattern, **changes))
            for sb in cell.sub_beams)) if cell.id == cell_id else cell for cell in site.cells)
        sites.append(dataclasses.replace(site, cells=cells))
    return dataclasses.replace(scene, sites=tuple(sites))


def assert_bits_equal_rows_block(scene, grid, assignment, offset_db=0.0, threads=1):
    field = build_field(scene, grid, assignment, offset_db, threads=threads)
    cell_rsrp, cell_lin = rows_block_field(scene, grid, assignment, offset_db)
    assert np.array_equal(field.cell_rsrp_dbm.view(np.int64), cell_rsrp.view(np.int64))
    assert np.array_equal(field.cell_lin_mw.view(np.int64), cell_lin.view(np.int64))


class TestRowByRowBuildBitIdentity:
    """``build_field`` folds one row at a time; it must equal the rows-block build."""

    @pytest.mark.parametrize("seed", [None, 0, 1])
    def test_demo_scene(self, demo, seed):
        scene, grid = demo
        assignment = (BeamAssignment.baseline(scene) if seed is None
                      else seeded_assignment(scene, seed))
        assert_bits_equal_rows_block(scene, grid, assignment)

    @pytest.mark.parametrize("changes", [{"hpbw_el_deg": 14.0}, {"sla_db": 18.0}])
    def test_cells_sharing_tilts_on_other_elevation_terms(self, changes):
        # the baseline tilt is 0 for every sub-beam, so both cells of site s1
        # meet the same tilts; only the pattern tells their elevation terms apart
        scene = with_cell_pattern(small_demo(),
                                  "s1c2", **changes)
        grid = build_voxel_grid(scene.airspace)
        assignment = BeamAssignment.baseline(scene)
        assert {a.tilt_deg for a in assignment.angles.values()} == {0.0}
        assert_bits_equal_rows_block(scene, grid, assignment)
        assert_bits_equal_rows_block(scene, grid, seeded_assignment(scene, 2))

    def test_table_pattern_sub_beam_mixed_in(self, demo):
        scene = with_table_beam(demo[0])
        assert isinstance(scene.sub_beam("s1c1", 0)[2].pattern, TablePattern)
        assert_bits_equal_rows_block(scene, demo[1], seeded_assignment(scene, 3))

    @pytest.mark.parametrize("offset_db", [-7.25, 3.1])
    def test_offset(self, demo, offset_db):
        scene, grid = demo
        assert_bits_equal_rows_block(scene, grid, seeded_assignment(scene, 4), offset_db)

    @pytest.mark.parametrize("threads", [1, 2, 3])
    def test_small_chunks_any_threads(self, monkeypatch, threads):
        scene = with_table_beam(small_demo())
        grid = build_voxel_grid(scene.airspace)
        monkeypatch.setattr(kernels, "_CHUNK", 997)
        assert grid.count > 3 * kernels._CHUNK
        assert_bits_equal_rows_block(scene, grid, seeded_assignment(scene, 5), 1.5, threads)


def tied_interleaved_demo():
    """``interleaved_demo`` with s3c0 a copy of s1c1 on the same site: the two
    cells' RSRP ties at every voxel, wherever one of them is the strongest."""
    scene = interleaved_demo()
    s1 = scene.sites[0]
    twin = dataclasses.replace(s1.cells[0], id="s3c0")
    return dataclasses.replace(scene, sites=(dataclasses.replace(s1, cells=(s1.cells[0], twin)),
                                             *scene.sites[1:]))


def layer_oracle(sinr, thresholds, selected):
    """``report.layer_counts`` of a whole SinrField, one layer and criterion at a time."""
    grid = sinr.grid
    counts = np.zeros((1 + len(CRITERIA), len(grid.layer_z)), dtype=np.int64)
    for k, z in enumerate(grid.layer_z):
        idx = layer_indices(grid, z)
        counts[0, k] = np.count_nonzero(selected[idx])
        for row, test in enumerate(CRITERIA.values(), 1):
            met = test(sinr.serving_rsrp_dbm[idx], sinr.sinr_db[idx], thresholds)
            counts[row, k] = np.count_nonzero(met & selected[idx])
    return counts


class TestStreamedSinrField:
    """``build_sinr_field`` streams each voxel chunk from the fold to its counts."""

    @pytest.mark.parametrize("threads", [1, 2, 3])
    @pytest.mark.parametrize("make_scene", [interleaved_demo, tied_interleaved_demo])
    def test_equals_sinr_of_build_field(self, monkeypatch, threads, make_scene):
        scene = make_scene()
        grid = build_voxel_grid(scene.airspace)
        monkeypatch.setattr(kernels, "_CHUNK", 997)
        assert grid.count > 3 * kernels._CHUNK
        baseline = BeamAssignment.baseline(scene)
        assignments = (baseline, seeded_assignment(scene, 6))
        if make_scene is tied_interleaved_demo:
            field = build_field(scene, grid, baseline)
            a, b = scene.cell_ids.index("s1c1"), scene.cell_ids.index("s3c0")
            top = field.cell_rsrp_dbm.max(axis=0)
            assert np.any(field.cell_rsrp_dbm[b] == top)   # the tie is reached
            assert np.array_equal(field.cell_rsrp_dbm[a], field.cell_rsrp_dbm[b])
        expected = [sinr_from_field(build_field(scene, grid, a, 1.5, threads=threads),
                                    scene.radio, 0.5) for a in assignments]
        mask = np.random.default_rng(8).permutation(grid.count)[:grid.count // 3]
        for selected, m in ((np.ones(grid.count, dtype=bool), None),
                            (report.selection(mask, grid.count), mask)):
            counts, layers = build_sinr_field(scene, grid, assignments, 1.5, 0.5, mask=m,
                                              altitudes=(50.0, 1e4, 150.0), threads=threads)
            assert counts.dtype == np.int64
            assert list(layers) == [50.0, 150.0]   # 10 km is above the grid
            for a, want in enumerate(expected):
                assert np.array_equal(counts[a], layer_oracle(want, scene.thresholds, selected))
                for altitude, layer in layers.items():
                    idx = layer_indices(grid, altitude)
                    assert layer[a, 0].tobytes() == want.serving_rsrp_dbm[idx].tobytes()
                    assert layer[a, 1].tobytes() == want.sinr_db[idx].tobytes()

    @pytest.mark.parametrize("threads", [1, 2])
    def test_never_allocates_a_cell_by_voxel_array(self, monkeypatch, threads):
        scene = scene_from_dict(demo_doc(radius_m=300.0, z_max_m=300.0, voxel_m=10.0))
        grid = build_voxel_grid(scene.airspace)
        # A compare of this 6-cell scene holds, besides its 1 B per voxel mask
        # selection and its heatmap layer, about 300 B per chunk voxel in each
        # running task: at 499-voxel chunks, well below one (N,) float64.
        monkeypatch.setattr(kernels, "_CHUNK", 499)
        assert grid.count > 80_000
        assignments = (BeamAssignment.baseline(scene), seeded_assignment(scene, 7))
        mask = np.arange(0, grid.count, 2)
        tracemalloc.start()
        try:
            counts, layers = build_sinr_field(scene, grid, assignments, mask=mask,
                                              altitudes=(150.0,), threads=threads)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert counts[:, 0].sum() == 2 * mask.size
        assert peak < grid.count * 8

    @pytest.mark.parametrize("threads", [1, 2])
    def test_grid_and_streamed_compare_allocate_less_than_one_voxel_array(self, monkeypatch,
                                                                          threads):
        # The grid is 16 B per column; the compare holds the mask selection,
        # 1 B per voxel, and about 300 B per block voxel in each running task.
        # With one-column blocks on this 11,060-voxel grid, that and the fixed
        # cost of a compare stay below one (N,) float64.
        scene = scene_from_dict(demo_doc(radius_m=100.0, z_max_m=350.0, voxel_m=10.0))
        assignments = (BeamAssignment.baseline(scene), seeded_assignment(scene, 7))
        n_layers, n_columns = build_voxel_grid(scene.airspace).shape
        assert (n_layers, n_columns) == (35, 316)
        monkeypatch.setattr(kernels, "_CHUNK", n_layers)
        mask = np.arange(0, n_layers * n_columns, 2)
        tracemalloc.start()
        try:
            grid = build_voxel_grid(scene.airspace)
            counts, _ = build_sinr_field(scene, grid, assignments, mask=mask, threads=threads)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert counts[:, 0].sum() == 2 * mask.size
        assert peak < grid.count * 8

    @pytest.mark.parametrize("width", [1, 9])
    @pytest.mark.parametrize("threads", [1, 2])
    def test_counts_of_column_blocks_equal_the_whole_field_report(self, monkeypatch, width,
                                                                  threads):
        # Column ranges one column wide, or 9 wide, which does not divide the
        # layer; the mask leaves layer 1 empty, so its report omits that layer.
        scene = interleaved_demo()
        grid = build_voxel_grid(scene.airspace)
        n_layers, n_columns = grid.shape
        monkeypatch.setattr(kernels, "_CHUNK", width * n_layers)
        assert kernels.chunks(n_columns, n_layers)[1] == (width, 2 * width)
        assert width == 1 or n_columns % width
        assignment = seeded_assignment(scene, 12)
        sinr = sinr_from_field(build_field(scene, grid, assignment), scene.radio, 1.0)
        mask = np.random.default_rng(13).permutation(grid.count)[:grid.count // 2]
        mask = mask[mask // n_columns != 1]
        for m in (None, mask):
            counts, _ = build_sinr_field(scene, grid, (assignment,), mask=m, threads=threads)
            got = report.coverage_report(grid, counts[0])
            assert got == report.coverage_ratios(sinr, scene.thresholds, m)
            selected = np.ones(grid.count, dtype=bool) if m is None else report.selection(
                m, grid.count)
            assert np.array_equal(counts[0], layer_oracle(sinr, scene.thresholds, selected))
            layers = [layer.z_m for layer in got.layers]
            assert layers == [z for k, z in enumerate(grid.layer_z) if m is None or k != 1]

    @pytest.mark.parametrize("threads", [1, 2, 3])
    @pytest.mark.parametrize("masked", [False, True])
    def test_evaluate_writes_the_reports_of_build_field(self, tmp_path, monkeypatch, demo,
                                                        threads, masked):
        scene, grid = demo
        monkeypatch.setattr(kernels, "_CHUNK", 997)   # column ranges of uneven width
        n_layers, n_columns = grid.shape
        assert n_columns % (kernels._CHUNK // n_layers)
        before, after = seeded_assignment(scene, 9), seeded_assignment(scene, 10)
        save_assignment(before, tmp_path / "before.json")
        save_assignment(after, tmp_path / "after.json")
        mask = np.random.default_rng(11).permutation(grid.count)[:grid.count // 2]
        mask = mask[mask >= layer_bounds(grid)[1]] if masked else None   # layer 0 left out
        flags = ["--offset-db", "1.5", "--activity-factor", "0.5", "--threads", str(threads)]
        if masked:
            np.savetxt(tmp_path / "mask.txt", mask, fmt="%d")
            flags += ["--mask", str(tmp_path / "mask.txt")]
        sinr_before, sinr_after = (
            sinr_from_field(build_field(scene, grid, a, 1.5), scene.radio, 0.5)
            for a in (before, after))
        expected = tmp_path / "expected"
        expected.mkdir()
        report.save_json_report(
            report.coverage_ratios(sinr_after, scene.thresholds, mask).to_json_dict(),
            expected / "coverage_report.json")
        report.save_json_report(
            compare_report(sinr_before, sinr_after, scene.thresholds, mask).to_json_dict(),
            expected / "compare_report.json")
        for altitude in (50.0, 150.0, 300.0):
            idx = layer_indices(grid, altitude)
            for name in ("serving_rsrp_dbm", "sinr_db"):
                layer = report.difference_heatmap(getattr(sinr_before, name)[idx],
                                                  getattr(sinr_after, name)[idx], grid, altitude)
                prefix = "heatmap_rsrp" if name == "serving_rsrp_dbm" else "heatmap_sinr"
                with open(expected / f"{prefix}_{int(altitude)}m.csv", "w") as fh:
                    report.export_heatmap_csv(layer, fh)
        common = ["evaluate", "--scene", str(DEMO_SCENE), "--assignment",
                  str(tmp_path / "after.json"), *flags]
        with contextlib.redirect_stdout(io.StringIO()):
            assert main([*common, "--out", str(tmp_path / "one")]) == 0
            assert main([*common, "--compare-to", str(tmp_path / "before.json"),
                         "--out", str(tmp_path / "two")]) == 0
        written = {path.name: path.read_bytes()
                   for out in ("one", "two") for path in (tmp_path / out).iterdir()
                   if path.name != "manifest.json"}
        assert written == {path.name: path.read_bytes() for path in expected.iterdir()}


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

    def test_point_on_a_site_rejected(self, tiny):
        scene, _ = tiny
        site, _ = scene.cell("cell1")
        points = [((0.0, 0.0, 10.0), "cell0"), (site.position_m, "cell1")]
        with pytest.raises(SingularityError, match=f"from site '{site.id}'"):
            predict_at(scene, BeamAssignment.baseline(scene), 0.0, points)

    def test_unknown_cell(self, tiny):
        scene, _ = tiny
        from airtwin.errors import UnknownCellError

        with pytest.raises(UnknownCellError):
            predict_at(scene, BeamAssignment.baseline(scene), 0.0,
                       [((0.0, 0.0, 10.0), "nope")])


def stacked_rows_predict_at(scene, assignment, offset_db, points):
    """Reference for ``predict_at``: the earlier path, kept here.

    Per cell it stacks the cell's sub-beam rows, each through the pattern's
    own ``offset_gain_dbi``, and reduces them with ``np.maximum.reduce``.
    """
    pts = list(points)
    out = np.empty(len(pts))
    positions = np.asarray([np.asarray(p[0], dtype=float) for p in pts])
    cell_ids = [p[1] for p in pts]
    for cell_id in sorted(set(cell_ids)):
        site, cell = scene.cell(cell_id)
        idx = np.asarray([i for i, c in enumerate(cell_ids) if c == cell_id])
        az, el, loss = kernels.site_geometry(*positions[idx].T, site, scene.radio.frequency_hz)
        rows = []
        for sb in cell.sub_beams:
            angle = assignment.angle(cell_id, sb.index)
            gain_dbi = sb.pattern.offset_gain_dbi(wrap_angle_deg(az - angle.azimuth_deg),
                                                  el - angle.tilt_deg)
            rows.append(kernels.rsrp_from_gain(cell.tx_power_dbm, gain_dbi, loss, offset_db))
        out[idx] = np.maximum.reduce(np.stack(rows), axis=0)
    return out


def random_points(scene, n, seed):
    """``n`` (position, cell id) points inside the airspace, cells drawn at random."""
    rng = np.random.default_rng(seed)
    spec = scene.airspace
    r = spec.radius_m * np.sqrt(rng.uniform(0.0, 1.0, n))
    phi = rng.uniform(0.0, 2.0 * np.pi, n)
    xyz = np.stack([spec.center_m[0] + r * np.sin(phi), spec.center_m[1] + r * np.cos(phi),
                    rng.uniform(spec.z_min_m, spec.z_max_m, n)], axis=1)
    return [(p, scene.cell_ids[int(c)])
            for p, c in zip(xyz, rng.integers(len(scene.cell_ids), size=n))]


def assert_bits_equal_stacked_rows(scene, assignment, offset_db, points):
    values = predict_at(scene, assignment, offset_db, points)
    reference = stacked_rows_predict_at(scene, assignment, offset_db, points)
    assert np.array_equal(values.view(np.int64), reference.view(np.int64))


class TestPredictAtBitIdentity:
    """``predict_at`` runs ``build_field``'s fold; it must equal the stacked-rows path."""

    @pytest.mark.parametrize("seed", [None, 6])
    def test_points_of_every_cell(self, demo, seed):
        scene = demo[0]
        assignment = (BeamAssignment.baseline(scene) if seed is None
                      else seeded_assignment(scene, seed))
        points = random_points(scene, 500, 7)
        assert {cell_id for _, cell_id in points} == set(scene.cell_ids)
        assert_bits_equal_stacked_rows(scene, assignment, 0.0, points)

    def test_table_pattern_sub_beam_mixed_in(self, demo):
        scene = with_table_beam(demo[0])
        assert isinstance(scene.sub_beam("s1c1", 0)[2].pattern, TablePattern)
        assert_bits_equal_stacked_rows(scene, seeded_assignment(scene, 8), 0.0,
                                       random_points(scene, 500, 9))

    @pytest.mark.parametrize("offset_db", [-7.25, 3.1])
    def test_offset(self, demo, offset_db):
        scene = demo[0]
        assert_bits_equal_stacked_rows(scene, seeded_assignment(scene, 10), offset_db,
                                       random_points(scene, 300, 11))

    def test_more_points_than_a_chunk(self, monkeypatch):
        scene = with_table_beam(small_demo())
        monkeypatch.setattr(kernels, "_CHUNK", 997)
        points = random_points(scene, 3 * 6 * kernels._CHUNK, 12)
        counts = [sum(1 for _, c in points if c == cell_id) for cell_id in scene.cell_ids]
        assert min(counts) > 2 * kernels._CHUNK
        assert_bits_equal_stacked_rows(scene, seeded_assignment(scene, 13), 1.5, points)


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
