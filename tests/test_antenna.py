import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from airtwin.antenna import (
    AntennaPattern,
    Orientation,
    TablePattern,
    direction_azel_deg,
    gain,
    load_pattern_table,
    steered_offsets,
    wrap_angle_deg,
)
from airtwin.errors import SceneSchemaError, SceneValidationError


def unit_from_azel(az_deg, el_deg):
    az, el = np.radians(az_deg), np.radians(el_deg)
    return np.array([np.cos(el) * np.sin(az), np.cos(el) * np.cos(az), np.sin(el)])


@pytest.mark.parametrize("azimuth", [float("nan"), float("inf"), -float("inf")])
def test_orientation_rejects_a_non_finite_azimuth(azimuth):
    # It would normalize to NaN and point the beam nowhere.
    with pytest.raises(SceneValidationError, match="azimuth_deg must be finite"):
        Orientation(azimuth, 0.0)


class TestOffsets:
    def test_aligned(self):
        daz, del_ = steered_offsets(Orientation(0.0, 0.0), np.array([0.0, 1.0, 0.0]))
        assert daz == 0.0 and del_ == 0.0

    def test_quarter_turn_east(self):
        daz, del_ = steered_offsets(Orientation(0.0, 0.0), np.array([1.0, 0.0, 0.0]))
        assert daz == pytest.approx(90.0, abs=1e-12)
        assert del_ == pytest.approx(0.0, abs=1e-12)

    def test_wraparound(self):
        # orientation (350, 10); direction at azimuth 5, elevation 10 -> (15, 0)
        d = unit_from_azel(5.0, 10.0)
        daz, del_ = steered_offsets(Orientation(350.0, 10.0), d)
        assert daz == pytest.approx(15.0, abs=1e-9)
        assert del_ == pytest.approx(0.0, abs=1e-9)

    def test_zenith_azimuth_convention(self):
        az, el = direction_azel_deg(np.array([0.0, 0.0, 1.0]))
        assert az == 0.0 and el == pytest.approx(90.0)
        az, el = direction_azel_deg(np.array([0.0, 0.0, -1.0]))
        assert az == 0.0 and el == pytest.approx(-90.0)

    def test_non_unit_rejected(self):
        with pytest.raises(ValueError):
            steered_offsets(Orientation(0.0, 0.0), np.array([0.0, 2.0, 0.0]))

    def test_wrap_angle_half_open(self):
        assert wrap_angle_deg(180.0) == 180.0
        assert wrap_angle_deg(-180.0) == 180.0
        assert wrap_angle_deg(540.0) == 180.0
        assert wrap_angle_deg(-345.0) == pytest.approx(15.0)


def mod_wrap(angle):
    """The reference wrap: ``np.mod``, then -360 above 180."""
    wrapped = np.mod(np.asarray(angle, dtype=np.float64), 360.0)
    return np.where(wrapped > 180.0, wrapped - 360.0, wrapped)


def bits(values):
    return np.asarray(values, dtype=np.float64).view(np.int64)


_STEPS = np.array([s * v for v in (0.0, 180.0, 360.0, 540.0, 720.0) for s in (1.0, -1.0)])
EDGES = np.concatenate([_STEPS, np.nextafter(_STEPS, np.inf), np.nextafter(_STEPS, -np.inf)])
SPECIAL = np.array([np.nan, np.inf, -np.inf, 1e300, -1e300])
FAST = EDGES[np.abs(EDGES) < 720.0]   # values the fmod-free path takes


@pytest.mark.filterwarnings("ignore:invalid value encountered in remainder")
class TestWrapAngle:
    """``wrap_angle_deg`` equals ``np.mod`` and -360 above 180, bit for bit."""

    def test_edges_one_at_a_time_and_together(self):
        for value in np.concatenate([EDGES, SPECIAL]):
            assert bits(wrap_angle_deg(np.array([value]))) == bits(mod_wrap([value])), value
            assert bits(wrap_angle_deg(float(value))) == bits(mod_wrap(value)), value
        for values in (FAST, EDGES, np.concatenate([EDGES, SPECIAL])):
            np.testing.assert_array_equal(bits(wrap_angle_deg(values)), bits(mod_wrap(values)))

    def test_input_untouched_and_range(self):
        values = np.linspace(-719.0, 719.0, 4001)
        kept = values.copy()
        wrapped = wrap_angle_deg(values)
        np.testing.assert_array_equal(values, kept)
        assert np.all((wrapped > -180.0) & (wrapped <= 180.0))

    @settings(max_examples=400, deadline=None, database=None)
    @given(hnp.arrays(np.float64, st.integers(0, 48), elements=st.one_of(
        st.sampled_from(FAST.tolist()),
        st.floats(-720.0, 720.0, exclude_min=True, exclude_max=True))))
    def test_fast_path_arrays(self, values):
        np.testing.assert_array_equal(bits(wrap_angle_deg(values)), bits(mod_wrap(values)))

    @settings(max_examples=400, deadline=None, database=None)
    @given(hnp.arrays(np.float64, st.integers(0, 48), elements=st.one_of(
        st.sampled_from(np.concatenate([EDGES, SPECIAL]).tolist()),
        st.floats(allow_nan=True, allow_infinity=True))))
    def test_any_float64_array(self, values):
        np.testing.assert_array_equal(bits(wrap_angle_deg(values)), bits(mod_wrap(values)))


class TestParametricGain:
    pattern = AntennaPattern(g_max_dbi=17.0, hpbw_az_deg=65.0, hpbw_el_deg=35.0,
                             sla_db=30.0, fbr_db=30.0)

    def test_boresight(self):
        d = unit_from_azel(40.0, 10.0)
        assert gain(self.pattern, Orientation(40.0, 10.0), d) == pytest.approx(17.0, abs=1e-9)

    def test_half_power_offset(self):
        d = unit_from_azel(65.0 / 2.0, 0.0)
        value = gain(self.pattern, Orientation(0.0, 0.0), d)
        assert value == pytest.approx(17.0 - 3.0, abs=1e-9)

    def test_back_lobe_both_caps(self):
        # daz = 180, hpbw 65, sla 30, fbr 30: both caps bind -> g_max - 30
        assert self.pattern.offset_gain_dbi(180.0, 0.0) == pytest.approx(17.0 - 30.0)
        d = unit_from_azel(180.0, 0.0)
        assert gain(self.pattern, Orientation(0.0, 0.0), d) == pytest.approx(-13.0, abs=1e-9)

    def test_attenuation_cap(self):
        rng = np.random.default_rng(7)
        for _ in range(300):
            d = unit_from_azel(rng.uniform(0, 360), rng.uniform(-90, 90))
            g = gain(self.pattern, Orientation(rng.uniform(0, 360), rng.uniform(-45, 45)), d)
            assert g >= 17.0 - 30.0 - 1e-12
            assert g <= 17.0 + 1e-12

    def test_boresight_is_max_over_sweep(self):
        o = Orientation(123.0, 7.0)
        azs = np.arange(0.0, 360.0, 2.0)
        els = np.arange(-88.0, 89.0, 2.0)
        best = -np.inf
        for el in els:
            dirs = np.stack([np.cos(np.radians(el)) * np.sin(np.radians(azs)),
                             np.cos(np.radians(el)) * np.cos(np.radians(azs)),
                             np.full_like(azs, np.sin(np.radians(el)))], axis=1)
            best = max(best, float(np.max(gain(self.pattern, o, dirs))))
        assert best <= 17.0 + 1e-9
        assert gain(self.pattern, o, unit_from_azel(123.0, 7.0)) == pytest.approx(17.0, abs=1e-9)

    def test_rotational_equivariance(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            az0, tilt0 = rng.uniform(0, 360), rng.uniform(-30, 30)
            daz, el = rng.uniform(-180, 180), rng.uniform(-80, 80)
            rot = rng.uniform(0, 360)
            g1 = gain(self.pattern, Orientation(az0, tilt0), unit_from_azel(az0 + daz, el))
            g2 = gain(self.pattern, Orientation(az0 + rot, tilt0),
                      unit_from_azel(az0 + rot + daz, el))
            assert g1 == pytest.approx(g2, abs=1e-9)

    def test_even_symmetry(self):
        for daz in (5.0, 40.0, 120.0):
            assert self.pattern.offset_gain_dbi(daz, 0.0) == pytest.approx(
                self.pattern.offset_gain_dbi(-daz, 0.0), abs=1e-12)
        for del_ in (3.0, 20.0, 60.0):
            assert self.pattern.offset_gain_dbi(0.0, del_) == pytest.approx(
                self.pattern.offset_gain_dbi(0.0, -del_), abs=1e-12)

    def test_invariants(self):
        with pytest.raises(SceneValidationError):
            AntennaPattern(hpbw_az_deg=0.0)
        with pytest.raises(SceneValidationError):
            AntennaPattern(sla_db=-1.0)
        with pytest.raises(SceneValidationError):
            AntennaPattern(sla_db=30.0, fbr_db=20.0)


class TestTablePattern:
    def make_table(self, step=5.0):
        ref = AntennaPattern()
        az = np.arange(-180.0, 180.0 + step, step)
        el = np.arange(-90.0, 90.0 + step, step)
        g = np.empty((az.size, el.size))
        for i, a in enumerate(az):
            g[i] = ref.offset_gain_dbi(np.full(el.size, a), el)
        return TablePattern(az_deg=az, el_deg=el, gain_dbi=g), ref

    def test_exact_at_nodes(self):
        table, ref = self.make_table()
        for a, e in [(-180.0, -90.0), (0.0, 0.0), (35.0, -15.0), (60.0, 45.0)]:
            assert table.offset_gain_dbi(a, e) == pytest.approx(
                ref.offset_gain_dbi(a, e), abs=1e-12)

    def test_close_between_nodes(self):
        table, ref = self.make_table(step=2.0)
        rng = np.random.default_rng(11)
        daz = rng.uniform(-170, 170, 200)
        del_ = rng.uniform(-80, 80, 200)
        approx = table.offset_gain_dbi(daz, del_)
        exact = ref.offset_gain_dbi(daz, del_)
        assert np.max(np.abs(approx - exact)) < 0.5

    def test_same_interface_through_gain(self):
        table, ref = self.make_table(step=1.0)
        o = Orientation(40.0, 5.0)
        d = unit_from_azel(50.0, 10.0)
        assert gain(table, o, d) == pytest.approx(gain(ref, o, d), abs=0.2)

    def test_csv_roundtrip(self, tmp_path):
        path = tmp_path / "pattern.csv"
        with open(path, "w") as fh:
            fh.write("az_deg,el_deg,gain_dbi\n")
            for a in (-10.0, 0.0, 10.0):
                for e in (-5.0, 5.0):
                    fh.write(f"{a},{e},{a + e}\n")
        table = load_pattern_table(path)
        assert table.gain_dbi.shape == (3, 2)
        assert table.offset_gain_dbi(0.0, 5.0) == pytest.approx(5.0)

    def test_irregular_grid_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        with open(path, "w") as fh:
            fh.write("az_deg,el_deg,gain_dbi\n0,0,1\n0,5,1\n5,0,1\n")
        with pytest.raises(SceneSchemaError, match="regular grid"):
            load_pattern_table(path)

    @pytest.mark.parametrize("text, message", [
        ("az_deg,el_deg,gain_dbi\n0,0,1\n0,5\n", "data row 2: expected 3 fields"),
        ("az_deg,el_deg,gain_dbi\n0,0," + "1" * 131_073 + "\n", "data row 1: unreadable CSV"),
        ("az_deg,el_deg,gain_dbi\n0,0,1\n0,5,x\n", "data row 2: non-numeric value"),
    ])
    def test_unreadable_row_names_file_and_row(self, tmp_path, text, message):
        path = tmp_path / "pattern.csv"
        path.write_text(text)
        with pytest.raises(SceneSchemaError, match=re.escape(f"{path}: {message}")):
            load_pattern_table(path)

    def test_header_names_may_carry_spaces(self, tmp_path):
        path = tmp_path / "pattern.csv"
        path.write_text("az_deg, el_deg, gain_dbi\n-10,0,1\n-10,5,2\n10,0,3\n10,5,4\n\n")
        assert load_pattern_table(path).gain_dbi.tolist() == [[1.0, 2.0], [3.0, 4.0]]

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("az,el,g\n0,0,1\n")
        with pytest.raises(SceneSchemaError, match="header"):
            load_pattern_table(path)

    # Each (column, row, value): one node's value, written into a 2x2 table whose
    # other values are all fine. Infinite or huge gains would overflow the
    # dBm-to-mW conversion; a NaN axis value used to pass, and a NaN gain was
    # reported as a missing grid node.
    BAD_NODES = [
        ("gain_dbi", None, "inf"),
        ("gain_dbi", None, "1e300"),
        ("gain_dbi", 3, "-500.5"),
        ("gain_dbi", None, "nan"),
        ("az_deg", 0, "nan"),
        ("el_deg", 1, "-inf"),
    ]

    @pytest.mark.parametrize("column, row, value", BAD_NODES)
    def test_non_finite_or_huge_value_rejected(self, tmp_path, column, row, value):
        rows = [{"az_deg": a, "el_deg": e, "gain_dbi": "3"}
                for a in ("-180", "180") for e in ("-90", "90")]
        for i, node in enumerate(rows):
            if row is None or i == row:
                node[column] = value
        path = tmp_path / "pattern.csv"
        path.write_text("az_deg,el_deg,gain_dbi\n"
                        + "".join(f"{r['az_deg']},{r['el_deg']},{r['gain_dbi']}\n" for r in rows))
        message = re.escape(f"{path}: column {column} must be finite")
        with pytest.raises(SceneValidationError, match=message):
            load_pattern_table(path)

    @pytest.mark.parametrize("column, value", [("gain_dbi", np.inf), ("gain_dbi", 500.5),
                                               ("az_deg", np.nan), ("el_deg", -np.inf)])
    def test_constructor_rejects_non_finite_or_huge_value(self, column, value):
        nodes = {"az_deg": np.array([-180.0, 180.0]), "el_deg": np.array([-90.0, 90.0]),
                 "gain_dbi": np.full((2, 2), 3.0)}
        nodes[column][0] = value
        with pytest.raises(SceneValidationError, match=f"column {column} must be finite"):
            TablePattern(**nodes)

    def test_gains_at_the_level_bound_load(self, tmp_path):
        path = tmp_path / "pattern.csv"
        path.write_text("az_deg,el_deg,gain_dbi\n-180,-90,500\n-180,90,-500\n"
                        "180,-90,500\n180,90,-500\n")
        assert load_pattern_table(path).g_max_dbi == 500.0
