"""The CSV writers equal one f-string per row, byte for byte.

The ``reference_*`` writers below are the per-row loops the writers replaced:
they format one numpy scalar at a time, which is slow but obviously right.
The generated columns hold what a shortcut through numpy formatting, or a
dedupe that merges 0.0 with -0.0, would get wrong: signed zeros, values
exactly halfway between two printed decimals, values whose rounding carries
into a new digit, values on both sides of ``_csv.fixed``'s fast-path bound,
subnormals, +-1e6, NaN and +-inf, and coordinates that repeat out of order.
Cell ids hold what the id rule allows and a byte-level writer could trip on:
a non-ASCII letter, a NUL, a tab and a space.
"""

import io
from types import SimpleNamespace
from unittest import mock

import numpy as np
from hypothesis import Phase, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from airtwin import _csv, kernels
from airtwin.interference import SinrField, export_sinr_csv
from airtwin.measurements import MeasurementSet, save_measurements
from airtwin.report import HeatmapLayer, export_heatmap_csv
from airtwin.spectrum import RadioField, export_field_csv

CHUNK = 997   # a small prime chunk, so generated lengths cross chunk boundaries
LENGTHS = st.one_of(st.sampled_from([0, 1, CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK + 1]),
                    st.integers(0, 2 * CHUNK + 5))
BOUND = 2.0 ** 31 / 1e4   # |v| from which _csv.fixed prints v with format at 4 decimals
SPECIAL = [0.0, -0.0, 1e6, -1e6, 0.5, -0.5, 2.5, 1e-9, -1e-9, 0.0005, -0.0005, 0.00005,
           -0.00005, 0.0000005, 123.4565, -87.00005,
           # rounding carries into a new digit, or a negative rounds to -0.0000
           9.99996, -999.99996, 99.999951, -0.00004, 0.00004999,
           # both sides of the fast-path bound
           BOUND, -BOUND, float(np.nextafter(BOUND, 0)), float(np.nextafter(-BOUND, 0)),
           float(np.nextafter(BOUND, np.inf)), float(np.nextafter(-BOUND, -np.inf)),
           # subnormals
           5e-324, -5e-324, 2.2250738585072009e-308, -1e-310]
CELL_IDS = ["c0", "c\u00e9ll", "c\x00", "a\tb c"]   # what the id rule allows: no , " CR LF
NONFINITE = [float("nan"), float("inf"), float("-inf")]


def halfway(decimals):
    """Values whose decimal expansion ends in a 5 one place past ``decimals``."""
    return st.integers(-10 ** 7, 10 ** 7).map(lambda k: (2 * k + 1) * 5 / 10 ** (decimals + 1))


def floats(finite=False):
    special = SPECIAL if finite else SPECIAL + NONFINITE
    return st.one_of(st.sampled_from(special), halfway(3), halfway(4), halfway(6),
                     st.floats(allow_nan=not finite, allow_infinity=not finite))


@st.composite
def columns(draw, n, finite=False):
    """A float column of length ``n`` built around a few generated values.

    Either the values repeat out of order, or they are scattered among
    distinct random floats. Only the few values come from Hypothesis; the
    rest is a seeded numpy draw, so long columns stay cheap to generate.
    """
    pool = np.concatenate([[0.0, -0.0],   # always both, so a dedupe must keep them apart
                           draw(hnp.arrays(np.float64, st.integers(1, 24),
                                           elements=floats(finite)))])
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    at = rng.integers(0, pool.size, n)
    if draw(st.booleans()):
        return pool[at]
    scale = 10.0 ** rng.integers(0, 8, n)   # 0 to 7 decimals
    column = np.rint(rng.uniform(-2e3, 2e3, n) * scale) / scale
    scattered = rng.random(n) < 0.3
    column[scattered] = pool[at[scattered]]
    return column


@st.composite
def voxels(draw, finite=False):
    n = draw(LENGTHS)
    return n, np.stack([draw(columns(n, finite)) for _ in range(3)], axis=1)


def reference_heatmap(layer, fh):
    fh.write("x_m,y_m,delta_db\n")
    for x, y, d in zip(layer.x_m, layer.y_m, layer.delta_db):
        fh.write(f"{x:.3f},{y:.3f},{d:.4f}\n")


def reference_field(field, fh):
    fh.write("x_m,y_m,z_m,cell_id,rsrp_dbm\n")
    centers = field.grid.centers
    for v in range(field.grid.count):
        x, y, z = centers[v]
        for c, cell_id in enumerate(field.cell_ids):
            fh.write(f"{x:.3f},{y:.3f},{z:.3f},{cell_id},{field.cell_rsrp_dbm[c, v]:.4f}\n")


def reference_sinr(sinr_field, fh):
    fh.write("x_m,y_m,z_m,serving_cell,rsrp_dbm,sinr_db\n")
    centers = sinr_field.grid.centers
    ids = sinr_field.cell_ids
    for v in range(centers.shape[0]):
        x, y, z = centers[v]
        fh.write(f"{x:.3f},{y:.3f},{z:.3f},{ids[sinr_field.serving_index[v]]},"
                 f"{sinr_field.serving_rsrp_dbm[v]:.4f},{sinr_field.sinr_db[v]:.4f}\n")


def reference_measurements(measurements, fh):
    fh.write("seq,x_m,y_m,z_m,cell_id,rsrp_dbm\n")
    for i in range(len(measurements)):
        x, y, z = measurements.positions[i]
        fh.write(f"{measurements.seq[i]},{x:.6f},{y:.6f},{z:.6f},"
                 f"{measurements.cell_ids[i]},{measurements.rsrp_dbm[i]:.4f}\n")


class Recorder(io.StringIO):
    """A text file that counts its ``write`` calls."""

    writes = 0

    def write(self, text):
        self.writes += 1
        return super().write(text)


def assert_same_bytes(writer, reference, obj, n):
    """``writer`` matches ``reference`` and writes the header plus one string per chunk."""
    expected = io.StringIO()
    reference(obj, expected)
    got = Recorder()
    with mock.patch.object(kernels, "_CHUNK", CHUNK):
        writer(obj, got)
    assert got.getvalue() == expected.getvalue()
    assert got.writes == 1 + -(-n // CHUNK)   # the header, then one string per chunk


def grid_of(centers):
    """A stand-in grid whose voxels may sit anywhere, not on one lattice."""
    return SimpleNamespace(centers=centers, count=centers.shape[0],
                           voxel_centers=lambda lo, hi: centers[lo:hi])


# Shrinking columns thousands of rows long takes minutes, so a failure is
# reported as first found.
SETTINGS = settings(max_examples=40, deadline=None, database=None,
                    phases=(Phase.explicit, Phase.reuse, Phase.generate))


@SETTINGS
@given(st.data())
def test_heatmap_csv(data):
    n = data.draw(LENGTHS)
    layer = HeatmapLayer(z_m=50.0, x_m=data.draw(columns(n)), y_m=data.draw(columns(n)),
                         delta_db=data.draw(columns(n)))
    assert_same_bytes(export_heatmap_csv, reference_heatmap, layer, n)


@SETTINGS
@given(voxels(), st.integers(1, 4), st.data())
def test_field_csv(voxel_columns, n_cells, data):
    n, centers = voxel_columns
    rsrp = np.stack([data.draw(columns(n)) for _ in range(n_cells)]).reshape(n_cells, n)
    field = RadioField(grid=grid_of(centers), cell_ids=tuple(CELL_IDS[:n_cells]),
                       cell_rsrp_dbm=rsrp, cell_lin_mw=np.zeros_like(rsrp))
    assert_same_bytes(export_field_csv, reference_field, field, n)


@SETTINGS
@given(voxels(), st.integers(1, 4), st.data())
def test_sinr_csv(voxel_columns, n_cells, data):
    n, centers = voxel_columns
    serving = np.random.default_rng(data.draw(st.integers(0, 99))).integers(0, n_cells, n)
    sinr = SinrField(grid=grid_of(centers), cell_ids=tuple(CELL_IDS[::-1][:n_cells]),
                     serving_index=serving, serving_rsrp_dbm=data.draw(columns(n)),
                     sinr_db=data.draw(columns(n)))
    assert_same_bytes(export_sinr_csv, reference_sinr, sinr, n)


@SETTINGS
@given(voxels(finite=True), st.data())
def test_save_measurements(voxel_columns, data):
    # A MeasurementSet holds only finite values, in strictly increasing seq order.
    n, positions = voxel_columns
    rng = np.random.default_rng(data.draw(st.integers(0, 99)))
    cells = np.array(["b", "a", "cell10", *CELL_IDS[1:]], dtype=object)[rng.integers(0, 6, n)]
    mset = MeasurementSet(seq=np.cumsum(rng.integers(1, 10 ** 12, n)) - 10 ** 6,
                          positions=positions.reshape(n, 3),
                          cell_ids=cells, rsrp_dbm=data.draw(columns(n, finite=True)))
    assert_same_bytes(save_measurements, reference_measurements, mset, n)


def fixed_strings(rows):
    """The strings of ``_csv.fixed``'s byte rows, one per row."""
    data, lengths = rows
    width = data.shape[1]
    keep = np.arange(width) >= width - lengths[:, None]
    ends = np.cumsum(lengths)
    text = data[keep].tobytes().decode()
    return [text[end - length:end] for end, length in zip(ends.tolist(), lengths.tolist())]


def test_fixed_equals_format_on_a_million_floats():
    """Every row of ``_csv.fixed`` equals ``format(v, ".4f")``, and only the rule's rows fall back.

    The rule: ``s = |v| * 1e4`` is not finite, or at least 2**31, or its
    fraction lies within 1e-6 of 0.5. Planted: exact half-integers of ``s``
    and their ``nextafter`` neighbours, values that are exact decimal ties
    (odd multiples of 1/32), the bound and its neighbours, +-0.0, NaN and +-inf.
    """
    rng = np.random.default_rng(27)
    magnitude = 10.0 ** rng.uniform(-9, np.log10(BOUND), 250_000)
    bulk = np.concatenate([
        rng.uniform(-500, 500, 400_000),                      # dBm and dB levels
        np.rint(rng.uniform(-200, 200, 200_000) * 1e4) / 1e4,  # already on 4 decimals
        np.rint(rng.uniform(-200, 200, 100_000) * 1e5) / 1e5,  # one decimal past them
        magnitude * rng.choice([-1.0, 1.0], magnitude.size),
    ])
    s_halves = rng.integers(-2 ** 31, 2 ** 31 - 1, 20_000) + 0.5
    halves = s_halves / 1e4
    halves = halves[halves * 1e4 == s_halves]   # s is exactly the half-integer
    ties = (2 * rng.integers(-2 ** 20, 2 ** 20, 20_000) + 1) / 32.0
    bound = np.array([BOUND, -BOUND])
    planted = np.concatenate([
        halves, np.nextafter(halves, np.inf), np.nextafter(halves, -np.inf), ties,
        bound, np.nextafter(bound, 0), np.nextafter(bound, 2 * bound),
        [0.0, -0.0, np.nan, np.inf, -np.inf], SPECIAL])
    values = np.concatenate([bulk, planted])
    rng.shuffle(values)
    assert values.size >= 10 ** 6

    called = []

    def spy(value, spec):
        called.append(value)
        return format(value, spec)

    got = []
    with mock.patch.object(_csv, "format", spy, create=True):
        for lo, hi in kernels.chunks(values.size):
            got += fixed_strings(_csv.fixed(values[lo:hi], 4))
    assert got == [format(v, ".4f") for v in values.tolist()]

    with np.errstate(over="ignore", invalid="ignore"):
        s = np.abs(values * 1e4)
        rule = ~np.isfinite(s) | (s >= 2.0 ** 31) | (np.abs(s - np.floor(s) - 0.5) <= 1e-6)
    assert np.array(called).view(np.int64).tolist() == values[rule].view(np.int64).tolist()
    assert rule.sum() < 0.1 * values.size   # the fast path printed nearly every row
