import json
import re

import numpy as np
import pytest

from airtwin.errors import SceneSchemaError, SceneValidationError
from airtwin.measurements import (
    MeasurementSet,
    lla_to_enu,
    load_measurements,
    save_measurements,
)


def sample_set(n=20, seed=0):
    rng = np.random.default_rng(seed)
    return MeasurementSet(
        seq=np.arange(n),
        positions=np.stack([rng.uniform(-50, 50, n), rng.uniform(-50, 50, n),
                            rng.uniform(0, 90, n)], axis=1),
        cell_ids=np.asarray(rng.choice(["a", "b"], n), dtype=object),
        rsrp_dbm=rng.uniform(-100, -60, n),
    )


class TestMeasurementSet:
    def test_roundtrip(self, tmp_path):
        mset = sample_set()
        path = tmp_path / "m.csv"
        with open(path, "w") as fh:
            save_measurements(mset, fh)
        again = load_measurements(path)
        np.testing.assert_array_equal(again.seq, mset.seq)
        np.testing.assert_allclose(again.positions, mset.positions, atol=1e-3)
        np.testing.assert_allclose(again.rsrp_dbm, mset.rsrp_dbm, atol=1e-4)
        assert list(again.cell_ids) == list(mset.cell_ids)

    def test_seq_must_increase(self):
        with pytest.raises(SceneValidationError, match="seq"):
            MeasurementSet(seq=np.array([0, 0]), positions=np.zeros((2, 3)),
                           cell_ids=np.asarray(["a", "a"], dtype=object),
                           rsrp_dbm=np.array([-80.0, -81.0]))

    def test_rsrp_must_be_finite(self):
        with pytest.raises(SceneValidationError, match="finite"):
            MeasurementSet(seq=np.array([0, 1]), positions=np.zeros((2, 3)),
                           cell_ids=np.asarray(["a", "a"], dtype=object),
                           rsrp_dbm=np.array([-80.0, np.inf]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("column", [0, 1, 2])
    def test_positions_must_be_finite(self, column, bad):
        positions = np.zeros((2, 3))
        positions[1, column] = bad
        with pytest.raises(SceneValidationError, match="positions must all be finite"):
            MeasurementSet(seq=np.array([0, 1]), positions=positions,
                           cell_ids=np.asarray(["a", "a"], dtype=object),
                           rsrp_dbm=np.array([-80.0, -81.0]))

    def test_nan_position_in_csv_rejected(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("seq,x_m,y_m,z_m,cell_id,rsrp_dbm\n0,1.0,nan,5.0,a,-80.0\n")
        with pytest.raises(SceneValidationError, match="positions must all be finite"):
            load_measurements(path)

    def test_subset_preserves_order(self):
        mset = sample_set()
        sub = mset.subset([3, 7, 11])
        assert list(sub.seq) == [3, 7, 11]
        assert len(sub) == 3

    def test_missing_column_rejected(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("seq,x_m,y_m,z_m,rsrp_dbm\n0,0,0,0,-80\n")
        with pytest.raises(SceneSchemaError, match="cell_id"):
            load_measurements(path)

    def test_file_that_is_not_utf8_rejected(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_bytes(b"seq,x_m,y_m,z_m,cell_id,rsrp_dbm\n0,0,0,0,\xff,-80\n")
        with pytest.raises(SceneSchemaError, match="cannot read measurement file"):
            load_measurements(path)

    def test_bad_value_reports_row(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("seq,x_m,y_m,z_m,cell_id,rsrp_dbm\n0,0,0,0,a,oops\n")
        with pytest.raises(SceneSchemaError, match="row 1"):
            load_measurements(path)

    @pytest.mark.parametrize("row", ["0,0,10,10,-80", "0,0,10"])
    def test_short_row_names_file_and_row(self, row, tmp_path):
        # the cell id column comes last, so a short row used to give the id None
        path = tmp_path / "m.csv"
        path.write_text(f"seq,x_m,y_m,z_m,rsrp_dbm,cell_id\n0,0,10,10,-80,a\n{row}\n")
        with pytest.raises(SceneSchemaError,
                           match=re.escape(f"{path}: data row 2: fewer fields than the header's 6")):
            load_measurements(path)

    @pytest.mark.parametrize("row", ["0,0,10,10,-80,a,7", "0,0,10,10,-80,7859,a"])
    def test_long_row_names_file_and_row(self, row, tmp_path):
        # DictReader files a row's fields past the header's under the key None,
        # so a decimal comma (-80,7859) used to load as -80 with no error
        path = tmp_path / "m.csv"
        path.write_text(f"seq,x_m,y_m,z_m,rsrp_dbm,cell_id\n0,0,10,10,-80,a\n{row}\n")
        with pytest.raises(SceneSchemaError,
                           match=re.escape(f"{path}: data row 2: more fields than the header's 6")):
            load_measurements(path)

    @pytest.mark.parametrize("text, where", [
        ("seq,x_m,y_m,z_m,cell_id,rsrp_dbm\n0,0,0,0,a,-80\n1,0,0,0,a," + "9" * 131_073 + "\n",
         "data row 2"),
        ("seq,x_m,y_m,z_m,cell_id," + "r" * 131_073 + "\n", "header"),
    ])
    def test_field_past_the_csv_limit_names_file_and_row(self, text, where, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text(text)
        with pytest.raises(SceneSchemaError, match=re.escape(f"{path}: {where}: unreadable CSV")):
            load_measurements(path)

    @pytest.mark.parametrize("row, message", [
        ("1e300,0,5,a,-80", "sample positions must all be finite and within"),
        ("0,-1.0000001e7,5,a,-80", "sample positions must all be finite and within"),
        ("0,0,inf,a,-80", "sample positions must all be finite and within"),
        ("0,0,5,a,1e300", "rsrp_dbm must be finite and within"),
        ("0,0,5,a,-500.5", "rsrp_dbm must be finite and within"),
        ("0,0,5,a,nan", "rsrp_dbm must be finite and within"),
    ])
    def test_out_of_bounds_value_names_file_and_row(self, row, message, tmp_path):
        # farther out, a squared distance or a semivariance could overflow
        path = tmp_path / "m.csv"
        path.write_text(f"seq,x_m,y_m,z_m,cell_id,rsrp_dbm\n0,0,0,5,a,-80\n1,{row}\n")
        with pytest.raises(SceneValidationError, match=f"m.csv: data row 2: {message}"):
            load_measurements(path)

    @pytest.mark.parametrize("seqs, expected", [
        # past 2^53 a float cannot tell these apart
        (("9007199254740992", "9007199254740993"), [2 ** 53, 2 ** 53 + 1]),
        # the largest int64, which a float rounds up to 2^63
        (("0", "9223372036854775807"), [0, 2 ** 63 - 1]),
        # integral text in float form stays accepted
        (("3.0", "1e3"), [3, 1000]),
    ])
    def test_seq_read_exactly(self, seqs, expected, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("seq,x_m,y_m,z_m,cell_id,rsrp_dbm\n"
                        + "".join(f"{s},0,0,5,a,-80\n" for s in seqs))
        assert load_measurements(path).seq.tolist() == expected

    def test_values_at_their_bounds_load(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("seq,x_m,y_m,z_m,cell_id,rsrp_dbm\n"
                        "0,1e7,-1e7,1e7,a,500\n1,-1e7,1e7,-1e7,a,-500\n")
        mset = load_measurements(path)
        assert mset.rsrp_dbm.tolist() == [500.0, -500.0]


class TestMapping:
    def test_column_rename_and_lla(self, tmp_path):
        csv_path = tmp_path / "foreign.csv"
        csv_path.write_text(
            "sample_idx,lon_deg,lat_deg,alt_m,pci,rsrp\n"
            "0,113.9,22.6,10.0,101,-75.5\n"
            "1,113.901,22.601,20.0,101,-78.25\n")
        map_path = tmp_path / "mapping.json"
        map_path.write_text(json.dumps({
            "columns": {"seq": "sample_idx", "x_m": "lon_deg", "y_m": "lat_deg",
                        "z_m": "alt_m", "cell_id": "pci", "rsrp_dbm": "rsrp"},
            "position": {"frame": "lla", "origin_lla": [22.6, 113.9, 0.0]},
        }))
        mset = load_measurements(csv_path, mapping=map_path)
        assert len(mset) == 2
        np.testing.assert_allclose(mset.positions[0], [0.0, 0.0, 10.0], atol=1e-6)
        x, y, z = lla_to_enu(22.601, 113.901, 20.0, (22.6, 113.9, 0.0))
        np.testing.assert_allclose(mset.positions[1], [x, y, z], atol=1e-9)
        assert abs(y - 111.19) < 0.5   # one millidegree of latitude
        assert list(mset.cell_ids) == ["101", "101"]

    def test_mapping_without_seq_numbers_rows(self, tmp_path):
        csv_path = tmp_path / "foreign.csv"
        csv_path.write_text("x,y,z,c,r\n1,2,3,a,-70\n4,5,6,b,-71\n")
        map_path = tmp_path / "mapping.json"
        map_path.write_text(json.dumps({
            "columns": {"x_m": "x", "y_m": "y", "z_m": "z", "cell_id": "c",
                        "rsrp_dbm": "r"}}))
        mset = load_measurements(csv_path, mapping=map_path)
        assert list(mset.seq) == [0, 1]

    def test_mapping_missing_columns_rejected(self, tmp_path):
        map_path = tmp_path / "mapping.json"
        map_path.write_text(json.dumps({"columns": {"x_m": "x"}}))
        with pytest.raises(SceneSchemaError, match="missing"):
            load_measurements(map_path, mapping=map_path)

    def test_bounds_apply_after_the_frame_conversion(self, tmp_path):
        csv_path = tmp_path / "foreign.csv"
        csv_path.write_text("x,y,z,c,r\n113.9,22.6,10,a,-70\n113.9,22.6,-2e7,a,-70\n")
        map_path = tmp_path / "mapping.json"
        map_path.write_text(json.dumps({
            "columns": {"x_m": "x", "y_m": "y", "z_m": "z", "cell_id": "c", "rsrp_dbm": "r"},
            "position": {"frame": "lla", "origin_lla": [22.6, 113.9, -1.5e7]}}))
        # the first altitude is 1.5e7 m above the origin, the second 5e6 m below it
        with pytest.raises(SceneValidationError, match="data row 1: sample positions"):
            load_measurements(csv_path, mapping=map_path)
        csv_path.write_text("x,y,z,c,r\n113.9,22.6,-2e7,a,-70\n")
        assert load_measurements(csv_path, mapping=map_path).positions[0, 2] == -5e6

    def test_lla_without_origin_rejected(self, tmp_path):
        csv_path = tmp_path / "m.csv"
        csv_path.write_text("x,y,z,c,r\n1,2,3,a,-70\n")
        map_path = tmp_path / "mapping.json"
        map_path.write_text(json.dumps({
            "columns": {"x_m": "x", "y_m": "y", "z_m": "z", "cell_id": "c",
                        "rsrp_dbm": "r"},
            "position": {"frame": "lla"}}))
        with pytest.raises(SceneSchemaError, match="origin"):
            load_measurements(csv_path, mapping=map_path)
