import math

import numpy as np
import pytest

from banknet.artifacts import read_csv, read_first_row, read_json, write_csv, write_json
from banknet.errors import SchemaError

SUBNORMAL = 5e-324
FLOATS = (0.1, -0.0, 1e-300, SUBNORMAL, 1e16, 1 / 3)


class TestWriteCsv:
    def test_exact_bytes(self, tmp_path):
        path = tmp_path / "a.csv"
        rows = [
            ("a", 0.1, 1),
            ("b", -0.0, np.int64(7)),
            ("c", 1e-300, np.int32(-2)),
            ("d", SUBNORMAL, 0),
            ("e", np.float64(0.1), 3),
            ("f", np.float64(1 / 3), 4),
            ("g, h", 1e16, 5),
        ]
        write_csv(path, ("name", "x", "n"), rows)
        assert path.read_bytes() == (
            b"name,x,n\r\n"
            b"a,0.1,1\r\n"
            b"b,-0.0,7\r\n"
            b"c,1e-300,-2\r\n"
            b"d,5e-324,0\r\n"
            b"e,0.1,3\r\n"
            b"f,0.3333333333333333,4\r\n"
            b'"g, h",1e+16,5\r\n'
        )

    def test_floats_round_trip_exactly(self, tmp_path):
        path = tmp_path / "a.csv"
        values = FLOATS + tuple(np.float64(v) for v in FLOATS)
        write_csv(path, ("k", "x"), enumerate(values))
        rows = read_csv(path, ("k", "x"))
        assert [int(r["k"]) for r in rows] == list(range(len(values)))
        for row, v in zip(rows, values):
            back = float(row["x"])
            assert back == v and math.copysign(1.0, back) == math.copysign(1.0, v)


class TestWriteJson:
    def test_exact_bytes(self, tmp_path):
        path = tmp_path / "a.json"
        write_json(path, {"b": [0.1, -0.0, 1e-300, SUBNORMAL], "a": {"d": 1, "c": None}})
        assert path.read_bytes() == (
            b'{\n  "a": {\n    "c": null,\n    "d": 1\n  },\n'
            b'  "b": [\n    0.1,\n    -0.0,\n    1e-300,\n    5e-324\n  ]\n}\n'
        )

    def test_writers_create_missing_directories(self, tmp_path):
        write_json(tmp_path / "a" / "b.json", {})
        write_csv(tmp_path / "c" / "d" / "e.csv", ("k",), [(1,)])
        assert read_json(tmp_path / "a" / "b.json") == {}
        assert read_csv(tmp_path / "c" / "d" / "e.csv", ("k",)) == [{"k": "1"}]

    def test_round_trip(self, tmp_path):
        path = tmp_path / "a.json"
        payload = {"x": list(FLOATS), "name": "bank", "n": 3}
        write_json(path, payload)
        assert read_json(path) == payload

    def test_invalid_json_is_schema_error(self, tmp_path):
        path = tmp_path / "a.json"
        path.write_text("{not json")
        with pytest.raises(SchemaError, match="not valid JSON"):
            read_json(path)


class TestReadCsv:
    def test_missing_columns_are_all_named(self, tmp_path):
        path = tmp_path / "a.csv"
        path.write_text("bank_id,extra\nA,1\n")
        with pytest.raises(SchemaError, match="proxy_pct, quarter"):
            read_csv(path, ("bank_id", "proxy_pct", "quarter"))

    def test_empty_file_is_schema_error(self, tmp_path):
        path = tmp_path / "a.csv"
        path.write_text("")
        with pytest.raises(SchemaError, match="empty file"):
            read_csv(path, ())

    def test_header_only_gives_no_rows(self, tmp_path):
        path = tmp_path / "a.csv"
        write_csv(path, ("bank_id",), ())
        assert read_csv(path, ("bank_id",)) == []


class TestReadFirstRow:
    def test_rest_of_the_file_is_not_read(self, tmp_path):
        # A byte that is not UTF-8, well past the first read buffer, fails
        # only a reader that gets that far.
        path = tmp_path / "a.csv"
        path.write_bytes(b"bank_id,quarter\nA,2009Q1\n" + b"B,2009Q1\n" * 100_000 + b"\xff\n")
        assert read_first_row(path, ("quarter",)) == {"bank_id": "A", "quarter": "2009Q1"}
        with pytest.raises(UnicodeDecodeError):
            read_csv(path, ("quarter",))

    def test_header_only_gives_none(self, tmp_path):
        path = tmp_path / "a.csv"
        write_csv(path, ("bank_id",), ())
        assert read_first_row(path, ("bank_id",)) is None

    @pytest.mark.parametrize(
        "text, message", [("", "empty file"), ("bank_id\nA\n", "missing required column.*quarter")]
    )
    def test_header_checks_match_read_csv(self, tmp_path, text, message):
        path = tmp_path / "a.csv"
        path.write_text(text)
        for read in (read_csv, read_first_row):
            with pytest.raises(SchemaError, match=message):
                read(path, ("bank_id", "quarter"))
