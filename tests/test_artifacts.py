import math

import numpy as np
import pytest

from banknet.artifacts import (
    float_columns,
    label_column,
    read_csv,
    read_first_row,
    read_json,
    write_csv,
    write_json,
)
from banknet.errors import ParseError, SchemaError

SUBNORMAL = 5e-324
FLOATS = (0.1, -0.0, 1e-300, SUBNORMAL, 1e16, 1 / 3)


class TestWriteCsv:
    def test_exact_bytes(self, tmp_path):
        path = tmp_path / "a.csv"
        columns = [
            ("a", "b", "c", "d", "e", "f", "g, h"),
            (0.1, -0.0, 1e-300, SUBNORMAL, np.float64(0.1), np.float64(1 / 3), 1e16),
            (1, np.int64(7), np.int32(-2), 0, 3, 4, 5),
        ]
        write_csv(path, ("name", "x", "n"), columns)
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
        write_csv(path, ("k", "x"), [range(len(values)), values])
        table = read_csv(path, ("k", "x"))
        assert [int(k) for k in table["k"]] == list(range(len(values)))
        for cell, v in zip(table["x"], values, strict=True):
            back = float(cell)
            assert back == v and math.copysign(1.0, back) == math.copysign(1.0, v)

    def test_numpy_columns_are_written_as_python_values(self, tmp_path):
        # float32 is written as the double it widens to, as float() gives it.
        path = tmp_path / "a.csv"
        x = np.array([0.1, -0.0, 1 / 3])
        write_csv(path, ("x", "n", "f"), [x, np.arange(3), np.float32([0.1, 1, 2])])
        assert path.read_bytes() == (
            b"x,n,f\r\n"
            b"0.1,0,0.10000000149011612\r\n"
            b"-0.0,1,1.0\r\n"
            b"0.3333333333333333,2,2.0\r\n"
        )

    def test_columns_of_unequal_length_are_value_error(self, tmp_path):
        with pytest.raises(ValueError):
            write_csv(tmp_path / "a.csv", ("a", "b"), [(1, 2), (3,)])
        assert not (tmp_path / "a.csv").exists()


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
        assert read_csv(tmp_path / "c" / "d" / "e.csv", ("k",)) == {"k": ("1",)}

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
        write_csv(path, ("bank_id",), [()])
        assert read_csv(path, ("bank_id",)) == {"bank_id": ()}

    # The row rules csv.DictReader had, so that every file that loaded still
    # loads: blank lines are skipped, a short row's missing cells read as ""
    # and a long row's extra cells are dropped.
    def test_blank_lines_are_skipped(self, tmp_path):
        path = tmp_path / "a.csv"
        path.write_bytes(b"bank_id,x\r\n\r\nA,1\r\n\r\nB,2\n\n")
        assert read_csv(path, ("x",)) == {"bank_id": ("A", "B"), "x": ("1", "2")}
        assert read_first_row(path, ("x",)) == {"bank_id": "A", "x": "1"}

    def test_short_row_reads_empty_cells(self, tmp_path):
        path = tmp_path / "a.csv"
        path.write_text("bank_id,x,y\nA,1\nB,2,3\nC\n")
        columns = {"bank_id": ("A", "B", "C"), "x": ("1", "2", ""), "y": ("", "3", "")}
        assert read_csv(path, ()) == columns
        assert read_first_row(path, ()) == {"bank_id": "A", "x": "1", "y": ""}

    def test_rows_all_short_of_a_column_read_it_empty(self, tmp_path):
        path = tmp_path / "a.csv"
        path.write_text("bank_id,x\nA\nB\n")
        assert read_csv(path, ("x",)) == {"bank_id": ("A", "B"), "x": ("", "")}

    def test_long_row_extra_cells_are_dropped(self, tmp_path):
        path = tmp_path / "a.csv"
        path.write_text("bank_id,x\nA,1,extra,more\nB,2\n")
        assert read_csv(path, ()) == {"bank_id": ("A", "B"), "x": ("1", "2")}
        assert read_first_row(path, ()) == {"bank_id": "A", "x": "1"}


class TestFloatColumns:
    def test_cells_parse_as_float(self):
        table = {"a": ("0.1", " -0.0 ", "5e-324"), "b": ("1", "2", "3")}
        columns = float_columns("t.csv", table, ("a",))
        assert list(columns) == ["a"] and columns["a"].dtype == np.float64
        assert columns["a"].tolist() == [0.1, -0.0, SUBNORMAL]

    @pytest.mark.parametrize("cell", ["oops", ""])
    def test_first_bad_cell_row_by_row_is_parse_error(self, cell):
        # Row 3 (the second data row) fails in b before row 4 fails in a.
        table = {"a": ("1", "2", "x"), "b": ("1", cell, "3")}
        with pytest.raises(ParseError, match=f"t.csv: row 3: non-numeric b={cell!r}") as excinfo:
            float_columns("t.csv", table, ("a", "b"))
        assert excinfo.value.row == 3


class TestLabelColumn:
    def test_zero_one_cells_parse_as_int(self):
        labels = label_column("t.csv", {"label": ("0", "1", "1")}, "label")
        assert labels.dtype == np.int64 and labels.tolist() == [0, 1, 1]

    @pytest.mark.parametrize(
        "cell, message", [("x", "non-numeric label='x'"), ("2", "label='2' is not 0 or 1")]
    )
    def test_first_bad_cell_is_parse_error(self, cell, message):
        table = {"label": ("0", "1", cell, "-1")}
        with pytest.raises(ParseError, match=f"t.csv: row 4: {message}") as excinfo:
            label_column("t.csv", table, "label")
        assert excinfo.value.row == 4


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
        write_csv(path, ("bank_id",), [()])
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
