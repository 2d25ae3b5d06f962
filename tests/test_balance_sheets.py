import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from banknet.balance_sheets import (
    BankRecord,
    QuarterlyPanel,
    close_system,
    derive_labels,
    live_subsystem,
    load_panel,
    next_quarter,
    write_panel_csv,
    write_rejection_report,
)
from banknet.errors import (
    DataError,
    InfeasibilityError,
    IntegrityError,
    ParseError,
    SchemaError,
)

HEADER = (
    "bank_id,quarter,total_assets,total_liabilities,interbank_assets,"
    "interbank_liabilities,roa,roe,stpd_ratio,tier1_ratio,tier1_leverage_ratio"
)


def _row(bank_id, ta=1000.0, tl=900.0, ia=50.0, il=40.0, quarter="2009Q1"):
    return f"{bank_id},{quarter},{ta},{tl},{ia},{il},0.01,0.05,0.02,0.12,0.08"


def _write(tmp_path, lines, name="panel.csv"):
    path = tmp_path / name
    path.write_text("\n".join([HEADER] + lines) + "\n")
    return path


def make_record(bank_id, ta=1000.0, tl=900.0, ia=50.0, il=40.0, quarter="2009Q1"):
    return BankRecord(
        bank_id=bank_id,
        quarter=quarter,
        total_assets=ta,
        total_liabilities=tl,
        interbank_assets=ia,
        interbank_liabilities=il,
        roa=0.01,
        roe=0.05,
        short_term_past_due_ratio=0.02,
        tier1_capital_ratio=0.12,
        tier1_leverage_ratio=0.08,
    )


class TestLoadPanel:
    def test_well_formed_three_rows(self, tmp_path):
        path = _write(tmp_path, [_row("0003"), _row("0001"), _row("0002")])
        panel = load_panel(path, "2009Q1")
        assert len(panel) == 3
        assert panel.bank_ids == ("0001", "0002", "0003")  # sorted
        assert panel.rejections == ()
        assert panel.records[0].equity == 100.0

    def test_duplicate_bank_id_is_integrity_error(self, tmp_path):
        path = _write(tmp_path, [_row("1234"), _row("1234"), _row("9")])
        with pytest.raises(IntegrityError, match="1234"):
            load_panel(path, "2009Q1")

    def test_interbank_assets_above_total_assets_is_rejected(self, tmp_path):
        path = _write(tmp_path, [_row("A"), _row("B", ta=100.0, ia=500.0)])
        panel = load_panel(path, "2009Q1")
        assert panel.bank_ids == ("A",)
        assert len(panel.rejections) == 1
        assert panel.rejections[0].values[0] == "B"
        assert "interbank_assets > total_assets" in panel.rejections[0].reason

    def test_missing_column_is_schema_error(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("bank_id,quarter,total_assets\nA,2009Q1,100\n")
        with pytest.raises(SchemaError, match="total_liabilities"):
            load_panel(path, "2009Q1")

    def test_non_numeric_field_is_parse_error_with_row(self, tmp_path):
        path = _write(tmp_path, [_row("A"), "B,2009Q1,oops,900,50,40,0,0,0,0,0"])
        with pytest.raises(ParseError, match="row 3") as excinfo:
            load_panel(path, "2009Q1")
        assert excinfo.value.row == 3

    def test_quarter_mismatch_is_rejected_not_dropped(self, tmp_path):
        path = _write(tmp_path, [_row("A"), _row("B", quarter="2008Q4")])
        panel = load_panel(path, "2009Q1")
        assert panel.bank_ids == ("A",)
        assert "2008Q4" in panel.rejections[0].reason

    def test_negative_equity_rows_are_kept(self, tmp_path):
        # Raw data may carry insolvent banks; exclusion happens downstream.
        path = _write(tmp_path, [_row("A", ta=100.0, tl=150.0, ia=10.0, il=10.0)])
        panel = load_panel(path, "2009Q1")
        assert len(panel) == 1
        assert panel.records[0].equity == -50.0

    def test_deterministic_load(self, tmp_path):
        path = _write(tmp_path, [_row("B"), _row("A"), _row("C")])
        assert load_panel(path, "2009Q1") == load_panel(path, "2009Q1")

    def test_roundtrip_through_writer(self, tmp_path):
        path = _write(tmp_path, [_row("A"), _row("B", ta=123.456)])
        panel = load_panel(path, "2009Q1")
        out = tmp_path / "copy.csv"
        write_panel_csv(panel, out)
        assert load_panel(out, "2009Q1") == panel

    def test_rejection_report_written_with_reason_column(self, tmp_path):
        path = _write(tmp_path, [_row("A"), _row("B", ta=100.0, ia=500.0)])
        panel = load_panel(path, "2009Q1")
        report = tmp_path / "rejects.csv"
        write_rejection_report(report, panel.rejections)
        lines = report.read_text().strip().splitlines()
        assert lines[0].endswith(",reason")
        assert lines[1].startswith("B,")


class TestLiveSubsystem:
    def test_excludes_nonpositive_equity_and_recloses(self):
        panel = QuarterlyPanel(
            "2009Q1",
            (
                make_record("A", ia=50, il=0),
                make_record("B", ia=0, il=40),
                make_record("Z", ta=100, tl=150, ia=0, il=10),
            ),
        )
        sub, excluded = live_subsystem(panel)
        assert sub.bank_ids == ("A", "B")
        assert sub.closure_factor == pytest.approx(1.25)
        assert excluded == (("Z", "non-positive starting equity (-50)"),)

    def test_no_live_bank_is_data_error(self):
        panel = QuarterlyPanel("2009Q1", (make_record("Z", ta=100, tl=150),))
        with pytest.raises(DataError, match="no banks with positive equity"):
            live_subsystem(panel)


class TestCloseSystem:
    def test_already_balanced_is_identity(self):
        panel = QuarterlyPanel(
            "2009Q1",
            (make_record("A", ia=10, il=15), make_record("B", ia=20, il=15)),
        )
        closed = close_system(panel)
        assert closed.closure_factor == 1.0
        assert closed.interbank_liabilities().tolist() == [15.0, 15.0]

    def test_rescales_liability_side(self):
        panel = QuarterlyPanel(
            "2009Q1",
            (make_record("A", ia=10, il=10), make_record("B", ia=20, il=10)),
        )
        closed = close_system(panel)
        assert closed.closure_factor == pytest.approx(1.5)
        assert closed.interbank_liabilities().tolist() == [15.0, 15.0]

    def test_empty_interbank_market_unchanged(self):
        panel = QuarterlyPanel(
            "2009Q1",
            (make_record("A", ia=0, il=0), make_record("B", ia=0, il=0)),
        )
        closed = close_system(panel)
        assert closed.closure_factor == 1.0
        assert closed.interbank_assets().sum() == 0.0

    def test_zero_liabilities_with_positive_assets_is_infeasible(self):
        panel = QuarterlyPanel(
            "2009Q1",
            (make_record("A", ia=10, il=0), make_record("B", ia=0, il=0)),
        )
        with pytest.raises(InfeasibilityError):
            close_system(panel)

    @given(
        st.lists(
            st.tuples(
                st.floats(0.0, 1e6),
                st.floats(0.01, 1e6),
            ),
            min_size=1,
            max_size=30,
        )
    )
    @settings(max_examples=50, deadline=None)
    def test_balance_invariant(self, pairs):
        records = tuple(
            make_record(f"B{i:03d}", ta=2e6, tl=1.9e6, ia=ia, il=il)
            for i, (ia, il) in enumerate(pairs)
        )
        closed = close_system(QuarterlyPanel("2009Q1", records))
        ia_sum = math.fsum(r.interbank_assets for r in closed.records)
        il_sum = math.fsum(r.interbank_liabilities for r in closed.records)
        assert abs(ia_sum - il_sum) <= 1e-9 * max(ia_sum, 1e-12)


class TestDeriveLabels:
    def _universe(self):
        return QuarterlyPanel(
            "2009Q4", (make_record("A"), make_record("B"), make_record("C"))
        )

    def _failed_csv(self, tmp_path, ids):
        path = tmp_path / "failed.csv"
        lines = ["bank_id,failure_date"] + [f"{b},2010-02-15" for b in ids]
        path.write_text("\n".join(lines) + "\n")
        return path

    def test_direct_mapping(self, tmp_path):
        labels = derive_labels(self._universe(), self._failed_csv(tmp_path, ["B"]))
        assert labels.labels == {"A": 1, "B": 0, "C": 1}
        assert labels.horizon == "2010Q1"

    def test_empty_failed_list_all_solvent(self, tmp_path):
        labels = derive_labels(self._universe(), self._failed_csv(tmp_path, []))
        assert set(labels.labels.values()) == {1}

    def test_disjoint_failed_list_warns_and_reports(self, tmp_path):
        with pytest.warns(UserWarning, match="Z"):
            labels = derive_labels(self._universe(), self._failed_csv(tmp_path, ["Z"]))
        assert set(labels.labels.values()) == {1}
        assert labels.unmatched == ("Z",)

    def test_coverage_matches_universe(self, tmp_path):
        labels = derive_labels(self._universe(), self._failed_csv(tmp_path, ["A", "C"]))
        assert len(labels) == len(self._universe())

    def test_missing_file_is_io_error(self):
        with pytest.raises(OSError):
            derive_labels(self._universe(), "/nonexistent/failed.csv")

    def test_bad_schema(self, tmp_path):
        path = tmp_path / "failed.csv"
        path.write_text("bank,date\nA,2010-01-01\n")
        with pytest.raises(SchemaError):
            derive_labels(self._universe(), path)


def test_next_quarter():
    assert next_quarter("2009Q1") == "2009Q2"
    assert next_quarter("2009Q4") == "2010Q1"
    with pytest.raises(ValueError):
        next_quarter("2009Q5")
