import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from banknet.balance_sheets import DefaultLabelSet, QuarterlyPanel
from banknet.dataset import (
    COLUMN_NAMES,
    FeaturePanel,
    accuracy,
    apply_scaler,
    build_panel,
    fit_scaler,
    rebalance,
    rebalance_size,
    split,
)
from banknet.errors import ArityError, ClassBalanceError, DatasetSizeError

from .test_balance_sheets import make_record

QUARTERS = ("2009Q1", "2009Q2", "2009Q3", "2009Q4")


def _quarters(bank_ids, skip=()):
    """Four quarterly panels; (bank, quarter_index) pairs in skip are omitted."""
    panels = []
    for k, tag in enumerate(QUARTERS):
        records = tuple(
            make_record(b, quarter=tag) for b in bank_ids if (b, k) not in skip
        )
        panels.append(QuarterlyPanel(tag, records))
    return panels


def _proxies(bank_ids, value=-1.0):
    return [(tuple(bank_ids), np.full(len(bank_ids), value)) for _ in QUARTERS]


def _labels(bank_ids, failed=()):
    return DefaultLabelSet(
        "2010Q1", {b: (0 if b in failed else 1) for b in bank_ids}
    )


def make_feature_panel(m, failed_count, seed=0):
    rng = np.random.default_rng(seed)
    y = np.zeros(m, dtype=int)
    y[failed_count:] = 1
    return FeaturePanel(
        bank_ids=tuple(f"B{i:04d}" for i in range(m)),
        column_names=COLUMN_NAMES,
        x=rng.normal(size=(m, 24)),
        y=y,
    )


class TestBuildPanel:
    def test_column_count_and_order(self):
        assert len(COLUMN_NAMES) == 24
        assert COLUMN_NAMES[0] == "stpd_q1"
        assert COLUMN_NAMES[4] == "roe_q1"
        assert COLUMN_NAMES[23] == "contagion_proxy_q4"

    def test_missing_quarter_excludes_bank(self):
        ids = ("A", "B", "C")
        panels = _quarters(ids, skip={("C", 2)})
        panel = build_panel(panels, _proxies(ids), _labels(ids))
        assert panel.bank_ids == ("A", "B")
        assert panel.exclusions == (("C", "missing from quarter 2009Q3"),)

    def test_empty_label_overlap_warns(self):
        panels = _quarters(("A",))
        with pytest.warns(UserWarning, match="empty"):
            panel = build_panel(panels, _proxies(("A",)), _labels(()))
        assert len(panel) == 0
        assert panel.exclusions == (("A", "no default label"),)

    def test_single_bank_positional_assembly(self):
        panels = []
        for k, tag in enumerate(QUARTERS):
            rec = make_record("A", quarter=tag)
            rec = type(rec)(
                **{
                    **rec.__dict__,
                    "stpd_ratio": 0.1 + k,
                    "roe": 0.2 + k,
                    "roa": 0.3 + k,
                    "tier1_ratio": 0.4 + k,
                    "tier1_leverage_ratio": 0.5 + k,
                }
            )
            panels.append(QuarterlyPanel(tag, (rec,)))
        proxies = [(("A",), np.array([-10.0 * (k + 1)])) for k in range(4)]
        panel = build_panel(panels, proxies, _labels(("A",)))
        row = panel.x[0]
        assert row[:4].tolist() == [0.1, 1.1, 2.1, 3.1]  # stpd q1..q4
        assert row[4:8].tolist() == [0.2, 1.2, 2.2, 3.2]  # roe
        assert row[8:12].tolist() == [0.3, 1.3, 2.3, 3.3]  # roa
        assert row[12:16].tolist() == [0.4, 1.4, 2.4, 3.4]  # tier1 ratio
        assert row[16:20].tolist() == [0.5, 1.5, 2.5, 3.5]  # tier1 leverage
        assert row[20:24].tolist() == [-10.0, -20.0, -30.0, -40.0]  # proxies

    def test_missing_proxy_excludes_bank(self):
        ids = ("A", "B")
        proxies = _proxies(ids)
        proxies[3] = _proxies(("A",))[3]  # no q4 proxy for B
        panel = build_panel(_quarters(ids), proxies, _labels(ids))
        assert panel.bank_ids == ("A",)
        assert panel.exclusions[0][0] == "B"

    def test_wrong_quarter_count(self):
        with pytest.raises(ArityError):
            build_panel(_quarters(("A",))[:3], _proxies(("A",))[:3], _labels(("A",)))


class TestRebalance:
    def test_oversamples_minority_subsamples_majority(self):
        panel = make_feature_panel(1000, failed_count=20)
        out = rebalance(panel, 1000, seed=5)
        assert len(out) == 1000
        assert int((out.y == 0).sum()) == 500
        assert int((out.y == 1).sum()) == 500
        # every minority row is an exact copy of an original minority row
        originals = {tuple(row) for row in panel.x[panel.y == 0]}
        for row in out.x[out.y == 0]:
            assert tuple(row) in originals
        # originals are all kept at least once
        kept = {tuple(row) for row in out.x[out.y == 0]}
        assert kept == originals

    def test_balanced_input_is_permutation(self):
        panel = make_feature_panel(1000, failed_count=500)
        out = rebalance(panel, 1000, seed=1)
        assert sorted(out.bank_ids) == sorted(panel.bank_ids)

    def test_empty_class_is_error(self):
        panel = make_feature_panel(100, failed_count=0)
        with pytest.raises(ClassBalanceError):
            rebalance(panel, 100, seed=0)

    def test_odd_target_rejected(self):
        panel = make_feature_panel(100, failed_count=10)
        with pytest.raises(ValueError):
            rebalance(panel, 999, seed=0)

    def test_deterministic(self):
        panel = make_feature_panel(300, failed_count=7)
        a = rebalance(panel, 200, seed=9)
        b = rebalance(panel, 200, seed=9)
        assert a.bank_ids == b.bank_ids
        np.testing.assert_array_equal(a.x, b.x)


class TestRebalanceSize:
    @pytest.mark.parametrize(
        "total, per_partition, size",
        [(1000, False, 1000), (2, False, 2), (3, True, 2), (9, True, 4), (1000, True, 334)],
    )
    def test_size_of_one_rebalance(self, total, per_partition, size):
        assert rebalance_size(total, per_partition) == size

    @pytest.mark.parametrize(
        "total, per_partition, rule",
        [(0, False, "a positive even count"), (3, False, "a positive even count"),
         (-2, False, "a positive even count"), (2, True, "at least 3 with rebalance_after_split")],
    )
    def test_rule_is_named(self, total, per_partition, rule):
        with pytest.raises(ValueError, match=f"^total must be {rule}, got {total}$"):
            rebalance_size(total, per_partition)


def test_accuracy_calls_a_default_at_one_half():
    # Both classifiers are scored by this one rule: 0.5 is a default.
    assert accuracy(np.array([0.5, 0.4999, 0.9, 0.1]), [1, 0, 0, 0]) == 0.75


class TestScaler:
    def test_hand_computed_example(self):
        x = np.zeros((5, 24))
        x[:, 0] = [1, 2, 3, 4, 5]
        panel = FeaturePanel(
            bank_ids=tuple(str(i) for i in range(5)),
            column_names=COLUMN_NAMES,
            x=x,
            y=np.ones(5, dtype=int),
        )
        params = fit_scaler(panel, np.arange(5))
        assert params.median[0] == 3.0
        assert params.iqr[0] == 2.0
        scaled = apply_scaler(params, panel)
        assert scaled.x[:, 0].tolist() == [-1.0, -0.5, 0.0, 0.5, 1.0]

    def test_constant_column_centered_with_unit_divisor(self):
        x = np.full((4, 24), 7.0)
        panel = FeaturePanel(
            bank_ids=("a", "b", "c", "d"),
            column_names=COLUMN_NAMES,
            x=x,
            y=np.ones(4, dtype=int),
        )
        params = fit_scaler(panel, np.arange(4))
        assert params.iqr[0] == 0.0
        scaled = apply_scaler(params, panel)
        assert not scaled.x.any()

    def test_not_idempotent_unless_trivial(self):
        x = np.zeros((5, 24))
        x[:, 0] = [1, 2, 3, 4, 5]
        panel = FeaturePanel(
            bank_ids=tuple(str(i) for i in range(5)),
            column_names=COLUMN_NAMES,
            x=x,
            y=np.ones(5, dtype=int),
        )
        params = fit_scaler(panel, np.arange(5))
        once = apply_scaler(params, panel)
        twice = apply_scaler(params, once)
        assert not np.allclose(once.x[:, 0], twice.x[:, 0])

    def test_params_come_from_train_rows_only(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(60, 24))
        x[30:] += 50.0  # a shifted "test" half
        panel = FeaturePanel(
            bank_ids=tuple(str(i) for i in range(60)),
            column_names=COLUMN_NAMES,
            x=x,
            y=np.ones(60, dtype=int),
        )
        train_only = fit_scaler(panel, np.arange(30))
        with_test = fit_scaler(panel, np.arange(60))
        assert not np.allclose(train_only.median, with_test.median)


class TestSplit:
    def test_999_rows_equal_thirds(self):
        panel = make_feature_panel(999, failed_count=111)
        s = split(panel, seed=3)
        assert (len(s.train), len(s.validation), len(s.test)) == (333, 333, 333)

    def test_1000_rows_within_one(self):
        panel = make_feature_panel(1000, failed_count=100)
        s = split(panel, seed=3)
        sizes = sorted([len(s.train), len(s.validation), len(s.test)])
        assert sizes == [333, 333, 334]

    def test_partitions_disjoint_and_complete(self):
        panel = make_feature_panel(250, failed_count=50)
        s = split(panel, seed=8)
        merged = np.concatenate([s.train, s.validation, s.test])
        assert sorted(merged.tolist()) == list(range(250))

    def test_same_seed_same_assignment(self):
        panel = make_feature_panel(500, failed_count=30)
        a, b = split(panel, seed=4), split(panel, seed=4)
        np.testing.assert_array_equal(a.train, b.train)
        np.testing.assert_array_equal(a.test, b.test)

    def test_too_few_rows(self):
        panel = make_feature_panel(2, failed_count=1)
        with pytest.raises(DatasetSizeError):
            split(panel, seed=0)

    @given(st.integers(10, 400), st.integers(0, 1000))
    @settings(max_examples=40, deadline=None)
    def test_stratification(self, m, seed):
        failed = max(1, m // 7)
        panel = make_feature_panel(m, failed_count=failed)
        s = split(panel, seed=seed)
        total_rate = failed / m
        for part in (s.train, s.validation, s.test):
            rate = float((panel.y[part] == 0).mean())
            assert abs(rate - total_rate) <= 1.0 / len(part) + 1e-12
