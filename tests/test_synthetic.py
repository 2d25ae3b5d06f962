import tracemalloc

import numpy as np
import pytest

from banknet.balance_sheets import NUMERIC_COLUMNS, close_system, load_panel
from banknet.debtrank import DEFAULT_SHOCK_FRACTION
from banknet import synthetic
from banknet.synthetic import SyntheticSpec, SyntheticResult, generate, write_outputs

from .oracles import synthetic_reference


@pytest.fixture(scope="module")
def medium_result() -> SyntheticResult:
    return generate(SyntheticSpec(n_banks=400, default_rate=0.05, rng_seed=3))


class TestGenerate:
    def test_fixed_seed_is_byte_identical(self, tmp_path):
        spec = SyntheticSpec(n_banks=60, default_rate=0.1, rng_seed=5)
        a = tmp_path / "a"
        b = tmp_path / "b"
        write_outputs(generate(spec), a)
        write_outputs(generate(spec), b)
        for path in sorted(a.iterdir()):
            assert path.read_bytes() == (b / path.name).read_bytes()

    def test_records_satisfy_invariants(self, medium_result, tmp_path):
        # Written out and loaded back, no row is rejected and every column
        # holds the generated doubles bit for bit.
        paths = write_outputs(medium_result, tmp_path)
        for panel in medium_result.panels:
            back = load_panel(paths[f"panel_{panel.quarter}"], panel.quarter)
            assert back.rejections == ()
            assert back.bank_ids == panel.bank_ids
            for column in NUMERIC_COLUMNS:
                assert back.columns[column].tobytes() == panel.columns[column].tobytes()
            assert (panel.equity() > 0).all()

    def test_system_is_closed_by_construction(self, medium_result):
        for panel in medium_result.panels:
            closed = close_system(panel)
            assert closed.closure_factor == pytest.approx(1.0, abs=1e-12)

    def test_zero_default_rate_all_solvent(self):
        res = generate(SyntheticSpec(n_banks=50, default_rate=0.0, rng_seed=1))
        assert set(res.labels.labels.values()) == {1}

    def test_default_count_within_binomial_bounds(self):
        res = generate(SyntheticSpec(n_banks=1000, default_rate=0.02, rng_seed=9))
        n_failed = res.ground_truth["n_failed"]
        sigma = (1000 * 0.02 * 0.98) ** 0.5
        assert abs(n_failed - 20) <= 3 * sigma

    def test_zero_signal_strength_decouples_contagion(self):
        res = generate(
            SyntheticSpec(
                n_banks=1000,
                default_rate=0.05,
                contagion_signal_strength=0.0,
                rng_seed=2,
            )
        )
        damage = np.array(res.ground_truth["true_contagion_damage_pct"])
        labels = np.array(
            [res.labels.labels[b] for b in res.ground_truth["bank_ids"]], dtype=float
        )
        r = np.corrcoef(damage, labels)[0, 1]
        assert abs(r) < 0.1

    def test_strong_signal_couples_contagion(self):
        res = generate(
            SyntheticSpec(
                n_banks=1000,
                default_rate=0.05,
                contagion_signal_strength=3.0,
                rng_seed=2,
            )
        )
        damage = np.array(res.ground_truth["true_contagion_damage_pct"])
        failed = np.array(
            [1 - res.labels.labels[b] for b in res.ground_truth["bank_ids"]],
            dtype=float,
        )
        assert np.corrcoef(damage, failed)[0, 1] > 0.3

    def test_mean_default_probability_is_calibrated(self, medium_result):
        probs = np.array(medium_result.ground_truth["default_probability"])
        assert probs.mean() == pytest.approx(0.05, abs=1e-6)

    def test_quarter_tags_are_consecutive(self, medium_result):
        assert [p.quarter for p in medium_result.panels] == [
            "2009Q1",
            "2009Q2",
            "2009Q3",
            "2009Q4",
        ]
        assert medium_result.labels.horizon == "2010Q1"

    def test_too_few_banks_rejected(self):
        with pytest.raises(ValueError):
            SyntheticSpec(n_banks=5)

    @pytest.mark.parametrize("fraction", [float("nan"), 1.5, -0.1])
    def test_shock_fraction_outside_the_unit_interval_is_named(self, fraction):
        # It used to pass the spec and fail in generate, naming ten bank ids.
        with pytest.raises(ValueError, match=r"^shock_fraction must lie in \[0, 1\], got "):
            SyntheticSpec(shock_fraction=fraction)
        assert SyntheticSpec().shock_fraction == DEFAULT_SHOCK_FRACTION

    def test_failed_list_matches_labels(self, tmp_path, medium_result):
        paths = write_outputs(medium_result, tmp_path)
        failed_csv = tmp_path / "failed_banks.csv"
        listed = {
            line.split(",")[0]
            for line in failed_csv.read_text().strip().splitlines()[1:]
        }
        expected = {b for b, v in medium_result.labels.labels.items() if v == 0}
        assert listed == expected
        assert "ground_truth" in paths


class TestDenseReference:
    """``generate`` keeps only the hidden network's edges; the reference draws
    and propagates it as dense n x n arrays from the same random stream."""

    # n = 10 at seeds 1, 13 and 48 tops a lender up to two partners (at 48 the
    # pick changes if its existing partner stays a candidate); 257 and 513
    # banks end in a partial chunk of cells.
    @pytest.mark.parametrize(
        "n_banks, seed", [(10, 1), (10, 13), (10, 48), (257, 0), (513, 0), (1000, 42)]
    )
    def test_matches_the_dense_draw_bit_for_bit(self, n_banks, seed):
        spec = SyntheticSpec(n_banks=n_banks, rng_seed=seed)
        panels, failed, intercept, damage, probs = synthetic_reference(spec)
        result = generate(spec)
        for got, want in zip(result.panels, panels, strict=True):
            assert (got.quarter, got.bank_ids) == (want.quarter, want.bank_ids)
            for name in NUMERIC_COLUMNS:
                assert got.columns[name].tobytes() == want.columns[name].tobytes(), name
        truth = result.ground_truth
        assert truth["log_odds_intercept"] == intercept
        for key, want in (("true_contagion_damage_pct", damage), ("default_probability", probs)):
            assert np.array(truth[key]).tobytes() == want.tobytes(), key
        assert list(result.labels.labels.values()) == (~failed).astype(int).tolist()


@pytest.mark.parametrize("chunk", [7, 4097])
def test_the_draw_chunk_does_not_change_the_output(monkeypatch, chunk):
    # 7 cells split rows and edges mid-way; 4097 leaves a partial last chunk.
    spec = SyntheticSpec(n_banks=90, default_rate=0.1, rng_seed=8)
    want = generate(spec)
    monkeypatch.setattr(synthetic, "CHUNK", chunk)
    got = generate(spec)
    for a, b in zip(got.panels, want.panels, strict=True):
        for name in NUMERIC_COLUMNS:
            assert a.columns[name].tobytes() == b.columns[name].tobytes(), name
    assert got.labels == want.labels and got.ground_truth == want.ground_truth


def test_generate_forms_no_n_by_n_array():
    # Traced peak of a whole generate in units of one n x n float64 matrix:
    # one chunk of cells for the draws, and vectors of edges.
    n = 2000
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        generate(SyntheticSpec(n_banks=n, rng_seed=5))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (peak - base) / (8 * n * n) < 0.5
