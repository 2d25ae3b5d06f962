import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from banknet.balance_sheets import live_subsystem
from banknet.errors import DimensionError, DomainError, InfeasibilityError, SchemaError
from banknet.reconstruction import (
    ExposureMatrix,
    marginal_errors,
    read_matrix,
    reconstruct,
    write_matrix,
)
from banknet.synthetic import SyntheticSpec, generate

from .oracles import ras_reference


class TestReconstruct:
    def test_two_banks_uniquely_determined(self):
        em, report = reconstruct([10, 20], [20, 10])
        assert em.w.tolist() == [[0.0, 10.0], [20.0, 0.0]]
        assert report.converged

    def test_all_zero_marginals_give_zero_matrix_in_one_iteration(self):
        em, report = reconstruct([0, 0, 0], [0, 0, 0])
        assert not em.w.any()
        assert report.converged
        assert report.iterations == 1

    def test_symmetric_uniform_fixed_point(self):
        # Off-diagonal 3 satisfies both marginals and is invariant under the
        # row/column rescales, so it is the unique fixed point reached.
        em, report = reconstruct([6, 6, 6], [6, 6, 6])
        expected = np.full((3, 3), 3.0)
        np.fill_diagonal(expected, 0.0)
        np.testing.assert_allclose(em.w, expected, rtol=1e-10)
        assert report.converged

    def test_length_mismatch(self):
        with pytest.raises(DimensionError):
            reconstruct([1, 2, 3], [1, 2])

    def test_single_bank_rejected(self):
        with pytest.raises(DimensionError):
            reconstruct([1.0], [1.0])

    def test_lender_without_counterparties_is_infeasible(self):
        # Bank 0 holds all assets and all liabilities: nobody can owe it.
        with pytest.raises(
            InfeasibilityError,
            match="^bank 0 has interbank assets 10 but no other bank reports interbank liabilities$",
        ):
            reconstruct([10, 0], [10, 0])

    def test_borrower_without_counterparties_is_infeasible(self):
        # Bank B holds all assets, so nobody can lend to it; bank A is fine.
        with pytest.raises(
            InfeasibilityError,
            match="^bank B has interbank liabilities 5 but no other bank reports interbank assets$",
        ):
            reconstruct([0, 10], [5, 5], bank_ids=("A", "B"))

    @pytest.mark.parametrize("side", ["ia", "il"])
    def test_non_finite_marginal_is_domain_error(self, side):
        # A NaN slips past the sign and balance checks, and RAS would spend
        # its whole iteration budget on it.
        marginals = {"ia": [5.0, 7.0, 11.0], "il": [11.0, 5.0, 7.0]}
        marginals[side][1] = np.nan
        with pytest.raises(DomainError, match="non-finite .*: B$"):
            reconstruct(marginals["ia"], marginals["il"], bank_ids=("A", "B", "C"))

    @pytest.mark.parametrize("tolerance", [np.nan, -1e-8])
    def test_nan_or_negative_tolerance_is_rejected(self, tolerance):
        # Either one can never be met: RAS would spend its whole budget.
        with pytest.raises(ValueError, match=f"tolerance must be .*, got {tolerance}$"):
            reconstruct([5, 7, 11], [11, 5, 7], tolerance=tolerance)

    def test_zero_iterations_rejected(self):
        # Zero iterations never run RAS and came back as "did not converge".
        with pytest.raises(ValueError, match="^max_iter must be at least 1, got 0$"):
            reconstruct([5, 7, 11], [11, 5, 7], max_iter=0)

    def test_unbalanced_marginals_rejected(self):
        with pytest.raises(InfeasibilityError, match="close_system"):
            reconstruct([10, 10], [10, 5])

    def test_non_convergence_reported_not_raised(self):
        em, report = reconstruct([5, 7, 11], [11, 5, 7], max_iter=1)
        assert not report.converged
        assert report.iterations == 1
        assert report.max_marginal_error > 1e-8

    def test_zero_asset_bank_has_zero_row(self):
        em, report = reconstruct([0.0, 5.0, 5.0], [4.0, 3.0, 3.0])
        assert report.converged
        assert not em.w[0].any()

    def test_scale_equivariance(self):
        rng = np.random.default_rng(3)
        ia = rng.uniform(1, 50, 8)
        il = rng.uniform(1, 50, 8)
        il *= ia.sum() / il.sum()
        base, _ = reconstruct(ia, il)
        scaled, _ = reconstruct(1000.0 * ia, 1000.0 * il)
        np.testing.assert_allclose(scaled.w, 1000.0 * base.w, rtol=1e-9)

    @given(st.integers(2, 20), st.integers(0, 2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_random_feasible_instances_converge_clean(self, n, seed):
        # Marginals are read off a random zero-diagonal witness matrix, which
        # makes them feasible by construction (a free-marginal draw usually
        # is not: feasibility needs ia_i + il_i <= total for every bank).
        rng = np.random.default_rng(seed)
        witness = rng.uniform(0.1, 10.0, (n, n))
        np.fill_diagonal(witness, 0.0)
        ia = witness.sum(axis=1)
        il = witness.sum(axis=0)
        em, report = reconstruct(ia, il, tolerance=1e-8, max_iter=10_000)
        assert report.converged
        assert (em.w >= 0).all()
        assert np.diagonal(em.w).tolist() == [0.0] * n
        row_err, col_err = marginal_errors(em, ia, il)
        assert max(row_err.max(), col_err.max()) <= 1e-8

    def test_combined_marginals_exceeding_total_is_infeasible(self):
        # ia_0 + il_0 = 25 > total 24: bank 0 cannot place its assets and
        # absorb its liabilities in the remaining system at the same time.
        with pytest.raises(InfeasibilityError, match="zero-diagonal"):
            reconstruct([15.0, 5.0, 4.0], [10.0, 7.0, 7.0])


def _witness(rng, n, density=1.0):
    """A random zero-diagonal matrix; marginals read off it are feasible."""
    witness = rng.uniform(0.1, 10.0, (n, n)) * (rng.random((n, n)) < density)
    np.fill_diagonal(witness, 0.0)
    return witness


class TestFirstIteration:
    """One RAS iteration (a row step, then a column step) keeps the mass,
    matches the columns and keeps the matrix nonnegative with a zero
    diagonal."""

    def test_one_iteration_conserves_total_mass(self):
        w = _witness(np.random.default_rng(9), 12)
        ia, il = w.sum(axis=1), w.sum(axis=0)
        em, report = reconstruct(ia, il, max_iter=1)
        assert report.iterations == 1
        assert abs(em.w.sum() - ia.sum()) <= 1e-12 * ia.sum()

    def test_one_iteration_matches_columns(self):
        w = _witness(np.random.default_rng(10), 6)
        ia, il = w.sum(axis=1), w.sum(axis=0)
        em, _ = reconstruct(ia, il, max_iter=1)
        np.testing.assert_allclose(em.w.sum(axis=0), il, rtol=1e-12)

    def test_iterations_keep_zero_diagonal_and_nonnegativity(self):
        w = _witness(np.random.default_rng(11), 9, density=0.5)
        w[0, :] = w[:, 1] = 0.0  # a bank that only borrows, one that only lends
        ia, il = w.sum(axis=1), w.sum(axis=0)
        for max_iter in range(1, 6):
            em, _ = reconstruct(ia, il, max_iter=max_iter)
            assert np.diagonal(em.w).tolist() == [0.0] * 9
            assert (em.w >= 0).all()


def _oracle_rtol(ia, il, iterations):
    """Largest relative cell difference expected between the two-vector RAS
    and the dense in-place reference after `iterations` iterations.

    Each step of either implementation rounds a sum of at most n
    nonnegative terms (pairwise: about log2(n) eps), a division and a
    product. The two-vector form takes its capacities as sum(v) - v_i, which
    magnifies the sum's rounding by kappa = sum(v) / (sum(v) - v_i) over the
    scaling vectors v = y (row steps) and x (column steps). Errors carried
    into a step pass through unmagnified, so they add up over the 2 steps x
    2 implementations of every iteration.
    """
    v = np.ones(ia.size)  # y before the first row step
    kappa = 1.0
    for target in (ia, il) * iterations:
        capacity = v.sum() - v
        used = (target > 0) & (capacity > 0)
        kappa = max(kappa, float(np.max(v.sum() / capacity[used], initial=1.0)))
        v = np.divide(target, capacity, out=np.zeros_like(target), where=capacity > 0)
    return 4 * iterations * (np.ceil(np.log2(ia.size)) + 2) * kappa * np.finfo(float).eps


class TestDenseOracle:
    """reconstruct against ``oracles.ras_reference``, the dense loop that
    rescales the n x n matrix in place: the same stopping decisions, and
    matrices that differ only by rounding in the scaling capacities."""

    def _check(self, ia, il, max_iter=10_000):
        em, report = reconstruct(ia, il, max_iter=max_iter)
        w, iterations, converged = ras_reference(ia, il, max_iter=max_iter)
        assert (report.iterations, report.converged) == (iterations, converged)
        np.testing.assert_array_equal(em.w == 0.0, w == 0.0)
        np.testing.assert_allclose(em.w, w, rtol=_oracle_rtol(ia, il, iterations), atol=0.0)

    def test_random_witnesses_including_sparse_and_budget_limited(self):
        rng = np.random.default_rng(2024)
        for trial in range(150):
            n = int(rng.integers(2, 40))
            w = _witness(rng, n, density=float(rng.uniform(0.05, 1.0)))
            ia, il = w.sum(axis=1), w.sum(axis=0)
            if ia.sum() == 0.0:
                continue
            self._check(ia, il, max_iter=(1, 2, 10_000)[trial % 3])

    def test_dominant_borrower(self):
        # One bank owes 90%, 99% or 99.9% of all interbank liabilities, so
        # its own row's capacity sum(y) - y_j cancels most of sum(y).
        rng = np.random.default_rng(2025)
        for trial in range(60):
            n = int(rng.integers(3, 40))
            witness = _witness(rng, n)
            j = int(rng.integers(n))
            share = (0.9, 0.99, 0.999)[trial % 3]
            rest = witness.sum() - witness[:, j].sum()
            witness[:, j] *= share / (1.0 - share) * rest / witness[:, j].sum()
            budget = (1, 2, 10_000)[trial // 3 % 3]
            self._check(witness.sum(axis=1), witness.sum(axis=0), max_iter=budget)

    @pytest.mark.parametrize("n_banks", [300, 2000])
    def test_generated_panels(self, n_banks):
        result = generate(SyntheticSpec(n_banks=n_banks, quarters=2, rng_seed=n_banks))
        for panel in result.panels:
            sub, _ = live_subsystem(panel)
            self._check(
                np.array([r.interbank_assets for r in sub.records]),
                np.array([r.interbank_liabilities for r in sub.records]),
            )


class TestMarginalErrors:
    def test_exact_fixed_point_zero_errors(self):
        em = ExposureMatrix(("a", "b"), np.array([[0.0, 10.0], [20.0, 0.0]]))
        row, col = marginal_errors(em, [10, 20], [20, 10])
        assert row.tolist() == [0.0, 0.0]
        assert col.tolist() == [0.0, 0.0]

    def test_half_missing_row(self):
        em = ExposureMatrix(("a", "b"), np.array([[0.0, 5.0], [20.0, 0.0]]))
        row, _ = marginal_errors(em, [10, 20], [20, 10])
        assert row.tolist() == [0.5, 0.0]

    def test_dimension_check(self):
        em = ExposureMatrix(("a", "b"), np.zeros((2, 2)))
        with pytest.raises(DimensionError):
            marginal_errors(em, [1, 2, 3], [1, 2])

    @pytest.mark.parametrize("max_iter", [1, 3, 10_000])
    def test_ras_report_is_the_returned_matrix_largest_error(self, max_iter):
        # RAS stops on marginal_errors: the reported error is its maximum on
        # the returned iterate, bit for bit, converged or cut off.
        for panel in generate(SyntheticSpec(n_banks=300, quarters=2, rng_seed=8)).panels:
            sub, _ = live_subsystem(panel)
            ia, il = sub.interbank_assets(), sub.interbank_liabilities()
            exposures, ras = reconstruct(ia, il, max_iter=max_iter, bank_ids=sub.bank_ids)
            row, col = marginal_errors(exposures, ia, il)
            assert ras.max_marginal_error == max(row.max(), col.max())
            assert ras.converged == (ras.max_marginal_error <= 1e-8)


def test_returned_matrix_is_immutable():
    em, _ = reconstruct([6, 6, 6], [6, 6, 6])
    with pytest.raises(ValueError):
        em.w[0, 1] = 99.0


def test_caller_arrays_are_copied():
    base = np.array([[0.0, 1.0], [2.0, 0.0]])
    frozen_view = base.view()
    frozen_view.setflags(write=False)
    matrices = [ExposureMatrix(("a", "b"), w) for w in (base, frozen_view)]
    base[0, 1] = 99.0
    for em in matrices:
        assert em.csc[0, 1] == 1.0


def test_a_nonzeros_form_has_no_dense_view():
    em = ExposureMatrix(("a", "b"), np.array([[0.0, 1.0], [2.0, 0.0]]))
    with pytest.raises(TypeError):
        em.w


class TestMatrixDump:
    def test_roundtrip_and_header(self, tmp_path):
        em, _ = reconstruct([5, 7, 11], [11, 5, 7], bank_ids=("x", "y", "z"))
        path = tmp_path / "matrix.bin"
        write_matrix(path, em)
        raw = path.read_bytes()
        assert raw[:8] == b"IBNW0002"
        assert int.from_bytes(raw[8:16], "little") == 3
        assert raw[16:] == np.concatenate(em.factors).astype("<f8").tobytes()
        back = read_matrix(path)
        assert back.bank_ids == ("x", "y", "z") and back.csc is None
        for got, want in zip(back.factors, em.factors):
            assert got.tobytes() == want.tobytes()

    def test_a_nonzeros_form_is_not_dumped(self, tmp_path):
        em = ExposureMatrix(("a", "b"), np.array([[0.0, 1.0], [2.0, 0.0]]))
        with pytest.raises(TypeError, match="rank-1"):
            write_matrix(tmp_path / "matrix.bin", em)

    def test_the_dense_layout_is_a_bad_magic(self, tmp_path):
        path, raw = self._dump(tmp_path)
        path.write_bytes(b"IBNW0001" + raw[8:16] + bytes(8 * 9))
        with pytest.raises(SchemaError, match="bad magic b'IBNW0001', expected b'IBNW0002'"):
            read_matrix(path)

    def _dump(self, tmp_path):
        em, _ = reconstruct([6, 6, 6], [6, 6, 6])
        path = tmp_path / "matrix.bin"
        write_matrix(path, em)
        return path, path.read_bytes()

    def test_truncated_body_is_schema_error(self, tmp_path):
        path, raw = self._dump(tmp_path)
        path.write_bytes(raw[:-8])
        with pytest.raises(SchemaError, match="needs 64 bytes, file has 56"):
            read_matrix(path)

    def test_trailing_bytes_are_schema_error(self, tmp_path):
        path, raw = self._dump(tmp_path)
        path.write_bytes(raw + b"\0")
        with pytest.raises(SchemaError, match="needs 64 bytes, file has 65"):
            read_matrix(path)

    def test_huge_header_n_is_schema_error(self, tmp_path):
        path, raw = self._dump(tmp_path)
        path.write_bytes(raw[:8] + (2**40).to_bytes(8, "little") + raw[16:])
        with pytest.raises(SchemaError, match=f"n={2**40} needs {16 + 16 * 2**40} bytes"):
            read_matrix(path)

    def test_truncated_header_is_schema_error(self, tmp_path):
        path, raw = self._dump(tmp_path)
        path.write_bytes(raw[:12])
        with pytest.raises(SchemaError, match="truncated header"):
            read_matrix(path)
