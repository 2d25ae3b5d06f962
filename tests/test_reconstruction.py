import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from banknet.errors import DimensionError, InfeasibilityError, SchemaError
from banknet.reconstruction import (
    ExposureMatrix,
    _scale_cols,
    _scale_rows,
    marginal_errors,
    read_matrix,
    reconstruct,
    write_matrix,
)


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
        # Bank A holds all assets and all liabilities: nobody can owe it.
        with pytest.raises(InfeasibilityError):
            reconstruct([10, 0], [10, 0])

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


class TestSteps:
    def test_even_step_conserves_total_mass(self):
        rng = np.random.default_rng(9)
        n = 12
        w = rng.uniform(0, 5, (n, n))
        np.fill_diagonal(w, 0.0)
        ia = rng.uniform(1, 10, n)
        _scale_rows(w, ia)
        assert abs(w.sum() - ia.sum()) <= 1e-12 * ia.sum()

    def test_odd_step_matches_columns(self):
        rng = np.random.default_rng(10)
        n = 6
        w = rng.uniform(0.1, 5, (n, n))
        np.fill_diagonal(w, 0.0)
        il = rng.uniform(1, 10, n)
        _scale_cols(w, il)
        np.testing.assert_allclose(w.sum(axis=0), il, rtol=1e-12)

    def test_steps_preserve_zero_diagonal_and_nonnegativity(self):
        rng = np.random.default_rng(11)
        n = 9
        w = rng.uniform(0, 5, (n, n))
        np.fill_diagonal(w, 0.0)
        ia = rng.uniform(0, 10, n)
        il = rng.uniform(0, 10, n)
        for _ in range(5):
            _scale_rows(w, ia)
            assert np.diagonal(w).tolist() == [0.0] * n
            assert (w >= 0).all()
            _scale_cols(w, il)
            assert np.diagonal(w).tolist() == [0.0] * n
            assert (w >= 0).all()


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
        assert em.w[0, 1] == 1.0


class TestMatrixDump:
    def test_roundtrip_and_header(self, tmp_path):
        em, _ = reconstruct([6, 6, 6], [6, 6, 6], bank_ids=("x", "y", "z"))
        path = tmp_path / "matrix.bin"
        write_matrix(path, em)
        raw = path.read_bytes()
        assert raw[:8] == b"IBNW0001"
        assert int.from_bytes(raw[8:16], "little") == 3
        assert len(raw) == 16 + 8 * 9
        back = read_matrix(path)
        assert back.bank_ids == ("x", "y", "z")
        np.testing.assert_array_equal(back.w, em.w)

    def _dump(self, tmp_path):
        em, _ = reconstruct([6, 6, 6], [6, 6, 6])
        path = tmp_path / "matrix.bin"
        write_matrix(path, em)
        return path, path.read_bytes()

    def test_truncated_body_is_schema_error(self, tmp_path):
        path, raw = self._dump(tmp_path)
        path.write_bytes(raw[:-8])
        with pytest.raises(SchemaError, match="needs 88 bytes, file has 80"):
            read_matrix(path)

    def test_trailing_bytes_are_schema_error(self, tmp_path):
        path, raw = self._dump(tmp_path)
        path.write_bytes(raw + b"\0")
        with pytest.raises(SchemaError, match="needs 88 bytes, file has 89"):
            read_matrix(path)

    def test_huge_header_n_is_schema_error(self, tmp_path):
        path, raw = self._dump(tmp_path)
        path.write_bytes(raw[:8] + (2**40).to_bytes(8, "little") + raw[16:])
        with pytest.raises(SchemaError, match=f"n={2**40} needs {16 + 8 * 4**40} bytes"):
            read_matrix(path)

    def test_truncated_header_is_schema_error(self, tmp_path):
        path, raw = self._dump(tmp_path)
        path.write_bytes(raw[:12])
        with pytest.raises(SchemaError, match="truncated header"):
            read_matrix(path)
