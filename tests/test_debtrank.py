import dataclasses
import time
import tracemalloc

import numpy as np
import pytest
from scipy import sparse

from banknet.balance_sheets import NUMERIC_COLUMNS, QuarterlyPanel, live_subsystem
from banknet.debtrank import (
    _EPS,
    DEFAULT_SHOCK_FRACTION,
    ContagionRun,
    ShockSpec,
    apply_shock,
    init_state,
    live_network,
    propagate,
    simulate_quarter,
)
from banknet.errors import DomainError, UnknownBankError
from banknet.reconstruction import (
    ExposureMatrix,
    marginal_errors,
    read_matrix,
    reconstruct,
    write_matrix,
)
from banknet.synthetic import SyntheticSpec, generate

from .oracles import DenseExposures, debtrank_reference
from .test_balance_sheets import make_record


def em(w, ids=None):
    w = np.asarray(w, dtype=float)
    ids = tuple(ids) if ids else tuple(chr(ord("A") + i) for i in range(w.shape[0]))
    return ExposureMatrix(bank_ids=ids, w=w)


def random_instance(rng, n=None, max_phi=0.9):
    """Random network + equity + fractional shock on a random subset, and
    the network's literal matrix."""
    n = n or int(rng.integers(2, 6))
    e0 = rng.uniform(50.0, 1000.0, n)
    w = rng.uniform(0.0, max_phi, (n, n)) * e0[None, :]  # keeps phi below max_phi
    w[rng.random((n, n)) < 0.3] = 0.0
    np.fill_diagonal(w, 0.0)
    k = int(rng.integers(1, n + 1))
    targets = {
        str(i): float(rng.uniform(0.05, 0.95))
        for i in rng.choice(n, size=k, replace=False)
    }
    ids = tuple(str(i) for i in range(n))
    return em(w, ids), e0, ShockSpec(mode="equity_fraction", targets=targets), w


class TestInitState:
    def test_phi_is_exposure_over_borrower_equity(self):
        # A lends 50 to B. Halving B's 200 of equity costs A 50 / 200 = 0.25
        # of B's 100 loss; normalizing by A's own 400 would cost it 12.5.
        state = init_state(em([[0, 50], [0, 0]]), [400.0, 200.0])
        run = propagate(apply_shock(state, ShockSpec("equity_fraction", {"B": 0.5})))
        assert run.e_final.tolist() == [375.0, 100.0]
        assert run.proxy.tolist() == [-6.25, 0.0]

    def test_zero_matrix_gives_zero_proxies(self):
        state = init_state(em(np.zeros((3, 3))), [10.0, 20.0, 30.0])
        run = propagate(apply_shock(state, ShockSpec.uniform(("A", "B", "C"), 0.5)))
        np.testing.assert_array_equal(run.e_final, run.e_post_shock)
        assert run.proxy.tolist() == [0.0, 0.0, 0.0]

    def test_zero_equity_is_domain_error(self):
        with pytest.raises(DomainError, match="B"):
            init_state(em(np.zeros((2, 2))), [10.0, 0.0])

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_equity_is_domain_error(self, bad):
        # NaN <= 0 is false: without its own check a NaN equity would run the
        # propagation to max_periods and come back unconverged.
        with pytest.raises(DomainError, match="non-finite .*: B;"):
            init_state(em([[0, 50], [50, 0]]), [100.0, bad])


class TestApplyShock:
    def test_fractional_shock(self):
        state = init_state(em([[0, 50], [0, 0]]), [100.0, 100.0])
        shocked = apply_shock(state, ShockSpec("equity_fraction", {"B": 0.5}))
        assert shocked.e_curr.tolist() == [100.0, 50.0]
        # The shock is the first period's equity change: A absorbs
        # 0.5 * (50 - 100) in period one, then nothing moves.
        run = propagate(shocked, record_trajectory=True)
        assert [e.tolist() for e in run.trajectory] == [
            [100.0, 50.0],
            [75.0, 50.0],
            [75.0, 50.0],
        ]

    def test_full_shock_kills_and_silences(self):
        state = init_state(em([[0, 50], [0, 0]]), [100.0, 100.0])
        shocked = apply_shock(state, ShockSpec("equity_fraction", {"B": 1.0}))
        assert (shocked.e_curr == 0).tolist() == [False, True]
        # Silenced: B's loss of its whole 100 never reaches its lender A.
        run = propagate(shocked)
        assert run.e_final.tolist() == [100.0, 0.0]
        assert run.proxy.tolist() == [0.0, 0.0]

    def test_empty_targets_is_identity(self):
        state = init_state(em(np.zeros((2, 2))), [100.0, 100.0])
        shocked = apply_shock(state, ShockSpec("equity_fraction", {}))
        assert shocked.e_curr.tolist() == [100.0, 100.0]

    def test_a_shock_is_equity_fractions_only(self):
        with pytest.raises(ValueError, match="equity_fraction"):
            ShockSpec("absolute", {"A": 250.0})

    def test_unknown_bank(self):
        state = init_state(em(np.zeros((2, 2))), [100.0, 100.0])
        with pytest.raises(UnknownBankError, match="Z"):
            apply_shock(state, ShockSpec("equity_fraction", {"Z": 0.5}))

    def test_unknown_banks_error_names_at_most_ten(self):
        state = init_state(em(np.zeros((2, 2))), [100.0, 100.0])
        shock = ShockSpec("equity_fraction", dict.fromkeys((f"Z{i:04d}" for i in range(1000)), 0.5))
        with pytest.raises(UnknownBankError) as excinfo:
            apply_shock(state, shock)
        message = str(excinfo.value)
        assert message.endswith("Z0009 and 990 more") and len(message) < 400

    def test_fraction_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            ShockSpec("equity_fraction", {"A": 1.5})

    @pytest.mark.parametrize(
        "size",
        [
            pytest.param(1.5, id="equity_fraction-1.5"),
            pytest.param(-1.0, id="negative"),
            pytest.param(np.nan, id="nan"),
            pytest.param(np.inf, id="inf"),
        ],
    )
    def test_out_of_range_error_names_at_most_ten_banks(self, size):
        ids = [f"B{i:05d}" for i in range(1000)]
        with pytest.raises(ValueError) as excinfo:
            ShockSpec("equity_fraction", dict.fromkeys(ids, size))
        message = str(excinfo.value)
        assert message.endswith(f"B00009={size!r} and 990 more")
        assert "B00010" not in message and len(message) < 200


class TestPropagate:
    def test_two_bank_chain_worked_example(self):
        state = init_state(em([[0, 50], [0, 0]]), [100.0, 100.0])
        run = propagate(apply_shock(state, ShockSpec("equity_fraction", {"B": 0.5})))
        assert run.e_final.tolist() == [75.0, 50.0]
        assert run.proxy.tolist() == [-25.0, 0.0]
        assert run.converged

    def test_beta_zero_disables_contagion(self):
        state = init_state(em([[0, 50], [50, 0]]), [100.0, 100.0])
        run = propagate(
            apply_shock(state, ShockSpec.uniform(("A", "B"), 0.4)), beta=0.0
        )
        np.testing.assert_array_equal(run.e_final, run.e_post_shock)
        assert run.proxy.tolist() == [0.0, 0.0]

    def test_no_shock_converges_immediately(self):
        state = init_state(em([[0, 50], [50, 0]]), [100.0, 100.0])
        run = propagate(apply_shock(state, ShockSpec("equity_fraction", {})))
        assert run.periods == 1
        assert run.converged
        assert run.proxy.tolist() == [0.0, 0.0]

    def test_max_periods_reported_not_raised(self):
        w = [[0, 90], [90, 0]]
        state = init_state(em(w), [100.0, 100.0])
        run = propagate(
            apply_shock(state, ShockSpec.uniform(("A", "B"), 0.5)), max_periods=2
        )
        assert not run.converged
        assert run.periods == 2

    def test_zero_periods_rejected(self):
        # Zero periods never run the loop and came back as "did not converge".
        state = init_state(em([[0, 90], [90, 0]]), [100.0, 100.0])
        with pytest.raises(ValueError, match="^max_periods must be at least 1, got 0$"):
            propagate(apply_shock(state, ShockSpec.uniform(("A", "B"), 0.5)), max_periods=0)

    def test_cascade_default_is_counted(self):
        # B's entire equity is wiped by A's collapse.
        state = init_state(em([[0, 0], [200, 0]], ids=("A", "B")), [100.0, 50.0])
        run = propagate(apply_shock(state, ShockSpec("equity_fraction", {"A": 1.0})))
        assert run.initially_defaulted.tolist() == [True, False]
        # A was killed by the shock itself, so its column is silenced and
        # nothing propagates: the cascade count stays zero.
        assert run.defaults_cascaded == 0
        assert run.e_final.tolist() == [0.0, 50.0]

    def test_partial_collapse_cascades(self):
        # A keeps falling for one period, and its fall wipes B.
        state = init_state(em([[0, 0], [500, 0]], ids=("A", "B")), [1000.0, 50.0])
        run = propagate(apply_shock(state, ShockSpec("equity_fraction", {"A": 0.5})))
        assert run.cascade_defaulted.tolist() == [False, True]
        assert run.defaults_cascaded == 1
        assert run.e_final[1] == 0.0

    def test_state_not_mutated(self):
        # B defaults during the run, so the run's own equity reaches zero.
        state = init_state(em([[0, 0], [500, 0]], ids=("A", "B")), [1000.0, 50.0])
        shocked = apply_shock(state, ShockSpec("equity_fraction", {"A": 0.5}))
        w_before = shocked.exposures.csc.toarray()
        e_before = shocked.e_curr.copy()
        run = propagate(shocked)
        assert run.defaults_cascaded == 1
        np.testing.assert_array_equal(shocked.exposures.csc.toarray(), w_before)
        np.testing.assert_array_equal(shocked.e_curr, e_before)
        assert shocked.e0.tolist() == [1000.0, 50.0]


class TestInvariants:
    def test_equity_monotone_and_clamped(self):
        rng = np.random.default_rng(21)
        for _ in range(40):
            exposures, e0, shock, _ = random_instance(rng)
            state = apply_shock(init_state(exposures, e0), shock)
            run = propagate(state, beta=1.0, record_trajectory=True)
            traj = np.array(run.trajectory)
            assert (traj >= 0.0).all()
            assert (np.diff(traj, axis=0) <= 1e-12).all()
            assert (run.proxy <= 0.0).all()
            assert (run.proxy >= -100.0).all()

    def test_beta_monotone_on_cascade_free_instances(self):
        # The borrower-side zero-out silences the final drop of a bank that
        # dies mid-run, which can shelter its lenders at high beta; the
        # ordering claim therefore applies to runs without cascade defaults
        # (see test_zero_out_can_shelter_lenders for the boundary).
        rng = np.random.default_rng(22)
        betas = (0.0, 0.25, 0.5, 0.75, 1.0)
        checked = 0
        while checked < 30:
            exposures, e0, shock, _ = random_instance(rng, max_phi=0.5)
            state = apply_shock(init_state(exposures, e0), shock)
            probe = propagate(state, beta=1.0)
            if probe.defaults_cascaded or probe.initially_defaulted.any():
                continue
            finals = [propagate(state, beta=b).e_final for b in betas]
            for lo, hi in zip(finals, finals[1:]):
                assert (lo >= hi - 1e-9).all()
            checked += 1

    def test_zero_out_can_shelter_lenders(self):
        # Chain A<-B<-C with a thin middle bank: at beta=1 the middle bank
        # dies in period one and its collapse is silenced, so A keeps its
        # equity; at beta=0.3 the middle bank survives and keeps bleeding
        # losses through to A. Documents why the monotonicity property above
        # is restricted to cascade-free runs.
        w = [[0, 50, 0], [0, 0, 50], [0, 0, 0]]
        e0 = [100.0, 10.0, 100.0]
        shock = ShockSpec("equity_fraction", {"C": 0.5})
        run_hi = propagate(apply_shock(init_state(em(w), e0), shock), beta=1.0)
        run_lo = propagate(apply_shock(init_state(em(w), e0), shock), beta=0.3)
        assert run_hi.defaults_cascaded == 1
        assert run_hi.e_final[0] == 100.0
        assert run_lo.e_final[0] < 100.0

    def test_over_unity_feedback_still_terminates(self):
        # Mutual exposures exceeding equity: losses amplify every period
        # until the floor catches both banks; the run must still converge.
        e0 = [100.0, 100.0]
        w = [[0, 120], [120, 0]]
        state = init_state(em(w), e0)
        run = propagate(apply_shock(state, ShockSpec.uniform(("A", "B"), 0.2)))
        assert run.converged
        assert run.e_final.tolist() == [0.0, 0.0]
        assert run.defaults_cascaded == 2

    def test_frozen_phi_uses_initial_normalization(self):
        # If phi were renormalized to current equity, A's second-period loss
        # would shrink as B's equity falls; with the frozen ratio the run
        # matches the hand-iterated values exactly.
        w = [[0, 50], [0, 0]]
        state = init_state(em(w), [100.0, 100.0])
        run = propagate(
            apply_shock(state, ShockSpec("equity_fraction", {"B": 0.3})),
            record_trajectory=True,
        )
        # period 1: A absorbs 0.5 * (-30); B stable afterwards
        assert run.trajectory[1].tolist() == [85.0, 70.0]
        assert run.e_final.tolist() == [85.0, 70.0]


class TestOracleEquivalence:
    def test_matches_literal_reference(self):
        rng = np.random.default_rng(23)
        for _ in range(30):
            exposures, e0, shock, w = random_instance(rng)
            beta = float(rng.choice([0.5, 1.0]))
            state = apply_shock(init_state(exposures, e0), shock)
            run = propagate(state, beta=beta, alpha=1e-6, record_trajectory=True)
            ref_traj, ref_periods, ref_converged = debtrank_reference(
                w, e0, state.e_curr.tolist(), beta, 1e-6
            )
            assert run.periods == ref_periods
            assert run.converged == ref_converged
            for got, want in zip(run.trajectory, ref_traj):
                np.testing.assert_allclose(got, want, atol=1e-12, rtol=0)


class TestNonzerosForm:
    """``ExposureMatrix``'s borrower-major nonzeros against the dense step of
    ``oracles.DenseExposures``, which adds each live borrower's ratio row in
    borrower order: the same terms in the same order, so the same bits."""

    def _network(self, seed, n=200, density=0.1):
        rng = np.random.default_rng(seed)
        e0 = rng.uniform(50.0, 150.0, n)
        w = np.where(rng.random((n, n)) < density, rng.uniform(0.0, 0.9, (n, n)) * e0, 0.0)
        np.fill_diagonal(w, 0.0)
        return tuple(map(str, range(n))), w, e0

    def _trajectory(self, exposures, e0, fraction, beta=1.0, wiped=0):
        # The first ``wiped`` banks lose all their equity, the rest ``fraction``.
        targets = {b: 1.0 if i < wiped else fraction for i, b in enumerate(exposures.bank_ids)}
        shock = ShockSpec("equity_fraction", targets)
        run = propagate(apply_shock(init_state(exposures, e0), shock), beta=beta, record_trajectory=True)
        return run, np.array(run.trajectory)

    @pytest.mark.parametrize("fraction, beta, wiped", [(0.1, 1.0, 0), (0.3, 0.5, 0), (0.05, 1.0, 10)])
    def test_matches_the_dense_step_bit_for_bit(self, fraction, beta, wiped):
        ids, w, e0 = self._network(seed=wiped + int(100 * fraction))
        run, got = self._trajectory(ExposureMatrix(ids, w), e0, fraction, beta, wiped)
        _, want = self._trajectory(DenseExposures(ids, w), e0, fraction, beta, wiped)
        assert got.tobytes() == want.tobytes()
        assert run.periods > 2 and run.defaults_cascaded > 0

    def test_sparse_and_dense_input_give_the_same_trajectory(self):
        ids, w, e0 = self._network(seed=4, n=600, density=0.03)
        rows, cols = np.nonzero(w)
        hidden = sparse.coo_array((w[rows, cols], (rows, cols)), shape=w.shape)
        _, from_sparse = self._trajectory(ExposureMatrix(ids, hidden), e0, 0.2)
        _, from_dense = self._trajectory(ExposureMatrix(ids, w), e0, 0.2)
        np.testing.assert_array_equal(from_sparse, from_dense)


class TestProxy:
    @staticmethod
    def _run(e_post_shock, e_final):
        return ContagionRun(("A",), np.array([e_post_shock]), np.array([e_final]), 1, True)

    def test_formula(self):
        assert self._run(100.0, 75.0).proxy.tolist() == [-25.0]

    def test_no_change_is_zero(self):
        assert self._run(50.0, 50.0).proxy.tolist() == [0.0]

    def test_initially_defaulted_marker(self):
        run = self._run(0.0, 0.0)
        assert run.proxy.tolist() == [0.0]
        assert run.initially_defaulted.tolist() == [True]


class TestQuarterlyProxies:
    def _panel(self):
        # Aggregates force the unique network W = [[0, 50], [0, 0]].
        return QuarterlyPanel(
            "2009Q1",
            (
                make_record("A", ta=1000, tl=900, ia=50, il=0),
                make_record("B", ta=1000, tl=900, ia=0, il=50),
            ),
        )

    def test_composition_matches_worked_example(self):
        # Both equities halve to 50; B's fall of 50 costs A 50/100 * 50 = 25,
        # half of A's post-shock equity.
        sim = simulate_quarter(self._panel(), shock_fraction=0.5)
        assert dict(zip(sim.run.bank_ids, sim.run.proxy.tolist())) == {"A": -50.0, "B": 0.0}

    def test_beta_zero_all_zero(self):
        sim = simulate_quarter(self._panel(), beta=0.0, shock_fraction=0.2)
        assert dict(zip(sim.run.bank_ids, sim.run.proxy.tolist())) == {"A": 0.0, "B": 0.0}

    def test_single_bank_panel(self):
        panel = QuarterlyPanel("2009Q1", (make_record("A", ia=0, il=0),))
        sim = simulate_quarter(panel)
        assert dict(zip(sim.run.bank_ids, sim.run.proxy.tolist())) == {"A": 0.0}

    @pytest.mark.parametrize(
        "option, message",
        [
            ({"tolerance": np.nan}, "tolerance must be a nonnegative number, got nan"),
            ({"max_iter": 0}, "max_iter must be at least 1, got 0"),
            ({"shock_fraction": np.nan}, "shock_fraction must lie in [0, 1], got nan"),
            ({"shock_fraction": 1.5}, "shock_fraction must lie in [0, 1], got 1.5"),
        ],
    )
    def test_bad_option_is_named_even_for_a_lone_live_bank(self, option, message):
        # A lone live bank settles without RAS; its options are checked all the same.
        panel = QuarterlyPanel("2009Q1", (make_record("A", ia=0, il=0),))
        with pytest.raises(ValueError) as excinfo:
            simulate_quarter(panel, **option)
        assert str(excinfo.value) == message

    def test_nonpositive_equity_excluded_and_reclosed(self):
        panel = QuarterlyPanel(
            "2009Q1",
            (
                make_record("A", ta=1000, tl=900, ia=50, il=0),
                make_record("B", ta=1000, tl=900, ia=0, il=40),
                make_record("Z", ta=100, tl=150, ia=0, il=10),  # insolvent
            ),
        )
        sim = simulate_quarter(panel, shock_fraction=0.5)
        assert sim.excluded == (("Z", "non-positive starting equity (-50)"),)
        assert sim.run.bank_ids == ("A", "B")
        # After exclusion the remaining aggregates are re-closed: 50 vs 40.
        assert sim.closure_factor == pytest.approx(1.25)
        assert sim.run.proxy.tolist() == [-50.0, 0.0]

    def test_scenario_is_not_positional(self):
        with pytest.raises(TypeError):
            simulate_quarter(self._panel(), ShockSpec("equity_fraction", {"B": 0.5}))


class TestAllocations:
    """Peak traced allocation of each engine step at n=500, in units of one
    n x n float64 matrix. RAS, its marginal check and propagation over its
    rank-1 result form no matrix, nor does the marginal check of a sparse
    network; propagation over a dense matrix adds one borrower-major ratio
    matrix."""

    N = 500

    def _peak_matrices(self, fn):
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            result = fn()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return (peak - base) / (8 * self.N * self.N), result

    def _instance(self):
        rng = np.random.default_rng(5)
        exposures, _ = reconstruct(
            np.full(self.N, 10.0), np.full(self.N, 10.0), bank_ids=tuple(map(str, range(self.N)))
        )
        equity = rng.uniform(50.0, 100.0, self.N)
        shock = ShockSpec("equity_fraction", {"0": 1.0, "1": 0.5, "2": 0.2})
        return exposures, equity, shock

    def test_init_and_shock_copy_no_matrix(self):
        exposures, equity, shock = self._instance()
        peak, _ = self._peak_matrices(lambda: apply_shock(init_state(exposures, equity), shock))
        assert peak < 0.25

    def test_propagate_holds_one_ratio_matrix(self):
        exposures, equity, shock = self._instance()
        dense = ExposureMatrix(exposures.bank_ids, exposures.w)
        for network, bound in ((exposures, 0.25), (dense, 1.5)):
            state = apply_shock(init_state(network, equity), shock)
            peak, run = self._peak_matrices(lambda: propagate(state))
            assert run.converged and run.periods > 1
            assert peak < bound

    def test_reconstruct_rescales_in_place(self):
        rng = np.random.default_rng(6)
        ia = rng.uniform(1.0, 10.0, self.N)
        il = rng.permutation(ia)
        peak, (exposures, report) = self._peak_matrices(lambda: reconstruct(ia, il))
        assert report.converged and report.iterations > 1
        assert peak < 0.25
        peak, (row, col) = self._peak_matrices(lambda: marginal_errors(exposures, ia, il))
        assert max(row.max(), col.max()) <= 1e-8
        assert peak < 0.25

    def test_marginals_of_a_sparse_network_form_no_matrix(self):
        rng = np.random.default_rng(7)
        lenders = np.repeat(np.arange(self.N), 20)
        borrowers = (lenders + rng.integers(1, self.N, lenders.size)) % self.N  # no self-loan
        loans = rng.uniform(1.0, 10.0, lenders.size)
        w = sparse.coo_array((loans, (lenders, borrowers)), shape=(self.N, self.N))
        exposures = ExposureMatrix(tuple(map(str, range(self.N))), w)
        ia = np.bincount(lenders, weights=loans, minlength=self.N)
        il = np.bincount(borrowers, weights=loans, minlength=self.N)
        peak, (row, col) = self._peak_matrices(lambda: marginal_errors(exposures, ia, il))
        assert max(row.max(), col.max()) <= 1e-12
        assert peak < 0.25


def _factored_bound(exposures, e0, beta, run):
    """Per-bank bound on how far the equity of a run over the rank-1
    ``exposures`` may sit from the same run over its dense form.

    In one period lender i takes ``L_i = sum_j W_ij / e0_j * beta * delta_j``
    over the live borrowers, all terms of one sign.

    - The dense path adds at most n products one by one into ``e_i``, so it
      is off by at most about (n + 2) eps (e_i + |L_i|).
    - The factored path sums ``r = y / e0 * beta * delta`` pairwise
      (ceil(log2 n) eps |S|). It then forms ``x_i (S - r_i)`` and adds it to
      ``e_i``, which costs about 4 more roundings. ``S - r_i`` magnifies the
      sum's error by ``kappa = |S| / |S - r_i|``, the condition of the
      subtraction, taken at its worst over periods and lenders.

    Equity stays below ``e0_i`` and ``|delta_j|`` below ``e0_j``, so
    ``|L_i| <= beta * IA_i`` (the lender's interbank assets). Errors carried
    into a period are treated as passing through unmagnified, as in
    ``test_reconstruction._oracle_rtol``, so they add up over the periods:

        periods * (n + ceil(log2 n) + 6) * eps * kappa * (e0 + beta * IA).

    ``kappa`` is read off the factored run's own trajectory.
    """
    x, y = exposures.factors
    y_per_equity = y / e0
    steps = (e0, *run.trajectory)
    kappa = 1.0
    for e_prev, e_curr in zip(steps, steps[1:-1]):
        delta = e_curr - e_prev
        r = np.where((delta != 0.0) & (e_curr != 0.0), y_per_equity * beta * delta, 0.0)
        s = r.sum()
        lenders = (x > 0) & (s - r != 0.0)
        kappa = max(kappa, float(np.max(np.abs(s) / np.abs(s - r[lenders]), initial=1.0)))
    n = exposures.n
    depth = n + np.ceil(np.log2(n)) + 6
    ia = exposures.marginals()[0]
    return run.periods * depth * np.finfo(float).eps * kappa * (e0 + beta * ia)


def _assert_runs_agree(run, other, tol, alpha=1e-6):
    """``other`` matches ``run`` up to the per-bank equity bound ``tol``:
    the same periods, convergence and flags, and trajectories and proxies
    within the bound.

    Flags and periods are discontinuous in equity: the zero floor decides
    insolvency and the stopping rule compares relative changes with alpha.
    So first assert that no equity in either run lies within the bound of
    zero, and that every stopping decision stands even if each equity moves
    by the bound."""
    for traj in (run.trajectory, other.trajectory):
        near_zero = np.argwhere((np.array(traj) > 0) & (np.array(traj) <= tol))
        assert near_zero.size == 0, f"(period, bank) within the bound of zero: {near_zero[:5]}"
    for t in range(1, run.periods + 1):
        e_curr, e_next = run.trajectory[t - 1], run.trajectory[t]
        denom = np.maximum(e_curr, _EPS)
        rel = np.abs(e_next - e_curr) / denom
        # A bank at zero stays at zero in both runs (none is near it).
        slack = np.where(e_curr == 0.0, 0.0, 3.0 * tol / denom)
        if t == run.periods and run.converged:
            assert (rel + slack).max() < alpha, f"stop at period {t} is within the bound"
        else:
            assert (rel - slack).max() >= alpha, f"period {t}'s go-on is within the bound"

    assert (other.periods, other.converged) == (run.periods, run.converged)
    np.testing.assert_array_equal(other.initially_defaulted, run.initially_defaulted)
    np.testing.assert_array_equal(other.cascade_defaulted, run.cascade_defaulted)
    for got, want in zip(other.trajectory, run.trajectory):
        assert (np.abs(got - want) <= tol).all()
    live = ~run.initially_defaulted
    proxy_tol = 100.0 * tol[live] / run.e_post_shock[live] + 200.0 * np.finfo(float).eps
    assert (np.abs(other.proxy - run.proxy)[live] <= proxy_tol).all()
    assert (other.proxy[~live] == 0.0).all() and (run.proxy[~live] == 0.0).all()


class TestFactoredPath:
    """Propagation over a reconstructed (rank-1) network against the same
    network held dense, whose loop adds the same terms in the same order as
    the nonzeros form (``TestNonzerosForm``), which matches the literal
    reference (``TestOracleEquivalence``)."""

    def _run(self, exposures, equity, fraction, beta=1.0):
        shock = ShockSpec.uniform(exposures.bank_ids, fraction)
        state = apply_shock(init_state(exposures, equity), shock)
        return propagate(state, beta=beta, record_trajectory=True)

    @pytest.mark.parametrize("n_banks", [300, 2000])
    def test_generated_panels_match_the_dense_path(self, n_banks):
        result = generate(SyntheticSpec(n_banks=n_banks, quarters=2, rng_seed=n_banks))
        cascades = 0
        for panel in result.panels:
            sub, _ = live_subsystem(panel)
            exposures, _ = live_network(sub)
            assert exposures.factors is not None
            dense = DenseExposures(exposures.bank_ids, exposures.w)
            equity = sub.equity()
            for fraction, beta in ((0.1, 1.0), (0.5, 1.0), (0.5, 0.5)):
                run = self._run(exposures, equity, fraction, beta)
                tol = _factored_bound(exposures, equity, beta, run)
                _assert_runs_agree(run, self._run(dense, equity, fraction, beta), tol)
                cascades += run.defaults_cascaded
        assert cascades > 0  # the flags compared include cascade defaults

    def test_dumped_matrix_propagates_like_the_factors(self, tmp_path):
        result = generate(SyntheticSpec(n_banks=300, quarters=1, rng_seed=11))
        sub, _ = live_subsystem(result.panels[0])
        exposures, _ = live_network(sub)
        write_matrix(tmp_path / "w.bin", exposures)
        back = read_matrix(tmp_path / "w.bin")
        assert back.csc is None and back.bank_ids == exposures.bank_ids
        for got, want in zip(back.factors, exposures.factors):
            assert got.tobytes() == want.tobytes()
        equity = sub.equity()
        run, again = (self._run(network, equity, 0.5) for network in (exposures, back))
        assert run.defaults_cascaded > 0
        for got, want in zip(again.trajectory, run.trajectory):
            assert got.tobytes() == want.tobytes()
        assert again.proxy.tobytes() == run.proxy.tobytes()


class TestMetamorphic:
    """Relabelling the banks permutes the proxies, and a change of currency
    unit leaves them unchanged, up to the factored path's bound."""

    FIELDS = ("e_post_shock", "e_final")

    def _runs(self, panel, other, matching, unit=1.0):
        """The runs of ``panel`` and of ``other``, the second put in the first's
        bank order (``matching`` maps a bank id to its id in ``other``) and
        its equity in the first's currency unit, with the first's bound."""
        sim, twin = (
            simulate_quarter(p, shock_fraction=0.3, record_trajectory=True) for p in (panel, other)
        )
        order = [twin.run.bank_ids.index(matching[b]) for b in sim.run.bank_ids]
        back = {name: getattr(twin.run, name)[order] / unit for name in self.FIELDS}
        back["trajectory"] = tuple(e[order] / unit for e in twin.run.trajectory)
        equity = live_subsystem(panel)[0].equity()
        tol = _factored_bound(sim.exposures, equity, 1.0, sim.run)
        return sim.run, dataclasses.replace(twin.run, **back), tol

    def _panel(self):
        return generate(SyntheticSpec(n_banks=400, quarters=1, rng_seed=5)).panels[0]

    def test_relabelled_banks_permute_the_proxies(self):
        panel = self._panel()
        # Reversed labels reverse the sorted order, so every bank moves.
        labels = {b: f"R{len(panel) - k:05d}" for k, b in enumerate(panel.bank_ids)}
        relabelled = QuarterlyPanel(
            panel.quarter,
            tuple(dataclasses.replace(r, bank_id=labels[r.bank_id]) for r in panel.records),
        )
        _assert_runs_agree(*self._runs(panel, relabelled, labels))

    @pytest.mark.parametrize("unit", [1000.0, 1e-3])
    def test_currency_unit_leaves_proxies_unchanged(self, unit):
        panel = self._panel()
        money = ("total_assets", "total_liabilities", "interbank_assets", "interbank_liabilities")
        rescaled = QuarterlyPanel(
            panel.quarter,
            tuple(
                dataclasses.replace(r, **{f: getattr(r, f) * unit for f in money})
                for r in panel.records
            ),
        )
        same = {b: b for b in panel.bank_ids}
        _assert_runs_agree(*self._runs(panel, rescaled, same, unit))


def _lognormal_panel(n, seed):
    """n banks with lognormal total assets, 10% equity and interbank
    positions of 1-20% of assets, the liabilities a permutation of the
    assets (no generator, so nothing n x n is drawn)."""
    rng = np.random.default_rng(seed)
    ta = rng.lognormal(7.0, 1.5, n)
    ia = ta * rng.uniform(0.01, 0.2, n)
    il = rng.permutation(ia)
    ratios = {c: np.full(n, getattr(make_record("A"), c)) for c in NUMERIC_COLUMNS[4:]}
    columns = dict(
        total_assets=ta, total_liabilities=0.9 * ta, interbank_assets=ia, interbank_liabilities=il
    )
    ids = [f"{i:06d}" for i in range(n)]
    return QuarterlyPanel("2009Q1", bank_ids=ids, columns={**columns, **ratios})


def test_simulate_quarter_at_100k_banks_is_linear():
    n = 100_000
    panel = _lognormal_panel(n, seed=0)
    walls = []
    for _ in range(3):  # the fastest of three, against a slow spell of the host
        started = time.perf_counter()
        sim = simulate_quarter(panel)
        walls.append(time.perf_counter() - started)
    assert sim.ras.converged and sim.run.converged and sim.run.periods > 1
    assert min(walls) < 1.0, walls
    # Nothing of size n^2 (80 GB here): the traced peak stays below 100
    # float64 vectors of length n, a thousandth of one n x n matrix.
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        simulate_quarter(panel)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak < 100 * 8 * n, peak


def test_a_100k_bank_dump_is_its_two_factors(tmp_path):
    n = 100_000
    panel = _lognormal_panel(n, seed=1)
    sim = simulate_quarter(panel)
    path = tmp_path / "w.bin"
    write_matrix(path, sim.exposures)
    assert path.stat().st_size == 16 + 16 * n
    back = read_matrix(path)
    assert back.csc is None and back.bank_ids == sim.run.bank_ids
    for got, want in zip(back.factors, sim.exposures.factors):
        assert got.tobytes() == want.tobytes()
    shock = ShockSpec.uniform(back.bank_ids, DEFAULT_SHOCK_FRACTION)
    run = propagate(apply_shock(init_state(back, live_subsystem(panel)[0].equity()), shock))
    assert run.periods == sim.run.periods > 1
    assert run.proxy.tobytes() == sim.run.proxy.tobytes()
