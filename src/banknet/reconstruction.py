"""Maximum-entropy reconstruction of bilateral exposures from aggregates.

Alternating row/column proportional rescaling (the RAS scheme): even steps
rescale every row to its interbank-asset marginal, odd steps rescale every
column to its liability marginal, starting from a uniform matrix with a hard
zero diagonal. The fixed point is the maximum-entropy matrix consistent with
the observed aggregates and no self-lending.

From that start every iterate is W = diag(x)(J - I)diag(y), whose row i sums
to x_i (sum(y) - y_i) and column j to y_j (sum(x) - x_j), so the loop only
updates the two scaling vectors. Each iterate is a rank-1 ``ExposureMatrix``
that costs O(n) to hold, to propagate losses through and to dump
(``write_matrix``, ``--dump-matrix``); the loop stops when its
``marginal_errors`` fall within the tolerance, and the last iterate is the
result. A matrix given in full keeps only its nonzeros, borrower-major.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np
from scipy import sparse

from .artifacts import create, read_csv, write_csv
from .errors import DimensionError, DomainError, InfeasibilityError, SchemaError, name_some

MAGIC = b"IBNW0002"
DEFAULT_TOLERANCE = 1e-8
DEFAULT_MAX_ITER = 10_000
_EPS = 1e-12


class ExposureMatrix:
    """Bilateral loan matrix of ``bank_ids``; ``w[i, j]`` is the loan from i to j.

    Nonzeros form, ``ExposureMatrix(bank_ids, w)``: a given n x n matrix,
    dense or scipy sparse (the generator's hidden network, a literal
    matrix), copied borrower-major as ``csc``, a ``scipy.sparse.csc_array``.
    Rank-1 form, ``ExposureMatrix(bank_ids, factors=(x, y))``: RAS's
    ``W = diag(x)(J - I)diag(y)``, held as its two scaling vectors. The form
    not held is None. ``w``, read-only and cached, is the rank-1 form as an
    n x n array, kept only for perfbench's dense reference and the tests.
    """

    def __init__(self, bank_ids, w=None, *, factors=None):
        if (w is None) == (factors is None):
            raise TypeError("give exactly one of w and factors")
        self.bank_ids = tuple(bank_ids)
        n = len(self.bank_ids)
        self.factors = self.csc = None
        if factors is not None:
            self.factors = tuple(np.array(v, dtype=float) for v in factors)
            for v in self.factors:
                if v.shape != (n,):
                    raise DimensionError(f"factor of shape {v.shape} for {n} bank_ids")
                v.setflags(write=False)
            return
        if not sparse.issparse(w):
            w = np.asarray(w, dtype=float)
        if w.ndim != 2 or w.shape[0] != w.shape[1]:
            raise DimensionError(f"exposure matrix must be square, got shape {w.shape}")
        if w.shape[0] != n:
            raise DimensionError(f"{n} bank_ids for a {w.shape[0]}x{w.shape[1]} matrix")
        self.csc = sparse.csc_array(w, dtype=float, copy=True)
        self.csc.sum_duplicates()  # and sorts each column's lenders

    @property
    def n(self) -> int:
        return len(self.bank_ids)

    @cached_property
    def w(self) -> np.ndarray:
        x, y = self.factors  # TypeError on the nonzeros form: read its csc
        w = np.multiply.outer(x, y)
        np.fill_diagonal(w, 0.0)
        w.setflags(write=False)
        return w

    def marginals(self) -> tuple[np.ndarray, np.ndarray]:
        """Row sums (each lender's interbank assets) and column sums (each
        borrower's interbank liabilities), in O(edges) or O(n)."""
        if self.factors is None:
            return self.csc.sum(axis=1), self.csc.sum(axis=0)
        x, y = self.factors
        return x * (y.sum() - y), y * (x.sum() - x)

    def loss_step(self, e0):
        """The contagion update over this network for baseline equity ``e0``:
        ``step(e, borrowers, impulse)`` returns new equity, unfloored, after
        every lender i takes ``sum_j W_ij / e0_j * impulse_j`` over the
        ascending indices ``borrowers`` (``impulse`` holds their beta-scaled
        equity changes).

        Rank-1 form, O(n) per call: with ``r_j = y_j / e0_j * impulse_j`` on
        the borrowers (zero elsewhere) and ``S = sum(r)``, lender i takes
        ``x_i (S - r_i)``. Nonzeros form, O(edges) per call: the ratios
        ``W_ij / e0_j`` are formed once, borrower-major, and each call adds
        every live borrower's terms into its lenders' equity one by one
        (``np.add.at``) in ascending borrower order, a few columns at a time.
        That is the order of a literal per-term evaluation, matched bit for
        bit; a BLAS matvec sums in another order and misses the literal
        reference's 1e-12 agreement (by 1.02e-12 in its tests).
        """
        e0 = np.asarray(e0, dtype=float)
        if self.factors is not None:
            x, y = self.factors
            y_per_equity = y / e0

            def rank_one_step(e, borrowers, impulse):
                r = np.zeros_like(e)
                r[borrowers] = y_per_equity[borrowers] * impulse
                return e + x * (r.sum() - r)

            return rank_one_step

        n, indptr, lenders = self.n, self.csc.indptr, self.csc.indices
        counts = np.diff(indptr)
        phi = np.repeat(e0, counts)
        np.divide(self.csc.data, phi, out=phi)
        # Column ranges of about 4n edges bound each call's temporaries.
        firsts = np.searchsorted(indptr, np.arange(0, phi.size, 4 * n), side="right") - 1
        cuts = np.unique(np.append(firsts, n))

        def sparse_step(e, borrowers, impulse):
            e = e.copy()
            live = np.zeros(n, dtype=bool)
            live[borrowers] = True
            s = np.zeros(n)
            s[borrowers] = impulse
            for c0, c1 in zip(cuts, cuts[1:]):
                edges = slice(indptr[c0], indptr[c1])
                to, terms = lenders[edges], phi[edges] * np.repeat(s[c0:c1], counts[c0:c1])
                if not live[c0:c1].all():
                    on = np.repeat(live[c0:c1], counts[c0:c1])
                    to, terms = to[on], terms[on]
                np.add.at(e, to, terms)
            return e

        return sparse_step


@dataclass(frozen=True)
class RasReport:
    iterations: int
    max_marginal_error: float
    converged: bool


def marginal_errors(exposures: ExposureMatrix, ia, il):
    """Relative row/column marginal errors of a matrix against targets."""
    ia = np.asarray(ia, dtype=float)
    il = np.asarray(il, dtype=float)
    if ia.shape != (exposures.n,) or il.shape != (exposures.n,):
        raise DimensionError(
            f"marginals of length {ia.size}/{il.size} for n={exposures.n}"
        )
    rows, cols = exposures.marginals()
    row = np.abs(rows - ia) / np.maximum(ia, _EPS)
    col = np.abs(cols - il) / np.maximum(il, _EPS)
    return row, col


def _scaling(target: np.ndarray, capacity: np.ndarray) -> np.ndarray:
    """One RAS step on a scaling vector; 0/0 (no capacity) stays zero."""
    return np.divide(target, capacity, out=np.zeros_like(target), where=capacity > 0)


def check_ras(tolerance: float, max_iter: int) -> None:
    """RAS's budget: a nonnegative tolerance (NaN never stops it) and at least one iteration."""
    if not tolerance >= 0.0:
        raise ValueError(f"tolerance must be a nonnegative number, got {tolerance}")
    if not max_iter >= 1:
        raise ValueError(f"max_iter must be at least 1, got {max_iter}")


def reconstruct(
    ia,
    il,
    tolerance: float = DEFAULT_TOLERANCE,
    max_iter: int = DEFAULT_MAX_ITER,
    bank_ids: tuple[str, ...] | None = None,
) -> tuple[ExposureMatrix, RasReport]:
    """Reconstruct the bilateral matrix from aggregate assets and liabilities.

    Aggregates must already balance (run close_system first). Non-convergence
    within max_iter is reported, not raised.
    """
    ia = np.asarray(ia, dtype=float)
    il = np.asarray(il, dtype=float)
    if ia.ndim != 1 or il.shape != ia.shape:
        raise DimensionError(f"marginal shapes differ: {ia.shape} vs {il.shape}")
    n = ia.size
    if n < 2:
        raise DimensionError("need at least 2 banks to reconstruct a network")
    if bank_ids is None:
        bank_ids = tuple(str(i) for i in range(n))
    check_ras(tolerance, max_iter)
    bad = np.flatnonzero(~(np.isfinite(ia) & np.isfinite(il)))
    if bad.size:
        names = name_some(bank_ids[i] for i in bad)
        raise DomainError(f"non-finite interbank marginal for bank(s): {names}")
    if (ia < 0).any() or (il < 0).any():
        raise ValueError("marginals must be nonnegative")
    total = float(ia.sum())
    if abs(total - float(il.sum())) > 1e-9 * max(total, _EPS):
        raise InfeasibilityError(
            f"aggregates are not balanced (assets {total:g} vs liabilities "
            f"{float(il.sum()):g}); run close_system first"
        )

    # A lender needs at least one counterparty with borrowing capacity and
    # vice versa, otherwise the zero diagonal makes the marginals unservable.
    lonely_lender = (ia > 0) & (float(il.sum()) - il <= 0)
    lonely_borrower = (il > 0) & (total - ia <= 0)
    first = int(np.argmax(lonely_lender | lonely_borrower))
    if lonely_lender[first]:
        raise InfeasibilityError(
            f"bank {bank_ids[first]} has interbank assets {ia[first]:g} but no other "
            "bank reports interbank liabilities"
        )
    if lonely_borrower[first]:
        raise InfeasibilityError(
            f"bank {bank_ids[first]} has interbank liabilities {il[first]:g} but no "
            "other bank reports interbank assets"
        )
    # Complete zero-diagonal feasibility (Gale-Hoffman with a forbidden
    # diagonal): every bank's combined assets and liabilities must fit into
    # the rest of the system.
    overs = np.flatnonzero(ia + il > total * (1.0 + 1e-12))
    if overs.size:
        i = int(overs[0])
        raise InfeasibilityError(
            f"bank {bank_ids[i]} has interbank assets + liabilities "
            f"{ia[i] + il[i]:g} exceeding the system total {total:g}; "
            "no zero-diagonal matrix can satisfy the marginals"
        )

    y = np.ones(n)
    for iterations in range(1, max_iter + 1):  # check_ras: at least once
        x = _scaling(ia, y.sum() - y)  # even step: rows match assets
        y = _scaling(il, x.sum() - x)  # odd step: columns match liabilities
        exposures = ExposureMatrix(bank_ids, factors=(x, y))
        err = float(max(e.max() for e in marginal_errors(exposures, ia, il)))
        if err <= tolerance:
            break
    report = RasReport(iterations=iterations, max_marginal_error=err, converged=err <= tolerance)
    return exposures, report


def write_matrix(path, exposures: ExposureMatrix) -> None:
    """Binary dump of a rank-1 network, 16 + 16n bytes: 8-byte magic, n as
    little-endian uint64, then x and y as little-endian float64.

    A sidecar CSV `<path>.ids.csv` records bank_ids in order.
    """
    if exposures.factors is None:
        raise TypeError("write_matrix dumps a rank-1 network; this one is in nonzeros form")
    with create(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<Q", exposures.n))
        fh.write(np.asarray(exposures.factors, dtype="<f8").tobytes())
    write_csv(f"{path}.ids.csv", ("bank_id",), [exposures.bank_ids])


def read_matrix(path) -> ExposureMatrix:
    """The rank-1 network of a ``write_matrix`` dump, whose size must match its n."""
    path = Path(path)
    with open(path, "rb") as fh:
        magic = fh.read(8)
        if magic != MAGIC:
            raise SchemaError(f"{path}: bad magic {magic!r}, expected {MAGIC!r}")
        header = fh.read(8)
        if len(header) != 8:
            raise SchemaError(f"{path}: truncated header, {8 + len(header)} of 16 bytes")
        (n,) = struct.unpack("<Q", header)
        expected = 16 + 16 * n
        actual = path.stat().st_size
        if actual != expected:
            raise SchemaError(
                f"{path}: header n={n} needs {expected} bytes, file has {actual}"
            )
        x, y = np.frombuffer(fh.read(), dtype="<f8").reshape(2, n)
    ids_path = Path(f"{path}.ids.csv")
    if ids_path.exists():
        bank_ids = read_csv(ids_path, ("bank_id",))["bank_id"]
    else:
        bank_ids = tuple(str(i) for i in range(n))
    return ExposureMatrix(bank_ids=bank_ids, factors=(x, y))
