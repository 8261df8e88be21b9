"""Rank-profile-revealing PLUQ decomposition and the rank profile matrix.

The pivoting strategy picks the nonzero entry of the not yet eliminated
rows and columns with lexicographically minimal (row, column).  `_pluq`
factors A = L U in A's own row and column order, with the pivot rows and
columns listed beside the factors, and `pluq_rpm` alone builds P and Q:
the pivots first, then the other rows and columns in ascending order.
The elimination is row-recursive (Dumas, Pernet & Sultan, ISSAC'15): it
factors the top half of the rows, updates the bottom half with one
triangular solve and one `mat_mul`, and factors that Schur complement
unless it is zero.  Blocks of at most _ROW_BASE rows run the scalar loop:
it takes the first row with a nonzero, then that row's first nonzero,
and makes the rank-1 Schur update in place.  A brute-force rank-table
oracle double-checks the revealed profile in the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field

import numpy as np

from .field import (OpCounter, Permutation, PrimeField, mat_mul, residues,
                    trsm_upper_right)


_ROW_BASE = 32     # blocks of at most this many rows run the scalar loop


@dataclass
class RankProfileMatrix:
    """Pivot support of the rank profile matrix, 0-based, sorted by row."""

    m: int
    n: int
    pivots: list = dc_field(default_factory=list)

    def __post_init__(self):
        self.pivots = sorted((int(i), int(j)) for i, j in self.pivots)
        rows = [i for i, _ in self.pivots]
        cols = [j for _, j in self.pivots]
        if len(set(rows)) != len(rows) or len(set(cols)) != len(cols):
            raise ValueError("pivots must sit on distinct rows and columns")
        for i, j in self.pivots:
            if not (0 <= i < self.m and 0 <= j < self.n):
                raise ValueError(f"pivot {(i, j)} out of range")

    @property
    def rank(self) -> int:
        return len(self.pivots)

    def left_part(self) -> "RankProfileMatrix":
        """Pivots with i + j <= n (1-based), the left triangular region."""
        keep = [(i, j) for i, j in self.pivots if i + j <= self.n - 2]
        return RankProfileMatrix(self.m, self.n, keep)


@dataclass
class PluqDecomposition:
    P: Permutation
    L: np.ndarray  # m x r, unit diagonal in its first r rows
    U: np.ndarray  # r x n, nonzero diagonal
    Q: Permutation
    r: int
    field: PrimeField

    @property
    def m(self) -> int:
        return self.L.shape[0]

    @property
    def n(self) -> int:
        return self.U.shape[1]

    def reconstruct(self, counter: OpCounter | None = None) -> np.ndarray:
        X = mat_mul(self.L, self.U, self.field, counter)
        return self.Q.apply_cols(self.P.apply_rows(X))


def pluq_rpm(A: np.ndarray, field: PrimeField,
             counter: OpCounter | None = None) -> PluqDecomposition:
    """PLUQ decomposition whose P [I_r; 0] Q equals the rank profile matrix.

    P lists the pivot rows in pivot order, then the other rows in
    ascending order; Q does the same for the columns.  A is read, never
    written; an int64 A that is already reduced is used without a copy.
    """
    A = residues(A, field)
    prow, pcol, L, U = _pluq(A, field, counter)
    rp = _pivots_first(prow, A.shape[0])
    cp = _pivots_first(pcol, A.shape[1])
    inv_cp = np.empty_like(cp)
    inv_cp[cp] = np.arange(len(cp), dtype=np.int64)
    return PluqDecomposition(Permutation(rp), L[rp], U[:, cp],
                             Permutation(inv_cp), len(prow), field)


def _pivots_first(piv: np.ndarray, size: int) -> np.ndarray:
    """piv, then the other indices below size in ascending order."""
    rest = np.ones(size, dtype=bool)
    rest[piv] = False
    return np.concatenate([piv, rest.nonzero()[0]])


def _pluq(A: np.ndarray, field: PrimeField, counter: OpCounter | None) -> tuple:
    """(prow, pcol, L, U) with A = L U for a reduced A, in A's own order.

    Pivot k sits at (prow[k], pcol[k]).  Column k of L (m x r) is zero
    above row prow[k] and 1 on it; row k of U (r x n) is zero left of
    pcol[k] and on the columns of the pivots before it.  Splits the rows
    in halves.  The scalar loop of `_pluq_rows` takes its pivot rows in
    increasing order, and its update of a row reads only pivot rows above
    it.  So it finds the pivots of the top half A1 = L1 U1 first, exactly
    as on A1 alone, and then works on the bottom rows A2 as updated by
    them: the Schur complement G = A2 - E U1 with
    E = A2[:, pcol1] U1[:, pcol1]^-1, one triangular solve and one fused
    `mat_mul` that leaves G zero on pcol1.  G is factored alone unless it
    is zero.
    """
    m, n = A.shape
    if m <= _ROW_BASE:
        return _pluq_rows(A, field, counter)
    m1 = m // 2
    prow1, pcol1, L1, U1 = _pluq(A[:m1], field, counter)
    r1 = len(prow1)
    E = trsm_upper_right(A[m1:, pcol1], U1[:, pcol1], field, counter)
    G = mat_mul(E, U1, field, counter, C=A[m1:]) if r1 else A[m1:]
    if G.any():
        prow2, pcol2, L2, U2 = _pluq(G, field, counter)
    else:
        prow2 = pcol2 = np.zeros(0, dtype=np.int64)
        L2 = np.zeros((m - m1, 0), dtype=np.int64)
        U2 = np.zeros((0, n), dtype=np.int64)
    L = np.block([[L1, np.zeros((m1, len(prow2)), dtype=np.int64)], [E, L2]])
    return (np.concatenate([prow1, m1 + prow2]), np.concatenate([pcol1, pcol2]),
            L, np.vstack([U1, U2]))


def _pluq_rows(A: np.ndarray, field: PrimeField, counter: OpCounter | None) -> tuple:
    """The scalar loop behind `_pluq`, on a copy W of a reduced A.

    A pivot's rank-1 Schur update runs in place on the rows below it and
    the columns from its own on, and leaves its column zero below it.  A
    row that is zero on the columns not yet eliminated stays zero under
    every later update, because its multiplier is 0.  So the rows below
    the last pivot row are zero on the pivot columns, and the next pivot
    is the first nonzero of the first of them that has one: the
    lexicographically least nonzero of the rows and columns not yet
    eliminated, which keep their relative order since nothing is moved.
    L holds the multipliers by row of A, with 1 at the pivot, and U is
    the pivot rows of W.
    """
    p = field.p
    W = np.array(A, dtype=np.int64)
    m, n = W.shape
    L = np.zeros((m, min(m, n)), dtype=np.int64)
    prow, pcol = [], []
    i = 0                            # rows above i are pivot rows or zero
    while i < m:
        live = W[i:].any(axis=1)
        d = int(live.argmax())       # first nonzero row, then its first
        if not live[d]:              # nonzero column: the lexicographic min
            break
        i += d
        j = int(W[i].astype(bool).argmax())
        k = len(prow)
        prow.append(i)
        pcol.append(j)
        L[i, k] = 1
        if counter is not None:
            counter.invs += 1
            counter.muls += (m - k - 1) + (m - k - 1) * (n - k - 1)
            counter.adds += (m - k - 1) * (n - k - 1)
        inv = field.inv(int(W[i, j]))
        if i + 1 < m:
            L[i + 1:, k] = (W[i + 1:, j] * inv) % p
            T = W[i + 1:, j:]                # Schur update in place
            T -= np.outer(L[i + 1:, k], W[i, j:])
            T %= p
        i += 1
    r = len(prow)
    return (np.array(prow, dtype=np.int64), np.array(pcol, dtype=np.int64),
            L[:, :r], W[prow])


def rpm_from_pluq(d: PluqDecomposition) -> RankProfileMatrix:
    """Pivot set {(P(k), Q(k)) : k < r} of the decomposition."""
    rows = d.P.img[:d.r]
    cols = d.Q.inverse().img[:d.r]
    return RankProfileMatrix(d.m, d.n, list(zip(rows.tolist(), cols.tolist())))


def _rank_column_profile(A: np.ndarray, field: PrimeField) -> np.ndarray:
    """ranks[i] = rank(A[:i+1, :]) via row-by-row insertion into a basis."""
    p = field.p
    m = A.shape[0]
    basis = []  # (pivot col, row reduced against all earlier basis rows)
    ranks = np.zeros(m, dtype=np.int64)
    r = 0
    for i in range(m):
        v = A[i].copy() % p
        for c, row in basis:
            if v[c]:
                v = (v - v[c] * row) % p
        nz = np.nonzero(v)[0]
        if nz.size:
            c = int(nz[0])
            v = (v * field.inv(int(v[c]))) % p
            basis.append((c, v))
            r += 1
        ranks[i] = r
    return ranks


def rpm_bruteforce(A: np.ndarray, field: PrimeField) -> RankProfileMatrix:
    """Definition-level oracle: pivot at (i, j) iff the leading-rank table
    has a unit jump there, r[i][j] - r[i-1][j] - r[i][j-1] + r[i-1][j-1] = 1."""
    A = np.asarray(A, dtype=np.int64) % field.p
    m, n = A.shape
    table = np.zeros((m + 1, n + 1), dtype=np.int64)
    for j in range(1, n + 1):
        table[1:, j] = _rank_column_profile(A[:, :j], field)
    diff = table[1:, 1:] - table[:-1, 1:] - table[1:, :-1] + table[:-1, :-1]
    pivots = [(int(i), int(j)) for i, j in zip(*np.nonzero(diff == 1))]
    return RankProfileMatrix(m, n, pivots)


def check_pluq_structure(d: PluqDecomposition) -> bool:
    """P [L | 0] P^T lower triangular and Q^T [U ; 0] Q upper triangular."""
    m, n = d.m, d.n
    Lx = np.zeros((m, m), dtype=np.int64)
    Lx[:, :d.r] = d.L
    PLPt = d.P.apply_cols_inv(d.P.apply_rows(Lx))
    if np.triu(PLPt, 1).any():
        return False
    Ux = np.zeros((n, n), dtype=np.int64)
    Ux[:d.r, :] = d.U
    QtUQ = d.Q.apply_cols(d.Q.apply_rows_inv(Ux))
    return not np.tril(QtUQ, -1).any()
