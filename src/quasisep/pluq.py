"""Rank-profile-revealing PLUQ decomposition and the rank profile matrix.

The pivoting strategy picks the nonzero entry of the trailing submatrix
with lexicographically minimal (row, column) and moves it into place with
cyclic row/column rotations, which preserves the relative order of the
remaining rows and columns.  `pluq_rpm` reaches the same result by a
row-recursive elimination (Dumas, Pernet & Sultan, ISSAC'15): it factors
the top half of the rows, updates the bottom half with one triangular
solve and one `mat_mul`, and factors that Schur complement unless it is
zero.  The updates are matrix products, and a bottom half left with no
pivot costs one pass.  Blocks of at most _ROW_BASE rows run the scalar
loop: it reads the first row with a nonzero (one `any` per row), then
that row's first nonzero, and makes the rank-1 Schur update in place.  A
brute-force rank-table oracle double-checks the revealed profile in the
test suite.
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

    A is read, never written; an int64 A that is already reduced is used
    without a copy.
    """
    rp, cp, L, U = _pluq(residues(A, field), field, counter)
    inv_cp = np.empty_like(cp)
    inv_cp[cp] = np.arange(len(cp), dtype=np.int64)
    return PluqDecomposition(Permutation(rp), L, U, Permutation(inv_cp),
                             U.shape[0], field)


def _pluq(A: np.ndarray, field: PrimeField, counter: OpCounter | None) -> tuple:
    """(rp, cp, L, U) with A[rp][:, cp] = L U for a reduced A.

    Splits the rows in halves.  The scalar search takes the first nonzero
    row of the trailing block, so it meets every pivot of the top half, in
    the same order, before any pivot of the bottom half, and its rotations
    keep the other rows and columns in order.  So the top half is factored
    alone, the bottom rows in its column order C = [C1 C2] give
    E = C1 U11^-1 and the Schur complement G = C2 - E V1 (one fused
    `mat_mul`), and G is factored alone.  Rows end up as [top pivots,
    bottom pivots, top non-pivots, bottom non-pivots], and with P and Q
    fixed L and U are unique: the result equals the scalar loop's.
    """
    m, n = A.shape
    if m <= _ROW_BASE:
        return _pluq_rows(A, field, counter)
    m1 = m // 2
    m2 = m - m1
    rp1, cp1, L1, U1 = _pluq(A[:m1], field, counter)
    r1 = U1.shape[0]
    if r1:
        E = trsm_upper_right(A[m1:, cp1[:r1]], U1[:, :r1], field, counter)
        G = mat_mul(E, U1[:, r1:], field, counter, C=A[m1:, cp1[r1:]])
    else:                            # no pivot on top: cp1 is the identity
        E = np.zeros((m2, 0), dtype=np.int64)
        G = A[m1:]
    if G.any():
        rp2, cp2, L2, U2 = _pluq(G, field, counter)
    else:
        rp2 = np.arange(m2, dtype=np.int64)
        cp2 = np.arange(n - r1, dtype=np.int64)
        L2 = np.zeros((m2, 0), dtype=np.int64)
        U2 = np.zeros((0, n - r1), dtype=np.int64)
    r2 = U2.shape[0]
    r = r1 + r2
    E = E[rp2]
    L = np.zeros((m, r), dtype=np.int64)
    L[:r1, :r1] = L1[:r1]                     # top pivot rows
    L[r1:r, :r1] = E[:r2]                     # bottom pivot rows
    L[r1:r, r1:] = L2[:r2]
    L[r:r + m1 - r1, :r1] = L1[r1:]           # top non-pivot rows
    L[r + m1 - r1:, :r1] = E[r2:]             # bottom non-pivot rows
    L[r + m1 - r1:, r1:] = L2[r2:]
    U = np.zeros((r, n), dtype=np.int64)
    U[:r1, :r1] = U1[:, :r1]
    U[:r1, r1:] = U1[:, r1:][:, cp2]
    U[r1:, r1:] = U2
    rp = np.concatenate([rp1[:r1], m1 + rp2[:r2], rp1[r1:], m1 + rp2[r2:]])
    cp = np.concatenate([cp1[:r1], cp1[r1:][cp2]])
    return rp, cp, L, U


def _pluq_rows(A: np.ndarray, field: PrimeField, counter: OpCounter | None) -> tuple:
    """The scalar loop behind `_pluq`, on a copy of a reduced A."""
    p = field.p
    W = np.array(A, dtype=np.int64)
    m, n = W.shape
    rp = np.arange(m, dtype=np.int64)
    cp = np.arange(n, dtype=np.int64)
    k = 0
    while k < m and k < n:
        live = W[k:, k:].any(axis=1)
        i = int(live.argmax())       # first nonzero row, then its first
        if not live[i]:              # nonzero column: the lexicographic min
            break
        i += k
        j = k + int(W[i, k:].astype(bool).argmax())
        if i > k:
            W[k:i + 1] = np.roll(W[k:i + 1], 1, axis=0)
            rp[k:i + 1] = np.roll(rp[k:i + 1], 1)
        if j > k:
            W[:, k:j + 1] = np.roll(W[:, k:j + 1], 1, axis=1)
            cp[k:j + 1] = np.roll(cp[k:j + 1], 1)
        inv = field.inv(int(W[k, k]))
        if counter is not None:
            counter.invs += 1
            counter.muls += (m - k - 1) + (m - k - 1) * (n - k - 1)
            counter.adds += (m - k - 1) * (n - k - 1)
        if k + 1 < m:
            W[k + 1:, k] = (W[k + 1:, k] * inv) % p
            if k + 1 < n:
                T = W[k + 1:, k + 1:]    # Schur update in place
                T -= np.outer(W[k + 1:, k], W[k, k + 1:])
                T %= p
        k += 1
    r = k
    L = np.tril(W[:, :r], -1)
    if r:
        L[np.arange(r), np.arange(r)] = 1
    U = np.triu(W[:r, :])
    return rp, cp, L, U


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
