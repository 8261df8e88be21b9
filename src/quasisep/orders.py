"""Quasiseparable order computation.

`lt_rpm` is the divide-and-conquer elimination returning the left
triangular part of the rank profile matrix; `qs_order` turns its pivot
list into the order with a single linear sweep.  Both have brute-force
rank oracles next to them for testing.  `generators.lt_bruhat` runs the
same elimination and keeps each pivot's segments of the L and U factors.

The elimination needs a power-of-two size N >= n.  A is embedded
right-aligned in the first n rows, W[:n, N-n:] = A, zeros elsewhere.  The
left part of a rank profile matrix reads only the entries with
i + j <= n - 2 (0-based), N - n leading zero columns shift the profile by
N - n columns and trailing zero rows add no pivot, so the left region
i + j <= N - 2 of W is exactly that of A, moved N - n columns right.
Every pivot found is one of A's and its segments already have A's
lengths: nothing is cropped, and only the column offset is taken back.

The recursion stops at blocks of at most _BASE = 32: each is finished by
one `pluq_rpm` of its left part, and the fill pivots that PLUQ finds
outside the block's left region are dropped (see `_left_elimination`).
"""

from __future__ import annotations

from typing import Iterable, NamedTuple

import numpy as np

from .field import (OpCounter, PrimeField, left_part, mat_mul, next_pow2,
                    rank, reverse_cols, reverse_rows, strict_lower,
                    strict_upper, trsm_unit_lower, trsm_upper_right)
from .pluq import RankProfileMatrix, pluq_rpm


_BASE = 32     # 16..128 perform alike at n = 1000..2048


class QsOrders(NamedTuple):
    r_l: int
    r_u: int


def qs_order(pivots: Iterable[tuple], n: int) -> int:
    """Largest rank of a leading k x (n-k) block, from left-region pivots.

    One pass over the pivot list to set row/column flags, one O(n) sweep:
    entering row i adds its pivot, leaving column n-1-i (0-based) removes it.
    """
    rows = bytearray(n)
    cols = bytearray(n)
    for i, j in pivots:
        rows[i] = 1
        cols[j] = 1
    best = 0
    cur = 0
    for i in range(n):
        cur += rows[i]
        cur -= cols[n - 1 - i]
        if cur > best:
            best = cur
    return best


def _left_elimination(A: np.ndarray, field: PrimeField,
                      counter: OpCounter | None) -> list:
    """(i, j, lower, upper) for each pivot of the left triangular part of
    the RPM of a square A, sorted by row.

    For the pivot at (i, j) the lower segment is column j of the L factor
    on rows i .. n-j-2 and the upper segment row i of the U factor on
    columns j .. n-i-2.  Each node eliminates its top-left quadrant by a
    profile-revealing PLUQ while the top-right and bottom-left quadrants
    recurse on Schur-complement updates that preserve the profile.  A
    node's left region is the part of the global one it covers, so a
    pivot's segments are complete where it is found: down column j, P L
    then the bottom-left factor E; along row i, U Q then the top-right
    factor D, each cut at the anti-diagonal.

    A node of size b <= _BASE is finished by one PLUQ of its left part.
    That PLUQ also eliminates fill pivots of the right region
    (i + j > b - 2), which are dropped.  A right-region pivot only updates
    entries right of its column in later rows, all in the right region,
    so the left pivots and the left-region entries of their factors are
    untouched by it: the pivots are those of the recursion and each
    segment is cut straight from the factors, P L on rows i .. b-j-2 and
    U Q on columns j .. b-i-2.
    """
    p = field.p
    found = []

    def rec(A: np.ndarray, row0: int, col0: int) -> None:
        n = A.shape[0]
        if n <= _BASE:
            d = pluq_rpm(left_part(A), field, counter)
            PL = d.P.apply_rows(d.L)
            UQ = d.Q.apply_cols(d.U)
            for k, (i, j) in enumerate(zip(d.P.img[:d.r].tolist(),
                                           d.Q.inverse().img[:d.r].tolist())):
                if i + j <= n - 2:
                    found.append((row0 + i, col0 + j, PL[i:n - 1 - j, k].copy(),
                                  UQ[k, j:n - 1 - i].copy()))
            return
        h = n // 2
        d = pluq_rpm(A[:h, :h], field, counter)
        r1 = d.r
        rp = d.P.img
        cp = d.Q.inverse().img

        B = A[:h, h:][rp]            # P1^T A2
        C = A[h:, :h][:, cp]         # A3 Q1^T
        L1 = d.L[:r1, :r1]
        M1 = d.L[r1:, :r1]
        U1 = d.U[:r1, :r1]
        V1 = d.U[:r1, r1:]
        D = trsm_unit_lower(L1, B[:r1], field, counter)
        E = trsm_upper_right(C[:, :r1], U1, field, counter)
        F = (B[r1:] - mat_mul(M1, D, field, counter)) % p
        G = (C[:, r1:] - mat_mul(E, V1, field, counter)) % p
        if counter is not None:
            counter.adds += F.size + G.size

        if r1:                       # most nodes find no pivot
            PL = d.P.apply_rows(d.L)
            UQ = d.Q.apply_cols(d.U)
        for k, (i, j) in enumerate(zip(rp[:r1].tolist(), cp[:r1].tolist())):
            found.append((row0 + i, col0 + j,
                          np.concatenate([PL[i:, k], E[:h - 1 - j, k]]),
                          np.concatenate([UQ[k, j:], D[k, :h - 1 - i]])))

        H = np.zeros((h, h), dtype=np.int64)    # P1 [0; F], by a row scatter
        H[rp[r1:]] = F
        I = np.zeros((h, h), dtype=np.int64)    # [0 | G] Q1, by a column gather:
        I[:, r1:] = G                           # numpy scatters columns slower
        I = d.Q.apply_cols(I)
        del B, C, D, E, F, G                    # not held across the recursion
        rec(H, row0, col0 + h)
        rec(I, row0 + h, col0)

    n = A.shape[0]
    N = next_pow2(max(n, 1))
    W = np.zeros((N, N), dtype=np.int64)
    np.remainder(np.asarray(A, dtype=np.int64), p, out=W[:n, N - n:])
    rec(W, 0, n - N)
    found.sort(key=lambda piv: piv[0])
    return found


def lt_rpm(A: np.ndarray, field: PrimeField,
           counter: OpCounter | None = None) -> RankProfileMatrix:
    """Left triangular part of the rank profile matrix of a square A.

    Runs the elimination on A embedded right-aligned in a power-of-two
    size (see the module docstring): its pivots, column offset taken
    back, are exactly the pivots of A with i + j <= n - 2 (0-based).
    """
    n = A.shape[0]
    if A.shape != (n, n):
        raise ValueError("lt_rpm expects a square matrix")
    return RankProfileMatrix(n, n, [(i, j) for i, j, _, _ in
                                    _left_elimination(A, field, counter)])


def quasiseparable_orders(M: np.ndarray, field: PrimeField,
                          counter: OpCounter | None = None) -> QsOrders:
    """(r_L, r_U) of a square matrix via the two left triangular profiles."""
    n = M.shape[0]
    if M.shape != (n, n):
        raise ValueError("quasiseparable_orders expects a square matrix")
    # J_n @ lower part and upper part @ J_n, both left triangular, each
    # formed only for its own call
    r_l = qs_order(lt_rpm(reverse_rows(strict_lower(M)), field, counter).pivots, n)
    r_u = qs_order(lt_rpm(reverse_cols(strict_upper(M)), field, counter).pivots, n)
    return QsOrders(r_l, r_u)


def qs_order_bruteforce(A: np.ndarray, field: PrimeField) -> int:
    """max rank(A[:k, :n-k]) for k = 1..n-1, straight from the rank oracle."""
    n = A.shape[0]
    best = 0
    for k in range(1, n):
        best = max(best, rank(A[:k, :n - k], field))
    return best


def qs_orders_bruteforce(M: np.ndarray, field: PrimeField) -> QsOrders:
    """Rank sweep over the strictly lower/upper blocks of a full matrix."""
    n = M.shape[0]
    r_l = qs_order_bruteforce(reverse_rows(strict_lower(M)), field)
    r_u = qs_order_bruteforce(reverse_cols(strict_upper(M)), field)
    return QsOrders(r_l, r_u)
