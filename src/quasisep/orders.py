"""Quasiseparable order computation.

`lt_rpm` is the divide-and-conquer elimination returning the left
triangular part of the rank profile matrix; `qs_order` turns its pivot
list into the order with a single linear sweep.  Both have brute-force
rank oracles next to them for testing.  `generators.lt_bruhat` runs the
same elimination and keeps each pivot's segments of the L and U factors.

The elimination runs on A's own size.  A node is an a x b block whose
left region is i + j <= c (local, 0-based); the root is A with
c = n - 2.  The node eliminates its top-left h x h block,
h = floor((c + 2) / 2), the largest square that lies wholly inside the
region, and recurses on the h x (b - h) top-right and (a - h) x h
bottom-left blocks, each with region c - h.  At a power-of-two n every
block is square and h is half its size.  A node whose top-left block is
zero finds no pivot and needs no Schur update: its children are views of
its own blocks.  The elimination reads A and never writes it, so a
reduced int64 A is used without a copy.

The recursion stops at blocks of at most _BASE = 32 rows and columns:
each is finished by one `pluq_rpm` of its left region, and the fill
pivots that PLUQ finds outside the region are dropped (see
`_left_elimination`).
"""

from __future__ import annotations

from typing import Iterable, NamedTuple

import numpy as np

from .field import (OpCounter, PrimeField, mat_mul, rank, region_mask,
                    residues, reverse_cols, reverse_rows, strict_lower,
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
    on rows i .. n-j-2 and the upper segment row i of U on columns
    j .. n-i-2.  Each node (split as in the module docstring) eliminates
    its top-left block by a profile-revealing PLUQ while the top-right and
    bottom-left blocks recurse on Schur-complement updates that preserve
    the profile.  A node's region is the part of the global one it
    covers, so a pivot's segments are complete where it is found: down
    column j, P L then the bottom-left factor E; along row i, U Q then the
    top-right factor D, each cut at the anti-diagonal i + j = c.

    A node with a, b <= _BASE is finished by one PLUQ of its region.  That
    PLUQ also eliminates fill pivots outside the region (i + j > c), which
    are dropped.  Such a pivot only updates entries right of its column in
    later rows, all outside the region, so the region's pivots and the
    in-region entries of their factors are untouched by it: the pivots
    are those of the recursion and each segment is cut straight from the
    factors, P L on rows i .. c-j and U Q on columns j .. c-i.
    """
    found = []

    def rec(A: np.ndarray, c: int, row0: int, col0: int) -> None:
        a, b = A.shape
        if max(a, b) <= _BASE:
            d = pluq_rpm(np.where(region_mask(a, b, c), A, 0), field, counter)
            PL = d.P.apply_rows(d.L)
            UQ = d.Q.apply_cols(d.U)
            for k, (i, j) in enumerate(zip(d.P.img[:d.r].tolist(),
                                           d.Q.inverse().img[:d.r].tolist())):
                if i + j <= c:
                    found.append((row0 + i, col0 + j, PL[i:c + 1 - j, k].copy(),
                                  UQ[k, j:c + 1 - i].copy()))
            return
        h = (c + 2) // 2
        if not A[:h, :h].any():      # most nodes find no pivot: their
            rec(A[:h, h:], c - h, row0, col0 + h)   # children are views
            rec(A[h:, :h], c - h, row0 + h, col0)
            return
        d = pluq_rpm(A[:h, :h], field, counter)
        r1 = d.r
        rp = d.P.img[:r1]
        cp = d.Q.inverse().img[:r1]
        PL = d.P.apply_rows(d.L)
        UQ = d.Q.apply_cols(d.U)
        D = trsm_unit_lower(d.L[:r1], A[:h, h:][rp], field, counter)
        E = trsm_upper_right(A[h:, :h][:, cp], d.U[:, :r1], field, counter)
        for k, (i, j) in enumerate(zip(rp.tolist(), cp.tolist())):
            found.append((row0 + i, col0 + j,
                          np.concatenate([PL[i:, k], E[:c + 1 - h - j, k]]),
                          np.concatenate([UQ[k, j:], D[k, :c + 1 - h - i]])))
        if r1 == h:                  # every row of H and column of I is a
            return                   # pivot's: both are zero
        # the Schur complements A2 - P L D and A3 - E U Q, in A's own order
        # (the pivot rows of H and the pivot columns of I come out zero),
        # each formed only for its own child
        H = mat_mul(PL, D, field, counter, C=A[:h, h:])
        del D, PL
        rec(H, c - h, row0, col0 + h)
        del H
        I = mat_mul(E, UQ, field, counter, C=A[h:, :h])
        del E, UQ
        rec(I, c - h, row0 + h, col0)

    rec(residues(A, field), A.shape[0] - 2, 0, 0)
    del rec          # it refers to itself: without this the cycle keeps found alive
    found.sort(key=lambda piv: piv[0])
    return found


def lt_rpm(A: np.ndarray, field: PrimeField,
           counter: OpCounter | None = None) -> RankProfileMatrix:
    """Left triangular part of the rank profile matrix of a square A.

    The pivots are those of A with i + j <= n - 2 (0-based).  The result
    and the counted operations depend only on A's left region, so A need
    not be left triangular: a region entry's Schur update reads only
    region entries, because P L P^T is lower triangular, and each base
    block is masked to its region.
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
    # the left regions of J_n M and M J_n are J_n strict_lower(M) and
    # strict_upper(M) J_n, and lt_rpm reads only its input's left region
    # (reducing it if needed): both triangles are reversed views, not copies
    r_l = qs_order(lt_rpm(M[::-1], field, counter).pivots, n)
    r_u = qs_order(lt_rpm(M[:, ::-1], field, counter).pivots, n)
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
