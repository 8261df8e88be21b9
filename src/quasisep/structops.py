"""Reconstruction, structured matrix-vector products and multiplication.

A Bruhat triple is applied to a vector by `_bruhat_apply`: a single
cumulative sum over the flat array of upper segments serves every
left-region truncation.  It is applied to an n x k block by `_bruhat_walk`, a walk
over the columns, _BLOCK at a time, that keeps a running sum for each of
the at most s pivots live on a column: one fused `mat_mul` per block of
columns makes the block's rows and the next sums.  Both count one
multiplication per stored nonzero and column, and a Bruhat side of rank
above _BLOCK + 2s is densified by the same walk.  A compact generator is
decoded by `generators.compact_to_bruhat` and applied the same way; a
tree generator is applied by `_tree_apply`, one depth and factor shape
at a time from the groups the generator derives on construction.  On a
block its products are exact float64 GEMMs added, unreduced, into one
float64 sum that is converted and reduced once at the end, the delayed
reduction of FFLAS-FFPACK (Dumas, Giorgi and Pernet, ACM TOMS 35(3),
2008).  A running bound keeps every value at most 2**53 - p and
reduces the sum in place when the next group of blocks would pass it.
Where a product would pass that bound alone, as any at p = 2**31 - 1,
the tree's small factors are cut into limbs of a few bits, never the
block they meet.  Products are dense: `mul_qs_qs` densifies its right
operand and applies the left operand's own representations to it,
whatever the two kinds, and `mul_lt_lt` does the same for two tree
represented left triangular matrices.
"""

from __future__ import annotations

import numpy as np

from .field import _FLOAT_EXACT, OpCounter, mat_mul, residues
from .generators import (BruhatGenerator, CompactBruhatGenerator, QsMatrix,
                         TreeGenerator, bruhat_reconstruct,
                         compact_to_bruhat, tree_dense)
from .orders import qs_order

_BLOCK = 32     # columns of the left region per step of `_bruhat_walk`


def reconstruct(g, counter: OpCounter | None = None) -> np.ndarray:
    """Densify any of the three left triangular representations.  A Bruhat
    triple of rank r and order w costs n r n products as n x r pivot
    columns times r x n pivot rows, and about n n (_BLOCK + 2 w) by the
    block walk on the identity, which takes over when r is larger."""
    if isinstance(g, CompactBruhatGenerator):
        g = compact_to_bruhat(g)
    if isinstance(g, TreeGenerator):
        return tree_dense(g, counter)
    if isinstance(g, BruhatGenerator):
        # the order's O(n) sweep only when the rank can pass the bound
        if g.rank > _BLOCK and g.rank > _BLOCK + 2 * qs_order(g.pivots, g.n):
            return _bruhat_walk(g, None, counter)
        return bruhat_reconstruct(g, counter)
    raise TypeError(f"no reconstruction for {type(g).__name__}")


# ---------------------------------------------------------------------------
# matrix-vector products


def _bruhat_apply(g: BruhatGenerator, x: np.ndarray,
                  counter: OpCounter | None) -> np.ndarray:
    """Left(L E^T U) x for a reduced vector x.

    The pivot at (i, j) with segments l, u of length m adds to row i + d
    the value l_d * sum(u_t x_{j+t} for t <= m - 1 - d): the left-region
    truncation.  All segments go at once: one cumulative sum over the
    products u_t x_{j+t} mod p, laid end to end as g.upper (exact in int64,
    each term is below p < 2**31), less each segment's base, read at the
    truncation points and scattered into the rows.
    """
    n, p = g.n, g.field.p
    if counter is not None:
        nnz = g.nnz_lower() + g.nnz_upper()
        counter.muls += nnz
        counter.adds += nnz
    y = np.zeros(n, dtype=np.int64)
    if g.rank:
        o, lens = g.offsets, np.diff(g.offsets)
        base = np.repeat(o[:-1], lens)
        d = np.arange(base.size) - base         # each entry's index in its segment
        terms = g.upper * x[np.repeat(g.cols, lens) + d]
        terms %= p
        sums = np.zeros(d.size + 1, dtype=np.int64)
        np.cumsum(terms, out=sums[1:])
        terms = sums[np.repeat(o[1:], lens) - d]    # one past the last term kept
        terms -= sums[base]
        terms %= p
        terms *= g.lower
        terms %= p
        np.add.at(y, np.repeat(g.rows, lens) + d, terms)
    y %= p
    return y


def _bruhat_slots(g: BruhatGenerator) -> tuple:
    """(U, L, own) for `_bruhat_walk`: n x w slot tables and, for each
    column and slot, the pivot that holds the slot there (-1 where none).

    The pivot at (i, j) is live on columns j .. n-2-i.  Taken by start
    column, each pivot gets a slot freed by a pivot that ended before
    column j, or a new one only when every slot is live there, so w is the
    most pivots live on one column: the order of g.  U[c] holds the live
    pivots' upper entries u_(c-j) and L[c] their lower entries
    l_(n-2-c-i); every other entry is zero.
    """
    n, piv = g.n, g.pivots
    slot = [0] * g.rank
    free, width, e = [], 0, g.rank - 1    # pivots by row descending: by end
    for a in sorted(range(g.rank), key=lambda a: piv[a][1]):
        j = piv[a][1]
        while n - 2 - piv[e][0] < j:      # pivot e ended before column j
            free.append(slot[e])
            e -= 1
        if free:
            slot[a] = free.pop()
        else:
            slot[a], width = width, width + 1
    U = np.zeros((n, width), dtype=np.int64)
    L = np.zeros((n, width), dtype=np.int64)
    own = np.full((n, width), -1, dtype=np.int64)
    if g.rank:
        o, lens = g.offsets, np.diff(g.offsets)
        d = np.arange(o[-1]) - np.repeat(o[:-1], lens)      # each entry's index in its segment
        at = (np.repeat(g.cols, lens) + d, np.repeat(slot, lens))
        U[at] = g.upper
        L[at] = g.lower[np.repeat(o[1:], lens) - 1 - d]
        own[at] = np.repeat(np.arange(g.rank), lens)
    return U, L, own


def _bruhat_walk(g: BruhatGenerator, X: np.ndarray | None,
                 counter: OpCounter | None) -> np.ndarray:
    """Left(L E^T U) X for a reduced n x k block X, or the n x n
    Left(L E^T U) itself when X is None (X the identity, made a block at a
    time), by a walk over the columns of the left region, _BLOCK at a time.

    Row n-2-c reads columns 0 .. c of X through the pivots (i, j) with
    j <= c <= n-2-i, at most the order w of g.  Each keeps the running sum
    of u_t x_(j+t) over the columns walked so far in its slot of
    `_bruhat_slots`.  With S the w x k sums after column c0-1, the block of
    columns c0 .. c1-1 takes one `mat_mul`:

        [ L'  K  ]   [ S          ]   [ rows n-2-c, c = c0 .. c1-1 ]
        [ D   U' ] . [ X[c0 : c1] ] = [ the sums after column c1-1 ]

    L' is L's block rows kept where the slot's pivot was live at c0-1.
    K[c, t] (t <= c) sums L[c, slot] U[t, slot] over the slots one pivot
    holds at both c and t, each product reduced before the sum.  D keeps
    the sums whose pivot is still live at c1-1, and U' is the transposed
    block of U kept where the slot's pivot is that live at c1-1.  The
    counts are those of `_bruhat_apply`, k multiplications and additions
    per stored nonzero; the inner products are not counted.
    """
    n = g.n
    k = n if X is None else X.shape[1]
    p = g.field.p
    if counter is not None:
        nnz = k * (g.nnz_lower() + g.nnz_upper())
        counter.muls += nnz
        counter.adds += nnz
    U, L, own = _bruhat_slots(g)
    w = U.shape[1]
    Y = np.zeros((n, k), dtype=np.int64)
    S = np.zeros((w, k), dtype=np.int64)
    live = np.full(w, -1)                 # the pivot in each slot at c0-1
    for c0 in range(0, n - 1 if w and k else 0, _BLOCK):
        c1 = min(c0 + _BLOCK, n - 1)
        b, o = c1 - c0, own[c0:c1]
        T = L[c0:c1, None] * U[None, c0:c1]
        T %= p
        T *= o[:, None] == o[None]
        M = np.zeros((b + w, w + b), dtype=np.int64)
        M[:b, :w] = L[c0:c1] * (o == live)
        M[:b, w:] = np.tril(T.sum(axis=2) % p)
        M[b:, :w] = np.diag(live == o[-1])
        M[b:, w:] = (U[c0:c1] * (o == o[-1])).T
        live = o[-1]
        Xb = np.eye(b, n, c0, dtype=np.int64) if X is None else X[c0:c1]
        R = mat_mul(M, np.concatenate((S, Xb)), g.field)
        Y[n - 1 - c1:n - 1 - c0] = R[b - 1::-1]
        S = R[b:]
    return Y


def matvec_bruhat(g: BruhatGenerator, x: np.ndarray,
                  counter: OpCounter | None = None) -> np.ndarray:
    """y = Left(L E^T U) x without densifying, one multiplication per
    stored nonzero."""
    x = np.asarray(x, dtype=np.int64) % g.field.p
    if x.shape != (g.n,):
        raise ValueError("vector length mismatch")
    return _bruhat_apply(g, x, counter)


def matvec_tree(g: TreeGenerator, x: np.ndarray,
                counter: OpCounter | None = None) -> np.ndarray:
    x = np.asarray(x, dtype=np.int64) % g.field.p
    if x.shape != (g.n,):
        raise ValueError("vector length mismatch")
    return _tree_apply(g, x[:, None], counter)[:, 0]


def _rep_times(rep, X: np.ndarray, counter: OpCounter | None) -> np.ndarray:
    """rep @ X for a reduced X.  A vector goes through the public matvecs,
    an n x k block (k = 0 and k = 1 too) straight to `_tree_apply` or to
    `_bruhat_walk`, one `mat_mul` per _BLOCK columns, counted as k
    multiplications per stored nonzero; a compact generator is decoded to
    its Bruhat triple first."""
    if isinstance(rep, CompactBruhatGenerator):
        rep = compact_to_bruhat(rep)
    if isinstance(rep, TreeGenerator):
        return matvec_tree(rep, X, counter) if X.ndim == 1 \
            else _tree_apply(rep, X, counter)
    if isinstance(rep, BruhatGenerator):
        return matvec_bruhat(rep, X, counter) if X.ndim == 1 \
            else _bruhat_walk(rep, X, counter)
    raise TypeError(f"no product for {type(rep).__name__}")


def matvec_qs(M: QsMatrix, x: np.ndarray,
              counter: OpCounter | None = None) -> np.ndarray:
    """y = M x via the split J (lower rep) x + diag * x + (upper rep) (J x)."""
    p = M.field.p
    x = np.asarray(x, dtype=np.int64) % p
    if x.shape != (M.n,):
        raise ValueError("vector length mismatch")
    low = _rep_times(M.lower, x, counter)[::-1]
    up = _rep_times(M.upper, x[::-1].copy(), counter)
    if counter is not None:
        counter.muls += M.n
        counter.adds += 2 * M.n
    return (low + up + M.diag * x) % p


# ---------------------------------------------------------------------------
# products against tree generators


def _float_terms(g: TreeGenerator) -> list:
    """For each group of g, (l, b, term): `_tree_apply` cuts the group's
    factors into l limbs of b bits, and term is the most the group adds
    to an entry of its float64 sum.

    l is the fewest for which every value stays at most 2**53 - p, where
    float64 also holds the multiple of p that `_reduce` subtracts; a sum
    reduced partway starts again from 2p - 1, so each term must fit
    beside that too.  Limbs are at most e = min(2**b - 1, p - 1).  A leaf
    F (h x w), or a node's UQ (r x w), meets X[j:j+w] in w-term products
    of at most w e (p-1), joined for l > 1 by Horner's rule onto a value
    reduced below 2p in absolute value, (2p-1) 2**b more.  The leaf adds
    that to the sum.  The node reduces it, Z, below 2p again and adds
    PL Z as l r terms, PL's limbs against the copies 2**(b i) Z mod p,
    each reduced below 2p: at most l r e (2p-1).  With l = 1, b is the
    bit length of p - 1 and the terms are w (p-1)**2 and r (p-1)(2p-1).
    b = 1 fits every w below about 2**22.
    """
    p = g.field.p
    top = _FLOAT_EXACT - p
    bits = (p - 1).bit_length()
    terms = []
    for factors, _, _ in g.groups:
        r, w = factors[0].shape[2], factors[-1].shape[2]
        for limbs in range(1, bits + 1):
            b = -(-bits // limbs)
            e = min((1 << b) - 1, p - 1)
            inner = w * e * (p - 1) + ((2 * p - 1) << b if limbs > 1 else 0)
            term = limbs * r * e * (2 * p - 1) if len(factors) == 2 else inner
            if max(inner, term + 2 * p - 1) <= top:
                break
        else:
            raise ValueError(f"a block {w} wide is past exact float64 products")
        terms.append((limbs, b, term))
    return terms


def _reduce(Z: np.ndarray, p: int) -> None:
    """Z -= floor(Z / p) p in place, for integers |Z| <= 2**53 - p held in
    float64: 1/p and the quotient are rounded, so floor is off by at most
    one either way and Z ends in [-2, 2p), but every step is exact."""
    Q = Z * (1 / p)
    np.floor(Q, out=Q)
    Q *= p
    Z -= Q


def _add_group(Y: np.ndarray, X: np.ndarray, factors: tuple, r0: np.ndarray,
               c0: np.ndarray, limbs: int, b: int, p: int) -> None:
    """Add one group's products with a reduced n x k block X, unreduced,
    to the float64 sum Y of `_tree_apply`, each factor cut into `limbs`
    limbs of b bits (one limb: the factor itself).

    A block goes on its slice of X, converted alone.  The limbs of a leaf
    F, or of a node's UQ, are stacked top first along its rows, so one
    GEMM makes the pieces of F X[j:j+w], joined by Horner's rule with a
    `_reduce` before each step.  A node reduces that inner product, Z,
    writes the copies 2**(b i) Z mod p, i = 1 .. limbs-1, over the spent
    pieces, each the one before times 2**b, reduced, and meets them with
    PL's limbs, laid side by side, in one more GEMM.  `_float_terms`
    picks limbs and b so that every value stays exact.
    """
    m, w = factors[-1].shape[1:]
    h = factors[0].shape[1]
    shifts, mask = b * np.arange(limbs), (1 << b) - 1
    inner = np.concatenate([(factors[-1] >> s) & mask for s in shifts[::-1]],
                           axis=1).astype(np.float64)
    if len(factors) == 2:
        outer = np.concatenate([(factors[0] >> s) & mask for s in shifts],
                               axis=2).astype(np.float64)
    for q, (i, j) in enumerate(zip(r0.tolist(), c0.tolist())):
        T = inner[q] @ X[j:j + w].astype(np.float64)
        Z = T[:m]
        for t in range(m, limbs * m, m):
            _reduce(Z, p)
            Z *= 1 << b
            Z += T[t:t + m]
        if len(factors) == 2:
            _reduce(Z, p)
            for t in range(m, limbs * m, m):
                np.multiply(T[t - m:t], 1 << b, out=T[t:t + m])
                _reduce(T[t:t + m], p)
            Z = outer[q] @ T
        Y[i:i + h] += Z


def _tree_apply(g: TreeGenerator, X: np.ndarray,
                counter: OpCounter | None) -> np.ndarray:
    """reconstruct(g) @ X for a reduced n x k block X, from g.groups.

    Every group's products go into one n x k sum, reduced once at the
    end.  A vector costs one gather, one stacked `mat_mul` per factor and
    one scatter per group into an int64 sum, which is safe since no two
    blocks of a group share a row or a column, and a row gets at most one
    reduced product per depth.  A block of several columns goes block by
    block on slices of X and of the sum, by `_add_group`: on wide blocks
    gathered copies cost more time and memory than stacked products
    save.  At every p its products are exact float64 GEMMs added
    unreduced to a float64 sum, the delayed reduction of FFLAS-FFPACK,
    each group's factors cut into the limbs `_float_terms` picks, one
    where the products are exact as they stand.  Since no two blocks of
    a group share a row, the sum of the groups' terms applied so far
    bounds every entry; when the next group would take it past
    2**53 - p, the sum is reduced in place and the bound starts again
    from 2p - 1.  The counts are `mat_mul`'s for every product, and a
    node counts the h k additions that join its product to its
    top-right child's; a leaf counts none.
    """
    n, k = X.shape
    p = g.field.p
    terms = _float_terms(g) if k > 1 else None
    Y = np.zeros((n, k), dtype=np.int64 if k == 1 else np.float64)
    bound = 0
    for at, (factors, r0, c0) in enumerate(g.groups):
        N, h = factors[0].shape[:2]
        if k == 1:
            w = factors[-1].shape[2]
            T = X[c0[:, None] + np.arange(w)]
            for F in reversed(factors):
                T = mat_mul(F, T, g.field, counter)
            Y[r0[:, None] + np.arange(h)] += T
        else:
            limbs, b, term = terms[at]
            if bound + term > _FLOAT_EXACT - p:
                _reduce(Y, p)
                bound = 2 * p - 1
            bound += term
            if counter is not None:
                for F in factors:
                    counter.count_matmul(N * F.shape[1], F.shape[2], k)
            _add_group(Y, X, factors, r0, c0, limbs, b, p)
        if counter is not None and len(factors) == 2:
            counter.adds += N * h * k
    if k > 1:
        Y = Y.astype(np.int64)
    Y %= p
    return Y


def mul_lt_by_flat(g: TreeGenerator, F: np.ndarray,
                   counter: OpCounter | None = None) -> np.ndarray:
    """reconstruct(g) @ F for a tall F, reduced first unless it already
    holds residues (the tree kernel is exact only on reduced operands)."""
    if F.shape[0] != g.n:
        raise ValueError("dimension mismatch in mul_lt_by_flat")
    return _tree_apply(g, residues(F, g.field), counter)


def mul_lt_lt(gA: TreeGenerator, gB: TreeGenerator,
              counter: OpCounter | None = None) -> np.ndarray:
    """Dense A @ B of two tree represented left triangular matrices: B is
    densified and A applied to it by the tree kernel."""
    if gA.n != gB.n:
        raise ValueError("size mismatch in mul_lt_lt")
    if gA.field != gB.field:
        raise ValueError("field mismatch in mul_lt_lt")
    return _tree_apply(gA, reconstruct(gB, counter), counter)


# ---------------------------------------------------------------------------
# full quasiseparable product


def qs_to_dense(M: QsMatrix, counter: OpCounter | None = None) -> np.ndarray:
    """Densify: J @ rep(lower) puts the strict lower part back in place,
    rep(upper) @ J the strict upper part.  Both hold residues and never
    overlap each other or the diagonal, so only the diagonal, which
    `QsMatrix` takes as given, is reduced."""
    out = reconstruct(M.lower, counter)[::-1] + reconstruct(M.upper, counter)[:, ::-1]
    out.flat[::M.n + 1] += M.diag % M.field.p
    if counter is not None:
        counter.adds += 2 * M.n * M.n
    return out


def mul_qs_qs(A: QsMatrix, B: QsMatrix,
              counter: OpCounter | None = None) -> np.ndarray:
    """Exact dense product of two quasiseparable matrices.

    B is densified and A applied to it through its own representations,
    J rep(A.lower) B + diag(A) B + rep(A.upper) J B, for every pair of
    kinds: n block columns, each counted as about one matvec with A, so
    O(n^2 s) operations for Bruhat and compact A, made by one `mat_mul`
    per _BLOCK columns of each side.
    """
    if A.n != B.n:
        raise ValueError("size mismatch in mul_qs_qs")
    if A.field != B.field:
        raise ValueError("field mismatch in mul_qs_qs")
    n = A.n
    Bd = qs_to_dense(B, counter)
    low = _rep_times(A.lower, Bd, counter)[::-1]
    out = _rep_times(A.upper, Bd[::-1], counter)
    if counter is not None:
        counter.muls += n * n
        counter.adds += 2 * n * n
    out += low
    del low
    Bd *= A.diag[:, None]
    out += Bd
    out %= A.field.p
    return out
