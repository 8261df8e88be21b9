"""Reconstruction, structured matrix-vector products and multiplication.

`_bruhat_apply` is the one kernel that applies a Bruhat triple, to a
vector or a block: a single cumulative sum over all upper segments serves
every left-region truncation, so each column costs one multiplication per
stored nonzero.  A compact generator is decoded by
`generators.compact_to_bruhat` and applied the same way; a tree generator
is applied by `_tree_apply`, one depth and factor shape at a time from
the groups the generator derives on construction.  Products are dense:
`mul_qs_qs` densifies its right operand and applies the left operand's
own representations to it, whatever the two kinds, and `mul_lt_lt` does
the same for two tree represented left triangular matrices.
"""

from __future__ import annotations

import numpy as np

from .field import OpCounter, mat_mul, residues, reverse_cols, reverse_rows
from .generators import (BruhatGenerator, CompactBruhatGenerator, QsMatrix,
                         TreeGenerator, bruhat_reconstruct,
                         compact_to_bruhat, tree_dense)


def reconstruct(g, counter: OpCounter | None = None) -> np.ndarray:
    """Densify any of the three left triangular representations."""
    if isinstance(g, CompactBruhatGenerator):
        g = compact_to_bruhat(g)
    if isinstance(g, TreeGenerator):
        return tree_dense(g, counter)
    if isinstance(g, BruhatGenerator):
        return bruhat_reconstruct(g, counter)
    raise TypeError(f"no reconstruction for {type(g).__name__}")


# ---------------------------------------------------------------------------
# matrix-vector products


def _bruhat_apply(g: BruhatGenerator, X: np.ndarray,
                  counter: OpCounter | None) -> np.ndarray:
    """Left(L E^T U) X for a reduced vector or n x k block X.

    The pivot at (i, j) with segments l, u of length m adds to row i + d
    the value l_d * sum(u_t x_{j+t} for t <= m - 1 - d): the left-region
    truncation.  All segments go at once: one cumulative sum over the
    concatenated products u_t x_{j+t} mod p (exact in int64, each term is
    below p < 2**31), less each segment's base, read at the truncation
    points and scattered into the rows.  Block columns go in slices that
    keep every temporary near n * n elements.
    """
    n, p = g.n, g.field.p
    X2 = X[:, None] if X.ndim == 1 else X
    if counter is not None:
        nnz = X2.shape[1] * (g.nnz_lower() + g.nnz_upper())
        counter.muls += nnz
        counter.adds += nnz
    Y = np.zeros(X2.shape, dtype=np.int64)
    lens = np.array([len(seg) for seg in g.lower_segs], dtype=np.int64)
    total = int(lens.sum())
    if total:
        piv = np.array(g.pivots, dtype=np.int64)
        base = np.repeat(np.cumsum(lens) - lens, lens)   # flat start of the segment
        d = np.arange(total) - base                       # offset within the segment
        rows = np.repeat(piv[:, 0], lens) + d
        cols = np.repeat(piv[:, 1], lens) + d
        cut = base + np.repeat(lens, lens) - d            # one past the last term kept
        lower = np.concatenate(g.lower_segs)[:, None]
        upper = np.concatenate(g.upper_segs)[:, None]
        width = max(1, n * n // total)
        for c in range(0, X2.shape[1], width):
            terms = upper * X2[cols, c:c + width]
            terms %= p
            sums = np.zeros((total + 1, terms.shape[1]), dtype=np.int64)
            np.cumsum(terms, axis=0, out=sums[1:])
            terms = sums[cut]
            terms -= sums[base]
            terms %= p
            terms *= lower
            terms %= p
            np.add.at(Y[:, c:c + width], rows, terms)
    Y %= p
    return Y[:, 0] if X.ndim == 1 else Y


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
    a block straight to the tree or Bruhat kernel."""
    if isinstance(rep, CompactBruhatGenerator):
        rep = compact_to_bruhat(rep)
    if isinstance(rep, TreeGenerator):
        return matvec_tree(rep, X, counter) if X.ndim == 1 \
            else _tree_apply(rep, X, counter)
    if isinstance(rep, BruhatGenerator):
        return matvec_bruhat(rep, X, counter) if X.ndim == 1 \
            else _bruhat_apply(rep, X, counter)
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


def _tree_apply(g: TreeGenerator, X: np.ndarray,
                counter: OpCounter | None) -> np.ndarray:
    """reconstruct(g) @ X for a reduced n x k block X, from g.groups.

    Every group's products go into one int64 sum, reduced once at the
    end: each is reduced, and a row gets at most one per depth.  A vector
    costs one gather, one stacked product per factor and one scatter per
    group, which is safe since no two blocks of a group share a row or a
    column.  A block of several columns goes slice by slice, reading
    views of X and adding into views of the sum: on wide blocks the
    gathered copies cost more time and memory than the products save.
    A node counts the h k additions that join its product to its
    top-right child's; a leaf counts none.
    """
    n, k = X.shape
    Y = np.zeros((n, k), dtype=np.int64)
    for factors, r0, c0 in g.groups:
        N, h = factors[0].shape[:2]
        w = factors[-1].shape[2]
        if k == 1:
            T = X[c0[:, None] + np.arange(w)]
            for F in reversed(factors):
                T = mat_mul(F, T, g.field, counter)
            Y[r0[:, None] + np.arange(h)] += T
        else:
            for q, (i, j) in enumerate(zip(r0.tolist(), c0.tolist())):
                T = X[j:j + w]
                for F in reversed(factors):
                    T = mat_mul(F[q], T, g.field, counter)
                Y[i:i + h] += T
        if counter is not None and len(factors) == 2:
            counter.adds += N * h * k
    Y %= g.field.p
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
    rep(upper) @ J the strict upper part."""
    low = reverse_rows(reconstruct(M.lower, counter))
    up = reverse_cols(reconstruct(M.upper, counter))
    if counter is not None:
        counter.adds += 2 * M.n * M.n
    return (low + up + np.diag(M.diag)) % M.field.p


def mul_qs_qs(A: QsMatrix, B: QsMatrix,
              counter: OpCounter | None = None) -> np.ndarray:
    """Exact dense product of two quasiseparable matrices.

    B is densified and A applied to it through its own representations,
    J rep(A.lower) B + diag(A) B + rep(A.upper) J B, for every pair of
    kinds: n block columns, each costing about one matvec with A, so
    O(n^2 s) operations for Bruhat and compact A.
    """
    if A.n != B.n:
        raise ValueError("size mismatch in mul_qs_qs")
    if A.field != B.field:
        raise ValueError("field mismatch in mul_qs_qs")
    n = A.n
    Bd = qs_to_dense(B, counter)
    low = _rep_times(A.lower, Bd, counter)[::-1]
    up = _rep_times(A.upper, Bd[::-1], counter)
    if counter is not None:
        counter.muls += n * n
        counter.adds += 2 * n * n
    return (low + up + A.diag[:, None] * Bd) % A.field.p
