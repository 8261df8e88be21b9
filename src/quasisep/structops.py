"""Reconstruction, structured matrix-vector products and multiplication.

`_bruhat_apply` is the one kernel that applies a Bruhat triple, to a
vector or a block: a single cumulative sum over all upper segments serves
every left-region truncation, so each column costs one multiplication per
stored nonzero.  A compact generator is decoded by
`generators.compact_to_bruhat` and applied the same way; a tree generator
is applied by the quadrant recursion `_times_tall`.  The left-triangular
product recursion follows the quadrant scheme: two recursive products plus
PLUQ-against-subtree cross terms per level.  `mul_qs_qs` runs it on two
tree operands; otherwise it applies the left operand's own
representations to the densified right one.
"""

from __future__ import annotations

import numpy as np

from .field import (OpCounter, PrimeField, mat_mul, reverse_cols,
                    reverse_rows)
from .generators import (BruhatGenerator, CompactBruhatGenerator, QsMatrix,
                         TreeGenerator, TreeLeaf, bruhat_reconstruct,
                         compact_to_bruhat, tree_dense, tree_generator,
                         tree_size)
from .pluq import PluqDecomposition


def reconstruct(g, counter: OpCounter | None = None) -> np.ndarray:
    """Densify any of the three left triangular representations."""
    if isinstance(g, CompactBruhatGenerator):
        g = compact_to_bruhat(g)
    if isinstance(g, TreeGenerator):
        return tree_dense(g.root, g.field, counter)[:g.n, :g.n]
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
    return mul_lt_by_flat(g, x[:, None], counter)[:, 0]


def _rep_times(rep, X: np.ndarray, counter: OpCounter | None) -> np.ndarray:
    """rep @ X.  A vector goes through the public matvecs, a block straight
    to the tree recursion or the Bruhat kernel."""
    if isinstance(rep, CompactBruhatGenerator):
        rep = compact_to_bruhat(rep)
    if isinstance(rep, TreeGenerator):
        return matvec_tree(rep, X, counter) if X.ndim == 1 \
            else mul_lt_by_flat(rep, X, counter)
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


def _flat_times(node, F: np.ndarray, field: PrimeField,
                counter: OpCounter | None) -> np.ndarray:
    """F @ A for a node of the tree (F is k x m)."""
    if isinstance(node, TreeLeaf):
        return mat_mul(F, node.block, field, counter)
    d = node.pluq
    h = d.m
    Fl, Fr = F[:, :h], F[:, h:]
    X = d.P.apply_cols(Fl)
    X = mat_mul(X, d.L, field, counter)
    X = mat_mul(X, d.U, field, counter)
    X = d.Q.apply_cols(X)
    left = (X + _flat_times(node.bottom_left, Fr, field, counter)) % field.p
    if counter is not None:
        counter.adds += X.size
    right = _flat_times(node.top_right, Fl, field, counter)
    return np.hstack([left, right])


def _times_tall(node, F: np.ndarray, field: PrimeField,
                counter: OpCounter | None) -> np.ndarray:
    """A @ F for a node of the tree (F is m x k)."""
    if isinstance(node, TreeLeaf):
        return mat_mul(node.block, F, field, counter)
    d = node.pluq
    h = d.m
    Ft, Fb = F[:h], F[h:]
    X = d.Q.apply_rows(Ft)
    X = mat_mul(d.U, X, field, counter)
    X = mat_mul(d.L, X, field, counter)
    X = d.P.apply_rows(X)
    top = (X + _times_tall(node.top_right, Fb, field, counter)) % field.p
    if counter is not None:
        counter.adds += X.size
    bottom = _times_tall(node.bottom_left, Ft, field, counter)
    return np.concatenate([top, bottom])


def _padded(F: np.ndarray, size: int, axis: int) -> np.ndarray:
    """F with zero rows (axis 0) or columns (axis 1) appended up to size."""
    F = np.asarray(F, dtype=np.int64)
    if F.shape[axis] == size:
        return F
    width = [(0, 0), (0, 0)]
    width[axis] = (0, size - F.shape[axis])
    return np.pad(F, width)


def mul_flat_by_lt(F: np.ndarray, g: TreeGenerator,
                   counter: OpCounter | None = None) -> np.ndarray:
    """F @ reconstruct(g) for a flat F, recursing column-split by quadrant."""
    if F.shape[1] != g.n:
        raise ValueError("dimension mismatch in mul_flat_by_lt")
    return _flat_times(g.root, _padded(F, g.size, 1), g.field, counter)[:, :g.n]


def mul_lt_by_flat(g: TreeGenerator, F: np.ndarray,
                   counter: OpCounter | None = None) -> np.ndarray:
    """reconstruct(g) @ F for a tall F."""
    if F.shape[0] != g.n:
        raise ValueError("dimension mismatch in mul_lt_by_flat")
    return _times_tall(g.root, _padded(F, g.size, 0), g.field, counter)[:g.n]


def mul_pluq_by_lt(d: PluqDecomposition, g: TreeGenerator,
                   counter: OpCounter | None = None,
                   middle_reversed: bool = False) -> np.ndarray:
    """(P L U Q) @ A, or (P L U Q) @ J @ A when middle_reversed."""
    if d.n != g.n:
        raise ValueError("dimension mismatch in mul_pluq_by_lt")
    return _pluq_times_node(d, g.root, g.n, g.field, counter, middle_reversed)


def mul_lt_by_pluq(g: TreeGenerator, d: PluqDecomposition,
                   counter: OpCounter | None = None,
                   middle_reversed: bool = False) -> np.ndarray:
    """A @ (P L U Q), or A @ J @ (P L U Q) when middle_reversed."""
    if g.n != d.m:
        raise ValueError("dimension mismatch in mul_lt_by_pluq")
    return _node_times_pluq(g.root, d, g.n, g.field, counter, middle_reversed)


def _pluq_times_pluq(da: PluqDecomposition, db: PluqDecomposition,
                     field: PrimeField, counter: OpCounter | None) -> np.ndarray:
    W = da.Q.apply_cols(da.U)
    V = db.P.apply_rows(db.L)
    M = mat_mul(W, V, field, counter)
    X = mat_mul(da.L, M, field, counter)
    X = mat_mul(X, db.U, field, counter)
    return db.Q.apply_cols(da.P.apply_rows(X))


def _pluq_times_node(d: PluqDecomposition, node, n: int, field: PrimeField,
                     counter: OpCounter | None, rev: bool) -> np.ndarray:
    """(P L U Q) @ A for the n x n A held top-left by a tree node, or
    (P L U Q) @ J_n @ A when rev: U Q is reversed before it is padded."""
    W = d.Q.apply_cols(d.U)
    if rev:
        W = W[:, ::-1]
    X = _flat_times(node, _padded(W, tree_size(node), 1), field, counter)[:, :n]
    X = mat_mul(d.L, X, field, counter)
    return d.P.apply_rows(X)


def _node_times_pluq(node, d: PluqDecomposition, n: int, field: PrimeField,
                     counter: OpCounter | None, rev: bool) -> np.ndarray:
    """A @ (P L U Q), or A @ J_n @ (P L U Q) when rev; the mirror of
    `_pluq_times_node`."""
    V = d.P.apply_rows(d.L)
    if rev:
        V = V[::-1]
    X = _times_tall(node, _padded(V, tree_size(node), 0), field, counter)[:n]
    X = mat_mul(X, d.U, field, counter)
    return d.Q.apply_cols(X)


def _lt_times_lt(a, b, field: PrimeField, counter: OpCounter | None,
                 rev: bool) -> np.ndarray:
    """Dense A @ B (rev=False) or A @ J @ B (rev=True) on tree nodes."""
    if isinstance(a, TreeLeaf) or isinstance(b, TreeLeaf):
        Ad = a.block if isinstance(a, TreeLeaf) else tree_dense(a, field, counter)
        Bd = b.block if isinstance(b, TreeLeaf) else tree_dense(b, field, counter)
        if rev:
            Bd = Bd[::-1]
        return mat_mul(Ad, Bd, field, counter)
    da, db = a.pluq, b.pluq
    h = da.m
    p = field.p
    out = np.zeros((2 * h, 2 * h), dtype=np.int64)
    if not rev:
        tl = (_pluq_times_pluq(da, db, field, counter)
              + _lt_times_lt(a.top_right, b.bottom_left, field, counter, False)) % p
        out[:h, :h] = tl
        out[:h, h:] = _pluq_times_node(da, b.top_right, h, field, counter, False)
        out[h:, :h] = _node_times_pluq(a.bottom_left, db, h, field, counter, False)
        out[h:, h:] = _lt_times_lt(a.bottom_left, b.top_right, field, counter, False)
    else:
        # J @ B swaps B's quadrant roles: [[J B3, 0], [J B1, J B2]].
        tl = (_pluq_times_node(da, b.bottom_left, h, field, counter, True)
              + _node_times_pluq(a.top_right, db, h, field, counter, True)) % p
        out[:h, :h] = tl
        out[:h, h:] = _lt_times_lt(a.top_right, b.top_right, field, counter, True)
        out[h:, :h] = _lt_times_lt(a.bottom_left, b.bottom_left, field, counter, True)
    if counter is not None:
        counter.adds += h * h
    return out


def mul_lt_lt(gA: TreeGenerator, gB: TreeGenerator,
              counter: OpCounter | None = None,
              middle_reversed: bool = False) -> np.ndarray:
    """Dense product of two represented left triangular matrices.

    middle_reversed computes A @ J_n @ B.  When n is not a power of two
    the J_n of the represented size differs from the padded one, so B is
    re-embedded bottom-left (an uncounted conversion) before recursing.
    """
    if gA.n != gB.n:
        raise ValueError("size mismatch in mul_lt_lt")
    if gA.field != gB.field:
        raise ValueError("field mismatch in mul_lt_lt")
    n, N = gA.n, gA.size
    field = gA.field
    rootB = gB.root
    if middle_reversed and N != n:
        Bdense = reconstruct(gB)
        Bemb = np.zeros((N, N), dtype=np.int64)
        Bemb[N - n:, :n] = Bdense
        rootB = tree_generator(Bemb, field, None, gB.leaf_size).root
    return _lt_times_lt(gA.root, rootB, field, counter, middle_reversed)[:n, :n]


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

    Two tree operands run the tree recursion: the four triangular cross
    products reduce to left triangular products with the outer J factors
    applied as row/column reversals of the dense results; the inner J
    factors either cancel or flip the recursion mode.  Otherwise B is
    densified and A applied to it through its own representations,
    J rep(A.lower) B + diag(A) B + rep(A.upper) J B, in O(n^2 s) operations.
    """
    if A.n != B.n:
        raise ValueError("size mismatch in mul_qs_qs")
    if A.field != B.field:
        raise ValueError("field mismatch in mul_qs_qs")
    p = A.field.p
    n = A.n
    if A.rep_kind != "tree" or B.rep_kind != "tree":
        Bd = qs_to_dense(B, counter)
        low = _rep_times(A.lower, Bd, counter)[::-1]
        up = _rep_times(A.upper, Bd[::-1], counter)
        if counter is not None:
            counter.muls += n * n
            counter.adds += 2 * n * n
        return (low + up + A.diag[:, None] * Bd) % p

    ll = reverse_rows(mul_lt_lt(A.lower, B.lower, counter, middle_reversed=True))
    lu = reverse_rows(reverse_cols(mul_lt_lt(A.lower, B.upper, counter)))
    ul = mul_lt_lt(A.upper, B.lower, counter)
    uu = reverse_cols(mul_lt_lt(A.upper, B.upper, counter, middle_reversed=True))

    Bd = qs_to_dense(B, counter)
    Ad = qs_to_dense(A, counter)
    diag_a = (A.diag[:, None] * Bd) % p
    off_a = (Ad - np.diag(A.diag)) % p
    diag_b = (off_a * B.diag[None, :]) % p
    if counter is not None:
        counter.muls += 2 * n * n
        counter.adds += 5 * n * n
    return (ll + lu + ul + uu + diag_a + diag_b) % p
