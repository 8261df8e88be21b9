"""Rank-structured representations of left triangular matrices.

Three representations are built here:

* a binary tree of PLUQ decompositions, split as the elimination in
  `orders`: a node is an a x b block with left region i + j <= c (the
  root is n x n with c = n - 2); it factors its top-left h x h block,
  h = floor((c + 2) / 2), and recurses on the h x (b - h) top-right and
  (a - h) x h bottom-left blocks, each with region c - h,
* the sparse (L, E, U) triple made of the left parts of the permuted
  PLUQ factors, stored as one column/row segment per pivot,
* its block compression into a block-diagonal D plus sub-diagonal S with
  a column-relocation map T and an echelon permutation, packed from the
  segments and unpacked into them one echelon column at a time, so
  neither direction forms an n x r matrix.

`random_qs` fabricates quasiseparable test instances and `qs_from_dense`
splits a full matrix into diagonal plus two represented triangles.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field

import numpy as np

from .field import (OpCounter, Permutation, PrimeField, is_left_triangular,
                    left_part, mat_mul, region_mask, reverse_cols,
                    reverse_rows, strict_lower, strict_upper)
from .orders import _left_elimination, qs_order
from .pluq import PluqDecomposition, pluq_rpm


class CompressionError(RuntimeError):
    """No free column available while packing the sub-diagonal blocks.

    Cannot happen when the block width is a true bound on the
    quasiseparable order; surfacing it beats silent corruption.
    """


# ---------------------------------------------------------------------------
# binary tree of PLUQ decompositions


@dataclass
class TreeLeaf:
    block: np.ndarray  # dense a x b block, zero outside its left region


@dataclass
class TreeNode:
    pluq: PluqDecomposition          # of the top-left h x h block
    top_right: "TreeNode | TreeLeaf"
    bottom_left: "TreeNode | TreeLeaf"


@dataclass
class TreeGenerator:
    n: int          # represented size
    root: "TreeNode | TreeLeaf"
    field: PrimeField
    leaf_size: int

    @property
    def size(self) -> int:
        """Size of the root block, which is the represented size."""
        return self.n

    def stored_elements(self) -> int:
        """Field coefficients the representation needs.

        A node stores the nontrivial entries of its L and U factors
        (2*h*r - r**2 for block size h and rank r); a leaf stores the
        slots of its block inside its left region.
        """
        def walk(node, c: int) -> int:
            if isinstance(node, TreeLeaf):
                return int(region_mask(*node.block.shape, c).sum())
            h = node.pluq.m
            r = node.pluq.r
            return (2 * h * r - r * r + walk(node.top_right, c - h)
                    + walk(node.bottom_left, c - h))
        return walk(self.root, self.n - 2)


def tree_generator(A: np.ndarray, field: PrimeField,
                   counter: OpCounter | None = None,
                   leaf_size: int = 4) -> TreeGenerator:
    """Binary-tree PLUQ representation of a left triangular matrix."""
    n = A.shape[0]
    if not is_left_triangular(A):
        raise ValueError("tree_generator expects a left triangular matrix")
    if leaf_size < 1:
        raise ValueError("leaf_size must be positive")

    def build(B: np.ndarray, c: int):
        if max(B.shape) <= leaf_size:
            return TreeLeaf(B.copy())
        h = (c + 2) // 2
        return TreeNode(pluq_rpm(B[:h, :h], field, counter),
                        build(B[:h, h:], c - h), build(B[h:, :h], c - h))

    return TreeGenerator(n, build(np.asarray(A, dtype=np.int64) % field.p, n - 2),
                         field, leaf_size)


def tree_dense(g: TreeGenerator, counter: OpCounter | None = None) -> np.ndarray:
    """Densify a tree generator, each node written into its own block."""
    def fill(node, W: np.ndarray) -> None:
        if isinstance(node, TreeLeaf):
            W[...] = node.block
            return
        h = node.pluq.m
        W[:h, :h] = node.pluq.reconstruct(counter)
        fill(node.top_right, W[:h, h:])
        fill(node.bottom_left, W[h:, :h])

    out = np.zeros((g.n, g.n), dtype=np.int64)
    fill(g.root, out)
    return out


# ---------------------------------------------------------------------------
# Bruhat generator


@dataclass
class BruhatGenerator:
    """Sparse triple (L, E, U) of the left parts of a profile-revealing PLUQ.

    For the pivot at (i, j) (0-based), the lower segment holds column j of
    L on rows i .. n-j-2 and the upper segment holds row i of U on columns
    j .. n-i-2; both have length n - i - j - 1 and the lower one leads with 1.
    """

    n: int
    field: PrimeField
    pivots: list = dc_field(default_factory=list)       # 0-based, sorted by row
    lower_segs: list = dc_field(default_factory=list)
    upper_segs: list = dc_field(default_factory=list)

    @property
    def rank(self) -> int:
        return len(self.pivots)

    def seg_len(self, k: int) -> int:
        i, j = self.pivots[k]
        return self.n - i - j - 1

    def stored_elements(self) -> int:
        return 2 * sum(self.seg_len(k) for k in range(self.rank))

    def nnz_lower(self) -> int:
        return int(sum(np.count_nonzero(s) for s in self.lower_segs))

    def nnz_upper(self) -> int:
        return int(sum(np.count_nonzero(s) for s in self.upper_segs))

    def dense_l(self) -> np.ndarray:
        L = np.zeros((self.n, self.n), dtype=np.int64)
        for (i, j), seg in zip(self.pivots, self.lower_segs):
            L[i:i + len(seg), j] = seg
        return L

    def dense_u(self) -> np.ndarray:
        U = np.zeros((self.n, self.n), dtype=np.int64)
        for (i, j), seg in zip(self.pivots, self.upper_segs):
            U[i, j:j + len(seg)] = seg
        return U

    def validate(self) -> None:
        if sorted(self.pivots) != self.pivots:
            raise ValueError("pivots must be sorted by row")
        rows = {i for i, _ in self.pivots}
        cols = {j for _, j in self.pivots}
        if len(rows) != self.rank or len(cols) != self.rank:
            raise ValueError("pivot rows/columns must be distinct")
        for k, (i, j) in enumerate(self.pivots):
            if i + j > self.n - 2 or i < 0 or j < 0:
                raise ValueError(f"pivot {(i, j)} outside the left region")
            if len(self.lower_segs[k]) != self.seg_len(k) \
                    or len(self.upper_segs[k]) != self.seg_len(k):
                raise ValueError("segment length mismatch")
            if self.lower_segs[k][0] != 1:
                raise ValueError("lower segment must lead with 1")
            if self.upper_segs[k][0] == 0:
                raise ValueError("upper segment must lead with a nonzero")
            for seg in (self.lower_segs[k], self.upper_segs[k]):
                if (seg < 0).any() or (seg >= self.field.p).any():
                    raise ValueError("segment value out of range")


def lt_bruhat(A: np.ndarray, field: PrimeField,
              counter: OpCounter | None = None) -> BruhatGenerator:
    """Bruhat generator of the left triangular part of A.

    Shares the elimination of `orders.lt_rpm`, which runs on A's own size:
    every pivot it finds and both segments are kept as they come.
    """
    n = A.shape[0]
    if A.shape != (n, n):
        raise ValueError("lt_bruhat expects a square matrix")
    found = _left_elimination(A, field, counter)
    g = BruhatGenerator(n, field, [(i, j) for i, j, _, _ in found],
                        [lower for _, _, lower, _ in found],
                        [upper for _, _, _, upper in found])
    g.validate()
    return g


def bruhat_reconstruct(g: BruhatGenerator, counter: OpCounter | None = None) -> np.ndarray:
    """Left(L E^T U) as a dense matrix, from the n x r pivot columns of L
    and the r x n pivot rows of U."""
    Lcols = np.zeros((g.n, g.rank), dtype=np.int64)
    Urows = np.zeros((g.rank, g.n), dtype=np.int64)
    for k, ((i, j), lseg, useg) in enumerate(zip(g.pivots, g.lower_segs, g.upper_segs)):
        Lcols[i:i + len(lseg), k] = lseg
        Urows[k, j:j + len(useg)] = useg
    return left_part(mat_mul(Lcols, Urows, g.field, counter))


# ---------------------------------------------------------------------------
# compact Bruhat generator


def block_widths(r: int, s: int) -> list:
    """Widths of the block columns that cut r echelon columns s at a time:
    s each, the last one ragged."""
    return [min(s, r - c) for c in range(0, r, s)] if r else []


@dataclass
class CompactEchelon:
    """Block compression (D, S, T, perm) of one echelon side.

    `transposed` marks the upper side, whose data is stored for U^T so the
    same column-based layout serves both factors.  `src_map` is the record
    of the column relocations T: `src_map[a]` names the echelon column
    whose overflow was parked at echelon column a (or a itself), always
    one block column to the left of a.  `moves` is derived from it.

    Echelon column q of block column b reads D_b, then (unless q holds a
    parked overflow) S_(b+1), then the S_(b+2), S_(b+3), ... columns its
    overflow was parked at in turn; the rest of its segment is zero.
    """

    n: int
    s: int
    field: PrimeField
    transposed: bool
    perm: Permutation             # full n-permutation, echelon columns first
    block_rows: list              # k_i, i = 1..t
    diag_blocks: list             # D_i, k_i x w_i (w_t may be ragged)
    sub_blocks: list              # S_i, k_i x s, i = 2..t
    src_map: np.ndarray

    @property
    def r(self) -> int:
        return len(self.src_map)

    @property
    def t(self) -> int:
        return len(self.block_rows)

    @property
    def ech_cols(self) -> np.ndarray:
        """Original column of echelon column q."""
        return self.perm.img[:self.r]

    @property
    def moves(self) -> list:
        """(target, source) relocations in ascending target order, the order
        the compression parks them in."""
        return [(a, j) for a, j in enumerate(self.src_map.tolist()) if a != j]

    @property
    def widths(self) -> list:
        return block_widths(self.r, self.s)

    def stored_elements(self) -> int:
        return int(sum(b.size for b in self.diag_blocks)
                   + sum(b.size for b in self.sub_blocks))


def _column_reader(c: CompactEchelon):
    """column(q, top): echelon column q of D + S T on rows top .. n-2-ech_cols[q],
    read block by block in the order `CompactEchelon` gives."""
    s, starts = c.s, np.cumsum([0] + c.block_rows).tolist()
    ech, src_map = c.ech_cols.tolist(), c.src_map.tolist()
    dst = {j: a for a, j in c.moves}       # inverse of the relocations

    def column(q: int, top: int) -> np.ndarray:
        end = c.n - 1 - ech[q]
        col = np.zeros(max(end - top, 0), dtype=np.int64)
        b = q // s
        blk, k = c.diag_blocks[b], q - b * s
        x = q if src_map[q] == q else -1   # a relocation target holds nothing of its own past D
        while True:
            a, e = max(starts[b], top), min(starts[b + 1], end)
            if a < e:
                col[a - top:e - top] = blk[a - starts[b]:e - starts[b], k]
            b += 1
            if x < 0 or b == c.t or starts[b] >= end:
                return col
            blk, k, x = c.sub_blocks[b - 1], x - (b - 1) * s, dst.get(x, -1)

    return column


def has_stray_entries(c: CompactEchelon, top: np.ndarray) -> bool:
    """Whether a D or S block holds a nonzero that no read of `_column_reader`
    covers, when echelon column q is read from row top[q].

    Column q of D_b is read on rows top[q] .. n-2-ech_cols[q].  Column a of
    S_b (a in block column b-1) continues the segment of the column its
    relocation chain starts from, found by following `src_map` back from a.
    """
    s, widths = c.s, c.widths
    starts = np.cumsum([0] + c.block_rows)
    end = c.n - 1 - c.ech_cols
    root = np.arange(c.r)
    for a, j in c.moves:          # ascending targets, each source to its left
        root[a] = root[j]
    for b in range(c.t):
        rows = np.arange(starts[b], starts[b + 1])[:, None]
        blocks = [(c.diag_blocks[b], np.arange(b * s, b * s + widths[b]))]
        if b:
            blocks.append((c.sub_blocks[b - 1], root[(b - 1) * s:b * s]))
        for blk, q in blocks:
            if blk[(rows < top[q]) | (rows >= end[q])].any():
                return True
    return False


def decompress_echelon(c: CompactEchelon) -> np.ndarray:
    """Exact inverse of the compression: the dense L (or U) factor."""
    out = np.zeros((c.n, c.n), dtype=np.int64)
    cols = out.T if c.transposed else out    # the columns of U^T are U's rows
    column = _column_reader(c)
    for q, j in enumerate(c.ech_cols.tolist()):
        cols[:c.n - 1 - j, j] = column(q, 0)
    return out


def _compress_columns(g: BruhatGenerator, s: int, transposed: bool) -> CompactEchelon:
    """Pack the columns of L (or of U^T) in lead order straight from g's segments."""
    n, r = g.n, g.rank
    pairs = [(j, i) for i, j in g.pivots] if transposed else g.pivots
    order = sorted(range(r), key=lambda k: pairs[k][0])
    lead = [pairs[k][0] for k in order]
    seg = [(g.upper_segs if transposed else g.lower_segs)[k] for k in order]
    ech_cols = np.array([pairs[k][1] for k in order], dtype=np.int64)
    perm = Permutation(np.concatenate(
        [ech_cols, np.setdiff1d(np.arange(n, dtype=np.int64), ech_cols)]))
    if r and s <= 0:
        raise ValueError("block width must be positive when pivots exist")
    widths = block_widths(r, s)
    t = len(widths)
    starts = [0] + [lead[b * s] for b in range(1, t)] + [n]

    # A relocation only asks of a column the last row where it still holds
    # a nonzero and whose segment it carries past that point.
    carries = list(range(r))
    last = [lead[q] + int(np.flatnonzero(seg[q]).max(initial=-1))
            for q in range(max(t - 1, 0) * s)]   # all but the last block column
    src_map = np.arange(r, dtype=np.int64)
    for b in range(2, t):     # block column b-2 overflows past starts[b] into b-1
        free = [k for k in range((b - 1) * s, b * s) if last[k] < starts[b]]
        for j in range((b - 2) * s, (b - 1) * s):
            if last[j] < starts[b]:
                continue
            if not free:
                raise CompressionError(
                    f"no zero column in block column {b}; "
                    f"is s={s} really an order bound?")
            k = free.pop(0)
            carries[k], last[k], src_map[k] = carries[j], last[j], j

    def window(b: int, owners) -> np.ndarray:
        """Rows starts[b] .. starts[b+1] of the segments `owners`, one per column."""
        lo, hi = starts[b], starts[b + 1]
        blk = np.zeros((hi - lo, len(owners)), dtype=np.int64)
        for c, q in enumerate(owners):
            a, e = max(lo, lead[q]), min(hi, lead[q] + len(seg[q]))
            if a < e:
                blk[a - lo:e - lo, c] = seg[q][a - lead[q]:e - lead[q]]
        return blk

    return CompactEchelon(
        n, s, g.field, transposed, perm, [starts[b + 1] - starts[b] for b in range(t)],
        [window(b, range(b * s, b * s + widths[b])) for b in range(t)],
        [window(b, carries[(b - 1) * s:b * s]) for b in range(1, t)], src_map)


def compress_echelon(g: BruhatGenerator, s: int) -> CompactEchelon:
    """Compress the lower factor of a Bruhat generator with block width s."""
    return _compress_columns(g, s, False)


def compress_echelon_upper(g: BruhatGenerator, s: int) -> CompactEchelon:
    """Same compression run on U^T; the result is flagged transposed."""
    return _compress_columns(g, s, True)


@dataclass
class CompactBruhatGenerator:
    n: int
    s: int
    field: PrimeField
    pivots: list
    lower: CompactEchelon
    upper: CompactEchelon
    R: Permutation    # leading r x r block of Q^T E^T P^T

    @property
    def rank(self) -> int:
        return len(self.pivots)

    def stored_elements(self) -> int:
        return self.lower.stored_elements() + self.upper.stored_elements()


def compact_bruhat(g: BruhatGenerator, s: int) -> CompactBruhatGenerator:
    """Compact Bruhat generator: both compressed sides plus the pivot link R."""
    lower = compress_echelon(g, s)
    upper = compress_echelon_upper(g, s)
    r = g.rank
    by_col = sorted(range(r), key=lambda k: g.pivots[k][1])
    R = Permutation(np.array(by_col, dtype=np.int64))
    return CompactBruhatGenerator(g.n, s, g.field, list(g.pivots), lower, upper, R)


def compact_to_bruhat(cb: CompactBruhatGenerator) -> BruhatGenerator:
    """Re-extract the per-pivot segments, each read column by column from
    the D and S blocks of its side; the one decoder of the compact format.

    Densifying the result applies Left() to L E^T U; the plain product
    (D_L + S_L T_L) R (D_U + T_U S_U) needs that projection too (erratum).
    """
    col_l, col_u = _column_reader(cb.lower), _column_reader(cb.upper)
    at_l = {j: q for q, j in enumerate(cb.lower.ech_cols.tolist())}  # column j of L
    at_u = {i: q for q, i in enumerate(cb.upper.ech_cols.tolist())}  # row i of U
    lower = [col_l(at_l[j], i) for i, j in cb.pivots]
    upper = [col_u(at_u[i], j) for i, j in cb.pivots]
    return BruhatGenerator(cb.n, cb.field, list(cb.pivots), lower, upper)


# ---------------------------------------------------------------------------
# instance construction and full quasiseparable matrices


def random_qs(n: int, r_l: int, r_u: int, seed: int, field: PrimeField) -> np.ndarray:
    """Random matrix whose lower/upper orders are at most (r_l, r_u).

    Low-rank outer products are masked to the strict triangles, so the
    Definition-1 bounds hold by construction; equality with the targets is
    only a high-probability event and is never assumed by tests.
    """
    if not (0 <= r_l < max(n, 1) and 0 <= r_u < max(n, 1)):
        raise ValueError("target orders must be smaller than n")
    rng = np.random.default_rng(seed)
    p = field.p
    low = mat_mul(rng.integers(0, p, (n, r_l), dtype=np.int64),
                  rng.integers(0, p, (r_l, n), dtype=np.int64), field)
    up = mat_mul(rng.integers(0, p, (n, r_u), dtype=np.int64),
                 rng.integers(0, p, (r_u, n), dtype=np.int64), field)
    diag = rng.integers(0, p, n, dtype=np.int64)
    return (strict_lower(low) + np.diag(diag) + strict_upper(up)) % p


def random_left_triangular(n: int, s: int, seed: int, field: PrimeField) -> np.ndarray:
    """Left triangular matrix of quasiseparable order at most s."""
    rng = np.random.default_rng(seed)
    p = field.p
    X = rng.integers(0, p, (n, s), dtype=np.int64)
    Y = rng.integers(0, p, (s, n), dtype=np.int64)
    return left_part(mat_mul(X, Y, field))


REP_KINDS = ("tree", "bruhat", "compact")


@dataclass
class QsMatrix:
    """diag + two represented left triangular parts (J L and U J)."""

    n: int
    field: PrimeField
    rep_kind: str
    diag: np.ndarray
    lower: object   # representation of J_n @ strict_lower(M)
    upper: object   # representation of strict_upper(M) @ J_n


def _represent(A: np.ndarray, kind: str, field: PrimeField,
               counter: OpCounter | None):
    if kind == "tree":
        return tree_generator(A, field, counter)
    g = lt_bruhat(A, field, counter)
    if kind == "bruhat":
        return g
    s = qs_order(g.pivots, g.n)
    return compact_bruhat(g, s)


def qs_from_dense(M: np.ndarray, rep_kind: str, field: PrimeField,
                  counter: OpCounter | None = None) -> QsMatrix:
    """Split a square matrix into diagonal plus two represented triangles."""
    if rep_kind not in REP_KINDS:
        raise ValueError(f"rep_kind must be one of {REP_KINDS}")
    n = M.shape[0]
    if M.shape != (n, n):
        raise ValueError("qs_from_dense expects a square matrix")
    M = np.asarray(M, dtype=np.int64) % field.p
    low = reverse_rows(strict_lower(M))
    up = reverse_cols(strict_upper(M))
    return QsMatrix(n, field, rep_kind, M.diagonal().copy(),
                    _represent(low, rep_kind, field, counter),
                    _represent(up, rep_kind, field, counter))
