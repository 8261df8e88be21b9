"""Rank-structured representations of left triangular matrices.

Three representations are built here.  Each represents the left part of
any square input and reads nothing outside it, so a caller passes the
triangles of M as the reversed views M[::-1] and M[:, ::-1]:

* a binary tree of PLUQ decompositions, split as the elimination in
  `orders`: a node is an a x b block with left region i + j <= c (the
  root is n x n with c = n - 2); it factors its top-left h x h block,
  h = floor((c + 2) / 2), and recurses on the h x (b - h) top-right and
  (a - h) x h bottom-left blocks, each with region c - h.  A block whose
  h x h block has full rank and whose children are both leaves is
  stored as one dense leaf, so leaves grow to about twice the order on
  random inputs at the same stored count.  That is decided bottom up
  before anything is factored: one stacked exact rank test per depth
  for h up to `pluq._ROW_BASE`, `pluq_rpm` alone above it, and only the
  blocks that stay nodes are factored,
* the sparse (L, E, U) triple made of the left parts of the permuted
  PLUQ factors, each factor's pivot segments end to end in one array,
* its block compression into a block-diagonal D plus sub-diagonal S with
  a column-relocation map T and an echelon permutation, each side's blocks
  column by column in one flat array.  Every rule of that layout lives
  here: `CompactEchelon.columns` says where each D or S column starts and
  which segment it holds, `_runs` turns it into 1-D slice copies between
  the two flat arrays, which the packer and the decoder make in opposite
  directions, and `CompactBruhatGenerator.validate` checks against it.

`random_qs` fabricates quasiseparable test instances and `qs_from_dense`
splits a full matrix into diagonal plus two represented triangles.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from .field import (OpCounter, Permutation, PrimeField, left_part, mat_mul,
                    region_mask, residues, strict_lower, strict_upper)
from .orders import _left_elimination, qs_order
from .pluq import _ROW_BASE, PluqDecomposition, pluq_rpm


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
    """A tree of PLUQ nodes and dense leaves.  `groups`, derived once on
    construction, is what `structops` applies the tree from."""

    n: int          # represented size
    root: "TreeNode | TreeLeaf"
    field: PrimeField
    leaf_size: int

    def __post_init__(self):
        """Group the tree's blocks by depth and factor shapes.

        Each group is (factors, r0, c0): the i-th block sits at rows
        r0[i] .., columns c0[i] .. of the represented matrix and equals
        factors[0][i] @ factors[1][i] for a node, its P L (h x r) and U Q
        (r x h) with the permutations folded in, or factors[0][i] for a
        leaf.  The blocks at one depth lie in subtrees that tile the rows
        and the columns, so within a group no two blocks share a row or a
        column.  Rank-0 nodes and empty leaves hold nothing to apply and
        are left out.
        """
        found = {}
        stack = [(self.root, 0, 0, 0)]
        while stack:
            node, depth, i, j = stack.pop()
            if isinstance(node, TreeLeaf):
                factors = (node.block,) if node.block.size else ()
            else:
                d = node.pluq
                factors = (d.P.apply_rows(d.L), d.Q.apply_cols(d.U)) if d.r else ()
                stack += [(node.top_right, depth + 1, i, j + d.m),
                          (node.bottom_left, depth + 1, i + d.m, j)]
            if factors:
                key = (depth,) + tuple(f.shape for f in factors)
                found.setdefault(key, []).append((factors, i, j))
        self.groups = [(tuple(map(np.stack, zip(*(f for f, _, _ in members)))),
                        np.array([i for _, i, _ in members], dtype=np.int64),
                        np.array([j for _, _, j in members], dtype=np.int64))
                       for members in found.values()]

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
    """Binary-tree PLUQ representation of the left triangular part of A.

    Like `lt_bruhat`, it reads A only inside the left region, on views:
    a node's h x h block lies inside it and `pluq_rpm` reduces it, and a
    leaf reduces its block with everything outside its region set to 0.
    A block of at most leaf_size rows and columns is never split.  A
    split block whose h x h block has full rank and whose children are
    leaves becomes one leaf of its whole a x b block, so a subtree that is
    full rank all the way down is one leaf.  That stores the same: the
    node's 2*h*r - r**2 = h**2 entries are the h x h block, which lies
    inside the region since 2h - 2 <= c, and the (a - h) x (b - h) block
    it leaves out lies outside it since 2h > c, so the leaf's region slots
    are the node's entries plus its children's.  Fewer, larger leaves
    leave fewer blocks to apply.

    The blocks of one depth share c, and so h.  The collapses are decided
    bottom up, one depth at a time, before anything is factored: the
    candidates are the split blocks whose children are both leaves, and
    their h x h blocks take one stacked rank test, `_full_rank`, while h
    is at most `_ROW_BASE`.  A larger candidate is factored alone by
    `pluq_rpm`, and that factorization serves its node if it is not full
    rank.  Then the nodes are factored top down, so that the temporaries
    of the large factorizations never sit beside a built tree, and the
    tree is put together bottom up.  Only the blocks that stay nodes are
    factored, each once, and only the final leaves are built.
    """
    n = A.shape[0]
    if A.shape != (n, n):
        raise ValueError("tree_generator expects a square matrix")
    if leaf_size < 1:
        raise ValueError("leaf_size must be positive")

    def leaf(B: np.ndarray, c: int) -> TreeLeaf:
        return TreeLeaf(np.where(region_mask(*B.shape, c), residues(B, field), 0))

    levels = [([A], n - 2)]        # each depth's blocks, as views of A, and c
    kids = []          # per depth: where block k's two children start one depth down
    while True:
        blocks, c = levels[-1]
        h = (c + 2) // 2
        below, at = [], []
        for B in blocks:
            split = max(B.shape) > leaf_size
            at.append(len(below) if split else None)
            below += [B[:h, h:], B[h:, :h]] if split else []
        kids.append(at)
        if not below:
            break
        levels.append((below, c - h))

    leafy = [[j is None for j in at] for at in kids]
    pluqs = {}         # (depth, k): the factorization of a block that stays a node
    for d in reversed(range(len(levels))):
        blocks, c = levels[d]
        h = (c + 2) // 2
        cand = [k for k, j in enumerate(kids[d])
                if j is not None and leafy[d + 1][j] and leafy[d + 1][j + 1]]
        if h <= _ROW_BASE:
            full = _full_rank([blocks[k][:h, :h] for k in cand], field, counter) if cand else []
        else:
            tried = [pluq_rpm(blocks[k][:h, :h], field, counter) for k in cand]
            full = [t.r == h for t in tried]
            pluqs.update(((d, k), t) for k, t in zip(cand, tried) if t.r < h)
        for k, f in zip(cand, full):
            leafy[d][k] = bool(f)

    for d, (blocks, c) in enumerate(levels):   # top down: the large ones while little is built
        h = (c + 2) // 2
        for k, B in enumerate(blocks):
            if not (leafy[d][k] or (d, k) in pluqs):
                pluqs[d, k] = pluq_rpm(B[:h, :h], field, counter)

    made = []          # the depth below's blocks: a TreeNode, or None for a leaf
    for d in reversed(range(len(levels))):
        blocks, c = levels[d]
        h = (c + 2) // 2
        below, made = made, []
        for k, B in enumerate(blocks):
            j = kids[d][k]
            made.append(None if leafy[d][k] else TreeNode(
                pluqs[d, k], below[j] or leaf(B[:h, h:], c - h),
                below[j + 1] or leaf(B[h:, :h], c - h)))
    return TreeGenerator(n, made[0] or leaf(A, n - 2), field, leaf_size)


def _full_rank(blocks, field: PrimeField,
               counter: OpCounter | None = None) -> np.ndarray:
    """Which of N k x k blocks, a list or an N x k x k stack, have rank k mod p.

    An exact elimination of all the blocks at once, on one reduced stack
    of their own: at step t each live block brings its first row from t on
    with a nonzero in column t up to row t, or has rank below k and drops
    out.  The rows below take the fraction-free update row * pivot -
    row[t] * pivot row on the columns after t, with no inverse; both
    products of reduced entries stay below 2**62.  Only the trailing
    block is carried on, and copied only when blocks drop out.  It stops
    once no block is left, and counts 2 m**2 multiplications and m**2
    additions per live block at a step that leaves an m x m block.
    """
    p = field.p
    W = np.stack(blocks).astype(np.int64, copy=False)
    W %= p
    full = np.zeros(len(W), dtype=bool)
    live = np.arange(len(W))
    while W.shape[1]:           # W holds the live blocks' trailing blocks
        nz = W[:, :, 0] != 0
        has = nz.any(axis=1)
        if not has.all():
            live, W, nz = live[has], W[has], nz[has]
            if not len(live):
                return full
        at = np.arange(len(live))
        rows = nz.argmax(axis=1)            # the first row with a nonzero
        pivot = W[at, rows]                 # a copy, so row 0 may take its place
        W[at, rows] = W[:, 0]
        col, W = W[:, 1:, :1], W[:, 1:, 1:]
        m = W.shape[1]
        if m:
            W *= pivot[:, None, :1]
            W -= col * pivot[:, None, 1:]
            W %= p
            if counter is not None:
                counter.muls += 2 * m * m * len(live)
                counter.adds += m * m * len(live)
    full[live] = True
    return full


def tree_dense(g: TreeGenerator, counter: OpCounter | None = None) -> np.ndarray:
    """Densify a tree generator from its groups: one stacked `mat_mul` of
    P L by U Q per group of nodes, and the leaves as they are, each block
    scattered into its place."""
    out = np.zeros((g.n, g.n), dtype=np.int64)
    for factors, r0, c0 in g.groups:
        B = mat_mul(*factors, g.field, counter) if len(factors) == 2 else factors[0]
        h, w = B.shape[1:]
        out[r0[:, None, None] + np.arange(h)[:, None], c0[:, None, None] + np.arange(w)] = B
    return out


# ---------------------------------------------------------------------------
# Bruhat generator


@dataclass
class BruhatGenerator:
    """Sparse triple (L, E, U) of the left parts of a profile-revealing PLUQ.

    For the pivot at (i, j) (0-based), the lower segment holds column j of
    L on rows i .. n-j-2 and the upper segment holds row i of U on columns
    j .. n-i-2; both have length n - i - j - 1 and the lower one leads with 1.
    `lower` and `upper` hold them end to end in pivot order, k's from offsets[k];
    `rows` and `cols` are the pivots' rows and columns as arrays.
    """

    n: int
    field: PrimeField
    pivots: list                  # 0-based, sorted by row
    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):     # a pivot past the left region gets an empty segment
        self.rows, self.cols = np.array(self.pivots, dtype=np.int64).reshape(-1, 2).T
        self.offsets = np.cumsum(np.r_[0, np.maximum(self.n - 1 - self.rows - self.cols, 0)])

    @property
    def rank(self) -> int:
        return len(self.pivots)

    @property
    def lower_segs(self) -> list:
        """Each pivot's lower segment, a view of `lower`."""
        return np.split(self.lower, self.offsets[1:])[:-1]

    @property
    def upper_segs(self) -> list:
        """Each pivot's upper segment, a view of `upper`."""
        return np.split(self.upper, self.offsets[1:])[:-1]

    def stored_elements(self) -> int:
        return self.lower.size + self.upper.size

    def nnz_lower(self) -> int:
        return int(np.count_nonzero(self.lower))

    def nnz_upper(self) -> int:
        return int(np.count_nonzero(self.upper))

    def validate(self) -> None:
        if sorted(self.pivots) != self.pivots:
            raise ValueError("pivots must be sorted by row")
        if len(set(self.rows.tolist())) != self.rank or len(set(self.cols.tolist())) != self.rank:
            raise ValueError("pivot rows/columns must be distinct")
        for i, j in self.pivots:
            if i + j > self.n - 2 or i < 0 or j < 0:
                raise ValueError(f"pivot {(i, j)} outside the left region")
        if len(self.lower) != self.offsets[-1] or len(self.upper) != self.offsets[-1]:
            raise ValueError("segment length mismatch")
        if not self.rank:
            return
        heads = self.offsets[:-1]     # every segment is nonempty
        if (self.lower[heads] != 1).any():
            raise ValueError("lower segment must lead with 1")
        if (self.upper[heads] == 0).any():
            raise ValueError("upper segment must lead with a nonzero")
        if not all(0 <= v.min() and v.max() < self.field.p for v in (self.lower, self.upper)):
            raise ValueError("segment value out of range")


def _from_segments(n: int, field: PrimeField, found) -> BruhatGenerator:
    """The generator of (i, j, lower segment, upper segment) per pivot, in pivot order."""
    flat = [np.concatenate([np.zeros(0, np.int64), *(f[k] for f in found)]) for k in (2, 3)]
    return BruhatGenerator(n, field, [(i, j) for i, j, _, _ in found], *flat)


def lt_bruhat(A: np.ndarray, field: PrimeField,
              counter: OpCounter | None = None) -> BruhatGenerator:
    """Bruhat generator of the left triangular part of A.

    Shares the elimination of `orders.lt_rpm`, which runs on A's own size:
    every pivot it finds and both segments are kept as they come.
    """
    n = A.shape[0]
    if A.shape != (n, n):
        raise ValueError("lt_bruhat expects a square matrix")
    g = _from_segments(n, field, _left_elimination(A, field, counter))
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
    one block column to the left of a.  `moves` is derived from it, and so
    is `owners`: `owners[a]` is the column a's relocation chain starts from.

    `data` holds D_1 .. D_t, then S_2 .. S_t, each block column by column,
    block b from offsets[b]; `diag_blocks` and `sub_blocks` are views of it.
    Column q of D_b holds rows starts[b] .. starts[b+1]-1 of echelon column
    q's segment, and column a of S_(b+1) (a in block column b) holds the
    next block's rows of the segment of owners[a]; the rest is zero.
    `columns` lists, for every column of D_1 .. D_t, S_2 .. S_t in turn,
    where it starts in `data`, its block's first row, the row where it
    stops holding its segment (the block's end or the segment's, whichever
    comes first) and that segment's q.
    """

    n: int
    s: int
    field: PrimeField
    transposed: bool
    perm: Permutation             # full n-permutation, echelon columns first
    block_rows: list              # k_i, i = 1..t
    data: np.ndarray
    src_map: np.ndarray

    def __post_init__(self):
        r, s, src, rows, widths = self.r, self.s, self.src_map, self.block_rows, self.widths
        moved = np.flatnonzero(src != np.arange(r))
        if ((src < 0) | (src >= r)).any() or (src[moved] // s != moved // s - 1).any() \
                or len(set(src[moved].tolist())) < len(moved):
            raise ValueError("a column relocation is out of range, not from the "
                             "block column to its left, or repeated")
        if len(rows) != len(widths) or rows and (
                sum(rows) != self.n or min(rows[:-1], default=s) < s or rows[-1] < 0):
            raise ValueError(f"block rows {rows} do not cut n = {self.n} into "
                             f"{len(widths)} blocks of at least s = {s} rows")
        self.owners = np.arange(r)
        for a in moved.tolist():      # ascending, each source to the left of its target
            self.owners[a] = self.owners[src[a]]
        sizes = [k * w for k, w in zip(rows, widths)] + [k * s for k in rows[1:]]
        self.offsets = np.cumsum([0] + sizes)          # where each block starts in data
        t, starts = self.t, np.array(list(accumulate(rows, initial=0)))
        q = np.concatenate([np.arange(r), self.owners[:max(t - 1, 0) * s]])
        j = np.arange(len(q))         # D's columns, then S's from r on
        b = np.where(j < r, j, j - r + s) // s        # the block's row
        blk, col = np.where(j < r, b, b + t - 1), np.where(j < r, j, j - r) % s
        self.columns = (self.offsets[blk] + col * (starts[b + 1] - starts[b]), starts[b],
                        np.minimum(starts[b + 1], self.n - 1 - self.ech_cols[q]), q)

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

    @property
    def diag_blocks(self) -> list:
        """D_1 .. D_t, k_i x w_i views of `data` (w_t may be ragged)."""
        o = self.offsets.tolist()
        return [self.data[o[b]:o[b + 1]].reshape(w, k).T
                for b, (k, w) in enumerate(zip(self.block_rows, self.widths))]

    @property
    def sub_blocks(self) -> list:
        """S_2 .. S_t, k_i x s views of `data`."""
        o = self.offsets.tolist()[self.t:]
        return [self.data[o[b]:o[b + 1]].reshape(self.s, k).T
                for b, k in enumerate(self.block_rows[1:])]

    def stored_elements(self) -> int:
        return self.data.size


def _runs(c: CompactEchelon, tops, at) -> zip:
    """The copies between c.data and segments laid end to end, q's from
    index at[q] and read from row tops[q]: a run (index in data, index in
    the segments, length) for each column of `c.columns` that its segment
    reaches."""
    start, first, last, q = c.columns
    top = np.asarray(tops, dtype=np.int64)[q]
    lo = np.maximum(first, top)
    keep = lo < last
    return zip(*(v[keep].tolist() for v in (start + lo - first, at[q] + lo - top, last - lo)))


def compress_echelon(g: BruhatGenerator, s: int, transposed: bool = False) -> CompactEchelon:
    """Compress the lower factor of g with block width s, or U^T when
    `transposed`: pack its columns in lead order straight from g's segments."""
    n, r = g.n, g.rank
    pairs = [(j, i) for i, j in g.pivots] if transposed else g.pivots
    order = sorted(range(r), key=lambda k: pairs[k][0])
    lead = [pairs[k][0] for k in order]
    flat, o = (g.upper if transposed else g.lower), g.offsets.tolist()
    ech_cols = np.array([pairs[k][1] for k in order], dtype=np.int64)
    rest = np.ones(n, dtype=bool)
    rest[ech_cols] = False
    perm = Permutation(np.concatenate([ech_cols, np.flatnonzero(rest)]))
    if r and s <= 0:
        raise ValueError("block width must be positive when pivots exist")
    t = len(block_widths(r, s))
    starts = [0] + [lead[b * s] for b in range(1, t)] + [n]

    # A relocation only asks of a column the last row where it still holds
    # a nonzero, its own or one parked there.
    last = [lead[q] + int(np.flatnonzero(flat[o[k]:o[k + 1]]).max(initial=-1))
            for q, k in enumerate(order[:max(t - 1, 0) * s])]   # all but the last block column
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
            last[k], src_map[k] = last[j], j

    c = CompactEchelon(n, s, g.field, transposed, perm,
                       [starts[b + 1] - starts[b] for b in range(t)], None, src_map)
    c.data = np.zeros(c.offsets[-1], dtype=np.int64)
    for a, b, m in _runs(c, lead, g.offsets[order]):
        c.data[a:a + m] = flat[b:b + m]
    return c


@dataclass
class CompactBruhatGenerator:
    """Both compressed sides plus R, the leading r x r block of Q^T E^T P^T:
    lower echelon column k is pivot k (pivots sorted by row) and upper
    echelon column q is pivot R(q)."""

    n: int
    s: int
    field: PrimeField
    lower: CompactEchelon
    upper: CompactEchelon
    R: Permutation

    @property
    def rank(self) -> int:
        return self.lower.r

    @property
    def pivots(self) -> list:
        """(row, column) of each pivot, read off the two echelon orders."""
        rows = np.empty(self.rank, dtype=np.int64)
        rows[self.R.img] = self.upper.ech_cols
        return list(zip(rows.tolist(), self.lower.ech_cols.tolist()))

    def stored_elements(self) -> int:
        return self.lower.stored_elements() + self.upper.stored_elements()

    def validate(self) -> None:
        """Raise ValueError unless the generator decodes to a valid Bruhat
        generator whose segments pack back into exactly these blocks."""
        g = compact_to_bruhat(self)
        g.validate()
        # the decoder reads each stored entry at most once, into a slot of
        # its own, so a nonzero it never reads leaves the blocks with more
        # nonzeros than the segments
        if np.count_nonzero(self.lower.data) + np.count_nonzero(self.upper.data) \
                != g.nnz_lower() + g.nnz_upper():
            raise ValueError("a nonzero D or S entry lies outside every segment")


def compact_bruhat(g: BruhatGenerator, s: int) -> CompactBruhatGenerator:
    """Compact Bruhat generator: both compressed sides plus the pivot link R."""
    lower = compress_echelon(g, s)
    upper = compress_echelon(g, s, transposed=True)
    by_col = sorted(range(g.rank), key=lambda k: g.pivots[k][1])
    return CompactBruhatGenerator(g.n, s, g.field, lower, upper, Permutation(by_col))


def compact_to_bruhat(cb: CompactBruhatGenerator) -> BruhatGenerator:
    """Copy each side's D and S blocks back into flat segments, one slice
    per run; the one decoder of the compact format.  Pivot (i, j) reads
    L's column j from row i and U's row i from column j.

    Densifying the result applies Left() to L E^T U; the plain product
    (D_L + S_L T_L) R (D_U + T_U S_U) needs that projection too (erratum).
    """
    g = BruhatGenerator(cb.n, cb.field, cb.pivots, None, None)
    g.lower, g.upper = np.zeros((2, g.offsets[-1]), dtype=np.int64)
    R = cb.R.img
    for flat, c, tops, at in ((g.lower, cb.lower, g.rows, g.offsets),
                              (g.upper, cb.upper, g.cols[R], g.offsets[R])):
        for a, b, m in _runs(c, tops, at):
            flat[b:b + m] = c.data[a:a + m]
    return g


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
               counter: OpCounter | None = None):
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
    # every kind reads only its input's left region: pass J M and M J as views
    return QsMatrix(n, field, rep_kind, residues(M.diagonal(), field).copy(),
                    _represent(M[::-1], rep_kind, field, counter),
                    _represent(M[:, ::-1], rep_kind, field, counter))
