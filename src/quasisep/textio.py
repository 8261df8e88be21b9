"""Text formats for matrices and generators.

Matrix files: a `m n p` header line, then m rows of n base-10 residues
separated by single spaces, LF endings, no trailing whitespace and no line
after the rows.  Every loader rejects a header modulus that is not a prime
in [2, 2**31).

Generator files start with a `BRUHAT n p r`, `COMPACT n p s r t` or
`TREE n p leaf` header; indices inside are 0-based.  Loaders re-validate
the structural invariants so corrupted files are rejected or exposed, and
reject any line after the structure.  A TREE file is read top-down from
its n x n root with left region i + j <= n - 2: a `NODE h r` line factors
the node's top-left h x h block, which must lie inside the node and its
region, into a unit lower triangular L and an upper triangular U with a
nonzero diagonal, and its children are the h x (b - h) top-right and
(a - h) x h bottom-left blocks of the a x b node, each with region c - h.
A `LEAF m` line gives the leaf's row count, which must be the one its
parent implies.  A COMPACT relocation map parks each moved column one
block column to the right of its source, and no source twice, and every
nonzero D or S entry lies in some pivot's segment as the decoder reads it.
"""

from __future__ import annotations

import numpy as np

from .field import Permutation, PrimeField, region_mask
from .generators import (BruhatGenerator, CompactBruhatGenerator,
                         CompactEchelon, TreeGenerator, TreeLeaf, TreeNode,
                         block_widths, has_stray_entries)
from .pluq import PluqDecomposition


class ParseError(ValueError):
    def __init__(self, msg: str, line: int | None = None):
        self.line = line
        super().__init__(msg if line is None else f"line {line}: {msg}")


# ---------------------------------------------------------------------------
# matrices


def format_matrix(A: np.ndarray, field: PrimeField) -> str:
    m, n = A.shape
    lines = [f"{m} {n} {field.p}"]
    lines += [" ".join(str(int(v)) for v in row) for row in A]
    return "\n".join(lines) + "\n"


def parse_matrix(text: str):
    src = _Lines(text)
    m, n, p = src.next_ints(3)
    if m < 0 or n < 0:
        raise ParseError(f"negative shape {m} x {n}", 1)
    field = _field(p)
    A = np.zeros((m, n), dtype=np.int64)
    for i in range(m):
        row = src.next_ints(n)
        _check_residues(row, p, src.pos)
        A[i] = row
    src.end()
    return A, field


def write_matrix(path, A: np.ndarray, field: PrimeField) -> None:
    with open(path, "w", newline="\n") as f:
        f.write(format_matrix(A, field))


def read_matrix(path):
    with open(path) as f:
        return parse_matrix(f.read())


# ---------------------------------------------------------------------------
# shared helpers


def _ints(line: str, line_no: int) -> list:
    try:
        return [int(t) for t in line.split()]
    except ValueError:
        raise ParseError("non-integer value", line_no) from None


class _Lines:
    def __init__(self, text: str):
        self.lines = text.split("\n")
        if self.lines and self.lines[-1] == "":
            self.lines.pop()
        self.pos = 0

    def next(self) -> tuple:
        if self.pos >= len(self.lines):
            raise ParseError("unexpected end of file", self.pos + 1)
        self.pos += 1
        return self.lines[self.pos - 1], self.pos

    def next_ints(self, expect: int | None = None) -> list:
        line, no = self.next()
        vals = _ints(line, no)
        if expect is not None and len(vals) != expect:
            raise ParseError(f"expected {expect} integers, found {len(vals)}", no)
        return vals

    def end(self) -> None:
        if self.pos < len(self.lines):
            raise ParseError("content after the end of the structure", self.pos + 1)


def _header(src: _Lines, form: str) -> list:
    """The integers of a header line shaped like `form`, e.g. 'TREE n p leaf'."""
    head, no = src.next()
    tok = head.split()
    want = form.split()
    if len(tok) != len(want) or tok[0] != want[0]:
        raise ParseError(f"expected '{form}' header", no)
    return _ints(" ".join(tok[1:]), no)


def _permutation(src: _Lines, n: int) -> Permutation:
    img = src.next_ints(n)
    try:
        return Permutation(np.array(img, dtype=np.int64))
    except ValueError as e:
        raise ParseError(str(e), src.pos) from None


def _field(p: int) -> PrimeField:
    """The field of a header's modulus; a bad modulus is a parse error."""
    try:
        return PrimeField(p)
    except ValueError as e:
        raise ParseError(str(e), 1) from None


def _check_residues(vals, p: int, line_no: int) -> None:
    for v in vals:
        if not 0 <= v < p:
            raise ParseError(f"residue {v} out of range [0, {p})", line_no)


# ---------------------------------------------------------------------------
# Bruhat generator


def format_bruhat(g: BruhatGenerator) -> str:
    lines = [f"BRUHAT {g.n} {g.field.p} {g.rank}"]
    for k, (i, j) in enumerate(g.pivots):
        lines.append(f"{i} {j}")
        lines.append(" ".join(str(int(v)) for v in g.lower_segs[k]))
        lines.append(" ".join(str(int(v)) for v in g.upper_segs[k]))
    return "\n".join(lines) + "\n"


def parse_bruhat(text: str) -> BruhatGenerator:
    src = _Lines(text)
    n, p, r = _header(src, "BRUHAT n p r")
    if n < 0 or r < 0:
        raise ParseError(f"negative size {n} or rank {r}", 1)
    field = _field(p)
    pivots, lower, upper = [], [], []
    for _ in range(r):
        i, j = src.next_ints(2)
        seg_len = n - i - j - 1
        if seg_len <= 0:
            raise ParseError(f"pivot {(i, j)} outside the left region", src.pos)
        lo = src.next_ints(seg_len)
        _check_residues(lo, p, src.pos)
        up = src.next_ints(seg_len)
        _check_residues(up, p, src.pos)
        pivots.append((i, j))
        lower.append(np.array(lo, dtype=np.int64))
        upper.append(np.array(up, dtype=np.int64))
    src.end()
    order = sorted(range(r), key=lambda k: pivots[k])
    g = BruhatGenerator(n, field, [pivots[k] for k in order],
                        [lower[k] for k in order], [upper[k] for k in order])
    g.validate()
    return g


# ---------------------------------------------------------------------------
# compact Bruhat generator


def _format_echelon(c: CompactEchelon, out: list) -> None:
    out.append(" ".join(str(int(v)) for v in c.perm.img))
    out.append(" ".join(str(int(v)) for v in c.block_rows))
    for blk in c.diag_blocks:
        out.append(" ".join(str(int(v)) for v in blk.ravel()))
    for blk in c.sub_blocks:
        out.append(" ".join(str(int(v)) for v in blk.ravel()))
    out.append(" ".join(str(int(v)) for v in c.src_map))


def _parse_echelon(src: _Lines, n: int, s: int, r: int, t: int,
                   field: PrimeField, transposed: bool) -> CompactEchelon:
    perm = _permutation(src, n)
    block_rows = src.next_ints(t if t else None)
    if t == 0 and block_rows:
        raise ParseError("unexpected block rows for an empty generator", src.pos)
    if t and sum(block_rows) != n:
        raise ParseError("block rows must sum to n", src.pos)
    widths = block_widths(r, s)
    diag_blocks = []
    for b in range(t):
        k_b, w_b = block_rows[b], widths[b]
        if b < t - 1 and k_b < s:
            raise ParseError(f"block {b + 1} has {k_b} rows, needs >= {s}", src.pos)
        vals = src.next_ints(k_b * w_b)
        _check_residues(vals, field.p, src.pos)
        diag_blocks.append(np.array(vals, dtype=np.int64).reshape(k_b, w_b))
    sub_blocks = []
    for b in range(1, t):
        vals = src.next_ints(block_rows[b] * s)
        _check_residues(vals, field.p, src.pos)
        sub_blocks.append(np.array(vals, dtype=np.int64).reshape(block_rows[b], s))
    src_map = np.array(src.next_ints(r), dtype=np.int64)
    moved = np.flatnonzero(src_map != np.arange(r))
    if ((src_map < 0) | (src_map >= r)).any() \
            or (src_map[moved] // s != moved // s - 1).any() \
            or len(np.unique(src_map[moved])) < len(moved):
        raise ParseError("a column relocation is out of range, not from the "
                         "block column to its left, or repeated", src.pos)
    return CompactEchelon(n, s, field, transposed, perm, block_rows,
                          diag_blocks, sub_blocks, src_map)


def format_compact(cb: CompactBruhatGenerator) -> str:
    lines = [f"COMPACT {cb.n} {cb.field.p} {cb.s} {cb.rank} {cb.lower.t}"]
    _format_echelon(cb.lower, lines)
    _format_echelon(cb.upper, lines)
    lines.append(" ".join(str(int(v)) for v in cb.R.img))
    return "\n".join(lines) + "\n"


def parse_compact(text: str) -> CompactBruhatGenerator:
    src = _Lines(text)
    n, p, s, r, t = _header(src, "COMPACT n p s r t")
    if not 0 <= r <= n or (r and s < 1) or t != len(block_widths(r, s)):
        raise ParseError(f"{t} block columns of width {s} cannot hold {r} "
                         f"of {n} columns", 1)
    field = _field(p)
    lower = _parse_echelon(src, n, s, r, t, field, False)
    upper = _parse_echelon(src, n, s, r, t, field, True)
    R = _permutation(src, r)
    src.end()
    # Pivot (row, col) pairs follow from the two echelon orders and R:
    # the p-th column-ordered pivot has row upper.ech_cols[p] and sits at
    # row-order position R.img[p], whose column is lower.ech_cols there.
    pivots = sorted((int(upper.ech_cols[q]), int(lower.ech_cols[R.img[q]]))
                    for q in range(r))
    cb = CompactBruhatGenerator(n, s, field, pivots, lower, upper, R)
    for i, j in pivots:
        if i + j > n - 2:
            raise ParseError(f"pivot {(i, j)} outside the left region")
    # the decoder reads the segment of the pivot (i, j) from row i of L's
    # column j and from column j of U's row i
    top_lower = np.empty(r, dtype=np.int64)
    top_lower[R.img] = upper.ech_cols
    if has_stray_entries(lower, top_lower) \
            or has_stray_entries(upper, lower.ech_cols[R.img]):
        raise ParseError("a nonzero D or S entry lies outside every segment")
    return cb


# ---------------------------------------------------------------------------
# tree generator


def _format_tree_node(node, out: list) -> None:
    if isinstance(node, TreeLeaf):
        m = node.block.shape[0]
        out.append(f"LEAF {m}")
        out.append(" ".join(str(int(v)) for v in node.block.ravel()))
        return
    d = node.pluq
    out.append(f"NODE {d.m} {d.r}")
    out.append(" ".join(str(int(v)) for v in d.P.img))
    out.append(" ".join(str(int(v)) for v in d.Q.img))
    out.append(" ".join(str(int(v)) for v in d.L.ravel()))
    out.append(" ".join(str(int(v)) for v in d.U.ravel()))
    _format_tree_node(node.top_right, out)
    _format_tree_node(node.bottom_left, out)


def format_tree(g: TreeGenerator) -> str:
    lines = [f"TREE {g.n} {g.field.p} {g.leaf_size}"]
    _format_tree_node(g.root, lines)
    return "\n".join(lines) + "\n"


def _parse_tree_node(src: _Lines, field: PrimeField, a: int, b: int, c: int):
    """The a x b node with left region i + j <= c."""
    head, no = src.next()
    tok = head.split()
    if tok[:1] == ["LEAF"] and len(tok) == 2:
        m, = _ints(tok[1], no)
        if m != a:
            raise ParseError(f"leaf has {m} rows, its parent implies {a}", no)
        vals = src.next_ints(a * b)
        _check_residues(vals, field.p, src.pos)
        block = np.array(vals, dtype=np.int64).reshape(a, b)
        if block[~region_mask(a, b, c)].any():
            raise ParseError("leaf entry outside its left region", src.pos)
        return TreeLeaf(block)
    if tok[:1] == ["NODE"] and len(tok) == 3:
        h, r = _ints(" ".join(tok[1:]), no)
        if not 1 <= h <= min(a, b) or 2 * h - 2 > c:
            raise ParseError(f"{h} x {h} block does not fit the {a} x {b} "
                             f"node inside i + j <= {c}", no)
        if not 0 <= r <= h:
            raise ParseError(f"rank {r} of a {h} x {h} block", no)
        P = _permutation(src, h)
        Q = _permutation(src, h)
        lv = src.next_ints(h * r)
        _check_residues(lv, field.p, src.pos)
        uv = src.next_ints(r * h)
        _check_residues(uv, field.p, src.pos)
        L = np.array(lv, dtype=np.int64).reshape(h, r)
        U = np.array(uv, dtype=np.int64).reshape(r, h)
        if np.triu(L, 1).any() or (L.diagonal() != 1).any() \
                or np.tril(U, -1).any() or not U.diagonal().all():
            raise ParseError("node factors are not unit lower and nonsingular "
                             "upper triangular", src.pos)
        d = PluqDecomposition(P, L, U, Q, r, field)
        top_right = _parse_tree_node(src, field, h, b - h, c - h)
        bottom_left = _parse_tree_node(src, field, a - h, h, c - h)
        return TreeNode(d, top_right, bottom_left)
    raise ParseError("expected 'LEAF m' or 'NODE h r'", no)


def parse_tree(text: str) -> TreeGenerator:
    src = _Lines(text)
    n, p, leaf_size = _header(src, "TREE n p leaf")
    field = _field(p)
    if n < 0:
        raise ParseError(f"negative size {n}", 1)
    root = _parse_tree_node(src, field, n, n, n - 2)
    src.end()
    return TreeGenerator(n, root, field, leaf_size)


# ---------------------------------------------------------------------------
# dispatch


def format_generator(g) -> str:
    if isinstance(g, TreeGenerator):
        return format_tree(g)
    if isinstance(g, BruhatGenerator):
        return format_bruhat(g)
    if isinstance(g, CompactBruhatGenerator):
        return format_compact(g)
    raise TypeError(f"no serialization for {type(g).__name__}")


def parse_generator(text: str):
    head = text.split("\n", 1)[0].split()
    kind = head[0] if head else ""
    if kind == "BRUHAT":
        return parse_bruhat(text)
    if kind == "COMPACT":
        return parse_compact(text)
    if kind == "TREE":
        return parse_tree(text)
    raise ParseError(f"unknown generator header {kind!r}", 1)


def write_generator(path, g) -> None:
    with open(path, "w", newline="\n") as f:
        f.write(format_generator(g))


def read_generator(path):
    with open(path) as f:
        return parse_generator(f.read())
