"""Text formats for matrices and generators.

Matrix files: a `m n p` header line, then m rows of n base-10 residues
separated by single spaces, LF endings, no trailing whitespace and no line
after the rows.  Every loader rejects a header modulus that is not a prime
in [2, 2**31).

Generator files start with a `BRUHAT n p r`, `COMPACT n p s r t` or
`TREE n p leaf` header; indices inside are 0-based.  Loaders re-validate
the structural invariants so corrupted files are rejected or exposed, and
reject any line after the structure; any other fault in a text raises
`ParseError` too.  A TREE file is read top-down from its n x n root with
left region i + j <= n - 2 and a leaf size of at least 1: a `NODE h r`
line factors the node's top-left h x h block, which must lie inside the
node and its region, into a unit lower triangular L and an upper
triangular U with a nonzero diagonal, and its children are the h x (b - h)
top-right and (a - h) x h bottom-left blocks of the a x b node, each with
region c - h.  A `LEAF m` line gives the leaf's row count, which must be
the one its parent implies.  A BRUHAT or COMPACT text is read as written
and must then pass its generator's `validate()`; the compact layout's
rules live in `generators`, not here.
"""

from __future__ import annotations

import math

import numpy as np

from .field import Permutation, PrimeField, region_mask
from .generators import (BruhatGenerator, CompactBruhatGenerator,
                         CompactEchelon, TreeGenerator, TreeLeaf, TreeNode,
                         _from_segments, block_widths)
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
    lines += [_line(row) for row in A]
    return "\n".join(lines) + "\n"


def parse_matrix(text: str):
    src = _Lines(text)
    m, n, p = src.next_ints(3)
    if m < 0 or n < 0:
        raise ParseError(f"negative shape {m} x {n}", 1)
    field = _field(p)
    A = np.zeros((m, n), dtype=np.int64)
    for i in range(m):
        A[i] = src.residues(p, n)
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


def _line(values) -> str:
    return " ".join(map(str, np.asarray(values).ravel().tolist()))


def _ints(line: str, line_no: int) -> list:
    try:
        return list(map(int, line.split()))
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

    def residues(self, p: int, *shape: int) -> np.ndarray:
        """The next line as residues mod p, one per entry of an array of `shape`."""
        vals = self.next_ints(math.prod(shape))
        if vals and (min(vals) < 0 or max(vals) >= p):
            bad = next(v for v in vals if not 0 <= v < p)
            raise ParseError(f"residue {bad} out of range [0, {p})", self.pos)
        return np.array(vals, dtype=np.int64).reshape(shape)

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


def _checked(make, line: int | None = None):
    """make()'s result; a ValueError it raises, or an OverflowError from an
    integer beyond int64, becomes a ParseError."""
    try:
        return make()
    except (ValueError, OverflowError) as e:
        raise ParseError(str(e), line) from None


def _permutation(src: _Lines, n: int) -> Permutation:
    img = src.next_ints(n)
    return _checked(lambda: Permutation(img), src.pos)


def _field(p: int) -> PrimeField:
    """The field of a header's modulus; a bad modulus is a parse error."""
    return _checked(lambda: PrimeField(p), 1)


# ---------------------------------------------------------------------------
# Bruhat generator


def format_bruhat(g: BruhatGenerator) -> str:
    lines = [f"BRUHAT {g.n} {g.field.p} {g.rank}"]
    for (i, j), lower, upper in zip(g.pivots, g.lower_segs, g.upper_segs):
        lines += [f"{i} {j}", _line(lower), _line(upper)]
    return "\n".join(lines) + "\n"


def parse_bruhat(text: str) -> BruhatGenerator:
    src = _Lines(text)
    n, p, r = _header(src, "BRUHAT n p r")
    if n < 0 or r < 0:
        raise ParseError(f"negative size {n} or rank {r}", 1)
    field = _field(p)
    found = []
    for _ in range(r):
        i, j = src.next_ints(2)
        seg_len = n - i - j - 1
        if seg_len <= 0:
            raise ParseError(f"pivot {(i, j)} outside the left region", src.pos)
        found.append((i, j, src.residues(p, seg_len), src.residues(p, seg_len)))
    src.end()
    g = _from_segments(n, field, sorted(found, key=lambda f: f[:2]))
    _checked(g.validate)
    return g


# ---------------------------------------------------------------------------
# compact Bruhat generator


def _format_echelon(c: CompactEchelon, out: list) -> None:
    out += map(_line, [c.perm.img, c.block_rows, *c.diag_blocks, *c.sub_blocks, c.src_map])


def _parse_echelon(src: _Lines, n: int, s: int, r: int, t: int,
                   field: PrimeField, transposed: bool) -> CompactEchelon:
    perm = _permutation(src, n)
    block_rows = src.next_ints(t)
    shapes = list(zip(block_rows, block_widths(r, s))) + [(k, s) for k in block_rows[1:]]
    data = np.concatenate([np.zeros(0, dtype=np.int64)]     # each block column by column
                          + [src.residues(field.p, k, w).T.ravel() for k, w in shapes])
    src_map = src.next_ints(r)
    return _checked(lambda: CompactEchelon(n, s, field, transposed, perm, block_rows, data,
                                           np.array(src_map, dtype=np.int64)), src.pos)


def format_compact(cb: CompactBruhatGenerator) -> str:
    lines = [f"COMPACT {cb.n} {cb.field.p} {cb.s} {cb.rank} {cb.lower.t}"]
    _format_echelon(cb.lower, lines)
    _format_echelon(cb.upper, lines)
    lines.append(_line(cb.R.img))
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
    cb = CompactBruhatGenerator(n, s, field, lower, upper, R)
    _checked(cb.validate)
    return cb


# ---------------------------------------------------------------------------
# tree generator


def _format_tree_node(node, out: list) -> None:
    if isinstance(node, TreeLeaf):
        out += [f"LEAF {node.block.shape[0]}", _line(node.block)]
        return
    d = node.pluq
    out.append(f"NODE {d.m} {d.r}")
    out += map(_line, [d.P.img, d.Q.img, d.L, d.U])
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
        block = src.residues(field.p, a, b)
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
        L = src.residues(field.p, h, r)
        U = src.residues(field.p, r, h)
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
    if n < 0 or leaf_size < 1:
        raise ParseError(f"size {n} below 0 or leaf size {leaf_size} below 1", 1)
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
