import numpy as np
import pytest

from quasisep import (compact_bruhat, lt_bruhat, random_left_triangular,
                      reconstruct, tree_generator)
from quasisep.textio import (ParseError, format_bruhat, format_compact,
                             format_tree, parse_generator, parse_tree)

from util import F65521


def _tree_text(n):
    A = random_left_triangular(n, 2, n, F65521)
    A[n - 2, 0] = 1             # nonzero in the last row of the left region
    return A, format_tree(tree_generator(A, F65521))


def test_tree_header_must_match_root_size():
    A, text = _tree_text(8)
    assert text.startswith("TREE 8 65521 4\n")
    assert np.array_equal(reconstruct(parse_tree(text)), A)
    for n in ("20", "16", "4", "0", "-8"):      # next_pow2(n) is not 8
        with pytest.raises(ParseError):
            parse_tree(text.replace("TREE 8", f"TREE {n}", 1))


def test_tree_header_cannot_crop_the_matrix():
    # TREE 5 and TREE 7 name the right root size, but the 8 x 8 matrix has
    # entries outside a left triangular 5 x 5 or 7 x 7 leading block
    _, text = _tree_text(8)
    for n in (5, 7):
        with pytest.raises(ParseError):
            parse_tree(text.replace("TREE 8", f"TREE {n}", 1))


def test_padded_tree_roundtrip():
    for n in (2, 5, 7, 33):
        A, text = _tree_text(n)
        assert np.array_equal(reconstruct(parse_tree(text)), A)


def test_non_integer_headers_raise_parse_error():
    A = random_left_triangular(8, 2, 3, F65521)
    g = lt_bruhat(A, F65521)
    texts = [format_tree(tree_generator(A, F65521)), format_bruhat(g),
             format_compact(compact_bruhat(g, 2))]
    for text in texts:
        kind, rest = text.split(" ", 1)
        for bad in (f"{kind} x {rest}", f"{kind} 8.0 {rest.split(' ', 1)[1]}"):
            with pytest.raises(ParseError):
                parse_generator(bad)


def test_tree_node_lines_raise_parse_error():
    _, text = _tree_text(8)
    lines = text.splitlines()
    assert lines[1].startswith("NODE ")
    for bad in ("NODE x 1", "", "LEAF y"):
        with pytest.raises(ParseError):
            parse_tree("\n".join([lines[0], bad] + lines[2:]) + "\n")
