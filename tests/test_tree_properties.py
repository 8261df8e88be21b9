"""Property test: the tree generator is exact and stores what the full
split would, however far its full-rank subtrees collapse."""

import numpy as np
from hypothesis import given, settings, strategies as st

from quasisep import (PrimeField, left_part, matvec_tree,
                      random_left_triangular, reconstruct, tree_generator)
from quasisep.generators import TreeLeaf
from quasisep.textio import format_tree, parse_tree

from util import dense_matvec, high_rank_left_triangular, split_tree_storage

FIELDS = [PrimeField(p) for p in (2, 3, 65521, 2**31 - 1)]
FAMILIES = ("random", "banded", "tridiagonal", "sparse", "corner", "zero")


@st.composite
def instances(draw):
    """(field, A, leaf_size) for a left triangular A from one family."""
    f = draw(st.sampled_from(FIELDS))
    n = draw(st.integers(0, 70))
    family = draw(st.sampled_from(FAMILIES))
    seed = draw(st.integers(0, 2**31 - 1))
    rng = np.random.default_rng(seed)
    if family == "random":
        A = random_left_triangular(n, draw(st.integers(0, max(0, n - 1))), seed, f)
    elif family == "banded":
        A = high_rank_left_triangular(n, 0, draw(st.integers(1, 4)), seed, f)
    elif family == "tridiagonal":   # J times the strict lower part of one
        i = np.arange(max(n - 1, 0))
        A = np.zeros((n, n), dtype=np.int64)
        A[n - 2 - i, i] = rng.integers(1, f.p, len(i))
    elif family == "sparse":
        A = left_part(np.where(rng.random((n, n)) < 0.1,
                               rng.integers(0, f.p, (n, n), dtype=np.int64), 0))
    elif family == "corner":      # a rank-k block in the top-left corner
        m = draw(st.integers(0, n))
        A = np.zeros((n, n), dtype=np.int64)
        A[:m, :m] = random_left_triangular(m, draw(st.integers(0, max(0, m - 1))), seed, f)
        A = left_part(A)
    else:
        A = np.zeros((n, n), dtype=np.int64)
    return f, A, draw(st.sampled_from((1, 2, 4)))


def _no_collapsible_node(node) -> bool:
    if isinstance(node, TreeLeaf):
        return True
    leaves = isinstance(node.top_right, TreeLeaf) and isinstance(node.bottom_left, TreeLeaf)
    return not (leaves and node.pluq.r == node.pluq.m) \
        and _no_collapsible_node(node.top_right) and _no_collapsible_node(node.bottom_left)


@settings(max_examples=150, derandomize=True, deadline=None, database=None)
@given(instances())
def test_tree_properties(case):
    f, A, leaf_size = case
    n = A.shape[0]
    g = tree_generator(A, f, leaf_size=leaf_size)
    assert np.array_equal(reconstruct(g), A)
    x = np.random.default_rng(n).integers(0, f.p, n, dtype=np.int64)
    assert np.array_equal(matvec_tree(g, x), dense_matvec(A, x, f))
    text = format_tree(g)
    back = parse_tree(text)
    assert format_tree(back) == text
    assert np.array_equal(reconstruct(back), A)
    assert g.stored_elements() == split_tree_storage(A, f, leaf_size)
    assert _no_collapsible_node(g.root)
