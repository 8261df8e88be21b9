"""Property test: the tree generator is exact and stores what the full
split would, however far its full-rank subtrees collapse."""

import numpy as np
from hypothesis import given, settings, strategies as st

from quasisep import matvec_tree, reconstruct, tree_generator
from quasisep.generators import TreeLeaf
from quasisep.textio import format_tree, parse_tree

from util import dense_matvec, instances, split_tree_storage


def _no_collapsible_node(node) -> bool:
    if isinstance(node, TreeLeaf):
        return True
    leaves = isinstance(node.top_right, TreeLeaf) and isinstance(node.bottom_left, TreeLeaf)
    return not (leaves and node.pluq.r == node.pluq.m) \
        and _no_collapsible_node(node.top_right) and _no_collapsible_node(node.bottom_left)


@settings(max_examples=150, derandomize=True, deadline=None, database=None)
@given(instances(), st.sampled_from((1, 2, 4)))
def test_tree_properties(case, leaf_size):
    f, A = case
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
