import numpy as np
import pytest

from quasisep import (compact_bruhat, lt_bruhat, random_left_triangular,
                      reconstruct, tree_generator)
from quasisep.textio import (ParseError, format_bruhat, format_compact,
                             format_tree, parse_generator, parse_matrix,
                             parse_tree)

from util import F65521


def _tree_text(n):
    A = random_left_triangular(n, 2, n, F65521)
    A[n - 2, 0] = 1             # nonzero in the last row of the left region
    return A, format_tree(tree_generator(A, F65521))


def test_tree_header_must_match_root_size():
    A, text = _tree_text(8)
    assert text.startswith("TREE 8 65521 4\n")
    assert np.array_equal(reconstruct(parse_tree(text)), A)
    # the root NODE 4 is the 4 x 4 block of an 8 x 8 tree: read as n x n its
    # block leaves the region or the node (n = 4, 0), its leaves no longer
    # have the shapes the root implies (n = 20, 16), or n is negative
    for n in ("20", "16", "4", "0", "-8"):
        with pytest.raises(ParseError):
            parse_tree(text.replace("TREE 8", f"TREE {n}", 1))


def test_tree_header_cannot_crop_the_matrix():
    # the root's 4 x 4 block lies outside the left region i + j <= n - 2
    # of a 5 x 5 or 7 x 7 matrix
    _, text = _tree_text(8)
    for n in (5, 7):
        with pytest.raises(ParseError):
            parse_tree(text.replace("TREE 8", f"TREE {n}", 1))


def test_padded_tree_roundtrip():
    for n in (2, 3, 5, 7, 33, 100, 257, 300):
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


# Hand-written TREE texts over F_5 with leaf size 1; a zero node has
# identity permutations and rank 0.

def _node(h):
    ids = " ".join(str(k) for k in range(h))
    return [f"NODE {h} 0", ids, ids, "", ""]


def _leaf(a, b, vals=None):
    return [f"LEAF {a}", " ".join(str(v) for v in (vals or [0] * (a * b)))]


def _tree(n, *parts):
    return "\n".join([f"TREE {n} 5 1"] + [line for part in parts for line in part]) + "\n"


def test_tree_node_rank_above_its_block_size():
    text = _tree(2, ["NODE 1 2", "0", "0", "1 1", "1 1"], _leaf(1, 1), _leaf(1, 1))
    with pytest.raises(ParseError):
        parse_tree(text)


def test_tree_node_block_outside_its_region():
    # the 2 x 2 top-right child of a 4 x 4 root has region i + j <= 0
    text = _tree(4, _node(2), _node(2), _leaf(1, 1), _leaf(1, 1), _leaf(2, 2))
    with pytest.raises(ParseError):
        parse_tree(text)


def test_tree_node_block_larger_than_its_node():
    # 16 x 16 root split at 8; its 8 x 8 top-right child split at 1 leaves
    # a 1 x 7 child with region i + j <= 5, which a 2 x 2 block cannot fit
    text = _tree(16, _node(8), _node(1), _node(2), _leaf(1, 1), _leaf(1, 1),
                 _leaf(1, 1), _leaf(1, 1))
    with pytest.raises(ParseError):
        parse_tree(text)


def test_tree_leaf_row_count_negative_or_wrong():
    for text in (_tree(4, _node(2), _leaf(1, 1), _leaf(2, 2)),
                 _tree(2, ["LEAF -1", "0"])):
        with pytest.raises(ParseError):
            parse_tree(text)


def test_tree_leaf_entry_outside_its_region():
    text = _tree(4, _node(2), _leaf(2, 2, [0, 1, 0, 0]), _leaf(2, 2))
    with pytest.raises(ParseError):
        parse_tree(text)


def test_tree_permutation_lines_raise_parse_error():
    for bad in (["NODE 1 0", "1", "0", "", ""], ["NODE 1 0", "0", "3", "", ""]):
        with pytest.raises(ParseError):
            parse_tree(_tree(2, bad, _leaf(1, 1), _leaf(1, 1)))


def test_compact_permutation_lines_raise_parse_error():
    g = lt_bruhat(random_left_triangular(8, 2, 3, F65521), F65521)
    lines = format_compact(compact_bruhat(g, 2)).splitlines()
    perm = lines[1].split()
    lines[1] = " ".join([perm[1]] + perm[1:])      # a repeated image
    with pytest.raises(ParseError):
        parse_generator("\n".join(lines) + "\n")


def test_compact_pivot_past_the_region_is_named():
    # echelon orders that put the one pivot at (3, 3) of a 4 x 4 would give
    # its segments a negative length; the loader names the pivot instead
    text = "COMPACT 4 5 1 1 1\n3 1 2 0\n4\n1 0 0 0\n0\n3 1 2 0\n4\n1 0 0 0\n0\n0\n"
    with pytest.raises(ParseError, match=r"pivot \(3, 3\) outside the left region"):
        parse_generator(text)


def _compact_lines():
    # s = 4, r = 36, t = 9: the lower side's src_map is line 2 t + 2
    from util import high_rank_left_triangular
    A = high_rank_left_triangular(40, 2, 2, 3, F65521)
    text = format_compact(compact_bruhat(lt_bruhat(A, F65521), 4))
    assert text.startswith("COMPACT 40 65521 4 36 9\n")
    assert np.array_equal(reconstruct(parse_generator(text)), A)
    return text.splitlines()


def test_compact_relocation_map_is_checked():
    lines = _compact_lines()
    src_map = lines[20].split()
    assert src_map[4:6] == ["0", "1"]          # columns 4, 5 parked from 0, 1
    # out of range (a wrong matrix or an IndexError before), not from the
    # block column to the left, and one source moved twice
    for k, v in ((0, "35"), (0, "-3"), (0, "41"), (5, "0")):
        bad = list(src_map)
        bad[k] = v
        text = "\n".join(lines[:20] + [" ".join(bad)] + lines[21:]) + "\n"
        with pytest.raises(ParseError):
            parse_generator(text)


def test_compact_stray_entries_raise_parse_error():
    # a nonzero that no column read covers used to parse and be dropped,
    # so the corrupted text reconstructed the original matrix
    g = lt_bruhat(random_left_triangular(12, 2, 3, F65521), F65521)
    small = format_compact(compact_bruhat(g, 2)).splitlines()
    chained = _compact_lines()
    # the lower D block's row 11, past column 1's segment end at row 10;
    # then row 3 of the lower S_1 (line 12, 4 x 4) in a column whose
    # relocation chain ends above it
    for lines, at, k in ((small, 3, 23), (chained, 12, 15)):
        vals = lines[at].split()
        assert vals[k] == "0"
        vals[k] = "5"
        text = "\n".join(lines[:at] + [" ".join(vals)] + lines[at + 1:]) + "\n"
        with pytest.raises(ParseError):
            parse_generator(text)


def test_compact_header_block_count_must_fit_rank():
    lines = _compact_lines()
    for head in ("COMPACT 40 65521 0 36 9", "COMPACT 40 65521 4 41 9",
                 "COMPACT 40 65521 5 36 9"):
        with pytest.raises(ParseError):
            parse_generator("\n".join([head] + lines[1:]) + "\n")


def test_generator_texts_reject_trailing_content():
    A = random_left_triangular(8, 2, 3, F65521)
    g = lt_bruhat(A, F65521)
    for text in (format_tree(tree_generator(A, F65521)), format_bruhat(g),
                 format_compact(compact_bruhat(g, 2))):
        assert np.array_equal(reconstruct(parse_generator(text)), A)
        with pytest.raises(ParseError):
            parse_generator(text + "JUNK\n")


def test_bruhat_header_negative_size_or_rank():
    for head in ("BRUHAT -5 65521 0", "BRUHAT 5 65521 -1"):
        with pytest.raises(ParseError):
            parse_generator(head + "\n")


def test_tree_node_factors_must_have_pluq_form():
    _, text = _tree_text(8)
    lines = text.splitlines()
    h, r = (int(v) for v in lines[1].split()[1:])
    assert (h, r) == (4, 2)
    L = [int(v) for v in lines[4].split()]     # h x r, row-major
    U = [int(v) for v in lines[5].split()]     # r x h
    assert L[0] == 1 and U[0] != 0
    # L[0, 0] not 1, L[0, 1] above the diagonal, U[1, 0] below it, U[0, 0] zero
    for row, k, v in ((4, 0, 7), (4, 1, 1), (5, h, 1), (5, 0, 0)):
        bad = L if row == 4 else U
        bad = bad[:k] + [v] + bad[k + 1:]
        edited = list(lines)
        edited[row] = " ".join(str(x) for x in bad)
        with pytest.raises(ParseError):
            parse_tree("\n".join(edited) + "\n")


def test_bad_header_modulus_raises_parse_error():
    A = random_left_triangular(8, 2, 3, F65521)
    g = lt_bruhat(A, F65521)
    for text in (format_tree(tree_generator(A, F65521)), format_bruhat(g),
                 format_compact(compact_bruhat(g, 2))):
        kind = text.split(" ", 1)[0]
        # not prime, below 2, at or above 2**31
        for p in ("4", "1", "0", "-7", str(2**31 + 11)):
            with pytest.raises(ParseError):
                parse_generator(text.replace(f"{kind} 8 65521", f"{kind} 8 {p}", 1))
    with pytest.raises(ParseError):
        parse_generator("BRUHAT 5 4 0\n")
    for text in ("2 2 4\n1 2\n3 0\n", "2 2 1\n0 0\n0 0\n"):
        with pytest.raises(ParseError):
            parse_matrix(text)


def test_matrix_text_rejects_trailing_content():
    for text in ("2 2 5\n1 2\n3 4\n", "2 2 5\n1 2\n3 4"):
        A, f = parse_matrix(text)
        assert A.tolist() == [[1, 2], [3, 4]] and f.p == 5
    for text in ("2 2 5\n1 2\n3 4\nJUNK\n", "2 2 5\n1 2\n3 4\n5 6\n",
                 "2 2 5\n1 2\n3 4\n\n", "-1 2 5\n", "2 -1 5\n\n\n"):
        with pytest.raises(ParseError):
            parse_matrix(text)


def test_compact_zeroed_leading_entries_raise_parse_error():
    # a lower segment's leading 1 (first D entry of the lower side) or an
    # upper segment's leading nonzero (first D entry of the upper side,
    # line 2 t + 5) set to 0 used to parse and reconstruct another matrix
    g = lt_bruhat(random_left_triangular(12, 2, 3, F65521), F65521)
    text = format_compact(compact_bruhat(g, 2))
    lines = text.splitlines()
    t = int(lines[0].split()[5])
    for at in (3, 2 * t + 5):
        vals = lines[at].split()
        assert vals[0] != "0"
        vals[0] = "0"
        with pytest.raises(ParseError):
            parse_generator("\n".join(lines[:at] + [" ".join(vals)] + lines[at + 1:]) + "\n")


def test_bruhat_invalid_structure_raises_parse_error():
    # pivots in one row, and a lower segment that does not lead with 1,
    # used to raise a bare ValueError
    for text in ("BRUHAT 4 5 2\n0 0\n1 2 3\n1 1 1\n0 1\n1 2\n1 1\n",
                 "BRUHAT 4 5 1\n0 0\n2 2 3\n1 1 1\n"):
        with pytest.raises(ParseError):
            parse_generator(text)


def test_integers_beyond_int64_raise_parse_error():
    # a permutation or relocation entry past int64 raised a bare OverflowError
    A = random_left_triangular(12, 2, 3, F65521)
    g = lt_bruhat(A, F65521)
    compact = format_compact(compact_bruhat(g, 2)).splitlines()
    tree = format_tree(tree_generator(A, F65521)).splitlines()
    t = int(compact[0].split()[5])
    for lines, at in ((compact, 1), (compact, 2 * t + 2), (compact, -1), (tree, 2)):
        for big in (str(2**70), str(-2**70)):
            bad = list(lines)
            bad[at] = " ".join([big] + bad[at].split()[1:])
            with pytest.raises(ParseError):
                parse_generator("\n".join(bad) + "\n")


def test_tree_header_leaf_size_below_one():
    _, text = _tree_text(8)
    for leaf in ("0", "-7"):
        with pytest.raises(ParseError):
            parse_tree(text.replace("TREE 8 65521 4", f"TREE 8 65521 {leaf}", 1))


def _token_mutations(text):
    """text with one integer token set to 0, 1 or its value plus one."""
    lines = text.split("\n")
    for a, line in enumerate(lines):
        tok = line.split(" ")
        for k, v in enumerate(tok):
            if not v.lstrip("-").isdigit():
                continue
            for new in sorted({"0", "1", str(int(v) + 1)} - {v}):
                yield "\n".join(lines[:a] + [" ".join(tok[:k] + [new] + tok[k + 1:])]
                                + lines[a + 1:])


def test_single_token_mutations_raise_parse_error_or_validate():
    from util import F2, high_rank_left_triangular
    texts = []
    for A, f, s in ((random_left_triangular(12, 2, 3, F65521), F65521, 2),
                    (high_rank_left_triangular(14, 1, 2, 1, F65521), F65521, 3),
                    (high_rank_left_triangular(10, 2, 2, 4, F2), F2, 3)):
        g = lt_bruhat(A, f)
        texts += [format_bruhat(g), format_compact(compact_bruhat(g, s))]
    texts.append(_tree_text(9)[1])
    assert "COMPACT 14 65521 3 11 4" in texts[3]        # relocations chain: 6 <- 3 <- 0
    count = 0
    for text in texts:
        for bad in _token_mutations(text):
            count += 1
            try:
                g = parse_generator(bad)
            except ParseError:
                continue
            if not bad.startswith("TREE"):
                g.validate()
    assert count > 300
