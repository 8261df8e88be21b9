import tracemalloc
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from quasisep import (OpCounter, PrimeField, compact_bruhat, compact_to_bruhat,
                      left_part, lt_bruhat, mat, mat_mul, mat_vec,
                      matvec_bruhat, matvec_qs, matvec_tree, mul_lt_by_flat,
                      mul_lt_lt, mul_qs_qs, qs_from_dense, qs_order,
                      qs_orders_bruteforce, qs_to_dense, random_left_triangular,
                      random_matrix, random_qs, reconstruct, reverse_rows,
                      structops, tree_generator)
from quasisep.field import _is_prime
from quasisep.generators import TreeGenerator, TreeLeaf, bruhat_reconstruct
from quasisep.structops import (_BLOCK, _bruhat_slots, _bruhat_walk, _float_terms,
                                _reduce, _rep_times)
from quasisep.textio import format_tree, parse_tree

from util import (F2, F3, F5, F65521, F2147483647, band_matrix,
                  bruhat_column_walk, bruhat_triple, dense_matvec,
                  random_invertible_tridiagonal, structured_corpus)


def test_reconstruct_empty_generators():
    Z = np.zeros((6, 6), dtype=np.int64)
    for g in (tree_generator(Z, F65521), lt_bruhat(Z, F65521)):
        assert np.array_equal(reconstruct(g), Z)


def test_reconstruct_single_pivot_bruhat():
    A = mat(F5, [[3, 0], [0, 0]])
    assert np.array_equal(reconstruct(lt_bruhat(A, F5)), A)


def test_matvec_bruhat_zero_vector():
    g = lt_bruhat(random_left_triangular(10, 2, 0, F65521), F65521)
    assert np.array_equal(matvec_bruhat(g, np.zeros(10, dtype=np.int64)),
                          np.zeros(10, dtype=np.int64))


def test_matvec_bruhat_single_pivot():
    g = lt_bruhat(mat(F5, [[3, 0], [0, 0]]), F5)
    y = matvec_bruhat(g, np.array([1, 0], dtype=np.int64))
    assert y.tolist() == [3, 0]


def test_matvec_bruhat_oracle_and_cost():
    rng = np.random.default_rng(400)
    for _ in range(100):
        n = int(rng.integers(2, 48))
        A = random_left_triangular(n, int(rng.integers(1, max(2, n // 3))),
                                   int(rng.integers(0, 2**31)), F65521)
        g = lt_bruhat(A, F65521)
        x = rng.integers(0, F65521.p, n, dtype=np.int64)
        c = OpCounter()
        y = matvec_bruhat(g, x, c)
        assert np.array_equal(y, mat_vec(A, x, F65521))
        assert c.muls <= g.nnz_lower() + g.nnz_upper()


def test_matvec_bruhat_high_rank_instances():
    # rank near n with order ~4: short segments near the anti-diagonal
    from util import high_rank_left_triangular
    rng = np.random.default_rng(408)
    for seed in range(10):
        n = int(rng.integers(24, 64))
        A = high_rank_left_triangular(n, 2, 2, seed, F65521)
        g = lt_bruhat(A, F65521)
        x = rng.integers(0, F65521.p, n, dtype=np.int64)
        c = OpCounter()
        assert np.array_equal(matvec_bruhat(g, x, c), mat_vec(A, x, F65521))
        assert c.muls <= g.nnz_lower() + g.nnz_upper()


def test_matvec_bruhat_counts_exactly_the_stored_nonzeros():
    from util import structured_corpus
    rng = np.random.default_rng(410)
    for f, A in structured_corpus((F2, F2147483647), (1, 2, 33)):
        n = A.shape[0]
        g = lt_bruhat(A, f)
        x = rng.integers(0, f.p, n, dtype=np.int64)
        c = OpCounter()
        assert np.array_equal(matvec_bruhat(g, x, c), dense_matvec(A, x, f))
        assert c.muls == c.adds == g.nnz_lower() + g.nnz_upper()


@pytest.mark.parametrize("f", (F2, F3, F65521, F2147483647), ids=lambda f: str(f.p))
def test_bruhat_block_equals_matvec_columns_with_exact_counts(f):
    # a block goes through the column walk, one column at a time through
    # the vector kernel; both count k multiplications and additions per
    # stored nonzero, for Bruhat and for compact generators
    rng = np.random.default_rng(413)
    for n in (0, 1, 2, 33, 100):
        s = min(3, max(n - 1, 0))
        M = random_qs(n, s, s, n, f)
        inputs = [reverse_rows(np.tril(M, -1)), np.triu(M, 1)[:, ::-1].copy()]
        inputs += [A for _, A in structured_corpus((f,), (n,))]
        for A in inputs:
            g = lt_bruhat(A, f)
            nnz = g.nnz_lower() + g.nnz_upper()
            cb = compact_bruhat(g, qs_order(g.pivots, n))
            for rep, h in ((g, g), (cb, compact_to_bruhat(cb))):
                for k in (0, 1, 2, 17):
                    X = rng.integers(0, f.p, (n, k), dtype=np.int64)
                    c = OpCounter()
                    Y = _rep_times(rep, X, c)
                    assert Y.shape == (n, k)
                    for q in range(k):
                        assert np.array_equal(Y[:, q], matvec_bruhat(h, X[:, q])), (n, k)
                    assert c.muls == c.adds == k * nnz, (n, k)


def _walk_inputs(f, n):
    """Both sides of random_qs at orders up to 5 and of a tridiagonal and a
    band-2 matrix, then the structured corpus."""
    s = max(n - 1, 0)
    for M in [random_qs(n, min(t, s), min(t, s), n + t, f) for t in (1, 3, 5)] \
            + [band_matrix(n, w, n + w, f) for w in (1, 2)]:
        yield reverse_rows(np.tril(M, -1))
        yield np.triu(M, 1)[:, ::-1].copy()
    for _, A in structured_corpus((f,), (n,)):
        yield A


def _walk_edge_triples(f):
    """Bruhat triples whose pivots enter on a block's first and last
    columns, end on a block's last column, and free a slot that another
    pivot takes again inside the same block; n - 1 is not a multiple of
    the block width."""
    b = _BLOCK
    n = 3 * b + 4
    yield bruhat_triple(n, [(n - 1 - (b + 5), 0),      # live 0 .. b + 4
                            (n - 1 - (b + 9), b + 8),  # its slot again, same block
                            (n - 2 - (2 * b + 4), b),  # enters on a first column
                            (n - 2 - (2 * b + 14), 2 * b - 1),   # on a last column
                            (n - 2 - (3 * b - 1), 2 * b),        # ends on a last one
                            (1, 3 * b - 1), (0, 3 * b)], f, 1)
    rng = np.random.default_rng(2)
    for m in (b - 1, b + 1, 2 * b + 1, 4 * b + 3):
        perm = rng.permutation(m)
        keep = (np.arange(m) + perm <= m - 2) & (rng.random(m) < 0.5)
        yield bruhat_triple(m, list(zip(np.flatnonzero(keep).tolist(),
                                        perm[keep].tolist())), f, m)


@pytest.mark.parametrize("f", (F2, F3, F65521, F2147483647), ids=lambda f: str(f.p))
def test_block_walk_equals_the_column_walk(f):
    # the block walk against the column-at-a-time reference: equal output
    # and counts for every k, and on the identity the n r n outer product
    rng = np.random.default_rng(415)
    widest = 0
    gens = [lt_bruhat(A, f) for n in (0, 1, 2, 5, 33, 100, 130)
            for A in _walk_inputs(f, n)]
    for g in gens + list(_walk_edge_triples(f)):
        n = g.n
        widest = max(widest, _bruhat_slots(g)[0].shape[1])
        for k in (0, 1, 2, 17, 64):
            X = rng.integers(0, f.p, (n, k), dtype=np.int64)
            c, cr = OpCounter(), OpCounter()
            assert np.array_equal(_rep_times(g, X, c), bruhat_column_walk(g, X, cr)), (n, k)
            assert c == cr, (n, k)
        c = OpCounter()
        assert np.array_equal(_bruhat_walk(g, None, c), bruhat_reconstruct(g)), n
        assert np.array_equal(reconstruct(g), bruhat_reconstruct(g)), n
        assert c.muls == c.adds == n * (g.nnz_lower() + g.nnz_upper())
    assert widest >= 5     # at p = 2**31 - 1, three unreduced products overflow


def test_bruhat_block_apply_holds_no_rank_by_k_array():
    # tridiagonal: n - 1 pivots but one live running sum per column, so a
    # block apply holds little beyond its n x k result
    n, k = 512, 64
    A = np.zeros((n, n), dtype=np.int64)
    i = np.arange(n - 1)
    rng = np.random.default_rng(414)
    A[n - 2 - i, i] = rng.integers(1, F65521.p, n - 1)
    g = lt_bruhat(A, F65521)
    assert g.rank == n - 1
    X = rng.integers(0, F65521.p, (n, k), dtype=np.int64)
    tracemalloc.start()
    try:
        Y = _rep_times(g, X, None)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(Y, mat_mul(A, X, F65521))
    assert peak < 1.5 * 8 * n * k


def test_bruhat_block_apply_on_a_square_block_holds_little_beyond_it():
    # order 8, k = n: each column block adds only its b x b x w slot tensor,
    # its (w + b) x k stacked operand and the product made from them
    n = k = 512
    g = lt_bruhat(reverse_rows(np.tril(random_qs(n, 8, 8, 416, F65521), -1)), F65521)
    assert _bruhat_slots(g)[0].shape[1] == 8
    X = np.random.default_rng(416).integers(0, F65521.p, (n, k), dtype=np.int64)
    tracemalloc.start()
    try:
        Y = _rep_times(g, X, None)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(Y, mat_mul(bruhat_reconstruct(g), X, F65521))
    assert peak < 1.5 * 8 * n * k


def test_qs_to_dense_of_a_tridiagonal_bruhat_matrix_walks_the_identity():
    # rank n - 1 on each side: the walk on the identity, made a block at a
    # time, holds the two n x n sides and their sum; the outer product of
    # the n x r pivot columns and r x n pivot rows held about six
    n = 512
    T = band_matrix(n, 1, 417, F65521)
    for kind in ("bruhat", "compact"):
        qs = qs_from_dense(T, kind, F65521)
        tracemalloc.start()
        try:
            D = qs_to_dense(qs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.array_equal(D, T)
        assert peak < 3.5 * 8 * n * n


def test_matvec_tree_oracle():
    rng = np.random.default_rng(401)
    z = np.zeros(12, dtype=np.int64)
    g0 = tree_generator(np.zeros((12, 12), dtype=np.int64), F65521)
    assert np.array_equal(matvec_tree(g0, z), z)
    for _ in range(100):
        n = int(rng.integers(1, 48))
        s = int(rng.integers(0, n)) if n > 1 else 0
        A = random_left_triangular(n, s, int(rng.integers(0, 2**31)), F65521)
        g = tree_generator(A, F65521)
        x = rng.integers(0, F65521.p, n, dtype=np.int64)
        assert np.array_equal(matvec_tree(g, x), dense_matvec(A, x, F65521))
    with pytest.raises(ValueError):
        matvec_tree(g0, np.zeros(5, dtype=np.int64))


def test_matvec_qs_all_representations():
    rng = np.random.default_rng(402)
    for trial in range(100):
        n = int(rng.integers(1, 40))
        rl = int(rng.integers(0, n)) if n > 1 else 0
        ru = int(rng.integers(0, n)) if n > 1 else 0
        M = random_qs(n, rl, ru, int(rng.integers(0, 2**31)), F65521)
        x = rng.integers(0, F65521.p, n, dtype=np.int64)
        want = mat_vec(M, x, F65521)
        kind = ("tree", "bruhat", "compact")[trial % 3]
        assert np.array_equal(matvec_qs(qs_from_dense(M, kind, F65521), x), want)
    # unreduced and negative vectors at the top of the modulus range
    f = F2147483647
    M = random_qs(20, 3, 2, 7, f)
    A = random_left_triangular(20, 3, 8, f)
    for x in (np.full(20, 2**62, dtype=np.int64),
              -rng.integers(0, 2**62, 20, dtype=np.int64)):
        for kind in ("tree", "bruhat", "compact"):
            assert np.array_equal(matvec_qs(qs_from_dense(M, kind, f), x),
                                  dense_matvec(M, x, f))
        for g, matvec in ((tree_generator(A, f), matvec_tree),
                          (lt_bruhat(A, f), matvec_bruhat)):
            assert np.array_equal(matvec(g, x), dense_matvec(A, x, f))


def test_matvec_qs_diagonal_and_basis_vector():
    d = np.array([2, 3, 4, 5], dtype=np.int64)
    qs = qs_from_dense(np.diag(d), "tree", F65521)
    x = np.array([1, 1, 1, 1], dtype=np.int64)
    assert np.array_equal(matvec_qs(qs, x), d)
    M = random_qs(8, 2, 2, 3, F65521)
    qsm = qs_from_dense(M, "bruhat", F65521)
    e1 = np.zeros(8, dtype=np.int64)
    e1[0] = 1
    assert np.array_equal(matvec_qs(qsm, e1), M[:, 0])


def _tree_blocks(g):
    """(h, r) of every node and (a, b) of every leaf, by walking the tree."""
    nodes, leaves, stack = [], [], [g.root]
    while stack:
        node = stack.pop()
        if isinstance(node, TreeLeaf):
            leaves.append(node.block.shape)
        else:
            nodes.append((node.pluq.m, node.pluq.r))
            stack += [node.top_right, node.bottom_left]
    return nodes, leaves


def _apply_counts(g):
    """(muls, adds) of applying g to one column: both factors of each node
    as classical products plus the h additions that join it to its
    top-right child's, and each leaf as a classical product."""
    nodes, leaves = _tree_blocks(g)
    muls = 2 * sum(h * r for h, r in nodes) + sum(a * b for a, b in leaves)
    adds = sum(2 * h * r - r for h, r in nodes if r) \
        + sum(a * max(b - 1, 0) for a, b in leaves)
    return muls, adds


@pytest.mark.parametrize("f", (F2, F3, F65521, F2147483647), ids=lambda f: str(f.p))
def test_tree_apply_matches_dense_with_exact_counts(f):
    # both triangles of a random_qs matrix, then the banded and tridiagonal
    # families; one column takes the stacked path, more the per-block one
    rng = np.random.default_rng(411)
    for n in (0, 1, 2, 5, 33, 100, 257, 300):
        s = min(3, max(n - 1, 0))
        M = random_qs(n, s, s, n, f)
        inputs = [reverse_rows(np.tril(M, -1)), np.triu(M, 1)[:, ::-1].copy()]
        inputs += [A for _, A in structured_corpus((f,), (n,))]
        for A in inputs:
            g = tree_generator(A, f)
            loaded = parse_tree(format_tree(g))
            muls, adds = _apply_counts(g)
            for k in (1, 2, 17):
                X = rng.integers(0, f.p, (n, k), dtype=np.int64)
                want = mat_mul(A, X, f)
                for h in (g, loaded):
                    applies = [lambda c: mul_lt_by_flat(h, X, c)]
                    if k == 1:
                        applies.append(lambda c: matvec_tree(h, X[:, 0], c)[:, None])
                    for apply in applies:
                        c = OpCounter()
                        assert np.array_equal(apply(c), want), (n, k)
                        assert (c.muls, c.adds) == (k * muls, k * adds), (n, k)


def _limbs(g):
    """The most limbs `_tree_apply` cuts a factor of g into."""
    return max((limbs for limbs, _, _ in _float_terms(g)), default=1)


def _float_limit(g):
    """The largest modulus for which `_tree_apply` would apply a tree of
    g's shape with no factor cut into limbs, by bisection on
    `_float_terms`."""
    def fits(q):
        return _limbs(SimpleNamespace(groups=g.groups, field=SimpleNamespace(p=q))) == 1
    lo, hi = 2, 2**31
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if fits(mid) else (lo, mid)
    return lo


def _prime_from(q, step):
    while not _is_prime(q):
        q += step
    return q


@pytest.mark.parametrize("kind", ("full rank", "tridiagonal"))
def test_tree_apply_is_exact_at_the_edges_of_the_float_sum(kind, monkeypatch):
    # at the primes about the limits of the float64 sum for n = 33: one
    # where the running bound reduces the whole sum partway (the full rank
    # input is one leaf, so one group, and never does), the largest whose
    # products are exact with no limbs, the smallest that cuts them into
    # limbs, and 2, 3 and 2**31 - 1; one column of X is all p - 1.  A
    # one-leaf tree of the left part of an all p - 1 matrix one larger,
    # whose first row is full, meets that column in the largest term
    # `_float_terms` allows for, w (p-1)**2 with no limbs
    n = 33
    rng = np.random.default_rng(413)
    reduced = []
    monkeypatch.setattr(structops, "_reduce",
                        lambda Z, p: (reduced.append(Z.shape), _reduce(Z, p)))

    def case(f):
        if kind == "full rank":
            return left_part(random_matrix(rng, n, n, f))
        T, _ = random_invertible_tridiagonal(n, 414, f)
        return np.tril(T, -1)[::-1].copy()

    limit = _float_limit(tree_generator(case(F2147483647), F2147483647))
    primes = {"partway": _prime_from(3 * limit // 4, -1), "top": _prime_from(limit, -1),
              "fallback": _prime_from(limit + 1, 1), "2": 2, "3": 3, "word": 2**31 - 1}
    for name, p in primes.items():
        f = PrimeField(p)
        A = case(f)
        g = tree_generator(A, f)
        assert (_limbs(g) > 1) == (name in ("fallback", "word")), name
        if kind == "full rank" and p > 3:
            assert isinstance(g.root, TreeLeaf) and g.root.block.shape == (n, n)
        muls, adds = _apply_counts(g)
        for k in (2, 17, n):
            X = rng.integers(0, p, (n, k), dtype=np.int64)
            X[:, 0] = p - 1
            c = OpCounter()
            reduced.clear()
            assert np.array_equal(mul_lt_by_flat(g, X, c), mat_mul(A, X, f)), (name, k)
            assert (c.muls, c.adds) == (k * muls, k * adds), (name, k)
            if name == "partway":
                assert ((n, k) in reduced) == (kind == "tridiagonal"), k
        c, dense = OpCounter(), OpCounter()
        reconstruct(g, dense)
        assert np.array_equal(mul_lt_lt(g, g, c), mat_mul(A, A, f)), name
        assert (c.muls, c.adds) == (n * muls + dense.muls, n * adds + dense.adds), name
        worst = left_part(np.full((n + 1, n + 1), p - 1, dtype=np.int64))[:n, :n]
        leaf = TreeGenerator(n, TreeLeaf(worst), f, 4)
        for k in (2, 17, n):
            X = rng.integers(0, p, (n, k), dtype=np.int64)
            X[:, 0] = p - 1
            c = OpCounter()
            assert np.array_equal(mul_lt_by_flat(leaf, X, c), mat_mul(worst, X, f)), (name, k)
            assert (c.muls, c.adds) == (k * n * n, k * n * (n - 1)), (name, k)


def test_float_terms_refuses_a_leaf_too_wide_for_one_bit_limbs():
    # one-bit limbs keep w (p-1) + 2 (2p-1) within 2**53 - p only while w
    # stays below about 2**22; only the shapes of the factors are read
    def leaf(w):
        return SimpleNamespace(groups=[((SimpleNamespace(shape=(1, 1, w)),), None, None)],
                               field=F2147483647)
    assert _float_terms(leaf(2**21))[0][:2] == (31, 1)
    with pytest.raises(ValueError):
        _float_terms(leaf(2**22))


@pytest.mark.parametrize("f", (F65521, F2147483647), ids=lambda f: str(f.p))
def test_tree_block_apply_holds_one_sum_and_its_conversion(f):
    # the float64 sum, and its int64 conversion at the end; the slices of
    # X are converted block by block, never X whole, and the limbs are
    # cut from the factors, never from X
    n = 512
    g = tree_generator(random_left_triangular(n, 8, 12, f), f)
    X = np.random.default_rng(415).integers(0, f.p, (n, n), dtype=np.int64)
    tracemalloc.start()
    try:
        Y = mul_lt_by_flat(g, X)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(Y, mat_mul(reconstruct(g), X, f))
    assert peak < 2.25 * X.nbytes


@pytest.mark.parametrize("k", (2, 17))
def test_tree_block_apply_at_the_word_prime_calls_no_mat_mul(k, monkeypatch):
    # at p = 2**31 - 1 every block product is cut into limbs and summed in
    # float64; a node's w reaches 150 at n = 300, which takes three limbs
    n, f = 300, F2147483647
    A = random_left_triangular(n, 8, 417, f)
    g = tree_generator(A, f)
    assert _limbs(g) == 3
    X = np.random.default_rng(417).integers(0, f.p, (n, k), dtype=np.int64)
    X[:, 0] = f.p - 1
    calls = []
    monkeypatch.setattr(structops, "mat_mul",
                        lambda *a, **kw: (calls.append(1), mat_mul(*a, **kw))[1])
    Y = mul_lt_by_flat(g, X)
    assert not calls
    assert np.array_equal(Y, mat_mul(A, X, f))


def test_matvec_tree_builds_nothing_per_call():
    # the groups are derived when the generator is built, so one call
    # allocates only a few vectors
    n = 512
    g = tree_generator(random_left_triangular(n, 8, 12, F65521), F65521)
    x = np.random.default_rng(412).integers(0, F65521.p, n, dtype=np.int64)
    tracemalloc.start()
    try:
        matvec_tree(g, x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * n


def test_mul_lt_by_flat():
    rng = np.random.default_rng(403)
    g_empty = tree_generator(np.zeros((16, 16), dtype=np.int64), F65521)
    T0 = np.zeros((16, 4), dtype=np.int64)
    assert np.array_equal(mul_lt_by_flat(g_empty, T0), T0)
    A = random_left_triangular(64, 4, 10, F65521)
    g = tree_generator(A, F65521)
    assert np.array_equal(mul_lt_by_flat(g, np.zeros((64, 4), dtype=np.int64)),
                          np.zeros((64, 4), dtype=np.int64))
    T = random_matrix(rng, 64, 3, F65521)
    assert np.array_equal(mul_lt_by_flat(g, T), mat_mul(A, T, F65521))
    with pytest.raises(ValueError):
        mul_lt_by_flat(g, np.zeros((5, 2), dtype=np.int64))


def test_mul_lt_by_flat_reduces_unreduced_blocks():
    # the kernels are exact on residues only: entries far below zero
    # overflowed the int64 path at p = 2**31 - 1, and entries in [p, 2**31)
    # broke the float64 path's exactness bound at n = 1024
    for f, n, s, lo, hi in ((F2147483647, 8, 2, -2**40, -2**39),
                            (F65521, 1024, 8, F65521.p, 2**31)):
        A = random_left_triangular(n, s, 1, f)
        X = np.random.default_rng(0).integers(lo, hi, (n, 3), dtype=np.int64)
        assert np.array_equal(mul_lt_by_flat(tree_generator(A, f), X),
                              mat_mul(A, X % f.p, f)), f


def test_mul_lt_lt_trivial_cases():
    Z = np.zeros((4, 4), dtype=np.int64)
    gZ = tree_generator(Z, F5)
    A = mat(F5, [[2, 0], [0, 0]])
    B = mat(F5, [[3, 0], [0, 0]])
    gA, gB = tree_generator(A, F5), tree_generator(B, F5)
    assert not mul_lt_lt(gZ, gZ).any()
    assert np.array_equal(mul_lt_lt(gA, gB), mat(F5, [[1, 0], [0, 0]]))  # 2*3 = 6 = 1 mod 5


def test_mul_lt_lt_oracle_both_modes():
    rng = np.random.default_rng(405)
    for f, trials in ((F65521, 50), (F2, 10), (F2147483647, 10)):
        for t in range(trials + 1):
            n = int(rng.integers(2, 70)) if t < trials else 1
            A = random_left_triangular(n, 4, int(rng.integers(0, 2**31)), f)
            B = random_left_triangular(n, 4, int(rng.integers(0, 2**31)), f)
            gA, gB = tree_generator(A, f), tree_generator(B, f)
            assert np.array_equal(mul_lt_lt(gA, gB), mat_mul(A, B, f))
            assert np.array_equal(mul_lt_by_flat(gA, reconstruct(gB)[::-1]),
                                  mat_mul(A, reverse_rows(B), f))


def test_mul_lt_lt_pow2_sizes():
    # n = 64: every node of the tree is square
    A = random_left_triangular(64, 4, 20, F65521)
    B = random_left_triangular(64, 4, 21, F65521)
    gA, gB = tree_generator(A, F65521), tree_generator(B, F65521)
    assert np.array_equal(mul_lt_lt(gA, gB), mat_mul(A, B, F65521))
    assert np.array_equal(mul_lt_by_flat(gA, reconstruct(gB)[::-1]),
                          mat_mul(A, reverse_rows(B), F65521))


def test_qs_to_dense_reduces_a_diagonal_given_unreduced():
    # QsMatrix takes its diagonal as given: negative entries and entries
    # of p or more densify to their residues, at the counts of the
    # reduced diagonal
    for f in (F3, F65521, F2147483647):
        M = random_qs(40, 3, 2, 416, f)
        off = np.random.default_rng(416).integers(-3, 4, 40) * f.p
        off[:2] = -f.p, 2 * f.p
        for kind in ("tree", "bruhat", "compact"):
            qs = qs_from_dense(M, kind, f)
            want = OpCounter()
            qs_to_dense(qs, want)
            raw = replace(qs, diag=qs.diag + off)
            assert (raw.diag < 0).any() and (raw.diag >= f.p).any()
            c = OpCounter()
            assert np.array_equal(qs_to_dense(raw, c), M), (f, kind)
            assert c == want, (f, kind)


def test_matvec_qs_tridiagonal_all_reps():
    # tridiagonal: the represented lower/upper parts have rank n-1 but
    # order 1, the extreme of the rank/order tradeoff
    from util import random_invertible_tridiagonal
    T, _ = random_invertible_tridiagonal(16, 13, F65521)
    rng = np.random.default_rng(409)
    x = rng.integers(0, F65521.p, 16, dtype=np.int64)
    want = mat_vec(T, x, F65521)
    for kind in ("tree", "bruhat", "compact"):
        qs = qs_from_dense(T, kind, F65521)
        assert np.array_equal(qs_to_dense(qs), T)
        assert np.array_equal(matvec_qs(qs, x), want)
    qa = qs_from_dense(T, "tree", F65521)
    assert np.array_equal(mul_qs_qs(qa, qa), mat_mul(T, T, F65521))


def test_mul_qs_qs_one_by_one():
    M = np.array([[3]], dtype=np.int64)
    N = np.array([[4]], dtype=np.int64)
    q1 = qs_from_dense(M, "tree", F65521)
    q2 = qs_from_dense(N, "tree", F65521)
    assert mul_qs_qs(q1, q2).tolist() == [[12]]
    assert matvec_qs(q1, np.array([5], dtype=np.int64)).tolist() == [15]


def test_mul_qs_qs_identity_and_diagonal():
    M = random_qs(12, 2, 2, 7, F65521)
    qsM = qs_from_dense(M, "tree", F65521)
    qsI = qs_from_dense(np.eye(12, dtype=np.int64), "tree", F65521)
    assert np.array_equal(mul_qs_qs(qsM, qsI), M)
    d1 = np.diag(np.arange(1, 7, dtype=np.int64))
    d2 = np.diag(np.arange(2, 8, dtype=np.int64))
    q1 = qs_from_dense(d1, "tree", F65521)
    q2 = qs_from_dense(d2, "tree", F65521)
    assert np.array_equal(mul_qs_qs(q1, q2), mat_mul(d1, d2, F65521))


def test_mul_qs_qs_oracle_and_order_bound():
    rng = np.random.default_rng(406)
    for _ in range(15):
        n = int(rng.integers(4, 64))
        MA = random_qs(n, 2, 3, int(rng.integers(0, 2**31)), F65521)
        MB = random_qs(n, 3, 1, int(rng.integers(0, 2**31)), F65521)
        qa = qs_from_dense(MA, "tree", F65521)
        qb = qs_from_dense(MB, "tree", F65521)
        got = mul_qs_qs(qa, qb)
        assert np.array_equal(got, mat_mul(MA, MB, F65521))
        orders = qs_orders_bruteforce(got, F65521)
        assert orders.r_l <= 5 and orders.r_u <= 4


def test_mul_qs_qs_converts_other_representations():
    # every pair of kinds applies A's own representations to the densified B
    for f in (F65521, F2147483647):
        for n in (1, 7, 33, 64):
            M = random_qs(n, min(2, n - 1), min(2, n - 1), 11 + n, f)
            N = random_qs(n, min(1, n - 1), min(3, n - 1), 12 + n, f)
            want = mat_mul(M, N, f)
            oa, ob, ow = (qs_orders_bruteforce(X, f) for X in (M, N, want))
            assert ow.r_l <= oa.r_l + ob.r_l and ow.r_u <= oa.r_u + ob.r_u
            for ka in ("tree", "bruhat", "compact"):
                for kb in ("tree", "bruhat", "compact"):
                    qa = qs_from_dense(M, ka, f)
                    qb = qs_from_dense(N, kb, f)
                    c = OpCounter()
                    assert np.array_equal(mul_qs_qs(qa, qb, c), want)
                    cb = OpCounter()
                    qs_to_dense(qb, cb)
                    if ka == "bruhat":
                        nnz = sum(g.nnz_lower() + g.nnz_upper()
                                  for g in (qa.lower, qa.upper))
                        assert c.muls <= n * nnz + cb.muls + n * n
                    if ka == "tree":
                        cm = OpCounter()
                        for g in (qa.lower, qa.upper):
                            matvec_tree(g, np.zeros(n, dtype=np.int64), cm)
                        assert c.muls <= n * cm.muls + cb.muls + n * n


def test_mul_qs_qs_three_or_more_live_sums_at_the_modulus_edges():
    # orders 4 and 5 keep up to five running sums live in the block walk:
    # at p = 2**31 - 1 three unreduced products of them overflow int64
    for f in (F2, F3, F2147483647):
        for n in (7, 33, 64, 100):
            M = random_qs(n, min(4, n - 1), min(5, n - 1), 13 + n, f)
            N = random_qs(n, min(2, n - 1), min(1, n - 1), 14 + n, f)
            want = mat_mul(M, N, f)
            qb = qs_from_dense(N, "bruhat", f)
            cb = OpCounter()
            qs_to_dense(qb, cb)
            for ka in ("bruhat", "compact"):
                qa = qs_from_dense(M, ka, f)
                sides = [compact_to_bruhat(g) if ka == "compact" else g
                         for g in (qa.lower, qa.upper)]
                if n >= 33:
                    assert max(qs_order(g.pivots, n) for g in sides) >= 3
                nnz = sum(g.nnz_lower() + g.nnz_upper() for g in sides)
                c = OpCounter()
                assert np.array_equal(mul_qs_qs(qa, qb, c), want), (f, n, ka)
                assert c.muls == n * nnz + cb.muls + n * n, (f, n, ka)


@pytest.mark.parametrize("f", [F65521, F2147483647], ids=lambda f: str(f.p))
def test_mul_qs_qs_tree_peak_memory(f):
    # the sum of the lower, diagonal and upper parts is built in place in
    # the upper part's result, and no mat_mul inside holds more than its
    # float64 product and int64 result
    n = 512
    qa, qb = (qs_from_dense(random_qs(n, 8, 8, seed, f), "tree", f) for seed in (31, 32))
    tracemalloc.start()
    try:
        got = mul_qs_qs(qa, qb)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got.flags.c_contiguous
    assert np.array_equal(got, mat_mul(qs_to_dense(qa), qs_to_dense(qb), f))
    assert peak < 4.75 * 8 * n * n


def test_mul_qs_qs_commutes_with_densify():
    rng = np.random.default_rng(407)
    for _ in range(10):
        n = int(rng.integers(2, 40))
        MA = random_qs(n, min(2, n - 1), min(2, n - 1), int(rng.integers(0, 2**31)), F65521)
        MB = random_qs(n, min(1, n - 1), min(2, n - 1), int(rng.integers(0, 2**31)), F65521)
        qa = qs_from_dense(MA, "tree", F65521)
        qb = qs_from_dense(MB, "tree", F65521)
        assert np.array_equal(qs_to_dense(qa), MA)
        assert np.array_equal(mul_qs_qs(qa, qb), mat_mul(qs_to_dense(qa), qs_to_dense(qb), F65521))


def test_size_mismatch_errors():
    g1 = tree_generator(np.zeros((4, 4), dtype=np.int64), F65521)
    g2 = tree_generator(np.zeros((8, 8), dtype=np.int64), F65521)
    with pytest.raises(ValueError):
        mul_lt_lt(g1, g2)
    g3 = tree_generator(np.zeros((4, 4), dtype=np.int64), F5)
    with pytest.raises(ValueError):
        mul_lt_lt(g1, g3)
    with pytest.raises(ValueError):
        mul_qs_qs(qs_from_dense(np.zeros((4, 4), dtype=np.int64), "tree", F65521),
                  qs_from_dense(np.zeros((4, 4), dtype=np.int64), "tree", F5))
    with pytest.raises(ValueError):
        qs_from_dense(np.zeros((4, 4), dtype=np.int64), "hss", F5)
    q1 = qs_from_dense(np.zeros((4, 4), dtype=np.int64), "tree", F65521)
    q2 = qs_from_dense(np.zeros((6, 6), dtype=np.int64), "tree", F65521)
    with pytest.raises(ValueError):
        mul_qs_qs(q1, q2)
    with pytest.raises(ValueError):
        matvec_bruhat(lt_bruhat(np.zeros((4, 4), dtype=np.int64), F65521),
                      np.zeros(3, dtype=np.int64))
