import gc
import tracemalloc

import numpy as np
import pytest

from quasisep import (OpCounter, lt_bruhat, lt_rpm, mat, pluq_rpm, qs_order,
                      qs_order_bruteforce, qs_orders_bruteforce,
                      quasiseparable_orders, random_left_triangular,
                      random_matrix, random_qs, rank, reverse_rows,
                      rpm_bruteforce, strict_lower)
from quasisep import orders
from quasisep.field import left_part, mat_mul

from util import (BASE_SIZES, F2, F3, F5, F65521, F2147483647, one_based,
                  random_invertible_tridiagonal,
                  superdiagonal_above_antidiagonal)


def test_qs_order_fixtures():
    assert qs_order([], 5) == 0
    # ones right above the anti-diagonal: order 1 despite rank n-1
    assert qs_order([(0, 2), (1, 1), (2, 0)], 4) == 1
    # worked 3x3 example: the left part retains only the (1,1) pivot
    assert qs_order([(0, 0)], 3) == 1


def test_qs_order_accepts_single_pass_iterable():
    pivots = iter([(0, 1), (1, 0)])
    assert qs_order(pivots, 3) == 1


def test_lt_rpm_worked_example():
    A = mat(F5, [[1, 1, 0], [1, 0, 0], [0, 0, 0]])
    assert one_based(lt_rpm(A, F5)) == [(1, 1)]


def test_lt_rpm_zero():
    assert lt_rpm(np.zeros((6, 6), dtype=np.int64), F5).pivots == []


def test_lt_rpm_left_triangular_corpus():
    rng = np.random.default_rng(200)
    fields = [F2, F65521]
    for trial in range(200):
        f = fields[trial % 2]
        n = int(rng.integers(1, 33))
        s = int(rng.integers(0, n))
        A = random_left_triangular(n, s, int(rng.integers(0, 2**31)), f)
        assert lt_rpm(A, f).pivots == rpm_bruteforce(A, f).left_part().pivots


@pytest.mark.parametrize("base", [1, 2])
def test_lt_rpm_left_triangular_corpus_small_base(base, monkeypatch):
    # the corpus fits in one or two base blocks; shrink them so the Schur
    # recursion runs at these sizes too
    monkeypatch.setattr(orders, "_BASE", base)
    test_lt_rpm_left_triangular_corpus()


@pytest.mark.parametrize("f", [F2, F65521, F2147483647], ids=lambda f: str(f.p))
def test_lt_rpm_around_base_blocks(f):
    # arbitrary and left triangular inputs in turn, so base blocks see both
    # fill pivots in their right region and Schur-updated left regions
    rng = np.random.default_rng(f.p % 1000)
    for t, n in enumerate(BASE_SIZES):
        if t % 2:
            A = random_matrix(rng, n, n, f)
        else:
            A = random_left_triangular(n, n // 8, int(rng.integers(0, 2**31)), f)
        assert lt_rpm(A, f).pivots == rpm_bruteforce(A, f).left_part().pivots


def test_lt_rpm_drops_right_region_fill_pivot():
    # the base block's PLUQ of this left part finds a fill pivot at (1, 1),
    # outside the left region; the left part of the profile is (0, 0) alone
    A = left_part(mat(F2, [[1, 1, 0], [1, 0, 0], [0, 0, 0]]))
    assert rpm_bruteforce(A, F2).pivots == [(0, 0), (1, 1)]
    assert lt_rpm(A, F2).pivots == [(0, 0)]


def test_lt_rpm_arbitrary_inputs():
    # the recursion takes arbitrary matrices; so does the public entry point
    rng = np.random.default_rng(201)
    for _ in range(60):
        n = int(rng.integers(1, 20))
        A = random_matrix(rng, n, n, F3)
        assert lt_rpm(A, F3).pivots == rpm_bruteforce(A, F3).left_part().pivots


def test_qs_order_matches_bruteforce():
    rng = np.random.default_rng(202)
    for _ in range(80):
        n = int(rng.integers(2, 33))
        A = random_left_triangular(n, int(rng.integers(0, n)),
                                   int(rng.integers(0, 2**31)), F65521)
        assert qs_order(lt_rpm(A, F65521).pivots, n) == qs_order_bruteforce(A, F65521)


def test_padding_keeps_left_region_pivots():
    # appending zero rows and columns to A keeps its left-region pivots:
    # the pivots inside the original region must be exactly those of the
    # padded matrix, which may only add pivots in the enlarged region.
    rng = np.random.default_rng(203)
    for _ in range(40):
        n = int(rng.integers(2, 24))
        A = random_left_triangular(n, int(rng.integers(0, n)),
                                   int(rng.integers(0, 2**31)), F65521)
        pivots = lt_rpm(A, F65521).pivots
        N = int(rng.integers(n, 40))
        padded = np.pad(A, (0, N - n))
        padded_pivots = lt_rpm(padded, F65521).pivots
        assert set(pivots) <= set(padded_pivots)
        assert [piv for piv in padded_pivots if piv[0] + piv[1] <= n - 2] == pivots
        assert qs_order(pivots, n) == qs_order_bruteforce(A, F65521)


def test_non_power_of_two_costs_no_more_than_next_power():
    # n = 96 runs on its own size, so it may not cost more multiplications
    # than an instance at n = 128
    muls = []
    for n in (96, 128):
        c = OpCounter()
        lt_rpm(random_left_triangular(n, 2, 5, F65521), F65521, c)
        muls.append(c.muls)
    assert muls[0] <= muls[1]


def test_slicing_identity():
    # leading k x (n-k) block of J @ strict_lower(M) is the reversed
    # bottom-left block M[n-k+1..n, 1..n-k]
    rng = np.random.default_rng(204)
    M = random_matrix(rng, 9, 9, F65521)
    n = 9
    low = reverse_rows(strict_lower(M))
    for k in range(1, n):
        block = low[:k, :n - k]
        assert np.array_equal(block[::-1], M[n - k:, :n - k])
        assert np.array_equal(block[::-1], strict_lower(M)[n - k:, :n - k])


def test_strict_vs_inclusive_triangular_parts():
    # the k x (n-k) leading blocks never touch the diagonal, so using the
    # inclusive lower/upper parts would give the same orders
    rng = np.random.default_rng(205)
    for _ in range(20):
        n = int(rng.integers(2, 16))
        M = random_matrix(rng, n, n, F65521)
        incl_low = reverse_rows(np.tril(M))
        strict_low = reverse_rows(strict_lower(M))
        assert qs_order_bruteforce(incl_low, F65521) == \
            qs_order_bruteforce(strict_low, F65521)


def test_quasiseparable_orders_diagonal():
    d = np.diag(np.arange(1, 6, dtype=np.int64))
    assert quasiseparable_orders(d, F65521) == (0, 0)


def test_quasiseparable_orders_tridiagonal_inverse():
    T, Tinv = random_invertible_tridiagonal(8, 42, F65521)
    orders = quasiseparable_orders(Tinv, F65521)
    assert orders == (1, 1)
    assert orders == qs_orders_bruteforce(Tinv, F65521)


def test_quasiseparable_orders_superdiagonal():
    n = 8
    M = np.zeros((n, n), dtype=np.int64)
    M[np.arange(n - 1), np.arange(n - 1) + 1] = 1
    orders = quasiseparable_orders(M, F65521)
    assert orders == qs_orders_bruteforce(M, F65521)
    assert orders.r_u == 1 and orders.r_l == 0


def test_rank_versus_order_extremes():
    # generic rank profile: order equals the rank of the leading block
    A = random_left_triangular(12, 3, 7, F65521)
    assert qs_order_bruteforce(A, F65521) == 3
    assert qs_order(lt_rpm(A, F65521).pivots, 12) == 3
    # superdiagonal above the anti-diagonal: rank n-1, order 1
    B = superdiagonal_above_antidiagonal(8)
    assert rank(B, F65521) == 7
    assert qs_order_bruteforce(B, F65521) == 1
    assert qs_order(lt_rpm(B, F65521).pivots, 8) == 1


def test_qs_order_bruteforce_edges():
    assert qs_order_bruteforce(np.zeros((4, 4), dtype=np.int64), F5) == 0
    assert qs_order_bruteforce(np.zeros((1, 1), dtype=np.int64), F5) == 0


def test_non_square_rejected():
    with pytest.raises(ValueError):
        lt_rpm(np.zeros((2, 3), dtype=np.int64), F5)
    with pytest.raises(ValueError):
        quasiseparable_orders(np.zeros((2, 3), dtype=np.int64), F5)


@pytest.mark.parametrize("reduced", [True, False], ids=["reduced", "unreduced"])
def test_inputs_left_unchanged(reduced):
    # a reduced int64 input is used without a copy and the recursions work
    # on views of it, so none of them may write to it
    f = F65521
    rng = np.random.default_rng(206)
    lt = random_left_triangular(100, 3, 207, f)
    M = random_qs(100, 3, 2, 208, f)
    B = mat_mul(random_matrix(rng, 100, 4, f), random_matrix(rng, 4, 40, f), f)
    calls = [(lt_rpm, lt), (lt_bruhat, lt), (quasiseparable_orders, M), (pluq_rpm, B)]
    for fn, A in calls:
        want = fn(A, f)
        if not reduced:
            A = A + f.p * rng.integers(-3, 4, A.shape)
        before = A.copy()
        got = fn(A, f)
        assert np.array_equal(A, before), fn.__name__
        if fn is lt_bruhat:
            assert got.pivots == want.pivots
            assert all(np.array_equal(a, b) for a, b in
                       zip(got.lower_segs + got.upper_segs,
                           want.lower_segs + want.upper_segs))
        elif fn is pluq_rpm:
            assert got.P == want.P and got.Q == want.Q
            assert np.array_equal(got.L, want.L) and np.array_equal(got.U, want.U)
        else:
            assert got == want, fn.__name__


def test_quasiseparable_orders_memory_below_one_matrix():
    # the triangles are reversed views of M, and each Schur complement is
    # formed once, only for its own child: the peak stays below one n x n
    # int64 matrix (8 MiB here)
    n = 1024
    M = random_qs(n, 8, 8, 1, F65521)
    tracemalloc.start()
    try:
        assert quasiseparable_orders(M, F65521) == (8, 8)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < n * n * 8


def test_quasiseparable_orders_frees_its_segments_without_the_cycle_collector():
    # the elimination's recursion is a closure that refers to itself; while
    # that cycle stood, every pivot's segments stayed alive after the call
    # until the cyclic collector ran (about 0.5 MiB here)
    M = random_qs(2048, 8, 8, 1, F65521)
    gc.collect()
    gc.disable()
    tracemalloc.start()
    try:
        assert quasiseparable_orders(M, F65521) == (8, 8)
        left = tracemalloc.get_traced_memory()[0]
        gc.collect()
        collected = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
        gc.enable()
    assert left - collected <= 16 * 1024
