import itertools

import numpy as np
import pytest

from quasisep import (OpCounter, Permutation, PrimeField, is_left_triangular,
                      left_part, mat, mat_mul, mat_vec, random_matrix, rank,
                      reverse_cols, reverse_rows, strict_upper,
                      trsm_unit_lower, trsm_upper_right)
from quasisep.field import _is_prime
from quasisep.textio import format_matrix, parse_matrix

from util import F2, F5, F65521, F2147483647, is_prime_trial, permutation_matrix, schoolbook_mul


def test_modulus_validation():
    PrimeField(2)
    PrimeField(2**31 - 1)  # Mersenne prime, largest admissible
    with pytest.raises(ValueError):
        PrimeField(1)
    with pytest.raises(ValueError):
        PrimeField(6)
    with pytest.raises(ValueError):
        PrimeField(2**31)
    # the primality verdict is cached; the checks still run on every call
    for _ in range(2):
        with pytest.raises(ValueError):
            PrimeField(4)
        assert PrimeField(2**31 - 1).p == 2**31 - 1


def test_is_prime_small_range_against_trial_division():
    assert [n for n in range(200_000) if _is_prime(n)] == \
        [n for n in range(200_000) if is_prime_trial(n)]


@pytest.mark.parametrize("n", [561, 1105, 41041, 825265, 321197185,
                               2**31 - 1, 2147483629])
def test_is_prime_carmichael_and_word_edge(n):
    # Carmichael numbers fool the Fermat test to every coprime base;
    # 2**31 - 1 and 2147483629 are the two largest word-size primes
    assert _is_prime(n) == is_prime_trial(n)


def test_field_arith_examples():
    f7 = PrimeField(7)
    assert f7.inv(3) == 5
    with pytest.raises(ZeroDivisionError):
        f7.inv(0)


@pytest.mark.parametrize("p", [2, 3, 5, 65521])
def test_field_axioms_sampled(p):
    f = PrimeField(p)
    rng = np.random.default_rng(p)
    for _ in range(1000):
        a = int(rng.integers(0, p))
        if a:
            assert a * f.inv(a) % p == 1


def test_mat_mul_identity_and_char2():
    rng = np.random.default_rng(0)
    f = PrimeField(101)
    A = random_matrix(rng, 4, 4, f)
    assert np.array_equal(mat_mul(A, np.eye(4, dtype=np.int64), f), A)
    ones = mat(F2, [[1, 1], [1, 1]])
    v = mat(F2, [[1], [1]])
    assert np.array_equal(mat_mul(ones, v, F2), np.zeros((2, 1), dtype=np.int64))


def test_mat_vec_reduces_unreduced_operands():
    # 2**40 = 2**9 mod 2**31 - 1, so the product is 2**18; unreduced, the
    # int64 product 2**80 wrapped to 0
    assert mat_vec([[2**40]], [2**40], F2147483647).tolist() == [262144]
    rng = np.random.default_rng(7)
    A = rng.integers(-2**40, 2**40, (5, 9), dtype=np.int64)
    x = rng.integers(-2**40, 2**40, 9, dtype=np.int64)
    want = [sum(int(a) * int(b) for a, b in zip(row, x)) % F2147483647.p for row in A]
    assert mat_vec(A, x, F2147483647).tolist() == want


def test_mat_mul_against_schoolbook():
    rng = np.random.default_rng(1)
    A = random_matrix(rng, 8, 8, F65521)
    B = random_matrix(rng, 8, 8, F65521)
    assert np.array_equal(mat_mul(A, B, F65521), schoolbook_mul(A, B, F65521))


def test_mat_mul_large_modulus_chunked():
    # p close to 2**31 forces the chunked accumulation path
    f = PrimeField(2**31 - 1)
    rng = np.random.default_rng(2)
    A = random_matrix(rng, 6, 9, f)
    B = random_matrix(rng, 9, 5, f)
    assert np.array_equal(mat_mul(A, B, f), schoolbook_mul(A, B, f))


def _python_int_product(A, B, p, C=None):
    AB = A.astype(object) @ B.astype(object)
    return (AB if C is None else C.astype(object) - AB) % p


# (p, m, k, n): float64 BLAS where m k n >= 4096 with k, n > 1, int64
# otherwise.  Where k (p-1)^2 >= 2^53 the smaller operand is cut into l
# limbs of b bits: one GEMM with inner dimension l k where the l-fold
# operands fit in the output ("stacked"), else one GEMM per limb joined by
# Horner's rule ("Horner").  Entries p-2 make every product odd, so an odd
# sum of three or more rounded in float64 past 2^53 would show; random
# entries catch the rest.  Each shape also runs the fused C - A B, whose
# extremes are C = 0 under a full product and C = p-1.
_MAT_MUL_EDGES = [
    (67108859, 64, 1, 64),      # one inner index: int64
    (67108859, 48, 2, 48),      # 2 (p-1)^2 = 2^53 - 1610612664: float64
    (67108859, 40, 3, 40),      # 3 (p-1)^2 > 2^53: l = 2, stacked
    (94906249, 64, 1, 64),      # (p-1)^2 = 2^53 - 3345303488: int64
    (94906249, 48, 2, 48),      # 2 (p-1)^2 > 2^53: l = 2, stacked
    (94906249, 40, 3, 40),      # l = 2, stacked
    (94906249, 4, 3, 400),      # l = 2, Horner
    (2, 16, 16, 16),
    (65521, 16, 16, 16),        # m k n = 4096, just at the threshold: float64
    (65521, 63, 5, 13),         # m k n = 4095, just below it: int64
    (65521, 512, 8, 1),         # one column: int64
    (2**31 - 1, 16, 16, 16),    # (p-1)^2 > 2^53 / 16: l = 2, Horner
    (2**31 - 1, 7, 2, 9),       # two inner indices fit int64: one chunk
    (2**31 - 1, 48, 2, 48),     # l = 2, stacked
    (2**31 - 1, 40, 3, 40),     # l = 2, stacked
    (2**31 - 1, 64, 8, 48),     # l = 2, stacked, limbs of the right operand
    (2**31 - 1, 24, 9, 20),     # l = 2, Horner, limbs of the right operand
    (2**31 - 1, 8, 64, 9),      # l = 2, Horner
    (2**31 - 1, 3, 512, 3),     # l = 3, Horner
    (2**31 - 1, 2, 2049, 2),    # l = 3, Horner
    (3, 16, 16, 16),
    (3, 63, 5, 13),
    (2, 9, 3, 1),
    (65521, 5, 0, 7),           # no inner index: C - A B = C
    (2**31 - 1, 0, 4, 6),
]


@pytest.mark.parametrize("p, m, k, n", _MAT_MUL_EDGES,
                         ids=lambda v: str(v))
def test_mat_mul_edges_against_python_ints(p, m, k, n):
    f = PrimeField(p)
    rng = np.random.default_rng(p % 997)
    operands = [(np.full((m, k), fill, dtype=np.int64),
                 np.full((k, n), fill, dtype=np.int64),
                 np.full((m, n), c, dtype=np.int64))
                for fill in {p - 1, max(p - 2, 0)} for c in (0, p - 1)]
    operands.append((random_matrix(rng, m, k, f), random_matrix(rng, k, n, f),
                     random_matrix(rng, m, n, f)))
    for A, B, C in operands:
        got = mat_mul(A, B, f)
        assert got.dtype == np.int64
        assert np.array_equal(got, _python_int_product(A, B, p))
        before = C.copy()
        counter = OpCounter()
        got = mat_mul(A, B, f, counter, C=C)
        assert got.dtype == np.int64 and got is not C
        assert np.array_equal(got, _python_int_product(A, B, p, C))
        assert np.array_equal(C, before)
        assert counter.muls == m * k * n
        assert counter.adds == m * n * (k - 1) + m * n


@pytest.mark.parametrize("p", [2, 3, 65521, 2**31 - 1])
def test_mat_mul_fused_random_shapes(p):
    # shapes up to 24**3 multiplications, across the float64 threshold
    f = PrimeField(p)
    rng = np.random.default_rng(p % 1009)
    for _ in range(100):
        m, k, n = (int(v) for v in rng.integers(0, 25, 3))
        A, B, C = (random_matrix(rng, *shape, f) for shape in ((m, k), (k, n), (m, n)))
        before = C.copy()
        got = mat_mul(A, B, f, C=C)
        assert np.array_equal(got, _python_int_product(A, B, p, C)), (m, k, n)
        assert np.array_equal(C, before)


@pytest.mark.parametrize("m, k, n", [(0, 3, 4), (3, 0, 4), (3, 4, 0), (0, 0, 0)])
def test_mat_mul_zero_size(m, k, n):
    got = mat_mul(np.zeros((m, k), dtype=np.int64),
                  np.zeros((k, n), dtype=np.int64), F65521)
    assert got.shape == (m, n) and got.dtype == np.int64 and not got.any()


def test_mat_mul_counter_exact():
    rng = np.random.default_rng(3)
    A = random_matrix(rng, 3, 7, F65521)
    B = random_matrix(rng, 7, 5, F65521)
    c = OpCounter()
    mat_mul(A, B, F65521, c)
    assert c.muls == 3 * 7 * 5
    assert c.adds == 3 * 5 * 6


def test_mat_mul_dimension_mismatch():
    with pytest.raises(ValueError):
        mat_mul(np.zeros((2, 3), dtype=np.int64), np.zeros((2, 3), dtype=np.int64), F5)
    with pytest.raises(ValueError):
        mat_mul(np.zeros((2, 3), dtype=np.int64), np.zeros((3, 4), dtype=np.int64), F5,
                C=np.zeros((1, 4), dtype=np.int64))


@pytest.mark.parametrize("p", [2, 65521, 67108859, 2**31 - 1])
def test_mat_mul_stacked_slices_equal_2d(p):
    # (3, 48, 2, 48) and (2, 16, 16, 16) take the float64 path wherever
    # k (p-1)**2 < 2**53, float64 limbs elsewhere: stacked in one GEMM for
    # (3, 48, 2, 48) and (3, 64, 8, 48), joined by Horner's rule for
    # (2, 16, 16, 16), (2, 24, 9, 20) and (2, 3, 512, 3) at 2**31 - 1;
    # one column, one inner index and the empty shapes take int64 always
    f = PrimeField(p)
    rng = np.random.default_rng(p % 991)
    for N, m, k, n in ((3, 48, 2, 48), (2, 16, 16, 16), (3, 64, 8, 48), (2, 24, 9, 20),
                       (2, 3, 512, 3), (4, 7, 5, 1), (3, 9, 1, 4),
                       (5, 1, 33, 1), (0, 16, 16, 16), (2, 5, 0, 3), (2, 0, 3, 4)):
        A, B, C = (rng.integers(0, p, (N,) + shape, dtype=np.int64)
                   for shape in ((m, k), (k, n), (m, n)))
        for fused in (False, True):
            c = OpCounter()
            got = mat_mul(A, B, f, c, C=C if fused else None)
            assert got.shape == (N, m, n) and got.dtype == np.int64
            for s in range(N):
                assert np.array_equal(got[s], mat_mul(A[s], B[s], f, C=C[s] if fused else None))
            assert c.muls == N * m * k * n
            assert c.adds == N * m * n * max(k - 1, 0) + (N * m * n if fused and k else 0)
    # unequal batches, unequal inner dimensions, a batch against a matrix,
    # 4-d operands, and a C without the batch
    for a, b, c in (((2, 3, 4), (3, 4, 5), None), ((2, 3, 4), (2, 5, 6), None),
                    ((3, 4), (2, 4, 5), None), ((1, 2, 3, 4), (1, 2, 4, 5), None),
                    ((2, 3, 4), (2, 4, 5), (3, 5))):
        with pytest.raises(ValueError):
            mat_mul(np.zeros(a, dtype=np.int64), np.zeros(b, dtype=np.int64), f,
                    C=None if c is None else np.zeros(c, dtype=np.int64))


def _trsm_shapes():
    """(field, r, k) where the halving splits r unevenly, at the modulus edges."""
    return itertools.product((F2, F65521, F2147483647), (0, 1, 2, 3, 31, 33, 100),
                             (0, 1, 7))


def test_trsm_unit_lower():
    f7 = PrimeField(7)
    L = mat(f7, [[1, 0], [1, 1]])
    B = mat(f7, [[1], [0]])
    X = trsm_unit_lower(L, B, f7)
    assert np.array_equal(X, mat(f7, [[1], [6]]))
    assert np.array_equal(trsm_unit_lower(np.eye(3, dtype=np.int64), mat(f7, [[1], [2], [3]]), f7),
                          mat(f7, [[1], [2], [3]]))
    rng = np.random.default_rng(4)
    Lr = np.tril(random_matrix(rng, 6, 6, F65521))
    Lr[np.arange(6), np.arange(6)] = 1
    Br = random_matrix(rng, 6, 4, F65521)
    Xr = trsm_unit_lower(Lr, Br, F65521)
    assert np.array_equal(mat_mul(Lr, Xr, F65521), Br)
    bad = Lr.copy()
    bad[2, 2] = 3
    with pytest.raises(ValueError):
        trsm_unit_lower(bad, Br, F65521)
    for f, r, k in _trsm_shapes():
        Lr = np.tril(random_matrix(rng, r, r, f), -1) + np.eye(r, dtype=np.int64)
        Br = random_matrix(rng, r, k, f)
        c = OpCounter()
        Xr = trsm_unit_lower(Lr, Br, f, c)
        assert Xr.shape == (r, k) and np.array_equal(schoolbook_mul(Lr, Xr, f), Br), (f, r, k)
        assert (c.muls, c.adds, c.invs) == (r * (r - 1) // 2 * k, r * (r - 1) // 2 * k, 0)


def test_trsm_upper_right():
    f7 = PrimeField(7)
    assert np.array_equal(trsm_upper_right(mat(f7, [[2]]), mat(f7, [[3]]), f7),
                          mat(f7, [[3]]))
    B = mat(f7, [[1, 2], [3, 4]])
    assert np.array_equal(trsm_upper_right(B, np.eye(2, dtype=np.int64), f7), B)
    rng = np.random.default_rng(5)
    U = np.triu(random_matrix(rng, 5, 5, F65521))
    U[np.arange(5), np.arange(5)] = rng.integers(1, F65521.p, 5)
    Br = random_matrix(rng, 3, 5, F65521)
    X = trsm_upper_right(Br, U, F65521)
    assert np.array_equal(mat_mul(X, U, F65521), Br)
    sing = U.copy()
    sing[1, 1] = 0
    with pytest.raises(ZeroDivisionError):
        trsm_upper_right(Br, sing, F65521)
    for f, r, k in _trsm_shapes():
        U = np.triu(random_matrix(rng, r, r, f), 1)
        U[np.arange(r), np.arange(r)] = rng.integers(1, f.p, r)
        Br = random_matrix(rng, k, r, f)
        c = OpCounter()
        X = trsm_upper_right(Br, U, f, c)
        assert X.shape == (k, r) and np.array_equal(schoolbook_mul(X, U, f), Br), (f, r, k)
        assert (c.muls, c.adds, c.invs) == (r * (r - 1) // 2 * k + r * k,
                                            r * (r - 1) // 2 * k, r)


def test_left_part():
    A = mat(F5, [[1, 2], [3, 4]])
    assert np.array_equal(left_part(A), mat(F5, [[1, 0], [0, 0]]))
    Z = np.zeros((4, 4), dtype=np.int64)
    assert np.array_equal(left_part(Z), Z)
    rng = np.random.default_rng(6)
    B = random_matrix(rng, 7, 7, F65521)
    assert np.array_equal(left_part(left_part(B)), left_part(B))
    with pytest.raises(ValueError):
        left_part(np.zeros((2, 3), dtype=np.int64))


def test_reversals():
    A = mat(F5, [[1, 2], [3, 4]])
    assert np.array_equal(reverse_rows(A), mat(F5, [[3, 4], [1, 2]]))
    rng = np.random.default_rng(7)
    B = random_matrix(rng, 6, 6, F65521)
    assert np.array_equal(reverse_rows(reverse_rows(B)), B)
    assert np.array_equal(reverse_cols(reverse_cols(B)), B)
    # J B J is the 180-degree rotation
    assert np.array_equal(reverse_rows(reverse_cols(B)), B[::-1, ::-1])
    # column reversal of a strictly upper triangular matrix is left triangular
    S = strict_upper(random_matrix(rng, 5, 5, F65521))
    assert is_left_triangular(reverse_cols(S))


def test_left_projection_product_identities():
    # Left(B U) == Left(Left(B) U) for upper triangular U, and the lower dual
    rng = np.random.default_rng(8)
    for _ in range(25):
        n = int(rng.integers(1, 12))
        B = random_matrix(rng, n, n, F65521)
        U = np.triu(random_matrix(rng, n, n, F65521))
        U[np.arange(n), np.arange(n)] = rng.integers(1, F65521.p, n)
        assert np.array_equal(left_part(mat_mul(B, U, F65521)),
                              left_part(mat_mul(left_part(B), U, F65521)))
        L = np.tril(random_matrix(rng, n, n, F65521))
        C = random_matrix(rng, n, n, F65521)
        assert np.array_equal(left_part(mat_mul(L, C, F65521)),
                              left_part(mat_mul(L, left_part(C), F65521)))


def test_rank():
    assert rank(np.eye(4, dtype=np.int64), F5) == 4
    assert rank(mat(F5, [[1, 1], [1, 1]]), F5) == 1
    rng = np.random.default_rng(9)
    for _ in range(50):
        n = int(rng.integers(1, 10))
        r = int(rng.integers(0, n + 1))
        X = random_matrix(rng, n, r, F65521)
        Y = random_matrix(rng, r, n, F65521)
        assert rank(mat_mul(X, Y, F65521), F65521) <= r


def test_permutation_algebra():
    rng = np.random.default_rng(10)
    for _ in range(30):
        n = int(rng.integers(1, 12))
        a = Permutation(rng.permutation(n))
        assert np.array_equal(a.img[a.inverse().img], np.arange(n))
        M = random_matrix(rng, n, n, F65521)
        assert np.array_equal(a.apply_rows(M), mat_mul(permutation_matrix(a), M, F65521))
        assert np.array_equal(a.apply_cols(M), mat_mul(M, permutation_matrix(a), F65521))
        assert np.array_equal(a.apply_rows_inv(a.apply_rows(M)), M)
        assert np.array_equal(a.apply_cols_inv(a.apply_cols(M)), M)
    with pytest.raises(ValueError):
        Permutation([0, 0, 1])


def test_matrix_text_roundtrip():
    rng = np.random.default_rng(12)
    A = random_matrix(rng, 3, 5, F65521)
    text = format_matrix(A, F65521)
    assert text.endswith("\n") and " \n" not in text
    B, f = parse_matrix(text)
    assert np.array_equal(A, B) and f == F65521
    with pytest.raises(ValueError, match="line 2"):
        parse_matrix("2 2 5\n1 2 3\n0 0\n")
    with pytest.raises(ValueError, match="line 3"):
        parse_matrix("2 2 5\n1 2\n0 9\n")
