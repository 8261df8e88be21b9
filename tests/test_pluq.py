import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from quasisep import (PrimeField, RankProfileMatrix, check_pluq_structure, mat,
                      mat_mul, pluq_rpm, random_matrix, rpm_bruteforce,
                      rpm_from_pluq)
from quasisep import pluq

from util import F2, F3, F5, F65521, F2147483647, one_based

FIELDS = (F2, F3, F65521, F2147483647)
KINDS = ("random", "low rank", "sparse", "top half zero")


def test_worked_example_rpm():
    A = mat(F5, [[1, 1, 0], [1, 0, 0], [0, 0, 0]])
    d = pluq_rpm(A, F5)
    assert one_based(rpm_from_pluq(d)) == [(1, 1), (2, 2)]
    assert one_based(rpm_bruteforce(A, F5)) == [(1, 1), (2, 2)]


def test_zero_matrix():
    d = pluq_rpm(np.zeros((3, 4), dtype=np.int64), F5)
    assert d.r == 0
    assert np.array_equal(d.P.img, np.arange(3)) and np.array_equal(d.Q.img, np.arange(4))
    assert np.array_equal(d.reconstruct(), np.zeros((3, 4), dtype=np.int64))
    assert rpm_from_pluq(d).pivots == []


def test_identity_decomposition():
    d = pluq_rpm(np.eye(4, dtype=np.int64), F5)
    assert d.r == 4
    assert rpm_from_pluq(d).pivots == [(0, 0), (1, 1), (2, 2), (3, 3)]
    assert check_pluq_structure(d)


def test_rpm_from_synthetic_decomposition():
    # identity permutations with rank 2 read off the diagonal pivots
    from quasisep import Permutation, PluqDecomposition
    L = mat(F5, [[1, 0], [2, 1], [0, 3]])
    U = mat(F5, [[4, 1, 2], [0, 3, 1]])
    d = PluqDecomposition(Permutation(np.arange(3)), L, U,
                          Permutation(np.arange(3)), 2, F5)
    assert one_based(rpm_from_pluq(d)) == [(1, 1), (2, 2)]


def test_antidiagonal_rpm():
    A = mat(F5, [[0, 1], [1, 0]])
    assert one_based(rpm_bruteforce(A, F5)) == [(1, 2), (2, 1)]
    assert one_based(rpm_from_pluq(pluq_rpm(A, F5))) == [(1, 2), (2, 1)]


def test_random_matrices_against_oracle():
    rng = np.random.default_rng(100)
    fields = [F2, F3, F65521]
    for trial in range(200):
        f = fields[trial % 3]
        m = int(rng.integers(1, 25))
        n = int(rng.integers(1, 25))
        A = random_matrix(rng, m, n, f)
        d = pluq_rpm(A, f)
        assert np.array_equal(d.reconstruct(), A)
        assert check_pluq_structure(d)
        assert rpm_from_pluq(d).pivots == rpm_bruteforce(A, f).pivots


def test_exhaustive_3x3_gf2():
    for bits in itertools.product((0, 1), repeat=9):
        A = np.array(bits, dtype=np.int64).reshape(3, 3)
        d = pluq_rpm(A, F2)
        assert np.array_equal(d.reconstruct(), A)
        assert rpm_from_pluq(d).pivots == rpm_bruteforce(A, F2).pivots


def test_unit_triangular_shape():
    rng = np.random.default_rng(101)
    A = random_matrix(rng, 8, 6, F65521)
    d = pluq_rpm(A, F65521)
    assert (d.L.diagonal()[:d.r] == 1).all()
    assert not np.triu(d.L, 1).any()
    assert (d.U.diagonal()[:d.r] != 0).all()
    assert not np.tril(d.U, -1).any()


def test_structure_check_mutation_detected():
    rng = np.random.default_rng(102)
    for _ in range(40):
        A = random_matrix(rng, 5, 5, F5)
        d = pluq_rpm(A, F5)
        if d.r < 2:
            continue
        assert check_pluq_structure(d)
        img = d.P.img.copy()
        img[[0, 1]] = img[[1, 0]]
        mutated = type(d)(type(d.P)(img), d.L, d.U, d.Q, d.r, d.field)
        if not check_pluq_structure(mutated):
            return
    pytest.fail("no mutation flipped the structure check")


def test_profile_preserved_by_triangular_factors():
    # multiplying by invertible lower (left) / upper (right) triangulars
    rng = np.random.default_rng(103)
    for _ in range(30):
        m = int(rng.integers(1, 10))
        n = int(rng.integers(1, 10))
        A = random_matrix(rng, m, n, F65521)
        L = np.tril(random_matrix(rng, m, m, F65521))
        L[np.arange(m), np.arange(m)] = rng.integers(1, F65521.p, m)
        U = np.triu(random_matrix(rng, n, n, F65521))
        U[np.arange(n), np.arange(n)] = rng.integers(1, F65521.p, n)
        base = rpm_bruteforce(A, F65521).pivots
        assert rpm_bruteforce(mat_mul(L, A, F65521), F65521).pivots == base
        assert rpm_bruteforce(mat_mul(A, U, F65521), F65521).pivots == base


def test_rpm_pivot_uniqueness():
    rng = np.random.default_rng(104)
    for _ in range(30):
        m = int(rng.integers(1, 12))
        n = int(rng.integers(1, 12))
        R = rpm_bruteforce(random_matrix(rng, m, n, F3), F3)
        assert R.rank <= min(m, n)
        # distinctness is enforced by the constructor; re-build to be sure
        RankProfileMatrix(m, n, R.pivots)
    with pytest.raises(ValueError):
        RankProfileMatrix(3, 3, [(0, 0), (0, 1)])


def _pivot_search_cases(p):
    """Matrices that put the first nonzero where a row-then-column search
    can go wrong: far down, in the last column, in the corner, below a row
    that cancels out, nowhere."""
    rng = np.random.default_rng(p % 1000)
    far = np.zeros((9, 5), dtype=np.int64)          # first nonzero row far below
    far[7, 2] = 1
    far[8] = rng.integers(0, p, 5)
    last_col = np.zeros((6, 6), dtype=np.int64)     # rows nonzero only at the end
    last_col[1:, 5] = rng.integers(1, p, 5)
    last_col[4, 3] = p - 1
    corner = np.zeros((7, 4), dtype=np.int64)       # only the bottom-right entry
    corner[6, 3] = p - 1
    wide = np.zeros((3, 8), dtype=np.int64)         # m < n, pivots late in rows
    wide[0, 6] = 1
    wide[2] = rng.integers(0, p, 8)
    tall = random_matrix(rng, 11, 4, PrimeField(p))  # m > n, zero rows inside
    tall[3:7] = 0
    # row 2 = row 0 + row 1 turns zero only after two updates, row 3 is a pivot
    twice = np.array([[1, 0, 1], [0, 1, 1], [1, 1, 2], [0, 0, 5]], dtype=np.int64)
    return [far, last_col, corner, wide, tall, twice, np.zeros((4, 6), dtype=np.int64)]


@pytest.mark.parametrize("f", [F2, F2147483647], ids=lambda f: str(f.p))
def test_pivot_search_edge_cases(f):
    for A in _pivot_search_cases(f.p):
        A = A % f.p
        d = pluq_rpm(A, f)
        assert np.array_equal(d.reconstruct(), A)
        assert check_pluq_structure(d)
        assert rpm_from_pluq(d).pivots == rpm_bruteforce(A, f).pivots


def _recursion_case(f, m, n, kind, rng):
    """An m x n matrix of one of KINDS: full rank, rank <= 3, about 5 %
    nonzero, or random with its top half zero."""
    p = f.p
    if kind == "low rank":
        r = int(rng.integers(0, 4))
        return mat_mul(random_matrix(rng, m, r, f), random_matrix(rng, r, n, f), f)
    A = random_matrix(rng, m, n, f)
    if kind == "sparse":
        A[rng.random((m, n)) >= 0.05] = 0
    elif kind == "top half zero":
        A[:m // 2] = 0
    return A % p


def test_row_recursion_matches_scalar_base(monkeypatch):
    # base 1 splits down to single rows, base 2 to pairs; the default base
    # (32 rows) runs the scalar loop alone up to m = 32.  P, L, U, Q and r
    # must not depend on where the recursion stops.
    rng = np.random.default_rng(105)
    cases = [(f, m, int(rng.integers(1, 48)), kind)
             for f in FIELDS for m in (1, 31, 32, 33, 64, 65, 100, 257)
             for kind in KINDS]
    mats = [_recursion_case(f, m, n, kind, rng) for f, m, n, kind in cases]
    want = [pluq_rpm(A, f) for A, (f, *_) in zip(mats, cases)]
    for base in (1, 2):
        monkeypatch.setattr(pluq, "_ROW_BASE", base)
        for A, (f, m, n, kind), d in zip(mats, cases, want):
            got = pluq_rpm(A, f)
            assert got.r == d.r and got.P == d.P and got.Q == d.Q, (base, f, m, kind)
            assert np.array_equal(got.L, d.L) and np.array_equal(got.U, d.U), \
                (base, f, m, kind)


@st.composite
def _pluq_inputs(draw):
    f = draw(st.sampled_from(FIELDS))
    m = draw(st.integers(1, 90))
    n = draw(st.integers(1, 16))
    kind = draw(st.sampled_from(KINDS))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return f, _recursion_case(f, m, n, kind, rng)


@settings(max_examples=600, derandomize=True, deadline=None, database=None)
@given(_pluq_inputs())
def test_pluq_property(case):
    f, A = case
    d = pluq_rpm(A, f)
    assert rpm_from_pluq(d).pivots == rpm_bruteforce(A, f).pivots
    assert check_pluq_structure(d)
    assert np.array_equal(d.reconstruct(), A)
    # the rows and columns that hold no pivot follow in ascending order
    assert (np.diff(d.P.img[d.r:]) > 0).all()
    assert (np.diff(d.Q.inverse().img[d.r:]) > 0).all()
