"""Property test: the product of two quasiseparable matrices, for every
pair of kinds, equals the dense product at both ends of the modulus range."""

import numpy as np
from hypothesis import given, settings, strategies as st

from quasisep import mat_mul, mul_qs_qs, qs_from_dense

from util import EDGE_FIELDS, band_matrix

KINDS = ("tree", "bruhat", "compact")


def _matrix(draw, f, n):
    """A zero, full-rank, banded or tridiagonal n x n matrix."""
    family = draw(st.sampled_from(("zero", "full", "banded", "tridiagonal")))
    seed = draw(st.integers(0, 2**31 - 1))
    if family == "zero":
        return np.zeros((n, n), dtype=np.int64)
    if family == "full":
        return np.random.default_rng(seed).integers(0, f.p, (n, n), dtype=np.int64)
    return band_matrix(n, draw(st.integers(2, 4)) if family == "banded" else 1, seed, f)


@st.composite
def pairs(draw):
    f = draw(st.sampled_from(EDGE_FIELDS))
    n = draw(st.integers(0, 70))
    return f, _matrix(draw, f, n), _matrix(draw, f, n)


@settings(max_examples=80, derandomize=True, deadline=None, database=None)
@given(pairs())
def test_nine_kind_pairs_equal_the_dense_product(case):
    f, A, B = case
    want = mat_mul(A, B, f)
    qa = {kind: qs_from_dense(A, kind, f) for kind in KINDS}
    qb = {kind: qs_from_dense(B, kind, f) for kind in KINDS}
    for ka in KINDS:
        for kb in KINDS:
            assert np.array_equal(mul_qs_qs(qa[ka], qb[kb]), want), (ka, kb)
