"""Property tests: the orders and the Bruhat generator agree with the
brute-force oracles on the six families of `util.instances`, at the small
primes and at both ends of the modulus range, survive the BRUHAT text
round trip, and read only the left region of their input."""

import numpy as np
from hypothesis import given, settings

from quasisep import (OpCounter, compact_bruhat, left_part, lt_bruhat, lt_rpm,
                      qs_order, qs_order_bruteforce, reconstruct, reverse_cols,
                      reverse_rows, rpm_bruteforce, strict_lower, strict_upper)
from quasisep.textio import format_bruhat, parse_bruhat

from util import instances


@settings(max_examples=200, derandomize=True, deadline=None, database=None)
@given(instances())
def test_orders_and_bruhat_properties(case):
    f, A = case
    n = A.shape[0]
    s = qs_order_bruteforce(A, f)
    rpm = lt_rpm(A, f)
    assert qs_order(rpm.pivots, n) == s
    if n <= 24:     # where the rank-table oracle is cheap
        assert rpm.pivots == rpm_bruteforce(A, f).left_part().pivots
    g = lt_bruhat(A, f)
    g.validate()
    assert np.array_equal(reconstruct(g), A)
    assert g.nnz_lower() <= s * (n - s) and g.nnz_upper() <= s * (n - s)
    text = format_bruhat(g)
    back = parse_bruhat(text)
    assert format_bruhat(back) == text and back.pivots == g.pivots
    assert np.array_equal(back.lower, g.lower) and np.array_equal(back.upper, g.upper)
    # at the true order the packing always finds a free column
    assert np.array_equal(reconstruct(compact_bruhat(g, s)), A)


def _elimination(A, f):
    """Pivots, segments and counts of `lt_rpm` and `lt_bruhat` on A."""
    c_rpm, c_bruhat = OpCounter(), OpCounter()
    rpm = lt_rpm(A, f, c_rpm)
    g = lt_bruhat(A, f, c_bruhat)
    return (rpm.pivots, g.pivots, [s.tolist() for s in g.lower_segs + g.upper_segs],
            c_rpm, c_bruhat)


@settings(max_examples=100, derandomize=True, deadline=None, database=None)
@given(instances())
def test_elimination_reads_only_the_left_region(case):
    # quasiseparable_orders and qs_from_dense hand the elimination reversed
    # views of a full matrix, not copies of its triangles
    f, A = case
    n = A.shape[0]
    rng = np.random.default_rng(n * f.p % 9973)
    full = A + np.where(left_part(np.ones((n, n), dtype=np.int64)) == 1, 0,
                        rng.integers(0, f.p, (n, n), dtype=np.int64))
    want = _elimination(A, f)
    assert _elimination(left_part(full), f) == want
    assert _elimination(full, f) == want
    M = full[::-1].copy()            # J M = full, so M[::-1] is a view of it
    assert np.array_equal(reverse_rows(strict_lower(M)), A)
    assert _elimination(M[::-1], f) == want
    M = full[:, ::-1].copy()
    assert np.array_equal(reverse_cols(strict_upper(M)), A)
    assert _elimination(M[:, ::-1], f) == want
