"""Property test: the orders and the Bruhat generator agree with the
brute-force oracles on the six families of `util.instances`, at the small
primes and at both ends of the modulus range."""

import numpy as np
from hypothesis import given, settings

from quasisep import (compact_bruhat, lt_bruhat, lt_rpm, qs_order,
                      qs_order_bruteforce, reconstruct, rpm_bruteforce)

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
    # at the true order the packing always finds a free column
    assert np.array_equal(reconstruct(compact_bruhat(g, s)), A)
