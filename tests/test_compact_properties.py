"""Property test: the compact Bruhat generator round-trips exactly."""

from itertools import islice

import numpy as np
from hypothesis import given, settings, strategies as st

from quasisep import (PrimeField, compact_bruhat, compact_to_bruhat,
                      lt_bruhat, qs_order, random_left_triangular)
from quasisep.textio import format_compact, parse_compact

from util import decode_compact_side, dense_factor, structured_corpus

FIELDS = [PrimeField(p) for p in (2, 3, 65521, 2**31 - 1)]


@st.composite
def instances(draw):
    """(field, A, extra): a left triangular A and a block width s + extra."""
    f = draw(st.sampled_from(FIELDS))
    n = draw(st.integers(0, 70))
    family = draw(st.integers(0, 4))     # the four structured families, or random
    if family < 4:
        _, A = next(islice(structured_corpus((f,), (n,)), family, None))
    else:
        A = random_left_triangular(n, draw(st.integers(0, max(1, n // 3))),
                                   draw(st.integers(0, 2**31 - 1)), f)
    return f, A, draw(st.sampled_from((0, 1, 3)))


@settings(max_examples=300, derandomize=True, deadline=None, database=None)
@given(instances())
def test_compact_round_trip(case):
    f, A, extra = case
    n = A.shape[0]
    g = lt_bruhat(A, f)
    w = qs_order(g.pivots, n) + extra
    cb = compact_bruhat(g, w)
    back = compact_to_bruhat(cb)
    assert back.pivots == g.pivots
    for got, seg in zip(back.lower_segs + back.upper_segs,
                        g.lower_segs + g.upper_segs):
        assert np.array_equal(got, seg)
    assert np.array_equal(decode_compact_side(cb.lower), dense_factor(g))
    assert np.array_equal(decode_compact_side(cb.upper), dense_factor(g, upper=True))
    text = format_compact(cb)
    assert format_compact(parse_compact(text)) == text
    for side in (cb.lower, cb.upper):
        assert side.stored_elements() <= 2 * w * n
