"""SHA-256 fingerprints of exact outputs and operation counts, for checking
that a change to the kernels leaves every result bit-identical.

Run it against two checkouts and compare the lines it prints:

    PYTHONPATH=src python tests/fingerprint.py
    PYTHONPATH=/path/to/other/checkout/src python tests/fingerprint.py

* `mat_mul`: p in {2, 3, 65521, 67108859, 94906249, 2**31-19, 2**31-1},
  23 inner dimensions k in 1..2048, three output shapes (one crossing
  the residue chunk, one a row wider than it), 2-d and stacked operands,
  random and all-(p-1) entries, plain and fused with C random and C = 0:
  5,796 cases, each hashed with its (muls, adds, invs).
* products: for n in {1, 2, 5, 33, 100, 257, 300} and p in {2, 3, 65521,
  2**31-1}, seven left triangles (two `random_qs` triangles, a full-rank
  left part and the four of `util.structured_corpus`), each applied by
  `mul_lt_by_flat` to k in {2, 17, n} columns (one of them p - 1) and by
  `mul_lt_lt` to the next one's tree, and two quasiseparable matrices
  multiplied by `mul_qs_qs` in all nine kind pairs: 1,288 results.
"""

from __future__ import annotations

import hashlib
import itertools

import numpy as np

from quasisep import (OpCounter, PrimeField, left_part, mat_mul, mul_lt_by_flat,
                      mul_lt_lt, mul_qs_qs, qs_from_dense, random_qs, tree_generator)

from util import structured_corpus

PRIMES = (2, 3, 65521, 67108859, 94906249, 2**31 - 19, 2**31 - 1)
INNER = (1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17, 31, 32, 33, 64, 100, 127, 128,
         255, 256, 512, 1024, 2048)
SHAPES = ((3, 5), (130, 200), (1, 17000))
KINDS = ("tree", "bruhat", "compact")


def _feed(h, out, counter):
    h.update(repr((out.shape, str(out.dtype))).encode())
    h.update(np.ascontiguousarray(out).tobytes())
    h.update(repr((counter.muls, counter.adds, counter.invs)).encode())


def mat_mul_fingerprint():
    h, cases = hashlib.sha256(), 0
    rng = np.random.default_rng(5796)
    for p, k, (m, n) in itertools.product(PRIMES, INNER, SHAPES):
        f = PrimeField(p)
        for lead, fill in itertools.product(((), (2,)), ("random", "top")):
            def draw(*shape):
                if fill == "top":
                    return np.full(lead + shape, p - 1, dtype=np.int64)
                return rng.integers(0, p, lead + shape, dtype=np.int64)
            A, B = draw(m, k), draw(k, n)
            for C in (None, rng.integers(0, p, lead + (m, n), dtype=np.int64),
                      np.zeros(lead + (m, n), dtype=np.int64)):
                counter = OpCounter()
                _feed(h, mat_mul(A, B, f, counter, C=C), counter)
                cases += 1
    return cases, h.hexdigest()


def product_fingerprint():
    h, results = hashlib.sha256(), 0
    for n, p in itertools.product((1, 2, 5, 33, 100, 257, 300), (2, 3, 65521, 2**31 - 1)):
        f = PrimeField(p)
        s = min(4, max(n - 1, 0))
        M = random_qs(n, s, s, n, f)
        rng = np.random.default_rng([n, p])
        lefts = [np.tril(M, -1)[::-1].copy(), np.triu(M, 1)[:, ::-1].copy(),
                 left_part(rng.integers(0, p, (n, n), dtype=np.int64))]
        lefts += [A for _, A in structured_corpus([f], [n])]
        trees = [tree_generator(A, f) for A in lefts]
        for i, g in enumerate(trees):
            for k in (2, 17, n):
                X = rng.integers(0, p, (n, k), dtype=np.int64)
                X[:, 0] = p - 1
                counter = OpCounter()
                _feed(h, mul_lt_by_flat(g, X, counter), counter)
            counter = OpCounter()
            _feed(h, mul_lt_lt(g, trees[(i + 1) % len(trees)], counter), counter)
            results += 4
        N = random_qs(n, min(2, s), s, n + 1, f)
        qa = {kind: qs_from_dense(M, kind, f) for kind in KINDS}
        qb = {kind: qs_from_dense(N, kind, f) for kind in KINDS}
        for ka, kb in itertools.product(KINDS, KINDS):
            for a, b in ((qa[ka], qb[kb]), (qb[ka], qa[kb])):
                counter = OpCounter()
                _feed(h, mul_qs_qs(a, b, counter), counter)
                results += 1
    return results, h.hexdigest()


if __name__ == "__main__":
    for name, run in (("mat_mul", mat_mul_fingerprint), ("products", product_fingerprint)):
        count, digest = run()
        print(f"{name}: {count} results, sha256 {digest}")
