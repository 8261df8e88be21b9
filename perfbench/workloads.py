"""The benchmark's four workloads.

Each workload builds its inputs from the seed with numpy alone, then
exposes three steps to the runner:

* `setup(qs, counter)` makes the library calls a user makes once;
* `cycle(qs, state, c)` yields the operations of one pass through the
  workload's mix, each with its own correctness check;
* `kinds` names the operation kinds; the first three are reported as the
  end-to-end metrics `op1_ms`, `op2_ms` and `op3_ms`.

`qs` is the imported `quasisep` package.  Library functions are looked up
on it at call time, so a traced run that rebinds them is seen here too.
"""

from __future__ import annotations

from typing import Callable, NamedTuple

import numpy as np

from oracles import (certified_qs, freivalds_ok, freivalds_vectors, mulmod,
                     qs_apply, same)

P_SMALL = 65521
P_BIG = (1 << 31) - 1
KINDS = ("tree", "bruhat", "compact")


class Op(NamedTuple):
    kind: int                                 # index into the workload's kinds
    run: Callable                             # run(counter) -> output
    check: Callable                           # check(output) -> bool
    generators: Callable | None = None        # generators(output) -> QsMatrix list


def _pow2(n: int) -> bool:
    return n & (n - 1) == 0


def _rank(qs):
    return lambda block, p: qs.rank(block, qs.PrimeField(p))


class Orders:
    name = "orders"
    why = ("quasiseparable_orders at n=2048, 1000, 1024 (s=8): only orders, pluq and field "
           "work; n=1000 pads to 1024, so op2 beside op3 shows the padding waste")
    kinds = ("orders_ms", "orders_pad_ms", "orders_1024_ms")
    sizes = (2048, 1000, 1024)
    s = 8
    pool = 2

    def __init__(self, seed: int, qs):
        rng = np.random.default_rng([seed, 1])
        self.mats = [[certified_qs(rng, n, self.s, P_SMALL, _rank(qs)) for _ in range(self.pool)]
                     for n in self.sizes]
        self.shape = {"n": list(self.sizes), "s": self.s, "p": P_SMALL,
                      "n_pow2": [_pow2(n) for n in self.sizes],
                      "distinct_matrices_per_n": self.pool}

    def setup(self, qs, counter=None):
        return qs.PrimeField(P_SMALL)

    def cycle(self, qs, F, c: int):
        for k, pool in enumerate(self.mats):
            M = pool[c % self.pool]
            yield Op(k, lambda counter, M=M: qs.quasiseparable_orders(M, F, counter),
                     lambda out: tuple(out) == (self.s, self.s))


class Compress:
    name = "compress"
    why = ("qs_from_dense into tree, bruhat, compact (n=1024, s=16) plus a text round trip "
           "of each: the write side, generators and textio, where memory peaks")
    kinds = ("compress_tree_ms", "compress_bruhat_ms", "compress_compact_ms", "serialize_ms")
    n = 1024
    s = 16
    pool = 2

    def __init__(self, seed: int, qs):
        rng = np.random.default_rng([seed, 2])
        self.mats = [certified_qs(rng, self.n, self.s, P_SMALL, _rank(qs)) for _ in range(self.pool)]
        self.probes = []
        for M in self.mats:
            x = rng.integers(0, P_SMALL, self.n, dtype=np.int64)
            self.probes.append((x, mulmod(M, x, P_SMALL)))
        self.shape = {"n": self.n, "s": self.s, "p": P_SMALL, "n_pow2": _pow2(self.n),
                      "distinct_matrices": self.pool}

    def setup(self, qs, counter=None):
        return qs.PrimeField(P_SMALL)

    def cycle(self, qs, F, c: int):
        M = self.mats[c % self.pool]
        x, y = self.probes[c % self.pool]
        made = {}

        def compress(kind, counter):
            made[kind] = qs.qs_from_dense(M, kind, F, counter)
            return made[kind]

        for k, kind in enumerate(KINDS):
            yield Op(k, lambda counter, kind=kind: compress(kind, counter),
                     lambda Q: np.array_equal(qs_apply(Q, x, P_SMALL), y),
                     lambda Q: [Q])

        def serialize(counter):
            tio = qs.textio
            return [tio.parse_generator(tio.format_generator(g))
                    for kind in KINDS for g in (made[kind].lower, made[kind].upper)]

        yield Op(3, serialize,
                 lambda parsed: same(parsed, [g for kind in KINDS
                                              for g in (made[kind].lower, made[kind].upper)]))


class Matvec:
    name = "matvec"
    why = ("matvec_qs on tree, bruhat, compact built once in setup (n=1024, s=8), fresh "
           "vector per call: the read side, structops only after setup")
    kinds = ("matvec_tree_ms", "matvec_bruhat_ms", "matvec_compact_ms")
    n = 1024
    s = 8

    def __init__(self, seed: int, qs):
        self.seed = seed
        self.M = certified_qs(np.random.default_rng([seed, 3]), self.n, self.s, P_SMALL, _rank(qs))
        self.shape = {"n": self.n, "s": self.s, "p": P_SMALL, "n_pow2": _pow2(self.n),
                      "distinct_matrices": 1}

    def setup(self, qs, counter=None):
        F = qs.PrimeField(P_SMALL)
        return {kind: qs.qs_from_dense(self.M, kind, F, counter) for kind in KINDS}

    def vector(self, c: int, k: int) -> np.ndarray:
        return np.random.default_rng([self.seed, 3, c, k]).integers(0, P_SMALL, self.n, dtype=np.int64)

    def dense_reference(self, qs):
        """The dense (M @ x) mod p every kind is compared with; one call, 20 repeats."""
        x = self.vector(1 << 30, 0)
        dense = lambda: mulmod(self.M, x, P_SMALL)  # noqa: E731
        return "ref.dense_matvec_ms", [dense] * len(KINDS), 20

    def cycle(self, qs, reps, c: int):
        for k, kind in enumerate(KINDS):
            x = self.vector(c, k)
            yield Op(k, lambda counter, Q=reps[kind], x=x: qs.matvec_qs(Q, x, counter),
                     lambda y, x=x: np.array_equal(y, mulmod(self.M, x, P_SMALL)),
                     lambda y, Q=reps[kind]: [Q])


class Product:
    name = "product"
    why = ("mul_qs_qs on tree operands at p=65521 and p=2^31-1 (n=1024) and bruhat operands "
           "(n=512): the only workload where mat_mul has a large inner dimension")
    kinds = ("product_tree_ms", "product_bigp_ms", "product_bruhat_ms")
    cases = (("tree", 1024, P_SMALL), ("tree", 1024, P_BIG), ("bruhat", 512, P_SMALL))
    s = 4

    def __init__(self, seed: int, qs):
        rng = np.random.default_rng([seed, 4])
        self.pairs = []
        for _kind, n, p in self.cases:
            A = certified_qs(rng, n, self.s, p, _rank(qs))
            B = certified_qs(rng, n, self.s, p, _rank(qs))
            self.pairs.append((A, B, *freivalds_vectors(rng, A, B, p)))
        self.shape = {"n": [n for _, n, _ in self.cases], "s": self.s,
                      "p": [p for _, _, p in self.cases],
                      "n_pow2": [_pow2(n) for _, n, _ in self.cases],
                      "operand_kinds": [k for k, _, _ in self.cases]}

    def setup(self, qs, counter=None):
        operands = []
        for (kind, _n, p), (A, B, _V, _ABV) in zip(self.cases, self.pairs):
            F = qs.PrimeField(p)
            operands.append((qs.qs_from_dense(A, kind, F, counter),
                             qs.qs_from_dense(B, kind, F, counter)))
        return operands

    def dense_reference(self, qs):
        """field.mat_mul on each case's dense operands, one call each."""
        calls = [lambda A=A, B=B, p=p: qs.mat_mul(A, B, qs.PrimeField(p))
                 for (_kind, _n, p), (A, B, _V, _ABV) in zip(self.cases, self.pairs)]
        return "ref.dense_matmul_ms", calls, 1

    def cycle(self, qs, operands, c: int):
        for k, ((QA, QB), (_A, _B, V, ABV), (_kind, _n, p)) in enumerate(
                zip(operands, self.pairs, self.cases)):
            yield Op(k, lambda counter, QA=QA, QB=QB: qs.mul_qs_qs(QA, QB, counter),
                     lambda C, V=V, ABV=ABV, p=p: freivalds_ok(C, V, ABV, p),
                     lambda C, QA=QA, QB=QB: [QA, QB])


WORKLOADS = {w.name: w for w in (Orders, Compress, Matvec, Product)}
