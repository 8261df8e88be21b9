"""Named property checks behind the `verify` CLI command.

Each check re-runs one invariant from the library's contract on `trials`
random instances.  `run` returns (name, passed, detail) triples; trials=0
passes vacuously.
"""

from __future__ import annotations

import zlib

import numpy as np

from .field import (OpCounter, PrimeField, left_part, mat_mul, mat_vec,
                    random_matrix, reverse_rows)
from .generators import (compact_bruhat, lt_bruhat, qs_from_dense,
                         random_left_triangular, random_qs, tree_generator)
from .orders import (lt_rpm, qs_order, qs_order_bruteforce,
                     qs_orders_bruteforce, quasiseparable_orders)
from .pluq import check_pluq_structure, pluq_rpm, rpm_bruteforce, rpm_from_pluq
from .structops import (matvec_bruhat, matvec_qs, mul_lt_lt, mul_qs_qs,
                        qs_to_dense, reconstruct)
from .textio import format_generator, parse_generator

FIELD = PrimeField(65521)


def _check_left_projection_products(rng, trials):
    f = FIELD
    for _ in range(trials):
        m = int(rng.integers(1, 10))
        n = int(rng.integers(1, 10))
        B = random_matrix(rng, n, n, f)
        U = np.triu(random_matrix(rng, n, n, f))
        U[np.arange(n), np.arange(n)] = rng.integers(1, f.p, n)
        BU = mat_mul(B, U, f)
        if not np.array_equal(left_part(BU), left_part(mat_mul(left_part(B), U, f))):
            return False
        L = np.tril(random_matrix(rng, m, m, f))
        C = random_matrix(rng, m, m, f)
        if not np.array_equal(left_part(mat_mul(L, C, f)),
                              left_part(mat_mul(L, left_part(C), f))):
            return False
    return True


def _check_pluq_reconstruct(rng, trials):
    for _ in range(trials):
        m = int(rng.integers(1, 16))
        n = int(rng.integers(1, 16))
        A = random_matrix(rng, m, n, FIELD)
        if not np.array_equal(pluq_rpm(A, FIELD).reconstruct(), A):
            return False
    return True


def _check_pluq_rpm(rng, trials):
    for _ in range(trials):
        m = int(rng.integers(1, 12))
        n = int(rng.integers(1, 12))
        A = random_matrix(rng, m, n, PrimeField(3))
        d = pluq_rpm(A, PrimeField(3))
        if rpm_from_pluq(d).pivots != rpm_bruteforce(A, PrimeField(3)).pivots:
            return False
    return True


def _check_pluq_structure(rng, trials):
    for _ in range(trials):
        m = int(rng.integers(1, 14))
        n = int(rng.integers(1, 14))
        A = random_matrix(rng, m, n, FIELD)
        if not check_pluq_structure(pluq_rpm(A, FIELD)):
            return False
    return True


def _check_lt_rpm(rng, trials):
    for _ in range(trials):
        n = int(rng.integers(1, 24))
        A = random_left_triangular(n, int(rng.integers(0, n)),
                                   int(rng.integers(0, 2**31)), FIELD)
        got = lt_rpm(A, FIELD).pivots
        want = rpm_bruteforce(A, FIELD).left_part().pivots
        if got != want:
            return False
    return True


def _check_qs_order(rng, trials):
    for _ in range(trials):
        n = int(rng.integers(2, 24))
        A = random_left_triangular(n, int(rng.integers(0, n)),
                                   int(rng.integers(0, 2**31)), FIELD)
        if qs_order(lt_rpm(A, FIELD).pivots, n) != qs_order_bruteforce(A, FIELD):
            return False
    return True


def _check_orders_full(rng, trials):
    for _ in range(trials):
        n = int(rng.integers(2, 20))
        M = random_qs(n, int(rng.integers(0, n)), int(rng.integers(0, n)),
                      int(rng.integers(0, 2**31)), FIELD)
        if quasiseparable_orders(M, FIELD) != qs_orders_bruteforce(M, FIELD):
            return False
    return True


def _check_bruhat(rng, trials):
    for _ in range(trials):
        n = int(rng.integers(2, 40))
        s = int(rng.integers(1, max(2, n // 3)))
        A = random_left_triangular(n, s, int(rng.integers(0, 2**31)), FIELD)
        g = lt_bruhat(A, FIELD)
        if not np.array_equal(reconstruct(g), A):
            return False
        order = qs_order_bruteforce(A, FIELD)
        if g.nnz_lower() > order * (n - order) or g.nnz_upper() > order * (n - order):
            return False
    return True


def _banded_left_triangular(n, s0, band, seed):
    """Rank near n but order near s0 + band: exercises the multi-block
    compression path with column relocations."""
    rng = np.random.default_rng(seed)
    p = FIELD.p
    A = left_part(mat_mul(rng.integers(0, p, (n, s0), dtype=np.int64),
                          rng.integers(0, p, (s0, n), dtype=np.int64), FIELD))
    for w in range(band):
        d = n - 2 - w
        for i in range(max(0, d - n + 1), min(n, d + 1)):
            A[i, d - i] = rng.integers(0, p)
    return A % p


def _check_compact(rng, trials):
    for trial in range(trials):
        n = int(rng.integers(2, 40))
        if trial % 2 and n >= 16:
            A = _banded_left_triangular(n, 2, 2, int(rng.integers(0, 2**31)))
        else:
            s = int(rng.integers(1, max(2, n // 3)))
            A = random_left_triangular(n, s, int(rng.integers(0, 2**31)), FIELD)
        g = lt_bruhat(A, FIELD)
        order = max(qs_order(g.pivots, n), 0)
        cb = compact_bruhat(g, order)
        if not np.array_equal(reconstruct(cb), A):
            return False
        widths = cb.lower.widths
        for b, k in enumerate(cb.lower.block_rows):
            if k < widths[b]:
                return False
    return True


def _check_tree(rng, trials):
    for _ in range(trials):
        n = int(rng.integers(2, 40))
        s = int(rng.integers(1, max(2, n // 3)))
        A = random_left_triangular(n, s, int(rng.integers(0, 2**31)), FIELD)
        g = tree_generator(A, FIELD)
        if not np.array_equal(reconstruct(g), A):
            return False
    return True


def _check_serialization(rng, trials):
    for _ in range(trials):
        n = int(rng.integers(2, 24))
        s = int(rng.integers(1, max(2, n // 3)))
        A = random_left_triangular(n, s, int(rng.integers(0, 2**31)), FIELD)
        g = lt_bruhat(A, FIELD)
        for rep in (g, compact_bruhat(g, max(qs_order(g.pivots, n), 0)),
                    tree_generator(A, FIELD)):
            back = parse_generator(format_generator(rep))
            if not np.array_equal(reconstruct(back), A):
                return False
    return True


def _check_matvec(rng, trials):
    for _ in range(trials):
        n = int(rng.integers(2, 32))
        M = random_qs(n, int(rng.integers(0, n)), int(rng.integers(0, n)),
                      int(rng.integers(0, 2**31)), FIELD)
        x = rng.integers(0, FIELD.p, n, dtype=np.int64)
        want = mat_vec(M, x, FIELD)
        for kind in ("tree", "bruhat", "compact"):
            qs = qs_from_dense(M, kind, FIELD)
            if not np.array_equal(matvec_qs(qs, x), want):
                return False
    return True


def _check_matvec_cost(rng, trials):
    for _ in range(trials):
        n = int(rng.integers(2, 32))
        s = int(rng.integers(1, max(2, n // 3)))
        A = random_left_triangular(n, s, int(rng.integers(0, 2**31)), FIELD)
        g = lt_bruhat(A, FIELD)
        x = rng.integers(0, FIELD.p, n, dtype=np.int64)
        counter = OpCounter()
        got = matvec_bruhat(g, x, counter)
        if not np.array_equal(got, mat_vec(A, x, FIELD)):
            return False
        if counter.muls > g.nnz_lower() + g.nnz_upper():
            return False
    return True


def _check_mul_lt(rng, trials):
    for _ in range(trials):
        n = int(rng.integers(2, 33))
        sa = int(rng.integers(1, 4))
        sb = int(rng.integers(1, 4))
        A = random_left_triangular(n, sa, int(rng.integers(0, 2**31)), FIELD)
        B = random_left_triangular(n, sb, int(rng.integers(0, 2**31)), FIELD)
        gA = tree_generator(A, FIELD)
        gB = tree_generator(B, FIELD)
        if not np.array_equal(mul_lt_lt(gA, gB), mat_mul(A, B, FIELD)):
            return False
        want = mat_mul(A, reverse_rows(B), FIELD)
        if not np.array_equal(mul_lt_lt(gA, gB, middle_reversed=True), want):
            return False
    return True


def _check_mul_qs(rng, trials):
    for _ in range(trials):
        n = int(rng.integers(2, 28))
        MA = random_qs(n, int(rng.integers(0, min(n, 4))), int(rng.integers(0, min(n, 4))),
                       int(rng.integers(0, 2**31)), FIELD)
        MB = random_qs(n, int(rng.integers(0, min(n, 4))), int(rng.integers(0, min(n, 4))),
                       int(rng.integers(0, 2**31)), FIELD)
        qa = qs_from_dense(MA, "tree", FIELD)
        qb = qs_from_dense(MB, "tree", FIELD)
        if not np.array_equal(mul_qs_qs(qa, qb), mat_mul(MA, MB, FIELD)):
            return False
        if not np.array_equal(qs_to_dense(qa), MA):
            return False
    return True


_CHECKS = [
    ("fieldcore.left_projection_products", "pluq", _check_left_projection_products),
    ("pluq.reconstruction", "pluq", _check_pluq_reconstruct),
    ("pluq.rpm_oracle", "pluq", _check_pluq_rpm),
    ("pluq.permuted_factor_structure", "pluq", _check_pluq_structure),
    ("orders.lt_rpm_oracle", "orders", _check_lt_rpm),
    ("orders.qs_order_oracle", "orders", _check_qs_order),
    ("orders.full_matrix", "orders", _check_orders_full),
    ("generators.bruhat_reconstruct_and_size", "generators", _check_bruhat),
    ("generators.compact_roundtrip", "generators", _check_compact),
    ("generators.tree_reconstruct", "generators", _check_tree),
    ("generators.serialization_roundtrip", "generators", _check_serialization),
    ("ops.matvec_agreement", "ops", _check_matvec),
    ("ops.bruhat_matvec_cost", "ops", _check_matvec_cost),
    ("ops.mul_lt_oracle", "ops", _check_mul_lt),
    ("ops.mul_qs_oracle", "ops", _check_mul_qs),
]


def run(scope: str, seed: int, trials: int) -> list:
    results = []
    for name, group, fn in _CHECKS:
        if scope != "all" and group != scope:
            continue
        rng = np.random.default_rng((seed, zlib.crc32(name.encode())))
        try:
            ok = bool(fn(rng, trials))
            detail = ""
        except Exception as exc:          # noqa: BLE001 - report, don't crash
            ok = False
            detail = f"{type(exc).__name__}: {exc}"
        results.append((name, ok, detail))
    return results
