"""Named property checks behind the `verify` CLI command.

Each check draws one random instance from `rng` and returns whether one
invariant from the library's contract holds on it; `trial` is the 0-based
trial index.  `run` repeats every check `trials` times on a generator
seeded from the seed and the check's name, stops a check at its first
failure or exception and returns (name, passed, detail) triples; the
detail of a failure names the trial, the seed and the command that
replays it.  trials=0 passes vacuously.
"""

from __future__ import annotations

import zlib

import numpy as np

from .field import (OpCounter, PrimeField, left_part, mat_mul, mat_vec,
                    random_matrix)
from .generators import (REP_KINDS, _represent, lt_bruhat, qs_from_dense,
                         random_left_triangular, random_qs, tree_generator)
from .orders import (lt_rpm, qs_order, qs_order_bruteforce,
                     qs_orders_bruteforce, quasiseparable_orders)
from .pluq import check_pluq_structure, pluq_rpm, rpm_bruteforce, rpm_from_pluq
from .structops import (matvec_bruhat, matvec_qs, mul_lt_by_flat, mul_lt_lt,
                        mul_qs_qs, qs_to_dense, reconstruct)
from .textio import format_generator, parse_generator

FIELD = PrimeField(65521)


def _seed(rng) -> int:
    return int(rng.integers(0, 2**31))


def _low_order(rng, n: int) -> np.ndarray:
    """Random left triangular n x n matrix of order below max(2, n // 3)."""
    return random_left_triangular(n, int(rng.integers(1, max(2, n // 3))), _seed(rng), FIELD)


def _check_left_projection_products(rng, trial):
    f = FIELD
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
    return np.array_equal(left_part(mat_mul(L, C, f)),
                          left_part(mat_mul(L, left_part(C), f)))


def _check_pluq_reconstruct(rng, trial):
    A = random_matrix(rng, int(rng.integers(1, 16)), int(rng.integers(1, 16)), FIELD)
    return np.array_equal(pluq_rpm(A, FIELD).reconstruct(), A)


def _check_pluq_rpm(rng, trial):
    f3 = PrimeField(3)
    A = random_matrix(rng, int(rng.integers(1, 12)), int(rng.integers(1, 12)), f3)
    return rpm_from_pluq(pluq_rpm(A, f3)).pivots == rpm_bruteforce(A, f3).pivots


def _check_pluq_structure(rng, trial):
    A = random_matrix(rng, int(rng.integers(1, 14)), int(rng.integers(1, 14)), FIELD)
    return check_pluq_structure(pluq_rpm(A, FIELD))


def _check_lt_rpm(rng, trial):
    n = int(rng.integers(1, 24))
    A = random_left_triangular(n, int(rng.integers(0, n)), _seed(rng), FIELD)
    return lt_rpm(A, FIELD).pivots == rpm_bruteforce(A, FIELD).left_part().pivots


def _check_qs_order(rng, trial):
    n = int(rng.integers(2, 24))
    A = random_left_triangular(n, int(rng.integers(0, n)), _seed(rng), FIELD)
    return qs_order(lt_rpm(A, FIELD).pivots, n) == qs_order_bruteforce(A, FIELD)


def _check_orders_full(rng, trial):
    n = int(rng.integers(2, 20))
    M = random_qs(n, int(rng.integers(0, n)), int(rng.integers(0, n)), _seed(rng), FIELD)
    return quasiseparable_orders(M, FIELD) == qs_orders_bruteforce(M, FIELD)


def _check_bruhat(rng, trial):
    n = int(rng.integers(2, 40))
    A = _low_order(rng, n)
    g = lt_bruhat(A, FIELD)
    order = qs_order_bruteforce(A, FIELD)
    bound = order * (n - order)
    return (np.array_equal(reconstruct(g), A)
            and g.nnz_lower() <= bound and g.nnz_upper() <= bound)


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


def _check_compact(rng, trial):
    n = int(rng.integers(2, 40))
    if trial % 2 and n >= 16:
        A = _banded_left_triangular(n, 2, 2, _seed(rng))
    else:
        A = _low_order(rng, n)
    cb = _represent(A, "compact", FIELD)
    return (np.array_equal(reconstruct(cb), A)
            and all(k >= w for k, w in zip(cb.lower.block_rows, cb.lower.widths)))


def _check_tree(rng, trial):
    A = _low_order(rng, int(rng.integers(2, 40)))
    return np.array_equal(reconstruct(tree_generator(A, FIELD)), A)


def _check_serialization(rng, trial):
    A = _low_order(rng, int(rng.integers(2, 24)))
    return all(np.array_equal(reconstruct(parse_generator(format_generator(
        _represent(A, kind, FIELD)))), A) for kind in REP_KINDS)


def _check_matvec(rng, trial):
    n = int(rng.integers(2, 32))
    M = random_qs(n, int(rng.integers(0, n)), int(rng.integers(0, n)), _seed(rng), FIELD)
    x = rng.integers(0, FIELD.p, n, dtype=np.int64)
    want = mat_vec(M, x, FIELD)
    return all(np.array_equal(matvec_qs(qs_from_dense(M, kind, FIELD), x), want)
               for kind in REP_KINDS)


def _check_matvec_cost(rng, trial):
    n = int(rng.integers(2, 32))
    A = _low_order(rng, n)
    g = lt_bruhat(A, FIELD)
    x = rng.integers(0, FIELD.p, n, dtype=np.int64)
    counter = OpCounter()
    got = matvec_bruhat(g, x, counter)
    return (np.array_equal(got, mat_vec(A, x, FIELD))
            and counter.muls <= g.nnz_lower() + g.nnz_upper())


def _check_mul_lt(rng, trial):
    n = int(rng.integers(2, 33))
    sa = int(rng.integers(1, 4))
    sb = int(rng.integers(1, 4))
    A = random_left_triangular(n, sa, _seed(rng), FIELD)
    B = random_left_triangular(n, sb, _seed(rng), FIELD)
    gA = tree_generator(A, FIELD)
    gB = tree_generator(B, FIELD)
    return (np.array_equal(mul_lt_lt(gA, gB), mat_mul(A, B, FIELD))
            and np.array_equal(mul_lt_by_flat(gA, reconstruct(gB)[::-1]),
                               mat_mul(A, B[::-1], FIELD)))


def _check_mul_qs(rng, trial):
    n = int(rng.integers(2, 28))
    MA, MB = (random_qs(n, int(rng.integers(0, min(n, 4))), int(rng.integers(0, min(n, 4))),
                        _seed(rng), FIELD) for _ in range(2))
    qa = qs_from_dense(MA, REP_KINDS[trial % 3], FIELD)
    qb = qs_from_dense(MB, REP_KINDS[trial // 3 % 3], FIELD)
    return (np.array_equal(mul_qs_qs(qa, qb), mat_mul(MA, MB, FIELD))
            and np.array_equal(qs_to_dense(qa), MA))


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
        ok, detail = True, ""
        for k in range(trials):
            try:
                ok = bool(fn(rng, k))
            except Exception as exc:      # noqa: BLE001 - report, don't crash
                ok, detail = False, f"{type(exc).__name__}: {exc}; "
            if not ok:
                detail += (f"trial {k}, seed {seed}; replay: quasisep verify "
                           f"{group} --seed {seed} --trials {k + 1}")
                break
        results.append((name, ok, detail))
    return results
