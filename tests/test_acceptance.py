"""Acceptance suite: one test per criterion, exact checks at pinned bounds.

Run with `pytest tests/test_acceptance.py -v -s` to see one line per
criterion next to the pytest verdicts.
"""

import itertools
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from quasisep import (OpCounter, check_pluq_structure, compact_bruhat,
                      compress_echelon, lt_bruhat, lt_rpm, mat, mat_mul,
                      mat_vec, matvec_bruhat, matvec_qs, mul_lt_lt, mul_qs_qs,
                      pluq_rpm, qs_from_dense, qs_order,
                      qs_order_bruteforce, qs_orders_bruteforce,
                      random_left_triangular, random_matrix, random_qs, rank,
                      reconstruct, rpm_bruteforce, rpm_from_pluq,
                      tree_generator)
from quasisep.cli import BENCH_HEADER

from util import (F2, F3, F5, F65521, decode_compact_side, dense_factor,
                  high_rank_left_triangular, one_based,
                  superdiagonal_above_antidiagonal)

ROOT = Path(__file__).resolve().parents[1]


def _report(num, text):
    print(f"PASS criterion {num}: {text}")


def _corpus(seed):
    """200 random square matrices, n <= 32, p in {2, 3, 65521}."""
    rng = np.random.default_rng(seed)
    fields = [F2, F3, F65521]
    out = []
    for trial in range(200):
        f = fields[trial % 3]
        n = int(rng.integers(1, 33))
        if trial % 2:
            A = random_left_triangular(n, int(rng.integers(0, n)),
                                       int(rng.integers(0, 2**31)), f)
        else:
            A = random_matrix(rng, n, n, f)
        out.append((A, f))
    return out


def test_criterion_1_rpm_worked_example():
    A = mat(F5, [[1, 1, 0], [1, 0, 0], [0, 0, 0]])
    rpm_from_pluq(pluq_rpm(A, F5))  # warm-up
    t0 = time.perf_counter_ns()
    got_pluq = one_based(rpm_from_pluq(pluq_rpm(A, F5)))
    got_brute = one_based(rpm_bruteforce(A, F5))
    elapsed = time.perf_counter_ns() - t0
    assert got_pluq == [(1, 1), (2, 2)]
    assert got_brute == [(1, 1), (2, 2)]
    assert elapsed < 1_000_000, f"took {elapsed} ns"
    _report(1, f"worked RPM example pivots {{(1,1),(2,2)}} in {elapsed / 1e3:.0f} us")


def test_criterion_2_lt_rpm_oracle_equivalence():
    t0 = time.perf_counter()
    for bits in itertools.product((0, 1), repeat=9):
        A = np.array(bits, dtype=np.int64).reshape(3, 3)
        assert lt_rpm(A, F2).pivots == rpm_bruteforce(A, F2).left_part().pivots
    for A, f in _corpus(20):
        assert lt_rpm(A, f).pivots == rpm_bruteforce(A, f).left_part().pivots
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0, f"took {elapsed:.1f} s"
    _report(2, f"512 exhaustive GF(2) + 200 random matrices in {elapsed:.2f} s")


def test_criterion_3_qs_order_oracle_equivalence():
    for A, f in _corpus(30):
        n = A.shape[0]
        assert qs_order(lt_rpm(A, f).pivots, n) == qs_order_bruteforce(A, f)
    B = superdiagonal_above_antidiagonal(8)
    assert rank(B, F65521) == 7
    assert qs_order(lt_rpm(B, F65521).pivots, 8) == 1
    C = random_left_triangular(12, 3, 7, F65521)
    assert qs_order_bruteforce(C, F65521) == 3
    assert qs_order(lt_rpm(C, F65521).pivots, 12) == 3
    _report(3, "qs_order(lt_rpm) == brute force on corpus + extreme fixtures")


def test_criterion_4_pluq_structure():
    rng = np.random.default_rng(40)
    fields = [F2, F3, F65521]
    for trial in range(200):
        f = fields[trial % 3]
        m = int(rng.integers(1, 25))
        n = int(rng.integers(1, 25))
        d = pluq_rpm(random_matrix(rng, m, n, f), f)
        assert check_pluq_structure(d)
    _report(4, "P[L|0]P^T / Q^T[U;0]Q triangular on 200 random PLUQs")


def test_criterion_5_bruhat_reconstruction_and_size():
    t0 = time.perf_counter()
    rng = np.random.default_rng(50)
    for _ in range(100):
        n = int(rng.integers(2, 129))
        A = random_left_triangular(n, int(rng.integers(1, max(2, n // 4))),
                                   int(rng.integers(0, 2**31)), F65521)
        g = lt_bruhat(A, F65521)
        assert np.array_equal(reconstruct(g), A)
        s = qs_order_bruteforce(A, F65521)
        assert g.nnz_lower() <= s * (n - s)
        assert g.nnz_upper() <= s * (n - s)
    A80 = random_left_triangular(80, 5, 2, F65521)
    assert qs_order_bruteforce(A80, F65521) == 5
    g80 = lt_bruhat(A80, F65521)
    assert np.array_equal(reconstruct(g80), A80)
    assert g80.stored_elements() <= 750
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0, f"took {elapsed:.1f} s"
    _report(5, f"100 reconstructions, segment-count bounds, 80x80 order-5 fixture "
               f"in {elapsed:.2f} s")


def test_criterion_6_compact_bruhat():
    rng = np.random.default_rng(60)
    instances = []
    for _ in range(60):
        n = int(rng.integers(2, 97))
        instances.append(random_left_triangular(
            n, int(rng.integers(1, max(2, n // 4))), int(rng.integers(0, 2**31)),
            F65521))
    # rank >> order instances drive the multi-block path with column moves
    instances += [high_rank_left_triangular(int(rng.integers(24, 97)), 2, 2,
                                            int(rng.integers(0, 2**31)), F65521)
                  for _ in range(20)]
    deepest = 0
    for A in instances:
        n = A.shape[0]
        g = lt_bruhat(A, F65521)
        s = qs_order(g.pivots, n)
        if s == 0:
            continue
        ce = compress_echelon(g, s)
        deepest = max(deepest, ce.t)
        assert np.array_equal(decode_compact_side(ce), dense_factor(g))
        widths = ce.widths
        for b, k in enumerate(ce.block_rows):
            assert k >= widths[b]
        cb = compact_bruhat(g, s)
        assert np.array_equal(reconstruct(cb), A)
    assert deepest >= 3
    _report(6, f"compress/decompress identity, k_i >= s, "
               f"Left((D+ST)R(D+TS)) == A (deepest t={deepest})")


def test_criterion_7_tree_storage():
    for s in (1, 2, 4, 8, 16):
        A = random_left_triangular(256, s, 70 + s, F65521)
        g = tree_generator(A, F65521)
        bound = s * 256 * (int(np.ceil(np.log2(256 / s))) + 1)
        assert np.array_equal(reconstruct(g), A)
        assert g.stored_elements() <= bound, (s, g.stored_elements(), bound)
    _report(7, "n=256 tree storage within s*n*(ceil(log2(n/s))+1) for s in 1..16")


def test_criterion_8_matvec_agreement():
    rng = np.random.default_rng(80)
    for kind in ("tree", "bruhat", "compact"):
        for _ in range(100):
            n = int(rng.integers(1, 49))
            rl = int(rng.integers(0, n)) if n > 1 else 0
            ru = int(rng.integers(0, n)) if n > 1 else 0
            M = random_qs(n, rl, ru, int(rng.integers(0, 2**31)), F65521)
            x = rng.integers(0, F65521.p, n, dtype=np.int64)
            qs = qs_from_dense(M, kind, F65521)
            assert np.array_equal(matvec_qs(qs, x), mat_vec(M, x, F65521))
    for _ in range(100):
        n = int(rng.integers(2, 49))
        A = random_left_triangular(n, int(rng.integers(1, max(2, n // 3))),
                                   int(rng.integers(0, 2**31)), F65521)
        g = lt_bruhat(A, F65521)
        x = rng.integers(0, F65521.p, n, dtype=np.int64)
        c = OpCounter()
        assert np.array_equal(matvec_bruhat(g, x, c), mat_vec(A, x, F65521))
        assert c.muls <= g.nnz_lower() + g.nnz_upper()
    _report(8, "matvec agreement for all three representations + cost bound")


def test_criterion_9_multiplication():
    rng = np.random.default_rng(90)
    for _ in range(50):
        n = int(rng.integers(4, 129))
        la, ua = 2, 3
        lb, ub = 3, 1
        MA = random_qs(n, la, ua, int(rng.integers(0, 2**31)), F65521)
        MB = random_qs(n, lb, ub, int(rng.integers(0, 2**31)), F65521)
        qa = qs_from_dense(MA, "tree", F65521)
        qb = qs_from_dense(MB, "tree", F65521)
        got = mul_qs_qs(qa, qb)
        assert np.array_equal(got, mat_mul(MA, MB, F65521))
        orders = qs_orders_bruteforce(got, F65521)
        assert orders.r_l <= la + lb
        assert orders.r_u <= ua + ub
    _report(9, "50 products equal the dense oracle; orders within (l_A+l_B, u_A+u_B)")


def test_criterion_10_complexity_scaling():
    t0 = time.perf_counter()

    def muls(algo, n, s, seed):
        c = OpCounter()
        A = random_left_triangular(n, s, seed, F65521)
        if algo == "lt_rpm":
            lt_rpm(A, F65521, c)
        elif algo == "lt_bruhat":
            lt_bruhat(A, F65521, c)
        else:
            B = random_left_triangular(n, s, seed + 1, F65521)
            mul_lt_lt(tree_generator(A, F65521), tree_generator(B, F65521), c)
        return c.muls

    ratios = {}
    for algo in ("lt_rpm", "lt_bruhat", "mul_lt_lt"):
        m128 = muls(algo, 128, 4, 1000)
        m256 = muls(algo, 256, 4, 1001)
        m256s8 = muls(algo, 256, 8, 1002)
        n_ratio = m256 / m128
        s_ratio = m256s8 / m256
        assert 3.0 <= n_ratio <= 5.0, (algo, n_ratio)
        assert s_ratio <= 2.6, (algo, s_ratio)
        ratios[algo] = (n_ratio, s_ratio)
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0, f"took {elapsed:.1f} s"
    detail = ", ".join(f"{a} n x{r[0]:.2f} s x{r[1]:.2f}" for a, r in ratios.items())
    _report(10, f"{detail} in {elapsed:.1f} s")


def _run_cli(*args):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src") + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run([sys.executable, "-m", "quasisep.cli", *args],
                          capture_output=True, text=True, env=env)


def test_criterion_11_cli_determinism(tmp_path):
    a, b = tmp_path / "a.txt", tmp_path / "b.txt"
    for path in (a, b):
        proc = _run_cli("generate", "--n", "16", "--rl", "2", "--ru", "2",
                        "--seed", "42", "--out", str(path))
        assert proc.returncode == 0
    assert a.read_bytes() == b.read_bytes()
    proc = _run_cli("verify", "all", "--trials", "5")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    csv = tmp_path / "bench.csv"
    proc = _run_cli("bench", "--csv", str(csv))
    assert proc.returncode == 0
    assert csv.read_bytes().split(b"\n")[0] == BENCH_HEADER.encode()
    _report(11, "generate is byte-deterministic, verify all exits 0, CSV header exact")
