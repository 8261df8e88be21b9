"""Command line front end.

Commands: generate, analyze, compress, verify, bench.
Exit codes: 0 ok, 1 verification failure, 2 usage or I/O error.
"""

from __future__ import annotations

import argparse
import sys
import time

import numpy as np

from . import verifysuite
from .field import OpCounter, PrimeField, strict_lower, strict_upper
from .generators import REP_KINDS, _represent, random_qs, tree_generator
from .orders import lt_rpm, qs_order
from .pluq import pluq_rpm
from .structops import mul_lt_lt
from .textio import ParseError, read_matrix, write_generator, write_matrix

BENCH_HEADER = "algo,n,s_target,s_actual,p,seed,adds,muls,invs,wall_ns,stored_elems"
BENCH_ALGOS = ("lt_rpm", "bruhat", "tree", "compact", "mul_lt_lt")


def cmd_generate(args) -> int:
    field = PrimeField(args.prime)
    M = random_qs(args.n, args.rl, args.ru, args.seed, field)
    write_matrix(args.out, M, field)
    return 0


def cmd_analyze(args) -> int:
    M, field = read_matrix(args.path)
    n = M.shape[0]
    if M.shape != (n, n):
        raise ParseError("analyze expects a square matrix")
    piv_low = lt_rpm(M[::-1], field)
    piv_up = lt_rpm(M[:, ::-1], field)
    print(f"n {n}")
    print(f"p {field.p}")
    print(f"r_l {qs_order(piv_low.pivots, n)}")
    print(f"r_u {qs_order(piv_up.pivots, n)}")
    # reversing rows or columns keeps the rank
    print(f"rank_lower {pluq_rpm(strict_lower(M), field).r}")
    print(f"rank_upper {pluq_rpm(strict_upper(M), field).r}")
    print(f"pivots_lower {piv_low.rank}")
    print(f"pivots_upper {piv_up.rank}")
    return 0


# stored-size bound of one side of order s, per kind; a compact side's
# dense blocks hold at most n*s diagonal plus n*s sub-diagonal entries
# per factor
_STORAGE_BOUNDS = {
    "tree": lambda n, s: s * n * (int(np.ceil(np.log2(n / s))) + 1) if s else 0,
    "bruhat": lambda n, s: 2 * s * (n - s),
    "compact": lambda n, s: 4 * s * n,
}


def cmd_compress(args) -> int:
    M, field = read_matrix(args.path)
    n = M.shape[0]
    if M.shape != (n, n):
        raise ParseError("compress expects a square matrix")
    parts = {"lower": M[::-1], "upper": M[:, ::-1]}
    print(f"kind {args.kind}")
    print(f"n {n}")
    print(f"p {field.p}")
    for name, A in parts.items():
        g = _represent(A, args.kind, field)
        # a tree keeps no pivot list; the other kinds carry their own
        s = qs_order((lt_rpm(A, field) if args.kind == "tree" else g).pivots, n)
        out_path = f"{args.out}.{name}"
        write_generator(out_path, g)
        print(f"s_{name} {s}")
        print(f"stored_{name} {g.stored_elements()}")
        print(f"bound_{name} {_STORAGE_BOUNDS[args.kind](n, s)}")
        print(f"wrote_{name} {out_path}")
    return 0


def cmd_verify(args) -> int:
    results = verifysuite.run(args.scope, args.seed, args.trials)
    failed = 0
    for name, ok, detail in results:
        tag = "ok  " if ok else "FAIL"
        suffix = f" ({detail})" if detail else ""
        print(f"{tag} {name} (trials={args.trials}){suffix}")
        failed += 0 if ok else 1
    print(f"{len(results) - failed}/{len(results)} checks passed")
    return 0 if failed == 0 else 1


def _bench_cell(algo: str, n: int, s: int, field: PrimeField, seed: int) -> tuple:
    """One CSV row, in BENCH_HEADER's order."""
    M = random_qs(n, s, s, seed, field)
    A = M[::-1]
    s_actual = qs_order(lt_rpm(A, field).pivots, n)
    counter = OpCounter()
    stored = 0
    if algo == "mul_lt_lt":
        gA = tree_generator(A, field)
        gB = tree_generator(M[:, ::-1], field)
        t0 = time.perf_counter_ns()
        mul_lt_lt(gA, gB, counter)
        stored = n * n
    elif algo == "lt_rpm":
        t0 = time.perf_counter_ns()
        lt_rpm(A, field, counter)
    elif algo in REP_KINDS:
        t0 = time.perf_counter_ns()
        stored = _represent(A, algo, field, counter).stored_elements()
    else:
        raise ValueError(f"unknown algo {algo!r}")
    wall = time.perf_counter_ns() - t0
    return (algo, n, s, s_actual, field.p, seed,
            counter.adds, counter.muls, counter.invs, wall, stored)


def cmd_bench(args) -> int:
    field = PrimeField(args.prime)
    algos = args.algo if args.algo else []
    n_list = args.n if args.n else []
    s_list = args.s if args.s else []
    cells = sorted((a, n, s) for a in algos for n in n_list for s in s_list)
    rows = []
    for idx, (a, n, s) in enumerate(cells):
        if not 0 <= s < max(n, 1):   # random_qs has no such instance
            print(f"skipped {a} n={n} s={s}: random_qs needs 0 <= s < max(n, 1)",
                  file=sys.stderr)
            continue
        rows.append(_bench_cell(a, n, s, field, args.seed + idx))
    with open(args.csv, "w", newline="\n") as f:
        f.write(BENCH_HEADER + "\n")
        for row in rows:
            f.write(",".join(map(str, row)) + "\n")
    print(f"wrote {args.csv} ({len(rows)} rows)")
    return 0


def _int_list(text: str) -> list:
    return [int(t) for t in text.split(",") if t]


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="quasisep",
                                 description="exact quasiseparable structure toolkit")
    sub = ap.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate", help="write a random quasiseparable matrix")
    g.add_argument("--n", type=int, required=True)
    g.add_argument("--rl", type=int, default=1)
    g.add_argument("--ru", type=int, default=1)
    g.add_argument("--prime", type=int, default=65521)
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--out", required=True)
    g.set_defaults(func=cmd_generate)

    a = sub.add_parser("analyze", help="report quasiseparable orders of a matrix file")
    a.add_argument("path")
    a.set_defaults(func=cmd_analyze)

    c = sub.add_parser("compress", help="build and serialize a generator")
    c.add_argument("path")
    c.add_argument("--kind", choices=("tree", "bruhat", "compact"), default="bruhat")
    c.add_argument("--out", required=True)
    c.set_defaults(func=cmd_compress)

    v = sub.add_parser("verify", help="run the property suites")
    v.add_argument("scope", nargs="?", default="all",
                   choices=("all", "pluq", "orders", "generators", "ops"))
    v.add_argument("--seed", type=int, default=0)
    v.add_argument("--trials", type=int, default=20)
    v.set_defaults(func=cmd_verify)

    b = sub.add_parser("bench", help="operation-count benchmarks to CSV")
    b.add_argument("--algo", type=lambda s: [t for t in s.split(",") if t],
                   default=list(BENCH_ALGOS))
    b.add_argument("--n", type=_int_list, default=[])
    b.add_argument("--s", type=_int_list, default=[])
    b.add_argument("--prime", type=int, default=65521)
    b.add_argument("--seed", type=int, default=0)
    b.add_argument("--csv", required=True)
    b.set_defaults(func=cmd_bench)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (OSError, ParseError, ValueError, ZeroDivisionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
