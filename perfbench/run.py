"""Benchmark for quasisep: one workload per run, closed loop, one caller, one thread.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload orders --seed 1 --seconds 12 --trace 0

With --trace 0 the run times the workload's operations (no OpCounter, no
wrappers) and reports the end-to-end metrics; with --trace 1 it runs the
same operations with every layer wrapped from outside and reports the
per-layer metrics.  The last line of standard output is one JSON object
with the keys correct, attempted, failed and metrics; the line before it
is a fuller report: every named metric with its unit, sample count and
tail, the raw wall times, the workload notes and the provenance.

Times are in reference units.  On a shared host the speed of the machine
drifts by tens of percent over seconds, so fixed calibration kernels
(owned here, never the library) are timed just before and just after each
measured call, and the call's wall time is scaled by REF_CAL_NS over the
mean of those two readings.  That follows the drift that a median over one
run cannot; the unscaled medians and tails are in the report beside them.
"""

from __future__ import annotations

import os
import sys

# Cap the thread pools before numpy is imported: the load is one caller on one
# thread, and a pool wider than the machine only adds contention.
NPROC = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
THREAD_CAPS = {}
for _var in THREAD_VARS:
    try:
        _cap = min(int(os.environ.get(_var, NPROC)), NPROC)
    except ValueError:
        _cap = NPROC
    os.environ[_var] = THREAD_CAPS[_var] = str(max(_cap, 1))

import argparse
import json
import platform
import statistics
import subprocess
import tracemalloc
from pathlib import Path
from time import perf_counter, perf_counter_ns
from typing import NamedTuple

import numpy as np

from tracing import SPAN_NAMES, Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPS = 5          # timed set-ups per run, at least; setup_s is their median
SETUP_MIN_S = 1.0       # and set-up is repeated for this long, so a tiny one gets many samples
MIN_CYCLES = 3          # timed passes through the mix, at least
TRACE_ROUNDS = 2        # traced (setup + pass) rounds, at least
MIB = 1 << 20
LOOP = "closed loop: one caller on one thread starts each call after the previous one returns"

# Calibration: three small kernels owned here, never the library, one for
# each regime the library's calls spend time in: a loop of Python integer
# arithmetic, a Python loop that reads and writes numpy scalars, and an
# int64 product in cache.  Contention on a shared host slows these regimes
# by different amounts, so one kernel alone tracks only the calls like it;
# the geometric mean of the three is the machine's current speed, about
# 0.70 ms at its fastest on a 2-core Xeon VM.
_CAL_P = 65521
_CAL_RNG = np.random.default_rng(0)
_CAL_MUL = _CAL_RNG.integers(0, _CAL_P, (96, 96), dtype=np.int64)
_CAL_VEC = _CAL_RNG.integers(0, _CAL_P, 2001, dtype=np.int64)
_CAL_OUT = np.zeros(2000, dtype=np.int64)
REF_CAL_NS = 700_000


def _cal_loop():
    a = 1
    for i in range(10000):
        a = (a * 31 + i) % _CAL_P


def _cal_scalars():
    acc = 0
    for t in range(2000):
        acc = (acc + int(_CAL_VEC[t]) * int(_CAL_VEC[t + 1])) % _CAL_P
        _CAL_OUT[t] = acc


def _cal_mul():
    (_CAL_MUL @ _CAL_MUL) % _CAL_P


CAL_KERNELS = (_cal_loop, _cal_scalars, _cal_mul)


def calibration_ns() -> float:
    """Geometric mean over the kernels of the faster of two timings each."""
    prod = 1.0
    for kernel in CAL_KERNELS:
        best = None
        for _ in range(2):
            t0 = perf_counter_ns()
            kernel()
            dt = perf_counter_ns() - t0
            best = dt if best is None else min(best, dt)
        prod *= best
    return prod ** (1 / len(CAL_KERNELS))


class Sample:
    """One measured call: raw wall time and the time scaled to the reference speed."""

    def __init__(self, raw_ns: int, cal_ns: float):
        self.raw_ns = raw_ns
        self.cal_ns = cal_ns
        self.ns = raw_ns * REF_CAL_NS / cal_ns


def attempt(fn, errors: list):
    """fn(), or None if it raised."""
    try:
        return fn()
    except Exception as exc:  # any exception, CompressionError included, is a failed op
        errors.append(f"{type(exc).__name__}: {exc}")
        return None


def timed(fn, errors: list):
    """Run fn(); returns (output or None if it raised, Sample)."""
    before = calibration_ns()
    t0 = perf_counter_ns()
    out = attempt(fn, errors)
    raw = perf_counter_ns() - t0
    return out, Sample(raw, (before + calibration_ns()) / 2)


def checked(op, out, errors: list) -> bool:
    if out is None:
        return False
    try:
        ok = bool(op.check(out))
    except Exception as exc:
        errors.append(f"check raised {type(exc).__name__}: {exc}")
        return False
    if not ok:
        errors.append(f"wrong output for op kind {op.kind}")
    return ok


def summarize(samples: list, unit: str = "ms") -> dict:
    """Median (scaled), the highest percentile with ten samples above it, and raw medians."""
    scale = 1e6 if unit == "ms" else 1e9
    xs = sorted(s.ns / scale for s in samples)
    raw = sorted(s.raw_ns / scale for s in samples)
    k = len(xs)
    out = {"value": statistics.median(xs), "unit": unit, "samples": k, "tail": None,
           "raw_median": statistics.median(raw),
           "cal_median_ms": statistics.median(s.cal_ns for s in samples) / 1e6}
    if k >= 11:
        out["tail"] = {"pct": round(100.0 * (k - 10) / k, 1), "value": xs[k - 11],
                       "raw_value": raw[k - 11]}
    return out


def import_seconds() -> float:
    """Time to import quasisep in a fresh interpreter that has already imported numpy."""
    code = ("import time, numpy; t = time.perf_counter(); import quasisep; "
            "print(time.perf_counter() - t)")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT, timeout=120,
                          capture_output=True, text=True, check=True)
    return float(done.stdout.strip())


# ---------------------------------------------------------------------------
# timed run


def run_timed(w, qs, seconds: int) -> tuple:
    errors: list = []
    tracemalloc.start()
    w.setup(qs)
    setup_peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    setup = []
    t_end = perf_counter() + SETUP_MIN_S
    while len(setup) < SETUP_REPS or perf_counter() < t_end:
        before = calibration_ns()
        t0 = perf_counter_ns()
        state = w.setup(qs)
        raw = perf_counter_ns() - t0
        setup.append(Sample(raw, (before + calibration_ns()) / 2))
    imports = [import_seconds() for _ in range(SETUP_REPS)]

    mem = memory_pass(w, qs, state, errors)     # also the warm-up
    attempted, failed = mem.attempted, mem.failed

    samples = [[] for _ in w.kinds]
    cycles = []
    t_end = perf_counter() + seconds
    c = 1
    while len(cycles) < MIN_CYCLES or perf_counter() < t_end:
        raw = scaled = 0
        for op in w.cycle(qs, state, c):
            out, sample = timed(lambda: op.run(None), errors)
            samples[op.kind].append(sample)
            raw += sample.raw_ns
            scaled += sample.ns
            attempted += 1
            failed += not checked(op, out, errors)
            del out
        # A pass's time is the sum of its calls' times, raw and scaled alike.
        cycles.append(Sample(raw, raw * REF_CAL_NS / scaled))
        c += 1

    named = {name: summarize(xs) for name, xs in zip(w.kinds, samples)}
    named["cycle_ms"] = summarize(cycles)
    named["setup_s"] = summarize(setup, "s")
    # Not gated: it varies with the file cache far more than setup_s does, but
    # work moved to import time shows here.
    named["import_s"] = {"value": statistics.median(imports), "unit": "s", "samples": SETUP_REPS}
    named["setup_peak_mib"] = {"value": setup_peak / MIB, "unit": "MiB"}
    named["peak_mib"] = {"value": mem.peak / MIB, "unit": "MiB"}
    named["fail_ratio"] = {"value": failed / attempted, "unit": "ratio"}
    gated = {f"op{k + 1}_ms": named[name] for k, name in enumerate(w.kinds[:3])}
    for name in ("cycle_ms", "setup_s", "setup_peak_mib", "peak_mib"):
        gated[name] = named[name]
    metrics = {name: {"value": m["value"], "unit": m["unit"]} for name, m in gated.items()}
    return metrics, named, attempted, failed, errors, failed == 0


# ---------------------------------------------------------------------------
# traced run

# Spans whose inclusive multiplication count an optimisation is likely to move.
SPANS_WITH_MULS = ("field.mat_mul", "field.trsm", "pluq.pluq_rpm", "orders.lt_rpm",
                   "generators.tree_generator", "generators.lt_bruhat", "structops.matvec_qs",
                   "structops.matvec_bruhat", "structops.matvec_tree", "structops.mul_qs_qs",
                   "structops.mul_lt_lt")
OPS = ("op1", "op2", "op3")
PER_LAYER = (
    [(f"{s}.calls", "count") for s in SPAN_NAMES]
    + [(f"{s}.self_s", "s") for s in SPAN_NAMES]
    + [(f"{s}.muls", "count") for s in SPANS_WITH_MULS]
    + [("pluq.pluq_rpm.rank_sum", "count"), ("orders.pad_ratio", "ratio"),
       ("orders.pivot_yield", "ratio")]
    + [(f"pluq.pluq_rpm.muls.{t}", "count") for t in OPS]
    + [(f"pluq.pluq_rpm.rank_sum.{t}", "count") for t in OPS]
    + [(f"orders.pad_ratio.{t}", "ratio") for t in OPS]
    + [(f"orders.pivot_yield.{t}", "ratio") for t in OPS]
    + [(f"generators.stored.{k}", "count") for k in ("tree", "bruhat", "compact")]
    + [("generators.peak_per_stored", "ratio"), ("structops.muls_per_stored", "ratio"),
       ("textio.bytes", "bytes")]
    + [(f"trace.overhead_ratio.{t}", "ratio") for t in OPS + ("cycle",)]
    + [("ref.dense_matvec_ms", "ms"), ("ref.dense_matmul_ms", "ms")]
    + [(f"ref.{t}_over_dense", "ratio") for t in OPS]
)


def _next_pow2(n: int) -> int:
    return 1 << max(n - 1, 0).bit_length()


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def kind_times(w, ops, samples) -> list:
    """Scaled ns per op kind for one pass (each kind runs once per pass)."""
    out = [0.0] * len(w.kinds)
    for op, sample in zip(ops, samples):
        out[op.kind] += sample.ns
    return out


def traced_round(w, qs) -> tuple:
    counter = qs.OpCounter()
    tracer = Tracer(counter)
    ops, outs, samples = [], [], []
    errors: list = []
    with tracer.installed():
        state = w.setup(qs, counter)
        for op in w.cycle(qs, state, 0):
            tracer.op = op.kind
            out, sample = timed(lambda: op.run(counter), errors)
            ops.append(op)
            outs.append(out)
            samples.append(sample)
    return tracer, ops, outs, samples, errors


def layer_metrics(tracer) -> dict:
    """Per-layer values of one traced round."""
    m = {}
    for name, row in tracer.summary().items():
        m[f"{name}.calls"] = row["calls"]
        m[f"{name}.self_s"] = row["self_ns"] / 1e9
        m[f"{name}.muls"] = row["muls"]
    pluq = [sp for sp in tracer.spans if sp.name == "pluq.pluq_rpm"]
    lt = [sp for sp in tracer.spans if sp.name == "orders.lt_rpm"]

    def pad_and_yield(lt_spans, pluq_spans):
        pad = _ratio(sum(_next_pow2(sp.kept[0]) ** 2 for sp in lt_spans),
                     sum(sp.kept[0] ** 2 for sp in lt_spans))
        found = sum(sp.kept for sp in pluq_spans if tracer.within(sp, "orders.lt_rpm"))
        return pad, _ratio(sum(sp.kept[1] for sp in lt_spans), found)

    m["pluq.pluq_rpm.rank_sum"] = sum(sp.kept for sp in pluq)
    m["orders.pad_ratio"], m["orders.pivot_yield"] = pad_and_yield(lt, pluq)
    for k, tag in enumerate(OPS):
        pk = [sp for sp in pluq if sp.op == k]
        m[f"pluq.pluq_rpm.muls.{tag}"] = sum(sp.muls for sp in pk)
        m[f"pluq.pluq_rpm.rank_sum.{tag}"] = sum(sp.kept for sp in pk)
        m[f"orders.pad_ratio.{tag}"], m[f"orders.pivot_yield.{tag}"] = pad_and_yield(
            [sp for sp in lt if sp.op == k], pk)
    mv = [sp for sp in tracer.spans if sp.name == "structops.matvec_bruhat"]
    m["structops.muls_per_stored"] = _ratio(
        sum(sp.muls for sp in mv), sum(sp.kept.nnz_lower() + sp.kept.nnz_upper() for sp in mv))
    m["textio.bytes"] = sum(sp.kept for sp in tracer.spans if sp.name == "textio.format")
    return m


class MemoryPass(NamedTuple):
    peak: int                   # bytes: the largest call's peak above its starting level
    stored: dict                # stored elements per generator kind
    peak_per_stored: float      # worst call peak over 8 bytes per stored element
    attempted: int
    failed: int


def memory_pass(w, qs, state, errors: list) -> MemoryPass:
    """One untimed pass through the mix, each call under tracemalloc, every output checked.

    Tracing starts just before each call and stops as soon as it returns,
    before its output is checked, so the oracles' allocations never count.
    """
    stored = {kind: 0 for kind in ("tree", "bruhat", "compact")}
    peak = attempted = failed = 0
    worst = 0.0
    for op in w.cycle(qs, state, 0):
        tracemalloc.start()
        out = attempt(lambda: op.run(None), errors)
        top = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        peak = max(peak, top)
        if out is not None and op.generators is not None:
            size = 0
            for Q in op.generators(out):
                elems = Q.lower.stored_elements() + Q.upper.stored_elements()
                stored[Q.rep_kind] = stored[Q.rep_kind] or elems
                size += elems
            worst = max(worst, _ratio(top, 8 * size))
        attempted += 1
        failed += not checked(op, out, errors)
        del out
    return MemoryPass(peak, stored, worst, attempted, failed)


def run_traced(w, qs, seconds: int) -> tuple:
    from oracles import same

    errors: list = []
    t_end = perf_counter() + seconds

    state = w.setup(qs)
    mem = memory_pass(w, qs, state, errors)     # also the warm-up
    attempted, failed = mem.attempted, mem.failed
    # Untraced pass: the outputs traced rounds must reproduce, and the times
    # the tracing overhead is measured against.
    ref_ops, ref_outs, ref_samples = [], [], []
    for op in w.cycle(qs, state, 0):
        out, sample = timed(lambda: op.run(None), errors)
        attempted += 1
        failed += not checked(op, out, errors)
        ref_ops.append(op)
        ref_outs.append(out)
        ref_samples.append(sample)
    untraced_ns = kind_times(w, ref_ops, ref_samples)

    rounds, traced_ns = [], []
    while len(rounds) < TRACE_ROUNDS or perf_counter() < t_end:
        tracer, ops, outs, samples, errs = traced_round(w, qs)
        errors += errs
        for i, (op, out) in enumerate(zip(ops, outs)):
            attempted += 1
            ok = checked(op, out, errors)
            if not same(out, ref_outs[i]):
                errors.append(f"traced output {i} differs from the untraced one")
                ok = False
            failed += not ok
        rounds.append(layer_metrics(tracer))
        traced_ns.append(kind_times(w, ops, samples))
        del tracer, ops, outs

    repeat_ok = True
    for key, value in rounds[0].items():
        # Everything but times is a count or a ratio of counts, and must repeat exactly.
        if not key.endswith("self_s") and any(r[key] != value for r in rounds[1:]):
            errors.append(f"{key} differs between traced rounds")
            repeat_ok = False
    mv_ratio = rounds[0]["structops.muls_per_stored"]
    if mv_ratio > 1:
        errors.append(f"matvec muls per stored nonzero is {mv_ratio} > 1")

    values = {key: statistics.median(r[key] for r in rounds) if key.endswith("self_s") else value
              for key, value in rounds[0].items()}
    for name, value in mem.stored.items():
        values[f"generators.stored.{name}"] = value
    values["generators.peak_per_stored"] = mem.peak_per_stored
    for k, tag in enumerate(OPS):
        values[f"trace.overhead_ratio.{tag}"] = _ratio(
            statistics.median(t[k] for t in traced_ns), untraced_ns[k])
    values["trace.overhead_ratio.cycle"] = _ratio(
        statistics.median(sum(t) for t in traced_ns), sum(untraced_ns))

    # Dense references: same job, no structure.  Reported, never gated.
    values["ref.dense_matvec_ms"] = values["ref.dense_matmul_ms"] = 0.0
    dense_ns = [0.0] * len(OPS)
    if hasattr(w, "dense_reference"):
        label, calls, reps = w.dense_reference(qs)
        medians = {}
        for k, fn in enumerate(calls):
            if id(fn) not in medians:
                medians[id(fn)] = statistics.median(timed(fn, errors)[1].ns for _ in range(reps))
            dense_ns[k] = medians[id(fn)]
        values[label] = dense_ns[0] / 1e6
    for k, tag in enumerate(OPS):
        values[f"ref.{tag}_over_dense"] = _ratio(untraced_ns[k], dense_ns[k])
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER}

    correct = failed == 0 and repeat_ok and mv_ratio <= 1
    named = {"rounds": len(rounds), "repeat_exact": repeat_ok}
    return metrics, named, attempted, failed, errors, correct


# ---------------------------------------------------------------------------
# provenance


def git_sha():
    git = ROOT / ".git"
    try:
        ref = (git / "HEAD").read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        if (git / name).exists():
            return (git / name).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.machine()


def provenance() -> dict:
    return {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": NPROC,
        "cpu": cpu_model(),
        "thread_caps": THREAD_CAPS,
        "ref_cal_ns": REF_CAL_NS,
        "src_lines": {f.stem: len(f.read_text().splitlines())
                      for f in sorted((SRC / "quasisep").glob("*.py"))},
    }


# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "quasisep").is_dir():
        print(f"no quasisep sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    try:
        import quasisep as qs
        import quasisep.textio  # noqa: F401  (traced layer, reached as qs.textio)
    except ImportError as exc:
        print(f"cannot import quasisep from {SRC}: {exc}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    w = WORKLOADS[args.workload](args.seed, qs)

    run = run_traced if args.trace else run_timed
    metrics, named, attempted, failed, errors, correct = run(w, qs, args.seconds)
    for msg in errors[:20]:
        print(msg, file=sys.stderr)

    report = {"workload": w.name, "why": w.why, "inputs": w.shape, "seed": args.seed,
              "load": LOOP, "kinds": dict(zip(("op1_ms", "op2_ms", "op3_ms"), w.kinds)),
              "trace": args.trace, "named": named, "provenance": provenance()}
    print(json.dumps({"report": report}))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
