"""The benchmark reaches into the library by name and by data layout: its
tracer wraps functions by name, its oracles read generator fields."""

import importlib
import importlib.util
from pathlib import Path

import numpy as np

from quasisep import qs_from_dense, random_qs
from quasisep.generators import REP_KINDS
from quasisep.textio import format_generator, parse_generator

from util import F65521

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_functions_exist():
    tracing = _load("tracing")
    assert tracing.TARGETS
    for module, name, _, _ in tracing.TARGETS:
        mod = importlib.import_module(f"{tracing.PACKAGE}.{module}")
        assert callable(getattr(mod, name, None)), f"{module}.{name}"


def test_oracles_apply_every_kind():
    # the oracles apply a QsMatrix from its stored fields alone (rep.size,
    # node.pluq, node.block, lower_segs, CompactEchelon moves and ech_cols)
    oracles = _load("oracles")
    p = F65521.p
    rng = np.random.default_rng(61)
    for n in (1, 37, 64):
        s = min(3, n - 1)
        M = random_qs(n, s, s, 17 + n, F65521)
        x = rng.integers(0, p, n, dtype=np.int64)
        for kind in ("tree", "bruhat", "compact"):
            y = oracles.qs_apply(qs_from_dense(M, kind, F65521), x, p)
            assert np.array_equal(y, (M @ x) % p), (n, kind)


def test_oracles_same_after_text_round_trip():
    # the compress workload's serialize op compares parsed and built
    # generators field by field with `oracles.same`
    oracles = _load("oracles")
    for n in (1, 37, 64):
        s = min(3, n - 1)
        M = random_qs(n, s, s, 17 + n, F65521)
        for kind in REP_KINDS:
            Q = qs_from_dense(M, kind, F65521)
            for g in (Q.lower, Q.upper):
                assert oracles.same(parse_generator(format_generator(g)), g), (n, kind)
