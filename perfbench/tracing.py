"""Per-layer tracing from outside the library.

`Tracer.installed()` wraps the public functions of each layer of
`quasisep` and rebinds every name that refers to them in any loaded
`quasisep` module (so `orders.pluq_rpm`, `generators.mat_mul` and the
`mat_mul` that trsm calls inside `field` all go through the wrapper),
then restores the originals.  Spans are kept in memory and summarised
after the traced pass.  Timed runs never install it.
"""

from __future__ import annotations

import contextlib
import functools
import sys
from time import perf_counter_ns

PACKAGE = "quasisep"

# (module, function, span name, what to keep from the call)
TARGETS = (
    ("field", "mat_mul", "field.mat_mul", None),
    ("field", "trsm_unit_lower", "field.trsm", None),
    ("field", "trsm_upper_right", "field.trsm", None),
    ("pluq", "pluq_rpm", "pluq.pluq_rpm", lambda a, out: out.r),
    ("orders", "quasiseparable_orders", "orders.quasiseparable_orders", None),
    ("orders", "lt_rpm", "orders.lt_rpm", lambda a, out: (a[0].shape[0], out.rank)),
    ("orders", "qs_order", "orders.qs_order", None),
    ("generators", "qs_from_dense", "generators.qs_from_dense", None),
    ("generators", "tree_generator", "generators.tree_generator", None),
    ("generators", "lt_bruhat", "generators.lt_bruhat", None),
    ("generators", "compact_bruhat", "generators.compact_bruhat", None),
    ("generators", "compact_to_bruhat", "generators.compact_to_bruhat", None),
    ("structops", "matvec_qs", "structops.matvec_qs", None),
    ("structops", "matvec_bruhat", "structops.matvec_bruhat", lambda a, out: a[0]),
    ("structops", "matvec_tree", "structops.matvec_tree", None),
    ("structops", "mul_qs_qs", "structops.mul_qs_qs", None),
    ("structops", "mul_lt_lt", "structops.mul_lt_lt", None),
    ("structops", "qs_to_dense", "structops.qs_to_dense", None),
    ("textio", "format_generator", "textio.format", lambda a, out: len(out)),
    ("textio", "parse_generator", "textio.parse", None),
)

SPAN_NAMES = tuple(dict.fromkeys(name for _, _, name, _ in TARGETS))


class Span:
    __slots__ = ("name", "start", "end", "parent", "op", "muls", "kept", "child_ns")

    def __init__(self, name, parent, op):
        self.name, self.parent, self.op = name, parent, op
        self.child_ns = 0
        self.kept = None


class Tracer:
    """Records one span per wrapped call: name, start, end, parent span and op."""

    def __init__(self, counter):
        self.counter = counter     # the OpCounter passed explicitly to the library
        self.op = "setup"          # label of the operation being run
        self.spans: list[Span] = []
        self._stack: list[Span] = []

    def wrap(self, name, fn, keep):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(name, self._stack[-1] if self._stack else None, self.op)
            self._stack.append(span)
            muls0 = self.counter.muls
            span.start = perf_counter_ns()
            try:
                out = fn(*args, **kwargs)
            finally:
                span.end = perf_counter_ns()
                span.muls = self.counter.muls - muls0
                self._stack.pop()
                self.spans.append(span)
                if span.parent is not None:
                    span.parent.child_ns += span.end - span.start
            if keep is not None:
                span.kept = keep(args, out)
            return out
        return traced

    @contextlib.contextmanager
    def installed(self):
        modules = [m for key, m in sys.modules.items()
                   if key == PACKAGE or key.startswith(PACKAGE + ".")]
        wrappers = {}
        for mod_name, fn_name, span_name, keep in TARGETS:
            fn = getattr(sys.modules[f"{PACKAGE}.{mod_name}"], fn_name)
            wrappers[id(fn)] = (fn, self.wrap(span_name, fn, keep))
        patched = []
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(mod, attr, hit[1])
                    patched.append((mod, attr, value))
        try:
            yield self
        finally:
            for mod, attr, value in patched:
                setattr(mod, attr, value)

    def summary(self) -> dict:
        """calls, self time (s) and muls per span name, plus the kept values."""
        out = {name: {"calls": 0, "self_ns": 0, "muls": 0} for name in SPAN_NAMES}
        for sp in self.spans:
            row = out[sp.name]
            row["calls"] += 1
            row["self_ns"] += sp.end - sp.start - sp.child_ns
            row["muls"] += sp.muls
        return out

    def within(self, span: Span, name: str) -> bool:
        parent = span.parent
        while parent is not None:
            if parent.name == name:
                return True
            parent = parent.parent
        return False
