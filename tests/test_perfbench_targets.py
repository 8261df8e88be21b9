"""The benchmark's tracer wraps library functions by name; each must exist."""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_traced_functions_exist():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert tracing.TARGETS
    for module, name, _, _ in tracing.TARGETS:
        mod = importlib.import_module(f"{tracing.PACKAGE}.{module}")
        assert callable(getattr(mod, name, None)), f"{module}.{name}"
