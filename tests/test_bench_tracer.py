"""The benchmark tracer wraps package functions by name; every name must exist."""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def test_every_traced_layer_resolves():
    # Tracer.install looks each name up with getattr, so a rename in the
    # package would break the benchmark's --trace 1 pass
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    missing = [f"{modname}.{fname}"
               for modname, names in tracer.LAYERS.items() for fname in names
               if not callable(getattr(importlib.import_module(modname), fname, None))]
    assert missing == []
