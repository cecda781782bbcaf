"""The benchmark drives the package by name and through its input files; every
name it uses must exist and every input it writes must load."""

import importlib
import importlib.util
import sys
from pathlib import Path

from chaoscal.modelio import load_config, load_schedule

BENCH = Path(__file__).resolve().parents[1] / "bench"
TRACER = BENCH / "tracer.py"


def _load(name, path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_layer_resolves():
    # Tracer.install looks each name up with getattr, so a rename in the
    # package would break the benchmark's --trace 1 pass
    tracer = _load("bench_tracer", TRACER)
    missing = [f"{modname}.{fname}"
               for modname, names in tracer.LAYERS.items() for fname in names
               if not callable(getattr(importlib.import_module(modname), fname, None))]
    assert missing == []


def test_benchmark_configs_and_schedules_load(tmp_path, monkeypatch):
    # a config key the package drops would turn desk_fit and quad_ref into
    # exit 2; pipeline.py imports its siblings `run` and `tracer` by name
    monkeypatch.syspath_prepend(str(BENCH))
    before = set(sys.modules)
    try:
        pipeline = _load("bench_pipeline", BENCH / "pipeline.py")
    finally:
        for name in ("run", "tracer"):
            if name not in before:
                sys.modules.pop(name, None)
    for name in ("DESK_CONFIG", "QUAD_CONFIG"):
        path = tmp_path / f"{name}.json"
        pipeline._write_json(path, getattr(pipeline, name))
        cfg, model_spec = load_config(path)
        assert model_spec == getattr(pipeline, name)["model"]
        assert cfg.learning_rate == getattr(pipeline, name)["learning_rate"]
    for name in ("DESK_SCHEDULE", "CHECK_SCHEDULE", "QUAD_SCHEDULE",
                 "LEGENDRE_SCHEDULE"):
        path = tmp_path / f"{name}.json"
        pipeline._write_json(path, getattr(pipeline, name))
        assert load_schedule(path).default.kind == getattr(pipeline, name)["default"]["kind"]
