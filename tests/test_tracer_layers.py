"""The benchmark's tracer wraps functions by name; each must still exist.

A missing name breaks only traced benchmark runs, which the tests never
start, so this reads ``perfbench/tracer.py`` by path and checks its table.
"""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _layers():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer.LAYERS


def test_every_traced_function_exists_in_its_module():
    missing = [
        f"{module}.{name}"
        for module, names in _layers().items()
        for name in names
        if not callable(getattr(importlib.import_module(module), name, None))
    ]
    assert missing == []
