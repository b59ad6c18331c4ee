"""The benchmark's tracer patches names it looks up in chopshop's modules.

``benchmarks/tracing.py`` lists (module, name) pairs and ``Tracer.install``
fetches each with a bare ``getattr``, so a refactor that drops one of those
imports breaks ``benchmarks/run.py --trace 1`` without failing anything
else.  This test resolves every pair.
"""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "benchmarks" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("benchmark_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves():
    tracing = load_tracing()
    missing = [
        (module, name)
        for module, name in tracing.TARGETS
        if not callable(getattr(importlib.import_module(f"chopshop.{module}"), name, None))
    ]
    assert missing == []

