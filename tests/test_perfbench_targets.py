"""The benchmark tracer replaces functions by name; every name it looks up
must exist, or `perfbench/run.py --trace 1` fails with AttributeError."""

import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_every_traced_target_resolves():
    spec = importlib.util.spec_from_file_location("perfbench_tracing",
                                                  TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert tracing.TARGETS
    for module, name, layer in tracing.TARGETS:
        assert callable(getattr(module, name, None)), (
            f"{module.__name__}.{name} (layer {layer}) is missing")
