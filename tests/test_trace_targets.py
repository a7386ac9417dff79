"""The benchmark's tracer skips, with only a warning, any target it cannot
find; this keeps every target it names present in the package."""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_trace_target_exists_and_is_callable():
    targets = load_spans().TARGETS
    assert targets
    for module_name, attr, layer in targets:
        module = importlib.import_module(module_name)
        assert hasattr(module, attr), f"{module_name}.{attr} ({layer}) is missing"
        assert callable(getattr(module, attr)), f"{module_name}.{attr} is not callable"
