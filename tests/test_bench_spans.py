"""The benchmark's span tracer (bench/spans.py) binds only names the program still has.

The tracer patches ``pointcast.<module>.<attribute>`` by name, so a renamed or
moved function would break the traced benchmark run; this catches it at test
time. bench/spans.py is imported as a file and left unchanged.
"""

import importlib
import importlib.util
from pathlib import Path

SPANS_PATH = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans_under_test", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_span_and_counter_target_resolves():
    spans = load_spans()
    targets = [(mod, attr) for mod, attr, _, _ in spans.SPANS]
    targets += [(mod, attr) for mod, attr, _ in spans.COUNTERS]
    assert len(targets) > len(spans.COUNTERS)
    missing = [
        f"pointcast.{mod}.{attr}"
        for mod, attr in targets
        if not callable(getattr(importlib.import_module(f"pointcast.{mod}"), attr, None))
    ]
    assert not missing, f"bench/spans.py targets missing from the program: {missing}"
