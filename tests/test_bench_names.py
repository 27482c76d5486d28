"""The benchmark's per-layer metrics name spans of public package callables.

bench/tracer.py wraps the public functions, classes and class methods that
each envmm module defines, and bench/run.py reports a per-layer metric
whose span it never saw as absent. Resolving every span here makes a
rename or deletion fail a test instead of silently emptying a metric.
"""

import importlib
import json
from pathlib import Path

import pytest

BENCHMARK = Path(__file__).resolve().parents[1] / "BENCHMARK.json"


def _package_spans() -> list[str]:
    names = [m["name"] for m in json.loads(BENCHMARK.read_text())["per_layer"]]
    spans = {name.rsplit(".", 1)[0] for name in names}
    return sorted(s for s in spans if s.split(".")[0] not in ("numpy", "trace"))


@pytest.mark.parametrize("span", _package_spans())
def test_per_layer_span_is_a_public_callable(span):
    module, *path = span.split(".")
    owner = importlib.import_module(f"envmm.{module}")
    obj = owner
    for attr in path:
        assert not attr.startswith("_"), f"{span} is private"
        assert hasattr(obj, attr), f"{span} does not resolve"
        obj = getattr(obj, attr)
    # the tracer wraps only what the module itself defines
    defined = getattr(owner, path[0])
    assert defined.__module__ == owner.__name__, f"{span} is defined elsewhere"
    assert callable(obj)
