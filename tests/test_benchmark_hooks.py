"""The names the benchmark's tracer reaches into must exist in the package.

perfbench/tracer.py replaces functions by name and reads ``cache_info()`` of
every lru_cache by name; a renamed function or cache would otherwise make the
benchmark fail or, worse, stop measuring it without a failing test.  The
tracer is loaded from its file and not modified.
"""

import importlib
import types
from pathlib import Path

import pytest

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    # Compiled from its source text, so no bytecode lands next to it.
    module = types.ModuleType("perfbench_tracer")
    exec(compile(TRACER_PATH.read_text(), str(TRACER_PATH), "exec"), vars(module))
    return module


TRACER = _load_tracer()


@pytest.mark.parametrize("module_name,attr,span", TRACER.TARGETS)
def test_trace_target_resolves(module_name, attr, span):
    module = importlib.import_module(f"fishburn.{module_name}")
    assert callable(getattr(module, attr, None)), f"fishburn.{module_name}.{attr}"
    assert span.split(".")[0] in TRACER.LAYERS


@pytest.mark.parametrize(
    "layer,name", [(layer, name) for layer, names in TRACER.CACHES.items() for name in names]
)
def test_cache_has_cache_info(layer, name):
    module = importlib.import_module(f"fishburn.{layer}")
    info = getattr(module, name).cache_info()
    assert info.currsize >= 0
