"""The layers the benchmark traces exist in the package.

``bench/tracer.py`` rebinds each ``TARGETS`` entry at run time; one that no
longer resolves would only fail when a traced benchmark run starts.
"""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_layer_resolves_to_a_callable():
    tracer = _load_tracer()
    assert tracer.TARGETS
    for module_name, attr, span in tracer.TARGETS:
        target = importlib.import_module(f"{tracer.PACKAGE}.{module_name}")
        for part in attr.split("."):
            target = getattr(target, part, None)
        assert callable(target), f"span {span}: {module_name}.{attr} is not a callable"
