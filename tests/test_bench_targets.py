"""The benchmark's span tracer (perfbench/tracing.py) patches framephase
functions by module and name. A renamed or deleted target makes every
traced benchmark run fail in ``Tracer.install``, so the names are checked
here, where the full benchmark test is not collected."""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_target_resolves():
    targets = _load_tracing().TARGETS
    assert targets
    missing = [
        f"framephase.{module}.{attr}"
        for module, attr, _ in targets
        if not callable(getattr(importlib.import_module(f"framephase.{module}"), attr, None))
    ]
    assert missing == []
