"""Names that are looked up as strings: the benchmark's tracer finds
twrelay functions by name, and `from twrelay import *` reads
twrelay.__all__. A rename or a deletion must fail here, not only in the
slower perfbench smoke test or at a user's import."""

import importlib
import importlib.util
import pathlib

TRACER = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_function_exists():
    targets = _tracer().TARGETS
    assert targets
    missing = [
        f"{module}.{func}"
        for module, func, _ in targets
        if not callable(getattr(importlib.import_module(f"twrelay.{module}"), func, None))
    ]
    assert missing == []


def test_every_public_name_resolves():
    import twrelay

    assert len(set(twrelay.__all__)) == len(twrelay.__all__)
    assert [name for name in twrelay.__all__ if not hasattr(twrelay, name)] == []
