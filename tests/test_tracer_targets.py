"""Names that are looked up as strings or promised in prose: the
benchmark's tracer finds twrelay functions by name, `from twrelay import *`
reads twrelay.__all__, and the README's quick start imports public names.
A rename or a deletion must fail here, not only in the slower perfbench
smoke test or at a user's import."""

import importlib
import importlib.util
import pathlib
import re
import types

ROOT = pathlib.Path(__file__).resolve().parents[1]
TRACER = ROOT / "perfbench" / "tracer.py"


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


def test_all_lists_exactly_the_imported_names():
    # __init__ spells every public name twice, in its imports and in __all__
    import twrelay

    imported = {
        name
        for name, value in vars(twrelay).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert set(twrelay.__all__) - {"__version__"} == imported


def test_readme_quick_start_runs():
    (block,) = re.findall(r"```python\n(.*?)```", (ROOT / "README.md").read_text(), flags=re.S)
    exec(compile(block, "README.md", "exec"), {})
