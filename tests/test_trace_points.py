"""The benchmark's trace points name attributes the package still has.

``perfbench/tracing.py`` replaces each ``TRACE_POINTS`` attribute with a
timing wrapper for a traced run; a renamed or deleted attribute would fail
only there, so every entry is resolved here against the package.
"""
import importlib
import importlib.util
import sys
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    # its dataclasses look their module up in sys.modules
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_every_trace_point_resolves(monkeypatch):
    points = load_tracing(monkeypatch).TRACE_POINTS
    assert points
    for modname, path, name, _ in points:
        owner = importlib.import_module(modname)
        for part in path.split("."):
            assert hasattr(owner, part), f"{name}: {modname}.{path} is gone"
            owner = getattr(owner, part)
        assert callable(owner), f"{name}: {modname}.{path} is not callable"
