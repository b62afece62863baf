"""The benchmark under ``perfbench/`` wraps torsionforge functions by name;
a rename or deletion here must not silently break it."""

import importlib
import importlib.util
import sys
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def load_spans(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    # dataclasses resolve their module through sys.modules
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_every_traced_layer_resolves(monkeypatch):
    for module, func in load_spans(monkeypatch).LAYERS:
        target = importlib.import_module(f"torsionforge.{module}")
        assert callable(getattr(target, func, None)), f"torsionforge.{module}.{func}"


def test_kernel_backend_name_is_text():
    from torsionforge import _kernels

    assert isinstance(_kernels.backend_name(), str)
