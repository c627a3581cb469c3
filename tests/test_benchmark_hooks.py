"""The benchmark's hook points: every function that ``perfbench/spans.py``
wraps must exist under the name its caller looks it up by, and the names
``perfbench/run.py`` reads must stay callable."""

import importlib
from pathlib import Path

from cocogen import kernels

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _resolve(targets):
    return [getattr(importlib.import_module(module), attr) for module, attr, _, _ in targets]


def test_every_traced_target_is_wrapped_and_restored(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    spans = importlib.import_module("spans")
    originals = _resolve(spans.PROGRAM_TARGETS)
    with spans.Tracer().installed():
        wrapped = _resolve(spans.PROGRAM_TARGETS)
    assert all(w is not o and w.__wrapped__ is o for w, o in zip(wrapped, originals))
    assert all(r is o for r, o in zip(_resolve(spans.PROGRAM_TARGETS), originals))


def test_backend_name_is_reported():
    assert kernels.backend_name() == "python"
