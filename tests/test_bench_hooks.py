"""Every library function the bench traces still exists.

``bench/spans.py`` wraps functions by (module, name) and records a missing
one only in the trace report, so a refactor that renames or deletes a hooked
function would silently drop its span.  This test reads ``bench/`` and
changes nothing there.
"""
from __future__ import annotations

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    # dataclasses resolve the module's annotations through sys.modules
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


spans = _load_spans()


@pytest.mark.parametrize("module,attr", sorted({(m, a) for _, m, a, _ in spans.HOOKS + spans.COUNTERS}))
def test_hooked_name_is_callable(module, attr):
    assert callable(getattr(importlib.import_module(module), attr, None)), f"{module}.{attr}"
