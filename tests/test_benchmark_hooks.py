"""The benchmark's tracer patches pprep functions by (module, name); every
such hook must still name a function after a refactor, or a traced
benchmark run fails at install time."""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

import pytest

import pprep.cli  # noqa: F401  (imports every module the tracer patches)

_spec = importlib.util.spec_from_file_location(
    "perfbench_spans", Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
)
spans = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(spans)


@pytest.mark.parametrize(
    "module_name,attr", [(m, a) for m, a, _ in spans.BOUNDARIES + spans.COUNTED]
)
def test_tracer_hook_resolves(module_name, attr):
    assert callable(getattr(sys.modules[module_name], attr, None))
