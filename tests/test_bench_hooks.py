"""The traced benchmark hooks skdistill functions by name; pin those names here.

`perfbench/tracing.py` wraps package functions from outside. A rename or
deletion in `src/` would only show in a traced benchmark run, which the fast
suite does not make, so install every hook and take them out again.
"""

import importlib.util
import sys
from pathlib import Path

import skdistill
from skdistill.models import ModelConfig

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _package_namespaces() -> dict:
    return {name: dict(vars(mod)) for name, mod in sys.modules.items()
            if mod is not None and (name == "skdistill" or name.startswith("skdistill."))}


def test_tracing_install_finds_every_hooked_name():
    spec = importlib.util.spec_from_file_location("_perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    before = _package_namespaces()
    patcher = tracing.Patcher()
    try:
        tracing.install(tracing.Tracer(), patcher, skdistill, ModelConfig())
        assert _package_namespaces() != before
    finally:
        patcher.restore()
    assert _package_namespaces() == before
