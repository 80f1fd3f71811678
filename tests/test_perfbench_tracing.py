"""The end-to-end benchmark's tracer still finds every layer it times.

``perfbench/run.py --trace 1`` wraps the functions named in
``perfbench/tracing.py`` (``LAYERS``) after importing ``PRELOAD``.  A
rename or move in a tier module would break the traced run without any
other test failing, so this resolves every ``(module, attribute)`` pair
against the current package.
"""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing",
                                                  TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = _load_tracing()


@pytest.mark.parametrize("name", tracing.PRELOAD)
def test_preload_module_imports(name):
    importlib.import_module(name)


@pytest.mark.parametrize(
    "layer, module, attr",
    [(layer, module, attr) for layer, funcs in tracing.LAYERS.items()
     for module, attr in funcs])
def test_layer_function_resolves(layer, module, attr):
    importlib.import_module(module)
    owner, name = tracing._resolve(module, attr)
    assert callable(getattr(owner, name)), f"{layer}: {module}.{attr}"


def test_side_table_methods_exist():
    from repro.cache import TranslationCache

    for name in tracing.SIDE_TABLE:
        assert callable(getattr(TranslationCache, name))
