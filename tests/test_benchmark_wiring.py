"""The traced benchmark run reaches into cohdiff by name; those names must resolve.

``perfbench/spans.py`` rebinds the functions in ``WRAPPED`` and reads
``cache_info()`` of those in ``CACHED``.  A refactor that renames or
un-memoizes one of them would break the per-layer run, so it fails here.
"""

import importlib
import importlib.util
import os

import pytest

SPANS = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "spans.py")


def _spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


spans = _spans()


def _resolve(module, attr):
    obj = importlib.import_module(f"cohdiff.{module}")
    for part in attr.split("."):
        obj = getattr(obj, part)
    return obj


@pytest.mark.parametrize("module, attr", [(m, a) for m, a, _ in spans.WRAPPED], ids=lambda x: x)
def test_wrapped_functions_resolve(module, attr):
    assert callable(_resolve(module, attr))


@pytest.mark.parametrize("module, attr", spans.CACHED, ids=lambda x: x)
def test_cached_functions_expose_cache_info(module, attr):
    info = _resolve(module, attr).cache_info()
    assert info.hits >= 0 and info.currsize >= 0
