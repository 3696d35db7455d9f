"""The benchmark reaches into cohdiff by name; those names and calls must still work.

``perfbench/spans.py`` rebinds the functions in ``WRAPPED`` and reads
``cache_info()`` of those in ``CACHED``.  A refactor that renames or
un-memoizes one of them would break the per-layer run, so it fails here.
``perfbench/workloads.py`` calls ``lawcheck.MapCtx``, ``run_check``,
``parse_space``, ``SemEnv``, ``make_corpus`` and the CLI; each workload
is run here at tiny sizes, so a changed signature fails here too.
"""

import importlib
import importlib.util
import os

import pytest

PERFBENCH = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench")

# the tiny sizes of perfbench/selftest.py
TINY = {"laws-nucs": {"trials": 1}, "laws-b4": {"trials": 1}, "corpus": {"terms": 20}}


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", os.path.join(PERFBENCH, f"{name}.py"))
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


spans = _load("spans")
workloads = _load("workloads")


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


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_runs_at_tiny_size(name):
    spec = dict(workloads.WORKLOADS[name], **TINY[name])
    records, lines = workloads.run(spec, workloads.setup(spec))
    assert records and len(lines) == len(records)
    assert [(r["op"], r["why"]) for r in records if not r["ok"] and not r["known"]] == []
