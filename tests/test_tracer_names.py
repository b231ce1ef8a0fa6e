"""Every function the benchmark's tracer wraps still exists.

`bench/tracer.py` wraps functions by (module, attribute) name and reports a
renamed one as missing, with its per-layer metrics absent.  Resolving every
entry of its LAYERS table here makes such a rename fail the test suite
instead, and so does resolving each function whose collar restarts its
RESTART table counts.  Only bench/tracer.py is read; nothing under bench/ is
changed.
"""

import importlib
import importlib.util
import os

import pytest

TRACER = os.path.join(os.path.dirname(__file__), os.pardir, "bench", "tracer.py")


def _layers():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.LAYERS


@pytest.mark.parametrize("modname,attr", [(m, a) for m, a, *_ in _layers()])
def test_traced_name_resolves(modname, attr):
    owner = importlib.import_module(modname)
    for part in attr.split("."):
        owner = getattr(owner, part)
    assert callable(owner)


def _restarts():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.RESTART


@pytest.mark.parametrize("name", sorted(_restarts()))
def test_restart_counter_resolves(name):
    # RESTART counts a traced function's _CollarTooSmall by the function's
    # name: that name must be a LAYERS entry, and its module must still
    # define the exception
    modules = [m for m, a, *_ in _layers() if a.split(".")[-1] == name]
    assert modules
    for modname in modules:
        module = importlib.import_module(modname)
        assert callable(getattr(module, name))
        assert issubclass(module._CollarTooSmall, Exception)
