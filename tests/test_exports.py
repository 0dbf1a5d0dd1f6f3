"""Every name a loewner module exports resolves.

The benchmark's tracer (`perfbench/tracing.py`) looks up every ``__all__``
name of every library module, so one stale entry would break each traced run.
"""

import importlib
import pkgutil

import pytest

import loewner

MODULES = sorted(m.name for m in pkgutil.iter_modules(loewner.__path__))


@pytest.mark.parametrize("name", ["__init__"] + MODULES)
def test_every_exported_name_resolves(name):
    mod = loewner if name == "__init__" else importlib.import_module(f"loewner.{name}")
    if name != "cli":  # the command-line module exports only its entry point
        assert mod.__all__, name
    missing = [n for n in getattr(mod, "__all__", ()) if not hasattr(mod, n)]
    assert missing == []
