"""Every name a loewner module exports resolves, and no definition is dead.

The benchmark's tracer (`perfbench/tracing.py`) looks up every ``__all__``
name of every library module, so one stale entry would break each traced run.
"""

import ast
import importlib
import pkgutil
from pathlib import Path

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


def test_every_top_level_definition_is_used():
    """Each top-level function and class of the package is referenced in its
    source (a name or an attribute) or exported in an ``__all__``."""
    exported = set(loewner.__all__).union(*(
        getattr(importlib.import_module(f"loewner.{name}"), "__all__", ()) for name in MODULES))
    used, defined = set(exported), []
    for path in sorted(Path(loewner.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
        defined += [f"{path.stem}.{node.name}" for node in tree.body
                    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))]
    assert defined
    assert [name for name in defined if name.split(".")[1] not in used] == []
