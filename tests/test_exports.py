"""Every exported name resolves: the ``__all__`` of each module that keeps
one, and each name that ``strangedual/__init__.py`` imports, so a deleted
definition cannot leave a stale export behind."""

import ast
import importlib
from pathlib import Path

import pytest

import strangedual


@pytest.mark.parametrize("module", ["catalog", "coxeter", "invertible", "matfac", "orbits", "series"])
def test_every_name_in_all_resolves(module):
    namespace = importlib.import_module(f"strangedual.{module}")
    assert namespace.__all__
    assert [name for name in namespace.__all__ if not hasattr(namespace, name)] == []


def test_every_package_import_resolves():
    tree = ast.parse(Path(strangedual.__file__).read_text(encoding="utf-8"))
    imported = [
        (node.module, alias.name)
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    ]
    assert ("polyring", "Polynomial") in imported
    missing = [
        f"{module}.{name}"
        for module, name in imported
        if not hasattr(importlib.import_module(f"strangedual.{module}"), name)
        or not hasattr(strangedual, name)
    ]
    assert missing == []
