"""The package source holds no inexact arithmetic: no float or complex
literal, no use of the names ``float`` or ``complex``, and nothing from
``math`` but the integer functions ``gcd``, ``lcm`` and ``isqrt``.  The
univariate layer, ``series`` and ``coxeter``, works over Z and imports
nothing from ``fractions``."""

import ast
from pathlib import Path

import pytest

import strangedual

SOURCES = sorted(Path(strangedual.__file__).parent.glob("*.py"))
MATH_NAMES = {"gcd", "lcm", "isqrt"}
INTEGER_SOURCES = [p for p in SOURCES if p.name in ("series.py", "coxeter.py")]


def _inexact(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)):
            yield node.lineno, f"literal {node.value!r}"
        elif isinstance(node, ast.Name) and node.id in ("float", "complex"):
            yield node.lineno, f"name {node.id}"
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name == "math":
                    yield node.lineno, "import math"
        elif isinstance(node, ast.ImportFrom) and node.module == "math":
            for alias in node.names:
                if alias.name not in MATH_NAMES:
                    yield node.lineno, f"from math import {alias.name}"


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_source_is_exact(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    assert list(_inexact(tree)) == []


def _fractions_imports(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import) and any(a.name == "fractions" for a in node.names):
            yield node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module == "fractions":
            yield node.lineno


@pytest.mark.parametrize("path", INTEGER_SOURCES, ids=[p.name for p in INTEGER_SOURCES])
def test_univariate_layer_is_integral(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    assert list(_fractions_imports(tree)) == []


def test_fractions_guard_sees_both_forms():
    text = "import fractions\nfrom fractions import Fraction\nimport math\n"
    assert list(_fractions_imports(ast.parse(text))) == [1, 2]


def test_guard_sees_each_kind():
    text = "from math import gcd, sqrt\nimport math\nx = float(1) + 0.5 + 2j\ny = complex\n"
    found = sorted(_inexact(ast.parse(text)))
    assert found == [
        (1, "from math import sqrt"),
        (2, "import math"),
        (3, "literal 0.5"),
        (3, "literal 2j"),
        (3, "name float"),
        (4, "name complex"),
    ]
