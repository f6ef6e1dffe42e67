"""The package source holds no inexact arithmetic: no float or complex
literal, no use of the names ``float`` or ``complex``, and nothing from
``math`` but the integer functions ``gcd``, ``lcm`` and ``isqrt``.  The
univariate layer, ``series`` and ``coxeter``, works over Z and imports
nothing from ``fractions``.  The rule for an integer input lives in
``_errors.integers`` alone: no other module but ``polyring`` (whose
``_ratio`` reads an ``int`` or a ``Fraction``) reaches ``operator.index``,
and no module defines the integer checks that it replaced."""

import ast
from pathlib import Path

import pytest

import strangedual

SOURCES = sorted(Path(strangedual.__file__).parent.glob("*.py"))
MATH_NAMES = {"gcd", "lcm", "isqrt"}
INTEGER_SOURCES = [p for p in SOURCES if p.name in ("series.py", "coxeter.py")]
INDEX_SOURCES = ("_errors.py", "polyring.py")


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


def _integer_rules(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "operator":
            if any(a.name == "index" for a in node.names):
                yield node.lineno, "from operator import index"
        elif isinstance(node, ast.Attribute) and node.attr == "index":
            if isinstance(node.value, ast.Name) and node.value.id == "operator":
                yield node.lineno, "operator.index"
        elif isinstance(node, ast.FunctionDef) and node.name in ("all_integers", "_integer"):
            yield node.lineno, f"def {node.name}"


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_one_integer_check(path):
    found = list(_integer_rules(ast.parse(path.read_text(encoding="utf-8"))))
    if path.name in INDEX_SOURCES:
        found = [hit for hit in found if not hit[1].startswith(("from operator", "operator."))]
    assert found == []


def test_integer_guard_sees_each_kind():
    text = (
        "from operator import index, sub\nimport operator\nn = operator.index(2)\n"
        "def all_integers(v): pass\ndef _integer(v): pass\nm = s.index(2)\n"
    )
    assert sorted(_integer_rules(ast.parse(text))) == [
        (1, "from operator import index"),
        (3, "operator.index"),
        (4, "def all_integers"),
        (5, "def _integer"),
    ]
