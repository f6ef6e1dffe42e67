"""The package's error contract: one base for every domain error, and no
handler that catches more than domain errors."""

import importlib
import pkgutil
import re
from pathlib import Path

import pytest

import strangedual
from strangedual import StrangedualError
from strangedual.polyring import Polynomial, PolynomialError, parse_poly


def test_every_error_class_has_the_one_base():
    errors = {
        f"{info.name}.{name}": value
        for info in pkgutil.iter_modules(strangedual.__path__)
        for name, value in vars(importlib.import_module(f"strangedual.{info.name}")).items()
        if name.endswith("Error") and isinstance(value, type)
    }
    assert "cli.CommandError" in errors and "coxeter.ArmRangeError" in errors
    assert [name for name, cls in errors.items() if not issubclass(cls, StrangedualError)] == []


def test_no_handler_catches_every_exception():
    broad = re.compile(r"^\s*except\s*(:|.*\b(Base)?Exception\b)")
    found = [
        f"{path.name}:{number}"
        for path in sorted(Path(strangedual.__file__).parent.glob("*.py"))
        for number, line in enumerate(path.read_text(encoding="utf-8").splitlines(), start=1)
        if broad.match(line)
    ]
    assert found == []


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: parse_poly("x + y").evaluate((1, 2)), "a point has 4 coordinates, got 2"),
        (lambda: Polynomial({(1, 0, 0, 0): 1}), "a term key must be a Monomial, got (1, 0, 0, 0)"),
    ],
    ids=["point-of-two-coordinates", "tuple-term-key"],
)
def test_malformed_library_input_raises_polynomial_error(build, message):
    with pytest.raises(PolynomialError) as caught:
        build()
    assert str(caught.value) == message
