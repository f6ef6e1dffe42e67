"""The package's error contract: one base for every domain error, no
handler that catches more than domain errors, and a table of bad values
that each end in a domain error, never a bare Python one."""

import importlib
import pkgutil
import re
from fractions import Fraction
from pathlib import Path

import pytest

import strangedual
from strangedual import StrangedualError
from strangedual.coxeter import ArmRangeError, GraphShapeError, charpoly_S, emit_graph
from strangedual.invertible import ExponentMatrix, InvertibleError, smith_normal_form
from strangedual.polyring import Monomial, Polynomial, PolynomialError, parse_poly, quasi_degree
from strangedual.series import (
    FrameProduct,
    SaitoDomainError,
    SeriesError,
    frame_expand,
    or_polynomial,
    parse_frame,
    saito_dual,
)

X = parse_poly("x")
FRAME = parse_frame("2 / 1")


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


@pytest.mark.parametrize(
    "call, args, error, message",
    [
        (quasi_degree, (X, (0.5, 1, 1, 1)), PolynomialError, "weights must be integers, got (0.5, 1, 1, 1)"),
        (
            Monomial((1, 0, 0, 0)).weighted_degree,
            ((0.5, 1, 1, 1),),
            PolynomialError,
            "weights must be integers, got (0.5, 1, 1, 1)",
        ),
        (X.__pow__, (2.5,), PolynomialError, "exponents must be integers, got (2.5,)"),
        (X.__pow__, (Fraction(2),), PolynomialError, "exponents must be integers, got (Fraction(2, 1),)"),
        (X.split, ("q",), PolynomialError, "unknown variable 'q'"),
        (smith_normal_form, ([[1, 2], [3]],), InvertibleError, "matrix rows must have equal length"),
        (
            smith_normal_form,
            ([[2.7, 1], [0, 3]],),
            InvertibleError,
            "matrix entries must be integers, got (2.7, 1)",
        ),
        (ExponentMatrix.make, ([[2.7, 1], [0, 3]],), InvertibleError, "exponents must be integers, got (2.7, 1)"),
        (
            ExponentMatrix,
            (((2, 0), (0, 1)), ("x", "y"), (0.5, 1)),
            InvertibleError,
            "coefficients must be int or Fraction, got (0.5, 1)",
        ),
        (
            ExponentMatrix,
            (((2, 0), (0, 1)), ("x", "y"), ("a", 1)),
            InvertibleError,
            "coefficients must be int or Fraction, got ('a', 1)",
        ),
        (charpoly_S, ((2.5, 2, 2, 6),), ArmRangeError, "arm parameters must be integers, got (2.5, 2, 2, 6)"),
        (emit_graph, ((2, 3, 4, 5), "Q"), GraphShapeError, "shape must be 'S' or 'Pi', got 'Q'"),
        (FrameProduct, ({2.7: 1.9},), SeriesError, "frame bases and exponents must be integers, got (2.7, 1.9)"),
        (or_polynomial, ((2.5, 2, 2, 6),), SeriesError, "Gabrielov numbers must be integers, got (2.5, 2, 2, 6)"),
        (frame_expand, (FRAME, 2.5), SeriesError, "expansion orders must be integers, got (2.5,)"),
        (saito_dual, (FRAME, 4.0), SaitoDomainError, "degrees must be integers, got (4.0,)"),
    ],
    ids=[
        "quasi-degree-float-weight",
        "weighted-degree-float-weight",
        "pow-float",
        "pow-fraction",
        "split-unknown-variable",
        "smith-ragged-rows",
        "smith-float",
        "make-float",
        "matrix-float-coefficient",
        "matrix-str-coefficient",
        "charpoly-float",
        "graph-shape",
        "frame-float",
        "or-polynomial-float",
        "expand-float-order",
        "saito-float-degree",
    ],
)
def test_bad_value_raises_a_domain_error(call, args, error, message):
    # Each input has the right container type and a value the library
    # refuses: the answer is a domain error, never a bare Python error.
    with pytest.raises(StrangedualError) as caught:
        call(*args)
    assert type(caught.value) is error and str(caught.value) == message
