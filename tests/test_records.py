"""The value types are named tuples: the validated ones check their input
in ``__new__``, none can be assigned to, and importing the CLI builds no
dataclass."""

import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from strangedual.coxeter import ArmRangeError, GabrielovQuadruple
from strangedual.invertible import ExponentMatrix, InvertibleError
from strangedual.matfac import (
    CompleteIntersectionPair,
    FactorizationError,
    FactorizationTriple,
    MatfacError,
)
from strangedual.orbits import CStarAction, OrbitError
from strangedual.polyring import Monomial, Polynomial, PolynomialError, parse_poly
from strangedual.series import SeriesError, WeightSystem

ONE = (Fraction(1), Fraction(1))
H = tuple(map(parse_poly, ("w^2", "w", "-x^2*z + z^2 + x*w^2")))


@pytest.mark.parametrize(
    "cls, bad, error, message, good",
    [
        (Monomial, ((1, 2, 3),), PolynomialError, "bad exponent tuple (1, 2, 3)", ((1, 0, 0, 2),)),
        (Monomial, ((1, -1, 0, 0),), PolynomialError, "bad exponent tuple (1, -1, 0, 0)", ((0,) * 4,)),
        (Monomial, ((0.5, 0, 0, 0),), PolynomialError, "exponents must be integers, got (0.5, 0, 0, 0)", ((1, 0, 0, 0),)),
        (
            ExponentMatrix,
            (((2, 1), (0, 3)), ("x",), ONE),
            InvertibleError,
            "rows, variables and coefficients must have equal length",
            (((2, 1), (0, 3)), ("x", "y"), ONE),
        ),
        (
            ExponentMatrix,
            (((2, 1), (0,)), ("x", "y"), ONE),
            InvertibleError,
            "exponent matrix must be square",
            (((2, 1), (0, 3)), ("x", "y"), ONE),
        ),
        (
            ExponentMatrix,
            (((2.5, 0), (0, 1)), ("x", "y"), ONE),
            InvertibleError,
            "exponents must be integers, got (2.5, 0)",
            (((2, 0), (0, 1)), ("x", "y"), ONE),
        ),
        (
            ExponentMatrix,
            (((2, 0), (0, 1)), ("x", "q"), ONE),
            InvertibleError,
            "bad variable list ('x', 'q')",
            (((2, 0), (0, 1)), ("x", "y"), ONE),
        ),
        (
            ExponentMatrix,
            (((2, 1), (0, 3)), ("x", "y"), (Fraction(1), Fraction(0))),
            InvertibleError,
            "coefficients must be nonzero",
            (((2, 1), (0, 3)), ("x", "y"), ONE),
        ),
        (
            ExponentMatrix,
            (((2, 0), (0, 1)), ("x", "y"), (0.5, 1)),
            InvertibleError,
            "coefficients must be int or Fraction, got (0.5, 1)",
            (((2, 0), (0, 1)), ("x", "y"), ONE),
        ),
        (
            ExponentMatrix,
            (((2, 0), (0, 1)), ("x", "y"), ("a", 1)),
            InvertibleError,
            "coefficients must be int or Fraction, got ('a', 1)",
            (((2, 0), (0, 1)), ("x", "y"), ONE),
        ),
        (
            WeightSystem,
            ((2, 0, 3), (6,)),
            SeriesError,
            "weight system entries must be positive: 2,0,3;6",
            ((2, 6, 5, 4), (8, 10)),
        ),
        (
            WeightSystem,
            ((2.5, 2, 1, 1), (4, 4)),
            SeriesError,
            "weights must be integers, got (2.5, 2, 1, 1)",
            ((2, 2, 1, 1), (4, 4)),
        ),
        (
            WeightSystem,
            ((2, 2, 1, 1), (Fraction(9, 2), 4)),
            SeriesError,
            "degrees must be integers, got (Fraction(9, 2), 4)",
            ((2, 2, 1, 1), (4, 4)),
        ),
        (
            WeightSystem,
            ((), (6,)),
            SeriesError,
            "weight system needs weights and degrees",
            ((1,), (6,)),
        ),
        (
            CStarAction,
            ((1, 2, 3),),
            OrbitError,
            "need 4 positive weights, got (1, 2, 3)",
            ((2, 3, 3, 2),),
        ),
        (
            CStarAction,
            ((2.0, 2, 1, 1),),
            OrbitError,
            "weights must be integers, got (2.0, 2, 1, 1)",
            ((2, 2, 1, 1),),
        ),
        (
            CStarAction,
            ((Fraction(2), 2, 1, 1),),
            OrbitError,
            "weights must be integers, got (Fraction(2, 1), 2, 1, 1)",
            ((2, 2, 1, 1),),
        ),
        (
            GabrielovQuadruple,
            ((2, 2, 2, 0),),
            ArmRangeError,
            "need 4 arm parameters in [1, 1000000], got (2, 2, 2, 0)",
            ((2, 2, 2, 6),),
        ),
        (
            FactorizationTriple,
            (parse_poly("x*z"), H[1], H[2]),
            FactorizationError,
            "a must lie in (z, w): x*z",
            H,
        ),
        (
            FactorizationTriple,
            (H[0], H[1], parse_poly("y*z^2")),
            FactorizationError,
            "c must be free of y: y*z^2",
            H,
        ),
        (
            CompleteIntersectionPair,
            (parse_poly("x*y - w^2"), Polynomial.zero()),
            MatfacError,
            "complete intersection equations must be nonzero",
            (parse_poly("x*y - w^2"), H[2]),
        ),
    ],
    ids=[
        "monomial-length",
        "monomial-negative",
        "monomial-float",
        "matrix-lengths",
        "matrix-square",
        "matrix-float",
        "matrix-variables",
        "matrix-coefficients",
        "matrix-float-coefficient",
        "matrix-str-coefficient",
        "weights-positive",
        "weights-float",
        "weights-fraction",
        "weights-empty",
        "cstar-action",
        "cstar-float",
        "cstar-fraction",
        "gabrielov",
        "triple-a",
        "triple-c",
        "pair-zero",
    ],
)
def test_validated_records(cls, bad, error, message, good):
    # _make and _replace build through the same checks as the constructor.
    bad_fields = dict(zip(cls._fields, bad))
    for build in (lambda: cls(*bad), lambda: cls._make(bad), lambda: cls(*good)._replace(**bad_fields)):
        with pytest.raises(error) as exc:
            build()
        assert type(exc.value) is error and str(exc.value) == message
    record = cls(*good)
    assert tuple(record) == good and hash(record) == hash(good)
    for field in record._fields:
        with pytest.raises(AttributeError):
            setattr(record, field, getattr(record, field))
    with pytest.raises(AttributeError):
        record.extra = 1


def test_cli_import_builds_no_dataclass():
    # -S leaves out the interpreter's site, whose imports vary by machine.
    src = str(Path(__file__).resolve().parents[1] / "src")
    code = (
        f"import sys; sys.path.insert(0, {src!r}); import strangedual.cli; "
        "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    )
    proc = subprocess.run(
        [sys.executable, "-S", "-c", code], capture_output=True, text=True, timeout=30
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"
