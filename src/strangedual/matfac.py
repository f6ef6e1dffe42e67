r"""Size-two graded matrix factorizations and the reduction that inverts
them.

A corank-3 polynomial of the shape

    f(x, z, w) = x*c(x, z, w) + a(z, w)*b(z, w)

admits the matrix factorization

    q0 = [[a, -x], [c, b]],   q1 = [[b, x], [-c, a]],
    q0*q1 = q1*q0 = f * Id,

and the associated complete intersection pair is (x*y - a, c + y*b).
Eliminating y from such a pair (the reduction L_y) recovers f, so lift
and reduce are mutually inverse on well-shaped inputs.
"""

from __future__ import annotations

from collections import namedtuple

from ._errors import StrangedualError, checked_make
from .polyring import Polynomial

__all__ = [
    "FactorizationTriple",
    "CompleteIntersectionPair",
    "MatfacError",
    "FactorizationError",
    "ShapeError",
    "verify_factorization",
    "lift",
    "reduce",
]

_X = Polynomial.variable("x")
_Y = Polynomial.variable("y")
_XY = _X * _Y
_Y2 = (_Y * _Y).leading_monomial()


class MatfacError(StrangedualError):
    pass


class FactorizationError(MatfacError):
    pass


class ShapeError(MatfacError):
    pass


class FactorizationTriple(namedtuple("FactorizationTriple", "a b c")):
    """The data (a, b, c) of a size-two matrix factorization.

    a and b live in (z, w) with deg a >= 2 and deg b >= 1; c lives in
    (x, z, w).  b != 0 guarantees that x, b form a regular sequence.
    """

    __slots__ = ()
    _make = checked_make

    def __new__(cls, a: Polynomial, b: Polynomial, c: Polynomial):
        self = tuple.__new__(cls, (a, b, c))
        if self.a.variables() - {"z", "w"}:
            raise FactorizationError(f"a must lie in (z, w): {self.a}")
        if self.b.variables() - {"z", "w"}:
            raise FactorizationError(f"b must lie in (z, w): {self.b}")
        if "y" in self.c.variables():
            raise FactorizationError(f"c must be free of y: {self.c}")
        if self.a.degree() < 2:
            raise FactorizationError(f"a must have degree >= 2: {self.a}")
        if self.b.is_zero() or self.b.degree() < 1:
            raise FactorizationError(f"b must have degree >= 1: {self.b}")
        if self.c.degree() < 2:
            raise FactorizationError(f"c must have degree >= 2: {self.c}")
        return self

    def hypersurface(self) -> Polynomial:
        """x*c + a*b, the polynomial being factorized."""
        return _X * self.c + self.a * self.b

    def __str__(self) -> str:
        return f"a = {self.a}; b = {self.b}; c = {self.c}"


class CompleteIntersectionPair(namedtuple("CompleteIntersectionPair", "first second")):
    """A pair of equations cutting out a complete intersection in C^4."""

    __slots__ = ()
    _make = checked_make

    def __new__(cls, first: Polynomial, second: Polynomial):
        self = tuple.__new__(cls, (first, second))
        if self.first.is_zero() or self.second.is_zero():
            raise MatfacError("complete intersection equations must be nonzero")
        return self

    def __str__(self) -> str:
        return f"({self.first}, {self.second})"


def _mat_mul(p, q):
    return [
        [
            p[0][0] * q[0][0] + p[0][1] * q[1][0],
            p[0][0] * q[0][1] + p[0][1] * q[1][1],
        ],
        [
            p[1][0] * q[0][0] + p[1][1] * q[1][0],
            p[1][0] * q[0][1] + p[1][1] * q[1][1],
        ],
    ]


def verify_factorization(triple: FactorizationTriple) -> Polynomial:
    """Check q0*q1 = q1*q0 = f*Id by exact arithmetic and return f."""
    a, b, c = triple.a, triple.b, triple.c
    q0 = [[a, -_X], [c, b]]
    q1 = [[b, _X], [-c, a]]
    f = triple.hypersurface()
    for product in (_mat_mul(q0, q1), _mat_mul(q1, q0)):
        if product[0][1] or product[1][0]:
            raise FactorizationError(
                f"off-diagonal entries nonzero: {product[0][1]}, {product[1][0]}"
            )
        if product[0][0] != f or product[1][1] != f:
            raise FactorizationError(
                f"diagonal is not f = {f}: got {product[0][0]}, {product[1][1]}"
            )
    return f


def lift(triple: FactorizationTriple) -> CompleteIntersectionPair:
    """Complete intersection pair of the factorization, in the catalog's
    sign convention (x*y - a, c + y*b)."""
    return CompleteIntersectionPair(_XY - triple.a, triple.c + _Y * triple.b)


def _split_by_y(p: Polynomial):
    """Split p into (y^0 part, y^1 cofactor); error on higher y powers."""
    constant, linear = p.split("y")
    higher = linear.split("y")[1]
    if higher:
        # Degree-lex order is multiplicative, so this is the highest term of
        # p with y-degree > 1.
        mono = _Y2 * higher.leading_monomial()
        raise ShapeError(f"term {mono} has y-degree {mono.exponents[1]} > 1")
    return constant, linear


def reduce(pair: CompleteIntersectionPair) -> Polynomial:
    """Wall reduction L_y of a pair shaped (+-(x*y - a), c + y*b).

    Eliminates y and returns the hypersurface equation x*c + a*b.  Shape
    violations raise :class:`ShapeError` naming the offending terms; the
    recovered (a, b, c) must then pass the same validation as the input
    of :func:`lift`, or :class:`FactorizationError` is raised.
    """
    first, second = pair.first, pair.second
    xy_coeff = first.coefficient(_XY.leading_monomial())
    if xy_coeff == 1:
        sign = 1
    elif xy_coeff == -1:
        sign = -1
    else:
        raise ShapeError(f"first equation has no +-x*y term: {first}")
    a = -(first.scale(sign) - _XY)
    if a.variables() - {"z", "w"}:
        raise ShapeError(f"the non-x*y part of {first} is not a polynomial in (z, w): {a}")
    c, b = _split_by_y(second)
    if b.is_zero():
        raise ShapeError(f"second equation has no y-linear part: {second}")
    if b.variables() - {"z", "w"}:
        raise ShapeError(f"y-cofactor must lie in (z, w): {b}")
    return FactorizationTriple(a, b, c).hypersurface()
