r"""Exponent-matrix calculus for invertible polynomials.

A polynomial with as many terms as variables is encoded by the square
matrix E whose row i is the exponent vector of term i.  This module
provides the transpose operation (which defines the dual polynomial),
the canonical weight system solving E.w = det(E).(1,...,1), the
exponential grading operator, and the maximal group of diagonal
symmetries via the Smith normal form of E.

The singular case is deliberately permitted: the four-term polynomials
attached to the complete intersection series all have det E = 0 with a
one-dimensional kernel, and transposition, kernel checks and row-set
comparisons are exactly the operations the duality needs there.  The
weight/grading/symmetry operations require det E != 0 and raise
:class:`SingularMatrixError` otherwise.

:func:`from_terms` is the one constructor from polynomial data: one row
per single-term polynomial, in the order the caller gives.  It does not
reorder rows; :meth:`ExponentMatrix.oriented` swaps the first two rows
when det E < 0, for callers that want the weight system with positive
degree.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from math import gcd, lcm

from . import _linalg
from ._errors import StrangedualError, checked_make, integers
from .polyring import Monomial, Polynomial, PolynomialError, VARIABLES, _ratio

__all__ = [
    "ExponentMatrix",
    "WeightSolution",
    "GradingOperator",
    "DiagonalGroup",
    "InvertibleError",
    "TermCountError",
    "SingularMatrixError",
    "from_terms",
    "bh_transpose",
    "canonical_weights",
    "grading_operator",
    "symmetry_group",
    "smith_normal_form",
]


class InvertibleError(StrangedualError):
    pass


class TermCountError(InvertibleError):
    """Number of terms does not match the number of active variables."""


class SingularMatrixError(InvertibleError):
    """The exponent matrix is singular where invertibility is required."""


class ExponentMatrix(namedtuple("ExponentMatrix", "rows variables coefficients")):
    """Square integer exponent matrix with per-row coefficients.

    ``variables`` names the active variables (columns); coefficients
    default to 1 and ride along under transposition, row i keeping its
    coefficient.
    """

    __slots__ = ()
    _make = checked_make

    def __new__(
        cls,
        rows: tuple[tuple[int, ...], ...],
        variables: tuple[str, ...],
        coefficients: tuple[Fraction, ...],
    ):
        rows = tuple(integers(row, InvertibleError, "exponents") for row in rows)
        self = tuple.__new__(cls, (rows, variables, coefficients))
        n = len(self.rows)
        if n < 1 or n != len(self.variables) or n != len(self.coefficients):
            raise InvertibleError("rows, variables and coefficients must have equal length")
        if any(len(row) != n for row in self.rows):
            raise InvertibleError("exponent matrix must be square")
        _columns(self.variables)
        if any(e < 0 for row in self.rows for e in row):
            raise InvertibleError("exponents must be non-negative")
        try:
            if not all(_ratio(c)[0] for c in self.coefficients):
                raise InvertibleError("coefficients must be nonzero")
        except PolynomialError:
            raise InvertibleError(f"coefficients must be int or Fraction, got {self.coefficients!r}") from None
        return self

    @staticmethod
    def make(rows) -> "ExponentMatrix":
        """Build from integer rows over the first n variables, coefficients 1;
        a non-integer (``2.7``, ``"2"``) raises ``InvertibleError``."""
        rows = tuple(rows)
        return ExponentMatrix(rows, VARIABLES[: len(rows)], (Fraction(1),) * len(rows))

    def det(self) -> int:
        return _linalg.mat_det(self.rows)

    def transpose(self) -> "ExponentMatrix":
        # Unchecked: __new__ and _make checked this matrix, and its
        # transpose is square and non-negative with the same coefficients.
        rows = tuple(zip(*self.rows))
        return tuple.__new__(ExponentMatrix, (rows, self.variables, self.coefficients))

    def row_multiset(self) -> tuple[tuple[int, ...], ...]:
        """Rows as a sorted tuple, for order-free comparisons."""
        return tuple(sorted(self.rows))

    def apply(self, vector) -> tuple:
        """E * vector, in the ring of the entries of ``vector``."""
        vec = tuple(vector)
        return tuple(sum(e * v for e, v in zip(row, vec)) for row in self.rows)

    def kernel_basis(self) -> list[tuple[int, ...]]:
        """Primitive integer generators of the rational kernel."""
        return [_linalg.primitive_integer_vector(vec) for vec in _linalg.nullspace(self.rows)]

    def oriented(self) -> "ExponentMatrix":
        """The matrix with det E >= 0: a negative determinant swaps the
        first two rows, each keeping its coefficient."""
        if self.det() >= 0:
            return self
        rows, coeffs = self.rows, self.coefficients
        return ExponentMatrix(
            (rows[1], rows[0]) + rows[2:], self.variables, (coeffs[1], coeffs[0]) + coeffs[2:]
        )

    def to_polynomial(self) -> Polynomial:
        # The constructor adds up equal rows.
        columns = _columns(self.variables)
        terms = []
        for row, coeff in zip(self.rows, self.coefficients):
            exps = [0, 0, 0, 0]
            for i, e in zip(columns, row):
                exps[i] = e
            terms.append((Monomial(tuple(exps)), coeff))
        return Polynomial(terms)


def _columns(variables) -> list[int]:
    """Each name's column; a repeated name or one not in VARIABLES is refused."""
    if len(set(variables)) != len(variables) or any(v not in VARIABLES for v in variables):
        raise InvertibleError(f"bad variable list {variables!r}")
    return [VARIABLES.index(v) for v in variables]


def from_terms(terms, active_vars=VARIABLES) -> ExponentMatrix:
    """Exponent matrix with one row per term, in the order given.

    ``terms`` is a sequence of single-term polynomials, one per active
    variable, using no variable outside ``active_vars``.  The row order
    follows the sequence, which is what distinguishes transposes of
    singular matrices (a catalog entry's stored term order is such a
    sequence).  A singular matrix is accepted (the four-term series
    polynomials are singular by construction); the operations that need
    det E != 0 raise :class:`SingularMatrixError` themselves.  No
    orientation is applied; see :meth:`ExponentMatrix.oriented`.
    """
    active = tuple(active_vars)
    positions = _columns(active)
    rows = []
    coeffs = []
    for term in terms:
        if not term.is_monomial():
            raise InvertibleError(f"{term} is not a single term")
        ((mono, coeff),) = term.terms()
        stray = mono.variables() - set(active)
        if stray:
            raise InvertibleError(f"term {term} uses inactive variables {sorted(stray)}")
        rows.append(tuple(mono.exponents[i] for i in positions))
        coeffs.append(coeff)
    if len(rows) != len(active):
        raise TermCountError(f"{len(rows)} terms over {len(active)} active variables")
    return ExponentMatrix(tuple(rows), active, tuple(coeffs))


def bh_transpose(matrix: ExponentMatrix) -> ExponentMatrix:
    """Berglund-Huebsch transposition: the dual polynomial's matrix."""
    return matrix.transpose()


class WeightSolution(namedtuple("WeightSolution", "weights degree reduced_weights reduced_degree positive")):
    """Solution of E.w = d.(1,...,1) with d = det E.

    ``weights``/``degree`` is the raw system (d = det E, unreduced);
    ``reduced_weights``/``reduced_degree`` divides out the common gcd.
    For a singular matrix with one-dimensional kernel the solution is the
    primitive kernel direction with d = 0.  ``positive`` flags whether all
    weights are positive; a non-positive solution is reported this way
    rather than silently accepted or discarded.
    """

    __slots__ = ()


def canonical_weights(matrix: ExponentMatrix) -> WeightSolution:
    """Canonical system of weights of the exponent matrix.

    For det E != 0 this solves E.w = det(E).(1,..,1) by Cramer's rule:
    w_i is the determinant of E with column i replaced by (1,..,1), an
    integer, all read off one Bareiss elimination of (E | 1).  For
    det E = 0 with nullity one the degree is 0 and the weight vector is
    the primitive kernel generator, so the defining identity E.w = d.1
    still holds.
    """
    m = [[*row, 1] for row in matrix.rows]
    det = _linalg.bareiss(m)
    if det == 0:
        kernel = matrix.kernel_basis()
        if len(kernel) != 1:
            raise SingularMatrixError(
                f"kernel dimension {len(kernel)} != 1; no canonical weight direction"
            )
        weights = kernel[0]
        degree = 0
    else:
        weights = [0] * len(m)  # the w_j not yet found read 0
        for i in reversed(range(len(m))):
            row = m[i]
            rest = det * row[-1] - sum(a * w for a, w in zip(row, weights))
            weights[i], remainder = divmod(rest, row[i])
            if remainder:
                raise ArithmeticError(f"{rest} / {row[i]} is inexact")
        degree = det
    g = gcd(*weights, degree) or 1
    return WeightSolution(
        weights=tuple(weights),
        degree=degree,
        reduced_weights=tuple(v // g for v in weights),
        reduced_degree=degree // g,
        positive=all(v > 0 for v in weights),
    )


class GradingOperator(namedtuple("GradingOperator", "charges order")):
    """Exponential grading operator data: charges q_i = w_i/d and order."""

    __slots__ = ()

    def __str__(self) -> str:
        qs = ", ".join(str(q) for q in self.charges)
        return f"q = ({qs}), order {self.order}"


def grading_operator(matrix: ExponentMatrix) -> GradingOperator:
    """Charges q_i = w_i/d in lowest terms; order = lcm of denominators."""
    solution = canonical_weights(matrix)
    if solution.degree == 0:
        raise SingularMatrixError("grading operator needs det E != 0")
    charges = tuple(Fraction(w, solution.degree) for w in solution.weights)
    return GradingOperator(charges, lcm(*(q.denominator for q in charges)))


class DiagonalGroup(namedtuple("DiagonalGroup", "invariant_factors order")):
    """Maximal group of diagonal symmetries, by invariant factors.

    ``invariant_factors`` lists the nontrivial factors d_1 | d_2 | ...;
    the group order is their product, which equals |det E|.
    """

    __slots__ = ()


def _pivot(m: list[list[int]], t: int) -> tuple[int, int] | None:
    """The first entry, row by row, of least absolute value in the block
    of ``m`` from (t, t), or None when the block is zero.  A unit ends
    the scan, as no nonzero entry is smaller."""
    best, pivot = 0, None
    for i in range(t, len(m)):
        row = m[i]
        for j in range(t, len(row)):
            e = row[j]
            if e < 0:
                e = -e
            if e and (e < best or not best):
                if e == 1:
                    return i, j
                best, pivot = e, (i, j)
    return pivot


def smith_normal_form(rows) -> list[int]:
    """Diagonal of the Smith normal form of an integer matrix.

    Exact integer row/column reduction, pivoting on the entry of smallest
    absolute value (the first unit found ends the search), makes the
    matrix diagonal; a pairwise (gcd, lcm) pass over the diagonal then
    gives non-negative entries satisfying the divisibility chain
    d_1 | d_2 | ...  A non-integer entry or a ragged row raises
    ``InvertibleError``.
    """
    m = [list(integers(row, InvertibleError, "matrix entries")) for row in rows]
    nrows = len(m)
    ncols = len(m[0]) if m else 0
    if any(len(row) != ncols for row in m):
        raise InvertibleError("matrix rows must have equal length")
    size = min(nrows, ncols)
    for t in range(size):
        while True:
            pivot = _pivot(m, t)
            if pivot is None:
                break
            pi, pj = pivot
            m[t], m[pi] = m[pi], m[t]
            for row in m:
                row[t], row[pj] = row[pj], row[t]
            head = m[t][t]
            dirty = False
            for i in range(t + 1, nrows):
                q = m[i][t] // head
                if q:
                    for j in range(t, ncols):
                        m[i][j] -= q * m[t][j]
                if m[i][t]:
                    dirty = True
            for j in range(t + 1, ncols):
                q = m[t][j] // head
                if q:
                    for i in range(t, nrows):
                        m[i][j] -= q * m[i][t]
                if m[t][j]:
                    dirty = True
            if not dirty:
                break
    # diag(a, b) ~ diag(gcd(a, b), lcm(a, b)) over Z (M. Newman, *Integral
    # Matrices*, Ch. II); once d_i has met every later entry it divides
    # them all.  A zero moves last: gcd(0, b) = |b|, lcm(0, b) = 0.
    diagonal = [abs(m[i][i]) for i in range(size)]
    for i in range(size):
        for j in range(i + 1, size):
            diagonal[i], diagonal[j] = gcd(diagonal[i], diagonal[j]), lcm(diagonal[i], diagonal[j])
    return diagonal


def symmetry_group(matrix: ExponentMatrix) -> DiagonalGroup:
    """Invariant factors of the integer cokernel of E; order = |det E|."""
    diagonal = smith_normal_form(matrix.rows)
    if 0 in diagonal:
        raise SingularMatrixError("diagonal symmetry group is infinite for det E = 0")
    factors = tuple(d for d in diagonal if d != 1)
    order = 1
    for d in factors:
        order *= d
    return DiagonalGroup(factors, order)
