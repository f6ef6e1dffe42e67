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

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm

from . import _linalg
from .polyring import Monomial, Polynomial, VARIABLES

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


class InvertibleError(Exception):
    pass


class TermCountError(InvertibleError):
    """Number of terms does not match the number of active variables."""


class SingularMatrixError(InvertibleError):
    """The exponent matrix is singular where invertibility is required."""


@dataclass(frozen=True, slots=True)
class ExponentMatrix:
    """Square integer exponent matrix with per-row coefficients.

    ``variables`` names the active variables (columns); coefficients
    default to 1 and ride along under transposition, row i keeping its
    coefficient.
    """

    rows: tuple[tuple[int, ...], ...]
    variables: tuple[str, ...]
    coefficients: tuple[Fraction, ...]

    def __post_init__(self):
        n = len(self.rows)
        if n < 1 or n != len(self.variables) or n != len(self.coefficients):
            raise InvertibleError("rows, variables and coefficients must have equal length")
        if any(len(row) != n for row in self.rows):
            raise InvertibleError("exponent matrix must be square")
        if any(e < 0 for row in self.rows for e in row):
            raise InvertibleError("exponents must be non-negative")
        if any(c == 0 for c in self.coefficients):
            raise InvertibleError("coefficients must be nonzero")

    @staticmethod
    def make(rows, variables=None, coefficients=None) -> "ExponentMatrix":
        rows = tuple(tuple(int(e) for e in row) for row in rows)
        n = len(rows)
        if variables is None:
            variables = VARIABLES[:n]
        if coefficients is None:
            coefficients = (Fraction(1),) * n
        return ExponentMatrix(rows, tuple(variables), tuple(Fraction(c) for c in coefficients))

    @property
    def n(self) -> int:
        return len(self.rows)

    def det(self) -> int:
        return _linalg.mat_det(self.rows)

    def is_invertible(self) -> bool:
        return self.det() != 0

    def transpose(self) -> "ExponentMatrix":
        n = self.n
        rows = tuple(tuple(self.rows[j][i] for j in range(n)) for i in range(n))
        return ExponentMatrix(rows, self.variables, self.coefficients)

    def row_multiset(self) -> tuple[tuple[int, ...], ...]:
        """Rows as a sorted tuple, for order-free comparisons."""
        return tuple(sorted(self.rows))

    def apply(self, vector) -> tuple[Fraction, ...]:
        vec = [Fraction(v) for v in vector]
        return tuple(sum(Fraction(e) * v for e, v in zip(row, vec)) for row in self.rows)

    def annihilates(self, vector) -> bool:
        return all(v == 0 for v in self.apply(vector))

    def kernel_basis(self) -> list[tuple[int, ...]]:
        """Primitive integer generators of the rational kernel."""
        return [
            _linalg.primitive_integer_vector(vec)
            for vec in _linalg.nullspace([list(row) for row in self.rows])
        ]

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
        var_index = {v: VARIABLES.index(v) for v in self.variables}
        table = {}
        for row, coeff in zip(self.rows, self.coefficients):
            exps = [0, 0, 0, 0]
            for name, e in zip(self.variables, row):
                exps[var_index[name]] = e
            mono = Monomial(tuple(exps))
            table[mono] = table.get(mono, Fraction(0)) + coeff
        return Polynomial(table)

    def __str__(self) -> str:
        return "\n".join(" ".join(str(e) for e in row) for row in self.rows)


def from_terms(
    terms,
    active_vars=VARIABLES,
    *,
    allow_singular: bool = False,
) -> ExponentMatrix:
    """Exponent matrix with one row per term, in the order given.

    ``terms`` is a sequence of single-term polynomials, one per active
    variable, using no variable outside ``active_vars``.  The row order
    follows the sequence, which is what distinguishes transposes of
    singular matrices (a catalog entry's stored term order is such a
    sequence).  A singular matrix is rejected unless ``allow_singular``
    is set (the four-term series polynomials are singular by
    construction).  No orientation is applied; see
    :meth:`ExponentMatrix.oriented`.
    """
    active = tuple(active_vars)
    if len(set(active)) != len(active) or any(v not in VARIABLES for v in active):
        raise InvertibleError(f"bad variable list {active!r}")
    positions = [VARIABLES.index(v) for v in active]
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
    matrix = ExponentMatrix(tuple(rows), active, tuple(coeffs))
    if matrix.det() == 0 and not allow_singular:
        raise SingularMatrixError("singular exponent matrix")
    return matrix


def bh_transpose(matrix: ExponentMatrix) -> ExponentMatrix:
    """Berglund-Huebsch transposition: the dual polynomial's matrix."""
    return matrix.transpose()


@dataclass(frozen=True, slots=True)
class WeightSolution:
    """Solution of E.w = d.(1,...,1) with d = det E.

    ``weights``/``degree`` is the raw system (d = det E, unreduced);
    ``reduced_weights``/``reduced_degree`` divides out the common gcd.
    For a singular matrix with one-dimensional kernel the solution is the
    primitive kernel direction with d = 0.  ``positive`` flags whether all
    weights are positive; a non-positive solution is reported this way
    rather than silently accepted or discarded.
    """

    weights: tuple[int, ...]
    degree: int
    reduced_weights: tuple[int, ...]
    reduced_degree: int
    positive: bool

    def __str__(self) -> str:
        raw = ",".join(str(w) for w in self.weights)
        red = ",".join(str(w) for w in self.reduced_weights)
        note = "" if self.positive else "  [non-positive component]"
        return f"({raw}; {self.degree}) reduced ({red}; {self.reduced_degree}){note}"


def canonical_weights(matrix: ExponentMatrix) -> WeightSolution:
    """Canonical system of weights of the exponent matrix.

    For det E != 0 this solves E.w = det(E).(1,..,1) by Cramer's rule:
    w_i is the determinant of E with column i replaced by (1,..,1), an
    integer.  For det E = 0 with nullity one the degree is 0 and the
    weight vector is the primitive kernel generator, so the defining
    identity E.w = d.1 still holds.
    """
    det = matrix.det()
    if det == 0:
        kernel = matrix.kernel_basis()
        if len(kernel) != 1:
            raise SingularMatrixError(
                f"kernel dimension {len(kernel)} != 1; no canonical weight direction"
            )
        weights = kernel[0]
        degree = 0
    else:
        weights = tuple(
            _linalg.mat_det([row[:i] + (1,) + row[i + 1 :] for row in matrix.rows])
            for i in range(matrix.n)
        )
        degree = det
    g = 0
    for value in (*weights, degree):
        g = gcd(g, abs(value))
    g = g or 1
    return WeightSolution(
        weights=tuple(weights),
        degree=degree,
        reduced_weights=tuple(v // g for v in weights),
        reduced_degree=degree // g,
        positive=all(v > 0 for v in weights),
    )


@dataclass(frozen=True, slots=True)
class GradingOperator:
    """Exponential grading operator data: charges q_i = w_i/d and order."""

    charges: tuple[Fraction, ...]
    order: int

    def __str__(self) -> str:
        qs = ", ".join(str(q) for q in self.charges)
        return f"q = ({qs}), order {self.order}"


def grading_operator(matrix: ExponentMatrix) -> GradingOperator:
    """Charges q_i = w_i/d in lowest terms; order = lcm of denominators."""
    solution = canonical_weights(matrix)
    if solution.degree == 0:
        raise SingularMatrixError("grading operator needs det E != 0")
    charges = tuple(Fraction(w, solution.degree) for w in solution.weights)
    order = 1
    for q in charges:
        order = lcm(order, q.denominator)
    return GradingOperator(charges, order)


@dataclass(frozen=True, slots=True)
class DiagonalGroup:
    """Maximal group of diagonal symmetries, by invariant factors.

    ``invariant_factors`` lists the nontrivial factors d_1 | d_2 | ...;
    the group order is their product, which equals |det E|.
    """

    invariant_factors: tuple[int, ...]
    order: int

    def __str__(self) -> str:
        if not self.invariant_factors:
            return "trivial group"
        parts = " x ".join(f"Z/{d}" for d in self.invariant_factors)
        return f"{parts} (order {self.order})"


def smith_normal_form(rows) -> list[int]:
    """Diagonal of the Smith normal form of an integer matrix.

    Exact integer row/column reduction, pivoting on the entry of smallest
    absolute value.  Returns non-negative diagonal entries satisfying the
    divisibility chain d_1 | d_2 | ...
    """
    m = [[int(e) for e in row] for row in rows]
    nrows = len(m)
    ncols = len(m[0]) if m else 0
    size = min(nrows, ncols)
    for t in range(size):
        while True:
            pivot = None
            best = None
            for i in range(t, nrows):
                for j in range(t, ncols):
                    if m[i][j] != 0 and (best is None or abs(m[i][j]) < best):
                        best = abs(m[i][j])
                        pivot = (i, j)
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
                # Pivot must also divide the rest of the block.
                offender = None
                for i in range(t + 1, nrows):
                    for j in range(t + 1, ncols):
                        if m[i][j] % head:
                            offender = i
                            break
                    if offender is not None:
                        break
                if offender is None:
                    break
                for j in range(t, ncols):
                    m[t][j] += m[offender][j]
    return [abs(m[i][i]) for i in range(size)]


def symmetry_group(matrix: ExponentMatrix) -> DiagonalGroup:
    """Invariant factors of the integer cokernel of E; order = |det E|."""
    det = matrix.det()
    if det == 0:
        raise SingularMatrixError("diagonal symmetry group is infinite for det E = 0")
    diagonal = smith_normal_form(matrix.rows)
    factors = tuple(d for d in diagonal if d != 1)
    order = 1
    for d in factors:
        order *= d
    return DiagonalGroup(factors, order)
