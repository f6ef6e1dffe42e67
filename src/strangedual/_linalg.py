"""Small exact linear-algebra helpers, all fraction-free.

``mat_det`` is Bareiss elimination over ``int`` (``bareiss``).  ``rref``
is Gauss–Jordan over ``int``: each new row is divided by its content.
``mat_rank``, ``solve_affine`` and ``nullspace`` build on it.  All take
``int`` entries; this private module raises ``TypeError`` on any other
(``mat_det`` through ``_errors.integers``, the rest from ``math.gcd``).
``solve_affine`` returns integer vectors over one positive denominator,
the lcm of the pivots, so no ``Fraction`` is formed.
Everything is meant for the tiny matrices (at most 4x5) that show up in
this package.  No pivoting heuristics beyond exactness are needed.
"""

from __future__ import annotations

from itertools import repeat
from math import gcd, lcm

from ._errors import integers


def mat_det(rows) -> int:
    """Determinant of an integer matrix; an entry that is not an integer
    raises ``TypeError``."""
    m = [list(integers(row, TypeError, "matrix entries")) for row in rows]
    if any(len(row) != len(m) for row in m):
        raise ValueError("determinant of a non-square matrix")
    return bareiss(m)


def bareiss(m: list[list[int]]) -> int:
    """Determinant of the first n columns of the n integer rows ``m``.
    Bareiss elimination makes ``m``, further columns included, an
    equivalent triangular system; each division is exact (Sylvester)."""
    n = len(m)
    sign = 1
    previous = 1
    for col in range(n - 1):
        if m[col][col] == 0:
            pivot = next((r for r in range(col + 1, n) if m[r][col] != 0), None)
            if pivot is None:
                return 0
            m[col], m[pivot] = m[pivot], m[col]
            sign = -sign
        top = m[col]
        head = top[col]
        for row in m[col + 1 :]:
            lead = row[col]
            for c in range(col + 1, len(top)):
                row[c] = (row[c] * head - lead * top[c]) // previous
        previous = head
    return sign * m[-1][n - 1] if n else 1


def _primitive(row: list[int]) -> list[int]:
    """``row`` divided by its content (unchanged when it is zero)."""
    content = gcd(*row)
    return [v // content for v in row] if content > 1 else row


def rref(rows, rhs=None):
    """Reduced row echelon form of ``rows`` (augmented with ``rhs`` if given).

    Returns ``(matrix, rhs, pivot_columns)`` in integers.  Row r is the
    reduced row r times its pivot ``matrix[r][pivot_columns[r]]``: pivots
    are not scaled to 1, so no ``Fraction`` is formed.  The rhs is ``None``
    when no right-hand side was supplied.
    """
    m = [_primitive([*row, b]) for row, b in zip(rows, repeat(0) if rhs is None else rhs)]
    nrows = len(m)
    ncols = len(m[0]) - 1 if m else 0
    pivots: list[int] = []
    r = 0
    for col in range(ncols):
        for pivot in range(r, nrows):
            if m[pivot][col]:
                break
        else:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        top = m[r]
        head = top[col]
        for k, row in enumerate(m):
            lead = row[col]
            if lead and k != r:
                m[k] = _primitive([head * a - lead * c for a, c in zip(row, top)])
        pivots.append(col)
        r += 1
        if r == nrows:
            break
    b = [row.pop() for row in m]
    return m, (None if rhs is None else b), pivots


def mat_rank(rows) -> int:
    if not rows:
        return 0
    _, _, pivots = rref(rows)
    return len(pivots)


def solve_affine(rows, rhs):
    """Solve ``rows @ u = rhs`` exactly.

    Returns ``(den, particular, kernel_basis)`` in integers: ``particular /
    den`` is one solution and the vectors of ``kernel_basis`` span the
    homogeneous solutions, with ``den > 0``; returns ``None`` if the system
    is inconsistent.
    """
    return _solution(*rref(rows, rhs), len(rows[0]) if rows else 0)


def _solution(m, b, pivots, ncols):
    # Solve the reduced system (m | b): past the pivot rows, 0 = b.
    if any(b[len(pivots) :]):
        return None
    den = lcm(*(m[r][col] for r, col in enumerate(pivots)))
    scales = [den // m[r][col] for r, col in enumerate(pivots)]
    particular = [0] * ncols
    for r, col in enumerate(pivots):
        particular[col] = b[r] * scales[r]
    basis = []
    for free in range(ncols):
        if free not in pivots:
            vec = [0] * ncols
            vec[free] = den
            for r, col in enumerate(pivots):
                vec[col] = -m[r][free] * scales[r]
            basis.append(vec)
    return den, particular, basis


def nullspace(rows):
    """Integer basis of the rational nullspace of ``rows``."""
    return _solution(*rref(rows, [0] * len(rows)), len(rows[0]))[2] if rows else []


def primitive_integer_vector(vec) -> tuple[int, ...]:
    """Scale a vector of ``int`` or ``Fraction`` to a primitive integer vector.

    The sign is normalised so that the first nonzero entry is positive.
    """
    scale = lcm(*(v.denominator for v in vec))
    ints = _primitive([v.numerator * (scale // v.denominator) for v in vec])
    first = next((v for v in ints if v != 0), 0)
    return tuple(-v if first < 0 else v for v in ints)
