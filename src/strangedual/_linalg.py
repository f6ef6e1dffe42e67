"""Small exact linear-algebra helpers, all fraction-free.

``mat_det`` is Bareiss elimination over ``int``.  ``rref`` is Gauss–Jordan
over ``int``: each row is scaled to integers, and each new row is divided
by its content.  ``mat_rank``, ``solve_affine`` and ``nullspace`` build on
it and take ``int`` or ``fractions.Fraction`` entries; a ``Fraction`` is
formed only for each solution entry, by one division by its pivot.
Everything is meant for the tiny matrices (at most 4x5) that show up in
this package.  No pivoting heuristics beyond exactness are needed.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import repeat
from math import gcd, lcm
from operator import index


def mat_det(rows) -> int:
    """Determinant of an integer matrix by Bareiss elimination.

    Every division is exact (Sylvester's identity), so the work stays in
    the integers.  An entry that is not an integer raises ``TypeError``.
    """
    m = [[index(entry) for entry in row] for row in rows]
    n = len(m)
    if any(len(row) != n for row in m):
        raise ValueError("determinant of a non-square matrix")
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
            for c in range(col + 1, n):
                row[c] = (row[c] * head - lead * top[c]) // previous
        previous = head
    return sign * m[-1][-1] if n else 1


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
    m = []
    for row, b in zip(rows, repeat(0) if rhs is None else rhs):
        row = [*row, b]
        scale = lcm(*(v.denominator for v in row))
        m.append(_primitive([v.numerator * (scale // v.denominator) for v in row]))
    nrows = len(m)
    ncols = len(m[0]) - 1 if m else 0
    pivots: list[int] = []
    r = 0
    for col in range(ncols):
        pivot = next((k for k in range(r, nrows) if m[k][col] != 0), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        top = m[r]
        head = top[col]
        for k, row in enumerate(m):
            lead = row[col]
            if k != r and lead != 0:
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

    Returns ``(particular, kernel_basis)`` where ``particular`` is one
    solution (list of Fractions) and ``kernel_basis`` a basis of the
    homogeneous solutions; returns ``None`` if the system is inconsistent.
    """
    m, b, pivots = rref(rows, rhs)
    # The rows past the pivot rows are zero; a nonzero rhs there is 0 = b.
    if any(b[len(pivots) :]):
        return None
    ncols = len(rows[0]) if rows else 0
    particular = [Fraction(0)] * ncols
    for r, col in enumerate(pivots):
        particular[col] = Fraction(b[r], m[r][col])
    free_cols = [c for c in range(ncols) if c not in pivots]
    basis = []
    for free in free_cols:
        vec = [Fraction(0)] * ncols
        vec[free] = Fraction(1)
        for r, col in enumerate(pivots):
            vec[col] = Fraction(-m[r][free], m[r][col])
        basis.append(vec)
    return particular, basis


def nullspace(rows):
    """Basis of the rational nullspace of ``rows``."""
    if not rows:
        return []
    zero = [Fraction(0)] * len(rows)
    solution = solve_affine(rows, zero)
    assert solution is not None
    return solution[1]


def primitive_integer_vector(vec) -> tuple[int, ...]:
    """Scale a rational vector to a primitive integer vector.

    The sign is normalised so that the first nonzero entry is positive.
    """
    fracs = [Fraction(v) for v in vec]
    scale = lcm(*(v.denominator for v in fracs))
    ints = _primitive([v.numerator * (scale // v.denominator) for v in fracs])
    first = next((v for v in ints if v != 0), 0)
    return tuple(-v if first < 0 else v for v in ints)
