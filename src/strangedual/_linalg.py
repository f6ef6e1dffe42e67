"""Small exact linear-algebra helpers.

``rref``, ``solve_affine`` and ``nullspace`` work over the rationals, on
tuples/lists of ``fractions.Fraction`` (or ints).  ``mat_det`` is
integer-only: it takes integer entries and returns an ``int``, by
fraction-free elimination.  Everything is meant for the tiny matrices
(at most 4x5) that show up in this package.  No pivoting heuristics
beyond exactness are needed.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from operator import index

Row = tuple[Fraction, ...]
Matrix = list[list[Fraction]]


def _to_matrix(rows) -> Matrix:
    return [[Fraction(entry) for entry in row] for row in rows]


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


def rref(rows, rhs=None):
    """Reduced row echelon form of ``rows`` (augmented with ``rhs`` if given).

    Returns ``(matrix, rhs, pivot_columns)``; the rhs is ``None`` when no
    right-hand side was supplied.
    """
    m = _to_matrix(rows)
    b = [Fraction(v) for v in rhs] if rhs is not None else None
    nrows = len(m)
    ncols = len(m[0]) if m else 0
    pivots: list[int] = []
    r = 0
    for col in range(ncols):
        pivot = next((k for k in range(r, nrows) if m[k][col] != 0), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        if b is not None:
            b[r], b[pivot] = b[pivot], b[r]
        inv = Fraction(1) / m[r][col]
        m[r] = [entry * inv for entry in m[r]]
        if b is not None:
            b[r] *= inv
        for k in range(nrows):
            if k != r and m[k][col] != 0:
                factor = m[k][col]
                m[k] = [a - factor * c for a, c in zip(m[k], m[r])]
                if b is not None:
                    b[k] -= factor * b[r]
        pivots.append(col)
        r += 1
        if r == nrows:
            break
    return m, b, pivots


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
    ncols = len(rows[0]) if rows else 0
    for i in range(len(m)):
        if all(entry == 0 for entry in m[i]) and b[i] != 0:
            return None
    particular = [Fraction(0)] * ncols
    for r, col in enumerate(pivots):
        particular[col] = b[r]
    free_cols = [c for c in range(ncols) if c not in pivots]
    basis = []
    for free in free_cols:
        vec = [Fraction(0)] * ncols
        vec[free] = Fraction(1)
        for r, col in enumerate(pivots):
            vec[col] = -m[r][free]
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
    if all(v == 0 for v in fracs):
        return tuple(0 for _ in fracs)
    denom_lcm = 1
    for v in fracs:
        denom_lcm = denom_lcm * v.denominator // gcd(denom_lcm, v.denominator)
    ints = [int(v * denom_lcm) for v in fracs]
    g = 0
    for v in ints:
        g = gcd(g, abs(v))
    ints = [v // g for v in ints]
    first = next(v for v in ints if v != 0)
    if first < 0:
        ints = [-v for v in ints]
    return tuple(ints)
