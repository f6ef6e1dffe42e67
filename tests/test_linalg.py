import random
from fractions import Fraction
from itertools import combinations
from math import gcd, lcm

import pytest

from strangedual._linalg import mat_rank, nullspace, rref, solve_affine


def _det(rows):
    # Cofactor expansion along the first row: no elimination, no pivots.
    if not rows:
        return 1
    return sum(
        (-1) ** j * rows[0][j] * _det([row[:j] + row[j + 1 :] for row in rows[1:]])
        for j in range(len(rows))
        if rows[0][j]
    )


def _rank(rows):
    # The largest k with a nonzero k x k minor.
    ncols = len(rows[0]) if rows else 0
    for k in range(min(len(rows), ncols), 0, -1):
        for rs in combinations(range(len(rows)), k):
            for cs in combinations(range(ncols), k):
                if _det([[rows[r][c] for c in cs] for r in rs]) != 0:
                    return k
    return 0


def _apply(rows, vec):
    return [sum(a * v for a, v in zip(row, vec)) for row in rows]


def _primitive(vec):
    content = gcd(*vec)
    return [v // content for v in vec]


def _entry(rng, rational):
    if rng.random() < 0.3:
        return 0
    if rational:
        return Fraction(rng.randint(-6, 6), rng.randint(1, 6))
    return rng.randint(-4, 4)


def _integral(rows, rhs):
    # Each equation times the lcm of its denominators: the same solutions.
    scales = [lcm(*(Fraction(v).denominator for v in [*row, b])) for row, b in zip(rows, rhs)]
    return (
        [[int(v * k) for v in row] for row, k in zip(rows, scales)],
        [int(b * k) for b, k in zip(rhs, scales)],
    )


def _systems(seed, count):
    """Seeded 1x1 to 4x5 systems with zero columns, repeated rows and,
    for about a third of them, a right-hand side that breaks a repeat.
    Each comes with its integer multiple, the form the solvers take."""
    rng = random.Random(seed)
    for _ in range(count):
        nrows, ncols = rng.randint(1, 4), rng.randint(1, 5)
        rational = rng.random() < 0.5
        rows = [[_entry(rng, rational) for _ in range(ncols)] for _ in range(nrows)]
        if rng.random() < 0.3:
            zero = rng.randrange(ncols)
            for row in rows:
                row[zero] = 0
        if nrows > 1 and rng.random() < 0.4:
            rows[-1] = list(rows[0])
        rhs = _apply(rows, [_entry(rng, rational) for _ in range(ncols)])
        if rng.random() < 0.35:
            if nrows > 1 and rows[-1] == rows[0]:
                rhs[-1] = rhs[0] + 1
            else:
                rhs = [_entry(rng, rational) for _ in range(nrows)]
        yield rows, rhs, *_integral(rows, rhs)


def test_elimination_matches_minor_oracle():
    solved = inconsistent = degenerate = 0
    for rows, rhs, int_rows, int_rhs in _systems(11, 200):
        ncols = len(rows[0])
        rank = _rank(rows)
        assert mat_rank(int_rows) == rank
        basis = nullspace(int_rows)
        assert len(basis) == ncols - rank
        assert all(_apply(rows, vec) == [0] * len(rows) for vec in basis)
        assert _rank(basis) == len(basis)
        solution = solve_affine(int_rows, int_rhs)
        if solution is None:
            # Inconsistent exactly when b raises the rank of [A | b].
            assert _rank([row + [b] for row, b in zip(rows, rhs)]) > rank
            inconsistent += 1
            continue
        # Integer vectors over one positive denominator.
        den, particular, kernel = solution
        assert den > 0 and all(type(v) is int for v in particular + sum(kernel, []))
        assert _apply(rows, particular) == [den * b for b in rhs]
        # Each vector is a positive multiple of the same rational one.
        assert [_primitive(v) for v in kernel] == [_primitive(v) for v in basis]
        solved += 1
        degenerate += rank < ncols
    assert min(solved, inconsistent, degenerate) >= 30


@pytest.mark.parametrize(
    "solve",
    [
        lambda: rref([[Fraction(1, 2), 1]]),
        lambda: mat_rank([[1, 2], [Fraction(2), 4]]),
        lambda: solve_affine([[1.5, 2]], [1]),
        lambda: nullspace([[1, 0.0]]),
    ],
    ids=["rref-fraction", "rank-integral-fraction", "solve-float", "nullspace-float"],
)
def test_elimination_takes_integer_rows_only(solve):
    with pytest.raises(TypeError):
        solve()
