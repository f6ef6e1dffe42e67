"""Checks of the benchmark's results that share no code with the timed
library functions.

Polynomials are evaluated here from their term list, matrices multiplied
and determinants expanded with plain integers, and monomials counted by
enumeration; the library is only asked for its terms and coefficients.
"""

from __future__ import annotations

import json
from fractions import Fraction
from itertools import permutations

#: The shipped catalog: 8 series with 10 checks each.
EXPECTED_CHECKS = 80


def evaluate(poly, point) -> Fraction:
    """Value of a ``Polynomial`` at a rational point (x, y, z, w)."""
    total = Fraction(0)
    for mono, coeff in poly.terms():
        value = coeff
        for v, e in zip(point, mono.exponents):
            value *= v**e
        total += value
    return total


def verify_output_ok(returncode: int, stdout: str, as_json: bool) -> bool:
    """A cold ``verify`` run passed every check of the shipped catalog."""
    if returncode != 0:
        return False
    if as_json:
        try:
            report = json.loads(stdout)
        except json.JSONDecodeError:
            return False
        return report.get("passed") == report.get("total") == EXPECTED_CHECKS
    lines = stdout.strip().splitlines()
    return bool(lines) and lines[-1] == f"{EXPECTED_CHECKS}/{EXPECTED_CHECKS} checks passed"


def det(rows) -> int:
    """Leibniz expansion, for the 4x4 integer matrices of the gradings."""
    n = len(rows)
    total = 0
    for perm in permutations(range(n)):
        inversions = sum(1 for i in range(n) for j in range(i + 1, n) if perm[i] > perm[j])
        term = -1 if inversions % 2 else 1
        for i, j in enumerate(perm):
            term *= rows[i][j]
        total += term
    return total


def solves_weights(rows, weights, degree) -> bool:
    """E . w = d . (1, ..., 1)."""
    return all(sum(e * w for e, w in zip(row, weights)) == degree for row in rows)


def poincare_coefficients(weights, degrees, order: int) -> list[int]:
    """Taylor coefficients of prod(1 - t^d) / prod(1 - t^w) up to t^order:
    monomials of each weighted degree, counted one by one, then
    multiplied by each (1 - t^d)."""
    counts = [0] * (order + 1)
    w1, w2, w3, w4 = weights
    for e1 in range(order // w1 + 1):
        s1 = e1 * w1
        for e2 in range((order - s1) // w2 + 1):
            s2 = s1 + e2 * w2
            for e3 in range((order - s2) // w3 + 1):
                s3 = s2 + e3 * w3
                for s4 in range(s3, order + 1, w4):
                    counts[s4] += 1
    for d in degrees:
        counts = [c - (counts[k - d] if k >= d else 0) for k, c in enumerate(counts)]
    return counts


def is_palindrome(coefficients) -> bool:
    coefficients = list(coefficients)
    return coefficients == coefficients[::-1]
