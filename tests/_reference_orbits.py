"""Frozen copy of the ``Fraction``-point exceptional-orbit enumeration.

This is the stratum solver as it stood before orbit points became integer
numerators over one denominator: each stratum is cut out of the frozen
reference polynomials of ``_reference_polyring`` by ``restrict``, a
constant-coefficient linear variable is eliminated by ``substitute``, the
univariate restrictions meet in a monic Euclidean gcd over Q, and points
are ``Fraction`` 4-tuples.  Membership is checked by evaluation and the
singular flag says the ``Fraction`` Jacobian has rank below 2.  It is
kept only as a differential oracle for ``test_orbits.py`` and must not
change with the library.  Its changes since: a stratum on which a
restricted equation is one term has no points, with two free
coordinates too (a term c*m, c != 0, vanishes nowhere on the stratum);
and the rank test is its own (every 2x2 minor is 0), because the
library's elimination takes integer rows only.  The records and error
classes are the library's own.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from math import gcd, isqrt, lcm

import _reference_polyring as ref

from strangedual.orbits import OrbitRep, StratumError, UnresolvedOrbit

VARIABLES = ("x", "y", "z", "w")


def _trim(coeffs):
    coeffs = list(coeffs)
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return coeffs


def _remainder(a, b):
    # a mod b over Q, both constant term first, b nonzero.
    rem = [Fraction(c) for c in a]
    while len(rem) >= len(b):
        factor = rem[-1] / b[-1]
        shift = len(rem) - len(b)
        for j, c in enumerate(b):
            rem[shift + j] -= factor * c
        rem = _trim(rem[:-1])
    return rem


def monic_gcd(a, b):
    """Monic gcd over Q by the Euclidean algorithm (``[]`` if both are zero)."""
    a, b = _trim(a), _trim(b)
    while b:
        a, b = b, _remainder(a, b)
    return [Fraction(c) / a[-1] for c in a] if a else []


def primitive(coeffs):
    scale = lcm(*(Fraction(c).denominator for c in coeffs))
    ints = [int(c * scale) for c in coeffs]
    content = gcd(*ints)
    return tuple(v // content for v in ints)


def _uni_eval(coeffs, p, q):
    total = 0
    q_power = 1
    for coeff in reversed(coeffs):
        total = total * p + coeff * q_power
        q_power *= q
    return total


def _divisors(n):
    n = abs(n)
    small = [d for d in range(1, isqrt(n) + 1) if n % d == 0]
    return small + [n // d for d in reversed(small) if d * d != n]


def rational_roots(coeffs):
    """``(roots, residual)``: the set of nonzero rational roots as
    ``Fraction``s and the primitive rootless factor (or ``None``)."""
    ints = primitive(_trim(coeffs))
    low = next(i for i, c in enumerate(ints) if c != 0)
    work = ints[low:]
    roots = set()
    while len(work) > 1:
        denominators = _divisors(work[-1])
        found = next(
            (
                (p, q)
                for a in _divisors(work[0])
                for q in denominators
                if gcd(a, q) == 1
                for p in (a, -a)
                if _uni_eval(work, p, q) == 0
            ),
            None,
        )
        if found is None:
            break
        p, q = found
        roots.add(Fraction(p, q))
        quotient = [0] * (len(work) - 1)
        carry = 0
        for i in range(len(work) - 1, 0, -1):
            carry = (work[i] + p * carry) // q
            quotient[i - 1] = carry
        work = tuple(quotient)
    return roots, (work if len(work) > 1 else None)


def _univariate(p, var_index):
    coeffs = {}
    for mono, c in p.terms():
        coeffs[mono.exponents[var_index]] = c
    top = max(coeffs, default=0)
    return [coeffs.get(i, 0) for i in range(top + 1)]


def _linear_eliminable(p, candidates):
    for idx in candidates:
        rest = {m: c for m, c in p.terms() if not m.exponents[idx]}
        linear = [(m, c) for m, c in p.terms() if m.exponents[idx]]
        unit = tuple(int(i == idx) for i in range(4))
        if len(linear) == 1 and linear[0][0].exponents == unit:
            return idx, linear[0][1], ref.Polynomial(rest)
    return None


def solve_stratum(h1, h2, stratum, slice_index):
    """``(points, unresolved)`` on the stratum with the slice coordinate 1;
    ``h1`` and ``h2`` are reference polynomials."""
    zeroed = tuple(i for i in range(4) if i not in stratum)
    equations = [h.restrict(zeroed, (slice_index,)) for h in (h1, h2)]
    name = f"stratum {{{','.join(VARIABLES[i] for i in stratum)}}}"
    free = sorted(i for i in stratum if i != slice_index)
    if len(free) > 2:
        raise StratumError(f"system too complex: {name} has {len(free)} free coordinates")
    if any(len(q) == 1 for q in equations):
        return [], []  # one term c*m, c != 0, vanishes nowhere on the stratum
    point = [Fraction(0)] * 4
    point[slice_index] = Fraction(1)
    if not any(equations):
        if not free:
            return [tuple(point)], []
        raise StratumError(f"system too complex: both equations vanish on {name}")
    eliminated = None
    if len(free) == 2:
        for first, second in (equations, equations[::-1]):
            eliminated = _linear_eliminable(first, free)
            if eliminated is not None:
                break
        else:
            raise StratumError(f"system too complex: no constant-coefficient linear variable on {name}")
        idx, coeff, rest = eliminated
        image = rest.scale(-1 / coeff)
        equations = [second.substitute({VARIABLES[idx]: image})]
        if not equations[0]:
            raise StratumError(f"system too complex: positive-dimensional solutions on {name}")
        free.remove(idx)
    last = free[0] if free else slice_index
    restrictions = [_univariate(q, last) for q in equations if q]
    g = restrictions[0]
    for other in restrictions[1:]:
        g = monic_gcd(g, other)
    if len(g) == 1:
        return [], []
    roots, residual = rational_roots(g)
    points = []
    for root in roots:
        point[last] = root
        if eliminated is not None:
            point[idx] = image.evaluate(point)
        if all(point[i] for i in stratum):
            points.append(tuple(point))
    return points, [] if residual is None else [(VARIABLES[last], residual)]


def rational_group_images(point, weights, slice_index):
    order = weights[slice_index]
    support = [i for i in range(4) if point[i] != 0]
    step = lcm(*(order // gcd(order, 2 * weights[i]) for i in support))
    flipped = tuple(-v if step * w % order else v for v, w in zip(point, weights))
    return {tuple(point), flipped}


def _rank_below_two(rows):
    """Every 2x2 minor of ``rows`` is 0."""
    return all(
        r[i] * s[j] == r[j] * s[i]
        for r, s in combinations(rows, 2)
        for i, j in combinations(range(len(r)), 2)
    )


def exceptional_orbits(h1, h2i, action):
    """The orbit list of the library's ``exceptional_orbits`` for library
    polynomials ``h1`` and ``h2i`` (weighted homogeneous for ``action``)."""
    weights = action.weights
    equations = [ref.Polynomial(dict(p.terms())) for p in (h1, h2i)]
    gradient = [[p.partial(v) for v in VARIABLES] for p in equations]
    results = []
    for size in range(1, 5):
        for stratum in combinations(range(4), size):
            g = gcd(*(weights[i] for i in stratum))
            if g <= 1:
                continue
            slice_index = min(stratum, key=lambda i: (weights[i], i))
            points, unresolved = solve_stratum(*equations, stratum, slice_index)
            names = tuple(VARIABLES[i] for i in stratum)
            seen = set()
            for point in sorted(points):
                if point in seen:
                    continue
                seen |= rational_group_images(point, weights, slice_index)
                assert all(p.evaluate(point) == 0 for p in equations)
                jacobian = [[d.evaluate(point) for d in row] for row in gradient]
                results.append(OrbitRep(point, g, _rank_below_two(jacobian), names))
            results.extend(UnresolvedOrbit(names, v, r) for v, r in unresolved)
    return results
