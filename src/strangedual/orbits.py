r"""Weighted C*-action analysis on complete-intersection zero sets.

Given a pair of equations (h1, h2i) that is weighted homogeneous for a
C*-action with positive integer weights, the exceptional orbits (orbits
with nontrivial isotropy) all lie in coordinate strata whose weights
share a common factor.  Enumerating the strata, slicing each orbit by
fixing the lowest-weight coordinate to 1 and solving the restricted
system exactly yields orbit representatives, their isotropy orders and
a singular-locus flag.  Each equation's integer terms are read once,
with a bitmask of the variables each term uses: a term survives a
stratum when its mask lies inside it.  With two free coordinates, a
variable v that one equation holds as a*v + R(u) is eliminated into the
other in integers; the last free coordinate is a rational root of the
primitive gcd of the univariate restrictions (with fewer free
coordinates, none if a restriction is one term).  An equation, or an
eliminated one, of total degree past 2048 (``_MAX_DEGREE``) is refused.
A point is four integer numerators over one denominator, and
``Fraction``s are built only for each kept :class:`OrbitRep`.  The
Newton split solves its affine systems in integers and runs
Fourier-Motzkin on integer rows (A. Schrijver, Theory of Linear and
Integer Programming, 1986, 12.2).

The case (A)/(B)/(C) classification and the principal-orbit filter turn
this enumeration into the pair of isotropy orders attached to each half
of the defining equations; the Newton-polygon split of the second
equation produces those halves in the first place.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from functools import reduce
from itertools import combinations
from math import gcd, isqrt, lcm
from operator import itemgetter

from . import _linalg
from ._errors import StrangedualError
from .polyring import Polynomial, QuasiFailure, VARIABLES, _jet, _part, _rows, quasi_degree
from .series import UniPolynomial, WeightSystem

__all__ = [
    "CStarAction",
    "OrbitRep",
    "UnresolvedOrbit",
    "NewtonFace",
    "NewtonSplit",
    "CaseInfo",
    "OrbitError",
    "StratumError",
    "NewtonStructureError",
    "split_newton",
    "classify_case",
    "exceptional_orbits",
    "dolgachev_pair",
]


class OrbitError(StrangedualError):
    pass


class StratumError(OrbitError):
    """The restricted system could not be reduced to univariate form."""


class NewtonStructureError(OrbitError):
    """The Newton polygon did not produce exactly two qualifying faces."""


class CStarAction(namedtuple("CStarAction", "weights")):
    """Diagonal C*-action with positive integer weights on (x, y, z, w)."""

    __slots__ = ()

    def __new__(cls, weights: tuple[int, int, int, int]):
        self = tuple.__new__(cls, (weights,))
        if len(self.weights) != 4 or any(w <= 0 for w in self.weights):
            raise OrbitError(f"need 4 positive weights, got {self.weights!r}")
        return self


class OrbitRep(namedtuple("OrbitRep", "point isotropy in_singular_locus stratum")):
    """One exceptional orbit: a rational representative (4 ``Fraction``s),
    its isotropy order, the singular-locus flag and the coordinate stratum
    (variable names)."""

    __slots__ = ()

    def __str__(self) -> str:
        coords = ", ".join(str(v) for v in self.point)
        flag = "yes" if self.in_singular_locus else "no"
        return (
            f"stratum={{{','.join(self.stratum)}}} point=({coords}) "
            f"isotropy={self.isotropy} singular={flag}"
        )


class UnresolvedOrbit(namedtuple("UnresolvedOrbit", "stratum variable coefficients")):
    """A stratum solution with no rational representative: the residual
    univariate factor (integer coefficients, constant term first) is
    reported instead of a point."""

    __slots__ = ()

    def defining_polynomial(self) -> str:
        pieces = []
        for power, coeff in enumerate(self.coefficients):
            if coeff:
                pieces.append(f"{coeff}*{self.variable}^{power}")
        return " + ".join(pieces) if pieces else "0"

    def __str__(self) -> str:
        return (
            f"stratum={{{','.join(self.stratum)}}} unresolved: "
            f"{self.defining_polynomial()} = 0"
        )


#: The largest total degree of an equation, or of an eliminated one, that
#: the orbit solver takes: its dense polynomials and jets grow with it.
_MAX_DEGREE = 2048


# -- univariate root finding ---------------------------------------------------

def _uni_eval(coeffs, p: int, q: int) -> int:
    """q^n * f(p/q) for the integer coefficients of f (constant term first,
    degree n), by homogeneous Horner: zero exactly when p/q is a root.

    Each candidate root is tested through this module global, one call per
    candidate, so a wrapper installed here sees every candidate tried, a
    linear factor's too.
    """
    total = 0
    q_power = 1
    for coeff in reversed(coeffs):
        total = total * p + coeff * q_power
        q_power *= q
    return total


def _divisors(n: int) -> list[int]:
    """Positive divisors of n in ascending order, found in pairs up to sqrt(n)."""
    n = abs(n)
    small = [d for d in range(1, isqrt(n) + 1) if n % d == 0]
    return small + [n // d for d in reversed(small) if d * d != n]


def _rational_roots(coeffs) -> tuple[set[tuple[int, int]], tuple[int, ...] | None]:
    """Nonzero rational roots of a univariate polynomial over Q.

    ``coeffs`` runs from the constant term up.  Returns ``(roots,
    residual)``: each root p/q as a pair ``(p, q)`` in lowest terms with
    q > 0, and the primitive integer coefficient tuple of the rootless
    factor of degree >= 1 that remains after splitting off t^k and all
    rational roots, or ``None`` if the polynomial splits completely.
    """
    work = UniPolynomial(coeffs)
    if work.is_zero():
        raise OrbitError("zero polynomial has every value as a root")
    # Over the primitive integer form every root p/q has p | a_0 and q | a_n,
    # and dividing by q*t - p keeps the quotient primitive (Gauss's lemma).
    ints = work.primitive()
    low = next(i for i, c in enumerate(ints) if c != 0)
    work = ints[low:]
    roots: set[tuple[int, int]] = set()
    while len(work) > 1:
        if len(work) == 2:  # primitive a_0 + a_1*t: one root, -a_0/a_1 in lowest terms
            candidates = [(-work[0], work[1]) if work[1] > 0 else (work[0], -work[1])]
        else:
            denominators = _divisors(work[-1])
            candidates = (
                (p, q)
                for a in _divisors(work[0])
                for q in denominators
                if gcd(a, q) == 1
                for p in (a, -a)
            )
        found = next(((p, q) for p, q in candidates if _uni_eval(work, p, q) == 0), None)
        if found is None:
            break
        p, q = found
        roots.add(found)
        # Synthetic division by q*t - p, from the top: g_{i-1} = (f_i + p*g_i) / q.
        quotient = [0] * (len(work) - 1)
        carry = 0
        for i in range(len(work) - 1, 0, -1):
            carry = (work[i] + p * carry) // q
            quotient[i - 1] = carry
        work = tuple(quotient)
    return roots, (work if len(work) > 1 else None)


def _dense(pairs) -> UniPolynomial:
    # The univariate polynomial of (exponent, integer coefficient) pairs.
    coeffs = [0] * (max((e for e, _ in pairs), default=-1) + 1)
    for e, c in pairs:
        coeffs[e] += c
    return UniPolynomial(coeffs)


def _power(p: UniPolynomial, n: int, result: UniPolynomial) -> UniPolynomial:
    # result * p**n by squaring, holding one square at a time.
    while n:
        if n & 1:
            result = result * p
        n >>= 1
        if n:
            p = p * p
    return result


# -- stratum solving ----------------------------------------------------------


def _name(stratum: tuple[int, ...]) -> str:
    return f"stratum {{{','.join(VARIABLES[i] for i in stratum)}}}"


def _solve_stratum(terms, stratum: tuple[int, ...], inside: int, slice_index: int):
    """Solve h1 = h2 = 0 on the stratum (coordinates in ``stratum``, mask
    ``inside``, nonzero, others zero) with the slice coordinate 1.

    ``terms`` holds each equation's ``_rows``.  Returns ``(den, points,
    unresolved)``: the points are integer 4-tuples over the positive
    ``den``, with all stratum coordinates nonzero.
    """
    free = [i for i in stratum if i != slice_index]
    if len(free) > 2:
        raise StratumError(f"system too complex: {_name(stratum)} has {len(free)} free coordinates")
    # Key: the free exponent (0 if none), or the pair of them.
    key_of = itemgetter(*free) if free else lambda exps: 0
    tables = []
    for rows in terms:
        table = {}
        for mask, exps, c in rows:
            if mask | inside == inside:
                key = key_of(exps)
                table[key] = table.get(key, 0) + c
        table = {key: c for key, c in table.items() if c}
        if len(table) == 1 and len(free) < 2:
            return 1, [], []  # c*t^e with c != 0 vanishes at no t != 0
        tables.append(table)
    point = [0] * 4
    point[slice_index] = 1
    if not any(tables):
        if not free:
            return 1, [tuple(point)], []
        raise StratumError(f"system too complex: both equations vanish on {_name(stratum)}")
    image = None
    if len(free) == 2:
        # v = free[k] is eliminable from an equation whose one term in v is a*v.
        units = ((1, 0), (0, 1))
        for first, second in (tables, tables[::-1]):
            k = next((k for k in (0, 1) if [key for key in first if key[k]] == [units[k]]), None)
            if k is not None:
                break
        else:
            raise StratumError(
                f"system too complex: no constant-coefficient linear variable on {_name(stratum)}"
            )
        a = first[units[k]]
        sign, d = (-1, a) if a > 0 else (1, -a)
        image = _dense([(key[1 - k], sign * c) for key, c in first.items() if not key[k]])
        slices = {}
        for key, c in second.items():
            slices.setdefault(key[k], []).append((key[1 - k], c))
        # sum S_j(u) N(u)**j d**(E - j) for v = N/d, S = sum S_j v**j: a
        # positive multiple of S(u, v), by Horner with one power at a time.
        top = prev = max(slices, default=0)
        n = image.degree()
        degree = max([e + j * n for j, pairs in slices.items() for e, _ in pairs], default=0)
        if degree > _MAX_DEGREE:
            raise StratumError(
                f"system too complex: elimination degree {degree} on {_name(stratum)} exceeds limit {_MAX_DEGREE}"
            )
        equation = UniPolynomial()
        for j in sorted(slices, reverse=True):
            scale = d ** (top - j)
            equation = _power(image, prev - j, equation) + _dense([(e, scale * c) for e, c in slices[j]])
            prev = j
        equation = _power(image, prev, equation)
        if equation.is_zero():
            raise StratumError(f"system too complex: positive-dimensional solutions on {_name(stratum)}")
        equations = [equation]
        idx, last = free[k], free[1 - k]
    else:
        last = free[0] if free else slice_index
        equations = [_dense(t.items()) for t in tables if t]
    g = reduce(UniPolynomial.primitive_gcd, equations)
    if g.degree() == 0:
        return 1, [], []  # constant gcd: no common roots at all
    roots, residual = _rational_roots(g.coefficients)
    # With Q the lcm of the root denominators, a root p/q is P/Q for
    # P = p*Q/q, and the eliminated coordinate N(P/Q)/d is
    # N_hom(P, Q)/(d*Q**n), n = deg N: every point lies over d*Q**max(n, 1).
    big_q = lcm(*(q for _, q in roots))
    if image is None:
        d = n = 1
    m = max(n, 1)
    den = d * big_q**m
    point[slice_index] = den
    points = []
    for p, q in roots:
        p *= big_q // q
        point[last] = p * d * big_q ** (m - 1)
        if image is not None:
            value, q_power = 0, big_q ** (m - n)
            for c in reversed(image.coefficients):
                value = value * p + c * q_power
                q_power *= big_q
            point[idx] = value
        if all(point[i] for i in stratum):
            points.append(tuple(point))
    return den, points, [] if residual is None else [(VARIABLES[last], residual)]


def _rational_group_images(point, weights, slice_index):
    """Orbit of a rational point under the residual cyclic group of the
    slice, keeping only the rational images (sign patterns).

    Element j multiplies coordinate i by exp(2*pi*i*j*w_i/order), where
    order is the slice weight: a sign exactly when 2*j*w_i = 0 (mod order).
    Over the support these j are the multiples of ``step``, and j -> signs
    is a homomorphism, so the rational images are the point and its image
    under j = step.
    """
    order = weights[slice_index]
    support = [i for i in range(4) if point[i] != 0]
    step = lcm(*(order // gcd(order, 2 * weights[i]) for i in support))
    flipped = tuple(-v if step * w % order else v for v, w in zip(point, weights))
    return {tuple(point), flipped}


#: The 15 coordinate strata: indices, variable mask and names.
_STRATA = tuple(
    (stratum, sum(1 << i for i in stratum), tuple(VARIABLES[i] for i in stratum))
    for size in range(1, 5)
    for stratum in combinations(range(4), size)
)


def exceptional_orbits(h1: Polynomial, h2i: Polynomial, action: CStarAction):
    """Enumerate the exceptional orbits of the action on {h1 = h2i = 0}.

    Returns a list of :class:`OrbitRep` (and :class:`UnresolvedOrbit` for
    stratum solutions with no rational representative) in deterministic
    stratum order.  The pair must be weighted homogeneous for the action.
    """
    for label, p in (("first", h1), ("second", h2i)):
        if p.degree() > _MAX_DEGREE:
            raise OrbitError(f"{label} equation degree {p.degree()} exceeds limit {_MAX_DEGREE}")
        verdict = quasi_degree(p, action.weights)
        if isinstance(verdict, QuasiFailure):
            raise OrbitError(f"{label} equation is not quasi-homogeneous: {verdict}")
    weights = action.weights
    terms = [_rows(h1), _rows(h2i)]
    results: list = []
    for stratum, inside, names in _STRATA:
        g = gcd(*[weights[i] for i in stratum])
        if g <= 1:
            continue
        # The first lightest coordinate.
        slice_index = min(stratum, key=weights.__getitem__)
        den, points, unresolved = _solve_stratum(terms, stratum, inside, slice_index)
        seen: set = set()
        # Over one denominator, integer order is the order of the points.
        for point in sorted(points):
            if point in seen:
                continue
            seen |= _rational_group_images(point, weights, slice_index)
            rep = tuple(Fraction(n, den) for n in point)
            _, v1, a = _jet(terms[0], point, den)
            _, v2, b = _jet(terms[1], point, den)
            if v1 or v2:
                raise OrbitError(f"internal error: representative {rep} misses the variety")
            # Rank < 2 exactly when every 2x2 minor vanishes; the positive
            # denominators scale whole rows, which keeps the rank.
            singular = all(a[i] * b[j] == a[j] * b[i] for i, j in combinations(range(4), 2))
            results.append(OrbitRep(rep, g, singular, names))
        for variable, residual in unresolved:
            results.append(UnresolvedOrbit(names, variable, residual))
    return results


# -- case classification and Dolgachev numbers --------------------------------


class CaseInfo(namedtuple("CaseInfo", "kind subspace g1 g2", defaults=(None, None, None))):
    """Outcome of the (A)/(B)/(C) trichotomy.

    (A) carries the two coordinates whose vanishing cuts the linear
    subspace contained in the variety; (B) carries the factors g1, g2 of
    the shape (g1(x,y,w), z*g2(x,y,z)).
    """

    __slots__ = ()

    def __str__(self) -> str:
        if self.kind == "A":
            i, j = self.subspace
            return f"(A) contains {{{i} = {j} = 0}}"
        if self.kind == "B":
            return f"(B) shape (g1, z*g2) with g2 = {self.g2}"
        return "(C)"


def classify_case(h1: Polynomial, h2i: Polynomial) -> CaseInfo:
    """Classify the pair per the (A)/(B)/(C) trichotomy."""
    # x_i = x_j = 0 kills both equations when every term uses x_i or x_j.
    masks = {mask for p in (h1, h2i) for mask, _, _ in _rows(p)}
    for i, j in combinations(range(4), 2):
        if all(mask & (1 << i | 1 << j) for mask in masks):
            return CaseInfo("A", subspace=(VARIABLES[i], VARIABLES[j]))
    if "z" not in h1.variables():
        rest, g2 = h2i.split("z")
        if not rest and "w" not in g2.variables():
            return CaseInfo("B", g1=h1, g2=g2)
    return CaseInfo("C")


def dolgachev_pair(h1: Polynomial, h2i: Polynomial, action: CStarAction) -> tuple[int, int]:
    """Isotropy orders of the two principal exceptional orbits, ascending.

    Case (A) drops orbits inside the linear subspace, case (B) drops
    orbits inside U = {g1 = z = 0}, case (C) drops the orbit coinciding
    with the singular locus.  Exactly two orbits must survive.
    """
    orbits = exceptional_orbits(h1, h2i, action)
    unresolved = [o for o in orbits if isinstance(o, UnresolvedOrbit)]
    if unresolved:
        raise OrbitError(f"unresolved orbits present: {unresolved[0]}")
    case = classify_case(h1, h2i)
    if case.kind == "A":
        i = VARIABLES.index(case.subspace[0])
        j = VARIABLES.index(case.subspace[1])
        survivors = [o for o in orbits if not (o.point[i] == 0 and o.point[j] == 0)]
    elif case.kind == "B":
        z_index = VARIABLES.index("z")
        survivors = [o for o in orbits if o.point[z_index] != 0]
    else:
        survivors = [o for o in orbits if not o.in_singular_locus]
    if len(survivors) != 2:
        listing = "; ".join(str(o) for o in orbits) or "none"
        raise OrbitError(
            f"expected 2 principal orbits in case ({case.kind}), found "
            f"{len(survivors)} among: {listing}"
        )
    pair = sorted(o.isotropy for o in survivors)
    return (pair[0], pair[1])


# -- Newton polygon split -----------------------------------------------------


class NewtonFace(namedtuple("NewtonFace", "polynomial weights")):
    """One origin-avoiding face: its terms and the face weight system."""

    __slots__ = ()


class NewtonSplit(namedtuple("NewtonSplit", "faces")):
    """The two faces, ordered by ascending face degrees."""

    __slots__ = ()

    def polynomials(self) -> tuple[Polynomial, Polynomial]:
        return (self.faces[0].polynomial, self.faces[1].polynomial)


def _strict_feasible(rows: list[list[int]], nvars: int):
    """Fourier-Motzkin solver for strict inequalities c0 + sum ci ti > 0 in
    integer rows: each pair of opposite bounds on the last variable is
    combined with positive integer multipliers.

    Returns a satisfying point (list of Fractions) or ``None``.
    """
    if nvars == 0:
        return [] if all(row[0] > 0 for row in rows) else None
    lowers = [row for row in rows if row[nvars] > 0]
    uppers = [row for row in rows if row[nvars] < 0]
    combined = [row[:nvars] for row in rows if not row[nvars]]
    for low in lowers:
        for up in uppers:
            a, b = low[nvars], -up[nvars]
            combined.append([b * l + a * u for l, u in zip(low[:nvars], up)])
    inner = _strict_feasible(combined, nvars - 1)
    if inner is None:
        return None
    # Row r bounds the last variable by -(r . (1, inner)) / r[nvars].
    low_vals = [Fraction(-row[0] - _dot(row[1:], inner), row[nvars]) for row in lowers]
    up_vals = [Fraction(-row[0] - _dot(row[1:], inner), row[nvars]) for row in uppers]
    if low_vals and up_vals:
        value = (max(low_vals) + min(up_vals)) / 2
    elif low_vals:
        value = max(low_vals) + 1
    elif up_vals:
        value = min(up_vals) - 1
    else:
        value = Fraction(0)
    return inner + [value]


def _dot(a, b):
    return sum(x * y for x, y in zip(a, b))


def split_newton(h2: Polynomial, h1: Polynomial) -> NewtonSplit:
    """Split h2 along the two faces of its Newton polygon at infinity.

    A subset of the support spans a qualifying face when some positive
    weight vector makes the subset's terms share the top degree, keeps
    every other support point (and the origin) strictly below it, and
    makes h1 homogeneous as well; the last condition is what singles out
    the two faces the weighted-homogeneous pairs live on.  Exactly two
    qualifying faces must exist.
    """
    monos = [exps for _, exps, _ in _rows(h2)]
    if len(monos) != 4:
        raise NewtonStructureError(f"h2 must have exactly 4 terms, found {len(monos)}")
    h1_monos = [exps for _, exps, _ in _rows(h1)]
    if len(h1_monos) < 2:
        raise NewtonStructureError("h1 must have at least 2 terms")
    faces = []
    subsets = [tuple(c) for c in combinations(range(4), 3)] + [(0, 1, 2, 3)]
    for subset in subsets:
        rows = [monos[i] for i in subset]
        rows += [[a - b for a, b in zip(other, h1_monos[0])] for other in h1_monos[1:]]
        solved = _linalg.solve_affine(rows, [1] * len(subset) + [0] * (len(h1_monos) - 1))
        if solved is None:
            continue
        den, u0, basis = solved
        # u = (u0 + sum t_k basis_k) / den with den > 0.  Strict integer
        # constraints: u_i > 0, and u.a' < 1 for off-face support points a'.
        constraints = [[u0[i]] + [vec[i] for vec in basis] for i in range(4)]
        for k in range(4):
            if k not in subset:
                exps = monos[k]
                constraints.append([den - _dot(exps, u0)] + [-_dot(exps, vec) for vec in basis])
        solution = _strict_feasible(constraints, len(basis))
        if solution is None:
            continue
        u = [u0[i] + sum(t * vec[i] for t, vec in zip(solution, basis)) for i in range(4)]
        weights = _linalg.primitive_integer_vector(u)
        d2 = _dot(monos[subset[0]], weights)
        d1 = _dot(h1_monos[0], weights)
        face_poly = _part(h2, [monos[i] for i in subset])
        faces.append(
            (
                (d1, d2, tuple(-wt for wt in weights)),
                NewtonFace(face_poly, WeightSystem(tuple(weights), (d1, d2))),
            )
        )
    if len(faces) != 2:
        raise NewtonStructureError(
            f"expected exactly 2 origin-avoiding faces, found {len(faces)}"
        )
    faces.sort(key=lambda item: item[0])
    return NewtonSplit((faces[0][1], faces[1][1]))
