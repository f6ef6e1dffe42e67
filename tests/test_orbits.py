import os
import random
import subprocess
import sys
from fractions import Fraction
from itertools import combinations, product
from math import gcd, lcm, prod
from pathlib import Path

import _reference_orbits as ref_orbits
import pytest

from strangedual.catalog import verify_all
from strangedual.orbits import (
    _rational_group_images,
    _rational_roots,
    CStarAction,
    NewtonStructureError,
    OrbitError,
    OrbitRep,
    StratumError,
    UnresolvedOrbit,
    classify_case,
    dolgachev_pair,
    exceptional_orbits,
    split_newton,
)
from strangedual import orbits as orbits_module
from strangedual.polyring import Monomial, Polynomial, _rows, parse_poly
from strangedual.series import parse_weight_system


def test_isotropy_invariant_along_orbit(catalog):
    # The isotropy of an orbit is the gcd of the weights of the nonzero
    # coordinates of its representative, which the sign images keep.
    for entry in catalog.entries:
        h1 = entry.virtual_equations.first
        for piece in entry.decomposition:
            weights = piece.weights.weights
            for orbit in exceptional_orbits(h1, piece.polynomial, CStarAction(weights)):
                slice_index = min(
                    (i for i in range(4) if orbit.point[i]), key=lambda i: (weights[i], i)
                )
                for image in _rational_group_images(orbit.point, weights, slice_index):
                    assert gcd(*(w for w, v in zip(weights, image) if v)) == orbit.isotropy


# Worked examples (a), (b), (c) of the source data.


def test_example_a_kflat_pair_one():
    h1 = parse_poly("x*y - w^2")
    h2 = parse_poly("-x^2*w + x^2*z + y*z")
    action = CStarAction((2, 4, 3, 3))
    orbits = exceptional_orbits(h1, h2, action)
    summary = {(o.stratum, o.isotropy, o.in_singular_locus) for o in orbits}
    assert summary == {
        (("x",), 2, False),
        (("y",), 4, False),
        (("z",), 3, True),
    }
    assert classify_case(h1, h2).kind == "C"
    assert dolgachev_pair(h1, h2, action) == (2, 4)


def test_example_b_kflat_pair_two():
    h1 = parse_poly("x*y - w^2")
    h2 = parse_poly("x^2*z + y*z + z^2")
    action = CStarAction((2, 4, 4, 3))
    orbits = exceptional_orbits(h1, h2, action)
    assert len(orbits) == 4
    in_u = sorted(o.isotropy for o in orbits if o.point[2] == 0)
    off_u = sorted(o.isotropy for o in orbits if o.point[2] != 0)
    assert in_u == [2, 4]
    assert off_u == [2, 4]
    points = {o.point for o in orbits}
    assert (Fraction(1), Fraction(0), Fraction(-1), Fraction(0)) in points
    assert (Fraction(0), Fraction(1), Fraction(-1), Fraction(0)) in points
    case = classify_case(h1, h2)
    assert case.kind == "B"
    assert case.g2 == parse_poly("x^2 + y + z")
    assert dolgachev_pair(h1, h2, action) == (2, 4)


def test_example_c_l_pair_one():
    h1 = parse_poly("x*y - z*w")
    h2 = parse_poly("-x^2*w + x*w^2 + z^2")
    action = CStarAction((2, 3, 3, 2))
    orbits = exceptional_orbits(h1, h2, action)
    case = classify_case(h1, h2)
    assert case.kind == "A"
    assert case.subspace == ("x", "z")
    in_l = sorted(o.isotropy for o in orbits if o.point[0] == 0 and o.point[2] == 0)
    off_l = sorted(o.isotropy for o in orbits if not (o.point[0] == 0 and o.point[2] == 0))
    assert in_l == [2, 3]
    assert off_l == [2, 2]
    assert (Fraction(1), Fraction(0), Fraction(0), Fraction(1)) in {o.point for o in orbits}
    assert dolgachev_pair(h1, h2, action) == (2, 2)


def test_no_exceptional_orbits_for_coprime_weights():
    # A pair homogeneous for the trivial grading has no stratum with a
    # common weight factor.
    h1 = parse_poly("x*y - w^2")
    h2 = parse_poly("x^2 + y*z + z*w + w^2")
    assert exceptional_orbits(h1, h2, CStarAction((1, 1, 1, 1))) == []


def test_exceptional_orbits_requires_homogeneous_pair():
    with pytest.raises(OrbitError):
        exceptional_orbits(
            parse_poly("x*y - w^2"), parse_poly("x^2*z + y*z"), CStarAction((1, 1, 1, 1))
        )


def test_orbit_representatives_satisfy_equations(catalog):
    for entry in catalog.entries:
        h1 = entry.virtual_equations.first
        for piece in entry.decomposition:
            action = CStarAction(piece.weights.weights)
            for orbit in exceptional_orbits(h1, piece.polynomial, action):
                assert isinstance(orbit, OrbitRep)
                assert h1.evaluate(orbit.point) == 0
                assert piece.polynomial.evaluate(orbit.point) == 0
                nonzero = {
                    name
                    for name, value in zip(("x", "y", "z", "w"), orbit.point)
                    if value != 0
                }
                assert nonzero == set(orbit.stratum)


def _rescaled(p, factors):
    images = {v: Polynomial.constant(f) * Polynomial.variable(v) for v, f in zip("xyzw", factors)}
    return p.substitute(images)


def _outcome(h1, h2i, weights, orbit_list=exceptional_orbits):
    try:
        return orbit_list(h1, h2i, CStarAction(weights))
    except OrbitError as error:
        return type(error).__name__, str(error)


def _elimination_pairs(count, seed):
    """Pairs for weights (2, 2, 2, 1) whose stratum {x,y,z} eliminates y:
    one equation holds y only as a*x^(k-1)*y, next to a random R(x, z)."""
    rng = random.Random(seed)

    def coeff():
        return Fraction(rng.choice((-1, 1)) * rng.randint(1, 6), rng.randint(1, 4))

    pairs = []
    for _ in range(count):
        k, k2 = rng.randint(1, 4), rng.randint(1, 5)
        first = {Monomial((k - 1, 1, 0, 0)): coeff()}
        first.update({Monomial((k - i, 0, i, 0)): coeff() for i in rng.sample(range(k + 1), rng.randint(0, k + 1))})
        if rng.random() < 0.3:
            first[Monomial((k - 1, 0, 0, 2))] = coeff()
        second = {}
        for _ in range(rng.randint(1, 4)):
            j = rng.randint(0, k2)
            i = rng.randint(0, k2 - j)
            second[Monomial((k2 - i - j, j, i, 0))] = coeff()
        pair = [Polynomial(first), Polynomial(second)]
        pairs.append((*pair[:: rng.choice((1, -1))], (2, 2, 2, 1)))
    return pairs


def _one_term_pairs(count, seed):
    """Pairs for weights (2, 2, 2, 1) one of whose equations restricts to
    one term on the two-free stratum {x,y,z}: a monomial in x, y, z next
    to terms that use w.  The pure powers of x, y and z in the other keep
    the strata before {x,y,z} from vanishing."""
    rng = random.Random(seed)

    def coeff():
        return Fraction(rng.choice((-1, 1)) * rng.randint(1, 6), rng.randint(1, 4))

    def graded(degree, least_w):
        # The monomials of weighted degree 2*degree with at least 2*least_w w's.
        return [
            Monomial((a, b, degree - m - a - b, 2 * m))
            for m in range(least_w, degree + 1)
            for a in range(degree - m + 1)
            for b in range(degree - m - a + 1)
        ]

    pairs = []
    for _ in range(count):
        k, k2 = rng.randint(1, 3), rng.randint(1, 3)
        first = {rng.choice(graded(k, 0)[: (k + 1) * (k + 2) // 2]): coeff()}
        first.update({m: coeff() for m in rng.sample(graded(k, 1), rng.randint(1, min(3, k)))})
        second = {m: coeff() for m in rng.sample(graded(k2, 0), rng.randint(0, 3))}
        second.update({Monomial(tuple(k2 * (j == i) for j in range(4))): coeff() for i in range(3)})
        pair = [Polynomial(first), Polynomial(second)]
        pairs.append((*pair[:: rng.choice((1, -1))], (2, 2, 2, 1)))
    return pairs


def test_one_term_ends_a_two_free_stratum():
    # A restricted equation c*m (c != 0) vanishes nowhere on its stratum,
    # also with two free coordinates: neither an elimination error nor an
    # unresolved orbit arises there.
    cases = [
        ("-1/2*y^6 + 2*z^2", "y^12 + 2*z^2*w - 2*w^2", (3, 1, 3, 6)),  # h1 is 2*z^2 on {x,z,w}
        ("1/2*x^3 - 2*x^2*z - 3*z^3 + 3*y^2", "1/2*y^2 + w", (2, 3, 2, 6)),  # h2 is w on {x,z,w}
        ("-2*z^3 + w", "x^3", (2, 6, 2, 6)),  # h1 is -2*z^3 on {x,y,z}
    ]
    outcomes = [_outcome(parse_poly(h1), parse_poly(h2), w) for h1, h2, w in cases]
    assert [list(map(str, got)) for got in outcomes[:2]] == [
        ["stratum={x} point=(1, 0, 0, 0) isotropy=3 singular=yes"],
        ["stratum={x,z} unresolved: 1*z^0 + -4*z^1 + -6*z^3 = 0"],
    ]
    # Past {x,y,z}, h2 = x^3 vanishes on {y,z,w} and h1 leaves y free there.
    assert outcomes[2] == ("StratumError", "system too complex: positive-dimensional solutions on stratum {y,z,w}")
    outcomes = [_outcome(*pair) for pair in _one_term_pairs(200, 17)]
    assert all(isinstance(got, list) for got in outcomes)
    assert all(o.stratum != ("x", "y", "z") for got in outcomes for o in got)


def test_singular_flags_match_fraction_jacobian_rank(catalog):
    # Whole listings (points, isotropy orders, singular flags, residuals)
    # and error texts against the frozen Fraction-point solver, whose flag
    # is the rank of the Fraction Jacobian: the catalog faces, the faces
    # rescaled by factors of height 7 and 12, two inputs with unresolved
    # orbits, the seeded corpus of the orbit golden, pairs that take the
    # elimination with a leading coefficient of either sign and pairs one
    # of whose equations is one term on a two-free stratum.
    catalog_faces = [
        (entry.virtual_equations.first, piece.polynomial, piece.weights.weights)
        for entry in catalog.entries
        for piece in entry.decomposition
    ]
    faces = list(catalog_faces)
    rng = random.Random(41)
    for height, count in ((7, 50), (12, 100)):
        for h1, h2i, weights in rng.choices(catalog_faces, k=count):
            factors = [Fraction(rng.choice((-1, 1)) * rng.randint(1, height), rng.randint(1, height)) for _ in range(4)]
            faces.append((_rescaled(h1, factors), _rescaled(h2i, factors), weights))
    faces.append((parse_poly("x*y + z*w^2 - 2*z^3"), parse_poly("x^2*z^2 + y^2*w^2"), (3, 3, 2, 2)))
    faces.append((parse_poly("x^2+y^2+z^4"), parse_poly("x*z^2+y*w^2"), (2, 2, 1, 1)))
    kinds = set()
    pairs = _weighted_pairs(300, 20261019) + _elimination_pairs(300, 5) + _one_term_pairs(200, 17)
    for h1, h2i, weights in faces + pairs:
        got = _outcome(h1, h2i, weights)
        assert got == _outcome(h1, h2i, weights, ref_orbits.exceptional_orbits), (h1, h2i, weights)
        kinds |= {getattr(o, "in_singular_locus", None) for o in got} if isinstance(got, list) else {got[0]}
    assert kinds == {True, False, None, "StratumError"}


def test_dolgachev_pairs_full_catalog(catalog):
    # Fresh copies of the pair carry no term rows; the orbits, the case and
    # the pair are the same before and after split_newton reads the rows of
    # the same objects, and on the faces it returns.
    for entry in catalog.entries:
        h1, h2 = (parse_poly(str(p)) for p in entry.virtual_equations)
        faces = [parse_poly(str(piece.polynomial)) for piece in entry.decomposition]
        actions = [CStarAction(piece.weights.weights) for piece in entry.decomposition]

        def outcomes(faces):
            return [
                (exceptional_orbits(h1, face, action), classify_case(h1, face), dolgachev_pair(h1, face, action))
                for face, action in zip(faces, actions)
            ]

        before = outcomes(faces)
        split = split_newton(h2, h1)
        assert outcomes(faces) == outcomes(_face_polynomials(split)) == before
        assert [pair for _, _, pair in before] == [tuple(sorted(expected)) for expected in entry.dolgachev]


def test_dolgachev_structural_error():
    # Every exceptional stratum misses the variety, so zero principal
    # orbits survive and the count check trips.
    h1 = parse_poly("x*y - z^2*w^2")
    h2 = parse_poly("x^2 + y^2")
    action = CStarAction((2, 2, 1, 1))
    with pytest.raises(OrbitError, match="expected 2 principal orbits"):
        dolgachev_pair(h1, h2, action)


def test_unresolved_orbit_reported():
    # On the z-w stratum the first equation forces w^2 = 2, which has no
    # rational solution; the orbit is reported, not dropped.
    h1 = parse_poly("x*y + z*w^2 - 2*z^3")
    h2 = parse_poly("x^2*z^2 + y^2*w^2")
    action = CStarAction((3, 3, 2, 2))
    orbits = exceptional_orbits(h1, h2, action)
    unresolved = [o for o in orbits if isinstance(o, UnresolvedOrbit)]
    assert unresolved and unresolved[0].stratum == ("z", "w")
    assert unresolved[0].coefficients == (-2, 0, 1)
    with pytest.raises(OrbitError):
        dolgachev_pair(h1, h2, action)


def test_rational_roots_large_constant_term():
    # The divisor search is bounded by sqrt(n); a linear scan of 10^9 + 7
    # candidates does not finish in the time allowed here.  A linear factor
    # takes its one candidate -a_0/a_1 with no divisor search at all: the
    # sqrt(10^40) divisor scan of 10^40 + 7 would not finish either.
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    cases = (
        ("[10**9 + 7, 0, 1]", "(set(), (1000000007, 0, 1))"),
        ("[10**40 + 7, 10**40 + 9]", f"({{({-(10**40 + 7)}, {10**40 + 9})}}, None)"),
    )
    for coeffs, expected in cases:
        code = f"from strangedual.orbits import _rational_roots; print(_rational_roots({coeffs}))"
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=10
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == expected


def _group_images_by_enumeration(point, weights, slice_index):
    # Walks the whole cyclic group of the slice: O(weight), kept as the oracle.
    order = weights[slice_index]
    images = set()
    for j in range(order):
        signs = []
        for i in range(4):
            e = (j * weights[i]) % order
            if point[i] == 0 or e == 0:
                signs.append(1)
            elif 2 * e == order:
                signs.append(-1)
            else:
                break
        else:
            images.add(tuple(s * v for s, v in zip(signs, point)))
    return images


def test_rational_group_images_match_enumeration():
    rng = random.Random(6)
    # Integer numerators over one positive denominator, as the solver
    # carries its points.
    numerators = (0, 0, 1, -1, 2, -3, 5)
    flips = 0
    for _ in range(300):
        weights = tuple(rng.randint(1, 60) for _ in range(4))
        point = [rng.choice(numerators) for _ in range(4)]
        slice_index = rng.randrange(4)
        point[slice_index] = rng.randint(1, 7)
        point = tuple(point)
        images = _rational_group_images(point, weights, slice_index)
        assert images == _group_images_by_enumeration(point, weights, slice_index)
        flips += len(images) == 2
    assert flips > 30


def _times_linear(coeffs, p, q):
    # coeffs (constant term first) times q*t - p.
    out = [0] * (len(coeffs) + 1)
    for i, c in enumerate(coeffs):
        out[i] -= p * c
        out[i + 1] += q * c
    return out


def test_rational_roots_recover_known_factors():
    rng = random.Random(7)
    for _ in range(100):
        # A primitive quadratic with negative discriminant has no real root.
        while True:
            a, b, c = rng.randint(1, 9), rng.randint(-9, 9), rng.randint(1, 9)
            if b * b < 4 * a * c and gcd(a, b, c) == 1:
                break
        residual = (c, b, a) if rng.random() < 0.8 else None
        coeffs = list(residual or (1,))
        roots = set()
        for _ in range(rng.randint(0 if residual else 1, 4)):
            q = rng.randint(1, 12)
            p = rng.choice((1, -1)) * rng.randint(1, 12)
            coeffs = _times_linear(coeffs, p, q)
            roots.add((p // gcd(p, q), q // gcd(p, q)))
        coeffs = [0] * rng.randint(0, 2) + coeffs  # a factor t^k
        scale = rng.choice((1, -1)) * rng.randint(1, 5)
        rng.randint(1, 5)  # the draw of a denominator, kept so the seeded sequence stays
        found, rest = _rational_roots([scale * v for v in coeffs])
        assert found == roots
        if rest is not None and scale < 0:
            rest = tuple(-v for v in rest)
        assert rest == residual


def test_rational_roots_match_reference(monkeypatch):
    # Seeded products of linear factors q*t - p (repeated roots, leads of
    # either sign), a factor t^k and a rootless residual, under an integer
    # scale of either sign, against the frozen divisor scan: equal root
    # sets and residuals, and every root found was tested through
    # _uni_eval, wrapped where _rational_roots looks it up.
    tried = []

    def counted(coeffs, p, q):
        tried.append((p, q))
        return uni_eval(coeffs, p, q)

    uni_eval = orbits_module._uni_eval
    monkeypatch.setattr(orbits_module, "_uni_eval", counted)
    rng = random.Random(20261020)
    linear_only = residuals = 0
    for _ in range(300):
        coeffs = [1]
        if rng.random() < 0.4:  # a quadratic, most often rootless
            sign = rng.choice((1, -1))
            coeffs = [sign * rng.randint(1, 9), sign * rng.randint(-3, 3), sign * rng.randint(1, 9)]
        for _ in range(rng.randint(0, 4)):
            p = rng.choice((1, -1)) * rng.randint(1, 15)
            q = rng.choice((1, -1)) * rng.randint(1, 15)
            coeffs = _times_linear(coeffs, p, q)
        if len(coeffs) == 1:
            continue
        linear_only += len(coeffs) == 2
        coeffs = [0] * rng.randint(0, 2) + coeffs
        scale = rng.choice((1, -1)) * rng.randint(1, 6)
        rng.randint(1, 6)  # the draw of a denominator, kept so the seeded sequence stays
        coeffs = [scale * c for c in coeffs]
        tried.clear()
        found, rest = _rational_roots(coeffs)
        expected, expected_rest = ref_orbits.rational_roots(coeffs)
        assert {Fraction(p, q) for p, q in found} == expected
        assert all(q > 0 and gcd(p, q) == 1 for p, q in found)
        assert rest == expected_rest
        assert set(found) <= set(tried)
        residuals += rest is not None
    assert linear_only > 10 and residuals > 30


def test_classify_case_a_matches_substitution():
    # Case (A) holds exactly when setting some x_i = x_j = 0 by substitution
    # kills both equations; the classifier reads it off the exponents.
    rng = random.Random(20261020)
    hits = 0
    for _ in range(200):
        h1, h2 = (
            Polynomial(
                {
                    Monomial(tuple(rng.choice((0, 0, 1, 2)) for _ in range(4))): rng.randint(1, 3)
                    for _ in range(rng.randint(1, 4))
                }
            )
            for _ in range(2)
        )
        expected = None
        for i, j in combinations("xyzw", 2):
            sub = {i: Polynomial.zero(), j: Polynomial.zero()}
            if h1.substitute(sub).is_zero() and h2.substitute(sub).is_zero():
                expected = (i, j)
                break
        case = classify_case(h1, h2)
        assert (case.kind == "A") == (expected is not None), (h1, h2)
        if expected is not None:
            hits += 1
            assert case.subspace == expected
    assert 20 < hits < 180


def test_orbit_report_format():
    h1 = parse_poly("x*y - w^2")
    h2 = parse_poly("-x^2*w + x^2*z + y*z")
    orbits = exceptional_orbits(h1, h2, CStarAction((2, 4, 3, 3)))
    rendered = {str(o) for o in orbits}
    assert "stratum={z} point=(0, 0, 1, 0) isotropy=3 singular=yes" in rendered


# Newton splits.


def _face_polynomials(split):
    return tuple(face.polynomial for face in split.faces)


def test_split_newton_m_series():
    split = split_newton(parse_poly("-y*z + x*w + z^3 + w^2"), parse_poly("x*y - w^2"))
    assert _face_polynomials(split) == (
        parse_poly("x*w + z^3 + w^2"),
        parse_poly("z^3 + w^2 - y*z"),
    )
    assert split.faces[0].weights == parse_weight_system("3,3,2,3;6,6")
    assert split.faces[1].weights == parse_weight_system("2,4,2,3;6,6")


def test_split_newton_jprime_and_i():
    split = split_newton(parse_poly("-x^2*z + y*w + z^2 + x*w^2"), parse_poly("x*y - w^2"))
    assert _face_polynomials(split) == (
        parse_poly("-x^2*z + z^2 + x*w^2"),
        parse_poly("z^2 + x*w^2 + y*w"),
    )
    split = split_newton(parse_poly("-x*w + y*z + z^2 + x*z"), parse_poly("x*y - w^3"))
    assert _face_polynomials(split) == (
        parse_poly("-x*w + y*z + x*z"),
        parse_poly("y*z + x*z + z^2"),
    )


def test_split_newton_catalog(catalog):
    for entry in catalog.entries:
        split = split_newton(entry.virtual_equations.second, entry.virtual_equations.first)
        for face, piece in zip(split.faces, entry.decomposition):
            assert face.polynomial == piece.polynomial
            assert face.weights == piece.weights


def test_split_newton_requires_four_terms():
    with pytest.raises(NewtonStructureError):
        split_newton(parse_poly("x*w + z^2"), parse_poly("x*y - w^2"))


def test_split_newton_structural_error():
    # Support living on a single hyperplane together with h1 gives one
    # face, not two.
    with pytest.raises(NewtonStructureError):
        split_newton(
            parse_poly("x^2 + x*y + y^2 + w^2"), parse_poly("x*y - w^2")
        )


# The Newton face search is cached per pair of supports.


def _cut(h2, exps):
    # The terms of h2 with these exponents, built term by term.
    return Polynomial({Monomial(e): h2.coefficient(Monomial(e)) for e in exps})


def test_split_newton_cache_keeps_each_calls_coefficients():
    # One support, two sets of coefficients, split back to back: each face
    # carries its own h2's terms, never those of the split cached before it.
    h1 = parse_poly("x*y - w^2")
    h2s = [parse_poly("-y*z + x*w + z^3 + w^2"), parse_poly("5*y*z - 1/3*x*w + 7*z^3 - 2*w^2")]
    splits = [split_newton(h2, h1) for h2 in h2s]
    assert [f.weights for f in splits[0].faces] == [f.weights for f in splits[1].faces]
    for h2, split in zip(h2s, splits):
        for face in split.faces:
            assert face.polynomial == _cut(h2, [m.exponents for m in face.polynomial.support()])
    assert _face_polynomials(splits[1]) == (parse_poly("-1/3*x*w + 7*z^3 - 2*w^2"), parse_poly("7*z^3 - 2*w^2 + 5*y*z"))


def test_split_newton_cache_ignores_term_order():
    texts = [("-x*w + y*z + z^2 + x*z", "x*y - w^3"), ("x*z + z^2 - x*w + y*z", "-w^3 + x*y")]
    pairs = [tuple(map(parse_poly, t)) for t in texts]
    # Equal pairs whose terms are kept in different orders.
    assert pairs[0] == pairs[1]
    for p, q in zip(*pairs):
        assert [e for _, e, _ in _rows(p)] != [e for _, e, _ in _rows(q)]
    first = split_newton(*pairs[0])
    hits = orbits_module._newton_plan.cache_info().hits
    assert split_newton(*pairs[1]) == first
    assert orbits_module._newton_plan.cache_info().hits == hits + 1


def test_split_newton_errors_are_not_cached():
    info = orbits_module._newton_plan.cache_info
    assert info().maxsize == 256
    h2, h1 = parse_poly("x^2 + x*y + y^2 + w^2"), parse_poly("x*y - w^2")
    size = info().currsize
    texts = []
    for _ in range(2):
        with pytest.raises(NewtonStructureError) as caught:
            split_newton(h2, h1)
        texts.append(str(caught.value))
    assert texts == ["expected exactly 2 origin-avoiding faces, found 1"] * 2
    assert info().currsize == size


def test_second_verify_all_searches_no_newton_face(catalog):
    # The Newton check of verify_all plans each entry's pair of supports;
    # a second pass over the catalog finds every plan in the cache.
    info = orbits_module._newton_plan.cache_info
    verify_all(catalog)
    before = info()
    assert verify_all(catalog).ok
    assert (info().hits - before.hits, info().misses) == (len(catalog.entries), before.misses)


def test_split_newton_rescaled_catalog_matches_uncached_search(catalog):
    # Diagonal rescalings keep the supports, so all 20 of an entry share one
    # cache entry; each split must be the uncached search's faces cut from
    # its own coefficients.
    rng = random.Random(5)
    search = orbits_module._newton_plan.__wrapped__
    for entry in catalog.entries:
        h1, h2 = entry.virtual_equations
        for _ in range(20):
            factors = [Fraction(rng.randint(1, 12), rng.randint(1, 12)) * rng.choice((1, -1)) for _ in range(4)]
            scaling = {v: Polynomial.constant(f) * Polynomial.variable(v) for v, f in zip("xyzw", factors)}
            g1, g2 = h1.substitute(scaling), h2.substitute(scaling)
            supports = [tuple(sorted(m.exponents for m in p.support())) for p in (g2, g1)]
            expected = [(_cut(g2, exps), weights) for exps, weights in search(*supports)]
            assert [tuple(face) for face in split_newton(g2, g1).faces] == expected


# The orbit solver is planned per weight system and pair of supports.


def test_orbit_plan_keeps_each_calls_points():
    # One support, two rescalings, solved back to back: the second call
    # hits the plan and still gets the points of its own coefficients.
    h1, h2 = parse_poly("x^2 - 4*y^2 + z*w^3"), parse_poly("x*z^2 + y*w^2")
    info = orbits_module._orbit_plan.cache_info
    listings = []
    for factors in ((1, 1, 1, 1), (Fraction(3, 2), Fraction(-5, 7), 2, Fraction(1, 3))):
        g1, g2 = _rescaled(h1, factors), _rescaled(h2, factors)
        hits = info().hits
        listings.append(exceptional_orbits(g1, g2, CStarAction((2, 2, 1, 1))))
        assert listings[-1] == ref_orbits.exceptional_orbits(g1, g2, CStarAction((2, 2, 1, 1)))
    assert info().hits == hits + 1
    points = [{o.point for o in listing if o.stratum == ("x", "y")} for listing in listings]
    assert points[0] == {(1, Fraction(1, 2), 0, 0), (1, Fraction(-1, 2), 0, 0)}
    assert points[1] == {(1, Fraction(21, 20), 0, 0), (1, Fraction(-21, 20), 0, 0)}


@pytest.mark.parametrize(
    "h1, h2, message",
    [
        ("x*y - w^2", "x^2*z + y*z", "second equation is not quasi-homogeneous: not quasi-homogeneous: x^2*z has weighted degree 3 but y*z has 2"),
        ("x^2049 + y", "x", "first equation degree 2049 exceeds limit 2048"),
        # Both equations fail: the first equation's checks come first, and
        # each equation's degree comes before its quasi-homogeneity.
        ("x + y^2", "x^2049 + y", "first equation is not quasi-homogeneous: not quasi-homogeneous: y^2 has weighted degree 2 but x has 1"),
        ("x^2049 + y^2", "x + y^2", "first equation degree 2049 exceeds limit 2048"),
        ("x + y", "x^2049 + y^2", "second equation degree 2049 exceeds limit 2048"),
    ],
)
def test_orbit_plan_errors_are_not_cached(h1, h2, message):
    info = orbits_module._orbit_plan.cache_info
    assert info().maxsize == 256
    size = info().currsize
    for _ in range(2):
        with pytest.raises(OrbitError) as caught:
            exceptional_orbits(parse_poly(h1), parse_poly(h2), CStarAction((1, 1, 1, 1)))
        assert str(caught.value) == message
        assert info().currsize == size


def test_second_verify_all_plans_no_orbit_solve(catalog):
    # The Dolgachev check solves each of the 16 catalog faces; a second
    # pass over the catalog finds every plan and case verdict cached.
    plan, case = orbits_module._orbit_plan.cache_info, orbits_module._case.cache_info
    verify_all(catalog)
    before = plan(), case()
    assert verify_all(catalog).ok
    faces = sum(len(entry.decomposition) for entry in catalog.entries)
    assert (plan().hits - before[0].hits, plan().misses) == (faces, before[0].misses)
    assert (case().hits - before[1].hits, case().misses) == (faces, before[1].misses)


def _family(rng, weights, count):
    """``count`` pairs for ``weights`` on one support written in one term
    order: a seeded weighted-homogeneous pair, then rescalings of it and
    fresh coefficients in turn."""
    while True:
        top = max(weights)
        pair = [_homogeneous(rng, weights, rng.choice((top, 2 * top, lcm(*weights)))) for _ in range(2)]
        if None not in pair:
            break
    supports = [[m.exponents for m, _ in p.terms()] for p in pair]
    members = []
    for n in range(count):
        factors = [Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 9)) for _ in range(4)]
        members.append(tuple(
            Polynomial({
                Monomial(e): (p.coefficient(Monomial(e)) * prod(f**k for f, k in zip(factors, e)))
                if n % 2 else Fraction(rng.choice((-1, 1)) * rng.randint(1, 5), rng.randint(1, 3))
                for e in support
            })
            for p, support in zip(pair, supports)
        ))
    return [(*members[n], weights) for n in range(count)]


def test_planned_families_match_reference():
    # Families that share one support and vary the coefficients, solved
    # back to back so that every member after the first hits the plan:
    # the listings and error texts of the frozen Fraction-point solver.
    rng = random.Random(20261021)
    info = orbits_module._orbit_plan.cache_info
    hits, expected_hits, kinds = info().hits, 0, set()
    for _ in range(60):
        weights = tuple(rng.choice((1, 2, 2, 3, 4, 6)) for _ in range(4))
        family = _family(rng, weights, 6)
        expected_hits += len(family) - 1
        for h1, h2i, weights in family:
            got = _outcome(h1, h2i, weights)
            assert got == _outcome(h1, h2i, weights, ref_orbits.exceptional_orbits), (h1, h2i, weights)
            kinds |= {type(o).__name__ for o in got} if isinstance(got, list) else {got[0]}
    assert info().hits - hits >= expected_hits
    assert kinds == {"OrbitRep", "UnresolvedOrbit", "StratumError"}


def test_planned_strata_sum_rows_that_share_a_key():
    # Rows that differ only in the slice exponent share a free-exponent key
    # and are summed on the stratum; for some members of a family their
    # coefficients cancel.  Such rows cannot both lie in one quasi-homogeneous
    # equation, so the planned strata are solved directly, against the
    # frozen solver's restriction to the slice.
    weights = (2, 2, 2, 1)
    rng = random.Random(29)
    cancelled = 0
    for _ in range(40):
        supports, twins = [], []
        for _ in range(2):
            support = sorted({tuple(rng.randint(0, 2) * (i < 3) for i in range(4)) for _ in range(rng.randint(1, 3))})
            pairs = []
            for a, exps in enumerate(list(support)):
                # The same free exponents at a higher exponent of x, y or z,
                # the slices of the strata of these weights.
                s = rng.randrange(3)
                twin = tuple(e + (i == s) * rng.randint(1, 2) for i, e in enumerate(exps))
                if twin not in support:
                    pairs.append((a, len(support)))
                    support.append(twin)
            support.append((0, 0, 0, rng.randint(1, 2)))  # a row outside every stratum
            supports.append(support)
            twins.append(pairs)
        strata = orbits_module._strata(weights, tuple(map(tuple, supports)))
        for _ in range(4):
            coeffs = [[rng.choice((-2, -1, 1, 2)) for _ in support] for support in supports]
            for c, pairs in zip(coeffs, twins):
                for a, b in pairs:
                    if rng.random() < 0.4:
                        c[b] = -c[a]
                        cancelled += 1
            equations = [
                ref_orbits.ref.Polynomial({ref_orbits.ref.Monomial(e): Fraction(k) for e, k in zip(support, c)})
                for support, c in zip(supports, coeffs)
            ]
            for planned in strata:
                stratum, slice_index = planned[0], planned[3]
                try:
                    den, points, unresolved = orbits_module._solve_stratum(coeffs, planned)
                    got = {tuple(Fraction(n, den) for n in p) for p in points}, unresolved
                except StratumError as error:
                    got = str(error)
                try:
                    points, unresolved = ref_orbits.solve_stratum(*equations, stratum, slice_index)
                    expected = set(points), unresolved
                except StratumError as error:
                    expected = str(error)
                assert got == expected, (supports, coeffs, stratum)
    assert cancelled > 20


@pytest.mark.parametrize(
    "h1, h2, weights, message",
    [
        ("3*x", "x", (2, 3, 6, 4), "both equations vanish on stratum {y,z}"),
        ("2*z - 2*w", "-2*x", (6, 3, 3, 3), "positive-dimensional solutions on stratum {y,z,w}"),
        ("-2*z^3 + x^3 + w", "y^2 - z^6", (2, 6, 2, 6), "no constant-coefficient linear variable on stratum {x,y,z}"),
        ("1/3*z - 3/2*w", "1/2*w^3 + x", (6, 4, 2, 2), "stratum {x,y,z,w} has 3 free coordinates"),
        # Both vanish on the x-z plane, whose weights share a factor.
        ("y*w", "y^2 + w^2", (2, 3, 2, 3), "both equations vanish on stratum {x,z}"),
        # All-even weights make the whole space an exceptional stratum.
        ("x*y - w^2", "x^2*z + y^2*z + w^3", (2, 2, 2, 2), "stratum {x,y,z,w} has 3 free coordinates"),
    ],
)
def test_stratum_error_texts(h1, h2, weights, message):
    with pytest.raises(StratumError) as caught:
        exceptional_orbits(parse_poly(h1), parse_poly(h2), CStarAction(weights))
    assert str(caught.value) == f"system too complex: {message}"


# Orbit golden: the listing (or error text) of every catalog face and of a
# seeded corpus of weighted-homogeneous pairs, byte for byte.


def _homogeneous(rng, weights, degree):
    """1-3 random terms of weighted degree ``degree``, plus each pure power
    of that degree with probability 1/2; ``None`` if there is no term."""
    exps = [
        e
        for e in product(*(range(degree // w + 1) for w in weights))
        if sum(a * w for a, w in zip(e, weights)) == degree
    ]
    if not exps:
        return None
    chosen = rng.sample(exps, min(len(exps), rng.randint(1, 3)))
    chosen += [e for e in exps if sum(e) == max(e) and rng.random() < 0.5]
    return Polynomial(
        {
            Monomial(e): Fraction(rng.choice((1, -1)) * rng.randint(1, 3), rng.randint(1, 2))
            for e in chosen
        }
    )


def _weighted_pairs(count, seed):
    rng = random.Random(seed)
    pairs = []
    while len(pairs) < count:
        weights = tuple(rng.choice((1, 2, 2, 3, 3, 4, 6)) for _ in range(4))
        top = max(weights)
        degrees = (top, top + 1, 2 * top, lcm(*weights))
        h1, h2 = (_homogeneous(rng, weights, rng.choice(degrees)) for _ in range(2))
        if h1 is not None and h2 is not None:
            pairs.append((h1, h2, weights))
    return pairs


def _orbit_line(h1, h2, weights):
    head = f"{h1} ; {h2} ; {','.join(map(str, weights))} ->"
    try:
        orbits = exceptional_orbits(h1, h2, CStarAction(weights))
    except OrbitError as error:
        return f"{head} {type(error).__name__}: {error}"
    listing = "; ".join(map(str, orbits)) or "none"
    return f"{head} {listing} | case {classify_case(h1, h2)}"


def test_orbit_listing_matches_golden(catalog):
    inputs = [
        (entry.virtual_equations.first, piece.polynomial, piece.weights.weights)
        for entry in catalog.entries
        for piece in entry.decomposition
    ]
    inputs += _weighted_pairs(300, 20261019)
    lines = "".join(_orbit_line(*pair) + "\n" for pair in inputs)
    assert lines == (Path(__file__).parent / "golden" / "orbits.txt").read_text(encoding="utf-8")
