"""``split_newton`` against a search of a bounded box of integer weights.

The oracle shares no code with the solver.  It tries every primitive
positive weight vector whose coordinates but one lie in [1, BOX] (the last
is fixed by a homogeneity condition of h1), keeps the vectors that make h1
homogeneous, and records the top-degree terms of h2 when there are three
or four of them: each such set is a face, certified by the vectors found
for it.  When the box finds fewer faces than the solver, it is widened
once, to 2 * BOX, before the counts must agree.  ``_certify`` checks the
faces found from their weights alone, so it also covers weights past any
box.
"""

import random
from fractions import Fraction
from itertools import combinations, permutations, product
from math import gcd

import pytest

from strangedual import orbits
from strangedual.cli import main
from strangedual.orbits import NewtonStructureError, split_newton
from strangedual.polyring import Monomial, Polynomial, VARIABLES, parse_poly
from strangedual.series import WeightSystem

BOX = 12


def _dot(a, b):
    return sum(x * y for x, y in zip(a, b))


def _exponents(p):
    return [m.exponents for m in p.support()]


def _face(support, firsts, w):
    """The top-degree exponents of ``support`` under ``w`` when ``w`` gives
    every exponent of ``firsts`` (h1's) one degree and three or four
    exponents share the top, else ``None``."""
    if len({_dot(e, w) for e in firsts}) != 1:
        return None
    degrees = [_dot(e, w) for e in support]
    top = max(degrees)
    if degrees.count(top) < 3:
        return None
    return frozenset(e for e, d in zip(support, degrees) if d == top)


def _box_faces(h2, h1, box):
    """{face (frozenset of exponent tuples): primitive weight vectors}."""
    support, firsts = _exponents(h2), _exponents(h1)
    move = [a - b for a, b in zip(firsts[1], firsts[0])]
    k = next(i for i, v in enumerate(move) if v)
    others = [i for i in range(4) if i != k]
    faces = {}
    for free in product(range(1, box + 1), repeat=3):
        wk, r = divmod(-sum(move[i] * v for i, v in zip(others, free)), move[k])
        if r or wk < 1:
            continue
        w = list(free)
        w.insert(k, wk)
        if gcd(*w) == 1:
            face = _face(support, firsts, w)
            if face is not None:
                faces.setdefault(face, set()).add(tuple(w))
    return faces


def _compare(h2, h1):
    """Assert that the solver and the box agree; return the solver's split
    (``None`` after an error) and its face count."""
    try:
        split = split_newton(h2, h1)
        found = 2
    except NewtonStructureError as exc:
        split, found = None, int(str(exc).rsplit(" ", 1)[1])
    box = _box_faces(h2, h1, BOX)
    if len(box) < found:  # a face whose weights leave the box
        box = _box_faces(h2, h1, 2 * BOX)
    assert len(box) == found, (str(h2), str(h1), found, box)
    if split is None:
        return None, found
    keys = []
    for face in split.faces:
        weights = face.weights.weights
        terms = frozenset(m.exponents for m in face.polynomial.support())
        # The solver's weights certify the face the box found; a face with
        # one vector in the box gets exactly that one.
        assert terms in box, (str(h2), str(h1), box)
        assert _face(_exponents(h2), _exponents(h1), weights) == terms
        if max(weights) <= BOX and len(box[terms]) == 1:
            assert box[terms] == {weights}
        # The face keeps h2's coefficients; the degrees are those of h1 and
        # of the face under the weights.
        assert face.polynomial == Polynomial({Monomial(e): h2.coefficient(Monomial(e)) for e in terms})
        d1 = _dot(next(iter(h1.support())).exponents, weights)
        assert face.weights.degrees == (d1, _dot(next(iter(terms)), weights))
        keys.append((face.weights.degrees, tuple(-w for w in weights)))
    assert keys == sorted(keys)
    return split, found


def test_catalog_pairs_match_the_box(catalog):
    for entry in catalog.entries:
        h1, h2 = entry.virtual_equations
        split, _ = _compare(h2, h1)
        assert [face.weights for face in split.faces] == [p.weights for p in entry.decomposition]
        box = _box_faces(h2, h1, BOX)
        assert sorted(map(len, box.values())) == [1, 1]


def _permuted(p, perm):
    images = {VARIABLES[i]: Polynomial.variable(VARIABLES[j]) for i, j in enumerate(perm)}
    return p.substitute(images)


def test_permuted_catalog_pairs_match_the_box(catalog):
    # Renaming the variables permutes each face's weights the same way.
    rng = random.Random(13)
    for entry in catalog.entries:
        h1, h2 = entry.virtual_equations
        for perm in rng.sample(list(permutations(range(4))), 3):
            split, _ = _compare(_permuted(h2, perm), _permuted(h1, perm))
            expected = set()
            for piece in entry.decomposition:
                weights = [0] * 4
                for i, j in enumerate(perm):
                    weights[j] = piece.weights.weights[i]
                expected.add(WeightSystem(tuple(weights), piece.weights.degrees))
            assert {face.weights for face in split.faces} == expected


def _random_support(rng):
    monos = set()
    while len(monos) < 4:
        exps = tuple(rng.choice((0, 0, 1, 1, 2, 3)) for _ in range(4))
        if any(exps):
            monos.add(Monomial(exps))
    return Polynomial({m: rng.choice((1, -1, 2, -3)) for m in monos})


def test_random_supports_match_the_box():
    rng = random.Random(2027)
    firsts = [parse_poly(t) for t in ("x*y - w^2", "x*y - z*w", "x*y - w^3", "x*z - y^2", "x^2 - y*w")]
    counts = {}
    for _ in range(100):
        _, found = _compare(_random_support(rng), rng.choice(firsts))
        counts[found] = counts.get(found, 0) + 1
    # Zero, one and two faces all occur (70, 26 and 4 times here).
    assert set(counts) == {0, 1, 2}, counts


def test_free_weight_case_counts_three_faces(capsys):
    # h1 = x^2 - y^2 leaves a one-parameter family of weights on two of the
    # three faces, so Fourier-Motzkin substitutes back.
    h1, h2 = parse_poly("x^2-y^2"), parse_poly("x^2+y^2+z^2+w^2")
    assert _compare(h2, h1) == (None, 3)
    # (1, 1, 1, 1) is the one vector of the whole support; each other face
    # takes (a, a, a, b) or (a, a, b, a) for coprime b < a <= BOX.
    box = _box_faces(h2, h1, BOX)
    assert sorted(map(len, box.values())) == [1, 45, 45]
    assert main(["split-newton", "--h1", "x^2-y^2", "x^2+y^2+z^2+w^2"]) == 1
    out, err = capsys.readouterr()
    assert (out, err) == ("", "error: expected exactly 2 origin-avoiding faces, found 3\n")


def _graded(weights, degree):
    """The exponent vectors of weighted degree ``degree``."""
    return [
        e
        for e in product(*(range(degree // w + 1) for w in weights))
        if sum(a * w for a, w in zip(e, weights)) == degree
    ]


def _det3(m):
    (a, b, c), (d, e, f), (g, h, i) = m
    return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)


def _shared_degree_pairs(rng, count):
    """(h2, h1, step): four terms of h2 share a weighted degree (step 0), or
    the fourth sits one below or above it (step -1 or 1); h1 has four terms
    whose differences have rank 3, so it fixes the weight direction."""
    pairs = []
    while len(pairs) < count:
        weights = tuple(rng.randint(1, 3) for _ in range(4))
        degree = rng.randint(4, 9)
        top = [e for e in _graded(weights, degree) if any(e)]
        firsts = _graded(weights, rng.randint(3, 6))
        if len(top) < 4 or len(firsts) < 4:
            continue
        h1 = rng.sample(firsts, 4)
        moves = [[a - b for a, b in zip(e, h1[0])] for e in h1[1:]]
        if not any(_det3([[row[i] for i in cols] for row in moves]) for cols in combinations(range(4), 3)):
            continue
        support = rng.sample(top, 4)
        step = rng.choice((0, 0, -1, 1))
        if step:
            off = [e for e in _graded(weights, degree + step) if any(e) and e not in support]
            if not off:
                continue
            support[3] = rng.choice(off)
        h2 = Polynomial({Monomial(e): rng.choice((1, -1, 2, -3)) for e in support})
        pairs.append((h2, Polynomial({Monomial(e): rng.choice((1, -1)) for e in h1}), step))
    return pairs


def test_shared_degree_supports_match_the_box():
    # Supports at the face boundary.  With the weights fixed by h1, step 0
    # makes the whole support the one face and gives every triple an
    # off-face degree of exactly 1; step -1 leaves one triple a face, and
    # step 1 none.
    seen = {}
    for h2, h1, step in _shared_degree_pairs(random.Random(31), 60):
        _, found = _compare(h2, h1)
        face_sizes = tuple(sorted(map(len, _box_faces(h2, h1, BOX))))
        assert (found, face_sizes) == {0: (1, (4,)), -1: (1, (3,)), 1: (0, ())}[step]
        seen[step] = seen.get(step, 0) + 1
    assert set(seen) == {0, -1, 1}, seen


def _certify(h2, h1, faces):
    """Check each (terms, weight system) of ``faces`` from its weights
    alone, whatever their size: the box decides completeness, this only
    that every face found is a face.  The weights must be primitive and
    positive, the face's terms must share one degree d2 with every other
    term of h2 strictly below it, and h1 must be homogeneous of degree d1."""
    support = _exponents(h2)
    for terms, ws in faces:
        w = ws.weights
        d1, d2 = ws.degrees
        assert min(w) > 0 and gcd(*w) == 1, ws
        assert len(terms) >= 3 and set(terms) <= set(support)
        assert {_dot(e, w) for e in terms} == {d2}
        assert all(_dot(e, w) < d2 for e in support if e not in terms)
        assert {_dot(e, w) for e in _exponents(h1)} == {d1}


def _split_faces(h2, h1):
    split = split_newton(h2, h1)
    faces = []
    for face in split.faces:
        terms = [m.exponents for m in face.polynomial.support()]
        # Each face keeps h2's coefficients.
        assert face.polynomial == Polynomial({Monomial(e): h2.coefficient(Monomial(e)) for e in terms})
        faces.append((terms, face.weights))
    return faces


def test_faces_with_large_weights_are_certified(catalog):
    # Weights past the box's [1, 2 * BOX]: one face of (18, 34, 11, 21),
    # where all three face terms and h1 have degree 108 and z^6*w has 87.
    h1 = parse_poly("x^6 + y*z*w^3")
    h2 = parse_poly("z^6*w^2 - 3*x^3*z^3*w + 2*z^6*w + x*y^2*z^2")
    supports = [tuple(sorted(_exponents(p))) for p in (h2, h1)]
    (face,) = orbits._newton_faces(*supports)
    assert face[1] == WeightSystem((18, 34, 11, 21), (108, 108))
    _certify(h2, h1, [face])
    with pytest.raises(NewtonStructureError, match="found 1$"):
        split_newton(h2, h1)
    # With y*z*w^3 in place of z^6*w there are two faces, the second with
    # weights up to 219.
    h2 = parse_poly("z^6*w^2 - 3*x^3*z^3*w + 2*y*z*w^3 + x*y^2*z^2")
    faces = _split_faces(h2, h1)
    assert [str(ws) for _, ws in faces] == ["18,34,11,21;108,108", "144,136,71,219;864,864"]
    _certify(h2, h1, faces)
    # The catalog pairs and seeded diagonal rescalings of them.
    rng = random.Random(41)
    for entry in catalog.entries:
        h1, h2 = entry.virtual_equations
        _certify(h2, h1, _split_faces(h2, h1))
        for _ in range(10):
            factors = [Fraction(rng.randint(1, 12), rng.randint(1, 12)) * rng.choice((1, -1)) for _ in range(4)]
            scaling = {v: Polynomial.constant(f) * Polynomial.variable(v) for v, f in zip(VARIABLES, factors)}
            g1, g2 = h1.substitute(scaling), h2.substitute(scaling)
            _certify(g2, g1, _split_faces(g2, g1))
