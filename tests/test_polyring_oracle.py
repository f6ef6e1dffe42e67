"""The packed integer ``Polynomial`` against the frozen ``dict[Monomial,
Fraction]`` kernels of ``_reference_polyring``, on seeded random input.

Some polynomials have a total degree near 4096, where a packed key needs
more than its default 12-bit fields, so results that cross that degree
(directly, through a product, a power or a substitution) and results that
fall back below it are compared too.
"""

import random
from fractions import Fraction

import _reference_polyring as ref

from strangedual.polyring import Monomial, Polynomial, format_poly, parse_poly

#: Exponent sums on both sides of the default field width (2**12).
WIDE_EXPONENTS = (2047, 2048, 4094, 4095, 4096, 4097)


def _exponents(rng, wide):
    exps = [rng.choice((0, 0, 1, 2, 3)) for _ in range(4)]
    if wide:
        exps[rng.randrange(4)] = rng.choice(WIDE_EXPONENTS)
    return Monomial(tuple(exps))


def _table(rng, max_terms=5, wide=False):
    table = {}
    for _ in range(rng.randint(0, max_terms)):
        table[_exponents(rng, wide and rng.randrange(2))] = Fraction(
            rng.choice((0, 1, -1, rng.randint(-9, 9))), rng.choice((1, 1, 2, rng.randint(1, 12)))
        )
    return table


def _pair(table):
    return Polynomial(table), ref.Polynomial(table)


def _same(new, old):
    # Term for term, every coefficient an exact Fraction.
    terms = list(new.terms())
    assert terms == list(old.terms())
    assert all(type(c) is Fraction for _, c in terms)
    assert new.degree() == old.degree() and len(new) == len(old)
    assert new.support() == old.support()
    assert new.variables() == old.variables()
    if old:
        assert new.leading_monomial() == old.leading_monomial()
    text = format_poly(new)
    assert text == ref.format_poly(old)
    assert parse_poly(text) == new and hash(parse_poly(text)) == hash(new)
    assert list(parse_poly(text).terms()) == list(ref.parse_poly(text).terms())


def _coefficients_agree(rng, new, old):
    probes = [m for m, _ in old.terms()] + [_exponents(rng, rng.randrange(2)) for _ in range(3)]
    probes.append(Monomial((1 << 20, 0, 0, 1)))  # past any width used here
    for mono in probes:
        c = new.coefficient(mono)
        assert type(c) is Fraction and c == old.coefficient(mono)


def _point(rng):
    return tuple(
        rng.choice((0, 1, -1, rng.randint(-3, 3), Fraction(rng.randint(-3, 3), rng.randint(1, 4))))
        for _ in range(4)
    )


def _image(rng, index, new_variable):
    kind = rng.randrange(4)
    if kind == 0:
        return {}  # zero
    if kind == 1:
        return {Monomial((0, 0, 0, 0)): Fraction(rng.randint(-3, 3), rng.randint(1, 3))}
    if kind == 2:  # c*x, possibly with a higher power
        exps = [0, 0, 0, 0]
        exps[rng.randrange(4) if new_variable else index] = rng.choice((1, 1, 2))
        return {Monomial(tuple(exps)): Fraction(rng.choice((-2, 1, 3)), rng.randint(1, 3))}
    return _table(rng, max_terms=3)


def test_arithmetic_matches_reference():
    rng = random.Random(20261101)
    for trial in range(300):
        wide = trial % 3 == 0
        p, p_ref = _pair(_table(rng, wide=wide))
        q, q_ref = _pair(_table(rng, wide=wide and rng.randrange(2)))
        _same(p, p_ref)
        _coefficients_agree(rng, p, p_ref)
        _same(p + q, p_ref + q_ref)
        _same(p - q, p_ref - q_ref)
        _same(-p, -p_ref)
        _same(p * q, p_ref * q_ref)
        s = rng.choice((0, 1, -1, 3, Fraction(-2, 3), Fraction(5, 7)))
        _same(p.scale(s), p_ref.scale(s))
        for e in range(3 if wide else 5):
            _same(p**e, p_ref**e)
        assert (p == q) == (p_ref == q_ref)
        back = (p + q) - q
        assert back == p and hash(back) == hash(p)
        for _ in range(3):
            point = _point(rng)
            value = p.evaluate(point)
            assert type(value) is Fraction and value == p_ref.evaluate(point)
        # The term rows that evaluate keeps on p are invisible to == and hash.
        fresh = (p + q) - q
        assert p == fresh and fresh == p and hash(p) == hash(fresh)
        assert (p == q) == (q == p) == (p_ref == q_ref)


def test_substitute_matches_reference():
    rng = random.Random(20261102)
    for trial in range(300):
        # A wide polynomial takes one-term images only: the reference
        # multiplies out a multi-term image to its power term by term.
        wide = trial % 4 == 0
        p, p_ref = _pair(_table(rng, wide=wide))
        tables = [_image(rng, i, new_variable=rng.randrange(2)) for i in range(4)]
        if wide:
            tables = [t if len(t) < 2 else {} for t in tables]
        images = {v: Polynomial(t) for v, t in zip("xyzw", tables)}
        ref_images = {v: ref.Polynomial(t) for v, t in zip("xyzw", tables)}
        _same(p.substitute(images), p_ref.substitute(ref_images))


def test_split_matches_reference():
    # p = p0 + v*p1 with p0 free of v, both halves the term partition of
    # the reference polynomial; a third of the polynomials carry exponents
    # around the 12-bit field width.
    rng = random.Random(20261104)
    for trial in range(300):
        p, p_ref = _pair(_table(rng, wide=trial % 3 == 0))
        for i, var in enumerate("xyzw"):
            p0, p1 = p.split(var)
            assert p0 + Polynomial.variable(var) * p1 == p
            assert var not in p0.variables()
            lowered = {
                Monomial(tuple(e - (k == i) for k, e in enumerate(m.exponents))): c
                for m, c in p_ref.terms()
                if m.exponents[i]
            }
            _same(p0, ref.Polynomial({m: c for m, c in p_ref.terms() if not m.exponents[i]}))
            _same(p1, ref.Polynomial(lowered))


def test_degree_crossing_the_default_width():
    x, y = Polynomial.variable("x"), Polynomial.variable("y")
    x4095 = parse_poly("x^4095")
    x4096 = x4095 * x
    assert x4096 == parse_poly("x^4096") == x**4096
    assert x4096.degree() == 4096 and x4095.degree() == 4095
    assert format_poly(x4096 * parse_poly("1/2*y^4096")) == "1/2*x^4096*y^4096"
    # Falling back below the width gives the table a polynomial of that
    # degree always has.
    for low in (x4096 + y - x4096, (x4096 * y + y).split("x")[0]):
        assert low in (y, Polynomial.zero())
        assert hash(low) in (hash(y), hash(Polynomial.zero()))
    assert parse_poly("x^4096 + x").evaluate((Fraction(1, 2), 0, 0, 0)) == Fraction(1, 2**4096) + Fraction(1, 2)
    assert x4095.coefficient(Monomial((4096, 0, 0, 0))) == 0
    assert x4095.substitute({"x": parse_poly("y^2")}) == parse_poly("y^8190")


def test_jet_matches_reference_partials():
    # The jet against the reference's partial-then-evaluate, at points with
    # zero and non-integral coordinates; a third of the polynomials carry
    # exponents around the 12-bit field width.
    rng = random.Random(20261103)
    for trial in range(300):
        table = _table(rng, wide=trial % 3 == 0)
        p, p_ref = _pair(table)
        for _ in range(3):
            point = _point(rng)
            den, value, partials = p.jet(point)
            assert type(den) is int and den > 0
            assert all(type(v) is int for v in (value, *partials))
            assert Fraction(value, den) == p_ref.evaluate(point) == p.evaluate(point)
            for var, d in zip("xyzw", partials):
                assert Fraction(d, den) == p_ref.partial(var).evaluate(point)
    half, y = Fraction(1, 2), Fraction(-2, 3)
    den, value, partials = parse_poly("x^4097 - 3*x^4094*y").jet((half, y, 0, 5))
    assert Fraction(partials[0], den) == 4097 * half**4096 - 3 * 4094 * half**4093 * y
    assert Fraction(partials[1], den) == -3 * half**4094
    assert partials[2:] == (0, 0)


def test_jet_at_zero_coordinates_matches_reference():
    # Terms that leave the support at a zero coordinate: with exponent 1
    # there (only that partial lives), with exponent 2 or more (nothing
    # lives), and through two zero coordinates (nothing lives), each alone
    # and beside terms that stay, against the reference's partials.
    once, twice, both = "3*x*y^2*w", "2*x^2*z^3", "5/2*x*z*w^3"
    stays = "w^4 - 7/3*y^3*w - y"
    texts = [once, twice, both, f"{once} - {twice} + {both}", f"{once} - {twice} + {both} + {stays}"]
    points = [
        (0, Fraction(-2, 3), 5, 2),
        (0, 3, 0, Fraction(1, 2)),
        (0, 0, 0, -1),
        (Fraction(3, 4), 2, 0, 0),
        (0, 0, 0, 0),
    ]
    lone = 0
    for text in texts:
        p, p_ref = parse_poly(text), ref.parse_poly(text)
        for point in points:
            den, value, partials = p.jet(point)
            assert Fraction(value, den) == p_ref.evaluate(point)
            for var, d in zip("xyzw", partials):
                assert Fraction(d, den) == p_ref.partial(var).evaluate(point)
            lone += text == once and value == 0 and partials[0] != 0
    assert lone == 2  # the x partial of 3*x*y^2*w at the two points where only x is 0
