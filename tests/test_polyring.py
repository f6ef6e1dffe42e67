import os
import random
import re
import subprocess
import sys
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import pytest

from strangedual.polyring import (
    Monomial,
    Polynomial,
    PolynomialError,
    PolySyntaxError,
    QuasiFailure,
    ZeroPolynomialError,
    format_poly,
    parse_poly,
    parse_poly_terms,
    quasi_degree,
)

X = Polynomial.variable("x")
Y = Polynomial.variable("y")
Z = Polynomial.variable("z")
W = Polynomial.variable("w")


def test_mul_identity():
    p = parse_poly("x*y + w^2")
    assert p * Polynomial.one() == p


def test_sub_cancellation():
    assert parse_poly("x*y + w^2") - parse_poly("x*y") == parse_poly("w^2")


def test_virtual_equation_assembly():
    # h of the Q-series virtual singularity, assembled as x*c + a*b.
    c = parse_poly("-x^2*z + z^2 + x*w^2")
    assembled = X * c + W * parse_poly("w^2")
    assert assembled == parse_poly("-x^3*z + x*z^2 + x^2*w^2 + w^3")


def test_substitute_case_a():
    images = {"x": "x^2*w", "y": "y^2*w", "z": "z", "w": "x*y*w"}
    sub = {name: parse_poly(text) for name, text in images.items()}
    p = parse_poly("x^3*w + y*w + z^2 + x*w^2")
    assert p.substitute(sub) == parse_poly("x^7*y*w^4 + x*y^3*w^2 + z^2 + x^4*y^2*w^3")


def test_substitute_identity():
    p = parse_poly("-x^3*z + x*z^2 + x^2*w^2 + w^3 - 2*y")
    assert p.substitute({}) == p
    assert p.substitute({v: Polynomial.variable(v) for v in "xyzw"}) == p


def test_substitute_unknown_variable():
    with pytest.raises(PolynomialError, match="^unknown variable 'q'$"):
        parse_poly("x + y").substitute({"x": Y, "q": X})


def test_substitute_shift():
    # w -> w + x^2 on f - xzw for the Q-series cusp.
    f = parse_poly("w^3 + x^4*w + x*z^2 - 2*x^2*w^2")
    cusp = f - parse_poly("x*z*w")
    moved = cusp.substitute({"w": parse_poly("w + x^2")})
    expected = parse_poly("w^3 + x^2*w^2 + x*z^2 - x^3*z") - parse_poly("x*z*w")
    assert moved == expected


def test_quasi_degree_values():
    assert quasi_degree(parse_poly("x*y + w^2"), (2, 6, 5, 4)) == 8
    assert quasi_degree(parse_poly("-x^2*w + z^2 + x*w^2"), (2, 2, 3, 2)) == 6


def test_quasi_degree_failure_witnesses():
    verdict = quasi_degree(parse_poly("x + y"), (1, 2, 1, 1))
    assert isinstance(verdict, QuasiFailure)
    degrees = {verdict.degree_a, verdict.degree_b}
    assert degrees == {1, 2}
    # The leading term, then the first term in canonical order that differs.
    verdict = quasi_degree(parse_poly("z^2 + x*w + y^3 - 2*z*w"), (2, 1, 2, 2))
    assert str(verdict) == "not quasi-homogeneous: y^3 has weighted degree 3 but x*w has 4"


def test_quasi_degree_rejects_zero():
    with pytest.raises(ZeroPolynomialError):
        quasi_degree(Polynomial.zero(), (1, 1, 1, 1))


def test_parse_basic():
    p = parse_poly("x*y + w^2")
    assert p.coefficient(Monomial((1, 1, 0, 0))) == 1
    assert p.coefficient(Monomial((0, 0, 0, 2))) == 1
    assert len(p) == 2


def test_parse_signed_coefficient():
    p = parse_poly("-2*x^2*y^2*w^2")
    assert len(p) == 1
    assert p.coefficient(Monomial((2, 2, 0, 2))) == -2


def test_parse_rational_coefficient():
    p = parse_poly("1/2*x - 3/4")
    assert p.coefficient(Monomial((1, 0, 0, 0))) == Fraction(1, 2)
    assert p.coefficient(Monomial((0, 0, 0, 0))) == Fraction(-3, 4)


def test_parse_uppercase_normalised():
    assert parse_poly("X^3*W + Y*W + Z^2 + X*W^2") == parse_poly("x^3*w + y*w + z^2 + x*w^2")


def test_parse_error_offset():
    with pytest.raises(PolySyntaxError) as err:
        parse_poly("x^^2")
    assert err.value.offset == 3


def test_parse_reads_unicode_digits_and_counts_characters():
    # Any script's decimal digits and Unicode spaces are read; offsets count
    # characters, not UTF-8 bytes (U+3000 is three bytes).
    assert parse_poly("x^\u0663") == parse_poly("x^3")
    with pytest.raises(PolySyntaxError) as err:
        parse_poly("\u3000x^^2")
    assert err.value.offset == 4


def test_parse_error_unknown_variable():
    with pytest.raises(PolySyntaxError):
        parse_poly("x + q^2")


def test_parse_term_order_preserved():
    terms = parse_poly_terms("x*w^2 + z^2 + y*z + x^2*z")
    assert [str(t) for t in terms] == ["x*w^2", "z^2", "y*z", "x^2*z"]


def test_format_zero():
    assert format_poly(Polynomial.zero()) == "0"


def test_format_canonical_order():
    p = parse_poly("w^3 + x^2*w^2 + x*z^2 - x^3*z")
    assert format_poly(p) == "-x^3*z + x^2*w^2 + x*z^2 + w^3"


def _random_poly(rng, max_terms=4, max_exp=3):
    table = {}
    for _ in range(rng.randint(0, max_terms)):
        mono = Monomial(tuple(rng.randint(0, max_exp) for _ in range(4)))
        table[mono] = table.get(mono, 0) + Fraction(rng.randint(-4, 4), rng.randint(1, 3))
    return Polynomial(table)


def _random_substitution(rng):
    return {v: _random_poly(rng, max_terms=2, max_exp=2) for v in "xyzw"}


def test_ring_axioms_random():
    rng = random.Random(20260808)
    for _ in range(400):
        p, q, r = (_random_poly(rng) for _ in range(3))
        assert (p + q) + r == p + (q + r)
        assert p + q == q + p
        assert p * q == q * p
        assert (p * q) * r == p * (q * r)
        assert p * (q + r) == p * q + p * r
        assert p - p == Polynomial.zero()


def test_substitute_is_ring_homomorphism():
    rng = random.Random(8)
    for _ in range(120):
        p = _random_poly(rng, max_terms=3, max_exp=2)
        q = _random_poly(rng, max_terms=3, max_exp=2)
        sub = _random_substitution(rng)
        assert (p * q).substitute(sub) == p.substitute(sub) * q.substitute(sub)
        assert (p + q).substitute(sub) == p.substitute(sub) + q.substitute(sub)


def test_quasi_degree_of_square():
    rng = random.Random(99)
    weights = (2, 6, 5, 4)
    for _ in range(60):
        d = rng.randint(1, 12)
        table = {}
        for _ in range(rng.randint(1, 4)):
            # Random monomial of weighted degree d, built greedily.
            exps = [0, 0, 0, 0]
            remaining = d
            order = rng.sample(range(4), 4)
            for i in order[:-1]:
                if remaining >= weights[i]:
                    e = rng.randint(0, remaining // weights[i])
                    exps[i] = e
                    remaining -= e * weights[i]
            last = order[-1]
            if remaining % weights[last]:
                continue
            exps[last] = remaining // weights[last]
            table[Monomial(tuple(exps))] = 1
        if not table:
            continue
        p = Polynomial(table)
        assert quasi_degree(p, weights) == d
        assert quasi_degree(p * p, weights) == 2 * d


def test_format_parse_roundtrip_random():
    rng = random.Random(4711)
    for _ in range(300):
        p = _random_poly(rng)
        text = format_poly(p)
        assert parse_poly(text) == p
        assert format_poly(parse_poly(text)) == text


def test_split():
    p = parse_poly("x^2*w + 3*y*z + 1/2*z^2")
    assert p.split("z") == (parse_poly("x^2*w"), parse_poly("3*y + 1/2*z"))
    assert p.split("x") == (parse_poly("3*y*z + 1/2*z^2"), parse_poly("x*w"))
    assert p.split("w") == (parse_poly("3*y*z + 1/2*z^2"), parse_poly("x^2"))
    assert Polynomial.zero().split("y") == (Polynomial.zero(), Polynomial.zero())


def test_evaluate():
    p = parse_poly("x*y - w^2")
    assert p.evaluate((1, 1, 0, 1)) == 0
    assert p.evaluate((2, 3, 0, 1)) == 5


@pytest.mark.parametrize("value", [0.1, "1/2", Decimal("0.5"), 1 + 0j], ids=["float", "str", "Decimal", "complex"])
@pytest.mark.parametrize(
    "use",
    [
        lambda v: Polynomial({Monomial((1, 0, 0, 0)): v}),
        Polynomial.constant,
        X.scale,
        lambda v: parse_poly("x + y").evaluate((v, 1, 0, 0)),
    ],
    ids=["constructor", "constant", "scale", "evaluate"],
)
def test_inexact_values_are_refused(use, value):
    # A coefficient or a point is an int or a Fraction; nothing is rounded.
    with pytest.raises(PolynomialError, match=f"int or Fraction, got {re.escape(repr(value))}$"):
        use(value)
    # What operator.index takes is an exact integer.
    assert use(True) == use(1)


# -- reference loops ------------------------------------------------------------
# The kernels build one table per result, share image powers and stop
# squaring at the top bit; these loops are the plain definitions they must
# agree with exactly.


def _naive_mul(p, q):
    table = {}
    for m1, c1 in p.terms():
        for m2, c2 in q.terms():
            mono = Monomial(tuple(a + b for a, b in zip(m1.exponents, m2.exponents)))
            table[mono] = table.get(mono, 0) + c1 * c2
    return Polynomial(table)


def _naive_pow(p, e):
    result = Polynomial.one()
    for _ in range(e):
        result = result * p
    return result


def _naive_substitute(p, images):
    result = Polynomial.zero()
    for mono, coeff in p.terms():
        term = Polynomial.constant(coeff)
        for image, e in zip(images, mono.exponents):
            term = term * _naive_pow(image, e)
        result = result + term
    return result


def _mixed_image(rng, index):
    kind = rng.randrange(5)
    if kind == 0:
        return _random_poly(rng, max_terms=3, max_exp=2)  # general
    if kind == 1:
        mono = Monomial(tuple(rng.randint(0, 2) for _ in range(4)))
        return Polynomial({mono: Fraction(rng.choice((-3, -1, 2, 5)), rng.randint(1, 3))})
    if kind == 2:
        return Polynomial.constant(Fraction(rng.randint(-3, 3), rng.randint(1, 2)))
    if kind == 3:
        return Polynomial.zero()
    return Polynomial.variable("xyzw"[index])  # identity


def test_kernels_match_reference_loops_random():
    rng = random.Random(20261018)
    for _ in range(150):
        p = _random_poly(rng, max_terms=5, max_exp=3)
        q = _random_poly(rng, max_terms=5, max_exp=3)
        assert p * q == _naive_mul(p, q)
        for e in range(7):
            assert p ** e == _naive_pow(p, e)
        images = tuple(_mixed_image(rng, i) for i in range(4))
        image = p.substitute(dict(zip("xyzw", images)))
        assert image == _naive_substitute(p, images)
        assert all(type(c) is Fraction for _, c in image.terms())  # exact, never float
        text = format_poly(p) if rng.randrange(2) else format_poly(p).replace(" ", "") + " + 0*x - y + y"
        total = Polynomial.zero()
        for term in parse_poly_terms(text):
            total = total + term
        assert parse_poly(text) == total


@pytest.mark.parametrize(
    "text, message",
    [
        ("x^^2", "expected exponent at offset 3"),
        ("", "empty input at offset 1"),
        ("   ", "empty input at offset 4"),
        ("x + q^2", "expected variable, found 'q' at offset 5"),
        ("1/0*x", "zero denominator at offset 3"),
        ("2/", "expected denominator at offset 3"),
        ("x*", "expected variable at offset 3"),
        ("3 x", "expected '+' or '-', found 'x' at offset 3"),
        ("1/2/3*x", "expected '+' or '-', found '/' at offset 4"),
        ("- -x", "expected variable, found '-' at offset 3"),
        ("x^2*3", "expected variable, found '3' at offset 5"),
        # Not ASCII decimal digits, or past int()'s digit limit: syntax errors.
        ("x^\u00b2", "expected exponent at offset 3"),
        ("9" * 5000 + "*x", "coefficient too long at offset 1"),
        ("x^" + "9" * 5000, "exponent too long at offset 3"),
        # Spellings that int() accepts but the grammar does not.
        ("1_0*x", "expected '+' or '-', found '_' at offset 2"),
        ("x^1_0", "expected '+' or '-', found '_' at offset 4"),
        ("2/1_0", "expected '+' or '-', found '_' at offset 4"),
        ("x^1 0", "expected '+' or '-', found '0' at offset 5"),
        ("1\t0*x", "expected '+' or '-', found '0' at offset 3"),
        ("1\u30000*x", "expected '+' or '-', found '0' at offset 3"),
    ],
    ids=lambda v: v if len(v) < 100 else f"{v[:6]}...({len(v)} chars)",
)
def test_syntax_error_messages(text, message):
    for parse in (parse_poly, parse_poly_terms):
        with pytest.raises(PolySyntaxError) as err:
            parse(text)
        assert str(err.value) == message


def test_parse_poly_terms_keeps_zero_and_repeated_terms():
    terms = parse_poly_terms("0*x + y - y + 2/4*z")
    assert terms == (Polynomial.zero(), Y, -Y, parse_poly("1/2*z"))
    assert parse_poly("0*x + y - y + 2/4*z") == parse_poly("1/2*z")


def test_power_of_four_term_sum_is_fast():
    # Squaring past the top bit made this take about 10 s.
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    code = (
        "from strangedual.polyring import Monomial, parse_poly\n"
        "p = parse_poly('x+y+z+w') ** 16\n"
        "print(len(p), p.coefficient(Monomial((4, 4, 4, 4))))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=10
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["969", "63063000"]


# -- reference text layer -------------------------------------------------------
# The character-level parser and the formatter that the one-pass scanner and
# the integer formatter replaced, kept as oracles: both must agree with them
# on every input, errors and their offsets included.

_REF_VAR_INDEX = {name: i for i, name in enumerate("xyzw")}
_REF_VAR_INDEX.update({name.upper(): i for i, name in enumerate("xyzw")})


class _RefTokenizer:
    def __init__(self, text):
        self.text = text
        self.pos = 0

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self):
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def offset(self):
        self.skip_ws()
        return self.pos + 1

    def take(self):
        ch = self.peek()
        self.pos += 1
        return ch

    def read_uint(self, what):
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdecimal():
            self.pos += 1
        if self.pos == start:
            raise PolySyntaxError(f"expected {what}", start + 1)
        try:
            return int(self.text[start : self.pos])
        except ValueError:
            raise PolySyntaxError(f"{what} too long", start + 1) from None


def _ref_scan_terms(text):
    tok = _RefTokenizer(text)
    sign = 1
    ch = tok.peek()
    if ch == "":
        raise PolySyntaxError("empty input", tok.offset())
    if ch in "+-":
        if ch == "-":
            sign = -1
        tok.take()
    while True:
        yield _ref_parse_term(tok, sign)
        ch = tok.peek()
        if ch == "":
            return
        if ch == "+":
            sign = 1
        elif ch == "-":
            sign = -1
        else:
            raise PolySyntaxError(f"expected '+' or '-', found {ch!r}", tok.offset())
        tok.take()


def _ref_parse_factor(tok):
    ch = tok.peek()
    if ch not in _REF_VAR_INDEX:
        found = f", found {ch!r}" if ch else ""
        raise PolySyntaxError(f"expected variable{found}", tok.offset())
    tok.take()
    exponent = 1
    if tok.peek() == "^":
        tok.take()
        exponent = tok.read_uint("exponent")
    exps = [0, 0, 0, 0]
    exps[_REF_VAR_INDEX[ch]] = exponent
    return Monomial(tuple(exps))


def _ref_parse_term(tok, sign):
    if not tok.peek().isdecimal():
        coeff = Fraction(sign)
    else:
        num = tok.read_uint("coefficient")
        den = 1
        if tok.peek() == "/":
            tok.take()
            den_off = tok.offset()
            den = tok.read_uint("denominator")
            if den == 0:
                raise PolySyntaxError("zero denominator", den_off)
        coeff = Fraction(sign * num, den)
        if tok.peek() != "*":
            return Monomial((0, 0, 0, 0)), coeff
        tok.take()
    mono = _ref_parse_factor(tok)
    while tok.peek() == "*":
        tok.take()
        mono = mono * _ref_parse_factor(tok)
    return mono, coeff


def _ref_outcomes(text):
    # What parse_poly and parse_poly_terms each gave on ``text``.
    try:
        terms = list(_ref_scan_terms(text))
    except PolySyntaxError as exc:
        error = ("error", str(exc), exc.offset)
        return error, error
    return ("parsed", Polynomial(terms)), ("parsed", tuple(Polynomial([t]) for t in terms))


def _ref_monomial_text(mono):
    if mono.degree == 0:
        return "1"
    parts = []
    for name, e in zip("xyzw", mono.exponents):
        if e == 1:
            parts.append(name)
        elif e > 1:
            parts.append(f"{name}^{e}")
    return "*".join(parts)


def _ref_format_coeff(coeff):
    try:
        return str(coeff) if coeff.denominator != 1 else str(coeff.numerator)
    except ValueError:
        raise PolynomialError("coefficient has too many digits to print") from None


def _ref_format_poly(p):
    if p.is_zero():
        return "0"
    pieces = []
    for index, (mono, coeff) in enumerate(p.terms()):
        magnitude = abs(coeff)
        if mono.degree == 0:
            body = _ref_format_coeff(magnitude)
        elif magnitude == 1:
            body = _ref_monomial_text(mono)
        else:
            body = f"{_ref_format_coeff(magnitude)}*{_ref_monomial_text(mono)}"
        if index == 0:
            pieces.append(body if coeff > 0 else f"-{body}")
        else:
            pieces.append(f"+ {body}" if coeff > 0 else f"- {body}")
    return " ".join(pieces)


def _outcome(parse, text):
    try:
        return ("parsed", parse(text))
    except PolySyntaxError as exc:
        return ("error", str(exc), exc.offset)


_NOISE = "xyzwXYZW0123456789+-*/^\t\n \u00a0\u3000\u0663\u00b2qa"


def _poly_text(rng):
    # A well-formed polynomial in the grammar's full freedom of spelling.
    terms = []
    for _ in range(rng.randint(1, 5)):
        factors = [
            rng.choice("xyzwXYZW") + rng.choice(("", "", f"^{rng.randint(0, 12)}"))
            for _ in range(rng.randint(0, 3))
        ]
        coeff = rng.choice(("", str(rng.randint(0, 99)), f"{rng.randint(0, 99)}/{rng.randint(1, 9)}"))
        terms.append("*".join(([coeff] if coeff or not factors else ["1"]) + factors))
    signs = (" + ", " - ", "+", "-", "\t-\n", "\u3000+ ")
    return rng.choice(("", "-", "+ ")) + terms[0] + "".join(rng.choice(signs) + t for t in terms[1:])


def _fuzz_text(rng):
    if rng.randrange(3) == 0:  # character soup
        return "".join(rng.choice(_NOISE) for _ in range(rng.randint(0, 12)))
    chars = list(_poly_text(rng))
    for _ in range(rng.randint(0, 2)):  # insert, delete or replace a character
        at = rng.randint(0, len(chars))
        chars[at : at + rng.randrange(2)] = rng.choice(("", rng.choice(_NOISE)))
    return "".join(chars)


#: Digit runs past int()'s limit in each numeric position.
_TOO_LONG = "9" * 4301
_DIGIT_LIMIT_TEXTS = (
    f"{_TOO_LONG}*x",
    f"-x + {_TOO_LONG}",
    f"x^{_TOO_LONG}",
    f"y*x^ {_TOO_LONG}*z",
    f"1/{_TOO_LONG}*x",
    f"2 - 3/ {_TOO_LONG}",
    f"x^{'0' * 4300}1",
)


def test_parser_matches_character_level_reference():
    rng = random.Random(20261018)
    texts = [_fuzz_text(rng) for _ in range(20000)] + list(_DIGIT_LIMIT_TEXTS)
    messages = set()
    for text in texts:
        expected = _ref_outcomes(text)
        assert (_outcome(parse_poly, text), _outcome(parse_poly_terms, text)) == expected, text
        if expected[0][0] == "error":
            messages.add(expected[0][1].split(" at offset")[0].split(",")[0])
    # The fuzz reaches every error the grammar has.
    assert messages >= {
        "empty input",
        "expected variable",
        "expected '+' or '-'",
        "expected exponent",
        "expected denominator",
        "zero denominator",
        "coefficient too long",
        "exponent too long",
        "denominator too long",
    }


def test_parser_reads_keys_past_the_default_width():
    # A total degree of 4096 or more, reached by one factor, by a sum of
    # factors or by a term that cancels, and exponents of 4300 digits.
    rng = random.Random(20261020)
    big = "9" * 4300
    texts = [
        "x^4096",
        "x^4095*y",
        "x^2048*x^2048 - 3/7*w",
        "y^5000 - y^5000 + z",
        "0*x^99999 + 2/4*y",
        f"x^{big}*y - 2*x^{big}*y + w^{big}",
    ]
    for _ in range(300):
        terms = []
        for _ in range(rng.randint(1, 4)):
            factors = [f"{rng.choice('xyzw')}^{rng.choice((1, 7, 2000, 4095, 4096, 70000))}" for _ in range(3)]
            terms.append("*".join([str(rng.randint(0, 5))] + factors))
        texts.append(" - ".join(terms))
    for text in texts:
        assert (_outcome(parse_poly, text), _outcome(parse_poly_terms, text)) == _ref_outcomes(text), text
    assert parse_poly("x^4096").degree() == 4096


def test_formatter_matches_reference():
    rng = random.Random(20261019)
    polys = [Polynomial.zero(), Polynomial.one(), -Polynomial.one(), X, -X]
    for _ in range(3000):
        table = {}
        for _ in range(rng.randint(0, 6)):
            mono = Monomial(tuple(rng.choice((0, 0, 1, 1, 2, 13)) for _ in range(4)))
            num = rng.choice((-1, 1, rng.randint(-10**6, 10**6)))
            table[mono] = Fraction(num, rng.choice((1, 1, 2, rng.randint(1, 10**4))))
        polys.append(Polynomial(table))
    for p in polys:
        text = format_poly(p)
        assert text == _ref_format_poly(p)
        assert parse_poly(text) == p
    huge = Fraction(10**5000)
    for coeff in (huge, -huge, 1 / huge):
        for mono in (Monomial((0, 0, 0, 0)), Monomial((1, 0, 2, 0))):
            with pytest.raises(PolynomialError, match="coefficient has too many digits to print"):
                format_poly(Polynomial({mono: coeff}))
    past_limit = Polynomial({Monomial((10**5000, 0, 0, 1)): 1})
    for show in (format_poly, lambda p: str(next(iter(p.support())))):
        with pytest.raises(PolynomialError, match="exponent has too many digits to print"):
            show(past_limit)


def test_fortieth_power_of_four_term_sum_is_bounded():
    # The stress case: with a Monomial and a Fraction per term it took
    # about 10 s; packed integer keys bring it well inside the timeout.
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    code = 'from strangedual.polyring import parse_poly; print(len(parse_poly("x+y+z+w") ** 40))'
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=10)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "12341\n"
