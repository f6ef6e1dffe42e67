import os
import random
import re
import subprocess
import sys
from decimal import Decimal
from fractions import Fraction
from itertools import product
from math import gcd
from pathlib import Path

import _reference_orbits as ref_orbits
import _reference_series as ref_series
import pytest

from strangedual import series
from strangedual.cli import main
from strangedual.series import (
    FrameProduct,
    FrameSyntaxError,
    NotPolynomialError,
    SaitoDomainError,
    SeriesError,
    UniPolynomial,
    WeightSystem,
    format_frame,
    frame_expand,
    frame_to_polynomial,
    or_polynomial,
    parse_frame,
    parse_weight_system,
    poincare,
    saito_dual,
)


def test_weight_system_parse_format():
    ws = parse_weight_system("2,6,5,4;8,10")
    assert ws == WeightSystem((2, 6, 5, 4), (8, 10))
    assert str(ws) == "2,6,5,4;8,10"


def test_weight_system_rejects_nonpositive():
    with pytest.raises(SeriesError):
        WeightSystem((2, 0, 1, 1), (3, 4))


@pytest.mark.parametrize(
    "text",
    ["1_0,2,3,4;5,6", "+2,6,5,4;8,10", "2,,6,5,4;8,10", "2 0,6,5,4;8,10", "2,6,5,4;8,10,", ";", "2,\u00b2;3"],
    ids=["underscore", "plus", "empty-item", "inner-space", "trailing-comma", "no-items", "superscript"],
)
def test_weight_system_items_are_digit_runs(capsys, text):
    # int() reads "1_0", "+2" and " 2" and the old parser deleted spaces and
    # skipped empty items; each item must now be one run of decimal digits.
    with pytest.raises(SeriesError, match="is not a run of decimal digits"):
        parse_weight_system(text)
    assert main(["poincare", text]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: bad weight system ") and err.count("\n") == 1


def test_weight_system_allows_space_around_items():
    assert parse_weight_system(" 2, 6 ,5,4 ; 8,10 ") == WeightSystem((2, 6, 5, 4), (8, 10))
    with pytest.raises(SeriesError, match="Exceeds the limit"):
        parse_weight_system("9" * 5000 + ",1;1")


def test_poincare_jprime():
    frame = poincare(parse_weight_system("2,6,5,4;8,10"))
    assert frame == FrameProduct({8: 1, 10: 1, 2: -1, 6: -1, 5: -1, 4: -1})


def test_poincare_collision_bookkeeping():
    frame = poincare(WeightSystem((1, 1, 1, 1), (1, 1)))
    assert frame == FrameProduct({1: -2})


def test_poincare_msharp_dual():
    frame = poincare(parse_weight_system("2,4,3,3;6,7"))
    assert frame == FrameProduct({6: 1, 7: 1, 2: -1, 4: -1, 3: -2})


def test_frame_product_mul_identity_and_cancellation():
    a = FrameProduct({2: 1, 5: -1})
    assert a * FrameProduct() == a
    assert FrameProduct({2: 1}) * FrameProduct({2: -1}) == FrameProduct()


def test_frame_product_mul_catalog_row():
    product = or_polynomial((2, 2, 2, 6)) * poincare(parse_weight_system("2,6,5,4;8,10"))
    assert product == parse_frame("2^2*8*10 / 1^2*4*5")


def test_or_polynomial_values():
    assert or_polynomial((2, 2, 2, 6)) == FrameProduct({2: 3, 6: 1, 1: -2})
    assert or_polynomial((3, 3, 3, 3)) == FrameProduct({3: 4, 1: -2})
    assert or_polynomial((1, 1, 1, 1)) == FrameProduct({1: 2})


def test_saito_dual_hand_example():
    # d = 12: exponent at m is -alpha_(12/m).
    frame = FrameProduct({1: 1, 12: 1, 3: -1})
    assert saito_dual(frame, 12) == FrameProduct({12: -1, 1: -1, 4: 1})


def test_saito_dual_involution_random():
    rng = random.Random(2026)
    for _ in range(200):
        d = rng.choice((4, 6, 8, 10, 12, 24))
        divisors = [m for m in range(1, d + 1) if d % m == 0]
        frame = FrameProduct({m: rng.randint(-3, 3) for m in rng.sample(divisors, rng.randint(1, len(divisors)))})
        assert saito_dual(saito_dual(frame, d), d) == frame


def test_saito_dual_domain_error():
    with pytest.raises(SaitoDomainError):
        saito_dual(FrameProduct({2: 1}), 5)


def test_frame_to_polynomial_identity():
    assert frame_to_polynomial(FrameProduct()) == UniPolynomial((1,))


def test_frame_to_polynomial_pure_denominator():
    with pytest.raises(NotPolynomialError):
        frame_to_polynomial(FrameProduct({1: -1}))


def test_frame_to_polynomial_jprime():
    # (1+t)^2 (1+t^4)(1+t^5), expanded by hand.
    poly = frame_to_polynomial(parse_frame("2^2*8*10 / 1^2*4*5"))
    assert poly == UniPolynomial([1, 2, 1, 0, 1, 3, 3, 1, 0, 1, 2, 1])
    assert poly.degree() == 11


def test_unipolynomial_over_z():
    # A float would be rounded, a str parsed and a Fraction kept over Q.
    for value in (0.1, 2.0, Fraction(1, 2), Fraction(4, 2), "1/2", Decimal(1), 1j):
        with pytest.raises(SeriesError) as caught:
            UniPolynomial([1, value])
        assert type(caught.value) is SeriesError
        assert str(caught.value) == f"coefficients must be integers, got (1, {value!r})"
    poly = UniPolynomial([True, 0, False])
    assert poly.coefficients == (1,) and type(poly.coefficients[0]) is int
    assert UniPolynomial([-6, 0, 4, 0]).primitive() == (-3, 0, 2)
    assert UniPolynomial([6, -9]).primitive() == (2, -3)
    assert UniPolynomial().primitive() == ()


def test_gcd_matches_euclidean_reference():
    # The primitive remainder sequence against the monic Euclidean gcd over
    # Q of the frozen orbit solver, on products of random factors sharing
    # some of them, with integer scales and zero operands.
    rng = random.Random(20261022)

    def factor():
        return UniPolynomial([rng.randint(-6, 6) for _ in range(rng.randint(1, 3))] + [rng.randint(1, 4)])

    def scale():
        numerator = rng.choice((-1, 1)) * rng.randint(1, 9)
        rng.randint(1, 9)  # the draw of a denominator, kept so the seeded sequence stays
        return numerator

    for _ in range(300):
        shared = [factor() for _ in range(rng.randint(0, 2))]
        a, b = (UniPolynomial([scale()]) for _ in range(2))
        for f in shared + [factor() for _ in range(rng.randint(0, 2))]:
            a = a * f
        for f in shared + [factor() for _ in range(rng.randint(0, 2))]:
            b = b * f
        a = a if rng.random() > 0.05 else UniPolynomial()
        p = a.primitive_gcd(b).coefficients
        assert all(type(c) is int for c in p)
        assert not p or (gcd(*p) == 1 and p[-1] > 0)
        monic = [Fraction(c, p[-1]) for c in p]
        assert monic == ref_orbits.monic_gcd(a.coefficients, b.coefficients)


def test_gcd_matches_frozen_remainder_sequence():
    # The gcd against the remainder sequence alone, on pairs of degree at
    # most 30: random pairs (nearly always coprime), pairs with a built
    # common factor, leads that are multiples of the prime of the
    # coprimality test (which skip it), and pairs coprime over Z that
    # share a factor modulo that prime (t and t + p), where it cannot
    # decide and the sequence must run.
    p = 2**61 - 1
    rng = random.Random(20261020)

    def poly(degree, lead=None):
        coeffs = [rng.randint(-50, 50) for _ in range(degree)]
        return UniPolynomial(coeffs + [lead or rng.choice((-1, 1)) * rng.randint(1, 50)])

    pairs = []
    for _ in range(60):
        pairs.append((poly(rng.randint(0, 30)), poly(rng.randint(0, 30))))
    for _ in range(60):
        common = poly(rng.randint(1, 10))
        pairs.append((common * poly(rng.randint(0, 20)), common * poly(rng.randint(0, 20))))
    for _ in range(30):
        pairs.append((poly(rng.randint(0, 30), lead=p * rng.randint(1, 3)), poly(rng.randint(0, 30))))
    for _ in range(30):
        t, shifted = UniPolynomial([0, 1]), UniPolynomial([p, 1])
        pairs.append((t * poly(rng.randint(0, 15)), shifted * poly(rng.randint(0, 15))))
    degrees = set()
    for a, b in pairs:
        got = a.primitive_gcd(b).coefficients
        assert got == ref_series.primitive_gcd(a, b)
        assert got == b.primitive_gcd(a).coefficients
        degrees.add(len(got) - 1)
    assert 0 in degrees and max(degrees) >= 5


def test_frame_degree_and_expansion_consistency():
    rng = random.Random(5)
    for _ in range(100):
        numerator = {rng.randint(1, 6): rng.randint(1, 2) for _ in range(rng.randint(1, 3))}
        frame = FrameProduct(numerator)
        divisor = FrameProduct({1: -sum(numerator.values())}) if rng.random() < 0.3 else FrameProduct()
        frame = frame * divisor
        try:
            poly = frame_to_polynomial(frame)
        except NotPolynomialError:
            continue
        assert poly.degree() == frame.degree()
        expansion = frame_expand(frame, poly.degree())
        assert tuple(poly.coefficients) + (0,) * (poly.degree() + 1 - len(poly.coefficients)) == expansion


def _count_monomials(weights, degree):
    count = 0
    bounds = [degree // w for w in weights]
    for exps in product(*[range(b + 1) for b in bounds]):
        if sum(e * w for e, w in zip(exps, weights)) == degree:
            count += 1
    return count


def test_frame_expand_counts_monomials_below_relations():
    # Below the smallest relation degree the Poincare coefficients count
    # monomials of each weighted degree; brute-force enumeration oracle.
    for text in ("2,6,5,4;8,10", "2,4,4,3;6,8", "3,3,3,2;6,6", "2,4,3,3;6,7"):
        ws = parse_weight_system(text)
        cutoff = min(ws.degrees) - 1
        expansion = frame_expand(poincare(ws), cutoff)
        for degree in range(cutoff + 1):
            assert expansion[degree] == _count_monomials(ws.weights, degree)


def test_frame_expand_examples():
    assert frame_expand(poincare(parse_weight_system("2,6,5,4;8,10")), 6) == (1, 0, 1, 0, 2, 1, 3)
    assert frame_expand(FrameProduct(), 3) == (1, 0, 0, 0)
    assert frame_expand(FrameProduct({1: 1}), 3) == (1, -1, 0, 0)


def _dense_numerator_denominator(frame):
    """P and Q of the frame product P/Q, by dense products of (1 - t^l)."""
    numerator = UniPolynomial((1,))
    denominator = UniPolynomial((1,))
    for base, alpha in frame.items():
        for _ in range(abs(alpha)):
            factor = UniPolynomial([1] + [0] * (base - 1) + [-1])
            if alpha > 0:
                numerator = numerator * factor
            else:
                denominator = denominator * factor
    return numerator, denominator


def _long_division_series(numerator, denominator, order):
    """Taylor coefficients of numerator/denominator through t^order, by
    power-series division on the coefficient lists."""
    series = []
    pad = order + 1 + len(denominator.coefficients) + len(numerator.coefficients)
    carry = list(numerator.coefficients) + [0] * pad
    for k in range(order + 1):
        coeff = carry[k] // denominator.coefficients[0]
        series.append(coeff)
        for j, b in enumerate(denominator.coefficients):
            carry[k + j] -= coeff * b
    return tuple(series)


def test_frame_expand_matches_longdivision_oracle():
    # Independent route: expand numerator/denominator polynomials and do
    # power-series division on the coefficient lists.
    rng = random.Random(77)
    for _ in range(50):
        frame = FrameProduct({rng.randint(1, 5): rng.randint(-2, 2) for _ in range(rng.randint(1, 3))})
        order = 25
        numerator, denominator = _dense_numerator_denominator(frame)
        assert frame_expand(frame, order) == _long_division_series(numerator, denominator, order)
    # Division by (1 - t^l) loops per element below _SHORT_LIST_FACTOR * l
    # entries and sums per residue class from there on; orders on both
    # sides of that length, and l = 1, which takes one running sum.
    for _ in range(100):
        base = rng.randint(1, 12)
        length = base * series._SHORT_LIST_FACTOR + rng.randint(-3, 2)
        frame = FrameProduct({base: rng.randint(-3, 1), rng.randint(1, 3): rng.randint(-2, 2)})
        numerator, denominator = _dense_numerator_denominator(frame)
        assert frame_expand(frame, length - 1) == _long_division_series(numerator, denominator, length - 1)


def test_frame_to_polynomial_matches_dense_division_oracle():
    # Reference route: dense products of the factors, then the Euclidean
    # remainder of the frozen orbit solver; with a zero remainder the
    # conversion is the exact quotient.  On a non-polynomial frame the error
    # names the first nonzero Taylor coefficient above deg P - deg Q of a
    # long-division expansion.
    rng = random.Random(404)
    outcomes = {True: 0, False: 0}
    for k in range(400):
        pairs = [(rng.randint(1, 8), rng.randint(-3, 3)) for _ in range(rng.randint(1, 4))]
        if k >= 300:  # numerators long or short against each base, and l = 1
            pairs = [(rng.randint(1, 3), -rng.randint(1, 3)), (1, rng.randint(-2, 2))]
            pairs.append((rng.randint(1, 30), rng.randint(1, 3)))
        if rng.random() < 0.5:  # each denominator factor over a multiple of its base
            pairs += [(rng.randint(1, 3) * base, -alpha) for base, alpha in pairs if alpha < 0]
        frame = FrameProduct(pairs)
        numerator, denominator = _dense_numerator_denominator(frame)
        divisible = not ref_orbits._remainder(numerator.coefficients, denominator.coefficients)
        outcomes[divisible] += 1
        if divisible:
            assert frame_to_polynomial(frame) * denominator == numerator
            continue
        with pytest.raises(NotPolynomialError) as info:
            frame_to_polynomial(frame)
        top = numerator.degree()
        series = _long_division_series(numerator, denominator, top)
        tail = range(max(frame.degree() + 1, 0), top + 1)
        first = next((power, series[power]) for power in tail if series[power])
        assert (info.value.remainder_degree, info.value.remainder_coeff) == first
    assert min(outcomes.values()) >= 50


def test_frame_product_refuses_non_integers():
    for build, message in (
        (lambda: FrameProduct({2.7: 1.9}), "frame bases and exponents must be integers, got (2.7, 1.9)"),
        (lambda: FrameProduct([(2, 1.0)]), "frame bases and exponents must be integers, got (2, 1.0)"),
        (lambda: or_polynomial((2.5, 2, 2, 6)), "Gabrielov numbers must be integers, got (2.5, 2, 2, 6)"),
    ):
        with pytest.raises(SeriesError) as caught:
            build()
        assert type(caught.value) is SeriesError and str(caught.value) == message


def test_parse_frame_catalog_rows():
    assert parse_frame("2^2*8*10 / 1^2*4*5") == FrameProduct(
        {2: 2, 8: 1, 10: 1, 1: -2, 4: -1, 5: -1}
    )
    assert parse_frame("6*7 / 1^2") == FrameProduct({6: 1, 7: 1, 1: -2})
    assert parse_frame("3*6^2 / 1^2*2") == FrameProduct({3: 1, 6: 2, 1: -2, 2: -1})


def test_parse_frame_unicode_dot():
    assert parse_frame("2^2·8·10 / 1^2·4·5") == parse_frame("2^2*8*10 / 1^2*4*5")


def test_parse_frame_merges_repeated_base():
    frame = parse_frame("2*2^2 / 3")
    assert frame == FrameProduct({2: 3, 3: -1})


def test_parse_frame_bare_one_is_identity():
    # The classical notation prints "1" for an empty side; the (1 - t) factor
    # always carries an explicit exponent.
    assert parse_frame("1") == FrameProduct()
    assert parse_frame("1^1") == FrameProduct({1: 1})
    assert parse_frame("1 / 1^2") == FrameProduct({1: -2})


def test_parse_frame_errors():
    with pytest.raises(FrameSyntaxError):
        parse_frame("2^^3")
    with pytest.raises(FrameSyntaxError):
        parse_frame("2 * * 3")
    with pytest.raises(FrameSyntaxError):
        parse_frame("4 / 2 / 2")
    with pytest.raises(FrameSyntaxError):
        parse_frame("2000000")


def test_frame_format_parse_roundtrip_random():
    rng = random.Random(808)
    for _ in range(300):
        frame = FrameProduct(
            {rng.randint(1, 12): rng.randint(-3, 3) for _ in range(rng.randint(0, 4))}
        )
        assert parse_frame(format_frame(frame)) == frame


def test_frame_product_mul_commutative_associative_random():
    rng = random.Random(11)
    for _ in range(150):
        frames = [
            FrameProduct({rng.randint(1, 9): rng.randint(-2, 2) for _ in range(rng.randint(0, 3))})
            for _ in range(3)
        ]
        a, b, c = frames
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)


def test_or_polynomial_times_one_minus_t_squared():
    rng = random.Random(21)
    for _ in range(60):
        gammas = tuple(rng.randint(1, 6) for _ in range(4))
        lhs = or_polynomial(gammas) * FrameProduct({1: 2})
        table = {}
        for g in gammas:
            table[g] = table.get(g, 0) + 1
        assert lhs == FrameProduct(table)


def test_saito_dual_huge_degree_is_immediate():
    # The dual is read off the frame's bases, never by scanning 1..d; its
    # bases d/1 and d/2 = 5*10^10 exceed the frame limit, rejected at once.
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    argv = [sys.executable, "-m", "strangedual.cli", "saito-dual", "2 / 1^1", "--degree", "100000000000"]
    proc = subprocess.run(argv, capture_output=True, text=True, env=env, timeout=10)
    assert (proc.returncode, proc.stdout) == (1, "")
    assert proc.stderr.startswith("error: frame base ") and "exceeds limit 1000000" in proc.stderr


@pytest.mark.parametrize(
    "text",
    ["\u00b2 / 1", "2^\u00b2", "9" * 5000, "2^" + "9" * 5000],
    ids=["superscript-base", "superscript-exponent", "long-base", "long-exponent"],
)
def test_parse_frame_rejects_non_decimal_and_overlong_numbers(text):
    # A superscript digit or a number past int()'s digit limit is a syntax
    # error, not a ValueError.
    with pytest.raises(FrameSyntaxError):
        parse_frame(text)


def _frame_outcome(parse, text):
    try:
        return ("parsed", parse(text))
    except SeriesError as exc:
        return ("error", type(exc), str(exc), getattr(exc, "offset", None))


#: Frame text pieces: a Unicode decimal digit (U+0663), a superscript that
#: is not a decimal, tab, NBSP and the ideographic space, both dots, bases
#: at and past the limit, digit runs past int()'s limit, letters and signs.
_FRAME_PIECES = (
    *"0123456789",
    "\u0663", "\u00b2", "\t", " ", " ", "\u00a0", "\u3000",
    "^", "^", "*", "*", "\u00b7", "\u22c5", "/",
    "0", "1000000", "1000001", "12",
    "x", "t", "-", "+", "(", ".",
)
_FRAME_LONG = ("9" * 4301, "\u0663" * 4301, "0" * 4300 + "7")


def _frame_text(rng):
    if rng.randrange(4) == 0:  # piece soup
        return "".join(rng.choice(_FRAME_PIECES) for _ in range(rng.randint(0, 10)))
    sides = []
    for _ in range(rng.choice((1, 2, 2))):
        factors = [
            rng.choice(("1", "2", "6", "12", "\u0663", "1000000"))
            + rng.choice(("", "", f"^{rng.randint(0, 12)}"))
            for _ in range(rng.randint(1, 4))
        ]
        sides.append(rng.choice(("*", " * ", "\u00b7", "\u22c5")).join(factors))
    chars = list(rng.choice((" / ", "/", "\t/\u3000")).join(sides))
    for _ in range(rng.randint(0, 2)):  # insert, delete or replace a piece
        at = rng.randint(0, len(chars))
        piece = rng.choice(_FRAME_LONG) if rng.randrange(100) == 0 else rng.choice(_FRAME_PIECES)
        chars[at : at + rng.randrange(2)] = rng.choice(("", piece))
    return "".join(chars)


def test_parse_frame_matches_character_scanner_reference():
    # The token reader gives the frozen scanner's frame, or its error with
    # the same type, message and offset.
    rng = random.Random(20261020)
    texts = [_frame_text(rng) for _ in range(20000)]
    texts += [f"{long}{tail}" for long in _FRAME_LONG for tail in ("", "^2", " / 1")]
    texts += [f"2^{long} / 3" for long in _FRAME_LONG]
    messages = set()
    parsed = 0
    for text in texts:
        expected = _frame_outcome(ref_series.parse_frame, text)
        assert _frame_outcome(parse_frame, text) == expected, text
        if expected[0] == "error":
            messages.add(re.sub("[0-9]+", "N", expected[2].split(" at offset")[0]))
        else:
            parsed += 1
    assert parsed >= 5000
    # The fuzz reaches every error the grammar has.
    assert messages >= {
        "more than one '/'",
        "expected factor",
        "expected exponent",
        "unexpected '*'",
        "missing '*' between factors",
        "number too long",
        "frame base must be positive",
        "frame base N exceeds limit N",
        *(f"unexpected character {ch!r}" for ch in "\u00b2^-+x.t("),
    }
