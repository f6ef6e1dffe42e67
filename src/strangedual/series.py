r"""Weight systems, frame products and Poincare series.

A *frame product* is a formal product

    prod_l (1 - t^l)^(alpha_l),   alpha_l in Z,

the common carrier for Poincare series of graded rings, reduced zeta
functions of monodromy operators and the orbit polynomials Or(t).  Frame
products multiply by adding exponents.  One integer kernel, shared with
the Coxeter polynomials, multiplies a truncated power series by a frame
product: ``frame_expand`` is that kernel under ``MAX_EXPAND_WORK``, and
``frame_to_polynomial`` is ``frame_expand`` plus a tail check.  Over
(1 - t^l) the kernel loops per element on lists shorter than 16 l, and
takes running sums per residue class mod l on longer ones.

:class:`UniPolynomial` is the package's one univariate polynomial type:
dense, over Z.  Frame expansion and the Coxeter polynomials build it;
the orbit solver uses its product, primitive gcd and primitive form.

The text notation mirrors the tables it came from: ``2^2*8*10 / 1^2*4*5``
stands for (1-t^2)^2 (1-t^8)(1-t^10) / (1-t)^2 (1-t^4)(1-t^5).
``parse_frame`` reads it in one pass over regex tokens: a base with an
optional ``^`` exponent, or any other single non-space character.
"""

from __future__ import annotations

import re
from collections import namedtuple
from itertools import accumulate, zip_longest
from math import gcd
from operator import sub
from collections.abc import Iterable, Mapping, Sequence

from ._errors import StrangedualError, checked_make, integers

__all__ = [
    "WeightSystem",
    "FrameProduct",
    "UniPolynomial",
    "SeriesError",
    "FrameSyntaxError",
    "NotPolynomialError",
    "SaitoDomainError",
    "poincare",
    "or_polynomial",
    "saito_dual",
    "frame_to_polynomial",
    "frame_expand",
    "parse_frame",
    "format_frame",
    "parse_weight_system",
]

MAX_FRAME_BASE = 10**6
#: Largest work ``frame_expand`` takes on: (order + 1) * (1 + sum |alpha_l|)
#: coefficient updates, one pass per unit of exponent plus the list itself,
#: so ``poincare --expand N`` and ``frame_to_polynomial`` end in about a
#: second or with a SeriesError.
MAX_EXPAND_WORK = 10**7


class SeriesError(StrangedualError):
    pass


class FrameSyntaxError(SeriesError):
    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} at offset {offset}")
        self.offset = offset


class NotPolynomialError(SeriesError):
    """P/Q is not a polynomial.  ``remainder_degree`` and ``remainder_coeff``
    are the degree and value of the first nonzero Taylor coefficient of
    P/Q from deg P - deg Q + 1 through deg P."""

    def __init__(self, message: str, remainder_degree: int, remainder_coeff: int):
        super().__init__(message)
        self.remainder_degree = remainder_degree
        self.remainder_coeff = remainder_coeff


class SaitoDomainError(SeriesError):
    """A frame exponent sits at an l that does not divide the degree."""


class WeightSystem(namedtuple("WeightSystem", "weights degrees")):
    """Weights (w_1..w_n) and degrees (d_1..d_k) of a graded complete
    intersection; printed as ``w1,w2,w3,w4;d1,d2``."""

    __slots__ = ()
    _make = checked_make

    def __new__(cls, weights: tuple[int, ...], degrees: tuple[int, ...]):
        weights = integers(weights, SeriesError, "weights")
        self = tuple.__new__(cls, (weights, integers(degrees, SeriesError, "degrees")))
        if not self.weights or not self.degrees:
            raise SeriesError("weight system needs weights and degrees")
        if any(v <= 0 for v in self.weights + self.degrees):
            raise SeriesError(f"weight system entries must be positive: {self}")
        return self

    def __str__(self) -> str:
        ws = ",".join(str(w) for w in self.weights)
        ds = ",".join(str(d) for d in self.degrees)
        return f"{ws};{ds}"


def parse_weight_system(text: str) -> WeightSystem:
    """Parse the ``w1,..,wn;d1,..,dk`` notation: each item is one run of
    decimal digits (the polynomial grammar's ``uint``), with whitespace
    allowed around it."""
    parts = text.split(";")
    if len(parts) != 2:
        raise SeriesError(f"expected 'weights;degrees' in {text!r}")
    items = [[v.strip() for v in part.split(",")] for part in parts]
    for v in items[0] + items[1]:
        if not v.isdecimal():
            raise SeriesError(f"bad weight system {text!r}: {v!r} is not a run of decimal digits")
    try:
        weights, degrees = (tuple(map(int, part)) for part in items)
    except ValueError as exc:  # more digits than int() converts
        raise SeriesError(f"bad weight system {text!r}: {exc}") from None
    return WeightSystem(weights, degrees)


class FrameProduct:
    """Immutable formal product prod (1 - t^l)^(alpha_l)."""

    __slots__ = ("_exps",)

    def __init__(self, exponents: Mapping[int, int] | Iterable[tuple[int, int]] = ()):
        items = exponents.items() if isinstance(exponents, Mapping) else exponents
        table: dict[int, int] = {}
        for base, alpha in items:
            if type(base) is not int or type(alpha) is not int:
                base, alpha = integers((base, alpha), SeriesError, "frame bases and exponents")
            if base <= 0:
                raise SeriesError(f"frame base must be positive, got {base}")
            if base > MAX_FRAME_BASE:
                raise SeriesError(f"frame base {base} exceeds limit {MAX_FRAME_BASE}")
            if alpha:
                acc = table.get(base, 0) + alpha
                if acc:
                    table[base] = acc
                else:
                    table.pop(base, None)
        object.__setattr__(self, "_exps", tuple(sorted(table.items())))

    def items(self) -> tuple[tuple[int, int], ...]:
        return self._exps

    def __mul__(self, other: "FrameProduct") -> "FrameProduct":
        return FrameProduct(self._exps + other._exps)

    def degree(self) -> int:
        """Degree of the rational function: sum of l * alpha_l."""
        return sum(b * a for b, a in self._exps)

    def __eq__(self, other) -> bool:
        return isinstance(other, FrameProduct) and self._exps == other._exps

    def __hash__(self) -> int:
        return hash(self._exps)

    def __setattr__(self, name, value):
        raise AttributeError("FrameProduct is immutable")

    def __reduce__(self):
        return FrameProduct, (self._exps,)

    def __str__(self) -> str:
        return format_frame(self)

    def __repr__(self) -> str:
        return f"FrameProduct({format_frame(self)!r})"


class UniPolynomial:
    """Immutable dense univariate polynomial over Z in the variable t.

    ``coefficients`` runs from the constant term up, with no trailing
    zeros; a value ``operator.index`` refuses (a ``float``, ``Fraction``,
    ``str``, ...) raises ``SeriesError``.
    """

    __slots__ = ("coefficients",)

    def __init__(self, coefficients: Iterable[int] = ()):
        coeffs = list(coefficients)
        for c in coeffs:
            if type(c) is not int:
                coeffs = list(integers(coeffs, SeriesError, "coefficients"))
                break
        while coeffs and coeffs[-1] == 0:
            coeffs.pop()
        object.__setattr__(self, "coefficients", tuple(coeffs))

    def is_zero(self) -> bool:
        return not self.coefficients

    def degree(self) -> int:
        """Degree; -1 for the zero polynomial."""
        return len(self.coefficients) - 1

    def __add__(self, other: "UniPolynomial") -> "UniPolynomial":
        pairs = zip_longest(self.coefficients, other.coefficients, fillvalue=0)
        return UniPolynomial(a + b for a, b in pairs)

    def __mul__(self, other: "UniPolynomial") -> "UniPolynomial":
        if self.is_zero() or other.is_zero():
            return UniPolynomial()
        out = [0] * (len(self.coefficients) + len(other.coefficients) - 1)
        for i, a in enumerate(self.coefficients):
            if a:
                for j, b in enumerate(other.coefficients):
                    out[i + j] += a * b
        return UniPolynomial(out)

    def primitive_gcd(self, other: "UniPolynomial") -> "UniPolynomial":
        """The gcd as coprime integers with a positive lead, by a primitive
        pseudo-remainder sequence (G. E. Collins, J. ACM 14, 1967) that
        scales by lc(b) only where lc(b) does not divide.  When
        ``_GCD_PRIME`` divides neither lead, a gcd of degree 0 modulo it
        proves the gcd is 1 first, as reduction cannot lower its degree."""
        a, b = list(self.primitive()), list(other.primitive())
        if a and b and a[-1] % _GCD_PRIME and b[-1] % _GCD_PRIME and _coprime_mod_p(a, b):
            return UniPolynomial((1,))
        while b:
            lead, n = b[-1], len(b)
            while len(a) >= n:
                top = a.pop()
                shift = len(a) - n + 1
                q, r = divmod(top, lead)
                if r:
                    a, q = [lead * c for c in a], top
                for j in range(n - 1):
                    a[shift + j] -= q * b[j]
                while a and not a[-1]:
                    a.pop()
            content = gcd(*a)
            a, b = b, [c // content for c in a]
        return UniPolynomial(-c for c in a) if a and a[-1] < 0 else UniPolynomial(a)

    def primitive(self) -> tuple[int, ...]:
        """The coefficients divided by their content, signs kept."""
        content = gcd(*self.coefficients)
        return tuple(c // content for c in self.coefficients)

    def __eq__(self, other) -> bool:
        return isinstance(other, UniPolynomial) and self.coefficients == other.coefficients

    def __hash__(self) -> int:
        return hash(self.coefficients)

    def __setattr__(self, name, value):
        raise AttributeError("UniPolynomial is immutable")

    def __reduce__(self):
        return UniPolynomial, (self.coefficients,)

    def __str__(self) -> str:
        if not self.coefficients:
            return "0"
        pieces = []
        for power, coeff in enumerate(self.coefficients):
            if coeff == 0:
                continue
            mag = abs(coeff)
            if power == 0:
                body = str(mag)
            elif power == 1:
                body = "t" if mag == 1 else f"{mag}*t"
            else:
                body = f"t^{power}" if mag == 1 else f"{mag}*t^{power}"
            if not pieces:
                pieces.append(body if coeff > 0 else f"-{body}")
            else:
                pieces.append(f"+ {body}" if coeff > 0 else f"- {body}")
        return " ".join(pieces)

    def __repr__(self) -> str:
        return f"UniPolynomial({list(self.coefficients)})"


#: The prime 2^61 - 1 of the coprimality test in ``primitive_gcd``.
_GCD_PRIME = 2**61 - 1


def _coprime_mod_p(a: list[int], b: list[int]) -> bool:
    """Whether the polynomials ``a`` and ``b`` (coefficient lists, leads
    prime to ``_GCD_PRIME``) have a constant gcd modulo ``_GCD_PRIME``."""
    p = _GCD_PRIME
    a, b = [c % p for c in a], [c % p for c in b]
    while b:
        inverse, n = pow(b[-1], -1, p), len(b)
        while len(a) >= n:
            q = a.pop() * inverse % p
            shift = len(a) - n + 1
            for j in range(n - 1):
                a[shift + j] = (a[shift + j] - q * b[j]) % p
            while a and not a[-1]:
                a.pop()
        a, b = b, a
    return len(a) == 1


# -- operations ---------------------------------------------------------------


def poincare(ws: WeightSystem) -> FrameProduct:
    """Poincare series prod (1-t^d_j) / prod (1-t^w_i) as a frame product."""
    return FrameProduct([(d, 1) for d in ws.degrees] + [(w, -1) for w in ws.weights])


def or_polynomial(gammas) -> FrameProduct:
    """Orbit polynomial (1-t)^(-2) * prod_i (1-t^(gamma_i))."""
    gammas = integers(gammas, SeriesError, "Gabrielov numbers")
    if len(gammas) != 4 or any(g < 1 for g in gammas):
        raise SeriesError(f"need 4 positive integers, got {gammas!r}")
    return FrameProduct([(1, -2)] + [(g, 1) for g in gammas])


def saito_dual(frame: FrameProduct, d: int) -> FrameProduct:
    """Saito dual: exponent at m becomes -alpha_(d/m) for every m | d."""
    if type(d) is not int:
        (d,) = integers((d,), SaitoDomainError, "degrees")
    if d <= 0:
        raise SaitoDomainError(f"degree must be positive, got {d}")
    for base, _ in frame.items():
        if d % base:
            raise SaitoDomainError(f"frame base {base} does not divide {d}")
    # Only m = d / base for a frame base can carry an exponent.
    return FrameProduct({d // base: -alpha for base, alpha in frame.items()})


#: List length, in multiples of l, from which running sums per residue
#: class beat the per-element loop over (1 - t^l).  Timed on small ints
#: (CPython 3.11), the crossover lay between 14 l and 20 l for l = 2..16
#: and between 12 l and 14 l for l = 30..60.
_SHORT_LIST_FACTOR = 16


def _times_frame(coeffs: list[int], items: Iterable[tuple[int, int]]) -> list[int]:
    """Multiply the power series ``coeffs`` in place by prod (1-t^l)^alpha
    over the pairs (l, alpha) of ``items``, truncated to its length: times
    (1-t^l) subtracts the list shifted by l, over (1-t^l) adds c[i - l]
    into c[i] in index order: one ``accumulate`` for l = 1, a per-element
    loop below ``_SHORT_LIST_FACTOR`` * l entries, and else one
    ``accumulate`` per residue class mod l."""
    n = len(coeffs)
    for base, alpha in items:
        for _ in range(abs(alpha)):
            if alpha > 0:
                coeffs[base:] = list(map(sub, coeffs[base:], coeffs))
            elif base == 1:
                coeffs[:] = accumulate(coeffs)
            elif n < _SHORT_LIST_FACTOR * base:
                for i in range(base, n):
                    coeffs[i] += coeffs[i - base]
            else:
                for start in range(base):
                    coeffs[start::base] = list(accumulate(coeffs[start::base]))
    return coeffs


def _polynomial_part(coeffs: Sequence[int], degree: int) -> UniPolynomial:
    """P/Q of ``degree`` = deg P - deg Q from its Taylor coefficients
    through t^(deg P).  They obey Q's recurrence of order deg Q past deg P,
    so P/Q is a polynomial exactly when the deg Q above ``degree`` vanish
    (R. Stanley, *Enumerative Combinatorics I*, Thm 4.1.1)."""
    for power in range(max(degree + 1, 0), len(coeffs)):
        if coeffs[power]:
            raise NotPolynomialError(
                f"not a polynomial: expansion has {coeffs[power]}*t^{power} "
                f"above degree {degree}",
                power,
                coeffs[power],
            )
    # The coefficients are ints: build the polynomial without the
    # per-coefficient pass of UniPolynomial(), dropping trailing zeros here.
    coeffs = coeffs[: degree + 1]
    while coeffs and not coeffs[-1]:
        coeffs = coeffs[:-1]
    poly = object.__new__(UniPolynomial)
    object.__setattr__(poly, "coefficients", tuple(coeffs))
    return poly


def frame_to_polynomial(frame: FrameProduct) -> UniPolynomial:
    """The frame product as an integer polynomial, or NotPolynomialError."""
    top = sum(base * alpha for base, alpha in frame.items() if alpha > 0)
    return _polynomial_part(frame_expand(frame, top), frame.degree())


def frame_expand(frame: FrameProduct, order: int) -> tuple[int, ...]:
    """Exact Taylor coefficients of the frame product up to t^order.

    Work past ``MAX_EXPAND_WORK`` raises ``SeriesError``.
    """
    if type(order) is not int:
        (order,) = integers((order,), SeriesError, "expansion orders")
    if order < 0:
        raise SeriesError("expansion order must be non-negative")
    work = (order + 1) * (1 + sum(abs(alpha) for _, alpha in frame.items()))
    if work > MAX_EXPAND_WORK:
        raise SeriesError(f"expansion work {work} exceeds limit {MAX_EXPAND_WORK}")
    coeffs = [0] * (order + 1)
    coeffs[0] = 1
    return tuple(_times_frame(coeffs, frame.items()))


# -- frame text I/O -----------------------------------------------------------


def format_frame(frame: FrameProduct) -> str:
    """Canonical notation: ascending bases, numerator then denominator.

    An empty side prints as the placeholder ``1``; the genuine factor
    (1 - t) prints with an explicit exponent (``1^1``, ``1^2``, ...) so
    the two never collide and parse/format round-trip exactly.
    """

    def side(pairs) -> str:
        if not pairs:
            return "1"
        try:
            return "*".join(
                f"{b}^{a}" if (a > 1 or b == 1) else str(b) for b, a in pairs
            )
        except ValueError:  # str(int) refuses numbers past the interpreter's digit limit
            raise SeriesError("exponent has too many digits to print") from None

    numerator = [(b, a) for b, a in frame.items() if a > 0]
    denominator = [(b, -a) for b, a in frame.items() if a < 0]
    if not denominator:
        return side(numerator)
    return f"{side(numerator)} / {side(denominator)}"


# A base with an optional '^' and exponent, or any other non-space character.
_FRAME_TOKEN = re.compile(r"(\d+)(?:\^(\d*))?|(\S)")


def _frame_int(digits: str, offset: int) -> int:
    try:
        return int(digits)
    except ValueError:  # more digits than int() converts
        raise FrameSyntaxError("number too long", offset) from None


def parse_frame(text: str) -> FrameProduct:
    """Parse the ``a^p*b*c / d^q*e`` notation ('*' or a unicode dot).

    A side consisting of the single token ``1`` (with no exponent) is the
    empty side.  A base repeated within one side is merged.
    """
    normalised = text.replace("·", "*").replace("⋅", "*")
    slash_count = normalised.count("/")
    if slash_count > 1:
        second = normalised.index("/", normalised.index("/") + 1)
        raise FrameSyntaxError("more than one '/'", second + 1)
    pairs: list[tuple[int, int]] = []
    sign, start, expecting, bare = 1, 0, True, False
    # The appended '/' ends the last side as the written one ends the first.
    for token in _FRAME_TOKEN.finditer(normalised + "/"):
        digits, power, other = token.groups()
        offset = token.start() + 1
        if other == "/":
            if expecting:
                raise FrameSyntaxError("expected factor", offset)
            if bare and len(pairs) == start + 1:
                pairs.pop()  # bare "1": the empty side
            sign, start, expecting = -1, len(pairs), True
        elif other == "*":
            if expecting:
                raise FrameSyntaxError("unexpected '*'", offset)
            expecting = True
        elif other:
            raise FrameSyntaxError(f"unexpected character {other!r}", offset)
        elif not expecting:
            raise FrameSyntaxError("missing '*' between factors", offset)
        else:
            base = _frame_int(digits, offset)
            if power == "":
                raise FrameSyntaxError("expected exponent", token.end() + 1)
            alpha = 1 if power is None else _frame_int(power, token.start(2) + 1)
            if base <= 0:
                raise FrameSyntaxError("frame base must be positive", offset)
            if base > MAX_FRAME_BASE:
                raise FrameSyntaxError(f"frame base {base} exceeds limit {MAX_FRAME_BASE}", offset)
            pairs.append((base, sign * alpha))
            expecting, bare = False, base == 1 and power is None
    return FrameProduct(pairs)
