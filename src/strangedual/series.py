r"""Weight systems, frame products and Poincare series.

A *frame product* is a formal product

    prod_l (1 - t^l)^(alpha_l),   alpha_l in Z,

the common carrier for Poincare series of graded rings, reduced zeta
functions of monodromy operators and the orbit polynomials Or(t).  Frame
products multiply by adding exponents.  One integer kernel, shared with
the Coxeter polynomials, multiplies a truncated power series by a frame
product: ``frame_expand`` is that kernel under ``MAX_EXPAND_WORK``, and
``frame_to_polynomial`` is ``frame_expand`` plus a tail check.

:class:`UniPolynomial` is the package's one univariate polynomial type:
dense, over Q, with integral coefficients kept as ``int``.  Frame
expansion and the Coxeter polynomials use it over Z; the orbit solver
uses its division, gcd, evaluation and primitive integer form over Q.

The text notation mirrors the tables it came from: ``2^2*8*10 / 1^2*4*5``
stands for (1-t^2)^2 (1-t^8)(1-t^10) / (1-t)^2 (1-t^4)(1-t^5).
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from itertools import accumulate, zip_longest
from math import gcd, lcm
from operator import index, sub
from typing import Iterable, Mapping, Sequence

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


class SeriesError(Exception):
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

    def __new__(cls, weights: tuple[int, ...], degrees: tuple[int, ...]):
        self = tuple.__new__(cls, (weights, degrees))
        if not self.weights or not self.degrees:
            raise SeriesError("weight system needs weights and degrees")
        if any(v <= 0 for v in self.weights + self.degrees):
            raise SeriesError(f"weight system entries must be positive: {self}")
        return self

    @staticmethod
    def parse(text: str) -> "WeightSystem":
        return parse_weight_system(text)

    def __str__(self) -> str:
        ws = ",".join(str(w) for w in self.weights)
        ds = ",".join(str(d) for d in self.degrees)
        return f"{ws};{ds}"


def parse_weight_system(text: str) -> WeightSystem:
    """Parse the ``w1,..,wn;d1,..,dk`` notation."""
    stripped = text.replace(" ", "")
    parts = stripped.split(";")
    if len(parts) != 2:
        raise SeriesError(f"expected 'weights;degrees' in {text!r}")
    try:
        weights = tuple(int(v) for v in parts[0].split(",") if v)
        degrees = tuple(int(v) for v in parts[1].split(",") if v)
    except ValueError as exc:
        raise SeriesError(f"bad weight system {text!r}: {exc}") from None
    return WeightSystem(weights, degrees)


class FrameProduct:
    """Immutable formal product prod (1 - t^l)^(alpha_l)."""

    __slots__ = ("_exps",)

    def __init__(self, exponents: Mapping[int, int] | Iterable[tuple[int, int]] = ()):
        items = exponents.items() if isinstance(exponents, Mapping) else exponents
        table: dict[int, int] = {}
        for base, alpha in items:
            base = index(base)
            alpha = index(alpha)
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

    @staticmethod
    def identity() -> "FrameProduct":
        return FrameProduct()

    def items(self) -> tuple[tuple[int, int], ...]:
        return self._exps

    def __mul__(self, other: "FrameProduct") -> "FrameProduct":
        return FrameProduct(self._exps + other._exps)

    def __truediv__(self, other: "FrameProduct") -> "FrameProduct":
        return self * other.inverse()

    def inverse(self) -> "FrameProduct":
        return FrameProduct({b: -a for b, a in self._exps})

    def degree(self) -> int:
        """Degree of the rational function: sum of l * alpha_l."""
        return sum(b * a for b, a in self._exps)

    def __eq__(self, other) -> bool:
        return isinstance(other, FrameProduct) and self._exps == other._exps

    def __hash__(self) -> int:
        return hash(self._exps)

    def __setattr__(self, name, value):
        raise AttributeError("FrameProduct is immutable")

    def __str__(self) -> str:
        return format_frame(self)

    def __repr__(self) -> str:
        return f"FrameProduct({format_frame(self)!r})"


class UniPolynomial:
    """Immutable dense univariate polynomial over Q in the variable t.

    ``coefficients`` runs from the constant term up, with no trailing
    zeros.  An integral coefficient is stored as a plain ``int`` and only
    a non-integral one as a ``Fraction``, so integer work such as frame
    expansion and Coxeter polynomials never builds a ``Fraction``.
    """

    __slots__ = ("coefficients",)

    def __init__(self, coefficients: Iterable[int | Fraction] = ()):
        coeffs = [c if type(c) is int else _exact(c) for c in coefficients]
        while coeffs and coeffs[-1] == 0:
            coeffs.pop()
        object.__setattr__(self, "coefficients", tuple(coeffs))

    @staticmethod
    def one() -> "UniPolynomial":
        return UniPolynomial((1,))

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

    def divide(self, other: "UniPolynomial") -> tuple["UniPolynomial", "UniPolynomial"]:
        """Euclidean division over Q: ``(quotient, remainder)`` with
        ``self = quotient * other + remainder`` and deg remainder < deg other.

        A step whose leading coefficients divide exactly stays in the
        integers; only the others make a ``Fraction``.
        """
        if other.is_zero():
            raise ZeroDivisionError("division by the zero polynomial")
        rem = list(self.coefficients)
        div = other.coefficients
        lead = div[-1]
        if len(rem) < len(div):
            return UniPolynomial(), self
        quot = [0] * (len(rem) - len(div) + 1)
        for k in range(len(quot) - 1, -1, -1):
            top = rem[k + len(div) - 1]
            if not top:
                continue
            q, r = divmod(top, lead)
            if r:
                q = Fraction(top, lead)
            quot[k] = q
            for j, b in enumerate(div):
                rem[k + j] -= q * b
        return UniPolynomial(quot), UniPolynomial(rem)

    def gcd(self, other: "UniPolynomial") -> "UniPolynomial":
        """Monic greatest common divisor over Q (zero if both are zero)."""
        a, b = self, other
        while not b.is_zero():
            a, b = b, a.divide(b)[1]
        if a.is_zero():
            return a
        lead = a.coefficients[-1]
        return UniPolynomial(Fraction(c, lead) for c in a.coefficients)

    def primitive(self) -> tuple[int, ...]:
        """The coprime integer coefficients of the same polynomial up to a
        positive scalar: denominators cleared and the content divided out."""
        scale = lcm(*(c.denominator for c in self.coefficients))
        ints = [int(c * scale) for c in self.coefficients]
        content = gcd(*ints)
        return tuple(v // content for v in ints)

    def __eq__(self, other) -> bool:
        return isinstance(other, UniPolynomial) and self.coefficients == other.coefficients

    def __hash__(self) -> int:
        return hash(self.coefficients)

    def __setattr__(self, name, value):
        raise AttributeError("UniPolynomial is immutable")

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


def _exact(value) -> int | Fraction:
    """``value`` as an exact rational: an ``int`` when integral."""
    value = Fraction(value)
    return value.numerator if value.denominator == 1 else value


# -- operations ---------------------------------------------------------------


def poincare(ws: WeightSystem) -> FrameProduct:
    """Poincare series prod (1-t^d_j) / prod (1-t^w_i) as a frame product."""
    return FrameProduct([(d, 1) for d in ws.degrees] + [(w, -1) for w in ws.weights])


def or_polynomial(gammas) -> FrameProduct:
    """Orbit polynomial (1-t)^(-2) * prod_i (1-t^(gamma_i))."""
    gammas = tuple(index(g) for g in gammas)
    if len(gammas) != 4 or any(g < 1 for g in gammas):
        raise SeriesError(f"need 4 positive integers, got {gammas!r}")
    return FrameProduct([(1, -2)] + [(g, 1) for g in gammas])


def saito_dual(frame: FrameProduct, d: int) -> FrameProduct:
    """Saito dual: exponent at m becomes -alpha_(d/m) for every m | d."""
    if d <= 0:
        raise SaitoDomainError(f"degree must be positive, got {d}")
    for base, _ in frame.items():
        if d % base:
            raise SaitoDomainError(f"frame base {base} does not divide {d}")
    # Only m = d / base for a frame base can carry an exponent.
    return FrameProduct({d // base: -alpha for base, alpha in frame.items()})


def _times_frame(coeffs: list[int], items: Iterable[tuple[int, int]]) -> list[int]:
    """Multiply the power series ``coeffs`` in place by prod (1-t^l)^alpha
    over the pairs (l, alpha) of ``items``, truncated to its length: times
    (1-t^l) subtracts the list shifted by l, over (1-t^l) takes running
    sums along each residue class mod l."""
    for base, alpha in items:
        for _ in range(abs(alpha)):
            if alpha > 0:
                coeffs[base:] = list(map(sub, coeffs[base:], coeffs))
            else:
                for start in range(min(base, len(coeffs))):
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
    return UniPolynomial(coeffs[: degree + 1])


def frame_to_polynomial(frame: FrameProduct) -> UniPolynomial:
    """The frame product as an integer polynomial, or NotPolynomialError."""
    top = sum(base * alpha for base, alpha in frame.items() if alpha > 0)
    return _polynomial_part(frame_expand(frame, top), frame.degree())


def frame_expand(frame: FrameProduct, order: int) -> tuple[int, ...]:
    """Exact Taylor coefficients of the frame product up to t^order.

    Work past ``MAX_EXPAND_WORK`` raises ``SeriesError``.
    """
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


def _frame_int(digits: str, offset: int) -> int:
    try:
        return int(digits)
    except ValueError:  # more digits than int() converts
        raise FrameSyntaxError("number too long", offset) from None


def parse_frame(text: str, warnings: list[str] | None = None) -> FrameProduct:
    """Parse the ``a^p*b*c / d^q*e`` notation ('*' or a unicode dot).

    A side consisting of the single token ``1`` (with no exponent) is the
    empty side.  A base repeated within one side is merged; a note is
    appended to ``warnings`` when that happens.
    """
    normalised = text.replace("·", "*").replace("⋅", "*")

    def parse_side(chunk: str, offset0: int, sign: int):
        items: list[tuple[int, int, bool]] = []
        expecting_item = True
        i = 0
        while i < len(chunk):
            ch = chunk[i]
            if ch.isspace():
                i += 1
                continue
            if ch == "*":
                if expecting_item:
                    raise FrameSyntaxError("unexpected '*'", offset0 + i + 1)
                expecting_item = True
                i += 1
                continue
            if not ch.isdecimal():
                raise FrameSyntaxError(f"unexpected character {ch!r}", offset0 + i + 1)
            if not expecting_item:
                raise FrameSyntaxError("missing '*' between factors", offset0 + i + 1)
            j = i
            while j < len(chunk) and chunk[j].isdecimal():
                j += 1
            base = _frame_int(chunk[i:j], offset0 + i + 1)
            exponent = 1
            explicit = False
            if j < len(chunk) and chunk[j] == "^":
                j += 1
                k = j
                while k < len(chunk) and chunk[k].isdecimal():
                    k += 1
                if k == j:
                    raise FrameSyntaxError("expected exponent", offset0 + j + 1)
                exponent = _frame_int(chunk[j:k], offset0 + j + 1)
                explicit = True
                j = k
            if base <= 0:
                raise FrameSyntaxError("frame base must be positive", offset0 + i + 1)
            if base > MAX_FRAME_BASE:
                raise FrameSyntaxError(
                    f"frame base {base} exceeds limit {MAX_FRAME_BASE}", offset0 + i + 1
                )
            items.append((base, sign * exponent, explicit))
            expecting_item = False
            i = j
        if expecting_item:
            raise FrameSyntaxError("expected factor", offset0 + len(chunk) + 1)
        if len(items) == 1 and items[0][0] == 1 and not items[0][2]:
            return []  # bare "1": the empty side
        return [(base, alpha) for base, alpha, _ in items]

    slash_count = normalised.count("/")
    if slash_count > 1:
        second = normalised.index("/", normalised.index("/") + 1)
        raise FrameSyntaxError("more than one '/'", second + 1)
    if slash_count:
        num_text, den_text = normalised.split("/")
        pairs = parse_side(num_text, 0, +1)
        pairs += parse_side(den_text, len(num_text) + 1, -1)
    else:
        pairs = parse_side(normalised, 0, +1)
    seen: set[int] = set()
    for base, _ in pairs:
        if base in seen and warnings is not None:
            warnings.append(f"repeated base {base} merged")
        seen.add(base)
    return FrameProduct(pairs)
