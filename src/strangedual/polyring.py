r"""Exact sparse polynomial arithmetic in the fixed ambient ring Q[x,y,z,w].

Every polynomial in this package lives in at most four variables, so the
ring is fixed once and for all: monomials are exponent 4-tuples for
(x, y, z, w) and coefficients are exact rationals.  Polynomials in fewer
variables simply carry zero exponents on the unused coordinates.

The text grammar (ASCII) is::

    poly   := ['+'|'-'] term (('+'|'-') term)*
    term   := coeff ['*' factors] | factors
    factors:= factor ('*' factor)*
    factor := var ['^' uint]
    coeff  := uint ['/' uint]
    var    := 'x'|'y'|'z'|'w'   (uppercase accepted, normalised to lowercase)

Whitespace is insignificant.  ``parse_poly`` and ``format_poly`` are
mutually inverse on canonical forms; printing uses the degree-lexicographic
order with x > y > z > w, highest term first.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Mapping, Union

VARIABLES = ("x", "y", "z", "w")
_VAR_INDEX = {name: i for i, name in enumerate(VARIABLES)}
_VAR_INDEX.update({name.upper(): i for i, name in enumerate(VARIABLES)})


class PolynomialError(Exception):
    """Base class for errors raised by this module."""


class PolySyntaxError(PolynomialError):
    """Malformed polynomial text; ``offset`` is the 1-based byte position."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} at offset {offset}")
        self.offset = offset


class ZeroPolynomialError(PolynomialError):
    """An operation that requires a nonzero polynomial received zero."""


@dataclass(frozen=True, slots=True)
class Monomial:
    """A power product x^a * y^b * z^c * w^d with non-negative exponents."""

    exponents: tuple[int, int, int, int]

    def __post_init__(self):
        if len(self.exponents) != 4 or any(e < 0 for e in self.exponents):
            raise ValueError(f"bad exponent tuple {self.exponents!r}")

    @property
    def degree(self) -> int:
        return sum(self.exponents)

    def weighted_degree(self, weights) -> int:
        return sum(e * w for e, w in zip(self.exponents, weights))

    def sort_key(self):
        # Degree-lexicographic with x > y > z > w.
        return (self.degree, self.exponents)

    def __mul__(self, other: "Monomial") -> "Monomial":
        return Monomial(tuple(a + b for a, b in zip(self.exponents, other.exponents)))

    def divides(self, other: "Monomial") -> bool:
        return all(a <= b for a, b in zip(self.exponents, other.exponents))

    def __truediv__(self, other: "Monomial") -> "Monomial":
        if not other.divides(self):
            raise ValueError(f"{other} does not divide {self}")
        return Monomial(tuple(a - b for a, b in zip(self.exponents, other.exponents)))

    def variables(self) -> frozenset[str]:
        return frozenset(v for v, e in zip(VARIABLES, self.exponents) if e > 0)

    def __str__(self) -> str:
        if self.degree == 0:
            return "1"
        parts = []
        for name, e in zip(VARIABLES, self.exponents):
            if e == 1:
                parts.append(name)
            elif e > 1:
                parts.append(f"{name}^{e}")
        return "*".join(parts)

    def __repr__(self) -> str:
        return f"Monomial({str(self)})"


MONOMIAL_ONE = Monomial((0, 0, 0, 0))


def monomial(x: int = 0, y: int = 0, z: int = 0, w: int = 0) -> Monomial:
    return Monomial((x, y, z, w))


Scalar = Union[int, Fraction]


class Polynomial:
    """Immutable sparse polynomial over Q in x, y, z, w."""

    __slots__ = ("_terms", "_hash")

    def __init__(self, terms: Mapping[Monomial, Scalar] = ()):
        table: dict[Monomial, Fraction] = {}
        items = terms.items() if isinstance(terms, Mapping) else terms
        for mono, coeff in items:
            coeff = Fraction(coeff)
            if coeff == 0:
                continue
            acc = table.get(mono, Fraction(0)) + coeff
            if acc == 0:
                table.pop(mono, None)
            else:
                table[mono] = acc
        object.__setattr__(self, "_terms", table)
        object.__setattr__(self, "_hash", None)

    # -- constructors -----------------------------------------------------

    @staticmethod
    def zero() -> "Polynomial":
        return Polynomial()

    @staticmethod
    def one() -> "Polynomial":
        return Polynomial({MONOMIAL_ONE: 1})

    @staticmethod
    def constant(value: Scalar) -> "Polynomial":
        return Polynomial({MONOMIAL_ONE: Fraction(value)})

    @staticmethod
    def variable(name: str) -> "Polynomial":
        if name not in _VAR_INDEX:
            raise PolynomialError(f"unknown variable {name!r}")
        exps = [0, 0, 0, 0]
        exps[_VAR_INDEX[name]] = 1
        return Polynomial({Monomial(tuple(exps)): 1})

    # -- inspection --------------------------------------------------------

    def is_zero(self) -> bool:
        return not self._terms

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __len__(self) -> int:
        return len(self._terms)

    def terms(self) -> Iterator[tuple[Monomial, Fraction]]:
        """Terms in canonical order (degree-lex, highest first)."""
        for mono in sorted(self._terms, key=Monomial.sort_key, reverse=True):
            yield mono, self._terms[mono]

    def support(self) -> frozenset[Monomial]:
        return frozenset(self._terms)

    def coefficient(self, mono: Monomial) -> Fraction:
        return self._terms.get(mono, Fraction(0))

    def degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        if not self._terms:
            return -1
        return max(m.degree for m in self._terms)

    def variables(self) -> frozenset[str]:
        used: set[str] = set()
        for mono in self._terms:
            used |= mono.variables()
        return frozenset(used)

    def is_monomial(self) -> bool:
        return len(self._terms) == 1

    def leading_monomial(self) -> Monomial:
        if not self._terms:
            raise ZeroPolynomialError("zero polynomial has no leading monomial")
        return max(self._terms, key=Monomial.sort_key)

    # -- ring structure ----------------------------------------------------

    def __add__(self, other: "Polynomial") -> "Polynomial":
        table = dict(self._terms)
        for mono, coeff in other._terms.items():
            acc = table.get(mono, Fraction(0)) + coeff
            if acc == 0:
                table.pop(mono, None)
            else:
                table[mono] = acc
        return _raw(table)

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        table = dict(self._terms)
        for mono, coeff in other._terms.items():
            acc = table.get(mono, Fraction(0)) - coeff
            if acc == 0:
                table.pop(mono, None)
            else:
                table[mono] = acc
        return _raw(table)

    def __neg__(self) -> "Polynomial":
        return _raw({m: -c for m, c in self._terms.items()})

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        table: dict[Monomial, Fraction] = {}
        for m1, c1 in self._terms.items():
            for m2, c2 in other._terms.items():
                mono = m1 * m2
                acc = table.get(mono, Fraction(0)) + c1 * c2
                if acc == 0:
                    table.pop(mono, None)
                else:
                    table[mono] = acc
        return _raw(table)

    def scale(self, value: Scalar) -> "Polynomial":
        value = Fraction(value)
        if value == 0:
            return Polynomial.zero()
        return _raw({m: c * value for m, c in self._terms.items()})

    def __pow__(self, exponent: int) -> "Polynomial":
        if exponent < 0:
            raise PolynomialError("negative exponent")
        result = Polynomial.one()
        base = self
        n = exponent
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __eq__(self, other) -> bool:
        return isinstance(other, Polynomial) and self._terms == other._terms

    def __hash__(self) -> int:
        if self._hash is None:
            object.__setattr__(self, "_hash", hash(frozenset(self._terms.items())))
        return self._hash

    def __setattr__(self, name, value):
        raise AttributeError("Polynomial is immutable")

    # -- calculus / evaluation ----------------------------------------------

    def partial(self, var: str) -> "Polynomial":
        """Exact partial derivative with respect to ``var``."""
        idx = _VAR_INDEX[var]
        table: dict[Monomial, Fraction] = {}
        for mono, coeff in self._terms.items():
            e = mono.exponents[idx]
            if e == 0:
                continue
            exps = list(mono.exponents)
            exps[idx] = e - 1
            new = Monomial(tuple(exps))
            table[new] = table.get(new, Fraction(0)) + coeff * e
        return _raw({m: c for m, c in table.items() if c != 0})

    def evaluate(self, point) -> Fraction:
        """Evaluate at a rational 4-tuple (order x, y, z, w)."""
        values = [Fraction(v) for v in point]
        total = Fraction(0)
        for mono, coeff in self._terms.items():
            factor = coeff
            for v, e in zip(values, mono.exponents):
                if e:
                    factor *= v ** e
            total += factor
        return total

    def substitute(self, sub: "Substitution | Mapping[str, Polynomial]") -> "Polynomial":
        if not isinstance(sub, Substitution):
            sub = Substitution.from_mapping(sub)
        images = sub.images
        result = Polynomial.zero()
        for mono, coeff in self._terms.items():
            term = Polynomial.constant(coeff)
            for img, e in zip(images, mono.exponents):
                if e:
                    term = term * img ** e
            result = result + term
        return result

    def __str__(self) -> str:
        return format_poly(self)

    def __repr__(self) -> str:
        return f"Polynomial({format_poly(self)})"


def _raw(table: dict[Monomial, Fraction]) -> Polynomial:
    poly = Polynomial.__new__(Polynomial)
    object.__setattr__(poly, "_terms", table)
    object.__setattr__(poly, "_hash", None)
    return poly


@dataclass(frozen=True, slots=True)
class Substitution:
    """A replacement for each of the four ambient variables."""

    images: tuple[Polynomial, Polynomial, Polynomial, Polynomial]

    @staticmethod
    def identity() -> "Substitution":
        return Substitution(tuple(Polynomial.variable(v) for v in VARIABLES))

    @staticmethod
    def from_mapping(mapping: Mapping[str, "Polynomial | str"]) -> "Substitution":
        """Build from a partial mapping; unlisted variables stay fixed."""
        images = [Polynomial.variable(v) for v in VARIABLES]
        for name, image in mapping.items():
            if name not in _VAR_INDEX:
                raise PolynomialError(f"unknown variable {name!r}")
            if isinstance(image, str):
                image = parse_poly(image)
            images[_VAR_INDEX[name]] = image
        return Substitution(tuple(images))

    def __call__(self, p: Polynomial) -> Polynomial:
        return p.substitute(self)

    def __str__(self) -> str:
        parts = []
        for name, image in zip(VARIABLES, self.images):
            if image != Polynomial.variable(name):
                parts.append(f"{name} -> {image}")
        return "; ".join(parts) if parts else "identity"


@dataclass(frozen=True, slots=True)
class QuasiFailure:
    """Witness that a polynomial is not quasi-homogeneous: two terms of
    different weighted degree."""

    term_a: Monomial
    degree_a: int
    term_b: Monomial
    degree_b: int

    def __str__(self) -> str:
        return (
            f"not quasi-homogeneous: {self.term_a} has weighted degree "
            f"{self.degree_a} but {self.term_b} has {self.degree_b}"
        )


def quasi_degree(p: Polynomial, weights) -> "int | QuasiFailure":
    """Weighted degree of ``p`` if it is quasi-homogeneous for ``weights``.

    Returns the common degree, or a :class:`QuasiFailure` carrying two
    witness terms of different weighted degree.  The zero polynomial is
    rejected.
    """
    if p.is_zero():
        raise ZeroPolynomialError("quasi_degree of the zero polynomial")
    weights = tuple(weights)
    if len(weights) != 4 or any(w <= 0 for w in weights):
        raise PolynomialError(f"weights must be 4 positive integers, got {weights!r}")
    it = iter(p.terms())
    first, _ = next(it)
    degree = first.weighted_degree(weights)
    for mono, _ in it:
        d = mono.weighted_degree(weights)
        if d != degree:
            return QuasiFailure(first, degree, mono, d)
    return degree


# -- text I/O ----------------------------------------------------------------


class _Tokenizer:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def offset(self) -> int:
        # 1-based position of the next significant character.
        self.skip_ws()
        return self.pos + 1

    def take(self) -> str:
        ch = self.peek()
        self.pos += 1
        return ch

    def read_uint(self, what: str) -> int:
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        if self.pos == start:
            raise PolySyntaxError(f"expected {what}", start + 1)
        return int(self.text[start : self.pos])


def parse_poly_terms(text: str) -> tuple[Polynomial, ...]:
    """Parse into one polynomial per written term, preserving the order in
    which the terms appear in the text."""
    tok = _Tokenizer(text)
    terms: list[Polynomial] = []
    sign = 1
    ch = tok.peek()
    if ch == "":
        raise PolySyntaxError("empty input", tok.offset())
    if ch in "+-":
        if ch == "-":
            sign = -1
        tok.take()
    while True:
        terms.append(_parse_term(tok).scale(sign))
        ch = tok.peek()
        if ch == "":
            return tuple(terms)
        if ch == "+":
            sign = 1
        elif ch == "-":
            sign = -1
        else:
            raise PolySyntaxError(f"expected '+' or '-', found {ch!r}", tok.offset())
        tok.take()


def parse_poly(text: str) -> Polynomial:
    """Parse the polynomial grammar; raises :class:`PolySyntaxError` with a
    1-based byte offset on malformed input."""
    result = Polynomial.zero()
    for term in parse_poly_terms(text):
        result = result + term
    return result


def _parse_factor(tok: _Tokenizer) -> Polynomial:
    ch = tok.peek()
    if ch not in _VAR_INDEX:
        found = f", found {ch!r}" if ch else ""
        raise PolySyntaxError(f"expected variable{found}", tok.offset())
    tok.take()
    exponent = 1
    if tok.peek() == "^":
        tok.take()
        exponent = tok.read_uint("exponent")
    return Polynomial.variable(ch) ** exponent


def _parse_term(tok: _Tokenizer) -> Polynomial:
    coeff = Fraction(1)
    if tok.peek().isdigit():
        num = tok.read_uint("coefficient")
        coeff = Fraction(num)
        if tok.peek() == "/":
            tok.take()
            den_off = tok.offset()
            den = tok.read_uint("denominator")
            if den == 0:
                raise PolySyntaxError("zero denominator", den_off)
            coeff = Fraction(num, den)
        if tok.peek() != "*":
            return Polynomial.constant(coeff)
        tok.take()
    factors = _parse_factor(tok)
    while tok.peek() == "*":
        tok.take()
        factors = factors * _parse_factor(tok)
    return factors.scale(coeff)


def _format_coeff(coeff: Fraction) -> str:
    return str(coeff) if coeff.denominator != 1 else str(coeff.numerator)


def format_poly(p: Polynomial) -> str:
    """Canonical text form: degree-lex order x > y > z > w, highest first."""
    if p.is_zero():
        return "0"
    pieces: list[str] = []
    for index, (mono, coeff) in enumerate(p.terms()):
        magnitude = abs(coeff)
        if mono.degree == 0:
            body = _format_coeff(magnitude)
        elif magnitude == 1:
            body = str(mono)
        else:
            body = f"{_format_coeff(magnitude)}*{mono}"
        if index == 0:
            pieces.append(body if coeff > 0 else f"-{body}")
        else:
            pieces.append(f"+ {body}" if coeff > 0 else f"- {body}")
    return " ".join(pieces)
