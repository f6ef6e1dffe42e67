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

Each kernel builds its result in one table of terms.  ``parse_poly`` splits
the text with one regular expression into tokens (a run of decimal digits or
any other non-space character) and walks them in one grammar loop, straight
into exponent tuples and coefficients; a token's offset is found only to
report an error.  ``format_poly`` sorts the terms once and prints each
coefficient from its integer numerator and denominator.  ``**`` squares
only up to the top bit of the exponent; ``substitute`` forms each image
power ``img ** e`` at most once per call, and applies an image of one term
(a variable, a constant, ``c*x`` or zero) term-wise, with no polynomial
product; ``restrict`` sets coordinates to 0 or 1 by dropping terms and
clearing exponents.
"""

from __future__ import annotations

import re
from collections import namedtuple
from fractions import Fraction
from typing import Iterator, Mapping, NamedTuple, Union

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


class Monomial(namedtuple("Monomial", "exponents")):
    """A power product x^a * y^b * z^c * w^d with non-negative exponents."""

    __slots__ = ()

    def __new__(cls, exponents: tuple[int, int, int, int]):
        self = tuple.__new__(cls, (exponents,))
        if len(self.exponents) != 4 or any(e < 0 for e in self.exponents):
            raise ValueError(f"bad exponent tuple {self.exponents!r}")
        return self

    @property
    def degree(self) -> int:
        return sum(self.exponents)

    def weighted_degree(self, weights) -> int:
        return sum(e * w for e, w in zip(self.exponents, weights))

    def sort_key(self):
        # Degree-lexicographic with x > y > z > w.
        return (self.degree, self.exponents)

    def __mul__(self, other: "Monomial") -> "Monomial":
        a, b = self.exponents, other.exponents
        return _monomial((a[0] + b[0], a[1] + b[1], a[2] + b[2], a[3] + b[3]))

    def divides(self, other: "Monomial") -> bool:
        return all(a <= b for a, b in zip(self.exponents, other.exponents))

    def __truediv__(self, other: "Monomial") -> "Monomial":
        if not other.divides(self):
            raise ValueError(f"{other} does not divide {self}")
        return Monomial(tuple(a - b for a, b in zip(self.exponents, other.exponents)))

    def variables(self) -> frozenset[str]:
        return frozenset(v for v, e in zip(VARIABLES, self.exponents) if e > 0)

    def __str__(self) -> str:
        return _monomial_text(self.exponents)

    def __repr__(self) -> str:
        return f"Monomial({str(self)})"


def _monomial(exponents: tuple[int, int, int, int]) -> Monomial:
    # Unchecked constructor for exponent tuples known to be valid, such as
    # the sum of two valid tuples.
    return tuple.__new__(Monomial, (exponents,))


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
            _add_term(table, mono, Fraction(coeff))
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
            _add_term(table, mono, coeff)
        return _raw(table)

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        table = dict(self._terms)
        for mono, coeff in other._terms.items():
            _add_term(table, mono, -coeff)
        return _raw(table)

    def __neg__(self) -> "Polynomial":
        return _raw({m: -c for m, c in self._terms.items()})

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        table: dict[Monomial, Fraction] = {}
        right = other._terms.items()
        for m1, c1 in self._terms.items():
            for m2, c2 in right:
                _add_term(table, m1 * m2, c1 * c2)
        return _raw(table)

    def scale(self, value: Scalar) -> "Polynomial":
        value = Fraction(value)
        if value == 0:
            return Polynomial.zero()
        return _raw({m: c * value for m, c in self._terms.items()})

    def __pow__(self, exponent: int) -> "Polynomial":
        if exponent < 0:
            raise PolynomialError("negative exponent")
        result = None
        base = self
        n = exponent
        while n:
            if n & 1:
                result = base if result is None else result * base
            n >>= 1
            if n:
                base = base * base
        return Polynomial.one() if result is None else result

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
        """Evaluate at a rational 4-tuple (order x, y, z, w).

        ``int`` and ``Fraction`` coordinates are used as given; a term with
        a zero coordinate is skipped, and each power v**e is formed once
        per call.
        """
        values = [v if type(v) is int or type(v) is Fraction else Fraction(v) for v in point]
        powers: dict[tuple[int, int], int | Fraction] = {}
        total = Fraction(0)
        for mono, coeff in self._terms.items():
            factor = coeff
            for i, e in enumerate(mono.exponents):
                if e:
                    if not values[i]:
                        break
                    power = powers.get((i, e))
                    if power is None:
                        power = powers[i, e] = values[i] ** e
                    factor *= power
            else:
                total += factor
        return total

    def substitute(self, sub: "Substitution | Mapping[str, Polynomial]") -> "Polynomial":
        """Replace each variable by its image under ``sub``.

        An image of one term c*m is applied term-wise (coefficient times
        c**e, exponents plus e*m; a zero image drops the term); the powers
        of longer images are formed once per (variable, exponent).
        """
        if not isinstance(sub, Substitution):
            sub = Substitution.from_mapping(sub)
        images = sub.images
        powers: dict[tuple[int, int], Polynomial] = {}
        table: dict[Monomial, Fraction] = {}
        for mono, coeff in self._terms.items():
            shift = [0, 0, 0, 0]
            factor = None
            for i, e in enumerate(mono.exponents):
                if not e:
                    continue
                image = images[i]._terms
                if len(image) == 1:
                    ((m, c),) = image.items()
                    if c != 1:
                        coeff = coeff * c**e
                    for j, a in enumerate(m.exponents):
                        shift[j] += a * e
                elif not image:
                    break
                else:
                    power = powers.get((i, e))
                    if power is None:
                        power = powers[(i, e)] = images[i] ** e
                    factor = power if factor is None else factor * power
            else:
                base = _monomial(tuple(shift))
                if factor is None:
                    _add_term(table, base, coeff)
                else:
                    for m, c in factor._terms.items():
                        _add_term(table, base * m, coeff * c)
        return _raw(table)

    def restrict(self, zero, one) -> "Polynomial":
        """Set the coordinates at the indices ``zero`` to 0 and those at
        ``one`` to 1: a term that uses a zeroed coordinate is dropped, and
        the exponents at ``one`` are cleared in the others."""
        table: dict[Monomial, Fraction] = {}
        for mono, coeff in self._terms.items():
            exps = mono.exponents
            if any(exps[i] for i in zero):
                continue
            if any(exps[i] for i in one):
                mono = _monomial(tuple(0 if i in one else e for i, e in enumerate(exps)))
            _add_term(table, mono, coeff)
        return _raw(table)

    def __str__(self) -> str:
        return format_poly(self)

    def __repr__(self) -> str:
        return f"Polynomial({format_poly(self)})"


def _raw(table: dict[Monomial, Fraction]) -> Polynomial:
    poly = Polynomial.__new__(Polynomial)
    object.__setattr__(poly, "_terms", table)
    object.__setattr__(poly, "_hash", None)
    return poly


def _add_term(table: dict[Monomial, Fraction], mono: Monomial, coeff: Fraction) -> None:
    # Add coeff*mono into table, keeping no zero coefficient.
    acc = table.get(mono)
    if acc is not None:
        coeff = acc + coeff
    if coeff:
        table[mono] = coeff
    elif acc is not None:
        del table[mono]


#: The images of the identity substitution, x -> x, ..., w -> w.
_IDENTITY_IMAGES = tuple(Polynomial.variable(v) for v in VARIABLES)


class Substitution(NamedTuple):
    """A replacement for each of the four ambient variables."""

    images: tuple[Polynomial, Polynomial, Polynomial, Polynomial]

    @staticmethod
    def identity() -> "Substitution":
        return Substitution(_IDENTITY_IMAGES)

    @staticmethod
    def from_mapping(mapping: Mapping[str, "Polynomial | str"]) -> "Substitution":
        """Build from a partial mapping; unlisted variables stay fixed."""
        images = list(_IDENTITY_IMAGES)
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
        for name, image, fixed in zip(VARIABLES, self.images, _IDENTITY_IMAGES):
            if image != fixed:
                parts.append(f"{name} -> {image}")
        return "; ".join(parts) if parts else "identity"


class QuasiFailure(NamedTuple):
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


#: One token per maximal run of decimal digits or per other non-space
#: character.  ``\d`` and ``\s`` agree with ``str.isdecimal`` and
#: ``str.isspace`` on every code point.
_TOKEN = re.compile(r"\d+|\S")
_ONE = Fraction(1)
_MINUS_ONE = Fraction(-1)


def _offset(text: str, index: int) -> int:
    # 1-based position of token ``index``, or one past the end of the text.
    for i, match in enumerate(_TOKEN.finditer(text)):
        if i == index:
            return match.start() + 1
    return len(text) + 1


def _uint(text: str, tokens: list[str], index: int, what: str) -> int:
    try:
        return int(tokens[index])
    except ValueError:  # not a digit run, or more digits than int() converts
        problem = f"{what} too long" if tokens[index].isdecimal() else f"expected {what}"
        raise PolySyntaxError(problem, _offset(text, index)) from None


def _scan_terms(text: str) -> list[tuple[Monomial, Fraction]]:
    # Each written term as (monomial, signed coefficient), in text order.
    tokens = _TOKEN.findall(text)
    end = len(tokens)
    if not end:
        raise PolySyntaxError("empty input", len(text) + 1)
    tokens.append("")  # end marker, equal to no symbol of the grammar
    negative = tokens[0] == "-"
    i = 1 if negative or tokens[0] == "+" else 0
    terms = []
    while True:
        has_factors = True
        if tokens[i].isdecimal():
            num = _uint(text, tokens, i, "coefficient")
            num = -num if negative else num
            if tokens[i + 1] == "/":
                i += 2
                den = _uint(text, tokens, i, "denominator")
                if not den:
                    raise PolySyntaxError("zero denominator", _offset(text, i))
                coeff = Fraction(num, den)
            else:
                coeff = Fraction(num)
            i += 1
            has_factors = tokens[i] == "*"
            if has_factors:
                i += 1
        else:
            coeff = _MINUS_ONE if negative else _ONE
        mono = MONOMIAL_ONE
        if has_factors:
            exps = [0, 0, 0, 0]
            while True:
                tok = tokens[i]
                var = _VAR_INDEX.get(tok)
                if var is None:
                    found = f", found {tok[0]!r}" if tok else ""
                    raise PolySyntaxError(f"expected variable{found}", _offset(text, i))
                if tokens[i + 1] == "^":
                    exps[var] += _uint(text, tokens, i + 2, "exponent")
                    i += 3
                else:
                    exps[var] += 1
                    i += 1
                if tokens[i] != "*":
                    break
                i += 1
            mono = _monomial(tuple(exps))
        terms.append((mono, coeff))
        tok = tokens[i]
        if tok == "+" or tok == "-":
            negative = tok == "-"
        elif i == end:
            return terms
        else:
            raise PolySyntaxError(f"expected '+' or '-', found {tok[0]!r}", _offset(text, i))
        i += 1


def parse_poly_terms(text: str) -> tuple[Polynomial, ...]:
    """Parse into one polynomial per written term, preserving the order in
    which the terms appear in the text."""
    return tuple(_raw({mono: coeff} if coeff else {}) for mono, coeff in _scan_terms(text))


def parse_poly(text: str) -> Polynomial:
    """Parse the polynomial grammar; raises :class:`PolySyntaxError` with a
    1-based byte offset on malformed input."""
    table: dict[Monomial, Fraction] = {}
    for mono, coeff in _scan_terms(text):
        _add_term(table, mono, coeff)
    return _raw(table)


def _monomial_text(exponents: tuple[int, int, int, int]) -> str:
    # x^a*y^b*z^c*w^d without the zero exponents and with ^1 left out.
    try:
        text = "*".join(
            [name if e == 1 else f"{name}^{e}" for name, e in zip(VARIABLES, exponents) if e]
        )
    except ValueError:  # str(int) refuses numbers past the interpreter's digit limit
        raise PolynomialError("exponent has too many digits to print") from None
    return text or "1"


def _degree_lex(term: tuple[Monomial, Fraction]) -> tuple:
    exps = term[0].exponents
    return (sum(exps), exps)


def format_poly(p: Polynomial) -> str:
    """Canonical text form: degree-lex order x > y > z > w, highest first."""
    if not p._terms:
        return "0"
    pieces: list[str] = []
    for mono, coeff in sorted(p._terms.items(), key=_degree_lex, reverse=True):
        num, den = coeff.numerator, coeff.denominator
        magnitude = -num if num < 0 else num
        exps = mono.exponents
        if magnitude == 1 and den == 1 and any(exps):
            body = _monomial_text(exps)
        else:
            try:
                body = str(magnitude) if den == 1 else f"{magnitude}/{den}"
            except ValueError:
                raise PolynomialError("coefficient has too many digits to print") from None
            if any(exps):
                body = f"{body}*{_monomial_text(exps)}"
        if pieces:
            pieces.append(f"+ {body}" if num > 0 else f"- {body}")
        else:
            pieces.append(body if num > 0 else f"-{body}")
    return " ".join(pieces)
