r"""Exact sparse polynomial arithmetic in the fixed ambient ring Q[x,y,z,w].

Every polynomial in this package lives in at most four variables: monomials
are exponent 4-tuples for (x, y, z, w), with zeros on unused coordinates,
and coefficients are exact rationals.

The text grammar is::

    poly   := ['+'|'-'] term (('+'|'-') term)*
    term   := coeff ['*' factors] | factors
    factors:= factor ('*' factor)*
    factor := var ['^' uint]
    coeff  := uint ['/' uint]
    var    := 'x'|'y'|'z'|'w'   (uppercase accepted, normalised to lowercase)

A digit is any Unicode decimal digit and whitespace, any Unicode space, is
insignificant; error offsets count characters.  ``parse_poly`` and ``format_poly``
are mutually inverse on canonical forms; printing uses the degree-lexicographic
order with x > y > z > w, highest term first.

A :class:`Polynomial` maps packed exponent keys to integer numerators over
one positive denominator shared by every term and kept prime to their gcd,
so equal polynomials have equal tables.  A key has five fields of one
width: the total degree on top, then the exponents of x, y, z, w.  So a
monomial product is one integer sum and integer order is degree-lex order.
The width is 12 bits, or the bit length of the degree when that is larger:
a kernel repacks its operands when a result would overflow them, and each
result takes the width of its own degree.  A ``Fraction`` or a
:class:`Monomial` is built only at the API boundary: the constructor,
``terms``, ``coefficient``, ``support``, ``leading_monomial`` and the value
of ``evaluate``; ``jet`` returns ``int``s.
``substitute`` takes a mapping from variable name to image polynomial, and
the variables it does not name stay fixed.

The kernels build one integer table per result (S. C. Johnson, SIGSAM Bull.
8(3), 1974; M. Monagan and R. Pearce, J. Symbolic Comput. 46(7), 2011).
``parse_poly`` drops the whitespace in one pass (once none parts two digit
runs), splits the terms on the signs and the factors on '*', and sums each
term's factor keys from a table filled once per call; a refused text is
walked token by token only to name its error and offset.  ``format_poly``
takes each variable's ``v^e`` text from a per-call table keyed by exponent.
"""

from __future__ import annotations

import re
from collections import namedtuple
from fractions import Fraction
from functools import reduce
from math import gcd, lcm
from itertools import repeat
from operator import floordiv, mul, or_
from typing import Iterator, Mapping, Union

from ._errors import StrangedualError

VARIABLES = ("x", "y", "z", "w")
_VAR_INDEX = {name: i for i, name in enumerate(VARIABLES)}
_VAR_INDEX.update({name.upper(): i for i, name in enumerate(VARIABLES)})


class PolynomialError(StrangedualError):
    """Base class for errors raised by this module."""


class PolySyntaxError(PolynomialError):
    """Malformed polynomial text; ``offset`` is the 1-based character index."""

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

    def variables(self) -> frozenset[str]:
        return frozenset(v for v, e in zip(VARIABLES, self.exponents) if e > 0)

    def __str__(self) -> str:
        return "".join([_Powers(v)[e] for v, e in zip(VARIABLES, self.exponents)])[:-1] or "1"

    def __repr__(self) -> str:
        return f"Monomial({str(self)})"


def _monomial(exponents: tuple[int, int, int, int]) -> Monomial:
    # Unchecked constructor for exponent tuples known to be valid, such as
    # the sum of two valid tuples.
    return tuple.__new__(Monomial, (exponents,))


Scalar = Union[int, Fraction]

#: The least field width of a packed key, in bits.
_WIDTH = 12


#: The key of each variable at the least width, by name in either case.
_UNIT_KEYS = {name: 1 << 4 * _WIDTH | 1 << (3 - i) * _WIDTH for name, i in _VAR_INDEX.items()}


def _width(degree: int) -> int:
    return max(_WIDTH, degree.bit_length())


def _pack(exps, width: int) -> int:
    a, b, c, d = exps
    return ((((a + b + c + d) << width | a) << width | b) << width | c) << width | d


def _unpack(key: int, width: int) -> tuple[int, int, int, int]:
    mask = (1 << width) - 1
    return (key >> 3 * width & mask, key >> 2 * width & mask, key >> width & mask, key & mask)


def _repack(table: dict, width: int, new: int) -> dict:
    if new == width:
        return table
    return {_pack(_unpack(key, width), new): c for key, c in table.items()}


def _ratio(value) -> tuple[int, int]:
    # Numerator and denominator of an int, a Fraction or what Fraction() reads.
    if type(value) is not int and type(value) is not Fraction:
        value = Fraction(value)
    return value.numerator, value.denominator


def _fraction(num: int, den: int) -> Fraction:
    return Fraction(num) if den == 1 else Fraction(num, den)


class Polynomial:
    """Immutable sparse polynomial over Q in x, y, z, w."""

    __slots__ = ("_terms", "_den", "_width")

    def __new__(cls, terms: Mapping[Monomial, Scalar] = ()):
        items = terms.items() if isinstance(terms, Mapping) else terms
        return _collect([(mono.exponents, *_ratio(coeff)) for mono, coeff in items])

    # -- constructors -----------------------------------------------------

    @staticmethod
    def zero() -> "Polynomial":
        return _wrap({}, 1, _WIDTH)

    @staticmethod
    def one() -> "Polynomial":
        return _wrap({0: 1}, 1, _WIDTH)

    @staticmethod
    def constant(value: Scalar) -> "Polynomial":
        return Polynomial.one().scale(value)

    @staticmethod
    def variable(name: str) -> "Polynomial":
        if name not in _VAR_INDEX:
            raise PolynomialError(f"unknown variable {name!r}")
        return _wrap({_UNIT_KEYS[name]: 1}, 1, _WIDTH)

    # -- inspection --------------------------------------------------------

    def is_zero(self) -> bool:
        return not self._terms

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __len__(self) -> int:
        return len(self._terms)

    def terms(self) -> Iterator[tuple[Monomial, Fraction]]:
        """Terms in canonical order (degree-lex, highest first)."""
        table, den, width = self._terms, self._den, self._width
        for key in sorted(table, reverse=True):
            yield _monomial(_unpack(key, width)), _fraction(table[key], den)

    def support(self) -> frozenset[Monomial]:
        return frozenset(_monomial(_unpack(key, self._width)) for key in self._terms)

    def coefficient(self, mono: Monomial) -> Fraction:
        exps, width = mono.exponents, self._width
        if sum(exps) >> width:  # past the field width, so past the degree
            return Fraction(0)
        return _fraction(self._terms.get(_pack(exps, width), 0), self._den)

    def degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        return max(self._terms) >> 4 * self._width if self._terms else -1

    def variables(self) -> frozenset[str]:
        # A field of the bitwise or of the keys is nonzero when some key's is.
        used = _unpack(reduce(or_, self._terms, 0), self._width)
        return frozenset(name for name, e in zip(VARIABLES, used) if e)

    def is_monomial(self) -> bool:
        return len(self._terms) == 1

    def leading_monomial(self) -> Monomial:
        if not self._terms:
            raise ZeroPolynomialError("zero polynomial has no leading monomial")
        return _monomial(_unpack(max(self._terms), self._width))

    # -- ring structure ----------------------------------------------------

    def __add__(self, other: "Polynomial") -> "Polynomial":
        return _sum(self, other, 1)

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return _sum(self, other, -1)

    def __neg__(self) -> "Polynomial":
        return _wrap({key: -c for key, c in self._terms.items()}, self._den, self._width)

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        a, b = self._terms, other._terms
        if not a or not b:
            return Polynomial.zero()
        # Leading terms never cancel, so the degrees add.
        width = _width((max(a) >> 4 * self._width) + (max(b) >> 4 * other._width))
        a, b = _repack(a, self._width, width), _repack(b, other._width, width)
        return _new(_product(a, b), self._den * other._den, width)

    def scale(self, value: Scalar) -> "Polynomial":
        num, den = _ratio(value)
        if not num:
            return Polynomial.zero()
        return _new({key: c * num for key, c in self._terms.items()}, self._den * den, self._width)

    def __pow__(self, exponent: int) -> "Polynomial":
        if exponent < 0:
            raise PolynomialError("negative exponent")
        if not exponent:
            return Polynomial.one()
        table, width = self._terms, self._width
        if not table:
            return self
        wide = _width((max(table) >> 4 * width) * exponent)
        table = _repack(table, width, wide)
        # The content of a power is the power of the content (Gauss's lemma),
        # so it stays prime to the power of the denominator.
        return _wrap(_power(table, exponent), self._den**exponent, wide)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Polynomial) and self._den == other._den and self._terms == other._terms
        )

    def __hash__(self) -> int:
        return hash((self._den, frozenset(self._terms.items())))

    def __setattr__(self, name, value):
        raise AttributeError("Polynomial is immutable")

    # -- calculus / evaluation ----------------------------------------------

    def split(self, var: str) -> tuple["Polynomial", "Polynomial"]:
        """``(p0, p1)`` with ``self = p0 + var*p1`` and ``p0`` free of ``var``."""
        width = self._width
        shift = (3 - _VAR_INDEX[var]) * width
        field = ((1 << width) - 1) << shift
        step = 1 << 4 * width | 1 << shift
        free, rest = {}, {}
        for key, c in self._terms.items():
            if key & field:
                rest[key - step] = c
            else:
                free[key] = c
        return _new(free, self._den, width), _new(rest, self._den, width)

    def evaluate(self, point) -> Fraction:
        """Evaluate at a rational 4-tuple (order x, y, z, w): the value of
        :meth:`jet` as one ``Fraction``."""
        den, value, _ = self.jet(point)
        return _fraction(value, den)

    def jet(self, point, den: int = 1) -> tuple[int, int, tuple[int, int, int, int]]:
        """``(den, value, partials)``: the value and the four partials at the
        rational 4-tuple ``point``/``den`` (``den`` a positive integer) as
        integers over one positive denominator."""
        scale, value, partials = _jet(_rows(self), point, den)
        return scale * self._den, value, partials

    def substitute(self, images: Mapping[str, "Polynomial"]) -> "Polynomial":
        """Replace each variable named in ``images`` by its image; the
        variables not named stay fixed.

        With image i = N_i/q_i for an integer table N_i, a term with
        exponents e gets the factor N_i**e_i * q_i**(E_i - e_i), E_i the
        top exponent of variable i, so the result is one integer table over
        the denominator times the q_i**E_i.  Each factor is formed once per
        (variable, exponent).
        """
        slots = [None] * 4
        for name, image in images.items():
            if name not in _VAR_INDEX:
                raise PolynomialError(f"unknown variable {name!r}")
            slots[_VAR_INDEX[name]] = image
        terms, width, den = self._terms, self._width, self._den
        if not terms:
            return self
        mask = (1 << width) - 1
        reach = max(1 if image is None else image.degree() for image in slots)
        wide = _width((max(terms) >> 4 * width) * max(reach, 0))
        fields = []
        for i, image in enumerate(slots):
            shift = (3 - i) * width
            if image is None:  # a fixed variable: each power is a key shift
                q, table = 1, {1 << 4 * wide | 1 << (3 - i) * wide: 1}
            else:
                q, table = image._den, _repack(image._terms, image._width, wide)
            top = max([key >> shift & mask for key in terms]) if q != 1 else 0
            den *= q**top
            fields.append((shift, table, q, top, {}))
        result = {}
        for key, c in terms.items():
            moved = 0
            factor = None
            for shift, table, q, top, powers in fields:
                e = key >> shift & mask
                if not e and q == 1:
                    continue
                power = powers.get(e)
                if power is None:
                    power = powers[e] = _image_power(table, e, 1 if q == 1 else q ** (top - e))
                step, scale, extra = power
                if not scale:
                    break
                moved += step
                c *= scale
                if extra is not None:
                    factor = extra if factor is None else _product(factor, extra)
            else:
                if factor is None:
                    result[moved] = result.get(moved, 0) + c
                else:
                    for step, v in factor.items():
                        step += moved
                        result[step] = result.get(step, 0) + c * v
        return _new({key: c for key, c in result.items() if c}, den, wide)

    def __str__(self) -> str:
        return format_poly(self)

    def __repr__(self) -> str:
        return f"Polynomial({format_poly(self)})"


def _wrap(table: dict, den: int, width: int) -> Polynomial:
    poly = object.__new__(Polynomial)
    object.__setattr__(poly, "_terms", table)
    object.__setattr__(poly, "_den", den)
    object.__setattr__(poly, "_width", width)
    return poly


def _new(table: dict, den: int, width: int) -> Polynomial:
    # The polynomial of a table with no zero numerator, its denominator made
    # prime to the content and its width that of its degree.
    if den != 1:
        g = gcd(den, *table.values())
        if g != 1:
            den //= g
            table = {key: c // g for key, c in table.items()}
    if width != _WIDTH:
        fit = _width(max(table) >> 4 * width) if table else _WIDTH
        table, width = _repack(table, width, fit), fit
    return _wrap(table, den, width)


def _collect(rows) -> Polynomial:
    # The sum of the terms (exponents, numerator, denominator) of ``rows``.
    den, top = 1, 0
    for exps, num, d in rows:
        if num:
            if den % d:
                den = lcm(den, d)
            top = max(top, sum(exps))
    width = _width(top)
    table: dict[int, int] = {}
    for exps, num, d in rows:
        if num:
            key = _pack(exps, width)
            num = num * (den // d) + table.get(key, 0)
            if num:
                table[key] = num
            else:
                del table[key]
    return _new(table, den, width)


def _rows(p: Polynomial) -> list:
    # (mask, exponents, numerator) per term; mask bit k: the term uses x_k.
    width = p._width
    return [
        (sum(1 << k for k, e in enumerate(exps) if e), exps, c)
        for key, c in p._terms.items()
        for exps in [_unpack(key, width)]
    ]


def _part(p: Polynomial, exponents) -> Polynomial:
    # The terms of p with these exponents.
    keys = {_pack(e, p._width) for e in exponents}
    return _new({key: c for key, c in p._terms.items() if key in keys}, p._den, p._width)


def _jet(rows, point, den: int = 1) -> tuple:
    """:meth:`Polynomial.jet` of the terms ``rows`` (from :func:`_rows`).

    A coordinate p/q enters a term with exponent e as p**e * q**(E - e), E
    its variable's top exponent.  Only the terms that use no zero
    coordinate, or one with exponent 1, are visited; in the latter it
    stands in as 1, and the term times q is the one partial left.
    """
    ratios = [_ratio(v) for v in point]
    nums = [p for p, _ in ratios]
    dens = [q * den for _, q in ratios]
    zero = sum(1 << i for i, p in enumerate(nums) if not p)
    q0, q1, q2, q3 = dens
    t0, t1, t2, t3 = [max(column) for column in zip(*[row[1] for row in rows])] or (0, 0, 0, 0)
    a0, a1, a2, a3 = [p or 1 for p in nums]
    value, partials = 0, [0, 0, 0, 0]
    for mask, exps, c in rows:
        dead = mask & zero
        if dead and (dead & dead - 1 or exps[dead.bit_length() - 1] > 1):
            continue
        e0, e1, e2, e3 = exps
        term = c * a0**e0 * a1**e1 * a2**e2 * a3**e3
        term *= q0 ** (t0 - e0) * q1 ** (t1 - e1) * q2 ** (t2 - e2) * q3 ** (t3 - e3)
        if dead:
            j = dead.bit_length() - 1
            partials[j] += term * dens[j]
            continue
        value += term
        for i, e in enumerate(exps):
            if e:
                partials[i] += e * term * dens[i] // nums[i]
    return q0**t0 * q1**t1 * q2**t2 * q3**t3, value, tuple(partials)


def _sum(p: Polynomial, q: Polynomial, sign: int) -> Polynomial:
    width = max(p._width, q._width)
    a, b = _repack(p._terms, p._width, width), _repack(q._terms, q._width, width)
    den = lcm(p._den, q._den)
    scale = den // p._den
    table = dict(a) if scale == 1 else {key: c * scale for key, c in a.items()}
    scale = sign * (den // q._den)
    for key, c in b.items():
        c = c * scale + table.get(key, 0)
        if c:
            table[key] = c
        else:
            del table[key]
    return _new(table, den, width)


def _product(a: dict, b: dict) -> dict:
    # Product of two integer tables of one width: a key sum per pair of terms.
    if len(a) > len(b):
        a, b = b, a
    table: dict[int, int] = {}
    get = table.get
    inner = list(b.items())
    for k1, c1 in a.items():
        for k2, c2 in inner:
            key = k1 + k2
            table[key] = get(key, 0) + c1 * c2
    return {key: c for key, c in table.items() if c}


def _power(table: dict, n: int) -> dict:
    # table**n for n >= 1, squaring only up to the top bit of n.
    result = None
    while True:
        if n & 1:
            result = table if result is None else _product(result, table)
        n >>= 1
        if not n:
            return result
        table = _product(table, table)


def _image_power(table: dict, e: int, scale: int):
    # scale * table**e as (key shift, integer, table or None): a one-term
    # power is a shift and an integer, a zero image an integer 0.
    if not e:
        return 0, scale, None
    if len(table) != 1:
        return (0, 0, None) if not table else (0, scale, _power(table, e))
    ((key, c),) = table.items()
    return key * e, c**e * scale, None


class QuasiFailure(namedtuple("QuasiFailure", "term_a degree_a term_b degree_b")):
    """Witness that a polynomial is not quasi-homogeneous: two terms of
    different weighted degree."""

    __slots__ = ()

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
    width = p._width
    first, *rest = [_unpack(key, width) for key in sorted(p._terms, reverse=True)]
    degree = sum(e * w for e, w in zip(first, weights))
    for exps in rest:
        d = sum(e * w for e, w in zip(exps, weights))
        if d != degree:
            return QuasiFailure(_monomial(first), degree, _monomial(exps), d)
    return degree


# -- text I/O ----------------------------------------------------------------


#: A token is a run of decimal digits or another non-space character, and
#: whitespace merges tokens only between two digit runs.  ``\d`` and ``\s``
#: agree with ``str.isdecimal`` and ``str.isspace`` on every code point.
_TOKEN = re.compile(r"\d+|\S")


class _FactorKeys(dict):
    # The packed key of each factor text ``v`` or ``v^e`` at ``width``,
    # formed on its first use in one call; a malformed factor raises.
    width = _WIDTH

    def __missing__(self, factor: str) -> int:
        var = _VAR_INDEX[factor[:1]]
        if len(factor) == 1:
            e = 1
        elif factor[1] == "^" and factor[2:].isdecimal():
            e = int(factor[2:])  # ValueError past int()'s digit limit
        else:
            raise ValueError(factor)
        w = self.width
        key = self[factor] = (e << 4 * w) + (e << (3 - var) * w)
        return key


def _read(text: str, each: bool):
    # The polynomial of ``text`` or, with ``each``, the tuple of its terms.
    # isdecimal() precedes int(), which also reads '_' and signs.  A key sums
    # its factors' keys, so its degree field bounds the degree even past the
    # width; such a text is read again at the width of that bound.
    parts = text.replace(" + ", "+").replace(" - ", "-").split()
    if any(a[-1].isdecimal() and b[0].isdecimal() for a, b in zip(parts, parts[1:])):
        _refuse(text)
    pieces = "".join(parts).replace("-", "+-").split("+")
    if len(pieces) > 1 and not pieces[0]:  # a leading sign
        del pieces[0]
    width = _WIDTH
    factor_keys = _FactorKeys(_UNIT_KEYS)
    while True:
        factor_key = factor_keys.__getitem__
        keys, nums, dens = [], [], []
        try:
            for piece in pieces:
                factors = piece.split("*")
                head = factors[0]
                negative = head[:1] == "-"
                if negative:
                    head = factors[0] = head[1:]
                num = d = 1
                if head[:1] not in _VAR_INDEX:
                    num, slash, d = head.partition("/")
                    if not num.isdecimal() or slash and not d.isdecimal():
                        raise ValueError(head)
                    num, d = int(num), int(d) if slash else 1
                    if not d:
                        raise ValueError(head)
                    del factors[0]
                keys.append(sum(map(factor_key, factors)))
                nums.append(-num if negative else num)
                dens.append(d)
        except (KeyError, ValueError):
            _refuse(text)
        top = max(keys)
        if top < 1 << 5 * width:
            break
        width = _width(top >> 4 * width)
        factor_keys = _FactorKeys()
        factor_keys.width = width
    if each:
        return tuple(
            _new({key: c}, d, width) if c else Polynomial.zero() for key, c, d in zip(keys, nums, dens)
        )
    den = lcm(*dens)
    if den != 1:
        nums = list(map(mul, nums, map(floordiv, repeat(den), dens)))
    table = dict(zip(keys, nums))
    if len(table) < len(nums) or 0 in nums:  # repeated or zero terms
        table = {}
        for key, num in zip(keys, nums):
            num += table.get(key, 0)
            if num:
                table[key] = num
            else:
                table.pop(key, None)
    return _new(table, den, width)


def _refuse(text: str):
    # Raise the error of a text _read refused, found by a walk over its
    # tokens; the end marker "" is no symbol of the grammar.
    found = list(_TOKEN.finditer(text))
    tokens = [match[0] for match in found] + [""]
    offsets = [match.start() + 1 for match in found] + [len(text) + 1]
    end = len(found)

    def fail(message: str, index: int):
        raise PolySyntaxError(message, offsets[index])

    def uint(index: int, what: str) -> int:
        try:
            return int(tokens[index])
        except ValueError:  # not a digit run, or more digits than int() converts
            fail(f"{what} too long" if tokens[index].isdecimal() else f"expected {what}", index)

    if not end:
        fail("empty input", 0)
    i = tokens[0] in ("-", "+")
    while True:
        has_factors = True
        if tokens[i].isdecimal():
            uint(i, "coefficient")
            if tokens[i + 1] == "/":
                i += 2
                if not uint(i, "denominator"):
                    fail("zero denominator", i)
            i += 1
            has_factors = tokens[i] == "*"
            i += has_factors
        while has_factors:
            tok = tokens[i]
            if tok not in _VAR_INDEX:
                fail(f"expected variable{f', found {tok[0]!r}' if tok else ''}", i)
            if tokens[i + 1] == "^":
                uint(i + 2, "exponent")
                i += 2
            has_factors = tokens[i + 1] == "*"
            i += 1 + has_factors
        if i == end:
            raise AssertionError(f"_read refused the well-formed {text!r}")
        if tokens[i] not in ("+", "-"):
            fail(f"expected '+' or '-', found {tokens[i][0]!r}", i)
        i += 1


def parse_poly_terms(text: str) -> tuple[Polynomial, ...]:
    """Parse into one polynomial per written term, preserving the order in
    which the terms appear in the text."""
    return _read(text, True)


def parse_poly(text: str) -> Polynomial:
    """Parse the polynomial grammar; raises :class:`PolySyntaxError` with a
    1-based character offset on malformed input."""
    return _read(text, False)


class _Powers(dict):
    # The text "v^e*" (or "v*" for e = 1, "" for e = 0) of one variable
    # per exponent, formed on its first use in one call.
    __slots__ = ("name",)

    def __init__(self, name: str):
        self.name = name

    def __missing__(self, e: int) -> str:
        name = self.name
        try:
            text = self[e] = f"{name}^{e}*" if e > 1 else f"{name}*" if e else ""
        except ValueError:  # str(int) refuses numbers past the interpreter's digit limit
            raise PolynomialError("exponent has too many digits to print") from None
        return text


def format_poly(p: Polynomial) -> str:
    """Canonical text form: degree-lex order x > y > z > w, highest first."""
    table, den, width = p._terms, p._den, p._width
    if not table:
        return "0"
    mask = (1 << width) - 1
    sx, sy = 3 * width, 2 * width
    tx, ty, tz, tw = map(_Powers, VARIABLES)
    pieces = []
    for key in sorted(table, reverse=True):
        num = table[key]
        d = den
        if den != 1:
            g = gcd(num, den)
            num //= g
            d //= g
        magnitude = abs(num)
        coeff = ""
        if magnitude != 1 or d != 1 or not key:
            try:
                coeff = f"{magnitude}*" if d == 1 else f"{magnitude}/{d}*"
            except ValueError:
                raise PolynomialError("coefficient has too many digits to print") from None
        body = (
            f"{coeff}{tx[key >> sx & mask]}{ty[key >> sy & mask]}"
            f"{tz[key >> width & mask]}{tw[key & mask]}"
        )
        pieces.append(f" - {body[:-1]}" if num < 0 else f" + {body[:-1]}")
    text = "".join(pieces)
    return text[3:] if text[1] == "+" else "-" + text[3:]
