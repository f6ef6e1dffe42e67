"""Frozen copies of the character scanner behind ``series.parse_frame``
and of the remainder sequence behind ``UniPolynomial.primitive_gcd``.

The first is the frame-text reader as it stood before the one-pass token
reader: a nested per-side scanner over character indices.  The second is
the gcd as it stood before its coprimality test modulo a prime.  Both
are kept only as differential oracles for ``test_series.py`` and must
not change with the library.  ``FrameProduct``, ``FrameSyntaxError``,
``MAX_FRAME_BASE`` and ``UniPolynomial.primitive`` are the library's
own, which did not change.
"""

from __future__ import annotations

from math import gcd

from strangedual.series import MAX_FRAME_BASE, FrameProduct, FrameSyntaxError


def primitive_gcd(first, second) -> tuple[int, ...]:
    """Coefficients of the gcd of two ``UniPolynomial``s as coprime
    integers with a positive lead, by the primitive pseudo-remainder
    sequence alone."""
    a, b = list(first.primitive()), list(second.primitive())
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
    return tuple(-c for c in a) if a and a[-1] < 0 else tuple(a)


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
