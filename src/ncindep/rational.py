"""Exact rational scalars.

Every quantity the engine computes is an exact rational number, a
``fractions.Fraction``; floating point appears only in advisory decimal
renderings.  Rationals print as ``p/q`` (or a bare integer), hash
consistently, and interoperate with Python ints.  The trusted paths may
carry ``int``s, exact too, so that integer-graded states are valued in
integer arithmetic; the public entries return ``Fraction``s.
"""

from __future__ import annotations

import re
from fractions import Fraction as Rational

ZERO = Rational(0)
ONE = Rational(1)


def as_rational(value):
    """Coerce ``value`` to an exact rational.

    Accepts ints, strings such as ``"3"`` or ``"-3/4"``, and Fractions.
    Floats are rejected: silently converting a float would smuggle binary
    rounding error into an engine that promises exactness.  Booleans are
    rejected too: a flag read as the number 0 or 1 is a coercion, not a
    value.
    """
    if isinstance(value, (float, bool)):
        raise TypeError("refusing to coerce %s %r to an exact rational" % (type(value).__name__, value))
    if isinstance(value, str):
        return parse_rational(value)
    return Rational(value)


def product(values):
    """Product of exact values, starting from the first one; the ``int`` 1
    when there are none, so that a product of ints stays an ``int``."""
    values = iter(values)
    total = next(values, 1)
    for value in values:
        total *= value
    return total


_RATIONAL_RE = re.compile(r"[+-]?\d+(/\d+)?\Z")


def parse_rational(text):
    """Parse ``"p/q"`` or ``"n"`` into an exact rational.

    Decimal notation is rejected: rationals are the wire format, decimal
    strings are output-only renderings.
    """
    s = text.strip()
    if not _RATIONAL_RE.match(s):
        raise ValueError("not a rational literal: %r" % (text,))
    try:
        return Rational(s)
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError("not a rational literal: %r" % (text,)) from exc


def format_rational(value) -> str:
    """Render as ``p/q``, or a bare integer when the denominator is 1."""
    return str(value)


def decimal_rendering(value, digits: int = 15) -> str:
    """Advisory decimal form with ``digits`` significant digits."""
    return "%.*g" % (digits, float(value))
