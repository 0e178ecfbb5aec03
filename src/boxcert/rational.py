"""Exact rational parsing and formatting.

All probabilities, CHSH values and LP data in this package are
`fractions.Fraction` values; floats are rejected at every boundary.
"""

from __future__ import annotations

import re
from fractions import Fraction

_RATIONAL_RE = re.compile(r"^(-?\d+)(?:/(\d+))?$")


class RationalFormatError(ValueError):
    """A string does not spell an exact rational 'num/den' or integer."""


def parse_rational(text: str) -> Fraction:
    """Parse 'num/den' or a plain integer string; never floats."""
    if not isinstance(text, str):
        raise RationalFormatError(f"expected rational string, got {type(text).__name__}")
    m = _RATIONAL_RE.match(text.strip())
    if m is None:
        raise RationalFormatError(f"not a rational 'num/den' or integer: {text!r}")
    try:
        num, den = int(m.group(1)), int(m.group(2) or 1)
    except ValueError as exc:  # more digits than the interpreter's int-string limit
        raise RationalFormatError(str(exc)) from exc
    if den == 0:
        raise RationalFormatError(f"zero denominator: {text!r}")
    return Fraction(num, den)


def as_fraction(value) -> Fraction:
    """Coerce ints, Fractions and rational strings; reject floats."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return parse_rational(value)
    raise RationalFormatError(f"not an exact rational: {value!r} ({type(value).__name__})")


def format_rational(q: Fraction) -> str:
    """Canonical 'num/den' spelling, always with an explicit denominator."""
    return f"{q.numerator}/{q.denominator}"


def format_rational_short(q: Fraction) -> str:
    """Human spelling: bare integer when the denominator is 1."""
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"
