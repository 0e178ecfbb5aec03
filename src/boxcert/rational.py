"""Exact rational parsing and formatting.

All probabilities, CHSH values and LP data in this package are
`fractions.Fraction` values; floats are rejected at every boundary, and
so are booleans, although ``True == 1``.

A stated rational is a ``"num/den"`` or plain integer string (``-``
sign, decimal digits, surrounding whitespace ignored) or an integer.
``parse_ratio`` and ``ratio`` read one as an integer pair ``(num, den)``
with ``den > 0``, not necessarily in least form, so that callers can
compare it with a known value by cross-multiplication, building no
``Fraction``.
"""

from __future__ import annotations

from fractions import Fraction


class RationalFormatError(ValueError):
    """A string does not spell an exact rational 'num/den' or integer."""


def parse_ratio(text: str) -> tuple[int, int]:
    """Parse 'num/den' or a plain integer string to ``(num, den)``; never floats.

    Accepts exactly ``-?\\d+(/\\d+)?`` after stripping whitespace, where a
    digit is any Unicode decimal digit; ``den`` is positive.
    """
    if not isinstance(text, str):
        raise RationalFormatError(f"expected rational string, got {type(text).__name__}")
    num_text, slash, den_text = text.strip().partition("/")
    digits = num_text[1:] if num_text[:1] == "-" else num_text
    if not digits.isdecimal() or (slash and not den_text.isdecimal()):
        raise RationalFormatError(f"not a rational 'num/den' or integer: {text!r}")
    try:
        num, den = int(num_text), int(den_text or 1)
    except ValueError as exc:  # more digits than the interpreter's int-string limit
        raise RationalFormatError(str(exc)) from exc
    if den == 0:
        raise RationalFormatError(f"zero denominator: {text!r}")
    return num, den


def parse_rational(text: str) -> Fraction:
    """Parse 'num/den' or a plain integer string; never floats."""
    return Fraction(*parse_ratio(text))


def as_fraction(value) -> Fraction:
    """Coerce ints, Fractions and rational strings; reject floats and booleans."""
    if isinstance(value, Fraction):
        return value
    return Fraction(*ratio(value))


def ratio(value) -> tuple[int, int]:
    """``(num, den)`` with ``den > 0`` of what ``as_fraction`` accepts; builds no Fraction."""
    if isinstance(value, str):
        return parse_ratio(value)
    if isinstance(value, Fraction):
        return value.numerator, value.denominator
    if isinstance(value, int) and not isinstance(value, bool):
        return value, 1
    raise RationalFormatError(f"not an exact rational: {value!r} ({type(value).__name__})")


def format_rational(q: Fraction) -> str:
    """Canonical 'num/den' spelling, always with an explicit denominator."""
    return f"{q.numerator}/{q.denominator}"


def format_rational_short(q: Fraction) -> str:
    """Human spelling: bare integer when the denominator is 1."""
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"
