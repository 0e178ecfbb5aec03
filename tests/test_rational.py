"""The rational parser: integer pairs, the accepted spellings, booleans refused."""

import re
import sys
from fractions import Fraction

import pytest

from boxcert.rational import (
    RationalFormatError,
    as_fraction,
    parse_ratio,
    parse_rational,
    ratio,
)

# the grammar the parser implements, applied to the stripped text
GRAMMAR = re.compile(r"^(-?\d+)(?:/(\d+))?$")

_LIMIT = getattr(sys, "get_int_max_str_digits", lambda: 0)()
PAST_INT_LIMIT = ["7" * (_LIMIT + 1), "1/" + "3" * (_LIMIT + 1)] if _LIMIT else []

TABLE = [
    "0", "1/1", "0/1", "-3/4", "12/8", "2/128", " 5 ", "5\n", "\t-7/2\n",
    "１/２", "٣/4", "-٣", "0/0", "1/0", "-0/5",
    "+1/2", "1_0/3", "1/-2", "- 1/2", "", " ", "-", "/2", "1/", "1//2", "1/2/3",
    "1.5", "1e3", "0x10", "½", "²", "1 /2", "1/ 2", "--1", "∞",
    *PAST_INT_LIMIT,
]


def grammar_value(text):
    """The value the grammar gives, or None where it rejects or the denominator is 0."""
    m = GRAMMAR.match(text.strip())
    if m is None:
        return None
    try:
        num, den = int(m.group(1)), int(m.group(2) or 1)
    except ValueError:  # past the int-string limit
        return None
    return Fraction(num, den) if den else None


@pytest.mark.parametrize("text", TABLE)
def test_parse_ratio_accepts_what_the_grammar_accepts(text):
    expected = grammar_value(text)
    if expected is None:
        with pytest.raises(RationalFormatError):
            parse_ratio(text)
        with pytest.raises(RationalFormatError):
            parse_rational(text)
        return
    num, den = parse_ratio(text)
    assert den > 0
    assert Fraction(num, den) == expected
    assert parse_rational(text) == Fraction(*parse_ratio(text)) == expected


def test_unicode_digits_and_unreduced_pairs():
    assert parse_ratio("１/２") == (1, 2)
    assert parse_ratio("٣/4") == (3, 4)
    assert parse_ratio("5\n") == (5, 1)
    assert parse_ratio("2/128") == (2, 128)


@pytest.mark.parametrize("value", [True, False, 0.5, 1.0, None, [1, 2], {"num": 1}])
def test_booleans_and_floats_are_not_rationals(value):
    with pytest.raises(RationalFormatError):
        ratio(value)
    with pytest.raises(RationalFormatError):
        as_fraction(value)


def test_ratio_of_exact_values():
    assert ratio(Fraction(-6, 4)) == (-3, 2)
    assert ratio(7) == (7, 1)
    assert ratio("6/4") == (6, 4)
    assert as_fraction(7) == 7 and as_fraction("6/4") == Fraction(3, 2)
