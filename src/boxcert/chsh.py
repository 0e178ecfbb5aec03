"""CHSH correlators and the eight functionals beta_rst on 2x2 boxes.

beta_rst(P) = (-1)^t <00> + (-1)^(s+t) <01> + (-1)^(r+t) <10>
              + (-1)^(r+s+t+1) <11>,   <ij> = P(a=b|ij) - P(a!=b|ij).

|beta_rst| <= 2 for all eight (r,s,t) is a complete description of the
local polytope for two parties with binary inputs and outputs — and for
that shape only, so ``beta_table`` refuses anything else.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

from .box import Box, cells, require_2x2


@dataclass(frozen=True)
class CHSHValue:
    r: int
    s: int
    t: int
    value: Fraction


# Per input (x, y), the (flat index, +1 if a == b else -1) terms of the correlator <xy>.
_CORRELATOR_TERMS = {
    xy: tuple(
        (k, 1 if a == b else -1)
        for k, ((a, b), cell_xy) in enumerate(cells((2, 2), (2, 2)))
        if cell_xy == xy
    )
    for xy in itertools.product((0, 1), repeat=2)
}


def _int_correlators(box: Box) -> tuple[dict[tuple[int, int], int], int]:
    """The four correlators as numerators over the box's common denominator."""
    require_2x2(box)
    nums, den = box.int_view
    correlators = {
        xy: sum(sign * nums[k] for k, sign in terms) for xy, terms in _CORRELATOR_TERMS.items()
    }
    return correlators, den


def correlator(box: Box, i: int, j: int) -> Fraction:
    """<ij> = P(a=b|x=i,y=j) - P(a!=b|x=i,y=j)."""
    correlators, den = _int_correlators(box)
    return Fraction(correlators[(i, j)], den)


def beta_signs(r: int, s: int, t: int) -> dict[tuple[int, int], int]:
    """Sign of each correlator term in beta_rst."""
    return {
        (0, 0): (-1) ** t,
        (0, 1): (-1) ** (s + t),
        (1, 0): (-1) ** (r + t),
        (1, 1): (-1) ** (r + s + t + 1),
    }


def _beta_from(correlators: dict[tuple[int, int], int], r: int, s: int, t: int) -> int:
    signs = beta_signs(r, s, t)
    return sum(signs[ij] * correlators[ij] for ij in signs)


def beta(box: Box, r: int, s: int, t: int) -> Fraction:
    """The CHSH quantity beta_rst of a 2x2 box."""
    correlators, den = _int_correlators(box)
    return Fraction(_beta_from(correlators, r, s, t), den)


def beta_cell_coefficients(r: int, s: int, t: int) -> dict[tuple, Fraction]:
    """beta_rst as a functional on table cells: beta(P) = sum c[a,b,x,y] P(ab|xy)."""
    signs = beta_signs(r, s, t)
    coeffs = {}
    for x, y in itertools.product((0, 1), repeat=2):
        for a, b in itertools.product((0, 1), repeat=2):
            coeffs[(a, b, x, y)] = Fraction(signs[(x, y)] * (1 if a == b else -1))
    return coeffs


def beta_table(box: Box) -> tuple[list[CHSHValue], bool]:
    """All 8 CHSH values plus a locality flag (all within [-2, 2])."""
    correlators, den = _int_correlators(box)
    sums = {rst: _beta_from(correlators, *rst) for rst in itertools.product((0, 1), repeat=3)}
    values = [CHSHValue(r, s, t, Fraction(v, den)) for (r, s, t), v in sums.items()]
    local = all(-2 * den <= v <= 2 * den for v in sums.values())
    return values, local


def max_beta(box: Box) -> tuple[tuple[int, int, int], Fraction]:
    """Largest beta value and the lexicographically smallest triple attaining it."""
    values, _ = beta_table(box)
    best = max(v.value for v in values)
    for v in values:
        if v.value == best:
            return (v.r, v.s, v.t), best
    raise AssertionError("unreachable")
