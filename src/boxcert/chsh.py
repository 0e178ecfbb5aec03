"""CHSH correlators and the eight functionals beta_rst on 2x2 boxes.

beta_rst(P) = (-1)^t <00> + (-1)^(s+t) <01> + (-1)^(r+t) <10>
              + (-1)^(r+s+t+1) <11>,   <ij> = P(a=b|ij) - P(a!=b|ij).

Per cell, that is won minus lost cells of game rst (``box.chsh_game``).
Correlators on any subset of parties come from ``subset_correlator``.

|beta_rst| <= 2 for all eight (r,s,t) is a complete description of the
local polytope for two parties with binary inputs and outputs — and for
that shape only, so ``beta_table`` refuses anything else.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from operator import mul

from .box import Box, cells, chsh_game, require_2x2

# the eight game tables, read once, so beta_table makes no per-call bit checks
_GAMES = {rst: chsh_game(*rst) for rst in product((0, 1), repeat=3)}


@dataclass(frozen=True)
class CHSHValue:
    r: int
    s: int
    t: int
    value: Fraction


def parity(a: tuple, parties) -> int:
    """prod_{i in parties} (-1)^{a_i}."""
    return -1 if sum(a[i] for i in parties) % 2 else 1


def subset_correlator(box: Box, parties: tuple[int, ...], inputs: tuple[int, ...]) -> Fraction:
    """E_S(x_S) = sum_a P(a|x) * prod_{i in S} (-1)^{a_i}, at x_{S^c} = 0; NS drops x_{S^c}."""
    x_full = [0] * box.party_count
    for i, v in zip(parties, inputs):
        x_full[i] = v
    nums, den = box.int_view
    block = nums[box.index((0,) * box.party_count, x_full) :]
    return Fraction(sum(parity(a, parties) * n for a, n in zip(box.output_tuples(), block)), den)


def correlator(box: Box, i: int, j: int) -> Fraction:
    """<ij> = P(a=b|x=i,y=j) - P(a!=b|x=i,y=j)."""
    require_2x2(box)
    return subset_correlator(box, (0, 1), (i, j))


def beta(box: Box, r: int, s: int, t: int) -> Fraction:
    """The CHSH quantity beta_rst of a 2x2 box."""
    require_2x2(box)
    nums, den = box.int_view
    return Fraction(sum(map(mul, chsh_game(r, s, t), nums)), den)


def beta_cell_coefficients(r: int, s: int, t: int) -> dict[tuple, Fraction]:
    """beta_rst as a functional on table cells: beta(P) = sum c[a,b,x,y] P(ab|xy)."""
    keys = [(a, b, x, y) for (a, b), (x, y) in cells((2, 2), (2, 2))]
    return dict(zip(keys, map(Fraction, chsh_game(r, s, t))))


def beta_numerators(box: Box) -> tuple[dict[tuple[int, int, int], int], int]:
    """``(sums, den)``: beta_rst = ``sums[(r, s, t)]/den`` for all 8 triples, in rst order.

    ``den`` is the denominator of ``box.int_view``; every sum is an integer.
    """
    require_2x2(box)
    nums, den = box.int_view
    return {rst: sum(map(mul, game, nums)) for rst, game in _GAMES.items()}, den


def beta_table(box: Box) -> tuple[list[CHSHValue], bool]:
    """All 8 CHSH values plus a locality flag (all within [-2, 2])."""
    sums, den = beta_numerators(box)
    values = [CHSHValue(*rst, Fraction(v, den)) for rst, v in sums.items()]
    local = all(-2 * den <= v <= 2 * den for v in sums.values())
    return values, local


def max_beta(box: Box) -> tuple[tuple[int, int, int], Fraction]:
    """Largest beta value and the lexicographically smallest triple attaining it."""
    best = max(beta_table(box)[0], key=lambda v: v.value)  # the first maximum, in rst order
    return (best.r, best.s, best.t), best.value
