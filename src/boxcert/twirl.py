"""Relabeling symmetries, the four twirling channels, and line decomposition.

A relabeling flips inputs by (delta, gamma) and XORs input-dependent
corrections onto the outputs; the twirl tau_rs averages the 8 relabelings
over (delta, gamma, theta).  The twirl projects every 2x2 box onto the
line p*B_rs0 + (1-p)*B_rs1 while preserving beta_rst.

Convention: a relabeling acts as the pushforward of the event map
(a,b,x,y) -> (a + gamma*x + delta*gamma + theta + s*gamma,
              b + delta*y + theta + r*delta,  x + delta,  y + gamma)
written on pre-flip inputs; equivalently, on the transformed box,

    Q(a,b|x,y) = P(a + gamma*x + theta + s*gamma,
                   b + delta*y + delta*gamma + theta + r*delta
                   | x + delta, y + gamma)        (all sums mod 2).

This is the reading that fixes every B_rst and B_rs(1-t) member-wise;
the two members with delta = gamma = 1 square to the flip-both-outputs
relabeling rather than the identity, so ops are invertible but not all
involutive (see ``RelabelingOp.inverse``).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from math import lcm

from .box import Box, WrongShape, _gather, are_bits, cell_map, chsh_game, require_2x2, rst_cache
from .rational import as_fraction

_SHAPE = ((2, 2), (2, 2))


@dataclass(frozen=True)
class RelabelingOp:
    """One deterministic input/output bit-flip symmetry."""

    delta: int
    gamma: int
    theta: int
    r: int
    s: int

    def __post_init__(self):
        if not are_bits(self.delta, self.gamma, self.theta, self.r, self.s):
            raise WrongShape("relabeling parameters must be bits")

    def source_event(self, a: int, b: int, x: int, y: int) -> tuple[int, int, int, int]:
        """The (a,b,x,y) of the original box that feeds cell (a,b,x,y) of the image."""
        d, g, th, r, s = self.delta, self.gamma, self.theta, self.r, self.s
        a0 = a ^ (g & x) ^ th ^ (s & g)
        b0 = b ^ (d & y) ^ (d & g) ^ th ^ (r & d)
        return a0, b0, x ^ d, y ^ g

    @property
    def source_index(self) -> tuple[int, ...]:
        """Per cell of the image, in canonical order, the index of the source cell."""
        return _source_index(self.delta, self.gamma, self.theta, self.r, self.s)

    def inverse(self) -> "RelabelingOp":
        """The member undoing this one: theta picks up delta*gamma."""
        return RelabelingOp(
            self.delta, self.gamma, self.theta ^ (self.delta & self.gamma), self.r, self.s
        )


@cache
def _source_index(*bits: int) -> tuple[int, ...]:
    """One tuple for each of the 32 relabelings, built on first use."""
    op = RelabelingOp(*bits)

    def source(a, x):
        a0, b0, x0, y0 = op.source_event(*a, *x)
        return (a0, b0), (x0, y0)

    return cell_map(_SHAPE, _SHAPE, source)


def apply_relabeling(op: RelabelingOp, box: Box) -> Box:
    """The relabeled box; a bijection on the outputs of each input block keeps it valid."""
    require_2x2(box)
    return _gather(box, _SHAPE, ((1, op.source_index),))


@dataclass(frozen=True)
class TwirlChannel:
    """Uniform mixture of the 8 relabelings over (delta, gamma, theta)."""

    r: int
    s: int

    def __post_init__(self):
        if not are_bits(self.r, self.s):
            raise WrongShape("twirl parameters must be bits")

    @property
    def members(self) -> tuple[RelabelingOp, ...]:
        return tuple(
            RelabelingOp(d, g, th, self.r, self.s)
            for d, g, th in itertools.product((0, 1), repeat=3)
        )

    def apply(self, box: Box) -> Box:
        """The average of the 8 relabeled boxes, summed over the integer view."""
        require_2x2(box)
        return _gather(box, _SHAPE, _twirl_terms(self.r, self.s))


@rst_cache
def _twirl_terms(r: int, s: int) -> tuple[tuple[int, tuple[int, ...]], ...]:
    """Weight 1 and the source index of each member of tau_rs, built once per (r, s)."""
    return tuple((1, op.source_index) for op in TwirlChannel(r, s).members)


def twirl(box: Box, r: int, s: int) -> Box:
    """tau_rs(box): lands on the B_rs0 -- B_rs1 line, preserving beta_rst."""
    return TwirlChannel(r, s).apply(box)


def line_decomposition(box: Box, r: int, s: int) -> Fraction | None:
    """Weight p with box = p*B_rs0 + (1-p)*B_rs1 exactly, or None if off the line."""
    require_2x2(box)
    nums, den = box.int_view
    # every cell must give the same p: 2P where game rs0 is won, 1 - 2P where it is lost
    weights = {2 * n if won > 0 else den - 2 * n for n, won in zip(nums, chsh_game(r, s, 0))}
    return Fraction(weights.pop(), den) if len(weights) == 1 else None


@dataclass(frozen=True)
class RelabelingMixture:
    """A locality-preserving channel given as a finite mixture of relabelings."""

    ops: tuple[RelabelingOp, ...]
    weights: tuple[Fraction, ...]

    def __post_init__(self):
        object.__setattr__(self, "weights", tuple(as_fraction(w) for w in self.weights))
        if len(self.ops) != len(self.weights) or not self.ops:
            raise WrongShape("ops and weights must align and be non-empty")
        if any(w < 0 for w in self.weights) or sum(self.weights) != 1:
            raise WrongShape("weights must be non-negative and sum to 1")

    def apply(self, box: Box) -> Box:
        """The weighted average of the relabeled boxes, summed over the integer view."""
        require_2x2(box)
        scale = lcm(*(w.denominator for w in self.weights))
        terms = [
            (w.numerator * (scale // w.denominator), op.source_index)
            for w, op in zip(self.weights, self.ops)
            if w
        ]
        return _gather(box, _SHAPE, terms)


def line_transport(box: Box, r: int, s: int, t: int) -> Box:
    """Local deterministic relabeling a -> a + r*x, b -> b + s*y + t.

    Carries B_000 to B_rst and B_001 to B_rs(1-t), hence the whole
    B_000--B_001 line onto the B_rst--B_rs(1-t) line.
    """
    require_2x2(box)
    source = lambda a, x: ((a[0] ^ (r & x[0]), a[1] ^ (s & x[1]) ^ t), x)
    return _gather(box, _SHAPE, ((1, cell_map(_SHAPE, _SHAPE, source)),))

