"""Seeded exact-rational samplers for property checks and scans.

Random boxes are built from integer draws only, so every sample is an
exact rational point and runs are reproducible from the seed.  NS boxes
are convex mixtures of the 24 polytope vertices with weights of
denominator ``DEFAULT_DENOMINATOR`` (64), which keeps samples exactly
inside the polytope.
"""

from __future__ import annotations

import random
from fractions import Fraction

from .box import Box, count_combination, mix, pr_box
from .chsh import beta
from .twirl import RelabelingMixture, RelabelingOp, TwirlChannel
from .vertices import ns_vertices_2x2

DEFAULT_DENOMINATOR = 64


def rng_from_seed(seed: int) -> random.Random:
    return random.Random(seed)


def composition(rng: random.Random, count: int, denominator: int) -> list[int]:
    """A random composition of ``denominator`` into ``count`` non-negative integers."""
    cuts = sorted(rng.randint(0, denominator) for _ in range(count - 1))
    bounds = [0] + cuts + [denominator]
    return [bounds[i + 1] - bounds[i] for i in range(count)]


def rational_weights(rng: random.Random, count: int, denominator: int = DEFAULT_DENOMINATOR) -> list[Fraction]:
    """A random composition of 1 into ``count`` weights k_i/denominator."""
    return [Fraction(k, denominator) for k in composition(rng, count, denominator)]


def random_rational(rng: random.Random) -> Fraction:
    """Uniform k/DEFAULT_DENOMINATOR in [0, 1]."""
    return Fraction(rng.randint(0, DEFAULT_DENOMINATOR), DEFAULT_DENOMINATOR)


def random_box(rng: random.Random, parties: int = 2, denominator: int = DEFAULT_DENOMINATOR) -> Box:
    """General binary box: an independent random distribution per input."""
    n_out = 2**parties
    probs = []
    for _ in range(2**parties):
        probs.extend(rational_weights(rng, n_out, denominator))
    return Box((2,) * parties, (2,) * parties, tuple(probs))


def random_ns_box(rng: random.Random) -> Box:
    """Random fully-NS 2x2 box: mixture of the 24 extremal points.

    In practice it does not reach the non-local region: the weights spread
    over all 24 vertices, so no PR box dominates (over 10,000 draws from
    seed 12345 the largest beta* was 59/32).  Use
    ``random_ns_box_with_min_beta`` for non-local boxes.
    """
    boxes = [b for _, b in ns_vertices_2x2()]
    counts = composition(rng, len(boxes), DEFAULT_DENOMINATOR)
    return count_combination(counts, DEFAULT_DENOMINATOR, boxes)


def random_ns_box_with_min_beta(rng: random.Random, r: int, s: int, t: int) -> Box:
    """Random fully-NS 2x2 box with beta_rst >= 2 exactly.

    Mixes a random NS box toward the apex B_rst just far enough; the
    result is still a vertex mixture, so it stays inside the polytope.
    """
    base = random_ns_box(rng)
    apex = pr_box(r, s, t)
    beta_base = beta(base, r, s, t)
    if beta_base >= 2:
        return base
    mu_min = (2 - beta_base) / (4 - beta_base)
    mu = mu_min + (1 - mu_min) * random_rational(rng)
    box = mix(mu, apex, base)
    if beta(box, r, s, t) < 2:
        raise RuntimeError(f"mixture toward the apex has beta_{r}{s}{t} below 2")
    return box


def random_relabeling(rng: random.Random) -> RelabelingOp:
    return RelabelingOp(
        rng.randint(0, 1), rng.randint(0, 1), rng.randint(0, 1), rng.randint(0, 1), rng.randint(0, 1)
    )


def random_relabeling_mixture(rng: random.Random, size: int = 4) -> RelabelingMixture:
    """Random locality-preserving channel: weighted mixture of relabelings."""
    ops = tuple(random_relabeling(rng) for _ in range(size))
    weights = tuple(rational_weights(rng, size))
    return RelabelingMixture(ops, weights)


def all_relabelings() -> tuple[RelabelingOp, ...]:
    """The 32 single relabelings: the 8 members of each of the 4 twirls, (r, s) outer."""
    return tuple(op for r in (0, 1) for s in (0, 1) for op in TwirlChannel(r, s).members)
