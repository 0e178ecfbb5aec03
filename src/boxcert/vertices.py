"""Named extremal points of the non-signalling polytopes used by the LPs.

Two-party binary: 16 deterministic boxes plus 8 PR boxes, 24 in total.
Four-party broadcast cut AA'|BB' (party order A, B, A', B'): the 576
products of an Alice-side extremal box on (A, A') with a Bob-side one on
(B, B').  Orderings are fixed so LP columns and certificates are stable.
"""

from __future__ import annotations

import itertools
from functools import lru_cache

from .box import Box, deterministic_vertices, permute_parties, pr_box, tensor


@lru_cache(maxsize=None)
def local_vertices_2x2() -> tuple[tuple[str, Box], ...]:
    """The 16 deterministic vertices, named det_{f0}{f1}_{g0}{g1}."""
    named = []
    for box, bits in zip(
        deterministic_vertices(), itertools.product((0, 1), repeat=4)
    ):
        f0, f1, g0, g1 = bits
        named.append((f"det_{f0}{f1}_{g0}{g1}", box))
    return tuple(named)


@lru_cache(maxsize=None)
def pr_vertices() -> tuple[tuple[str, Box], ...]:
    """The 8 PR boxes, named pr_{r}{s}{t}."""
    return tuple(
        (f"pr_{r}{s}{t}", pr_box(r, s, t))
        for r, s, t in itertools.product((0, 1), repeat=3)
    )


@lru_cache(maxsize=None)
def ns_vertices_2x2() -> tuple[tuple[str, Box], ...]:
    """All 24 extremal fully-NS two-party binary boxes (deterministic first)."""
    return local_vertices_2x2() + pr_vertices()


@lru_cache(maxsize=None)
def broadcast_local_vertices() -> tuple[tuple[str, Box], ...]:
    """The 576 product vertices for the AA'|BB' cut, order (A, B, A', B')."""
    named = []
    for name_a, alice in ns_vertices_2x2():
        for name_b, bob in ns_vertices_2x2():
            # alice lives on (A, A'), bob on (B, B'); interleave to (A, B, A', B')
            product = permute_parties(tensor(alice, bob), (0, 2, 1, 3))
            named.append((f"{name_a}*{name_b}", product))
    return tuple(named)


def vertex_by_name(name: str) -> Box:
    for known, box in ns_vertices_2x2():
        if known == name:
            return box
    raise KeyError(name)

