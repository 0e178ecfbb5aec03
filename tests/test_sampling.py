"""Seeded samplers: exactness, reproducibility, polytope membership."""

from fractions import Fraction

from boxcert.box import convex_combination, is_fully_ns
from boxcert.chsh import beta
from boxcert.sampling import (
    all_relabelings,
    random_box,
    random_ns_box,
    random_ns_box_with_min_beta,
    random_relabeling_mixture,
    rational_weights,
    rng_from_seed,
)
from boxcert.vertices import ns_vertices_2x2

F = Fraction


def test_rational_weights_sum_to_one():
    rng = rng_from_seed(70)
    for _ in range(20):
        weights = rational_weights(rng, 24)
        assert sum(weights) == 1
        assert all(w >= 0 for w in weights)
        assert all(w.denominator <= 64 for w in weights)


def test_ns_draw_is_the_rational_weight_mixture():
    # random_ns_box mixes integer counts; the stream must equal the Fraction-weight one
    rng, twin = rng_from_seed(74), rng_from_seed(74)
    vertices = [b for _, b in ns_vertices_2x2()]
    for _ in range(100):
        box = random_ns_box(rng)
        expected = convex_combination(rational_weights(twin, len(vertices)), vertices)
        assert box == expected
        assert box.probs == expected.probs and box.int_view == expected.int_view


def test_reproducibility():
    a = random_ns_box(rng_from_seed(71))
    b = random_ns_box(rng_from_seed(71))
    assert a == b
    c = random_ns_box(rng_from_seed(72))
    assert a != c


def test_random_ns_box_is_fully_ns():
    rng = rng_from_seed(73)
    for _ in range(20):
        assert is_fully_ns(random_ns_box(rng)).fully_ns


def test_random_box_is_valid_but_can_signal():
    rng = rng_from_seed(74)
    signalled = False
    for _ in range(20):
        box = random_box(rng)
        signalled |= not is_fully_ns(box).fully_ns
    assert signalled


def test_min_beta_sampler():
    rng = rng_from_seed(75)
    for r, s, t in ((0, 0, 0), (1, 0, 1), (1, 1, 1)):
        for _ in range(10):
            box = random_ns_box_with_min_beta(rng, r, s, t)
            assert beta(box, r, s, t) >= 2
            assert is_fully_ns(box).fully_ns


def test_relabeling_catalog():
    ops = all_relabelings()
    assert len(ops) == 32
    assert len(set(ops)) == 32


def test_relabeling_mixture_weights():
    rng = rng_from_seed(76)
    channel = random_relabeling_mixture(rng, size=5)
    assert sum(channel.weights) == 1
