"""Relabeling symmetries, twirl channels, line decomposition."""

import importlib
import itertools
from fractions import Fraction

import pytest

from boxcert.box import (
    BoxError,
    WrongShape,
    b_alpha,
    convex_combination,
    deterministic_vertices,
    is_fully_ns,
    mix,
    pr_box,
    uniform_box,
)
from boxcert.chsh import beta, beta_table
from boxcert.sampling import random_box, random_ns_box, rng_from_seed
from boxcert.twirl import (
    RelabelingMixture,
    RelabelingOp,
    TwirlChannel,
    apply_relabeling,
    line_decomposition,
    line_transport,
    twirl,
)

F = Fraction
# the package exports the function ``twirl``, which hides the module of that name
twirl_module = importlib.import_module("boxcert.twirl")


class TestRelabelingOp:
    def test_identity_member(self):
        rng = rng_from_seed(20)
        op = RelabelingOp(0, 0, 0, 0, 0)
        for _ in range(10):
            box = random_box(rng)
            assert apply_relabeling(op, box) == box

    def test_members_fix_their_pr_boxes(self):
        for r, s in itertools.product((0, 1), repeat=2):
            for op in TwirlChannel(r, s).members:
                for t in (0, 1):
                    assert apply_relabeling(op, pr_box(r, s, t)) == pr_box(r, s, t)

    def test_relabelings_permute_deterministic_vertices(self):
        vertices = set(deterministic_vertices())
        op = RelabelingOp(1, 0, 0, 0, 0)
        images = {apply_relabeling(op, v) for v in vertices}
        assert images == vertices

    def test_inverse_composes_to_identity(self):
        rng = rng_from_seed(21)
        for op in TwirlChannel(0, 0).members + TwirlChannel(1, 1).members:
            inv = op.inverse()
            for _ in range(5):
                box = random_box(rng)
                assert apply_relabeling(inv, apply_relabeling(op, box)) == box

    def test_double_application_flips_both_outputs_by_delta_gamma(self):
        # Members with delta*gamma = 0 are involutions; the two with
        # delta = gamma = 1 square to the flip-both-outputs relabeling.
        rng = rng_from_seed(22)
        for op in TwirlChannel(0, 1).members:
            flip = op.delta & op.gamma
            for _ in range(5):
                box = random_box(rng)
                twice = apply_relabeling(op, apply_relabeling(op, box))
                if flip == 0:
                    assert twice == box
                else:
                    expected = apply_relabeling(RelabelingOp(0, 0, 1, op.r, op.s), box)
                    assert twice == expected

    def test_bad_bits_rejected(self):
        with pytest.raises(WrongShape):
            RelabelingOp(2, 0, 0, 0, 0)


class TestTwirl:
    def test_fixed_points(self):
        for r, s in itertools.product((0, 1), repeat=2):
            for t in (0, 1):
                assert twirl(pr_box(r, s, t), r, s) == pr_box(r, s, t)

    def test_uniform_maps_to_midpoint(self):
        for r, s in itertools.product((0, 1), repeat=2):
            out = twirl(uniform_box(2), r, s)
            assert out == mix(F(1, 2), pr_box(r, s, 0), pr_box(r, s, 1))

    def test_deterministic_vertex_lands_on_k(self):
        vertex = deterministic_vertices()[0]  # f == 0, g == 0
        assert twirl(vertex, 0, 0) == mix(F(3, 4), pr_box(0, 0, 0), pr_box(0, 0, 1))

    def test_beta_invariance(self):
        # beta_rst(twirl_rs(P)) = beta_rst(P) for both t, random boxes.
        rng = rng_from_seed(23)
        for _ in range(100):
            box = random_box(rng)
            for r, s in itertools.product((0, 1), repeat=2):
                out = twirl(box, r, s)
                for t in (0, 1):
                    assert beta(out, r, s, t) == beta(box, r, s, t)

    def test_idempotence(self):
        rng = rng_from_seed(24)
        for _ in range(25):
            box = random_box(rng)
            for r, s in itertools.product((0, 1), repeat=2):
                once = twirl(box, r, s)
                assert twirl(once, r, s) == once

    def test_locality_preservation_on_vertices(self):
        for vertex in deterministic_vertices():
            for r, s in itertools.product((0, 1), repeat=2):
                _, local = beta_table(twirl(vertex, r, s))
                assert local

    def test_full_ns_preservation(self):
        rng = rng_from_seed(25)
        for _ in range(25):
            box = random_ns_box(rng)
            for r, s in itertools.product((0, 1), repeat=2):
                assert is_fully_ns(twirl(box, r, s)).fully_ns


class TestLineDecomposition:
    def test_b_alpha_decomposes_to_alpha(self):
        rng = rng_from_seed(26)
        for _ in range(20):
            alpha = F(rng.randint(0, 64), 64)
            assert line_decomposition(b_alpha(alpha), 0, 0) == alpha

    def test_off_line_box(self):
        assert line_decomposition(pr_box(0, 1, 0), 0, 0) is None

    def test_twirl_always_lands_on_line(self):
        rng = rng_from_seed(27)
        for _ in range(50):
            box = random_box(rng)
            for r, s in itertools.product((0, 1), repeat=2):
                p = line_decomposition(twirl(box, r, s), r, s)
                assert p is not None
                assert 0 <= p <= 1


class TestChannels:
    @pytest.mark.parametrize("warm", [False, True])
    def test_float_bit_rejected_on_a_cold_and_a_warm_cache(self, warm):
        box = b_alpha(1)
        twirl_module._twirl_terms.cache_clear()
        if warm:
            twirl(box, 1, 0)
        for _ in range(2):
            for call in (
                lambda: twirl(box, 1.0, 0),
                lambda: TwirlChannel(0, 1.0),
                lambda: RelabelingOp(0, 0, 0, 1.0, 0),
                lambda: twirl_module._twirl_terms(1.0, 0),
            ):
                with pytest.raises(BoxError):
                    call()

    def test_non_bit_twirl_rejected_on_every_call(self):
        box = pr_box(0, 0, 0)
        for _ in range(3):
            with pytest.raises(WrongShape):
                TwirlChannel(2, 0).apply(box)

    def test_apply_equals_the_mean_of_its_members(self):
        rng = rng_from_seed(29)
        box = random_box(rng)
        for r, s in itertools.product((0, 1), repeat=2):
            channel = TwirlChannel(r, s)
            expected = convex_combination(
                [F(1, 8)] * 8, [apply_relabeling(op, box) for op in channel.members]
            )
            assert channel.apply(box) == expected

    def test_mixture_weights_validated(self):
        ops = (RelabelingOp(0, 0, 0, 0, 0),)
        with pytest.raises(WrongShape):
            RelabelingMixture(ops, (F(1, 2),))

    def test_line_transport_carries_the_line(self):
        rng = rng_from_seed(28)
        for r, s, t in itertools.product((0, 1), repeat=3):
            assert line_transport(pr_box(0, 0, 0), r, s, t) == pr_box(r, s, t)
            assert line_transport(pr_box(0, 0, 1), r, s, t) == pr_box(r, s, 1 - t)
            alpha = F(rng.randint(0, 64), 64)
            image = line_transport(b_alpha(alpha), r, s, t)
            expected = mix(alpha, pr_box(r, s, t), pr_box(r, s, 1 - t))
            assert image == expected
