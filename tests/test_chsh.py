"""Correlators, the eight beta functionals and the vertex value table."""

import itertools
from fractions import Fraction

import pytest

from boxcert.box import (
    BoxError,
    WrongShape,
    b_alpha,
    chsh_game,
    deterministic_vertices,
    mix,
    pr_box,
    tensor,
    uniform_box,
)
from boxcert.broadcast import c1c2_projection
from boxcert.chsh import beta, beta_cell_coefficients, beta_table, correlator, max_beta
from boxcert.sampling import random_box, random_rational, rng_from_seed

F = Fraction


class TestCorrelator:
    def test_pr_box_correlators(self):
        box = pr_box(0, 0, 0)
        assert correlator(box, 0, 0) == F(1)
        assert correlator(box, 0, 1) == F(1)
        assert correlator(box, 1, 0) == F(1)
        assert correlator(box, 1, 1) == F(-1)

    def test_uniform_correlators_vanish(self):
        for i, j in itertools.product((0, 1), repeat=2):
            assert correlator(uniform_box(2), i, j) == 0

    def test_line_correlators(self):
        rng = rng_from_seed(10)
        for _ in range(20):
            alpha = random_rational(rng)
            box = b_alpha(alpha)
            assert correlator(box, 0, 0) == 2 * alpha - 1
            assert correlator(box, 0, 1) == 2 * alpha - 1
            assert correlator(box, 1, 0) == 2 * alpha - 1
            assert correlator(box, 1, 1) == 1 - 2 * alpha

    def test_wrong_shape(self):
        with pytest.raises(WrongShape):
            correlator(uniform_box(3), 0, 0)


class TestBeta:
    def test_pr_box_reaches_four(self):
        assert beta(pr_box(0, 0, 0), 0, 0, 0) == 4
        for r, s, t in itertools.product((0, 1), repeat=3):
            assert beta(pr_box(r, s, t), r, s, t) == 4

    def test_line_formula(self):
        rng = rng_from_seed(11)
        for _ in range(20):
            alpha = random_rational(rng)
            assert beta(b_alpha(alpha), 0, 0, 0) == 8 * alpha - 4
        assert beta(b_alpha(F(7, 8)), 0, 0, 0) == 3

    def test_constant_deterministic_vertex(self):
        vertex = deterministic_vertices()[0]
        assert beta(vertex, 0, 0, 0) == 2

    def test_linearity_under_mix(self):
        rng = rng_from_seed(12)
        for _ in range(50):
            p = random_rational(rng)
            a, b = random_box(rng), random_box(rng)
            for r, s, t in ((0, 0, 0), (1, 0, 1), (0, 1, 1)):
                assert beta(mix(p, a, b), r, s, t) == p * beta(a, r, s, t) + (
                    1 - p
                ) * beta(b, r, s, t)

    def test_cell_coefficients_agree(self):
        rng = rng_from_seed(13)
        for _ in range(20):
            box = random_box(rng)
            for r, s, t in itertools.product((0, 1), repeat=3):
                coeffs = beta_cell_coefficients(r, s, t)
                total = sum(
                    c * box.prob((a, b), (x, y)) for (a, b, x, y), c in coeffs.items()
                )
                assert total == beta(box, r, s, t)

    def test_bounded_by_four(self):
        rng = rng_from_seed(14)
        for _ in range(100):
            box = random_box(rng)
            for r, s, t in itertools.product((0, 1), repeat=3):
                assert -4 <= beta(box, r, s, t) <= 4


class TestBetaTable:
    def test_pr_box_table(self):
        values, local = beta_table(pr_box(0, 0, 0))
        by_rst = {(v.r, v.s, v.t): v.value for v in values}
        assert by_rst[(0, 0, 0)] == 4
        assert by_rst[(0, 0, 1)] == -4
        for key, value in by_rst.items():
            if key not in ((0, 0, 0), (0, 0, 1)):
                assert value == 0
        assert not local

    def test_k_is_local_with_beta_two(self):
        values, local = beta_table(b_alpha(F(3, 4)))
        by_rst = {(v.r, v.s, v.t): v.value for v in values}
        assert by_rst[(0, 0, 0)] == 2
        assert local

    def test_vertex_value_table(self):
        # PR boxes hit {-4, 0, 4}; deterministic vertices hit {-2, 2}.
        for r, s, t in itertools.product((0, 1), repeat=3):
            values, local = beta_table(pr_box(r, s, t))
            assert {v.value for v in values} <= {F(-4), F(0), F(4)}
            assert not local
        for vertex in deterministic_vertices():
            values, local = beta_table(vertex)
            assert {v.value for v in values} <= {F(-2), F(2)}
            assert local

    def test_refuses_other_shapes(self):
        with pytest.raises(WrongShape):
            beta_table(uniform_box(4))

    def test_max_beta_lexicographic_tiebreak(self):
        rst, value = max_beta(uniform_box(2))
        assert value == 0
        assert rst == (0, 0, 0)
        assert max_beta(b_alpha(F(7, 8))) == ((0, 0, 0), F(3))


class TestOneGameTable:
    def test_beta_is_the_correlator_formula(self):
        rng = rng_from_seed(15)
        boxes = [pr_box(*rst) for rst in itertools.product((0, 1), repeat=3)]
        boxes += [random_box(rng) for _ in range(30)]
        for box in boxes:
            for r, s, t in itertools.product((0, 1), repeat=3):
                formula = sum(
                    (-1) ** (x * y + r * x + s * y + t) * correlator(box, x, y)
                    for x, y in itertools.product((0, 1), repeat=2)
                )
                assert beta(box, r, s, t) == formula

    def test_projection_of_two_line_boxes(self):
        rng = rng_from_seed(16)
        for _ in range(10):
            a, b = random_rational(rng), random_rational(rng)
            dist = c1c2_projection(tensor(b_alpha(a), b_alpha(b)))
            assert dist.as_tuple() == (a * b, a * (1 - b), (1 - a) * b, (1 - a) * (1 - b))

    @pytest.mark.parametrize("bad", [2, -1, 1.0, "1"])
    def test_beta_rejects_non_bits_before_and_after_caching(self, bad):
        box = pr_box(1, 0, 0)
        chsh_game.cache_clear()
        for _ in range(2):  # before and after the table for (1, 0, 0) is cached
            with pytest.raises(BoxError):
                beta(box, bad, 0, 0)
            assert beta(box, 1, 0, 0) == 4
