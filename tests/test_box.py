"""Box construction, non-signalling checks, mixing, tensor and marginals."""

import itertools
from fractions import Fraction

import pytest

from boxcert.box import (
    Box,
    BoxError,
    Cut,
    MarginalIllDefined,
    NegativeEntry,
    NotNormalized,
    NSReport,
    ShapeMismatch,
    WeightOutOfRange,
    b_alpha,
    chsh_game,
    convex_combination,
    count_combination,
    deterministic_vertices,
    is_fully_ns,
    is_ns_in_cut,
    make_box,
    marginal,
    mix,
    permute_parties,
    pr_box,
    tensor,
    uniform_box,
)
from boxcert.sampling import random_box, random_ns_box, random_rational, rng_from_seed

F = Fraction


def signalling_box():
    """P(a,b|x,y) = [a=y][b=0]: Bob's input y leaks into Alice's marginal."""
    entries = {}
    for x, y, a, b in itertools.product((0, 1), repeat=4):
        entries[((a, b), (x, y))] = F(1) if (a == y and b == 0) else F(0)
    return make_box(2, (2, 2), (2, 2), entries)


class TestMakeBox:
    def test_pr_table_is_valid(self):
        entries = {}
        for x, y, a, b in itertools.product((0, 1), repeat=4):
            entries[((a, b), (x, y))] = F(1, 2) if (a ^ b) == (x & y) else F(0)
        box = make_box(2, (2, 2), (2, 2), entries)
        assert box == pr_box(0, 0, 0)

    def test_uniform_table_is_valid(self):
        box = make_box(2, (2, 2), (2, 2), [F(1, 4)] * 16)
        assert box == uniform_box(2)
        assert box.prob((0, 1), (1, 0)) == F(1, 4)

    def test_uniform_box_is_the_validated_table(self):
        # built once per party count, without the validating constructor
        for n in range(1, 5):
            validated = Box((2,) * n, (2,) * n, [F(1, 2**n)] * 4**n)
            assert uniform_box(n) == validated and uniform_box(n).int_view == validated.int_view
            assert uniform_box(n) is uniform_box(n)
        with pytest.raises(ShapeMismatch):
            uniform_box(0)

    def test_not_normalized_reports_sum(self):
        entries = {((0, 0), (0, 0)): F(3, 4), ((0, 1), (0, 0)): F(1, 2)}
        for x, y in itertools.product((0, 1), repeat=2):
            if (x, y) == (0, 0):
                continue
            entries[((0, 0), (x, y))] = F(1)
        with pytest.raises(NotNormalized) as err:
            make_box(2, (2, 2), (2, 2), entries)
        assert err.value.inputs == (0, 0)
        assert err.value.actual_sum == F(5, 4)

    def test_negative_entry_rejected(self):
        probs = [F(1, 2), F(1, 2), F(0), F(0)] * 3 + [F(-1, 4), F(3, 4), F(1, 4), F(1, 4)]
        with pytest.raises(NegativeEntry):
            make_box(2, (2, 2), (2, 2), probs)

    def test_party_count_mismatch(self):
        with pytest.raises(ShapeMismatch):
            make_box(3, (2, 2), (2, 2), [F(1, 4)] * 16)

    def test_cell_outside_the_table_rejected(self):
        # (0, 2) would land on the zero entry of (1, 0) if ranked without a range check
        entries = {((0, 0), x): F(1) for x in itertools.product((0, 1), repeat=2)}
        entries[((0, 2), (0, 0))] = F(0)
        with pytest.raises(ShapeMismatch, match="no cell"):
            make_box(2, (2, 2), (2, 2), entries)


class TestPRBox:
    def test_b000_entries(self):
        box = pr_box(0, 0, 0)
        assert box.prob((0, 0), (0, 0)) == F(1, 2)
        assert box.prob((1, 1), (0, 0)) == F(1, 2)
        assert box.prob((0, 1), (0, 0)) == F(0)
        assert box.prob((0, 1), (1, 1)) == F(1, 2)
        assert box.prob((0, 0), (1, 1)) == F(0)

    def test_anti_pr_flips_correlation(self):
        box = pr_box(0, 0, 1)
        assert box.prob((0, 0), (0, 0)) == F(0)
        assert box.prob((0, 1), (0, 0)) == F(1, 2)

    def test_all_eight_distinct_and_fully_ns(self):
        boxes = [pr_box(r, s, t) for r, s, t in itertools.product((0, 1), repeat=3)]
        for i, a in enumerate(boxes):
            for b in boxes[i + 1 :]:
                assert a != b
            assert is_fully_ns(a).fully_ns

    def test_non_bit_arguments_rejected(self):
        from boxcert.box import BoxError

        with pytest.raises(BoxError):
            pr_box(2, 0, 0)

    def test_built_once(self):
        assert pr_box(1, 0, 1) is pr_box(1, 0, 1)
        assert pr_box(True, False, True) is pr_box(1, 0, 1)

    @pytest.mark.parametrize("bits", [(2, 0, 0), (0, -1, 0), (0, 0, "1"), (None, 0, 0), (0.0, 0, 0)])
    def test_non_bits_rejected_on_every_call(self, bits):
        from boxcert.box import BoxError

        for _ in range(2):
            with pytest.raises(BoxError):
                pr_box(*bits)


class TestCHSHGame:
    def test_pr_box_is_half_on_won_cells(self):
        for rst in itertools.product((0, 1), repeat=3):
            expected = [F(1, 2) if won == 1 else F(0) for won in chsh_game(*rst)]
            assert list(pr_box(*rst).probs) == expected

    @pytest.mark.parametrize("bad", [2, -1, 1.0, "1"])
    def test_non_bits_rejected_before_and_after_caching(self, bad):
        chsh_game.cache_clear()
        for _ in range(2):  # before and after the table for (1, 0, 0) is cached
            for position in range(3):
                bits = [1, 0, 0]
                bits[position] = bad
                with pytest.raises(BoxError):
                    chsh_game(*bits)
            chsh_game(1, 0, 0)


class TestDeterministicVertices:
    def test_constant_strategy_box(self):
        first = deterministic_vertices()[0]  # f == 0, g == 0
        for x, y in itertools.product((0, 1), repeat=2):
            assert first.prob((0, 0), (x, y)) == F(1)

    def test_sixteen_distinct(self):
        boxes = deterministic_vertices()
        assert len(boxes) == 16
        assert len(set(boxes)) == 16

    def test_all_fully_ns(self):
        for box in deterministic_vertices():
            assert is_fully_ns(box).fully_ns


class TestMix:
    def test_k_box_entries(self):
        k = mix(F(3, 4), pr_box(0, 0, 0), pr_box(0, 0, 1))
        assert k.prob((0, 0), (0, 0)) == F(3, 8)
        assert k.prob((0, 1), (0, 0)) == F(1, 8)
        assert k == b_alpha(F(3, 4))

    def test_identity_weight(self):
        rng = rng_from_seed(1)
        a, b = random_box(rng), random_box(rng)
        assert mix(F(1), a, b) == a
        assert mix(F(0), a, b) == b

    def test_seven_eighths(self):
        box = mix(F(7, 8), pr_box(0, 0, 0), pr_box(0, 0, 1))
        assert box.prob((0, 0), (0, 0)) == F(7, 16)
        assert box == b_alpha(F(7, 8))

    def test_weight_out_of_range(self):
        with pytest.raises(WeightOutOfRange):
            mix(F(5, 4), pr_box(0, 0, 0), pr_box(0, 0, 1))
        with pytest.raises(WeightOutOfRange):
            b_alpha(F(-1, 8))

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatch):
            mix(F(1, 2), pr_box(0, 0, 0), uniform_box(3))

    def test_entrywise_linearity_random(self):
        rng = rng_from_seed(2)
        for _ in range(50):
            p = random_rational(rng)
            a, b = random_box(rng), random_box(rng)
            mixed = mix(p, a, b)
            for u, v, w in zip(mixed.probs, a.probs, b.probs):
                assert u == p * v + (1 - p) * w

    def test_connectivity_reconstruction(self):
        # L = q*A + (1-q)*X equals p*A + (1-p)*X' with
        # X' = (q-p)/(1-p)*A + (1-q)/(1-p)*X, for any p < q.
        rng = rng_from_seed(3)
        for _ in range(25):
            a, x = random_ns_box(rng), random_ns_box(rng)
            q = random_rational(rng)
            p = q * random_rational(rng)
            if p == q or q == 1:
                continue
            loc = mix(q, a, x)
            x_prime = mix((q - p) / (1 - p), a, x)
            assert mix(p, a, x_prime) == loc

    def test_count_combination_is_the_convex_combination(self):
        rng = rng_from_seed(4)
        boxes = [random_ns_box(rng) for _ in range(4)]
        for counts in ((1, 2, 0, 5), (0, 0, 8, 0), (3, 3, 1, 1)):
            weights = [F(k, 8) for k in counts]
            assert count_combination(counts, 8, boxes) == convex_combination(weights, boxes)

    @pytest.mark.parametrize(
        "counts, scale, error",
        [
            ((1, -1, 1, 7), 8, WeightOutOfRange),
            ((1, 1, 1, 1), 8, WeightOutOfRange),
            ((0, 0, 0, 0), 0, WeightOutOfRange),
            ((4, 4), 8, ShapeMismatch),
        ],
    )
    def test_count_combination_rejects(self, counts, scale, error):
        boxes = [pr_box(0, 0, t) for t in (0, 1)] * 2
        with pytest.raises(error):
            count_combination(counts, scale, boxes)


class TestTensorAndMarginal:
    def test_tensor_marginal_recovers_factor(self):
        box = b_alpha(F(7, 8))
        prod = tensor(box, box)
        assert prod.party_count == 4
        assert marginal(prod, {0, 1}) == box
        assert marginal(prod, {2, 3}) == box

    def test_tensor_uniform(self):
        assert tensor(uniform_box(2), uniform_box(2)) == uniform_box(4)

    def test_tensor_fully_ns_random(self):
        rng = rng_from_seed(4)
        for _ in range(20):
            prod = tensor(random_ns_box(rng), random_ns_box(rng))
            assert is_fully_ns(prod).fully_ns

    def test_tensor_marginal_roundtrip_random(self):
        rng = rng_from_seed(5)
        for _ in range(10):
            a, b = random_ns_box(rng), random_ns_box(rng)
            prod = tensor(a, b)
            assert marginal(prod, {0, 1}) == a
            assert marginal(prod, {2, 3}) == b

    def test_marginal_of_pr_is_uniform(self):
        one_party = marginal(pr_box(0, 0, 0), {0})
        assert one_party.input_arity == (2,)
        for x in (0, 1):
            for a in (0, 1):
                assert one_party.prob((a,), (x,)) == F(1, 2)

    def test_marginal_of_signalling_box_fails(self):
        with pytest.raises(MarginalIllDefined):
            marginal(signalling_box(), {0})

    def test_permute_parties_roundtrip(self):
        rng = rng_from_seed(6)
        prod = tensor(random_ns_box(rng), random_ns_box(rng))
        shuffled = permute_parties(prod, (2, 0, 3, 1))
        inverse = permute_parties(shuffled, (1, 3, 0, 2))
        assert inverse == prod


class TestNonSignalling:
    def test_pr_ns_in_ab_cut(self):
        ok, violations = is_ns_in_cut(pr_box(0, 0, 0), Cut({0}, {1}))
        assert ok and not violations

    def test_signalling_box_detected(self):
        ok, violations = is_ns_in_cut(signalling_box(), Cut({0}, {1}))
        assert not ok
        assert violations

    def test_product_boxes_ns_any_cut(self):
        rng = rng_from_seed(7)
        single = lambda: random_box(rng, parties=1)
        for _ in range(10):
            box = tensor(tensor(single(), single()), single())
            for mask in range(1, 2**3 - 1):
                left = frozenset(i for i in range(3) if mask >> i & 1)
                right = frozenset(range(3)) - left
                ok, _ = is_ns_in_cut(box, Cut(left, right))
                assert ok

    def test_all_pr_fully_ns(self):
        for r, s, t in itertools.product((0, 1), repeat=3):
            assert is_fully_ns(pr_box(r, s, t)).fully_ns

    def test_tensor_pr_fully_ns(self):
        report = is_fully_ns(tensor(pr_box(0, 0, 0), pr_box(0, 0, 0)))
        assert report.fully_ns and not report.violations

    def test_signalling_violation_names_cut(self):
        report = is_fully_ns(signalling_box())
        assert not report.fully_ns
        cuts = {v.cut for v in report.violations}
        assert Cut(frozenset({0}), frozenset({1})) in cuts

    def test_one_party_boxes_are_fully_ns(self):
        # one party has no proper subset of parties, so there is no cut to check
        box = random_box(rng_from_seed(9), parties=1)
        assert is_fully_ns(uniform_box(1)) == NSReport(True, ())
        assert is_fully_ns(box) == NSReport(True, ())

    def test_report_flag_consistency(self):
        from boxcert.box import BoxError, NSReport

        with pytest.raises(BoxError):
            NSReport(True, (object(),))

    def test_fully_ns_implies_ns_in_every_cut(self):
        rng = rng_from_seed(8)
        for _ in range(5):
            box = tensor(random_ns_box(rng), random_ns_box(rng))
            assert is_fully_ns(box).fully_ns
            n = box.party_count
            for mask in range(1, 2**n - 1):
                left = frozenset(i for i in range(n) if mask >> i & 1)
                ok, _ = is_ns_in_cut(box, Cut(left, frozenset(range(n)) - left))
                assert ok


class TestImmutability:
    def test_boxes_hashable_and_frozen(self):
        box = pr_box(0, 0, 0)
        assert hash(box) == hash(pr_box(0, 0, 0))
        with pytest.raises(AttributeError):
            box.probs = ()
