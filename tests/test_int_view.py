"""The integer view of boxes and the operations that skip re-validation.

Mixtures, relabelings and twirls of validated boxes return boxes built
without re-validation.  These tests check every such result against the
validating ``Box(...)`` built from the same entries, check the
non-signalling report against a Fraction sweep kept here as reference,
and check that boxes read from outside are still validated.
"""

import itertools
import json
from fractions import Fraction
from math import gcd

import pytest

from boxcert.box import (
    Box,
    BoxError,
    Cut,
    NegativeEntry,
    NotNormalized,
    NSReport,
    NSViolation,
    b_alpha,
    convex_combination,
    is_fully_ns,
    is_ns_in_cut,
    mix,
    pr_box,
    uniform_box,
)
from boxcert.boxio import box_from_dict, box_to_dict
from boxcert.certificates import antirobustness_certificate, verify_certificate
from boxcert.polytope import anti_robustness
from boxcert.sampling import (
    random_box,
    random_ns_box,
    random_relabeling,
    random_relabeling_mixture,
    rational_weights,
    rng_from_seed,
)
from boxcert.rational import RationalFormatError
from boxcert.twirl import RelabelingMixture, TwirlChannel, apply_relabeling, twirl
from boxcert.vertices import ns_vertices_2x2

F = Fraction


def assert_same_as_validated(box: Box) -> None:
    """``box`` equals the validated Box of its entries, and its view is least."""
    validated = Box(box.input_arity, box.output_arity, box.probs)
    assert box == validated
    assert hash(box) == hash(validated)
    assert repr(box) == repr(validated)
    assert all(type(p) is Fraction for p in box.probs)
    nums, den = box.int_view
    assert (nums, den) == validated.int_view
    assert gcd(den, *nums) == 1
    assert [F(n, den) for n in nums] == list(box.probs)


class TestIntView:
    def test_least_common_denominator(self):
        nums, den = b_alpha(F(7, 8)).int_view
        assert den == 16
        assert nums[:4] == (7, 1, 1, 7)

    def test_not_part_of_equality_or_repr(self):
        box = pr_box(0, 0, 0)
        fresh = pr_box(0, 0, 0)
        box.int_view  # filled on first use
        assert box == fresh and hash(box) == hash(fresh)
        assert "int_view" not in repr(box)


class TestTrustedResults:
    SEEDS = range(12)

    def test_mix(self):
        for seed in self.SEEDS:
            rng = rng_from_seed(seed)
            a, b = random_ns_box(rng), random_box(rng)
            p = rational_weights(rng, 2)[0]
            assert_same_as_validated(mix(p, a, b))

    def test_mix_endpoints(self):
        a, b = pr_box(0, 0, 0), uniform_box(2)
        assert mix(1, a, b) == a
        assert mix(0, a, b) == b
        assert_same_as_validated(mix(1, a, b))

    def test_convex_combination(self):
        boxes = [box for _, box in ns_vertices_2x2()]
        for seed in self.SEEDS:
            rng = rng_from_seed(seed)
            weights = rational_weights(rng, len(boxes), denominator=7 + seed)
            assert_same_as_validated(convex_combination(weights, boxes))

    def test_convex_combination_of_mixed_denominators(self):
        rng = rng_from_seed(3)
        boxes = [random_box(rng, denominator=d) for d in (3, 5, 8, 9)]
        weights = [F(1, 6), F(1, 3), F(0), F(1, 2)]
        assert_same_as_validated(convex_combination(weights, boxes))

    def test_convex_combination_of_three_party_boxes(self):
        rng = rng_from_seed(4)
        boxes = [random_box(rng, parties=3) for _ in range(3)]
        assert_same_as_validated(convex_combination([F(1, 2), F(1, 4), F(1, 4)], boxes))

    def test_relabeling(self):
        for seed in self.SEEDS:
            rng = rng_from_seed(seed)
            box = random_box(rng)
            assert_same_as_validated(apply_relabeling(random_relabeling(rng), box))

    def test_twirl(self):
        for seed in self.SEEDS:
            rng = rng_from_seed(seed)
            box = random_box(rng)
            r, s = rng.randint(0, 1), rng.randint(0, 1)
            assert_same_as_validated(twirl(box, r, s))
            assert_same_as_validated(TwirlChannel(r, s).apply(box))

    def test_relabeling_mixture(self):
        for seed in self.SEEDS:
            rng = rng_from_seed(seed)
            box = random_box(rng)
            channel = random_relabeling_mixture(rng, size=1 + seed % 5)
            assert_same_as_validated(channel.apply(box))

    def test_mixture_weights_must_be_exact(self):
        op = random_relabeling(rng_from_seed(0))
        assert RelabelingMixture((op,), (1,)).weights == (F(1),)
        with pytest.raises(RationalFormatError):
            RelabelingMixture((op, op), (0.5, 0.5))

    def test_inherited_through_mix(self):
        rng = rng_from_seed(5)
        assert_same_as_validated(b_alpha(F(25, 32)))
        assert_same_as_validated(random_ns_box(rng))
        assert_same_as_validated(anti_robustness(random_ns_box(rng)).local_witness)

    def test_results_match_fraction_arithmetic(self):
        rng = rng_from_seed(9)
        a, b = random_box(rng), random_box(rng)
        p = F(3, 7)
        expected = tuple(p * u + (1 - p) * v for u, v in zip(a.probs, b.probs))
        assert mix(p, a, b).probs == expected


def reference_one_sided(box: Box, keep) -> list[NSViolation]:
    """The Fraction sweep over input and output tuples that ``is_fully_ns`` replaced."""
    keep = tuple(sorted(keep))
    rest = tuple(i for i in range(box.party_count) if i not in keep)
    cut = Cut(frozenset(keep), frozenset(rest))
    ranges = lambda arity, parties: itertools.product(*(range(arity[i]) for i in parties))
    violations = []
    for a_keep in ranges(box.output_arity, keep):
        for x_keep in ranges(box.input_arity, keep):
            reference = ref_inputs = None
            for x_rest in ranges(box.input_arity, rest):
                x_full = [0] * box.party_count
                for i, v in zip(keep + rest, x_keep + x_rest):
                    x_full[i] = v
                total = Fraction(0)
                for a_rest in ranges(box.output_arity, rest):
                    a_full = [0] * box.party_count
                    for i, v in zip(keep + rest, a_keep + a_rest):
                        a_full[i] = v
                    total += box.prob(tuple(a_full), tuple(x_full))
                if reference is None:
                    reference, ref_inputs = total, x_rest
                elif total != reference:
                    violations.append(
                        NSViolation(cut, "to_left", (ref_inputs, x_rest), total - reference)
                    )
    return violations


def reference_report(box: Box) -> NSReport:
    n = box.party_count
    violations = []
    for mask in range(1, 2**n - 1):
        violations += reference_one_sided(box, [i for i in range(n) if mask >> i & 1])
    return NSReport(not violations, tuple(violations))


class TestNonSignallingReport:
    @pytest.mark.parametrize("parties", [2, 3])
    def test_signalling_boxes_match_reference(self, parties):
        for seed in range(8):
            box = random_box(rng_from_seed(seed), parties=parties, denominator=12)
            report = is_fully_ns(box)
            assert not report.fully_ns
            assert report == reference_report(box)
            assert repr(report) == repr(reference_report(box))

    def test_ns_boxes_match_reference(self):
        rng = rng_from_seed(2)
        boxes = [random_ns_box(rng) for _ in range(6)] + [uniform_box(3), pr_box(1, 0, 1)]
        for box in boxes:
            assert is_fully_ns(box) == reference_report(box) == NSReport(True, ())

    def test_cut_check_matches_reference(self):
        box = random_box(rng_from_seed(1), parties=3)
        cut = Cut(frozenset({0, 2}), frozenset({1}))
        ok, violations = is_ns_in_cut(box, cut)
        expected = [
            NSViolation(cut, direction, v.inputs, v.discrepancy)
            for direction, keep in (("to_left", (0, 2)), ("to_right", (1,)))
            for v in reference_one_sided(box, keep)
        ]
        assert not ok and violations == expected


class TestPublicBoxStillValidates:
    def test_negative_entry(self):
        probs = (F(3, 2), F(-1, 2), F(0), F(0)) + (F(1, 4),) * 12
        with pytest.raises(NegativeEntry):
            Box((2, 2), (2, 2), probs)

    def test_not_normalized(self):
        probs = (F(1, 4),) * 15 + (F(1, 3),)
        with pytest.raises(NotNormalized):
            Box((2, 2), (2, 2), probs)

    def test_non_fraction_entry(self):
        probs = (0.25,) + (F(1, 4),) * 15
        with pytest.raises(BoxError, match="not a Fraction"):
            Box((2, 2), (2, 2), probs)

    def test_reading_goes_through_validation(self, monkeypatch):
        calls = []
        original = Box.__post_init__

        def counting(self):
            calls.append(self)
            original(self)

        box = b_alpha(F(7, 8))
        data = json.loads(json.dumps(antirobustness_certificate(box, anti_robustness(box))))
        monkeypatch.setattr(Box, "__post_init__", counting)
        assert box_from_dict(box_to_dict(box)) == box
        assert calls == [box]
        calls.clear()
        ok, errors = verify_certificate(data)
        assert ok, errors
        assert box in calls
