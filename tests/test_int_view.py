"""The integer view of boxes and the operations that skip re-validation.

Mixtures, products, party permutations, marginals, relabelings and
twirls of validated boxes return boxes built without re-validation.
These tests check every such result against the validating ``Box(...)``
built from the same entries, check the structural transforms and the
non-signalling report against Fraction sweeps kept here as reference,
and check that boxes read from outside are still validated.
"""

import hashlib
import itertools
import json
from fractions import Fraction
from math import gcd, prod

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
    cells,
    convex_combination,
    count_combination,
    is_fully_ns,
    is_ns_in_cut,
    marginal,
    mix,
    permute_parties,
    pr_box,
    tensor,
    uniform_box,
)
from boxcert.boxio import box_from_dict, box_to_dict
from boxcert.certificates import antirobustness_certificate, verify_certificate
from boxcert.polytope import anti_robustness, lr_membership, mixture
from boxcert.sampling import (
    random_box,
    random_ns_box,
    random_relabeling,
    random_relabeling_mixture,
    rational_weights,
    rng_from_seed,
)
from boxcert.rational import RationalFormatError
from boxcert.twirl import (
    RelabelingMixture,
    TwirlChannel,
    apply_relabeling,
    line_transport,
    twirl,
)
from boxcert.vertices import broadcast_local_vertices, local_vertices_2x2, ns_vertices_2x2

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

    def test_tensor(self):
        for seed in self.SEEDS:
            rng = rng_from_seed(seed)
            assert_same_as_validated(tensor(random_box(rng), random_ns_box(rng)))
            single = lambda: random_box(rng, parties=1, denominator=5 + seed)
            assert_same_as_validated(tensor(tensor(single(), single()), single()))

    def test_permute_parties(self):
        for seed in self.SEEDS:
            rng = rng_from_seed(seed)
            order = rng.sample(range(3), 3)
            assert_same_as_validated(permute_parties(random_box(rng, parties=3), order))

    def test_marginal(self):
        for seed in self.SEEDS:
            rng = rng_from_seed(seed)
            box = tensor(random_box(rng), random_box(rng, parties=1))
            assert_same_as_validated(marginal(box, {0, 1}))
            assert_same_as_validated(marginal(box, {2}))
            assert_same_as_validated(marginal(random_ns_box(rng), {1}))

    def test_line_transport(self):
        for seed in self.SEEDS:
            rng = rng_from_seed(seed)
            r, s, t = (rng.randint(0, 1) for _ in range(3))
            assert_same_as_validated(line_transport(random_box(rng), r, s, t))

    def test_broadcast_vertices_unchanged(self):
        # the 4-party LP's columns follow the order and entries of these 576 products
        text = repr(broadcast_local_vertices())
        digest = "da2d3b21cacb3eafd857056028871d1c700c1eb38ffc7ec47d69322589a333da"
        assert hashlib.sha256(text.encode()).hexdigest() == digest

    def test_results_match_fraction_arithmetic(self):
        rng = rng_from_seed(9)
        a, b = random_box(rng), random_box(rng)
        p = F(3, 7)
        expected = tuple(p * u + (1 - p) * v for u, v in zip(a.probs, b.probs))
        assert mix(p, a, b).probs == expected


def mixed_box(rng, input_arity, output_arity) -> Box:
    """A random valid box of any shape, one random distribution per input."""
    n_out = prod(output_arity)
    probs = [w for _ in range(prod(input_arity)) for w in rational_weights(rng, n_out, 12)]
    return Box(input_arity, output_arity, probs)


def reference_tensor(box_a: Box, box_b: Box) -> Box:
    """The Fraction loop over input and output tuples that ``tensor`` replaced."""
    probs = [
        box_a.prob(aa, xa) * box_b.prob(ab, xb)
        for xa in box_a.input_tuples()
        for xb in box_b.input_tuples()
        for aa in box_a.output_tuples()
        for ab in box_b.output_tuples()
    ]
    ins = box_a.input_arity + box_b.input_arity
    return Box(ins, box_a.output_arity + box_b.output_arity, probs)


def reference_permute(box: Box, new_order) -> Box:
    """Entry (a, x) of the result read from the box at the tuples put back in old party order."""
    ins = tuple(box.input_arity[j] for j in new_order)
    outs = tuple(box.output_arity[j] for j in new_order)
    old = lambda t: tuple(t[new_order.index(j)] for j in range(len(t)))
    probs = [
        box.prob(old(a), old(x))
        for x in itertools.product(*map(range, ins))
        for a in itertools.product(*map(range, outs))
    ]
    return Box(ins, outs, probs)


def reference_marginal(box: Box, keep) -> Box:
    """Sums over the other parties' outputs, with their inputs fixed to 0."""
    keep = sorted(keep)
    ins = tuple(box.input_arity[i] for i in keep)
    outs = tuple(box.output_arity[i] for i in keep)
    pick = lambda t: tuple(t[i] for i in keep)
    inputs, outputs = (itertools.product(*map(range, arity)) for arity in (ins, outs))
    totals = dict.fromkeys(itertools.product(inputs, outputs), Fraction(0))
    for x in box.input_tuples():
        if not any(x[i] for i in range(box.party_count) if i not in keep):
            for a in box.output_tuples():
                totals[pick(x), pick(a)] += box.prob(a, x)
    return Box(ins, outs, list(totals.values()))


class TestStructuralTransforms:
    """Products, party permutations and marginals on mixed arities, against Fraction loops."""

    SHAPES = (((3,), (2,)), ((2,), (3,)), ((1, 2), (2, 2)))

    def factors(self, seed):
        rng = rng_from_seed(seed)
        return [mixed_box(rng, *shape) for shape in self.SHAPES]

    def test_cells_are_storage_order(self):
        for box in self.factors(0) + [uniform_box(3)]:
            listed = cells(box.input_arity, box.output_arity)
            expected = [(a, x) for x in box.input_tuples() for a in box.output_tuples()]
            assert list(listed) == expected
            assert [box.index(a, x) for a, x in listed] == list(range(len(box.probs)))

    def test_tensor(self):
        for seed in range(6):
            a, b, c = self.factors(seed)
            assert tensor(a, b) == reference_tensor(a, b)
            assert tensor(tensor(c, a), b) == reference_tensor(reference_tensor(c, a), b)

    def test_permute_parties(self):
        for seed in range(6):
            a, b, c = self.factors(seed)
            box = tensor(tensor(c, a), b)
            for order in itertools.permutations(range(4)):
                assert permute_parties(box, order) == reference_permute(box, order)

    def test_marginal(self):
        for seed in range(6):
            a, b, c = self.factors(seed)
            # c's two parties, now 1 and 3, signal to each other: keep them together
            box = permute_parties(tensor(tensor(c, a), b), (3, 0, 2, 1))
            for size in (1, 2, 3):
                for keep in itertools.combinations(range(4), size):
                    if (1 in keep) == (3 in keep):
                        assert marginal(box, keep) == reference_marginal(box, keep)

    def test_line_transport(self):
        for seed in range(6):
            box = random_box(rng_from_seed(seed))
            for r, s, t in itertools.product((0, 1), repeat=3):
                expected = [
                    box.prob((a ^ (r & x), b ^ (s & y) ^ t), (x, y))
                    for (a, b), (x, y) in cells((2, 2), (2, 2))
                ]
                assert list(line_transport(box, r, s, t).probs) == expected


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


class TestDeferredFractions:
    """Boxes built without re-validation store only the integer view until ``probs`` is read."""

    def test_trusted_and_validated_boxes_agree(self):
        for seed in range(6):
            box = random_box(rng_from_seed(seed), parties=2 + seed % 2)
            nums, den = box.int_view
            # an unreduced view: _trusted stores it in least form
            shape = box.input_arity, box.output_arity
            trusted = Box._trusted(*shape, [3 * n for n in nums], 3 * den)
            assert "probs" not in vars(trusted)
            validated = Box(box.input_arity, box.output_arity, box.probs)
            assert trusted == validated and validated == trusted
            assert hash(trusted) == hash(validated)
            assert trusted.int_view == validated.int_view == (nums, den)
            assert "probs" not in vars(trusted)
            assert trusted.probs == validated.probs
            assert repr(trusted) == repr(validated)
            assert all(type(p) is Fraction for p in trusted.probs)

    def test_mixture_compares_without_fractions(self):
        box = b_alpha(F(3, 4))
        weights = lr_membership(box).weights
        mixed = mixture(weights, local_vertices_2x2())
        assert mixed == box
        assert "probs" not in vars(mixed)

    def test_count_combination_reads_no_fractions(self):
        a, b = b_alpha(F(7, 8)), mix(F(1, 3), pr_box(0, 0, 0), uniform_box(2))
        assert "probs" not in vars(a) and "probs" not in vars(b)
        mixed = count_combination([1, 2], 3, [a, b])
        assert all("probs" not in vars(x) for x in (a, b, mixed))
        assert_same_as_validated(mixed)

    def test_not_normalized_reports_the_block_sum(self):
        last = (F(1, 4), F(1, 4), F(1, 6), F(1, 2))
        with pytest.raises(NotNormalized) as info:
            Box((2, 2), (2, 2), (F(1, 4),) * 12 + last)
        assert info.value.inputs == (1, 1)
        assert info.value.actual_sum == sum(last) == F(7, 6)
        assert str(info.value) == "outputs at input (1, 1) sum to 7/6, expected 1"
