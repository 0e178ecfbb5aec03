"""Acceptance suite: one test per advertised guarantee, exact tolerances.

Each criterion prints a single PASS line (visible with ``pytest -s`` or
``-v``); every equality is exact rational equality, and stated wall-time
budgets are asserted.  Criterion 10 (the heavy 4-party oracle) is opt-in:
set BOXCERT_FULL_ORACLE=1 or run ``pytest -m full_oracle``.
"""

import itertools
import os
import time
from fractions import Fraction

import pytest

from boxcert.box import b_alpha, deterministic_vertices, pr_box
from boxcert.broadcast import (
    BroadcastInstance,
    classify_row,
    full_broadcast_feasibility,
    projection_feasibility,
    projection_lp,
)
from boxcert.chsh import beta, beta_table
from boxcert.polytope import (
    anti_robustness,
    halfspace_body_equality_check,
    hyperplane_locality_check,
    lr_membership,
)
from boxcert.ratlp import LPOutcome, check_witness
from boxcert.sampling import (
    all_relabelings,
    random_box,
    random_ns_box,
    random_ns_box_with_min_beta,
    random_relabeling_mixture,
    rng_from_seed,
)
from boxcert.twirl import TwirlChannel, apply_relabeling, line_decomposition, twirl

F = Fraction

ALPHA_GRID = [F(3, 4), F(13, 16), F(7, 8), F(15, 16), F(1)]


def report(criterion: str, detail: str, elapsed: float) -> None:
    print(f"PASS {criterion}: {detail} ({elapsed:.2f}s)")


def test_criterion_1_anti_robustness_formula():
    start = time.monotonic()
    for alpha in ALPHA_GRID:
        t0 = time.monotonic()
        value = anti_robustness(b_alpha(alpha)).value
        solve_time = time.monotonic() - t0
        assert value == F(3, 4) / alpha
        assert solve_time < 1.0
    report(
        "criterion 1",
        "anti-robustness of the five line boxes equals 3/(4*alpha) exactly",
        time.monotonic() - start,
    )


def test_criterion_2_local_boxes_value_one():
    start = time.monotonic()
    boxes = deterministic_vertices() + [b_alpha(F(3, 4))]
    for box in boxes:
        t0 = time.monotonic()
        assert anti_robustness(box).value == 1
        assert time.monotonic() - t0 < 1.0
    report(
        "criterion 2",
        "all 16 deterministic vertices and K have anti-robustness 1",
        time.monotonic() - start,
    )


def test_criterion_3_hyperplane_locality():
    start = time.monotonic()
    total = 0
    for r, s, t in itertools.product((0, 1), repeat=3):
        result = hyperplane_locality_check(r, s, t)
        assert result.all_pass
        assert len(result.checks) == 23
        for check in result.checks:
            assert beta(check.ray.point, r, s, t) == 2
            assert check.within_all_facets
            assert check.membership.member
            total += 1
    elapsed = time.monotonic() - start
    assert total == 184
    assert elapsed < 10.0
    report("criterion 3", "184/184 ray points satisfy all facets and are local", elapsed)


def test_criterion_4_twirl_invariance():
    start = time.monotonic()
    rng = rng_from_seed(0)
    for _ in range(100):
        box = random_box(rng)
        for r, s in itertools.product((0, 1), repeat=2):
            image = twirl(box, r, s)
            for t in (0, 1):
                assert beta(image, r, s, t) == beta(box, r, s, t)
            assert line_decomposition(image, r, s) is not None
    elapsed = time.monotonic() - start
    assert elapsed < 5.0
    report(
        "criterion 4",
        "twirl preserves beta_rst and lands on the line for 100 seeded boxes",
        elapsed,
    )


def test_criterion_5_vertex_beta_table():
    start = time.monotonic()
    pr_values = set()
    for r, s, t in itertools.product((0, 1), repeat=3):
        values, _ = beta_table(pr_box(r, s, t))
        assert len(values) == 8
        pr_values |= {v.value for v in values}
    assert pr_values <= {F(-4), F(0), F(4)}
    det_values = set()
    for vertex in deterministic_vertices():
        values, _ = beta_table(vertex)
        det_values |= {v.value for v in values}
    assert det_values <= {F(-2), F(2)}
    elapsed = time.monotonic() - start
    assert elapsed < 1.0
    report(
        "criterion 5",
        "vertex beta values land in {-4,0,4} (PR) and {-2,2} (deterministic)",
        elapsed,
    )


def test_criterion_6_projection_no_go_separating_grid():
    start = time.monotonic()
    for alpha in (F(13, 16), F(7, 8), F(15, 16), F(1)):
        t0 = time.monotonic()
        verdict = projection_feasibility(BroadcastInstance(alpha))
        assert time.monotonic() - t0 < 1.0
        assert not verdict.feasible
        assert verdict.farkas
        assert check_witness(verdict.lp, verdict.outcome)
    t0 = time.monotonic()
    verdict = projection_feasibility(BroadcastInstance(F(3, 4)))
    assert time.monotonic() - t0 < 1.0
    assert verdict.feasible
    local = verdict.witness["local"]
    assert (local.p11, local.p12) == (F(9, 16), F(3, 16))
    assert check_witness(verdict.lp, verdict.outcome)
    report(
        "criterion 6",
        "projection infeasible with verified Farkas above 4/5, feasible at 3/4 "
        "with the (9/16, 3/16) witness",
        time.monotonic() - start,
    )


def test_criterion_6_projection_no_go_at_25_32():
    """Inside (3/4, 4/5] the projection argument cannot certify no-broadcasting.

    Dominating the scaled broadcast line inside the projected local
    region pins L = (9/16, 3/16, 3/16, 1/16) and forces the broadcast
    projection (3a/4, a/4, a/4, 1 - 5a/4) with all admixture on the
    double-failure component.  That is a valid distribution exactly for
    3/4 <= alpha <= 4/5, so at alpha = 25/32 the projected system is
    feasible with this boundary witness and no Farkas certificate can
    exist.  The full 4-party oracle agrees (see
    test_full_oracle_separation_threshold): the mixture argument
    certifies no-broadcasting only for alpha > 4/5.
    """
    start = time.monotonic()
    alpha = F(25, 32)
    instance = BroadcastInstance(alpha)
    verdict = projection_feasibility(instance)
    assert verdict.feasible
    assert verdict.farkas is None
    assert check_witness(verdict.lp, verdict.outcome)
    local = (F(9, 16), F(3, 16), F(3, 16), F(1, 16))
    broadcast = (3 * alpha / 4, alpha / 4, alpha / 4, 1 - 5 * alpha / 4)
    admixture = (F(0), F(0), F(0), F(1))
    assert broadcast == (F(75, 128), F(25, 128), F(25, 128), F(3, 128))
    assert verdict.witness["local"].as_tuple() == local
    assert verdict.witness["broadcast"].as_tuple() == broadcast
    assert verdict.witness["admixture"].as_tuple() == admixture
    # the closed form satisfies every row by substitution, without the solver
    closed_form = LPOutcome(
        status="optimal",
        witness={
            "L11": local[0], "L12": local[1], "L22": local[3],
            "B11": broadcast[0], "B12": broadcast[1], "B22": broadcast[3],
            "X11": admixture[0], "X12": admixture[1],
            "X21": admixture[2], "X22": admixture[3],
        },
        objective_value=F(0),
        dual={},
    )
    assert check_witness(projection_lp(instance), closed_form)
    assert not classify_row(alpha, verdict.feasible, None).certified
    report(
        "criterion 6 (25/32)",
        "projection feasible with the exact boundary witness "
        "Bhat = (75/128, 25/128, 25/128, 3/128); not certified",
        time.monotonic() - start,
    )


def test_criterion_7_monotonicity():
    start = time.monotonic()
    rng = rng_from_seed(0)
    channels = [TwirlChannel(r, s).apply for r, s in itertools.product((0, 1), repeat=2)]
    channels += [
        (lambda op: (lambda box: apply_relabeling(op, box)))(op)
        for op in all_relabelings()
    ]
    mix_rng = rng_from_seed(1)
    channels += [
        random_relabeling_mixture(mix_rng, size=4).apply for _ in range(20)
    ]
    assert len(channels) == 56
    for _ in range(100):
        box = random_ns_box(rng)
        base = anti_robustness(box).value
        for channel in channels:
            assert anti_robustness(channel(box)).value >= base
    elapsed = time.monotonic() - start
    assert elapsed < 120.0
    report(
        "criterion 7",
        "anti-robustness non-decreasing under all 56 catalog channels x 100 boxes",
        elapsed,
    )


def test_monotonicity_on_non_local_boxes():
    # criterion 7's boxes are all local, where every value is 1; these are not
    rng = rng_from_seed(0)
    channels = [TwirlChannel(r, s).apply for r, s in itertools.product((0, 1), repeat=2)]
    channels += [
        (lambda op: (lambda box: apply_relabeling(op, box)))(op)
        for op in all_relabelings()
    ]
    mix_rng = rng_from_seed(1)
    channels += [
        random_relabeling_mixture(mix_rng, size=4).apply for _ in range(20)
    ]
    assert len(channels) == 56
    strict = 0
    for _ in range(20):
        r, s, t = (rng.randint(0, 1) for _ in range(3))
        box = random_ns_box_with_min_beta(rng, r, s, t)
        assert not beta_table(box)[1]
        base = anti_robustness(box).value
        assert base < 1
        for channel in channels:
            value = anti_robustness(channel(box)).value
            assert value >= base
            strict += value > base
    assert strict == 386


def test_criterion_8_twirl_commutation():
    start = time.monotonic()
    for r, s, t in itertools.product((0, 1), repeat=3):
        rng = rng_from_seed(100 + 4 * r + 2 * s + t)
        for _ in range(100):
            box = random_ns_box_with_min_beta(rng, r, s, t)
            assert beta(box, r, s, t) >= 2
            assert anti_robustness(twirl(box, r, s)).value == anti_robustness(box).value
    elapsed = time.monotonic() - start
    assert elapsed < 120.0
    report(
        "criterion 8",
        "anti-robustness equals its twirl for 100 boxes per (r,s,t)",
        elapsed,
    )


def test_criterion_9_halfspace_sampled_equivalence():
    start = time.monotonic()
    for r, s, t in itertools.product((0, 1), repeat=3):
        result = halfspace_body_equality_check(r, s, t, samples=500, seed=0)
        assert result.all_pass
        assert not result.hull_side_failures
        assert not result.halfspace_side_failures
    elapsed = time.monotonic() - start
    assert elapsed < 300.0
    report(
        "criterion 9",
        "500 seeded samples per direction per apex decompose/verify exactly",
        elapsed,
    )


@pytest.mark.full_oracle
@pytest.mark.skipif(
    not os.environ.get("BOXCERT_FULL_ORACLE"),
    reason="opt-in heavy path: set BOXCERT_FULL_ORACLE=1",
)
def test_criterion_10_full_four_party_oracle():
    from boxcert.broadcast import c1c2_projection, s1_check

    start = time.monotonic()
    feasible = full_broadcast_feasibility(BroadcastInstance(F(3, 4)))
    assert feasible.feasible
    assert check_witness(feasible.lp, feasible.outcome)
    # any feasible witness projects into S1 cap S2, i.e. onto (9/16, 3/16)
    local_projection = c1c2_projection(feasible.witness["local"])
    assert (local_projection.p11, local_projection.p12) == (F(9, 16), F(3, 16))
    assert local_projection.p12 == local_projection.p21
    assert s1_check(local_projection.p11, local_projection.p12)
    infeasible = full_broadcast_feasibility(BroadcastInstance(F(7, 8)))
    assert not infeasible.feasible
    assert infeasible.farkas
    assert check_witness(infeasible.lp, infeasible.outcome)
    # projection soundness where both oracles ran: the projected system is
    # already infeasible at 7/8, and the full oracle agrees
    assert not projection_feasibility(BroadcastInstance(F(7, 8))).feasible
    elapsed = time.monotonic() - start
    assert elapsed < 1800.0
    report(
        "criterion 10",
        "full oracle feasible at 3/4 and infeasible at 7/8, certificates verified",
        elapsed,
    )


@pytest.mark.full_oracle
@pytest.mark.skipif(
    not os.environ.get("BOXCERT_FULL_ORACLE"),
    reason="opt-in heavy path: set BOXCERT_FULL_ORACLE=1",
)
def test_full_oracle_separation_threshold():
    """The mixing obstruction separates exactly above alpha = 4/5.

    Below and at 4/5 the full 4-party system L = p*Bhat + (1-p)*X admits
    exact witnesses (so no-broadcasting is not certified by this
    argument there); above 4/5 it is infeasible with exact Farkas
    certificates.  The boundary matches the projected analysis: the
    forced broadcast projection (3a/4, a/4, a/4, 1 - 5a/4) is a valid
    distribution exactly for alpha <= 4/5.
    """
    start = time.monotonic()
    for alpha, expected in ((F(25, 32), True), (F(4, 5), True), (F(13, 16), False)):
        verdict = full_broadcast_feasibility(BroadcastInstance(alpha))
        assert verdict.feasible == expected
        assert check_witness(verdict.lp, verdict.outcome)
    report(
        "full-oracle threshold",
        "mixing system feasible at 25/32 and 4/5, infeasible at 13/16",
        time.monotonic() - start,
    )


def test_criterion_11_certificate_integrity():
    start = time.monotonic()
    rng = rng_from_seed(0)
    outcomes = []
    for _ in range(5):
        box = random_ns_box(rng)
        member = lr_membership(box)
        outcomes.append((member.lp, member.outcome))
        result = anti_robustness(box)
        outcomes.append((result.lp, result.outcome))
    nonlocal_box = random_ns_box_with_min_beta(rng, 0, 0, 0)
    member = lr_membership(nonlocal_box)
    if not member.member:
        outcomes.append((member.lp, member.outcome))
    for alpha in ALPHA_GRID:
        verdict = projection_feasibility(BroadcastInstance(alpha))
        outcomes.append((verdict.lp, verdict.outcome))
    assert outcomes
    for lp, outcome in outcomes:
        assert outcome.status in ("optimal", "infeasible")
        assert check_witness(lp, outcome)
    # mutation test: perturbing any single certificate coordinate must fail
    lp, outcome = outcomes[0]
    assert outcome.status == "optimal"
    var = next(iter(outcome.witness))
    mutated = LPOutcome(
        status=outcome.status,
        witness={**outcome.witness, var: outcome.witness[var] + F(1, 1000)},
        objective_value=outcome.objective_value,
        dual=outcome.dual,
        farkas=None,
    )
    assert not check_witness(lp, mutated)
    infeasible = next(o for o in outcomes if o[1].status == "infeasible")
    key = next(iter(infeasible[1].farkas))
    mutated_farkas = dict(infeasible[1].farkas)
    mutated_farkas[key] += F(1, 1000)
    assert not check_witness(
        infeasible[0], LPOutcome(status="infeasible", farkas=mutated_farkas)
    )
    report(
        "criterion 11",
        "all emitted outcomes re-verify; perturbed certificates fail",
        time.monotonic() - start,
    )
