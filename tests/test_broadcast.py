"""Projection argument, broadcast line, and scan reports."""

import hashlib
import itertools
import random
from fractions import Fraction

import pytest

from boxcert import broadcast, ratlp
from boxcert.box import b_alpha, convex_combination, mix, permute_parties, pr_box, tensor
from boxcert.broadcast import (
    _CELL_ORBITS,
    _CROSS_COPY,
    _SLOT_ORBITS,
    COPY_SWAP,
    BroadcastInstance,
    JointDist,
    RangeError,
    S1_INEQUALITIES,
    WrongShape,
    _evar,
    _orbits_of_vertices,
    _validated_projection_lp,
    bhat_from_witness,
    broadcast_scan,
    c1c2_projection,
    full_broadcast_lp,
    projection_feasibility,
    projection_lp,
    s1_check,
    s2_point,
    subset_correlator,
)
from boxcert.certificates import scan_certificate, verify_certificate
from boxcert.chsh import beta
from boxcert.polytope import anti_robustness, anti_robustness_closed_form
from boxcert.ratlp import check_witness
from boxcert.sampling import random_ns_box, rational_weights, rng_from_seed
from boxcert.twirl import line_transport
from boxcert.vertices import broadcast_local_vertices

F = Fraction


class TestJointDist:
    def test_validation(self):
        JointDist(F(1, 4), F(1, 4), F(1, 4), F(1, 4))
        with pytest.raises(RangeError):
            JointDist(F(1, 2), F(1, 2), F(1, 2), F(-1, 2))
        with pytest.raises(RangeError):
            JointDist(F(1, 2), F(1, 2), F(1, 2), F(1, 2))


class TestBroadcastInstance:
    def test_p_alpha(self):
        assert BroadcastInstance(F(3, 4)).p_alpha == 1
        assert BroadcastInstance(F(7, 8)).p_alpha == F(6, 7)
        assert BroadcastInstance(F(1)).p_alpha == F(3, 4)

    def test_range(self):
        with pytest.raises(RangeError):
            BroadcastInstance(F(1, 2))
        with pytest.raises(RangeError):
            BroadcastInstance(F(9, 8))


class TestProjection:
    def test_product_of_line_boxes(self):
        rng = rng_from_seed(60)
        for _ in range(5):
            alpha = F(rng.randint(0, 64), 64)
            dist = c1c2_projection(tensor(b_alpha(alpha), b_alpha(alpha)))
            assert dist.as_tuple() == (
                alpha**2,
                alpha * (1 - alpha),
                alpha * (1 - alpha),
                (1 - alpha) ** 2,
            )

    def test_pr_product_always_wins(self):
        dist = c1c2_projection(tensor(pr_box(0, 0, 0), pr_box(0, 0, 0)))
        assert dist.as_tuple() == (1, 0, 0, 0)

    def test_mean_c1_equals_marginal_beta(self):
        rng = rng_from_seed(61)
        for _ in range(5):
            left = random_ns_box(rng)
            right = random_ns_box(rng)
            box4 = tensor(left, right)
            dist = c1c2_projection(box4)
            mean_c1 = 4 * (dist.p11 + dist.p12) - 4 * (dist.p21 + dist.p22)
            assert mean_c1 == beta(left, 0, 0, 0)

    def test_linearity(self):
        rng = rng_from_seed(62)
        for _ in range(5):
            p = F(rng.randint(0, 64), 64)
            box_a = tensor(random_ns_box(rng), random_ns_box(rng))
            box_b = tensor(random_ns_box(rng), random_ns_box(rng))
            mixed = c1c2_projection(mix(p, box_a, box_b))
            da, db = c1c2_projection(box_a), c1c2_projection(box_b)
            for got, va, vb in zip(mixed.as_tuple(), da.as_tuple(), db.as_tuple()):
                assert got == p * va + (1 - p) * vb

    def test_marginal_law(self):
        # any 4-party box whose AB marginal is b_alpha projects with
        # p11 + p12 = alpha
        rng = rng_from_seed(63)
        for _ in range(5):
            alpha = F(rng.randint(48, 64), 64)
            box4 = tensor(b_alpha(alpha), random_ns_box(rng))
            dist = c1c2_projection(box4)
            assert dist.p11 + dist.p12 == alpha

    def test_wrong_shape(self):
        with pytest.raises(WrongShape):
            c1c2_projection(pr_box(0, 0, 0))


class TestS1S2:
    def test_s1_examples(self):
        assert s1_check(F(9, 16), F(3, 16))
        assert s1_check(F(1, 4), F(1, 4))
        assert not s1_check(F(1, 2), F(1, 8))  # violates 2p11 - 6p12 <= 0 by 1/4

    def test_s1_tight_at_intersection(self):
        p11, p12 = F(9, 16), F(3, 16)
        assert 2 * p11 - 6 * p12 == 0
        assert 6 * p11 + 14 * p12 - 6 == 0

    def test_s2_points(self):
        assert s2_point(BroadcastInstance(F(3, 4)), F(9, 16)) == (F(9, 16), F(3, 16))
        for alpha in (F(3, 4), F(7, 8), F(1)):
            assert s2_point(BroadcastInstance(alpha), F(0)) == (F(0), F(3, 4))
        assert s2_point(BroadcastInstance(F(7, 8)), F(7, 8)) == (F(3, 4), F(0))

    def test_s2_range(self):
        with pytest.raises(RangeError):
            s2_point(BroadcastInstance(F(7, 8)), F(15, 16))

    def test_symmetrized_local_projections_land_in_s1(self):
        rng = rng_from_seed(64)
        vertices = broadcast_local_vertices()
        for _ in range(5):
            picks = [vertices[rng.randrange(len(vertices))][1] for _ in range(6)]
            weights = rational_weights(rng, len(picks))
            local = convex_combination(weights, picks)
            swapped = permute_parties(local, (2, 3, 0, 1))
            symmetric = mix(F(1, 2), local, swapped)
            dist = c1c2_projection(symmetric)
            assert dist.p12 == dist.p21
            assert s1_check(dist.p11, dist.p12)

    def test_s1_is_the_projected_local_polytope(self):
        # the hull of the swap-averaged projections of the 576 AA'|BB' vertices
        projected = set()
        for _, vertex in broadcast_local_vertices():
            dist = c1c2_projection(vertex)
            projected.add((dist.p11, (dist.p12 + dist.p21) / 2))
        assert all(s1_check(p11, p12) for p11, p12 in projected)
        corners = set()
        for (_, a1, b1, _, c1), (_, a2, b2, _, c2) in itertools.combinations(S1_INEQUALITIES, 2):
            det = F(a1 * b2 - a2 * b1)
            if det:
                corner = ((c1 * b2 - c2 * b1) / det, (a1 * c2 - a2 * c1) / det)
                if s1_check(*corner):
                    corners.add(corner)
        assert corners <= projected
        assert corners == {
            (F(1, 16), F(3, 16)), (F(1, 8), F(3, 8)), (F(3, 8), F(1, 8)), (F(9, 16), F(3, 16))
        }


class TestProjectionFeasibility:
    def test_feasible_at_three_quarters_with_exact_witness(self):
        verdict = projection_feasibility(BroadcastInstance(F(3, 4)))
        assert verdict.feasible
        local = verdict.witness["local"]
        assert (local.p11, local.p12) == (F(9, 16), F(3, 16))
        assert check_witness(verdict.lp, verdict.outcome)

    @pytest.mark.parametrize(
        "alpha", [F(13, 16), F(7, 8), F(15, 16), F(1)]
    )
    def test_infeasible_above_four_fifths(self, alpha):
        verdict = projection_feasibility(BroadcastInstance(alpha))
        assert not verdict.feasible
        assert verdict.farkas
        assert check_witness(verdict.lp, verdict.outcome)

    def test_projection_cannot_separate_below_four_fifths(self):
        # The projected system admits the boundary witness for
        # alpha in (3/4, 4/5]: the forced broadcast projection
        # (3a/4, a/4, a/4, 1 - 5a/4) is a valid distribution there, with
        # all admixture mass on the double-failure component.  The full
        # 4-party oracle is feasible in that window too, so neither
        # oracle separates below 4/5.
        verdict = projection_feasibility(BroadcastInstance(F(25, 32)))
        assert verdict.feasible
        local = verdict.witness["local"]
        assert (local.p11, local.p12) == (F(9, 16), F(3, 16))
        b = verdict.witness["broadcast"]
        assert b.p11 + b.p21 == F(25, 32)
        # the witness family reaches alpha = 4/5 with no double-failure mass
        edge = projection_feasibility(BroadcastInstance(F(4, 5)))
        assert edge.feasible
        assert edge.witness["broadcast"].p22 == 0

    def test_witness_breaking_a_link_row_raises(self, monkeypatch):
        # a runtime check, not an assert, so that python -O keeps it; 3/4 is
        # the one feasible alpha that still solves
        def solve_with_a_broken_witness(lp):
            out = ratlp.solve(lp)
            # L = Bhat = (9/16, 3/16, 3/16, 1/16) at p_alpha = 1; swapping L11 and
            # L22 keeps L a distribution but breaks L = Bhat
            w = out.witness
            witness = dict(w, L11=w["L22"], L22=w["L11"])
            return ratlp.LPOutcome("optimal", witness, out.objective_value, out.dual)

        monkeypatch.setattr(broadcast, "solve", solve_with_a_broken_witness)
        with pytest.raises(RuntimeError, match="link row"):
            projection_feasibility(BroadcastInstance(F(3, 4)))

    def test_verdict_on_reference_grid(self):
        # the standard scan grid separates cleanly: feasible only at 3/4
        for alpha in (F(3, 4), F(13, 16), F(7, 8), F(15, 16), F(1)):
            verdict = projection_feasibility(BroadcastInstance(alpha))
            assert verdict.feasible == (alpha == F(3, 4))


def _grid(den):
    """Every alpha k/den in [3/4, 1]."""
    return [F(k, den) for k in range(-(-3 * den // 4), den + 1)]


def counting_validating_builds(monkeypatch):
    """Count calls of the validating Constraint and LinearProgram constructors."""
    calls = []
    for cls in (ratlp.Constraint, ratlp.LinearProgram):
        init = cls.__init__

        def counting_init(self, *args, _init=init, _name=cls.__name__, **kwargs):
            calls.append(_name)
            _init(self, *args, **kwargs)

        monkeypatch.setattr(cls, "__init__", counting_init)
    return calls


def _window(alphas):
    return sorted(a for a in alphas if F(3, 4) < a <= F(4, 5))


def _seeded_window_alphas(seed, count):
    """``count`` random rationals in (3/4, 4/5], denominators up to 10**6."""
    rng = random.Random(seed)
    alphas = set()
    while len(alphas) < count:
        den = rng.randint(21, 10**6)
        alphas.add(F(rng.randint(3 * den // 4 + 1, 4 * den // 5), den))
    return sorted(alphas)


class TestForcedWindowOutcome:
    """Inside (3/4, 4/5] the projected system has one feasible point, read off with no solve."""

    @staticmethod
    def parts(outcome):
        return (
            outcome.status,
            list(outcome.witness.items()),
            outcome.objective_value,
            outcome.dual,
            outcome.farkas,
        )

    @pytest.mark.parametrize("alphas", [32, 96, 97, 1000, "seeded"])
    def test_equals_the_solver_outcome(self, alphas):
        grid = _seeded_window_alphas(26, 200) if alphas == "seeded" else _window(_grid(alphas))
        assert grid
        for alpha in grid:
            instance = BroadcastInstance(alpha)
            outcome = projection_feasibility(instance).outcome
            ref = ratlp.solve(projection_lp(instance))
            assert self.parts(outcome) == self.parts(ref)
            assert outcome.dual == {}
            assert all(type(v) is F for v in outcome.witness.values())
            assert type(outcome.objective_value) is F

    def test_solves_only_at_three_quarters_and_above_four_fifths(self, monkeypatch):
        solved = []
        monkeypatch.setattr(broadcast, "solve", lambda lp: solved.append(lp) or ratlp.solve(lp))
        for alpha in _window(_grid(32)) + _seeded_window_alphas(27, 20):
            assert projection_feasibility(BroadcastInstance(alpha)).feasible
        assert solved == []
        for count, alpha in enumerate([F(3, 4), F(801, 1000), F(13, 16), F(1)], start=1):
            projection_feasibility(BroadcastInstance(alpha))
            assert len(solved) == count

    def test_a_wrong_forced_point_raises(self, monkeypatch):
        # the link-row check also checks the closed form: here X = (1, 0, 0, 0)
        # is still a distribution, but link-11 and link-22 no longer hold
        forced = broadcast._forced_outcome

        def moved(instance):
            out = forced(instance)
            w = out.witness
            return ratlp.LPOutcome("optimal", dict(w, X11=w["X22"], X22=w["X11"]), F(0), {})

        monkeypatch.setattr(broadcast, "_forced_outcome", moved)
        with pytest.raises(RuntimeError, match="link row"):
            projection_feasibility(BroadcastInstance(F(25, 32)))


class TestProjectionTemplate:
    """``projection_lp`` patches a cached template; it must equal the validating build."""

    @pytest.mark.parametrize("den", [32, 96, 97, 1000])
    def test_equals_the_validating_build(self, den):
        for alpha in {F(3, 4), *_grid(den)}:  # 3/4 is off the 1/97 grid
            instance = BroadcastInstance(alpha)
            lp, ref = projection_lp(instance), _validated_projection_lp(instance)
            assert lp == ref
            assert repr(lp) == repr(ref)
            assert lp.int_rows == ref.int_rows
            assert repr(lp.int_rows) == repr(ref.int_rows)
            # the solver walks each row's terms in dict order
            assert [list(row.coeffs) for row in lp.int_rows] == [
                list(row.coeffs) for row in ref.int_rows
            ]

    def test_three_quarters_has_no_admixture_term(self):
        lp = projection_lp(BroadcastInstance(F(3, 4)))
        links = [con for con in lp.constraints if con.name.startswith("link-")]
        assert [con.name for con in links] == ["link-11", "link-12", "link-21", "link-22"]
        assert all(var[0] != "X" for con in links for var, _ in con.coeffs)
        assert all(row.den == 1 for row in lp.int_rows[8:12])

    def test_no_validating_build_once_warm(self, monkeypatch):
        alphas = [F(3, 4) + F(k, 32) for k in range(9)]
        broadcast_scan(alphas)  # fills the template
        calls = counting_validating_builds(monkeypatch)
        report = broadcast_scan(alphas)
        assert calls == []
        ok, errors = verify_certificate(scan_certificate(report))
        assert ok, errors
        assert calls == []
        _validated_projection_lp(BroadcastInstance(F(7, 8)))
        assert calls.count("Constraint") == 12 and calls.count("LinearProgram") == 1


class TestReductionConsistency:
    def test_line_transport_preserves_anti_robustness(self):
        for r, s, t in itertools.product((0, 1), repeat=3):
            if (r, s, t) == (0, 0, 0):
                continue
            for alpha in (F(3, 4), F(13, 16), F(7, 8), F(1)):
                line_box = b_alpha(alpha)
                moved = line_transport(line_box, r, s, t)
                assert moved == mix(alpha, pr_box(r, s, t), pr_box(r, s, 1 - t))
                assert anti_robustness(moved).value == anti_robustness(line_box).value


class TestCorrelatorParametrization:
    def test_round_trip_matches_def1_checker(self):
        # every fully-NS 4-party box is reproduced from its subset
        # correlators, and tables built that way pass the all-subsets
        # non-signalling check
        import itertools as it

        from boxcert.box import is_fully_ns
        from boxcert.broadcast import _SUBSETS, box_from_correlators, subset_correlator

        rng = rng_from_seed(65)
        for _ in range(5):
            box = mix(
                F(rng.randint(0, 64), 64),
                tensor(random_ns_box(rng), random_ns_box(rng)),
                tensor(random_ns_box(rng), random_ns_box(rng)),
            )
            assert is_fully_ns(box).fully_ns
            values = {}
            for subset in _SUBSETS:
                for x_s in it.product((0, 1), repeat=len(subset)):
                    values[(subset, x_s)] = subset_correlator(box, subset, x_s)
            rebuilt = box_from_correlators(values)
            assert rebuilt == box
            assert is_fully_ns(rebuilt).fully_ns


class TestScan:
    def test_example_grid(self):
        alphas = [F(3, 4), F(13, 16), F(7, 8), F(15, 16), F(1)]
        report = broadcast_scan(alphas)
        assert [row.alpha for row in report.rows] == alphas
        for row in report.rows:
            assert row.projection.feasible == (row.alpha == F(3, 4))
            assert row.anti_robustness == F(3, 4) / row.alpha
            assert row.p_alpha == F(3, 4) / row.alpha
        assert report.consistent_with_no_broadcasting()

    def test_empty_grid(self):
        report = broadcast_scan([])
        assert report.rows == ()

    def test_p_alpha_is_the_closed_form_on_the_line(self):
        # beta*(b_alpha) = 8*alpha - 4, so 6/(beta* + 4) = 3/(4*alpha) = p_alpha
        alphas = _grid(96)
        for alpha in alphas:
            closed_form = anti_robustness_closed_form(b_alpha(alpha))
            assert closed_form == BroadcastInstance(alpha).p_alpha
        report = broadcast_scan(alphas[::8])
        for row in report.rows:
            assert row.anti_robustness == anti_robustness_closed_form(b_alpha(row.alpha))

    def test_closed_form_agrees_with_the_lp_on_the_grid(self):
        alphas = [F(3, 4) + F(k, 32) for k in range(9)]
        report = broadcast_scan(alphas)
        assert [row.alpha for row in report.rows] == alphas
        for row in report.rows:
            assert row.anti_robustness == anti_robustness(b_alpha(row.alpha)).value


def _swapped(box):
    """The box with its two copies exchanged, by the party permutation alone."""
    return permute_parties(box, COPY_SWAP)


def _generic_ns_box(seed):
    rng = rng_from_seed(seed)
    return mix(
        F(rng.randint(1, 63), 64),
        tensor(random_ns_box(rng), random_ns_box(rng)),
        tensor(random_ns_box(rng), random_ns_box(rng)),
    )


def _assert_partition(orbits, items):
    members = [m for _, group in orbits for m in group]
    assert sorted(members) == sorted(items)
    assert all(rep == min(group) for rep, group in orbits)


class TestCopySwapOrbits:
    """The 4-party LP's orbits, derived from COPY_SWAP, against the swap's action on boxes."""

    # sha256 of the variables, constraints and objective, then the integer
    # rows, bound rows included: the LPs must stay byte-identical, since the
    # oracle's pivots and certificates follow them
    LP_DIGESTS = {
        F(3, 4): "0cb0460efb5e9802f66676ed4dcc91b300204aefac7f428ffe5689e7dac9f5e0",
        F(25, 32): "23e9a08c3989579b3c7e9264646e1e76734caeb92f701eb0a2871c4f8bcd11a0",
        F(4, 5): "aa2a69296d8da5eb8de8d1da64f3a42971ecb68d03b2d9cf5e5e4a8623e8de0b",
        F(13, 16): "06badfcb152349830b798f3ba1910bdf2c47d817d6f01b3827d815b54f3b7827",
        F(1): "06889f4b0d7c9887a4017eb2e61be677e5ab42863376159dd7ebb616ff5aeacd",
    }

    def test_full_broadcast_lp_unchanged(self):
        for alpha, expected in self.LP_DIGESTS.items():
            lp = full_broadcast_lp(BroadcastInstance(alpha))
            assert (len(lp.variables), len(lp.constraints)) == (356, 273)
            text = repr((lp.variables, lp.constraints, lp.objective)) + repr(lp.int_rows)
            assert hashlib.sha256(text.encode()).hexdigest() == expected, alpha

    def test_vertex_orbits(self):
        orbits = _orbits_of_vertices()
        assert len(orbits) == 320
        vertices = broadcast_local_vertices()
        _assert_partition(orbits, [name for name, _ in vertices])
        name_of = {box: name for name, box in vertices}
        lookup = dict(vertices)
        for _, members in orbits:
            assert {name_of[_swapped(lookup[m])] for m in members} == set(members)

    def test_cell_orbits(self):
        assert len(_CELL_ORBITS) == 136
        cells = list(itertools.product(itertools.product((0, 1), repeat=4), repeat=2))
        _assert_partition(_CELL_ORBITS, cells)
        box = _generic_ns_box(91)
        image = _swapped(box)
        for _, members in _CELL_ORBITS:
            # the swap moves each member's entry to the other member
            assert [image.prob(*c) for c in members] == [box.prob(*c) for c in reversed(members)]

    def test_slot_orbits(self):
        assert len(_SLOT_ORBITS) == 36
        slots = [
            (S, x_s) for S in _CROSS_COPY for x_s in itertools.product((0, 1), repeat=len(S))
        ]
        assert len(slots) == 64
        _assert_partition(_SLOT_ORBITS, slots)
        box = _generic_ns_box(92)
        image = _swapped(box)
        for _, members in _SLOT_ORBITS:
            assert [subset_correlator(image, *m) for m in members] == [
                subset_correlator(box, *m) for m in reversed(members)
            ]

    def test_bhat_from_witness_rebuilds_a_symmetric_copy(self):
        lp = full_broadcast_lp(BroadcastInstance(F(7, 8)))
        e_vars = {v for v in lp.variables if v.startswith("e:")}
        for alpha in (F(3, 4), F(25, 32), F(7, 8)):
            product = tensor(b_alpha(alpha), b_alpha(alpha))
            witness = {
                _evar(*rep): subset_correlator(product, *rep) for rep, _ in _SLOT_ORBITS
            }
            assert set(witness) == e_vars
            assert bhat_from_witness(alpha, witness) == product
