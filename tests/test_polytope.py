"""Membership certificates, anti-robustness, ray points and hull checks."""

import itertools
from fractions import Fraction

import pytest

from boxcert.box import (
    BoxError,
    NegativeEntry,
    WrongShape,
    b_alpha,
    chsh_game,
    convex_combination,
    deterministic_vertices,
    is_fully_ns,
    make_box,
    mix,
    pr_box,
    tensor,
    uniform_box,
)
from boxcert.certificates import outcome_to_dict
from boxcert.chsh import beta, beta_cell_coefficients, beta_table, max_beta
from boxcert import polytope, ratlp
from boxcert.polytope import (
    BROADCAST_CUT,
    DegenerateRay,
    PreconditionNotMet,
    admixture,
    anti_robustness,
    anti_robustness_closed_form,
    anti_robustness_lp,
    facet_membership,
    halfspace_body_equality_check,
    hyperplane_locality_check,
    lr_membership,
    membership_lp,
    named_weights,
    ray_intersection,
    ray_points,
)
from boxcert.ratlp import Constraint, LinearProgram, check_witness, solve
from boxcert.sampling import (
    random_box,
    random_ns_box,
    random_ns_box_with_min_beta,
    rng_from_seed,
)
from boxcert.twirl import twirl
from boxcert.vertices import broadcast_local_vertices, ns_vertices_2x2, vertex_by_name

F = Fraction


def reconstruct(weights):
    names = list(weights)
    return convex_combination(
        [weights[n] for n in names], [vertex_by_name(n.removeprefix("ray:")) for n in names]
    )


class TestMembership:
    def test_k_is_member_with_valid_weights(self):
        k = b_alpha(F(3, 4))
        cert = lr_membership(k)
        assert cert.member
        assert sum(cert.weights.values()) == 1
        assert all(w > 0 for w in cert.weights.values())
        assert all(name.startswith("det_") for name in cert.weights)
        assert reconstruct(cert.weights) == k
        assert check_witness(cert.lp, cert.outcome)

    def test_pr_box_is_not_member(self):
        cert = lr_membership(pr_box(0, 0, 0))
        assert not cert.member
        assert cert.farkas
        assert check_witness(cert.lp, cert.outcome)

    def test_separating_certificate_reproduces_chsh_facet(self):
        # The Farkas functional equals a positive multiple of the beta_000
        # coefficients plus per-input constants, i.e. the facet beta <= 2.
        cert = lr_membership(pr_box(0, 0, 0))
        assert [(v.r, v.s, v.t) for v in cert.violated_facets] == [(0, 0, 0)]
        assert cert.violated_facets[0].value == 4
        functional, threshold = cert.separating_functional()
        coeffs = beta_cell_coefficients(0, 0, 0)
        # solve lam = a*beta + c_xy from the (0,0|x,y) and (0,1|x,y) cells
        consts = {}
        scale = None
        for x, y in itertools.product((0, 1), repeat=2):
            lam_eq = functional[f"cell:00|{x}{y}"]
            lam_ne = functional[f"cell:01|{x}{y}"]
            beta_eq = coeffs[(0, 0, x, y)]
            beta_ne = coeffs[(0, 1, x, y)]
            a = (lam_eq - lam_ne) / (beta_eq - beta_ne)
            if scale is None:
                scale = a
            assert a == scale
            consts[(x, y)] = lam_eq - a * beta_eq
        assert scale > 0
        for x, y in itertools.product((0, 1), repeat=2):
            for a_bit, b_bit in itertools.product((0, 1), repeat=2):
                expected = scale * coeffs[(a_bit, b_bit, x, y)] + consts[(x, y)]
                assert functional[f"cell:{a_bit}{b_bit}|{x}{y}"] == expected
        # exact separation: every deterministic vertex at or below threshold
        for name, vertex in ns_vertices_2x2()[:16]:
            value = sum(
                functional[f"cell:{a}{b}|{x}{y}"] * vertex.prob((a, b), (x, y))
                for a, b, x, y in itertools.product((0, 1), repeat=4)
            )
            assert value <= threshold
        box_value = sum(
            functional[f"cell:{a}{b}|{x}{y}"] * pr_box(0, 0, 0).prob((a, b), (x, y))
            for a, b, x, y in itertools.product((0, 1), repeat=4)
        )
        assert box_value > threshold

    def test_four_party_product_membership(self):
        k = b_alpha(F(3, 4))
        cert = lr_membership(tensor(k, k), cut=BROADCAST_CUT)
        assert cert.member
        assert check_witness(cert.lp, cert.outcome)

    def test_four_party_requires_declared_cut(self):
        k = b_alpha(F(3, 4))
        with pytest.raises(WrongShape):
            lr_membership(tensor(k, k))

    def test_unsupported_shape(self):
        with pytest.raises(WrongShape):
            lr_membership(uniform_box(3))

    def test_deterministic_vertices_are_members(self):
        for vertex in deterministic_vertices():
            assert lr_membership(vertex).member


class TestAntiRobustness:
    def test_line_values(self):
        assert anti_robustness(b_alpha(F(7, 8))).value == F(6, 7)
        assert anti_robustness(b_alpha(F(1))).value == F(3, 4)

    def test_local_boxes_have_value_one(self):
        for vertex in deterministic_vertices():
            assert anti_robustness(vertex).value == 1
        assert anti_robustness(b_alpha(F(3, 4))).value == 1

    def test_witnesses_satisfy_decomposition(self):
        rng = rng_from_seed(40)
        for _ in range(10):
            box = random_ns_box(rng)
            res = anti_robustness(box)
            q = res.value
            mixed = mix(q, box, res.admixture_witness)
            assert mixed == res.local_witness
            assert reconstruct(res.weights) == res.local_witness
            assert is_fully_ns(res.admixture_witness).fully_ns
            assert check_witness(res.lp, res.outcome)

    def test_admixture_slack_is_normalized_and_ns(self):
        # Z = L - q*box obeys the homogeneous NS conditions and sums to
        # 1 - q per input, matching the unreduced formulation.
        rng = rng_from_seed(41)
        for _ in range(10):
            box = random_ns_box_with_min_beta(rng, 0, 0, 0)
            res = anti_robustness(box)
            q = res.value
            z = {
                (a, x): res.local_witness.prob(a, x) - q * box.prob(a, x)
                for x in box.input_tuples()
                for a in box.output_tuples()
            }
            assert all(v >= 0 for v in z.values())
            for x in box.input_tuples():
                assert sum(z[(a, x)] for a in box.output_tuples()) == 1 - q
            for a_bit in (0, 1):  # Alice marginal of Z independent of y
                for x_bit in (0, 1):
                    totals = {
                        y: sum(z[((a_bit, b), (x_bit, y))] for b in (0, 1))
                        for y in (0, 1)
                    }
                    assert totals[0] == totals[1]
            for b_bit in (0, 1):  # Bob marginal of Z independent of x
                for y_bit in (0, 1):
                    totals = {
                        x: sum(z[((a, b_bit), (x, y_bit))] for a in (0, 1))
                        for x in (0, 1)
                    }
                    assert totals[0] == totals[1]

    def test_value_one_iff_member(self):
        rng = rng_from_seed(42)
        seen_local = seen_nonlocal = 0
        for _ in range(40):
            box = random_ns_box(rng)
            member = lr_membership(box).member
            value = anti_robustness(box).value
            assert (value == 1) == member
            seen_local += member
            seen_nonlocal += not member
        for r, s, t in itertools.product((0, 1), repeat=3):
            box = random_ns_box_with_min_beta(rng, r, s, t)
            member = lr_membership(box).member
            assert (anti_robustness(box).value == 1) == member

    def test_rejects_signalling_boxes(self):
        import boxcert.box as boxmod

        entries = {}
        for x, y, a, b in itertools.product((0, 1), repeat=4):
            entries[((a, b), (x, y))] = F(1) if (a == y and b == 0) else F(0)
        signalling = boxmod.make_box(2, (2, 2), (2, 2), entries)
        with pytest.raises(WrongShape):
            anti_robustness(signalling)


class TestAdmixture:
    """X = (L - q*T)/(1 - q) undoes L = q*T + (1-q)*X for q < 1."""

    @pytest.mark.parametrize("q", [F(1, 3), F(3, 4)])
    def test_recovers_the_mixed_in_box(self, q):
        rng = rng_from_seed(44)
        pairs = [(random_box(rng), random_box(rng)) for _ in range(5)]
        pairs.append((tensor(pr_box(0, 0, 0), b_alpha(F(7, 8))), uniform_box(4)))
        for target, x in pairs:
            assert admixture(mix(q, target, x), q, target) == x

    def test_negative_entry_raises(self):
        # a deterministic vertex is 0 on cells where the PR box is 1/2
        with pytest.raises(NegativeEntry):
            admixture(deterministic_vertices()[0], F(1, 2), pr_box(0, 0, 0))


class TestClosedForm:
    def test_line_formula(self):
        for alpha in (F(25, 32), F(13, 16), F(7, 8), F(15, 16), F(1)):
            assert anti_robustness_closed_form(b_alpha(alpha)) == F(3) / (4 * alpha)

    def test_beta_exactly_two_gives_one(self):
        assert anti_robustness_closed_form(b_alpha(F(3, 4))) == 1

    def test_precondition(self):
        with pytest.raises(PreconditionNotMet):
            anti_robustness_closed_form(uniform_box(2))

    def test_agrees_with_lp_on_random_nonlocal_boxes(self):
        rng = rng_from_seed(43)
        count = 0
        while count < 100:
            r, s, t = (rng.randint(0, 1) for _ in range(3))
            box = random_ns_box_with_min_beta(rng, r, s, t)
            if lr_membership(box).member:
                continue
            count += 1
            lp = anti_robustness_lp(box, ns_vertices_2x2()[:16])
            assert anti_robustness_closed_form(box) == solve(lp).objective_value


class TestRayIntersection:
    def test_anti_pr_ray_gives_k(self):
        ray = ray_intersection(0, 0, 0, pr_box(0, 0, 1))
        assert ray.p == F(3, 4)
        assert ray.point == b_alpha(F(3, 4))
        assert ray.vertex_name == "pr_001"

    def test_beta_two_vertex_is_its_own_ray_point(self):
        vertex = deterministic_vertices()[0]
        assert beta(vertex, 0, 0, 0) == 2
        ray = ray_intersection(0, 0, 0, vertex)
        assert ray.p == 0
        assert ray.point == vertex

    def test_beta_zero_vertex(self):
        ray = ray_intersection(0, 0, 0, pr_box(0, 1, 0))
        assert ray.p == F(1, 2)

    def test_degenerate_ray(self):
        with pytest.raises(DegenerateRay):
            ray_intersection(0, 0, 0, pr_box(0, 0, 0))

    def test_unknown_vertex(self):
        with pytest.raises(WrongShape):
            ray_intersection(0, 0, 0, uniform_box(2))


class TestHyperplane:
    def test_apex_000_all_local(self):
        report = hyperplane_locality_check(0, 0, 0)
        assert len(report.checks) == 23
        assert report.all_pass
        for check in report.checks:
            assert beta(check.ray.point, 0, 0, 0) == 2
            assert check.within_all_facets
            assert check.membership.member

    def test_ray_points_have_beta_two_every_apex(self):
        for r, s, t in itertools.product((0, 1), repeat=3):
            for name, point in ray_points(r, s, t):
                if name.startswith("ray:"):
                    assert beta(point, r, s, t) == 2


def counting_solver(monkeypatch):
    """Route every ``solve`` through a counter; returns the list of LPs solved."""
    calls = []

    def counting_solve(lp, *args, **kwargs):
        calls.append(lp)
        return solve(lp, *args, **kwargs)

    monkeypatch.setattr(ratlp, "solve", counting_solve)
    monkeypatch.setattr(polytope, "solve", counting_solve)
    return calls


class TestFacetMembership:
    @pytest.mark.parametrize("rst", list(itertools.product((0, 1), repeat=3)))
    def test_facet_weights_equal_the_lp_witness(self, rst):
        for check in hyperplane_locality_check(*rst).checks:
            expected = lr_membership(check.ray.point)
            assert expected.member and check.membership.member
            assert list(check.membership.weights.items()) == list(expected.weights.items())

    def test_facet_is_eight_vertices_losing_distinct_cells(self):
        for rst in itertools.product((0, 1), repeat=3):
            facet = polytope._facet_table(*rst)
            assert len(facet) == 8
            assert len({k for k, _ in facet}) == 8
            assert all(beta(vertex_by_name(name), *rst) == 2 for _, name in facet)

    def test_hyperplane_check_solves_no_lp(self, monkeypatch):
        calls = counting_solver(monkeypatch)
        for rst in itertools.product((0, 1), repeat=3):
            assert hyperplane_locality_check(*rst).all_pass
        assert calls == []

    def test_box_off_the_facet_is_not_a_member(self):
        box = b_alpha(F(7, 8))
        assert beta(box, 0, 0, 0) == 3
        membership = facet_membership(box, 0, 0, 0)
        assert not membership.member and membership.weights is None

    def test_signalling_box_on_the_hyperplane_is_not_a_member(self):
        # beta_000 = 2, but P(b=0|y) depends on x: no mixture of vertices gives it
        box = make_box(2, (2, 2), (2, 2), (1, 0, 0, 0) * 2 + ("1/2", 0, 0, "1/2") * 2)
        assert beta(box, 0, 0, 0) == 2 and not is_fully_ns(box).fully_ns
        assert not facet_membership(box, 0, 0, 0).member

    def test_non_bits_rejected(self):
        with pytest.raises(BoxError):
            facet_membership(b_alpha(F(3, 4)), 1.0, 0, 0)


def non_local_draws():
    """The non-local boxes among 300 seeded draws around random apexes."""
    rng = rng_from_seed(0)
    boxes = []
    for _ in range(300):
        r, s, t = (rng.randint(0, 1) for _ in range(3))
        boxes.append(random_ns_box_with_min_beta(rng, r, s, t))
    return [box for box in boxes if max_beta(box)[1] > 2]


def degenerate_non_local_boxes():
    """Non-local boxes with zero entries or ties: PR boxes, the line, mixtures, midpoints."""
    prs = [box for _, box in ns_vertices_2x2()[16:]]
    boxes = prs + [b_alpha(F(k, 96)) for k in range(97)]
    boxes += [
        mix(lam, pr, det)
        for pr in prs
        for det in deterministic_vertices()
        for lam in (F(1, 3), F(1, 2), F(2, 3), F(9, 10))
    ]
    vertices = [box for _, box in ns_vertices_2x2()]
    boxes += [mix(F(1, 2), a, b) for a, b in itertools.combinations(vertices, 2)]
    return [box for box in boxes if max_beta(box)[1] > 2]


CORPORA = {"draws": non_local_draws, "degenerate": degenerate_non_local_boxes}
POINTS_2X2 = ns_vertices_2x2()[:16]


class TestFacetClosedForms:
    """Non-local 2x2 verdicts read off the CHSH facet are the solver's outcomes."""

    def test_corpus_sizes(self):
        assert len(non_local_draws()) == 295
        assert len(degenerate_non_local_boxes()) == 440

    @pytest.mark.parametrize("corpus", CORPORA)
    def test_anti_robustness_is_the_solvers_optimum(self, corpus):
        for box in CORPORA[corpus]():
            result = anti_robustness(box)
            expected = solve(anti_robustness_lp(box, POINTS_2X2))
            assert outcome_to_dict(result.outcome) == outcome_to_dict(expected)
            assert list(result.outcome.dual) == list(expected.dual)
            assert check_witness(result.lp, result.outcome)
            (r, s, t), best = max_beta(box)
            assert result.value == F(6) / (best + 4)
            assert result.weights == named_weights(expected.witness, POINTS_2X2)
            assert result.local_witness == polytope.mixture(result.weights, POINTS_2X2)
            assert result.admixture_witness == pr_box(r, s, 1 - t)

    @pytest.mark.parametrize("corpus", CORPORA)
    def test_membership_is_the_solvers_farkas_vector(self, corpus):
        for box in CORPORA[corpus]():
            cert = lr_membership(box)
            expected = solve(membership_lp(box, POINTS_2X2))
            assert outcome_to_dict(cert.outcome) == outcome_to_dict(expected)
            assert list(cert.farkas) == list(expected.farkas)
            assert check_witness(cert.lp, cert.outcome)
            assert not cert.member and cert.weights is None
            assert [(v.r, v.s, v.t) for v in cert.violated_facets] == [max_beta(box)[0]]

    def test_non_local_verdicts_solve_no_lp(self, monkeypatch):
        calls = counting_solver(monkeypatch)
        for box in non_local_draws()[:40] + degenerate_non_local_boxes()[:40]:
            assert anti_robustness(box).value < 1
            assert not lr_membership(box).member
        assert calls == []

    def test_admixtures_are_the_cached_boxes(self):
        # beta*: the anti-PR box of the maximising game; local: the uniform box
        assert anti_robustness(b_alpha(F(7, 8))).admixture_witness is pr_box(0, 0, 1)
        assert anti_robustness(b_alpha(F(3, 4))).admixture_witness is uniform_box(2)

    def test_local_anti_robustness_and_signalling_membership_still_solve(self, monkeypatch):
        calls = counting_solver(monkeypatch)
        anti_robustness(b_alpha(F(3, 4)))
        assert len(calls) == 1
        lr_membership(b_alpha(F(3, 4)))
        assert len(calls) == 1
        # game 000 won on every input pair, but at y = 1 Bob's output follows x
        signalling = make_box(2, (2, 2), (2, 2), (1, 0, 0, 0) * 3 + (0, 1, 0, 0))
        assert beta(signalling, 0, 0, 0) == 4 and not is_fully_ns(signalling).fully_ns
        cert = lr_membership(signalling)
        assert len(calls) == 2
        assert not cert.member and check_witness(cert.lp, cert.outcome)

    def test_an_off_facet_witness_is_an_internal_error(self, monkeypatch):
        monkeypatch.setattr(
            polytope, "facet_membership", lambda *args: polytope.FacetMembership(False, None)
        )
        with pytest.raises(RuntimeError):
            anti_robustness(b_alpha(F(7, 8)))

    @pytest.mark.parametrize("rst", list(itertools.product((0, 1), repeat=3)))
    def test_farkas_tens_sit_on_the_vertices_losing_three_cells(self, rst):
        game = chsh_game(*rst)
        losing_three = {
            name
            for name, vertex in ns_vertices_2x2()[:16]
            if sum(p == 1 and won < 0 for p, won in zip(vertex.probs, game)) == 3
        }
        assert len(losing_three) == 8
        assert all(beta(vertex_by_name(name), *rst) == -2 for name in losing_three)
        farkas = lr_membership(mix(F(3, 4), pr_box(*rst), uniform_box(2))).farkas
        tens = {key[1].removeprefix("w:") for key, y in farkas.items() if y == 10}
        assert tens == losing_three
        assert all(key[0] == "lb" for key, y in farkas.items() if y == 10)

    @pytest.mark.parametrize("rst", list(itertools.product((0, 1), repeat=3)))
    def test_dual_bounds_sit_on_the_vertices_off_the_facet(self, rst):
        box = mix(F(3, 4), pr_box(*rst), uniform_box(2))
        assert max_beta(box) == (rst, 3)
        dual = anti_robustness(box).outcome.dual
        facet = {name for _, name in polytope._facet_table(*rst)}
        off_facet = {name for name, _ in POINTS_2X2} - facet
        assert len(off_facet) == 8
        bounds = {key[1].removeprefix("w:"): y for key, y in dual.items() if key[0] == "lb"}
        assert bounds == dict.fromkeys(off_facet, F(4, 7))


def local_corpus():
    """Local fully NS 2x2 boxes: draws, the local part of the line, vertices and midpoints."""
    rng = rng_from_seed(0)
    vertices = [box for _, box in POINTS_2X2]
    return {
        "draws": [random_ns_box(rng) for _ in range(400)],
        "line": [b_alpha(F(k, 96)) for k in range(24, 73)],
        "vertices": vertices,
        "midpoints": [mix(F(1, 2), a, b) for a, b in itertools.combinations(vertices, 2)],
    }


class TestLocalDecomposition:
    """Local fully NS 2x2 boxes decompose over the deterministic vertices with no solve."""

    def test_corpus_sizes(self):
        corpus = local_corpus()
        assert {name: len(boxes) for name, boxes in corpus.items()} == {
            "draws": 400, "line": 49, "vertices": 16, "midpoints": 120,
        }
        assert all(beta_table(box)[1] for boxes in corpus.values() for box in boxes)

    @pytest.mark.parametrize("part", ["draws", "line", "vertices", "midpoints"])
    def test_weights_rebuild_the_box_and_pass_check_witness(self, part, monkeypatch):
        calls = counting_solver(monkeypatch)
        for box in local_corpus()[part]:
            cert = lr_membership(box)
            assert cert.member and cert.farkas is None and cert.violated_facets == ()
            assert check_witness(cert.lp, cert.outcome)
            assert 1 <= len(cert.weights) <= 9 and all(w > 0 for w in cert.weights.values())
            assert polytope.mixture(cert.weights, POINTS_2X2) == box
        assert calls == []

    def test_outcome_has_the_solvers_feasibility_form(self):
        box = b_alpha(F(3, 4))
        outcome = lr_membership(box).outcome
        expected = solve(membership_lp(box, POINTS_2X2))
        assert outcome == expected
        assert list(outcome.witness) == [f"w:{name}" for name, _ in POINTS_2X2]
        assert (outcome.objective_value, outcome.dual) == (0, {})

    def test_an_interior_draw_takes_nine_vertices(self):
        box = random_ns_box(rng_from_seed(0))
        assert max_beta(box)[1] == F(7, 32)
        assert len(lr_membership(box).weights) == 9

    def test_a_vertex_is_its_own_decomposition(self):
        for name, vertex in POINTS_2X2:
            assert polytope._local_weights(vertex) == {name: 1}

    def test_a_non_local_box_breaks_an_invariant(self):
        with pytest.raises(RuntimeError, match="negative"):
            polytope._local_weights(pr_box(0, 0, 0))

    def test_no_vertex_on_the_face_is_an_internal_error(self, monkeypatch):
        monkeypatch.setattr(polytope, "_vertex_slacks", lambda: ())
        with pytest.raises(RuntimeError, match="no deterministic vertex"):
            lr_membership(b_alpha(F(3, 4)))

    def test_signalling_box_still_gets_a_farkas_vector(self, monkeypatch):
        calls = counting_solver(monkeypatch)
        # every CHSH value within [-2, 2], yet Bob's output is Alice's input
        signalling = make_box(2, (2, 2), (2, 2), (1, 0, 0, 0) * 2 + (0, 1, 0, 0) * 2)
        assert beta_table(signalling)[1] and not is_fully_ns(signalling).fully_ns
        cert = lr_membership(signalling)
        assert len(calls) == 1
        assert not cert.member and cert.farkas and cert.lp is calls[0]
        assert check_witness(cert.lp, cert.outcome)


def reference_rays(r, s, t):
    """The 23 ray points of apex B_rst, each found again through ray_intersection."""
    apex_name = f"pr_{r}{s}{t}"
    return [
        ray_intersection(r, s, t, vertex)
        for name, vertex in ns_vertices_2x2()
        if name != apex_name
    ]


class TestRayTable:
    @pytest.mark.parametrize("rst", list(itertools.product((0, 1), repeat=3)))
    def test_table_matches_ray_intersection(self, rst):
        expected = reference_rays(*rst)
        for _ in range(2):  # once filling the table, once reading it
            report = hyperplane_locality_check(*rst)
            assert report.apex == rst
            assert [check.ray for check in report.checks] == expected
            points = ray_points(*rst)
            assert points[0] == (f"pr_{''.join(map(str, rst))}", pr_box(*rst))
            assert list(points[1:]) == [(f"ray:{ray.vertex_name}", ray.point) for ray in expected]

    @pytest.mark.parametrize(
        "call",
        [
            lambda: hyperplane_locality_check(1.0, 0, 0),
            lambda: ray_points(2, 0, 0),
            lambda: ray_intersection(2, 0, 0, pr_box(0, 0, 1)),
        ],
    )
    def test_non_bits_rejected_on_every_call(self, call):
        polytope._ray_table.cache_clear()
        for _ in range(2):
            with pytest.raises(BoxError):
                call()
        ray_points(1, 0, 0)
        hyperplane_locality_check(0, 0, 0)
        for _ in range(2):
            with pytest.raises(BoxError):
                call()


def replayed_halfspace_draws():
    """The halfspace-side boxes of ``hyperplane-check --samples 8 --seed 0..7``, per apex."""
    for rst in itertools.product((0, 1), repeat=3):
        for seed in range(8):
            yield rst, list(polytope.halfspace_draws(*rst, 8, seed))[8:]


def degenerate_pyramid_boxes():
    """Apexes, and apex 000's ray points, their apex mixtures and pairwise midpoints."""
    for rst in itertools.product((0, 1), repeat=3):
        yield rst, [pr_box(*rst)]
    (_, apex), *rays = ray_points(0, 0, 0)
    yield (0, 0, 0), [box for _, box in rays]
    yield (0, 0, 0), [mix(lam, apex, box) for _, box in rays for lam in (F(1, 2), F(1, 3))]
    yield (0, 0, 0), [mix(F(1, 2), a, b) for (_, a), (_, b) in itertools.combinations(rays, 2)]


class TestHalfspace:
    def test_explicit_hull_member(self):
        box = mix(F(1, 2), pr_box(0, 0, 0), b_alpha(F(3, 4)))
        points = ray_points(0, 0, 0)
        outcome = solve(membership_lp(box, points))
        assert outcome.status == "optimal"
        apex_weight = outcome.witness["w:pr_000"]
        assert apex_weight == F(1, 2)  # forced: beta = 3 = 2 + 2*p_apex

    def test_k_decomposes_with_zero_apex_weight(self):
        k = b_alpha(F(3, 4))
        outcome = solve(membership_lp(k, ray_points(0, 0, 0)))
        assert outcome.status == "optimal"
        assert outcome.witness["w:pr_000"] == 0

    def test_sampled_equivalence_small(self):
        report = halfspace_body_equality_check(0, 0, 0, samples=50, seed=7)
        assert report.all_pass

    def test_pyramid_weights_are_the_solvers_witness(self):
        corpus = list(replayed_halfspace_draws()) + list(degenerate_pyramid_boxes())
        assert sum(len(boxes) for _, boxes in corpus) == 512 + 8 + 23 * 3 + 253
        for rst, boxes in corpus:
            points = ray_points(*rst)
            for box in boxes:
                weights = polytope._pyramid_weights(box, *rst, points)
                expected = solve(membership_lp(box, points))
                assert expected.status == "optimal"
                assert list(weights.items()) == list(
                    named_weights(expected.witness, points).items()
                )

    def test_sampled_checks_solve_no_lp(self, monkeypatch):
        calls = counting_solver(monkeypatch)
        for rst in itertools.product((0, 1), repeat=3):
            report = halfspace_body_equality_check(*rst, samples=8, seed=0)
            assert report.all_pass and all(report.half_decompositions)
        assert calls == []

    def test_boxes_outside_the_pyramid_fail_where_the_lp_is_infeasible(self, monkeypatch):
        # beta_000 = 1 (local), beta_000 = -4 (another apex), and two signalling
        # boxes with beta_000 = 4 and 2 that no mixture of NS boxes gives
        outside = [
            b_alpha(F(5, 8)),
            pr_box(0, 0, 1),
            make_box(2, (2, 2), (2, 2), (1, 0, 0, 0) * 3 + (0, 1, 0, 0)),
            make_box(2, (2, 2), (2, 2), (1, 0, 0, 0) * 2 + ("1/2", 0, 0, "1/2") * 2),
        ]
        assert [beta(box, 0, 0, 0) for box in outside] == [1, -4, 4, 2]
        points = ray_points(0, 0, 0)
        for box in outside:
            assert polytope._pyramid_weights(box, 0, 0, 0, points) is None
            assert solve(membership_lp(box, points)).status == "infeasible"
        inside = b_alpha(F(7, 8))
        draws = [[64] + [0] * 23, inside, *outside]
        monkeypatch.setattr(polytope, "halfspace_draws", lambda *args: iter(draws))
        report = halfspace_body_equality_check(0, 0, 0, samples=1, seed=0)
        assert not report.all_pass and not report.hull_side_failures
        assert [(f.index, f.detail) for f in report.halfspace_side_failures] == [
            (k, "no exact decomposition") for k in range(1, 5)
        ]
        expected = named_weights(solve(membership_lp(inside, points)).witness, points)
        assert report.half_decompositions == (expected,) + ({},) * 4
        assert expected["pr_000"] == F(1, 2)

    def test_locality_flag_matches_membership(self):
        rng = rng_from_seed(44)
        for _ in range(200):
            box = random_ns_box(rng)
            _, flag = beta_table(box)
            assert flag == lr_membership(box).member


class TestMonotonicityQuick:
    def test_twirl_cannot_decrease_anti_robustness(self):
        rng = rng_from_seed(45)
        for _ in range(10):
            box = random_ns_box(rng)
            base = anti_robustness(box).value
            for r, s in itertools.product((0, 1), repeat=2):
                assert anti_robustness(twirl(box, r, s)).value >= base

    def test_twirl_preserves_anti_robustness_above_two(self):
        rng = rng_from_seed(46)
        for r, s, t in ((0, 0, 0), (1, 1, 1)):
            for _ in range(5):
                box = random_ns_box_with_min_beta(rng, r, s, t)
                assert (
                    anti_robustness(twirl(box, r, s)).value
                    == anti_robustness(box).value
                )


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


def reference_weight_lp(box, points, anti):
    """The weight LP built row by row through the validating constructors."""
    weights = [f"w:{name}" for name, _ in points]
    constraints = []
    cells = itertools.product(box.input_tuples(), box.output_tuples())
    for k, (x, a) in enumerate(cells):
        name = "cell:%s|%s" % ("".join(map(str, a)), "".join(map(str, x)))
        coeffs = {w: vertex.probs[k] for w, (_, vertex) in zip(weights, points)}
        p = box.probs[k]
        if anti:
            coeffs["q"] = -p
            constraints.append(Constraint(coeffs, ">=", 0, name=name))
        else:
            constraints.append(Constraint(coeffs, "=", p, name=name))
    constraints.append(Constraint({w: 1 for w in weights}, "=", 1, name="normalization"))
    if anti:
        return LinearProgram(
            ["q"] + weights, constraints, objective={"q": 1}, nonnegative=["q"] + weights
        )
    return LinearProgram(weights, constraints, nonnegative=weights)


class TestWeightTemplates:
    """Template-built weight LPs equal the LPs the validating constructors build."""

    @staticmethod
    def assert_same(box, points, solve_too=False):
        for build, anti in ((membership_lp, False), (anti_robustness_lp, True)):
            lp = build(box, points)
            ref = reference_weight_lp(box, points, anti)
            assert lp == ref
            assert repr(lp) == repr(ref)
            assert lp.int_rows == ref.int_rows
            assert repr(lp.int_rows) == repr(ref.int_rows)
            for con in lp.constraints:
                names = [var for var, _ in con.coeffs]
                assert names == sorted(set(names))
                assert all(isinstance(c, Fraction) and c != 0 for _, c in con.coeffs)
            if solve_too:
                assert repr(solve(lp)) == repr(solve(ref))

    def test_seeded_ns_boxes(self):
        rng = rng_from_seed(47)
        points = ns_vertices_2x2()[:16]
        for k in range(20):
            box = random_ns_box(rng) if k % 2 else random_ns_box_with_min_beta(rng, 1, 0, 1)
            self.assert_same(box, points, solve_too=k < 6)

    def test_boxes_with_zero_entries(self):
        points = ns_vertices_2x2()[:16]
        boxes = [
            pr_box(0, 1, 1),
            deterministic_vertices()[5],
            mix(F(1, 3), pr_box(0, 0, 0), deterministic_vertices()[0]),
        ]
        for box in boxes:
            assert 0 in box.probs
            self.assert_same(box, points, solve_too=True)
            lp = anti_robustness_lp(box, points)
            rows_without_q = [con for con in lp.constraints[:16] if con.coeffs[0][0] != "q"]
            assert len(rows_without_q) == box.probs.count(0)

    def test_twirled_boxes(self):
        rng = rng_from_seed(48)
        points = ns_vertices_2x2()[:16]
        for r, s in itertools.product((0, 1), repeat=2):
            self.assert_same(twirl(random_ns_box(rng), r, s), points, solve_too=True)

    def test_points_out_of_name_order(self):
        # terms are sorted by variable name, not by the order of the points
        rng = rng_from_seed(50)
        points = tuple(reversed(ns_vertices_2x2()))
        for _ in range(3):
            self.assert_same(random_ns_box(rng), points, solve_too=True)

    def test_ray_point_sets(self):
        rng = rng_from_seed(49)
        for r, s, t in ((0, 0, 0), (1, 1, 0)):
            points = ray_points(r, s, t)
            assert any(vertex.int_view[1] > 2 for _, vertex in points)  # rational coefficients
            for k in range(4):
                self.assert_same(random_ns_box_with_min_beta(rng, r, s, t), points, solve_too=k < 2)

    def test_four_party_product_box(self):
        # the 576-vertex template of test_four_party_product_membership
        k = b_alpha(F(3, 4))
        self.assert_same(tensor(k, k), broadcast_local_vertices())

    def test_zero_entries_keep_the_template_rows(self):
        box = pr_box(0, 1, 1)
        points = ns_vertices_2x2()[:16]
        assert box.probs.count(0) == 8
        for build, anti in ((membership_lp, False), (anti_robustness_lp, True)):
            lp = build(box, points)
            template = polytope._template(box, points, anti)
            for k, p in enumerate(box.probs):
                assert (lp.constraints[k] is template.constraints[k]) == (p == 0)
                assert (lp.int_rows[k] is template.int_rows[k]) == (p == 0)
            # the normalization row and the bounds are the template's for every box
            assert all(a is b for a, b in zip(lp.constraints[16:], template.constraints[16:]))
            assert all(a is b for a, b in zip(lp.int_rows[16:], template.int_rows[16:]))

    def test_no_validating_build_once_warm(self, monkeypatch):
        rng = rng_from_seed(51)
        sets = [ns_vertices_2x2()[:16], ray_points(0, 0, 0), ray_points(1, 1, 0)]

        def boxes():
            yield pr_box(0, 1, 1), sets[0]
            yield random_ns_box(rng), sets[0]
            yield random_ns_box_with_min_beta(rng, 0, 0, 0), sets[1]
            yield random_ns_box_with_min_beta(rng, 1, 1, 0), sets[2]

        for box, points in boxes():  # fills the templates
            membership_lp(box, points)
            anti_robustness_lp(box, points)
        calls = counting_validating_builds(monkeypatch)
        for box, points in boxes():  # other boxes over the same vertex sets
            membership_lp(box, points)
            anti_robustness_lp(box, points)
        assert calls == []
        reference_weight_lp(box, points, anti=True)
        assert calls.count("Constraint") == 17 and calls.count("LinearProgram") == 1
