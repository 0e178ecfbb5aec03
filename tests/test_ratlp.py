"""Exact simplex: optima, certificates, degeneracy, duality."""

import dataclasses
import hashlib
import random
from fractions import Fraction

import pytest

from boxcert import box, broadcast, polytope
from boxcert.box import b_alpha, pr_box
from boxcert.broadcast import BroadcastInstance, projection_feasibility, projection_lp
from boxcert.polytope import anti_robustness, anti_robustness_lp, lr_membership, membership_lp
from boxcert.ratlp import (
    Constraint,
    LinearProgram,
    MalformedLP,
    _canonicalize,
    _Simplex,
    check_witness,
    dump_lp,
    solve,
)
from boxcert.sampling import random_ns_box, random_ns_box_with_min_beta, rng_from_seed
from boxcert.twirl import twirl
from boxcert.vertices import local_vertices_2x2, ns_vertices_2x2

F = Fraction


def lp_single_bound():
    return LinearProgram(
        variables=["q"],
        constraints=[Constraint({"q": 1}, "<=", F(3, 4))],
        objective={"q": 1},
    )


def lp_contradiction():
    return LinearProgram(
        variables=["x"],
        constraints=[
            Constraint({"x": 1}, ">=", 1),
            Constraint({"x": 1}, "<=", 0),
        ],
    )


class TestBasics:
    def test_single_bound_optimum(self):
        out = solve(lp_single_bound())
        assert out.status == "optimal"
        assert out.witness == {"q": F(3, 4)}
        assert out.objective_value == F(3, 4)
        assert check_witness(lp_single_bound(), out)

    def test_contradiction_infeasible_with_farkas(self):
        lp = lp_contradiction()
        out = solve(lp)
        assert out.status == "infeasible"
        assert out.farkas
        assert check_witness(lp, out)
        # the certificate is the classic (1, 1) pair up to one positive scale
        y0 = out.farkas.get(("con", 0))
        y1 = out.farkas.get(("con", 1))
        assert y0 is not None and y1 is not None
        assert y0 == y1 and y0 > 0

    def test_minimization_as_negated_maximization(self):
        # min 3x + y is max -3x - y
        lp = LinearProgram(
            variables=["x", "y"],
            constraints=[Constraint({"x": 1, "y": 1}, ">=", 2)],
            objective={"x": -3, "y": -1},
            nonnegative=["x", "y"],
        )
        out = solve(lp)
        assert out.status == "optimal"
        assert out.objective_value == -2  # all weight on y
        assert check_witness(lp, out)

    def test_equality_and_bounds_as_rows(self):
        lp = LinearProgram(
            variables=["x", "y"],
            constraints=[
                Constraint({"x": 1, "y": 2}, "=", F(5, 2)),
                Constraint({"y": 1}, ">=", F(1, 4)),
                Constraint({"x": 1}, "<=", 2),
                Constraint({"y": 1}, "<=", 3),
            ],
            objective={"x": 1, "y": -1},
            nonnegative=["x", "y"],
        )
        out = solve(lp)
        assert out.status == "optimal"
        assert out.witness["x"] == 2
        assert out.witness["y"] == F(1, 4)
        assert check_witness(lp, out)

    def test_free_variables_negative_optimum(self):
        lp = LinearProgram(
            variables=["x"],
            constraints=[Constraint({"x": 1}, ">=", -5)],
            objective={"x": -1},
        )
        out = solve(lp)
        assert out.status == "optimal"
        assert out.witness["x"] == -5
        assert out.objective_value == 5
        assert check_witness(lp, out)

    def test_unbounded(self):
        lp = LinearProgram(
            variables=["x"],
            constraints=[Constraint({"x": 1}, ">=", 0)],
            objective={"x": 1},
        )
        out = solve(lp)
        assert out.status == "unbounded"
        assert not check_witness(lp, out)

    def test_feasibility_only(self):
        lp = LinearProgram(
            variables=["x", "y"],
            constraints=[
                Constraint({"x": 1, "y": 1}, "=", 1),
                Constraint({"x": 1, "y": -1}, "<=", F(1, 2)),
            ],
            nonnegative=["x", "y"],
        )
        out = solve(lp)
        assert out.status == "optimal"
        assert out.witness["x"] + out.witness["y"] == 1
        assert check_witness(lp, out)

    def test_duplicate_rows_removed_but_certified(self):
        lp = LinearProgram(
            variables=["x"],
            constraints=[
                Constraint({"x": 1}, "<=", 1),
                Constraint({"x": 1}, "<=", 1),
            ],
            objective={"x": 1},
        )
        out = solve(lp)
        assert out.objective_value == 1
        assert check_witness(lp, out)

    def test_determinism(self):
        lp = lp_single_bound()
        assert solve(lp) == solve(lp)


class TestMalformed:
    def test_unknown_variable(self):
        with pytest.raises(MalformedLP):
            LinearProgram(
                variables=["x"],
                constraints=[Constraint({"z": 1}, "<=", 1)],
            )

    def test_bad_relation(self):
        with pytest.raises(MalformedLP):
            Constraint({"x": 1}, "<", 1)

    def test_nonnegative_names_unknown_or_repeated_variable(self):
        for nonnegative in (["z"], ["x", "x"]):
            with pytest.raises(MalformedLP):
                LinearProgram(variables=["x"], constraints=[], nonnegative=nonnegative)

    def test_nonnegative_stored_sorted(self):
        lp = LinearProgram(variables=["y", "x", "z"], constraints=[], nonnegative=["z", "x"])
        assert lp.nonnegative == ("x", "z")
        assert [row.key for row in lp.int_rows] == [("lb", "x"), ("lb", "z")]

    def test_duplicate_variables(self):
        with pytest.raises(MalformedLP):
            LinearProgram(variables=["x", "x"], constraints=[])


class TestDegenerate:
    def test_beale_cycling_example_terminates(self):
        # Classic example that cycles under Dantzig's rule.
        lp = LinearProgram(
            variables=["x1", "x2", "x3", "x4"],
            constraints=[
                Constraint(
                    {"x1": F(1, 4), "x2": -60, "x3": -F(1, 25), "x4": 9}, "<=", 0
                ),
                Constraint(
                    {"x1": F(1, 2), "x2": -90, "x3": -F(1, 50), "x4": 3}, "<=", 0
                ),
                Constraint({"x3": 1}, "<=", 1),
            ],
            objective={"x1": F(3, 4), "x2": -150, "x3": F(1, 50), "x4": -6},
            nonnegative=["x1", "x2", "x3", "x4"],
        )
        out = solve(lp)
        assert out.status == "optimal"
        assert out.objective_value == F(1, 20)
        assert check_witness(lp, out)

    def test_redundant_equalities(self):
        lp = LinearProgram(
            variables=["x", "y"],
            constraints=[
                Constraint({"x": 1, "y": 1}, "=", 1),
                Constraint({"x": 2, "y": 2}, "=", 2),
                Constraint({"x": 3, "y": 3}, "=", 3),
            ],
            objective={"x": 1},
            nonnegative=["x", "y"],
        )
        out = solve(lp)
        assert out.status == "optimal"
        assert out.objective_value == 1
        assert check_witness(lp, out)


def random_primal_dual_pair(rng, n_vars, n_cons):
    """Feasible bounded primal min c.x s.t. Ax >= b, x >= 0, as max -c.x, and its dual."""
    A = [[F(rng.randint(-4, 6)) for _ in range(n_vars)] for _ in range(n_cons)]
    x0 = [F(rng.randint(0, 5)) for _ in range(n_vars)]
    b = [sum(A[i][j] * x0[j] for j in range(n_vars)) for i in range(n_cons)]
    c = [F(rng.randint(1, 9)) for _ in range(n_vars)]
    xs = [f"x{j}" for j in range(n_vars)]
    ys = [f"y{i}" for i in range(n_cons)]
    primal = LinearProgram(
        variables=xs,
        constraints=[
            Constraint({xs[j]: A[i][j] for j in range(n_vars)}, ">=", b[i])
            for i in range(n_cons)
        ],
        objective={xs[j]: -c[j] for j in range(n_vars)},
        nonnegative=xs,
    )
    dual = LinearProgram(
        variables=ys,
        constraints=[
            Constraint({ys[i]: A[i][j] for i in range(n_cons)}, "<=", c[j])
            for j in range(n_vars)
        ],
        objective={ys[i]: b[i] for i in range(n_cons)},
        nonnegative=ys,
    )
    return primal, dual


class TestDuality:
    def test_fifty_random_primal_dual_pairs(self):
        rng = random.Random(30)
        for _ in range(50):
            primal, dual = random_primal_dual_pair(
                rng, rng.randint(1, 4), rng.randint(1, 4)
            )
            p_out = solve(primal)
            assert p_out.status == "optimal"
            assert check_witness(primal, p_out)
            d_out = solve(dual)
            assert d_out.status == "optimal"
            assert check_witness(dual, d_out)
            assert p_out.objective_value == -d_out.objective_value


class TestWitnessChecking:
    def test_corrupted_witness_detected(self):
        lp = lp_single_bound()
        out = solve(lp)
        bad = type(out)(
            status=out.status,
            witness={"q": out.witness["q"] + F(1, 1000)},
            objective_value=out.objective_value,
            dual=out.dual,
            farkas=None,
        )
        assert not check_witness(lp, bad)

    def test_corrupted_objective_detected(self):
        lp = lp_single_bound()
        out = solve(lp)
        bad = type(out)(
            status=out.status,
            witness=out.witness,
            objective_value=out.objective_value + F(1, 1000),
            dual=out.dual,
            farkas=None,
        )
        assert not check_witness(lp, bad)

    def test_corrupted_farkas_detected(self):
        lp = lp_contradiction()
        out = solve(lp)
        key = next(iter(out.farkas))
        bad_farkas = dict(out.farkas)
        bad_farkas[key] += F(1, 1000)
        bad = type(out)(status="infeasible", farkas=bad_farkas)
        assert not check_witness(lp, bad)

    def test_wrong_status_rejected(self):
        lp = lp_single_bound()
        out = solve(lp)
        bad = type(out)(status="infeasible", farkas={("con", 0): F(1)})
        assert not check_witness(lp, bad)

    def test_empty_dual_rejected_with_objective(self):
        lp = lp_single_bound()
        out = solve(lp)
        assert out.dual
        bad = type(out)(
            status=out.status,
            witness=out.witness,
            objective_value=out.objective_value,
            dual={},
            farkas=None,
        )
        assert not check_witness(lp, bad)

    def test_dual_leaving_a_variable_unmatched_rejected(self):
        # y is in the objective but in no multiplied row; the dual value
        # still equals the optimum, so only stationarity on y catches it
        lp = LinearProgram(
            variables=["x", "y"],
            constraints=[Constraint({"x": 1}, "<=", 1), Constraint({"y": 1}, "<=", 0)],
            objective={"x": 1, "y": 1},
            nonnegative=["x", "y"],
        )
        out = solve(lp)
        assert out.status == "optimal" and out.objective_value == 1
        assert check_witness(lp, out)
        bad = type(out)(
            status=out.status,
            witness=out.witness,
            objective_value=out.objective_value,
            dual={("con", 0): F(1)},
            farkas=None,
        )
        assert not check_witness(lp, bad)

    def test_farkas_with_dropped_key_rejected(self):
        lp = lp_contradiction()
        out = solve(lp)
        assert len(out.farkas) >= 2
        for key in out.farkas:
            partial = {k: y for k, y in out.farkas.items() if k != key}
            assert not check_witness(lp, type(out)(status="infeasible", farkas=partial))

    def test_inexact_certificate_entries_rejected(self):
        # max x s.t. x <= 1: the float copy of the exact certificate must fail
        lp = LinearProgram(
            variables=["x"], constraints=[Constraint({"x": 1}, "<=", 1)], objective={"x": 1}
        )
        out = solve(lp)
        assert (out.witness, out.objective_value, out.dual) == ({"x": 1}, 1, {("con", 0): 1})
        assert check_witness(lp, out)
        assert check_witness(
            lp, type(out)("optimal", witness={"x": 1}, objective_value=1, dual={("con", 0): 1})
        )
        exact = dict(witness={"x": F(1)}, objective_value=F(1), dual={("con", 0): F(1)})
        for field, inexact in (
            ("witness", {"x": 1.0}),
            ("objective_value", 1.0),
            ("dual", {("con", 0): 1.0}),
            ("witness", {"x": "1"}),
            ("dual", {("con", 0): None}),
        ):
            bad = type(out)("optimal", **{**exact, field: inexact})
            assert not check_witness(lp, bad), field
        floats = dict(witness={"x": 1.0}, objective_value=1.0, dual={("con", 0): 1.0})
        assert not check_witness(lp, type(out)("optimal", **floats))
        contradiction = lp_contradiction()
        farkas = solve(contradiction).farkas
        for key in farkas:
            for inexact in (float(farkas[key]), str(farkas[key])):
                bad = {**farkas, key: inexact}
                assert not check_witness(contradiction, type(out)("infeasible", farkas=bad))


def random_nonnegative_free_lp(rng, n_vars, n_cons):
    """Feasible bounded LP mixing nonnegative and free variables.

    Even-numbered variables are nonnegative and odd-numbered ones free;
    every variable is also boxed by constraint rows, so the optimum exists.
    Returns the LP, its feasible point and the kind of each variable.
    """
    xs = [f"x{j}" for j in range(n_vars)]
    kinds = [("nonnegative", "free")[j % 2] for j in range(n_vars)]
    x0 = {
        v: F(rng.randint(0 if kind == "nonnegative" else -6, 6), rng.randint(1, 3))
        for v, kind in zip(xs, kinds)
    }
    constraints = []
    for v in xs:
        constraints.append(Constraint({v: 1}, "<=", x0[v] + 7))
        constraints.append(Constraint({v: 1}, ">=", x0[v] - 7))
    for _ in range(n_cons):
        coeffs = {v: F(rng.randint(-3, 3), rng.randint(1, 2)) for v in xs}
        value = sum(c * x0[v] for v, c in coeffs.items())
        relation = rng.choice(("<=", ">=", "="))
        slack = 0 if relation == "=" else rng.randint(0, 2)
        rhs = value + slack if relation == "<=" else value - slack
        constraints.append(Constraint(coeffs, relation, rhs))
    lp = LinearProgram(
        variables=xs,
        constraints=constraints,
        objective={v: rng.randint(-4, 4) for v in xs},
        nonnegative=[v for v, kind in zip(xs, kinds) if kind == "nonnegative"],
    )
    return lp, x0, kinds


class TestBoundKinds:
    def test_random_lps_with_nonnegative_and_free_variables(self):
        rng = random.Random(11)
        for _ in range(40):
            lp, x0, kinds = random_nonnegative_free_lp(rng, rng.randint(4, 7), rng.randint(1, 4))
            assert set(kinds) == {"nonnegative", "free"}
            out = solve(lp)
            assert out.status == "optimal"
            assert check_witness(lp, out)
            assert all(out.witness[v] >= 0 for v in lp.nonnegative)
            assert out.objective_value >= sum(c * x0[v] for v, c in lp.objective)

    def test_contradicted_bounds_give_checked_farkas(self):
        rng = random.Random(12)
        for _ in range(20):
            lp, x0, kinds = random_nonnegative_free_lp(rng, rng.randint(4, 7), rng.randint(1, 4))
            free = [v for v, kind in zip(lp.variables, kinds) if kind == "free"]
            nonneg_var = lp.nonnegative[rng.randrange(len(lp.nonnegative))]
            free_var = free[rng.randrange(len(free))]
            for extra in (
                Constraint({nonneg_var: 1}, "<=", F(-1, 3)),
                Constraint({free_var: 1}, ">=", x0[free_var] + 7 + F(1, 3)),
            ):
                bad = LinearProgram(
                    variables=lp.variables,
                    constraints=list(lp.constraints) + [extra],
                    objective=dict(lp.objective),
                    nonnegative=lp.nonnegative,
                )
                out = solve(bad)
                assert out.status == "infeasible"
                assert check_witness(bad, out)


def patched_reference(lp, rows):
    """``lp`` with ``rows`` patched in, built through the validating constructors."""
    constraints = list(lp.constraints)
    for k, (terms, relation, rhs) in rows.items():
        constraints[k] = Constraint(dict(terms), relation, rhs, name=constraints[k].name)
    return LinearProgram(
        lp.variables,
        constraints,
        None if lp.objective is None else dict(lp.objective),
        lp.nonnegative,
    )


class TestPatched:
    """``LinearProgram._patched`` must equal the validating build, integer for integer."""

    @staticmethod
    def assert_same(lp, rows):
        patched, ref = lp._patched(rows), patched_reference(lp, rows)
        assert patched == ref
        assert repr(patched) == repr(ref)
        assert patched.int_rows == ref.int_rows
        assert repr(patched.int_rows) == repr(ref.int_rows)
        # the solver walks each row's terms in dict order
        assert [list(row.coeffs) for row in patched.int_rows] == [
            list(row.coeffs) for row in ref.int_rows
        ]
        for k, con in enumerate(lp.constraints):
            assert (patched.constraints[k] is con) == (k not in rows)
            assert (patched.int_rows[k] is lp.int_rows[k]) == (k not in rows)
        # bound rows are never patched
        n = len(lp.constraints)
        assert all(a is b for a, b in zip(patched.int_rows[n:], lp.int_rows[n:]))
        assert repr(solve(patched)) == repr(solve(ref))

    @pytest.mark.parametrize("objective", [None, {"x": F(2, 3), "z": -1}])
    def test_each_relation_into_each_other(self, objective):
        lp = LinearProgram(
            variables=["u", "x", "y", "z"],
            constraints=[
                Constraint({"x": F(1, 2), "y": -3}, "<=", F(5, 7), name="a"),
                Constraint({"y": F(2, 3), "z": 1}, ">=", -1, name="b"),
                Constraint({"x": 1, "z": F(4, 5)}, "=", F(3, 2), name="c"),
                Constraint({"u": 7}, "<=", 2, name="d"),
            ],
            objective=objective,
            nonnegative=["x", "u"],
        )
        rows = {
            0: ((("u", F(3, 4)), ("x", F(-5, 6))), ">=", F(-2, 9)),
            1: ((("y", F(1, 6)),), "=", F(7, 4)),
            2: ((("x", F(2)), ("y", F(-1, 10)), ("z", F(3))), "<=", F(0)),
        }
        self.assert_same(lp, rows)
        self.assert_same(lp, {})
        for k, row in rows.items():
            self.assert_same(lp, {k: row})

    def test_seeded_patches(self):
        rng = random.Random(13)
        for n in range(30):
            lp, _, _ = random_nonnegative_free_lp(rng, rng.randint(4, 7), rng.randint(1, 4))
            if n % 2:
                lp = LinearProgram(lp.variables, lp.constraints, None, lp.nonnegative)
            rows = {}
            for k in rng.sample(range(len(lp.constraints)), rng.randint(1, 4)):
                names = sorted(rng.sample(lp.variables, rng.randint(1, len(lp.variables))))
                terms = tuple(
                    (v, F(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 6))) for v in names
                )
                rhs = F(rng.randint(-20, 20), rng.randint(1, 12))
                rows[k] = (terms, rng.choice(("<=", ">=", "=")), rhs)
            self.assert_same(lp, rows)


class TestDump:
    def test_dump_contains_rows_and_bounds(self):
        lp = LinearProgram(
            variables=["x", "y"],
            constraints=[Constraint({"x": F(3, 4), "y": -1}, "<=", 5, name="cap")],
            objective={"x": 1},
            nonnegative=["x"],
        )
        text = dump_lp(lp)
        assert "max: 1 x" in text
        assert "cap: 3/4 x + -1 y <= 5" in text
        assert "bound: x >= 0" in text
        assert "bound: y" not in text


def _tampered(out):
    """Copies of ``out`` with one certificate entry nudged by 1/1000."""
    nudge = F(1, 1000)
    if out.status == "infeasible":
        key = next(iter(out.farkas))
        return [type(out)(status="infeasible", farkas={**out.farkas, key: out.farkas[key] + nudge})]
    if out.status != "optimal":
        return []
    var = next(iter(out.witness))
    copies = [
        type(out)(
            status="optimal",
            witness={**out.witness, var: out.witness[var] + nudge},
            objective_value=out.objective_value,
            dual=out.dual,
        )
    ]
    if out.dual:
        key = next(iter(out.dual))
        copies.append(
            type(out)(
                status="optimal",
                witness=out.witness,
                objective_value=out.objective_value,
                dual={**out.dual, key: out.dual[key] + nudge},
            )
        )
    return copies


def _pinned_corpus():
    """Seeded LPs over both variable kinds plus the LPs the box verbs solve."""
    rng = random.Random(41)
    for k in range(60):
        lp, _, _ = random_nonnegative_free_lp(rng, rng.randint(4, 7), rng.randint(1, 4))
        yield lp
        var = lp.nonnegative[rng.randrange(len(lp.nonnegative))]
        extra = Constraint({var: 1}, "<=", F(-1, 3))
        yield LinearProgram(
            variables=lp.variables,
            constraints=list(lp.constraints) + [extra],
            objective=None if k % 3 == 0 else dict(lp.objective),
            nonnegative=lp.nonnegative,
        )
        if k % 4 == 0:
            yield LinearProgram(
                variables=lp.variables,
                constraints=lp.constraints,
                nonnegative=lp.nonnegative,
            )
    rng = random.Random(42)
    for _ in range(12):
        yield from random_primal_dual_pair(rng, rng.randint(1, 4), rng.randint(1, 4))
    points = tuple(ns_vertices_2x2()[:16])
    rng = rng_from_seed(43)
    for k in range(8):
        if k % 2:
            box = random_ns_box_with_min_beta(rng, k % 2, (k // 2) % 2, (k // 4) % 2)
        else:
            box = random_ns_box(rng)
        for b in (box, twirl(box, (k // 2) % 2, (k // 4) % 2)):
            yield membership_lp(b, points)
            yield anti_robustness_lp(b, points)
    for alpha in (F(3, 4), F(25, 32), F(4, 5), F(13, 16), F(7, 8)):
        yield projection_lp(BroadcastInstance(alpha))


def _initial_tableau(lp):
    """The integer tableau before the first pivot; its row scaling steers tie-breaks."""
    simplex = _Simplex(_canonicalize(lp))
    rows, dens, m = simplex.rows, simplex.dens, simplex.m
    return (
        rows[:m], dens[:m], rows[m], dens[m],
        rows[m + 1], dens[m + 1], simplex.sigma, simplex.basis,
    )


class TestPinnedOutcomes:
    """Bases depend on row scaling, so outcomes are pinned over both variable kinds."""

    def test_outcome_and_check_digest(self):
        lines = []
        for lp in _pinned_corpus():
            out = solve(lp)
            lines.append(repr(_initial_tableau(lp)))
            lines.append(repr(out))
            lines.append(repr(check_witness(lp, out)))
            lines.extend(repr(check_witness(lp, bad)) for bad in _tampered(out))
        statuses = {line.split("'")[1] for line in lines if line.startswith("LPOutcome")}
        assert statuses == {"optimal", "infeasible"}
        digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
        assert digest == "88983e7cedfbba6991af9d3655fbfe11bc67d406f0dc2b307bcdafeb963028d8"


class TestLazyLP:
    """Results whose verdict needed no solve build their ``lp`` on first read, once."""

    # per kind: the LP-building function's module and name, the verdict, the eager build
    CASES = {
        # the CHSH-facet optimum of a non-local 2x2 box
        "anti_robustness": (
            polytope, "anti_robustness_lp",
            anti_robustness,
            lambda b: anti_robustness_lp(b, local_vertices_2x2()),
        ),
        # a fully NS 2x2 box: the CHSH facet's Farkas vector of a non-local
        # one, the deterministic-vertex decomposition of a local one
        "membership": (
            polytope, "membership_lp",
            lr_membership,
            lambda b: membership_lp(b, local_vertices_2x2()),
        ),
        # the forced point of the projected system inside (3/4, 4/5]
        "projection": (
            broadcast, "projection_lp",
            lambda a: projection_feasibility(BroadcastInstance(a)),
            lambda a: projection_lp(BroadcastInstance(a)),
        ),
    }
    INPUTS = {
        "anti_robustness": [b_alpha(F(7, 8)), pr_box(1, 0, 1)],
        "membership": [
            b_alpha(F(13, 16)),
            pr_box(0, 1, 1),
            b_alpha(F(3, 4)),
            b_alpha(F(1, 2)),
            random_ns_box(rng_from_seed(0)),
        ],
        "projection": [F(25, 32), F(4, 5), F(79, 100)],
    }

    @pytest.mark.parametrize("kind", sorted(CASES))
    def test_built_on_first_read_and_equal_to_the_eager_build(self, kind, monkeypatch):
        module, build, verdict_of, eager_build = self.CASES[kind]
        calls, validated = [], []
        real, init = getattr(module, build), box.Box.__post_init__
        monkeypatch.setattr(module, build, lambda *args: calls.append(args) or real(*args))
        monkeypatch.setattr(box.Box, "__post_init__", lambda b: validated.append(b) or init(b))
        for item in self.INPUTS[kind]:
            calls.clear()
            result = verdict_of(item)
            assert calls == []
            validated.clear()
            lp = result.lp
            assert len(calls) == 1 and validated == []  # no validated Box on the way
            assert result.lp is lp and len(calls) == 1
            ref = eager_build(item)
            assert lp == ref
            assert lp.int_rows == ref.int_rows
            assert check_witness(lp, result.outcome)

    def test_stays_frozen(self):
        result = anti_robustness(b_alpha(F(7, 8)))
        with pytest.raises(dataclasses.FrozenInstanceError):
            result.lp = None

    def test_solved_verdicts_keep_the_lp_they_solved(self, monkeypatch):
        solved = []
        for module in (polytope, broadcast):
            monkeypatch.setattr(module, "solve", lambda lp: solved.append(lp) or solve(lp))
        results = [
            anti_robustness(b_alpha(F(3, 4))),
            projection_feasibility(BroadcastInstance(F(3, 4))),
            projection_feasibility(BroadcastInstance(F(7, 8))),
        ]
        assert len(solved) == len(results)
        assert all(result.lp is lp for result, lp in zip(results, solved))

    def test_separating_functional_reads_the_template(self, monkeypatch):
        cert = lr_membership(pr_box(0, 0, 0))
        monkeypatch.setattr(polytope, "membership_lp", None)  # any build would fail
        functional, threshold = cert.separating_functional()
        assert threshold == -1
        assert len(functional) == 16
