"""Locality membership, anti-robustness, and hyperplane/cone geometry.

Everything here reduces to exact LPs over named vertex sets:

* 2x2 locality = membership in the convex hull of the 16 deterministic
  vertices; the 4-party AA'|BB' cut uses the 576 products of extremal
  fully-NS boxes on each side.
* anti-robustness(A) = max q such that q*A + (1-q)*X is local for some
  NS box X; linearized as max q with sum(w_i v_i) - q*A >= 0 entrywise
  and sum(w_i) = 1 (the admixture (1-q)*X is the slack of those rows,
  and is automatically non-signalling and correctly normalized).
* the beta_rst = 2 hyperplane meets each segment [B_rst, vertex] in one
  ray point; all 184 ray points are local, and sampled two-sided checks
  certify that the beta >= 2 part of the NS polytope is exactly the hull
  of the apex and its 23 ray points.
* the ray points need no LP: the local facet beta_rst = 2 is a simplex
  of the 8 deterministic vertices that lose game rst on exactly one
  cell each, no two on the same cell.  A box on the facet therefore puts
  weight P(that cell) on each of them; it is local exactly when those
  weights reconstruct it, which is checked by substitution.
* neither do the sampled halfspace boxes: {beta_rst >= 2} ∩ NS is a
  pyramid with apex B_rst over that facet simplex.  beta_rst is affine, 4 at
  the apex and 2 at every ray point, so every decomposition over the apex
  and ray points puts (beta_rst - 2)/2 on the apex; the rest lies in the
  facet simplex, whose vertices are ray points, so each of them weighs the
  entry of the cell it loses.  A box decomposes exactly when that apex
  weight is >= 0 and these weights rebuild it by substitution.
* a 2x2 box with beta* = beta_rst > 2 needs no LP either: its
  anti-robustness optimum (q = 6/(beta*+4), admixture the anti-PR box,
  weights read off the facet) and, when it is fully NS, its membership Farkas
  vector have closed forms, built as the ``LPOutcome`` the solver would
  return.  Local boxes, signalling boxes' membership and the 4-party cut
  still solve.

Per vertex set, the membership and the anti-robustness LP of the all-zero
table are validated once and cached; a box's LP shares their rows and
patches only the cell rows of its nonzero entries.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import islice
from math import lcm

from .box import (
    Box,
    BoxError,
    Cut,
    WrongShape,
    cells,
    chsh_game,
    count_combination,
    is_fully_ns,
    mix,
    pr_box,
    require_2x2,
    rst_cache,
    uniform_box,
    weight_counts,
)
from .chsh import CHSHValue, beta, beta_table, max_beta
from .ratlp import Constraint, LinearProgram, LPOutcome, solve
from .sampling import (
    DEFAULT_DENOMINATOR,
    composition,
    random_ns_box_with_min_beta,
    rng_from_seed,
)
from .vertices import broadcast_local_vertices, local_vertices_2x2, ns_vertices_2x2

F = Fraction
_ZERO = F(0)

BROADCAST_CUT = Cut(frozenset({0, 2}), frozenset({1, 3}))


class PreconditionNotMet(BoxError):
    pass


class DegenerateRay(BoxError):
    pass


def _cell_name(outputs, inputs) -> str:
    return "cell:%s|%s" % (
        "".join(map(str, outputs)),
        "".join(map(str, inputs)),
    )


def _local_vertex_set(box: Box, cut: Cut | None) -> tuple[tuple[str, Box], ...]:
    if box.is_binary_bipartite():
        if cut is not None and cut != Cut(frozenset({0}), frozenset({1})):
            raise WrongShape(f"unsupported cut {cut} for a 2-party box")
        return local_vertices_2x2()
    if box.input_arity == (2, 2, 2, 2) and box.output_arity == (2, 2, 2, 2):
        if cut is None or cut != BROADCAST_CUT:
            raise WrongShape(
                "4-party membership needs the AA'|BB' cut declared "
                f"(parties {{0,2}}|{{1,3}}), got {cut}"
            )
        return broadcast_local_vertices()
    raise WrongShape(
        f"no local polytope description for arities {box.input_arity}/{box.output_arity}"
    )


def named_weights(witness: dict, points: tuple[tuple[str, Box], ...]) -> dict[str, Fraction]:
    """The nonzero ``w:<name>`` values of a weight-LP witness, in ``points`` order."""
    return {name: w for name, _ in points if (w := witness[f"w:{name}"])}


def mixture(weights: dict, points) -> Box:
    """The mixture of the named ``points`` with ``weights`` (name -> weight).

    A weight is a Fraction or anything else ``ratio`` reads, such as a
    certificate's stated ``"num/den"`` string; every weight is read before
    any name is looked up.
    """
    counts, scale = weight_counts(weights.values())
    lookup = dict(points)
    return count_combination(counts, scale, [lookup[name] for name in weights])


def admixture(local: Box, q: Fraction, target: Box) -> Box:
    """X = (L - q*target)/(1 - q), so that L = q*target + (1-q)*X; uniform at q = 1."""
    if q == 1:
        return uniform_box(target.party_count)
    l_nums, l_den = local.int_view
    t_nums, t_den = target.int_view
    den = lcm(l_den, t_den)
    fl, ft = q.denominator * (den // l_den), q.numerator * (den // t_den)
    scale = den * (q.denominator - q.numerator)
    probs = tuple(F(fl * u - ft * v, scale) for u, v in zip(l_nums, t_nums))
    # validated: X's validity rests on an LP solution rather than on the types
    return Box(target.input_arity, target.output_arity, probs)


@lru_cache(maxsize=32)
def _weight_template(shape, points_key, anti: bool) -> LinearProgram:
    """The weight LP of the all-zero table over one vertex set, validated on first use.

    ``points_key`` holds ``(name, int_view)`` per point, so the cache keys
    on exact integers rather than on Boxes, and hashing it is cheap.  Each
    cell row holds the nonzero vertex entries only, with right-hand side 0,
    so it is already the row of every box whose entry there is 0.
    """
    weights = [f"w:{name}" for name, _ in points_key]
    views = [view for _, view in points_key]
    constraints = [
        Constraint(
            [(w, F(nums[k], den)) for w, (nums, den) in zip(weights, views) if nums[k]],
            ">=" if anti else "=",
            0,
            name=_cell_name(a, x),
        )
        for k, (a, x) in enumerate(cells(*shape))
    ]
    constraints.append(Constraint([(w, 1) for w in weights], "=", 1, name="normalization"))
    if anti:
        return LinearProgram(["q"] + weights, constraints, {"q": 1}, nonnegative=["q"] + weights)
    return LinearProgram(weights, constraints, nonnegative=weights)


def _template(box: Box, points: tuple[tuple[str, Box], ...], anti: bool) -> LinearProgram:
    points_key = tuple((name, vert.int_view) for name, vert in points)
    return _weight_template((box.input_arity, box.output_arity), points_key, anti)


def _weight_lp(box: Box, points: tuple[tuple[str, Box], ...], anti: bool) -> LinearProgram:
    """The template with each nonzero box entry p patched into its cell row.

    Membership gets right-hand side p, anti-robustness the term ``("q", -p)``;
    every other row is the template's own.
    """
    template = _template(box, points, anti)
    cons = template.constraints
    if anti:
        # "q" sorts before every "w:" name, so it leads, as in the validated row
        rows = {
            k: ((("q", -p),) + cons[k].coeffs, ">=", _ZERO) for k, p in enumerate(box.probs) if p
        }
    else:
        rows = {k: (cons[k].coeffs, "=", p) for k, p in enumerate(box.probs) if p}
    return template._patched(rows)


def membership_lp(box: Box, points: tuple[tuple[str, Box], ...]) -> LinearProgram:
    """Feasibility LP: box = sum of weights over ``points``, weights on the simplex."""
    return _weight_lp(box, points, anti=False)


@dataclass(frozen=True)
class MembershipCertificate:
    member: bool
    weights: dict[str, Fraction] | None
    farkas: dict[tuple, Fraction] | None
    violated_facets: tuple[CHSHValue, ...]
    lp: LinearProgram
    outcome: LPOutcome

    def separating_functional(self) -> tuple[dict[str, Fraction], Fraction] | None:
        """(cell -> coefficient, threshold) with f(box) > threshold >= f(vertex)."""
        if self.member or self.farkas is None:
            return None
        functional: dict[str, Fraction] = {}
        threshold = F(0)
        for key, y in self.farkas.items():
            if key[0] != "con":
                continue
            con = self.lp.constraints[key[1]]
            if con.name == "normalization":
                threshold += y
            else:
                functional[con.name] = functional.get(con.name, F(0)) - y
        return functional, threshold


def lr_membership(box: Box, cut: Cut | None = None) -> MembershipCertificate:
    """Exact LP membership in the local polytope, with certificate.

    A fully NS 2x2 box violating a CHSH facet gets that facet's Farkas
    vector without a solve; it violates no other.
    """
    points = _local_vertex_set(box, cut)
    lp = membership_lp(box, points)
    facets: tuple[CHSHValue, ...] = ()
    if box.is_binary_bipartite():
        values, _ = beta_table(box)
        facets = tuple(v for v in values if v.value > 2)
    if facets and is_fully_ns(box).fully_ns:
        (v,) = facets
        outcome = LPOutcome("infeasible", farkas=dict(_facet_farkas(v.r, v.s, v.t)))
    else:
        outcome = solve(lp)
    if outcome.status == "optimal":
        weights = named_weights(outcome.witness, points)
        return MembershipCertificate(True, weights, None, (), lp, outcome)
    return MembershipCertificate(False, None, outcome.farkas, facets, lp, outcome)


@dataclass(frozen=True)
class AntiRobustnessResult:
    value: Fraction
    local_witness: Box
    admixture_witness: Box
    weights: dict[str, Fraction]
    lp: LinearProgram
    outcome: LPOutcome


def anti_robustness_lp(box: Box, points: tuple[tuple[str, Box], ...]) -> LinearProgram:
    """max q subject to sum(w_i v_i) - q*box >= 0 entrywise and sum(w_i) = 1."""
    return _weight_lp(box, points, anti=True)


def anti_robustness(box: Box, cut: Cut | None = None) -> AntiRobustnessResult:
    """Largest q with q*box + (1-q)*X local for some NS box X.

    The witness L = q*box + (1-q)*X is returned together with X and the
    convex weights certifying L's membership.  For local boxes q = 1 and
    X is reported as the maximally mixed box.  A 2x2 box with beta* > 2
    gets the LP's optimum from the CHSH facet, without a solve.
    """
    report = is_fully_ns(box)
    if not report.fully_ns:
        raise WrongShape("anti-robustness needs a fully non-signalling box")
    points = _local_vertex_set(box, cut)
    lp = anti_robustness_lp(box, points)
    if box.is_binary_bipartite():
        rst, best = max_beta(box)
        if best > 2:
            outcome, local_witness, x = _facet_optimum(box, rst, best, points)
            weights = named_weights(outcome.witness, points)
            q = outcome.objective_value
            return AntiRobustnessResult(q, local_witness, x, weights, lp, outcome)
    outcome = solve(lp)
    if outcome.status != "optimal":
        raise RuntimeError(f"anti-robustness LP ended {outcome.status}")
    q = outcome.witness["q"]
    weights = named_weights(outcome.witness, points)
    local_witness = mixture(weights, points)
    return AntiRobustnessResult(
        q, local_witness, admixture(local_witness, q, box), weights, lp, outcome
    )


def anti_robustness_closed_form(box: Box) -> Fraction:
    """6 / (beta* + 4) where beta* is the largest CHSH value, valid for beta* >= 2.

    Along any admixture X the local mixing weight is capped by
    (2 - beta(X)) / (beta* - beta(X)), increasing as beta(X) falls, so the
    optimum sits at beta(X) = -4.
    """
    if not box.is_binary_bipartite():
        raise WrongShape("closed form defined for 2-party binary boxes")
    _, best = max_beta(box)
    if best < 2:
        raise PreconditionNotMet(f"max beta {best} < 2")
    return F(6) / (best + 4)


@dataclass(frozen=True)
class RayPoint:
    apex: tuple[int, int, int]
    vertex_name: str
    p: Fraction
    point: Box


def _ray_point(r: int, s: int, t: int, apex: Box, name: str, vertex: Box) -> RayPoint:
    beta_v = beta(vertex, r, s, t)
    if beta_v == 4:
        raise DegenerateRay("vertex lies on the apex level set beta = 4")
    p = (2 - beta_v) / (4 - beta_v)
    point = mix(p, apex, vertex)
    if beta(point, r, s, t) != 2:
        raise RuntimeError(f"ray point toward {name} is off the hyperplane beta_{r}{s}{t} = 2")
    return RayPoint((r, s, t), name, p, point)


def ray_intersection(r: int, s: int, t: int, vertex: Box) -> RayPoint:
    """Unique point of [B_rst, vertex] on the beta_rst = 2 hyperplane."""
    apex = pr_box(r, s, t)
    for name, candidate in ns_vertices_2x2():
        if candidate == vertex:
            return _ray_point(r, s, t, apex, name, vertex)
    raise WrongShape("vertex is not one of the 24 extremal NS points")


@rst_cache
def _ray_table(r: int, s: int, t: int) -> tuple[RayPoint, ...]:
    """The 23 ray points of apex B_rst, in ``ns_vertices_2x2`` order; built once per apex."""
    apex = pr_box(r, s, t)
    apex_name = f"pr_{r}{s}{t}"
    return tuple(
        _ray_point(r, s, t, apex, name, vertex)
        for name, vertex in ns_vertices_2x2()
        if name != apex_name
    )


@dataclass(frozen=True)
class FacetMembership:
    """Locality of a box on a CHSH facet, with the facet weights of a member."""

    member: bool
    weights: dict[str, Fraction] | None


@rst_cache
def _facet_table(r: int, s: int, t: int) -> tuple[tuple[int, str], ...]:
    """The vertices of the local facet beta_rst = 2, each with the one cell it loses.

    Pairs ``(cell index, vertex name)``, in ``local_vertices_2x2`` order.
    """
    game = chsh_game(r, s, t)
    facet = []
    for name, vertex in local_vertices_2x2():
        lost = [k for k, (n, won) in enumerate(zip(vertex.int_view[0], game)) if n and won < 0]
        if len(lost) == 1:
            facet.append((lost[0], name))
    return tuple(facet)


@rst_cache
def _off_facet(r: int, s: int, t: int) -> tuple[str, ...]:
    """The 8 local vertices off the facet beta_rst = 2, in ``local_vertices_2x2`` order.

    Each has beta_rst = -2: it loses game rst on three cells, not one.
    """
    facet = {name for _, name in _facet_table(r, s, t)}
    return tuple(name for name, _ in local_vertices_2x2() if name not in facet)


def facet_membership(box: Box, r: int, s: int, t: int) -> FacetMembership:
    """Locality of a 2x2 box on the facet beta_rst = 2, without an LP.

    No other facet vertex has weight on the cell a facet vertex loses, so
    that cell's entry is the vertex's weight.  The weights sum to 1
    exactly when beta_rst = 2; the box is a member when they reconstruct it.
    """
    require_2x2(box)
    facet = _facet_table(r, s, t)
    nums, den = box.int_view
    if sum(nums[k] for k, _ in facet) != den:
        return FacetMembership(False, None)
    weights = {name: F(nums[k], den) for k, name in facet if nums[k]}
    if mixture(weights, local_vertices_2x2()) != box:
        return FacetMembership(False, None)
    return FacetMembership(True, weights)


def _facet_optimum(box: Box, rst, best: Fraction, points) -> tuple[LPOutcome, Box, Box]:
    """The anti-robustness LP's optimum for a 2x2 box with beta* > 2, without a solve.

    ``rst, best`` are ``max_beta(box)``, so q = 6/(best+4).  The admixture
    X is the anti-PR box of game rst (beta_rst = -4), which puts
    L = q*box + (1-q)*X on the facet beta_rst = 2, a simplex; so the
    weights are L's facet weights.  The dual puts y = 2/(best+4) on the
    cell rows game rst wins, q on the normalization row, and q - y on the
    bound of each vertex off the facet, which wins one cell, not three.
    Returns the outcome, L and X.
    """
    r, s, t = rst
    q = F(6) / (best + 4)
    admixed = pr_box(r, s, 1 - t)
    local = mix(q, box, admixed)
    on_facet = facet_membership(local, r, s, t)
    if not on_facet.member:
        raise RuntimeError(f"q*box + (1-q)*X is off the facet beta_{r}{s}{t} = 2")
    witness = {"q": q}
    witness.update((f"w:{name}", on_facet.weights.get(name, _ZERO)) for name, _ in points)
    y = F(2) / (best + 4)
    game = chsh_game(r, s, t)
    dual = {("con", k): y for k, won in enumerate(game) if won > 0}
    dual[("con", len(game))] = q
    dual.update((("lb", f"w:{name}"), q - y) for name in _off_facet(r, s, t))
    return LPOutcome("optimal", witness, q, dual), local, admixed


@rst_cache
def _facet_farkas(r: int, s: int, t: int) -> dict[tuple, Fraction]:
    """The membership LP's Farkas vector for every fully NS 2x2 box with beta_rst > 2.

    4 on the cell rows game rst loses, -1 on those it wins and on the
    normalization row, and 10 on the bound of each vertex losing three
    cells: every weight's column sums to 0, and the right-hand side to
    5 - 5*beta_rst/2 < 0.  Callers copy it; nothing writes to it.
    """
    game = chsh_game(r, s, t)
    farkas = {("con", k): F(-1 if won > 0 else 4) for k, won in enumerate(game)}
    farkas[("con", len(game))] = F(-1)
    farkas.update((("lb", f"w:{name}"), F(10)) for name in _off_facet(r, s, t))
    return farkas


@dataclass(frozen=True)
class RayPointCheck:
    ray: RayPoint
    betas: tuple[CHSHValue, ...]
    within_all_facets: bool
    membership: FacetMembership


@dataclass(frozen=True)
class HyperplaneReport:
    apex: tuple[int, int, int]
    checks: tuple[RayPointCheck, ...]
    all_pass: bool


def hyperplane_locality_check(r: int, s: int, t: int) -> HyperplaneReport:
    """All 23 ray points of apex B_rst satisfy all CHSH facets and are local."""
    checks = []
    for ray in _ray_table(r, s, t):
        values, local_flag = beta_table(ray.point)
        membership = facet_membership(ray.point, r, s, t)
        checks.append(RayPointCheck(ray, tuple(values), local_flag, membership))
    all_pass = all(c.within_all_facets and c.membership.member for c in checks)
    return HyperplaneReport((r, s, t), tuple(checks), all_pass)


def ray_points(r: int, s: int, t: int) -> tuple[tuple[str, Box], ...]:
    """Apex plus its 23 hyperplane ray points, the candidate hull of beta >= 2."""
    rays = tuple((f"ray:{ray.vertex_name}", ray.point) for ray in _ray_table(r, s, t))
    return ((f"pr_{r}{s}{t}", pr_box(r, s, t)),) + rays


@dataclass(frozen=True)
class HalfspaceSample:
    index: int
    detail: str


@dataclass(frozen=True)
class HalfspaceReport:
    apex: tuple[int, int, int]
    samples: int
    seed: int
    hull_weights: tuple[tuple[Fraction, ...], ...]
    half_decompositions: tuple[dict[str, Fraction], ...]
    hull_side_failures: tuple[HalfspaceSample, ...]
    halfspace_side_failures: tuple[HalfspaceSample, ...]
    all_pass: bool


def halfspace_draws(r: int, s: int, t: int, samples: int, seed: int):
    """Seeded draws: ``samples`` count rows over ``ray_points``, then ``samples`` boxes.

    A count row holds integers summing to ``DEFAULT_DENOMINATOR``: the
    weight of point i is ``row[i]/DEFAULT_DENOMINATOR``.
    """
    rng = rng_from_seed(seed)
    count = 1 + len(_ray_table(r, s, t))
    for _ in range(samples):
        yield composition(rng, count, DEFAULT_DENOMINATOR)
    for _ in range(samples):
        yield random_ns_box_with_min_beta(rng, r, s, t)


def hull_fault(r: int, s: int, t: int, counts) -> str | None:
    """Why the mixture of ``ray_points`` by a count row leaves {beta_rst >= 2} ∩ NS, or None."""
    candidate = count_combination(counts, DEFAULT_DENOMINATOR, [b for _, b in ray_points(r, s, t)])
    if beta(candidate, r, s, t) < 2:
        return "beta below 2"
    if not is_fully_ns(candidate).fully_ns:
        return "not fully NS"
    return None


def _pyramid_weights(box: Box, r: int, s: int, t: int, points) -> dict[str, Fraction] | None:
    """A 2x2 box's weights over ``points`` = ``ray_points(r, s, t)``, or None if it has none.

    The apex weighs (beta_rst - 2)/2 and each facet vertex ``ray:<v>``
    the entry of the one cell v loses; zeros are left out, in ``points``
    order, as ``named_weights`` gives them.  The box decomposes when that
    apex weight is >= 0 and the weights rebuild it by substitution.
    """
    apex_weight = (beta(box, r, s, t) - 2) / 2
    if apex_weight < 0:
        return None
    nums, den = box.int_view
    closed = {f"ray:{name}": F(nums[k], den) for k, name in _facet_table(r, s, t) if nums[k]}
    closed[f"pr_{r}{s}{t}"] = apex_weight
    weights = {name: w for name, _ in points if (w := closed.get(name))}
    return weights if mixture(weights, points) == box else None


def halfspace_body_equality_check(
    r: int, s: int, t: int, samples: int = 500, seed: int = 0
) -> HalfspaceReport:
    """Sampled two-sided check that {beta_rst >= 2} ∩ NS equals the ray-point hull.

    Hull side: random mixtures of apex and ray points stay in the
    halfspace and fully NS.  Halfspace side: random NS boxes with
    beta_rst >= 2 admit an exact decomposition over those 24 points.
    The report keeps the per-sample weights so an independent checker
    can replay both directions by substitution alone.

    The halfspace side solves no LP.  {beta_rst >= 2} ∩ NS is a pyramid:
    apex B_rst over the local facet beta_rst = 2, a simplex whose 8
    vertices are ray points (each is its own).  beta_rst is affine, 4 at
    the apex and 2 at every ray point, so every decomposition puts
    (beta_rst - 2)/2 on the apex; the rest lies in the hull of the ray
    points, inside the facet simplex, where each vertex weighs the entry
    of the one cell it loses (the apex is 0 there).  So the membership LP
    over the 24 points is feasible exactly when ``_pyramid_weights``
    rebuilds the box, and the verdicts are the LP's.  Tests check these
    weights against the LP solver's witness.
    """
    points = ray_points(r, s, t)
    draws = halfspace_draws(r, s, t, samples, seed)
    hull_counts = list(islice(draws, samples))
    hull_failures = [
        HalfspaceSample(k, fault)
        for k, counts in enumerate(hull_counts)
        if (fault := hull_fault(r, s, t, counts))
    ]
    half_failures = []
    half_decompositions = []
    for k, candidate in enumerate(draws):
        weights = _pyramid_weights(candidate, r, s, t, points)
        if weights is None:
            half_failures.append(HalfspaceSample(k, "no exact decomposition"))
        half_decompositions.append(weights or {})
    return HalfspaceReport(
        (r, s, t),
        samples,
        seed,
        tuple(tuple(F(k, DEFAULT_DENOMINATOR) for k in row) for row in hull_counts),
        tuple(half_decompositions),
        tuple(hull_failures),
        tuple(half_failures),
        not hull_failures and not half_failures,
    )
