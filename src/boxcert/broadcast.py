"""No-broadcasting certificates for the PR/anti-PR line.

A broadcast copy of b_alpha is a 4-party box (A, B, A', B') whose AB and
A'B' marginals both equal b_alpha.  Two oracles certify that none exists
for alpha above 3/4:

* ``projection_feasibility`` — the 2D argument: score each copy by the
  CHSH game indicator (C = +4 on success, -4 on failure), project onto
  the joint distribution of (C1, C2), and ask whether a local projection
  in the region S1 can dominate the scaled broadcast line S2.  The two
  sets meet only at (9/16, 3/16); dominance then forces the broadcast
  projection (3a/4, a/4, a/4, 1-5a/4), which is a valid distribution
  only for alpha <= 4/5.  The projected system is therefore infeasible
  (with an exact Farkas certificate) for alpha > 4/5 and admits the
  boundary witness for alpha in [3/4, 4/5]; it separates alpha = 3/4
  from the rest only above 4/5.
* ``full_broadcast_feasibility`` — the direct LP over full 4-party
  boxes: a fully-NS copy with both marginals b_alpha whose p_alpha
  mixture with some NS box X lands in the 576-vertex AA'|BB' local
  polytope.  Fully-NS boxes are parametrized by their subset correlators
  (normalization and no-signalling hold identically; positivity becomes
  the constraint rows), which keeps the exact tableau tractable.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import cache

from .box import (
    Box,
    BoxError,
    WrongShape,
    b_alpha,
    cell_map,
    cells,
    chsh_game,
    count_combination,
    is_fully_ns,
    marginal,
    permute_parties,
)
from .chsh import parity, subset_correlator
from .polytope import admixture, mixture
from .ratlp import Constraint, LinearProgram, LPOutcome, solve
from .rational import as_fraction
from .vertices import broadcast_local_vertices

F = Fraction
_ZERO, _ONE = F(0), F(1)


class RangeError(BoxError):
    pass


@dataclass(frozen=True)
class JointDist:
    """Joint distribution of the two CHSH score signs (+4/-4 per copy)."""

    p11: Fraction
    p12: Fraction
    p21: Fraction
    p22: Fraction

    def __post_init__(self):
        values = (self.p11, self.p12, self.p21, self.p22)
        if any(v < 0 for v in values):
            raise RangeError("joint distribution has a negative component")
        if sum(values) != 1:
            raise RangeError("joint distribution must sum to 1")

    def as_tuple(self):
        return (self.p11, self.p12, self.p21, self.p22)


@dataclass(frozen=True)
class BroadcastInstance:
    alpha: Fraction

    def __post_init__(self):
        alpha = as_fraction(self.alpha)
        object.__setattr__(self, "alpha", alpha)
        if not F(3, 4) <= alpha <= 1:
            raise RangeError(f"alpha {alpha} outside [3/4, 1]")

    @property
    def p_alpha(self) -> Fraction:
        return F(3, 4) / self.alpha


@dataclass(frozen=True)
class FeasibilityVerdict:
    feasible: bool
    alpha: Fraction
    witness: dict | None
    farkas: dict | None
    lp: LinearProgram
    outcome: LPOutcome


def c1c2_projection(box4: Box) -> JointDist:
    """Joint success/failure statistics of the per-copy CHSH games.

    Inputs are drawn uniformly and independently; each copy succeeds
    where its 2x2 cell wins CHSH game 000 (``chsh_game(0, 0, 0)``).  The
    mean of C1 equals beta_000 of the AB marginal.
    """
    if box4.input_arity != (2, 2, 2, 2) or box4.output_arity != (2, 2, 2, 2):
        raise WrongShape("need a 4-party binary box (A, B, A', B')")
    report = is_fully_ns(box4)
    if not report.fully_ns:
        raise WrongShape("projection needs a fully non-signalling box")
    game = chsh_game(0, 0, 0)
    nums, den = box4.int_view
    # keyed by each copy's game outcome, +1 won and -1 lost, in p11, p12, p21, p22 order
    totals = dict.fromkeys(((1, 1), (1, -1), (-1, 1), (-1, -1)), 0)
    for n, first, second in zip(nums, *_COPY_CELLS):
        totals[game[first], game[second]] += n
    return JointDist(*(F(total, 16 * den) for total in totals.values()))


# The region S1: four locality inequalities on a symmetric projected
# distribution, each (name, c11, c12, relation, rhs): c11*p11 + c12*p12 <relation> rhs.
S1_INEQUALITIES = (
    ("s1-a", 6, -2, ">=", 0),
    ("s1-b", 2, -6, "<=", 0),
    ("s1-c", 2, 10, ">=", 2),
    ("s1-d", 6, 14, "<=", 6),
)


def s1_check(p11, p12) -> bool:
    """The four locality inequalities on a symmetric projected distribution."""
    p11, p12 = as_fraction(p11), as_fraction(p12)
    holds = {">=": operator.ge, "<=": operator.le}
    return all(
        holds[relation](c11 * p11 + c12 * p12, rhs)
        for _, c11, c12, relation, rhs in S1_INEQUALITIES
    )


def s2_point(instance: BroadcastInstance, t11) -> tuple[Fraction, Fraction]:
    """The scaled broadcast-line point (p_alpha*t11, 3/4 - p_alpha*t11)."""
    t11 = as_fraction(t11)
    if not 0 <= t11 <= instance.alpha:
        raise RangeError(f"t11 {t11} outside [0, {instance.alpha}]")
    scaled = instance.p_alpha * t11
    return scaled, F(3, 4) - scaled


# per link row, the X cell and the symmetric L/Bhat cell it ties together
_LINK_CELLS = (("11", "11"), ("12", "12"), ("21", "12"), ("22", "22"))
_PROJECTION_VARIABLES = (
    "L11", "L12", "L22",
    "B11", "B12", "B22",
    "X11", "X12", "X21", "X22",
)
_LINE_ROW = 2  # Bhat-line; rows 8-11 are the link rows, the rest do not depend on alpha
_LINK_ROWS = range(8, 12)


def _validated_projection_lp(instance: BroadcastInstance) -> LinearProgram:
    """The projection LP through the validating constructors; ``projection_lp``'s source."""
    alpha, p = instance.alpha, instance.p_alpha
    constraints = [
        Constraint({"L11": 1, "L12": 2, "L22": 1}, "=", 1, name="L-normalization"),
        Constraint({"B11": 1, "B12": 2, "B22": 1}, "=", 1, name="Bhat-normalization"),
        Constraint({"B11": 1, "B12": 1}, "=", alpha, name="Bhat-line"),
        Constraint(
            {"X11": 1, "X12": 1, "X21": 1, "X22": 1}, "=", 1, name="X-normalization"
        ),
        *(
            Constraint({"L11": c11, "L12": c12}, relation, rhs, name=name)
            for name, c11, c12, relation, rhs in S1_INEQUALITIES
        ),
        # L = p*Bhat + (1-p)*X cellwise; L and Bhat are symmetric, X need not be
        *(
            Constraint({f"L{s}": 1, f"B{s}": -p, f"X{ij}": p - 1}, "=", 0, name=f"link-{ij}")
            for ij, s in _LINK_CELLS
        ),
    ]
    return LinearProgram(
        variables=_PROJECTION_VARIABLES,
        constraints=constraints,
        nonnegative=_PROJECTION_VARIABLES,
    )


@cache
def _projection_template() -> LinearProgram:
    """The projection LP at alpha = 1, validated once; ``projection_lp`` shares its other rows."""
    return _validated_projection_lp(BroadcastInstance(1))


def projection_lp(instance: BroadcastInstance) -> LinearProgram:
    """The projected broadcast system at ``instance.alpha``, patched into a cached template.

    Only Bhat-line and the four link rows depend on alpha; the X term of
    a link row drops out where p_alpha = 1.
    """
    alpha, p = instance.alpha, instance.p_alpha
    rows = {_LINE_ROW: ((("B11", _ONE), ("B12", _ONE)), "=", alpha)}
    for k, (ij, s) in zip(_LINK_ROWS, _LINK_CELLS):
        terms = ((f"B{s}", -p), (f"L{s}", _ONE))
        if p != 1:
            terms += ((f"X{ij}", p - 1),)
        rows[k] = (terms, "=", _ZERO)
    return _projection_template()._patched(rows)


def projection_feasibility(instance: BroadcastInstance) -> FeasibilityVerdict:
    """Exact feasibility of the projected broadcast system (fast certificate)."""
    lp = projection_lp(instance)
    outcome = solve(lp)
    if outcome.status == "optimal":
        w = outcome.witness
        witness = {
            "local": JointDist(w["L11"], w["L12"], w["L12"], w["L22"]),
            "broadcast": JointDist(w["B11"], w["B12"], w["B12"], w["B22"]),
            "admixture": JointDist(w["X11"], w["X12"], w["X21"], w["X22"]),
        }
        p = instance.p_alpha
        for lv, bv, xv in zip(
            witness["local"].as_tuple(),
            witness["broadcast"].as_tuple(),
            witness["admixture"].as_tuple(),
        ):
            if lv - p * bv != (1 - p) * xv:
                raise RuntimeError(f"projection witness breaks a link row at alpha {instance.alpha}")
        return FeasibilityVerdict(True, instance.alpha, witness, None, lp, outcome)
    return FeasibilityVerdict(False, instance.alpha, None, outcome.farkas, lp, outcome)


# ---------------------------------------------------------------------------
# Full 4-party oracle.
# ---------------------------------------------------------------------------

PARTIES = (0, 1, 2, 3)  # A, B, A', B'
# Exchanging the two copies sends party i to party COPY_SWAP[i]; the map is
# an involution, so it is its own inverse.
COPY_SWAP = (2, 3, 0, 1)
_SUBSETS = tuple(
    tuple(i for i in PARTIES if mask >> i & 1) for mask in range(1, 16)
)
_WITHIN_COPY = tuple(
    S for S in _SUBSETS if set(S) <= {0, 1} or set(S) <= {2, 3}
)
_CROSS_COPY = tuple(S for S in _SUBSETS if S not in _WITHIN_COPY)
# the 256 cells (a, x) of a 4-party binary table, in flat box order
_CELLS = cells((2, 2, 2, 2), (2, 2, 2, 2))
# per 4-party cell, the index of its 2x2 cell in copy (A, B) and in copy (A', B')
_COPY_CELLS = tuple(
    cell_map(((2,) * 4, (2,) * 4), ((2, 2), (2, 2)), lambda a, x: (a[i : i + 2], x[i : i + 2]))
    for i in (0, 2)
)
_CROSS_SLOTS = tuple(
    (S, x_s) for S in _CROSS_COPY for x_s in itertools.product((0, 1), repeat=len(S))
)


def _cell_image(cell: tuple) -> tuple:
    """The cell (a, x) with the two copies exchanged in both tuples."""
    return tuple(tuple(t[j] for j in COPY_SWAP) for t in cell)


def _slot_image(slot: tuple) -> tuple:
    """Image of a correlator slot (S, x_S): party i moves to COPY_SWAP[i]."""
    S, x_s = slot
    return tuple(zip(*sorted(zip((COPY_SWAP[i] for i in S), x_s))))


def _orbits(items, image) -> tuple[tuple, ...]:
    """Orbits of the copy swap on ``items`` as (least member, members), in first-seen order."""
    orbits: dict = {}
    for item in items:
        partner = image(item)
        rep = min(item, partner)
        orbits.setdefault(rep, (rep,) if partner == item else (rep, max(item, partner)))
    return tuple(orbits.items())


def _lift(orbits, value) -> dict:
    """Copy each orbit's value, ``value(representative)``, to every member."""
    return {member: value(rep) for rep, members in orbits for member in members}


def _row_walk():
    """One cell per row of the 4-party LP, in the row order its pivots and certificates depend on.

    Inputs x vary slowest and outputs a fastest, except that once a cell of
    a new orbit is met, the walk goes on with that orbit's representative's x.
    """
    seen = set()
    for x0 in itertools.product((0, 1), repeat=4):
        x = x0
        for a in itertools.product((0, 1), repeat=4):
            rep = min((a, x), _cell_image((a, x)))
            if rep not in seen:
                seen.add(rep)
                yield a, x
                x = rep[1]


_CELL_ORBITS = _orbits(_row_walk(), _cell_image)
_SLOT_ORBITS = tuple(sorted(_orbits(_CROSS_SLOTS, _slot_image)))


@cache
def _orbits_of_vertices() -> tuple[tuple[str, tuple[str, ...]], ...]:
    """Copy-swap orbits of the 576 product vertices, sorted by representative.

    A vertex's partner is the vertex with the integer view of its copy swap.
    """
    lookup = dict(broadcast_local_vertices())
    name_of = {box.int_view: name for name, box in lookup.items()}
    partner = lambda name: name_of[permute_parties(lookup[name], COPY_SWAP).int_view]
    return tuple(sorted(_orbits(lookup, partner)))


@cache
def _vertex_orbit_terms() -> tuple[tuple[tuple[str, Fraction], ...], ...]:
    """Per cell orbit, in row order: each vertex orbit's nonzero ``16 * sum`` of member entries.

    These ``x-pos`` coefficients do not depend on alpha, so they are built
    once: an orbit's sum is its size times its members' mean.
    """
    lookup = dict(broadcast_local_vertices())
    sums = []
    for rep, members in _orbits_of_vertices():
        size = len(members)
        nums, den = count_combination([1] * size, size, [lookup[m] for m in members]).int_view
        sums.append((f"w:{rep}", [16 * size * n for n in nums], den))
    position = {cell: k for k, cell in enumerate(_CELLS)}
    return tuple(
        tuple((var, F(total[k], den)) for var, total, den in sums if total[k])
        for k in (position[cell] for cell, _ in _CELL_ORBITS)
    )


def box_from_correlators(values: dict[tuple[tuple[int, ...], tuple[int, ...]], Fraction]) -> Box:
    """Rebuild the 4-party table from all 80 subset correlators."""
    probs = []
    for a, x in _CELLS:
        total = F(1)
        for S in _SUBSETS:
            total += parity(a, S) * values[(S, tuple(x[i] for i in S))]
        probs.append(total / 16)
    return Box((2, 2, 2, 2), (2, 2, 2, 2), tuple(probs))


def _evar(S: tuple[int, ...], x_s: tuple[int, ...]) -> str:
    return "e:%s:%s" % ("".join(map(str, S)), "".join(map(str, x_s)))


def _fixed_marginal_correlators(alpha: Fraction) -> dict:
    """Within-copy correlators forced by both marginals being b_alpha."""
    line_box = b_alpha(alpha)
    fixed = {}
    for S in _WITHIN_COPY:
        reference = tuple(i % 2 for i in S)  # party index inside the 2x2 copy
        for x_s in itertools.product((0, 1), repeat=len(S)):
            fixed[(S, x_s)] = subset_correlator(line_box, reference, x_s)
    return fixed


def bhat_from_witness(alpha, witness: dict) -> Box:
    """The broadcast copy Bhat of a ``full_broadcast_lp`` witness.

    Within-copy correlators are b_alpha's; each cross-copy slot takes its orbit's value.
    """
    correlators = _fixed_marginal_correlators(alpha)
    correlators.update(_lift(_SLOT_ORBITS, lambda rep: witness[_evar(*rep)]))
    return box_from_correlators(correlators)


def full_broadcast_lp(instance: BroadcastInstance) -> LinearProgram:
    """Correlator-form LP for L = p_alpha*Bhat + (1-p_alpha)*X with L local.

    Bhat's within-copy correlators are fixed by the marginal conditions;
    its cross-copy correlators are free variables.  X is eliminated: the
    rows state entrywise 16*sum(w_i v_i) >= p_alpha*(16*Bhat) together
    with Bhat >= 0 entrywise, and X = (L - p_alpha*Bhat)/(1 - p_alpha)
    is automatically normalized and fully NS.

    The whole system is invariant under exchanging the two copies
    (``COPY_SWAP``), and averaging any solution with its swap gives a
    symmetric one, so the LP is built over swap orbits: one weight per
    vertex orbit, one correlator per slot orbit, one row per cell orbit.
    This loses no feasibility and shrinks the exact tableau severalfold.
    """
    p = instance.p_alpha
    fixed = _fixed_marginal_correlators(instance.alpha)
    orbits = _orbits_of_vertices()
    w_vars = [f"w:{rep}" for rep, _ in orbits]
    e_vars = [_evar(*rep) for rep, _ in _SLOT_ORBITS]
    e_var_of = _lift(_SLOT_ORBITS, lambda rep: _evar(*rep))
    normalization = {f"w:{rep}": F(len(members)) for rep, members in orbits}
    constraints = [Constraint(normalization, "=", 1, name="normalization")]
    for ((a, x), _), vertex_terms in zip(_CELL_ORBITS, _vertex_orbit_terms()):
        cell = "%s|%s" % ("".join(map(str, a)), "".join(map(str, x)))
        fixed_part = F(1)
        e_coeffs: dict[str, Fraction] = {}
        for S in _SUBSETS:
            sign = parity(a, S)
            x_s = tuple(x[i] for i in S)
            if S in _WITHIN_COPY:
                fixed_part += sign * fixed[(S, x_s)]
            else:
                var = e_var_of[(S, x_s)]
                e_coeffs[var] = e_coeffs.get(var, F(0)) + sign
        # 16*Bhat(a|x) = fixed_part + sum(e_coeffs * e) >= 0
        constraints.append(
            Constraint(e_coeffs, ">=", -fixed_part, name=f"bhat-pos:{cell}")
        )
        # 16*L(a|x) - p*16*Bhat(a|x) >= 0  with L = sum(w_i v_i)
        coeffs = dict(vertex_terms)
        for var, sign in e_coeffs.items():
            scaled = -p * sign
            if scaled:
                coeffs[var] = coeffs.get(var, F(0)) + scaled
        constraints.append(
            Constraint(coeffs, ">=", p * fixed_part, name=f"x-pos:{cell}")
        )
    return LinearProgram(
        variables=w_vars + e_vars,
        constraints=constraints,
        nonnegative=w_vars,
    )


def full_broadcast_feasibility(instance: BroadcastInstance) -> FeasibilityVerdict:
    """Direct 4-party oracle (heavy path; opt-in from the CLI)."""
    lp = full_broadcast_lp(instance)
    outcome = solve(lp)
    if outcome.status != "optimal":
        return FeasibilityVerdict(
            False, instance.alpha, None, outcome.farkas, lp, outcome
        )
    p = instance.p_alpha
    bhat = bhat_from_witness(instance.alpha, outcome.witness)
    lifted = _lift(_orbits_of_vertices(), lambda rep: outcome.witness[f"w:{rep}"])
    weights = {name: w for name, w in lifted.items() if w}
    local = mixture(weights, broadcast_local_vertices())
    x = admixture(local, p, bhat)
    line_box = b_alpha(instance.alpha)
    if marginal(bhat, {0, 1}) != line_box or marginal(bhat, {2, 3}) != line_box:
        raise RuntimeError(f"broadcast copy's pair marginals are not b_alpha at {instance.alpha}")
    if not (is_fully_ns(bhat).fully_ns and is_fully_ns(x).fully_ns):
        raise RuntimeError(f"broadcast copy or admixture signals at alpha {instance.alpha}")
    witness = {
        "broadcast_copy": bhat,
        "local": local,
        "admixture": x,
        "weights": weights,
    }
    return FeasibilityVerdict(True, instance.alpha, witness, None, lp, outcome)


@dataclass(frozen=True)
class ScanRow:
    alpha: Fraction
    p_alpha: Fraction
    projection: FeasibilityVerdict
    full: FeasibilityVerdict | None
    anti_robustness: Fraction


SEPARATION_THRESHOLD = F(4, 5)


def _as_expected(alpha: Fraction, projection_feasible: bool, full_feasible: bool | None) -> bool:
    """The separation rule: the mixing system is feasible exactly when alpha <= 4/5.

    ``full_feasible`` is None when the 4-party oracle did not run.
    """
    expected = alpha <= SEPARATION_THRESHOLD
    return projection_feasible == expected and full_feasible in (None, expected)


@dataclass(frozen=True)
class ScanRowStatus:
    certified: bool
    note: str


def classify_row(alpha: Fraction, projection_feasible: bool, full_feasible: bool | None) -> ScanRowStatus:
    """What a scan row establishes about broadcasting the line box.

    At alpha = 3/4 the box is local and the mixing system must be
    feasible.  Above 4/5 infeasibility (projected or full) certifies
    no-broadcasting.  Inside (3/4, 4/5] the mixing system is genuinely
    feasible — the obstruction argument cannot certify anything there,
    whichever oracle runs.
    """
    ok = _as_expected(alpha, projection_feasible, full_feasible)
    if alpha == F(3, 4):
        return ScanRowStatus(ok, "local box, mixing system feasible" if ok else "unexpected infeasibility")
    if alpha > SEPARATION_THRESHOLD:
        return ScanRowStatus(ok, "no-broadcasting certified" if ok else "unexpected feasibility")
    return ScanRowStatus(
        False,
        "inside (3/4, 4/5] the mixing system is feasible, so this argument "
        "cannot certify no-broadcasting here",
    )


@dataclass(frozen=True)
class ScanReport:
    rows: tuple[ScanRow, ...]

    def consistent_with_no_broadcasting(self) -> bool:
        """True when every row's verdicts follow the separation rule."""
        return all(
            _as_expected(row.alpha, row.projection.feasible, row.full and row.full.feasible)
            for row in self.rows
        )


def broadcast_scan(alphas, include_full: bool = False) -> ScanReport:
    """Per-alpha verdicts plus anti-robustness values, ordered by alpha.

    A row's anti-robustness is p_alpha: beta*(b_alpha) = 8*alpha - 4, so
    the closed form 6/(beta* + 4) is 3/(4*alpha).  The tests pin this
    against the closed form and the anti-robustness LP.  Every alpha is
    range-checked before any LP is solved.
    """
    instances = [BroadcastInstance(a) for a in sorted(as_fraction(a) for a in alphas)]
    rows = []
    for instance in instances:
        projection = projection_feasibility(instance)
        full = full_broadcast_feasibility(instance) if include_full else None
        p = instance.p_alpha
        rows.append(ScanRow(instance.alpha, p, projection, full, p))
    return ScanReport(tuple(rows))
