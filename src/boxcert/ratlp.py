"""Exact rational linear programming with verifiable certificates.

Two-phase primal simplex: Dantzig's most-negative reduced cost enters and
a lexicographic ratio rule picks the leaving row.  Ties in the ratio test
are broken by comparing ``row_i[j]/(dens[i]*a_i)`` column by column, where
``row_i`` is the stored integer row, ``dens[i]`` its denominator and
``a_i`` its stored entry in the entering column.  Because the stored row
scale enters that comparison, the rule depends on how rows are scaled,
not only on the rational tableau: any change to how rows are built must
keep ``rows``/``dens`` equal integer for integer.  All pivots are
exact: tableau rows are integer vectors with a positive per-row
denominator, so no rounding can occur anywhere.  Every outcome carries a
certificate that ``check_witness`` re-verifies by substitution alone:

* Optimal: a primal witness plus dual multipliers proving optimality
  through stationarity and equal objectives (weak duality).
* Infeasible: a Farkas vector whose exact combination of constraint and
  bound rows is contradictory (zero combined coefficients, negative
  combined right-hand side in the normalized <=/= view).

Every LP has one form: maximize the objective, or with no objective only
check feasibility, where each variable named in ``nonnegative`` is bounded
by ``v >= 0`` and every other variable is free.  Certificate row keys:
``("con", i)`` for constraint i and ``("lb", v)`` for the bound of a
nonnegative variable v, written ``con:i`` and ``lb:v`` in a certificate.
In the normalized view every constraint is written with relation ``<=``
or ``=`` (``>=`` rows are negated) and each bound is the row ``-v <= 0``.

Each ``LinearProgram`` builds this view once, as integers: a row is
``_IntRow(key, {var: int}, relation, rhs, den)`` with integer ``rhs`` and
``den`` the least common denominator of the row's coefficients and
right-hand side, so the row reads ``sum(c/den * v) <relation> rhs/den``.
The solver gives each nonnegative variable one column and each free
variable two (``v = pos - neg``), rewrites the constraint rows over those
columns as ``_IntRow``s keyed by column index and builds its tableau from
them, the two phases' reduced costs being two more tableau rows;
``check_witness`` tests the LP's rows by integer cross-multiplication.
Neither converts a row back to Fractions.
Certificate entries must be ``int`` or ``Fraction``; anything else fails.

``LinearProgram(...)`` and ``Constraint(...)`` validate their input and
derive the integer rows.  ``LinearProgram._patched`` copies a validated
LP with some constraints replaced, deriving their integer rows the same
way and sharing every other row; it checks nothing, so each replacement's
terms must be nonzero, exact, sorted by variable name and over the LP's
variables.  The weight LPs in ``polytope`` and ``broadcast.projection_lp``
patch cached templates this way.  A result record whose verdict needed no
solve declares its ``lp`` field as ``LazyLP()`` and is given a function
that builds the LP, so it is built only if something reads it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import reduce
from math import gcd, lcm
from typing import NamedTuple

from .rational import as_fraction, format_rational_short

RELATIONS = ("<=", ">=", "=")

_GCD_BITS = 64  # reduce a row by its gcd once the denominator outgrows this
_MAX_PIVOTS = 2_000_000
_ZERO = Fraction(0)


class MalformedLP(Exception):
    pass


def _terms(coeffs) -> tuple[tuple[str, Fraction], ...]:
    if isinstance(coeffs, dict):
        items = coeffs.items()
    else:
        items = list(coeffs)
    out = []
    for var, value in items:
        value = as_fraction(value)
        if value != 0:
            out.append((str(var), value))
    out.sort(key=lambda kv: kv[0])
    names = [v for v, _ in out]
    if len(set(names)) != len(names):
        raise MalformedLP(f"duplicate variable in linear form: {names}")
    return tuple(out)


@dataclass(frozen=True)
class Constraint:
    coeffs: tuple[tuple[str, Fraction], ...]
    relation: str
    rhs: Fraction
    name: str = ""

    def __init__(self, coeffs, relation, rhs, name=""):
        if relation not in RELATIONS:
            raise MalformedLP(f"unknown relation {relation!r}")
        object.__setattr__(self, "coeffs", _terms(coeffs))
        object.__setattr__(self, "relation", relation)
        object.__setattr__(self, "rhs", as_fraction(rhs))
        object.__setattr__(self, "name", name)

    @classmethod
    def _trusted(cls, coeffs, relation, rhs, name) -> Constraint:
        """A constraint whose terms are already sorted, nonzero and exact; no check."""
        # set attributes one by one: vars(con) would build a __dict__ per instance
        con = object.__new__(cls)
        object.__setattr__(con, "coeffs", coeffs)
        object.__setattr__(con, "relation", relation)
        object.__setattr__(con, "rhs", rhs)
        object.__setattr__(con, "name", name)
        return con


@dataclass(frozen=True)
class LinearProgram:
    variables: tuple[str, ...]
    constraints: tuple[Constraint, ...]
    objective: tuple[tuple[str, Fraction], ...] | None  # maximized; None: feasibility only
    nonnegative: tuple[str, ...]  # sorted; every other variable is free
    int_rows: tuple[_IntRow, ...] = field(init=False, repr=False, compare=False)

    def __init__(self, variables, constraints, objective=None, nonnegative=()):
        variables = tuple(str(v) for v in variables)
        if not variables:
            raise MalformedLP("no variables")
        if len(set(variables)) != len(variables):
            raise MalformedLP("duplicate variable names")
        known = set(variables)
        constraints = tuple(constraints)
        for con in constraints:
            if not isinstance(con, Constraint):
                raise MalformedLP(f"not a Constraint: {con!r}")
            for var, _ in con.coeffs:
                if var not in known:
                    raise MalformedLP(f"constraint uses unknown variable {var!r}")
        obj = None if objective is None else _terms(objective)
        if obj is not None:
            for var, _ in obj:
                if var not in known:
                    raise MalformedLP(f"objective uses unknown variable {var!r}")
        nonnegative = tuple(sorted(str(v) for v in nonnegative))
        for var in nonnegative:
            if var not in known:
                raise MalformedLP(f"bound on unknown variable {var!r}")
        if len(set(nonnegative)) != len(nonnegative):
            raise MalformedLP("duplicate bound")
        object.__setattr__(self, "variables", variables)
        object.__setattr__(self, "constraints", constraints)
        object.__setattr__(self, "objective", obj)
        object.__setattr__(self, "nonnegative", nonnegative)
        object.__setattr__(self, "int_rows", _integer_rows(constraints, nonnegative))

    def _patched(self, rows) -> LinearProgram:
        """This LP with constraint k replaced by ``rows[k] = (terms, relation, rhs)``.

        Each replacement keeps the name of the row it replaces and gets its
        integer row from ``_integer_row``; every other row is this LP's own
        object.  No check: terms must be as the validating constructor
        stores them, nonzero, exact, sorted and over known variables.
        """
        constraints = list(self.constraints)
        int_rows = list(self.int_rows)
        for k, (terms, relation, rhs) in rows.items():
            constraints[k] = Constraint._trusted(terms, relation, rhs, constraints[k].name)
            int_rows[k] = _integer_row(k, constraints[k])
        # not dataclasses.replace, which would run the validating __init__
        lp = object.__new__(LinearProgram)
        object.__setattr__(lp, "variables", self.variables)
        object.__setattr__(lp, "constraints", tuple(constraints))
        object.__setattr__(lp, "objective", self.objective)
        object.__setattr__(lp, "nonnegative", self.nonnegative)
        object.__setattr__(lp, "int_rows", tuple(int_rows))
        return lp


class LazyLP:
    """A dataclass field holding a ``LinearProgram``, or a function that builds it on first read.

    A result whose verdict needed no solve keeps its LP only for checking
    by substitution: it is given a zero-argument callable, which is called
    once, when the field is first read.  Class access raises
    ``AttributeError``, so the field gets no default.  Assigning after
    construction still fails on a frozen dataclass.
    """

    def __set_name__(self, owner, name):
        self.name = name
        self.slot = "_" + name

    def __get__(self, instance, owner=None):
        if instance is None:
            raise AttributeError(self.name)
        value = instance.__dict__[self.slot]
        if callable(value):
            value = instance.__dict__[self.slot] = value()
        return value

    def __set__(self, instance, value):
        instance.__dict__[self.slot] = value


@dataclass(frozen=True)
class LPOutcome:
    status: str  # "optimal" | "infeasible" | "unbounded"
    witness: dict[str, Fraction] | None = None
    objective_value: Fraction | None = None
    dual: dict[tuple, Fraction] | None = None
    farkas: dict[tuple, Fraction] | None = None


# ---------------------------------------------------------------------------
# Integer normalized rows shared by solver and checker.
# ---------------------------------------------------------------------------


class _IntRow(NamedTuple):
    """``sum(coeffs[k]/den * x_k) <relation> rhs/den``, with ``den`` least.

    ``coeffs`` is keyed by variable name in an LP's rows and by column
    index in the canonical rows.
    """

    key: tuple
    coeffs: dict[str, int] | dict[int, int]
    relation: str  # "<=" or "="
    rhs: int
    den: int


def _integer_row(i: int, con: Constraint) -> _IntRow:
    """Constraint i over the least common denominator of its terms and rhs, >= negated."""
    rhs = con.rhs
    den = lcm(rhs.denominator, *[c.denominator for _, c in con.coeffs])
    scale = -den if con.relation == ">=" else den
    coeffs = {var: c.numerator * scale // c.denominator for var, c in con.coeffs}
    relation = "=" if con.relation == "=" else "<="
    return _IntRow(("con", i), coeffs, relation, rhs.numerator * scale // rhs.denominator, den)


def _integer_rows(constraints, nonnegative) -> tuple[_IntRow, ...]:
    """Constraints (>= negated to <=) followed by the bound rows ``-v <= 0``."""
    rows = [_integer_row(i, con) for i, con in enumerate(constraints)]
    rows.extend(_IntRow(("lb", var), {var: -1}, "<=", 0, 1) for var in nonnegative)
    return tuple(rows)


def _integer_objective(lp: LinearProgram) -> tuple[dict[str, int], int]:
    """Objective numerators over their least common denominator."""
    if lp.objective is None:
        return {}, 1
    den = lcm(*[c.denominator for _, c in lp.objective])
    return {var: c.numerator * den // c.denominator for var, c in lp.objective}, den


# ---------------------------------------------------------------------------
# Canonicalization: variables -> nonnegative columns.
# ---------------------------------------------------------------------------


@dataclass
class _Canonical:
    n_cols: int
    col_of_var: dict[str, tuple[int, ...]]  # (col,) if nonnegative, (pos, neg) if free
    rows: list[_IntRow]  # over columns, keyed as the normalized rows they come from
    cost: dict[int, int]  # canonical (minimization) objective over cost_den
    cost_den: int


def _canonicalize(lp: LinearProgram) -> _Canonical:
    nonnegative = set(lp.nonnegative)
    col_of_var: dict[str, tuple[int, ...]] = {}
    n_cols = 0
    for var in lp.variables:
        if var in nonnegative:
            col_of_var[var] = (n_cols,)
            n_cols += 1
        else:
            col_of_var[var] = (n_cols, n_cols + 1)
            n_cols += 2

    def substitute(int_row: _IntRow) -> _IntRow:
        # coefficients are nonzero and each variable owns its columns
        row: dict[int, int] = {}
        for var, c in int_row.coeffs.items():
            cols = col_of_var[var]
            row[cols[0]] = c
            if len(cols) == 2:
                row[cols[1]] = -c
        key, _, relation, rhs, den = int_row
        return _IntRow(key, row, relation, rhs, den)

    rows: list[_IntRow] = []
    seen: set[tuple] = set()
    for int_row in lp.int_rows:
        if int_row.key[0] == "lb":
            continue  # a nonnegative column carries its bound
        row = substitute(int_row)
        dedup_key = (tuple(sorted(row.coeffs.items())), row.relation, row.rhs, row.den)
        if dedup_key in seen:
            continue
        seen.add(dedup_key)
        rows.append(row)

    obj, cost_den = _integer_objective(lp)
    cost: dict[int, int] = {}
    for var, c in obj.items():
        # canonical problem minimizes; max obj contributes -c per column unit
        cols = col_of_var[var]
        cost[cols[0]] = -c
        if len(cols) == 2:
            cost[cols[1]] = c  # neg split piece
    return _Canonical(n_cols, col_of_var, rows, cost, cost_den)


# ---------------------------------------------------------------------------
# Integer tableau simplex.
# ---------------------------------------------------------------------------


def _reduce_row(row: list[int], den: int) -> tuple[list[int], int]:
    if den.bit_length() <= _GCD_BITS:
        return row, den
    g = reduce(gcd, row, den)
    if g > 1:
        return [v // g for v in row], den // g
    return row, den


class _Simplex:
    """Mutable tableau; one instance per solve call.

    ``rows[:m]`` are the constraint rows, ``rows[m]`` the phase-1 and
    ``rows[m + 1]`` the phase-2 reduced costs; row i reads
    ``rows[i]/dens[i]`` and is pivoted while ``active[i]``.
    """

    def __init__(self, canon: _Canonical):
        self.canon = canon
        self.n_struct = next_col = canon.n_cols
        self.m = m = len(canon.rows)
        # column layout: structural | slack (per <= row) | artificial | rhs
        self.slack_of_row: dict[int, int] = {}
        for i, crow in enumerate(canon.rows):
            if crow.relation == "<=":
                self.slack_of_row[i] = next_col
                next_col += 1
        self.art_of_row: dict[int, int] = {}
        for i, crow in enumerate(canon.rows):
            if crow.relation == "=" or crow.rhs < 0:
                self.art_of_row[i] = next_col
                next_col += 1
        self.n_cols = next_col
        width = next_col + 1
        self.rows: list[list[int]] = []
        self.dens: list[int] = []
        self.basis: list[int] = []
        self.active = [True] * (m + 2)
        # +1 / -1 row orientation vs. its canonical source
        self.sigma = [-1 if crow.rhs < 0 else 1 for crow in canon.rows]
        # phase-1 reduced costs: cost 1 on artificials, so z1 = -(sum of art
        # rows) off the artificial columns and 0 on them, over art_den
        art_den = lcm(*(canon.rows[i].den for i in self.art_of_row))
        z1 = [0] * width
        for i, crow in enumerate(canon.rows):
            den = crow.den
            entries = dict(crow.coeffs)
            if i in self.slack_of_row:
                entries[self.slack_of_row[i]] = den  # coefficient 1
            entries[next_col] = crow.rhs
            row = [0] * width
            for j, v in entries.items():
                row[j] = self.sigma[i] * v
            self.rows.append(row)
            self.dens.append(den)
            if i in self.art_of_row:
                row[self.art_of_row[i]] = den  # coefficient 1
                self.basis.append(self.art_of_row[i])
                scale = -self.sigma[i] * (art_den // den)
                for j, v in entries.items():
                    z1[j] += scale * v
            else:
                self.basis.append(self.slack_of_row[i])
        g = gcd(art_den, *z1)
        self.rows.append([v // g for v in z1])
        self.dens.append(art_den // g)
        # phase-2 reduced costs start at the canonical cost vector
        self.rows.append([canon.cost.get(j, 0) for j in range(width)])
        self.dens.append(canon.cost_den)
        self.art_cols = set(self.art_of_row.values())
        slack_cols = set(self.slack_of_row.values())
        self._lex_order = (
            [self.n_cols]
            + sorted(self.art_cols)
            + sorted(slack_cols)
            + [j for j in range(self.n_cols) if j not in self.art_cols and j not in slack_cols]
        )
        self.pivots = 0

    # -- core pivot ---------------------------------------------------------

    def pivot(self, r: int, c: int) -> None:
        prow = self.rows[r]
        pval = prow[c]
        if pval < 0:
            prow = [-v for v in prow]
            pval = -pval
        prow, dr = _reduce_row(prow, pval)
        self.rows[r], self.dens[r] = prow, dr
        # row_i * dr - f * prow, touching only the pivot row's nonzero columns
        nonzero = [(j, b) for j, b in enumerate(prow) if b]
        for i, row in enumerate(self.rows):
            if i == r or not self.active[i]:
                continue
            f = row[c]
            if f == 0:
                continue
            new = [a * dr for a in row]
            for j, b in nonzero:
                new[j] -= f * b
            self.rows[i], self.dens[i] = _reduce_row(new, self.dens[i] * dr)
        self.basis[r] = c
        self.pivots += 1
        if self.pivots > _MAX_PIVOTS:
            raise RuntimeError("simplex pivot limit exceeded")

    # -- pivot selection ------------------------------------------------------
    #
    # Deterministic anti-cycling rule: Dantzig's most-negative reduced
    # cost enters (ties to the smallest column index) and the leaving row
    # is chosen by the lexicographic ratio rule, i.e. the classical
    # infinitesimal perturbation.  The lexicographic order puts the rhs
    # first, then artificial, slack and structural columns, which makes
    # every initial row lex-positive; termination is then guaranteed for
    # any entering rule.  Tied rows are compared as stored, scaled by
    # dens[i] times their entering-column entry (see ``_lex_less``), so
    # the row chosen among ties depends on each row's stored scale.

    def _entering(self, zrow: list[int], allow_artificial: bool) -> int | None:
        best = None
        best_val = 0
        for j in range(self.n_cols):
            if not allow_artificial and j in self.art_cols:
                continue
            v = zrow[j]
            if v < best_val:
                best, best_val = j, v
        return best

    def _lex_less(self, i: int, k: int, ai: int, ak: int) -> bool:
        """Lex-compare ``row_i[j]/(dens[i]*ai)`` with ``row_k[j]/(dens[k]*ak)``.

        ``ai``, ``ak`` are the stored integer pivot-column entries, so the
        comparison depends on each row's stored scale: rows equal as
        rationals but stored with another ``dens`` can break ties
        differently.
        """
        row_i, row_k = self.rows[i], self.rows[k]
        di = self.dens[i] * ai
        dk = self.dens[k] * ak
        for j in self._lex_order:
            lhs = row_i[j] * dk
            rhs = row_k[j] * di
            if lhs != rhs:
                return lhs < rhs
        return False  # identical scaled rows cannot happen for distinct bases

    def _leaving(self, c: int) -> int | None:
        rhs_col = self.n_cols
        best_row = None
        best_num = best_den = 0
        ties: list[int] = []
        for i in range(self.m):
            if not self.active[i]:
                continue
            a = self.rows[i][c]
            if a <= 0:
                continue
            num = self.rows[i][rhs_col]
            if best_row is None:
                best_row, best_num, best_den = i, num, a
                ties = [i]
                continue
            lhs = num * best_den
            rhs = best_num * a
            if lhs < rhs:
                best_row, best_num, best_den = i, num, a
                ties = [i]
            elif lhs == rhs:
                ties.append(i)
        if best_row is None:
            return None
        if len(ties) == 1:
            return best_row
        winner = ties[0]
        for i in ties[1:]:
            if self._lex_less(i, winner, self.rows[i][c], self.rows[winner][c]):
                winner = i
        return winner

    def run_phase(self, phase: int) -> str:
        z = self.m + phase - 1  # this phase's reduced-cost row
        while True:
            c = self._entering(self.rows[z], allow_artificial=(phase == 1))
            if c is None:
                return "optimal"
            r = self._leaving(c)
            if r is None:
                return "unbounded"
            self.pivot(r, c)

    # -- extraction ---------------------------------------------------------

    def phase1_value(self) -> Fraction:
        return -Fraction(self.rows[self.m][self.n_cols], self.dens[self.m])

    def drive_out_artificials(self) -> None:
        for i in range(self.m):
            if not self.active[i] or self.basis[i] not in self.art_cols:
                continue
            row = self.rows[i]
            target = None
            for j in range(self.n_cols):
                if j not in self.art_cols and row[j] != 0:
                    target = j
                    break
            if target is None:
                self.active[i] = False  # redundant row
            else:
                self.pivot(i, target)

    def column_values(self) -> dict[int, Fraction]:
        values: dict[int, Fraction] = {}
        rhs_col = self.n_cols
        for i in range(self.m):
            if self.active[i] and self.basis[i] < self.n_struct:
                values[self.basis[i]] = Fraction(self.rows[i][rhs_col], self.dens[i])
        return values

    def multipliers(self, phase: int) -> dict[tuple, Fraction]:
        """Nonzero multipliers of the normalized rows, read off a phase's reduced costs.

        Canonical row i gets ``sigma_i * (z[col] - art_cost)`` for its
        initial basic column (its artificial, else its slack), in the
        row's normalized orientation, where ``art_cost`` is the phase's
        cost on artificials (1 in phase 1, 0 in phase 2); a nonnegative
        variable's bound row gets its column's reduced cost.  Each
        is an integer numerator over the reduced-cost row's denominator;
        one ``Fraction`` is built per nonzero.
        """
        z = self.m + phase - 1
        zrow, zden = self.rows[z], self.dens[z]
        base = zden if phase == 1 else 0
        y: dict[tuple, Fraction] = {}
        for i, crow in enumerate(self.canon.rows):
            art = self.art_of_row.get(i)
            num = zrow[self.slack_of_row[i]] if art is None else zrow[art] - base
            if num:
                y[crow.key] = Fraction(num if self.sigma[i] > 0 else -num, zden)
        for var, cols in self.canon.col_of_var.items():
            num = zrow[cols[0]]
            if num and len(cols) == 1:
                y[("lb", var)] = Fraction(num, zden)
        return y


# ---------------------------------------------------------------------------
# Public solve / check.
# ---------------------------------------------------------------------------


def _witness_from_columns(canon: _Canonical, values: dict[int, Fraction]) -> dict[str, Fraction]:
    witness = {}
    for var, cols in canon.col_of_var.items():
        value = values.get(cols[0], _ZERO)
        witness[var] = value if len(cols) == 1 else value - values.get(cols[1], _ZERO)
    return witness


def solve(lp: LinearProgram) -> LPOutcome:
    """Exact optimum or certificate; deterministic (lexicographic ratio rule)."""
    if not isinstance(lp, LinearProgram):
        raise MalformedLP("solve() needs a LinearProgram")
    canon = _canonicalize(lp)
    simplex = _Simplex(canon)

    if simplex.art_of_row:
        status = simplex.run_phase(1)
        if status != "optimal":  # phase-1 objective is bounded below by 0
            raise RuntimeError("phase 1 cannot be unbounded")
        if simplex.phase1_value() > 0:
            return LPOutcome(status="infeasible", farkas=simplex.multipliers(1))
        simplex.active[simplex.m] = False  # nothing reads the phase-1 row after phase 1
        simplex.drive_out_artificials()

    if lp.objective is not None:
        status = simplex.run_phase(2)
        if status == "unbounded":
            return LPOutcome(status="unbounded")

    witness = _witness_from_columns(canon, simplex.column_values())
    objective_value = sum(
        (c * witness[v] for v, c in lp.objective or ()), Fraction(0)
    )
    dual = {} if lp.objective is None else simplex.multipliers(2)
    return LPOutcome(
        status="optimal",
        witness=witness,
        objective_value=objective_value,
        dual=dual,
    )


def _exact(value) -> bool:
    return isinstance(value, (int, Fraction))


def _combination(rows: tuple[_IntRow, ...], multipliers: dict[tuple, Fraction]):
    """Sum of y * row over the multiplied rows as integers over one scale.

    Returns (coefficients, rhs, scale), the combination being
    coefficients/scale and rhs/scale.  None when a multiplier is not exact,
    a key names no row, or a ``<=`` row has a negative multiplier.
    """
    row_of = {row.key: row for row in rows}
    terms = []
    for key, y in multipliers.items():
        row = row_of.get(key)
        if row is None or not _exact(y) or (row.relation == "<=" and y < 0):
            return None
        terms.append((y, row))
    scale = lcm(*(y.denominator * row.den for y, row in terms))
    coeffs: dict[str, int] = {}
    rhs = 0
    for y, row in terms:
        f = y.numerator * (scale // (y.denominator * row.den))
        if f:
            for var, c in row.coeffs.items():
                coeffs[var] = coeffs.get(var, 0) + f * c
            rhs += f * row.rhs
    return coeffs, rhs, scale


def check_witness(lp: LinearProgram, outcome: LPOutcome) -> bool:
    """Re-verify an outcome by exact substitution; no pivoting.

    Optimal outcomes need primal feasibility, an exact objective value and
    dual multipliers establishing stationarity plus equal objectives.
    Infeasible outcomes need a Farkas vector combining the normalized rows
    into a contradiction.  Anything else fails, including any certificate
    entry that is not an ``int`` or a ``Fraction``.
    """
    try:
        rows = lp.int_rows
        if outcome.status == "optimal":
            witness = outcome.witness
            if witness is None or set(witness) != set(lp.variables):
                return False
            if not (_exact(outcome.objective_value) and all(map(_exact, witness.values()))):
                return False
            # the witness is point/scale with integer point
            scale = lcm(*(w.denominator for w in witness.values()))
            point = {v: w.numerator * (scale // w.denominator) for v, w in witness.items()}
            for row in rows:
                value = sum(c * point[v] for v, c in row.coeffs.items())
                if row.relation == "=" and value != row.rhs * scale:
                    return False
                if row.relation == "<=" and value > row.rhs * scale:
                    return False
            obj, obj_den = _integer_objective(lp)
            primal = sum(c * point[v] for v, c in obj.items())  # over obj_den * scale
            if outcome.objective_value * (obj_den * scale) != primal:
                return False
            if outcome.dual is None:
                return False
            combined = _combination(rows, outcome.dual)
            if combined is None:
                return False
            coeffs, dual_rhs, dual_scale = combined
            if any(coeffs.get(v, 0) * obj_den != obj.get(v, 0) * dual_scale for v in lp.variables):
                return False
            return dual_rhs * obj_den * scale == primal * dual_scale
        if outcome.status == "infeasible":
            if not outcome.farkas:
                return False
            combined = _combination(rows, outcome.farkas)
            if combined is None:
                return False
            coeffs, combined_rhs, _ = combined
            if any(coeffs.get(v, 0) != 0 for v in lp.variables):
                return False
            return combined_rhs < 0
        return False
    except (AttributeError, TypeError, ValueError, KeyError, ZeroDivisionError):
        return False


def dump_lp(lp: LinearProgram) -> str:
    """Plain-text dump, one constraint per line, rationals as num/den."""

    def form(terms) -> str:
        parts = [f"{format_rational_short(c)} {v}" for v, c in terms]
        return " + ".join(parts) if parts else "0"

    lines = []
    if lp.objective is None:
        lines.append("feasibility")
    else:
        lines.append(f"max: {form(lp.objective)}")
    for i, con in enumerate(lp.constraints):
        label = con.name or f"con{i}"
        lines.append(
            f"{label}: {form(con.coeffs)} {con.relation} {format_rational_short(con.rhs)}"
        )
    lines.extend(f"bound: {var} >= 0" for var in lp.nonnegative)
    return "\n".join(lines) + "\n"
