"""Multiparty conditional probability tables (boxes) with exact entries.

A box is a family of probability distributions P(a|x), one distribution
over output tuples ``a`` per input tuple ``x``.  Entries are stored flat
in canonical order: input tuples vary slowest (lexicographic), output
tuples fastest, so serialized tables are byte-stable.  ``cells`` lists
the ``(a, x)`` pair of each entry in that order; every other module
takes the order from it.

Every box also has an integer view, ``Box.int_view``: the entries'
numerators over their least common denominator.  Mixtures, products,
party permutations, marginals, relabelings, twirls, the non-signalling
check, the CHSH correlators and box equality compute on it.  A box that
such an operation builds from validated boxes is valid by construction,
so it comes back through ``Box._trusted``, which skips re-validation: a
convex combination with checked weights, a product of boxes, a bijection
of cells that maps each input block onto an input block (or a mixture of
such), and the marginal of a box just checked non-signalling across the
cut.  Such a box stores only its integer view; its ``Fraction`` entries
are built when ``probs`` is first read.  Every other box, and every box
read from outside, goes through the validating ``Box(...)``.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, wraps
from math import gcd, lcm, prod

from .rational import as_fraction, ratio

_ZERO = Fraction(0)


class BoxError(Exception):
    """Base class for box construction and shape errors."""


class NegativeEntry(BoxError):
    def __init__(self, outputs, inputs, value):
        self.outputs, self.inputs, self.value = outputs, inputs, value
        super().__init__(f"negative entry P{outputs}|{inputs} = {value}")


class NotNormalized(BoxError):
    def __init__(self, inputs, actual_sum):
        self.inputs, self.actual_sum = inputs, actual_sum
        super().__init__(f"outputs at input {inputs} sum to {actual_sum}, expected 1")


class ShapeMismatch(BoxError):
    pass


class WeightOutOfRange(BoxError):
    pass


class WrongShape(BoxError):
    """Operation requires another box shape (a two-party binary box, say)."""


class MarginalIllDefined(BoxError):
    def __init__(self, cut, violations):
        self.cut, self.violations = cut, violations
        super().__init__(f"marginal ill-defined: box signals across cut {cut}")


@dataclass(frozen=True)
class Cut:
    """Bipartition of the parties into two non-empty disjoint sides."""

    left: frozenset[int]
    right: frozenset[int]

    def __post_init__(self):
        object.__setattr__(self, "left", frozenset(self.left))
        object.__setattr__(self, "right", frozenset(self.right))
        if not self.left or not self.right:
            raise BoxError("cut sides must be non-empty")
        if self.left & self.right:
            raise BoxError("cut sides must be disjoint")

    def parties(self) -> frozenset[int]:
        return self.left | self.right

    def __str__(self):
        fmt = lambda side: ",".join(str(i) for i in sorted(side))
        return f"{{{fmt(self.left)}}}|{{{fmt(self.right)}}}"


@dataclass(frozen=True)
class NSViolation:
    """One failed marginal-independence check."""

    cut: Cut
    direction: str  # "to_left" / "to_right": which side's marginal moved
    inputs: tuple  # the pair of offending input tuples on the signalling side
    discrepancy: Fraction


@dataclass(frozen=True)
class NSReport:
    fully_ns: bool
    violations: tuple[NSViolation, ...]

    def __post_init__(self):
        if self.fully_ns != (len(self.violations) == 0):
            raise BoxError("fully_ns flag inconsistent with violation list")


@cache
def cells(input_arity: tuple[int, ...], output_arity: tuple[int, ...]) -> tuple[tuple, ...]:
    """The ``(a, x)`` pair of each flat entry, in storage order: ``x`` slowest, ``a`` fastest."""
    return tuple(
        (a, x)
        for x in itertools.product(*map(range, input_arity))
        for a in itertools.product(*map(range, output_arity))
    )


@cache
def _positions(input_arity, output_arity) -> dict[tuple[tuple, tuple], int]:
    """The flat index of each ``(a, x)`` pair; the inverse of ``cells``."""
    return {cell: k for k, cell in enumerate(cells(input_arity, output_arity))}


def cell_map(shape, source_shape, source) -> tuple[int, ...]:
    """Per cell ``(a, x)`` of ``shape``, the flat index of ``source(a, x)`` in ``source_shape``.

    Shapes are ``(input_arity, output_arity)`` pairs; the result is in storage order.
    """
    position = _positions(*source_shape)
    return tuple(position[source(a, x)] for a, x in cells(*shape))


@dataclass(frozen=True, eq=False)
class Box:
    """Validated conditional probability table with Fraction entries.

    ``int_view`` is ``(nums, den)``: entry i is ``nums[i]/den``, with ``den``
    the entries' least common denominator, so the view is in least form and
    two boxes of one shape are equal exactly when their views are; ``==``
    and ``hash`` compare it.  It is not part of ``repr``.
    """

    input_arity: tuple[int, ...]
    output_arity: tuple[int, ...]
    probs: tuple[Fraction, ...]

    def __post_init__(self):
        ins, outs = tuple(self.input_arity), tuple(self.output_arity)
        object.__setattr__(self, "input_arity", ins)
        object.__setattr__(self, "output_arity", outs)
        if len(ins) != len(outs) or not ins:
            raise ShapeMismatch("input and output arity lists must be equal-length and non-empty")
        if any(k < 1 for k in ins) or any(k < 1 for k in outs):
            raise ShapeMismatch("arities must be positive")
        n_in, n_out = prod(ins), prod(outs)
        probs = tuple(self.probs)
        object.__setattr__(self, "probs", probs)
        if len(probs) != n_in * n_out:
            raise ShapeMismatch(
                f"table has {len(probs)} entries, expected {n_in * n_out}"
            )
        cell = cells(ins, outs)
        for start in range(0, len(probs), n_out):
            block = probs[start : start + n_out]
            for k, p in enumerate(block, start):
                if not isinstance(p, Fraction):
                    raise BoxError(f"entry P{cell[k][0]}|{cell[k][1]} is not a Fraction: {p!r}")
                if p < 0:
                    raise NegativeEntry(*cell[k], p)
            den = lcm(*(p.denominator for p in block))
            total = sum(p.numerator * (den // p.denominator) for p in block)
            if total != den:
                raise NotNormalized(cell[start][1], Fraction(total, den))
        den = lcm(*(p.denominator for p in probs))
        vars(self)["int_view"] = tuple(p.numerator * (den // p.denominator) for p in probs), den

    @classmethod
    def _trusted(cls, input_arity, output_arity, nums, den) -> Box:
        """The box with entries ``nums[i]/den``, built without re-validation.

        Only for results whose validity follows from already-checked
        inputs: a convex combination of validated boxes of one shape with
        checked weights; a product of validated boxes; a bijection of
        cells that maps each input block onto an input block, or a
        mixture of such with positive weights; or the marginal of a
        validated box just checked non-signalling across the cut; or the
        uniform box, whose blocks are equal entries summing to 1.  Only
        the integer view is stored, in least form; ``probs`` is built
        from it when first read.
        """
        g = gcd(den, *nums)
        if g > 1:
            nums = [n // g for n in nums]
            den //= g
        box = object.__new__(cls)
        vars(box).update(
            input_arity=input_arity, output_arity=output_arity, int_view=(tuple(nums), den)
        )
        return box

    def __getattr__(self, name):
        """Build and keep a ``_trusted`` box's ``probs`` on first read."""
        if name != "probs" or "int_view" not in vars(self):
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        nums, den = self.int_view
        probs = vars(self)["probs"] = tuple(Fraction(n, den) if n else _ZERO for n in nums)
        return probs

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.input_arity, self.output_arity, self.int_view) == (
            other.input_arity,
            other.output_arity,
            other.int_view,
        )

    def __hash__(self):
        return hash((self.input_arity, self.output_arity, self.int_view))

    @property
    def party_count(self) -> int:
        return len(self.input_arity)

    @property
    def n_outputs(self) -> int:
        return prod(self.output_arity)

    def input_tuples(self):
        return itertools.product(*(range(k) for k in self.input_arity))

    def output_tuples(self):
        return itertools.product(*(range(k) for k in self.output_arity))

    def index(self, outputs, inputs) -> int:
        return _positions(self.input_arity, self.output_arity)[tuple(outputs), tuple(inputs)]

    def prob(self, outputs, inputs) -> Fraction:
        """P(outputs | inputs)."""
        return self.probs[self.index(outputs, inputs)]

    def is_binary_bipartite(self) -> bool:
        return self.input_arity == (2, 2) and self.output_arity == (2, 2)


def require_2x2(box: Box) -> None:
    """Raise WrongShape unless ``box`` has two parties with binary inputs and outputs."""
    if not box.is_binary_bipartite():
        raise WrongShape(
            f"need a 2-party binary box, got arities {box.input_arity}/{box.output_arity}"
        )


def make_box(party_count, input_arity, output_arity, entries) -> Box:
    """Build and validate a box.

    ``entries`` is either a flat sequence in canonical order or a mapping
    ``(output_tuple, input_tuple) -> value``; values may be Fractions,
    ints or 'num/den' strings.
    """
    ins, outs = tuple(input_arity), tuple(output_arity)
    if party_count != len(ins) or party_count != len(outs):
        raise ShapeMismatch(
            f"party_count {party_count} does not match arity lists of length "
            f"{len(ins)}/{len(outs)}"
        )
    if isinstance(entries, dict):
        position = _positions(ins, outs)
        flat = [_ZERO] * len(position)
        for (a, x), value in entries.items():
            cell = tuple(a), tuple(x)
            if cell not in position:
                raise ShapeMismatch(f"no cell P{cell[0]}|{cell[1]} in a table of this shape")
            flat[position[cell]] = as_fraction(value)
        probs = tuple(flat)
    else:
        probs = tuple(as_fraction(v) for v in entries)
    return Box(ins, outs, probs)


def are_bits(*values) -> bool:
    """Whether every value is an int 0 or 1; 1.0 is not, though it equals and hashes as 1."""
    return all(isinstance(v, int) and v in (0, 1) for v in values)


def parse_bits(text, width: int) -> tuple[int, ...]:
    """``width`` bits spelled as exactly that many ASCII ``0``/``1`` characters."""
    if not isinstance(text, str) or len(text) != width or any(c not in "01" for c in text):
        raise ValueError(f"expected {width} bits, got {text!r}")
    return tuple(int(c) for c in text)


def rst_cache(build):
    """``build(*bits)``, cached; non-bits raise BoxError each call, before 1.0 hits 1's entry."""
    cached = cache(build)

    @wraps(build)
    def checked(*bits):
        if not are_bits(*bits):
            raise BoxError(f"arguments must be bits, got {bits}")
        return cached(*map(int, bits))

    checked.cache_clear = cached.cache_clear
    return checked


@rst_cache
def chsh_game(r: int, s: int, t: int) -> tuple[int, ...]:
    """Per 2x2 cell in ``cells`` order: +1 if it wins game rst, a xor b = xy+rx+sy+t; else -1."""
    return tuple(
        1 if (a ^ b) == (x & y) ^ (r & x) ^ (s & y) ^ t else -1
        for (a, b), (x, y) in cells((2, 2), (2, 2))
    )


@rst_cache
def pr_box(r: int, s: int, t: int) -> Box:
    """The extremal box B_rst: 1/2 on each cell that wins game rst; built once."""
    half = Fraction(1, 2)
    return Box((2, 2), (2, 2), [half if won > 0 else _ZERO for won in chsh_game(r, s, t)])


def deterministic_vertices() -> list[Box]:
    """All 16 two-party binary boxes with a = f(x), b = g(y).

    Ordered lexicographically by (f(0), f(1), g(0), g(1)).
    """
    boxes = []
    for f0, f1, g0, g1 in itertools.product((0, 1), repeat=4):
        f, g = (f0, f1), (g0, g1)
        probs = [
            Fraction(int(a == f[x] and b == g[y])) for (a, b), (x, y) in cells((2, 2), (2, 2))
        ]
        boxes.append(Box((2, 2), (2, 2), probs))
    return boxes


@cache
def uniform_box(party_count: int = 2) -> Box:
    """The maximally mixed binary box on ``party_count`` parties; built once per count.

    Every input block holds 2**party_count entries of 1/2**party_count, so
    the table is valid by construction and is not re-validated.
    """
    if party_count < 1:
        raise ShapeMismatch(f"party count must be positive, got {party_count}")
    shape = (2,) * party_count
    return Box._trusted(shape, shape, [1] * 4**party_count, 2**party_count)


def mix(p, box_a: Box, box_b: Box) -> Box:
    """Entrywise convex combination p*A + (1-p)*B."""
    p = as_fraction(p)
    if not 0 <= p <= 1:
        raise WeightOutOfRange(f"mixing weight {p} outside [0, 1]")
    counts = [p.numerator, p.denominator - p.numerator]
    return count_combination(counts, p.denominator, [box_a, box_b])


def weight_counts(weights) -> tuple[list[int], int]:
    """``(counts, scale)`` with ``weights[i] = counts[i]/scale``; weights as ``ratio`` reads them."""
    pairs = [ratio(w) for w in weights]
    scale = lcm(*(d for _, d in pairs))
    return [n * (scale // d) for n, d in pairs], scale


def convex_combination(weights, boxes) -> Box:
    """Exact mixture sum(w_i * box_i); weights must sum to 1."""
    return count_combination(*weight_counts(weights), boxes)


def count_combination(counts, scale: int, boxes) -> Box:
    """Exact mixture sum(counts[i]/scale * box_i) of integer counts; they must sum to ``scale``."""
    if len(counts) != len(boxes) or not boxes:
        raise ShapeMismatch("weights and boxes must align and be non-empty")
    if scale < 1 or any(k < 0 for k in counts) or sum(counts) != scale:
        raise WeightOutOfRange("weights must be non-negative and sum to 1")
    shape = (boxes[0].input_arity, boxes[0].output_arity)
    if any((b.input_arity, b.output_arity) != shape for b in boxes):
        raise ShapeMismatch("cannot mix boxes of different shape")
    terms = [(k, b.int_view) for k, b in zip(counts, boxes) if k]
    den = lcm(*(d for _, (_, d) in terms))
    acc = [0] * len(boxes[0].int_view[0])
    for k, (nums, d) in terms:
        f = k * (den // d)
        for i, v in enumerate(nums):
            if v:
                acc[i] += f * v
    return Box._trusted(*shape, acc, scale * den)


def b_alpha(alpha) -> Box:
    """Point on the line between B_000 and B_001 with weight alpha on B_000."""
    return mix(alpha, pr_box(0, 0, 0), pr_box(0, 0, 1))


def _gather(box: Box, shape, terms) -> Box:
    """The box of ``shape`` with entry i = ``sum_j w_j * box[source_j[i]] / sum_j w_j``.

    For ``(w_j, source_j)`` in ``terms``: positive integer weights, and
    sources that map each input block bijectively onto an input block.
    """
    nums, den = box.int_view
    acc = [0] * len(nums)
    total = 0
    for w, source in terms:
        total += w
        acc = [s + w * nums[k] for s, k in zip(acc, source)]
    return Box._trusted(*shape, acc, total * den)


def tensor(box_a: Box, box_b: Box) -> Box:
    """Product box on the concatenated party lists: products of input blocks."""
    a_nums, a_den = box_a.int_view
    b_nums, b_den = box_b.int_view
    blocks = lambda nums, n: [nums[i : i + n] for i in range(0, len(nums), n)]
    nums = [
        u * v
        for block_a in blocks(a_nums, box_a.n_outputs)
        for block_b in blocks(b_nums, box_b.n_outputs)
        for u in block_a
        for v in block_b
    ]
    ins = box_a.input_arity + box_b.input_arity
    outs = box_a.output_arity + box_b.output_arity
    return Box._trusted(ins, outs, nums, a_den * b_den)


@cache
def _party_map(input_arity, output_arity, new_order):
    """The permuted shape and, per cell of it, the index of its source cell."""
    shape = tuple(input_arity[j] for j in new_order), tuple(output_arity[j] for j in new_order)
    old = lambda t: tuple(v for _, v in sorted(zip(new_order, t)))
    return shape, cell_map(shape, (input_arity, output_arity), lambda a, x: (old(a), old(x)))


def permute_parties(box: Box, new_order) -> Box:
    """Reorder parties; ``new_order[i]`` is the old index of new party i."""
    new_order = tuple(new_order)
    if sorted(new_order) != list(range(box.party_count)):
        raise ShapeMismatch(f"new_order {new_order} is not a permutation of the parties")
    shape, source = _party_map(box.input_arity, box.output_arity, new_order)
    return _gather(box, shape, ((1, source),))


@cache
def _marginal_groups(input_arity, output_arity, keep: tuple[int, ...]):
    """The cut keep|rest and, per (a_keep, x_keep), the flat indices summed per x_rest.

    Groups come in the order (a_keep, x_keep, x_rest) that violations are
    reported in; each is a tuple of ``(x_rest, indices)``.
    """
    rest = tuple(i for i in range(len(input_arity)) if i not in keep)
    pick = lambda values, parties: tuple(values[i] for i in parties)
    groups: dict = {}
    # storage order meets each group's x_rest, and each x_rest's a_rest, lexicographically
    for k, (a, x) in enumerate(cells(input_arity, output_arity)):
        group = groups.setdefault((pick(a, keep), pick(x, keep)), {})
        group.setdefault(pick(x, rest), []).append(k)
    return Cut(frozenset(keep), frozenset(rest)), tuple(
        tuple((x_rest, tuple(indices)) for x_rest, indices in group.items())
        for _, group in sorted(groups.items())
    )


def _one_sided_violations(box: Box, keep: tuple[int, ...]) -> list[NSViolation]:
    """Check that the marginal on ``keep`` ignores the other side's inputs.

    Sums are exact integers over the box's common denominator; a
    violation's discrepancy is built only where two sums differ.
    """
    cut, groups = _marginal_groups(box.input_arity, box.output_arity, tuple(sorted(keep)))
    nums, den = box.int_view
    at = nums.__getitem__
    violations = []
    for (ref_inputs, ref_indices), *others in groups:
        reference = sum(map(at, ref_indices))
        for x_rest, indices in others:
            total = sum(map(at, indices))
            if total != reference:
                violations.append(
                    NSViolation(
                        cut, "to_left", (ref_inputs, x_rest), Fraction(total - reference, den)
                    )
                )
    return violations


def is_ns_in_cut(box: Box, cut: Cut) -> tuple[bool, list[NSViolation]]:
    """Both marginal-independence conditions for one cut, exactly."""
    if cut.parties() != frozenset(range(box.party_count)):
        raise ShapeMismatch(f"cut {cut} does not cover the box's parties")
    left = tuple(sorted(cut.left))
    right = tuple(sorted(cut.right))
    violations = [
        NSViolation(cut, "to_left", v.inputs, v.discrepancy)
        for v in _one_sided_violations(box, left)
    ]
    violations += [
        NSViolation(cut, "to_right", v.inputs, v.discrepancy)
        for v in _one_sided_violations(box, right)
    ]
    return (not violations), violations


def is_fully_ns(box: Box) -> NSReport:
    """Check every one-sided marginalization (all 2^n - 2 proper subsets)."""
    n = box.party_count
    violations: list[NSViolation] = []
    for mask in range(1, 2**n - 1):
        keep = tuple(i for i in range(n) if mask >> i & 1)
        violations.extend(_one_sided_violations(box, keep))
    return NSReport(not violations, tuple(violations))


def marginal(box: Box, keep) -> Box:
    """Marginal box on the ``keep`` parties.

    Requires the box to be non-signalling in the cut keep|rest (both
    directions); otherwise the marginal would depend on the discarded
    parties' inputs and MarginalIllDefined is raised.  Each entry is the
    sum the cut check has just compared, at the first input of the rest.
    """
    keep = tuple(sorted(set(keep)))
    if not keep or any(i not in range(box.party_count) for i in keep):
        raise ShapeMismatch(f"keep set {keep} invalid for {box.party_count} parties")
    if len(keep) == box.party_count:
        return box
    cut, groups = _marginal_groups(box.input_arity, box.output_arity, keep)
    ok, violations = is_ns_in_cut(box, cut)
    if not ok:
        raise MarginalIllDefined(cut, violations)
    nums, den = box.int_view
    # each group's first x_rest; groups run a_keep slowest, the marginal x_keep slowest
    sums = [sum(map(nums.__getitem__, indices)) for (_, indices), *_ in groups]
    ins = tuple(box.input_arity[i] for i in keep)
    outs = tuple(box.output_arity[i] for i in keep)
    n_in = prod(ins)
    return Box._trusted(ins, outs, [s for x in range(n_in) for s in sums[x::n_in]], den)
