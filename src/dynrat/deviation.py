"""Deviation rules: adapted stochastic remappings of action sequences.

A deviation rule rewrites each intended action sequence into a lottery over
action sequences, subject to adaptedness: the rewritten play up to period t
may depend only on the intended play up to period t.  Rules compose like
stochastic matrices and are the certificates that observed behavior cannot be
rationalized: `dominates` is one sign test (`gains_dominate`) on a rule's
gains against the observation's consistency rows (`model.consistency`),
whatever the kind of observation; on a one-parameter family it runs on the
rule's affine gains (`affine_gains`) with nothing pinned.

A rule is one type, `DeviationRule`, stored as its integers: each row's
nonzero (column, numerator) pairs over one denominator.  A pure rule, as
`enumerate_pure_rules`, `identity_rule` and `best_joint_deviation` build
it, is the same type with one unit entry per row.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Mapping, Sequence
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import product
from operator import mul

from .model import (
    ActionSequence,
    DecisionProblem,
    JointDistribution,
    Observation,
    Tree,
    ValidationError,
    _chunks,
    _format,
    _leaf_weights,
    _over_lcm,
    _ratio,
    _require_joint_shape,
    _require_probability_numerators,
    consistency,
)

#: Default ceiling for pure-rule enumeration.
DEFAULT_MAX_RULES = 10**6


class SizeGuardError(RuntimeError):
    """Raised when pure-rule enumeration would exceed the configured cap."""

    def __init__(self, count: int, cap: int):
        super().__init__(
            f"instance has {count} adapted pure rules, above the cap of {cap};"
            " enumeration-based checks are not viable at this size"
        )
        self.count = count
        self.cap = cap


# ---------------------------------------------------------------------------
# Adaptedness
# ---------------------------------------------------------------------------

def _support_is_adapted(in_seqs: Sequence[tuple[str, ...]], out_seqs: Sequence[tuple[str, ...]],
                        support: Sequence[Sequence[tuple[int, int]]], periods: int) -> bool:
    """Whether a row-stochastic kernel from ``in_seqs`` to ``out_seqs``,
    given by each row's nonzero ``(column, numerator)`` pairs over one
    common denominator, has period-t output marginals that depend only on
    the first t input entries.

    Each row's period-t marginal is summed from its nonzero entries only and
    kept as a map from output prefix to its nonzero mass, so a sparse kernel
    costs its support, not the square of the leaf count."""
    for t in range(1, periods):
        first: dict[tuple[str, ...], dict[tuple[str, ...], int]] = {}
        for seq, row in zip(in_seqs, support):
            sums: dict[tuple[str, ...], int] = {}
            for j, w in row:
                key = out_seqs[j][:t]
                sums[key] = sums.get(key, 0) + w
            marginal = {key: w for key, w in sums.items() if w}
            if first.setdefault(seq[:t], marginal) != marginal:
                return False
    return True


def _resolve_kernel(problem: DecisionProblem, kernel) -> tuple[list[list[tuple[int, int]]], int]:
    """The rows of a kernel given as a matrix or as a mapping from input
    leaves to either an output leaf (point mass) or a weight mapping, each
    as its nonzero (column, numerator) pairs in column order, and their one
    denominator.  Neither stochasticity nor adaptedness is checked here."""
    n = len(problem.leaves)
    if not isinstance(kernel, Mapping):
        matrix = [[_ratio(v) for v in row] for row in kernel]
        if len(matrix) != n or any(len(r) != n for r in matrix):
            raise ValidationError("kernel matrix must be square over the leaves")
        rows = [[(j, w) for j, w in enumerate(row) if w[0]] for row in matrix]
    else:
        rows = [None] * n
        position, labels = problem.tree.leaf_position, problem.tree.labels
        for key, row in kernel.items():
            i = position(key)
            if rows[i] is not None:
                raise ValidationError(f"row for {labels[i]!r} given twice")
            if not isinstance(row, Mapping):
                rows[i] = [(position(row), (1, 1))]
                continue
            weights = _leaf_weights(problem, row, f"row {labels[i]!r}")
            rows[i] = sorted((j, w) for j, w in weights.items() if w[0])
        if None in rows:
            raise ValidationError(f"kernel is missing a row for {labels[rows.index(None)]!r}")
    nums, den = _over_lcm([w for row in rows for _, w in row])
    it = iter(nums)
    return [[(j, next(it)) for j, _ in row] for row in rows], den


def is_adapted(problem: DecisionProblem, kernel) -> bool:
    """Exact adaptedness test for a row-stochastic kernel over the leaves.

    Raises `ValidationError` if the kernel is not row-stochastic.
    """
    rows, den = _resolve_kernel(problem, kernel)
    for row in rows:
        _require_probability_numerators([x for _, x in row], den, "kernel row")
    entries = [l.entries for l in problem.leaves]
    return _support_is_adapted(entries, entries, rows, problem.tree.depth)


# ---------------------------------------------------------------------------
# Rules
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DeviationRule:
    """A row-stochastic, adapted kernel over the padded leaves.

    Row i, the lottery that leaf i is rewritten into, is ``rows[i]``: its
    nonzero entries as (column, numerator) pairs in column order, over the
    one denominator ``den``.  A pure rule has one ``(j, 1)`` entry per row
    over den 1.  Construction puts the rows in lowest terms, so equal
    kernels compare and hash equal however they were built, and validates
    both stochasticity and adaptedness.
    """

    leaves: tuple[ActionSequence, ...]
    rows: tuple[tuple[tuple[int, int], ...], ...]
    den: int

    def __post_init__(self) -> None:
        n = len(self.leaves)
        if len(self.rows) != n or self.den <= 0:
            raise ValidationError("deviation rule shape mismatch")
        g = math.gcd(self.den, *(x for row in self.rows for _, x in row))
        rows = tuple(tuple(sorted((j, x // g) for j, x in row if x)) for row in self.rows)
        for row in rows:  # each in column order: check its ends and neighbours
            if row and (row[0][0] < 0 or row[-1][0] >= n) or len(row) > 1 and any(
                    a == b for (a, _), (b, _) in zip(row, row[1:])):
                raise ValidationError("deviation rule shape mismatch")
            _require_probability_numerators([x for _, x in row], self.den // g,
                                            "deviation rule row")
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "den", self.den // g)
        entries = [l.entries for l in self.leaves]
        if not _support_is_adapted(entries, entries, rows, len(entries[0]) if entries else 0):
            raise ValidationError("kernel is not adapted")

    @cached_property
    def matrix(self) -> tuple[tuple[Fraction, ...], ...]:
        """``matrix[i][j]``: the probability of rewriting leaf i into leaf j."""
        n = len(self.rows)
        return tuple(tuple(Fraction(row.get(j, 0), self.den) for j in range(n))
                     for row in map(dict, self.rows))

    @staticmethod
    def from_mapping(problem: DecisionProblem, kernel) -> "DeviationRule":
        return DeviationRule(problem.leaves, *_resolve_kernel(problem, kernel))

    def to_json_dict(self) -> dict:
        return {a.label: {self.leaves[j].label: _format(x, self.den) for j, x in row}
                for a, row in zip(self.leaves, self.rows)}


def identity_rule(problem: DecisionProblem) -> DeviationRule:
    return DeviationRule(problem.leaves, tuple(((i, 1),) for i in range(len(problem.leaves))), 1)


# ---------------------------------------------------------------------------
# Enumeration
# ---------------------------------------------------------------------------

def _prefix_children(tree: Tree) -> dict[tuple[str, ...], list[tuple[str, ...]]]:
    """Each padded prefix shorter than the horizon, mapped to its one-longer
    prefixes in document order (past a terminal history, the next entry is
    `PAD`); built once per tree (`Tree.per_tree`)."""
    kids: dict[tuple[str, ...], list[tuple[str, ...]]] = {}
    for leaf in tree.leaves:
        for t in range(tree.depth):
            row = kids.setdefault(leaf.entries[:t], [])
            if not row or row[-1] != leaf.entries[:t + 1]:
                row.append(leaf.entries[:t + 1])
    return kids


def count_pure_rules(problem: DecisionProblem) -> int:
    """Number of adapted pure rules, by recursion over aligned prefix pairs."""
    kids = problem.tree.per_tree(_prefix_children)
    cache: dict[tuple[tuple[str, ...], tuple[str, ...]], int] = {}

    def count(inp: tuple[str, ...], out: tuple[str, ...]) -> int:
        if len(inp) == problem.tree.depth:
            return 1
        key = (inp, out)
        if key not in cache:
            total = 1
            for ic in kids[inp]:
                total *= sum(count(ic, oc) for oc in kids[out])
            cache[key] = total
        return cache[key]

    return count((), ())


def best_joint_deviation(
    problem: DecisionProblem, joint: JointDistribution
) -> tuple[Fraction, Callable[[], DeviationRule]]:
    """The most any adapted rule gains on average under ``joint``, by
    backward induction with no LP, and a function that builds a pure rule
    that gains it, so a caller that reads the gain alone builds no rule.

    A rule's output prefix may depend on the recommended (input) prefix, so
    the best rule is a best response to that prefix as a signal: over aligned
    pairs, V(h, g) = sum over the input children h' of h of the max over the
    output children g' of g of V(h', g'), with V(i, j) = sum_s joint(i, s)
    u(j, s) at the leaves.  The gain is V((), ()) minus the law's own
    expected utility.  The rule takes the argmaxes, ties going to the first
    output child in document order.  Input subtrees without mass are
    skipped, and each of their leaves goes to the first completion of its
    output prefix.  The law is read from its integer `JointDistribution.cells`
    and the utilities from `DecisionProblem.integer_payoffs`, so the
    induction adds and compares Python ints.
    """
    table, uden = problem.integer_payoffs
    _require_joint_shape(problem, joint)
    depth = problem.tree.depth
    pay = {b.entries: row for b, row in zip(problem.leaves, table)}
    cells, wden = joint.cells, joint.den
    width = len(problem.states)
    rows = [cells[k:k + width] for k in range(0, len(cells), width)]
    mass = {a.entries: row for a, row in zip(problem.leaves, rows) if any(row)}
    live = {a[:t] for a in mass for t in range(depth + 1)}
    kids = problem.tree.per_tree(_prefix_children)
    choice: dict[tuple[tuple[str, ...], tuple[str, ...]], tuple[str, ...]] = {}

    def value(h: tuple[str, ...], g: tuple[str, ...]) -> int:
        total = 0
        for hc in kids[h]:
            if hc not in live:
                continue
            if len(hc) == depth:  # the last period: V(i, j) in this loop, not a call per pair
                row = mass[hc]
                values = [sum(map(mul, row, pay[gc])) for gc in kids[g]]
            else:
                values = [value(hc, gc) for gc in kids[g]]
            best = max(values)
            total += best
            choice[hc, g] = kids[g][values.index(best)]  # the first argmax
        return total

    def follow(h: tuple[str, ...], g: tuple[str, ...]) -> None:
        if len(h) == depth:
            outputs[h] = g
            return
        for hc in kids[h]:
            follow(hc, choice.get((hc, g)) or kids[g][0])

    def rule() -> DeviationRule:
        follow((), ())
        column = {b: j for j, b in enumerate(pay)}  # a leaf's entries -> its index
        return DeviationRule(problem.leaves, tuple(((column[outputs[b]], 1),) for b in pay), 1)

    outputs: dict[tuple[str, ...], tuple[str, ...]] = {}
    gain = value((), ()) - sum(sum(map(mul, row, pay[a])) for a, row in mass.items())
    return Fraction(gain, wden * uden), rule


def enumerate_pure_rules(
    problem: DecisionProblem, max_rules: int = DEFAULT_MAX_RULES
) -> tuple[DeviationRule, ...]:
    """The complete list of adapted pure rules, in a fixed order.

    The order is the lexicographic product of per-prefix output choices taken
    in tree document order, so repeated calls (and separate processes) agree.
    Raises `SizeGuardError` before materializing anything too large.  The
    list is built once per tree (`Tree.per_tree`).
    """
    total = count_pure_rules(problem)
    if total > max_rules:
        raise SizeGuardError(total, max_rules)
    return problem.tree.per_tree(_pure_rules)


def _pure_rules(tree: Tree) -> tuple[DeviationRule, ...]:
    kids = tree.per_tree(_prefix_children)
    index = {leaf.entries: i for i, leaf in enumerate(tree.leaves)}

    def options(inp: tuple[str, ...], out: tuple[str, ...]) -> list[dict]:
        if len(inp) == tree.depth:
            return [{inp: ((index[out], 1),)}]
        alternatives = []
        for ic in kids[inp]:
            alts: list[dict] = []
            for oc in kids[out]:
                alts.extend(options(ic, oc))
            alternatives.append(alts)
        merged = []
        for combo in product(*alternatives):
            d: dict = {}
            for part in combo:
                d.update(part)
            merged.append(d)
        return merged

    return tuple(
        DeviationRule(tree.leaves, tuple(mapping[a.entries] for a in tree.leaves), 1)
        for mapping in options((), ())
    )


# ---------------------------------------------------------------------------
# Composition and dominance
# ---------------------------------------------------------------------------

def compose(outer: DeviationRule, inner: DeviationRule) -> DeviationRule:
    """The rule applying ``inner`` first and ``outer`` to its output; kernels
    multiply, and the result is adapted whenever both factors are."""
    if tuple(outer.leaves) != tuple(inner.leaves):
        raise ValidationError("rules are defined over different leaf sets")
    rows = []
    for row in inner.rows:
        product_row: dict[int, int] = {}
        for y, a in row:
            for z, b in outer.rows[y]:
                product_row[z] = product_row.get(z, 0) + a * b
        rows.append(tuple(product_row.items()))
    return DeviationRule(inner.leaves, tuple(rows), inner.den * outer.den)


def _column_gains(pay: Sequence[Sequence[int]], rule: DeviationRule) -> list[int]:
    """The rule's gains on an integer payoff table ``pay[i][s]``, cell by
    cell as `JointDistribution.cells` numbers them, over rule.den times its
    denominator."""
    width = range(len(pay[0]))
    return [sum(w * pay[j][s] for j, w in support) - rule.den * own[s]
            for support, own in zip(rule.rows, pay) for s in width]


def _integer_gains(problem: DecisionProblem, rule: DeviationRule) -> tuple[list[int], int]:
    """The gain table of `gains` in integer numerators over one positive
    denominator: on the payoffs of `DecisionProblem.integer_payoffs`."""
    if rule.leaves != problem.leaves:
        raise ValidationError("rule leaves do not match the problem")
    pay, uden = problem.integer_payoffs
    return _column_gains(pay, rule), rule.den * uden


def affine_gains(family: DecisionProblem, rule: DeviationRule) -> tuple[list[int], list[int]]:
    """A rule's integer gains (A, B) on the constant and the slope column of
    a one-parameter family's table.  Pinned at t = p/q, an entry is c*q +
    m*p over a positive denominator, so the rule's integer gains there are
    q*A + p*B times a positive factor, which no sign test sees."""
    if rule.leaves != family.leaves or len(family.param_names) != 1:
        raise ValidationError("rule leaves do not match the one-parameter family")
    width = len(family.states)
    return tuple(_column_gains(_chunks([row[k] for row in family.table], width), rule)
                 for k in (0, 1))


def gains(problem: DecisionProblem, rule: DeviationRule) -> tuple[tuple[Fraction, ...], ...]:
    """The rule's gain table: ``gains(problem, rule)[i][s]`` is the exact
    payoff change from following the rule instead of playing leaf i in state
    s, sum_j D(i, j) u(j, s) - u(i, s), summed over the row's nonzero
    entries.  `dominates` is a sign test on this table, run on its integer
    numerators."""
    cells, den = _integer_gains(problem, rule)
    return _chunks([Fraction(g, den) for g in cells], len(problem.states))


def dominates(problem: DecisionProblem, rule: DeviationRule, observed: Observation) -> bool:
    """Whether ``rule`` proves that no obedient law induces ``observed``
    (by Farkas' lemma, some rule does whenever none does): the sign test
    `gains_dominate` on its integer gains against the observation's
    consistency rows (`model.consistency`)."""
    rows = consistency(problem, observed)
    return gains_dominate(_integer_gains(problem, rule)[0], rows)


def gains_dominate(cells: Sequence[int], rows: Sequence[tuple[int, int, int]]) -> bool:
    """The one sign test of dominance, on a rule's gains G, cell by cell in
    any positive units, and consistency rows E gamma = e: no cell in no row
    has G < 0, and sum e * level > 0, a row's level being its least G.  For
    a sequence: G > 0 at it and G >= 0 elsewhere; a marginal: sum_i w_i
    min_s G(i, s) > 0; a joint law: sum g * G > 0."""
    total = free = 0  # free: the first cell past the last row
    for start, stop, e in rows:
        if free < start and min(cells[free:start]) < 0:
            return False
        if e:  # a one-cell row's level is its cell: no slice to take
            total += e * (cells[start] if stop - start == 1 else min(cells[start:stop]))
        free = stop
    return min(cells[free:], default=0) >= 0 and total > 0
