"""Deviation rules: adapted stochastic remappings of action sequences.

A deviation rule rewrites each intended action sequence into a lottery over
action sequences, subject to adaptedness: the rewritten play up to period t
may depend only on the intended play up to period t.  Rules compose like
stochastic matrices and are the certificates that observed behavior cannot be
rationalized, via the three `dominates_*` criteria below, one per kind of
observation; `dominates` picks the one that matches.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import product
from typing import Callable, Mapping, Sequence, Union

from .model import (
    ActionSequence,
    DecisionProblem,
    JointDistribution,
    MarginalDistribution,
    Observation,
    ValidationError,
    _over_lcm,
    _require_probability_numerators,
    _require_probability_vector,
    format_rational,
    parse_rational,
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

def matrix_is_adapted(
    in_seqs: Sequence[tuple[str, ...]],
    out_seqs: Sequence[tuple[str, ...]],
    matrix: Sequence[Sequence[Fraction]],
    periods: int,
) -> bool:
    """Whether a row-stochastic kernel from ``in_seqs`` to ``out_seqs`` has
    period-t output marginals that depend only on the first t input entries.

    Each row's period-t marginal is summed from its nonzero entries only and
    kept as a map from output prefix to its nonzero mass, so a sparse kernel
    costs its support, not the square of the leaf count."""
    support = [[(j, w) for j, w in enumerate(row) if w] for row in matrix]
    return _support_is_adapted(in_seqs, out_seqs, support, periods)


def _support_is_adapted(in_seqs: Sequence[tuple[str, ...]], out_seqs: Sequence[tuple[str, ...]],
                        support: Sequence[Sequence[tuple[int, Union[int, Fraction]]]],
                        periods: int) -> bool:
    """`matrix_is_adapted` on each row's nonzero ``(column, weight)`` pairs;
    the weights may be numerators over one common denominator."""
    for t in range(1, periods):
        first: dict[tuple[str, ...], dict[tuple[str, ...], Union[int, Fraction]]] = {}
        for seq, row in zip(in_seqs, support):
            sums: dict[tuple[str, ...], Union[int, Fraction]] = {}
            for j, w in row:
                key = out_seqs[j][:t]
                sums[key] = sums.get(key, 0) + w
            marginal = {key: w for key, w in sums.items() if w}
            if first.setdefault(seq[:t], marginal) != marginal:
                return False
    return True


def _resolve_kernel(problem: DecisionProblem, kernel) -> tuple[tuple[Fraction, ...], ...]:
    """Normalize a kernel given as a matrix or as a mapping from input leaves
    to either an output leaf (point mass) or a weight mapping.  Neither
    stochasticity nor adaptedness is checked here."""
    leaves = problem.leaves
    n = len(leaves)
    if isinstance(kernel, Mapping):
        grid = [[Fraction(0)] * n for _ in range(n)]
        seen = set()
        for key, row in kernel.items():
            a = problem.sequence(key)
            i = problem.leaf_index[a]
            if i in seen:
                raise ValidationError(f"row for {a.label!r} given twice")
            seen.add(i)
            if isinstance(row, Mapping):
                outs = set()
                for out, q in row.items():
                    b = problem.sequence(out)
                    j = problem.leaf_index[b]
                    if j in outs:
                        raise ValidationError(f"output {b.label!r} of row {a.label!r} given twice")
                    outs.add(j)
                    grid[i][j] = parse_rational(q)
            else:
                grid[i][problem.leaf_index[problem.sequence(row)]] = Fraction(1)
        if len(seen) != n:
            missing = next(l for j, l in enumerate(leaves) if j not in seen)
            raise ValidationError(f"kernel is missing a row for {missing.label!r}")
        matrix = tuple(tuple(r) for r in grid)
    else:
        matrix = tuple(tuple(parse_rational(v) for v in row) for row in kernel)
        if len(matrix) != n or any(len(r) != n for r in matrix):
            raise ValidationError("kernel matrix must be square over the leaves")
    return matrix


def is_adapted(problem: DecisionProblem, kernel) -> bool:
    """Exact adaptedness test for a row-stochastic kernel over the leaves.

    Raises `ValidationError` if the kernel is not row-stochastic.
    """
    matrix = _resolve_kernel(problem, kernel)
    for row in matrix:
        _require_probability_vector(row, "kernel row")
    entries = [l.entries for l in problem.leaves]
    return matrix_is_adapted(entries, entries, matrix, problem.periods)


# ---------------------------------------------------------------------------
# Rule types
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DeviationRule:
    """A row-stochastic, adapted kernel over the padded leaves.

    ``matrix[i][j]`` is the probability of rewriting leaf i into leaf j.
    Construction validates both stochasticity and adaptedness, on the
    rule's `integer_rows`.
    """

    leaves: tuple[ActionSequence, ...]
    matrix: tuple[tuple[Fraction, ...], ...]

    def __post_init__(self) -> None:
        n = len(self.leaves)
        if len(self.matrix) != n or any(len(r) != n for r in self.matrix):
            raise ValidationError("deviation rule matrix shape mismatch")
        self._check_rows()

    def _check_rows(self) -> None:
        rows, den = self.integer_rows
        for row in rows:
            _require_probability_numerators([x for _, x in row], den, "deviation rule row")
        entries = [l.entries for l in self.leaves]
        if not _support_is_adapted(entries, entries, rows, len(entries[0]) if entries else 0):
            raise ValidationError("kernel is not adapted")

    @cached_property
    def integer_rows(self) -> tuple[list[list[tuple[int, int]]], int]:
        """``(rows, den)``: each row's nonzero entries as (column, numerator)
        pairs over one denominator ``den``, the least one."""
        nums, den = _over_lcm([w for row in self.matrix for w in row])
        n = len(self.matrix)
        return [[(j, x) for j, x in enumerate(nums[i:i + n]) if x] for i in range(0, n * n, n)], den

    @staticmethod
    def from_integer_rows(leaves: tuple[ActionSequence, ...],
                          rows: Sequence[Sequence[tuple[int, int]]], den: int) -> "DeviationRule":
        """The rule whose row i has the nonzero entries ``rows[i]``, as
        (column, numerator) pairs over ``den``, checked like any other; its
        `matrix` is built only when it is read."""
        n = len(leaves)
        if len(rows) != n or den <= 0 or any(not 0 <= j < n for row in rows for j, _ in row):
            raise ValidationError("deviation rule matrix shape mismatch")
        g = math.gcd(den, *(x for row in rows for _, x in row))
        rule = object.__new__(DeviationRule)
        rule.__dict__.update(leaves=leaves, integer_rows=(
            [[(j, x // g) for j, x in row if x] for row in rows], den // g))
        rule._check_rows()
        return rule

    def __getattr__(self, name: str):
        # Reached only when normal lookup fails: a rule built by
        # `from_integer_rows` builds its matrix when it is first read.
        if name != "matrix" or "integer_rows" not in self.__dict__:
            raise AttributeError(name)
        rows, den = self.integer_rows
        n = len(rows)
        self.__dict__[name] = matrix = tuple(
            tuple(Fraction(row.get(j, 0), den) for j in range(n)) for row in map(dict, rows))
        return matrix

    @staticmethod
    def from_mapping(problem: DecisionProblem, kernel) -> "DeviationRule":
        return DeviationRule(problem.leaves, _resolve_kernel(problem, kernel))

    def _index(self, a: ActionSequence) -> int:
        try:
            return self.leaves.index(a)
        except ValueError:
            raise ValidationError(f"{a.label!r} is not a leaf of this rule") from None

    def row(self, a: ActionSequence) -> dict[ActionSequence, Fraction]:
        """The output lottery for input leaf ``a`` (nonzero entries only)."""
        i = self._index(a)
        return {b: w for b, w in zip(self.leaves, self.matrix[i]) if w != 0}

    def to_json_dict(self) -> dict:
        out: dict[str, dict[str, str]] = {}
        for a, row in zip(self.leaves, self.matrix):
            out[a.label] = {
                b.label: format_rational(w)
                for b, w in zip(self.leaves, row)
                if w != 0
            }
        return out

    @staticmethod
    def from_json_dict(problem: DecisionProblem, doc: Mapping) -> "DeviationRule":
        return DeviationRule.from_mapping(problem, doc)


@dataclass(frozen=True)
class PureDeviationRule:
    """A deterministic deviation rule: one output leaf per input leaf, with the
    output's period-t prefix a function of the input's period-t prefix."""

    leaves: tuple[ActionSequence, ...]
    outputs: tuple[ActionSequence, ...]

    def __post_init__(self) -> None:
        if len(self.outputs) != len(self.leaves):
            raise ValidationError("pure rule must map every leaf")
        leaf_set = set(self.leaves)
        for out in self.outputs:
            if out not in leaf_set:
                raise ValidationError(f"output {out.label!r} is not a leaf")
        periods = len(self.leaves[0].entries) if self.leaves else 0
        for t in range(1, periods):
            seen: dict[tuple[str, ...], tuple[str, ...]] = {}
            for a, b in zip(self.leaves, self.outputs):
                prev = seen.setdefault(a.entries[:t], b.entries[:t])
                if prev != b.entries[:t]:
                    raise ValidationError("pure rule is not adapted")

    @staticmethod
    def from_mapping(problem: DecisionProblem, mapping: Mapping) -> "PureDeviationRule":
        moves = {problem.sequence(k): problem.sequence(v) for k, v in mapping.items()}
        if set(moves) != set(problem.leaves):
            raise ValidationError("pure rule must map every leaf exactly once")
        return PureDeviationRule(problem.leaves, tuple(moves[a] for a in problem.leaves))

    def to_rule(self) -> DeviationRule:
        index = {leaf: i for i, leaf in enumerate(self.leaves)}
        return DeviationRule.from_integer_rows(
            self.leaves, [[(index[out], 1)] for out in self.outputs], 1)

    def to_json_dict(self) -> dict:
        return {a.label: b.label for a, b in zip(self.leaves, self.outputs)}


AnyRule = Union[DeviationRule, PureDeviationRule]


def identity_rule(problem: DecisionProblem) -> PureDeviationRule:
    return PureDeviationRule(problem.leaves, problem.leaves)


# ---------------------------------------------------------------------------
# Enumeration
# ---------------------------------------------------------------------------

def _prefix_children(problem: DecisionProblem) -> dict[tuple[str, ...], list[tuple[str, ...]]]:
    """Each padded prefix shorter than the horizon, mapped to its one-longer
    prefixes in document order (past a terminal history, the next entry is
    `PAD`).  Depends on the tree alone: use it through `per_tree`."""
    kids: dict[tuple[str, ...], list[tuple[str, ...]]] = {}
    for leaf in problem.leaves:
        for t in range(problem.periods):
            row = kids.setdefault(leaf.entries[:t], [])
            if not row or row[-1] != leaf.entries[:t + 1]:
                row.append(leaf.entries[:t + 1])
    return kids


def count_pure_rules(problem: DecisionProblem) -> int:
    """Number of adapted pure rules, by recursion over aligned prefix pairs."""
    kids = problem.per_tree(_prefix_children)
    cache: dict[tuple[tuple[str, ...], tuple[str, ...]], int] = {}

    def count(inp: tuple[str, ...], out: tuple[str, ...]) -> int:
        if len(inp) == problem.periods:
            return 1
        key = (inp, out)
        if key not in cache:
            total = 1
            for ic in kids[inp]:
                total *= sum(count(ic, oc) for oc in kids[out])
            cache[key] = total
        return cache[key]

    return count((), ())


def _require_joint_shape(problem: DecisionProblem, joint: JointDistribution) -> None:
    if joint.leaves != problem.leaves or joint.states != problem.states:
        raise ValidationError("joint law shapes do not match the problem")


def best_joint_deviation(
    problem: DecisionProblem, joint: JointDistribution
) -> tuple[Fraction, Callable[[], PureDeviationRule]]:
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
    output prefix.  The law is read from `JointDistribution.integer_cells`
    and the utilities from `DecisionProblem.integer_payoffs`, so the
    induction adds and compares Python ints.
    """
    table, uden = problem.integer_payoffs
    _require_joint_shape(problem, joint)
    periods = problem.periods
    pay = {b.entries: row for b, row in zip(problem.leaves, table)}
    cells, wden = joint.integer_cells
    width = len(problem.states)
    rows = [cells[k:k + width] for k in range(0, len(cells), width)]
    mass = {a.entries: row for a, row in zip(problem.leaves, rows) if any(row)}
    live = {a[:t] for a in mass for t in range(periods + 1)}
    kids = problem.per_tree(_prefix_children)
    choice: dict[tuple[tuple[str, ...], tuple[str, ...]], tuple[str, ...]] = {}

    def value(h: tuple[str, ...], g: tuple[str, ...]) -> int:
        if len(h) == periods:
            return sum(x * y for x, y in zip(mass[h], pay[g]))
        total = 0
        for hc in kids[h]:
            if hc not in live:
                continue
            best = None
            for gc in kids[g]:
                v = value(hc, gc)
                if best is None or v > best:
                    best, choice[hc, g] = v, gc
            total += best
        return total

    def follow(h: tuple[str, ...], g: tuple[str, ...]) -> None:
        if len(h) == periods:
            outputs[h] = ActionSequence(g)
            return
        for hc in kids[h]:
            follow(hc, choice.get((hc, g)) or kids[g][0])

    def rule() -> PureDeviationRule:
        follow((), ())
        return PureDeviationRule(problem.leaves, tuple(outputs[b.entries] for b in problem.leaves))

    outputs: dict[tuple[str, ...], ActionSequence] = {}
    gain = value((), ()) - sum(sum(x * y for x, y in zip(row, pay[a])) for a, row in mass.items())
    return Fraction(gain, wden * uden), rule


def enumerate_pure_rules(
    problem: DecisionProblem, max_rules: int = DEFAULT_MAX_RULES
) -> tuple[PureDeviationRule, ...]:
    """The complete list of adapted pure rules, in a fixed order.

    The order is the lexicographic product of per-prefix output choices taken
    in tree document order, so repeated calls (and separate processes) agree.
    Raises `SizeGuardError` before materializing anything too large.  The
    list is built once per tree (`DecisionProblem.per_tree`).
    """
    total = count_pure_rules(problem)
    if total > max_rules:
        raise SizeGuardError(total, max_rules)
    return problem.per_tree(_pure_rules)


def _pure_rules(problem: DecisionProblem) -> tuple[PureDeviationRule, ...]:
    kids = problem.per_tree(_prefix_children)

    def options(inp: tuple[str, ...], out: tuple[str, ...]) -> list[dict]:
        if len(inp) == problem.periods:
            return [{ActionSequence(inp): ActionSequence(out)}]
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
        PureDeviationRule(problem.leaves, tuple(mapping[a] for a in problem.leaves))
        for mapping in options((), ())
    )


# ---------------------------------------------------------------------------
# Composition and dominance
# ---------------------------------------------------------------------------

def _as_matrix(rule: AnyRule) -> tuple[tuple[Fraction, ...], ...]:
    if isinstance(rule, PureDeviationRule):
        return rule.to_rule().matrix
    return rule.matrix


def compose(outer: AnyRule, inner: AnyRule) -> DeviationRule:
    """The rule applying ``inner`` first and ``outer`` to its output; kernels
    multiply, and the result is adapted whenever both factors are."""
    if tuple(outer.leaves) != tuple(inner.leaves):
        raise ValidationError("rules are defined over different leaf sets")
    a = _as_matrix(inner)
    b = _as_matrix(outer)
    n = len(inner.leaves)
    matrix = tuple(
        tuple(
            sum((a[x][y] * b[y][z] for y in range(n) if a[x][y] != 0), Fraction(0))
            for z in range(n)
        )
        for x in range(n)
    )
    return DeviationRule(inner.leaves, matrix)


def _integer_gains(problem: DecisionProblem, rule: AnyRule) -> tuple[list[list[int]], int]:
    """The gain table of `gains` as integer numerators over one positive
    denominator: the payoffs' (`DecisionProblem.integer_payoffs`) times the
    rule's (`DeviationRule.integer_rows`), so no `Fraction` is built."""
    if rule.leaves != problem.leaves:
        raise ValidationError("rule leaves do not match the problem")
    pay, uden = problem.integer_payoffs
    if isinstance(rule, PureDeviationRule):
        moved = [pay[problem.leaf_index[b]] for b in rule.outputs]
        return [[x - y for x, y in zip(after, own)] for after, own in zip(moved, pay)], uden
    rows, rden = rule.integer_rows
    width = range(len(problem.states))
    return [[sum(w * pay[j][s] for j, w in support) - rden * own[s] for s in width]
            for support, own in zip(rows, pay)], rden * uden


def gains(problem: DecisionProblem, rule: AnyRule) -> tuple[tuple[Fraction, ...], ...]:
    """The rule's gain table: ``gains(problem, rule)[i][s]`` is the exact
    payoff change from following the rule instead of playing leaf i in state
    s, sum_j D(i, j) u(j, s) - u(i, s), summed over the row's nonzero
    entries.  Every dominance criterion is a sign test on this table, run on
    its integer numerators."""
    table, den = _integer_gains(problem, rule)
    return tuple(tuple(Fraction(g, den) for g in row) for row in table)


def improvement(
    problem: DecisionProblem, rule: AnyRule, a: ActionSequence, state: str
) -> Fraction:
    """Exact payoff change from following the rule instead of playing ``a``."""
    i = problem.leaf_index[problem.sequence(a)]
    if state not in problem.state_index:
        raise ValidationError(f"unknown state {state!r}")
    return gains(problem, rule)[i][problem.state_index[state]]


def dominates_sequence(problem: DecisionProblem, rule: AnyRule, a: ActionSequence) -> bool:
    """Strictly improves ``a`` in every state and never hurts any sequence."""
    i = problem.leaf_index[problem.sequence(a)]
    table, _ = _integer_gains(problem, rule)
    return all(g >= 0 for row in table for g in row) and all(g > 0 for g in table[i])


def dominates_joint(problem: DecisionProblem, rule: AnyRule, joint: JointDistribution) -> bool:
    """Strictly positive expected improvement under the observed joint law."""
    _require_joint_shape(problem, joint)
    table, _ = _integer_gains(problem, rule)
    weights, _ = joint.integer_cells
    return sum(map(operator.mul, weights, (g for row in table for g in row))) > 0


def dominates_marginal(
    problem: DecisionProblem, rule: AnyRule, marginal: MarginalDistribution
) -> bool:
    """Strictly positive average of worst-case-over-states improvements."""
    if marginal.leaves != problem.leaves:
        raise ValidationError("marginal law leaves do not match the problem")
    table, _ = _integer_gains(problem, rule)
    weights, _ = marginal.integer_weights
    return sum(w * min(row) for w, row in zip(weights, table) if w) > 0


def dominates(problem: DecisionProblem, rule: AnyRule, observed: Observation) -> bool:
    """The dominance criterion that matches the kind of ``observed``."""
    if isinstance(observed, JointDistribution):
        return dominates_joint(problem, rule, observed)
    if isinstance(observed, MarginalDistribution):
        return dominates_marginal(problem, rule, observed)
    return dominates_sequence(problem, rule, observed)
