"""Deviation rules: adapted stochastic remappings of action sequences.

A deviation rule rewrites each intended action sequence into a lottery over
action sequences, subject to adaptedness: the rewritten play up to period t
may depend only on the intended play up to period t.  Rules compose like
stochastic matrices and are the certificates that observed behavior cannot be
rationalized, via the three `dominates_*` criteria below, one per kind of
observation; `dominates` picks the one that matches.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from typing import Mapping, Sequence, Union

from .model import (
    PAD,
    ActionSequence,
    DecisionProblem,
    JointDistribution,
    MarginalDistribution,
    Observation,
    ValidationError,
    format_rational,
    lottery_utility,
    parse_rational,
    utility,
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

def _prefix_groups(seqs: Sequence[tuple[str, ...]], t: int) -> list[list[int]]:
    groups: dict[tuple[str, ...], list[int]] = {}
    for i, s in enumerate(seqs):
        groups.setdefault(s[:t], []).append(i)
    return list(groups.values())


def matrix_is_adapted(
    in_seqs: Sequence[tuple[str, ...]],
    out_seqs: Sequence[tuple[str, ...]],
    matrix: Sequence[Sequence[Fraction]],
    periods: int,
) -> bool:
    """Whether a row-stochastic kernel from ``in_seqs`` to ``out_seqs`` has
    period-t output marginals that depend only on the first t input entries."""
    for t in range(1, periods):
        out_groups = _prefix_groups(out_seqs, t)
        for in_group in _prefix_groups(in_seqs, t):
            if len(in_group) < 2:
                continue
            ref = [sum(matrix[in_group[0]][j] for j in og) for og in out_groups]
            for i in in_group[1:]:
                got = [sum(matrix[i][j] for j in og) for og in out_groups]
                if got != ref:
                    return False
    return True


def _resolve_kernel(problem: DecisionProblem, kernel) -> tuple[tuple[Fraction, ...], ...]:
    """Normalize a kernel given as a matrix or as a mapping from input leaves
    to either an output leaf (point mass) or a weight mapping.  Rows must be
    probability vectors; adaptedness is *not* checked here."""
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
                for out, q in row.items():
                    grid[i][problem.leaf_index[problem.sequence(out)]] += parse_rational(q)
            else:
                grid[i][problem.leaf_index[problem.sequence(row)]] = Fraction(1)
        if len(seen) != n:
            missing = next(l for j, l in enumerate(leaves) if j not in seen)
            raise ValidationError(f"kernel is missing a row for {missing.label!r}")
        matrix = tuple(tuple(r) for r in grid)
    else:
        matrix = tuple(tuple(Fraction(v) for v in row) for row in kernel)
        if len(matrix) != n or any(len(r) != n for r in matrix):
            raise ValidationError("kernel matrix must be square over the leaves")
    for row in matrix:
        if any(w < 0 for w in row):
            raise ValidationError("kernel weights must be nonnegative")
        if sum(row, Fraction(0)) != 1:
            raise ValidationError("kernel rows must sum to exactly 1")
    return matrix


def is_adapted(problem: DecisionProblem, kernel) -> bool:
    """Exact adaptedness test for a row-stochastic kernel over the leaves.

    Raises `ValidationError` if the kernel is not row-stochastic.
    """
    matrix = _resolve_kernel(problem, kernel)
    entries = [l.entries for l in problem.leaves]
    return matrix_is_adapted(entries, entries, matrix, problem.periods)


# ---------------------------------------------------------------------------
# Rule types
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DeviationRule:
    """A row-stochastic, adapted kernel over the padded leaves.

    ``matrix[i][j]`` is the probability of rewriting leaf i into leaf j.
    Construction validates both stochasticity and adaptedness.
    """

    leaves: tuple[ActionSequence, ...]
    matrix: tuple[tuple[Fraction, ...], ...]

    def __post_init__(self) -> None:
        n = len(self.leaves)
        if len(self.matrix) != n or any(len(r) != n for r in self.matrix):
            raise ValidationError("deviation rule matrix shape mismatch")
        for row in self.matrix:
            if any(w < 0 for w in row):
                raise ValidationError("deviation rule weights must be nonnegative")
            if sum(row, Fraction(0)) != 1:
                raise ValidationError("deviation rule rows must sum to 1")
        entries = [l.entries for l in self.leaves]
        if not matrix_is_adapted(entries, entries, self.matrix, len(entries[0]) if entries else 0):
            raise ValidationError("kernel is not adapted")

    @staticmethod
    def from_mapping(problem: DecisionProblem, kernel) -> "DeviationRule":
        return DeviationRule(problem.leaves, _resolve_kernel(problem, kernel))

    def _index(self, a: ActionSequence) -> int:
        try:
            return self.leaves.index(a)
        except ValueError:
            raise ValidationError(f"{a.label!r} is not a leaf of this rule") from None

    def weight(self, a: ActionSequence, b: ActionSequence) -> Fraction:
        return self.matrix[self._index(a)][self._index(b)]

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

    def output(self, a: ActionSequence) -> ActionSequence:
        try:
            return self.outputs[self.leaves.index(a)]
        except ValueError:
            raise ValidationError(f"{a.label!r} is not a leaf of this rule") from None

    def row(self, a: ActionSequence) -> dict[ActionSequence, Fraction]:
        return {self.output(a): Fraction(1)}

    def to_rule(self) -> DeviationRule:
        n = len(self.leaves)
        index = {leaf: i for i, leaf in enumerate(self.leaves)}
        matrix = []
        for out in self.outputs:
            row = [Fraction(0)] * n
            row[index[out]] = Fraction(1)
            matrix.append(tuple(row))
        return DeviationRule(self.leaves, tuple(matrix))

    def to_json_dict(self) -> dict:
        return {a.label: b.label for a, b in zip(self.leaves, self.outputs)}


AnyRule = Union[DeviationRule, PureDeviationRule]


def identity_rule(problem: DecisionProblem) -> PureDeviationRule:
    return PureDeviationRule(problem.leaves, problem.leaves)


# ---------------------------------------------------------------------------
# Enumeration
# ---------------------------------------------------------------------------

def _prefix_children(problem: DecisionProblem, prefix: tuple[str, ...]) -> list[tuple[str, ...]]:
    history = tuple(e for e in prefix if e != PAD)
    if PAD in prefix or problem.is_terminal(history):
        return [prefix + (PAD,)]
    return [prefix + (a,) for a in problem.actions_at(history)]


def count_pure_rules(problem: DecisionProblem) -> int:
    """Number of adapted pure rules, by recursion over aligned prefix pairs."""
    cache: dict[tuple[tuple[str, ...], tuple[str, ...]], int] = {}

    def count(inp: tuple[str, ...], out: tuple[str, ...]) -> int:
        if len(inp) == problem.periods:
            return 1
        key = (inp, out)
        if key not in cache:
            total = 1
            for ic in _prefix_children(problem, inp):
                total *= sum(count(ic, oc) for oc in _prefix_children(problem, out))
            cache[key] = total
        return cache[key]

    return count((), ())


_ENUM_CACHE: "weakref.WeakKeyDictionary[DecisionProblem, tuple[PureDeviationRule, ...]]" = (
    weakref.WeakKeyDictionary()
)


def enumerate_pure_rules(
    problem: DecisionProblem, max_rules: int = DEFAULT_MAX_RULES
) -> tuple[PureDeviationRule, ...]:
    """The complete list of adapted pure rules, in a fixed order.

    The order is the lexicographic product of per-prefix output choices taken
    in tree document order, so repeated calls (and separate processes) agree.
    Raises `SizeGuardError` before materializing anything too large.
    """
    total = count_pure_rules(problem)
    if total > max_rules:
        raise SizeGuardError(total, max_rules)
    cached = _ENUM_CACHE.get(problem)
    if cached is not None:
        return cached

    def options(inp: tuple[str, ...], out: tuple[str, ...]) -> list[dict]:
        if len(inp) == problem.periods:
            return [{ActionSequence(inp): ActionSequence(out)}]
        alternatives = []
        for ic in _prefix_children(problem, inp):
            alts: list[dict] = []
            for oc in _prefix_children(problem, out):
                alts.extend(options(ic, oc))
            alternatives.append(alts)
        merged = []
        for combo in product(*alternatives):
            d: dict = {}
            for part in combo:
                d.update(part)
            merged.append(d)
        return merged

    rules = tuple(
        PureDeviationRule(problem.leaves, tuple(mapping[a] for a in problem.leaves))
        for mapping in options((), ())
    )
    _ENUM_CACHE[problem] = rules
    return rules


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


def improvement(
    problem: DecisionProblem, rule: AnyRule, a: ActionSequence, state: str
) -> Fraction:
    """Exact payoff change from following the rule instead of playing ``a``."""
    a = problem.sequence(a)
    return lottery_utility(problem, rule.row(a), state) - utility(problem, a, state)


def dominates_sequence(problem: DecisionProblem, rule: AnyRule, a: ActionSequence) -> bool:
    """Strictly improves ``a`` in every state and never hurts any sequence."""
    a = problem.sequence(a)
    for b in problem.leaves:
        for state in problem.states:
            delta = improvement(problem, rule, b, state)
            if delta < 0:
                return False
            if b == a and delta <= 0:
                return False
    return True


def dominates_joint(problem: DecisionProblem, rule: AnyRule, joint: JointDistribution) -> bool:
    """Strictly positive expected improvement under the observed joint law."""
    total = Fraction(0)
    for a, row in zip(joint.leaves, joint.matrix):
        for state, w in zip(joint.states, row):
            if w != 0:
                total += w * improvement(problem, rule, a, state)
    return total > 0


def dominates_marginal(
    problem: DecisionProblem, rule: AnyRule, marginal: MarginalDistribution
) -> bool:
    """Strictly positive average of worst-case-over-states improvements."""
    total = Fraction(0)
    for a, w in zip(marginal.leaves, marginal.weights):
        if w != 0:
            total += w * min(improvement(problem, rule, a, s) for s in problem.states)
    return total > 0


def dominates(problem: DecisionProblem, rule: AnyRule, observed: Observation) -> bool:
    """The dominance criterion that matches the kind of ``observed``."""
    if isinstance(observed, JointDistribution):
        return dominates_joint(problem, rule, observed)
    if isinstance(observed, MarginalDistribution):
        return dominates_marginal(problem, rule, observed)
    return dominates_sequence(problem, rule, observed)
