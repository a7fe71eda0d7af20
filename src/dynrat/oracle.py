"""Independent verification machinery.

Everything here re-derives answers from first principles, without the linear
programs: exact expected utility of an explicit (strategy, information
structure, prior) triple, exact optimal value by backward induction over
signal prefixes, the re-check of a verdict's certificate (a dominating
rule, or an obedient joint law whose leaves are the recommendations)
against its observation (`verify_witness`), a brute-force obedience check
that loops over every pure deviation rule, and a seeded Monte-Carlo
sampler.  Structures, strategies, laws and payoffs are read as their
integers, and a `Fraction` is built only for a value that is returned.
The module reaches neither `rationalize` nor `lp`.  The test
suite plays these against the LP-based procedures; agreement is the
package's main internal consistency guarantee.
"""

from __future__ import annotations

import math
import random
from bisect import bisect_right
from collections.abc import Mapping, Sequence
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import accumulate, chain, product
from typing import Union

from .deviation import (
    DEFAULT_MAX_RULES,
    DeviationRule,
    _support_is_adapted,
    dominates,
    enumerate_pure_rules,
)
from .model import (
    ActionSequence,
    DecisionProblem,
    JointDistribution,
    Observation,
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


# ---------------------------------------------------------------------------
# First-class information structures and strategies
# ---------------------------------------------------------------------------

def _field(doc: Mapping, key: str, what: str):
    """``doc[key]``, or an input error that names the missing key."""
    if key not in doc:
        raise ValidationError(f"{what} has no {key!r}")
    return doc[key]


def _signals(doc: Mapping, what: str) -> tuple[tuple[tuple[str, ...], ...], dict[str, int]]:
    """The signal sets of a JSON document, and the index of each comma-joined
    signal sequence in product order; no two sequences may share a name."""
    sets = _field(doc, "signals", what)
    if not (isinstance(sets, list) and all(
            isinstance(s, list) and all(isinstance(x, str) for x in s) for s in sets)):
        raise ValidationError(f"{what} 'signals' must be a list of lists of labels")
    signal_sets = tuple(tuple(s) for s in sets)
    seqs = tuple(product(*signal_sets))
    seq_index = {",".join(s): i for i, s in enumerate(seqs)}
    if len(seq_index) != len(seqs):
        raise ValidationError(f"{what} 'signals' give two signal sequences one name")
    return signal_sets, seq_index


def _rows(doc: Mapping, what: str) -> Mapping:
    """The 'kernel' of a JSON document, checked to be an object of objects."""
    rows = _field(doc, "kernel", what)
    if not (isinstance(rows, Mapping) and all(isinstance(r, Mapping) for r in rows.values())):
        raise ValidationError(f"{what} 'kernel' must be an object of objects")
    return rows


def _lowest(rows: Sequence[Sequence[int]], den: int) -> tuple[tuple[tuple[int, ...], ...], int]:
    """Integer rows over ``den`` put in lowest terms by one gcd."""
    g = math.gcd(den, *chain.from_iterable(rows))
    return tuple(tuple(x // g for x in row) for row in rows), den // g


@dataclass(frozen=True)
class InformationStructure:
    """A prior and a kernel from states to full signal sequences (one signal
    set per period, in product order), as integers in lowest terms:
    ``prior[s] / prior_den`` is the probability of ``states[s]``, and
    ``kernel[s][k] / kernel_den`` that of the k-th sequence in that state.
    """

    states: tuple[str, ...]
    prior: tuple[int, ...]
    prior_den: int
    signal_sets: tuple[tuple[str, ...], ...]
    kernel: tuple[tuple[int, ...], ...]
    kernel_den: int

    def __post_init__(self) -> None:
        if not self.signal_sets or any(not s for s in self.signal_sets):
            raise ValidationError("every period needs a nonempty signal set")
        for sset in self.signal_sets:
            if len(set(sset)) != len(sset):
                raise ValidationError("duplicate signal label in one period")
        if len(self.prior) != len(self.states) or self.prior_den <= 0:
            raise ValidationError("prior shape mismatch")
        _require_probability_numerators(self.prior, self.prior_den, "prior")
        n = len(self.sequences)
        if (len(self.kernel) != len(self.states) or any(len(r) != n for r in self.kernel)
                or self.kernel_den <= 0):
            raise ValidationError("signal kernel shape mismatch")
        for row in self.kernel:
            _require_probability_numerators(row, self.kernel_den, "signal kernel row")
        (prior,), prior_den = _lowest((self.prior,), self.prior_den)
        kernel, kernel_den = _lowest(self.kernel, self.kernel_den)
        object.__setattr__(self, "prior", prior)
        object.__setattr__(self, "prior_den", prior_den)
        object.__setattr__(self, "kernel", kernel)
        object.__setattr__(self, "kernel_den", kernel_den)

    @cached_property
    def sequences(self) -> tuple[tuple[str, ...], ...]:
        return tuple(product(*self.signal_sets))

    @staticmethod
    def from_json_dict(problem: DecisionProblem, doc: Mapping) -> "InformationStructure":
        signal_sets, seq_index = _signals(doc, "information structure")
        given = _field(doc, "prior", "information structure")
        if not isinstance(given, Mapping):
            raise ValidationError("information structure 'prior' must be an object")
        prior = [(0, 1)] * len(problem.states)
        for state, q in given.items():
            prior[problem.state_position(state)] = _ratio(q)
        n = len(seq_index)
        kernel = [(0, 1)] * (len(problem.states) * n)  # state s's row is kernel[s * n:(s + 1) * n]
        for state, row in _rows(doc, "information structure").items():
            first = problem.state_position(state) * n
            for seq_id, q in row.items():
                if seq_id not in seq_index:
                    raise ValidationError(f"unknown signal sequence {seq_id!r}")
                kernel[first + seq_index[seq_id]] = _ratio(q)
        ps, pden = _over_lcm(prior)
        ks, kden = _over_lcm(kernel)
        return InformationStructure(problem.states, tuple(ps), pden, signal_sets,
                                    _chunks(ks, n), kden)

    def to_json_dict(self) -> dict:
        return {
            "signals": [list(s) for s in self.signal_sets],
            "prior": {s: _format(p, self.prior_den)
                      for s, p in zip(self.states, self.prior) if p},
            "kernel": {
                state: {",".join(seq): _format(w, self.kernel_den)
                        for seq, w in zip(self.sequences, row) if w}
                for state, row in zip(self.states, self.kernel)
            },
        }


@dataclass(frozen=True)
class Strategy:
    """An adapted kernel from signal sequences to leaves, as integers in
    lowest terms: ``kernel[k][i] / den`` is the probability of playing
    ``leaves[i]`` after the k-th sequence.  Play through period t may depend
    only on the first t signals, one signal set per period."""

    signal_sets: tuple[tuple[str, ...], ...]
    leaves: tuple[ActionSequence, ...]
    kernel: tuple[tuple[int, ...], ...]
    den: int

    def __post_init__(self) -> None:
        periods = len(self.signal_sets)
        if any(len(leaf.entries) > periods for leaf in self.leaves):
            raise ValidationError("strategy periods do not match the leaves")
        n_seq = len(self.sequences)
        if (len(self.kernel) != n_seq or any(len(r) != len(self.leaves) for r in self.kernel)
                or self.den <= 0):
            raise ValidationError("strategy kernel shape mismatch")
        for row in self.kernel:
            _require_probability_numerators(row, self.den, "strategy row")
        support = [[(i, x) for i, x in enumerate(row) if x] for row in self.kernel]
        if not _support_is_adapted(self.sequences, [l.entries for l in self.leaves],
                                   support, periods):
            raise ValidationError("strategy is not adapted")
        kernel, den = _lowest(self.kernel, self.den)
        object.__setattr__(self, "kernel", kernel)
        object.__setattr__(self, "den", den)

    @cached_property
    def sequences(self) -> tuple[tuple[str, ...], ...]:
        return tuple(product(*self.signal_sets))

    @staticmethod
    def from_json_dict(problem: DecisionProblem, doc: Mapping) -> "Strategy":
        signal_sets, seq_index = _signals(doc, "strategy")
        n = len(problem.leaves)
        kernel = [(0, 1)] * (len(seq_index) * n)  # sequence k's row is kernel[k * n:(k + 1) * n]
        for seq_id, row in _rows(doc, "strategy").items():
            if seq_id not in seq_index:
                raise ValidationError(f"unknown signal sequence {seq_id!r}")
            first = seq_index[seq_id] * n
            for i, q in _leaf_weights(problem, row, f"strategy row {seq_id!r}").items():
                kernel[first + i] = q
        nums, den = _over_lcm(kernel)
        return Strategy(signal_sets, problem.leaves, _chunks(nums, n), den)

    def to_json_dict(self) -> dict:
        return {
            "signals": [list(s) for s in self.signal_sets],
            "kernel": {
                ",".join(seq): {leaf.label: _format(w, self.den)
                                for leaf, w in zip(self.leaves, row) if w}
                for seq, row in zip(self.sequences, self.kernel)
            },
        }


def _check_periods(problem: DecisionProblem, signal_sets: Sequence, what: str) -> None:
    """Signals cover the tree's depth, in no more periods than declared."""
    if not problem.tree.depth <= len(signal_sets) <= problem.tree.periods:
        raise ValidationError(f"{what} periods do not match the leaves")


def _check_shapes(problem: DecisionProblem, strategy: Strategy, structure: InformationStructure) -> None:
    _check_periods(problem, strategy.signal_sets, "strategy")
    if structure.states != problem.states:
        raise ValidationError("information structure states do not match the problem")
    if strategy.leaves != problem.leaves:
        raise ValidationError("strategy leaves do not match the problem")
    if strategy.signal_sets != structure.signal_sets:
        raise ValidationError("strategy and information structure use different signals")


# ---------------------------------------------------------------------------
# Exact evaluation
# ---------------------------------------------------------------------------

def _weights(structure: InformationStructure) -> tuple[list[list[int]], int]:
    """The unnormalized measure prior * kernel, signal sequence by state:
    ``(weights, den)`` with ``weights[k][s] / den == prior[s] * kernel[s][k]``."""
    return ([[p * w for p, w in zip(structure.prior, column)] for column in zip(*structure.kernel)],
            structure.prior_den * structure.kernel_den)


def strategy_value(
    problem: DecisionProblem, strategy: Strategy, structure: InformationStructure
) -> Fraction:
    """Exact ex-ante expected utility of following ``strategy``, summed in
    integers."""
    _check_shapes(problem, strategy, structure)
    weights, wden = _weights(structure)
    table, uden = problem.integer_payoffs
    total = sum(x * sum(w * u for w, u in zip(weights[k], table[i]))
                for k, row in enumerate(strategy.kernel) for i, x in enumerate(row) if x)
    return Fraction(total, wden * strategy.den * uden)


def _optimal_value(
    problem: DecisionProblem, signal_seqs: Sequence[tuple[str, ...]], weights: Sequence[Sequence[int]]
) -> int:
    """Backward induction over signal prefixes and action histories.

    Works for any finite family of full-length signal sequences (product
    spaces or not).  Values are weighted by the unnormalized measure
    ``weights`` (see `_weights`), which sidesteps conditioning on
    zero-probability prefixes.  The utilities come from
    `DecisionProblem.integer_payoffs`, so the value is an integer over the
    weights' denominator times the payoffs'.  A sequence of weight 0 adds 0
    to every total of every group it joins, so the induction starts from
    the sequences with mass alone.
    """
    table, _ = problem.integer_payoffs
    tree = problem.tree
    payoff_at = {leaf.history: row for leaf, row in zip(problem.leaves, table)}

    def terminal_mass(seq_ids: Sequence[int], history: tuple[str, ...]) -> int:
        pay = payoff_at[history]
        return sum(w * u for k in seq_ids for w, u in zip(weights[k], pay))

    def observe(seq_ids: Sequence[int], t: int, history: tuple[str, ...]) -> int:
        # The agent has taken t actions and sees signal t + 1, then acts.
        groups: dict[str, list[int]] = {}
        for k in seq_ids:
            groups.setdefault(signal_seqs[k][t], []).append(k)
        return sum(act(ids, t + 1, history) for ids in groups.values())

    def act(seq_ids: Sequence[int], t: int, history: tuple[str, ...]) -> int:
        # The agent has seen t signals and taken t-1 actions; chooses the next.
        return max(terminal_mass(seq_ids, h2) if tree.is_terminal(h2) else observe(seq_ids, t, h2)
                   for h2 in (history + (a,) for a in tree.actions_at(history)))

    return observe([k for k, row in enumerate(weights) if any(row)], 0, ())


def optimal_value_dp(problem: DecisionProblem, structure: InformationStructure) -> Fraction:
    """Exact value of the best adapted strategy against ``structure``."""
    if structure.states != problem.states:
        raise ValidationError("information structure states do not match the problem")
    _check_periods(problem, structure.signal_sets, "information structure")
    weights, wden = _weights(structure)
    best = _optimal_value(problem, structure.sequences, weights)
    return Fraction(best, wden * problem.integer_payoffs[1])


def verify_obedient_optimality(problem: DecisionProblem, law: JointDistribution) -> bool:
    """Definitive witness check: with the law's leaves as recommendations,
    obeying them must be exactly optimal against the information they
    carry.  The law's cells are the measure the induction weighs by, so the
    obeyed and the best value are compared as integers at one scale."""
    _require_joint_shape(problem, law)
    weights = _chunks(law.cells, len(law.states))
    table, _ = problem.integer_payoffs
    obeyed = sum(w * u for row, pay in zip(weights, table) for w, u in zip(row, pay))
    best = _optimal_value(problem, [leaf.entries for leaf in problem.leaves], weights)
    return obeyed == best


def verify_witness(
    problem: DecisionProblem,
    witness: Union[JointDistribution, DeviationRule],
    observed: Observation,
) -> tuple[bool, str]:
    """Re-check a verdict's certificate against the observation, without LPs.

    A rule must dominate ``observed`` (`deviation.dominates`).  Obeying a
    law must be optimal, and its mass on the observation's consistency rows
    (`model.consistency`) a positive multiple of their e, by cross-multiplied
    integers.  Returns the outcome and a one-line reason.
    """
    if not isinstance(witness, JointDistribution):
        ok = dominates(problem, witness, observed)
        return ok, "dominating rule re-checked" if ok else "rule does not dominate"
    if not verify_obedient_optimality(problem, witness):
        return False, "obeying the recommendations is not optimal"
    rows = consistency(problem, observed)
    mass = [sum(witness.cells[start:stop]) for start, stop, _ in rows]
    got, want = sum(mass), sum(e for _, _, e in rows)
    if not got or any(x * want != e * got for x, (_, _, e) in zip(mass, rows)):
        return False, "witness does not induce the observation"
    return True, "obedient triple re-checked"


def brute_force_rationalizable_joint(
    problem: DecisionProblem, joint: JointDistribution, max_rules: int = DEFAULT_MAX_RULES
) -> bool:
    """Obedience by exhaustion: no pure deviation rule gains on average.
    Each rule's row i is one unit entry, whose column is the leaf that i
    is rewritten into; the gain is summed over the law's integer cells and
    `integer_payoffs`, whose positive denominators leave its sign as it is."""
    _require_joint_shape(problem, joint)
    table, _ = problem.integer_payoffs
    width = len(problem.states)
    cells = [(k // width, k % width, x) for k, x in enumerate(joint.cells) if x]
    for rule in enumerate_pure_rules(problem, max_rules):
        if sum(x * (table[i][s] - table[rule.rows[i][0][0]][s]) for i, s, x in cells) < 0:
            return False
    return True


# ---------------------------------------------------------------------------
# Simulation
# ---------------------------------------------------------------------------

def _thresholds(weights: Sequence[int], den: int) -> list[int]:
    # 64-bit inversion thresholds of a probability vector's numerators over
    # den, the last 2**64; exact for dyadic weights, otherwise the per-cell
    # bias is below 2**-64 and irrelevant at any feasible n.
    return [(acc << 64) // den for acc in accumulate(weights)]


def simulate(
    problem: DecisionProblem,
    strategy: Strategy,
    structure: InformationStructure,
    n: int,
    seed: int,
) -> JointDistribution:
    """Empirical joint law of n independent (state, signals, play) draws.

    The generator is seeded, so identical arguments give identical output.
    """
    _check_shapes(problem, strategy, structure)
    if n < 1:
        raise ValidationError("need at least one draw")
    rng = random.Random(seed)
    state_thresholds = _thresholds(structure.prior, structure.prior_den)
    signal_thresholds = [_thresholds(row, structure.kernel_den) for row in structure.kernel]
    play_thresholds = [_thresholds(row, strategy.den) for row in strategy.kernel]
    width = len(problem.states)
    counts = [0] * (len(problem.leaves) * width)
    for _ in range(n):  # each draw is the first cell whose threshold exceeds 64 random bits
        s = bisect_right(state_thresholds, rng.getrandbits(64))
        k = bisect_right(signal_thresholds[s], rng.getrandbits(64))
        i = bisect_right(play_thresholds[k], rng.getrandbits(64))
        counts[i * width + s] += 1
    return JointDistribution(problem.leaves, problem.states, counts, n)
