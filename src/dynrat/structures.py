"""Information structures, strategies, their exact values and the sampler.

An `InformationStructure` (a prior and a kernel from states to signal
sequences) and a `Strategy` (an adapted kernel from signal sequences to
leaves) make the explicit triple that the `simulate` command samples.  On
these and `integer_payoffs` the module computes exact strategy values and
the best adapted strategy's value (by the oracle's backward induction,
`oracle._optimal_value`), and draws a seeded empirical joint law.
Structures, strategies and payoffs are read as their integers, and a
`Fraction` is built only for a value that is returned.  No query loads
this module: `dynrat` resolves its names on first access, and the CLI
imports it in its `simulate` branch alone.
"""

from __future__ import annotations

import random
from bisect import bisect_right
from collections.abc import Mapping, Sequence
from fractions import Fraction
from functools import cached_property
from itertools import accumulate, chain, product

from .deviation import _support_is_adapted
from .model import (
    DecisionProblem,
    Frozen,
    JointDistribution,
    Tree,
    ValidationError,
    _chunks,
    _common,
    _format,
    _leaf_weights,
    _lowest,
    _over_lcm,
    _ratio,
    _require_probability_numerators,
)
from .oracle import _optimal_value


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


class InformationStructure(Frozen):
    """A prior and a kernel from states to full signal sequences (one signal
    set per period, in product order), as integers in lowest terms:
    ``prior[s] / prior_den`` is the probability of ``states[s]``, and
    ``kernel[s][k] / kernel_den`` that of the k-th sequence in that state.
    """

    __match_args__ = ("states", "prior", "prior_den", "signal_sets", "kernel", "kernel_den")
    states: tuple[str, ...]
    prior: tuple[int, ...]
    prior_den: int
    signal_sets: tuple[tuple[str, ...], ...]
    kernel: tuple[tuple[int, ...], ...]
    kernel_den: int

    def __init__(self, states: tuple[str, ...], prior: tuple[int, ...], prior_den: int,
                 signal_sets: tuple[tuple[str, ...], ...], kernel: tuple[tuple[int, ...], ...],
                 kernel_den: int) -> None:
        if not signal_sets or any(not s for s in signal_sets):
            raise ValidationError("every period needs a nonempty signal set")
        for sset in signal_sets:
            if len(set(sset)) != len(sset):
                raise ValidationError("duplicate signal label in one period")
        if len(prior) != len(states) or prior_den <= 0:
            raise ValidationError("prior shape mismatch")
        _require_probability_numerators(prior, prior_den, "prior")
        vars(self).update(signal_sets=signal_sets)
        n = len(self.sequences)
        if len(kernel) != len(states) or any(len(r) != n for r in kernel) or kernel_den <= 0:
            raise ValidationError("signal kernel shape mismatch")
        for row in kernel:
            _require_probability_numerators(row, kernel_den, "signal kernel row")
        prior, prior_den = _lowest(prior, prior_den)
        kernel, kernel_den = _lowest(chain.from_iterable(kernel), kernel_den)
        vars(self).update(states=states, prior=prior, prior_den=prior_den,
                          kernel=_chunks(kernel, n), kernel_den=kernel_den)

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


class Strategy(Frozen):
    """An adapted kernel from signal sequences to the leaves of a tree, as
    integers in lowest terms: ``kernel[k][i] / den`` is the probability of
    playing ``leaves[i]`` after the k-th sequence.  Play through period t
    may depend only on the first t signals, one signal set per period; it is
    read from the tree's padded paths (`Tree.paths`).  The strategy keeps
    the tree's leaves."""

    __match_args__ = ("signal_sets", "leaves", "kernel", "den")
    signal_sets: tuple[tuple[str, ...], ...]
    leaves: tuple[str, ...]
    kernel: tuple[tuple[int, ...], ...]
    den: int

    def __init__(self, signal_sets: tuple[tuple[str, ...], ...], tree: Tree,
                 kernel: tuple[tuple[int, ...], ...], den: int) -> None:
        if tree.depth > len(signal_sets):
            raise ValidationError("strategy periods do not match the leaves")
        vars(self).update(signal_sets=signal_sets)
        n = len(tree.leaves)
        if len(kernel) != len(self.sequences) or any(len(r) != n for r in kernel) or den <= 0:
            raise ValidationError("strategy kernel shape mismatch")
        for row in kernel:
            _require_probability_numerators(row, den, "strategy row")
        support = [[(i, x) for i, x in enumerate(row) if x] for row in kernel]
        if not _support_is_adapted(_common(self.sequences), tree.paths, support):
            raise ValidationError("strategy is not adapted")
        kernel, den = _lowest(chain.from_iterable(kernel), den)
        vars(self).update(leaves=tree.leaves, kernel=_chunks(kernel, n), den=den)

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
            for i, q in _leaf_weights(problem, row, "strategy row", seq_id).items():
                kernel[first + i] = q
        nums, den = _over_lcm(kernel)
        return Strategy(signal_sets, problem.tree, _chunks(nums, n), den)

    def to_json_dict(self) -> dict:
        return {
            "signals": [list(s) for s in self.signal_sets],
            "kernel": {
                ",".join(seq): {leaf: _format(w, self.den)
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


def optimal_value_dp(problem: DecisionProblem, structure: InformationStructure) -> Fraction:
    """Exact value of the best adapted strategy against ``structure``."""
    if structure.states != problem.states:
        raise ValidationError("information structure states do not match the problem")
    _check_periods(problem, structure.signal_sets, "information structure")
    weights, wden = _weights(structure)
    best = _optimal_value(problem, structure.sequences, weights)
    return Fraction(best, wden * problem.integer_payoffs[1])


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
