"""Independent verification machinery.

Everything here re-derives answers from first principles, without the linear
programs: exact expected utility of an explicit (strategy, information
structure, prior) triple, exact optimal value by backward induction over
signal prefixes, the re-check of a verdict's certificate (a dominating
rule, or an obedient joint law whose leaves are the recommendations)
against its observation (`verify_witness`), a brute-force obedience check
that loops over every pure deviation rule, and a seeded Monte-Carlo
sampler.  The module reaches neither `rationalize` nor `lp`.  The test
suite plays these against the LP-based procedures; agreement is the
package's main internal consistency guarantee.
"""

from __future__ import annotations

import random
from collections.abc import Mapping, Sequence
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import product
from typing import Union

from .deviation import (
    DEFAULT_MAX_RULES,
    DeviationRule,
    dominates,
    enumerate_pure_rules,
    matrix_is_adapted,
)
from .model import (
    ActionSequence,
    DecisionProblem,
    JointDistribution,
    Observation,
    ValidationError,
    _chunks,
    _leaf_weights,
    _over_lcm,
    _require_joint_shape,
    _require_probability_vector,
    consistency,
    format_rational,
    parse_rational,
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


@dataclass(frozen=True)
class InformationStructure:
    """A prior and a kernel from states to full signal sequences.

    Signals form a per-period product space; ``kernel[s][k]`` is the
    probability of the k-th sequence (product order) in state ``states[s]``.
    """

    states: tuple[str, ...]
    prior: tuple[Fraction, ...]
    signal_sets: tuple[tuple[str, ...], ...]
    kernel: tuple[tuple[Fraction, ...], ...]

    def __post_init__(self) -> None:
        if not self.signal_sets or any(not s for s in self.signal_sets):
            raise ValidationError("every period needs a nonempty signal set")
        for sset in self.signal_sets:
            if len(set(sset)) != len(sset):
                raise ValidationError("duplicate signal label in one period")
        if len(self.prior) != len(self.states):
            raise ValidationError("prior shape mismatch")
        _require_probability_vector(self.prior, "prior")
        n = len(self.sequences)
        if len(self.kernel) != len(self.states) or any(len(r) != n for r in self.kernel):
            raise ValidationError("signal kernel shape mismatch")
        for row in self.kernel:
            _require_probability_vector(row, "signal kernel row")

    @cached_property
    def sequences(self) -> tuple[tuple[str, ...], ...]:
        return tuple(product(*self.signal_sets))

    @staticmethod
    def from_json_dict(problem: DecisionProblem, doc: Mapping) -> "InformationStructure":
        signal_sets, seq_index = _signals(doc, "information structure")
        given = _field(doc, "prior", "information structure")
        if not isinstance(given, Mapping):
            raise ValidationError("information structure 'prior' must be an object")
        prior = [Fraction(0)] * len(problem.states)
        for state, q in given.items():
            prior[problem.state_position(state)] = parse_rational(q)
        kernel = [[Fraction(0)] * len(seq_index) for _ in problem.states]
        for state, row in _rows(doc, "information structure").items():
            s = problem.state_position(state)
            for seq_id, q in row.items():
                if seq_id not in seq_index:
                    raise ValidationError(f"unknown signal sequence {seq_id!r}")
                kernel[s][seq_index[seq_id]] = parse_rational(q)
        return InformationStructure(
            problem.states, tuple(prior), signal_sets, tuple(tuple(r) for r in kernel)
        )

    def to_json_dict(self) -> dict:
        return {
            "signals": [list(s) for s in self.signal_sets],
            "prior": {
                s: format_rational(p)
                for s, p in zip(self.states, self.prior) if p != 0
            },
            "kernel": {
                state: {
                    ",".join(seq): format_rational(w)
                    for seq, w in zip(self.sequences, row)
                    if w != 0
                }
                for state, row in zip(self.states, self.kernel)
            },
        }


@dataclass(frozen=True)
class Strategy:
    """An adapted kernel from signal sequences to leaves: play through period t
    may depend only on the first t signals, one signal set per period."""

    signal_sets: tuple[tuple[str, ...], ...]
    leaves: tuple[ActionSequence, ...]
    kernel: tuple[tuple[Fraction, ...], ...]

    def __post_init__(self) -> None:
        periods = len(self.signal_sets)
        if any(len(leaf.entries) > periods for leaf in self.leaves):
            raise ValidationError("strategy periods do not match the leaves")
        n_seq = len(self.sequences)
        if len(self.kernel) != n_seq or any(len(r) != len(self.leaves) for r in self.kernel):
            raise ValidationError("strategy kernel shape mismatch")
        for row in self.kernel:
            _require_probability_vector(row, "strategy row")
        if not matrix_is_adapted(
            self.sequences, [l.entries for l in self.leaves], self.kernel, periods
        ):
            raise ValidationError("strategy is not adapted")

    @cached_property
    def sequences(self) -> tuple[tuple[str, ...], ...]:
        return tuple(product(*self.signal_sets))

    @staticmethod
    def from_json_dict(problem: DecisionProblem, doc: Mapping) -> "Strategy":
        signal_sets, seq_index = _signals(doc, "strategy")
        kernel = [[Fraction(0)] * len(problem.leaves) for _ in seq_index]
        for seq_id, row in _rows(doc, "strategy").items():
            if seq_id not in seq_index:
                raise ValidationError(f"unknown signal sequence {seq_id!r}")
            for i, q in _leaf_weights(problem, row, f"strategy row {seq_id!r}").items():
                kernel[seq_index[seq_id]][i] = Fraction(*q)
        return Strategy(signal_sets, problem.leaves, tuple(tuple(r) for r in kernel))

    def to_json_dict(self) -> dict:
        return {
            "signals": [list(s) for s in self.signal_sets],
            "kernel": {
                ",".join(seq): {
                    leaf.label: format_rational(w)
                    for leaf, w in zip(self.leaves, row)
                    if w != 0
                }
                for seq, row in zip(self.sequences, self.kernel)
            },
        }


def _check_shapes(problem: DecisionProblem, strategy: Strategy, structure: InformationStructure) -> None:
    if len(strategy.signal_sets) != problem.tree.periods:
        raise ValidationError("strategy periods do not match the leaves")
    if structure.states != problem.states:
        raise ValidationError("information structure states do not match the problem")
    if strategy.leaves != problem.leaves:
        raise ValidationError("strategy leaves do not match the problem")
    if strategy.signal_sets != structure.signal_sets:
        raise ValidationError("strategy and information structure use different signals")


# ---------------------------------------------------------------------------
# Exact evaluation
# ---------------------------------------------------------------------------

def strategy_value(
    problem: DecisionProblem, strategy: Strategy, structure: InformationStructure
) -> Fraction:
    """Exact ex-ante expected utility of following ``strategy``."""
    _check_shapes(problem, strategy, structure)
    pay = problem.payoffs
    total = Fraction(0)
    for s in range(len(problem.states)):
        p = structure.prior[s]
        if p == 0:
            continue
        for k in range(len(structure.sequences)):
            w = structure.kernel[s][k]
            if w == 0:
                continue
            row = strategy.kernel[k]
            for i in range(len(problem.leaves)):
                if row[i] != 0:
                    total += p * w * row[i] * pay[i][s]
    return total


def _weights(
    prior: Sequence[Fraction], kernel: Sequence[Sequence[Fraction]]
) -> tuple[list[list[int]], int]:
    """The unnormalized measure prior * kernel, signal sequence by state:
    ``(weights, den)`` with ``weights[k][s] / den == prior[s] * kernel[s][k]``,
    the prior and the kernel each over one lcm of its own."""
    ps, pden = _over_lcm([p.as_integer_ratio() for p in prior])
    ks, kden = _over_lcm([w.as_integer_ratio() for row in kernel for w in row])
    width = len(kernel[0])
    return [[p * ks[s * width + k] for s, p in enumerate(ps)] for k in range(width)], pden * kden


def _optimal_value(
    problem: DecisionProblem, signal_seqs: Sequence[tuple[str, ...]], weights: Sequence[Sequence[int]]
) -> int:
    """Backward induction over signal prefixes and action histories.

    Works for any finite family of full-length signal sequences (product
    spaces or not).  Values are weighted by the unnormalized measure
    ``weights`` (see `_weights`), which sidesteps conditioning on
    zero-probability prefixes.  The utilities come from
    `DecisionProblem.integer_payoffs`, so the value is an integer over the
    weights' denominator times the payoffs'.
    """
    table, _ = problem.integer_payoffs
    tree = problem.tree
    utab = dict(zip(problem.leaves, table))
    pad_leaf = {leaf.history: leaf for leaf in problem.leaves}

    def terminal_mass(seq_ids: Sequence[int], history: tuple[str, ...]) -> int:
        pay = utab[pad_leaf[history]]
        return sum(w * u for k in seq_ids for w, u in zip(weights[k], pay))

    def act(seq_ids: Sequence[int], t: int, history: tuple[str, ...]) -> int:
        # The agent has seen t signals and taken t-1 actions; chooses the next.
        best = None
        for a in tree.actions_at(history):
            h2 = history + (a,)
            if tree.is_terminal(h2):
                value = terminal_mass(seq_ids, h2)
            else:
                groups: dict[str, list[int]] = {}
                for k in seq_ids:
                    groups.setdefault(signal_seqs[k][t], []).append(k)
                value = sum(act(ids, t + 1, h2) for ids in groups.values())
            if best is None or value > best:
                best = value
        return best

    groups: dict[str, list[int]] = {}
    for k in range(len(signal_seqs)):
        groups.setdefault(signal_seqs[k][0], []).append(k)
    return sum(act(ids, 1, ()) for ids in groups.values())


def optimal_value_dp(problem: DecisionProblem, structure: InformationStructure) -> Fraction:
    """Exact value of the best adapted strategy against ``structure``."""
    if structure.states != problem.states:
        raise ValidationError("information structure states do not match the problem")
    weights, wden = _weights(structure.prior, structure.kernel)
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
    is rewritten into."""
    utab = problem.payoffs
    width = len(problem.states)
    cells = [(k // width, k % width, Fraction(x, joint.den))
             for k, x in enumerate(joint.cells) if x]
    for rule in enumerate_pure_rules(problem, max_rules):
        total = Fraction(0)
        for i, s, w in cells:
            total += w * (utab[i][s] - utab[rule.rows[i][0][0]][s])
        if total < 0:
            return False
    return True


# ---------------------------------------------------------------------------
# Simulation
# ---------------------------------------------------------------------------

def _thresholds(weights: Sequence[Fraction]) -> list[int]:
    # 64-bit inversion thresholds; exact for dyadic weights, otherwise the
    # per-cell bias is below 2**-64 and irrelevant at any feasible n.
    scale = 1 << 64
    acc = Fraction(0)
    out = []
    for w in weights:
        acc += w
        out.append((acc.numerator * scale) // acc.denominator)
    if out:
        out[-1] = scale
    return out


def _draw(rng: random.Random, thresholds: list[int]) -> int:
    x = rng.getrandbits(64)
    for i, t in enumerate(thresholds):
        if x < t:
            return i
    return len(thresholds) - 1


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
    state_thresholds = _thresholds(structure.prior)
    signal_thresholds = [_thresholds(row) for row in structure.kernel]
    play_thresholds = [_thresholds(row) for row in strategy.kernel]
    width = len(problem.states)
    counts = [0] * (len(problem.leaves) * width)
    for _ in range(n):
        s = _draw(rng, state_thresholds)
        k = _draw(rng, signal_thresholds[s])
        i = _draw(rng, play_thresholds[k])
        counts[i * width + s] += 1
    return JointDistribution(problem.leaves, problem.states, counts, n)
