"""Independent verification machinery.

Everything here re-derives answers from first principles, without the linear
programs: exact expected utility of an explicit (strategy, information
structure, prior) triple, exact optimal value by backward induction over
signal prefixes, the re-check of a verdict's certificate against its
observation (`verify_witness`), a brute-force obedience check that loops
over every pure deviation rule, and a seeded Monte-Carlo sampler.  The test
suite plays these against the LP-based procedures; agreement is the
package's main internal consistency guarantee.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import product
from typing import Mapping, Sequence, Union

from .deviation import (
    DEFAULT_MAX_RULES,
    AnyRule,
    dominates,
    enumerate_pure_rules,
    matrix_is_adapted,
)
from .model import (
    ActionSequence,
    DecisionProblem,
    JointDistribution,
    MarginalDistribution,
    Observation,
    ValidationError,
    format_rational,
    parse_rational,
    utility,
)
from .rationalize import ObedientTriple


# ---------------------------------------------------------------------------
# First-class information structures and strategies
# ---------------------------------------------------------------------------

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
        if any(p < 0 for p in self.prior) or sum(self.prior, Fraction(0)) != 1:
            raise ValidationError("prior must be a probability vector")
        n = len(self.sequences)
        if len(self.kernel) != len(self.states) or any(len(r) != n for r in self.kernel):
            raise ValidationError("signal kernel shape mismatch")
        for row in self.kernel:
            if any(w < 0 for w in row) or sum(row, Fraction(0)) != 1:
                raise ValidationError("signal kernel rows must be probability vectors")

    @cached_property
    def sequences(self) -> tuple[tuple[str, ...], ...]:
        return tuple(product(*self.signal_sets))

    @staticmethod
    def from_json_dict(problem: DecisionProblem, doc: Mapping) -> "InformationStructure":
        signal_sets = tuple(tuple(s) for s in doc["signals"])
        seqs = tuple(product(*signal_sets))
        seq_index = {",".join(s): i for i, s in enumerate(seqs)}
        prior = [Fraction(0)] * len(problem.states)
        for state, q in doc["prior"].items():
            if state not in problem.state_index:
                raise ValidationError(f"unknown state {state!r}")
            prior[problem.state_index[state]] = parse_rational(q)
        kernel = [[Fraction(0)] * len(seqs) for _ in problem.states]
        for state, row in doc["kernel"].items():
            if state not in problem.state_index:
                raise ValidationError(f"unknown state {state!r}")
            for seq_id, q in row.items():
                if seq_id not in seq_index:
                    raise ValidationError(f"unknown signal sequence {seq_id!r}")
                kernel[problem.state_index[state]][seq_index[seq_id]] = parse_rational(q)
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
    may depend only on the first t signals."""

    signal_sets: tuple[tuple[str, ...], ...]
    leaves: tuple[ActionSequence, ...]
    kernel: tuple[tuple[Fraction, ...], ...]

    def __post_init__(self) -> None:
        periods = len(self.signal_sets)
        if any(len(leaf.entries) != periods for leaf in self.leaves):
            raise ValidationError("strategy periods do not match the leaves")
        n_seq = len(self.sequences)
        if len(self.kernel) != n_seq or any(len(r) != len(self.leaves) for r in self.kernel):
            raise ValidationError("strategy kernel shape mismatch")
        for row in self.kernel:
            if any(w < 0 for w in row) or sum(row, Fraction(0)) != 1:
                raise ValidationError("strategy rows must be probability vectors")
        if not matrix_is_adapted(
            self.sequences, [l.entries for l in self.leaves], self.kernel, periods
        ):
            raise ValidationError("strategy is not adapted")

    @cached_property
    def sequences(self) -> tuple[tuple[str, ...], ...]:
        return tuple(product(*self.signal_sets))

    @staticmethod
    def from_json_dict(problem: DecisionProblem, doc: Mapping) -> "Strategy":
        signal_sets = tuple(tuple(s) for s in doc["signals"])
        seqs = tuple(product(*signal_sets))
        seq_index = {",".join(s): i for i, s in enumerate(seqs)}
        kernel = [[Fraction(0)] * len(problem.leaves) for _ in seqs]
        for seq_id, row in doc["kernel"].items():
            if seq_id not in seq_index:
                raise ValidationError(f"unknown signal sequence {seq_id!r}")
            for leaf, q in row.items():
                kernel[seq_index[seq_id]][problem.leaf_index[problem.sequence(leaf)]] = parse_rational(q)
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
    total = Fraction(0)
    for s, state in enumerate(problem.states):
        p = structure.prior[s]
        if p == 0:
            continue
        for k in range(len(structure.sequences)):
            w = structure.kernel[s][k]
            if w == 0:
                continue
            row = strategy.kernel[k]
            for i, leaf in enumerate(problem.leaves):
                if row[i] != 0:
                    total += p * w * row[i] * utility(problem, leaf, state)
    return total


def _optimal_value(
    problem: DecisionProblem,
    prior: Sequence[Fraction],
    signal_seqs: Sequence[tuple[str, ...]],
    kernel: Sequence[Sequence[Fraction]],
) -> Fraction:
    """Backward induction over signal prefixes and action histories.

    Works for any finite family of full-length signal sequences (product
    spaces or not).  Values are weighted by the unnormalized measure
    prior * kernel, which sidesteps conditioning on zero-probability prefixes.
    """
    utab = {
        leaf: tuple(utility(problem, leaf, s) for s in problem.states)
        for leaf in problem.leaves
    }
    weights = [
        [prior[s] * kernel[s][k] for s in range(len(problem.states))]
        for k in range(len(signal_seqs))
    ]
    pad_leaf = {leaf.history: leaf for leaf in problem.leaves}

    def terminal_mass(seq_ids: Sequence[int], history: tuple[str, ...]) -> Fraction:
        leaf = pad_leaf[history]
        total = Fraction(0)
        for k in seq_ids:
            for s in range(len(problem.states)):
                if weights[k][s] != 0:
                    total += weights[k][s] * utab[leaf][s]
        return total

    def act(seq_ids: Sequence[int], t: int, history: tuple[str, ...]) -> Fraction:
        # The agent has seen t signals and taken t-1 actions; chooses the next.
        best = None
        for a in problem.actions_at(history):
            h2 = history + (a,)
            if problem.is_terminal(h2):
                value = terminal_mass(seq_ids, h2)
            else:
                groups: dict[str, list[int]] = {}
                for k in seq_ids:
                    groups.setdefault(signal_seqs[k][t], []).append(k)
                value = sum(
                    (act(ids, t + 1, h2) for ids in groups.values()), Fraction(0)
                )
            if best is None or value > best:
                best = value
        return best

    groups: dict[str, list[int]] = {}
    for k in range(len(signal_seqs)):
        groups.setdefault(signal_seqs[k][0], []).append(k)
    return sum((act(ids, 1, ()) for ids in groups.values()), Fraction(0))


def optimal_value_dp(problem: DecisionProblem, structure: InformationStructure) -> Fraction:
    """Exact value of the best adapted strategy against ``structure``."""
    if structure.states != problem.states:
        raise ValidationError("information structure states do not match the problem")
    if problem.has_params:
        raise ValidationError("instantiate the problem's parameters first")
    return _optimal_value(problem, structure.prior, structure.sequences, structure.kernel)


def verify_obedient_optimality(problem: DecisionProblem, triple: ObedientTriple) -> bool:
    """Definitive witness check: obeying the triple's recommendations must be
    exactly optimal against the information they carry."""
    if triple.leaves != problem.leaves or triple.states != problem.states:
        raise ValidationError("triple shapes do not match the problem")
    obeyed = Fraction(0)
    for s, state in enumerate(problem.states):
        p = triple.prior[s]
        if p == 0:
            continue
        for i, leaf in enumerate(problem.leaves):
            w = triple.recommendation[s][i]
            if w != 0:
                obeyed += p * w * utility(problem, leaf, state)
    best = _optimal_value(
        problem,
        triple.prior,
        [leaf.entries for leaf in problem.leaves],
        triple.recommendation,
    )
    return obeyed == best


def verify_witness(
    problem: DecisionProblem, witness: Union[ObedientTriple, AnyRule], observed: Observation
) -> tuple[bool, str]:
    """Re-check a verdict's certificate against the observation, without LPs.

    A rule must dominate ``observed`` by the criterion of its kind.  Obeying
    a triple must be optimal, and the triple must induce the observation:
    positive mass on the sequence, or exactly the marginal or the joint law.
    Returns the outcome and a one-line reason.
    """
    if not isinstance(witness, ObedientTriple):
        ok = dominates(problem, witness, observed)
        return ok, "dominating rule re-checked" if ok else "rule does not dominate"
    if not verify_obedient_optimality(problem, witness):
        return False, "obeying the recommendations is not optimal"
    induced = witness.induced_joint()
    if isinstance(observed, JointDistribution):
        if induced != observed:
            return False, "witness induces a different joint law"
    elif isinstance(observed, MarginalDistribution):
        if induced.action_marginal() != observed:
            return False, "witness induces a different marginal"
    elif not any(induced.matrix[problem.leaf_index[problem.sequence(observed)]]):
        return False, "witness puts zero probability on the sequence"
    return True, "obedient triple re-checked"


def brute_force_rationalizable_joint(
    problem: DecisionProblem, joint: JointDistribution, max_rules: int = DEFAULT_MAX_RULES
) -> bool:
    """Obedience by exhaustion: no pure deviation rule gains on average."""
    utab = {
        leaf: tuple(utility(problem, leaf, s) for s in problem.states)
        for leaf in problem.leaves
    }
    cells = [
        (i, s, w)
        for i, row in enumerate(joint.matrix)
        for s, w in enumerate(row)
        if w != 0
    ]
    leaves = problem.leaves
    for rule in enumerate_pure_rules(problem, max_rules):
        total = Fraction(0)
        for i, s, w in cells:
            total += w * (utab[leaves[i]][s] - utab[rule.outputs[i]][s])
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
    counts = [[0] * len(problem.states) for _ in problem.leaves]
    for _ in range(n):
        s = _draw(rng, state_thresholds)
        k = _draw(rng, signal_thresholds[s])
        i = _draw(rng, play_thresholds[k])
        counts[i][s] += 1
    matrix = tuple(
        tuple(Fraction(c, n) for c in row) for row in counts
    )
    return JointDistribution(problem.leaves, problem.states, matrix)
