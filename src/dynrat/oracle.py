"""Independent verification machinery.

Everything here re-derives answers from first principles, without the linear
programs: the exact optimal value of a problem against an unnormalized
measure on signal sequences, by backward induction over signal prefixes and
histories (`_optimal_value`), the re-check of a verdict's certificate (a
dominating rule, or an obedient joint law whose leaves are the
recommendations) against its observation (`verify_witness`), and a
brute-force obedience check that loops over every pure deviation rule.
Laws and payoffs are read as their integers.  The module reaches neither
`rationalize` nor `lp`.  The test suite plays these against the LP-based
procedures; agreement is the package's main internal consistency guarantee.
Explicit information structures and strategies, their values and the
sampler live in `structures`, which builds on this module.
"""

from __future__ import annotations

from collections.abc import Sequence
from operator import mul
from typing import Union

from .deviation import (
    DEFAULT_MAX_RULES,
    DeviationRule,
    dominates,
    enumerate_pure_rules,
)
from .model import (
    DecisionProblem,
    JointDistribution,
    Observation,
    _chunks,
    _require_joint_shape,
    consistency,
)


def _optimal_value(
    problem: DecisionProblem, signal_seqs: Sequence[tuple[str, ...]], weights: Sequence[Sequence[int]]
) -> int:
    """Backward induction over signal prefixes and action histories.

    Works for any finite family of full-length signal sequences (product
    spaces or not).  Values are weighted by the unnormalized measure
    ``weights`` (``weights[k][s]`` on sequence k in state s), which
    sidesteps conditioning on zero-probability prefixes.  The utilities
    come from `DecisionProblem.integer_payoffs`, so the value is an integer
    over the weights' denominator times the payoffs'.  A sequence of weight
    0 adds 0 to every total of every group it joins, so the induction
    starts from the sequences with mass alone.

    At a history of t actions the agent has seen t + 1 signals, so it knows
    the group of sequences that share them.  Its value there is the best
    action's: a terminal action's is the group's payoff mass, any other's
    the sum of the next history's values over the group's subgroups.  The
    histories are valued children first, in reverse of the tree's document
    order, and each keeps its values summed by the shorter prefix that its
    parent reads, so no step recurses.
    """
    table, _ = problem.integer_payoffs
    branch_map = problem.tree.branch_map
    payoff_at = dict(zip(problem.leaves, table))  # by each leaf's label
    live = [k for k, row in enumerate(weights) if any(row)]
    by_length: dict[int, dict[tuple[str, ...], list[int]]] = {}
    sums: dict[tuple[str, ...], dict[tuple[str, ...], int]] = {}
    for history in reversed(branch_map):
        t = len(history) + 1
        groups = by_length.get(t)
        if groups is None:  # the live sequences by their first t signals
            groups = by_length[t] = {}
            for k in live:
                groups.setdefault(signal_seqs[k][:t], []).append(k)
        options = []
        for a in branch_map[history]:
            child = history + (a,)
            if child in branch_map:
                options.append(sums.pop(child))
            else:
                pay = payoff_at[",".join(child)]
                options.append({p: sum([sum(map(mul, weights[k], pay)) for k in ids])
                                for p, ids in groups.items()})
        total = sums[history] = {}
        for p in groups:
            total[p[:-1]] = total.get(p[:-1], 0) + max([o[p] for o in options])
    return sums[()].get((), 0)


def verify_obedient_optimality(problem: DecisionProblem, law: JointDistribution) -> bool:
    """Definitive witness check: with the law's leaves as recommendations,
    obeying them must be exactly optimal against the information they
    carry.  The law's cells are the measure the induction weighs by, so the
    obeyed and the best value are compared as integers at one scale."""
    _require_joint_shape(problem, law)
    weights = _chunks(law.cells, len(law.states))
    table, _ = problem.integer_payoffs
    obeyed = sum(w * u for row, pay in zip(weights, table) for w, u in zip(row, pay))
    best = _optimal_value(problem, problem.tree.paths, weights)
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
