"""Degenerate and larger instances that lean on the solver's anti-cycling.

Tie-heavy integer payoffs force many pivots on zero-length steps, and larger
trees grow the programs, and the brute-force checks of their witnesses, well
past the acceptance-suite sizes.
"""

import random
from fractions import Fraction as F

from dynrat import deviation as dv
from dynrat import model as m
from dynrat import oracle as oc
from dynrat import rationalize as rz
from dynrat import structures as st

from conftest import (
    exhaustive_optimal_value,
    fraction_matrix,
    random_joint,
    random_marginal,
    random_problem,
    strategy_of,
    structure_of,
)


def test_dichotomies_with_tie_heavy_payoffs():
    # payoffs restricted to {-1, 0, 1}: most comparisons tie exactly
    rng = random.Random(2024)
    for i in range(40):
        p = random_problem(rng, max_rules=300, denom_cap=1, value_cap=1)
        for leaf in p.leaves:
            verdict = rz.decide(p, leaf)
            if verdict.rationalizable:
                assert oc.verify_obedient_optimality(p, verdict.witness), (i, leaf)
                joint = verdict.witness
                assert sum(fraction_matrix(joint)[p.tree.leaf_position(leaf)], F(0)) > 0
            else:
                assert dv.dominates(p, verdict.witness, leaf), (i, leaf)
        joint = random_joint(rng, p)
        assert (rz.dominating_rule(p, joint) is None) == \
            oc.brute_force_rationalizable_joint(p, joint)
        marginal = random_marginal(rng, p)
        verdict = rz.decide(p, marginal)
        if verdict.rationalizable:
            assert oc.verify_obedient_optimality(p, verdict.witness), i
            assert verdict.witness.action_marginal() == marginal
        else:
            assert dv.dominates(p, verdict.witness, marginal), i


def test_dichotomies_on_larger_instances():
    # rule counts past the acceptance-suite cap; two leaves per instance keep
    # the oracle's checks large without repeating criterion 4 wholesale
    rng = random.Random(2025)
    done = 0
    while done < 4:
        p = random_problem(rng, max_leaves=7, min_leaves=5, max_rules=500)
        if dv.count_pure_rules(p) < 300:
            continue
        done += 1
        for leaf in (p.leaves[0], p.leaves[-1]):
            verdict = rz.decide(p, leaf)
            if not verdict.rationalizable:
                assert dv.dominates(p, verdict.witness, leaf)
            else:
                joint = verdict.witness
                assert sum(fraction_matrix(joint)[p.tree.leaf_position(leaf)], F(0)) > 0
                assert oc.brute_force_rationalizable_joint(p, joint)


def test_constant_payoffs_make_everything_rationalizable():
    import json
    doc = {"periods": 2, "states": ["u", "v"],
           "tree": {"a": {"a": "leaf", "b": "leaf"}, "b": "leaf"},
           "utility": {"a,a": {"u": 1, "v": 1}, "a,b": {"u": 1, "v": 1},
                       "b": {"u": 1, "v": 1}}}
    flat = m.load_problem(json.dumps(doc))
    for leaf in flat.leaves:
        assert rz.dominating_rule(flat, leaf) is None
        assert rz.apparently_dominated(flat, leaf) is None
        assert rz.max_positive_marginal(flat, leaf)[0] == 1
    marginal = m.MarginalDistribution.from_mapping(
        flat, {leaf: F(1, 3) for leaf in flat.leaves})
    assert rz.dominating_rule(flat, marginal) is None


def test_dp_dominates_random_adapted_strategies():
    rng = random.Random(77)
    for _ in range(12):
        p = random_problem(rng, max_periods=2, max_actions=2, max_states=2,
                           max_leaves=3, max_rules=100)
        sets = tuple(tuple(f"t{t}{k}" for k in range(rng.randint(1, 2)))
                     for t in range(p.tree.periods))
        n_seq = 1
        for s in sets:
            n_seq *= len(s)
        kernel = []
        for _ in p.states:
            raw = [rng.randint(0, 4) for _ in range(n_seq)]
            if sum(raw) == 0:
                raw[0] = 1
            kernel.append(tuple(F(x, sum(raw)) for x in raw))
        raw = [rng.randint(1, 4) for _ in p.states]
        prior = tuple(F(x, sum(raw)) for x in raw)
        structure = structure_of(p.states, prior, sets, tuple(kernel))
        best = st.optimal_value_dp(p, structure)

        # pure adapted maps are adapted strategies; none beat the DP value
        pure_values = []
        seqs = structure.sequences
        for _ in range(8):
            mapping = _random_adapted_strategy(rng, p, seqs)
            rows = []
            for k in range(len(seqs)):
                row = [F(0)] * len(p.leaves)
                row[p.tree.leaf_position(mapping[k])] = F(1)
                rows.append(tuple(row))
            strategy = strategy_of(sets, p.tree, tuple(rows))
            value = st.strategy_value(p, strategy, structure)
            pure_values.append(value)
            assert value <= best
        assert max(pure_values) <= best
        assert best == exhaustive_optimal_value(p, structure)


def _random_adapted_strategy(rng, problem, seqs):
    """Map each signal sequence to a leaf, prefix-consistently."""
    from dynrat.model import PAD

    T = problem.tree.depth

    def leaf_children(prefix):
        history = tuple(e for e in prefix if e != PAD)
        if PAD in prefix or history not in problem.tree.branch_map:
            return [prefix + (PAD,)]
        return [prefix + (a,) for a in problem.tree.branch_map[history]]

    mapping: dict[int, tuple[str, ...]] = {}  # signal sequence -> padded path

    def walk(ids, t, out_prefix):
        if t == T:
            for k in ids:
                mapping[k] = out_prefix
            return
        groups: dict[str, list[int]] = {}
        for k in ids:
            groups.setdefault(seqs[k][t], []).append(k)
        for group in groups.values():
            walk(group, t + 1, rng.choice(leaf_children(out_prefix)))

    groups: dict[str, list[int]] = {}
    for k in range(len(seqs)):
        groups.setdefault(seqs[k][0], []).append(k)
    for group in groups.values():
        walk(group, 1, rng.choice(leaf_children(())))
    return mapping
