import itertools
import json
import math
import random
from fractions import Fraction as F

import pytest

from dynrat import deviation as dv
from dynrat import model as m

from conftest import (
    complete_tree_doc,
    compose,
    fraction_matrix,
    gains,
    improvement,
    joint_dominance_optimum,
    lottery_utility,
    random_joint,
    random_marginal,
    random_problem,
    random_pure_rule,
    random_rule,
    reference_best_joint_deviation,
    reference_rule_count,
    strategy_of,
    utility,
)


def all_to(problem, label):
    return dv.DeviationRule.from_mapping(
        problem, {leaf: label for leaf in problem.leaves}
    )


def test_is_adapted_investment_examples(example1):
    eager = {"invest,pull_back": "not_invest", "invest,invest": "invest,invest",
             "not_invest": "not_invest"}
    assert not dv.is_adapted(example1, eager)
    cautious = {"invest,pull_back": "not_invest", "invest,invest": "not_invest",
                "not_invest": "not_invest"}
    assert dv.is_adapted(example1, cautious)


def test_kernel_matrix_refuses_floats_and_bools(example1):
    # a kernel given as a matrix reads its entries as a mapping's are read
    for entry in (0.5, True):
        with pytest.raises(m.ParseError):
            dv.DeviationRule.from_mapping(example1, [[entry, 1 - entry, 0], [0, 1, 0], [0, 0, 1]])
    rule = dv.DeviationRule.from_mapping(example1, [["1/2", "1/2", 0], [0, 1, 0], [0, 0, 1]])
    assert fraction_matrix(rule)[0] == (F(1, 2), F(1, 2), 0)


def test_is_adapted_hedge_example(example2):
    hedge = {"w,x": {"x": "1/2", "y": "1/2"}, "w,y": {"x": "1/2", "y": "1/2"},
             "x": "y", "y": "y"}
    assert dv.is_adapted(example2, hedge)
    swap = {"w,x": "x", "w,y": "y", "x": "x", "y": "y"}
    assert not dv.is_adapted(example2, swap)


def test_is_adapted_requires_stochastic_rows(example1):
    with pytest.raises(m.ValidationError, match="sum"):
        dv.is_adapted(example1, {l: {l: "1/2"} for l in example1.leaves})


def test_enumeration_counts(example1, example2):
    assert len(dv.enumerate_pure_rules(example1)) == 15
    assert len(dv.enumerate_pure_rules(example2)) == 96
    for n in (1, 2, 3):
        tree = {chr(97 + i): "leaf" for i in range(n)}
        doc = {"periods": 1, "states": ["s"], "tree": tree,
               "utility": {k: {"s": 0} for k in tree}}
        import json
        static = m.load_problem(json.dumps(doc))
        assert len(dv.enumerate_pure_rules(static)) == n ** n


def test_enumeration_properties(example1):
    rules = dv.enumerate_pure_rules(example1)
    assert len(set(r.rows for r in rules)) == len(rules)
    assert all(r.den == 1 and all(len(row) == 1 for row in r.rows) for r in rules)
    assert sum(1 for r in rules if r == dv.identity_rule(example1)) == 1
    for r in rules:
        assert dv.is_adapted(example1, fraction_matrix(r))
    assert dv.enumerate_pure_rules(example1) == rules  # stable order


def test_enumeration_matches_reference_count():
    rng = random.Random(23)
    for _ in range(25):
        p = random_problem(rng, max_rules=250)
        assert len(dv.enumerate_pure_rules(p)) == reference_rule_count(p)


def test_size_guard(example2):
    with pytest.raises(dv.SizeGuardError) as err:
        dv.enumerate_pure_rules(example2, max_rules=10)
    assert err.value.count == 96


def test_compose_identity_laws(example1):
    ident = dv.identity_rule(example1)
    north = all_to(example1, "not_invest")
    assert fraction_matrix(compose(example1, ident, north)) == fraction_matrix(north)
    assert fraction_matrix(compose(example1, north, ident)) == fraction_matrix(north)
    # a constant rule absorbs whatever runs first
    assert fraction_matrix(compose(example1, north, dv.identity_rule(example1))) == fraction_matrix(north)


def test_compose_closure_and_associativity():
    rng = random.Random(31)
    for _ in range(15):
        p = random_problem(rng, max_rules=250)
        d1, d2, d3 = (random_rule(rng, p) for _ in range(3))
        c = compose(p, d1, d2)  # construction validates adaptedness
        assert dv.is_adapted(p, fraction_matrix(c))
        assert fraction_matrix(compose(p, d1, compose(p, d2, d3))) == fraction_matrix(
            compose(p, compose(p, d1, d2), d3))


def test_improvement_values(example1, example2):
    north = all_to(example1, "not_invest")
    assert improvement(
        example1, north, example1.sequence("invest,invest"), "good"
    ) == F(-2)
    ident = dv.identity_rule(example1)
    for a in example1.leaves:
        for s in example1.states:
            assert improvement(example1, ident, a, s) == 0
    half = m.instantiate(example2, {"delta": "1/2"})
    hedge = dv.DeviationRule.from_mapping(half, {
        "w,x": {"x": "1/2", "y": "1/2"}, "w,y": {"x": "1/2", "y": "1/2"},
        "x": "x", "y": "y"})
    # half-and-half rewrite of waiting: gain 4 - 5*delta in the matching state
    assert improvement(half, hedge, half.sequence("w,x"), "X") == F(3, 2)
    assert improvement(half, hedge, half.sequence("w,x"), "Y") == F(5, 2)


def test_improvement_table_for_one_sided_rewrites(example2):
    half = m.instantiate(example2, {"delta": "1/2"})
    wx = half.sequence("w,x")
    to_x = dv.DeviationRule.from_mapping(
        half, {"w,x": "x", "w,y": "x", "x": "x", "y": "y"})
    to_y = dv.DeviationRule.from_mapping(
        half, {"w,x": "y", "w,y": "y", "x": "x", "y": "y"})
    assert improvement(half, to_x, wx, "X") == F(5, 2)   # 5 - 5d
    assert improvement(half, to_x, wx, "Y") == F(3, 2)   # 3 - 3d
    assert improvement(half, to_y, wx, "X") == F(1, 2)   # 3 - 5d
    assert improvement(half, to_y, wx, "Y") == F(7, 2)   # 5 - 3d
    # mixing the two rewrites mixes the improvements entry-wise
    lam = F(3, 4)
    mixed = dv.DeviationRule.from_mapping(half, {
        "w,x": {"x": lam, "y": 1 - lam}, "w,y": {"x": lam, "y": 1 - lam},
        "x": "x", "y": "y"})
    for state in half.states:
        assert improvement(half, mixed, wx, state) == lam * improvement(
            half, to_x, wx, state
        ) + (1 - lam) * improvement(half, to_y, wx, state)


def test_dominates_sequence(example1, example2):
    half = m.instantiate(example2, {"delta": "1/2"})
    hedge = dv.DeviationRule.from_mapping(half, {
        "w,x": {"x": "1/2", "y": "1/2"}, "w,y": {"x": "1/2", "y": "1/2"},
        "x": "x", "y": "y"})
    assert dv.dominates(half, hedge, half.sequence("w,x"))
    assert dv.dominates(half, hedge, half.sequence("w,y"))
    north = all_to(example1, "not_invest")
    assert not dv.dominates(example1, north, example1.sequence("invest,pull_back"))
    for a in example1.leaves:
        assert not dv.dominates(example1, dv.identity_rule(example1), a)


def test_dominates_joint(example1):
    north = all_to(example1, "not_invest")
    point = m.JointDistribution.from_mapping(example1, {("invest,pull_back", "good"): 1})
    assert dv.dominates(example1, north, point)
    knife_edge = m.JointDistribution.from_mapping(example1, {
        ("invest,pull_back", "bad"): "1/2",
        ("invest,pull_back", "good"): "1/6",
        ("invest,invest", "good"): "1/3",
    })
    assert not dv.dominates(example1, north, knife_edge)
    assert not dv.dominates(example1, dv.identity_rule(example1), point)


def test_dominates_marginal(example1):
    north = all_to(example1, "not_invest")
    heavy = m.MarginalDistribution.from_mapping(
        example1, {"invest,pull_back": "3/4", "invest,invest": "1/4"})
    knife = m.MarginalDistribution.from_mapping(
        example1, {"invest,pull_back": "2/3", "invest,invest": "1/3"})
    assert dv.dominates(example1, north, heavy)
    assert not dv.dominates(example1, north, knife)


def per_cell_improvement(problem, rule, a, s):
    """A rule's gain at one leaf and state, one lottery at a time."""
    kernel_row = fraction_matrix(rule)[rule.leaves.index(a)]
    row = {b: w for b, w in zip(rule.leaves, kernel_row) if w != 0}
    return lottery_utility(problem, row, s) - utility(problem, a, s)


def per_cell_dominates_joint(problem, rule, joint):
    return sum((w * per_cell_improvement(problem, rule, a, s)
                for a, row in zip(joint.leaves, fraction_matrix(joint))
                for s, w in zip(joint.states, row) if w), F(0)) > 0


def per_cell_dominates_marginal(problem, rule, marginal):
    return sum((F(w, marginal.den) * min(per_cell_improvement(problem, rule, a, s)
                                         for s in problem.states)
                for a, w in zip(marginal.leaves, marginal.weights) if w), F(0)) > 0


def per_cell_dominates_sequence(problem, rule, a):
    return all(per_cell_improvement(problem, rule, b, s) >= 0
               for b in problem.leaves for s in problem.states) and all(
        per_cell_improvement(problem, rule, a, s) > 0 for s in problem.states)


def test_gains_match_the_per_cell_formula():
    rng = random.Random(71)
    padded = 0
    verdicts = {"joint": set(), "marginal": set(), "sequence": set()}
    for _ in range(60):
        p = random_problem(rng, max_leaves=6)
        padded += any(m.PAD in path for path in p.tree.paths)
        for rule in (random_rule(rng, p), random_pure_rule(rng, p), dv.identity_rule(p)):
            assert gains(p, rule) == tuple(
                tuple(per_cell_improvement(p, rule, a, s) for s in p.states) for a in p.leaves)
            joint, marginal = random_joint(rng, p), random_marginal(rng, p)
            want = per_cell_dominates_joint(p, rule, joint)
            assert dv.dominates(p, rule, joint) == want
            verdicts["joint"].add(want)
            want = per_cell_dominates_marginal(p, rule, marginal)
            assert dv.dominates(p, rule, marginal) == want
            verdicts["marginal"].add(want)
            for a in p.leaves:
                want = per_cell_dominates_sequence(p, rule, a)
                assert dv.dominates(p, rule, a) == want
                verdicts["sequence"].add(want)
    # padded trees were drawn, and every criterion said both yes and no
    assert padded and all(seen == {True, False} for seen in verdicts.values())


def test_integer_sign_tests_match_fraction_arithmetic():
    # the criteria run on integer gains: their verdicts must be those of
    # plain Fraction arithmetic, for rules whose rows have different
    # denominators, fractional marginal weights, and weights that make the
    # criterion exactly zero (no domination) or tip it either way
    rng = random.Random(89)
    mixed_rows = knife_edges = 0
    verdicts = {"joint": set(), "marginal": set(), "sequence": set()}
    tips = (F(0), F(1, 10**12), F(-1, 10**12))
    for _ in range(40):
        p = random_problem(rng, max_leaves=6)
        rule = compose(p, random_rule(rng, p), random_rule(rng, p))
        mixed_rows += len({math.lcm(*(w.denominator for w in row))
                           for row in fraction_matrix(rule)}) > 1
        cells = [(a, s) for a in p.leaves for s in p.states]
        gain = {(a, s): per_cell_improvement(p, rule, a, s) for a, s in cells}
        assert gains(p, rule) == tuple(tuple(gain[a, s] for s in p.states) for a in p.leaves)
        raw = {a: F(rng.randint(1, 9), rng.randint(1, 9)) for a in p.leaves}
        marginals = [m.MarginalDistribution.from_mapping(
            p, {a: w / sum(raw.values()) for a, w in raw.items()})]
        joints = [random_joint(rng, p)]
        worst = {a: min(gain[a, s] for s in p.states) for a in p.leaves}
        for pairs, laws, make in (
                ([(a, b) for a in p.leaves for b in p.leaves if worst[a] > 0 > worst[b]],
                 marginals, lambda a, b, w: m.MarginalDistribution.from_mapping(
                     p, {a: w, b: 1 - w})),
                ([(c, d) for c in cells for d in cells if gain[c] > 0 > gain[d]],
                 joints, lambda c, d, w: m.JointDistribution.from_mapping(
                     p, {c: w, d: 1 - w}))):
            if not pairs:
                continue
            knife_edges += 1
            x, y = pairs[0]
            gx, gy = (worst[x], worst[y]) if laws is marginals else (gain[x], gain[y])
            edge = -gy / (gx - gy)  # edge * gx + (1 - edge) * gy == 0
            laws += [make(x, y, edge + tip) for tip in tips]
        for marginal in marginals:
            want = per_cell_dominates_marginal(p, rule, marginal)
            assert dv.dominates(p, rule, marginal) == want
            verdicts["marginal"].add(want)
        for joint in joints:
            want = per_cell_dominates_joint(p, rule, joint)
            assert dv.dominates(p, rule, joint) == want
            verdicts["joint"].add(want)
        for laws in (marginals, joints):
            if len(laws) > 1:  # exactly zero, tipped up, tipped down
                assert [dv.dominates(p, rule, law) for law in laws[-3:]] == [False, True, False]
        for a in p.leaves:
            want = per_cell_dominates_sequence(p, rule, a)
            assert dv.dominates(p, rule, a) == want
            verdicts["sequence"].add(want)
    assert mixed_rows and knife_edges
    assert all(seen == {True, False} for seen in verdicts.values())


def test_gains_refuse_mismatched_inputs(example1, example2):
    half = m.instantiate(example2, {"delta": "1/2"})
    with pytest.raises(m.ValidationError, match="leaves"):
        gains(half, dv.identity_rule(example1))
    with pytest.raises(m.ValidationError, match="unknown state"):
        improvement(example1, dv.identity_rule(example1), example1.leaves[0], "meh")
    with pytest.raises(m.ValidationError, match="instantiate"):
        example2.integer_payoffs
    point = m.JointDistribution.from_mapping(example1, {("not_invest", "good"): 1})
    with pytest.raises(m.ValidationError, match="shapes"):
        dv.dominates(half, dv.identity_rule(half), point)
    with pytest.raises(m.ValidationError, match="leaves"):
        dv.dominates(half, dv.identity_rule(half), point.action_marginal())


def test_point_mass_marginal_reduces_to_worst_state():
    rng = random.Random(47)
    for _ in range(15):
        p = random_problem(rng, max_rules=250)
        rule = random_rule(rng, p)
        for a in p.leaves:
            point = m.MarginalDistribution.from_mapping(p, {a: 1})
            worst = min(improvement(p, rule, a, s) for s in p.states)
            assert dv.dominates(p, rule, point) == (worst > 0)


def test_dominance_strictness_chain():
    rng = random.Random(53)
    hits = 0
    for _ in range(40):
        p = random_problem(rng, max_rules=250)
        rule = random_pure_rule(rng, p)
        for a in p.leaves:
            if not dv.dominates(p, rule, a):
                continue
            hits += 1
            point = m.MarginalDistribution.from_mapping(p, {a: 1})
            assert dv.dominates(p, rule, point)
            joint = m.JointDistribution.from_mapping(
                p, {(a, s): F(1, len(p.states)) for s in p.states})
            assert dv.dominates(p, rule, joint)
    assert hits > 0  # the sweep actually exercised the chain


def test_rule_serialization_round_trip(example2):
    half = m.instantiate(example2, {"delta": "1/2"})
    rng = random.Random(3)
    for _ in range(5):
        rule = random_rule(rng, half)
        again = dv.DeviationRule.from_mapping(half, rule.to_json_dict())
        assert again == rule
    pure = random_pure_rule(rng, half)
    assert dv.DeviationRule.from_mapping(half, pure.to_json_dict()) == pure


def test_kernel_row_refuses_an_output_given_twice(example1):
    # two spellings of one output leaf are refused, not summed into the identity
    kernel = {"not_invest": {"not_invest": "1/2", "not_invest,_": "1/2"},
              "invest,pull_back": "invest,pull_back", "invest,invest": "invest,invest"}
    with pytest.raises(m.ValidationError, match="'not_invest' of row 'not_invest' given twice"):
        dv.DeviationRule.from_mapping(example1, kernel)
    with pytest.raises(m.ValidationError, match="given twice"):
        dv.is_adapted(example1, kernel)
    kernel["not_invest"] = {"not_invest": "1"}
    assert dv.DeviationRule.from_mapping(example1, kernel) == dv.identity_rule(example1)


def test_unadapted_pure_mapping_rejected(example1):
    with pytest.raises(m.ValidationError, match="adapted"):
        dv.DeviationRule.from_mapping(example1, {
            "invest,pull_back": "not_invest",
            "invest,invest": "invest,invest",
            "not_invest": "not_invest",
        })


def dense_matrix_is_adapted(in_seqs, out_seqs, matrix, periods):
    """Adaptedness by summing every entry of every row over every output
    prefix group, zeros included."""
    def groups(seqs, t):
        found = {}
        for i, seq in enumerate(seqs):
            found.setdefault(seq[:t], []).append(i)
        return list(found.values())

    for t in range(1, periods):
        out_groups = groups(out_seqs, t)
        for in_group in groups(in_seqs, t):
            ref = [sum(matrix[in_group[0]][j] for j in og) for og in out_groups]
            for i in in_group[1:]:
                if [sum(matrix[i][j] for j in og) for og in out_groups] != ref:
                    return False
    return True


def moved_kernels(rng, kernel):
    """``kernel`` and copies with part of one entry's mass moved to another
    entry of its row, in that row or in a run of neighbouring rows from it,
    and signed copies, whose rows keep their sums and may gain a zero sum."""
    kernels = [kernel]
    for _ in range(4):
        i = rng.randrange(len(kernel))
        j = rng.choice([j for j, w in enumerate(kernel[i]) if w])
        k = rng.randrange(len(kernel[i]))
        d = kernel[i][j] * F(rng.randint(1, 4), 4)
        moved, signed, run = ([list(row) for row in kernel] for _ in range(3))
        moved[i][j] -= d
        moved[i][k] += d
        signed[i][k] += d
        signed[i][rng.randrange(len(kernel[i]))] -= d
        for row in run[i:rng.randint(i, len(kernel) - 1) + 1]:
            row[j] -= d
            row[k] += d
        kernels += [moved, signed, run]
    return kernels


def random_strategy_kernel(rng, problem, signal_sets):
    """The signal sequences of ``signal_sets`` in product order, and a
    mixture of a few pure strategies over them, each of which picks its
    period-t action from the first t signals and the actions before it."""
    seqs = list(itertools.product(*signal_sets))
    kernel = [[F(0)] * len(problem.leaves) for _ in seqs]
    raw = [rng.randint(1, 5) for _ in range(rng.randint(1, 3))]
    for x in raw:
        picks = {}
        for row, seq in zip(kernel, seqs):
            history = ()
            while history in problem.tree.branch_map:
                key = (seq[:len(history) + 1], history)
                if key not in picks:
                    picks[key] = rng.choice(problem.tree.branch_map[history])
                history += (picks[key],)
            row[problem.tree.leaf_position(history)] += F(x, sum(raw))
    return seqs, kernel


def test_sparse_adaptedness_matches_dense_reference():
    # ties between neighbouring inputs at the level they share decide
    # adaptedness as the dense reference does, which compares every pair of
    # inputs sharing a prefix at every level: for rules on random trees and
    # on trees 4 to 6 deep, chains among them, and for the strategy shape,
    # signal sequences in product order over more periods than the tree is
    # deep, mapped to leaves
    rng = random.Random(61)
    shallow = [random_problem(rng, max_leaves=6) for _ in range(60)]
    deep = []
    while len(deep) < 10:
        p = random_problem(rng, max_periods=6, max_leaves=8, max_rules=10**9)
        deep += [p] * (p.tree.depth >= 4)
    for depth in (4, 5, 6):  # a b leaf and a c branch at each level, a c leaf at the last
        node = {"b": "leaf", "c": "leaf"}
        for _ in range(depth - 1):
            node = {"b": "leaf", "c": node}
        labels = [",".join(["c"] * k + ["b"]) for k in range(depth)] + [",".join(["c"] * depth)]
        deep.append(m.problem_from_dict({"periods": depth, "states": ["s"], "tree": node,
                                         "utility": {a: {"s": 0} for a in labels}}))
    cases = {"shallow": [], "deep": [], "strategy": []}
    for name, problems in (("shallow", shallow), ("deep", deep)):
        for p in problems:
            entries = list(p.tree.paths)
            rule = fraction_matrix(random_rule(rng, p))
            cases[name].append((entries, entries, rule, p.tree.periods))
    for p in shallow[:30] + deep[:5] + deep[-3:]:
        periods = p.tree.depth + rng.randint(1, 2)
        signal_sets = [("g", "b")[:rng.randint(1, 2)] for _ in range(periods)]
        seqs, kernel = random_strategy_kernel(rng, p, signal_sets)
        assert seqs == list(strategy_of(signal_sets, p.tree, kernel).sequences)
        cases["strategy"].append((seqs, list(p.tree.paths), kernel, periods))
    for name, found in cases.items():
        verdicts = set()
        for in_seqs, out_seqs, adapted, periods in found:
            for n, kernel in enumerate(moved_kernels(rng, adapted)):
                expected = dense_matrix_is_adapted(in_seqs, out_seqs, kernel, periods)
                assert expected or n  # the kernel before any move is adapted
                den = math.lcm(*(F(w).denominator for row in kernel for w in row))
                support = [[(j, int(w * den)) for j, w in enumerate(row) if w] for row in kernel]
                assert dv._support_is_adapted(m._common(in_seqs), out_seqs, support) == expected
                verdicts.add(expected)
        assert verdicts == {True, False}, name


def rule_gain(problem, rule, joint):
    return sum((w * improvement(problem, rule, a, s)
                for a, row in zip(joint.leaves, fraction_matrix(joint))
                for s, w in zip(joint.states, row) if w), F(0))


def test_backward_induction_matches_the_joint_dominance_lp():
    rng = random.Random(67)
    problems = [random_problem(rng, max_leaves=6) for _ in range(150)]
    problems.append(m.load_problem(json.dumps(complete_tree_doc((3, 3, 3), 2, seed=1))))
    padded = zero_mass = positive = 0
    for p in problems:
        joint = random_joint(rng, p)
        num, targets = dv.best_joint_deviation(p, joint)
        gain = F(num, joint.den * p.den)  # the gain is its numerator over joint.den * p.den
        assert gain == joint_dominance_optimum(p, joint)
        rule = dv.pure_rule(p, targets())
        entries = list(p.tree.paths)
        assert dense_matrix_is_adapted(entries, entries, fraction_matrix(rule), p.tree.periods)
        assert rule_gain(p, rule, joint) == gain
        assert all(w in (0, 1) for row in fraction_matrix(rule) for w in row)
        assert dv.dominates(p, rule, joint) == (gain > 0)
        padded += any(m.PAD in path for path in p.tree.paths)
        zero_mass += any(not any(row) for row in fraction_matrix(joint))
        positive += gain > 0
    # the sweep exercised padded trees, leaves without mass and both verdicts
    assert padded and zero_mass and positive and positive < len(problems)


def without_state(rng, problem, joint):
    """``joint`` with one state's column emptied (some other cell keeps mass)."""
    width = len(problem.states)
    s = rng.randrange(width)
    cells = [0 if k % width == s else x for k, x in enumerate(joint.cells)]
    if not any(cells):
        cells[(s + 1) % width] = 1
    return m.JointDistribution(problem.leaves, problem.states, cells, sum(cells))


def test_flat_last_period_matches_the_recursive_induction():
    # the induction over runs of leaves, which values an input run of one
    # leaf directly on its output run's leaves, gives the recursion's gain
    # and rule (`reference_best_joint_deviation`): trees 1, 2 and 3 deep,
    # padded ones, leaves with mass alone in their run above the last
    # period, laws with massless leaves and with an empty state, and payoffs
    # in {-1, 0, 1} on every other tree, where argmax ties are the rule and
    # go to the first output child in both
    rng = random.Random(71)
    depths, padded, alone, empty_row, empty_state, tied = set(), 0, 0, 0, 0, 0
    for k in range(160):
        p = random_problem(rng, max_leaves=6, **({"value_cap": 1, "denom_cap": 1} if k % 2 else {}))
        joint = random_joint(rng, p)
        if len(p.states) > 1 and k % 3 == 0:
            joint = without_state(rng, p, joint)
        gain, targets = dv.best_joint_deviation(p, joint)
        assert (F(gain, joint.den * p.den), dv.pure_rule(p, targets())) == (
            reference_best_joint_deviation(p, joint))
        width = len(p.states)
        depths.add(p.tree.depth)
        padded += any(m.PAD in path for path in p.tree.paths)
        above = [path[:p.tree.depth - 1] for path in p.tree.paths]
        alone += any(above.count(prefix) == 1 and any(joint.cells[i * width:i * width + width])
                     for i, prefix in enumerate(above))
        empty_row += any(not any(joint.cells[k:k + width]) for k in range(0, len(joint.cells), width))
        empty_state += any(not any(joint.cells[s::width]) for s in range(width))
        table = p.integer_payoffs[0]
        tied += any(len(set(column)) < len(column) for column in zip(*table))
    assert depths == {1, 2, 3} and padded and alone and empty_row and empty_state and tied
    # complete trees with 64 leaves: the uniform law, and a random one
    for branching in ((4, 4, 4), (2, 2, 2, 2, 2, 2)):
        p = m.load_problem(json.dumps(complete_tree_doc(branching, 2, seed=1)))
        n = 2 * len(p.leaves)
        for joint in (m.JointDistribution(p.leaves, p.states, [1] * n, n), random_joint(rng, p)):
            gain, targets = dv.best_joint_deviation(p, joint)
            assert (F(gain, joint.den * p.den), dv.pure_rule(p, targets())) == (
                reference_best_joint_deviation(p, joint))


def test_backward_induction_rejects_a_law_of_another_problem(example1, example2):
    half = m.instantiate(example2, {"delta": "1/2"})
    joint = m.JointDistribution.from_mapping(example1, {("invest,pull_back", "good"): 1})
    with pytest.raises(m.ValidationError, match="shapes"):
        dv.best_joint_deviation(half, joint)
