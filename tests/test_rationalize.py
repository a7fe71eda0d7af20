import json
import random
from fractions import Fraction as F

import pytest

from dynrat import analysis as an
from dynrat import deviation as dv
from dynrat import lp
from dynrat import model as m
from dynrat import oracle as oc
from dynrat import rationalize as rz
from dynrat import structures as st

from conftest import (
    complete_tree_doc,
    enumerated_obedience_optimum,
    fraction_matrix,
    integer_rows,
    lottery_utility,
    random_family,
    random_joint,
    random_marginal,
    random_problem,
    random_pure_rule,
    random_rule,
    rational_duals,
    reference_dominance_program,
    reference_dominates,
    reference_inputs,
    reference_polytope_rows,
    stopping_doc,
    times,
    utility,
)


def knife_edge_joint(example1):
    return m.JointDistribution.from_mapping(example1, {
        ("invest,pull_back", "bad"): "1/2",
        ("invest,pull_back", "good"): "1/6",
        ("invest,invest", "good"): "1/3",
    })


def test_apparently_dominated_example1(example1):
    witness = rz.apparently_dominated(example1, example1.sequence("invest,pull_back"))
    assert witness.margin == 1
    assert dict(witness.lottery) == {example1.sequence("not_invest"): F(1)}
    assert rz.apparently_dominated(example1, example1.sequence("not_invest")) is None
    assert rz.apparently_dominated(example1, example1.sequence("invest,invest")) is None


def test_apparently_dominated_example2(example2):
    # at delta = 9/10 the margin-maximizing lottery mixes both immediate bets;
    # its uniform margin 2/5 beats the 3/10 from betting on x alone
    late = m.instantiate(example2, {"delta": "9/10"})
    wx = late.sequence("w,x")
    witness = rz.apparently_dominated(late, wx)
    assert witness.margin == F(2, 5)
    lottery = dict(witness.lottery)
    assert set(lottery) == {late.sequence("x"), late.sequence("y")}
    assert lottery[late.sequence("x")] == F(19, 20)
    # the witness margin is exactly the worst-state payoff gap it achieves
    for state in late.states:
        gap = lottery_utility(late, lottery, state) - utility(late, wx, state)
        assert gap >= witness.margin
    # betting on x alone is a valid (smaller-margin) certificate too
    assert min(
        utility(late, late.sequence("x"), s) - utility(late, wx, s)
        for s in late.states
    ) == F(3, 10)


def test_truly_dominated_example2(example2):
    for d in ("1/2", "3/4", "799/1000"):
        inst = m.instantiate(example2, {"delta": d})
        rule = rz.dominating_rule(inst, inst.sequence("w,x"))
        assert rule is not None
        assert dv.dominates(inst, rule, inst.sequence("w,x"))
    for d in ("4/5", "9/10", "1"):
        inst = m.instantiate(example2, {"delta": d})
        assert rz.dominating_rule(inst, inst.sequence("w,x")) is None


def test_truly_dominated_example1(example1):
    for leaf in example1.leaves:
        assert rz.dominating_rule(example1, leaf) is None


def test_dominated_on_average(example1):
    point = m.JointDistribution.from_mapping(example1, {("invest,pull_back", "good"): 1})
    rule = rz.dominating_rule(example1, point)
    assert rule is not None and dv.dominates(example1, rule, point)
    assert rz.dominating_rule(example1, knife_edge_joint(example1)) is None
    best = m.JointDistribution.from_mapping(example1, {("invest,invest", "good"): 1})
    assert rz.dominating_rule(example1, best) is None


def test_intermediately_dominated(example1):
    heavy = m.MarginalDistribution.from_mapping(
        example1, {"invest,pull_back": "3/4", "invest,invest": "1/4"})
    rule = rz.dominating_rule(example1, heavy)
    assert rule is not None
    # the optimum is the all-to-not_invest rewrite, uniquely
    north = example1.sequence("not_invest")
    kernel = fraction_matrix(rule)
    assert all({b: w for b, w in zip(rule.leaves, kernel[example1.tree.leaf_position(a)]) if w != 0}
               == {north: F(1)} for a in example1.leaves)
    knife = m.MarginalDistribution.from_mapping(
        example1, {"invest,pull_back": "2/3", "invest,invest": "1/3"})
    assert rz.dominating_rule(example1, knife) is None
    stay_out = m.MarginalDistribution.from_mapping(example1, {"not_invest": 1})
    assert rz.dominating_rule(example1, stay_out) is None


def test_max_positive_marginal(example1, example2):
    value, joint = rz.max_positive_marginal(
        example1, example1.sequence("invest,pull_back"))
    assert value == F(2, 3)
    assert sum(fraction_matrix(joint)[1], F(0)) == F(2, 3)
    assert oc.brute_force_rationalizable_joint(example1, joint)
    half = m.instantiate(example2, {"delta": "1/2"})
    assert rz.max_positive_marginal(half, half.sequence("w,x")) == (0, None)


def test_compact_obedience_matches_enumerated_rows():
    # the max-prob of every leaf equals the enumerated one, and a positive
    # one's law, read from the budget program's duals, is obedient, puts
    # exactly the max-prob on the leaf and has no mass off the leaf's block
    rng = random.Random(107)
    positive = zero = split = 0
    for _ in range(40):
        p = random_problem(rng, max_rules=200)
        for leaf in p.leaves:
            value, law = rz.max_positive_marginal(p, leaf)
            assert value == enumerated_obedience_optimum(
                p, {(leaf, s): 1 for s in p.states}), leaf
            if value == 0:
                assert law is None
                zero += 1
                continue
            positive += 1
            assert oc.verify_obedient_optimality(p, law)
            weights = fraction_matrix(law)
            assert sum(weights[p.tree.leaf_position(leaf)], F(0)) == value
            block = reference_inputs(p, [leaf])
            assert all(not any(weights[i]) for i in range(len(p.leaves)) if i not in block)
            split += len(block) < len(p.leaves)
    assert positive and zero and split


def test_rationalize_marginal(example1):
    knife = m.MarginalDistribution.from_mapping(
        example1, {"invest,pull_back": "2/3", "invest,invest": "1/3"})
    verdict = rz.decide(example1, knife)
    assert verdict.rationalizable
    joint = verdict.witness
    assert joint.action_marginal() == knife
    assert oc.brute_force_rationalizable_joint(example1, joint)
    heavy = m.MarginalDistribution.from_mapping(
        example1, {"invest,pull_back": "3/4", "invest,invest": "1/4"})
    verdict = rz.decide(example1, heavy)
    assert not verdict.rationalizable
    assert dv.dominates(example1, verdict.witness, heavy)


def test_rationalize_joint(example1):
    knife = knife_edge_joint(example1)
    verdict = rz.decide(example1, knife)
    assert verdict.rationalizable and verdict.witness == knife
    point = m.JointDistribution.from_mapping(example1, {("invest,pull_back", "good"): 1})
    verdict = rz.decide(example1, point)
    assert not verdict.rationalizable
    assert dv.dominates(example1, verdict.witness, point)


def test_obedient_triple_json_round_trip(example1):
    knife = knife_edge_joint(example1)
    triple = rz.obedient_triple_to_json(knife)
    assert triple["prior"] == {"good": "1/2", "bad": "1/2"}
    good, bad = triple["recommendation"]["good"], triple["recommendation"]["bad"]
    assert good == {"invest,pull_back": "1/3", "invest,invest": "2/3"}
    assert bad == {"invest,pull_back": "1"}
    assert rz.obedient_triple_from_json(example1, triple) == knife

    point = m.JointDistribution.from_mapping(example1, {("invest,invest", "good"): 1})
    t2 = rz.obedient_triple_to_json(point)
    assert t2["prior"] == {"good": "1"}
    # the zero-probability state gets a deterministic placeholder row
    assert t2["recommendation"]["bad"] == {"not_invest": "1"}
    assert rz.obedient_triple_from_json(example1, t2) == point

    # random laws, most with states of no mass, survive the round trip
    rng = random.Random(29)
    massless = 0
    for _ in range(40):
        p = random_problem(rng, max_rules=200)
        law = random_joint(rng, p)
        if rng.random() < 0.7:  # keep one state's column only
            width, keep = len(p.states), rng.randrange(len(p.states))
            cells = [x if k % width == keep else 0 for k, x in enumerate(law.cells)]
            if not any(cells):
                cells[keep] = 1
            law = m.JointDistribution(p.leaves, p.states, cells, sum(cells))
        doc = json.loads(json.dumps(rz.obedient_triple_to_json(law)))
        massless += len(doc["prior"]) < len(p.states)
        assert rz.obedient_triple_from_json(p, doc) == law
    assert massless > 10


def test_rationalize_sequence_investment(example1):
    for leaf in example1.leaves:
        verdict = rz.decide(example1, leaf)
        assert verdict.rationalizable
        law = verdict.witness
        assert oc.verify_obedient_optimality(example1, law)
        mass = sum(fraction_matrix(law)[example1.tree.leaf_position(leaf)], F(0))
        assert mass > 0


def test_rationalize_sequence_waiting(example2):
    inst = m.instantiate(example2, {"delta": "3/4"})
    verdict = rz.decide(inst, inst.sequence("w,x"))
    assert not verdict.rationalizable
    assert dv.dominates(inst, verdict.witness, inst.sequence("w,x"))
    boundary = m.instantiate(example2, {"delta": "4/5"})
    verdict = rz.decide(boundary, boundary.sequence("w,x"))
    assert verdict.rationalizable
    assert oc.verify_obedient_optimality(boundary, verdict.witness)


def test_one_leaf_problem_is_trivially_rationalizable():
    import json
    doc = {"periods": 1, "states": ["s", "t"], "tree": {"a": "leaf"},
           "utility": {"a": {"s": "-5", "t": "7/3"}}}
    one = m.load_problem(json.dumps(doc))
    verdict = rz.decide(one, one.leaves[0])
    assert verdict.rationalizable
    assert rz.max_positive_marginal(one, one.leaves[0])[0] == 1


def test_sequence_dichotomy_small():
    # the verdict agrees with maxprob, the budget variant of the verdict's
    # program, whose independent reference is `enumerated_obedience_optimum`
    # (test_compact_obedience_matches_enumerated_rows), and each witness
    # passes the oracle's checks
    rng = random.Random(71)
    for _ in range(30):
        p = random_problem(rng, max_rules=200)
        for leaf in p.leaves:
            verdict = rz.decide(p, leaf)
            assert verdict.rationalizable == (rz.max_positive_marginal(p, leaf)[0] > 0)
            if verdict.rationalizable:
                joint = verdict.witness
                assert sum(fraction_matrix(joint)[p.tree.leaf_position(leaf)], F(0)) > 0
                assert oc.brute_force_rationalizable_joint(p, joint)
            else:
                assert dv.dominates(p, verdict.witness, leaf)


def test_joint_dichotomy_small():
    rng = random.Random(73)
    for _ in range(40):
        p = random_problem(rng, max_rules=200)
        joint = random_joint(rng, p)
        rule = rz.dominating_rule(p, joint)
        assert (rule is None) == oc.brute_force_rationalizable_joint(p, joint)


def test_marginal_dichotomy_small():
    rng = random.Random(79)
    for _ in range(30):
        p = random_problem(rng, max_rules=200)
        marginal = random_marginal(rng, p)
        verdict = rz.decide(p, marginal)
        if verdict.rationalizable:
            joint = verdict.witness
            assert joint.action_marginal() == marginal
            assert oc.brute_force_rationalizable_joint(p, joint)
        else:
            assert dv.dominates(p, verdict.witness, marginal)


def test_true_dominance_implies_apparent():
    rng = random.Random(83)
    seen = 0
    for _ in range(40):
        p = random_problem(rng, max_rules=200)
        for leaf in p.leaves:
            if rz.dominating_rule(p, leaf) is not None:
                seen += 1
                assert rz.apparently_dominated(p, leaf) is not None
    assert seen > 0


def test_static_collapse():
    # with one period the two notions coincide
    rng = random.Random(89)
    for _ in range(30):
        p = random_problem(rng, max_periods=1, max_leaves=4)
        for leaf in p.leaves:
            truly = rz.dominating_rule(p, leaf) is not None
            apparently = rz.apparently_dominated(p, leaf) is not None
            assert truly == apparently


def test_rationalizable_joints_form_convex_set():
    rng = random.Random(97)
    done = 0
    while done < 12:
        p = random_problem(rng, max_rules=200)
        g1, g2 = random_joint(rng, p), random_joint(rng, p)
        if not (oc.brute_force_rationalizable_joint(p, g1)
                and oc.brute_force_rationalizable_joint(p, g2)):
            continue
        t = F(rng.randint(1, 6), 7)
        mix = m.JointDistribution.from_mapping(p, {
            (leaf, s): t * a + (1 - t) * b
            for leaf, r1, r2 in zip(p.leaves, fraction_matrix(g1), fraction_matrix(g2))
            for s, a, b in zip(p.states, r1, r2)
        })
        assert rz.dominating_rule(p, mix) is None
        done += 1


def test_one_rule_is_one_value_whichever_constructor_built_it(example3):
    # the dominance LP's rule against "effort, effort" sends every leaf to
    # no_effort; so does one mapping (keys shuffled, leaves spelled with
    # padding, weights not in lowest terms) and one enumerated pure rule
    p = m.instantiate(example3, {"R": 1, "c": 2})
    from_lp = rz.dominating_rule(p, p.sequence("effort,effort"))
    mapped = dv.DeviationRule.from_mapping(p, {
        "no_effort,_": "no_effort", "effort,no_effort": {"no_effort,_": "1"},
        "effort,effort": {"effort,effort": "0", "no_effort": "3/3"}})
    stay_out = ((p.tree.leaf_position("no_effort"), 1),)
    enumerated = [r for r in dv.enumerate_pure_rules(p) if set(r.rows) == {stay_out}]
    copies = [from_lp, mapped, *enumerated]
    assert len(copies) == 3 and all(c == from_lp for c in copies)
    assert len({hash(c) for c in copies}) == 1
    assert (from_lp.rows, from_lp.den) == ((stay_out,) * 3, 1)


def test_one_mixed_rule_is_one_value_whichever_constructor_built_it(example2):
    # the LP's rule against waiting at delta = 3/4 mixes x and y 5:3; so do
    # a mapping with unreduced weights and the LP's integers put over twice
    # their denominator, each row reversed and given an explicit zero
    p = m.instantiate(example2, {"delta": "3/4"})
    from_lp = rz.dominating_rule(p, p.sequence("w,x"))
    mapped = dv.DeviationRule.from_mapping(p, {
        "y": "y", "x,_": {"x": 1}, "w,y": {"y": "6/16", "x": "10/16"},
        "w,x": {"x": "5/8", "y": "3/8"}})
    x, y, wy = (p.tree.leaf_position(a) for a in ("x", "y", "w,y"))
    scaled = dv.DeviationRule(p.tree, [
        [(j, 2 * w) for j, w in reversed(row)] + [(wy, 0)] for row in from_lp.rows],
        2 * from_lp.den)
    assert from_lp == mapped == scaled and hash(from_lp) == hash(mapped) == hash(scaled)
    assert from_lp.rows[p.tree.leaf_position("w,x")] == ((x, 5), (y, 3))
    assert from_lp.den == 8


def test_one_law_is_one_value_whichever_constructor_built_it(example1):
    # the dominance duals' obedient law for each investing sequence, the
    # same law from a mapping (keys shuffled, padding, explicit zeros) and
    # from the report's triple that spells it; the point mass also from draws
    ii, ip = example1.sequence("invest,invest"), example1.sequence("invest,pull_back")
    given = ({"not_invest,_": {"bad": "0"}, "invest,invest": {"bad": 0, "good": "3/3"}},
             {"invest,invest": {"good": "2/6"}, "not_invest,_": {"good": 0},
              "invest,pull_back": {"good": "1/6", "bad": "3/6"}})
    for observed, mapping in zip((ii, ip), given):
        law = rz.certificate(example1, observed)
        assert isinstance(law, m.JointDistribution)
        copies = [law, m.JointDistribution.from_mapping(example1, mapping),
                  rz.obedient_triple_from_json(example1, rz.obedient_triple_to_json(law))]
        if observed == ii:
            signals = {"signals": [["s"], ["g"]]}
            structure = st.InformationStructure.from_json_dict(example1, {
                **signals, "prior": {"good": "1"},
                "kernel": {"good": {"s,g": "1"}, "bad": {"s,g": "1"}}})
            strategy = st.Strategy.from_json_dict(example1, {
                **signals, "kernel": {"s,g": {"invest,invest": "1"}}})
            copies.append(st.simulate(example1, strategy, structure, 7, seed=0))
        assert all(c == law for c in copies)
        assert len({hash(c) for c in copies}) == 1
    assert len(copies) == 3 and law.den == 6


def test_witnesses_are_sound_on_random_instances():
    rng = random.Random(103)
    for _ in range(20):
        p = random_problem(rng, max_rules=200)
        leaf = rng.choice(p.leaves)
        verdict = rz.decide(p, leaf)
        if verdict.rationalizable:
            assert oc.verify_obedient_optimality(p, verdict.witness)
        else:
            assert dv.dominates(p, verdict.witness, leaf)


def test_integer_rows_equal_the_fraction_builders(example2):
    # the dominance program, its budget variant and the polytope, written
    # in integers, hold the Fraction builders' rows times one factor each:
    # the same columns, row order and senses, each polytope row as it is
    # and each gain row times the payoffs' denominator; and their objective
    # times the sum of e.  On random problems and on pinned sweep points
    # (whose payoffs come from the family's affine table)
    rng = random.Random(41)
    problems = [random_problem(rng, max_rules=200) for _ in range(12)]
    for _ in range(4):
        family = random_family(rng)
        problems += [m.substitute_params(family, {"t": F(rng.randint(-9, 9), rng.randint(1, 4))})
                     for _ in range(3)]
    problems += [m.substitute_params(example2, {"delta": d}) for d in (F(0), F(4, 5), F(31, 32))]
    for p in problems:
        poly = lp.deviation_polytope_constraints(p.tree)
        assert integer_rows(poly.constraints) == reference_polytope_rows(p)
        den = p.integer_payoffs[1]
        for observed, budget in ((rng.choice(p.leaves), False),
                                 (random_marginal(rng, p), False),
                                 (rng.choice(p.leaves), True)):
            prog, inputs, gain_rows = rz._dominance_program(p, observed, budget)
            touched = ([observed] if isinstance(observed, str) else
                       [a for a, w in zip(p.leaves, observed.weights) if w])
            assert list(inputs) == reference_inputs(p, touched)
            ref = reference_dominance_program(p, observed, inputs, budget)
            scales = [1] * len(poly.rows_on(inputs)) + [den] * len(gain_rows)
            assert integer_rows(prog.constraints) == times(ref.constraints, scales)
            total = sum(e for _, _, e in m.consistency(p, observed))
            assert prog.variables == tuple(ref.variables)
            assert prog.objective == {k: c * total for k, c in ref.objective.items()}
            assert [r for r, _, _ in gain_rows] == list(range(len(poly.rows_on(inputs)),
                                                             len(prog.constraints)))
            # the rows times den solve as the same rows times their own
            # lcm: the same pivots and optimum, and the same multipliers of
            # the rational rows
            got = lp.solve(prog)
            want_prog, want_scales, want_scale = ref.as_lp()
            want = lp.solve(want_prog)
            assert (got.status, got.pivots, got.integer_assignment) == (
                want.status, want.pivots, want.integer_assignment)
            if got.status == "optimal":  # a budget program may be unbounded
                assert got.value / total == want.value / want_scale
                assert (rational_duals(got, scales, total)
                        == rational_duals(want, want_scales, want_scale))
        # the last program, the budget one, ends on its leaf's block as on
        # the whole tree
        whole = lp.solve(reference_dominance_program(p, observed, budget=True).as_lp()[0])
        assert (got.status, got.value) == (whole.status, whole.value)


def exact_rank(rows) -> int:
    """The rank of ``rows``, each a map from column to value, by exact
    elimination: each row is reduced by the kept rows at its least column
    until that column is new, where the row is kept, scaled to 1 there."""
    kept = {}
    for row in rows:
        row = {k: F(v) for k, v in row.items() if v}
        while row:
            c = min(row)
            if c not in kept:
                kept[c] = {k: v / row[c] for k, v in row.items()}
                break
            f = row[c]
            for k, v in kept[c].items():
                row[k] = row.get(k, 0) - f * v
                if not row[k]:
                    del row[k]
    return len(kept)


def test_the_block_split_is_exact():
    # the dominance program over the touched first-action blocks has the
    # whole tree's optimum, for a leaf and for a marginal, on random
    # problems up to 4 periods deep and on pinned sweep points; a marginal
    # that touches every block builds the reference program's gain rows,
    # columns and objective, and of its equalities a subset with the same
    # span: each polytope row is a reference row, and the reference rows
    # add nothing to their rank (the right-hand side as one more column)
    rng = random.Random(43)
    problems = [random_problem(rng, max_rules=200) for _ in range(20)]
    while sum(p.tree.depth == 4 for p in problems) < 6:
        problems.append(random_problem(rng, max_periods=4, max_leaves=8, max_rules=10**6))
    for _ in range(4):
        family = random_family(rng)
        problems += [m.substitute_params(family, {"t": F(rng.randint(-9, 9), rng.randint(1, 4))})
                     for _ in range(3)]
    split = deep = fewer = 0
    for p in problems:
        for observed in (rng.choice(p.leaves), random_marginal(rng, p)):
            prog, inputs, _ = rz._dominance_program(p, observed)
            ref, _, scale = reference_dominance_program(p, observed).as_lp()
            total = sum(e for _, _, e in m.consistency(p, observed))
            assert lp.solve(prog).value / total == lp.solve(ref).value / scale
            split += len(inputs) < len(p.leaves)
        firsts = {}
        for a, path in zip(p.leaves, p.tree.paths):
            firsts.setdefault(path[0], a)
        every_block = m.MarginalDistribution.from_mapping(
            p, {a: F(1, len(firsts)) for a in firsts.values()})
        prog, inputs, _ = rz._dominance_program(p, every_block)
        ref = reference_dominance_program(p, every_block)
        assert inputs == tuple(range(len(p.leaves)))
        rows = integer_rows(prog.constraints)
        # the gain rows, the only ones that are not equalities, are times den
        den = p.integer_payoffs[1]
        ref_rows = times(ref.constraints, [1 if sense == "==" else den
                                           for _, sense, _ in ref.constraints])
        assert [r for r in rows if r[1] != "=="] == [r for r in ref_rows if r[1] != "=="]
        assert ({(frozenset(c.items()), sense, b) for c, sense, b in rows}
                <= {(frozenset(c.items()), sense, b) for c, sense, b in ref_rows})
        rhs = len(prog.variables)  # the column of the right-hand sides
        rank = [exact_rank([{**c, rhs: b} for c, sense, b in which if sense == "=="])
                for which in (rows, ref_rows)]
        assert rank[0] == rank[1]
        assert prog.variables == tuple(ref.variables)
        assert prog.objective == {k: c * every_block.den for k, c in ref.objective.items()}
        deep += p.tree.depth == 4
        fewer += len(rows) < len(ref.constraints)
    assert split and deep and fewer


def test_maxprob_is_zero_on_a_block_without_an_obedient_law():
    # "b" beats both leaves after "a" in every state, so no obedient law
    # puts mass on a's block: the budget program of either leaf on that
    # block is unbounded, and maxprob answers 0, as the whole tree does
    p = m.load_problem(json.dumps({
        "periods": 2, "states": ["s", "t"], "tree": {"a": {"x": "leaf", "y": "leaf"}, "b": "leaf"},
        "utility": {"a,x": {"s": 0, "t": 1}, "a,y": {"s": 1, "t": 0}, "b": {"s": 2, "t": 2}}}))
    block = [p.sequence("a,x"), p.sequence("a,y")]
    assert enumerated_obedience_optimum(p, {}, block) is None
    for leaf in block:
        assert enumerated_obedience_optimum(p, {(leaf, s): 1 for s in p.states}) == 0
        prog, inputs, _ = rz._dominance_program(p, leaf, budget=True)
        assert inputs == (0, 1) and lp.solve(prog).status == "unbounded"
        assert rz.max_positive_marginal(p, leaf) == (0, None)
    assert rz.max_positive_marginal(p, p.sequence("b"))[0] == 1


def test_maxprob_leaves_the_shared_polytope_rows_untouched():
    # the budget program writes its homogeneous rows as copies: after
    # maxprob on every leaf, the tree's shared polytope rows are as built,
    # and the verdict program on that tree is the one a fresh tree builds;
    # the one-block tree's program spans the shared rows themselves
    docs = [complete_tree_doc((1, 2, 2), 2, seed=3), complete_tree_doc((2, 2), 2, seed=4)]
    for doc in docs:
        p = m.load_problem(json.dumps(doc))
        poly = p.tree.per_tree(lp.deviation_polytope_constraints)
        before = [(dict(con.coeffs), con.sense, con.rhs) for con in poly.constraints]
        for leaf in p.leaves:
            rz.max_positive_marginal(p, leaf)
        assert p.tree.per_tree(lp.deviation_polytope_constraints) is poly
        assert [(con.coeffs, con.sense, con.rhs) for con in poly.constraints] == before
        fresh = m.load_problem(json.dumps(doc))
        for leaf in p.leaves:
            again = fresh.sequence(leaf)
            assert rz._dominance_program(p, leaf) == rz._dominance_program(fresh, again)
            assert rz.decide(p, leaf) == rz.decide(fresh, again)


def test_the_dominance_program_of_a_joint_law_is_the_backward_induction():
    # one builder for every observation: given a joint law, whose rows are
    # its cells, the dominance program's optimum is the induction's gain
    # times the objective's scale, the sum of the cells
    rng = random.Random(59)
    problems = [random_problem(rng, max_leaves=6) for _ in range(300)]
    problems.append(m.load_problem(json.dumps(complete_tree_doc((3, 3), 2, seed=1))))
    positive = split = 0
    for p in problems:
        joint = random_joint(rng, p)
        prog, inputs, _ = rz._dominance_program(p, joint)
        sol = lp.solve(prog)
        gain, _ = dv.best_joint_deviation(p, joint)
        assert sol.status == "optimal" and sol.value == F(gain, joint.den * p.den) * sum(joint.cells)
        positive += gain > 0
        split += len(inputs) < len(p.leaves)
    assert 0 < positive < len(problems) and split


def test_dominates_agrees_with_the_per_kind_references():
    # the one sign test on consistency rows gives each kind's criterion, on
    # random rules and on the rules that `certificate` finds
    rng = random.Random(61)
    verdicts = {kind: set() for kind in ("sequence", "marginal", "joint")}
    found = dict.fromkeys(verdicts, 0)
    for _ in range(120):
        p = random_problem(rng, max_leaves=6)
        observations = [("sequence", a) for a in p.leaves]
        observations += [("marginal", random_marginal(rng, p)), ("joint", random_joint(rng, p))]
        rules = [random_rule(rng, p), random_pure_rule(rng, p), dv.identity_rule(p)]
        for kind, observed in observations:
            certified = rz.certificate(p, observed)
            if isinstance(certified, dv.DeviationRule):
                found[kind] += 1
                assert reference_dominates(p, certified, observed)
            for rule in rules + [certified] * isinstance(certified, dv.DeviationRule):
                want = reference_dominates(p, rule, observed)
                assert dv.dominates(p, rule, observed) == want
                verdicts[kind].add(want)
    assert all(seen == {True, False} for seen in verdicts.values()) and all(found.values())


@pytest.mark.parametrize("branching, dominance, budget", [
    ((2, 2, 2), 20, 14), ((4, 4), 58, 19), ((2, 2, 2, 2), 70, 77), ((3, 3, 3), 144, 65),
    ((5, 5), 38, 21)])
def test_baseline_table_pivot_counts(branching, dominance, budget):
    # the ROADMAP baseline table's pivots: the tableau's arithmetic may
    # change, its pivot sequence may not
    problem = m.problem_from_dict(complete_tree_doc(branching, 2, seed=1))
    seq = problem.sequence(problem.leaves[1])
    counts = []
    for query in (rz.dominating_rule, rz.max_positive_marginal):
        before = lp.pivot_tally()
        query(problem, seq)
        counts.append(lp.pivot_tally() - before)
    assert counts == [dominance, budget]


@pytest.mark.parametrize("periods, rows", [(10, 233), (20, 873), (40, 3353)])
def test_stopping_problem_rows_grow_as_the_square_of_the_horizon(periods, rows):
    # the program of the last waiting leaf: one tie per pair of neighbouring
    # inputs of its block, on the runs of the level they share, then one
    # gain row per input and state; every prefix-marginal equality of each
    # level (705, 5 415 and 42 835 rows) grows as the cube
    p = m.problem_from_dict(stopping_doc(periods))
    prog, inputs, _ = rz._dominance_program(p, p.sequence(["w"] * (periods - 1) + ["x"]))
    assert len(inputs) == 2 * periods - 2 and len(prog.constraints) == rows


#: A leaf's label, and other spellings of it: padded, spaced, and as a tuple
#: or a list of actions, on example 1 ("1") or example 2 ("2").
SPELLINGS = [
    ("1", "not_invest", ["not_invest,_", " not_invest ", ("not_invest",), ("not_invest", "_")]),
    ("1", "invest,pull_back", [" invest , pull_back ", ("invest", "pull_back")]),
    ("1", "invest,invest", ["invest ,invest", ["invest", "invest"]]),
    ("2", "w,x", [" w , x ", ("w", "x")]),
    ("2", "x", ["x,_", ("x", "_"), ("x",)]),
]


@pytest.mark.parametrize("example, label, spellings", SPELLINGS)
def test_every_spelling_of_a_sequence_is_its_label(example1, example2, example, label,
                                                   spellings):
    # an observed sequence is its label: each spelling of it gives the bare
    # label's consistency rows, verdict and witness, dominance by each pure
    # rule and by the verdict's own, maxprob value, witness re-check and
    # identified set
    family = example1 if example == "1" else example2
    problems = ([example1] if example == "1" else
                [m.instantiate(example2, {"delta": d}) for d in ("3/4", "9/10")])
    verdicts = set()
    for p in problems:
        verdict = rz.decide(p, label)
        verdicts.add(verdict.rationalizable)
        rules = [*dv.enumerate_pure_rules(p), *[verdict.witness][:not verdict.rationalizable]]
        want = (m.consistency(p, label), verdict.to_json_dict(),
                [dv.dominates(p, r, label) for r in rules], rz.max_positive_marginal(p, label),
                oc.verify_witness(p, verdict.witness, label))
        assert want[-1][0] is True and any(want[2]) != verdict.rationalizable
        for spec in spellings:
            got = rz.decide(p, spec)
            assert got == verdict and got.to_json_dict() == want[1], spec
            assert (m.consistency(p, spec), got.to_json_dict(),
                    [dv.dominates(p, r, spec) for r in rules], rz.max_positive_marginal(p, spec),
                    oc.verify_witness(p, got.witness, spec)) == want, spec
    if example == "2":
        assert verdicts == {True} if label == "x" else verdicts == {True, False}
        iset = an.identified_set(family, label, "delta", 0, 1)
        for spec in spellings:
            assert an.identified_set(family, spec, "delta", 0, 1) == iset, spec


@pytest.mark.parametrize("spec, name", [
    ("invest,stay", "'invest,stay'"), (" invest , stay ", "'invest,stay'"),
    (("invest", "stay"), "'invest,stay'"), ("invest", "'invest'"),
    ("_,not_invest", "'_,not_invest'")])
def test_a_sequence_that_is_no_leaf_is_named(example1, example2, spec, name):
    # every reader of an observed sequence refuses a name that is no leaf,
    # and names it; ``spec`` names no leaf of example 2 either
    rule = dv.identity_rule(example1)
    law = rz.decide(example1, "not_invest").witness
    readers = [
        lambda: m.consistency(example1, spec), lambda: rz.decide(example1, spec),
        lambda: dv.dominates(example1, rule, spec),
        lambda: rz.max_positive_marginal(example1, spec),
        lambda: oc.verify_witness(example1, law, spec), lambda: example1.sequence(spec),
        lambda: an.identified_set(example2, spec, "delta", 0, 1)]
    for read in readers:
        with pytest.raises(m.ValidationError, match=f"^{name} is not a leaf of this problem$"):
            read()
