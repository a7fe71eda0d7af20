import random
from fractions import Fraction as F

from dynrat import deviation as dv
from dynrat import lp
from dynrat import model as m
from dynrat import oracle as oc
from dynrat import rationalize as rz

from conftest import enumerated_obedience_optimum, random_joint, random_marginal, random_problem


def knife_edge_joint(example1):
    return m.JointDistribution.from_mapping(example1, {
        ("invest,pull_back", "bad"): "1/2",
        ("invest,pull_back", "good"): "1/6",
        ("invest,invest", "good"): "1/3",
    })


def test_apparently_dominated_example1(example1):
    witness = rz.apparently_dominated(example1, example1.sequence("invest,pull_back"))
    assert witness.margin == 1
    assert witness.as_mapping() == {example1.sequence("not_invest"): F(1)}
    assert rz.apparently_dominated(example1, example1.sequence("not_invest")) is None
    assert rz.apparently_dominated(example1, example1.sequence("invest,invest")) is None


def test_apparently_dominated_example2(example2):
    # at delta = 9/10 the margin-maximizing lottery mixes both immediate bets;
    # its uniform margin 2/5 beats the 3/10 from betting on x alone
    late = m.instantiate(example2, {"delta": "9/10"})
    wx = late.sequence("w,x")
    witness = rz.apparently_dominated(late, wx)
    assert witness.margin == F(2, 5)
    lottery = witness.as_mapping()
    assert set(lottery) == {late.sequence("x"), late.sequence("y")}
    assert lottery[late.sequence("x")] == F(19, 20)
    # the witness margin is exactly the worst-state payoff gap it achieves
    for state in late.states:
        gap = m.lottery_utility(late, lottery, state) - m.utility(late, wx, state)
        assert gap >= witness.margin
    # betting on x alone is a valid (smaller-margin) certificate too
    assert min(
        m.utility(late, late.sequence("x"), s) - m.utility(late, wx, s)
        for s in late.states
    ) == F(3, 10)


def test_truly_dominated_example2(example2):
    for d in ("1/2", "3/4", "799/1000"):
        inst = m.instantiate(example2, {"delta": d})
        rule = rz.dominating_rule(inst, inst.sequence("w,x"))
        assert rule is not None
        assert dv.dominates_sequence(inst, rule, inst.sequence("w,x"))
    for d in ("4/5", "9/10", "1"):
        inst = m.instantiate(example2, {"delta": d})
        assert rz.dominating_rule(inst, inst.sequence("w,x")) is None


def test_truly_dominated_example1(example1):
    for leaf in example1.leaves:
        assert rz.dominating_rule(example1, leaf) is None


def test_dominated_on_average(example1):
    point = m.JointDistribution.from_mapping(example1, {("invest,pull_back", "good"): 1})
    rule = rz.dominating_rule(example1, point)
    assert rule is not None and dv.dominates_joint(example1, rule, point)
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
    assert all(rule.row(a) == {north: F(1)} for a in example1.leaves)
    knife = m.MarginalDistribution.from_mapping(
        example1, {"invest,pull_back": "2/3", "invest,invest": "1/3"})
    assert rz.dominating_rule(example1, knife) is None
    stay_out = m.MarginalDistribution.from_mapping(example1, {"not_invest": 1})
    assert rz.dominating_rule(example1, stay_out) is None


def test_max_positive_marginal(example1, example2):
    value, joint = rz.max_positive_marginal(
        example1, example1.sequence("invest,pull_back"))
    assert value == F(2, 3)
    assert sum(joint.matrix[1], F(0)) == F(2, 3)
    assert oc.brute_force_rationalizable_joint(example1, joint)
    half = m.instantiate(example2, {"delta": "1/2"})
    assert rz.max_positive_marginal(half, half.sequence("w,x")) == (0, None)


def test_compact_obedience_matches_enumerated_rows():
    # the max-prob of every leaf, plus one random linear objective per
    # problem, which reaches faces of the obedient set the max-probs do not
    rng = random.Random(107)
    for _ in range(40):
        p = random_problem(rng, max_rules=200)
        for leaf in p.leaves:
            value, _ = rz.max_positive_marginal(p, leaf)
            assert value == enumerated_obedience_optimum(
                p, {(leaf, s): 1 for s in p.states}), leaf.label
        weights = {(a, s): rng.randint(-3, 3) for a in p.leaves for s in p.states}
        prog = rz._obedience_program(p)
        prog.set_objective({rz._gamma_var(a, s): w for (a, s), w in weights.items()})
        assert lp.solve(prog).value == enumerated_obedience_optimum(p, weights)


def test_rationalize_marginal(example1):
    knife = m.MarginalDistribution.from_mapping(
        example1, {"invest,pull_back": "2/3", "invest,invest": "1/3"})
    verdict = rz.decide(example1, knife)
    assert verdict.rationalizable
    joint = verdict.witness.induced_joint()
    assert joint.action_marginal() == knife
    assert oc.brute_force_rationalizable_joint(example1, joint)
    heavy = m.MarginalDistribution.from_mapping(
        example1, {"invest,pull_back": "3/4", "invest,invest": "1/4"})
    verdict = rz.decide(example1, heavy)
    assert not verdict.rationalizable
    assert dv.dominates_marginal(example1, verdict.witness, heavy)


def test_rationalize_joint(example1):
    knife = knife_edge_joint(example1)
    verdict = rz.decide(example1, knife)
    assert verdict.rationalizable and verdict.witness.induced_joint() == knife
    point = m.JointDistribution.from_mapping(example1, {("invest,pull_back", "good"): 1})
    verdict = rz.decide(example1, point)
    assert not verdict.rationalizable
    assert dv.dominates_joint(example1, verdict.witness, point)


def test_obedient_triple_from_joint(example1):
    triple = rz.obedient_triple_from_joint(knife_edge_joint(example1))
    assert triple.prior == (F(1, 2), F(1, 2))
    good = dict(zip(example1.leaves, triple.recommendation[0]))
    bad = dict(zip(example1.leaves, triple.recommendation[1]))
    assert good[example1.sequence("invest,pull_back")] == F(1, 3)
    assert good[example1.sequence("invest,invest")] == F(2, 3)
    assert bad[example1.sequence("invest,pull_back")] == 1
    assert triple.induced_joint() == knife_edge_joint(example1)

    point = m.JointDistribution.from_mapping(example1, {("invest,invest", "good"): 1})
    t2 = rz.obedient_triple_from_joint(point)
    assert t2.prior == (F(1), F(0))
    # the zero-probability state gets a deterministic placeholder row
    assert t2.recommendation[1][0] == 1
    assert t2.induced_joint() == point


def test_rationalize_sequence_investment(example1):
    for leaf in example1.leaves:
        verdict = rz.decide(example1, leaf)
        assert verdict.rationalizable
        triple = verdict.witness
        assert oc.verify_obedient_optimality(example1, triple)
        mass = sum(triple.induced_joint().matrix[example1.leaf_index[leaf]], F(0))
        assert mass > 0


def test_rationalize_sequence_waiting(example2):
    inst = m.instantiate(example2, {"delta": "3/4"})
    verdict = rz.decide(inst, inst.sequence("w,x"))
    assert not verdict.rationalizable
    assert dv.dominates_sequence(inst, verdict.witness, inst.sequence("w,x"))
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
    # the verdict agrees with the obedience program, a different LP, and
    # each witness passes the oracle's checks
    rng = random.Random(71)
    for _ in range(30):
        p = random_problem(rng, max_rules=200)
        for leaf in p.leaves:
            verdict = rz.decide(p, leaf)
            assert verdict.rationalizable == (rz.max_positive_marginal(p, leaf)[0] > 0)
            if verdict.rationalizable:
                joint = verdict.witness.induced_joint()
                assert sum(joint.matrix[p.leaf_index[leaf]], F(0)) > 0
                assert oc.brute_force_rationalizable_joint(p, joint)
            else:
                assert dv.dominates_sequence(p, verdict.witness, leaf)


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
            joint = verdict.witness.induced_joint()
            assert joint.action_marginal() == marginal
            assert oc.brute_force_rationalizable_joint(p, joint)
        else:
            assert dv.dominates_marginal(p, verdict.witness, marginal)


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
        mix = m.JointDistribution(p.leaves, p.states, tuple(
            tuple(t * a + (1 - t) * b for a, b in zip(r1, r2))
            for r1, r2 in zip(g1.matrix, g2.matrix)
        ))
        assert rz.dominating_rule(p, mix) is None
        done += 1


def test_witnesses_are_sound_on_random_instances():
    rng = random.Random(103)
    for _ in range(20):
        p = random_problem(rng, max_rules=200)
        leaf = rng.choice(p.leaves)
        verdict = rz.decide(p, leaf)
        if verdict.rationalizable:
            assert oc.verify_obedient_optimality(p, verdict.witness)
        else:
            assert dv.dominates_sequence(p, verdict.witness, leaf)
