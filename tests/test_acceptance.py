"""Acceptance gate.

One test per criterion, each printing a PASS/FAIL line (visible with
``pytest -s`` or ``-rA``).  Criteria 1-4 log every certificate they produce;
criterion 5 then replays the whole log through the independent checkers.
"""

from __future__ import annotations

import functools
import json
import random
from fractions import Fraction as F

from dynrat import analysis as an
from dynrat import deviation as dv
from dynrat import model as m
from dynrat import oracle as oc
from dynrat import rationalize as rz

from conftest import (
    PROBLEMS_DIR,
    exhaustive_optimal_value,
    random_convex_increasing,
    random_joint,
    random_marginal,
    random_problem,
    reference_rule_count,
)

# (kind, problem, payload, context) entries appended by criteria 1-4
WITNESS_LOG: list[tuple] = []


def criterion(label):
    def wrap(fn):
        @functools.wraps(fn)
        def inner(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"criterion {label}: FAIL", flush=True)
                raise
            print(f"criterion {label}: PASS", flush=True)
        return inner
    return wrap


def log_rule(problem, rule, check, *context):
    WITNESS_LOG.append(("rule", problem, rule, check, context))
    assert check(problem, rule, *context)


def log_triple(problem, triple, positive_on=None):
    WITNESS_LOG.append(("triple", problem, triple, None, (positive_on,)))
    assert oc.verify_obedient_optimality(problem, triple)
    if positive_on is not None:
        mass = sum(triple.induced_joint().matrix[problem.leaf_index[positive_on]], F(0))
        assert mass > 0


@criterion("1 (first example regressions)")
def test_criterion_1_example1(example1):
    for leaf in example1.leaves:
        verdict = rz.decide(example1, leaf)
        assert verdict.rationalizable, leaf.label
        log_triple(example1, verdict.witness, positive_on=leaf)
    pull_back = example1.sequence("invest,pull_back")
    witness = rz.apparently_dominated(example1, pull_back)
    assert witness is not None and witness.margin == 1
    assert an.max_rationalizable_probability(example1, pull_back) == F(2, 3)


@criterion("2 (second example regressions)")
def test_criterion_2_example2(example2):
    probe = m.instantiate(example2, {"delta": 1})
    wx = probe.sequence("w,x")
    for d in (F(1, 2), F(3, 4), F(799, 1000)):
        inst = m.instantiate(example2, {"delta": d})
        rule = rz.dominating_rule(inst, wx)
        assert rule is not None, d
        log_rule(inst, rule, dv.dominates_sequence, wx)
    for d in (F(4, 5), F(9, 10), F(1)):
        inst = m.instantiate(example2, {"delta": d})
        assert rz.dominating_rule(inst, wx) is None, d
    for d in (F(4, 5), F(9, 10), F(19, 20), F(1)):
        inst = m.instantiate(example2, {"delta": d})
        assert an.max_rationalizable_probability(inst, wx) == 3 - 2 / d, d
    for d in (F(1, 2), F(3, 4)):
        inst = m.instantiate(example2, {"delta": d})
        assert an.max_rationalizable_probability(inst, wx) == 0, d
    iset = an.identified_set(example2, wx, "delta", 0, 1, tolerance=F(1, 1024))
    gaps = [iv for iv in iset.intervals if iv[2] == "gap"]
    assert len(gaps) == 1
    lo, hi, _ = gaps[0]
    assert lo <= F(4, 5) <= hi and hi - lo <= F(1, 1024)
    assert iset.intervals[0][2] == "out" and iset.intervals[0][0] == 0
    assert iset.intervals[-1][2] == "in" and iset.intervals[-1][1] == 1


@criterion("3 (third example regressions)")
def test_criterion_3_example3(example3):
    for R, c, want in ((F(3), F(2), F(1, 2)), (F(7, 2), F(2), F(3, 4)),
                       (F(5), F(3), F(2, 3))):
        assert 0 < c < R < 2 * c
        inst = m.instantiate(example3, {"R": R, "c": c})
        got = an.max_rationalizable_probability(inst, inst.sequence("effort,effort"))
        assert got == want, (R, c)


@criterion("4a (single-sequence dichotomy, 200 instances)")
def test_criterion_4_sequence_dichotomy():
    rng = random.Random(20250801)
    for i in range(200):
        p = random_problem(rng, max_leaves=5, max_rules=300)
        for leaf in p.leaves:
            verdict = rz.decide(p, leaf)
            if not verdict.rationalizable:
                log_rule(p, verdict.witness, dv.dominates_sequence, leaf)
            else:
                assert oc.brute_force_rationalizable_joint(p, verdict.witness.induced_joint())
                log_triple(p, verdict.witness, positive_on=leaf)


@criterion("4b (joint-law dichotomy, 200 instances)")
def test_criterion_4_joint_dichotomy():
    rng = random.Random(20250802)
    for i in range(200):
        p = random_problem(rng, max_leaves=5, max_rules=300)
        joint = random_joint(rng, p)
        rule = rz.dominating_rule(p, joint)
        obedient = oc.brute_force_rationalizable_joint(p, joint)
        assert (rule is None) == obedient, i
        if rule is not None:
            log_rule(p, rule, dv.dominates_joint, joint)
        else:
            log_triple(p, rz.obedient_triple_from_joint(joint))


@criterion("4c (marginal-law dichotomy, 200 instances)")
def test_criterion_4_marginal_dichotomy():
    rng = random.Random(20250803)
    for i in range(200):
        p = random_problem(rng, max_leaves=5, max_rules=300)
        marginal = random_marginal(rng, p)
        verdict = rz.decide(p, marginal)
        if not verdict.rationalizable:
            log_rule(p, verdict.witness, dv.dominates_marginal, marginal)
        else:
            joint = verdict.witness.induced_joint()
            assert joint.action_marginal() == marginal, i
            assert oc.brute_force_rationalizable_joint(p, joint), i
            log_triple(p, verdict.witness)


@criterion("5 (every emitted witness re-verifies)")
def test_criterion_5_witness_soundness():
    assert len(WITNESS_LOG) > 400  # criteria 1-4 really did emit certificates
    rules = triples = 0
    for kind, problem, payload, check, context in WITNESS_LOG:
        if kind == "rule":
            rules += 1
            assert check(problem, payload, *context)
        else:
            triples += 1
            assert oc.verify_obedient_optimality(problem, payload)
            positive_on = context[0]
            if positive_on is not None:
                row = payload.induced_joint().matrix[problem.leaf_index[positive_on]]
                assert sum(row, F(0)) > 0
    assert rules > 0 and triples > 0
    print(f"  re-verified {rules} dominating rules and {triples} obedient triples")


@criterion("6 (oracle agreement)")
def test_criterion_6_oracle_agreement():
    rng = random.Random(20250806)
    for i in range(200):
        p = random_problem(rng, max_leaves=5, max_rules=300)
        joint = random_joint(rng, p)
        assert (rz.dominating_rule(p, joint) is None) == \
            oc.brute_force_rationalizable_joint(p, joint), i
    for i in range(50):
        p = random_problem(rng, max_periods=2, max_actions=2, max_states=2,
                           max_leaves=3, max_rules=100)
        sets = tuple(tuple(f"t{t}{k}" for k in range(rng.randint(1, 2)))
                     for t in range(p.periods))
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
        structure = oc.InformationStructure(p.states, prior, sets, tuple(kernel))
        assert oc.optimal_value_dp(p, structure) == \
            exhaustive_optimal_value(p, structure), i


@criterion("7 (risk-attitude monotonicity and affine invariance)")
def test_criterion_7_risk_monotonicity():
    rng = random.Random(20250807)
    checked = 0
    while checked < 100:
        # mix forced static instances (dominated leaf planted) with dynamic ones
        if rng.random() < 0.6:
            p = random_problem(rng, max_periods=1, min_leaves=2, max_leaves=4)
            leaf = rng.choice(p.leaves)
        else:
            p = random_problem(rng, max_rules=300)
            leaf = rng.choice(p.leaves)
        if rz.dominating_rule(p, leaf) is None:
            continue
        f = random_convex_increasing(rng)
        transformed = an.risk_transform(p, f)
        assert rz.dominating_rule(transformed, leaf) is not None
        checked += 1
    for _ in range(25):
        p = random_problem(rng, max_rules=300)
        f = an.PiecewiseLinearFunction.affine(
            F(rng.randint(1, 5), rng.randint(1, 3)),
            F(rng.randint(-4, 4), rng.randint(1, 3)))
        q = an.risk_transform(p, f)
        leaf = rng.choice(p.leaves)
        joint = random_joint(rng, p)
        marginal = random_marginal(rng, p)
        assert (rz.apparently_dominated(p, leaf) is None) == \
            (rz.apparently_dominated(q, leaf) is None)
        assert (rz.dominating_rule(p, leaf) is None) == \
            (rz.dominating_rule(q, leaf) is None)
        assert (rz.dominating_rule(p, joint) is None) == \
            (rz.dominating_rule(q, joint) is None)
        assert (rz.dominating_rule(p, marginal) is None) == \
            (rz.dominating_rule(q, marginal) is None)


@criterion("8 (enumeration counts)")
def test_criterion_8_enumeration_counts(example1, example2):
    assert len(dv.enumerate_pure_rules(example1)) == 15
    assert reference_rule_count(example1) == 15
    assert len(dv.enumerate_pure_rules(example2)) == 96
    assert reference_rule_count(example2) == 96
    for n in (1, 2, 3):
        tree = {chr(97 + i): "leaf" for i in range(n)}
        doc = {"periods": 1, "states": ["s"], "tree": tree,
               "utility": {k: {"s": 0} for k in tree}}
        static = m.load_problem(json.dumps(doc))
        assert len(dv.enumerate_pure_rules(static)) == n ** n
        assert reference_rule_count(static) == n ** n


@criterion("9 (seeded simulation sanity)")
def test_criterion_9_simulation(example1):
    structure = oc.InformationStructure.from_json_dict(
        example1, json.loads((PROBLEMS_DIR / "example1_structure.json").read_text()))
    strategy = oc.Strategy.from_json_dict(
        example1, json.loads((PROBLEMS_DIR / "example1_obedient_strategy.json").read_text()))
    empirical = oc.simulate(example1, strategy, structure, 100_000, seed=20240801)
    pull_back = sum(empirical.matrix[1], F(0))
    assert abs(pull_back - F(2, 3)) < F(1, 100)
