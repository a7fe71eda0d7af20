import random
from fractions import Fraction as F

import pytest

from dynrat import analysis as an
from dynrat import deviation as dv
from dynrat import model as m
from dynrat import rationalize as rz

from conftest import random_convex_increasing, random_joint, random_marginal, random_problem


def test_max_probability_examples(example1, example2, example3):
    assert an.max_rationalizable_probability(
        example1, example1.sequence("invest,pull_back")) == F(2, 3)
    for d, want in [("4/5", F(1, 2)), ("9/10", F(7, 9)), ("19/20", F(17, 19)),
                    ("1", F(1)), ("1/2", F(0)), ("3/4", F(0))]:
        inst = m.instantiate(example2, {"delta": d})
        assert an.max_rationalizable_probability(inst, inst.sequence("w,x")) == want
    for R, c, want in [("3", "2", F(1, 2)), ("7/2", "2", F(3, 4)), ("5", "3", F(2, 3))]:
        inst = m.instantiate(example3, {"R": R, "c": c})
        assert an.max_rationalizable_probability(
            inst, inst.sequence("effort,effort")) == want


def test_max_probability_extremes(example1):
    # probability one exactly when no lottery beats the sequence uniformly
    assert an.max_rationalizable_probability(example1, example1.sequence("not_invest")) == 1
    assert an.max_rationalizable_probability(example1, example1.sequence("invest,invest")) == 1


def test_max_probability_zero_iff_truly_dominated():
    rng = random.Random(7)
    zero_seen = one_seen = False
    for _ in range(25):
        p = random_problem(rng, max_rules=200)
        for leaf in p.leaves:
            value = an.max_rationalizable_probability(p, leaf)
            assert (value == 0) == (rz.dominating_rule(p, leaf) is not None)
            assert (value == 1) == (rz.apparently_dominated(p, leaf) is None)
            zero_seen |= value == 0
            one_seen |= value == 1
    assert zero_seen and one_seen


def test_waiting_probability_formula(example2):
    # computed ceiling equals (3 - 2/d) beyond 4/5, zero before
    for d in (F(1, 10), F(2, 5), F(79, 100), F(4, 5), F(17, 20), F(9, 10), F(99, 100), F(1)):
        inst = m.instantiate(example2, {"delta": d})
        got = an.max_rationalizable_probability(inst, inst.sequence("w,x"))
        want = (3 - 2 / d) if d >= F(4, 5) else F(0)
        assert got == want


def test_piecewise_linear_validation_and_eval():
    f = an.PiecewiseLinearFunction((F(0),), (F(1), F(2)), F(0))
    assert f(F(-3)) == -3 and f(F(2)) == 4 and f(F(0)) == 0
    g = an.PiecewiseLinearFunction((F(-1), F(1)), (F(1, 2), F(1), F(3)), F(0))
    assert g(F(-2)) == -F(1, 2)
    assert g(F(0)) == 1
    assert g(F(2)) == F(2) + F(3)
    with pytest.raises(m.ValidationError, match="convex"):
        an.PiecewiseLinearFunction((F(0),), (F(2), F(1)), F(0))
    with pytest.raises(m.ValidationError, match="increasing"):
        an.PiecewiseLinearFunction((F(0),), (F(0), F(1)), F(0))
    with pytest.raises(m.ValidationError, match="breakpoint"):
        an.PiecewiseLinearFunction((F(1), F(0)), (F(1), F(1), F(1)), F(0))


def test_risk_transform_values(example1):
    f = an.PiecewiseLinearFunction((F(0),), (F(1), F(2)), F(0))
    kinked = an.risk_transform(example1, f)
    assert [m.utility(kinked, l, "good") for l in kinked.leaves] == [F(0), F(-1), F(4)]
    assert [m.utility(kinked, l, "bad") for l in kinked.leaves] == [F(0), F(-1), F(-2)]
    same = an.risk_transform(example1, an.PiecewiseLinearFunction.identity())
    assert same.utilities == example1.utilities


def test_risk_transform_monotonicity_small():
    rng = random.Random(11)
    found = 0
    while found < 20:
        p = random_problem(rng, max_rules=200)
        leaf = rng.choice(p.leaves)
        if rz.dominating_rule(p, leaf) is None:
            continue
        found += 1
        f = random_convex_increasing(rng)
        transformed = an.risk_transform(p, f)
        assert rz.dominating_rule(transformed, leaf) is not None


def test_positive_affine_preserves_all_verdicts():
    rng = random.Random(13)
    for _ in range(12):
        p = random_problem(rng, max_rules=200)
        f = an.PiecewiseLinearFunction.affine(
            F(rng.randint(1, 5), rng.randint(1, 3)), F(rng.randint(-4, 4), rng.randint(1, 3)))
        q = an.risk_transform(p, f)
        leaf = rng.choice(p.leaves)
        joint = random_joint(rng, p)
        marginal = random_marginal(rng, p)
        assert (rz.apparently_dominated(p, leaf) is None) == (
            rz.apparently_dominated(q, leaf) is None)
        assert (rz.dominating_rule(p, leaf) is None) == (
            rz.dominating_rule(q, leaf) is None)
        assert (rz.dominating_rule(p, joint) is None) == (
            rz.dominating_rule(q, joint) is None)
        assert (rz.dominating_rule(p, marginal) is None) == (
            rz.dominating_rule(q, marginal) is None)


def test_lambda_D_set_hedge(example2):
    probe = m.instantiate(example2, {"delta": 1})
    hedge = dv.DeviationRule.from_mapping(probe, {
        "w,x": {"x": "1/2", "y": "1/2"}, "w,y": {"x": "1/2", "y": "1/2"},
        "x": "x", "y": "y"})
    got = an.lambda_D_set(example2, hedge, probe.sequence("w,x"), ["1/2", "4/5", "9/10"])
    assert got == (False, True, True)


def test_lambda_D_set_identity_and_bounds(example2):
    probe = m.instantiate(example2, {"delta": 1})
    ident = dv.identity_rule(probe)
    assert an.lambda_D_set(example2, ident, probe.sequence("w,x"),
                           ["0", "1/2", "1"]) == (True, True, True)
    all_x = dv.PureDeviationRule.from_mapping(
        probe, {"w,x": "x", "w,y": "x", "x": "x", "y": "x"})
    assert an.lambda_D_set(example2, all_x, probe.sequence("w,y"), ["1"]) == (True,)
    with pytest.raises(m.ValidationError, match="outside declared range"):
        an.lambda_D_set(example2, ident, probe.sequence("w,x"), ["2"],
                        bounds=(F(0), F(1)))


def test_lambda_D_set_joint_law(example2):
    # the rule that sends every leaf to x is the witness of a "no" at 3/4
    probe = m.instantiate(example2, {"delta": 1})
    joint = m.JointDistribution.from_mapping(probe, {("w,x", "X"): "1/2", ("w,y", "Y"): "1/2"})
    all_x = dv.PureDeviationRule.from_mapping(
        probe, {"w,x": "x", "w,y": "x", "x": "x", "y": "x"})
    grid = [F(i, 8) for i in range(9)]
    got = an.lambda_D_set(example2, all_x, joint, grid)
    assert got == tuple(
        not dv.dominates_joint(m.instantiate(example2, {"delta": g}), all_x, joint)
        for g in grid)
    assert got[6] is False and got[7] is True  # 3/4 excluded, 7/8 not


def test_lambda_D_set_contains_identified_region(example2):
    # no single rule can exclude a rationalizable parameter value
    probe = m.instantiate(example2, {"delta": 1})
    wx = probe.sequence("w,x")
    rng = random.Random(17)
    grid = [F(i, 8) for i in range(9)]
    exact = [rz.dominating_rule(m.instantiate(example2, {"delta": g}), wx) is None
             for g in grid]
    from conftest import random_rule
    for _ in range(6):
        rule = random_rule(rng, probe)
        screen = an.lambda_D_set(example2, rule, wx, grid)
        for ok_exact, ok_screen in zip(exact, screen):
            if ok_exact:
                assert ok_screen


def test_identified_set_waiting(example2):
    probe = m.instantiate(example2, {"delta": 1})
    iset = an.identified_set(example2, probe.sequence("w,x"), "delta", 0, 1)
    tags = [tag for _, _, tag in iset.intervals]
    assert tags == ["out", "gap", "in"]
    lo, hi, _ = iset.intervals[1]
    assert lo <= F(4, 5) <= hi and hi - lo <= F(1, 1024)
    assert iset.intervals[0][0] == 0 and iset.intervals[-1][1] == 1


def test_identified_set_marginal_boundary(example2):
    # weight 3/4 on waiting-then-x, remainder on waiting-then-y: the sharpest
    # completion, with threshold 2 / (3 - 3/4) = 8/9
    probe = m.instantiate(example2, {"delta": 1})
    marginal = m.MarginalDistribution.from_mapping(probe, {"w,x": "3/4", "w,y": "1/4"})
    iset = an.identified_set(example2, marginal, "delta", 0, 1)
    gaps = [iv for iv in iset.intervals if iv[2] == "gap"]
    assert len(gaps) == 1
    lo, hi, _ = gaps[0]
    assert lo <= F(8, 9) <= hi and hi - lo <= F(1, 1024)
    assert iset.intervals[-1][2] == "in"


def test_identified_set_constant_family():
    import json
    doc = {"periods": 1, "states": ["s"], "params": ["d"],
           "tree": {"a": "leaf", "b": "leaf"},
           "utility": {"a": {"s": 1}, "b": {"s": 0}}}
    family = m.load_problem(json.dumps(doc))
    probe = m.instantiate(family, {"d": 0})
    iset = an.identified_set(family, probe.sequence("a"), "d", 0, 1)
    assert iset.intervals == ((F(0), F(1), "in"),)
    iset_b = an.identified_set(family, probe.sequence("b"), "d", 0, 1)
    assert iset_b.intervals == ((F(0), F(1), "out"),)


def test_identified_set_fixed_parameters(example3):
    probe = m.instantiate(example3, {"R": 3, "c": 2})
    obs = probe.sequence("effort,effort")
    iset = an.identified_set(example3, obs, "c", "1/10", "3", fixed={"R": 3},
                             grid_points=17, tolerance="1/64")
    # (effort, effort) is rationalizable as long as the second round can pay
    # for itself in expectation: R - 2c can stay above... sample-certified scan
    assert iset.tag_at(F(2)) == "in"
    assert iset.tag_at(F(3)) in ("out", "gap")
    with pytest.raises(m.ValidationError, match="fix parameter"):
        an.identified_set(example3, obs, "c", 0, 1)
    with pytest.raises(m.ValidationError, match="unknown parameter"):
        an.identified_set(example3, obs, "zeta", 0, 1, fixed={"R": 3})


def test_identified_set_coverage_matches_point_tests(example2):
    probe = m.instantiate(example2, {"delta": 1})
    wx = probe.sequence("w,x")
    iset = an.identified_set(example2, wx, "delta", 0, 1, grid_points=9,
                             tolerance="1/128")
    rng = random.Random(19)
    for _ in range(20):
        point = F(rng.randint(0, 64), 64)
        tag = iset.tag_at(point)
        if tag == "gap":
            continue
        rationalizable = rz.dominating_rule(
            m.instantiate(example2, {"delta": point}), wx) is None
        assert rationalizable == (tag == "in")


def test_identified_set_serialization(example2):
    probe = m.instantiate(example2, {"delta": 1})
    iset = an.identified_set(example2, probe.sequence("w,x"), "delta", 0, 1,
                             grid_points=5, tolerance="1/32")
    doc = iset.to_json_dict()
    assert doc["param"] == "delta"
    assert all(set(iv) == {"lo", "hi", "tag"} for iv in doc["intervals"])
