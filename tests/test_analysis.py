import json
import random
from fractions import Fraction as F

import pytest

from dynrat import analysis as an
from dynrat import deviation as dv
from dynrat import lp
from dynrat import model as m
from dynrat import rationalize as rz
from dynrat import risk as rk

from conftest import (
    fraction_matrix,
    lambda_D_set,
    random_convex_increasing,
    random_family,
    random_joint,
    random_marginal,
    random_problem,
    random_pure_rule,
    random_rule,
    utility,
)


def test_max_probability_examples(example1, example2, example3):
    assert rz.max_positive_marginal(
        example1, example1.sequence("invest,pull_back"))[0] == F(2, 3)
    for d, want in [("4/5", F(1, 2)), ("9/10", F(7, 9)), ("19/20", F(17, 19)),
                    ("1", F(1)), ("1/2", F(0)), ("3/4", F(0))]:
        inst = m.instantiate(example2, {"delta": d})
        assert rz.max_positive_marginal(inst, inst.sequence("w,x"))[0] == want
    for R, c, want in [("3", "2", F(1, 2)), ("7/2", "2", F(3, 4)), ("5", "3", F(2, 3))]:
        inst = m.instantiate(example3, {"R": R, "c": c})
        assert rz.max_positive_marginal(
            inst, inst.sequence("effort,effort"))[0] == want


def test_max_probability_extremes(example1):
    # probability one exactly when no lottery beats the sequence uniformly
    assert rz.max_positive_marginal(example1, example1.sequence("not_invest"))[0] == 1
    assert rz.max_positive_marginal(example1, example1.sequence("invest,invest"))[0] == 1


def test_max_probability_zero_iff_truly_dominated():
    rng = random.Random(7)
    zero_seen = one_seen = False
    for _ in range(25):
        p = random_problem(rng, max_rules=200)
        for leaf in p.leaves:
            value = rz.max_positive_marginal(p, leaf)[0]
            assert (value == 0) == (rz.dominating_rule(p, leaf) is not None)
            assert (value == 1) == (rz.apparently_dominated(p, leaf) is None)
            zero_seen |= value == 0
            one_seen |= value == 1
    assert zero_seen and one_seen


def test_waiting_probability_formula(example2):
    # computed ceiling equals (3 - 2/d) beyond 4/5, zero before
    for d in (F(1, 10), F(2, 5), F(79, 100), F(4, 5), F(17, 20), F(9, 10), F(99, 100), F(1)):
        inst = m.instantiate(example2, {"delta": d})
        got = rz.max_positive_marginal(inst, inst.sequence("w,x"))[0]
        want = (3 - 2 / d) if d >= F(4, 5) else F(0)
        assert got == want


def test_piecewise_linear_validation_and_eval():
    f = rk.PiecewiseLinearFunction((F(0),), (F(1), F(2)), F(0))
    assert f(F(-3)) == -3 and f(F(2)) == 4 and f(F(0)) == 0
    g = rk.PiecewiseLinearFunction((F(-1), F(1)), (F(1, 2), F(1), F(3)), F(0))
    assert g(F(-2)) == -F(1, 2)
    assert g(F(0)) == 1
    assert g(F(2)) == F(2) + F(3)
    with pytest.raises(m.ValidationError, match="convex"):
        rk.PiecewiseLinearFunction((F(0),), (F(2), F(1)), F(0))
    with pytest.raises(m.ValidationError, match="increasing"):
        rk.PiecewiseLinearFunction((F(0),), (F(0), F(1)), F(0))
    with pytest.raises(m.ValidationError, match="breakpoint"):
        rk.PiecewiseLinearFunction((F(1), F(0)), (F(1), F(1), F(1)), F(0))


def test_risk_transform_values(example1):
    f = rk.PiecewiseLinearFunction((F(0),), (F(1), F(2)), F(0))
    kinked = rk.risk_transform(example1, f)
    assert [utility(kinked, l, "good") for l in kinked.leaves] == [F(0), F(-1), F(4)]
    assert [utility(kinked, l, "bad") for l in kinked.leaves] == [F(0), F(-1), F(-2)]
    same = rk.risk_transform(example1, rk.PiecewiseLinearFunction.identity())
    assert (same.table, same.den) == (example1.table, example1.den)


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
        transformed = rk.risk_transform(p, f)
        assert rz.dominating_rule(transformed, leaf) is not None


def test_positive_affine_preserves_all_verdicts():
    rng = random.Random(13)
    for _ in range(12):
        p = random_problem(rng, max_rules=200)
        f = rk.PiecewiseLinearFunction.affine(
            F(rng.randint(1, 5), rng.randint(1, 3)), F(rng.randint(-4, 4), rng.randint(1, 3)))
        q = rk.risk_transform(p, f)
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
    got = lambda_D_set(example2, hedge, probe.sequence("w,x"), ["1/2", "4/5", "9/10"])
    assert got == (False, True, True)


def test_lambda_D_set_identity_and_bounds(example2):
    probe = m.instantiate(example2, {"delta": 1})
    ident = dv.identity_rule(probe)
    assert lambda_D_set(example2, ident, probe.sequence("w,x"),
                           ["0", "1/2", "1"]) == (True, True, True)
    all_x = dv.DeviationRule.from_mapping(
        probe, {"w,x": "x", "w,y": "x", "x": "x", "y": "x"})
    assert lambda_D_set(example2, all_x, probe.sequence("w,y"), ["1"]) == (True,)
    # nothing left to sweep: every parameter pinned, or none to begin with
    with pytest.raises(m.ValidationError, match="no parameter left to sweep"):
        lambda_D_set(example2, ident, probe.sequence("w,x"), ["1/2"],
                        fixed={"delta": "1/2"})
    with pytest.raises(m.ValidationError, match="no parameter left to sweep"):
        lambda_D_set(probe, ident, probe.sequence("w,x"), ["1/2"], fixed={})


def test_lambda_D_set_joint_law(example2):
    # the rule that sends every leaf to x is the witness of a "no" at 3/4
    probe = m.instantiate(example2, {"delta": 1})
    joint = m.JointDistribution.from_mapping(probe, {("w,x", "X"): "1/2", ("w,y", "Y"): "1/2"})
    all_x = dv.DeviationRule.from_mapping(
        probe, {"w,x": "x", "w,y": "x", "x": "x", "y": "x"})
    grid = [F(i, 8) for i in range(9)]
    got = lambda_D_set(example2, all_x, joint, grid)
    assert got == tuple(
        not dv.dominates(m.instantiate(example2, {"delta": g}), all_x, joint)
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
    for _ in range(6):
        rule = random_rule(rng, probe)
        screen = lambda_D_set(example2, rule, wx, grid)
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


def test_tag_at_refuses_untested_points(example2):
    probe = m.instantiate(example2, {"delta": 1})
    iset = an.identified_set(example2, probe.sequence("w,x"), "delta", "1/2", 1,
                             grid_points=5, tolerance="1/32")
    assert iset.tag_at("1/2") == "out" and iset.tag_at(1) == "in"
    for point in ("0", "1/4", "33/32", "2"):
        with pytest.raises(m.ValidationError, match="outside the swept range"):
            iset.tag_at(point)
    with pytest.raises(m.ValidationError, match="outside the swept range"):
        an.IdentifiedSet("delta", ()).tag_at(0)


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


# ---------------------------------------------------------------------------
# Sweeps with certificate ranges against fresh decisions
# ---------------------------------------------------------------------------

def fresh_identified_set(family, observation, param, lo, hi, tolerance, grid_points):
    """The sweep without certificate ranges: every sample decided afresh by
    `dominating_rule` (a fresh `rationalize.certificate`), with the same
    grid and bisection, in Fractions."""
    def test(point):
        return rz.dominating_rule(m.instantiate(family, {param: point}), observation) is None

    step = (hi - lo) / (grid_points - 1)
    grid = [lo + i * step for i in range(grid_points)]
    verdicts = [test(g) for g in grid]
    intervals = []
    region_start = grid[0]
    for i in range(len(grid) - 1):
        if verdicts[i] == verdicts[i + 1]:
            continue
        x, y = grid[i], grid[i + 1]
        while y - x > tolerance:
            mid = (x + y) / 2
            if test(mid) == verdicts[i]:
                x = mid
            else:
                y = mid
        intervals.append((region_start, x, "in" if verdicts[i] else "out"))
        intervals.append((x, y, "gap"))
        region_start = y
    intervals.append((region_start, grid[-1], "in" if verdicts[-1] else "out"))
    return tuple(intervals)


def test_carried_certificates_keep_every_interval(example2, example3, monkeypatch):
    # equal intervals mean every grid and bisection verdict is the fresh
    # one: a grid point lies in an "in" or "out" piece (perhaps of zero
    # width), and one differing bisection verdict would move a bracket to
    # the other half, so the gap would not come out the same
    rng = random.Random(23)
    cases = []
    for _ in range(14):
        family = random_family(rng)
        probe = m.instantiate(family, {"t": 0})
        for observation in (rng.choice(probe.leaves), random_marginal(rng, probe),
                            random_joint(rng, probe)):
            cases.append((family, observation, "t", F(-2), F(2), {}, 9))
    # longer grids, where ranges leave more points unpinned
    for _ in range(6):
        family = random_family(rng)
        probe = m.instantiate(family, {"t": 0})
        for observation in (rng.choice(probe.leaves), random_marginal(rng, probe),
                            random_joint(rng, probe)):
            cases.append((family, observation, "t", F(-3), F(3), {}, 17))
    probe2 = m.instantiate(example2, {"delta": 1})
    for observation in (probe2.sequence("w,x"),
                        m.MarginalDistribution.from_mapping(probe2, {"w,x": "3/4", "w,y": "1/4"}),
                        m.JointDistribution.from_mapping(
                            probe2, {("w,x", "X"): "1/2", ("w,y", "Y"): "1/2"})):
        cases.append((example2, observation, "delta", F(0), F(1), {}, 9))
    probe3 = m.instantiate(example3, {"R": 4, "c": 1})
    for leaf in probe3.leaves:
        cases.append((example3, leaf, "c", F(0), F(8), {"R": 4}, 9))
    pins = []
    substitute = an.substitute_params
    monkeypatch.setattr(an, "substitute_params", lambda problem, point: (
        pins.append(point) or substitute(problem, point)))
    flips, unchecked = set(), 0
    for family, observation, param, lo, hi, fixed, grid_points in cases:
        del pins[:]
        got = an.identified_set(family, observation, param, lo, hi, tolerance=F(1, 64),
                                grid_points=grid_points, fixed=fixed or None)
        swept = [point[param] for point in pins if param in point]
        assert len(swept) == len(set(swept))  # no point is pinned twice
        step = (hi - lo) / (grid_points - 1)
        unchecked += len({lo + i * step for i in range(grid_points)} - set(swept))
        pinned = m.substitute_params(family, {k: F(v) for k, v in fixed.items()})
        want = fresh_identified_set(pinned, observation, param, lo, hi, F(1, 64), grid_points)
        assert got.intervals == want
        tags = [tag for _, _, tag in want if tag != "gap"]
        kind = type(observation).__name__
        flips |= {(kind, a, b) for a, b in zip(tags, tags[1:])}
    # each kind of certificate meets the end of its range: a rule's "out"
    # stretch ends at an "in" one and a law's "in" stretch at an "out" one
    for kind in ("str", "MarginalDistribution", "JointDistribution"):
        assert {(kind, "out", "in"), (kind, "in", "out")} <= flips
    assert unchecked > 100


# (lo, hi, tolerance, grid points) at the edges of the integer samples
SAMPLE_EDGES = [
    (F(-7, 3), F(5, 7), F(1, 64), 9),  # a negative range over unequal denominators
    (F(-2), F(2), F(1, 3), 9),
    (F(-2), F(2), F(1, 2), 9),  # the tolerance is the grid step: no bisection
    (F(-2), F(2), F(3), 9),  # and past it
    (F(-2), F(2), F(1, 10**40), 5),  # about 130 halvings a gap
    (F(-2), F(2), F(1, 64), 2),
    (F(-2), F(2), F(1, 64), 5),
]


@pytest.mark.parametrize("lo, hi, tol, grid_points", SAMPLE_EDGES)
def test_integer_samples_match_the_fraction_sweep(lo, hi, tol, grid_points, monkeypatch):
    # the sweep's samples are integers over one denominator: it must give
    # the intervals of the sweep in Fractions, and pin a sample only to
    # decide it afresh or to run a law's induction there, never twice
    rng = random.Random(41)
    cases = []
    for _ in range(3):
        family = random_family(rng)
        start = m.instantiate(family, {"t": lo})
        # each state recommends its best leaf at lo: obedient there
        best = m.JointDistribution.from_mapping(start, {
            (max(start.leaves, key=lambda a: utility(start, a, s)), s): F(1, len(start.states))
            for s in start.states})
        cases += [(family, observation) for observation in (
            rng.choice(start.leaves), random_marginal(rng, start), best)]
    pins, fresh, cuts = [], [], []
    substitute, certificate, induction = an.substitute_params, an.certificate, an.best_joint_deviation

    def pinned(problem, point):
        pins.append((substitute(problem, point), point["t"]))
        return pins[-1][0]

    def at(problem):
        return next(t for p, t in pins if p is problem)

    monkeypatch.setattr(an, "substitute_params", pinned)
    monkeypatch.setattr(an, "certificate", lambda problem, observation: (
        fresh.append(at(problem)) or certificate(problem, observation)))
    monkeypatch.setattr(an, "best_joint_deviation", lambda problem, law: (
        cuts.append(at(problem)) or induction(problem, law)))
    step, gaps = (hi - lo) / (grid_points - 1), set()
    for family, observation in cases:
        del pins[:], fresh[:], cuts[:]
        got = an.identified_set(family, observation, "t", lo, hi, tolerance=tol,
                                grid_points=grid_points)
        want = fresh_identified_set(family, observation, "t", lo, hi, tol, grid_points)
        assert got.intervals == want
        points = [t for _, t in pins]
        assert len(points) == len(set(points)) and len(fresh) == len(set(fresh))
        assert set(points) == set(fresh) | set(cuts)
        for x, y, tag in want:
            if tag == "gap":
                gaps.add((type(observation).__name__, y - x == step, y - x <= tol))
    kinds = {kind for kind, _, _ in gaps}
    assert kinds == {"str", "MarginalDistribution", "JointDistribution"}
    # a gap is one grid cell exactly when the tolerance is not below the step
    assert {(cell, narrow) for _, cell, narrow in gaps} == {(tol >= step, True)}


def test_unfixed_family_is_the_problem_itself(example2, example3):
    assert an._single_param_family(example2, "delta", None) is example2
    assert an._single_param_family(example2, "delta", {}) is example2
    pinned = an._single_param_family(example3, "c", {"R": 4})
    assert pinned.param_names == ("c",)
    assert pinned.table == m.substitute_params(example3, {"R": 4}).table
    for problem, param, fixed, refusal in (
            (example2, "gamma", None, "unknown parameter 'gamma'"),
            (example2, "delta", {"gamma": 1}, "unknown parameter 'gamma'"),
            (example3, "c", {"c": 1}, "cannot both sweep and fix 'c'"),
            (example3, "c", None, "one-dimensional sweep only: fix parameter 'R' first"),
            (example3, "c", {}, "one-dimensional sweep only: fix parameter 'R' first")):
        with pytest.raises(m.ValidationError, match=refusal):
            an._single_param_family(problem, param, fixed)


def test_sweep_remaps_each_block_set_once(monkeypatch):
    # every LP of a sweep on the same blocks shares one tuple of polytope rows
    calls = []
    rows_on = lp.DeviationPolytope.rows_on

    def counted(poly, inputs):
        calls.append((poly, tuple(inputs), rows_on(poly, inputs)))
        return calls[-1][2]

    monkeypatch.setattr(lp.DeviationPolytope, "rows_on", counted)
    rng = random.Random(43)
    for _ in range(8):
        family = random_family(rng)
        probe = m.instantiate(family, {"t": 0})
        for observation in (rng.choice(probe.leaves), random_marginal(rng, probe)):
            an.identified_set(family, observation, "t", -3, 3, tolerance="1/64",
                              grid_points=9)
    shared = 0
    for poly, inputs, rows in calls:
        same = [got for other, given, got in calls if other is poly and given == inputs]
        assert all(got is rows for got in same)
        shared += len(same) > 1 and len(inputs) < poly.n
    assert shared


# An all-"in" marginal sweep over t in [0, 2] (one seeded identify workload
# problem, written out): the law the dominance program finds at t is obedient
# at or below t only, so a left-to-right scan pays one LP per grid point.
T1_LIKE = {
    "periods": 2, "states": ["s0", "s1", "s2"], "params": ["t"],
    "tree": {"a": "leaf", "b": {"a": "leaf", "b": "leaf"}},
    "utility": {"a": {"s0": "1 - 2*t", "s1": "7/4 - 5/2*t", "s2": "-33/4"},
                "b,a": {"s0": "-4 - t", "s1": "-23/4 + 5/4*t", "s2": "3"},
                "b,b": {"s0": "2*t", "s1": "-9/2 - 5/4*t", "s2": "-7 + 5/2*t"}},
}


def test_sweep_decides_the_far_end_after_a_one_point_law(monkeypatch):
    family = m.problem_from_dict(T1_LIKE)
    probe = m.instantiate(family, {"t": 0})
    marginal = m.MarginalDistribution.from_mapping(probe, {"a": "1/7", "b,a": "2/7", "b,b": "4/7"})
    points = [m.instantiate(family, {"t": F(k, 16)}) for k in range(33)]
    for k, at in enumerate(points):
        law = rz.certificate(at, marginal)
        assert isinstance(law, m.JointDistribution)
        assert [dv.best_joint_deviation(p, law)[0] <= 0 for p in points[k:]] == (
            [True] + [False] * (32 - k) if k >= 4 else [True] * (5 - k) + [False] * 28)
    solves = []
    solve = lp.solve
    monkeypatch.setattr(lp, "solve", lambda prog: solves.append(1) or solve(prog))
    iset = an.identified_set(family, marginal, "t", 0, 2)
    # the law of t = 0 covers [0, 1/4], the one of 5/16 only its own point;
    # the law of the last point then covers all the rest (29 LPs from the left)
    assert len(solves) <= 3
    assert iset.intervals == fresh_identified_set(family, marginal, "t", F(0), F(2), F(1, 512), 33)
    assert iset.intervals == ((F(0), F(2), "in"),)


def test_sweep_reuses_certificates(example2, monkeypatch):
    solves, points = [], []
    solve, substitute = lp.solve, an.substitute_params
    monkeypatch.setattr(lp, "solve", lambda prog: solves.append(1) or solve(prog))
    monkeypatch.setattr(an, "substitute_params", lambda problem, point: (
        points.append(point) if "delta" in point else None) or substitute(problem, point))
    probe = m.instantiate(example2, {"delta": 1})
    iset = an.identified_set(example2, probe.sequence("w,x"), "delta", 0, 1)
    assert [tag for _, _, tag in iset.intervals] == ["out", "gap", "in"]
    assert 0 < len(solves) < len(points)


def test_sweep_runs_the_joint_induction_once_per_point(monkeypatch):
    # joint data is its own law: checking it is deciding it, never twice
    points, runs = [], []
    induction, substitute = dv.best_joint_deviation, an.substitute_params
    counted = lambda problem, joint: runs.append(len(points)) or induction(problem, joint)
    monkeypatch.setattr(an, "best_joint_deviation", counted)
    monkeypatch.setattr(rz, "best_joint_deviation", counted)
    monkeypatch.setattr(an, "substitute_params", lambda problem, point: (
        points.append(point) if "t" in point else None) or substitute(problem, point))
    rng = random.Random(29)
    turned_out = 0
    for _ in range(10):
        family = random_family(rng)
        start = m.instantiate(family, {"t": -2})
        # each state recommends its best leaf at t = -2: obedient there
        joint = m.JointDistribution.from_mapping(start, {
            (max(start.leaves, key=lambda a: utility(start, a, s)), s): F(1, len(start.states))
            for s in start.states})
        del points[:], runs[:]
        iset = an.identified_set(family, joint, "t", -2, 2, tolerance="1/64", grid_points=9)
        assert len(runs) == len(set(runs))
        turned_out += any(tag == "out" for _, _, tag in iset.intervals)
    assert turned_out


def test_sweep_law_needs_its_dual_check(example2, monkeypatch):
    # an "in" sample decided afresh carries a law read from the duals, and a
    # law whose dual certificate fails its check must not be carried
    monkeypatch.setattr(lp, "check_duals", lambda prog, sol: False)
    probe = m.instantiate(example2, {"delta": 1})
    with pytest.raises(rz.InternalInconsistencyError, match="dual certificate"):
        an.identified_set(example2, probe.sequence("w,x"), "delta", 0, 1)


def test_sweep_builds_each_tree_piece_once(example2, monkeypatch):
    # a sweep point shares its family's validated tree, so neither the
    # tree's validation nor the deviation polytope nor the prefix runs that
    # the polytope and the backward induction read is built again at each
    # point
    probe = m.instantiate(example2, {"delta": 1})
    observations = (probe.sequence("w,x"),
                    m.MarginalDistribution.from_mapping(probe, {"w,x": "3/4", "w,y": "1/4"}),
                    m.JointDistribution.from_mapping(
                        probe, {("w,x", "X"): "1/2", ("w,y", "Y"): "1/2"}))
    families = [m.problem_from_dict(m.problem_to_dict(example2)) for _ in observations]
    builds = []

    def counted(key, build):
        return lambda *args: builds.append(key) or build(*args)

    monkeypatch.setattr(m.Tree, "__init__", counted("tree", m.Tree.__init__))
    monkeypatch.setattr(lp, "deviation_polytope_constraints",
                        counted("polytope", lp.deviation_polytope_constraints))
    monkeypatch.setattr(m.Prefixes, "__init__", counted("prefixes", m.Prefixes.__init__))
    for family, observation, pieces in zip(families, observations,
                                           ({"polytope", "prefixes"}, {"polytope", "prefixes"},
                                            {"prefixes"})):
        del builds[:]
        iset = an.identified_set(family, observation, "delta", 0, 1)
        # one build at most per family, however many samples the sweep
        # decides: its 33 grid points, and each gap's bisection halves the
        # grid step down to the gap's width
        samples = 33 + sum((F(1, 32) / (hi - lo)).numerator.bit_length() - 1
                           for lo, hi, tag in iset.intervals if tag == "gap")
        assert pieces <= set(builds) and len(builds) == len(set(builds)) and samples > 15
        assert "tree" not in builds


def test_sweep_puts_the_observed_law_over_one_lcm_once(example2, monkeypatch):
    # the law keeps its integer form, so no sweep point converts it again
    probe = m.instantiate(example2, {"delta": 1})
    laws = (m.MarginalDistribution.from_mapping(probe, {"w,x": "3/4", "w,y": "1/4"}),
            m.JointDistribution.from_mapping(probe, {("w,x", "X"): "1/2", ("w,y", "Y"): "1/2"}))
    over_lcm = m._over_lcm
    for law in laws:
        cells = [q.as_integer_ratio() for q in (
            [F(w, law.den) for w in law.weights] if isinstance(law, m.MarginalDistribution)
            else [w for row in fraction_matrix(law) for w in row])]
        calls = []
        counted = lambda values: calls.append(list(values)) or over_lcm(values)  # noqa: E731
        for module in (m, dv, an, lp, rz):  # every module that imports it
            if hasattr(module, "_over_lcm"):
                monkeypatch.setattr(module, "_over_lcm", counted)
        an.identified_set(example2, law, "delta", 0, 1)
        assert calls.count(cells) <= 1


def test_sweep_reads_certificates_in_integers(example2, monkeypatch):
    # over sequence or marginal data the sweep builds each rule and each law
    # from the solver's integers, and a law's cuts from the rules of the
    # backward induction: no Fraction assignment, duals or matrix
    probe = m.instantiate(example2, {"delta": 1})
    built, made, runs = [], [], []

    def counted(record, key, fn):
        return lambda *args: record.append(key) or fn(*args)

    def law_check(*args):
        gain, rule = dv.best_joint_deviation(*args)
        return gain, counted(built, "induction rule", rule)

    # the package has no Fraction view for a sweep to read: the tests keep
    # their own (`conftest.fraction_matrix`, `fraction_assignment`, `fraction_duals`)
    for cls, name in ((dv.DeviationRule, "matrix"), (m.JointDistribution, "matrix"),
                      (lp.LpSolution, "assignment"), (lp.LpSolution, "duals")):
        assert not hasattr(cls, name), name
    for cls, key in ((dv.DeviationRule, "rule"), (m.JointDistribution, "law")):
        monkeypatch.setattr(cls, "__init__", counted(made, key, cls.__init__))
    monkeypatch.setattr(an, "best_joint_deviation", counted(runs, "law check", law_check))
    for observation in (probe.sequence("w,x"),
                        m.MarginalDistribution.from_mapping(probe, {"w,x": "3/4", "w,y": "1/4"})):
        iset = an.identified_set(example2, observation, "delta", 0, 1)
        assert [tag for _, _, tag in iset.intervals] == ["out", "gap", "in"]
    assert set(made) == {"rule", "law"} and runs and set(built) == {"induction rule"}


def test_bisection_tries_every_rule_met(example3, monkeypatch):
    # example 3 at R = 1, an identify workload case: the bisection points
    # c = 15/32 and 33/32 are dominated by the rules found at c = 0 and
    # c = 17/16 on the grid, not by the last rule met, so they need no LP;
    # each rule's range holds them
    family = m.substitute_params(example3, {"R": 1})
    probe = m.instantiate(family, {"c": 0})
    marginal = m.MarginalDistribution.from_mapping(
        probe, {"effort,no_effort": "2/3", "no_effort": "1/3"})
    solves = []
    solve = lp.solve
    monkeypatch.setattr(lp, "solve", lambda prog: solves.append(1) or solve(prog))
    iset = an.identified_set(example3, marginal, "c", 0, 2, fixed={"R": 1})
    assert len(solves) <= 2
    assert iset.intervals == fresh_identified_set(family, marginal, "c", F(0), F(2),
                                                  F(1, 512), 33)


def test_sweep_checks_laws_only_where_they_may_hold(example2, monkeypatch):
    # a law's range stops at the ranges of the rules met, and one found at a
    # bisection point is searched only on the side the bracket keeps: on
    # example 2 a law is checked once a sweep for the sequence, found just
    # past the first rule's range, and four times for the marginal
    runs, solves = [], []
    induction, solve = an.best_joint_deviation, lp.solve
    monkeypatch.setattr(an, "best_joint_deviation", lambda problem, law: (
        runs.append(1) or induction(problem, law)))
    monkeypatch.setattr(lp, "solve", lambda prog: solves.append(1) or solve(prog))
    probe = m.instantiate(example2, {"delta": 1})
    for observation, inductions, lps in (
            (probe.sequence("w,x"), 1, 2),
            (m.MarginalDistribution.from_mapping(probe, {"w,x": "3/4", "w,y": "1/4"}), 4, 7)):
        del runs[:], solves[:]
        iset = an.identified_set(example2, observation, "delta", 0, 1)
        assert (len(runs), len(solves)) == (inductions, lps)
        assert iset.intervals == fresh_identified_set(example2, observation, "delta", F(0), F(1),
                                                      F(1, 1024), 33)


def test_affine_sign_test_agrees_with_dominates():
    # the sweep's rule check at t = p/q, on the family's constant and slope
    # gains with nothing pinned, is `dominates` on the family pinned at t
    rng = random.Random(31)
    seen = set()
    for _ in range(12):
        family = random_family(rng)
        probe = m.instantiate(family, {"t": 0})
        for observation in (rng.choice(probe.leaves), random_marginal(rng, probe),
                            random_joint(rng, probe)):
            rules = [random_rule(rng, probe) for _ in range(3)]
            points = [F(rng.randint(-8, 8), rng.randint(1, 4)) for _ in range(4)]
            for t in points:
                found = rz.dominating_rule(m.instantiate(family, {"t": t}), observation)
                rules += [found] if found is not None else []
            points += [t + F(sign, 10**12 + 39) for t in points for sign in (-1, 1)]
            points += [F(rng.randint(-10**9, 10**9), rng.randint(1, 10**9)) for _ in range(4)]
            for rule in rules:
                want = [dv.dominates(m.substitute_params(family, {"t": t}), rule, observation)
                        for t in points]
                assert lambda_D_set(family, rule, observation, points) == tuple(
                    not w for w in want)
                seen |= {(type(observation).__name__, w) for w in want}
    assert len(seen) == 6  # each kind of observation, dominated and not
    with pytest.raises(m.ValidationError, match="one-parameter family"):
        dv.affine_gains(m.instantiate(family, {"t": 0}), rules[0])


def one_state_family(utility: dict) -> m.DecisionProblem:
    """A one-period, one-state family in t with one leaf per entry."""
    return m.load_problem(json.dumps({
        "periods": 1, "states": ["s"], "params": ["t"],
        "tree": {leaf: "leaf" for leaf in utility},
        "utility": {leaf: {"s": u} for leaf, u in utility.items()}}))


def check_obedient_interval(family, joint, lo, hi, param="t", den=24):
    """A joint law's range by `analysis._span` with `_law_cut` against the
    backward induction at every sample m/den of [lo, hi], seeded at the
    last obedient one; and the sweep's every grid and bisection verdict is
    the fresh one.  Returns the range's ends as Fractions (first > last
    when it is empty) and the inductions it took, the seed's included; for
    an empty range, those of the whole sweep."""
    samples = range(lo * den, hi * den + 1)
    pins, runs = [], []

    def pin(k):
        pins.append(k)
        return m.substitute_params(family, {param: F(k, den)})

    def induction(problem, law, run=dv.best_joint_deviation):
        runs.append(1)
        return run(problem, law)

    obedient = [k for k in samples if dv.best_joint_deviation(pin(k), joint)[0] <= 0]
    with pytest.MonkeyPatch.context() as patch:
        for module in (an, rz):
            patch.setattr(module, "best_joint_deviation", induction)
        iset = an.identified_set(family, joint, param, lo, hi, tolerance=F(1, 64), grid_points=9)
    assert iset.intervals == fresh_identified_set(family, joint, param, F(lo), F(hi), F(1, 64), 9)
    if not obedient:
        return F(hi), F(lo), len(runs)
    assert obedient == list(range(obedient[0], obedient[-1] + 1))  # an interval
    del pins[:]
    cut = an._law_cut(family, joint, den, pin, lambda k, gains: None)
    first, last = an._span(obedient[-1], samples[0], samples[-1], cut, [], True)
    assert (first, last) == (obedient[0], obedient[-1]) and len(pins) == len(set(pins))
    return F(first, den), F(last, den), len(pins) + 1


def test_joint_interval_matches_the_induction():
    ends = {}
    rng = random.Random(37)
    for k in range(16):
        family = random_family(rng)
        start = m.instantiate(family, {"t": -2})
        best = {s: max(start.leaves, key=lambda a: utility(start, a, s)) for s in start.states}
        joint = (random_joint(rng, start) if k % 2 else m.JointDistribution.from_mapping(
            start, {(best[s], s): F(1, len(start.states)) for s in start.states}))
        first, last, _ = check_obedient_interval(family, joint, -2, 2)
        ends["empty" if first > last else "inside" if -2 < first or last < 2
             else "whole"] = True
    assert {"empty", "inside"} <= set(ends)
    # a family whose slopes are all 0: the law is obedient everywhere or nowhere
    flat = m.problem_from_dict({**m.problem_to_dict(random_problem(rng, max_leaves=4)),
                                "params": ["t"]})
    assert all(row[1] == 0 for row in flat.table)
    probe = m.instantiate(flat, {"t": 0})
    obedient = m.JointDistribution.from_mapping(probe, {
        (max(probe.leaves, key=lambda a: utility(probe, a, s)), s): F(1, len(probe.states))
        for s in probe.states})
    assert check_obedient_interval(flat, obedient, -1, 1)[:2] == (-1, 1)
    family = one_state_family({"a": 0, "b": 1})
    law = m.JointDistribution.from_mapping(m.instantiate(family, {"t": 0}), {("a", "s"): 1})
    first, last, runs = check_obedient_interval(family, law, -1, 1)
    assert first > last and runs == 1


def test_joint_interval_shapes(example2):
    family = one_state_family({"a": 0, "b": "t", "c": "-t"})
    at_a = m.JointDistribution.from_mapping(m.instantiate(family, {"t": 0}), {("a", "s"): 1})
    # obedient at t = 0 alone, and nowhere in [1, 2]
    assert check_obedient_interval(family, at_a, -1, 1) == (0, 0, 3)
    first, last, _ = check_obedient_interval(family, at_a, 1, 2)
    assert first > last
    # obedient on the whole range: two inductions, one at each end
    family = one_state_family({"a": 2, "b": "t"})
    at_a = m.JointDistribution.from_mapping(m.instantiate(family, {"t": 0}), {("a", "s"): 1})
    assert check_obedient_interval(family, at_a, -1, 1) == (-1, 1, 2)
    # the golden identify report's law: exactly [4/5, 1], in three inductions
    probe = m.instantiate(example2, {"delta": 1})
    joint = m.JointDistribution.from_mapping(probe, {("w,x", "X"): "1/2", ("w,y", "Y"): "1/2"})
    assert check_obedient_interval(example2, joint, 0, 1, "delta", 40) == (F(4, 5), 1, 3)


def test_rule_range_is_where_it_dominates():
    # a rule's range by `analysis._span` with `_rule_cut` is the samples
    # where `deviation.dominates` holds on the family pinned there, for a
    # sequence, a marginal with a zero-weight leaf and a joint law; the
    # samples just past its ends include ties, where the level sum is 0:
    # the strict condition fails there
    rng, other = random.Random(47), random.Random(53)
    den, ties = 24, set()
    samples = range(-3 * den, 3 * den + 1)
    for j in range(12):
        family = random_family(rng)
        probe = m.instantiate(family, {"t": 0})
        pinned = {k: m.substitute_params(family, {"t": F(k, den)}) for k in samples}
        marginal = random_marginal(rng, probe)
        while all(marginal.weights) and len(probe.leaves) > 1:
            marginal = random_marginal(rng, probe)
        # every other joint law is one cell, whose ties fall on the samples
        joint = random_joint(rng, probe) if j % 2 else m.JointDistribution.from_mapping(
            probe, {(rng.choice(probe.leaves), rng.choice(probe.states)): 1})
        for observation in (rng.choice(probe.leaves), marginal, joint):
            rows = m.consistency(family, observation)
            found = [rz.dominating_rule(pinned[k], observation) for k in rng.sample(samples, 3)]
            # a pure rule given by its output leaves has its rule's gains
            targets = [row[0][0] for row in random_pure_rule(other, probe).rows]
            assert dv.affine_gains(family, targets) == dv.affine_gains(
                family, dv.pure_rule(probe, targets))
            for rule in [r for r in found if r] + [random_rule(rng, probe) for _ in range(2)]:
                held = [k for k in samples if dv.dominates(pinned[k], rule, observation)]
                if not held:
                    continue
                assert held == list(range(held[0], held[-1] + 1))  # an interval
                gains = dv.affine_gains(family, rule)
                cut = an._rule_cut(gains, rows, den)
                assert an._span(held[len(held) // 2], samples[0], samples[-1], cut, [],
                                False) == (held[0], held[-1])
                for k in (held[0] - 1, held[-1] + 1):
                    if k in samples:
                        cells = an._gains_at(gains, k, den)
                        weights, strict = dv.failed_condition(cells, rows)
                        if sum(w * cells[c] for c, w in weights) == 0:
                            ties.add((type(observation).__name__, strict))
    assert {(kind, True) for kind in ("str", "MarginalDistribution",
                                      "JointDistribution")} <= ties
