import json
import random
from fractions import Fraction as F

import pytest

from dynrat import model as m
from dynrat import oracle as oc
from dynrat import rationalize as rz

from conftest import (
    PROBLEMS_DIR,
    exhaustive_optimal_value,
    random_joint,
    random_problem,
)


@pytest.fixture(scope="module")
def pessimism_structure(example1):
    doc = json.loads((PROBLEMS_DIR / "example1_structure.json").read_text())
    return oc.InformationStructure.from_json_dict(example1, doc)


@pytest.fixture(scope="module")
def obedient_strategy(example1):
    doc = json.loads((PROBLEMS_DIR / "example1_obedient_strategy.json").read_text())
    return oc.Strategy.from_json_dict(example1, doc)


def revealing_structure(problem):
    # one uninformative first-period signal, then the state is announced
    n = len(problem.states)
    kernel = []
    for s in range(n):
        row = [F(0)] * n
        row[s] = F(1)
        kernel.append(tuple(row))
    return oc.InformationStructure(
        problem.states,
        tuple(F(1, n) for _ in range(n)),
        (("s",), tuple(f"r{s}" for s in problem.states)),
        tuple(kernel),
    )


def test_structure_validation(example1):
    with pytest.raises(m.ValidationError, match="probability"):
        oc.InformationStructure(example1.states, (F(1, 2), F(1, 3)),
                                (("a",), ("b",)), ((F(1),), (F(1),)))
    with pytest.raises(m.ValidationError, match="shape"):
        oc.InformationStructure(example1.states, (F(1, 2), F(1, 2)),
                                (("a",), ("b",)), ((F(1),),))


def test_strategy_must_be_adapted(example1):
    # acting on the second signal in the first period is rejected
    sets = (("s",), ("g", "b"))
    kernel_bad = (
        (F(0), F(0), F(1)),   # (s,g) -> invest twice
        (F(1), F(0), F(0)),   # (s,b) -> stay out: first move differs by s2
    )
    with pytest.raises(m.ValidationError, match="adapted"):
        oc.Strategy(sets, example1.leaves, kernel_bad)
    kernel_ok = (
        (F(0), F(0), F(1)),
        (F(0), F(1), F(0)),
    )
    oc.Strategy(sets, example1.leaves, kernel_ok)


def test_strategy_value_pessimism(example1, pessimism_structure, obedient_strategy):
    assert oc.strategy_value(example1, obedient_strategy, pessimism_structure) == 0


def test_strategy_value_waiting(example2):
    inst = m.instantiate(example2, {"delta": "4/5"})
    structure = revealing_structure(inst)
    wait_match = oc.Strategy(
        structure.signal_sets, inst.leaves,
        ((F(0), F(0), F(1), F(0)), (F(0), F(0), F(0), F(1))),
    )
    assert oc.strategy_value(inst, wait_match, structure) == 4


def test_strategy_value_no_information_collapse(example1):
    flat = oc.InformationStructure(
        example1.states, (F(1, 3), F(2, 3)), (("u",), ("u",)), ((F(1),), (F(1),)))
    for i, leaf in enumerate(example1.leaves):
        kernel = [[F(0)] * len(example1.leaves)]
        kernel[0][i] = F(1)
        constant = oc.Strategy(flat.signal_sets, example1.leaves, tuple(map(tuple, kernel)))
        want = F(1, 3) * m.utility(example1, leaf, "good") + F(2, 3) * m.utility(
            example1, leaf, "bad")
        assert oc.strategy_value(example1, constant, flat) == want


def test_optimal_value_pessimism(example1, pessimism_structure):
    assert oc.optimal_value_dp(example1, pessimism_structure) == 0


def test_optimal_value_waiting(example2):
    inst = m.instantiate(example2, {"delta": "9/10"})
    assert oc.optimal_value_dp(inst, revealing_structure(inst)) == F(9, 2)
    boundary = m.instantiate(example2, {"delta": "4/5"})
    assert oc.optimal_value_dp(boundary, revealing_structure(boundary)) == 4


def test_optimal_value_static_collapse():
    rng = random.Random(5)
    for _ in range(10):
        p = random_problem(rng, max_rules=200)
        n = len(p.states)
        raw = [rng.randint(1, 5) for _ in range(n)]
        prior = tuple(F(x, sum(raw)) for x in raw)
        flat = oc.InformationStructure(
            p.states, prior, tuple(("u",) for _ in range(p.periods)),
            tuple((F(1),) for _ in range(n)))
        want = max(
            sum((prior[s] * m.utility(p, leaf, state)
                 for s, state in enumerate(p.states)), F(0))
            for leaf in p.leaves
        )
        assert oc.optimal_value_dp(p, flat) == want


def test_optimal_value_dominates_any_strategy(example1, pessimism_structure):
    rng = random.Random(7)
    sets = pessimism_structure.signal_sets
    for _ in range(20):
        rows = []
        first = rng.randrange(len(example1.leaves))
        for _ in pessimism_structure.sequences:
            row = [F(0)] * len(example1.leaves)
            row[first] = F(1)
            rows.append(tuple(row))
        constant = oc.Strategy(sets, example1.leaves, tuple(rows))
        assert oc.strategy_value(example1, constant, pessimism_structure) <= 0


def test_optimal_value_matches_exhaustive_search():
    rng = random.Random(11)
    for _ in range(25):
        p = random_problem(rng, max_periods=2, max_actions=2, max_states=2,
                           max_leaves=3, max_rules=100)
        n_states = len(p.states)
        sets = tuple(tuple(f"t{t}{i}" for i in range(rng.randint(1, 2)))
                     for t in range(p.periods))
        n_seq = 1
        for s in sets:
            n_seq *= len(s)
        kernel = []
        for _ in range(n_states):
            raw = [rng.randint(0, 4) for _ in range(n_seq)]
            if sum(raw) == 0:
                raw[0] = 1
            kernel.append(tuple(F(x, sum(raw)) for x in raw))
        raw = [rng.randint(1, 4) for _ in range(n_states)]
        prior = tuple(F(x, sum(raw)) for x in raw)
        structure = oc.InformationStructure(p.states, prior, sets, tuple(kernel))
        assert oc.optimal_value_dp(p, structure) == exhaustive_optimal_value(p, structure)


def test_verify_obedient_optimality(example1):
    knife = m.JointDistribution.from_mapping(example1, {
        ("invest,pull_back", "bad"): "1/2",
        ("invest,pull_back", "good"): "1/6",
        ("invest,invest", "good"): "1/3",
    })
    assert oc.verify_obedient_optimality(example1, rz.obedient_triple_from_joint(knife))
    pushy = rz.ObedientTriple(
        example1.leaves, example1.states, (F(1), F(0)),
        ((F(0), F(1), F(0)), (F(1), F(0), F(0))),
    )
    assert not oc.verify_obedient_optimality(example1, pushy)


def test_verify_obedient_optimality_one_leaf():
    doc = {"periods": 1, "states": ["s"], "tree": {"a": "leaf"},
           "utility": {"a": {"s": "-9"}}}
    one = m.load_problem(json.dumps(doc))
    triple = rz.ObedientTriple(one.leaves, one.states, (F(1),), ((F(1),),))
    assert oc.verify_obedient_optimality(one, triple)


def test_brute_force_examples(example1):
    knife = m.JointDistribution.from_mapping(example1, {
        ("invest,pull_back", "bad"): "1/2",
        ("invest,pull_back", "good"): "1/6",
        ("invest,invest", "good"): "1/3",
    })
    assert oc.brute_force_rationalizable_joint(example1, knife)
    point = m.JointDistribution.from_mapping(example1, {("invest,pull_back", "good"): 1})
    assert not oc.brute_force_rationalizable_joint(example1, point)
    best = m.JointDistribution.from_mapping(example1, {("invest,invest", "good"): 1})
    assert oc.brute_force_rationalizable_joint(example1, best)


def test_brute_force_agrees_with_lp():
    rng = random.Random(13)
    for _ in range(30):
        p = random_problem(rng, max_rules=200)
        joint = random_joint(rng, p)
        assert oc.brute_force_rationalizable_joint(p, joint) == (
            rz.dominating_rule(p, joint) is None)


def test_simulate_deterministic_components(example2):
    inst = m.instantiate(example2, {"delta": "4/5"})
    structure = revealing_structure(inst)
    # point-mass prior, kernel, and strategy: empirical equals theoretical at any n
    point_structure = oc.InformationStructure(
        inst.states, (F(1), F(0)), structure.signal_sets, structure.kernel)
    strategy = oc.Strategy(
        structure.signal_sets, inst.leaves,
        ((F(0), F(0), F(1), F(0)), (F(0), F(0), F(0), F(1))),
    )
    for n in (1, 3, 17):
        emp = oc.simulate(inst, strategy, point_structure, n, seed=99)
        assert emp.weight(inst.sequence("w,x"), "X") == 1


def test_simulate_single_draw(example1, pessimism_structure, obedient_strategy):
    emp = oc.simulate(example1, obedient_strategy, pessimism_structure, 1, seed=3)
    cells = [w for row in emp.matrix for w in row]
    assert sorted(cells) == [0, 0, 0, 0, 0, 1]


def test_simulate_seed_determinism(example1, pessimism_structure, obedient_strategy):
    a = oc.simulate(example1, obedient_strategy, pessimism_structure, 500, seed=42)
    b = oc.simulate(example1, obedient_strategy, pessimism_structure, 500, seed=42)
    c = oc.simulate(example1, obedient_strategy, pessimism_structure, 500, seed=43)
    assert a == b
    assert a != c


def test_simulate_tracks_theoretical_law(example1, pessimism_structure, obedient_strategy):
    emp = oc.simulate(example1, obedient_strategy, pessimism_structure, 100_000,
                      seed=20240801)
    # theoretical cells: (IP,bad) 1/2, (IP,good) 1/6, (II,good) 1/3
    theoretical = {
        (example1.sequence("invest,pull_back"), "bad"): F(1, 2),
        (example1.sequence("invest,pull_back"), "good"): F(1, 6),
        (example1.sequence("invest,invest"), "good"): F(1, 3),
    }
    tv = F(0)
    for i, leaf in enumerate(example1.leaves):
        for s, state in enumerate(example1.states):
            tv += abs(emp.matrix[i][s] - theoretical.get((leaf, state), F(0)))
    assert tv / 2 < F(1, 100)


def test_shape_mismatches_raise(example1, example2, pessimism_structure, obedient_strategy):
    inst = m.instantiate(example2, {"delta": "1/2"})
    with pytest.raises(m.ValidationError, match="states"):
        oc.optimal_value_dp(inst, pessimism_structure)
    with pytest.raises(m.ValidationError, match="leaves"):
        # structure compatible with the waiting problem, strategy from the
        # investment problem: the leaf check is the one that trips
        oc.strategy_value(inst, obedient_strategy, revealing_structure(inst))
