import itertools
import json
import math
import random
from fractions import Fraction as F

import pytest

from dynrat import model as m
from dynrat import oracle as oc
from dynrat import rationalize as rz

from conftest import (
    PROBLEMS_DIR,
    exhaustive_optimal_value,
    fraction_kernel,
    fraction_prior,
    random_joint,
    random_problem,
    reference_integer_optimal_value,
    reference_optimal_value,
    reference_strategy_value,
    reference_thresholds,
    strategy_of,
    structure_of,
    utility,
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
    return structure_of(
        problem.states,
        tuple(F(1, n) for _ in range(n)),
        (("s",), tuple(f"r{s}" for s in problem.states)),
        tuple(kernel),
    )


def test_structure_validation(example1):
    with pytest.raises(m.ValidationError, match="probability"):
        structure_of(example1.states, (F(1, 2), F(1, 3)),
                                (("a",), ("b",)), ((F(1),), (F(1),)))
    with pytest.raises(m.ValidationError, match="shape"):
        structure_of(example1.states, (F(1, 2), F(1, 2)),
                                (("a",), ("b",)), ((F(1),),))


def test_strategy_must_be_adapted(example1):
    # acting on the second signal in the first period is rejected
    sets = (("s",), ("g", "b"))
    kernel_bad = (
        (F(0), F(0), F(1)),   # (s,g) -> invest twice
        (F(1), F(0), F(0)),   # (s,b) -> stay out: first move differs by s2
    )
    with pytest.raises(m.ValidationError, match="adapted"):
        strategy_of(sets, example1.leaves, kernel_bad)
    kernel_ok = (
        (F(0), F(0), F(1)),
        (F(0), F(1), F(0)),
    )
    strategy_of(sets, example1.leaves, kernel_ok)


def test_strategy_value_pessimism(example1, pessimism_structure, obedient_strategy):
    assert oc.strategy_value(example1, obedient_strategy, pessimism_structure) == 0


def test_strategy_value_waiting(example2):
    inst = m.instantiate(example2, {"delta": "4/5"})
    structure = revealing_structure(inst)
    wait_match = strategy_of(
        structure.signal_sets, inst.leaves,
        ((F(0), F(0), F(1), F(0)), (F(0), F(0), F(0), F(1))),
    )
    assert oc.strategy_value(inst, wait_match, structure) == 4


def test_strategy_value_no_information_collapse(example1):
    flat = structure_of(
        example1.states, (F(1, 3), F(2, 3)), (("u",), ("u",)), ((F(1),), (F(1),)))
    for i, leaf in enumerate(example1.leaves):
        kernel = [[F(0)] * len(example1.leaves)]
        kernel[0][i] = F(1)
        constant = strategy_of(flat.signal_sets, example1.leaves, tuple(map(tuple, kernel)))
        want = F(1, 3) * utility(example1, leaf, "good") + F(2, 3) * utility(
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
        flat = structure_of(
            p.states, prior, tuple(("u",) for _ in range(p.tree.periods)),
            tuple((F(1),) for _ in range(n)))
        want = max(
            sum((prior[s] * utility(p, leaf, state)
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
        constant = strategy_of(sets, example1.leaves, tuple(rows))
        assert oc.strategy_value(example1, constant, pessimism_structure) <= 0


def test_optimal_value_matches_exhaustive_search():
    rng = random.Random(11)
    for _ in range(25):
        p = random_problem(rng, max_periods=2, max_actions=2, max_states=2,
                           max_leaves=3, max_rules=100)
        n_states = len(p.states)
        sets = tuple(tuple(f"t{t}{i}" for i in range(rng.randint(1, 2)))
                     for t in range(p.tree.periods))
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
        structure = structure_of(p.states, prior, sets, tuple(kernel))
        assert oc.optimal_value_dp(p, structure) == exhaustive_optimal_value(p, structure)


def test_verify_obedient_optimality(example1):
    knife = m.JointDistribution.from_mapping(example1, {
        ("invest,pull_back", "bad"): "1/2",
        ("invest,pull_back", "good"): "1/6",
        ("invest,invest", "good"): "1/3",
    })
    assert oc.verify_obedient_optimality(example1, knife)
    # prior (1, 0); "good" recommends invest,pull_back, "bad" not_invest
    pushy = law_of(example1, (F(1), F(0)), ((F(0), F(1), F(0)), (F(1), F(0), F(0))))
    assert not oc.verify_obedient_optimality(example1, pushy)


def test_verify_obedient_optimality_one_leaf():
    doc = {"periods": 1, "states": ["s"], "tree": {"a": "leaf"},
           "utility": {"a": {"s": "-9"}}}
    one = m.load_problem(json.dumps(doc))
    law = law_of(one, (F(1),), ((F(1),),))
    assert oc.verify_obedient_optimality(one, law)


def law_of(problem, prior, rows):
    """The joint law prior * kernel: cell (leaf i, state s) is
    ``prior[s] * rows[s][i]``."""
    return m.JointDistribution.from_mapping(problem, {
        (a, state): q * w for state, q, row in zip(problem.states, prior, rows)
        for a, w in zip(problem.leaves, row)})


def conditioned(law):
    """The law's prior and its recommendation rows, each state's column over
    its mass (point mass on the first leaf where it has none)."""
    columns = list(zip(*law.matrix))
    prior = [sum(column, F(0)) for column in columns]
    rows = [[w / q for w in column] if q else [F(1)] + [F(0)] * (len(column) - 1)
            for q, column in zip(prior, columns)]
    return prior, rows


def _probabilities(rng, n):
    raw = [rng.randint(0, 4) for _ in range(n)]
    if not any(raw):
        raw[rng.randrange(n)] = 1
    return tuple(F(x, sum(raw)) for x in raw)


def test_integer_induction_matches_the_fraction_recursion():
    # the oracle's induction in integers gives the Fraction recursion's
    # value, against product-space signals and against a law's
    # recommendations, obedient or not; priors may put zero on a state
    rng = random.Random(53)
    outcomes = []
    for _ in range(30):
        p = random_problem(rng, max_rules=200)
        sets = tuple(tuple(f"t{t}{i}" for i in range(rng.randint(1, 2)))
                     for t in range(p.tree.periods))
        n_seq = math.prod(map(len, sets))
        structure = structure_of(
            p.states, _probabilities(rng, len(p.states)), sets,
            tuple(_probabilities(rng, n_seq) for _ in p.states))
        assert oc.optimal_value_dp(p, structure) == reference_optimal_value(
            p, fraction_prior(structure), structure.sequences, fraction_kernel(structure))
        laws = [law_of(p, _probabilities(rng, len(p.states)),
                       [_probabilities(rng, len(p.leaves)) for _ in p.states])]
        verdict = rz.decide(p, random_joint(rng, p))
        if verdict.rationalizable:
            laws.append(verdict.witness)
        for law in laws:
            prior, rows = conditioned(law)
            obeyed = sum((q * w * utility(p, a, s)
                          for q, row, s in zip(prior, rows, p.states)
                          for a, w in zip(p.leaves, row)), F(0))
            best = reference_optimal_value(p, prior, [a.entries for a in p.leaves], rows)
            outcomes.append(oc.verify_obedient_optimality(p, law))
            assert outcomes[-1] == (obeyed == best)
    assert True in outcomes and False in outcomes


def _probabilities_off(rng, n, off):
    """A random probability vector of length n with no mass at ``off``."""
    raw = [0 if k == off else rng.randint(0, 4) for k in range(n)]
    if not any(raw):
        raw[(off + 1) % n] = 1
    return tuple(F(x, sum(raw)) for x in raw)


def test_induction_from_the_sequences_with_mass_matches_the_full_start():
    # the induction starts from the signal sequences with mass alone;
    # starting from every one (`reference_integer_optimal_value`) gives the
    # same value against structures with a zero-prior state and a zero
    # kernel column, and the same verdict on laws with massless leaves
    rng = random.Random(61)
    zero_prior = zero_column = massless = 0
    outcomes = set()
    for k in range(60):
        p = random_problem(rng, max_rules=200)
        sets = tuple(tuple(f"t{t}{i}" for i in range(rng.randint(1, 3)))
                     for t in range(p.tree.depth))
        n_seq = math.prod(map(len, sets))
        off = rng.randrange(n_seq) if n_seq > 1 and k % 2 else None
        prior = (_probabilities_off(rng, len(p.states), 0) if len(p.states) > 1 and k % 3 == 0
                 else _probabilities(rng, len(p.states)))
        structure = structure_of(p.states, prior, sets, tuple(
            _probabilities(rng, n_seq) if off is None else _probabilities_off(rng, n_seq, off)
            for _ in p.states))
        weights, wden = oc._weights(structure)
        assert oc.optimal_value_dp(p, structure) == F(
            reference_integer_optimal_value(p, structure.sequences, weights),
            wden * p.integer_payoffs[1])
        zero_prior += 0 in structure.prior
        zero_column += not all(map(any, weights)) and any(map(any, weights))
        laws = [random_joint(rng, p)]
        verdict = rz.decide(p, laws[0])
        if verdict.rationalizable:
            laws.append(verdict.witness)
        for law in laws:
            rows = m._chunks(law.cells, len(p.states))
            obeyed = sum(w * u for row, pay in zip(rows, p.integer_payoffs[0])
                         for w, u in zip(row, pay))
            best = reference_integer_optimal_value(p, [a.entries for a in p.leaves], rows)
            outcomes.add(oc.verify_obedient_optimality(p, law))
            assert oc.verify_obedient_optimality(p, law) == (obeyed == best)
            massless += not all(map(any, rows))
    assert zero_prior and zero_column and massless and outcomes == {True, False}


def test_golden_yes_law_with_one_cell_moved(example1):
    # the knife-edge law of the ex1-check-joint-yes golden, each cell's mass
    # moved whole to another cell: the oracle agrees with the full start on
    # every move, and rejects the law that recommends not investing in the
    # good state some of the time
    golden = json.loads((PROBLEMS_DIR.parent / "tests" / "golden" /
                         "ex1-check-joint-yes.json").read_text())
    law = rz.obedient_triple_from_json(example1, golden["result"]["witness"])
    assert oc.verify_obedient_optimality(example1, law)
    entries = [a.entries for a in example1.leaves]
    verdicts = []
    for src, dst in itertools.permutations(range(len(law.cells)), 2):
        if not law.cells[src]:
            continue
        cells = list(law.cells)
        cells[dst], cells[src] = cells[dst] + cells[src], 0
        moved = m.JointDistribution(law.leaves, law.states, cells, law.den)
        rows = m._chunks(moved.cells, len(law.states))
        obeyed = sum(w * u for row, pay in zip(rows, example1.integer_payoffs[0])
                     for w, u in zip(row, pay))
        verdicts.append(oc.verify_obedient_optimality(example1, moved))
        assert verdicts[-1] == (obeyed == reference_integer_optimal_value(example1, entries, rows))
    assert False in verdicts and True in verdicts
    width = len(law.states)
    good = law.states.index("good")
    cells = list(law.cells)  # invest,pull_back@good's 1/6 moved to not_invest@good
    k = example1.leaf_index[example1.sequence("invest,pull_back")] * width + good
    cells[example1.leaf_index[example1.sequence("not_invest")] * width + good] = cells[k]
    cells[k] = 0
    assert not oc.verify_obedient_optimality(
        example1, m.JointDistribution(law.leaves, law.states, cells, law.den))


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
    point_structure = structure_of(
        inst.states, (F(1), F(0)), structure.signal_sets, fraction_kernel(structure))
    strategy = strategy_of(
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


def random_strategy(rng, problem, sets):
    """A random adapted strategy with one signal set per period: a behaviour
    rule draws each action from the signals seen so far and the play so
    far, and a leaf's weight is the product along its path."""
    tree = problem.tree
    behaviour = {}
    rows = []
    for seq in itertools.product(*sets):
        row = []
        for leaf in problem.leaves:
            w, h = F(1), leaf.history
            for t in range(len(h)):
                actions = tree.actions_at(h[:t])
                key = (seq[:t + 1], h[:t])
                if key not in behaviour:
                    behaviour[key] = _probabilities(rng, len(actions))
                w *= behaviour[key][actions.index(h[t])]
            row.append(w)
        rows.append(row)
    return strategy_of(sets, problem.leaves, rows)


def random_pair(rng, problem):
    """A random structure and strategy on ``problem``, with one to three
    signals in each period of the tree's depth."""
    sets = tuple(tuple(f"t{t}{i}" for i in range(rng.randint(1, 3)))
                 for t in range(problem.tree.depth))
    n_seq = math.prod(map(len, sets))
    structure = structure_of(problem.states, _probabilities(rng, len(problem.states)), sets,
                             [_probabilities(rng, n_seq) for _ in problem.states])
    return structure, random_strategy(rng, problem, sets)


def test_integer_value_and_thresholds_match_the_fraction_references():
    # priors may put zero on a state, and the weights are mostly not dyadic
    rng = random.Random(59)
    zero_prior = non_dyadic = 0
    for _ in range(60):
        p = random_problem(rng, max_rules=200)
        structure, strategy = random_pair(rng, p)
        assert oc.strategy_value(p, strategy, structure) == reference_strategy_value(
            p, strategy, structure)
        assert oc.strategy_value(p, strategy, structure) <= oc.optimal_value_dp(p, structure)
        rows = [(structure.prior, structure.prior_den)]
        rows += [(row, structure.kernel_den) for row in structure.kernel]
        rows += [(row, strategy.den) for row in strategy.kernel]
        for row, den in rows:
            assert oc._thresholds(row, den) == reference_thresholds([F(x, den) for x in row])
        zero_prior += 0 in structure.prior
        non_dyadic += any(den & (den - 1) for _, den in rows)
    assert zero_prior and non_dyadic


def test_json_round_trip_and_lowest_terms():
    rng = random.Random(71)
    for _ in range(30):
        p = random_problem(rng, max_rules=200)
        structure, strategy = random_pair(rng, p)
        assert oc.InformationStructure.from_json_dict(p, structure.to_json_dict()) == structure
        assert oc.Strategy.from_json_dict(p, strategy.to_json_dict()) == strategy
        # the same weights over a scaled denominator are stored in lowest terms
        k = rng.randint(2, 9)
        scaled = oc.InformationStructure(
            structure.states, tuple(k * x for x in structure.prior), k * structure.prior_den,
            structure.signal_sets, tuple(tuple(k * x for x in row) for row in structure.kernel),
            k * structure.kernel_den)
        assert scaled == structure
        assert (scaled.prior_den, scaled.kernel_den) == (structure.prior_den, structure.kernel_den)
        assert oc.Strategy(strategy.signal_sets, strategy.leaves,
                           tuple(tuple(k * x for x in row) for row in strategy.kernel),
                           k * strategy.den) == strategy
        assert math.gcd(structure.prior_den, *structure.prior) == 1
        assert math.gcd(structure.kernel_den, *itertools.chain(*structure.kernel)) == 1
        assert math.gcd(strategy.den, *itertools.chain(*strategy.kernel)) == 1


def test_optimal_value_refuses_signal_periods_off_the_tree(example1):
    # one signal period on a tree two deep: the induction would read a
    # second signal that no sequence has; and three signal periods where
    # the problem declares two, as `simulate` refuses for a strategy
    prior = {"good": "1/2", "bad": "1/2"}
    short = oc.InformationStructure.from_json_dict(example1, {
        "signals": [["g", "b"]], "prior": prior,
        "kernel": {"good": {"g": "2/3", "b": "1/3"}, "bad": {"b": "1"}}})
    long = oc.InformationStructure.from_json_dict(example1, {
        "signals": [["s"], ["g", "b"], ["x"]], "prior": prior,
        "kernel": {"good": {"s,g,x": "2/3", "s,b,x": "1/3"}, "bad": {"s,b,x": "1"}}})
    for structure in (short, long):
        with pytest.raises(m.ValidationError, match="periods do not match"):
            oc.optimal_value_dp(example1, structure)


def test_brute_force_refuses_a_law_of_another_shape(example1, example2):
    other = m.JointDistribution.from_mapping(
        m.instantiate(example2, {"delta": "9/10"}), {("w,x", "X"): "1/2", ("w,y", "Y"): "1/2"})
    with pytest.raises(m.ValidationError, match="joint law shapes do not match the problem"):
        oc.brute_force_rationalizable_joint(example1, other)
    # the golden "yes" law of example 1 with its two state labels swapped
    knife = m.JointDistribution.from_mapping(example1, {
        ("invest,pull_back", "bad"): "1/2",
        ("invest,pull_back", "good"): "1/6",
        ("invest,invest", "good"): "1/3",
    })
    swapped = m.JointDistribution(knife.leaves, knife.states[::-1], knife.cells, knife.den)
    for check in (oc.brute_force_rationalizable_joint, oc.verify_obedient_optimality):
        with pytest.raises(m.ValidationError, match="joint law shapes do not match the problem"):
            check(example1, swapped)
