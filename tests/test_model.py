import json
import math
import random
import re
from fractions import Fraction as F
from pathlib import Path

import pytest

from dynrat import lp
from dynrat import model as m
from dynrat import risk as rk

from conftest import complete_tree_doc, lottery_utility, payoffs, random_problem, utility


def test_example1_loads(example1):
    assert example1.leaves == ("not_invest", "invest,pull_back", "invest,invest")
    assert example1.tree.paths == (
        ("not_invest", "_"), ("invest", "pull_back"), ("invest", "invest"))
    assert example1.states == ("good", "bad")
    assert example1.param_names == ()


def test_example2_loads(example2):
    assert example2.leaves == ("x", "y", "w,x", "w,y")
    assert example2.param_names == ("delta",)


def test_missing_utility_rejected():
    doc = {
        "periods": 1,
        "states": ["g", "b"],
        "tree": {"a": "leaf", "b": "leaf"},
        "utility": {"a": {"g": 0, "b": 0}, "b": {"g": 1}},
    }
    with pytest.raises(m.ValidationError, match="missing utility"):
        m.load_problem(json.dumps(doc))


@pytest.mark.parametrize("states, utility, message", [
    # the first missing entry in leaf and state order, whatever the file's order
    (["g", "b"], {"b": {"g": 1}, "a": {"b": 0}}, "missing utility for leaf 'a' in state 'g'"),
    # a state listed twice: a missing entry is named first, then the repeat
    (["g", "b", "g"], {"a": {"g": 0, "b": 0}, "b": {"b": 1}},
     "missing utility for leaf 'b' in state 'g'"),
    (["g", "b", "g"], {"a": {"g": 0, "b": 0}, "b": {"g": 1, "b": 1}}, "duplicate state label"),
    # an entry for a state the problem lacks is named before a missing one
    (["g", "b"], {"a": {"g": 0}, "b": {"x": 1}}, "utility entry for unknown state 'x'"),
])
def test_utility_faults_are_named_in_order(states, utility, message):
    doc = {"periods": 1, "states": states, "tree": {"a": "leaf", "b": "leaf"}, "utility": utility}
    with pytest.raises(m.ValidationError, match=f"^{message}$"):
        m.problem_from_dict(doc)


def test_duplicate_action_label_rejected():
    text = '{"periods": 1, "states": ["s"], "tree": {"a": "leaf", "a": "leaf"},' \
           ' "utility": {"a": {"s": 0}}}'
    with pytest.raises(m.ParseError, match="duplicate key"):
        m.load_problem(text)


def test_reserved_marker_rejected():
    doc = {"periods": 1, "states": ["s"], "tree": {"_": "leaf"}, "utility": {"_": {"s": 0}}}
    with pytest.raises(m.ValidationError, match="reserved"):
        m.load_problem(json.dumps(doc))


def test_depth_beyond_periods_rejected():
    doc = {
        "periods": 1,
        "states": ["s"],
        "tree": {"a": {"b": "leaf"}},
        "utility": {"a,b": {"s": 0}},
    }
    with pytest.raises(m.ValidationError):
        m.load_problem(json.dumps(doc))


# One fault each: the tree document (and `periods`), the exception the
# reader raises, and its message, which the command line prints after
# "input error: " with exit code 2.
TREE_FAULTS = {
    "empty-root": ({}, 1, m.ValidationError, "history () has an empty action set"),
    "empty-inner-node": ({"a": "leaf", "b": {}}, 2, m.ValidationError,
                         "history ('b',) has an empty action set"),
    "root-is-a-string": ("leaf", 1, m.ParseError, "tree node at () must be an object"),
    "root-is-a-list": ([], 1, m.ParseError, "tree node at () must be an object"),
    "entry-is-a-number": ({"a": "leaf", "b": 5}, 1, m.ParseError,
                          "tree entry 'b' must be \"leaf\" or an object"),
    "inner-entry-is-a-list": ({"a": {"b": ["leaf"]}}, 2, m.ParseError,
                              "tree entry 'b' must be \"leaf\" or an object"),
    "padding-label": ({"a": {"_": "leaf"}}, 2, m.ValidationError,
                      "action label '_' is reserved for padding"),
    "empty-set-label": ({"∅": "leaf"}, 1, m.ValidationError,
                        "action label '∅' is reserved for padding"),
    "comma-label": ({"a,b": "leaf"}, 1, m.ValidationError,
                    "action label 'a,b' contains a forbidden character"),
    "at-label": ({"a": {"b@c": "leaf"}}, 2, m.ValidationError,
                 "action label 'b@c' contains a forbidden character"),
    "colon-label": ({"a:b": "leaf"}, 1, m.ValidationError,
                    "action label 'a:b' contains a forbidden character"),
    "empty-label": ({"a": "leaf", "": "leaf"}, 1, m.ValidationError,
                    "action label must be a nonempty string"),
    "too-deep": ({"a": {"b": {"c": "leaf"}}}, 2, m.ValidationError,
                 "tree deeper than the number of periods"),
    "periods-0": ({"a": "leaf"}, 0, m.ValidationError, "periods must be at least 1"),
    # two faults: the first in document order is reported
    "bad-label-then-bad-entry": ({"a,b": "leaf", "c": 5}, 1, m.ValidationError,
                                 "action label 'a,b' contains a forbidden character"),
}


@pytest.mark.parametrize("case", sorted(TREE_FAULTS))
def test_tree_faults_are_named_and_exit_2(capsys, tmp_path, case):
    from dynrat import cli

    tree, periods, error, message = TREE_FAULTS[case]
    doc = {"periods": periods, "states": ["s"], "tree": tree, "utility": {}}
    with pytest.raises(error) as raised:
        m.load_problem(json.dumps(doc))
    assert type(raised.value) is error and str(raised.value) == message
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(doc))
    assert cli.run(["check-seq", str(path), "--seq", "a"]) == 2
    assert capsys.readouterr() == ("", f"input error: {message}\n")


def test_unknown_keys_rejected():
    doc = {
        "periods": 1, "states": ["s"], "tree": {"a": "leaf"},
        "utility": {"a": {"s": 0}}, "extra": 1,
    }
    with pytest.raises(m.ParseError, match="unknown top-level key"):
        m.load_problem(json.dumps(doc))
    doc.pop("extra")
    doc["utility"]["zzz"] = {"s": 0}
    with pytest.raises(m.ValidationError, match="unknown leaf"):
        m.load_problem(json.dumps(doc))


def test_instantiate_example2(example2):
    inst = m.instantiate(example2, {"delta": "4/5"})
    wx = inst.sequence("w,x")
    assert utility(inst, wx, "X") == F(4)
    assert utility(inst, wx, "Y") == F(12, 5)
    assert inst.param_names == ()


def test_instantiate_identity_on_parameter_free(example1):
    inst = m.instantiate(example1, {})
    assert (inst.table, inst.den) == (example1.table, example1.den)


def test_problem_constructor_checks_the_table(example1):
    tree, states, table, den = example1.tree, example1.states, example1.table, example1.den
    for bad, bad_den in ((table[1:], den), (table, 0), (tuple((x, 0) for x, in table), den)):
        with pytest.raises(m.ValidationError, match="shape mismatch"):
            m.DecisionProblem(tree, states, (), bad, bad_den)
    # the table is put in lowest terms, on the tree it was given
    doubled = m.DecisionProblem(tree, states, (), tuple((2 * x,) for x, in table), 2 * den)
    assert (doubled.table, doubled.den) == (table, den) and doubled.tree is tree
    assert doubled.integer_payoffs == example1.integer_payoffs


def test_instantiate_example3(example3):
    inst = m.instantiate(example3, {"R": 3, "c": 2})
    hard = [utility(inst, l, "hard") for l in inst.leaves]
    easy = [utility(inst, l, "easy") for l in inst.leaves]
    assert hard == [F(0), F(-2), F(-1)]
    assert easy == [F(0), F(1), F(-1)]


def test_instantiate_parameter_errors(example2):
    with pytest.raises(m.ValidationError, match="missing parameter"):
        m.instantiate(example2, {})
    with pytest.raises(m.ValidationError, match="unknown parameter"):
        m.instantiate(example2, {"delta": 1, "zeta": 1})


def test_utility_lookups(example1, example2):
    assert utility(example1, example1.sequence("invest,invest"), "good") == 2
    assert utility(example1, example1.sequence("not_invest"), "bad") == 0
    half = m.instantiate(example2, {"delta": "1/2"})
    assert utility(half, half.sequence("w,y"), "Y") == F(5, 2)
    with pytest.raises(m.ValidationError, match="instantiate"):
        utility(example2, example2.leaves[0], "X")
    with pytest.raises(m.ValidationError, match="unknown state"):
        utility(example1, example1.leaves[0], "meh")


def test_lottery_utility(example1, example2):
    half = m.instantiate(example2, {"delta": "1/2"})
    assert lottery_utility(half, {"x": F(1, 2), "y": F(1, 2)}, "X") == 4
    assert lottery_utility(example1, {l: F(1, 3) for l in example1.leaves}, "good") == F(1, 3)
    point = {example1.leaves[2]: F(1)}
    assert lottery_utility(example1, point, "bad") == utility(
        example1, example1.leaves[2], "bad"
    )
    with pytest.raises(m.ValidationError, match="sum"):
        lottery_utility(example1, {example1.leaves[0]: F(1, 2)}, "good")
    with pytest.raises(m.ValidationError, match="nonnegative"):
        lottery_utility(
            example1, {example1.leaves[0]: F(2), example1.leaves[1]: F(-1)}, "good"
        )


def test_rational_round_trip():
    rng = random.Random(3)
    for _ in range(200):
        q = F(rng.randint(-10**6, 10**6), rng.randint(1, 10**6))
        assert m.parse_rational(m.format_rational(q)) == q
        # the integer writer: a signed pair with a common factor, zero included
        k = rng.choice([1, 2, 6, 35])
        x, den = rng.choice([0, rng.randint(-10**6, 10**6)]) * k, rng.randint(1, 10**6) * k
        assert m._format(x, den) == m.format_rational(F(x, den))
    assert m.parse_rational("0.85") == F(17, 20)
    assert m.parse_rational("-2/7") == F(-2, 7)
    with pytest.raises(m.ParseError):
        m.parse_rational(0.85)


def test_leaves_are_distinct_padded_paths():
    rng = random.Random(11)
    for _ in range(25):
        p = random_problem(rng)
        assert len(set(p.leaves)) == len(p.leaves) == len(p.tree.paths)
        for leaf, path in zip(p.leaves, p.tree.paths):
            history = tuple(leaf.split(","))
            assert path == history + (m.PAD,) * (p.tree.depth - len(history))
            assert len(path) == p.tree.depth <= p.tree.periods
            assert history not in p.tree.branch_map
            # the unpadded prefix walks the tree
            h = ()
            for a in history:
                assert a in p.tree.branch_map[h]
                h += (a,)


def parse_affine(value, params) -> tuple[F, dict[str, F]]:
    """A utility entry's row as read by `model._affine`: its constant and
    its nonzero coefficients by parameter name."""
    constant, *coeffs = m._affine(value, params)
    return F(*constant), {p: F(*c) for p, c in zip(params, coeffs) if c[0]}


def rendered_entries(problem) -> dict:
    """Each utility entry as `problem_to_dict` renders it, parsed back:
    ``{(leaf, state): (constant, coefficients)}``."""
    doc = m.problem_to_dict(problem)
    return {(problem.sequence(label), s): parse_affine(value, problem.param_names)
            for label, row in doc["utility"].items() for s, value in row.items()}


def test_instantiate_is_affine(example2, example3):
    rng = random.Random(5)
    for problem in (example2, example3):
        for _ in range(10):
            point = {
                name: F(rng.randint(-8, 8), rng.randint(1, 9))
                for name in problem.param_names
            }
            inst = m.instantiate(problem, point)
            for (leaf, state), (constant, coeffs) in rendered_entries(problem).items():
                direct = constant + sum((c * point[n] for n, c in coeffs.items()), F(0))
                got = utility(inst, leaf, state)
                assert got == direct


def test_lottery_utility_is_linear(example1):
    rng = random.Random(9)
    leaves = example1.leaves
    for _ in range(20):
        raw1 = [rng.randint(0, 5) for _ in leaves]
        raw2 = [rng.randint(0, 5) for _ in leaves]
        if sum(raw1) == 0 or sum(raw2) == 0:
            continue
        alpha = {l: F(x, sum(raw1)) for l, x in zip(leaves, raw1)}
        beta = {l: F(x, sum(raw2)) for l, x in zip(leaves, raw2)}
        t = F(rng.randint(0, 7), 7)
        mix = {l: t * alpha[l] + (1 - t) * beta[l] for l in leaves}
        for state in example1.states:
            assert lottery_utility(example1, mix, state) == t * lottery_utility(
                example1, alpha, state
            ) + (1 - t) * lottery_utility(example1, beta, state)


def test_problem_round_trip(example2, example3):
    for problem in (example2, example3):
        doc = m.problem_to_dict(problem)
        again = m.problem_from_dict(
            json.loads(json.dumps(doc), parse_float=F)
        )
        assert list(again.tree.branch_map.items()) == list(problem.tree.branch_map.items())
        assert (again.table, again.den) == (problem.table, problem.den)
        assert m.problem_to_dict(again) == doc
        assert again.param_names == problem.param_names


def test_parse_affine_refuses_floats_and_bools():
    # every number goes through `_ratio`: no float or bool is read as
    # a binary fraction or as 1, in an entry or in a problem's table
    for value in (0.1, True, False):
        with pytest.raises(m.ParseError):
            parse_affine(value, ("x",))
        doc = {"periods": 1, "states": ["s"], "tree": {"a": "leaf"},
               "utility": {"a": {"s": value}}}
        with pytest.raises(m.ParseError):
            m.problem_from_dict(doc)
    # zero coefficients are dropped
    assert parse_affine("1/2 + 0*x + 3*a", ("x", "a")) == (F(1, 2), {"a": F(3)})
    assert parse_affine("x - x", ("x",)) == (F(0), {})
    assert parse_affine(F(5, 2), ("x",)) == (F(5, 2), {})


def test_affine_parse_forms():
    assert parse_affine("R - 2*c", ("R", "c")) == (F(0), {"R": F(1), "c": F(-2)})
    assert parse_affine("-c", ("c",)) == (F(0), {"c": F(-1)})
    assert parse_affine("3/2", ()) == (F(3, 2), {})
    assert parse_affine("0.25 + 1/2*d", ("d",)) == (F(1, 4), {"d": F(1, 2)})
    with pytest.raises(m.ValidationError, match="unknown parameter"):
        parse_affine("q", ("d",))


@pytest.mark.parametrize("text", ["1 2", "2R", "1/2 3", "R c", "2*R 3", "-c R"])
def test_affine_terms_need_an_operator_between_them(text):
    # two terms side by side are not a sum
    with pytest.raises(m.ParseError, match="between terms"):
        parse_affine(text, ("R", "c"))


def test_affine_signs_still_separate_terms():
    assert parse_affine("-R + 2", ("R",)) == (F(2), {"R": F(-1)})
    assert parse_affine("1/2*R - -c", ("R", "c")) == (F(0), {"R": F(1, 2), "c": F(1)})
    assert parse_affine(" 3 ", ()) == (F(3), {})
    # repeated terms add over the lcm of their denominators, not its power
    assert m._affine("+".join(["1/3"] * 40) + " - 1/6*R", ("R",)) == [(40, 3), (-1, 6)]


def test_distributions_validate(example1):
    with pytest.raises(m.ValidationError, match="sum"):
        m.JointDistribution.from_mapping(example1, {("not_invest", "good"): "1/2"})
    joint = m.JointDistribution.from_mapping(
        example1, {("not_invest", "good"): "1/2", ("invest,invest", "bad"): "1/2"}
    )
    assert F(joint.cells[0], joint.den) == F(1, 2)  # not_invest in good
    marginal = joint.action_marginal()
    assert (marginal.weights, marginal.den) == ((1, 0, 1), 2)
    marginal = m.MarginalDistribution.from_mapping(example1, {"not_invest": 1})
    assert F(marginal.weights[0], marginal.den) == 1  # not_invest
    # two spellings of one cell are refused, not summed
    with pytest.raises(m.ValidationError, match="given twice"):
        m.MarginalDistribution.from_mapping(example1, {"not_invest": "1/2", "not_invest,_": "1/2"})
    with pytest.raises(m.ValidationError, match="given twice"):
        m.JointDistribution.from_mapping(
            example1, {("not_invest", "good"): "1/2", ("not_invest,_", "good"): "1/2"})


def test_joint_from_mapping_resolves_each_leaf_once(example1, monkeypatch):
    # the nested form names a leaf once for all its states: one lookup each,
    # and a leaf's own label needs no parse (`Tree.sequence`)
    looked_up, parsed = [], []
    position, sequence = m.Tree.leaf_position, m.Tree.sequence
    monkeypatch.setattr(m.Tree, "leaf_position", lambda tree, value: (
        looked_up.append(value) or position(tree, value)))
    monkeypatch.setattr(m.Tree, "sequence", lambda tree, value: (
        parsed.append(value) or sequence(tree, value)))
    joint = m.JointDistribution.from_mapping(example1, {
        "invest,pull_back": {"bad": "1/2", "good": "1/6"}, "invest,invest": {"good": "1/3"}})
    assert sorted(looked_up) == ["invest,invest", "invest,pull_back"] and parsed == []
    assert F(joint.cells[2], joint.den) == F(1, 6)  # invest,pull_back in good
    # and its consistency rows are built once per law, not once per check
    assert m.consistency(example1, joint) is m.consistency(example1, joint)
    # a leaf spelled twice and an unknown state are still refused
    with pytest.raises(m.ValidationError, match="'not_invest@good' given twice"):
        m.JointDistribution.from_mapping(
            example1, {"not_invest": {"good": "1/2"}, "not_invest,_": {"good": "1/2"}})
    with pytest.raises(m.ValidationError, match="unknown state 'meh'"):
        m.JointDistribution.from_mapping(example1, {"not_invest": {"good": "1/2", "meh": "1/2"}})


def affine_family(rng: random.Random, names) -> m.DecisionProblem:
    """A random problem (padded trees included) whose payoffs are affine in
    ``names``, with rational constants and slopes, zero slopes included."""
    doc = m.problem_to_dict(random_problem(rng, max_leaves=6))
    doc["params"] = list(names)
    doc["utility"] = {
        leaf: {s: " + ".join([str(value)] + [
            f"{m.format_rational(F(rng.randint(-9, 9), rng.randint(1, 7)))}*{n}" for n in names])
            for s, value in row.items()}
        for leaf, row in doc["utility"].items()}
    return m.load_problem(json.dumps(doc))


def test_pinned_problems_equal_fresh_ones():
    rng = random.Random(61)
    padded = 0
    for k in range(40):
        names = ("t", "u")[:1 + k % 2]
        family = affine_family(rng, names)
        padded += any(m.PAD in path for path in family.tree.paths)
        point = {n: F(rng.randint(-20, 20), rng.randint(1, 12)) for n in names}
        pinned = m.substitute_params(family, point)
        # every entry evaluated in plain Fraction arithmetic
        want = {key: constant + sum((c * point[n] for n, c in coeffs.items()), F(0))
                for key, (constant, coeffs) in rendered_entries(family).items()}
        table = tuple(tuple(want[leaf, s] for s in family.states)
                      for leaf in family.leaves)
        den = math.lcm(*(u.denominator for row in table for u in row))
        nums = tuple(tuple(u.numerator * (den // u.denominator) for u in row) for row in table)
        reparsed = m.problem_from_dict(
            json.loads(json.dumps(m.problem_to_dict(family)), parse_float=F))
        rebuilt = m.instantiate(reparsed, {n: m.format_rational(q) for n, q in point.items()})
        fresh = m.problem_from_dict(m.problem_to_dict(pinned))
        stepwise = pinned
        if len(names) == 2:
            half = m.substitute_params(family, {"t": point["t"]})
            assert half.param_names == ("u",)
            # t folds into each constant, u keeps its coefficient
            assert rendered_entries(half) == {
                key: (constant + coeffs.get("t", 0) * point["t"],
                      {"u": coeffs["u"]} if "u" in coeffs else {})
                for key, (constant, coeffs) in rendered_entries(family).items()}
            stepwise = m.substitute_params(half, {"u": point["u"]})
        for problem in (pinned, rebuilt, fresh, stepwise):
            assert problem.param_names == ()
            assert problem.leaves == family.leaves
            assert (problem.table, problem.den) == (fresh.table, fresh.den)
            assert payoffs(problem) == table
            assert problem.integer_payoffs == (nums, den)
        # the pinned problems share the family's validated tree
        assert pinned.tree is family.tree and stepwise.tree is family.tree
        assert rk.risk_transform(pinned, rk.PiecewiseLinearFunction.identity()).tree is family.tree
        assert pinned.leaves is family.leaves and pinned.tree.paths is family.tree.paths
    assert padded


@pytest.mark.parametrize("spec", [
    "_,invest,_,pull_back", "_,invest,pull_back", "invest,,pull_back", "invest,pull_back,",
    ",not_invest", "not_invest,_,_", ("_", "not_invest"), ("not_invest", "_", "_")])
def test_sequence_refuses_misplaced_padding(example1, spec):
    # a leaf's actions, then at most the padding that fills the horizon
    with pytest.raises(m.ValidationError, match="not a leaf"):
        example1.sequence(spec)


def test_periods_past_the_depth_bound_only_the_padding(example1):
    # the leaves and what is built per period follow the tree's depth, so
    # a header of 10**30 periods builds nothing in proportion to it; a label
    # may carry padding up to the declared periods
    doc = m.problem_to_dict(example1)
    rows = len(lp.deviation_polytope_constraints(example1.tree).constraints)
    for periods in (2, 3, 2000, 10**30):
        p = m.problem_from_dict({**doc, "periods": periods})
        assert p.tree.periods == periods and p.tree.depth == 2
        assert (p.leaves, p.tree.paths) == (example1.leaves, example1.tree.paths)
        assert len(p.tree._index) == 3
        assert len(lp.deviation_polytope_constraints(p.tree).constraints) == rows
        assert m.problem_to_dict(p) == {**doc, "periods": periods}
        for pads in (1, 2, 1999, 2000):
            for spec in (",".join(["not_invest"] + ["_"] * pads), ("not_invest",) + ("_",) * pads,
                         ["not_invest"] + ["_"] * pads):
                if 1 + pads <= periods:
                    assert p.sequence(spec) is p.leaves[0]
                else:
                    with pytest.raises(m.ValidationError, match="not a leaf"):
                        p.sequence(spec)


def test_sequence_spellings(example1):
    leaf = example1.leaves[0]
    for spec in ("not_invest", "not_invest,_", " not_invest , _ ", ("not_invest",),
                 ("not_invest", "_"), ["not_invest", "_"], example1.tree.paths[0], leaf):
        assert example1.sequence(spec) is leaf
    for spec in (("not_invest,_",), [5], 5, ["not_invest", "_", "_"]):
        with pytest.raises(m.ValidationError):
            example1.sequence(spec)


def _count_trees(monkeypatch):
    trees, init = [], m.Tree.__init__
    monkeypatch.setattr(m.Tree, "__init__",
                        lambda tree, *args: trees.append(tree) or init(tree, *args))
    return trees


def test_problem_file_is_padded_once_per_leaf(monkeypatch):
    # a loaded (4,4) problem pads each leaf once, in the one tree walk, and
    # keeps the padded paths as a field, not rebuilt per read
    trees = _count_trees(monkeypatch)
    problem = m.load_problem(json.dumps(complete_tree_doc((4, 4), 3, seed=7)))
    tree = problem.tree
    assert trees == [tree] and len(problem.leaves) == 16 and len(problem.states) == 3
    assert {"leaves", "paths"} <= set(vars(tree))
    assert len(tree.paths) == 16 and {len(path) for path in tree.paths} == {tree.depth}
    assert [",".join(a for a in path if a != m.PAD) for path in tree.paths] == list(tree.leaves)


def test_law_cells_build_no_sequence(monkeypatch):
    # a law's cells are resolved through the problem's labels: no tree is
    # built and the law holds the tree's own leaf tuple
    problem = m.load_problem(json.dumps(complete_tree_doc((4, 4), 3, seed=7)))
    trees = _count_trees(monkeypatch)
    cells = {(leaf, s): "1/30" for leaf in problem.leaves[:10] for s in problem.states}
    law = m.JointDistribution.from_mapping(problem, cells)
    assert trees == [] and law.leaves is problem.tree.leaves
    assert len(cells) == 30 and (law.cells, law.den) == ((1,) * 30 + (0,) * 18, 30)


def test_leaves_and_paths_are_built_once_and_shared(monkeypatch):
    # what is built on a loaded problem hands back the tree's own tuple and
    # strings, not copies, and builds no second tree
    from dynrat import deviation as dv
    from dynrat import rationalize as rz
    from dynrat import structures as st

    trees = _count_trees(monkeypatch)
    problem = m.load_problem(json.dumps(complete_tree_doc((4, 4), 3, seed=7)))
    tree = problem.tree
    assert trees == [tree] and problem.leaves is tree.leaves
    cells = {(leaf, s): "1/30" for leaf in problem.leaves[:10] for s in problem.states}
    law = m.JointDistribution.from_mapping(problem, cells)
    marginal = m.MarginalDistribution.from_mapping(problem, {"a,a": "1/2", " b , c ": "1/2"})
    rule = dv.DeviationRule.from_mapping(problem, {leaf: leaf for leaf in problem.leaves})
    found = rz.decide(problem, marginal).witness
    pinned = m.substitute_params(problem, {})
    strategy = st.Strategy((("g",), ("g",)), tree, ((1,) + (0,) * 15,), 1)
    triple = {"prior": {"s0": "1"}, "recommendation": dict.fromkeys(problem.states, {"a,a": "1"})}
    for built in (law, marginal, rule, found, rz.decide(problem, law).witness, pinned, strategy,
                  dv.identity_rule(problem),
                  m.instantiate(problem, {}), rz.obedient_triple_from_json(problem, triple)):
        assert built.leaves is tree.leaves, built
    assert pinned.tree is tree and trees == [tree]
    for spec in ("b,c", " b , c ", ("b", "c"), ["b", "c"]):
        assert problem.sequence(spec) is pinned.sequence(spec) is tree.leaves[6]
    assert all(a is b for a, b in zip(law.to_json_dict(), tree.leaves))
    assert all(a is b for a, b in zip(rule.to_json_dict(), tree.leaves))


@pytest.mark.parametrize("text", [
    "+3", "1e3", "1_000", "٣/٤", "3/0", "0/0", "0.5/2", "-.5", "3.", " -2/7 ", "007/014",
    "-0/5", "3/-4", 7, -12, F(-3, 6), True, False, 0.5, None,
    # past int()'s digit limit: refused, never a bare ValueError
    pytest.param("1" * 5000, id="5000-digits"), pytest.param("1/" + "1" * 5000, id="5000-digit-q")])
def test_parse_rational_agrees_with_fraction(text):
    # `_ratio` reads the same literals as a numerator and a denominator in
    # lowest terms; ints and Fractions pass, bools and floats do not
    try:
        if isinstance(text, str):
            want = F(text.strip())
        elif isinstance(text, (int, F)) and not isinstance(text, bool):
            want = F(text)
        else:
            raise ValueError(text)
    except (ValueError, ZeroDivisionError):
        for read in (m.parse_rational, m._ratio):
            with pytest.raises(m.ParseError):
                read(text)
    else:
        assert m.parse_rational(text) == want
        assert m._ratio(text) == (want.numerator, want.denominator)


# The tokenizer parser of utility entries that `model._affine` replaced, kept
# as the reference of the accepted language.
_TOKEN_RE = re.compile(r"\s*(?:(?P<op>[+\-*])|(?P<num>\d+(?:\.\d+)?(?:/\d+)?)|(?P<name>[A-Za-z_]\w*))")


def _tokenizer_parse_affine(text: str, params) -> tuple[F, dict[str, F]]:
    text = text.strip()
    if not text:
        raise m.ParseError("empty utility entry")
    tokens = []
    pos = 0
    while pos < len(text):
        match = _TOKEN_RE.match(text, pos)
        if match is None or match.end() == pos:
            raise m.ParseError("cannot tokenize")
        pos = match.end()
        for kind in ("op", "num", "name"):
            tok = match.group(kind)
            if tok is not None:
                tokens.append((kind, tok))
    constant = F(0)
    coeffs = {}
    i = 0
    while i < len(tokens):
        start = i
        sign = F(1)
        while i < len(tokens) and tokens[i][0] == "op" and tokens[i][1] in "+-":
            if tokens[i][1] == "-":
                sign = -sign
            i += 1
        if i >= len(tokens):
            raise m.ParseError("dangling sign")
        if i == start > 0:
            raise m.ParseError("expected '+' or '-' between terms")
        coeff = None
        name = None
        kind, tok = tokens[i]
        if kind == "num":
            try:
                coeff = F(tok)
            except (ValueError, ZeroDivisionError) as exc:
                raise m.ParseError(tok) from exc
            i += 1
            if i < len(tokens) and tokens[i] == ("op", "*"):
                i += 1
                if i >= len(tokens) or tokens[i][0] != "name":
                    raise m.ParseError("expected parameter name after '*'")
                name = tokens[i][1]
                i += 1
        elif kind == "name":
            name = tok
            coeff = F(1)
            i += 1
        else:
            raise m.ParseError(f"unexpected token {tok!r}")
        if name is None:
            constant += sign * coeff
        else:
            if name not in params:
                raise m.ValidationError(f"unknown parameter {name!r}")
            coeffs[name] = coeffs.get(name, F(0)) + sign * coeff
    return constant, {name: c for name, c in coeffs.items() if c}


def test_parse_affine_accepts_what_the_tokenizer_accepted():
    # random strings over digits, signs, '/', '.', '*', blanks, declared and
    # undeclared names and a non-ASCII digit: the same strings are accepted,
    # with equal values, and every other one is an input error (its class
    # may differ where a string has more than one fault)
    # A problem file's entry reads into the same table row: the accepted
    # strings as the entries of problems of 1000 leaves each, and a refused
    # one is never read as a plain number, so it reaches the term parser.
    rng = random.Random(15)
    alphabet = [*"0123456789/.+-* ", "\t", "R", "c", "q", "_", "\u0663"]
    accepted = []
    for k in range(100_000):
        text = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 9)))
        try:
            want = _tokenizer_parse_affine(text, ("R", "c"))
        except (m.ParseError, m.ValidationError):
            want = None
        try:
            got = parse_affine(text, ("R", "c"))
        except (m.ParseError, m.ValidationError):
            got = None
        assert got == want, text
        if want is not None:
            accepted.append((text, want))
        elif k % 1000 == 0:
            doc = {"periods": 1, "states": ["s"], "params": ["R", "c"],
                   "tree": {"a": "leaf"}, "utility": {"a": {"s": text}}}
            with pytest.raises((m.ParseError, m.ValidationError)):
                m.problem_from_dict(doc)
        else:
            assert m._literal(text) is None, text
    assert len(accepted) > 10_000
    for start in range(0, len(accepted), 1000):
        batch = accepted[start:start + 1000]
        labels = [f"a{i}" for i in range(len(batch))]
        p = m.problem_from_dict({
            "periods": 1, "states": ["s"], "params": ["R", "c"],
            "tree": dict.fromkeys(labels, "leaf"),
            "utility": {label: {"s": text} for label, (text, _) in zip(labels, batch)}})
        for row, (text, (constant, coeffs)) in zip(p.table, batch):
            want = (constant, coeffs.get("R", F(0)), coeffs.get("c", F(0)))
            assert all(x * q.denominator == q.numerator * p.den for x, q in zip(row, want)), text


# The renderer of utility entries that `problem_to_dict` replaced, which
# wrote each entry through a `Fraction` expression object, kept as the
# reference of the written form.
def _reference_render(constant: F, coeffs: dict[str, F]):
    coeffs = sorted((name, c) for name, c in coeffs.items() if c)
    if not coeffs:
        if constant.denominator == 1:
            return int(constant)
        return m.format_rational(constant)
    parts: list[str] = []
    if constant != 0:
        parts.append(m.format_rational(constant))
    for name, coeff in coeffs:
        if coeff == 1:
            term = name
        elif coeff == -1:
            term = f"-{name}"
        else:
            term = f"{m.format_rational(coeff)}*{name}"
        if parts and not term.startswith("-"):
            parts.append(f"+ {term}")
        elif parts:
            parts.append(f"- {term[1:]}")
        else:
            parts.append(term)
    return " ".join(parts) if parts else "0"


def _kind(q: F) -> str:
    return str(q) if q in (0, 1, -1) else "whole" if q.denominator == 1 else "fraction"


def test_problem_to_dict_renders_as_the_reference():
    # random integer tables over random denominators: zero, whole and
    # fractional constants, coefficients of 0, 1, -1, whole and fractional,
    # and one to three parameters declared out of name order
    rng = random.Random(37)
    seen = set()
    for _ in range(300):
        base = random_problem(rng, max_leaves=6)
        names = rng.sample(["zeta", "R", "c", "alpha", "b_2"], rng.randint(1, 3))
        if names == sorted(names):
            names.reverse()
        den = rng.choice([1, 2, 3, 6, 12])

        def entry():
            return rng.choice([0, 0, den, -den, rng.randint(-30, 30)])

        rows = [tuple(entry() for _ in range(1 + len(names)))
                for _ in range(len(base.leaves) * len(base.states))]
        p = m.DecisionProblem(base.tree, base.states, tuple(names), tuple(rows), den)
        doc = m.problem_to_dict(p)
        for leaf, row_states in zip(p.leaves, zip(*[iter(p.table)] * len(p.states))):
            for state, (c, *xs) in zip(p.states, row_states):
                constant = F(c, p.den)
                coeffs = {n: F(x, p.den) for n, x in zip(names, xs)}
                got = doc["utility"][leaf][state]
                assert got == _reference_render(constant, coeffs), (got, constant, coeffs)
                seen.add(("constant", _kind(constant)))
                seen.update(("coeff", _kind(q)) for q in coeffs.values())
        again = m.problem_from_dict(json.loads(json.dumps(doc), parse_float=F))
        assert (again.table, again.den) == (p.table, p.den)
    assert {("constant", "0"), ("constant", "whole"), ("constant", "fraction"),
            ("coeff", "0"), ("coeff", "1"), ("coeff", "-1"), ("coeff", "whole"),
            ("coeff", "fraction")} <= seen


def _readers(problem):
    """Each reader of leaves by name, as a function of one row ``{leaf:
    weight}`` on example 1: what it builds from the row, or raises."""
    from dynrat import deviation as dv
    from dynrat import rationalize as rz
    from dynrat import structures as st

    labels = problem.leaves
    return {
        "law": lambda row: m.JointDistribution.from_mapping(
            problem, {leaf: {"good": q} for leaf, q in row.items()}),
        "flat law": lambda row: m.JointDistribution.from_mapping(
            problem, {(leaf, "good"): q for leaf, q in row.items()}),
        "marginal": lambda row: m.MarginalDistribution.from_mapping(problem, row),
        "kernel row": lambda row: dv.DeviationRule.from_mapping(
            problem, {leaf: row for leaf in labels}),
        "kernel inputs": lambda row: dv.DeviationRule.from_mapping(
            problem, {**{leaf: "not_invest" for leaf in row},
                      **{leaf: "not_invest" for leaf in labels[len(row):]}}),
        "recommendation": lambda row: rz.obedient_triple_from_json(problem, {
            "prior": {"good": "1"}, "recommendation": {"good": row, "bad": {"not_invest": "1"}}}),
        "strategy row": lambda row: st.Strategy.from_json_dict(problem, {
            "signals": [["x"], ["y"]], "kernel": {"x,y": row}}),
    }


# (reader, the message of a leaf given twice) for the row
# {"not_invest": "1/2", "not_invest,_": "1/2"}
TWICE = {
    "law": "cell 'not_invest@good' given twice",
    "flat law": "cell 'not_invest@good' given twice",
    "marginal": "leaf 'not_invest' of the marginal law given twice",
    "kernel row": "leaf 'not_invest' of row 'not_invest' given twice",
    "kernel inputs": "row for 'not_invest' given twice",
    "recommendation": "leaf 'not_invest' of recommendation 'good' given twice",
    "strategy row": "leaf 'not_invest' of strategy row 'x,y' given twice",
}


@pytest.mark.parametrize("reader", sorted(TWICE))
def test_readers_resolve_leaves_through_the_labels(example1, reader):
    # a leaf's own label, its padded and its spaced spellings name one leaf;
    # two spellings of one leaf and an unknown leaf are refused
    read = _readers(example1)[reader]
    canonical = read({"not_invest": "1/2", "invest,pull_back": "1/2"})
    for spelled in ({"not_invest,_": "1/2", "invest, pull_back": "1/2"},
                    {" not_invest , _ ": "1/2", " invest,pull_back": "1/2"}):
        assert read(spelled) == canonical
    with pytest.raises(m.ValidationError, match=f"^{re.escape(TWICE[reader])}$"):
        read({"not_invest": "1/2", "not_invest,_": "1/2"})
    with pytest.raises(m.ValidationError, match="^'zzz' is not a leaf of this problem$"):
        read({"zzz": "1"})


def test_problem_files_key_a_leaf_by_its_label_alone(example1):
    # a problem file names each leaf by its label: the padded and the spaced
    # spellings that the readers of laws and rules accept are unknown leaves
    doc = m.problem_to_dict(example1)
    for old, new in (("not_invest", "not_invest,_"), ("invest,pull_back", "invest, pull_back"),
                     ("invest,invest", "zzz")):
        utility = {new if leaf == old else leaf: row for leaf, row in doc["utility"].items()}
        with pytest.raises(m.ValidationError, match=f"^utility entry for unknown leaf {new!r}$"):
            m.problem_from_dict({**doc, "utility": utility})
    twice = {**doc["utility"], "not_invest,_": doc["utility"]["not_invest"]}
    with pytest.raises(m.ValidationError, match="^utility entry for unknown leaf 'not_invest,_'$"):
        m.problem_from_dict({**doc, "utility": twice})


def test_every_golden_problem_round_trips():
    golden = sorted((Path(__file__).resolve().parent / "golden").glob("*.json"))
    assert len(golden) >= 20
    for path in golden:
        doc = json.loads(path.read_text())["problem"]
        again = m.problem_to_dict(m.problem_from_dict(doc))
        assert json.dumps(again, sort_keys=True) == json.dumps(doc, sort_keys=True), path.name
