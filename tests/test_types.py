"""Value semantics of dynrat's types: value types compare and hash by their
fields however they were built, `Tree` and `DecisionProblem` compare by
identity, no field can be assigned after construction, and every
`cached_property` computes once."""

import json
from fractions import Fraction as F

import pytest

from dynrat import analysis as an
from dynrat import deviation as dv
from dynrat import lp as L
from dynrat import model as m
from dynrat import rationalize as rz
from dynrat import risk as rk
from dynrat import structures as st

from conftest import PROBLEMS_DIR as PROBLEMS, add_constraint, fraction_matrix


def _doc(name: str) -> dict:
    return json.loads((PROBLEMS / name).read_text())


def _copies(p: m.DecisionProblem) -> dict[str, tuple]:
    """Two copies of one value of each value type, built in different ways:
    by the code that uses the type, and by its constructor from other
    spellings of the same data (unreduced, reordered, ints for fractions)."""
    leaves = p.leaves
    ii, ip = p.sequence("invest,invest"), p.sequence("invest,pull_back")
    structure = _doc("example1_structure.json")
    strategy = _doc("example1_obedient_strategy.json")
    prog = L.LinearProgram()
    x = prog.add_variable()
    add_constraint(prog, {x: "1/2"}, "<=", "3/4")
    prog.set_objective({x: 1})
    rows = L.LinearProgram([False], [L.Constraint({0: 2}, "<=", 3)], {0: 1})
    return {
        "JointDistribution": (
            m.JointDistribution.from_mapping(p, {("invest,invest", "good"): "1/2",
                                                 ("not_invest", "bad"): "1/2"}),
            m.JointDistribution(leaves, p.states, [0, 3, 0, 0, 3, 0], 6)),
        "MarginalDistribution": (
            m.MarginalDistribution.from_mapping(p, {"invest,pull_back": "1/3",
                                                    "invest,invest": "2/3"}),
            m.MarginalDistribution(leaves, (0, 2, 4), 6)),
        "Constraint": (prog.constraints[0], L.Constraint({0: 2}, "<=", 3)),
        "LinearProgram": (prog, rows),
        "LpSolution": (L.solve(prog), L.LpSolution("optimal", F(3, 2), 1, ((3,), 2), ((1,), 2))),
        "DeviationPolytope": (L.deviation_polytope_constraints(p.tree),
                              p.tree.per_tree(L.deviation_polytope_constraints)),
        "InformationStructure": (
            st.InformationStructure.from_json_dict(p, structure),
            st.InformationStructure(p.states, (3, 3), 6, (("s",), ("g", "b")),
                                    ((4, 2), (0, 6)), 6)),
        "Strategy": (st.Strategy.from_json_dict(p, strategy),
                     st.Strategy((("s",), ("g", "b")), p.tree, ((0, 0, 2), (0, 2, 0)), 2)),
        "ApparentDominanceWitness": (
            rz.apparently_dominated(p, ip),
            rz.ApparentDominanceWitness(((p.sequence("not_invest,_"), F(1)),), F(2, 2))),
        "Verdict": (rz.decide(p, ii), rz.Verdict(True, m.JointDistribution(
            leaves, p.states, (0, 0, 0, 0, 7, 0), 7))),
        "PiecewiseLinearFunction": (rk.PiecewiseLinearFunction.affine(2, 0),
                                    rk.PiecewiseLinearFunction((0,), (F(4, 2), 2), F(0))),
        "IdentifiedSet": (an.IdentifiedSet("d", ((F(0), F(1, 2), "out"), (F(1, 2), F(1), "in"))),
                          an.IdentifiedSet("d", ((0, F(2, 4), "out"), (F(2, 4), 1, "in")))),
        "DeviationRule": (dv.pure_rule(p, (0, 2, 2)),
                          dv.DeviationRule.from_mapping(p, {
                              "invest,invest": {"invest,invest": "3/3"},
                              "not_invest": "not_invest", "invest,pull_back": "invest,invest"})),
    }


#: Types whose fields hold a dict or a list, so that, as before, they compare
#: but do not hash.
UNHASHABLE = {"Constraint", "LinearProgram", "DeviationPolytope"}


def test_values_compare_and_hash_by_their_fields(example1):
    copies = _copies(example1)
    assert len(copies) == 13
    for name, (a, b) in copies.items():
        assert type(a).__name__ == type(b).__name__ == name and a is not b
        assert a == b and not a != b, name
        if name in UNHASHABLE:
            with pytest.raises(TypeError):
                hash(a)
        else:
            assert hash(a) == hash(b), name
        assert a != (a,) and a != None, name  # noqa: E711 - a value of another type
        fields = type(a).__match_args__
        assert repr(a).startswith(f"{name}({fields[0]}="), name
    rule = copies["DeviationRule"][0]
    assert rule != dv.pure_rule(example1, (0, 1, 2))


def test_solutions_and_polytopes_compare_by_their_fields_only(example1):
    # a solution with other duals, or a polytope whose remapped rows are
    # cached, is another value and the same value respectively
    sol = L.solve(_copies(example1)["LinearProgram"][1])
    assert sol != L.LpSolution(sol.status, sol.value, sol.pivots, sol.integer_assignment,
                               ((3,), 1))
    poly = L.deviation_polytope_constraints(example1.tree)
    fresh = L.deviation_polytope_constraints(example1.tree)
    poly.rows_on((1, 2))
    assert poly == fresh and repr(poly) == repr(fresh)


def test_trees_and_problems_compare_by_identity(example1):
    text = (PROBLEMS / "example1.json").read_text()
    one, two = m.load_problem(text), m.load_problem(text)
    assert m.problem_to_dict(one) == m.problem_to_dict(two)
    for a, b in ((one, two), (one.tree, two.tree)):
        assert a == a and a != b and len({a, b, a}) == 2
        assert hash(a) == hash(a)
    derived = m.instantiate(one, {})
    assert derived.tree is one.tree and derived != one
    assert repr(one.tree) == "Tree(periods=2)"
    assert repr(one).startswith("DecisionProblem(tree=Tree(periods=2), states=('good', 'bad')")


def test_fields_cannot_be_assigned_or_deleted(example1):
    values = [a for a, _ in _copies(example1).values() if not isinstance(a, L.LinearProgram)]
    values += [example1, example1.tree]
    assert len(values) == 14
    for value in values:
        for name in type(value).__match_args__ + ("leaves", "extra"):
            before = getattr(value, name, None)
            with pytest.raises(AttributeError):
                setattr(value, name, before)
            with pytest.raises(AttributeError):
                delattr(value, name)
            assert getattr(value, name, None) is before
    # a program is built up in place, and so does not hash
    prog = L.LinearProgram()
    prog.objective = {prog.add_variable(): F(1)}
    assert prog == L.LinearProgram([False], [], {0: 1})
    with pytest.raises(TypeError):
        hash(prog)


def test_cached_properties_compute_once(example1):
    copies = _copies(example1)
    cached = [(example1.tree, "common"), (example1.tree, "_per_tree"),
              (example1.tree, "prefixes"),
              (example1, "columns"), (example1, "integer_payoffs"),
              (copies["JointDistribution"][0], "consistency_rows"),
              (copies["InformationStructure"][1], "sequences"),
              (copies["Strategy"][1], "sequences")]
    for value, name in cached:
        first = getattr(value, name)
        assert vars(value)[name] is first and getattr(value, name) is first, name
    # a rule's Fraction kernel is the tests' own view, built when read
    assert fraction_matrix(copies["DeviationRule"][1])[1] == (0, 0, 1)
