import itertools
import random
from fractions import Fraction as F

import pytest

from dynrat import deviation as dv
from dynrat import lp as L
from dynrat import model as m

from conftest import random_problem


def test_single_variable_box():
    prog = L.LinearProgram()
    x = prog.add_variable()
    prog.add_constraint({x: 1}, "<=", "3/7")
    prog.set_objective({x: 1})
    sol = L.solve(prog)
    assert sol.status == "optimal" and sol.value == F(3, 7)
    assert sol.assignment == (F(3, 7),)
    # only declared columns may carry a coefficient
    with pytest.raises(m.ValidationError, match="undeclared column 1"):
        prog.add_constraint({x: 1, 1: 2}, "<=", 1)
    with pytest.raises(m.ValidationError, match="undeclared column -1"):
        prog.set_objective({-1: 1})
    with pytest.raises(m.ValidationError, match="undeclared column 'x'"):
        prog.set_objective({"x": 1})
    assert len(prog.constraints) == 1 and prog.objective == {x: 1}


def test_symmetric_binding():
    prog = L.LinearProgram()
    x, y = prog.add_variable(), prog.add_variable()
    prog.add_constraint({x: 1}, "<=", 1)
    prog.add_constraint({y: 1}, "<=", 2)
    prog.add_constraint({x: 1, y: -1}, "==", 0)
    prog.set_objective({x: 1, y: 1})
    sol = L.solve(prog)
    assert sol.value == 2
    assert L.check_duals(prog, sol)


def test_duals_certify_the_optimum():
    # max 2x + y + z, x + y <= 5, x + z == 2, -y + z >= -3 (stored negated),
    # y >= 1 (a row), z free (split)
    prog = L.LinearProgram()
    x, y, z = prog.add_variable(), prog.add_variable(), prog.add_variable(free=True)
    prog.add_constraint({x: 1, y: 1}, "<=", 5)
    prog.add_constraint({x: 1, z: 1}, "==", 2)
    prog.add_constraint({y: -1, z: 1}, ">=", -3)
    prog.add_constraint({}, "<=", 4)  # no coefficients: dual 0
    prog.add_constraint({y: 1}, ">=", 1)
    prog.set_objective({x: 2, y: 1, z: 1})
    sol = L.solve(prog)
    assert sol.value == 7 and len(sol.duals) == 5
    assert sol.duals[3] == 0
    assert L.check_duals(prog, sol)
    # any single perturbed dual breaks the certificate: a reduced cost or
    # the dual bound moves
    for r in range(5):
        for step in (F(1, 7), F(-1, 7)):
            duals = list(sol.duals)
            duals[r] += step
            assert not L.check_duals(prog, L.LpSolution(
                sol.status, sol.value, sol.assignment, sol.pivots, tuple(duals)))
    assert not L.check_duals(prog, L.LpSolution(
        sol.status, sol.value, sol.assignment, sol.pivots, sol.duals[:4]))


def test_statuses():
    prog = L.LinearProgram()
    x = prog.add_variable()
    prog.add_constraint({x: 1}, ">=", 1)
    prog.add_constraint({x: 1}, "<=", 0)
    prog.set_objective({x: 1})
    assert L.solve(prog).status == "infeasible"

    prog = L.LinearProgram()
    x = prog.add_variable()
    prog.set_objective({x: 1})
    assert L.solve(prog).status == "unbounded"


def test_free_variable_and_min():
    prog = L.LinearProgram()
    k = prog.add_variable(free=True)
    a = prog.add_variable()
    prog.add_constraint({a: 1}, "<=", 1)
    prog.add_constraint({k: 1, a: -1}, "<=", "-1/3")
    prog.set_objective({k: 1})
    assert L.solve(prog).value == F(2, 3)
    prog.set_objective({k: -1})  # minimize k
    assert L.solve(prog).status == "unbounded"

    prog = L.LinearProgram()
    x = prog.add_variable(free=True)
    prog.add_constraint({x: 1}, ">=", -2)
    prog.add_constraint({x: 1}, "<=", 5)
    prog.set_objective({x: -1})  # minimize x
    sol = L.solve(prog)
    assert sol.value == 2 and sol.assignment == (-2,)
    assert L.check_duals(prog, sol)


# -- randomized cross-check against explicit vertex enumeration --------------

def _gauss(A, b):
    n = len(A)
    M = [row[:] + [b[i]] for i, row in enumerate(A)]
    for c in range(n):
        pivot = next((r for r in range(c, n) if M[r][c] != 0), None)
        if pivot is None:
            return None
        M[c], M[pivot] = M[pivot], M[c]
        inv = F(1) / M[c][c]
        M[c] = [v * inv for v in M[c]]
        for r in range(n):
            if r != c and M[r][c] != 0:
                f = M[r][c]
                M[r] = [x - f * y for x, y in zip(M[r], M[c])]
    return [M[r][n] for r in range(n)]


def _vertex_optimum(bounds, rows, obj):
    n = len(bounds)
    all_rows = []
    for i, (lo, hi) in enumerate(bounds):
        unit = [F(0)] * n
        unit[i] = F(1)
        all_rows.append((unit, ">=", lo))
        all_rows.append((unit[:], "<=", hi))
    all_rows.extend(rows)
    best = None
    for combo in itertools.combinations(range(len(all_rows)), n):
        x = _gauss([all_rows[i][0][:] for i in combo], [all_rows[i][2] for i in combo])
        if x is None:
            continue
        feasible = True
        for coeff, sense, rhs in all_rows:
            lhs = sum(c * v for c, v in zip(coeff, x))
            if (sense == "<=" and lhs > rhs) or (sense == ">=" and lhs < rhs) or (
                sense == "==" and lhs != rhs
            ):
                feasible = False
                break
        if not feasible:
            continue
        value = sum(c * v for c, v in zip(obj, x))
        if best is None or value > best:
            best = value
    return best


def test_random_programs_match_vertex_enumeration():
    # each optimum also carries duals that certify it; minimizing is
    # maximizing the negated objective
    rng = random.Random(101)
    for _ in range(120):
        n = rng.randint(1, 4)
        bounds = [(F(rng.randint(-3, 0)), F(rng.randint(1, 4))) for _ in range(n)]
        prog = L.LinearProgram()
        cols = []
        for lo, hi in bounds:
            cols.append(prog.add_variable(free=lo < 0))
            if lo:
                prog.add_constraint({cols[-1]: 1}, ">=", lo)
            prog.add_constraint({cols[-1]: 1}, "<=", hi)
        rows = []
        for _ in range(rng.randint(0, 4)):
            coeff = [F(rng.randint(-3, 3)) for _ in range(n)]
            sense = rng.choice(["<=", ">=", "=="])
            rhs = F(rng.randint(-4, 4), rng.randint(1, 3))
            rows.append((coeff, sense, rhs))
            prog.add_constraint(dict(zip(cols, coeff)), sense, rhs)
        obj = [F(rng.randint(-3, 3)) for _ in range(n)]
        if rng.choice(["max", "min"]) == "min":
            obj = [-c for c in obj]
        prog.set_objective(dict(zip(cols, obj)))
        got = L.solve(prog)
        want = _vertex_optimum(bounds, rows, obj)
        if want is None:
            assert got.status == "infeasible"
        else:
            assert got.status == "optimal"
            assert got.value == want
            assert L.check_solution(prog, got.assignment)
            assert L.check_duals(prog, got)


def test_solutions_verify_and_repeat_bit_for_bit(example1):
    poly = L.deviation_polytope_constraints(example1)
    prog = L.LinearProgram()
    poly.install(prog)
    prog.set_objective({poly.var(1, 0): 1, poly.var(2, 2): "1/3"})
    first = L.solve(prog)
    second = L.solve(prog)
    assert first == second
    assert L.check_solution(prog, first.assignment)
    # one value per column, no more and no fewer
    assert not L.check_solution(prog, first.assignment[:-1])
    assert not L.check_solution(prog, first.assignment + (F(0),))
    # the polytope's columns come first: it refuses a program that has some
    with pytest.raises(m.ValidationError, match="without columns"):
        poly.install(prog)
    assert len(prog.variables) == 9


def test_polytope_shape_example1(example1):
    poly = L.deviation_polytope_constraints(example1)
    density = [c for c in poly.constraints if c.rhs == 1]
    adapted = [c for c in poly.constraints if c.rhs == 0]
    assert len(density) == 3
    # one pair of rows (the two invest continuations) x two first-period classes
    assert len(adapted) == 2
    assert poly.n == 3


def test_polytope_vacuous_for_static_problems():
    import json
    doc = {"periods": 1, "states": ["s"], "tree": {"a": "leaf", "b": "leaf"},
           "utility": {"a": {"s": 1}, "b": {"s": 0}}}
    static = m.load_problem(json.dumps(doc))
    poly = L.deviation_polytope_constraints(static)
    assert all(c.rhs == 1 for c in poly.constraints)


def test_polytope_membership(example1, example2):
    # every enumerated pure kernel satisfies the block; perturbations break it
    rng = random.Random(13)
    for problem in (example1, example2):
        poly = L.deviation_polytope_constraints(problem)
        prog = L.LinearProgram()
        poly.install(prog)
        n = len(problem.leaves)
        for rule in dv.enumerate_pure_rules(problem):
            mat = rule.to_rule().matrix
            asg = [mat[i][j] for i in range(n) for j in range(n)]
            assert L.check_solution(prog, asg)
            i, j = rng.randrange(n), rng.randrange(n)
            bad = list(asg)
            bad[poly.var(i, j)] = asg[poly.var(i, j)] + F(1, 7)
            assert not L.check_solution(prog, bad)
    # the half-and-half rewrite of waiting sits inside the block
    poly = L.deviation_polytope_constraints(example2)
    prog = L.LinearProgram()
    poly.install(prog)
    half = m.instantiate(example2, {"delta": "1/2"})
    hedge = dv.DeviationRule.from_mapping(half, {
        "w,x": {"x": "1/2", "y": "1/2"}, "w,y": {"x": "1/2", "y": "1/2"},
        "x": "y", "y": "y"})
    asg = [w for row in hedge.matrix for w in row]
    assert L.check_solution(prog, asg)


def test_polytope_vertices_are_pure_kernels(example1):
    # random objectives land on vertices; all vertices are pure-rule kernels.
    # The block's density rows alone keep every entry in [0, 1].
    rng = random.Random(17)
    problems = [example1] + [
        random_problem(rng, min_leaves=4, max_rules=250) for _ in range(6)]
    for problem in problems:
        pure_kernels = {r.to_rule().matrix for r in dv.enumerate_pure_rules(problem)}
        poly = L.deviation_polytope_constraints(problem)
        n = len(problem.leaves)
        for _ in range(12):
            prog = L.LinearProgram()
            poly.install(prog)
            objective = {
                poly.var(i, j): F(rng.randint(-5, 5), rng.randint(1, 4))
                for i in range(n)
                for j in range(n)
            }
            prog.set_objective(objective)
            sol = L.solve(prog)
            assert sol.status == "optimal"
            assert poly.extract_matrix(sol.assignment) in pure_kernels


def test_polytope_feasibility_equals_adaptedness_on_random_problems():
    rng = random.Random(19)
    from conftest import random_rule

    for _ in range(10):
        p = random_problem(rng, max_rules=250)
        poly = L.deviation_polytope_constraints(p)
        prog = L.LinearProgram()
        poly.install(prog)
        n = len(p.leaves)
        rule = random_rule(rng, p)
        asg = [rule.matrix[i][j] for i in range(n) for j in range(n)]
        assert L.check_solution(prog, asg)
        # arbitrary row-stochastic kernels: block membership <=> adaptedness
        for _ in range(4):
            rows = []
            for _ in range(n):
                raw = [rng.randint(0, 3) for _ in range(n)]
                if sum(raw) == 0:
                    raw[rng.randrange(n)] = 1
                rows.append(tuple(F(x, sum(raw)) for x in raw))
            asg = [rows[i][j] for i in range(n) for j in range(n)]
            assert L.check_solution(prog, asg) == dv.is_adapted(p, tuple(rows))


def test_fractional_boxes_match_vertex_enumeration():
    # fractional and degenerate (fixed) boxes, fractional coefficients and
    # objectives.  Each box is declared in one of three ways: a column that
    # is nonnegative, or free when the box reaches below zero, with each
    # nonzero side as a row; a free column with the upper side as a negated
    # ">=" row and the lower side as a ">=" row; or a free column with both
    # sides as plain rows.  So duals are read from nonnegative and split free
    # columns and from rows the solver stores negated.
    rng = random.Random(303)
    for _ in range(150):
        n = rng.randint(1, 4)
        bounds = []
        for _ in range(n):
            lo = F(rng.randint(-4, 1), rng.randint(1, 3))
            width = F(0) if rng.random() < 0.2 else F(rng.randint(1, 6), 3)
            bounds.append((lo, lo + width))
        prog = L.LinearProgram()
        cols = []
        for lo, hi in bounds:
            declared = rng.choice(["lower", "lower", "negated", "none"])
            if declared == "lower":
                cols.append(prog.add_variable(free=lo < 0))
                if lo:
                    prog.add_constraint({cols[-1]: 1}, ">=", lo)
                prog.add_constraint({cols[-1]: 1}, "<=", hi)
            elif declared == "negated":
                cols.append(prog.add_variable(free=True))
                prog.add_constraint({cols[-1]: -1}, ">=", -hi)
                prog.add_constraint({cols[-1]: 1}, ">=", lo)
            else:
                cols.append(prog.add_variable(free=True))
                prog.add_constraint({cols[-1]: 1}, ">=", lo)
                prog.add_constraint({cols[-1]: 1}, "<=", hi)
        rows = []
        for _ in range(rng.randint(0, 4)):
            coeff = [F(rng.randint(-3, 3), rng.randint(1, 4)) for _ in range(n)]
            sense = rng.choice(["<=", ">=", "=="])
            rhs = F(rng.randint(-4, 4), rng.randint(1, 5))
            rows.append((coeff, sense, rhs))
            prog.add_constraint(dict(zip(cols, coeff)), sense, rhs)
        obj = [F(rng.randint(-3, 3), rng.randint(1, 5)) for _ in range(n)]
        if rng.choice(["max", "min"]) == "min":
            obj = [-c for c in obj]
        prog.set_objective(dict(zip(cols, obj)))
        got = L.solve(prog)
        want = _vertex_optimum(bounds, rows, obj)
        if want is None:
            assert got.status == "infeasible"
        else:
            assert got.status == "optimal"
            assert got.value == want
            assert L.check_solution(prog, got.assignment)
            assert L.check_duals(prog, got)
