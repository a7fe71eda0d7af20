import itertools
import random
from fractions import Fraction as F

import pytest

from dynrat import deviation as dv
from dynrat import lp as L
from dynrat import model as m
from dynrat import rationalize as rz

from conftest import (
    FractionProgram,
    check_solution,
    fraction_assignment,
    fraction_duals,
    fraction_matrix,
    polytope_program,
    random_marginal,
    random_problem,
    rational_objective,
    rational_row,
)


def with_duals(sol, duals):
    """``sol`` with other duals, in the canonical integer form the solver
    gives: numerators over the least common denominator."""
    nums, den = m._over_lcm([y.as_integer_ratio() for y in duals])
    return L.LpSolution(sol.status, sol.value, sol.pivots, sol.integer_assignment,
                        (tuple(nums), den))


def test_single_variable_box():
    row, _ = rational_row({0: 1}, "<=", "3/7")
    prog = L.LinearProgram([False], [row], {0: 1})
    sol = L.solve(prog)
    assert sol.status == "optimal" and sol.value == F(3, 7)
    assert fraction_assignment(sol) == (F(3, 7),)
    # only declared columns may carry a coefficient
    with pytest.raises(m.ValidationError, match="undeclared column 1"):
        L.LinearProgram([False], [row, rational_row({0: 1, 1: 2}, "<=", 1)[0]], {0: 1})
    with pytest.raises(m.ValidationError, match="undeclared column -1"):
        L.LinearProgram([False], [row], {-1: 1})
    with pytest.raises(m.ValidationError, match="undeclared column 'x'"):
        L.LinearProgram([False], [row], {"x": 1})
    assert prog.constraints == (row,) and prog.objective == {0: 1}


#: Each way bad data could enter a program, and the fault its message
#: names.  Before programs were checked where they are built, the solver
#: read column -1 as the last column, "=<" or ">" as "==" and a column kind
#: such as "no" as free, and failed on the rest with an `IndexError`,
#: `TypeError` or `AttributeError`.
BAD_DATA = {
    "negative column": (lambda: L.LinearProgram(
        [False, False], [L.Constraint({-1: 1}, "<=", 1)], {1: 1}), "undeclared column -1"),
    "sense =<": (lambda: L.Constraint({0: -1}, "=<", 1), "bad constraint sense '=<'"),
    "sense >": (lambda: L.Constraint({0: 1}, ">", 0), "bad constraint sense '>'"),
    "column past the last": (lambda: L.LinearProgram(
        [False], [L.Constraint({5: 1}, "<=", 1)], {0: 1}),
        "constraint references undeclared column 5"),
    "column not an int": (lambda: L.Constraint({"x": 1}, "<=", 1), "undeclared column 'x'"),
    "Fraction coefficient": (lambda: L.Constraint({0: F(1, 2)}, "<=", 1),
                             r"coefficient Fraction\(1, 2\) is not an int"),
    "float coefficient": (lambda: L.Constraint({0: 0.5}, "<=", 1),
                          "coefficient 0.5 is not an int"),
    "bool coefficient": (lambda: L.Constraint({0: True}, "<=", 1),
                         "coefficient True is not an int"),
    "Fraction right-hand side": (lambda: L.Constraint({0: 1}, "<=", F(1, 2)),
                                 r"right-hand side Fraction\(1, 2\) is not an int"),
    "bool right-hand side": (lambda: L.Constraint({0: 1}, "<=", True),
                             "right-hand side True is not an int"),
    "Fraction objective entry": (lambda: L.LinearProgram([False], [], {0: F(1, 2)}),
                                 r"objective coefficient Fraction\(1, 2\) is not an int"),
    "undeclared objective column": (lambda: L.LinearProgram([False], [], {1: 1}),
                                    "objective references undeclared column 1"),
    "negative objective column": (lambda: L.LinearProgram([False], [], {-1: 1}),
                                  "objective references undeclared column -1"),
    "column kind not a bool": (lambda: L.LinearProgram([False, "no"], [], {0: 1}),
                               r"free \(True\) or not \(False\), not 'no'"),
}


@pytest.mark.parametrize("case", BAD_DATA)
def test_bad_data_is_refused_where_a_program_is_built(case):
    build, fault = BAD_DATA[case]
    with pytest.raises(m.ValidationError, match=fault):
        build()


def test_a_program_is_integer_data():
    # 2x + y <= 3: the row rational_row makes from x/2 + y/4 <= 3/4 (times
    # 4, dropping the zero), solved alike
    row, den = rational_row({0: "1/2", 1: F(1, 4), 2: 0}, "<=", "3/4")
    assert den == 4
    rows = L.LinearProgram([False, False, False], [L.Constraint({0: 2, 1: 1}, "<=", 3)],
                           {0: 1, 1: 1, 2: 0})
    parsed = L.LinearProgram((False, False, False), (row,), {0: 1, 1: 1, 2: 0})
    assert rows.constraints == parsed.constraints == (L.Constraint({0: 2, 1: 1}, "<=", 3),)
    assert rows.objective == parsed.objective == {0: 1, 1: 1}
    sol = L.solve(rows)
    assert sol == L.solve(parsed) and sol.value == 3 and fraction_duals(sol) == (1,)
    # the assignment and the duals are held in lowest terms, so equal
    # solutions are equal field by field
    assert sol.integer_assignment == ((0, 3, 0), 1) and sol.integer_duals == ((1,), 1)
    assert L.check_duals(rows, sol)
    # an undeclared column and a bad sense are refused
    for coeffs, sense, match in (({0: 1, 3: 1}, "<=", "undeclared column 3"),
                                 ({-1: 1}, "<=", "undeclared column -1"),
                                 ({0: 1}, "<", "bad constraint sense")):
        with pytest.raises(m.ValidationError, match=match):
            L.LinearProgram(rows.variables, [*rows.constraints, L.Constraint(coeffs, sense, 1)],
                            rows.objective)
    # an objective coefficient that is not an int is refused; a rational
    # one is the caller's to scale
    for c in (F(1, 2), F(2), "1", "1/2", 1.0, True):
        with pytest.raises(m.ValidationError, match="is not an int"):
            L.LinearProgram(rows.variables, rows.constraints, {0: 1, 1: c})
    objective, scale = rational_objective({0: "1/2", 1: F(1, 4)})
    assert scale == 4 and objective == {0: 2, 1: 1}
    assert L.solve(L.LinearProgram(rows.variables, rows.constraints, objective)).value == 3


def test_symmetric_binding():
    x, y = 0, 1
    prog = L.LinearProgram([False, False], [
        L.Constraint({x: 1}, "<=", 1),
        L.Constraint({y: 1}, "<=", 2),
        L.Constraint({x: 1, y: -1}, "==", 0)], {x: 1, y: 1})
    sol = L.solve(prog)
    assert sol.value == 2
    assert L.check_duals(prog, sol)


def test_duals_certify_the_optimum():
    # max 2x + y + z, x + y <= 5, x + z == 2, -y + z >= -3 (stored negated),
    # y >= 1 (a row), z free (split)
    x, y, z = 0, 1, 2
    prog = L.LinearProgram([False, False, True], [
        L.Constraint({x: 1, y: 1}, "<=", 5),
        L.Constraint({x: 1, z: 1}, "==", 2),
        L.Constraint({y: -1, z: 1}, ">=", -3),
        L.Constraint({}, "<=", 4),  # no coefficients: dual 0
        L.Constraint({y: 1}, ">=", 1)], {x: 2, y: 1, z: 1})
    sol = L.solve(prog)
    assert sol.value == 7 and len(fraction_duals(sol)) == 5
    assert fraction_duals(sol)[3] == 0
    assert L.check_duals(prog, sol)
    # any single perturbed dual breaks the certificate: a reduced cost or
    # the dual bound moves
    for r in range(5):
        for step in (F(1, 7), F(-1, 7)):
            duals = list(fraction_duals(sol))
            duals[r] += step
            assert not L.check_duals(prog, with_duals(sol, duals))
    assert not L.check_duals(prog, with_duals(sol, fraction_duals(sol)[:4]))
    # the duals' denominator must be positive
    ys, yden = sol.integer_duals
    assert not L.check_duals(prog, L.LpSolution(sol.status, sol.value, sol.pivots,
                                                sol.integer_assignment,
                                                (tuple(-y for y in ys), -yden)))


def test_statuses():
    prog = L.LinearProgram([False], [L.Constraint({0: 1}, ">=", 1),
                                     L.Constraint({0: 1}, "<=", 0)], {0: 1})
    assert L.solve(prog).status == "infeasible"

    prog = L.LinearProgram([False], [], {0: 1})
    assert L.solve(prog).status == "unbounded"


def test_free_variable_and_min():
    k, a = 0, 1
    rows = [rational_row({a: 1}, "<=", 1)[0], rational_row({k: 1, a: -1}, "<=", "-1/3")[0]]
    prog = L.LinearProgram([True, False], rows, {k: 1})
    assert L.solve(prog).value == F(2, 3)
    prog = L.LinearProgram([True, False], rows, {k: -1})  # minimize k
    assert L.solve(prog).status == "unbounded"

    prog = L.LinearProgram([True], [L.Constraint({0: 1}, ">=", -2),
                                    L.Constraint({0: 1}, "<=", 5)], {0: -1})  # minimize x
    sol = L.solve(prog)
    assert sol.value == 2 and fraction_assignment(sol) == (-2,)
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


def _integer_program(rng):
    """A random program with integer boxes and coefficients, and its boxes,
    rows and objective for `_vertex_optimum`.  Minimizing is maximizing the
    negated objective."""
    n = rng.randint(1, 4)
    bounds = [(F(rng.randint(-3, 0)), F(rng.randint(1, 4))) for _ in range(n)]
    prog = FractionProgram()
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
    obj = [rng.randint(-3, 3) for _ in range(n)]
    if rng.choice(["max", "min"]) == "min":
        obj = [-c for c in obj]
    prog.set_objective(dict(zip(cols, obj)))
    return prog.as_lp()[0], bounds, rows, obj


def test_random_programs_match_vertex_enumeration():
    # each optimum also carries duals that certify it
    rng = random.Random(101)
    for _ in range(120):
        prog, bounds, rows, obj = _integer_program(rng)
        got = L.solve(prog)
        want = _vertex_optimum(bounds, rows, obj)
        if want is None:
            assert got.status == "infeasible"
        else:
            assert got.status == "optimal"
            assert got.value == want
            assert check_solution(prog, fraction_assignment(got))
            assert L.check_duals(prog, got)


def test_solutions_verify_and_repeat_bit_for_bit(example1):
    poly = L.deviation_polytope_constraints(example1.tree)
    objective, scale = rational_objective({1 * 3 + 0: 1, 2 * 3 + 2: "1/3"})
    assert scale == 3
    prog = polytope_program(poly, objective)
    first = L.solve(prog)
    second = L.solve(prog)
    assert first == second
    assert check_solution(prog, fraction_assignment(first))
    # one value per column, no more and no fewer
    assert not check_solution(prog, fraction_assignment(first)[:-1])
    assert not check_solution(prog, fraction_assignment(first) + (F(0),))
    assert len(prog.variables) == 9


def test_polytope_shape_example1(example1):
    poly = L.deviation_polytope_constraints(example1.tree)
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
    poly = L.deviation_polytope_constraints(static.tree)
    assert all(c.rhs == 1 for c in poly.constraints)


def test_polytope_membership(example1, example2):
    # every enumerated pure kernel satisfies the block; perturbations break it
    rng = random.Random(13)
    for problem in (example1, example2):
        prog = polytope_program(L.deviation_polytope_constraints(problem.tree))
        n = len(problem.leaves)
        for targets in dv.enumerate_pure_rules(problem):
            mat = fraction_matrix(dv.pure_rule(problem, targets))
            asg = [mat[i][j] for i in range(n) for j in range(n)]
            assert check_solution(prog, asg)
            i, j = rng.randrange(n), rng.randrange(n)
            bad = list(asg)
            bad[i * n + j] = asg[i * n + j] + F(1, 7)
            assert not check_solution(prog, bad)
    # the half-and-half rewrite of waiting sits inside the block
    prog = polytope_program(L.deviation_polytope_constraints(example2.tree))
    half = m.instantiate(example2, {"delta": "1/2"})
    hedge = dv.DeviationRule.from_mapping(half, {
        "w,x": {"x": "1/2", "y": "1/2"}, "w,y": {"x": "1/2", "y": "1/2"},
        "x": "y", "y": "y"})
    asg = [w for row in fraction_matrix(hedge) for w in row]
    assert check_solution(prog, asg)


def test_polytope_vertices_are_pure_kernels(example1):
    # random objectives land on vertices; all vertices are pure-rule kernels.
    # The block's density rows alone keep every entry in [0, 1].
    rng = random.Random(17)
    problems = [example1] + [
        random_problem(rng, min_leaves=4, max_rules=250) for _ in range(6)]
    for problem in problems:
        pure_kernels = {fraction_matrix(dv.pure_rule(problem, t))
                        for t in dv.enumerate_pure_rules(problem)}
        poly = L.deviation_polytope_constraints(problem.tree)
        n = len(problem.leaves)
        for _ in range(12):
            objective = {
                i * n + j: F(rng.randint(-5, 5), rng.randint(1, 4))
                for i in range(n)
                for j in range(n)
            }
            sol = L.solve(polytope_program(poly, rational_objective(objective)[0]))
            assert sol.status == "optimal"
            kernel = tuple(fraction_assignment(sol)[i * n:i * n + n] for i in range(n))
            assert kernel in pure_kernels


def test_rows_on_keeps_one_remap_per_block_set():
    # each block set's rows are remapped once and kept: they equal a fresh
    # remap, kernel entry (inputs[p], j) in column p * n + j, and come back
    # as the same tuple however the inputs are passed
    rng = random.Random(47)
    proper = 0
    for _ in range(8):
        poly = L.deviation_polytope_constraints(random_problem(rng).tree)
        n = poly.n
        for r in range(1, len(poly.blocks) + 1):
            for chosen in itertools.combinations(poly.blocks, r):
                inputs = poly.inputs(i for block in chosen for i in block)
                got = poly.rows_on(inputs)
                if len(inputs) == n:
                    assert got is poly.constraints
                    continue
                column = {i * n + j: p * n + j for p, i in enumerate(inputs) for j in range(n)}
                want = [({column[k]: c for k, c in con.coeffs.items()}, con.sense, con.rhs)
                        for con in poly.constraints if column.keys() >= con.coeffs.keys()]
                assert [(con.coeffs, con.sense, con.rhs) for con in got] == want
                assert poly.rows_on(list(inputs)) is got
                proper += 1
    assert proper > 8


def test_polytope_feasibility_equals_adaptedness_on_random_problems():
    rng = random.Random(19)
    from conftest import random_rule

    for _ in range(10):
        p = random_problem(rng, max_rules=250)
        prog = polytope_program(L.deviation_polytope_constraints(p.tree))
        n = len(p.leaves)
        rule = random_rule(rng, p)
        asg = [fraction_matrix(rule)[i][j] for i in range(n) for j in range(n)]
        assert check_solution(prog, asg)
        # arbitrary row-stochastic kernels: block membership <=> adaptedness
        for _ in range(4):
            rows = []
            for _ in range(n):
                raw = [rng.randint(0, 3) for _ in range(n)]
                if sum(raw) == 0:
                    raw[rng.randrange(n)] = 1
                rows.append(tuple(F(x, sum(raw)) for x in raw))
            asg = [rows[i][j] for i in range(n) for j in range(n)]
            assert check_solution(prog, asg) == dv.is_adapted(p, tuple(rows))


def _fractional_program(rng):
    """Like `_integer_program`, with fractional and degenerate (fixed) boxes,
    fractional coefficients and objectives; the objective is set times the
    lcm of its denominators, the last value returned."""
    n = rng.randint(1, 4)
    bounds = []
    for _ in range(n):
        lo = F(rng.randint(-4, 1), rng.randint(1, 3))
        width = F(0) if rng.random() < 0.2 else F(rng.randint(1, 6), 3)
        bounds.append((lo, lo + width))
    prog = FractionProgram()
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
    program, _, scale = prog.as_lp()
    return program, bounds, rows, obj, scale


def test_fractional_boxes_match_vertex_enumeration():
    # Each box is declared in one of three ways: a column that
    # is nonnegative, or free when the box reaches below zero, with each
    # nonzero side as a row; a free column with the upper side as a negated
    # ">=" row and the lower side as a ">=" row; or a free column with both
    # sides as plain rows.  So duals are read from nonnegative and split free
    # columns and from rows the solver stores negated.
    rng = random.Random(303)
    for _ in range(150):
        prog, bounds, rows, obj, scale = _fractional_program(rng)
        got = L.solve(prog)
        want = _vertex_optimum(bounds, rows, obj)
        if want is None:
            assert got.status == "infeasible"
        else:
            assert got.status == "optimal"
            assert got.value / scale == want
            assert check_solution(prog, fraction_assignment(got))
            assert L.check_duals(prog, got)


# -- the integer checks against plain Fraction arithmetic ---------------------

def _fraction_violations(prog, assignment):
    """What a plain-`Fraction` check finds wrong with ``assignment``: the
    nonnegative columns it makes negative and the rows it violates."""
    bad = [("sign", k) for k, (x, free) in enumerate(zip(assignment, prog.variables))
           if not free and x < 0]
    for r, con in enumerate(prog.constraints):
        lhs = sum((c * assignment[k] for k, c in con.coeffs.items()), F(0))
        if con.sense == "<=" and lhs > con.rhs or con.sense == ">=" and lhs < con.rhs or (
                con.sense == "==" and lhs != con.rhs):
            bad.append(("row", r))
    return bad


def _fraction_duals_certify(prog, sol):
    """`check_duals` in plain `Fraction` arithmetic."""
    reduced = dict(prog.objective)
    bound = F(0)
    for con, y in zip(prog.constraints, fraction_duals(sol)):
        if (con.sense == "<=" and y < 0) or (con.sense == ">=" and y > 0):
            return False
        if y:
            bound += y * con.rhs
            for k, c in con.coeffs.items():
                reduced[k] = reduced.get(k, 0) - y * c
    for k, free in enumerate(prog.variables):
        d = reduced.get(k, 0)
        if (d != 0) if free else (d > 0):
            return False
    return bound == sol.value


LARGE = (10**30 + 57, 2**89 - 1, 3**61)


def _rescaled(prog, rng):
    """``prog`` with each row and the objective multiplied by a positive
    rational with a large numerator and denominator: the same feasible set
    and optimal assignments, over large denominators."""
    def factor():
        return F(rng.choice(LARGE), rng.choice(LARGE))

    rows = []
    for con in prog.constraints:
        f = factor()
        rows.append(rational_row({k: c * f for k, c in con.coeffs.items()}, con.sense,
                                 con.rhs * f)[0])
    f = factor()
    return L.LinearProgram(prog.variables, rows,
                           rational_objective({k: c * f for k, c in prog.objective.items()})[0])


def _seeded_optima():
    """Each optimum of the seeded random programs above, then of the same
    programs rescaled by `_rescaled`."""
    for seed, count, make in ((101, 120, _integer_program), (303, 150, _fractional_program)):
        rng, scale_rng = random.Random(seed), random.Random(seed + 1)
        for _ in range(count):
            prog = make(rng)[0]
            sol = L.solve(prog)
            if sol.status == "optimal":
                yield prog, sol
                big = _rescaled(prog, scale_rng)
                big_sol = L.solve(big)
                assert fraction_assignment(big_sol) == fraction_assignment(sol)
                yield big, big_sol


STEPS = [F(sign, 10**k) for k in (0, 1, 10, 30) for sign in (1, -1)]


def test_integer_checks_agree_with_fraction_arithmetic():
    # each optimum and each of its coordinates, duals and value moved by
    # +-1/10^k: the integer checks say what plain Fraction sums say
    single_row = accepted = dual_rejected = 0
    for prog, sol in _seeded_optima():
        assert check_solution(prog, fraction_assignment(sol)) and L.check_duals(prog, sol)
        for k in range(len(fraction_assignment(sol))):
            for step in STEPS:
                moved = list(fraction_assignment(sol))
                moved[k] += step
                bad = _fraction_violations(prog, moved)
                assert check_solution(prog, moved) == (not bad), (prog, moved, bad)
                single_row += len(bad) == 1 and bad[0][0] == "row"
                accepted += not bad
        for r in range(len(fraction_duals(sol))):
            for step in STEPS:
                duals = list(fraction_duals(sol))
                duals[r] += step
                moved = with_duals(sol, duals)
                want = _fraction_duals_certify(prog, moved)
                assert L.check_duals(prog, moved) == want, (prog, moved)
                dual_rejected += not want
        for step in STEPS:
            assert not L.check_duals(prog, L.LpSolution(
                sol.status, sol.value + step, sol.pivots, sol.integer_assignment,
                sol.integer_duals))
    # the perturbations reach both verdicts, and single-row violations
    assert single_row > 1000 and accepted > 1000 and dual_rejected > 1000


def test_boundary_accepted_and_each_single_row_violation_rejected():
    # every row is tight at the assignment, over large denominators; moving
    # one row's right-hand side by 1/10^k past the assignment violates that
    # row alone
    p, q = 2**89 - 1, 3**61
    asg = (F(7, p), F(0), F(-5, q), F(0))
    rows = [({0: F(1, 3), 2: F(2, 10**30 + 57)}, "<="),
            ({0: F(-4, q), 1: 1, 2: F(p, 7)}, ">="),
            ({0: 1, 1: F(1, p), 2: 1}, "==")]

    def program(moved_row=None, shift=0):
        return L.LinearProgram([False, False, True, False], [  # the last is in no row
            rational_row(coeffs, sense, sum(c * asg[k] for k, c in coeffs.items())
                         + (shift if r == moved_row else 0))[0]
            for r, (coeffs, sense) in enumerate(rows)], {})

    assert check_solution(program(), asg)
    for r, (_, sense) in enumerate(rows):
        for k in (1, 10, 30):
            past = F(-1 if sense == "<=" else 1, 10**k)
            assert not check_solution(program(r, past), asg)
            assert check_solution(program(r, -past), asg) == (sense != "==")
    # a nonnegative column exactly at 0 is on its bound, just below is not
    assert not check_solution(program(), asg[:3] + (F(-1, 10**30),))


def test_ratio_test_ties_go_to_the_smallest_basic_column(monkeypatch):
    # max 2x + 3y over rows with rhs 0 and one bounding row: every step is 0.
    # At the second pivot three rows tie; the one whose basic column is x
    # leaves, though it is neither the first nor the last of them.  Each
    # choice is the old rule's: the smallest (Fraction step, basic column).
    x, y, z = 0, 1, 2
    prog = L.LinearProgram([False, False, False], [
        L.Constraint({x: -2, z: 2}, "<=", 0),
        L.Constraint({x: 2, y: 2, z: -1}, "<=", 0),
        L.Constraint({x: -2, y: 2, z: -2}, "<=", 0),
        L.Constraint({x: 1, y: 1, z: 1}, "<=", 1)], {x: 2, y: 3})
    pivots = []
    real_pivot = L._Solver._pivot

    def pivot(self, r, j, objs):
        candidates = [(F(nums[-1], nums[j]), self.basis[i], i)
                      for i, (nums, _) in enumerate(self.matrix) if nums[j] > 0]
        step, leaving, row = min(candidates)
        assert (row, leaving) == (r, self.basis[r])
        pivots.append((j, leaving, step, [b for s, b, _ in candidates if s == step]))
        real_pivot(self, r, j, objs)

    monkeypatch.setattr(L._Solver, "_pivot", pivot)
    sol = L.solve(prog)
    # columns 0-2 are x, y, z and 3-6 the slacks of the four rows
    assert pivots == [(0, 4, 0, [4]), (1, 0, 0, [3, 0, 5]), (2, 3, 0, [3]), (0, 1, 0, [1])]
    assert sol.pivots == 4
    assert sol.value == 0 and fraction_assignment(sol) == (0, 0, 0)
    assert L.check_duals(prog, sol)


def test_row_scale_changes_no_pivot_and_no_answer(monkeypatch):
    # rows put in lowest terms at every rewrite, past the default bit length
    # only, or never: the same pivots, assignments, duals and values
    rng = random.Random(41)
    programs = []
    solve = L.solve
    monkeypatch.setattr(L, "solve", lambda prog: programs.append(prog) or solve(prog))
    for _ in range(12):
        problem = random_problem(rng, max_leaves=6)
        for a in problem.leaves[:3]:
            rz.certificate(problem, a)
    monkeypatch.setattr(L, "solve", solve)
    assert len(programs) > 20
    answers = []
    for bits in (0, L.REDUCE_BITS, 10**6):
        monkeypatch.setattr(L, "REDUCE_BITS", bits)
        answers.append([L.solve(prog) for prog in programs])
    assert answers[0] == answers[1] == answers[2]
    assert sum(sol.pivots for sol in answers[0]) > 2 * len(programs)


def _starts_on_a_slack(con):
    """Whether the solver starts ``con`` on a slack column: a ``<=`` row with
    a right-hand side >= 0, or a ``>=`` row with one <= 0, which it stores
    negated.  Every other row starts on an artificial column."""
    return (con.sense == "<=" and con.rhs >= 0) or (con.sense == ">=" and con.rhs <= 0)


def test_slack_rows_artificial_rows_and_the_objective_scale_as_their_duals_say(monkeypatch):
    # each row that starts on a slack times its own positive int, every row
    # that starts on an artificial column times one common int, and the
    # objective times another: the same pivots, status and assignment; the
    # value times the objective's factor and each row's multiplier times
    # the objective's factor over the row's.  On the programs the package
    # solves and on random ones
    rng = random.Random(53)
    programs = []
    solve = L.solve
    monkeypatch.setattr(L, "solve", lambda prog: programs.append(prog) or solve(prog))
    for _ in range(10):
        problem = random_problem(rng, max_leaves=6)
        rz.certificate(problem, random_marginal(rng, problem))
        for a in problem.leaves[:3]:
            rz.certificate(problem, a)
            rz.max_positive_marginal(problem, a)
    monkeypatch.setattr(L, "solve", solve)
    assert len(programs) > 40
    programs += [make(rng)[0] for make in (_integer_program, _fractional_program)
                 for _ in range(60)]
    mixed = 0
    for prog in programs:
        common, objective = rng.randint(2, 9), rng.randint(2, 9)
        scales = [rng.randint(1, 12) if _starts_on_a_slack(con) else common
                  for con in prog.constraints]
        scaled = L.LinearProgram(
            list(prog.variables),
            [L.Constraint({k: c * f for k, c in con.coeffs.items()}, con.sense, con.rhs * f)
             for con, f in zip(prog.constraints, scales)],
            {k: c * objective for k, c in prog.objective.items()})
        sol, got = L.solve(prog), L.solve(scaled)
        assert (got.status, got.pivots, got.integer_assignment) == (
            sol.status, sol.pivots, sol.integer_assignment)
        if sol.status == "optimal":
            assert got.value == sol.value * objective
            assert fraction_duals(got) == tuple(
                y * objective / f for y, f in zip(fraction_duals(sol), scales))
            assert L.check_duals(prog, sol) and L.check_duals(scaled, got)
            mixed += common in scales and len(set(scales)) > 2
    assert mixed > 40
