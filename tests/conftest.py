"""Shared fixtures and reference implementations for the test suite.

The reference implementations here (rule counting, vertex enumeration,
exhaustive strategy search) deliberately avoid the library's own code paths
so that agreement between the two is evidence, not tautology.  So do the
rational views and conveniences that no query needs (the package stores
and reads integers): a law's or a rule's `Fraction` matrix, an optimum's
`Fraction` values and duals, rational program rows, the feasibility check
of a rational assignment, rule composition and the rule-wise parameter
screen.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import random
import string
from fractions import Fraction
from pathlib import Path
from typing import Optional

import pytest

from dynrat import analysis as an
from dynrat import cli
from dynrat import model as m
from dynrat import deviation as dv
from dynrat import lp
from dynrat import structures as st
from dynrat.model import PAD, format_rational

PROBLEMS_DIR = Path(__file__).resolve().parent.parent / "problems"


def load_fixture(name: str) -> m.DecisionProblem:
    return m.load_problem((PROBLEMS_DIR / name).read_text())


@pytest.fixture(autouse=True)
def no_problem_file_kept():
    """Each test starts, as a fresh process does, with no problem file kept
    by `cli`, so what a test counts does not depend on the tests before it."""
    cli._LAST_PROBLEM[0] = None


@pytest.fixture(scope="session")
def example1() -> m.DecisionProblem:
    return load_fixture("example1.json")


@pytest.fixture(scope="session")
def example2() -> m.DecisionProblem:
    return load_fixture("example2.json")


@pytest.fixture(scope="session")
def example3() -> m.DecisionProblem:
    return load_fixture("example3.json")


# ---------------------------------------------------------------------------
# Rational views and conveniences (no query needs them)
# ---------------------------------------------------------------------------

def fraction_matrix(value) -> tuple[tuple[Fraction, ...], ...]:
    """A joint law's weights, ``[i][s]`` for leaf i in state s, or a rule's
    kernel, ``[i][j]`` for rewriting leaf i into leaf j, as `Fraction`s."""
    if isinstance(value, m.JointDistribution):
        return as_fractions(m._chunks(value.cells, len(value.states)), value.den)
    n = len(value.rows)
    return tuple(tuple(Fraction(row.get(j, 0), value.den) for j in range(n))
                 for row in map(dict, value.rows))


def _fractions(over: Optional[tuple[tuple[int, ...], int]]) -> Optional[tuple[Fraction, ...]]:
    return None if over is None else tuple(Fraction(x, over[1]) for x in over[0])


def fraction_assignment(sol: lp.LpSolution) -> Optional[tuple[Fraction, ...]]:
    """An optimum's value of each column, as `Fraction`s."""
    return _fractions(sol.integer_assignment)


def fraction_duals(sol: lp.LpSolution) -> Optional[tuple[Fraction, ...]]:
    """An optimum's multiplier of each constraint, as `Fraction`s."""
    return _fractions(sol.integer_duals)


def add_constraint(prog: lp.LinearProgram, coeffs, sense: str, rhs) -> int:
    """`LinearProgram.add_row` for rational data (anything `parse_rational`
    reads): the row times the lcm of its denominators, which is returned."""
    prog._require_columns(coeffs, "constraint")
    nums, den = m._over_lcm([m._ratio(q) for q in (rhs, *coeffs.values())])
    prog.add_row({k: x for k, x in zip(coeffs, nums[1:]) if x}, sense, nums[0])
    return den


def set_rational_objective(prog: lp.LinearProgram, coeffs) -> int:
    """`LinearProgram.set_objective` for rational data: the objective times
    the lcm of its denominators, which is returned.  An optimum's value is
    that many times the rational objective's."""
    prog._require_columns(coeffs, "objective")
    nums, den = m._over_lcm([m._ratio(q) for q in coeffs.values()])
    prog.set_objective(dict(zip(coeffs, nums)))
    return den


def rational_duals(sol: lp.LpSolution, row_scales, objective_scale: int) -> tuple[Fraction, ...]:
    """The multipliers of the rational rows and objective that a program's
    were scaled from, row r by ``row_scales[r]`` and the objective by
    ``objective_scale``: each integer row's multiplier times its scale, over
    the objective's."""
    return tuple(y * f / objective_scale for y, f in zip(fraction_duals(sol), row_scales))


def check_solution(prog: lp.LinearProgram, assignment) -> bool:
    """Exact feasibility check of one `Fraction` per column against the
    signs and every entry of ``prog.constraints``, the assignment put over
    one common denominator."""
    if len(assignment) != len(prog.variables):
        return False
    return lp._feasible(prog, *m._over_lcm([q.as_integer_ratio() for q in assignment]))


def compose(problem: m.DecisionProblem, outer: dv.DeviationRule,
            inner: dv.DeviationRule) -> dv.DeviationRule:
    """The rule on ``problem``'s tree applying ``inner`` first and ``outer``
    to its output; kernels multiply, and the result is adapted whenever both
    factors are."""
    if not outer.leaves == inner.leaves == problem.leaves:
        raise m.ValidationError("rules are defined over different leaf sets")
    rows = []
    for row in inner.rows:
        product_row: dict[int, int] = {}
        for y, a in row:
            for z, b in outer.rows[y]:
                product_row[z] = product_row.get(z, 0) + a * b
        rows.append(tuple(product_row.items()))
    return dv.DeviationRule(problem.tree, tuple(rows), inner.den * outer.den)


def lambda_D_set(problem: m.DecisionProblem, rule: dv.DeviationRule, observation, grid, *,
                 param: Optional[str] = None, fixed: Optional[dict] = None) -> tuple[bool, ...]:
    """For each grid point, whether ``rule`` fails to dominate the observation
    there.  True marks parameter values the rule cannot exclude; the
    consistent region is contained in this set for every rule.  The rule's
    gains are taken once on the family and tested at each point unpinned."""
    if param is None:
        left = [p for p in problem.param_names if p not in (fixed or {})]
        if not left:
            raise m.ValidationError("no parameter left to sweep")
        if len(problem.param_names) != 1 and fixed is None:
            raise m.ValidationError("name the parameter to sweep")
        param = left[0]
    family = an._single_param_family(problem, param, fixed)
    points = [m.parse_rational(g) for g in grid]
    gains, rows = dv.affine_gains(family, rule), m.consistency(family, observation)
    return tuple(dv.failed_condition(an._gains_at(gains, *pt.as_integer_ratio()), rows) is not None
                 for pt in points)


# ---------------------------------------------------------------------------
# Reference rule count (independent of the library's enumerator)
# ---------------------------------------------------------------------------

def reference_rule_count(problem: m.DecisionProblem) -> int:
    """Bottom-up table over aligned (input prefix, output prefix) pairs."""
    T = problem.tree.periods

    def children(prefix: tuple[str, ...]) -> list[tuple[str, ...]]:
        history = tuple(e for e in prefix if e != PAD)
        if PAD in prefix or history not in problem.tree.branch_map:
            return [prefix + (PAD,)]
        return [prefix + (a,) for a in problem.tree.branch_map[history]]

    prefixes_at: dict[int, list[tuple[str, ...]]] = {0: [()]}
    for t in range(T):
        nxt: list[tuple[str, ...]] = []
        for p in prefixes_at[t]:
            nxt.extend(children(p))
        prefixes_at[t + 1] = nxt

    table = {(i, o): 1 for i in prefixes_at[T] for o in prefixes_at[T]}
    for t in range(T - 1, -1, -1):
        new = {}
        for i in prefixes_at[t]:
            for o in prefixes_at[t]:
                total = 1
                for ic in children(i):
                    total *= sum(table[(ic, oc)] for oc in children(o))
                new[(i, o)] = total
        table = new
    return table[((), ())]


# ---------------------------------------------------------------------------
# Utilities and dominance criteria in Fractions (references for the integer
# gains and the one consistency-row sign test)
# ---------------------------------------------------------------------------

def as_fractions(rows, den: int) -> tuple[tuple[Fraction, ...], ...]:
    """Integer rows over ``den`` as rows of `Fraction`s."""
    return tuple(tuple(Fraction(x, den) for x in row) for row in rows)


@functools.cache
def payoffs(problem: m.DecisionProblem) -> tuple[tuple[Fraction, ...], ...]:
    """The utility table in `Fraction`s: ``payoffs(problem)[i][s]`` is the
    utility of leaf i in state s (parameter-free problems)."""
    return as_fractions(*problem.integer_payoffs)


def utility(problem: m.DecisionProblem, a, state: str) -> Fraction:
    """Exact terminal utility of leaf ``a`` in ``state`` (parameter-free problems)."""
    return payoffs(problem)[problem.tree.leaf_position(a)][problem.state_position(state)]


def lottery_utility(problem: m.DecisionProblem, lottery, state: str) -> Fraction:
    """Expected utility of a lottery over leaves, which must be a probability
    vector: nonnegative weights summing to 1."""
    weights = [m.parse_rational(q) for q in lottery.values()]
    m._require_probability_vector(weights, "lottery")
    return sum((w * utility(problem, a, state) for a, w in zip(lottery, weights)), Fraction(0))


def gains(problem: m.DecisionProblem, rule: dv.DeviationRule) -> tuple[tuple[Fraction, ...], ...]:
    """The rule's gain table: ``gains(problem, rule)[i][s]`` is the exact
    payoff change from following the rule instead of playing leaf i in state
    s, sum_j D(i, j) u(j, s) - u(i, s), as `Fraction` rows of the integer
    table that `deviation.dominates` tests."""
    cells, den = dv._integer_gains(problem, rule)
    return m._chunks([Fraction(g, den) for g in cells], len(problem.states))


def improvement(problem: m.DecisionProblem, rule: dv.DeviationRule, a, state: str) -> Fraction:
    """The payoff change from following the rule instead of playing ``a``."""
    i = problem.tree.leaf_position(a)
    return gains(problem, rule)[i][problem.state_position(state)]


def reference_dominates_sequence(problem, rule, a) -> bool:
    """The rule improves ``a`` strictly in every state and hurts no cell."""
    table = gains(problem, rule)
    return (all(g >= 0 for row in table for g in row)
            and all(g > 0 for g in table[problem.tree.leaf_position(a)]))


def reference_dominates_marginal(problem, rule, marginal) -> bool:
    """The marginal-weighted worst-state gains are positive on average."""
    return sum((Fraction(w, marginal.den) * min(row)
                for w, row in zip(marginal.weights, gains(problem, rule))), Fraction(0)) > 0


def reference_dominates_joint(problem, rule, joint) -> bool:
    """The expected gain under the joint law is positive."""
    return sum((w * g for law_row, row in zip(fraction_matrix(joint), gains(problem, rule))
                for w, g in zip(law_row, row)), Fraction(0)) > 0


def reference_dominates(problem, rule, observed) -> bool:
    """The per-kind criterion that matches ``observed``."""
    if isinstance(observed, m.JointDistribution):
        return reference_dominates_joint(problem, rule, observed)
    if isinstance(observed, m.MarginalDistribution):
        return reference_dominates_marginal(problem, rule, observed)
    return reference_dominates_sequence(problem, rule, observed)


# ---------------------------------------------------------------------------
# Random instances
# ---------------------------------------------------------------------------

def random_problem(
    rng: random.Random,
    *,
    max_periods: int = 3,
    max_actions: int = 3,
    max_states: int = 3,
    min_leaves: int = 2,
    max_leaves: int = 5,
    max_rules: int = 300,
    denom_cap: int = 20,
    value_cap: int = 6,
) -> m.DecisionProblem:
    while True:
        T = rng.randint(1, max_periods)

        def build(depth: int) -> dict:
            node = {}
            for i in range(rng.randint(1, max_actions)):
                label = "abc"[i]
                if depth + 1 >= T or rng.random() < 0.55:
                    node[label] = "leaf"
                else:
                    node[label] = build(depth + 1)
            return node

        tree = build(0)

        def count_leaves(node) -> int:
            return sum(1 if v == "leaf" else count_leaves(v) for v in node.values())

        if not (min_leaves <= count_leaves(tree) <= max_leaves):
            continue

        def leaf_ids(node, prefix=()):
            for k, v in node.items():
                if v == "leaf":
                    yield ",".join(prefix + (k,))
                else:
                    yield from leaf_ids(v, prefix + (k,))

        states = [f"s{i}" for i in range(rng.randint(1, max_states))]
        utility = {
            lid: {
                s: format_rational(
                    Fraction(rng.randint(-value_cap, value_cap), rng.randint(1, denom_cap))
                )
                for s in states
            }
            for lid in leaf_ids(tree)
        }
        doc = {"periods": T, "states": states, "tree": tree, "utility": utility}
        problem = m.load_problem(json.dumps(doc))
        if reference_rule_count(problem) > max_rules:
            continue
        return problem


def random_family(rng: random.Random) -> m.DecisionProblem:
    """A random problem whose payoffs are affine in one parameter ``t``."""
    doc = m.problem_to_dict(random_problem(rng, max_leaves=4, max_rules=100))
    doc["params"] = ["t"]
    doc["utility"] = {
        leaf: {s: f"{value} + {rng.randint(-3, 3)}*t" for s, value in row.items()}
        for leaf, row in doc["utility"].items()}
    return m.load_problem(json.dumps(doc))


def complete_tree_doc(branching, n_states: int, seed: int) -> dict:
    """A problem document: a complete tree with ``branching[t]`` actions in
    period t, and payoffs drawn from the integers in [-5, 5]."""
    rng = random.Random(seed)

    def build(depth):
        return {string.ascii_lowercase[k]: "leaf" if depth + 1 == len(branching)
                else build(depth + 1) for k in range(branching[depth])}

    states = [f"s{i}" for i in range(n_states)]
    leaves = [",".join(path) for path in itertools.product(
        *(string.ascii_lowercase[:b] for b in branching))]
    return {"periods": len(branching), "states": states, "tree": build(0),
            "utility": {leaf: {s: rng.randint(-5, 5) for s in states} for leaf in leaves}}


def stopping_doc(periods: int) -> dict:
    """Example 2 over ``periods`` periods: choose x or y now, or wait (w),
    with the choice after k waits paying 5 or 3 times (9/10)^k, states X
    and Y; 2 * periods leaves."""
    node = {"x": "leaf", "y": "leaf"}
    for _ in range(periods - 1):
        node = {"x": "leaf", "y": "leaf", "w": node}
    utility = {}
    for k in range(periods):
        d = Fraction(9, 10) ** k
        utility[",".join(["w"] * k + ["x"])] = {"X": str(5 * d), "Y": str(3 * d)}
        utility[",".join(["w"] * k + ["y"])] = {"X": str(3 * d), "Y": str(5 * d)}
    return {"periods": periods, "states": ["X", "Y"], "tree": node, "utility": utility}


def random_joint(rng: random.Random, problem: m.DecisionProblem) -> m.JointDistribution:
    cells = [(a, s) for a in problem.leaves for s in problem.states]
    raw = [rng.randint(0, 6) if rng.random() < 0.8 else 0 for _ in cells]
    if sum(raw) == 0:
        raw[rng.randrange(len(raw))] = 1
    total = sum(raw)
    weights = {cell: Fraction(x, total) for cell, x in zip(cells, raw) if x}
    return m.JointDistribution.from_mapping(problem, weights)


def random_marginal(rng: random.Random, problem: m.DecisionProblem) -> m.MarginalDistribution:
    raw = [rng.randint(0, 6) if rng.random() < 0.8 else 0 for _ in problem.leaves]
    if sum(raw) == 0:
        raw[rng.randrange(len(raw))] = 1
    total = sum(raw)
    return m.MarginalDistribution.from_mapping(
        problem, {a: Fraction(x, total) for a, x in zip(problem.leaves, raw) if x}
    )


def random_pure_rule(rng: random.Random, problem: m.DecisionProblem) -> dv.DeviationRule:
    """Sample an adapted pure rule by walking aligned prefixes top-down."""
    T = problem.tree.depth

    def children(prefix):
        history = tuple(e for e in prefix if e != PAD)
        if PAD in prefix or history not in problem.tree.branch_map:
            return [prefix + (PAD,)]
        return [prefix + (a,) for a in problem.tree.branch_map[history]]

    mapping: dict[tuple[str, ...], tuple[str, ...]] = {}  # padded input path -> output path

    def walk(inp, out):
        if len(inp) == T:
            mapping[inp] = out
            return
        for ic in children(inp):
            walk(ic, rng.choice(children(out)))

    walk((), ())
    return dv.DeviationRule(problem.tree, tuple(
        ((problem.tree.leaf_position(mapping[path]), 1),) for path in problem.tree.paths), 1)


def random_rule(rng: random.Random, problem: m.DecisionProblem) -> dv.DeviationRule:
    """A random mixture of a few sampled pure rules."""
    parts = [random_pure_rule(rng, problem) for _ in range(rng.randint(1, 3))]
    raw = [rng.randint(1, 5) for _ in parts]
    total = sum(raw)
    n = len(problem.leaves)
    matrix = [[Fraction(0)] * n for _ in range(n)]
    for part, x in zip(parts, raw):
        pm = fraction_matrix(part)
        w = Fraction(x, total)
        for i in range(n):
            for j in range(n):
                matrix[i][j] += w * pm[i][j]
    return dv.DeviationRule.from_mapping(problem, matrix)


def random_convex_increasing(rng: random.Random):
    """A random valid piecewise-linear transform (increasing, convex)."""
    from dynrat.risk import PiecewiseLinearFunction

    k = rng.randint(1, 3)
    points = sorted(rng.sample(range(-4, 5), k))
    breaks = tuple(Fraction(p, rng.randint(1, 2)) for p in points)
    breaks = tuple(sorted(set(breaks)))
    slopes = []
    current = Fraction(rng.randint(1, 4), rng.randint(1, 3))
    for _ in range(len(breaks) + 1):
        slopes.append(current)
        current = current + Fraction(rng.randint(0, 3), rng.randint(1, 2))
    anchor = Fraction(rng.randint(-3, 3), rng.randint(1, 4))
    return PiecewiseLinearFunction(breaks, tuple(slopes), anchor)


# ---------------------------------------------------------------------------
# Enumerated obedience program (reference for `maxprob`'s budget program)
# ---------------------------------------------------------------------------

def enumerated_obedience_optimum(problem: m.DecisionProblem, weights: dict,
                                 support=None) -> Fraction:
    """Maximum of sum weights[leaf, state] * gamma(leaf, state) over the
    obedient joint laws gamma with no mass off the leaves ``support``
    (default: every leaf), or None when there is no such law; straight from
    the definition: one row per adapted pure rule saying that the rule gains
    nothing on average, with no preprocessing of the rows and no duality."""
    support = problem.leaves if support is None else support
    prog = lp.LinearProgram()
    gamma = {
        (b, s): prog.add_variable()
        for b in problem.leaves for s in problem.states
    }
    add_constraint(prog, {n: 1 for n in gamma.values()}, "==", 1)
    for b in problem.leaves:
        if b not in support:
            add_constraint(prog, {gamma[b, s]: 1 for s in problem.states}, "==", 0)
    for rule in dv.enumerate_pure_rules(problem):
        add_constraint(prog, {
            gamma[b, s]: utility(problem, b, s) - utility(problem, problem.leaves[j], s)
            for b, ((j, _),) in zip(problem.leaves, rule.rows) for s in problem.states
        }, ">=", 0)
    scale = set_rational_objective(prog, {gamma[cell]: w for cell, w in weights.items()})
    sol = lp.solve(prog)
    if sol.status == "infeasible":
        return None
    assert sol.status == "optimal"
    return sol.value / scale


# ---------------------------------------------------------------------------
# Programs written in Fractions (references for the integer row builders)
# ---------------------------------------------------------------------------

class FractionProgram:
    """A program as `Fraction` rows: each a map from column to nonzero
    coefficient, a sense and a right-hand side, with no integer form."""

    def __init__(self) -> None:
        self.variables: list[bool] = []
        self.constraints: list[tuple[dict, str, Fraction]] = []
        self.objective: dict = {}

    def add_variable(self, free: bool = False) -> int:
        self.variables.append(free)
        return len(self.variables) - 1

    def add_constraint(self, coeffs, sense: str, rhs) -> None:
        self.constraints.append(
            ({k: Fraction(c) for k, c in coeffs.items() if c != 0}, sense, Fraction(rhs)))

    def set_objective(self, coeffs) -> None:
        self.objective = {k: Fraction(c) for k, c in coeffs.items() if c != 0}

    def as_lp(self) -> tuple[lp.LinearProgram, list[int], int]:
        """The same program in integers, each row and the objective times
        the lcm of its denominators, with those factors: the rows', then
        the objective's."""
        prog = lp.LinearProgram(list(self.variables))
        scales = [add_constraint(prog, coeffs, sense, rhs)
                  for coeffs, sense, rhs in self.constraints]
        return prog, scales, set_rational_objective(prog, self.objective)


def integer_rows(constraints) -> list[tuple[dict, str, int]]:
    """Program rows (`lp.Constraint`) as rows like `FractionProgram`'s, the
    zero coefficients left out."""
    return [({k: c for k, c in con.coeffs.items() if c}, con.sense, con.rhs)
            for con in constraints]


def times(rows, factors) -> list[tuple[dict, str, Fraction]]:
    """`Fraction` rows like `FractionProgram`'s, each times its factor."""
    return [({k: c * f for k, c in coeffs.items()}, sense, rhs * f)
            for (coeffs, sense, rhs), f in zip(rows, factors, strict=True)]


def reference_inputs(problem: m.DecisionProblem, leaves) -> list[int]:
    """The leaves that share their first action with one of ``leaves``, by
    index in leaf order: the inputs of the first-action blocks they touch."""
    paths = problem.tree.paths
    firsts = {paths[problem.tree.leaf_position(a)][0] for a in leaves}
    return [i for i, b in enumerate(paths) if b[0] in firsts]


def reference_polytope_rows(problem: m.DecisionProblem,
                            inputs=None) -> list[tuple[dict, str, Fraction]]:
    """The deviation polytope's rows in `Fraction`s: row sums, then the
    prefix-marginal equalities, in the order `lp` builds them.  Only the
    rows of ``inputs`` (default: every leaf), with kernel entry
    (inputs[p], j) in column p * n + j."""
    n = len(problem.leaves)
    inputs = range(n) if inputs is None else inputs
    col = {i: p * n for p, i in enumerate(inputs)}
    one = Fraction(1)
    rows = [({col[i] + j: one for j in range(n)}, "==", one) for i in inputs]
    for t in range(1, problem.tree.periods):
        classes = {}  # each padded length-t prefix: its leaves, in leaf order
        for i, path in enumerate(problem.tree.paths):
            classes.setdefault(path[:t], []).append(i)
        for members in classes.values():
            for a_i, a_k in zip(members, members[1:]):
                if a_i not in col:
                    continue
                for out_members in classes.values():
                    coeffs = {col[a_i] + j: one for j in out_members}
                    coeffs.update((col[a_k] + j, -one) for j in out_members)
                    rows.append((coeffs, "==", Fraction(0)))
    return rows


def reference_dominance_program(problem: m.DecisionProblem, observed,
                                inputs=None, budget=False) -> FractionProgram:
    """The dominance program of a sequence or a marginal, in `Fraction`s:
    the polytope's rows on ``inputs`` (default: every leaf), then one gain
    row per input and state with a gain or a level, sum_j D(i, j) (u(j, s)
    - u(i, s)) - level(i) >= 0.  A marginal has one level per input.  With
    ``budget``, a column lam >= 0 follows D's, the polytope rows read
    A D - lam b = 0 and the gain rows >= -1."""
    pay = payoffs(problem)
    n = len(problem.leaves)
    inputs = list(range(n)) if inputs is None else inputs
    prog = FractionProgram()
    prog.variables = [False] * (len(inputs) * n)
    prog.constraints = reference_polytope_rows(problem, inputs)
    if budget:
        lam = prog.add_variable()
        prog.constraints = [({**coeffs, lam: -rhs} if rhs else coeffs, sense, Fraction(0))
                            for coeffs, sense, rhs in prog.constraints]
    if isinstance(observed, m.MarginalDistribution):
        levels = {i: prog.add_variable(free=True) for i in inputs}
        objective = {levels[i]: Fraction(observed.weights[i], observed.den) for i in inputs}
    else:
        k = prog.add_variable(free=True)
        levels = {problem.tree.leaf_position(observed): k}
        objective = {k: Fraction(1)}
    for p, i in enumerate(inputs):
        for s in range(len(problem.states)):
            coeffs = {p * n + j: pay[j][s] - pay[i][s] for j in range(n)
                      if pay[j][s] != pay[i][s]}
            if i in levels:
                coeffs[levels[i]] = Fraction(-1)
            elif not coeffs:
                continue
            prog.add_constraint(coeffs, ">=", -1 if budget else 0)
    prog.set_objective(objective)
    return prog


# ---------------------------------------------------------------------------
# Structures and strategies from rationals, and their values and sampling
# thresholds in Fractions (references for the oracle's integers)
# ---------------------------------------------------------------------------

def _over_one_lcm(rows) -> tuple[tuple[tuple[int, ...], ...], int]:
    """Rows of rationals as integer rows over the lcm of all their
    denominators, and that lcm; each row keeps its length."""
    rows = [[Fraction(q) for q in row] for row in rows]
    den = math.lcm(*(q.denominator for row in rows for q in row))
    return tuple(tuple(int(q * den) for q in row) for row in rows), den


def structure_of(states, prior, signal_sets, kernel) -> st.InformationStructure:
    """The information structure with a rational ``prior`` and rational
    ``kernel`` rows, one per state."""
    (nums,), den = _over_one_lcm([prior])
    rows, kden = _over_one_lcm(kernel)
    return st.InformationStructure(tuple(states), nums, den, tuple(signal_sets), rows, kden)


def strategy_of(signal_sets, tree, kernel) -> st.Strategy:
    """The strategy on ``tree`` with rational ``kernel`` rows, one per signal
    sequence."""
    return st.Strategy(tuple(signal_sets), tree, *_over_one_lcm(kernel))


def fraction_prior(structure: st.InformationStructure) -> tuple[Fraction, ...]:
    return as_fractions([structure.prior], structure.prior_den)[0]


def fraction_kernel(structure: st.InformationStructure) -> tuple[tuple[Fraction, ...], ...]:
    return as_fractions(structure.kernel, structure.kernel_den)


def reference_strategy_value(problem: m.DecisionProblem, strategy, structure) -> Fraction:
    """Exact ex-ante expected utility of following ``strategy``, summed cell
    by cell in `Fraction` arithmetic."""
    pay = payoffs(problem)
    prior, kernel = fraction_prior(structure), fraction_kernel(structure)
    play = as_fractions(strategy.kernel, strategy.den)
    total = Fraction(0)
    for s in range(len(problem.states)):
        p = prior[s]
        if p == 0:
            continue
        for k in range(len(structure.sequences)):
            w = kernel[s][k]
            if w == 0:
                continue
            row = play[k]
            for i in range(len(problem.leaves)):
                if row[i] != 0:
                    total += p * w * row[i] * pay[i][s]
    return total


def reference_thresholds(weights) -> list[int]:
    """64-bit inversion thresholds of `Fraction` weights: the running sum
    times 2**64, rounded down, with the last set to 2**64."""
    scale = 1 << 64
    acc = Fraction(0)
    out = []
    for w in weights:
        acc += w
        out.append((acc.numerator * scale) // acc.denominator)
    if out:
        out[-1] = scale
    return out


# ---------------------------------------------------------------------------
# Optimal value in Fractions (reference for the oracle's integer induction)
# ---------------------------------------------------------------------------

def reference_optimal_value(problem: m.DecisionProblem, prior, signal_seqs, kernel) -> Fraction:
    """The best adapted strategy's value against prior * kernel, by
    backward induction over signal prefixes in `Fraction` arithmetic."""
    utab = dict(zip(problem.leaves, payoffs(problem)))
    weights = [[prior[s] * kernel[s][k] for s in range(len(problem.states))]
               for k in range(len(signal_seqs))]
    pad_leaf = {tuple(leaf.split(",")): leaf for leaf in problem.leaves}

    def terminal_mass(seq_ids, history) -> Fraction:
        leaf = pad_leaf[history]
        return sum((weights[k][s] * utab[leaf][s] for k in seq_ids
                    for s in range(len(problem.states)) if weights[k][s] != 0), Fraction(0))

    def groups_at(seq_ids, t):
        groups: dict[str, list[int]] = {}
        for k in seq_ids:
            groups.setdefault(signal_seqs[k][t], []).append(k)
        return groups.values()

    def act(seq_ids, t, history) -> Fraction:
        best = None
        for a in problem.tree.branch_map[history]:
            h2 = history + (a,)
            if h2 not in problem.tree.branch_map:
                value = terminal_mass(seq_ids, h2)
            else:
                value = sum((act(ids, t + 1, h2) for ids in groups_at(seq_ids, t)), Fraction(0))
            if best is None or value > best:
                best = value
        return best

    return sum((act(ids, 1, ()) for ids in groups_at(range(len(signal_seqs)), 0)), Fraction(0))


def reference_integer_optimal_value(problem: m.DecisionProblem, signal_seqs, weights) -> int:
    """The oracle's integer induction as it was before it skipped the
    massless signal sequences: it starts from every sequence, so one of
    weight 0 joins every group its signals lead to."""
    table, _ = problem.integer_payoffs
    tree = problem.tree
    utab = dict(zip(problem.leaves, table))
    pad_leaf = {tuple(leaf.split(",")): leaf for leaf in problem.leaves}

    def terminal_mass(seq_ids, history) -> int:
        pay = utab[pad_leaf[history]]
        return sum(w * u for k in seq_ids for w, u in zip(weights[k], pay))

    def observe(seq_ids, t, history) -> int:
        groups: dict[str, list[int]] = {}
        for k in seq_ids:
            groups.setdefault(signal_seqs[k][t], []).append(k)
        return sum(act(ids, t + 1, history) for ids in groups.values())

    def act(seq_ids, t, history) -> int:
        return max(terminal_mass(seq_ids, h2) if h2 not in tree.branch_map else observe(seq_ids, t, h2)
                   for h2 in (history + (a,) for a in tree.branch_map[history]))

    return observe(range(len(signal_seqs)), 0, ())


# ---------------------------------------------------------------------------
# Joint dominance LP and the recursive induction (references for the
# backward-induction best rule)
# ---------------------------------------------------------------------------

def reference_best_joint_deviation(problem: m.DecisionProblem, joint: m.JointDistribution):
    """`deviation.best_joint_deviation` as a recursion over prefix tuples,
    grouped from the leaves' entries: V(h, g) is one call per aligned pair,
    down to each (input leaf, output leaf) pair, with no shortcut for an
    input prefix of one leaf.  Returns the gain and the pure rule its
    argmaxes give, ties to the first output child."""
    table, uden = problem.integer_payoffs
    depth = problem.tree.depth
    paths = problem.tree.paths
    pay = {b: row for b, row in zip(paths, table)}
    width = len(problem.states)
    rows = [joint.cells[k:k + width] for k in range(0, len(joint.cells), width)]
    mass = {a: row for a, row in zip(paths, rows) if any(row)}
    live = {a[:t] for a in mass for t in range(depth + 1)}
    kids = {}  # each padded prefix shorter than the depth: its one-longer prefixes, in order
    for path in paths:
        for t in range(depth):
            row = kids.setdefault(path[:t], [])
            if path[:t + 1] not in row:
                row.append(path[:t + 1])
    choice = {}

    def value(h, g) -> int:
        if len(h) == depth:
            return sum(x * y for x, y in zip(mass[h], pay[g]))
        total = 0
        for hc in kids[h]:
            if hc not in live:
                continue
            best = None
            for gc in kids[g]:
                v = value(hc, gc)
                if best is None or v > best:
                    best, choice[hc, g] = v, gc
            total += best
        return total

    outputs = {}

    def follow(h, g) -> None:
        if len(h) == depth:
            outputs[h] = ((problem.tree.leaf_position(g), 1),)
            return
        for hc in kids[h]:
            follow(hc, choice.get((hc, g)) or kids[g][0])

    gain = value((), ()) - sum(sum(x * y for x, y in zip(row, pay[a])) for a, row in mass.items())
    follow((), ())
    rule = dv.DeviationRule(problem.tree, tuple(outputs[b] for b in paths), 1)
    return Fraction(gain, joint.den * uden), rule


def polytope_program(poly: lp.DeviationPolytope) -> lp.LinearProgram:
    """A program over the whole deviation polytope: kernel entry (i, j) in
    column i * n + j, and the polytope's rows."""
    return lp.LinearProgram([False] * (poly.n * poly.n), list(poly.constraints))


def joint_dominance_optimum(problem: m.DecisionProblem, joint: m.JointDistribution) -> Fraction:
    """Maximum over the deviation polytope of a rule's expected gain under
    ``joint``: the kernel entry (i, j) earns sum_s joint(i, s) (u(j, s) -
    u(i, s)).  One exact LP, with no prefix-pair recursion."""
    prog = polytope_program(lp.deviation_polytope_constraints(problem.tree))
    leaves, states = problem.leaves, problem.states
    n = len(leaves)
    scale = set_rational_objective(prog, {
        i * n + j: sum((w * (utility(problem, b, s) - utility(problem, a, s))
                             for s, w in zip(states, fraction_matrix(joint)[i])), Fraction(0))
        for i, a in enumerate(leaves) for j, b in enumerate(leaves)
    })
    sol = lp.solve(prog)
    assert sol.status == "optimal"
    return sol.value / scale


# ---------------------------------------------------------------------------
# Exhaustive strategy search (reference for the backward-induction value)
# ---------------------------------------------------------------------------

def exhaustive_optimal_value(problem: m.DecisionProblem, structure) -> Fraction:
    """Max expected utility over every adapted pure strategy, by brute force."""
    seqs = structure.sequences
    T = problem.tree.depth

    def children(prefix):
        history = tuple(e for e in prefix if e != PAD)
        if PAD in prefix or history not in problem.tree.branch_map:
            return [prefix + (PAD,)]
        return [prefix + (a,) for a in problem.tree.branch_map[history]]

    def signal_children(prefix_ids, t):
        groups: dict[str, list[int]] = {}
        for k in prefix_ids:
            groups.setdefault(seqs[k][t], []).append(k)
        return list(groups.values())

    def assignments(prefix_ids, t, out_prefix):
        """All adapted choices mapping this signal class (and descendants)
        into completions of out_prefix; yields dicts seq_index -> leaf."""
        if t == T:
            leaf = problem.sequence(out_prefix)
            yield {k: leaf for k in prefix_ids}
            return
        per_group = []
        for group in signal_children(prefix_ids, t):
            alts = []
            for oc_prefix in children(out_prefix):
                alts.extend(assignments(group, t + 1, oc_prefix))
            per_group.append(alts)
        for combo in itertools.product(*per_group):
            merged: dict = {}
            for part in combo:
                merged.update(part)
            yield merged

    all_ids = list(range(len(seqs)))
    per_group = []
    for group in signal_children(all_ids, 0):
        alts = []
        for out in children(()):
            alts.extend(assignments(group, 1, out))
        per_group.append(alts)
    prior, kernel = fraction_prior(structure), fraction_kernel(structure)
    best = None
    for combo in itertools.product(*per_group):
        mapping: dict = {}
        for part in combo:
            mapping.update(part)
        value = Fraction(0)
        for s, state in enumerate(problem.states):
            p = prior[s]
            if p == 0:
                continue
            for k in all_ids:
                w = kernel[s][k]
                if w != 0:
                    value += p * w * utility(problem, mapping[k], state)
        if best is None or value > best:
            best = value
    return best
