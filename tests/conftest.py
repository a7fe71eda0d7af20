"""Shared fixtures and reference implementations for the test suite.

The reference implementations here (rule counting, vertex enumeration,
exhaustive strategy search) deliberately avoid the library's own code paths
so that agreement between the two is evidence, not tautology.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import random
from fractions import Fraction
from pathlib import Path

import pytest

from dynrat import model as m
from dynrat import deviation as dv
from dynrat import lp
from dynrat import oracle as oc
from dynrat.model import PAD, format_rational

PROBLEMS_DIR = Path(__file__).resolve().parent.parent / "problems"


def load_fixture(name: str) -> m.DecisionProblem:
    return m.load_problem((PROBLEMS_DIR / name).read_text())


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
# Reference rule count (independent of the library's enumerator)
# ---------------------------------------------------------------------------

def reference_rule_count(problem: m.DecisionProblem) -> int:
    """Bottom-up table over aligned (input prefix, output prefix) pairs."""
    T = problem.tree.periods

    def children(prefix: tuple[str, ...]) -> list[tuple[str, ...]]:
        history = tuple(e for e in prefix if e != PAD)
        if PAD in prefix or problem.tree.is_terminal(history):
            return [prefix + (PAD,)]
        return [prefix + (a,) for a in problem.tree.actions_at(history)]

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
    return payoffs(problem)[problem.leaf_index[problem.sequence(a)]][problem.state_position(state)]


def lottery_utility(problem: m.DecisionProblem, lottery, state: str) -> Fraction:
    """Expected utility of a lottery over leaves, which must be a probability
    vector: nonnegative weights summing to 1."""
    weights = [m.parse_rational(q) for q in lottery.values()]
    m._require_probability_vector(weights, "lottery")
    return sum((w * utility(problem, a, state) for a, w in zip(lottery, weights)), Fraction(0))


def improvement(problem: m.DecisionProblem, rule: dv.DeviationRule, a, state: str) -> Fraction:
    """The payoff change from following the rule instead of playing ``a``."""
    i = problem.leaf_index[problem.sequence(a)]
    return dv.gains(problem, rule)[i][problem.state_position(state)]


def reference_dominates_sequence(problem, rule, a) -> bool:
    """The rule improves ``a`` strictly in every state and hurts no cell."""
    table = dv.gains(problem, rule)
    return (all(g >= 0 for row in table for g in row)
            and all(g > 0 for g in table[problem.leaf_index[problem.sequence(a)]]))


def reference_dominates_marginal(problem, rule, marginal) -> bool:
    """The marginal-weighted worst-state gains are positive on average."""
    return sum((Fraction(w, marginal.den) * min(row)
                for w, row in zip(marginal.weights, dv.gains(problem, rule))), Fraction(0)) > 0


def reference_dominates_joint(problem, rule, joint) -> bool:
    """The expected gain under the joint law is positive."""
    return sum((w * g for law_row, row in zip(joint.matrix, dv.gains(problem, rule))
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
        return {"abcd"[k]: "leaf" if depth + 1 == len(branching) else build(depth + 1)
                for k in range(branching[depth])}

    states = [f"s{i}" for i in range(n_states)]
    leaves = [",".join(path) for path in itertools.product(
        *("abcd"[:b] for b in branching))]
    return {"periods": len(branching), "states": states, "tree": build(0),
            "utility": {leaf: {s: rng.randint(-5, 5) for s in states} for leaf in leaves}}


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
        if PAD in prefix or problem.tree.is_terminal(history):
            return [prefix + (PAD,)]
        return [prefix + (a,) for a in problem.tree.actions_at(history)]

    mapping: dict[m.ActionSequence, m.ActionSequence] = {}

    def walk(inp, out):
        if len(inp) == T:
            mapping[m.ActionSequence(inp)] = m.ActionSequence(out)
            return
        for ic in children(inp):
            walk(ic, rng.choice(children(out)))

    walk((), ())
    return dv.DeviationRule(problem.leaves, tuple(
        ((problem.leaf_index[mapping[a]], 1),) for a in problem.leaves), 1)


def random_rule(rng: random.Random, problem: m.DecisionProblem) -> dv.DeviationRule:
    """A random mixture of a few sampled pure rules."""
    parts = [random_pure_rule(rng, problem) for _ in range(rng.randint(1, 3))]
    raw = [rng.randint(1, 5) for _ in parts]
    total = sum(raw)
    n = len(problem.leaves)
    matrix = [[Fraction(0)] * n for _ in range(n)]
    for part, x in zip(parts, raw):
        pm = part.matrix
        w = Fraction(x, total)
        for i in range(n):
            for j in range(n):
                matrix[i][j] += w * pm[i][j]
    return dv.DeviationRule.from_mapping(problem, matrix)


def random_convex_increasing(rng: random.Random):
    """A random valid piecewise-linear transform (increasing, convex)."""
    from dynrat.analysis import PiecewiseLinearFunction

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
    prog.add_constraint({n: 1 for n in gamma.values()}, "==", 1)
    for b in problem.leaves:
        if b not in support:
            prog.add_constraint({gamma[b, s]: 1 for s in problem.states}, "==", 0)
    for rule in dv.enumerate_pure_rules(problem):
        prog.add_constraint({
            gamma[b, s]: utility(problem, b, s) - utility(problem, problem.leaves[j], s)
            for b, ((j, _),) in zip(problem.leaves, rule.rows) for s in problem.states
        }, ">=", 0)
    prog.set_objective({gamma[cell]: w for cell, w in weights.items()})
    sol = lp.solve(prog)
    if sol.status == "infeasible":
        return None
    assert sol.status == "optimal"
    return sol.value


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

    def as_lp(self) -> lp.LinearProgram:
        """The same program, each row put over the lcm of its denominators."""
        prog = lp.LinearProgram(list(self.variables))
        for coeffs, sense, rhs in self.constraints:
            prog.add_constraint(coeffs, sense, rhs)
        prog.set_objective(self.objective)
        return prog


def rational_rows(constraints) -> list[tuple[dict, str, Fraction]]:
    """Integer rows (`lp.Constraint`), each over its denominator, as
    `Fraction` rows like `FractionProgram`'s."""
    return [({k: Fraction(c, con.den) for k, c in con.coeffs.items() if c}, con.sense,
             Fraction(con.rhs, con.den)) for con in constraints]


def reference_inputs(problem: m.DecisionProblem, leaves) -> list[int]:
    """The leaves that share their first action with one of ``leaves``, by
    index in leaf order: the inputs of the first-action blocks they touch."""
    firsts = {a.entries[0] for a in leaves}
    return [i for i, b in enumerate(problem.leaves) if b.entries[0] in firsts]


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
        classes = problem.tree.prefix_classes(t)
        for _, members in classes:
            for a_i, a_k in zip(members, members[1:]):
                if a_i not in col:
                    continue
                for _, out_members in classes:
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
        levels = {problem.leaf_index[problem.sequence(observed)]: k}
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


def structure_of(states, prior, signal_sets, kernel) -> oc.InformationStructure:
    """The information structure with a rational ``prior`` and rational
    ``kernel`` rows, one per state."""
    (nums,), den = _over_one_lcm([prior])
    rows, kden = _over_one_lcm(kernel)
    return oc.InformationStructure(tuple(states), nums, den, tuple(signal_sets), rows, kden)


def strategy_of(signal_sets, leaves, kernel) -> oc.Strategy:
    """The strategy with rational ``kernel`` rows, one per signal sequence."""
    return oc.Strategy(tuple(signal_sets), tuple(leaves), *_over_one_lcm(kernel))


def fraction_prior(structure: oc.InformationStructure) -> tuple[Fraction, ...]:
    return as_fractions([structure.prior], structure.prior_den)[0]


def fraction_kernel(structure: oc.InformationStructure) -> tuple[tuple[Fraction, ...], ...]:
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
    pad_leaf = {leaf.history: leaf for leaf in problem.leaves}

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
        for a in problem.tree.actions_at(history):
            h2 = history + (a,)
            if problem.tree.is_terminal(h2):
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
    pad_leaf = {leaf.history: leaf for leaf in problem.leaves}

    def terminal_mass(seq_ids, history) -> int:
        pay = utab[pad_leaf[history]]
        return sum(w * u for k in seq_ids for w, u in zip(weights[k], pay))

    def observe(seq_ids, t, history) -> int:
        groups: dict[str, list[int]] = {}
        for k in seq_ids:
            groups.setdefault(signal_seqs[k][t], []).append(k)
        return sum(act(ids, t + 1, history) for ids in groups.values())

    def act(seq_ids, t, history) -> int:
        return max(terminal_mass(seq_ids, h2) if tree.is_terminal(h2) else observe(seq_ids, t, h2)
                   for h2 in (history + (a,) for a in tree.actions_at(history)))

    return observe(range(len(signal_seqs)), 0, ())


# ---------------------------------------------------------------------------
# Joint dominance LP and the recursive induction (references for the
# backward-induction best rule)
# ---------------------------------------------------------------------------

def reference_best_joint_deviation(problem: m.DecisionProblem, joint: m.JointDistribution):
    """`deviation.best_joint_deviation` as it was before it evaluated the
    last period in its parent's loop: V(h, g) is one call per aligned pair,
    down to each (input leaf, output leaf) pair.  Returns the gain and the
    pure rule its argmaxes give, ties to the first output child."""
    table, uden = problem.integer_payoffs
    depth = problem.tree.depth
    pay = {b.entries: row for b, row in zip(problem.leaves, table)}
    width = len(problem.states)
    rows = [joint.cells[k:k + width] for k in range(0, len(joint.cells), width)]
    mass = {a.entries: row for a, row in zip(problem.leaves, rows) if any(row)}
    live = {a[:t] for a in mass for t in range(depth + 1)}
    kids = problem.tree.per_tree(dv._prefix_children)
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
            outputs[h] = ((problem.leaf_index[m.ActionSequence(g)], 1),)
            return
        for hc in kids[h]:
            follow(hc, choice.get((hc, g)) or kids[g][0])

    gain = value((), ()) - sum(sum(x * y for x, y in zip(row, pay[a])) for a, row in mass.items())
    follow((), ())
    rule = dv.DeviationRule(problem.leaves, tuple(outputs[b.entries] for b in problem.leaves), 1)
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
    prog.set_objective({
        i * n + j: sum((w * (utility(problem, b, s) - utility(problem, a, s))
                             for s, w in zip(states, joint.matrix[i])), Fraction(0))
        for i, a in enumerate(leaves) for j, b in enumerate(leaves)
    })
    sol = lp.solve(prog)
    assert sol.status == "optimal"
    return sol.value


# ---------------------------------------------------------------------------
# Exhaustive strategy search (reference for the backward-induction value)
# ---------------------------------------------------------------------------

def exhaustive_optimal_value(problem: m.DecisionProblem, structure) -> Fraction:
    """Max expected utility over every adapted pure strategy, by brute force."""
    seqs = structure.sequences
    T = problem.tree.depth

    def children(prefix):
        history = tuple(e for e in prefix if e != PAD)
        if PAD in prefix or problem.tree.is_terminal(history):
            return [prefix + (PAD,)]
        return [prefix + (a,) for a in problem.tree.actions_at(history)]

    def signal_children(prefix_ids, t):
        groups: dict[str, list[int]] = {}
        for k in prefix_ids:
            groups.setdefault(seqs[k][t], []).append(k)
        return list(groups.values())

    def assignments(prefix_ids, t, out_prefix):
        """All adapted choices mapping this signal class (and descendants)
        into completions of out_prefix; yields dicts seq_index -> leaf."""
        if t == T:
            leaf = m.ActionSequence(out_prefix)
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
