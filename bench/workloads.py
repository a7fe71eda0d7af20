"""Seeded workloads: decision problems, observations and the CLI queries on them.

Everything here is the benchmark's own code; nothing imports dynrat.  A
workload is a fixed schedule of *slots*, run in rounds.  Each slot has a
template drawn once from ``DESIGN_SEED``: a tree, integer payoffs in [-5, 5]
(affine in one parameter on the identify trees) and the observed leaf or
marginal.  The run's ``--seed`` then draws, for every round and slot, new
units for each state's payoffs (a positive scale and a shift) and the weights
of the examples' marginals and of every joint law.  New units keep each
state's payoff order and ties, so the size of a slot (pure rules, obedience
rows kept, nearly all pivot counts) is the same on every seed and the
run-to-run spread reflects the program rather than the draw.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Optional

PAD = "_"
ACTIONS = "abcd"
DESIGN_SEED = 20250407
MIN_OPS = 40


def fmt(q: Fraction) -> str:
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


# ---------------------------------------------------------------------------
# Problems
# ---------------------------------------------------------------------------

@dataclass
class Problem:
    """A decision problem in the benchmark's own representation.

    ``utility[leaf][state]`` is ``(constant, {param: coefficient})``; leaves
    are comma-joined action labels in document order.
    """

    periods: int
    states: tuple[str, ...]
    tree: dict
    utility: dict[str, dict[str, tuple[Fraction, dict[str, Fraction]]]]
    params: tuple[str, ...] = ()

    @property
    def leaves(self) -> list[str]:
        out: list[str] = []

        def walk(node, prefix):
            for action, child in node.items():
                if child == "leaf":
                    out.append(",".join(prefix + (action,)))
                else:
                    walk(child, prefix + (action,))

        walk(self.tree, ())
        return out

    def padded(self, leaf: str) -> tuple[str, ...]:
        path = tuple(leaf.split(","))
        return path + (PAD,) * (self.periods - len(path))

    def values_at(self, point: dict[str, Fraction]) -> dict[str, dict[str, Fraction]]:
        """Exact payoffs with every parameter pinned."""
        return {
            leaf: {
                s: const + sum((c * point[p] for p, c in coeffs.items()), Fraction(0))
                for s, (const, coeffs) in row.items()
            }
            for leaf, row in self.utility.items()
        }

    def to_doc(self) -> dict:
        def render(const: Fraction, coeffs: dict[str, Fraction]) -> str:
            parts = [fmt(const)]
            for p, c in sorted(coeffs.items()):
                parts.append(f"{'-' if c < 0 else '+'} {fmt(abs(c))}*{p}")
            return " ".join(parts)

        doc = {
            "periods": self.periods,
            "states": list(self.states),
            "tree": self.tree,
            "utility": {
                leaf: {s: render(*row[s]) for s in self.states}
                for leaf, row in self.utility.items()
            },
        }
        if self.params:
            doc["params"] = list(self.params)
        return doc


def constant_problem(periods, states, tree, table, params=()) -> Problem:
    """Problem from ``{leaf: {state: value or (const, {param: coeff})}}``."""
    utility = {}
    for leaf, row in table.items():
        utility[leaf] = {}
        for s, v in row.items():
            if isinstance(v, tuple):
                utility[leaf][s] = (Fraction(v[0]), {p: Fraction(c) for p, c in v[1].items()})
            else:
                utility[leaf][s] = (Fraction(v), {})
    return Problem(periods, tuple(states), tree, utility, tuple(params))


# The shipped examples, copied so that the benchmark does not change when the
# repository's problem files do.
EXAMPLE1 = constant_problem(
    2, ("good", "bad"),
    {"not_invest": "leaf", "invest": {"pull_back": "leaf", "invest": "leaf"}},
    {"not_invest": {"good": 0, "bad": 0},
     "invest,pull_back": {"good": -1, "bad": -1},
     "invest,invest": {"good": 2, "bad": -2}},
)
EXAMPLE2 = constant_problem(
    2, ("X", "Y"),
    {"x": "leaf", "y": "leaf", "w": {"x": "leaf", "y": "leaf"}},
    {"x": {"X": 5, "Y": 3}, "y": {"X": 3, "Y": 5},
     "w,x": {"X": (0, {"delta": 5}), "Y": (0, {"delta": 3})},
     "w,y": {"X": (0, {"delta": 3}), "Y": (0, {"delta": 5})}},
    params=("delta",),
)
EXAMPLE3 = constant_problem(
    2, ("hard", "easy"),
    {"no_effort": "leaf", "effort": {"no_effort": "leaf", "effort": "leaf"}},
    {"no_effort": {"hard": 0, "easy": 0},
     "effort,no_effort": {"hard": (0, {"c": -1}), "easy": (0, {"R": 1, "c": -1})},
     "effort,effort": {"hard": (0, {"R": 1, "c": -2}), "easy": (0, {"R": 1, "c": -2})}},
    params=("R", "c"),
)


def count_pure_rules(problem: Problem) -> int:
    """Adapted pure rules, counted over aligned (input, output) prefix pairs."""
    branch = branch_map(problem.tree)
    memo: dict = {}

    def children(prefix):
        if prefix not in branch:
            return [prefix + (PAD,)]
        return [prefix + (a,) for a in branch[prefix]]

    def count(inp, out):
        if len(inp) == problem.periods:
            return 1
        if (inp, out) not in memo:
            total = 1
            for ic in children(inp):
                total *= sum(count(ic, oc) for oc in children(out))
            memo[(inp, out)] = total
        return memo[(inp, out)]

    return count((), ())


def branch_map(tree: dict) -> dict[tuple[str, ...], tuple[str, ...]]:
    out: dict[tuple[str, ...], tuple[str, ...]] = {}

    def walk(node, prefix):
        out[prefix] = tuple(node)
        for action, child in node.items():
            if child != "leaf":
                walk(child, prefix + (action,))

    walk(tree, ())
    return out


def random_tree(rng: random.Random, periods: int, branching: tuple[int, int]) -> dict:
    """A tree of depth exactly ``periods`` with 2-3 (or given) actions per node."""
    while True:
        def build(depth):
            node = {}
            for i in range(rng.randint(*branching)):
                deeper = depth + 1 < periods and rng.random() < 0.5
                node[ACTIONS[i]] = build(depth + 1) if deeper else "leaf"
            return node

        tree = build(0)
        if max(len(h) for h in branch_map(tree)) == periods - 1:
            return tree


def complete_tree(branching: tuple[int, ...]) -> dict:
    if not branching:
        return "leaf"
    return {ACTIONS[i]: complete_tree(branching[1:]) for i in range(branching[0])}


# ---------------------------------------------------------------------------
# Templates and their seeded draws
# ---------------------------------------------------------------------------

@dataclass
class Template:
    periods: int
    states: tuple[str, ...]
    tree: dict
    base: dict[str, dict[str, int]]                 # integer payoff template
    slope: dict[str, dict[str, int]] = field(default_factory=dict)  # identify trees only
    param: Optional[str] = None

    def draw(self, rng: random.Random) -> Problem:
        """Re-express each state's payoffs in other units: a seeded positive
        scale and shift per state.  Every number changes, but each state's
        payoff order and ties do not."""
        units = {s: (Fraction(rng.randint(4, 6), 4), Fraction(rng.randint(-4, 4), 2))
                 for s in self.states}
        utility = {}
        for leaf, row in self.base.items():
            utility[leaf] = {}
            for s, v in row.items():
                scale, shift = units[s]
                coeffs = {}
                if self.param is not None and self.slope[leaf][s] != 0:
                    coeffs[self.param] = scale * self.slope[leaf][s]
                utility[leaf][s] = (scale * v + shift, coeffs)
        params = (self.param,) if self.param is not None else ()
        return Problem(self.periods, self.states, self.tree, utility, params)


def make_template(rng, tree, periods, n_states, param=None) -> Template:
    states = tuple(f"s{i}" for i in range(n_states))
    leaves = Problem(periods, states, tree, {}).leaves
    base = {leaf: {s: rng.randint(-5, 5) for s in states} for leaf in leaves}
    slope = {}
    if param is not None:
        slope = {leaf: {s: rng.randint(-2, 2) for s in states} for leaf in leaves}
    return Template(periods, states, tree, base, slope, param)


def positive_weights(rng: random.Random, keys: list, lo: int = 1, hi: int = 4) -> dict:
    raw = [rng.randint(lo, hi) for _ in keys]
    total = sum(raw)
    return {k: Fraction(x, total) for k, x in zip(keys, raw)}


def obedient_joint(problem: Problem, point: dict, rng: random.Random) -> dict:
    """A joint law over (leaf, state) that some information structure makes
    optimal: a seeded mixture of optimal play when the state is revealed at
    the start of period k, for every k (k = periods + 1: never revealed).

    Each component is the law of an optimal strategy, hence obedient, and
    obedience constraints are linear, so the mixture is obedient too."""
    values = problem.values_at(point)
    branch = branch_map(problem.tree)
    prior = positive_weights(rng, list(problem.states))
    joint: dict[tuple[str, str], Fraction] = {}
    reveal_weights = positive_weights(rng, list(range(1, problem.periods + 2)), 1, 3)
    for k, lam in reveal_weights.items():
        def best(history):
            """(value per state, chosen leaf per state) from ``history``; the
            next action is taken in period len(history) + 1."""
            if history not in branch:
                leaf = ",".join(history)
                return ({s: values[leaf][s] for s in problem.states},
                        {s: leaf for s in problem.states})
            options = [best(history + (a,)) for a in branch[history]]
            if len(history) + 1 >= k:
                val, pick = {}, {}
                for s in problem.states:
                    v, leaf = max(((o[0][s], o[1][s]) for o in options), key=lambda x: x[0])
                    val[s], pick[s] = v, leaf
                return val, pick
            scores = [sum(prior[s] * o[0][s] for s in problem.states) for o in options]
            return options[scores.index(max(scores))]

        _, play = best(())
        for s in problem.states:
            cell = (play[s], s)
            joint[cell] = joint.get(cell, Fraction(0)) + lam * prior[s]
    return joint


def joint_spec(joint: dict) -> str:
    return ",".join(f"{leaf}@{s}:{fmt(w)}" for (leaf, s), w in joint.items())


def marginal_spec(marginal: dict) -> str:
    return ",".join(f"{leaf}:{fmt(w)}" for leaf, w in marginal.items())


# ---------------------------------------------------------------------------
# Operations
# ---------------------------------------------------------------------------

@dataclass
class Op:
    """One benchmark operation: a CLI query on one problem file, plus what
    the checker needs to judge the report without trusting it."""

    command: str
    problem: Problem
    file: str
    args: list[str]
    point: dict[str, Fraction] = field(default_factory=dict)
    seq: Optional[str] = None
    marginal: Optional[dict] = None
    joint: Optional[dict] = None
    sweep: Optional[tuple[str, Fraction, Fraction]] = None
    case: str = ""

    def argv(self, directory: Path) -> list[str]:
        pins = [f"--param={p}={fmt(v)}" for p, v in sorted(self.point.items())]
        return [self.command, str(directory / self.file), *self.args, *pins]


def _seq_ops(case: str, problem: Problem, file: str, point: dict,
             seq: str, marginal: dict) -> list[Op]:
    return [
        Op("check-seq", problem, file, ["--seq", seq], point, seq=seq, case=case),
        Op("maxprob", problem, file, ["--seq", seq], point, seq=seq, case=case),
        Op("check-marginal", problem, file, ["--dist", marginal_spec(marginal)], point,
           marginal=marginal, case=case),
    ]


# (periods, states, least and most adapted pure rules, design draw, marginal
# support or None for the observed leaf plus two drawn ones) per random
# template.  The caps keep pure-rule enumeration and the O(rules^2) row filter
# to about a second per query; draw 10 keeps 255 obedience rows, and its
# marginal puts weight on the dominated leaf "b", so that its check-marginal
# is settled by the dominance LP (the obedience LP with marginal rows is
# covered by slot 1).  See README for the sizes left out and why.
SEQUENCE_SLOTS = [
    (2, 2, 15, 120, 0, None), (2, 3, 15, 120, 1, None), (3, 2, 60, 330, 2, None),
    (3, 3, 60, 330, 3, None), (2, 2, 15, 60, 4, None), (3, 2, 200, 330, 5, None),
    (3, 3, 200, 330, 10, ["a,b,a", "a,b,b", "b"]), (2, 2, 60, 120, 7, None),
]

# Examples at pinned parameters: (problem, point, observed leaf, marginal support).
EXAMPLE_CASES = [
    (EXAMPLE1, {}, "invest,pull_back", ["invest,pull_back", "invest,invest"]),
    (EXAMPLE2, {"delta": Fraction(9, 10)}, "w,x", ["w,x", "w,y", "x"]),
    (EXAMPLE2, {"delta": Fraction(3, 4)}, "w,x", ["w,x", "y"]),
    (EXAMPLE3, {"R": Fraction(1), "c": Fraction(1, 2)}, "effort,no_effort",
     ["effort,no_effort", "effort,effort"]),
]

JOINT_SLOTS = [  # (branching per level, states, rationalizable by construction)
    ((2, 2, 2), 2, True), ((3, 3), 3, False), ((4, 4), 2, True), ((2, 2, 2), 3, False),
    ((3, 3), 2, True), ((4, 4), 3, False), ((2, 2, 2), 2, False), ((4, 4), 2, False),
]

IDENTIFY_SLOTS = [  # (periods, states, data kind, leaves) on seeded affine trees
    (2, 2, "seq", 4), (2, 3, "marginal", 3), (2, 2, "joint", 4), (2, 3, "seq", 3),
    (2, 2, "marginal", 3), (2, 3, "joint", 3),
]

# Example sweeps: (problem, swept parameter, range, pinned others, observed leaf,
# marginal support, parameter value at which the joint is made obedient).
IDENTIFY_EXAMPLES = [
    (EXAMPLE2, "delta", (Fraction(0), Fraction(1)), {}, "w,x", ["w,x", "w,y"],
     Fraction(9, 10)),
    (EXAMPLE3, "c", (Fraction(0), Fraction(2)), {"R": Fraction(1)}, "effort,no_effort",
     ["effort,no_effort", "no_effort"], Fraction(1, 4)),
    (EXAMPLE3, "R", (Fraction(0), Fraction(4)), {"c": Fraction(1, 2)}, "effort,effort",
     ["effort,effort", "effort,no_effort"], Fraction(3)),
]

SWEEP_RANGE = (Fraction(0), Fraction(2))


def _design(workload: str):
    """Templates for one workload, fixed by ``DESIGN_SEED``."""
    if workload == "sequence":
        out = []
        for periods, n_states, lo, hi, draw, support in SEQUENCE_SLOTS:
            rng = random.Random(f"{DESIGN_SEED}:sequence:{draw}")
            while True:
                tree = random_tree(rng, periods, (2, 3))
                rules = count_pure_rules(Problem(periods, (), tree, {}))
                if lo <= rules <= hi:
                    break
            tmpl = make_template(rng, tree, periods, n_states)
            leaves = Problem(periods, tmpl.states, tree, {}).leaves
            seq = rng.choice(leaves)
            if support is None:
                support = sorted(set([seq] + rng.sample(leaves, 2)), key=leaves.index)
            out.append((tmpl, seq, positive_weights(rng, support)))
        return out
    if workload == "joint":
        out = []
        for i, (branching, n_states, obedient) in enumerate(JOINT_SLOTS):
            rng = random.Random(f"{DESIGN_SEED}:joint:{i}")
            tmpl = make_template(rng, complete_tree(branching), len(branching), n_states)
            cells = [(leaf, s) for leaf in tmpl.base for s in tmpl.states]
            support = None if obedient else [c for c in cells if rng.random() < 0.4]
            out.append((tmpl, support))
        return out
    if workload == "identify":
        out = []
        for i, (periods, n_states, kind, n_leaves) in enumerate(IDENTIFY_SLOTS):
            rng = random.Random(f"{DESIGN_SEED}:identify:{i}")
            while True:
                tree = random_tree(rng, periods, (2, 3))
                if len(Problem(periods, (), tree, {}).leaves) == n_leaves:
                    break
            tmpl = make_template(rng, tree, periods, n_states, param="t")
            leaves = Problem(periods, tmpl.states, tree, {}).leaves
            seq = rng.choice(leaves)
            support = sorted(set([seq] + rng.sample(leaves, 2)), key=leaves.index)
            t0 = Fraction(rng.randint(1, 15), 8)
            out.append((tmpl, kind, seq, support, t0))
        return out
    raise ValueError(f"unknown workload {workload!r}")


def _sequence_round(design, rng, r: int, files: dict) -> list[Op]:
    ops = []
    for k, (problem, point, seq, support) in enumerate(EXAMPLE_CASES):
        name = f"ex{k}.json"
        files[name] = problem
        ops += _seq_ops(f"r{r}-ex{k}", problem, name, point, seq,
                        positive_weights(rng, support))
    for k, (tmpl, seq, marginal) in enumerate(design):
        problem = tmpl.draw(rng)
        name = f"r{r}-t{k}.json"
        files[name] = problem
        ops += _seq_ops(f"r{r}-t{k}", problem, name, {}, seq, marginal)
    return ops


def _joint_round(design, rng, r: int, files: dict) -> list[Op]:
    ops = []
    for k, (tmpl, support) in enumerate(design):
        problem = tmpl.draw(rng)
        name = f"r{r}-t{k}.json"
        files[name] = problem
        if support is None:
            joint = obedient_joint(problem, {}, rng)
        else:
            joint = positive_weights(rng, support)
        ops.append(Op("check-joint", problem, name, ["--dist", joint_spec(joint)],
                      joint=joint, case=f"r{r}-t{k}"))
    return ops


def _identify_op(case, problem, name, param, rng_range, pinned, kind, seq, marginal, joint):
    lo, hi = rng_range
    data = {"seq": ["--seq", seq],
            "marginal": ["--marginal", marginal_spec(marginal or {})],
            "joint": ["--joint", joint_spec(joint or {})]}[kind]
    return Op("identify", problem, name,
              data + ["--sweep", param, "--range", f"{fmt(lo)}:{fmt(hi)}"],
              dict(pinned), seq=seq if kind == "seq" else None,
              marginal=marginal if kind == "marginal" else None,
              joint=joint if kind == "joint" else None,
              sweep=(param, lo, hi), case=case)


def _identify_round(design, rng, r: int, files: dict) -> list[Op]:
    ops = []
    for k, (problem, param, rng_range, pinned, seq, support, t0) in enumerate(IDENTIFY_EXAMPLES):
        name = f"ex{k}.json"
        files[name] = problem
        for kind in ("seq", "marginal", "joint"):
            marginal = positive_weights(rng, support) if kind == "marginal" else None
            joint = (obedient_joint(problem, {**pinned, param: t0}, rng)
                     if kind == "joint" else None)
            ops.append(_identify_op(f"r{r}-ex{k}-{kind}", problem, name, param, rng_range,
                                    pinned, kind, seq, marginal, joint))
    for k, (tmpl, kind, seq, support, t0) in enumerate(design):
        problem = tmpl.draw(rng)
        name = f"r{r}-t{k}.json"
        files[name] = problem
        marginal = positive_weights(rng, support) if kind == "marginal" else None
        joint = obedient_joint(problem, {"t": t0}, rng) if kind == "joint" else None
        ops.append(_identify_op(f"r{r}-t{k}", problem, name, "t", SWEEP_RANGE, {},
                                kind, seq, marginal, joint))
    return ops


ROUNDS = {"sequence": _sequence_round, "joint": _joint_round, "identify": _identify_round}

# Wall-clock seconds one round of each workload took when the workloads were
# sized; a run does round(seconds / this) rounds, and at least MIN_OPS ops.
ROUND_REF_S = {"sequence": 5.0, "joint": 3.0, "identify": 4.0}


def build(workload: str, seed: int, seconds: int) -> tuple[list[Op], dict[str, Problem]]:
    """The fixed operation list of one run and the problem files it needs."""
    if workload not in ROUNDS:
        raise ValueError(f"unknown workload {workload!r}")
    design = _design(workload)
    files: dict[str, Problem] = {}
    ops: list[Op] = []
    rounds = max(1, round(seconds / ROUND_REF_S[workload]))
    r = 0
    while r < rounds or len(ops) < MIN_OPS:
        rng = random.Random(f"{seed}:{workload}:{r}")
        ops += ROUNDS[workload](design, rng, r, files)
        r += 1
    return ops, files


def write_problem(path: Path, problem: Problem) -> None:
    path.write_text(json.dumps(problem.to_doc()))
