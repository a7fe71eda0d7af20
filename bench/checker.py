"""Correctness checker for dynrat reports, written apart from dynrat.

Every report is judged against the benchmark's own instance data and own
computations, never against stored output:

* a deviation rule must be row-stochastic and adapted and must strictly
  improve the observation under the criterion for its data type (every
  sequence weakly and the observed one strictly in every state; expected
  improvement under a joint law; marginal-weighted worst-state improvement);
* an obedient triple must pass this module's exact backward induction and
  induce the observed sequence (positive mass), marginal or joint law;
* a ``maxprob`` value is 0 exactly when ``check-seq`` on the same case says
  "not rationalizable", and agrees with a SciPy/HiGHS float LP over this
  module's own pure-rule enumeration within ``FLOAT_TOL``;
* an identified set tiles its range, each gap is at most the tolerance, a
  sample inside each "in"/"out" piece gets the same answer from a HiGHS
  dominance LP, and joint data give at most one "in" piece (the joint value
  function is convex in the parameter).
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product

from workloads import PAD, Op, Problem, branch_map

FLOAT_TOL = 1e-6       # |exact - HiGHS| allowed for maxprob values
OUT_ABOVE = 1e-6       # HiGHS dominance value above this: not rationalizable
IN_BELOW = 1e-9        # below this: rationalizable (the exact optimum is 0)


class Instance:
    """A problem with every parameter pinned, in exact arithmetic."""

    def __init__(self, problem: Problem, point: dict):
        self.periods = problem.periods
        self.states = list(problem.states)
        self.leaves = problem.leaves
        self.index = {leaf: i for i, leaf in enumerate(self.leaves)}
        self.padded = [problem.padded(leaf) for leaf in self.leaves]
        self.branch = branch_map(problem.tree)
        values = problem.values_at(point)
        self.u = [[values[leaf][s] for s in self.states] for leaf in self.leaves]

    def children(self, prefix: tuple) -> list[tuple]:
        if prefix not in self.branch:
            return [prefix + (PAD,)]
        return [prefix + (a,) for a in self.branch[prefix]]

    def pure_rules(self) -> list[tuple[int, ...]]:
        """Every adapted pure rule as an output index per input leaf."""
        def options(inp, out):
            if len(inp) == self.periods:
                return [((inp, out),)]
            per_child = []
            for ic in self.children(inp):
                per_child.append([o for oc in self.children(out) for o in options(ic, oc)])
            return [sum(combo, ()) for combo in product(*per_child)]

        by_padded = {p: i for i, p in enumerate(self.padded)}
        rules = []
        for pairs in options((), ()):
            mapping = dict(pairs)
            rules.append(tuple(by_padded[mapping[p]] for p in self.padded))
        return rules


def _q(text) -> Fraction:
    return Fraction(str(text))


# ---------------------------------------------------------------------------
# Deviation rules
# ---------------------------------------------------------------------------

def kernel_matrix(inst: Instance, kernel: dict) -> tuple[list[list[Fraction]], list[str]]:
    errors = []
    n = len(inst.leaves)
    matrix = [[Fraction(0)] * n for _ in range(n)]
    if set(kernel) != set(inst.leaves):
        errors.append("rule does not have exactly one row per leaf")
    for a, row in kernel.items():
        if a not in inst.index:
            continue
        for b, w in row.items():
            if b not in inst.index:
                errors.append(f"rule maps to unknown leaf {b!r}")
                continue
            matrix[inst.index[a]][inst.index[b]] = _q(w)
    for i, row in enumerate(matrix):
        if any(w < 0 for w in row) or sum(row) != 1:
            errors.append(f"rule row {inst.leaves[i]!r} is not a probability vector")
    for t in range(1, inst.periods):
        classes: dict[tuple, list[int]] = {}
        for j, p in enumerate(inst.padded):
            classes.setdefault(p[:t], []).append(j)
        seen: dict[tuple, list[Fraction]] = {}
        for i, p in enumerate(inst.padded):
            law = [sum(matrix[i][j] for j in members) for members in classes.values()]
            if seen.setdefault(p[:t], law) != law:
                errors.append(f"rule is not adapted at period {t}")
                break
    return matrix, errors


def improvements(inst: Instance, matrix) -> list[list[Fraction]]:
    n = len(inst.leaves)
    return [
        [sum((matrix[a][b] * inst.u[b][s] for b in range(n) if matrix[a][b]), Fraction(0))
         - inst.u[a][s] for s in range(len(inst.states))]
        for a in range(n)
    ]


def check_rule(inst: Instance, op: Op, kernel: dict) -> list[str]:
    matrix, errors = kernel_matrix(inst, kernel)
    if errors:
        return errors
    gain = improvements(inst, matrix)
    if op.seq is not None:
        a = inst.index[op.seq]
        if any(g < 0 for row in gain for g in row):
            return ["rule hurts some sequence in some state"]
        if not all(g > 0 for g in gain[a]):
            return ["rule does not strictly improve the observed sequence in every state"]
    elif op.joint is not None:
        total = sum(w * gain[inst.index[leaf]][inst.states.index(s)]
                    for (leaf, s), w in op.joint.items())
        if total <= 0:
            return ["rule does not improve the joint law on average"]
    else:
        total = sum(w * min(gain[inst.index[leaf]]) for leaf, w in op.marginal.items())
        if total <= 0:
            return ["rule does not improve the marginal's worst-state average"]
    return []


# ---------------------------------------------------------------------------
# Obedient triples
# ---------------------------------------------------------------------------

def best_value(inst: Instance, weight: dict[tuple[int, int], Fraction]) -> Fraction:
    """Optimal unnormalized value when the t-th entry of the recommended leaf
    is revealed at period t, by backward induction over (signal class, own
    history) pairs."""
    states = range(len(inst.states))
    recommended = sorted({i for i, _ in weight})

    def value(group: list[int], t: int, history: tuple) -> Fraction:
        best = None
        for a in inst.branch[history]:
            h = history + (a,)
            if h in inst.branch:
                split: dict[str, list[int]] = {}
                for r in group:
                    split.setdefault(inst.padded[r][t], []).append(r)
                v = sum((value(g, t + 1, h) for g in split.values()), Fraction(0))
            else:
                leaf = inst.index[",".join(h)]
                v = sum((weight.get((r, s), 0) * inst.u[leaf][s] for r in group for s in states),
                        Fraction(0))
            if best is None or v > best:
                best = v
        return best

    first: dict[str, list[int]] = {}
    for r in recommended:
        first.setdefault(inst.padded[r][0], []).append(r)
    return sum((value(g, 1, ()) for g in first.values()), Fraction(0))


def check_triple(inst: Instance, op: Op, witness: dict) -> list[str]:
    prior = {s: _q(p) for s, p in witness["prior"].items()}
    if any(p < 0 for p in prior.values()) or sum(prior.values()) != 1:
        return ["prior is not a probability vector"]
    weight: dict[tuple[int, int], Fraction] = {}
    for s, row in witness["recommendation"].items():
        law = {leaf: _q(w) for leaf, w in row.items()}
        if any(w < 0 for w in law.values()) or sum(law.values()) != 1:
            return [f"recommendation in state {s!r} is not a probability vector"]
        for leaf, w in law.items():
            if prior.get(s, 0) * w:
                weight[(inst.index[leaf], inst.states.index(s))] = prior[s] * w
    obeyed = sum((w * inst.u[i][s] for (i, s), w in weight.items()), Fraction(0))
    if obeyed != best_value(inst, weight):
        return ["obeying the recommendations is not optimal"]
    if op.seq is not None:
        a = inst.index[op.seq]
        if not any(w > 0 for (i, _), w in weight.items() if i == a):
            return ["triple puts no mass on the observed sequence"]
    elif op.joint is not None:
        want = {(inst.index[leaf], inst.states.index(s)): w for (leaf, s), w in op.joint.items()}
        if weight != want:
            return ["triple induces a different joint law"]
    else:
        got: dict[int, Fraction] = {}
        for (i, _), w in weight.items():
            got[i] = got.get(i, Fraction(0)) + w
        want = {inst.index[leaf]: w for leaf, w in op.marginal.items()}
        if got != want:
            return ["triple induces a different marginal"]
    return []


# ---------------------------------------------------------------------------
# Float cross-checks (SciPy / HiGHS)
# ---------------------------------------------------------------------------

def _polytope(inst: Instance):
    """Equality rows of the deviation-rule polytope over n*n variables."""
    n = len(inst.leaves)
    rows = []
    for i in range(n):
        rows.append({i * n + j: 1.0 for j in range(n)})
    for t in range(1, inst.periods):
        classes: dict[tuple, list[int]] = {}
        for j, p in enumerate(inst.padded):
            classes.setdefault(p[:t], []).append(j)
        for members in classes.values():
            for i, k in zip(members, members[1:]):
                for outs in classes.values():
                    row = {i * n + j: 1.0 for j in outs}
                    row.update({k * n + j: -1.0 for j in outs})
                    rows.append(row)
    rhs = [1.0] * n + [0.0] * (len(rows) - n)
    return rows, rhs


def _solve_max(n_vars, objective, le_rows, eq_rows, eq_rhs, bounds) -> float:
    import numpy as np
    from scipy.optimize import linprog

    def dense(rows):
        m = np.zeros((len(rows), n_vars))
        for r, row in enumerate(rows):
            for j, v in row.items():
                m[r, j] += v
        return m

    c = np.zeros(n_vars)
    for j, v in objective.items():
        c[j] -= v
    res = linprog(c,
                  A_ub=dense(le_rows) if le_rows else None,
                  b_ub=np.zeros(len(le_rows)) if le_rows else None,
                  A_eq=dense(eq_rows) if eq_rows else None,
                  b_eq=np.array(eq_rhs) if eq_rows else None,
                  bounds=bounds, method="highs")
    if res.status != 0:
        raise RuntimeError(f"HiGHS ended with status {res.status}: {res.message}")
    return -res.fun


def dominance_value(inst: Instance, op: Op) -> float:
    """Optimal improvement of the dominance program for the op's data type;
    zero exactly when the data are rationalizable."""
    n = len(inst.leaves)
    S = len(inst.states)
    eq_rows, eq_rhs = _polytope(inst)
    u = [[float(x) for x in row] for row in inst.u]
    bounds = [(0.0, 1.0)] * (n * n)

    def gain_row(a, s):
        return {a * n + j: u[j][s] - u[a][s] for j in range(n) if u[j][s] != u[a][s]}

    le_rows, objective = [], {}
    if op.joint is not None:
        for (leaf, s_label), w in op.joint.items():
            a, s = inst.index[leaf], inst.states.index(s_label)
            for j, g in gain_row(a, s).items():
                objective[j] = objective.get(j, 0.0) + float(w) * g
        return _solve_max(n * n, objective, [], eq_rows, eq_rhs, bounds)
    if op.seq is not None:
        target = inst.index[op.seq]
        k = n * n
        bounds = bounds + [(None, None)]
        for a in range(n):
            for s in range(S):
                row = {j: -g for j, g in gain_row(a, s).items()}
                if a == target:
                    row[k] = 1.0
                if row:
                    le_rows.append(row)
        return _solve_max(k + 1, {k: 1.0}, le_rows, eq_rows, eq_rhs, bounds)
    bounds = bounds + [(None, None)] * n
    for a in range(n):
        for s in range(S):
            row = {j: -g for j, g in gain_row(a, s).items()}
            row[n * n + a] = 1.0
            le_rows.append(row)
    objective = {n * n + inst.index[leaf]: float(w) for leaf, w in op.marginal.items()}
    return _solve_max(n * n + n, objective, le_rows, eq_rows, eq_rhs, bounds)


def max_probability(inst: Instance, seq: str) -> float:
    """Largest probability of ``seq`` over obedient joint laws, one obedience
    row per adapted pure rule."""
    n, S = len(inst.leaves), len(inst.states)
    u = [[float(x) for x in row] for row in inst.u]
    le_rows = []
    for rule in inst.pure_rules():
        row = {}
        for a, b in enumerate(rule):
            for s in range(S):
                if u[b][s] != u[a][s]:
                    row[a * S + s] = u[b][s] - u[a][s]
        if row:
            le_rows.append(row)
    target = inst.index[seq]
    objective = {target * S + s: 1.0 for s in range(S)}
    eq_rows = [{j: 1.0 for j in range(n * S)}]
    return _solve_max(n * S, objective, le_rows, eq_rows, [1.0], [(0.0, 1.0)] * (n * S))


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------

def _sample_verdict(op: Op, point: Fraction) -> str | None:
    param = op.sweep[0]
    value = dominance_value(Instance(op.problem, {**op.point, param: point}), op)
    if value > OUT_ABOVE:
        return "out"
    if value < IN_BELOW:
        return "in"
    return None


def check_identify(op: Op, result: dict) -> list[str]:
    param, lo, hi = op.sweep
    iset = result["identified_set"]
    if iset["param"] != param:
        return [f"identified set is over {iset['param']!r}, not {param!r}"]
    pieces = [(_q(p["lo"]), _q(p["hi"]), p["tag"]) for p in iset["intervals"]]
    tol = (hi - lo) / 1024
    errors = []
    if not pieces or pieces[0][0] != lo or pieces[-1][1] != hi:
        errors.append("identified set does not cover the range")
    for (a, b, tag), nxt in zip(pieces, pieces[1:] + [None]):
        if a > b or tag not in ("in", "out", "gap"):
            errors.append("malformed piece")
        if nxt is not None and b != nxt[0]:
            errors.append("pieces do not tile the range")
        if tag == "gap" and b - a > tol:
            errors.append(f"gap wider than the tolerance {tol}")
    if op.joint is not None and sum(tag == "in" for _, _, tag in pieces) > 1:
        errors.append("joint data gave more than one 'in' piece")
    for a, b, tag in pieces:
        if tag == "gap":
            continue
        verdict = None
        for x in (Fraction(1, 2), Fraction(1, 4), Fraction(3, 4)):
            verdict = _sample_verdict(op, a + x * (b - a))
            if verdict is not None:
                break
        if verdict != tag:
            errors.append(f"sample in [{a}, {b}] is {verdict or 'undecided'}, piece says {tag}")
    return errors


def check_report(op: Op, report: dict) -> list[str]:
    """Errors found in one query report (empty when it is correct)."""
    result = report.get("result", {})
    if op.command == "identify":
        return check_identify(op, result)
    inst = Instance(op.problem, op.point)
    if op.command == "maxprob":
        value = _q(result["value"])
        if not 0 <= value <= 1:
            return ["maxprob value outside [0, 1]"]
        if abs(float(value) - max_probability(inst, op.seq)) > FLOAT_TOL:
            return ["maxprob value disagrees with the HiGHS float LP"]
        return []
    witness = result.get("witness", {})
    kind = witness.get("kind")
    if result.get("rationalizable") is not (kind == "obedient_triple"):
        return ["verdict and witness kind disagree"]
    if kind == "obedient_triple":
        return check_triple(inst, op, witness)
    if kind == "deviation_rule":
        return check_rule(inst, op, witness["kernel"])
    return [f"unknown witness kind {kind!r}"]


def check_all(ops: list[Op], reports: list[dict | None]) -> list[str]:
    """Every error over one run, each prefixed with its op's case and command."""
    errors = []
    verdicts: dict[str, bool] = {}
    values: dict[str, Fraction] = {}
    for op, report in zip(ops, reports):
        if report is None:
            continue
        for e in check_report(op, report):
            errors.append(f"{op.case} {op.command}: {e}")
        if op.command == "check-seq":
            verdicts[op.case] = report["result"]["rationalizable"]
        elif op.command == "maxprob":
            values[op.case] = _q(report["result"]["value"])
    for case, value in values.items():
        if case in verdicts and (value == 0) == verdicts[case]:
            errors.append(f"{case}: maxprob {value} but check-seq says "
                          f"rationalizable={verdicts[case]}")
    return errors
