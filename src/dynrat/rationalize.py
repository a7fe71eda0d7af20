"""Rationalizability tests with verifiable certificates.

`decide(problem, observed)` answers "could this observed behavior come from
an expected-utility maximizer under *some* prior and information flow?" for
any observation: one action sequence, an action-sequence law or a joint
action-state law.  It always hands back evidence:

* impossible: a deviation rule whose improvement criterion is strictly
  positive (checkable by `deviation.dominates`), or
* possible: an obedient triple, a prior plus recommendation kernel under
  which following recommendations is exactly optimal.

Each verdict solves one exact rational LP, the dominance program of its data
type: the best deviation rule over the rule polytope (`dominating_rule`
returns that rule alone).  A positive optimum yields the rule.  At optimum 0
the program's duals, checked exactly by `lp.check_duals`, are the obedient
information structure (for a joint law, the law itself): the paper's
theorem is this one LP duality.  This module is the one place that tells
the three kinds of observation apart when it builds a program.  Strictness
is decided by comparing the optimal value against zero, never by epsilon.
The obedience program, the same duality written from the information side,
serves `maxprob` only.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Optional, Union

from . import lp as lpmod
from .deviation import DeviationRule, dominates
from .model import (
    ActionSequence,
    DecisionProblem,
    JointDistribution,
    MarginalDistribution,
    Observation,
    ValidationError,
    _require_parameter_free,
    format_rational,
    parse_rational,
    utility,
)


class InternalInconsistencyError(RuntimeError):
    """A certificate failed its own check, or a program that always has an
    optimum ended otherwise.

    This can only happen if the solver or a constraint builder is wrong; it is
    never a property of the input data.
    """


# ---------------------------------------------------------------------------
# Witness types
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ApparentDominanceWitness:
    """A lottery beating a sequence strictly in every state, with its worst
    state-by-state margin (always positive)."""

    lottery: tuple[tuple[ActionSequence, Fraction], ...]
    margin: Fraction

    def __post_init__(self) -> None:
        if self.margin <= 0:
            raise ValidationError("apparent-dominance margin must be positive")
        weights = [w for _, w in self.lottery]
        if any(w < 0 for w in weights) or sum(weights, Fraction(0)) != 1:
            raise ValidationError("witness lottery must be a probability vector")

    def as_mapping(self) -> dict[ActionSequence, Fraction]:
        return dict(self.lottery)

    def to_json_dict(self) -> dict:
        return {
            "lottery": {a.label: format_rational(w) for a, w in self.lottery},
            "margin": format_rational(self.margin),
        }


@dataclass(frozen=True)
class ObedientTriple:
    """A prior and a recommendation kernel under which obeying is optimal.

    ``recommendation[s][i]`` is the probability that leaf ``leaves[i]`` is
    recommended in state ``states[s]``.
    """

    leaves: tuple[ActionSequence, ...]
    states: tuple[str, ...]
    prior: tuple[Fraction, ...]
    recommendation: tuple[tuple[Fraction, ...], ...]

    def __post_init__(self) -> None:
        if len(self.prior) != len(self.states):
            raise ValidationError("prior shape mismatch")
        if any(p < 0 for p in self.prior) or sum(self.prior, Fraction(0)) != 1:
            raise ValidationError("prior must be a probability vector")
        if len(self.recommendation) != len(self.states):
            raise ValidationError("recommendation shape mismatch")
        for row in self.recommendation:
            if len(row) != len(self.leaves):
                raise ValidationError("recommendation shape mismatch")
            if any(w < 0 for w in row) or sum(row, Fraction(0)) != 1:
                raise ValidationError("recommendation rows must be probability vectors")

    def induced_joint(self) -> JointDistribution:
        matrix = tuple(
            tuple(self.prior[s] * self.recommendation[s][i] for s in range(len(self.states)))
            for i in range(len(self.leaves))
        )
        return JointDistribution(self.leaves, self.states, matrix)

    def to_json_dict(self) -> dict:
        return {
            "prior": {s: format_rational(p) for s, p in zip(self.states, self.prior) if p != 0},
            "recommendation": {
                s: {
                    a.label: format_rational(w)
                    for a, w in zip(self.leaves, row)
                    if w != 0
                }
                for s, row in zip(self.states, self.recommendation)
            },
        }

    @staticmethod
    def from_json_dict(problem: DecisionProblem, doc: Mapping) -> "ObedientTriple":
        rows = doc.get("recommendation")
        if not (isinstance(doc.get("prior"), Mapping) and isinstance(rows, Mapping)
                and all(isinstance(row, Mapping) for row in rows.values())):
            raise ValidationError("an obedient triple needs a 'prior' object and a "
                                  "'recommendation' object of objects")
        prior = [Fraction(0)] * len(problem.states)
        for s, q in doc["prior"].items():
            prior[problem.state_index[s]] = parse_rational(q)
        rec = [[Fraction(0)] * len(problem.leaves) for _ in problem.states]
        for s, row in doc["recommendation"].items():
            si = problem.state_index[s]
            for leaf, q in row.items():
                rec[si][problem.leaf_index[problem.sequence(leaf)]] = parse_rational(q)
        return ObedientTriple(
            problem.leaves, problem.states, tuple(prior), tuple(tuple(r) for r in rec)
        )


@dataclass(frozen=True)
class Verdict:
    """Outcome of a rationalizability test plus its independently checkable
    certificate: an obedient triple when possible, a dominating rule when not."""

    rationalizable: bool
    witness: Union[ObedientTriple, DeviationRule]

    def to_json_dict(self) -> dict:
        if self.rationalizable:
            body = {"kind": "obedient_triple", **self.witness.to_json_dict()}
        else:
            body = {"kind": "deviation_rule", "kernel": self.witness.to_json_dict()}
        return {"rationalizable": self.rationalizable, "witness": body}


# ---------------------------------------------------------------------------
# Dominance search (deviation-rule side)
# ---------------------------------------------------------------------------

def apparently_dominated(
    problem: DecisionProblem, a: ActionSequence
) -> Optional[ApparentDominanceWitness]:
    """Best uniform-margin lottery against ``a``: maximizes the worst-state
    payoff gap and returns a witness when that optimum is strictly positive."""
    _require_parameter_free(problem)
    a = problem.sequence(a)
    prog = lpmod.LinearProgram()
    names = [f"alpha[{b.label}]" for b in problem.leaves]
    for name in names:
        prog.add_variable(name, lower=0)
    prog.add_variable("margin")
    prog.add_constraint({n: 1 for n in names}, "==", 1, "density")
    for state in problem.states:
        coeffs = {n: utility(problem, b, state) for n, b in zip(names, problem.leaves)}
        coeffs["margin"] = Fraction(-1)
        prog.add_constraint(coeffs, ">=", utility(problem, a, state), f"beats[{state}]")
    prog.set_objective({"margin": 1})
    sol = lpmod.solve(prog)
    if sol.status != "optimal":  # pragma: no cover - program is always bounded/feasible
        raise InternalInconsistencyError(f"margin program ended {sol.status}")
    if sol.value <= 0:
        return None
    lottery = tuple(
        (b, sol.assignment[n]) for n, b in zip(names, problem.leaves) if sol.assignment[n] != 0
    )
    return ApparentDominanceWitness(lottery, sol.value)


@dataclass(frozen=True)
class _Dominance:
    """A solved dominance program of ``observed`` and its rule (None when no
    rule gains).  ``gain_rows`` lists (row, leaf index, state index) of the
    rows "the rule's gain at this leaf in this state is at least the leaf's
    level"."""

    observed: Observation
    prog: lpmod.LinearProgram
    sol: lpmod.LpSolution
    rule: Optional[DeviationRule]
    gain_rows: tuple[tuple[int, int, int], ...]

    def obedient_joint(self, problem: DecisionProblem) -> JointDistribution:
        """At value 0, an obedient joint law that induces the observation:
        a joint law itself, or else the gain rows' multipliers, negated and
        scaled to mass 1.

        With g(i, s) minus the multiplier of row (i, s), the polytope rows'
        multipliers y satisfy A^T y >= C(g) and b^T y = 0 (C as in
        ``_obedience_program``), so no rule gains on average under g.  The
        levels are free, so their reduced costs are 0: g has mass exactly 1
        on the observed sequence, or exactly the observed marginal.
        """
        if isinstance(self.observed, JointDistribution):
            return self.observed
        if not lpmod.check_duals(self.prog, self.sol):  # pragma: no cover - solver bug
            raise InternalInconsistencyError("dual certificate fails its check")
        mass = [[Fraction(0)] * len(problem.states) for _ in problem.leaves]
        for r, i, s in self.gain_rows:
            mass[i][s] = -self.sol.duals[r]
        total = sum(map(sum, mass), Fraction(0))
        return JointDistribution(problem.leaves, problem.states, tuple(
            tuple(g / total for g in row) for row in mass))


def _dominance(problem: DecisionProblem, observed: Observation) -> _Dominance:
    """Solve the dominance program of an observed sequence, marginal or
    joint law, over the deviation polytope.

    * joint law: maximize the rule's expected gain.
    * sequence a: maximize one level k that bounds a's gain from below in
      every state, while every other leaf's gain stays nonnegative.
    * marginal: one level per leaf, bounding its gain in every state;
      maximize the marginal-weighted sum of the levels.
    """
    _require_parameter_free(problem)
    leaves, states = problem.leaves, problem.states
    poly = lpmod.deviation_polytope_constraints(problem)
    prog = lpmod.LinearProgram()
    poly.install(prog)
    table = [[utility(problem, b, s) for s in states] for b in leaves]

    def gain(i: int, s: int) -> dict[str, Fraction]:
        return {poly.var(i, j): table[j][s] - table[i][s]
                for j in range(len(leaves)) if table[j][s] != table[i][s]}

    objective: dict[str, Fraction] = {}
    gain_rows = []
    if isinstance(observed, JointDistribution):
        for i, row in enumerate(observed.matrix):
            for s, w in enumerate(row):
                if w == 0:
                    continue
                for name, c in gain(i, s).items():
                    objective[name] = objective.get(name, Fraction(0)) + w * c
    else:
        if isinstance(observed, MarginalDistribution):
            levels = {i: f"k[{b.label}]" for i, b in enumerate(leaves)}
            objective = dict(zip(levels.values(), observed.weights))
        else:
            observed = problem.sequence(observed)
            levels = {problem.leaf_index[observed]: "k"}
            objective = {"k": Fraction(1)}
        for name in levels.values():
            prog.add_variable(name)
        for i, b in enumerate(leaves):
            for s, state in enumerate(states):
                coeffs = gain(i, s)
                if i in levels:
                    coeffs[levels[i]] = Fraction(-1)
                elif not coeffs:
                    continue
                gain_rows.append((len(prog.constraints), i, s))
                prog.add_constraint(coeffs, ">=", 0, f"gain[{b.label},{state}]")
    prog.set_objective(objective)

    sol = lpmod.solve(prog)
    if sol.status != "optimal":  # pragma: no cover - identity rule is feasible, gains bounded
        raise InternalInconsistencyError(f"dominance program ended {sol.status}")
    rule = None
    if sol.value > 0:
        rule = DeviationRule(leaves, poly.extract_matrix(sol.assignment))
        if not dominates(problem, rule, observed):  # pragma: no cover - solver bug
            raise InternalInconsistencyError("extracted rule fails its own dominance check")
    return _Dominance(observed, prog, sol, rule, tuple(gain_rows))


def dominating_rule(problem: DecisionProblem, observed: Observation) -> Optional[DeviationRule]:
    """The rule that gains most on ``observed`` by the criterion of its kind
    (`deviation.dominates`), when that gain is strictly positive; None when
    no rule dominates, that is, when ``observed`` is rationalizable."""
    return _dominance(problem, observed).rule


# ---------------------------------------------------------------------------
# Obedience polytope (information side)
# ---------------------------------------------------------------------------

def _gamma_var(a: ActionSequence, state: str) -> str:
    return f"gamma[{a.label}|{state}]"


def _obedience_program(problem: DecisionProblem) -> lpmod.LinearProgram:
    """The obedient joint laws gamma, in dual form over the rule polytope.

    gamma is obedient iff no rule gains on average: max <C(gamma), D> <= 0
    over the deviation polytope {A D = b, D >= 0}, where C(gamma)[i][j] =
    sum_s gamma(i, s) (u(j, s) - u(i, s)).  The identity rule is feasible, so
    by LP duality this holds iff some free y has A^T y >= C(gamma) and
    b^T y <= 0: one row per leaf pair plus one, with one y per polytope row,
    so the program grows polynomially with the tree, unlike its pure rules.
    """
    poly = lpmod.deviation_polytope_constraints(problem)
    leaves, states = problem.leaves, problem.states
    prog = lpmod.LinearProgram()
    gamma = [[_gamma_var(a, s) for s in states] for a in leaves]
    for row in gamma:
        for n in row:
            prog.add_variable(n, lower=0)
    prog.add_constraint({n: 1 for row in gamma for n in row}, "==", 1, "density")
    columns: dict[str, dict[str, Fraction]] = {}  # kernel entry -> its A^T row
    bound: dict[str, Fraction] = {}
    for k, con in enumerate(poly.constraints):
        y = prog.add_variable(f"y[{k}]")
        for var, c in con.coeffs:
            columns.setdefault(var, {})[y] = c
        if con.rhs != 0:
            bound[y] = con.rhs
    table = [[utility(problem, a, s) for s in states] for a in leaves]
    for i, a in enumerate(leaves):
        for j, b in enumerate(leaves):
            coeffs = dict(columns[poly.var(i, j)])
            for s in range(len(states)):
                coeffs[gamma[i][s]] = table[i][s] - table[j][s]
            prog.add_constraint(coeffs, ">=", 0, f"obedience[{a.label}->{b.label}]")
    prog.add_constraint(bound, "<=", 0, "no-gain")
    return prog


def max_positive_marginal(
    problem: DecisionProblem, a: ActionSequence
) -> tuple[Fraction, Optional[JointDistribution]]:
    """Maximize the probability of ``a`` over all obedient joint laws.

    Returns the exact maximum and a maximizing joint law (None when the
    maximum is zero, i.e. ``a`` never occurs under obedient behavior).
    """
    _require_parameter_free(problem)
    a = problem.sequence(a)
    prog = _obedience_program(problem)
    prog.set_objective({_gamma_var(a, s): 1 for s in problem.states})
    sol = lpmod.solve(prog)
    if sol.status != "optimal":  # pragma: no cover - polytope is never empty
        raise InternalInconsistencyError(f"obedience program ended {sol.status}")
    if sol.value <= 0:
        return Fraction(0), None
    return sol.value, JointDistribution(problem.leaves, problem.states, tuple(
        tuple(sol.assignment[_gamma_var(b, s)] for s in problem.states)
        for b in problem.leaves))


def obedient_triple_from_joint(joint: JointDistribution) -> ObedientTriple:
    """Condition a joint law into (prior, recommendation kernel).

    States with zero prior mass get a deterministic placeholder row (point
    mass on the first leaf); the induced joint law is unchanged.
    """
    prior = joint.state_marginal()
    rec = []
    for s, p in enumerate(prior):
        if p == 0:
            row = [Fraction(0)] * len(joint.leaves)
            row[0] = Fraction(1)
        else:
            row = [cells[s] / p for cells in joint.matrix]
        rec.append(tuple(row))
    return ObedientTriple(joint.leaves, joint.states, prior, tuple(rec))


def decide(problem: DecisionProblem, observed: Observation) -> Verdict:
    """Decide whether ``observed`` is rationalizable, with one LP: a
    dominating rule, or an obedient triple that induces the observation
    (positive mass on a sequence, or exactly a marginal or joint law)."""
    found = _dominance(problem, observed)
    if found.rule is not None:
        return Verdict(False, found.rule)
    return Verdict(True, obedient_triple_from_joint(found.obedient_joint(problem)))
