"""Rationalizability tests with verifiable certificates.

Each decision procedure answers "could this observed behavior come from an
expected-utility maximizer under *some* prior and information flow?" and
always hands back evidence:

* impossible: a deviation rule whose improvement criterion is strictly
  positive (checkable by the `dominates_*` predicates), or
* possible: an obedient triple, a prior plus recommendation kernel under
  which following recommendations is exactly optimal.

All tests reduce to exact rational linear programs; strictness is decided by
comparing the optimal value against zero, never by epsilon.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Optional, Union

from . import lp as lpmod
from .deviation import (
    DeviationRule,
    dominates_joint,
    dominates_marginal,
    dominates_sequence,
)
from .model import (
    ActionSequence,
    DecisionProblem,
    JointDistribution,
    MarginalDistribution,
    ValidationError,
    _require_parameter_free,
    format_rational,
    parse_rational,
    utility,
)


class InternalInconsistencyError(RuntimeError):
    """Both (or neither) of a pair of mutually exclusive tests succeeded.

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

def _extract_rule(problem: DecisionProblem, poly, assignment) -> DeviationRule:
    return DeviationRule(problem.leaves, poly.extract_matrix(assignment))


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


def truly_dominated(problem: DecisionProblem, a: ActionSequence) -> Optional[DeviationRule]:
    """Search for a rule that never hurts any sequence in any state and
    strictly improves ``a`` in every state; None when no such rule exists."""
    _require_parameter_free(problem)
    a = problem.sequence(a)
    poly = lpmod.deviation_polytope_constraints(problem)
    prog = lpmod.LinearProgram()
    poly.install(prog)
    prog.add_variable("k")
    leaves = problem.leaves
    for i, b in enumerate(leaves):
        for state in problem.states:
            u_b = utility(problem, b, state)
            coeffs = {
                poly.var(i, j): utility(problem, c, state) - u_b
                for j, c in enumerate(leaves)
            }
            coeffs = {n: q for n, q in coeffs.items() if q != 0}
            if b == a:
                coeffs["k"] = Fraction(-1)
                prog.add_constraint(coeffs, ">=", 0, f"target[{state}]")
            elif coeffs:
                prog.add_constraint(coeffs, ">=", 0, f"weak[{b.label},{state}]")
    prog.set_objective({"k": 1})
    sol = lpmod.solve(prog)
    if sol.status != "optimal":  # pragma: no cover
        raise InternalInconsistencyError(f"dominance program ended {sol.status}")
    if sol.value <= 0:
        return None
    rule = _extract_rule(problem, poly, sol.assignment)
    if not dominates_sequence(problem, rule, a):  # pragma: no cover - solver bug
        raise InternalInconsistencyError("extracted rule fails its own dominance check")
    return rule


def dominated_on_average(
    problem: DecisionProblem, joint: JointDistribution
) -> Optional[DeviationRule]:
    """Maximize the expected improvement under ``joint`` over all rules;
    returns the maximizer when the optimum is strictly positive."""
    _require_parameter_free(problem)
    poly = lpmod.deviation_polytope_constraints(problem)
    prog = lpmod.LinearProgram()
    poly.install(prog)
    leaves = problem.leaves
    objective: dict[str, Fraction] = {}
    for i, a in enumerate(leaves):
        for s, state in enumerate(problem.states):
            w = joint.matrix[i][s]
            if w == 0:
                continue
            u_a = utility(problem, a, state)
            for j, b in enumerate(leaves):
                coeff = w * (utility(problem, b, state) - u_a)
                if coeff != 0:
                    name = poly.var(i, j)
                    objective[name] = objective.get(name, Fraction(0)) + coeff
    prog.set_objective(objective)
    sol = lpmod.solve(prog)
    if sol.status != "optimal":  # pragma: no cover
        raise InternalInconsistencyError(f"average-dominance program ended {sol.status}")
    if sol.value <= 0:
        return None
    rule = _extract_rule(problem, poly, sol.assignment)
    if not dominates_joint(problem, rule, joint):  # pragma: no cover - solver bug
        raise InternalInconsistencyError("extracted rule fails its own dominance check")
    return rule


def intermediately_dominated(
    problem: DecisionProblem, marginal: MarginalDistribution
) -> Optional[DeviationRule]:
    """Maximize the marginal-weighted sum of worst-state improvements; the
    worst case over states is linearized with one auxiliary level per leaf."""
    _require_parameter_free(problem)
    poly = lpmod.deviation_polytope_constraints(problem)
    prog = lpmod.LinearProgram()
    poly.install(prog)
    leaves = problem.leaves
    for i, a in enumerate(leaves):
        prog.add_variable(f"k[{a.label}]")
    for i, a in enumerate(leaves):
        for state in problem.states:
            u_a = utility(problem, a, state)
            coeffs = {
                poly.var(i, j): utility(problem, b, state) - u_a
                for j, b in enumerate(leaves)
            }
            coeffs = {n: q for n, q in coeffs.items() if q != 0}
            coeffs[f"k[{a.label}]"] = Fraction(-1)
            prog.add_constraint(coeffs, ">=", 0, f"level[{a.label},{state}]")
    prog.set_objective(
        {f"k[{a.label}]": w for a, w in zip(leaves, marginal.weights) if w != 0}
    )
    sol = lpmod.solve(prog)
    if sol.status != "optimal":  # pragma: no cover
        raise InternalInconsistencyError(f"intermediate-dominance program ended {sol.status}")
    if sol.value <= 0:
        return None
    rule = _extract_rule(problem, poly, sol.assignment)
    if not dominates_marginal(problem, rule, marginal):  # pragma: no cover - solver bug
        raise InternalInconsistencyError("extracted rule fails its own dominance check")
    return rule


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


def _joint_from_assignment(problem: DecisionProblem, assignment) -> JointDistribution:
    matrix = tuple(
        tuple(assignment[_gamma_var(a, s)] for s in problem.states)
        for a in problem.leaves
    )
    return JointDistribution(problem.leaves, problem.states, matrix)


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
    return sol.value, _joint_from_assignment(problem, sol.assignment)


def rationalizing_joint(
    problem: DecisionProblem,
    *,
    positive_on: Optional[ActionSequence] = None,
    marginal: Optional[MarginalDistribution] = None,
    joint: Optional[JointDistribution] = None,
) -> Optional[JointDistribution]:
    """Find an obedient joint law meeting one requirement, or None.

    Exactly one of the keyword requirements must be given: strictly positive
    probability on a leaf, an exact action marginal, or an exact joint law
    (pure feasibility of the given data).
    """
    _require_parameter_free(problem)
    given = [x is not None for x in (positive_on, marginal, joint)]
    if sum(given) != 1:
        raise ValidationError("specify exactly one requirement")

    if joint is not None:
        return joint if dominated_on_average(problem, joint) is None else None

    if positive_on is not None:
        _, witness = max_positive_marginal(problem, positive_on)
        return witness

    prog = _obedience_program(problem)
    for a, w in zip(problem.leaves, marginal.weights):
        prog.add_constraint(
            {_gamma_var(a, s): 1 for s in problem.states}, "==", w, f"marginal[{a.label}]"
        )
    prog.set_objective({})
    sol = lpmod.solve(prog)
    if sol.status == "infeasible":
        return None
    if sol.status != "optimal":  # pragma: no cover
        raise InternalInconsistencyError(f"obedience program ended {sol.status}")
    return _joint_from_assignment(problem, sol.assignment)


def obedient_triple_from_joint(joint: JointDistribution) -> ObedientTriple:
    """Condition a joint law into (prior, recommendation kernel).

    States with zero prior mass get a deterministic placeholder row (point
    mass on the first leaf); the induced joint law is unchanged.
    """
    n_states = len(joint.states)
    prior = [Fraction(0)] * n_states
    for row in joint.matrix:
        for s in range(n_states):
            prior[s] += row[s]
    rec = []
    for s in range(n_states):
        if prior[s] == 0:
            row = [Fraction(0)] * len(joint.leaves)
            row[0] = Fraction(1)
        else:
            row = [joint.matrix[i][s] / prior[s] for i in range(len(joint.leaves))]
        rec.append(tuple(row))
    return ObedientTriple(joint.leaves, joint.states, tuple(prior), tuple(rec))


def rationalize_sequence(problem: DecisionProblem, a: ActionSequence) -> Verdict:
    """Decide whether ``a`` can be an optimizer's choice under some prior and
    information flow; exactly one of the two certificate searches succeeds."""
    _require_parameter_free(problem)
    a = problem.sequence(a)
    rule = truly_dominated(problem, a)
    witness_joint = rationalizing_joint(problem, positive_on=a)
    if (rule is None) == (witness_joint is None):
        raise InternalInconsistencyError(
            "dominance and obedience searches agree; one of them is wrong"
        )
    if rule is not None:
        return Verdict(False, rule)
    return Verdict(True, obedient_triple_from_joint(witness_joint))
