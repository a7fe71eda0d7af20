"""Rationalizability tests with verifiable certificates.

`decide(problem, observed)` answers "could this observed behavior come from
an expected-utility maximizer under *some* prior and information flow?" for
any observation: one action sequence, an action-sequence law or a joint
action-state law.  It always hands back evidence:

* impossible: a deviation rule whose improvement criterion is strictly
  positive (checkable by `deviation.dominates`), or
* possible: an obedient joint law of recommended leaves and states that
  induces the observation, under which following the recommendations is
  exactly optimal (checkable by `oracle.verify_obedient_optimality`).

`certificate` hands back the same evidence without the verdict.  A report
spells the law as an obedient triple, a prior plus recommendation kernel:
`obedient_triple_to_json` conditions the law's integers into it, and
`obedient_triple_from_json` multiplies them back.

A joint law needs no LP.  A rule may condition on the recommended prefix,
so the best rule against a joint law is a best response to that prefix as a
signal, and `deviation.best_joint_deviation` finds it exactly by backward
induction over aligned prefix pairs, in time polynomial in their number and
with no enumeration.  A positive gain yields the rule; otherwise the law
itself is the obedient witness.

A sequence or a marginal needs one exact rational LP, the dominance
program: the best deviation rule over the rule polytope against the
observation's consistency rows (`model.consistency`; `dominating_rule`
returns that rule alone).  A positive optimum yields the rule.  At optimum
0 the program's duals, checked exactly by `lp.check_duals`, are the
obedient information structure: the paper's theorem is this one LP
duality.  Strictness is decided by comparing the exact optimal gain
against zero, never by epsilon.

`max_positive_marginal` (``maxprob``) solves the same program's budget
variant: the rules span a cone and every gain row may fall to -1.  Its
optimum l* is the least mass of an obedient law with mass 1 on the
sequence, read from the duals by the same checked helper, so the answer
is 1 / l*.  It is unbounded exactly when no such law exists, and then
(Farkas) a ray of the cone, scaled to a rule, dominates the sequence.

The program spans only the first-action blocks that the data touch: a
rule is adapted, so no polytope row links two blocks.  Elsewhere the
identity rows are feasible and gain 0, so the optimum is the whole tree's;
and a law is obedient if and only if its restriction to each block is.
"""

from __future__ import annotations

from collections.abc import Mapping
from fractions import Fraction
from typing import Optional, Union

from . import lp as lpmod
from .deviation import DeviationRule, best_joint_deviation, dominates, pure_rule
from .model import (
    DecisionProblem,
    Frozen,
    JointDistribution,
    Observation,
    ValidationError,
    _format,
    _leaf_weights,
    _over_lcm,
    _ratio,
    _require_probability_numerators,
    _require_probability_vector,
    _set,
    consistency,
    format_rational,
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

class ApparentDominanceWitness(Frozen):
    """A lottery beating a sequence strictly in every state, with its worst
    state-by-state margin (always positive)."""

    __slots__ = ("lottery", "margin")
    __match_args__ = __slots__
    lottery: tuple[tuple[str, Fraction], ...]
    margin: Fraction

    def __init__(self, lottery: tuple[tuple[str, Fraction], ...],
                 margin: Fraction) -> None:
        if margin <= 0:
            raise ValidationError("apparent-dominance margin must be positive")
        _require_probability_vector([w for _, w in lottery], "witness lottery")
        _set(self, "lottery", lottery)
        _set(self, "margin", margin)

    def to_json_dict(self) -> dict:
        return {
            "lottery": {a: format_rational(w) for a, w in self.lottery},
            "margin": format_rational(self.margin),
        }


def obedient_triple_to_json(law: JointDistribution) -> dict:
    """The report's ``obedient_triple`` spelling of an obedient law: the
    prior is the law's state marginal, and each state's recommendation row
    is its column over its mass.  A state with no mass gets point mass on
    the first leaf, which leaves the law unchanged."""
    width = len(law.states)
    prior, recommendation = {}, {}
    for s, state in enumerate(law.states):
        column = law.cells[s::width]
        mass = sum(column)
        if mass:
            prior[state] = _format(mass, law.den)
            recommendation[state] = {a: _format(x, mass)
                                     for a, x in zip(law.leaves, column) if x}
        else:
            recommendation[state] = {law.leaves[0]: "1"}
    return {"prior": prior, "recommendation": recommendation}


def obedient_triple_from_json(problem: DecisionProblem, doc: Mapping) -> JointDistribution:
    """The law that an ``obedient_triple`` spells: cell (i, s) is prior(s)
    times recommendation(s, i), in integers (the prior over one lcm, every
    row over another).  The prior and every row, a massless state's too,
    must be probability vectors."""
    rows = doc.get("recommendation")
    if not (isinstance(doc.get("prior"), Mapping) and isinstance(rows, Mapping)
            and all(isinstance(row, Mapping) for row in rows.values())):
        raise ValidationError("an obedient triple needs a 'prior' object and a "
                              "'recommendation' object of objects")
    n, width = len(problem.leaves), len(problem.states)
    prior = [(0, 1)] * width
    for s, q in doc["prior"].items():
        prior[problem.state_position(s)] = _ratio(q)
    kernel = [(0, 1)] * (width * n)  # state s's row is kernel[s * n:(s + 1) * n]
    for s, row in rows.items():
        first = problem.state_position(s) * n
        for i, q in _leaf_weights(problem, row, "recommendation", s).items():
            kernel[first + i] = q
    ps, pden = _over_lcm(prior)
    _require_probability_numerators(ps, pden, "prior")
    ks, kden = _over_lcm(kernel)
    for s in range(width):
        _require_probability_numerators(ks[s * n:(s + 1) * n], kden, "recommendation row")
    return JointDistribution(problem.leaves, problem.states, [
        p * ks[s * n + i] for i in range(n) for s, p in enumerate(ps)], pden * kden)


class Verdict(Frozen):
    """Outcome of a rationalizability test plus its independently checkable
    certificate: an obedient joint law when possible, a dominating rule when
    not.  The report spells the law as an obedient triple."""

    __slots__ = ("rationalizable", "witness")
    __match_args__ = __slots__
    rationalizable: bool
    witness: Union[JointDistribution, DeviationRule]

    def __init__(self, rationalizable: bool,
                 witness: Union[JointDistribution, DeviationRule]) -> None:
        _set(self, "rationalizable", rationalizable)
        _set(self, "witness", witness)

    def to_json_dict(self) -> dict:
        if self.rationalizable:
            body = {"kind": "obedient_triple", **obedient_triple_to_json(self.witness)}
        else:
            body = {"kind": "deviation_rule", "kernel": self.witness.to_json_dict()}
        return {"rationalizable": self.rationalizable, "witness": body}


# ---------------------------------------------------------------------------
# Dominance search (deviation-rule side)
# ---------------------------------------------------------------------------

def apparently_dominated(problem: DecisionProblem, a: str) -> Optional[ApparentDominanceWitness]:
    """Best uniform-margin lottery against ``a``: maximizes the worst-state
    payoff gap and returns a witness when that optimum is strictly positive.
    State s's row reads sum_b alpha(b) u(b, s) - margin >= u(a, s), times
    den, in the integers of `DecisionProblem.integer_payoffs` over their
    denominator den.  The mass row reads sum_b den * alpha(b) = den, so
    that every row that starts on an artificial column has the scale den."""
    table, den = problem.integer_payoffs
    prog = lpmod.LinearProgram()
    alpha = [prog.add_variable() for _ in problem.leaves]
    margin = prog.add_variable(free=True)
    prog.add_row(dict.fromkeys(alpha, den), "==", den)
    for s, own in enumerate(table[problem.tree.leaf_position(a)]):
        coeffs = {k: row[s] for k, row in zip(alpha, table) if row[s]}
        coeffs[margin] = -den
        prog.add_row(coeffs, ">=", own)
    prog.set_objective({margin: 1})
    sol = lpmod.solve(prog)
    if sol.status != "optimal":  # pragma: no cover - program is always bounded/feasible
        raise InternalInconsistencyError(f"margin program ended {sol.status}")
    if sol.value <= 0:
        return None
    xs, xden = sol.integer_assignment
    lottery = tuple((b, Fraction(x, xden)) for b, x in zip(problem.leaves, xs) if x)
    return ApparentDominanceWitness(lottery, sol.value)


def _checked(problem: DecisionProblem, rule: DeviationRule, observed: Observation) -> DeviationRule:
    if not dominates(problem, rule, observed):  # pragma: no cover - search bug
        raise InternalInconsistencyError("extracted rule fails its own dominance check")
    return rule


def _dominance_program(
    problem: DecisionProblem, observed: Observation, budget: bool = False
) -> tuple[lpmod.LinearProgram, tuple[int, ...], list[tuple[int, int, int]]]:
    """The dominance program of an observation, built from its consistency
    rows E gamma = e (`model.consistency`) alone, over the first-action
    blocks that hold a leaf of a row with e != 0; with the blocks' inputs,
    and its gain rows as (row, leaf, state).

    Maximize sum e * level over the rules D of the blocks' polytope rows
    (`lp.DeviationPolytope.rows_on`, first) and one free level per row on
    their inputs, in input order.  Gain row (i, s) reads sum_j D(i, j)
    (u(j, s) - u(i, s)) >= the level of (i, s)'s row, or 0 off the rows,
    times den: in the integers table[j][s] - table[i][s] of
    `DecisionProblem.integer_payoffs` over their denominator den, and
    level coefficient -den.  A row with neither a gain nor a level is left
    out.  Every other input keeps its identity row, feasible with gain 0.

    With ``budget`` the rules span a cone: the polytope rows read
    A D - lam b = 0, with one more column lam >= 0 after D's (new rows;
    the shared ones are never changed), and every gain row gets the
    right-hand side -1, times den.  By LP duality the optimum is then the
    least mass of an obedient law g with E g = e, its certificate is g
    itself, den times minus the gain rows' duals (`_obedient_law`), and
    the program is unbounded when no obedient law meets the rows: a rule
    then dominates.
    """
    table, den = problem.integer_payoffs
    n, width = len(problem.leaves), len(problem.states)
    rows = consistency(problem, observed)
    poly = problem.tree.per_tree(lpmod.deviation_polytope_constraints)
    inputs = poly.inputs(start // width for start, _, e in rows if e)
    prog = lpmod.LinearProgram([False] * (len(inputs) * n), list(poly.rows_on(inputs)))
    if budget:
        lam = prog.add_variable()
        prog.constraints = [lpmod.Constraint({**con.coeffs, lam: -con.rhs}, "==", 0)
                            if con.rhs else con for con in prog.constraints]
    inside = set(inputs)
    levels: dict[int, int] = {}  # cell -> the level column of its row
    objective = {}
    for start, stop, e in rows:
        if start // width in inside:
            k = prog.add_variable(free=True)
            objective[k] = e
            levels.update(dict.fromkeys(range(start, stop), k))
    prog.set_objective(objective)
    columns = list(zip(*table))
    gain_rows = []
    for p, i in enumerate(inputs):
        first = p * n
        for s, column in enumerate(columns):
            own = column[i]
            coeffs = {first + j: u - own for j, u in enumerate(column) if u != own}
            level = levels.get(i * width + s)
            if level is not None:
                coeffs[level] = -den
            elif not coeffs:
                continue
            gain_rows.append((len(prog.constraints), i, s))
            prog.add_row(coeffs, ">=", -den if budget else 0)
    return prog, inputs, gain_rows


def _obedient_law(
    problem: DecisionProblem, prog: lpmod.LinearProgram, sol: lpmod.LpSolution,
    gain_rows: list[tuple[int, int, int]],
) -> JointDistribution:
    """The obedient law that an optimum of a dominance program certifies,
    once `lp.check_duals` has passed its duals: g(i, s), minus the
    multiplier of gain row (i, s), scaled to mass 1.

    The polytope rows' multipliers y satisfy A^T y >= C(g), where C(g)[i][j]
    = sum_s g(i, s) (u(j, s) - u(i, s)), and b^T y <= 0: b^T y is a
    verdict program's optimum 0, and the reduced cost of a budget
    program's column lam.  So no rule gains on average under g on the
    touched blocks, the only ones where g has mass.  The levels are free,
    so their reduced costs are 0: E g = e / den, den the factor of the
    gain rows; the scaling to mass 1 takes it out.
    """
    if not lpmod.check_duals(prog, sol):  # pragma: no cover - solver bug
        raise InternalInconsistencyError("dual certificate fails its check")
    ys, _ = sol.integer_duals
    width = len(problem.states)
    cells = [0] * (len(problem.leaves) * width)
    for r, i, s in gain_rows:
        cells[i * width + s] = -ys[r]
    return JointDistribution(problem.leaves, problem.states, cells, sum(cells))


def _dominance(
    problem: DecisionProblem, observed: Observation
) -> Union[DeviationRule, JointDistribution]:
    """Solve the dominance program of an observation (`_dominance_program`),
    and read its certificate: at a positive optimum the rule, with identity
    rows outside the touched blocks; at value 0 the obedient law of its
    duals (`_obedient_law`).
    """
    prog, inputs, gain_rows = _dominance_program(problem, observed)
    sol = lpmod.solve(prog)
    if sol.status != "optimal":  # pragma: no cover - identity rule is feasible, gains bounded
        raise InternalInconsistencyError(f"dominance program ended {sol.status}")
    if sol.value > 0:
        xs, xden = sol.integer_assignment
        n = len(problem.leaves)
        rows = [[(i, xden)] for i in range(n)]
        for p, i in enumerate(inputs):
            rows[i] = [(j, x) for j, x in enumerate(xs[p * n:p * n + n]) if x]
        return _checked(problem, DeviationRule(problem.tree, rows, xden), observed)
    return _obedient_law(problem, prog, sol, gain_rows)


def max_positive_marginal(
    problem: DecisionProblem, a: str
) -> tuple[Fraction, Optional[JointDistribution]]:
    """Maximize the probability of ``a`` over all obedient joint laws.

    Returns the exact maximum and a maximizing joint law (None when the
    maximum is zero, i.e. ``a`` never occurs under obedient behavior).  The
    budget program of ``a`` (`_dominance_program`) finds the least mass
    l* of an obedient law with mass 1 on ``a``, so the maximum is 1 / l*,
    attained by that law scaled to mass 1.  It is unbounded exactly when
    no obedient law puts mass on ``a``: then a rule dominates ``a``
    (Farkas), and the maximum is 0.
    """
    prog, _, gain_rows = _dominance_program(problem, a, budget=True)
    sol = lpmod.solve(prog)
    if sol.status == "unbounded":
        return Fraction(0), None
    if sol.status != "optimal":  # pragma: no cover - the zero rule is feasible
        raise InternalInconsistencyError(f"budget program ended {sol.status}")
    return 1 / sol.value, _obedient_law(problem, prog, sol, gain_rows)


def certificate(
    problem: DecisionProblem, observed: Observation
) -> Union[DeviationRule, JointDistribution]:
    """The checked certificate that decides ``observed``: a dominating rule,
    or else an obedient joint law that induces the observation (positive
    mass on a sequence, or exactly a marginal or joint law).  A joint law is
    decided by backward induction and is its own witness; a sequence or a
    marginal by one LP, whose duals give the law."""
    if isinstance(observed, JointDistribution):
        gain, targets = best_joint_deviation(problem, observed)
        return _checked(problem, pure_rule(problem, targets()), observed) if gain > 0 else observed
    return _dominance(problem, observed)


def dominating_rule(problem: DecisionProblem, observed: Observation) -> Optional[DeviationRule]:
    """The rule that gains most on ``observed``, when it dominates
    (`deviation.dominates`); None when no rule dominates, that is, when
    ``observed`` is rationalizable."""
    found = certificate(problem, observed)
    return found if isinstance(found, DeviationRule) else None


def decide(problem: DecisionProblem, observed: Observation) -> Verdict:
    """Decide whether ``observed`` is rationalizable: a dominating rule, or
    an obedient joint law that induces the observation (see `certificate`)."""
    found = certificate(problem, observed)
    return Verdict(not isinstance(found, DeviationRule), found)
