"""dynrat: exact rationalizability tests for dynamic Bayesian choice.

Given a finite dynamic decision problem and observed behavior (one action
sequence, a joint action-state law, or an action-sequence law), decide whether
some prior and sequential information flow make the behavior optimal.  Every
answer ships with an independently checkable certificate: a dominating
deviation rule when the answer is no, an obedient joint law of recommended
leaves and states when it is yes (a report spells it as an obedient
triple, a prior plus recommendation kernel).
All arithmetic is exact.
"""

from .analysis import (
    IdentifiedSet,
    PiecewiseLinearFunction,
    identified_set,
    lambda_D_set,
    risk_transform,
)
from .deviation import (
    DEFAULT_MAX_RULES,
    DeviationRule,
    SizeGuardError,
    compose,
    dominates,
    enumerate_pure_rules,
    gains,
    identity_rule,
    is_adapted,
)
from .lp import (
    Constraint,
    DeviationPolytope,
    LinearProgram,
    LpSolution,
    check_duals,
    check_solution,
    deviation_polytope_constraints,
    solve,
)
from .model import (
    PAD,
    ActionSequence,
    DecisionProblem,
    JointDistribution,
    MarginalDistribution,
    ParseError,
    Tree,
    ValidationError,
    format_rational,
    instantiate,
    load_problem,
    parse_rational,
    problem_from_dict,
    problem_to_dict,
)
from .oracle import (
    InformationStructure,
    Strategy,
    brute_force_rationalizable_joint,
    optimal_value_dp,
    simulate,
    strategy_value,
    verify_obedient_optimality,
    verify_witness,
)
from .rationalize import (
    ApparentDominanceWitness,
    InternalInconsistencyError,
    Verdict,
    apparently_dominated,
    decide,
    dominating_rule,
    max_positive_marginal,
    obedient_triple_from_json,
    obedient_triple_to_json,
)

__version__ = "0.1.0"

__all__ = [
    "PAD",
    "ActionSequence",
    "ApparentDominanceWitness",
    "Constraint",
    "DEFAULT_MAX_RULES",
    "DecisionProblem",
    "DeviationPolytope",
    "DeviationRule",
    "IdentifiedSet",
    "InformationStructure",
    "InternalInconsistencyError",
    "JointDistribution",
    "LinearProgram",
    "LpSolution",
    "MarginalDistribution",
    "ParseError",
    "PiecewiseLinearFunction",
    "SizeGuardError",
    "Strategy",
    "Tree",
    "ValidationError",
    "Verdict",
    "apparently_dominated",
    "brute_force_rationalizable_joint",
    "check_duals",
    "check_solution",
    "compose",
    "decide",
    "deviation_polytope_constraints",
    "dominates",
    "dominating_rule",
    "enumerate_pure_rules",
    "format_rational",
    "gains",
    "identified_set",
    "identity_rule",
    "instantiate",
    "is_adapted",
    "lambda_D_set",
    "load_problem",
    "max_positive_marginal",
    "obedient_triple_from_json",
    "obedient_triple_to_json",
    "optimal_value_dp",
    "parse_rational",
    "problem_from_dict",
    "problem_to_dict",
    "risk_transform",
    "simulate",
    "solve",
    "strategy_value",
    "verify_obedient_optimality",
    "verify_witness",
]
