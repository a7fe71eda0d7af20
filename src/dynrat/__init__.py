"""dynrat: exact rationalizability tests for dynamic Bayesian choice.

Given a finite dynamic decision problem and observed behavior (one action
sequence, a joint action-state law, or an action-sequence law), decide whether
some prior and sequential information flow make the behavior optimal.  Every
answer ships with an independently checkable certificate: a dominating
deviation rule when the answer is no, an obedient joint law of recommended
leaves and states when it is yes (a report spells it as an obedient
triple, a prior plus recommendation kernel).
All arithmetic is exact.

The names of `structures` (explicit information structures, strategies and
the sampler) and of `risk` (payoff transforms) are resolved on first
access, so importing `dynrat`, or running a query, loads neither module.
"""

from .analysis import IdentifiedSet, identified_set
from .deviation import (
    DEFAULT_MAX_RULES,
    DeviationRule,
    SizeGuardError,
    dominates,
    enumerate_pure_rules,
    identity_rule,
    is_adapted,
)
from .lp import (
    Constraint,
    DeviationPolytope,
    LinearProgram,
    LpSolution,
    check_duals,
    deviation_polytope_constraints,
    solve,
)
from .model import (
    PAD,
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
from .oracle import brute_force_rationalizable_joint, verify_obedient_optimality, verify_witness
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
    "decide",
    "deviation_polytope_constraints",
    "dominates",
    "dominating_rule",
    "enumerate_pure_rules",
    "format_rational",
    "identified_set",
    "identity_rule",
    "instantiate",
    "is_adapted",
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

# The module that holds each name no query runs, imported on first access.
_LAZY = {
    "InformationStructure": "structures",
    "Strategy": "structures",
    "optimal_value_dp": "structures",
    "simulate": "structures",
    "strategy_value": "structures",
    "PiecewiseLinearFunction": "risk",
    "risk_transform": "risk",
}


def __getattr__(name: str):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = getattr(import_module(f"{__name__}.{_LAZY[name]}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return __all__
