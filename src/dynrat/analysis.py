"""Quantities built on top of the rationalizability core.

* parameter regions consistent with an observation of any kind (galloping
  grid scan plus bisection of every sign change; each sample is decided by
  a certificate that holds there, carried from an earlier sample while it
  still holds and otherwise found afresh by `rationalize.certificate`),
* rule-wise consistency screens over a parameter grid
  (`deviation.dominates`), and
* increasing convex payoff transforms for risk-attitude comparisons.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence, Union

from .deviation import DeviationRule, best_joint_deviation, dominates
from .model import (
    DecisionProblem,
    JointDistribution,
    Observation,
    ValidationError,
    _over_lcm,
    format_rational,
    parse_rational,
    substitute_params,
)
from .rationalize import certificate

#: What decides one sweep point: a dominating rule ("out") or an obedient
#: joint law that induces the observation ("in").
Certificate = Union[DeviationRule, JointDistribution]


# ---------------------------------------------------------------------------
# Payoff transforms
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PiecewiseLinearFunction:
    """An increasing convex piecewise-linear map on the rationals.

    ``slopes`` has one more entry than ``breakpoints`` (leftmost segment
    first); ``anchor_value`` is the value at the first breakpoint.  Increasing
    means every slope is positive; convex means slopes never decrease.
    """

    breakpoints: tuple[Fraction, ...]
    slopes: tuple[Fraction, ...]
    anchor_value: Fraction

    def __post_init__(self) -> None:
        if not self.breakpoints:
            raise ValidationError("at least one breakpoint is required")
        if any(b >= c for b, c in zip(self.breakpoints, self.breakpoints[1:])):
            raise ValidationError("breakpoints must be strictly increasing")
        if len(self.slopes) != len(self.breakpoints) + 1:
            raise ValidationError("need one slope per segment")
        if any(s <= 0 for s in self.slopes):
            raise ValidationError("transform must be strictly increasing")
        if any(s > t for s, t in zip(self.slopes, self.slopes[1:])):
            raise ValidationError("transform must be convex (slopes non-decreasing)")

    @staticmethod
    def affine(slope, intercept) -> "PiecewiseLinearFunction":
        s = parse_rational(slope)
        i = parse_rational(intercept)
        return PiecewiseLinearFunction((Fraction(0),), (s, s), i)

    @staticmethod
    def identity() -> "PiecewiseLinearFunction":
        return PiecewiseLinearFunction.affine(1, 0)

    def __call__(self, x: Fraction) -> Fraction:
        x = parse_rational(x)
        b = self.breakpoints
        if x <= b[0]:
            return self.anchor_value - self.slopes[0] * (b[0] - x)
        value = self.anchor_value
        for i in range(len(b)):
            hi = b[i + 1] if i + 1 < len(b) else None
            if hi is None or x <= hi:
                return value + self.slopes[i + 1] * (x - b[i])
            value += self.slopes[i + 1] * (hi - b[i])
        raise AssertionError("unreachable")


def risk_transform(problem: DecisionProblem, f: PiecewiseLinearFunction) -> DecisionProblem:
    """Apply ``f`` to every terminal utility; models a less risk-averse agent
    with the same ordinal ranking of certain outcomes.  The result shares
    ``problem``'s tree."""
    if problem.has_params:
        raise ValidationError("instantiate the problem's parameters first")
    nums, den = _over_lcm([f(Fraction(row[0], problem.den)).as_integer_ratio() for row in problem.table])
    return DecisionProblem(problem.tree, problem.states, (), tuple(zip(nums)), den)


# ---------------------------------------------------------------------------
# Parameter sweeps
# ---------------------------------------------------------------------------

def _single_param_family(
    problem: DecisionProblem, param: str, fixed: Optional[dict]
) -> DecisionProblem:
    if param not in problem.param_names:
        raise ValidationError(f"unknown parameter {param!r}")
    pinned = {name: parse_rational(v) for name, v in (fixed or {}).items()}
    unknown = set(pinned) - set(problem.param_names)
    if unknown:
        raise ValidationError(f"unknown parameter {sorted(unknown)[0]!r}")
    if param in pinned:
        raise ValidationError(f"cannot both sweep and fix {param!r}")
    family = substitute_params(problem, pinned)
    others = [p for p in family.param_names if p != param]
    if others:
        raise ValidationError(
            f"one-dimensional sweep only: fix parameter {others[0]!r} first"
        )
    return family


def lambda_D_set(
    problem: DecisionProblem,
    rule: DeviationRule,
    observation: Observation,
    grid: Sequence[Union[int, str, Fraction]],
    *,
    param: Optional[str] = None,
    fixed: Optional[dict] = None,
) -> tuple[bool, ...]:
    """For each grid point, whether ``rule`` fails to dominate the observation
    there.  True marks parameter values the rule cannot exclude; the
    consistent region is contained in this set for every rule."""
    if param is None:
        left = [p for p in problem.param_names if p not in (fixed or {})]
        if not left:
            raise ValidationError("no parameter left to sweep")
        if len(problem.param_names) != 1 and fixed is None:
            raise ValidationError("name the parameter to sweep")
        param = left[0]
    family = _single_param_family(problem, param, fixed)
    points = [parse_rational(g) for g in grid]
    return tuple(not dominates(substitute_params(family, {param: pt}), rule, observation)
                 for pt in points)


@dataclass(frozen=True)
class IdentifiedSet:
    """Certified parameter intervals: "in" and "out" pieces separated by
    narrow "gap" pieces around detected boundaries.

    Every "in"/"out" interval contains at least one exactly tested sample; no
    interval structure is assumed beyond what the samples show.
    """

    param: str
    intervals: tuple[tuple[Fraction, Fraction, str], ...]

    def __post_init__(self) -> None:
        for (lo, hi, tag) in self.intervals:
            if lo > hi or tag not in ("in", "out", "gap"):
                raise ValidationError("malformed identified-set interval")
        for (_, hi, _), (lo2, _, _) in zip(self.intervals, self.intervals[1:]):
            if hi != lo2:
                raise ValidationError("identified-set intervals must tile the range")

    def tag_at(self, point: Fraction) -> str:
        """Tag of the interval containing ``point`` ("gap" wins at seams).

        A point outside the swept range was never tested, so it has no tag.
        """
        point = parse_rational(point)
        hit = None
        for lo, hi, tag in self.intervals:
            if lo <= point <= hi:
                if tag == "gap":
                    return "gap"
                hit = tag
        if hit is None:
            raise ValidationError(f"{format_rational(point)} lies outside the swept range")
        return hit

    def to_json_dict(self) -> dict:
        return {
            "param": self.param,
            "intervals": [
                {"lo": format_rational(lo), "hi": format_rational(hi), "tag": tag}
                for lo, hi, tag in self.intervals
            ],
        }


def identified_set(
    problem: DecisionProblem,
    observation: Observation,
    param: str,
    lo: Union[int, str, Fraction],
    hi: Union[int, str, Fraction],
    *,
    tolerance: Union[None, int, str, Fraction] = None,
    grid_points: int = 33,
    fixed: Optional[dict] = None,
) -> IdentifiedSet:
    """Parameter values at which the observation is rationalizable.

    Scans an equispaced rational grid, then bisects every cell whose endpoints
    disagree until the bracketing gap is at most ``tolerance`` (default: range
    width / 1024).  Non-monotone families are handled; each reported interval
    is certified by its sampled points only.

    Each sample's verdict rests on an exact certificate checked at that
    sample.  The sweep carries the last dominating rule and the last
    obedient joint law that `rationalize.certificate` found (the law read
    from the dominance program's duals and checked by `lp.check_duals`).  At
    a new point the rule is tried first (`deviation.dominates`: "out"), then
    the law (`deviation.best_joint_deviation` gains nothing: it is obedient
    here, and it induces the observation whatever the parameter, so "in");
    only when neither passes is the point decided afresh.  Joint data is its
    own law, so it is not carried: its check is the fresh decision.

    The grid is scanned by galloping.  Once grid point i is decided by a
    certificate C, C is checked at points i+1, i+2, i+4, ... until it fails
    or the grid ends, then by bisection between the last point where it
    holds and the first where it fails; every point up to the last one
    where C holds takes C's verdict unchecked.  This is exact, because with
    the utilities affine in the swept parameter t and the observation
    fixed, the set of t where C holds is an interval.  A rule's gains are
    affine in t, and the observation's consistency rows do not depend on
    t.  Each row's level (`deviation.dominates`) is a minimum of gains, so
    sum e * level is concave, and each cell in no row gives an affine
    constraint: the rule dominates on an interval.  A law is obedient
    where the largest gain of a pure rule, a maximum of affine functions
    of t, is <= 0, again an interval.

    Past the first grid point where C fails it fails everywhere, so it is
    not tried again on the grid.  Every sample thus gets the verdict a
    fresh decision would give it; no point is pinned twice, and no
    certificate is checked twice at one point.  For sequence and marginal
    data the galloping scan solves the same LPs as a point-by-point scan,
    in the same order; for joint data, whose own law is checked by a fresh
    decision, it solves none.  The bisection phase decides each of its
    points as above.

    A sample costs no rebuilding: `substitute_params` evaluates the
    family's integer table at the sample and builds a problem on the
    family's tree, which is not validated again, and it shares what depends
    on the tree alone (the deviation polytope, the prefix tree of the
    backward induction), which is built once per sweep.  A carried rule
    keeps its rows in integers.
    """
    lo = parse_rational(lo)
    hi = parse_rational(hi)
    if lo >= hi:
        raise ValidationError("empty sweep range")
    tol = (hi - lo) / 1024 if tolerance is None else parse_rational(tolerance)
    if tol <= 0:
        raise ValidationError("tolerance must be positive")
    if grid_points < 2:
        raise ValidationError("need at least two grid points")
    family = _single_param_family(problem, param, fixed)

    rule: Optional[DeviationRule] = None
    law: Optional[JointDistribution] = None

    def fresh(at: DecisionProblem) -> Certificate:
        nonlocal rule, law
        found = certificate(at, observation)
        if isinstance(found, DeviationRule):
            rule = found
        elif found is not observation:  # joint data: checking it is deciding it
            law = found
        return found

    def holds(cert: Certificate, at: DecisionProblem) -> bool:
        if isinstance(cert, DeviationRule):
            return dominates(at, cert, observation)
        return best_joint_deviation(at, cert)[0] <= 0

    def decide(at: DecisionProblem, dead: Sequence[Certificate] = ()) -> Certificate:
        """The certificate that decides ``at``: a carried one that holds
        there, else a fresh one.  Those in ``dead`` are known to fail."""
        for carried in (rule, law):
            if (carried is not None and all(carried is not d for d in dead)
                    and holds(carried, at)):
                return carried
        return fresh(at)

    step = (hi - lo) / (grid_points - 1)
    grid = [lo + i * step for i in range(grid_points)]
    pinned: dict[int, DecisionProblem] = {}  # grid points where a probe failed
    found_at: dict[int, Certificate] = {}  # and their fresh decision, for joint data

    def pin(k: int) -> DecisionProblem:
        at = pinned.pop(k, None)
        return substitute_params(family, {param: grid[k]}) if at is None else at

    def probe(cert: Certificate, k: int) -> bool:
        at = pin(k)
        if cert is observation:  # joint data: the check is the decision
            found = fresh(at)
            if found is observation:
                return True
            found_at[k] = found
        elif holds(cert, at):
            return True
        pinned[k] = at
        return False

    verdicts: list[bool] = []
    dead: list[Certificate] = []
    while len(verdicts) < grid_points:
        i = len(verdicts)
        at = pin(i)
        cert = found_at.pop(i, None) or decide(at, dead)
        # cert holds at `good`; it fails at `bad`, or `bad` is past the end
        good, bad, jump = i, grid_points, 1
        while good + 1 < bad:
            k = min(i + jump, grid_points - 1) if bad == grid_points else (good + bad) // 2
            jump *= 2
            if probe(cert, k):
                good = k
            else:
                bad = k
        if bad < grid_points:
            dead.append(cert)
        verdicts += [not isinstance(cert, DeviationRule)] * (good + 1 - i)

    intervals: list[tuple[Fraction, Fraction, str]] = []
    region_start = grid[0]
    for i in range(len(grid) - 1):
        if verdicts[i] == verdicts[i + 1]:
            continue
        x, y = grid[i], grid[i + 1]
        vx = verdicts[i]
        while y - x > tol:
            mid = (x + y) / 2
            at = substitute_params(family, {param: mid})
            if (not isinstance(decide(at), DeviationRule)) == vx:
                x = mid
            else:
                y = mid
        intervals.append((region_start, x, "in" if vx else "out"))
        intervals.append((x, y, "gap"))
        region_start = y
    intervals.append((region_start, grid[-1], "in" if verdicts[-1] else "out"))
    return IdentifiedSet(param, tuple(intervals))
