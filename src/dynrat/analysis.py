"""Quantities built on top of the rationalizability core.

* parameter regions consistent with an observation of any kind (a grid
  scan galloping from the left, and from the far end once a law holds at
  its own point alone, plus bisection of every sign change; each sample is
  decided by a certificate that holds there, carried from an earlier
  sample while it still holds and otherwise found afresh by
  `rationalize.certificate`),
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
    a bisection point the rule is tried first (`deviation.dominates`:
    "out"), then the law (`deviation.best_joint_deviation` gains nothing: it
    is obedient here, and it induces the observation whatever the
    parameter, so "in"); only when neither passes is the point decided
    afresh.  Joint data is its own law, so it is not carried: its check is
    the fresh decision.

    The grid is scanned by galloping, from the left.  Once grid point i is
    decided by a certificate C, C is checked at points i+1, i+2, i+4, ...
    until it fails or the undecided points end, then by bisection between
    the last point where it holds and the first where it fails; every point
    up to the last one where C holds takes C's verdict unchecked.  This is
    exact, because with the utilities affine in the swept parameter t and
    the observation fixed, the set of t where C holds is an interval.  A
    rule's gains are affine in t, and the observation's consistency rows do
    not depend on t.  Each row's level (`deviation.dominates`) is a minimum
    of gains, so sum e * level is concave, and each cell in no row gives an
    affine constraint: the rule dominates on an interval.  A law is
    obedient where the largest gain of a pure rule, a maximum of affine
    functions of t, is <= 0, again an interval.

    The grid is covered from both ends.  The first time a law holds at its
    own grid point alone, the last grid point is decided next and its
    certificate galloped leftward in the same way, down to the points
    already decided; the scan from the left then goes on between the two.
    Where the law found at t is obedient at or below t only, a scan from
    the left pays one LP per "in" point, and the law of the last point
    covers them all.  Where the far end's certificate reaches less far than
    the one the scan from the left would have met, the turn costs one LP
    more.  A rule does not turn the scan: on random families, turning at
    rules as well cost more LPs than it saved.

    Past the first grid point where C fails, in the direction it is
    galloped, it fails at every point still undecided, so it is not tried
    again on the grid: a grid point that no gallop reaches is decided
    afresh.  Every sample thus gets the verdict a fresh decision would give
    it; no point is pinned twice, and no certificate is checked twice at
    one point.  For sequence and marginal data, until the scan turns to
    the far end, it solves the same LPs as a point-by-point scan, in the
    same order; for joint data, whose own law is checked by a fresh
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

    def decide(at: DecisionProblem) -> Certificate:
        """The certificate that decides ``at``: a carried one that holds
        there, else a fresh one."""
        for carried in (rule, law):
            if carried is not None and holds(carried, at):
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

    verdicts: list[bool] = [False] * grid_points

    def cover(start: int, stop: int) -> int:
        """Decide grid point ``start`` afresh and gallop its certificate
        toward ``stop`` (exclusive, on either side): the last point it
        reaches."""
        at = pin(start)
        cert = found_at.pop(start, None) or fresh(at)
        toward = 1 if stop > start else -1
        # cert holds at `good`; it fails at `bad`, or `bad` is `stop`
        good, bad, jump = start, stop, 1
        while abs(bad - good) > 1:
            k = (start + toward * min(jump, abs(stop - start) - 1) if bad == stop
                 else (good + bad) // 2)
            jump *= 2
            if probe(cert, k):
                good = k
            else:
                bad = k
        first, last = sorted((start, good))
        verdicts[first:last + 1] = [not isinstance(cert, DeviationRule)] * (last + 1 - first)
        return good

    # Grid points left .. right - 1 are undecided.  The first law that holds
    # at its own point alone turns the scan to the far end: the last point
    # is decided next and its certificate galloped leftward.
    left, right = 0, grid_points
    while left < right:
        good = cover(left, right)
        if verdicts[left] and good == left and left + 1 < right == grid_points:
            right = cover(right - 1, left)
        left = good + 1

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
