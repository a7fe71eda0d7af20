"""Quantities built on top of the rationalizability core.

* the largest probability with which a sequence can appear under obedient
  behavior,
* parameter regions consistent with an observation of any kind (grid scan
  plus bisection of every sign change, each reported interval backed by an
  exact sample test with `rationalize.dominating_rule`),
* rule-wise consistency screens over a parameter grid
  (`deviation.dominates`), and
* increasing convex payoff transforms for risk-attitude comparisons.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence, Union

from .deviation import AnyRule, dominates
from .model import (
    ActionSequence,
    AffineExpr,
    DecisionProblem,
    Observation,
    ValidationError,
    format_rational,
    parse_rational,
    substitute_params,
)
from .rationalize import dominating_rule, max_positive_marginal


def max_rationalizable_probability(problem: DecisionProblem, a: ActionSequence) -> Fraction:
    """Largest probability of ``a`` over all obedient joint laws, exactly.

    Zero precisely when ``a`` is truly dominated; one precisely when no
    lottery beats ``a`` uniformly across states.
    """
    value, _ = max_positive_marginal(problem, a)
    return value


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
    with the same ordinal ranking of certain outcomes."""
    if problem.has_params:
        raise ValidationError("instantiate the problem's parameters first")
    utilities = tuple(
        (entries, state, AffineExpr.make(f(expr.constant)))
        for entries, state, expr in problem.utilities
    )
    return DecisionProblem(
        periods=problem.periods,
        states=problem.states,
        param_names=(),
        branches=problem.branches,
        utilities=utilities,
    )


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
    rule: AnyRule,
    observation: Observation,
    grid: Sequence[Union[int, str, Fraction]],
    *,
    param: Optional[str] = None,
    bounds: Optional[tuple[Fraction, Fraction]] = None,
    fixed: Optional[dict] = None,
) -> tuple[bool, ...]:
    """For each grid point, whether ``rule`` fails to dominate the observation
    there.  True marks parameter values the rule cannot exclude; the
    consistent region is contained in this set for every rule."""
    if param is None:
        if len(problem.param_names) != 1 and fixed is None:
            raise ValidationError("name the parameter to sweep")
        param = next(p for p in problem.param_names if p not in (fixed or {}))
    family = _single_param_family(problem, param, fixed)
    points = [parse_rational(g) for g in grid]
    if bounds is not None:
        lo, hi = parse_rational(bounds[0]), parse_rational(bounds[1])
        for pt in points:
            if pt < lo or pt > hi:
                raise ValidationError(f"grid point {format_rational(pt)} outside declared range")
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
        """Tag of the interval containing ``point`` ("gap" wins at seams)."""
        point = parse_rational(point)
        hit = "out"
        for lo, hi, tag in self.intervals:
            if lo <= point <= hi:
                if tag == "gap":
                    return "gap"
                hit = tag
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
    is certified by its sampled endpoints only.
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

    def test(point: Fraction) -> bool:
        return dominating_rule(substitute_params(family, {param: point}), observation) is None

    step = (hi - lo) / (grid_points - 1)
    grid = [lo + i * step for i in range(grid_points)]
    verdicts = [test(g) for g in grid]

    intervals: list[tuple[Fraction, Fraction, str]] = []
    region_start = grid[0]
    for i in range(len(grid) - 1):
        if verdicts[i] == verdicts[i + 1]:
            continue
        x, y = grid[i], grid[i + 1]
        vx = verdicts[i]
        while y - x > tol:
            mid = (x + y) / 2
            if test(mid) == vx:
                x = mid
            else:
                y = mid
        intervals.append((region_start, x, "in" if vx else "out"))
        intervals.append((x, y, "gap"))
        region_start = y
    intervals.append((region_start, grid[-1], "in" if verdicts[-1] else "out"))
    return IdentifiedSet(param, tuple(intervals))
