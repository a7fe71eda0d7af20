"""Quantities built on top of the rationalizability core.

* parameter regions consistent with an observation of any kind (a
  galloping grid scan plus bisection of every sign change).  A sequence or
  marginal sample is decided by a certificate that holds there: a rule met
  earlier, on its affine gains with nothing pinned; the last law met, by
  the induction on the family pinned there; else a fresh one
  (`rationalize.certificate`).  A joint law's obedient interval is found
  once by cutting planes, and each sample is decided by membership.
  Samples are integers over one denominator per sweep, and the family
  is built once per sweep; verdicts and intervals are those in rationals.
* rule-wise consistency screens over a parameter grid (the sign test of
  `deviation.dominates` on the rule's affine gains), and
* increasing convex payoff transforms for risk-attitude comparisons.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from typing import Callable, Optional, Sequence, Union

from .deviation import DeviationRule, affine_gains, best_joint_deviation, gains_dominate
from .model import (
    DecisionProblem,
    JointDistribution,
    Observation,
    ValidationError,
    _over_lcm,
    consistency,
    format_rational,
    parse_rational,
    substitute_params,
)
from .rationalize import InternalInconsistencyError, certificate

#: A rule's integer gains on a one-parameter family's constant and slope
#: columns (`deviation.affine_gains`).
AffineGains = tuple[list[int], list[int]]
#: What decides one sweep point: a dominating rule, by its affine gains
#: ("out"), or an obedient joint law that induces the observation ("in").
Certificate = Union[AffineGains, JointDistribution]


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
    """``problem`` with ``fixed`` pinned, ``param`` its one parameter left;
    ``problem`` itself when nothing is fixed."""
    if param not in problem.param_names:
        raise ValidationError(f"unknown parameter {param!r}")
    pinned = {name: parse_rational(v) for name, v in (fixed or {}).items()}
    unknown = set(pinned) - set(problem.param_names)
    if unknown:
        raise ValidationError(f"unknown parameter {sorted(unknown)[0]!r}")
    if param in pinned:
        raise ValidationError(f"cannot both sweep and fix {param!r}")
    family = substitute_params(problem, pinned) if pinned else problem
    others = [p for p in family.param_names if p != param]
    if others:
        raise ValidationError(
            f"one-dimensional sweep only: fix parameter {others[0]!r} first"
        )
    return family


def _dominates_at(gains: AffineGains, rows: Sequence[tuple[int, int, int]],
                  m: int, d: int) -> bool:
    """`deviation.dominates` at t = m/d (d > 0) with nothing pinned: its
    sign test on the rule's affine gains d*A + m*B (`deviation.affine_gains`)."""
    return gains_dominate([d * a + m * b for a, b in zip(*gains)], rows)


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
    consistent region is contained in this set for every rule.  The rule's
    gains are taken once on the family and tested at each point unpinned."""
    if param is None:
        left = [p for p in problem.param_names if p not in (fixed or {})]
        if not left:
            raise ValidationError("no parameter left to sweep")
        if len(problem.param_names) != 1 and fixed is None:
            raise ValidationError("name the parameter to sweep")
        param = left[0]
    family = _single_param_family(problem, param, fixed)
    points = [parse_rational(g) for g in grid]
    gains, rows = affine_gains(family, rule), consistency(family, observation)
    return tuple(not _dominates_at(gains, rows, *pt.as_integer_ratio()) for pt in points)


def _obedient_interval(family: DecisionProblem, joint: JointDistribution, lo: Fraction,
                       hi: Fraction, pin: Callable[[Fraction], DecisionProblem]
                       ) -> tuple[Fraction, Fraction]:
    """The interval [first, last] of [lo, hi] where ``joint`` is obedient
    (empty if first > last), by cutting planes (Kelley 1960).  The law
    is obedient on an interval S, where the largest gain of a pure rule,
    a maximum of affine functions of t, is <= 0.  At a point where it
    gains, the induction's rule gains alpha + beta*t on the law: a cut,
    S lies where it is <= 0.  [first, last] is where every cut so far is
    <= 0; the induction runs at an end not yet found obedient, left
    first, until both are (S = [first, last], by convexity) or none is
    left.  Each end meets every cut so far, so each cut is a new rule."""
    first, last, obedient = lo, hi, set()
    while first <= last and not {first, last} <= obedient:
        t = last if first in obedient else first
        gain, rule = best_joint_deviation(pin(t), joint)
        if gain <= 0:
            obedient.add(t)
            continue
        gains = affine_gains(family, rule())
        if not _dominates_at(gains, joint.consistency_rows,  # pragma: no cover - bug
                             *t.as_integer_ratio()):
            raise InternalInconsistencyError("the induction's rule does not dominate the law")
        alpha, beta = (sum(x * g for x, g in zip(joint.cells, column)) for column in gains)
        if beta > 0:
            last = min(last, Fraction(-alpha, beta))
        elif beta < 0:
            first = max(first, Fraction(-alpha, beta))
        else:  # the rule gains at every t
            return hi, lo
    return first, last


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

    Every sample gets the verdict a fresh decision would give it, from an
    exact certificate, and each certificate holds on an interval of the
    swept parameter t.  A rule's gains are affine in t
    (`deviation.affine_gains`) and the consistency rows do not depend on
    t, so sum e * level is concave and each cell in no row an affine
    constraint (`deviation.gains_dominate`): the rule dominates on an
    interval.  A law is obedient where the largest gain of a pure rule, a
    maximum of affine functions of t, is <= 0, again an interval.

    Every sample is an integer m over one denominator D = lcm(den lo,
    den hi) * (grid_points - 1) * 2^k, fixed once per sweep, where k
    halvings bring a grid cell within ``tolerance`` (k = 0 when it is at
    least the grid step): each cell whose ends disagree is halved k times,
    at integer midpoints.  A `Fraction` is built only at a pin and for the
    reported interval ends; samples and intervals are those in rationals.

    Sequence and marginal data.  A rule is checked at t = m/D with nothing
    pinned, by the sign test on D*A + m*B ("out").  A law is checked on
    the family pinned at t (`substitute_params`): the backward induction
    gains nothing, and the law induces the observation whatever t is
    ("in").  A fresh decision (`rationalize.certificate`) pins t and
    solves one LP, for a rule or a law read from its duals and checked by
    `lp.check_duals`.  So a sample is pinned only where a law is checked
    or an LP solved, and never twice.  The grid is galloped from the
    left: once grid point i is decided afresh by C, C is checked at i+1,
    i+2, i+4, ... until it fails or the undecided points end, then by
    bisection, and every point up to the last one where it holds takes
    its verdict unchecked.  Past the first point where C fails it fails
    at every point still undecided, so a grid point that no gallop
    reaches is decided afresh.  The first time a law holds at its own
    grid point alone, the last grid point is decided next and its
    certificate galloped leftward, down to the points already decided;
    where the law found at t is obedient at or below t only, that turns
    one LP per "in" point into one LP (a turn at rules as well cost more
    LPs than it saved, on random families).  A bisection point tries
    every rule met so far, newest first, then the last law met, and is
    decided afresh only when none holds.

    Joint data is its own law, obedient on one interval [first, last] of
    [lo, hi] that `_obedient_interval` computes by cutting planes with
    the induction, pinning only where the induction runs.  Every sample
    is then decided by membership, first * D <= m <= last * D: "in"
    between two points where the induction gained nothing, by convexity;
    "out" where a cut's rule dominates the law.

    Built once per sweep: the family (``problem`` itself when nothing is
    fixed), the consistency rows and each rule's affine gains.  A pin
    shares the family's tree and what is built on it alone (the deviation
    polytope with its rows per block set, the induction's prefix tree).
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
    base = math.lcm(lo.denominator, hi.denominator) * (grid_points - 1)
    step = int((hi - lo) * base) // (grid_points - 1)  # the grid step, over base
    # k, the least number of halvings with step / 2^k <= tol * base
    k = (-(-step * tol.denominator // (base * tol.numerator)) - 1).bit_length()
    den = base << k  # D
    grid = range(int(lo * den), int(hi * den) + 1, step << k)
    pin = cache(lambda m: substitute_params(family, {param: Fraction(m, den)}))  # once per sample
    rows = consistency(family, observation)
    rules: list[AffineGains] = []  # every dominating rule met, oldest first
    law: Optional[JointDistribution] = None  # the last obedient law met

    def fresh(m: int) -> Certificate:
        nonlocal law
        found = certificate(pin(m), observation)
        if isinstance(found, JointDistribution):
            law = found
            return found
        rules.append(affine_gains(family, found))
        return rules[-1]

    def holds(cert: Certificate, m: int) -> bool:
        if isinstance(cert, JointDistribution):
            return best_joint_deviation(pin(m), cert)[0] <= 0
        return _dominates_at(cert, rows, m, den)

    def decide(m: int) -> bool:
        """Whether m/D is "in", by the first certificate that holds there: a
        rule met so far (newest first), the last law met, else a fresh one."""
        for cert in (*reversed(rules), law):
            if cert is not None and holds(cert, m):
                return cert is law
        return fresh(m) is law

    verdicts: list[bool] = [False] * grid_points

    def cover(start: int, stop: int) -> int:
        """Decide grid point ``start`` afresh and gallop its certificate
        toward ``stop`` (exclusive, on either side): the last point it
        reaches."""
        cert = fresh(grid[start])
        toward = 1 if stop > start else -1
        # cert holds at `good`; it fails at `bad`, or `bad` is `stop`
        good, bad, jump = start, stop, 1
        while abs(bad - good) > 1:
            j = (start + toward * min(jump, abs(stop - start) - 1) if bad == stop
                 else (good + bad) // 2)
            jump *= 2
            if holds(cert, grid[j]):
                good = j
            else:
                bad = j
        a, b = sorted((start, good))
        verdicts[a:b + 1] = [cert is law] * (b + 1 - a)
        return good

    if isinstance(observation, JointDistribution):
        first, last = _obedient_interval(family, observation, lo, hi, lambda t: (
            substitute_params(family, {param: t})))
        low, high = math.ceil(first * den), math.floor(last * den)  # m/D in [first, last]

        def inside(m: int) -> bool:
            return low <= m <= high

        verdicts = [inside(m) for m in grid]
    else:
        inside = decide
        # Grid points left .. right - 1 are undecided.  The first law that
        # holds at its own point alone turns the scan to the far end: the
        # last point is decided next and its certificate galloped leftward.
        left, right = 0, grid_points
        while left < right:
            good = cover(left, right)
            if verdicts[left] and good == left and left + 1 < right == grid_points:
                right = cover(right - 1, left)
            left = good + 1

    intervals: list[tuple[int, int, str]] = []
    region_start = grid[0]
    for i in range(len(grid) - 1):
        if verdicts[i] == verdicts[i + 1]:
            continue
        x, y = grid[i], grid[i + 1]
        vx = verdicts[i]
        for _ in range(k):
            mid = (x + y) // 2
            if inside(mid) == vx:
                x = mid
            else:
                y = mid
        intervals.append((region_start, x, "in" if vx else "out"))
        intervals.append((x, y, "gap"))
        region_start = y
    intervals.append((region_start, grid[-1], "in" if verdicts[-1] else "out"))
    return IdentifiedSet(param, tuple((Fraction(a, den), Fraction(b, den), tag)
                                      for a, b, tag in intervals))
