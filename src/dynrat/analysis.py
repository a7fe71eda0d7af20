"""Parameter regions consistent with an observation.

`identified_set` sweeps one parameter of a family over an observation of
any kind: a grid scan plus bisection of every sign change, on integer
samples over one denominator per sweep.  Each certificate met, a rule or
an obedient law, gets its range of samples once, by cutting planes; a
sample in no range is decided afresh (`rationalize.certificate`).  The
payoff transforms of application 1 live in `risk`.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cache
from operator import mul
from typing import Callable, Optional, Sequence, Union

from .deviation import affine_gains, best_joint_deviation, failed_condition
from .model import (
    DecisionProblem,
    Frozen,
    JointDistribution,
    Observation,
    ValidationError,
    consistency,
    format_rational,
    parse_rational,
    substitute_params,
)
from .rationalize import InternalInconsistencyError, certificate

#: A rule's integer gains on a one-parameter family's constant and slope
#: columns (`deviation.affine_gains`).
AffineGains = tuple[list[int], list[int]]
#: A certificate's cut at sample m: None where it holds, else integers
#: (c0, c1) with c0 + c1*m < 0 and c0 + c1*x >= 0 wherever it holds.
Cut = Callable[[int], Optional[tuple[int, int]]]


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


def _gains_at(gains: AffineGains, m: int, d: int) -> list[int]:
    """A rule's integer gains at t = m/d (d > 0), up to a positive factor:
    d*A + m*B on its affine gains (`deviation.affine_gains`)."""
    return [d * a + m * b for a, b in zip(*gains)]


def _rule_cut(gains: AffineGains, rows: Sequence[tuple[int, int, int]], den: int) -> Cut:
    """A rule's cut at t = m/den: the first sign condition of dominance
    (`deviation.failed_condition`) that its gains fail there, each gain
    den*A + m*B; strict reads >= 1, the gains being integers."""
    def cut(m: int) -> Optional[tuple[int, int]]:
        failed = failed_condition(_gains_at(gains, m, den), rows)
        if failed is None:
            return None
        alpha, beta = (sum(w * column[c] for c, w in failed[0]) for column in gains)
        return den * alpha - failed[1], beta
    return cut


def _law_cut(family: DecisionProblem, law: JointDistribution, den: int,
             pin: Callable[[int], DecisionProblem], met: Callable[[int, AffineGains], None]) -> Cut:
    """A law's cut at t = m/den: where the induction on the family pinned
    there (``pin(m)``) gains, its rule gains den*alpha + m*beta on the law,
    which is obedient only where that is <= 0.  ``met`` is given each such
    rule's sample and affine gains."""
    def cut(m: int) -> Optional[tuple[int, int]]:
        gain, targets = best_joint_deviation(pin(m), law)
        if gain <= 0:
            return None
        gains = affine_gains(family, targets())
        met(m, gains)
        alpha, beta = (sum(map(mul, law.cells, column)) for column in gains)
        return -den * alpha, -beta
    return cut


def _span(seed: int, first: int, last: int, cut: Cut,
          ranges: Sequence[tuple[int, int, bool]], verdict: bool) -> tuple[int, int]:
    """The samples m in [first, last] where a certificate holds, given one,
    ``seed``, where it does: an interval, found by cutting planes (Kelley
    1960) from ``cut``.  No certificate holds where one of the other
    verdict does, so the ``ranges`` (first, last, verdict) of the other
    verdict bound the search, also those that ``cut`` adds.  The
    certificate is checked at an end not yet seen to hold, left first,
    until both do: it holds between them by convexity."""
    held = {seed}
    while True:
        first = max([first, *(b + 1 for a, b, v in ranges if v != verdict and b < seed)])
        last = min([last, *(a - 1 for a, b, v in ranges if v != verdict and a > seed)])
        if first in held and last in held:
            return first, last
        m = last if first in held else first
        found = cut(m)
        if found is None:
            held.add(m)
            continue
        c0, c1 = found
        if c0 + c1 * m >= 0 or c0 + c1 * seed < 0:  # pragma: no cover - bug
            raise InternalInconsistencyError("a cut must drop its point and keep the seed")
        if c1 > 0:
            first = -(c0 // c1)
        else:
            last = c0 // -c1


class IdentifiedSet(Frozen):
    """Certified parameter intervals: "in" and "out" pieces separated by
    narrow "gap" pieces around detected boundaries.

    Every "in"/"out" interval contains at least one exactly tested sample; no
    interval structure is assumed beyond what the samples show.
    """

    __match_args__ = ("param", "intervals")
    param: str
    intervals: tuple[tuple[Fraction, Fraction, str], ...]

    def __init__(self, param: str, intervals: tuple[tuple[Fraction, Fraction, str], ...]) -> None:
        for (lo, hi, tag) in intervals:
            if lo > hi or tag not in ("in", "out", "gap"):
                raise ValidationError("malformed identified-set interval")
        for (_, hi, _), (lo2, _, _) in zip(intervals, intervals[1:]):
            if hi != lo2:
                raise ValidationError("identified-set intervals must tile the range")
        vars(self).update(param=param, intervals=intervals)

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

    Every sample is an integer m over one denominator D = lcm(den lo,
    den hi) * (grid_points - 1) * 2^k, fixed once per sweep, where k
    halvings bring a grid cell within ``tolerance`` (k = 0 when it is at
    least the grid step): each cell whose ends disagree is halved k times,
    at integer midpoints.  A `Fraction` is built only at a pin and for the
    reported interval ends.

    Every sample gets the verdict a fresh decision would give it, from an
    exact certificate, and each certificate holds on an interval of t,
    found once by cutting planes (`_span`).  A rule's gains are affine in
    t (`deviation.affine_gains`), so each sign condition of dominance is
    affine or concave in t; its cut at a sample is the first condition it
    fails there (`deviation.failed_condition`).  A law is obedient where
    the largest gain of a pure rule, a maximum of affine functions of t,
    is <= 0; its cut at a sample is the gain of the induction's rule on
    the family pinned there, and that rule, where it dominates the
    observation, is a certificate too.  A sample is decided by the first
    range that holds it, else afresh (`rationalize.certificate`: one LP,
    or one induction for joint data, which is its own law).  Grid points
    go in order, but the first law found afresh that holds at no later
    grid point has the last one decided next: where each law holds at or
    below its own point only, that is one LP in place of one per point.
    A grid point decided "out" by a rule whose range ends before the next
    grid point has the sample just past that range decided next: a law
    found there is searched on its right only.
    A certificate found afresh at a bisection point is searched only on
    the side of it that the bracket keeps, the one side read again.  A
    sample is pinned (`substitute_params`) only to be decided afresh or
    to check a law, and never twice.

    Built once per sweep: the family (``problem`` itself when nothing is
    fixed), the consistency rows and each certificate's range.  A pin
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
    cell = step << k  # the grid step, over D
    grid = range(int(lo * den), int(hi * den) + 1, cell)
    pin = cache(lambda m: substitute_params(family, {param: Fraction(m, den)}))  # once per sample
    rows = consistency(family, observation)
    ranges: list[tuple[int, int, bool]] = []  # (first, last, "in") of every certificate met

    def met(m: int, gains: AffineGains) -> None:  # a law's cut rule, found at m
        if failed_condition(_gains_at(gains, m, den), rows) is None:
            cut = _rule_cut(gains, rows, den)
            ranges.append((*_span(m, grid[0], grid[-1], cut, ranges, False), False))

    def decide(m: int, vx: Optional[bool] = None) -> tuple[int, int, bool]:
        """The first range that holds m, else that of a fresh certificate,
        which is added; at a bisection point whose bracket's left end is
        ``vx``, on the side of m the bracket keeps."""
        for held in ranges:
            if held[0] <= m <= held[1]:
                return held
        found = certificate(pin(m), observation)
        verdict = isinstance(found, JointDistribution)
        first, last = grid[0], grid[-1]
        if vx is not None:
            first, last = (m, last) if verdict == vx else (first, m)
        cut = (_law_cut(family, found, den, pin, met) if verdict else
               _rule_cut(affine_gains(family, found), rows, den))
        ranges.append((*_span(m, first, last, cut, ranges, verdict), verdict))
        return ranges[-1]

    verdicts, turn = [], True
    for m in grid:
        known = len(ranges)
        _, last, verdict = decide(m)
        verdicts.append(verdict)
        if last < m + cell <= grid[-1]:  # the range ends before the next grid point
            if not verdict:
                decide(last + 1)
            elif turn and len(ranges) > known:
                turn = False
                decide(grid[-1])

    intervals: list[tuple[int, int, str]] = []
    region_start = grid[0]
    for i in range(len(grid) - 1):
        if verdicts[i] == verdicts[i + 1]:
            continue
        x, y = grid[i], grid[i + 1]
        vx = verdicts[i]
        for _ in range(k):
            mid = (x + y) // 2
            if decide(mid, vx)[2] == vx:
                x = mid
            else:
                y = mid
        intervals.append((region_start, x, "in" if vx else "out"))
        intervals.append((x, y, "gap"))
        region_start = y
    intervals.append((region_start, grid[-1], "in" if verdicts[-1] else "out"))
    return IdentifiedSet(param, tuple((Fraction(a, den), Fraction(b, den), tag)
                                      for a, b, tag in intervals))
