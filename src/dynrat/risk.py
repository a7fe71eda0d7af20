"""Increasing convex payoff transforms, for risk-attitude comparisons.

Application 1 of the paper compares agents who rank certain outcomes alike
but differ in their attitude to risk: applying an increasing convex
`PiecewiseLinearFunction` to every terminal utility (`risk_transform`)
models a less risk-averse agent.  No query loads this module: `dynrat`
resolves its names on first access.
"""

from __future__ import annotations

from fractions import Fraction

from .model import DecisionProblem, Frozen, ValidationError, _over_lcm, parse_rational


class PiecewiseLinearFunction(Frozen):
    """An increasing convex piecewise-linear map on the rationals.

    ``slopes`` has one more entry than ``breakpoints`` (leftmost segment
    first); ``anchor_value`` is the value at the first breakpoint.  Increasing
    means every slope is positive; convex means slopes never decrease.
    """

    __match_args__ = ("breakpoints", "slopes", "anchor_value")
    breakpoints: tuple[Fraction, ...]
    slopes: tuple[Fraction, ...]
    anchor_value: Fraction

    def __init__(self, breakpoints: tuple[Fraction, ...], slopes: tuple[Fraction, ...],
                 anchor_value: Fraction) -> None:
        if not breakpoints:
            raise ValidationError("at least one breakpoint is required")
        if any(b >= c for b, c in zip(breakpoints, breakpoints[1:])):
            raise ValidationError("breakpoints must be strictly increasing")
        if len(slopes) != len(breakpoints) + 1:
            raise ValidationError("need one slope per segment")
        if any(s <= 0 for s in slopes):
            raise ValidationError("transform must be strictly increasing")
        if any(s > t for s, t in zip(slopes, slopes[1:])):
            raise ValidationError("transform must be convex (slopes non-decreasing)")
        vars(self).update(breakpoints=breakpoints, slopes=slopes, anchor_value=anchor_value)

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
    if problem.param_names:
        raise ValidationError("instantiate the problem's parameters first")
    nums, den = _over_lcm([f(Fraction(row[0], problem.den)).as_integer_ratio() for row in problem.table])
    return DecisionProblem(problem.tree, problem.states, (), tuple(zip(nums)), den)
