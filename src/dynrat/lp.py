"""Exact rational linear programming.

A small dense two-phase simplex over exact rationals with Bland's
anti-cycling pivot rule, so every solve terminates and is bit-for-bit
deterministic.  Internally every column is nonnegative and unbounded above:
a variable with a finite lower bound is shifted to start at zero, one
without is split into two nonnegative parts, and a finite upper bound
becomes one ``<=`` row.  The programs built here declare lower bounds only;
their density rows already cap every entry at 1.  Strict inequalities never
appear in a program; callers decide strictness by comparing the exact
optimal value against zero afterwards.

The tableau is fraction-free in the manner of Edmonds and Bareiss: each row
is a list of Python ints over one positive common denominator, kept in
lowest terms, so a pivot is integer multiply-and-subtract plus one gcd per
row.  Ratio-test steps are compared as exact rationals, the same values a
`Fraction` tableau would hold, so the pivot sequence does not depend on the
representation.  All inputs and outputs are plain `Fraction`s.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import chain
from typing import Mapping, Optional, Union

from .model import (
    DecisionProblem,
    ValidationError,
    format_rational,
    parse_rational,
)

_SENSES = ("<=", "==", ">=")

_PIVOT_TALLY = [0]


def pivot_tally() -> int:
    """Process-wide count of simplex pivots; for reporting."""
    return _PIVOT_TALLY[0]


# ---------------------------------------------------------------------------
# Program model
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Constraint:
    coeffs: tuple[tuple[str, Fraction], ...]
    sense: str
    rhs: Fraction
    name: str = ""


@dataclass
class LinearProgram:
    """A named-variable LP with exact rational data.

    Variables carry optional lower/upper bounds (``None`` means unbounded on
    that side).  Constraints reference declared variables only.
    """

    variables: dict[str, tuple[Optional[Fraction], Optional[Fraction]]] = field(default_factory=dict)
    constraints: list[Constraint] = field(default_factory=list)
    objective: dict[str, Fraction] = field(default_factory=dict)
    direction: str = "max"

    def add_variable(
        self,
        name: str,
        lower: Union[None, int, str, Fraction] = None,
        upper: Union[None, int, str, Fraction] = None,
    ) -> str:
        if name in self.variables:
            raise ValidationError(f"variable {name!r} declared twice")
        lo = None if lower is None else parse_rational(lower)
        hi = None if upper is None else parse_rational(upper)
        if lo is not None and hi is not None and lo > hi:
            raise ValidationError(f"variable {name!r} has empty bound interval")
        self.variables[name] = (lo, hi)
        return name

    def add_constraint(
        self,
        coeffs: Mapping[str, Union[int, str, Fraction]],
        sense: str,
        rhs: Union[int, str, Fraction],
        name: str = "",
    ) -> None:
        if sense not in _SENSES:
            raise ValidationError(f"bad constraint sense {sense!r}")
        items = []
        for var, c in coeffs.items():
            if var not in self.variables:
                raise ValidationError(f"constraint references undeclared variable {var!r}")
            q = parse_rational(c)
            if q != 0:
                items.append((var, q))
        self.constraints.append(Constraint(tuple(items), sense, parse_rational(rhs), name))

    def set_objective(self, coeffs: Mapping[str, Union[int, str, Fraction]], direction: str = "max") -> None:
        if direction not in ("max", "min"):
            raise ValidationError(f"bad objective direction {direction!r}")
        for var in coeffs:
            if var not in self.variables:
                raise ValidationError(f"objective references undeclared variable {var!r}")
        self.objective = {v: parse_rational(c) for v, c in coeffs.items() if parse_rational(c) != 0}
        self.direction = direction


@dataclass(frozen=True)
class LpSolution:
    status: str  # "optimal" | "infeasible" | "unbounded"
    value: Optional[Fraction]
    assignment: Optional[dict[str, Fraction]]
    pivots: int


def check_solution(lp: LinearProgram, assignment: Mapping[str, Fraction]) -> bool:
    """Exact feasibility check of an assignment against bounds and constraints."""
    for var, (lo, hi) in lp.variables.items():
        x = assignment[var]
        if lo is not None and x < lo:
            return False
        if hi is not None and x > hi:
            return False
    for con in lp.constraints:
        lhs = sum((c * assignment[v] for v, c in con.coeffs), Fraction(0))
        if con.sense == "<=" and lhs > con.rhs:
            return False
        if con.sense == ">=" and lhs < con.rhs:
            return False
        if con.sense == "==" and lhs != con.rhs:
            return False
    return True


def dump_lp(lp: LinearProgram) -> str:
    """Human-readable text form, for debugging only."""
    lines = [f"{lp.direction} " + " + ".join(
        f"{format_rational(c)}*{v}" for v, c in lp.objective.items()) or "0"]
    for con in lp.constraints:
        lhs = " + ".join(f"{format_rational(c)}*{v}" for v, c in con.coeffs) or "0"
        lines.append(f"  {lhs} {con.sense} {format_rational(con.rhs)}"
                     + (f"  [{con.name}]" if con.name else ""))
    for var, (lo, hi) in lp.variables.items():
        lines.append(f"  {format_rational(lo) if lo is not None else '-inf'}"
                     f" <= {var} <= {format_rational(hi) if hi is not None else '+inf'}")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Simplex
# ---------------------------------------------------------------------------

def _int_row(entries: dict[int, Fraction], width: int) -> list:
    """A tableau row ``[nums, den]`` of ``width`` slots holding exactly the
    given rationals, and zero elsewhere."""
    den = math.lcm(*(v.denominator for v in entries.values()))
    nums = [0] * width
    for k, v in entries.items():
        nums[k] = v.numerator * (den // v.denominator)
    return [nums, den]


def _store(row: list, nums: list[int], den: int) -> None:
    """Set ``row`` to ``nums / den`` (``den > 0``) in lowest terms."""
    if den != 1:
        g = math.gcd(den, *nums)
        if g != 1:
            nums = [x // g for x in nums]
            den //= g
    row[0] = nums
    row[1] = den


def _eliminate(row: list, j: int, pivot: list[tuple[int, int]], pd: int) -> None:
    """Zero entry ``j`` of ``row`` by subtracting ``row``'s entry ``j`` times
    the pivot row: ``nums * pd - f * pivot_nums`` over ``den * pd``, where
    ``f = nums[j]``.  The pivot row has denominator ``pd`` and entry 1 at
    column ``j``; ``pivot`` lists its nonzero ``(column, numerator)`` pairs,
    the only places that need a subtraction."""
    nums, den = row
    f = nums[j]
    if pd != 1:
        nums = [a * pd for a in nums]
    for k, b in pivot:
        nums[k] -= f * b
    _store(row, nums, den * pd)


class _Solver:
    """Two-phase primal simplex over nonnegative columns, with Bland's rule.

    Each variable becomes one or two internal columns, all bounded below by
    zero and unbounded above: a variable with a finite lower bound is
    shifted (x = lo + x~), one without is split (x = x+ - x-).  A finite
    upper bound becomes one ``<=`` row.  Entering steps therefore always
    increase a column from zero, which keeps the ratio test and Bland's rule
    in their textbook forms.

    Every tableau row, the objective rows included, is a pair ``[nums, den]``
    of Python ints: entry ``k`` is ``nums[k] / den`` with ``den > 0`` and the
    row in lowest terms.  The last slot holds the right-hand side; objective
    rows hold minus the objective's current value there, so pivots and
    pricing apply one integer update to every row alike.  The basic column of
    a constraint row has entry exactly 1 (``nums[b] == den``).
    """

    def __init__(self, lp: LinearProgram):
        self.lp = lp
        self.pivots = 0
        zero = Fraction(0)

        # Map user variables to internal columns (all with lower bound 0).
        self.records: dict[str, tuple] = {}
        col = 0
        for name, (lo, _) in lp.variables.items():
            if lo is not None:
                self.records[name] = ("shifted", col, lo)
                col += 1
            else:
                self.records[name] = ("free", col, col + 1)
                col += 2
        self.artificial: list = [False] * col  # per column: bool

        # Transform constraint rows, then upper-bound rows, into internal
        # coordinates.
        bound_rows = [
            Constraint(((name, Fraction(1)),), "<=", hi)
            for name, (_, hi) in lp.variables.items()
            if hi is not None
        ]
        raw_rows: list[tuple[dict, str, Fraction]] = []
        for con in chain(lp.constraints, bound_rows):
            coeffs: dict[int, Fraction] = {}

            def put(j: int, v: Fraction) -> None:
                coeffs[j] = coeffs[j] + v if j in coeffs else v

            rhs = con.rhs
            for var, c in con.coeffs:
                rec = self.records[var]
                if rec[0] == "shifted":
                    put(rec[1], c)
                    if rec[2]:
                        rhs -= c * rec[2]
                else:
                    put(rec[1], c)
                    put(rec[2], -c)
            coeffs = {j: v for j, v in coeffs.items() if v != 0}
            raw_rows.append((coeffs, con.sense, rhs))

        self.infeasible_row = False
        rows: list[tuple[dict, str, Fraction]] = []
        for coeffs, sense, rhs in raw_rows:
            if not coeffs:
                ok = (rhs >= 0) if sense == "<=" else (rhs <= 0) if sense == ">=" else (rhs == 0)
                if not ok:
                    self.infeasible_row = True
                continue
            if rhs < 0:
                coeffs = {j: -v for j, v in coeffs.items()}
                rhs = -rhs
                sense = {"<=": ">=", ">=": "<=", "==": "=="}[sense]
            if sense == ">=" and rhs == 0:
                coeffs = {j: -v for j, v in coeffs.items()}
                sense = "<="
            rows.append((coeffs, sense, rhs))

        # Append slack/surplus/artificial columns and set the starting basis.
        ncols = col
        extra_cols: list[tuple[int, int]] = []  # (slack_col or -1, art_col or -1)
        for _, sense, _ in rows:
            if sense == "<=":
                extra_cols.append((ncols, -1))
                self.artificial.append(False)
                ncols += 1
            elif sense == ">=":
                extra_cols.append((ncols, ncols + 1))
                self.artificial.extend([False, True])
                ncols += 2
            else:
                extra_cols.append((-1, ncols))
                self.artificial.append(True)
                ncols += 1
        self.ncols = ncols
        self.matrix: list[list] = []
        self.basis: list[int] = []
        for (coeffs, sense, rhs), (s_col, a_col) in zip(rows, extra_cols):
            row = dict(coeffs)
            row[ncols] = rhs
            if sense == "<=":
                row[s_col] = Fraction(1)
                self.basis.append(s_col)
            elif sense == ">=":
                row[s_col] = Fraction(-1)
                row[a_col] = Fraction(1)
                self.basis.append(a_col)
            else:
                row[a_col] = Fraction(1)
                self.basis.append(a_col)
            self.matrix.append(_int_row(row, ncols + 1))

        # Phase-2 objective in internal coordinates (always maximize).  The
        # starting basis is slacks/artificials, none of which appear in the
        # user objective, so this row is already priced out.
        sign = 1 if lp.direction == "max" else -1
        obj: dict[int, Fraction] = {ncols: zero}
        for var, c in lp.objective.items():
            c *= sign
            rec = self.records[var]
            if rec[0] == "shifted":
                obj[rec[1]] = obj.get(rec[1], zero) + c
                obj[ncols] -= c * rec[2]
            else:
                obj[rec[1]] = obj.get(rec[1], zero) + c
                obj[rec[2]] = obj.get(rec[2], zero) - c
        self.obj = _int_row(obj, ncols + 1)

    # -- tableau mechanics ----------------------------------------------------

    def _pivot(self, r: int, j: int, objs: list) -> None:
        pivot = self.matrix[r]
        nums = pivot[0]
        if nums[j] < 0:
            nums = [-x for x in nums]
        _store(pivot, nums, nums[j])
        nums, pd = pivot
        support = [(k, b) for k, b in enumerate(nums) if b]
        for other in chain(self.matrix, objs):
            if other[0][j] != 0 and other is not pivot:
                _eliminate(other, j, support, pd)
        self.basis[r] = j

    def _run(self, obj_row: list, extra_objs: list, phase1: bool) -> str:
        guard = 5000 + 200 * (len(self.matrix) + self.ncols)
        in_basis = set(self.basis)
        while True:
            entering = None
            reduced = obj_row[0]
            for j in range(self.ncols):
                if (reduced[j] > 0 and j not in in_basis
                        and (phase1 or not self.artificial[j])):
                    entering = j
                    break
            if entering is None:
                return "optimal"

            # Ratio test: the smallest (step, basic column) over the rows
            # whose entry in the entering column is positive.  A row's
            # entries share its denominator, so each step is a ratio of
            # numerators.
            candidates = [
                (Fraction(nums[-1], nums[entering]), self.basis[r], r)
                for r, (nums, _) in enumerate(self.matrix)
                if nums[entering] > 0
            ]
            if not candidates:
                return "unbounded"
            _, leaving, r = min(candidates)

            self.pivots += 1
            _PIVOT_TALLY[0] += 1
            in_basis.discard(leaving)
            self._pivot(r, entering, [obj_row] + extra_objs)
            in_basis.add(entering)
            if self.pivots > guard:  # pragma: no cover - would be a solver bug
                raise RuntimeError("simplex pivot guard exceeded; anti-cycling failure")

    def _price_out(self, obj_row: list) -> None:
        for (nums, pd), b in zip(self.matrix, self.basis):
            if obj_row[0][b] != 0:
                _eliminate(obj_row, b, [(k, v) for k, v in enumerate(nums) if v], pd)

    def solve(self) -> LpSolution:
        if self.infeasible_row:
            return LpSolution("infeasible", None, None, self.pivots)

        if any(self.artificial[b] for b in self.basis):
            p1_row = [[-1 if a else 0 for a in self.artificial] + [0], 1]
            self._price_out(p1_row)
            status = self._run(p1_row, [self.obj], phase1=True)
            assert status == "optimal"  # phase-1 objective is bounded above by 0
            if p1_row[0][-1] != 0:
                return LpSolution("infeasible", None, None, self.pivots)
            self._drop_artificials([p1_row, self.obj])

        status = self._run(self.obj, [], phase1=False)
        if status == "unbounded":
            return LpSolution("unbounded", None, None, self.pivots)

        values = [Fraction(0)] * self.ncols
        for (nums, den), b in zip(self.matrix, self.basis):
            values[b] = Fraction(nums[-1], den)

        assignment: dict[str, Fraction] = {}
        for name, rec in self.records.items():
            if rec[0] == "shifted":
                assignment[name] = values[rec[1]] + rec[2]
            else:
                assignment[name] = values[rec[1]] - values[rec[2]]

        value = sum(
            (c * assignment[v] for v, c in self.lp.objective.items()), Fraction(0)
        )
        if not check_solution(self.lp, assignment):  # pragma: no cover - solver bug
            raise RuntimeError("simplex returned an assignment violating the program")
        expected = Fraction(-self.obj[0][-1], self.obj[1])  # the last slot holds -value
        if self.lp.direction == "min":
            expected = -expected
        if value != expected:  # pragma: no cover - solver bug
            raise RuntimeError("objective bookkeeping mismatch")
        return LpSolution("optimal", value, assignment, self.pivots)

    def _drop_artificials(self, objs: list) -> None:
        keep_rows = []
        for r in range(len(self.matrix)):
            b = self.basis[r]
            if not self.artificial[b]:
                keep_rows.append(r)
                continue
            # Basic artificial at value zero: pivot it out if possible.
            pivot_col = None
            nums = self.matrix[r][0]
            for j in range(self.ncols):
                if not self.artificial[j] and nums[j] != 0:
                    pivot_col = j
                    break
            if pivot_col is None:
                continue  # redundant row, drop it
            self._pivot(r, pivot_col, objs)
            keep_rows.append(r)
        if len(keep_rows) != len(self.matrix):
            self.matrix = [self.matrix[r] for r in keep_rows]
            self.basis = [self.basis[r] for r in keep_rows]


def solve(lp: LinearProgram) -> LpSolution:
    """Exact optimum of ``lp``; deterministic for identical programs.

    Optimal assignments are re-verified against every constraint before being
    returned, so a reported optimum is always exactly feasible.
    """
    return _Solver(lp).solve()


# ---------------------------------------------------------------------------
# The deviation-rule polytope
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DeviationPolytope:
    """Reusable constraint block whose feasible set is exactly the deviation
    rule kernels of a problem: one nonnegative variable per kernel entry,
    row-sum equalities (which cap every entry at 1), and prefix-marginal
    equalities between inputs that share a history."""

    problem: DecisionProblem
    var_names: tuple[tuple[str, ...], ...]
    constraints: tuple[Constraint, ...]

    def install(self, lp: LinearProgram) -> None:
        for row in self.var_names:
            for name in row:
                lp.add_variable(name, lower=0)
        for con in self.constraints:
            lp.add_constraint(dict(con.coeffs), con.sense, con.rhs, con.name)

    def var(self, a_index: int, b_index: int) -> str:
        return self.var_names[a_index][b_index]

    def extract_matrix(self, assignment: Mapping[str, Fraction]) -> tuple[tuple[Fraction, ...], ...]:
        return tuple(
            tuple(assignment[name] for name in row) for row in self.var_names
        )


def deviation_polytope_constraints(problem: DecisionProblem) -> DeviationPolytope:
    leaves = problem.leaves
    names = tuple(
        tuple(f"D[{b.label}|{a.label}]" for b in leaves) for a in leaves
    )
    one = Fraction(1)
    constraints: list[Constraint] = []
    for i, a in enumerate(leaves):
        constraints.append(
            Constraint(tuple((names[i][j], one) for j in range(len(leaves))),
                       "==", one, f"density[{a.label}]")
        )
    for t in range(1, problem.periods):
        out_classes = problem.prefix_classes(t)
        for prefix, members in problem.prefix_classes(t):
            for a_i, a_k in zip(members, members[1:]):
                for out_prefix, out_members in out_classes:
                    coeffs = [(names[a_i][j], one) for j in out_members]
                    coeffs += [(names[a_k][j], -one) for j in out_members]
                    constraints.append(
                        Constraint(
                            tuple(coeffs), "==", Fraction(0),
                            f"adapted[t={t},{','.join(prefix)}:{','.join(out_prefix)}]",
                        )
                    )
    return DeviationPolytope(problem, names, tuple(constraints))
