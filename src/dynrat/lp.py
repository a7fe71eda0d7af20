"""Exact rational linear programming.

A small dense two-phase simplex over exact rationals with Bland's
anti-cycling pivot rule, so every solve terminates and is bit-for-bit
deterministic.  Programs maximize; variables carry a lower bound or none.
Internally every column is nonnegative: a variable with a lower bound is
shifted to start at zero, one without is split into two nonnegative parts.
The programs built here declare lower bounds only; their density rows
already cap every entry at 1.  Strict inequalities never appear in a
program; callers decide strictness by comparing the exact optimal value
against zero afterwards.

An optimal solution carries one dual multiplier per constraint, read from
the final objective row, so the optimum comes with its own certificate:
`check_solution` re-checks the primal assignment and `check_duals` the
multipliers, both exactly.

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
    """A named-variable LP with exact rational data, to be maximized.

    Each variable has a lower bound or ``None`` (free).  Constraints
    reference declared variables only.
    """

    variables: dict[str, Optional[Fraction]] = field(default_factory=dict)
    constraints: list[Constraint] = field(default_factory=list)
    objective: dict[str, Fraction] = field(default_factory=dict)

    def add_variable(self, name: str, lower: Union[None, int, str, Fraction] = None) -> str:
        if name in self.variables:
            raise ValidationError(f"variable {name!r} declared twice")
        self.variables[name] = None if lower is None else parse_rational(lower)
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

    def set_objective(self, coeffs: Mapping[str, Union[int, str, Fraction]]) -> None:
        for var in coeffs:
            if var not in self.variables:
                raise ValidationError(f"objective references undeclared variable {var!r}")
        self.objective = {v: parse_rational(c) for v, c in coeffs.items() if parse_rational(c) != 0}


@dataclass(frozen=True)
class LpSolution:
    """``duals`` holds one multiplier per entry of the program's
    ``constraints`` when the status is optimal: nonnegative on ``<=`` rows,
    nonpositive on ``>=`` rows, free on ``==`` rows (see `check_duals`)."""

    status: str  # "optimal" | "infeasible" | "unbounded"
    value: Optional[Fraction]
    assignment: Optional[dict[str, Fraction]]
    pivots: int
    duals: Optional[tuple[Fraction, ...]] = None


def check_solution(lp: LinearProgram, assignment: Mapping[str, Fraction]) -> bool:
    """Exact feasibility check of an assignment against bounds and constraints."""
    for var, lo in lp.variables.items():
        if lo is not None and assignment[var] < lo:
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


def check_duals(lp: LinearProgram, sol: LpSolution) -> bool:
    """Exact check that ``sol.duals`` prove ``sol.value`` an upper bound.

    With y the duals and d = c - A^T y the reduced costs, it checks that
    each y has its row's sign, that d <= 0 on lower-bounded variables and
    d = 0 on free ones, and that b^T y + sum(lo * d) equals the value.  Then
    every feasible x has c^T x = d^T x + y^T A x <= sum(lo * d) + b^T y, so
    an assignment reaching the value is optimal.
    """
    if sol.duals is None or len(sol.duals) != len(lp.constraints):
        return False
    reduced = dict(lp.objective)
    bound = Fraction(0)
    for con, y in zip(lp.constraints, sol.duals):
        if (con.sense == "<=" and y < 0) or (con.sense == ">=" and y > 0):
            return False
        if y:
            bound += y * con.rhs
            for var, c in con.coeffs:
                reduced[var] = reduced.get(var, 0) - y * c
    for var, lo in lp.variables.items():
        d = reduced.get(var, 0)
        if lo is None and d != 0 or lo is not None and d > 0:
            return False
        if lo is not None:
            bound += lo * d
    return bound == sol.value


def dump_lp(lp: LinearProgram) -> str:
    """Human-readable text form, for debugging only."""
    lines = ["max " + (" + ".join(
        f"{format_rational(c)}*{v}" for v, c in lp.objective.items()) or "0")]
    for con in lp.constraints:
        lhs = " + ".join(f"{format_rational(c)}*{v}" for v, c in con.coeffs) or "0"
        lines.append(f"  {lhs} {con.sense} {format_rational(con.rhs)}"
                     + (f"  [{con.name}]" if con.name else ""))
    for var, lo in lp.variables.items():
        lines.append(f"  {var} >= {format_rational(lo)}" if lo is not None else f"  {var} free")
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
    zero and unbounded above: a variable with a lower bound is shifted
    (x = lo + x~), one without is split (x = x+ - x-).  Entering steps always
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

        # Map user variables to internal columns (all with lower bound 0):
        # (column, lo) for x = lo + x~, (column, None) for x = x+ - x-, with
        # x- in the next column.
        self.records: dict[str, tuple[int, Optional[Fraction]]] = {}
        col = 0
        for name, lo in lp.variables.items():
            self.records[name] = (col, lo)
            col += 1 if lo is not None else 2
        self.artificial: list = [False] * col  # per column: bool

        # Transform each constraint into internal coordinates.  A row is
        # negated when its right-hand side is negative, or zero on a ">="
        # row, so that its starting basic column is a slack ("<=") or an
        # artificial (">=" with a surplus, "=="), at value rhs >= 0.  That
        # basic column is where the row's dual is read: ``dual_cols`` holds
        # (column, sign) per constraint, None for a row without
        # coefficients, whose dual is 0.
        ncols = col
        self.infeasible_row = False
        self.dual_cols: list[Optional[tuple[int, int]]] = []
        rows: list[tuple[dict, Fraction, int]] = []
        for con in lp.constraints:
            coeffs: dict[int, Fraction] = {}
            sense, rhs = con.sense, con.rhs
            for var, c in con.coeffs:
                j, lo = self.records[var]
                coeffs[j] = coeffs.get(j, 0) + c
                if lo is None:
                    coeffs[j + 1] = coeffs.get(j + 1, 0) - c
                elif lo:
                    rhs -= c * lo
            coeffs = {j: v for j, v in coeffs.items() if v != 0}
            if not coeffs:
                ok = (rhs >= 0) if sense == "<=" else (rhs <= 0) if sense == ">=" else (rhs == 0)
                if not ok:
                    self.infeasible_row = True
                self.dual_cols.append(None)
                continue
            sign = 1
            if rhs < 0 or (sense == ">=" and rhs == 0):
                coeffs = {j: -v for j, v in coeffs.items()}
                rhs = -rhs
                sense = {"<=": ">=", ">=": "<=", "==": "=="}[sense]
                sign = -1
            if sense == ">=":
                coeffs[ncols] = Fraction(-1)  # surplus
                self.artificial.append(False)
                ncols += 1
            coeffs[ncols] = Fraction(1)
            self.artificial.append(sense != "<=")
            rows.append((coeffs, rhs, ncols))
            self.dual_cols.append((ncols, sign))
            ncols += 1

        self.ncols = ncols
        self.matrix: list[list] = []
        self.basis: list[int] = []
        for coeffs, rhs, basic in rows:
            coeffs[ncols] = rhs
            self.matrix.append(_int_row(coeffs, ncols + 1))
            self.basis.append(basic)

        # Phase-2 objective in internal coordinates.  The starting basis is
        # slacks/artificials, none of which appear in the user objective, so
        # this row is already priced out.
        obj: dict[int, Fraction] = {ncols: Fraction(0)}
        for var, c in lp.objective.items():
            j, lo = self.records[var]
            obj[j] = c
            if lo is None:
                obj[j + 1] = -c
            else:
                obj[ncols] -= c * lo
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
        for name, (j, lo) in self.records.items():
            assignment[name] = values[j] - values[j + 1] if lo is None else values[j] + lo

        value = sum(
            (c * assignment[v] for v, c in self.lp.objective.items()), Fraction(0)
        )
        if not check_solution(self.lp, assignment):  # pragma: no cover - solver bug
            raise RuntimeError("simplex returned an assignment violating the program")
        obj_nums, obj_den = self.obj
        if value != Fraction(-obj_nums[-1], obj_den):  # pragma: no cover - solver bug
            raise RuntimeError("objective bookkeeping mismatch")
        # The objective row is c - y^T A over the internal rows, and a row's
        # starting basic column has entry 1 in that row alone, so the row's
        # multiplier is minus the objective row's entry there, times -1
        # again if the row was stored negated.  This holds for rows dropped
        # as redundant too.
        duals = tuple(
            Fraction(0) if rec is None else Fraction(-rec[1] * obj_nums[rec[0]], obj_den)
            for rec in self.dual_cols
        )
        return LpSolution("optimal", value, assignment, self.pivots, duals)

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
    returned, so a reported optimum is always exactly feasible.  Its duals
    are read from the tableau and not re-verified here; `check_duals` does
    that where a caller relies on them.
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
