"""Exact rational linear programming.

A small dense two-phase simplex over exact rationals with Bland's
anti-cycling pivot rule, so every solve terminates and is bit-for-bit
deterministic.  Programs maximize over numbered columns, each nonnegative or
free; constraints and the objective map a column to its coefficient.  A
bound other than zero is a constraint row like any other.  Strict
inequalities never appear in a program; callers decide strictness by
comparing the exact optimal value against zero afterwards.

An optimal solution carries one dual multiplier per constraint, read from
the final objective row, so the optimum comes with its own certificate:
the solver re-checks the primal assignment against the program as built
(`_feasible`), and `check_duals` re-checks the multipliers, both exactly
and against the program's rows, not the solver's.

The arithmetic is integer throughout, fraction-free in the manner of
Edmonds and Bareiss.  A program is integer data: every row (`Constraint`)
and the objective have Python int coefficients, and callers scale rational
data to integers themselves.  A row's positive scale changes neither its
feasible set nor the answer, only its dual, by the inverse factor.  Each
row becomes a tableau row as it stands, a list of Python ints over 1, so a
pivot is integer multiply-and-subtract: the multiplier and the pivot row's
denominator are first divided by their gcd, and a row is put in lowest
terms only once its denominator is longer than `REDUCE_BITS`, which spares
most rows of small programs a gcd over every entry.  Ratio-test steps are
compared by cross-multiplying numerators, which orders them exactly as the
rationals a `Fraction` tableau would hold, so the pivot sequence does not
depend on the representation.  The checks put the assignment or the duals
over one common denominator and compare integer dot products with the
rows.  A `Fraction` appears only as an `LpSolution`'s value.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Mapping, Sequence
from fractions import Fraction
from itertools import chain
from typing import Optional

from .model import Frozen, Tree, ValidationError, _lowest, _set

_SENSES = ("<=", "==", ">=")

_PIVOT_TALLY = [0]

#: Bit length past which a tableau row's denominator is divided out by the
#: gcd of the row.  Below it the row keeps whatever common factor its
#: numerators and denominator share: the ratio test, Bland's rule and the
#: read-out of an optimum compare or reduce a row's numerators against its
#: own denominator, so a row's scale changes no pivot and no answer.
REDUCE_BITS = 128


def pivot_tally() -> int:
    """Process-wide count of simplex pivots; for reporting."""
    return _PIVOT_TALLY[0]


# ---------------------------------------------------------------------------
# Program model
# ---------------------------------------------------------------------------

class Constraint(Frozen):
    """``sum(c * x[k] for k, c in coeffs.items()) <sense> rhs``, with integer
    coefficients and right-hand side.  Zero coefficients may be left out."""

    __slots__ = ("coeffs", "sense", "rhs")
    __match_args__ = __slots__
    coeffs: dict[int, int]
    sense: str
    rhs: int

    def __init__(self, coeffs: dict[int, int], sense: str, rhs: int) -> None:
        _set(self, "coeffs", coeffs)
        _set(self, "sense", sense)
        _set(self, "rhs", rhs)


class LinearProgram:
    """An LP over numbered columns with integer data, to be maximized.

    ``variables[k]`` tells whether column k is free; otherwise it is
    nonnegative.  Constraints and the objective reference declared columns
    only.  Programs compare by their fields and, being mutable, do not hash.
    """

    __slots__ = ("variables", "constraints", "objective")
    __match_args__ = __slots__
    __hash__ = None
    __repr__ = Frozen.__repr__

    def __init__(self, variables: Optional[list[bool]] = None,
                 constraints: Optional[list[Constraint]] = None,
                 objective: Optional[dict[int, int]] = None) -> None:
        self.variables = [] if variables is None else variables
        self.constraints = [] if constraints is None else constraints
        self.objective = {} if objective is None else objective

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return ((self.variables, self.constraints, self.objective)
                == (other.variables, other.constraints, other.objective))

    def add_variable(self, free: bool = False) -> int:
        self.variables.append(free)
        return len(self.variables) - 1

    def _require_columns(self, coeffs: Mapping, what: str) -> None:
        ncols = len(self.variables)
        for k in coeffs:
            if not (isinstance(k, int) and 0 <= k < ncols):
                raise ValidationError(f"{what} references undeclared column {k!r}")

    def add_row(self, coeffs: dict[int, int], sense: str, rhs: int = 0) -> None:
        """Add ``sum(c * x[k]) <sense> rhs`` with integer data as it stands:
        nothing is parsed or reduced, and ``coeffs`` is kept, not copied.
        Only the sense and the columns are checked."""
        if sense not in _SENSES:
            raise ValidationError(f"bad constraint sense {sense!r}")
        self._require_columns(coeffs, "constraint")
        self.constraints.append(Constraint(coeffs, sense, rhs))

    def set_objective(self, coeffs: Mapping[int, int]) -> None:
        """Maximize ``sum(c * x[k])``: int coefficients only, the zeros left
        out."""
        self._require_columns(coeffs, "objective")
        for c in coeffs.values():
            if type(c) is not int:
                raise ValidationError(f"an objective coefficient must be an int, not {c!r}")
        self.objective = {k: c for k, c in coeffs.items() if c}


class LpSolution(Frozen):
    """``integer_assignment`` holds one value per column and
    ``integer_duals`` one multiplier per entry of the program's
    ``constraints`` when the status is optimal, each as ``(numerators,
    den)`` in lowest terms: nonnegative on ``<=`` rows, nonpositive on
    ``>=`` rows, free on ``==`` rows (see `check_duals`)."""

    __slots__ = ("status", "value", "pivots", "integer_assignment", "integer_duals")
    __match_args__ = __slots__
    status: str  # "optimal" | "infeasible" | "unbounded"
    value: Optional[Fraction]
    pivots: int
    integer_assignment: Optional[tuple[tuple[int, ...], int]]
    integer_duals: Optional[tuple[tuple[int, ...], int]]

    def __init__(self, status: str, value: Optional[Fraction], pivots: int,
                 integer_assignment: Optional[tuple[tuple[int, ...], int]] = None,
                 integer_duals: Optional[tuple[tuple[int, ...], int]] = None) -> None:
        _set(self, "status", status)
        _set(self, "value", value)
        _set(self, "pivots", pivots)
        _set(self, "integer_assignment", integer_assignment)
        _set(self, "integer_duals", integer_duals)


def _feasible(lp: LinearProgram, xs: Sequence[int], xden: int) -> bool:
    """Exact feasibility of the assignment ``xs / xden`` (``xden > 0``, one
    value per column) against the signs and every entry of
    ``lp.constraints``: each row is one integer dot product with its
    coefficients, compared with its right-hand side times ``xden``."""
    if any(x < 0 for x, free in zip(xs, lp.variables) if not free):
        return False
    for con in lp.constraints:
        lhs = sum(c * xs[k] for k, c in con.coeffs.items())
        scaled = con.rhs * xden
        if con.sense == "<=" and lhs > scaled:
            return False
        if con.sense == ">=" and lhs < scaled:
            return False
        if con.sense == "==" and lhs != scaled:
            return False
    return True


def check_duals(lp: LinearProgram, sol: LpSolution) -> bool:
    """Exact check that ``sol.integer_duals`` prove ``sol.value`` an upper bound.

    With y the duals and d = c - A^T y the reduced costs, it checks that
    each y has its row's sign, that d <= 0 on nonnegative columns and d = 0
    on free ones, and that b^T y equals the value.  Then every feasible x
    has c^T x = d^T x + y^T A x <= b^T y, so an assignment reaching the
    value is optimal.  The duals come over one common denominator, and the
    program is integer data, so d and b^T y are checked as integers times
    that denominator.
    """
    if sol.integer_duals is None or sol.value is None:
        return False
    ys, yden = sol.integer_duals
    if len(ys) != len(lp.constraints) or yden <= 0:
        return False
    used = [(con, y) for con, y in zip(lp.constraints, ys) if y]
    for con, y in used:
        if (con.sense == "<=" and y < 0) or (con.sense == ">=" and y > 0):
            return False
    # d and b^T y times yden
    reduced = {k: c * yden for k, c in lp.objective.items()}
    bound = 0
    for con, y in used:
        bound += y * con.rhs
        for k, c in con.coeffs.items():
            reduced[k] = reduced.get(k, 0) - y * c
    for k, free in enumerate(lp.variables):
        d = reduced.get(k, 0)
        if (d != 0) if free else (d > 0):
            return False
    return bound * sol.value.denominator == sol.value.numerator * yden


# ---------------------------------------------------------------------------
# Simplex
# ---------------------------------------------------------------------------

def _store(row: list, nums: list[int], den: int) -> None:
    """Set ``row`` to ``nums / den`` (``den > 0``), put in lowest terms only
    once ``den`` is longer than `REDUCE_BITS`."""
    if den.bit_length() > REDUCE_BITS:
        g = math.gcd(den, *nums)
        if g != 1:
            nums = [x // g for x in nums]
            den //= g
    row[0] = nums
    row[1] = den


def _eliminate(row: list, j: int, pivot: list[tuple[int, int]], pd: int) -> None:
    """Zero entry ``j`` of ``row`` by subtracting ``row``'s entry ``j`` times
    the pivot row: ``nums * pd - f * pivot_nums`` over ``den * pd``, where
    ``f = nums[j]``, with ``f`` and ``pd`` first divided by their gcd.  The
    pivot row has denominator ``pd`` and entry 1 at column ``j``; ``pivot``
    lists its nonzero ``(column, numerator)`` pairs, the only places that
    need a subtraction."""
    nums, den = row
    f = nums[j]
    g = math.gcd(f, pd)
    if g != 1:
        f //= g
        pd //= g
    if pd != 1:
        nums = [a * pd for a in nums]
    for k, b in pivot:
        nums[k] -= f * b
    _store(row, nums, den * pd)


class _Solver:
    """Two-phase primal simplex over nonnegative columns, with Bland's rule.

    A nonnegative program column is one internal column; a free one is split
    into two (x = x+ - x-), the second right after the first.  Slack,
    surplus and artificial columns follow, in row order.  Entering steps
    always increase a column from zero, which keeps the ratio test and
    Bland's rule in their textbook forms.

    Every tableau row, the objective rows included, is a pair ``[nums, den]``
    of Python ints: entry ``k`` is ``nums[k] / den`` with ``den > 0``.  A
    constraint row starts as its program row over 1, with slack, surplus
    and artificial entries of 1 or -1, and a pivot that rewrites it puts it
    in lowest terms only once its denominator is longer than `REDUCE_BITS`,
    so a row's numerators and denominator may share a factor; nothing
    reads one without the other, and pivots and answers do not depend on
    it.  The last slot holds the right-hand side; objective rows hold minus
    the objective's current value there, so pivots and pricing apply one
    integer update to every row alike.  The basic column of a constraint row has entry exactly
    1 (``nums[b] == den``).  An optimum's assignment is checked against the
    program, and its value against c^T x, in integers, and both it and the
    duals are returned as integers.
    """

    def __init__(self, lp: LinearProgram):
        self.lp = lp
        self.pivots = 0

        # Internal column of each program column.
        self.starts: list[int] = []
        col = 0
        for free in lp.variables:
            self.starts.append(col)
            col += 2 if free else 1
        self.nstruct = col
        self.artificial: list = [False] * col  # per column: bool

        # A row is negated when its right-hand side is negative, or zero on a
        # ">=" row, so that its starting basic column is a slack ("<=") or an
        # artificial (">=" with a surplus, "=="), at value rhs >= 0.  That
        # basic column is where the row's dual is read: ``dual_cols`` holds
        # (column, sign) per constraint, None for a row without
        # coefficients, whose dual is 0.
        self.infeasible_row = False
        self.dual_cols: list[Optional[tuple[int, int]]] = []
        rows: list[tuple[Constraint, int, bool, int]] = []  # sign, surplus, basic
        for con in lp.constraints:
            sense, rhs = con.sense, con.rhs
            if not con.coeffs:
                ok = (rhs >= 0) if sense == "<=" else (rhs <= 0) if sense == ">=" else (rhs == 0)
                if not ok:
                    self.infeasible_row = True
                self.dual_cols.append(None)
                continue
            sign = 1
            if rhs < 0 or (sense == ">=" and rhs == 0):
                sign = -1
                sense = {"<=": ">=", ">=": "<=", "==": "=="}[sense]
            if sense == ">=":
                self.artificial.append(False)  # surplus
                col += 1
            self.artificial.append(sense != "<=")
            rows.append((con, sign, sense == ">=", col))
            self.dual_cols.append((col, sign))
            col += 1

        # Each row is copied as it stands, over 1.
        self.ncols = col
        self.matrix: list[list] = []
        self.basis: list[int] = []
        for con, sign, surplus, basic in rows:
            nums = self._nums(con.coeffs, sign)
            if surplus:
                nums[basic - 1] = -1
            nums[basic] = 1
            nums[-1] = sign * con.rhs
            self.matrix.append([nums, 1])
            self.basis.append(basic)

        # Phase-2 objective.  The starting basis is slacks/artificials, none
        # of which appear in the objective, so this row is already priced out.
        self.obj = [self._nums(lp.objective), 1]

    def _nums(self, coeffs: Mapping[int, int], sign: int = 1) -> list[int]:
        """``sign * coeffs`` in internal columns, with a zero right-hand
        side."""
        nums = [0] * (self.ncols + 1)
        for k, c in coeffs.items():
            j = self.starts[k]
            nums[j] = v = sign * c
            if self.lp.variables[k]:
                nums[j + 1] = -v
        return nums

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
            # entries share its denominator, so its step is rhs / e over its
            # numerators, and two steps compare by cross-multiplying.
            r = None
            for i, (nums, _) in enumerate(self.matrix):
                e = nums[entering]
                if e <= 0:
                    continue
                if r is not None:
                    lhs, rhs = nums[-1] * step_e, step_rhs * e
                    if lhs > rhs or (lhs == rhs and self.basis[i] > self.basis[r]):
                        continue
                r, step_rhs, step_e = i, nums[-1], e
            if r is None:
                return "unbounded"
            leaving = self.basis[r]

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
            return LpSolution("infeasible", None, self.pivots)

        if any(self.artificial[b] for b in self.basis):
            p1_row = [[-1 if a else 0 for a in self.artificial] + [0], 1]
            self._price_out(p1_row)
            status = self._run(p1_row, [self.obj], phase1=True)
            assert status == "optimal"  # phase-1 objective is bounded above by 0
            if p1_row[0][-1] != 0:
                return LpSolution("infeasible", None, self.pivots)
            self._drop_artificials([p1_row, self.obj])

        status = self._run(self.obj, [], phase1=False)
        if status == "unbounded":
            return LpSolution("unbounded", None, self.pivots)

        # Basic values over one common denominator: xs[k] / xden is column
        # k's value.
        basic = [(b, nums[-1], den) for (nums, den), b in zip(self.matrix, self.basis)
                 if b < self.nstruct]
        xden = math.lcm(*(den for _, _, den in basic))
        values = [0] * self.nstruct
        for b, num, den in basic:
            values[b] = num * (xden // den)
        xs = [values[j] - values[j + 1] if free else values[j]
              for j, free in zip(self.starts, self.lp.variables)]
        if not _feasible(self.lp, xs, xden):  # pragma: no cover - solver bug
            raise RuntimeError("simplex returned an assignment violating the program")
        # The value is read from the objective row and must equal c^T x.
        obj_nums, obj_den = self.obj
        cx = sum(c * xs[k] for k, c in self.lp.objective.items())
        if cx * obj_den != -obj_nums[-1] * xden:  # pragma: no cover - solver bug
            raise RuntimeError("objective bookkeeping mismatch")
        # The objective row is c - y^T A over the internal rows, and a row's
        # starting basic column has entry 1 in that row alone, so the row's
        # multiplier is minus the objective row's entry there, times -1
        # again if the row was stored negated.  This holds for rows dropped
        # as redundant too.
        ys = [0 if rec is None else -rec[1] * obj_nums[rec[0]] for rec in self.dual_cols]
        return LpSolution("optimal", Fraction(-obj_nums[-1], obj_den), self.pivots,
                          _lowest(xs, xden), _lowest(ys, obj_den))

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

    Optimal assignments are re-verified against every constraint, and the
    value against the objective, before being returned, so a reported
    optimum is always exactly feasible and attained.  Its duals
    are read from the tableau and not re-verified here; `check_duals` does
    that where a caller relies on them.
    """
    return _Solver(lp).solve()


# ---------------------------------------------------------------------------
# The deviation-rule polytope
# ---------------------------------------------------------------------------

class DeviationPolytope(Frozen):
    """Constraint rows whose feasible set is exactly the deviation rule
    kernels of a problem with ``n`` leaves: one nonnegative column per
    kernel entry, entry (i, j) in column i * n + j, row-sum equalities (which
    cap every entry at 1), and adaptedness: neighbouring inputs that share
    c >= 1 actions put equal mass on each run of level c, which fixes every
    coarser level's.  These never link inputs with different first actions,
    so the rows split into ``blocks``, the inputs of each first-period
    action.  Only the blocks a program asks for are built (`rows_on`); the
    cache of them grows, so a polytope does not hash."""

    __match_args__ = ("n", "blocks")
    __hash__ = None
    n: int
    blocks: tuple[tuple[int, ...], ...]

    def __init__(self, tree: Tree) -> None:
        level = tree.prefixes.starts[1]
        vars(self).update(n=len(tree.leaves), _prefixes=tree.prefixes, _common=tree.common,
                          _rows={},
                          blocks=tuple(tuple(range(lo, hi)) for lo, hi in zip(level, level[1:])))

    def inputs(self, leaves: Iterable[int]) -> tuple[int, ...]:
        """The inputs of every block that holds one of ``leaves``."""
        leaves = set(leaves)
        return tuple(i for block in self.blocks if leaves.intersection(block) for i in block)

    @property
    def constraints(self) -> tuple[Constraint, ...]:
        """The rows of every block: `rows_on` every leaf."""
        return self.rows_on(range(self.n))

    def rows_on(self, inputs: Sequence[int]) -> tuple[Constraint, ...]:
        """The rows of the blocks that ``inputs`` make up, with kernel entry
        (inputs[p], j) in column p * n + j, in integers: the row sums
        in leaf order, then, for each input a whose neighbour a + 1 shares
        its first c >= 1 actions, one equality per run of level c, on the
        sum over the run's leaves.  Built once per block set and shared,
        never changed, by every program on the tree."""
        inputs = tuple(inputs)
        rows = self._rows.get(inputs)
        if rows is None:
            n, starts = self.n, self._prefixes.starts
            first = {i: p * n for p, i in enumerate(inputs)}
            rows = [Constraint(dict.fromkeys(range(first[i], first[i] + n), 1), "==", 1)
                    for i in sorted(first)]
            for a, c in enumerate(self._common):
                if c and a in first:
                    p, q = first[a], first[a + 1]
                    for x, y in zip(starts[c], starts[c][1:]):
                        coeffs = dict.fromkeys(range(p + x, p + y), 1)
                        coeffs.update(dict.fromkeys(range(q + x, q + y), -1))
                        rows.append(Constraint(coeffs, "==", 0))
            rows = self._rows[inputs] = tuple(rows)
        return rows


def deviation_polytope_constraints(tree: Tree) -> DeviationPolytope:
    """The polytope of ``tree``: built once per tree (through
    `Tree.per_tree`) and shared by every program on any problem over it."""
    return DeviationPolytope(tree)
