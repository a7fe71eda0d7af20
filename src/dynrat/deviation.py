"""Deviation rules: adapted stochastic remappings of action sequences.

A deviation rule rewrites each intended action sequence into a lottery over
action sequences, subject to adaptedness: the rewritten play up to period t
may depend only on the intended play up to period t.  Rules are the
certificates that observed behavior cannot be rationalized: `dominates` is
one sign test (`failed_condition`) on a rule's gains against the
observation's consistency rows (`model.consistency`), whatever the kind of
observation; on a one-parameter family it runs on the rule's affine gains
(`affine_gains`) with nothing pinned.

A rule is one type, `DeviationRule`, built on its tree and stored as its
integers: each row's nonzero (column, numerator) pairs over one
denominator, the columns numbering the tree's leaves, which are their
labels.  Adaptedness is read from the tree's padded paths and their common
prefixes (`Tree.paths`, `Tree.common`), so no label is split back into
actions.  A pure rule is each leaf's output leaf, as `enumerate_pure_rules`
and `best_joint_deviation` give it and `affine_gains` reads it; `pure_rule`
builds it as the type, with one unit entry per row, where it is a
certificate.  Every walk over aligned input and output prefixes (counting,
enumeration, the backward induction) loops over the tree's runs of leaves
(`model.Prefixes`), level by level.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Iterable, Mapping, Sequence
from itertools import chain, product
from operator import add
from typing import Optional, Union

from .model import (
    DecisionProblem,
    Frozen,
    JointDistribution,
    Observation,
    Tree,
    ValidationError,
    _format,
    _leaf_weights,
    _over_lcm,
    _ratio,
    _require_joint_shape,
    _require_probability_numerators,
    consistency,
)

#: Default ceiling for pure-rule enumeration.
DEFAULT_MAX_RULES = 10**6


class SizeGuardError(RuntimeError):
    """Raised when pure-rule enumeration would exceed the configured cap."""

    def __init__(self, count: int, cap: int):
        try:
            size = str(count)
        except ValueError:  # past int()'s digit limit: its number of digits instead
            digits = int(math.log10(count))
            digits += 1 + (count >= 10 ** (digits + 1)) - (count < 10 ** digits)
            size = f"a {digits}-digit number of"
        super().__init__(
            f"instance has {size} adapted pure rules, above the cap of {cap};"
            " enumeration-based checks are not viable at this size"
        )
        self.count = count
        self.cap = cap


# ---------------------------------------------------------------------------
# Adaptedness
# ---------------------------------------------------------------------------

def _support_is_adapted(common: Sequence[int], out_seqs: Sequence[tuple[str, ...]],
                        support: Sequence[Sequence[tuple[int, int]]]) -> bool:
    """Whether a row-stochastic kernel from input sequences to ``out_seqs``,
    given by each row's nonzero ``(column, numerator)`` pairs over one
    common denominator, has period-t output marginals that depend only on
    the first t input entries.  The inputs are given by ``common``, the
    length of each pair of neighbouring inputs' common prefix
    (`model._common`; a tree's leaves have it as `Tree.common`).  They must
    be distinct, and those that share a prefix consecutive, as a tree's
    leaves and product-ordered signal sequences are: then neighbours that
    share c entries need only have equal period-c marginals, which fix the
    coarser ones.  Each is summed from a row's nonzero entries, so a sparse
    kernel costs its support."""
    def marginal(row: Sequence[tuple[int, int]], t: int) -> dict[tuple[str, ...], int]:
        sums: dict[tuple[str, ...], int] = {}
        for j, w in row:
            key = out_seqs[j][:t]
            sums[key] = sums.get(key, 0) + w
        return {key: w for key, w in sums.items() if w}
    return all(not c or marginal(row, c) == marginal(after, c)
               for c, row, after in zip(common, support, support[1:]))


def _resolve_kernel(problem: DecisionProblem, kernel) -> tuple[list[list[tuple[int, int]]], int]:
    """The rows of a kernel given as a matrix or as a mapping from input
    leaves to either an output leaf (point mass) or a weight mapping, each
    as its nonzero (column, numerator) pairs, in column order for a matrix
    and in the mapping's order for a weight mapping, and their one
    denominator.  Neither stochasticity nor adaptedness is checked here."""
    n = len(problem.leaves)
    if not isinstance(kernel, Mapping):
        matrix = [[_ratio(v) for v in row] for row in kernel]
        if len(matrix) != n or any(len(r) != n for r in matrix):
            raise ValidationError("kernel matrix must be square over the leaves")
        rows = [[(j, w) for j, w in enumerate(row) if w[0]] for row in matrix]
    else:
        rows = [None] * n
        position, leaves = problem.tree.leaf_position, problem.leaves
        for key, row in kernel.items():
            i = position(key)
            if rows[i] is not None:
                raise ValidationError(f"row for {leaves[i]!r} given twice")
            if type(row) is not dict and not isinstance(row, Mapping):
                rows[i] = [(position(row), (1, 1))]
                continue
            rows[i] = [(j, w) for j, w in _leaf_weights(problem, row, "row", leaves[i]).items()
                       if w[0]]
        if None in rows:
            raise ValidationError(f"kernel is missing a row for {leaves[rows.index(None)]!r}")
    nums, den = _over_lcm([w for row in rows for _, w in row])
    it = iter(nums)
    return [[(j, next(it)) for j, _ in row] for row in rows], den


def is_adapted(problem: DecisionProblem, kernel) -> bool:
    """Exact adaptedness test for a row-stochastic kernel over the leaves.

    Raises `ValidationError` if the kernel is not row-stochastic.
    """
    rows, den = _resolve_kernel(problem, kernel)
    for row in rows:
        _require_probability_numerators([x for _, x in row], den, "kernel row")
    return _support_is_adapted(problem.tree.common, problem.tree.paths, rows)


# ---------------------------------------------------------------------------
# Rules
# ---------------------------------------------------------------------------

class DeviationRule(Frozen):
    """A row-stochastic, adapted kernel over the leaves of a tree.

    Row i, the lottery that leaf i is rewritten into, is ``rows[i]``: its
    nonzero entries as (column, numerator) pairs in column order, over the
    one denominator ``den``.  A pure rule has one ``(j, 1)`` entry per row
    over den 1; enumeration gives a pure rule as its output leaves, and
    `pure_rule` builds one where a certificate is needed.  Construction
    puts the rows in lowest terms, so equal kernels compare and hash equal
    however they were built, and validates both stochasticity and
    adaptedness, the latter on the tree's padded paths (`Tree.paths`,
    `Tree.common`).  The rule keeps the tree's leaves.
    """

    __match_args__ = ("leaves", "rows", "den")
    leaves: tuple[str, ...]
    rows: tuple[tuple[tuple[int, int], ...], ...]
    den: int

    def __init__(self, tree: Tree, rows: Sequence[Iterable[tuple[int, int]]], den: int) -> None:
        n = len(tree.leaves)
        if len(rows) != n or den <= 0:
            raise ValidationError("deviation rule shape mismatch")
        g = math.gcd(den, *[x for row in rows for _, x in row])
        rows = tuple([tuple(sorted([(j, x // g) for j, x in row if x])) for row in rows])
        den //= g
        for row in rows:  # each in column order: check its ends and neighbours
            if row and (row[0][0] < 0 or row[-1][0] >= n) or len(row) > 1 and any(
                    a == b for (a, _), (b, _) in zip(row, row[1:])):
                raise ValidationError("deviation rule shape mismatch")
            _require_probability_numerators([x for _, x in row], den, "deviation rule row")
        if not _support_is_adapted(tree.common, tree.paths, rows):
            raise ValidationError("kernel is not adapted")
        vars(self).update(leaves=tree.leaves, rows=rows, den=den)

    @staticmethod
    def from_mapping(problem: DecisionProblem, kernel) -> "DeviationRule":
        return DeviationRule(problem.tree, *_resolve_kernel(problem, kernel))

    def to_json_dict(self) -> dict:
        return {a: {self.leaves[j]: _format(x, self.den) for j, x in row}
                for a, row in zip(self.leaves, self.rows)}


def pure_rule(problem: DecisionProblem, targets: Iterable[int]) -> DeviationRule:
    """The pure rule that rewrites leaf i into leaf ``targets[i]``."""
    return DeviationRule(problem.tree, tuple(((j, 1),) for j in targets), 1)


def identity_rule(problem: DecisionProblem) -> DeviationRule:
    return pure_rule(problem, range(len(problem.leaves)))


# ---------------------------------------------------------------------------
# Enumeration
# ---------------------------------------------------------------------------

def _fold(tree: Tree, leaf: Callable[[int, int], object],
          over: Callable[[Sequence], object], combine: Callable[[list], object]):
    """F(root, root) over aligned pairs (h, g) of an input run and an output
    run of one level (`model.Prefixes`), bottom-up in one loop per level:
    F(h, g) = combine([part(h', g) for each child h' of h]), where the part
    of a one-leaf child is ``leaf(lo, hi)`` on g's leaves, its choices being
    any of them, and that of any other child is ``over`` its values
    F(h', g') on the children g' of g, in order."""
    starts, kids = tree.prefixes.starts, tree.prefixes.kids
    below: dict[int, list] = {}  # each run of more than one leaf, one level down: F on every run
    for t in range(tree.depth - 1, -1, -1):
        runs, down, child = starts[t], starts[t + 1], kids[t]
        below = {h: [combine([leaf(runs[g], runs[g + 1]) if down[c + 1] - down[c] == 1
                              else over(below[c][child[g]:child[g + 1]])
                              for c in range(child[h], child[h + 1])])
                     for g in range(len(runs) - 1)]
                 for h in range(len(runs) - 1) if runs[h + 1] - runs[h] > 1}
    return below[0][0] if below else leaf(0, 1)


def count_pure_rules(problem: DecisionProblem) -> int:
    """Number of adapted pure rules: `_fold` of the products over the input
    children of the sums over the output children, a one-leaf input
    counting the leaves it may go to."""
    return _fold(problem.tree, lambda lo, hi: hi - lo, sum, math.prod)


def best_joint_deviation(
    problem: DecisionProblem, joint: JointDistribution
) -> tuple[int, Callable[[], tuple[int, ...]]]:
    """The most any adapted rule gains on average under ``joint``, by
    backward induction with no LP, over ``joint.den * problem.den``, and a
    function that gives a pure rule that gains it as each leaf's output
    leaf, so a caller that reads the gain alone builds no rule.

    A rule's output prefix may depend on the recommended (input) prefix, so
    the best rule is a best response to that prefix as a signal: over aligned
    pairs of runs of one level (`model.Prefixes`), V(h, g) = sum over the
    input children h' of h of the max over the output children g' of g of
    V(h', g'), valued bottom-up, level by level.  An input run of one leaf i
    has seen all it will see, so V(i, g) is the best of sum_s joint(i, s)
    u(j, s) over g's leaves j, and i goes to the first leaf j that attains
    it.  The gain is V(root, root) minus the law's own expected utility.
    The picks are read top-down, ties going to the first output child in
    document order.  Input runs without mass are skipped, and each of their
    leaves goes to the first leaf of its output run.  The law is read from
    its integer `JointDistribution.cells` and the utilities from
    `DecisionProblem.integer_payoffs`, so the induction adds and compares
    Python ints: a leaf's payoffs at every output leaf are summed from the
    table's state columns over the states where it has mass.
    """
    table, uden = problem.integer_payoffs
    _require_joint_shape(problem, joint)
    tree, cells, width = problem.tree, joint.cells, len(problem.states)
    starts, kids = tree.prefixes.starts, tree.prefixes.kids
    columns = tuple(zip(*table))  # each state's payoffs, leaf by leaf
    values: dict[int, list[int]] = {}  # each leaf with mass: its payoff at each output leaf
    seen = [0]  # seen[i]: how many leaves before leaf i have mass
    for i, k in enumerate(range(0, len(cells), width)):
        mass = [(x, column) for x, column in zip(cells[k:k + width], columns) if x]
        if mass:
            (x, column), *rest = mass
            row = [x * u for u in column]
            for x, column in rest:
                row = [v + x * u for v, u in zip(row, column)]
            values[i] = row
        seen.append(len(values))
    best: list[dict[int, list[int]]] = [{} for _ in starts]  # V(h, g): h live, of 2+ leaves
    for t in range(tree.depth - 1, -1, -1):
        runs, down, child = starts[t], starts[t + 1], kids[t]
        # each run g's leaves, and its runs one level down
        leaves, children = list(zip(runs, runs[1:])), list(zip(child, child[1:]))
        for h, (lo, hi) in enumerate(leaves):
            if hi - lo > 1 and seen[hi] > seen[lo]:
                total = None  # V(h, g) for every g: each live child's maxima, summed
                for c in range(child[h], child[h + 1]):
                    a, b = down[c], down[c + 1]
                    if seen[b] > seen[a]:
                        row, cuts = (values[a], leaves) if b - a == 1 else (best[t + 1][c], children)
                        part = [max(row[x:y]) for x, y in cuts]
                        total = part if total is None else list(map(add, total, part))
                best[t][h] = total
    own = sum(v[i] for i, v in values.items())
    gain = (best[0][0][0] if len(table) > 1 else own) - own

    def targets() -> tuple[int, ...]:
        out, picks = [0] * len(table), {0: 0}  # picks: each live run to read, and its output run
        for t in range(tree.depth):
            runs, down, child, chosen = starts[t], starts[t + 1], kids[t], {}
            for h, g in picks.items():
                for c in range(child[h], child[h + 1]):
                    a, b = down[c], down[c + 1]
                    if seen[b] == seen[a]:
                        out[a:b] = [runs[g]] * (b - a)
                    elif b - a == 1:
                        out[a] = values[a].index(max(values[a][runs[g]:runs[g + 1]]), runs[g])
                    else:
                        row = best[t + 1][c]
                        chosen[c] = row.index(max(row[child[g]:child[g + 1]]), child[g])
            picks = chosen
        return tuple(out)

    return gain, targets


def enumerate_pure_rules(
    problem: DecisionProblem, max_rules: int = DEFAULT_MAX_RULES
) -> tuple[tuple[int, ...], ...]:
    """The complete list of adapted pure rules, in a fixed order, each as
    every leaf's output leaf; `pure_rule` builds one as a certificate.

    The order is the lexicographic product of per-prefix output choices taken
    in tree document order, so repeated calls (and separate processes) agree.
    Raises `SizeGuardError` before materializing anything too large.  The
    list is built on every call, so it lives only as long as the caller
    holds it: `_fold` of the lists of each input run's output leaves, where
    a one-leaf input lists the leaves it may go to, the output children's
    lists are joined in order, and the input children's are multiplied out,
    the first child's choice varying slowest.
    """
    total = count_pure_rules(problem)
    if total > max_rules:
        raise SizeGuardError(total, max_rules)
    return tuple(_fold(problem.tree, lambda lo, hi: [(j,) for j in range(lo, hi)],
                       lambda lists: list(chain.from_iterable(lists)),
                       lambda parts: [tuple(chain.from_iterable(c)) for c in product(*parts)]))


# ---------------------------------------------------------------------------
# Gains and dominance
# ---------------------------------------------------------------------------

def _column_gains(pay: Sequence[Sequence[int]], rows: Sequence[Sequence[tuple[int, int]]],
                  den: int) -> list[int]:
    """The gains of a rule's ``rows`` over ``den`` on an integer payoff
    table ``pay[i][s]``, cell by cell as `JointDistribution.cells` numbers
    them, over den times the table's denominator."""
    width = range(len(pay[0]))
    return [sum(w * pay[j][s] for j, w in support) - den * own[s]
            for support, own in zip(rows, pay) for s in width]


def _integer_gains(problem: DecisionProblem, rule: DeviationRule) -> tuple[list[int], int]:
    """The rule's gain table, cell (i, s) being the payoff change from
    following the rule instead of playing leaf i in state s, sum_j D(i, j)
    u(j, s) - u(i, s) over the row's nonzero entries, in integer numerators
    over one positive denominator: on the payoffs of
    `DecisionProblem.integer_payoffs`.  `dominates` is a sign test on it;
    the tests' ``conftest.gains`` reads it as `Fraction` rows."""
    if rule.leaves != problem.leaves:
        raise ValidationError("rule leaves do not match the problem")
    pay, uden = problem.integer_payoffs
    return _column_gains(pay, rule.rows, rule.den), rule.den * uden


def affine_gains(family: DecisionProblem, rule: Union[DeviationRule, Sequence[int]]
                 ) -> tuple[list[int], list[int]]:
    """A rule's integer gains (A, B) on the constant and the slope column of
    a one-parameter family's table; a pure rule may be given as each leaf's
    output leaf.  Pinned at t = p/q, an entry is c*q + m*p over a positive
    denominator, so the rule's integer gains there are q*A + p*B times a
    positive factor, which no sign test sees."""
    if isinstance(rule, DeviationRule):
        rows, den, leaves = rule.rows, rule.den, rule.leaves
    else:  # a pure rule's output leaves
        rows, den, leaves = [((j, 1),) for j in rule], 1, family.leaves
    if leaves != family.leaves or len(rows) != len(leaves) or len(family.param_names) != 1:
        raise ValidationError("rule leaves do not match the one-parameter family")
    return tuple(_column_gains(family.columns[k], rows, den) for k in (0, 1))


def dominates(problem: DecisionProblem, rule: DeviationRule, observed: Observation) -> bool:
    """Whether ``rule`` proves that no obedient law induces ``observed``
    (by Farkas' lemma, some rule does whenever none does): no condition of
    the sign test `failed_condition` fails on its integer gains against the
    observation's consistency rows (`model.consistency`)."""
    rows = consistency(problem, observed)
    return failed_condition(_integer_gains(problem, rule)[0], rows) is None


def failed_condition(cells: Sequence[int], rows: Sequence[tuple[int, int, int]]
                     ) -> Optional[tuple[list[tuple[int, int]], bool]]:
    """The one sign test of dominance, on a rule's gains G, cell by cell in
    any positive units, and consistency rows E gamma = e: no cell in no row
    has G < 0, in cell order, then sum e * level > 0, a row's level being
    its least G.  For a sequence: G > 0 at it and G >= 0 elsewhere; a
    marginal: sum_i w_i min_s G(i, s) > 0; a joint law: sum g * G > 0.
    None when all hold, else the first that fails, as weights (cell, w)
    and whether it is strict: sum w * G >= 0, or > 0.  The last is given
    on the cells where the rows' levels are reached."""
    total = free = 0  # free: the first cell past the last row
    for start, stop, e in (*rows, (len(cells), len(cells), 0)):  # and the cells after it
        if free < start and min(cells[free:start]) < 0:
            return [(next(c for c in range(free, start) if cells[c] < 0), 1)], False
        if e:  # a one-cell row's level is its cell: no slice to take
            total += e * (cells[start] if stop - start == 1 else min(cells[start:stop]))
        free = stop
    if total > 0:
        return None
    return [(cells.index(min(cells[start:stop]), start, stop), e)
            for start, stop, e in rows if e], True
