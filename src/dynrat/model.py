"""Decision problems, action sequences, and observed-choice distributions.

All numeric data is exact, held as `fractions.Fraction`s or as integers over
one common denominator; nothing in the core ever rounds.  Literals are read
once, as integers (`_ratio`), into the rows they feed under one lcm, and
integers are written back by one gcd each (`_format`).  A decision problem
is a finite rooted action tree (`Tree`) of depth at most ``periods``, a
finite state set, and a terminal utility table.  The tree is read from the
problem file's nested object by one walk, which validates it in document
order and records every history's actions and every leaf.  Histories with no
successors are terminal.  A leaf is its label, its actions joined with
commas, everywhere: in the tree, the laws, the rules and the reports, and
as an observed action sequence.  Its root-to-leaf path, padded with the
reserved marker ``"_"`` up to the tree's depth, is built once per tree
(`Tree.paths`), so the set of padded leaves plays the role of the full
action-sequence space.  Their padded prefixes are held once per tree as
runs of leaves (`Prefixes`), which every walk over the prefix tree loops
over, level by level, with no recursion.

Utilities may be affine in a vector of named parameters (for example a
discount factor the analyst wants to estimate).  The table holds each
entry's constant and coefficients as integers over one denominator; a
problem file's entry is read into its row (`_affine`) and written back from
it (`problem_to_dict`).  `instantiate` pins the parameters and yields a
parameter-free problem on the same, already validated, tree.
"""

from __future__ import annotations

import json
import math
import operator
import re
from collections.abc import Callable, Collection, Iterable, Mapping, Sequence
from fractions import Fraction
from functools import cached_property
from itertools import chain
from typing import BinaryIO, Optional, Union

#: Reserved padding marker for entries after a terminal history.
PAD = "_"

_FORBIDDEN_LABEL_CHARS = frozenset(",@:")
_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_RATIONAL_RE = re.compile(r"([+-]?[0-9]+)(?:/([0-9]+))?")


class ParseError(ValueError):
    """Raised when an input document is syntactically malformed."""


class ValidationError(ValueError):
    """Raised when a structurally valid input violates a model invariant."""


# ---------------------------------------------------------------------------
# Exact rationals
# ---------------------------------------------------------------------------

def _literal(value) -> Optional[tuple[int, int]]:
    """An int, a `Fraction` or a plain ASCII ``[+-]p[/q]`` string with q > 0
    as ``(numerator, denominator)`` in lowest terms; None for any other value."""
    if type(value) is int:
        return value, 1
    if not isinstance(value, str):  # a str first: `Fraction`'s check goes through its ABC
        return value.as_integer_ratio() if isinstance(value, Fraction) else None
    plain = _RATIONAL_RE.fullmatch(value.strip())
    if plain is None:
        return None
    try:
        p, q = int(plain[1]), int(plain[2] or 1)
    except ValueError:  # past int()'s digit limit: `_ratio`'s parser refuses it
        return None
    g = math.gcd(p, q)
    return (p // g, q // g) if q else None


def _ratio(value: Union[int, str, Fraction]) -> tuple[int, int]:
    """An exact literal as ``(numerator, denominator)`` in lowest terms.

    Accepts ints, `Fraction`s, and strings of the form ``"3"``, ``"-2/7"`` or
    ``"0.85"`` (decimals are read exactly).  Floats are rejected: they carry
    binary rounding and would poison the strict sign tests downstream.  Only
    strings other than a plain ``[+-]p[/q]`` in ASCII digits reach `Fraction`'s parser.
    """
    pair = _literal(value)
    if pair is not None:
        return pair
    if isinstance(value, bool):
        raise ParseError("booleans are not numbers")
    if isinstance(value, float):
        raise ParseError(f"refusing inexact float {value!r}; pass a string or fraction")
    if not isinstance(value, (str, int)):
        raise ParseError(f"cannot interpret {type(value).__name__} as a rational")
    try:
        return Fraction(value.strip() if isinstance(value, str) else value).as_integer_ratio()
    except (ValueError, ZeroDivisionError) as exc:
        raise ParseError(f"not a rational literal: {value!r}") from exc


def parse_rational(value: Union[int, str, Fraction]) -> Fraction:
    """An exact literal (see `_ratio`) as a `Fraction`."""
    return Fraction(*_ratio(value))


def _over_lcm(pairs: Collection[tuple[int, int]]) -> tuple[list[int], int]:
    """The numerators of ``(numerator, denominator)`` pairs over the lcm of
    their denominators, and that lcm."""
    den = math.lcm(*[d for _, d in pairs])
    return [n * (den // d) for n, d in pairs], den


def _chunks(values: Iterable, width: int) -> tuple[tuple, ...]:
    """``values`` cut into consecutive tuples of ``width`` entries."""
    it = iter(values)
    return tuple(zip(*[it] * width))


def _lowest(nums: Iterable[int], den: int) -> tuple[tuple[int, ...], int]:
    """Integers over ``den`` (> 0) put in lowest terms by one gcd, as a tuple."""
    nums = tuple(nums)
    g = math.gcd(den, *nums)
    return (nums, den) if g == 1 else (tuple([x // g for x in nums]), den // g)


def _format(x: int, den: int) -> str:
    """``x / den`` (den > 0) as ``"p"`` or ``"p/q"`` in lowest terms, by one gcd."""
    g = math.gcd(x, den)
    return str(x // g) if g == den else f"{x // g}/{den // g}"


def format_rational(q: Fraction) -> str:
    """Render a `Fraction` as ``"p"`` or ``"p/q"`` (inverse of `parse_rational`)."""
    return _format(q.numerator, q.denominator)


# ---------------------------------------------------------------------------
# Affine utility entries
# ---------------------------------------------------------------------------

# One term of a utility entry: a run of signs, then a number with an optional
# ``*name``, or a bare name.  ``\d`` and ``\w`` are Unicode-aware here, as in
# `Fraction`'s own parser.
_TERM_RE = re.compile(r"\s*(?P<signs>(?:[+\-]\s*)*)(?:(?P<num>\d+(?:\.\d+)?(?:/\d+)?)"
                      r"(?:\s*\*\s*(?P<scaled>[A-Za-z_]\w*))?|(?P<name>[A-Za-z_]\w*))")


def _affine(value: Union[int, str, Fraction], params: Sequence[str]) -> list[tuple[int, int]]:
    """Read a utility entry: a number, a rational string, or a term string
    like ``"R - 2*c"`` whose names must all be declared parameters.  Every
    term after the first needs a sign.  Returns ``(numerator, denominator)``
    pairs: the entry's constant, then its coefficient of each of ``params``.
    A plain number (`_literal`) skips the term parser."""
    plain = _literal(value)
    if plain is not None:
        return [plain] + [(0, 1)] * len(params)
    if not isinstance(value, str):
        raise ParseError(f"bad utility entry {value!r}")
    text = value.strip()
    if not text:
        raise ParseError("empty utility entry")
    column = {name: k for k, name in enumerate(params, 1)}
    terms = [(0, 1)] * (1 + len(params))
    pos = 0
    while pos < len(text):
        term = _TERM_RE.match(text, pos)
        if term is None:
            raise ParseError(f"cannot parse utility entry {value!r}")
        signs, num, scaled, name = term.group("signs", "num", "scaled", "name")
        if pos and not signs:
            raise ParseError(f"expected '+' or '-' between terms in {value!r}")
        x, d = _ratio(num) if num else (1, 1)
        name = name or scaled
        k = 0 if name is None else column.get(name)
        if k is None:
            raise ValidationError(f"unknown parameter {name!r} in utility entry")
        y, e = terms[k]  # y/e -+ x/d over lcm(e, d)
        m = math.lcm(e, d)
        terms[k] = (y * (m // e) + (-x if signs.count("-") % 2 else x) * (m // d), m)
        pos = term.end()
    return terms


# ---------------------------------------------------------------------------
# Immutable types
# ---------------------------------------------------------------------------

class Frozen:
    """The base of dynrat's immutable types.

    A subclass keeps its fields in its instance dict: its `__init__` sets
    each once, with ``vars(self).update``, and after that assigning or
    deleting an attribute raises `AttributeError`.  A `cached_property`
    writes to the instance dict itself, so it still caches, and `copy`,
    `deepcopy` and `pickle` restore the dict without assigning.
    ``__match_args__`` names the fields in positional order: the instance
    shows them in its repr, and compares and hashes by them (a type compared
    by identity takes `object`'s ``__eq__`` and ``__hash__`` back)."""

    __slots__ = ()
    __match_args__: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        cls._key = operator.attrgetter(*cls.__match_args__)

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key(self) == other._key(other)

    def __hash__(self) -> int:
        return hash(self._key(self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__match_args__)
        return f"{type(self).__qualname__}({fields})"


# ---------------------------------------------------------------------------
# Decision problems
# ---------------------------------------------------------------------------

def _check_label(label: str, what: str) -> None:
    if not isinstance(label, str) or not label:
        raise ValidationError(f"{what} must be a nonempty string")
    if label in (PAD, "∅"):
        raise ValidationError(f"{what} {label!r} is reserved for padding")
    if not _FORBIDDEN_LABEL_CHARS.isdisjoint(label):
        raise ValidationError(f"{what} {label!r} contains a forbidden character")


class Tree(Frozen):
    """A finite rooted action tree of depth at most ``periods``.

    ``nodes`` is the problem file's nested ``tree`` object: each node maps
    its actions, in document order, to ``"leaf"`` or to the next node.
    Construction walks it once, depth first, in document order and without
    recursion.  At each node it checks that the node is an object, that its
    action set is not empty, that each label not met before is valid, and
    the depth bound, so the first fault in document order is raised.  The walk
    records `branch_map` (every non-terminal history with its actions; the
    root is ``()``) and the leaves.  A leaf is its label, its actions joined
    with commas (`leaves`); its path padded with `PAD` up to the tree's
    `depth`, like what is built period by period, is in `paths`.
    ``periods`` only bounds the padding a spelling of a leaf may carry, and
    `leaf_position` is the one reader of every spelling.  Every problem on
    the tree, and every problem that `substitute_params` or
    `risk.risk_transform` derives from one, shares it and what is built from
    it (`per_tree`).  Identity is used for equality and hashing.
    """

    __match_args__ = ("periods",)
    __eq__ = object.__eq__
    __hash__ = object.__hash__
    periods: int
    branch_map: dict[tuple[str, ...], tuple[str, ...]]
    #: The length of the longest leaf history, at most ``periods``.
    depth: int
    #: Each leaf's label, in document (depth-first) order.
    leaves: tuple[str, ...]
    #: Each leaf's actions padded to ``depth`` entries, in leaf order.
    paths: tuple[tuple[str, ...], ...]
    #: Each leaf's label, mapped to the leaf's index.
    _index: dict[str, int]

    def __init__(self, periods: int, nodes: Mapping) -> None:
        if periods < 1:
            raise ValidationError("periods must be at least 1")
        branch_map, histories, checked = {}, [], set()
        stack = [((), nodes)]
        while stack:
            history, node = stack.pop()
            if node == "leaf" and history:  # the common cases first: no ABC check
                histories.append(history)
                continue
            if type(node) is not dict and not isinstance(node, Mapping):
                if not history:
                    raise ParseError("tree node at () must be an object")
                raise ParseError(f"tree entry {history[-1]!r} must be \"leaf\" or an object")
            if not node:
                raise ValidationError(f"history {history!r} has an empty action set")
            for a in node:
                if a not in checked:  # each label once, however many nodes offer it
                    _check_label(a, "action label")
                    checked.add(a)
            if len(history) >= periods:
                raise ValidationError("tree deeper than the number of periods")
            branch_map[history] = tuple(node)
            stack += [(history + (a,), child) for a, child in reversed(node.items())]
        depth = max(map(len, histories))
        leaves = tuple([",".join(h) for h in histories])
        vars(self).update(periods=periods, branch_map=branch_map, depth=depth, leaves=leaves,
                          paths=tuple([h + (PAD,) * (depth - len(h)) for h in histories]),
                          _index={a: i for i, a in enumerate(leaves)})

    @cached_property
    def _per_tree(self) -> dict:
        return {}

    def per_tree(self, build: Callable[[Tree], object]):
        """``build(self)``, built once per tree and shared by every problem
        on it."""
        memo = self._per_tree
        if build not in memo:
            memo[build] = build(self)
        return memo[build]

    @cached_property
    def common(self) -> tuple[int, ...]:
        """The length of each pair of neighbouring leaves' common padded
        prefix (`_common`), built once: the prefix runs and the adaptedness
        check of every rule on this tree read it."""
        return _common(self.paths)

    @cached_property
    def prefixes(self) -> Prefixes:
        """The padded prefixes of the leaves as runs of leaves, built once."""
        return Prefixes(self)

    def leaf_position(self, value: Union[str, Iterable[str]]) -> int:
        """The index of the leaf that ``value`` spells: a comma-joined label
        or an iterable of action labels, exactly a leaf's actions, optionally
        followed by `PAD` entries up to ``periods`` entries in all.  Spaces
        around the entries of a label are ignored; a leaf's own label takes
        one dict lookup."""
        index = self._index
        if isinstance(value, str):
            i = index.get(value)
            if i is not None:
                return i
            label = ",".join(p.strip() for p in value.split(","))
        else:
            parts = tuple(value) if isinstance(value, Iterable) else (value,)
            if not all(isinstance(p, str) and "," not in p for p in parts):
                raise ValidationError(f"{value!r} is not an action sequence")
            label = ",".join(parts)
        i = index.get(label)
        if i is None and label.count(",") < self.periods:  # padded: strip the padding
            i = index.get(re.sub(f"(?:,{PAD})+$", "", label))
        if i is None:
            raise ValidationError(f"{label!r} is not a leaf of this problem")
        return i

    def sequence(self, value: Union[str, Iterable[str]]) -> str:
        """The label of the leaf that ``value`` spells (`leaf_position`)."""
        return self.leaves[self.leaf_position(value)]


def _common(seqs: Sequence[tuple[str, ...]]) -> tuple[int, ...]:
    """The length of each pair of neighbouring sequences' common prefix;
    the sequences are of one length."""
    out = []
    for x, y in zip(seqs, seqs[1:]):
        t, end = 0, len(x)
        while t < end and x[t] == y[t]:
            t += 1
        out.append(t)
    return tuple(out)


class Prefixes(Frozen):
    """A tree's padded leaf prefixes as runs of leaves, level by level.

    In document order the leaves that share a padded length-t prefix are
    consecutive: run k of level t holds leaves ``starts[t][k]`` up to
    ``starts[t][k + 1]`` (the last entry is the number of leaves), and its
    children are runs ``kids[t][k]`` up to ``kids[t][k + 1]`` of level
    t + 1.  Both are read from `Tree.common`, the length of the common prefix
    of each pair of neighbouring leaves.  Level 0 is one run, level ``depth`` one a leaf."""

    __match_args__ = ("starts", "kids")
    starts: tuple[tuple[int, ...], ...]
    kids: tuple[tuple[int, ...], ...]

    def __init__(self, tree: Tree) -> None:
        common = tree.common
        cuts = list(range(1, len(tree.leaves)))  # one int object per cut, shared by every level
        starts = tuple([(0, *[i for i, c in zip(cuts, common) if c < t], len(tree.leaves))
                        for t in range(tree.depth + 1)])
        at = [{lo: k for k, lo in enumerate(lower)} for lower in starts[1:]]
        vars(self).update(starts=starts, kids=tuple(
            tuple(map(d.__getitem__, upper)) for d, upper in zip(at, starts)))


class DecisionProblem(Frozen):
    """A finite dynamic decision problem: an action tree, a state set and a
    utility table, affine in the declared parameters.

    ``table`` has one row per (leaf, state) pair, leaf by leaf and, within
    a leaf, state by state: the entry's constant, then its coefficient of each
    parameter in ``param_names``, as integers over the one positive
    denominator ``den``.  Construction checks the states, the parameter
    names and the table's shape, and puts the table in lowest terms; the
    tree was validated when it was built.  Instances are immutable and safe
    to share; identity is used for equality and hashing so they can key
    caches.
    """

    __match_args__ = ("tree", "states", "param_names", "table", "den")
    __eq__ = object.__eq__
    __hash__ = object.__hash__
    tree: Tree
    states: tuple[str, ...]
    param_names: tuple[str, ...]
    table: tuple[tuple[int, ...], ...]
    den: int

    def __init__(self, tree: Tree, states: tuple[str, ...], param_names: tuple[str, ...],
                 table: tuple[tuple[int, ...], ...], den: int) -> None:
        if not states:
            raise ValidationError("at least one state is required")
        if len(set(states)) != len(states):
            raise ValidationError("duplicate state label")
        for s in states:
            _check_label(s, "state label")
        if len(set(param_names)) != len(param_names):
            raise ValidationError("duplicate parameter name")
        for p in param_names:
            if not _NAME_RE.fullmatch(p):
                raise ValidationError(f"parameter name {p!r} is not an identifier")
        width = 1 + len(param_names)
        if (len(table) != len(tree.leaves) * len(states) or den <= 0
                or set(map(len, table)) != {width}):
            raise ValidationError("utility table shape mismatch")
        nums, lowest = _lowest(chain.from_iterable(table), den)
        if lowest != den:
            table, den = _chunks(nums, width), lowest
        vars(self).update(tree=tree, states=states, param_names=param_names, table=table, den=den)

    @property
    def leaves(self) -> tuple[str, ...]:
        return self.tree.leaves

    def sequence(self, value: Union[str, Iterable[str]]) -> str:
        return self.tree.sequence(value)

    def state_position(self, state: str) -> int:
        """The index of ``state`` in ``states``."""
        try:
            return self.states.index(state)
        except ValueError:
            raise ValidationError(f"unknown state {state!r}") from None

    @cached_property
    def columns(self) -> tuple[tuple[tuple[int, ...], ...], ...]:
        """The table's columns, each cut leaf by leaf: ``columns[k][i][s]``
        over ``den`` is entry k (the constant, then the coefficient of each
        parameter) of ``leaves[i]`` in ``states[s]``."""
        return tuple(_chunks(column, len(self.states)) for column in zip(*self.table))

    @cached_property
    def integer_payoffs(self) -> tuple[tuple[tuple[int, ...], ...], int]:
        """The utility table in integers: ``(numerators, den)``, where
        ``numerators[i][s] / den`` is the utility of ``leaves[i]`` in
        ``states[s]``, in lowest terms.
        Raises `ValidationError` while the problem has free parameters."""
        if self.param_names:
            raise ValidationError(
                f"problem still has free parameters {self.param_names!r}; instantiate first")
        return self.columns[0], self.den


# ---------------------------------------------------------------------------
# Observed data
# ---------------------------------------------------------------------------

def _require_probability_numerators(nums: Sequence[int], den: int, what: str) -> None:
    """Raise `ValidationError` unless the weights ``nums`` over ``den`` are
    nonnegative and sum to exactly 1."""
    if nums and min(nums) < 0:
        raise ValidationError(f"{what} must be a probability vector (weights nonnegative)")
    if sum(nums) != den:
        raise ValidationError(f"{what} must be a probability vector (weights summing to exactly 1)")


def _require_probability_vector(weights: Iterable[Fraction], what: str) -> None:
    """`_require_probability_numerators` on ``weights`` over one lcm.  Only
    nonzero entries are converted, so a sparse row costs its support."""
    _require_probability_numerators(*_over_lcm([w.as_integer_ratio() for w in weights if w]), what)


def _leaf_weights(problem: DecisionProblem, row: Mapping, what: str,
                  key=None) -> dict[int, tuple[int, int]]:
    """A row ``{leaf: q}`` as leaf index -> weight, read by `_ratio`.  Two
    spellings of one leaf (``not_invest`` and ``not_invest,_``) are refused,
    not resolved by the last one; ``what``, followed by the repr of ``key``
    unless it is None, names the row in the error."""
    weights: dict[int, tuple[int, int]] = {}
    tree = problem.tree
    for leaf, q in row.items():
        i = tree.leaf_position(leaf)
        if i in weights:
            name = what if key is None else f"{what} {key!r}"
            raise ValidationError(f"leaf {tree.leaves[i]!r} of {name} given twice")
        weights[i] = _ratio(q)
    return weights


class JointDistribution(Frozen):
    """An observed joint distribution over (action sequence, state) cells.

    ``cells`` holds the weights row after row (leaf by leaf, each row state
    by state) as numerators over the one denominator ``den``.  Construction
    puts them in lowest terms, so equal laws compare and hash equal however
    they were built, and checks that they form a probability vector.
    """

    __match_args__ = ("leaves", "states", "cells", "den")
    leaves: tuple[str, ...]
    states: tuple[str, ...]
    cells: tuple[int, ...]
    den: int

    def __init__(self, leaves: tuple[str, ...], states: tuple[str, ...],
                 cells: Sequence[int], den: int) -> None:
        if len(cells) != len(leaves) * len(states) or den <= 0:
            raise ValidationError("joint distribution shape mismatch")
        cells, den = _lowest(cells, den)
        _require_probability_numerators(cells, den, "joint distribution")
        vars(self).update(leaves=leaves, states=states, cells=cells, den=den)

    @cached_property
    def consistency_rows(self) -> tuple[tuple[int, int, int], ...]:
        """The law's rows in `consistency`, one per cell, built once."""
        return tuple([(k, k + 1, x) for k, x in enumerate(self.cells)])

    @staticmethod
    def from_mapping(problem: DecisionProblem, weights) -> "JointDistribution":
        """Build from ``{(leaf, state): q}`` or nested ``{leaf: {state: q}}``."""
        if weights and all(type(v) is dict or isinstance(v, Mapping) for v in weights.values()):
            rows = [(leaf, row.items()) for leaf, row in weights.items()]
        else:
            by_leaf: dict = {}
            for (leaf, state), q in weights.items():
                by_leaf.setdefault(leaf, []).append((state, q))
            rows = by_leaf.items()
        width, tree = len(problem.states), problem.tree
        given: dict[int, tuple[int, int]] = {}  # cell index -> weight
        for leaf, row in rows:  # each leaf as given is resolved once
            i = tree.leaf_position(leaf)
            for state, q in row:
                k = i * width + problem.state_position(state)
                if k in given:
                    raise ValidationError(f"cell {tree.leaves[i] + '@' + state!r} given twice")
                given[k] = _ratio(q)
        nums, den = _over_lcm(given.values())
        cells = [0] * (len(problem.leaves) * width)
        for k, x in zip(given, nums):
            cells[k] = x
        return JointDistribution(problem.leaves, problem.states, cells, den)

    def action_marginal(self) -> "MarginalDistribution":
        return MarginalDistribution(
            self.leaves, tuple(map(sum, _chunks(self.cells, len(self.states)))), self.den)

    def to_json_dict(self) -> dict:
        leaves, states, width = self.leaves, self.states, len(self.states)
        out: dict[str, dict[str, str]] = {}
        for k, x in enumerate(self.cells):
            if x:
                out.setdefault(leaves[k // width], {})[states[k % width]] = _format(x, self.den)
        return out


class MarginalDistribution(Frozen):
    """An observed distribution over action sequences only.

    ``weights[i]`` is the weight of ``leaves[i]`` as a numerator over the
    one denominator ``den``.  Construction puts them in lowest terms, so
    equal laws compare and hash equal however they were built, and checks
    that they form a probability vector.
    """

    __match_args__ = ("leaves", "weights", "den")
    leaves: tuple[str, ...]
    weights: tuple[int, ...]
    den: int

    def __init__(self, leaves: tuple[str, ...], weights: Sequence[int],
                 den: int) -> None:
        if len(weights) != len(leaves) or den <= 0:
            raise ValidationError("marginal distribution shape mismatch")
        weights, den = _lowest(weights, den)
        _require_probability_numerators(weights, den, "marginal distribution")
        vars(self).update(leaves=leaves, weights=weights, den=den)

    @staticmethod
    def from_mapping(problem: DecisionProblem, weights: Mapping) -> "MarginalDistribution":
        given = _leaf_weights(problem, weights, "the marginal law")
        nums, den = _over_lcm(given.values())
        vec = [0] * len(problem.leaves)
        for i, x in zip(given, nums):
            vec[i] = x
        return MarginalDistribution(problem.leaves, vec, den)

    def to_json_dict(self) -> dict:
        return {leaf: _format(w, self.den)
                for leaf, w in zip(self.leaves, self.weights) if w}


#: What an analyst can observe: one action sequence, as its label (or any
#: spelling that `Tree.leaf_position` reads), an action-sequence law, or a
#: joint action-state law.  Not a `typing.Union`, which `typing` caches for
#: the life of the process, keeping this module alive after a re-import.
Observation = str | MarginalDistribution | JointDistribution


def _require_joint_shape(problem: DecisionProblem, joint: JointDistribution) -> None:
    if joint.leaves != problem.leaves or joint.states != problem.states:
        raise ValidationError("joint law shapes do not match the problem")


def consistency(problem: DecisionProblem, observed: Observation) -> tuple[tuple[int, int, int], ...]:
    """The observation as consistency rows E gamma = e on a law gamma over
    the (leaf, state) cells, numbered as in `JointDistribution.cells`: each
    row one run ``(start, stop, e)`` of one leaf's cells with its integer
    entry of e, the runs disjoint and in cell order.  A sequence is one row,
    its cells, with e = 1 (the obedient laws are a cone); a marginal is one
    row per leaf, and a joint law one row per cell, with e its weight.
    The one place that tells the kinds of observation apart."""
    width = len(problem.states)
    if isinstance(observed, JointDistribution):
        _require_joint_shape(problem, observed)
        return observed.consistency_rows
    if isinstance(observed, MarginalDistribution):
        if observed.leaves != problem.leaves:
            raise ValidationError("marginal law leaves do not match the problem")
        return tuple((i * width, i * width + width, w) for i, w in enumerate(observed.weights))
    start = problem.tree.leaf_position(observed) * width
    return ((start, start + width, 1),)


# ---------------------------------------------------------------------------
# Problem files
# ---------------------------------------------------------------------------

def _no_duplicate_keys(pairs):
    """A JSON object's ``(key, value)`` pairs as a dict; an input error
    that names the first key given twice.  The pairs are walked only when
    the dict came out shorter."""
    out = dict(pairs)
    if len(out) != len(pairs):
        seen = set()
        for key, _ in pairs:
            if key in seen:
                raise ParseError(f"duplicate key {key!r}")
            seen.add(key)
    return out


#: The one JSON decoder, built once: decimals as `Fraction`s, a key given twice refused.
_DECODER = json.JSONDecoder(parse_float=Fraction, object_pairs_hook=_no_duplicate_keys)


def parse_json(source: Union[str, BinaryIO]):
    """A JSON text, or a file opened in binary mode, read exactly (decimals
    as `Fraction`s, a key given twice refused); any fault of the text,
    undecodable bytes, a leading byte-order mark (refused as `json.loads`
    refuses it) and nesting past the recursion limit included, is a
    `ParseError`.  A file's bytes are read as a text-mode file reads them,
    as UTF-8 with each CR LF and each lone CR as LF, so a fault is placed at
    the same line and column, without the text layer's Python codec objects."""
    try:
        text = source
        if not isinstance(source, str):
            text = source.read().decode("utf-8").replace("\r\n", "\n").replace("\r", "\n")
        if text.startswith("\ufeff"):
            raise json.JSONDecodeError("Unexpected UTF-8 BOM (decode using utf-8-sig)", text, 0)
        return _DECODER.decode(text)
    except (ValueError, RecursionError) as exc:
        raise ParseError(f"invalid JSON: {exc}") from exc


def load_problem(source: Union[str, BinaryIO]) -> DecisionProblem:
    """Parse and validate a problem file's text or the file opened in binary
    mode, read by `parse_json` (see the package README for the schema)."""
    doc = parse_json(source)
    if not isinstance(doc, dict):
        raise ParseError("problem file must be a JSON object")
    return problem_from_dict(doc)


def problem_from_dict(doc: Mapping) -> DecisionProblem:
    allowed = {"periods", "states", "params", "tree", "utility"}
    unknown = set(doc) - allowed
    if unknown:
        raise ParseError(f"unknown top-level key {sorted(unknown)[0]!r}")
    for key in ("periods", "states", "tree", "utility"):
        if key not in doc:
            raise ParseError(f"missing required key {key!r}")
    periods = doc["periods"]
    if not isinstance(periods, int) or isinstance(periods, bool):
        raise ParseError("periods must be an integer")
    states = doc["states"]
    if not isinstance(states, list) or not all(isinstance(s, str) for s in states):
        raise ParseError("states must be a list of strings")
    params = doc.get("params", [])
    if not isinstance(params, list) or not all(isinstance(p, str) for p in params):
        raise ParseError("params must be a list of strings")

    tree = Tree(periods, doc["tree"])
    known = tree._index  # a leaf is keyed by its label alone

    utility_doc = doc["utility"]
    if not isinstance(utility_doc, Mapping):
        raise ParseError("utility must be an object")
    width = len(states)
    column = {}  # each state's first position
    for s, state in enumerate(states):
        column.setdefault(state, s)
    # each entry's row of (numerator, denominator) pairs, at leaf * width + state
    cells: list = [None] * (len(known) * width)
    read: dict[str, list[tuple[int, int]]] = {}  # each distinct string entry, read once
    for leaf_id, row in utility_doc.items():
        i = known.get(leaf_id)
        if i is None:
            raise ValidationError(f"utility entry for unknown leaf {leaf_id!r}")
        if type(row) is not dict and not isinstance(row, Mapping):
            raise ParseError(f"utility row for {leaf_id!r} must be an object")
        first = i * width
        for state, expr in row.items():
            s = column.get(state)
            if s is None:
                raise ValidationError(f"utility entry for unknown state {state!r}")
            if isinstance(expr, str):
                entry = read.get(expr)
                if entry is None:
                    entry = read[expr] = _affine(expr, params)
                cells[first + s] = entry
            else:
                cells[first + s] = _affine(expr, params)
    if None in cells:  # a state listed twice (refused below) takes its first position's entries
        cells = [cells[k - k % width + column[states[k % width]]] for k in range(len(cells))]
        if None in cells:
            k = cells.index(None)
            raise ValidationError(f"missing utility for leaf {tree.leaves[k // width]!r}"
                                  f" in state {states[k % width]!r}")
    nums, den = _over_lcm(list(chain.from_iterable(cells)))
    return DecisionProblem(tree, tuple(states), tuple(params), _chunks(nums, 1 + len(params)), den)


def problem_to_dict(problem: DecisionProblem) -> dict:
    """Inverse of `problem_from_dict`; reproduces the problem-file schema.

    Each utility entry is rendered from its table row: a bare number when
    it has no parameter, else its terms in parameter-name order, the
    constant first unless it is 0, and a coefficient of 1 or -1 written as
    the sign alone (``"R - 2*c"``)."""
    tree, den, names = problem.tree, problem.den, problem.param_names
    order = sorted(range(len(names)), key=names.__getitem__)

    nodes = {}  # each history's node, its actions in order; a parent comes before its children
    for history, actions in tree.branch_map.items():
        nodes[history] = dict.fromkeys(actions, "leaf")
        if history:
            nodes[history[:-1]][history[-1]] = nodes[history]

    def number(x: int) -> Union[int, str]:  # x / den
        return x // den if x % den == 0 else _format(x, den)

    def render(row: tuple[int, ...]) -> Union[int, str]:
        constant, *coeffs = row
        terms = [(names[k], coeffs[k]) for k in order if coeffs[k]]
        if not terms:
            return number(constant)
        parts = [str(number(constant))] if constant else []
        for name, x in terms:
            term = name if abs(x) == den else f"{number(abs(x))}*{name}"
            if parts:
                parts.append(f"- {term}" if x < 0 else f"+ {term}")
            else:
                parts.append(f"-{term}" if x < 0 else term)
        return " ".join(parts)

    # each distinct row once, or each distinct constant of a parameter-free table
    keys, show = (problem.table, render) if names else ([c for c, in problem.table], number)
    rendered = {key: show(key) for key in set(keys)}
    entries = map(rendered.__getitem__, keys)
    doc = {
        "periods": tree.periods,
        "states": list(problem.states),
        "tree": nodes[()],
        "utility": {label: dict(zip(problem.states, row))
                    for label, row in zip(tree.leaves, _chunks(entries, len(problem.states)))},
    }
    if problem.param_names:
        doc["params"] = list(problem.param_names)
    return doc


# ---------------------------------------------------------------------------
# Operations
# ---------------------------------------------------------------------------

def instantiate(problem: DecisionProblem, point: Mapping[str, Union[int, str, Fraction]]) -> DecisionProblem:
    """Evaluate every utility entry at ``point``, which must pin every declared
    parameter exactly once.  The result is parameter-free."""
    unknown = set(point) - set(problem.param_names)
    if unknown:
        raise ValidationError(f"unknown parameter {sorted(unknown)[0]!r}")
    missing = set(problem.param_names) - set(point)
    if missing:
        raise ValidationError(f"missing parameter {sorted(missing)[0]!r}")
    return substitute_params(problem, point)


def substitute_params(problem: DecisionProblem,
                      point: Mapping[str, Union[int, str, Fraction]]) -> DecisionProblem:
    """Pin a subset of parameters; the remaining ones stay symbolic.

    The table stays in integers: each entry's pinned coefficients fold into
    its constant by one dot product (at t = p/q, c + m*t over L is c*q + m*p
    over L*q), and the remaining coefficients are scaled to the new
    denominator.  The result shares ``problem``'s tree, so the tree is not
    validated again and what is built per tree (`Tree.per_tree`) is shared.
    """
    names = problem.param_names
    weights, scale = _over_lcm([(1, 1), *(_ratio(point.get(p, 0)) for p in names)])
    kept = [k for k, p in enumerate(names, 1) if p not in point]
    table = problem.table
    constants = [sum(map(operator.mul, row, weights)) for row in table]
    return DecisionProblem(problem.tree, problem.states, tuple(names[k - 1] for k in kept),
                           tuple(zip(constants, *([row[k] * scale for row in table] for k in kept))),
                           problem.den * scale)
