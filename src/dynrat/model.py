"""Decision problems, action sequences, and observed-choice distributions.

All numeric data is exact, held as `fractions.Fraction`s or as integers over
one common denominator; nothing in the core ever rounds.  Literals are read
once, as integers (`_ratio`), into the rows they feed under one lcm, and
integers are written back by one gcd each (`_format`).  A decision problem
is a finite rooted action tree (`Tree`) of depth at most ``periods``, a
finite state set, and a terminal utility table.  Histories with no
successors are terminal; their root-to-leaf paths are padded with the
reserved marker ``"_"`` up to the tree's depth, so the set of padded
leaves plays the role of the full action-sequence space.

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
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from itertools import chain
from typing import Optional, Union

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
    den = math.lcm(*(d for _, d in pairs))
    return [n * (den // d) for n, d in pairs], den


def _chunks(values: Iterable, width: int) -> tuple[tuple, ...]:
    """``values`` cut into consecutive tuples of ``width`` entries."""
    it = iter(values)
    return tuple(zip(*[it] * width))


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
# Action sequences
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ActionSequence:
    """A root-to-leaf path padded with `PAD` to the depth of its tree.
    Its `label`, the unpadded path joined with commas, is joined once, on
    construction, for every reader and writer of leaves by name."""

    entries: tuple[str, ...]
    label: str = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        entries = self.entries
        if PAD in entries:
            n = entries.index(PAD)
            if entries.count(PAD) != len(entries) - n:
                raise ValidationError(f"action after padding in {entries!r}")
            entries = entries[:n]
        object.__setattr__(self, "label", ",".join(entries))

    @property
    def history(self) -> tuple[str, ...]:
        """The unpadded path (padding only ever trails, see `__post_init__`)."""
        return self.entries[:self.entries.index(PAD)] if PAD in self.entries else self.entries

    def __str__(self) -> str:  # pragma: no cover - repr sugar
        return self.label


def _pad(history: Sequence[str], periods: int) -> ActionSequence:
    return ActionSequence(tuple(history) + (PAD,) * (periods - len(history)))


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


@dataclass(frozen=True, eq=False)
class Tree:
    """A finite rooted action tree of depth at most ``periods``.

    ``branches`` lists, in document order, every non-terminal history together
    with its available actions; the root history is ``()``.  Leaves are padded,
    and what is built period by period runs, up to the tree's `depth`;
    ``periods`` only bounds the padding a label may carry.  Construction
    validates the tree once and walks it once, for the leaves, the depth
    and the leaf labels that every reader resolves a leaf's own label
    through (`leaf_position`); every problem on it, and every problem that
    `substitute_params` or `analysis.risk_transform` derives from one, shares
    it and what is built from it (`per_tree`).  Identity is used for
    equality and hashing.
    """

    periods: int
    branches: tuple[tuple[tuple[str, ...], tuple[str, ...]], ...]
    branch_map: dict[tuple[str, ...], tuple[str, ...]] = field(init=False, repr=False)
    #: The length of the longest leaf history, at most ``periods``.
    depth: int = field(init=False, repr=False)
    #: All padded leaves, in document (depth-first) order.
    leaves: tuple[ActionSequence, ...] = field(init=False, repr=False)
    #: Each leaf's label, in leaf order.
    labels: tuple[str, ...] = field(init=False, repr=False)
    #: Each leaf's label, mapped to the leaf's index.
    _labels: dict[str, int] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if self.periods < 1:
            raise ValidationError("periods must be at least 1")
        branch_map, checked = {}, set()
        for history, actions in self.branches:
            if history in branch_map:
                raise ValidationError(f"history {history!r} listed twice")
            if not actions:
                raise ValidationError(f"history {history!r} has an empty action set")
            if len(set(actions)) != len(actions):
                raise ValidationError(f"duplicate action label at history {history!r}")
            for a in actions:
                if a not in checked:  # each label once, however many nodes offer it
                    _check_label(a, "action label")
            checked.update(actions)
            if len(history) >= self.periods:
                raise ValidationError("tree deeper than the number of periods")
            branch_map[history] = actions
        if () not in branch_map:
            raise ValidationError("missing root action set")

        for history in branch_map:  # reachable: offered by its parent, recursively
            if history and history[-1] not in branch_map.get(history[:-1], ()):
                raise ValidationError(f"unreachable history {history!r}")

        histories, stack = [], [()]  # the one leaf walk, depth first
        while stack:
            history = stack.pop()
            actions = branch_map.get(history)
            if actions is None:
                histories.append(history)
            else:
                stack.extend(history + (a,) for a in reversed(actions))
        depth = max(map(len, histories))
        leaves = tuple(_pad(h, depth) for h in histories)
        labels = tuple(leaf.label for leaf in leaves)
        for name, value in (("branch_map", branch_map), ("depth", depth), ("leaves", leaves),
                            ("labels", labels), ("_labels", {a: i for i, a in enumerate(labels)})):
            object.__setattr__(self, name, value)

    @cached_property
    def leaf_index(self) -> dict[ActionSequence, int]:
        return {leaf: i for i, leaf in enumerate(self.leaves)}

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

    def is_terminal(self, history: tuple[str, ...]) -> bool:
        return history not in self.branch_map

    def actions_at(self, history: tuple[str, ...]) -> tuple[str, ...]:
        try:
            return self.branch_map[history]
        except KeyError:
            raise ValidationError(f"history {history!r} is terminal or unknown") from None

    def prefix_classes(self, t: int) -> tuple[tuple[tuple[str, ...], tuple[int, ...]], ...]:
        """Group leaf indices by their padded length-``t`` prefix, in leaf order."""
        groups: dict[tuple[str, ...], list[int]] = {}
        for i, leaf in enumerate(self.leaves):
            groups.setdefault(leaf.entries[:t], []).append(i)
        return tuple((prefix, tuple(idx)) for prefix, idx in groups.items())

    def sequence(self, value: Union[str, ActionSequence, Iterable[str]]) -> ActionSequence:
        """Resolve an action sequence given as a leaf, a comma-joined label,
        or an iterable of action labels: exactly a leaf's actions, optionally
        followed by `PAD` entries up to ``periods`` entries in all.  Spaces
        around the entries of a label are ignored."""
        if isinstance(value, ActionSequence):
            if value in self.leaf_index:
                return value
            value = value.entries
        labels = self._labels
        if isinstance(value, str):
            label = value if value in labels else ",".join(p.strip() for p in value.split(","))
        else:
            parts = tuple(value) if isinstance(value, Iterable) else (value,)
            if not all(isinstance(p, str) and "," not in p for p in parts):
                raise ValidationError(f"{value!r} is not an action sequence")
            label = ",".join(parts)
        i = labels.get(label)
        if i is None and label.count(",") < self.periods:  # padded: strip the padding
            i = labels.get(re.sub(f"(?:,{PAD})+$", "", label))
        if i is None:
            raise ValidationError(f"{label!r} is not a leaf of this problem")
        return self.leaves[i]

    def leaf_position(self, value: Union[str, ActionSequence, Iterable[str]]) -> int:
        """The index of the leaf that `sequence` resolves ``value`` to; a
        leaf's own label takes one dict lookup."""
        i = self._labels.get(value) if isinstance(value, str) else None
        return self.leaf_index[self.sequence(value)] if i is None else i


@dataclass(frozen=True, eq=False)
class DecisionProblem:
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

    tree: Tree
    states: tuple[str, ...]
    param_names: tuple[str, ...]
    table: tuple[tuple[int, ...], ...]
    den: int

    def __post_init__(self) -> None:
        if not self.states:
            raise ValidationError("at least one state is required")
        if len(set(self.states)) != len(self.states):
            raise ValidationError("duplicate state label")
        for s in self.states:
            _check_label(s, "state label")
        if len(set(self.param_names)) != len(self.param_names):
            raise ValidationError("duplicate parameter name")
        for p in self.param_names:
            if not _NAME_RE.fullmatch(p):
                raise ValidationError(f"parameter name {p!r} is not an identifier")
        width = 1 + len(self.param_names)
        if (len(self.table) != len(self.tree.leaves) * len(self.states) or self.den <= 0
                or set(map(len, self.table)) != {width}):
            raise ValidationError("utility table shape mismatch")
        g = math.gcd(self.den, *chain.from_iterable(self.table))
        if g > 1:
            object.__setattr__(self, "table", _chunks(
                [x // g for x in chain.from_iterable(self.table)], width))
            object.__setattr__(self, "den", self.den // g)

    @property
    def leaves(self) -> tuple[ActionSequence, ...]:
        return self.tree.leaves

    @property
    def leaf_index(self) -> dict[ActionSequence, int]:
        return self.tree.leaf_index

    def sequence(self, value: Union[str, ActionSequence, Iterable[str]]) -> ActionSequence:
        return self.tree.sequence(value)

    def state_position(self, state: str) -> int:
        """The index of ``state`` in ``states``."""
        try:
            return self.states.index(state)
        except ValueError:
            raise ValidationError(f"unknown state {state!r}") from None

    @cached_property
    def integer_payoffs(self) -> tuple[tuple[tuple[int, ...], ...], int]:
        """The utility table in integers: ``(numerators, den)``, where
        ``numerators[i][s] / den`` is the utility of ``leaves[i]`` in
        ``states[s]``, in lowest terms.
        Raises `ValidationError` while the problem has free parameters."""
        if self.param_names:
            raise ValidationError(
                f"problem still has free parameters {self.param_names!r}; instantiate first")
        return _chunks(map(operator.itemgetter(0), self.table), len(self.states)), self.den

    @property
    def has_params(self) -> bool:
        return bool(self.param_names)


# ---------------------------------------------------------------------------
# Observed data
# ---------------------------------------------------------------------------

def _require_probability_numerators(nums: Sequence[int], den: int, what: str) -> None:
    """Raise `ValidationError` unless the weights ``nums`` over ``den`` are
    nonnegative and sum to exactly 1."""
    if any(x < 0 for x in nums):
        raise ValidationError(f"{what} must be a probability vector (weights nonnegative)")
    if sum(nums) != den:
        raise ValidationError(f"{what} must be a probability vector (weights summing to exactly 1)")


def _require_probability_vector(weights: Iterable[Fraction], what: str) -> None:
    """`_require_probability_numerators` on ``weights`` over one lcm.  Only
    nonzero entries are converted, so a sparse row costs its support."""
    _require_probability_numerators(*_over_lcm([w.as_integer_ratio() for w in weights if w]), what)


def _leaf_weights(problem: DecisionProblem, row: Mapping, what: str) -> dict[int, tuple[int, int]]:
    """A row ``{leaf: q}`` as leaf index -> weight, read by `_ratio`.  Two
    spellings of one leaf (``not_invest`` and ``not_invest,_``) are refused,
    not resolved by the last one; ``what`` names the row in the error."""
    weights: dict[int, tuple[int, int]] = {}
    tree = problem.tree
    for leaf, q in row.items():
        i = tree.leaf_position(leaf)
        if i in weights:
            raise ValidationError(f"leaf {tree.labels[i]!r} of {what} given twice")
        weights[i] = _ratio(q)
    return weights


@dataclass(frozen=True)
class JointDistribution:
    """An observed joint distribution over (action sequence, state) cells.

    ``cells`` holds the weights row after row (leaf by leaf, each row state
    by state) as numerators over the one denominator ``den``.  Construction
    puts them in lowest terms, so equal laws compare and hash equal however
    they were built, and checks that they form a probability vector.
    """

    leaves: tuple[ActionSequence, ...]
    states: tuple[str, ...]
    cells: tuple[int, ...]
    den: int

    def __post_init__(self) -> None:
        if len(self.cells) != len(self.leaves) * len(self.states) or self.den <= 0:
            raise ValidationError("joint distribution shape mismatch")
        g = math.gcd(self.den, *self.cells)
        object.__setattr__(self, "cells", tuple(x // g for x in self.cells))
        object.__setattr__(self, "den", self.den // g)
        _require_probability_numerators(self.cells, self.den, "joint distribution")

    @cached_property
    def consistency_rows(self) -> tuple[tuple[int, int, int], ...]:
        """The law's rows in `consistency`, one per cell, built once."""
        return tuple((k, k + 1, x) for k, x in enumerate(self.cells))

    @cached_property
    def matrix(self) -> tuple[tuple[Fraction, ...], ...]:
        """``matrix[i][s]``: the weight of leaf i in state s."""
        width = len(self.states)
        return tuple(tuple(Fraction(x, self.den) for x in self.cells[k:k + width])
                     for k in range(0, len(self.cells), width))

    @staticmethod
    def from_mapping(problem: DecisionProblem, weights) -> "JointDistribution":
        """Build from ``{(leaf, state): q}`` or nested ``{leaf: {state: q}}``."""
        if weights and all(isinstance(v, Mapping) for v in weights.values()):
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
                    raise ValidationError(f"cell {tree.labels[i] + '@' + state!r} given twice")
                given[k] = _ratio(q)
        nums, den = _over_lcm(given.values())
        cells = [0] * (len(problem.leaves) * width)
        for k, x in zip(given, nums):
            cells[k] = x
        return JointDistribution(problem.leaves, problem.states, cells, den)

    def weight(self, a: ActionSequence, state: str) -> Fraction:
        k = self.leaves.index(a) * len(self.states) + self.states.index(state)
        return Fraction(self.cells[k], self.den)

    def action_marginal(self) -> "MarginalDistribution":
        return MarginalDistribution(
            self.leaves, tuple(map(sum, _chunks(self.cells, len(self.states)))), self.den)

    def to_json_dict(self) -> dict:
        width = len(self.states)
        out: dict[str, dict[str, str]] = {}
        for leaf, k in zip(self.leaves, range(0, len(self.cells), width)):
            cells = {s: _format(x, self.den)
                     for s, x in zip(self.states, self.cells[k:k + width]) if x}
            if cells:
                out[leaf.label] = cells
        return out


@dataclass(frozen=True)
class MarginalDistribution:
    """An observed distribution over action sequences only.

    ``weights[i]`` is the weight of ``leaves[i]`` as a numerator over the
    one denominator ``den``.  Construction puts them in lowest terms, so
    equal laws compare and hash equal however they were built, and checks
    that they form a probability vector.
    """

    leaves: tuple[ActionSequence, ...]
    weights: tuple[int, ...]
    den: int

    def __post_init__(self) -> None:
        if len(self.weights) != len(self.leaves) or self.den <= 0:
            raise ValidationError("marginal distribution shape mismatch")
        g = math.gcd(self.den, *self.weights)
        object.__setattr__(self, "weights", tuple(x // g for x in self.weights))
        object.__setattr__(self, "den", self.den // g)
        _require_probability_numerators(self.weights, self.den, "marginal distribution")

    @staticmethod
    def from_mapping(problem: DecisionProblem, weights: Mapping) -> "MarginalDistribution":
        given = _leaf_weights(problem, weights, "the marginal law")
        nums, den = _over_lcm(given.values())
        vec = [0] * len(problem.leaves)
        for i, x in zip(given, nums):
            vec[i] = x
        return MarginalDistribution(problem.leaves, vec, den)

    def weight(self, a: ActionSequence) -> Fraction:
        return Fraction(self.weights[self.leaves.index(a)], self.den)

    def to_json_dict(self) -> dict:
        return {leaf.label: _format(w, self.den)
                for leaf, w in zip(self.leaves, self.weights) if w}


#: What an analyst can observe: one action sequence, an action-sequence law,
#: or a joint action-state law.
Observation = Union[ActionSequence, MarginalDistribution, JointDistribution]


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
    start = problem.leaf_index[problem.sequence(observed)] * width
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


def load_problem(text: str) -> DecisionProblem:
    """Parse and validate a problem file (see the package README for the schema).

    All numeric literals are read exactly; decimal notation never passes
    through binary floating point.
    """
    try:
        doc = json.loads(text, parse_float=Fraction, object_pairs_hook=_no_duplicate_keys)
    except ValueError as exc:  # also a number past int()'s digit limit
        raise ParseError(f"invalid JSON: {exc}") from exc
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

    branches: list[tuple[tuple[str, ...], tuple[str, ...]]] = []

    def walk(node, history: tuple[str, ...]) -> None:
        if not isinstance(node, Mapping):
            raise ParseError(f"tree node at {history!r} must be an object")
        branches.append((history, tuple(node.keys())))
        for action, child in node.items():
            if child == "leaf":
                continue
            if isinstance(child, Mapping):
                walk(child, history + (action,))
            else:
                raise ParseError(f"tree entry {action!r} must be \"leaf\" or an object")

    walk(doc["tree"], ())
    tree = Tree(periods, tuple(branches))
    known = tree._labels  # a leaf is keyed by its label alone

    utility_doc = doc["utility"]
    if not isinstance(utility_doc, Mapping):
        raise ParseError("utility must be an object")
    # each entry's row as (numerator, denominator) pairs, by leaf index and state
    exprs: dict[tuple[int, str], list[tuple[int, int]]] = {}
    for leaf_id, row in utility_doc.items():
        i = known.get(leaf_id)
        if i is None:
            raise ValidationError(f"utility entry for unknown leaf {leaf_id!r}")
        if not isinstance(row, Mapping):
            raise ParseError(f"utility row for {leaf_id!r} must be an object")
        for state, expr in row.items():
            if state not in states:
                raise ValidationError(f"utility entry for unknown state {state!r}")
            exprs[i, state] = _affine(expr, params)
    terms = []
    for i, label in enumerate(tree.labels):
        for s in states:
            entry = exprs.get((i, s))
            if entry is None:
                raise ValidationError(f"missing utility for leaf {label!r} in state {s!r}")
            terms += entry
    nums, den = _over_lcm(terms)
    return DecisionProblem(tree, tuple(states), tuple(params), _chunks(nums, 1 + len(params)), den)


def problem_to_dict(problem: DecisionProblem) -> dict:
    """Inverse of `problem_from_dict`; reproduces the problem-file schema.

    Each utility entry is rendered from its table row: a bare number when
    it has no parameter, else its terms in parameter-name order, the
    constant first unless it is 0, and a coefficient of 1 or -1 written as
    the sign alone (``"R - 2*c"``)."""
    tree, den, names = problem.tree, problem.den, problem.param_names
    order = sorted(range(len(names)), key=names.__getitem__)

    def subtree(history: tuple[str, ...]):
        node = {}
        for a in tree.branch_map[history]:
            child = history + (a,)
            node[a] = subtree(child) if child in tree.branch_map else "leaf"
        return node

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

    rendered = {row: render(row) for row in set(problem.table)}  # each distinct row once
    entries = map(rendered.__getitem__, problem.table)
    doc = {
        "periods": tree.periods,
        "states": list(problem.states),
        "tree": subtree(()),
        "utility": {label: dict(zip(problem.states, row))
                    for label, row in zip(tree.labels, _chunks(entries, len(problem.states)))},
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
