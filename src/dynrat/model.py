"""Decision problems, action sequences, and observed-choice distributions.

All numeric data is exact, held as `fractions.Fraction`s or as integers over
one common denominator; nothing in the core ever rounds.  A decision problem
is a finite rooted action tree of depth at most ``periods``, a finite state
set, and a terminal utility table.  Histories with no successors are
terminal; their root-to-leaf paths are padded with the reserved marker
``"_"`` up to ``periods`` entries, so the set of padded leaves plays the role
of the full action-sequence space.

Utilities may be affine in a vector of named parameters (for example a
discount factor the analyst wants to estimate); `instantiate` pins the
parameters and yields a parameter-free problem.
"""

from __future__ import annotations

import json
import math
import operator
import re
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Callable, Collection, Iterable, Mapping, Optional, Sequence, Union

#: Reserved padding marker for entries after a terminal history.
PAD = "_"

_FORBIDDEN_LABEL_CHARS = (",", "@", ":")
_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_RATIONAL_RE = re.compile(r"([+-]?[0-9]+)(?:/([0-9]+))?")


class ParseError(ValueError):
    """Raised when an input document is syntactically malformed."""


class ValidationError(ValueError):
    """Raised when a structurally valid input violates a model invariant."""


# ---------------------------------------------------------------------------
# Exact rationals
# ---------------------------------------------------------------------------

def parse_rational(value: Union[int, str, Fraction]) -> Fraction:
    """Convert an exact representation to a `Fraction`.

    Accepts ints, `Fraction`s, and strings of the form ``"3"``, ``"-2/7"`` or
    ``"0.85"`` (decimals are read exactly).  Floats are rejected: they carry
    binary rounding and would poison the strict sign tests downstream.  Only
    strings other than a plain ``[+-]p[/q]`` in ASCII digits reach `Fraction`'s parser.
    """
    if isinstance(value, str):
        text = value.strip()
        plain = _RATIONAL_RE.fullmatch(text)
        try:
            if plain is None:
                return Fraction(text)
            return Fraction(int(plain[1]), int(plain[2] or 1))
        except (ValueError, ZeroDivisionError) as exc:
            raise ParseError(f"not a rational literal: {value!r}") from exc
    if isinstance(value, bool):
        raise ParseError("booleans are not numbers")
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, float):
        raise ParseError(f"refusing inexact float {value!r}; pass a string or fraction")
    raise ParseError(f"cannot interpret {type(value).__name__} as a rational")


def _over_lcm(values: Collection[Fraction]) -> tuple[list[int], int]:
    """Integer numerators of ``values`` over the lcm of their denominators,
    and that lcm."""
    den = math.lcm(*(v.denominator for v in values))
    return [v.numerator * (den // v.denominator) for v in values], den


def format_rational(q: Fraction) -> str:
    """Render a `Fraction` as ``"p"`` or ``"p/q"`` (inverse of `parse_rational`)."""
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"


# ---------------------------------------------------------------------------
# Affine utility entries
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AffineExpr:
    """A utility entry ``constant + sum(coeff * param)`` over named parameters.

    ``coeffs`` holds only nonzero coefficients, ordered by parameter name, so
    equal expressions compare equal.
    """

    constant: Fraction
    coeffs: tuple[tuple[str, Fraction], ...] = ()

    def __post_init__(self) -> None:
        if not self.coeffs:
            return
        names = [n for n, _ in self.coeffs]
        if len(set(names)) != len(names):
            raise ValidationError("duplicate parameter in affine expression")
        if any(c == 0 for _, c in self.coeffs):
            raise ValidationError("zero coefficients must be dropped")
        if list(names) != sorted(names):
            raise ValidationError("coefficients must be sorted by parameter name")

    @staticmethod
    def make(constant: Fraction, coeffs: Mapping[str, Fraction] | None = None) -> "AffineExpr":
        """The expression with every number read by `parse_rational` and zero
        coefficients dropped."""
        terms = ((n, parse_rational(c)) for n, c in (coeffs or {}).items())
        return AffineExpr(parse_rational(constant), tuple(sorted((n, c) for n, c in terms if c)))

    @property
    def is_constant(self) -> bool:
        return not self.coeffs

    def substitute(self, point: Mapping[str, Fraction]) -> "AffineExpr":
        """Pin a subset of parameters, leaving the rest symbolic."""
        const = self.constant
        rest: dict[str, Fraction] = {}
        for name, coeff in self.coeffs:
            if name in point:
                const += coeff * point[name]
            else:
                rest[name] = coeff
        return AffineExpr.make(const, rest)

    def render(self) -> Union[int, str]:
        """Problem-file form: a bare number when constant, else a term string."""
        if self.is_constant:
            if self.constant.denominator == 1:
                return int(self.constant)
            return format_rational(self.constant)
        parts: list[str] = []
        if self.constant != 0:
            parts.append(format_rational(self.constant))
        for name, coeff in self.coeffs:
            if coeff == 1:
                term = name
            elif coeff == -1:
                term = f"-{name}"
            else:
                term = f"{format_rational(coeff)}*{name}"
            if parts and not term.startswith("-"):
                parts.append(f"+ {term}")
            elif parts:
                parts.append(f"- {term[1:]}")
            else:
                parts.append(term)
        return " ".join(parts) if parts else "0"


# One term of a utility entry: a run of signs, then a number with an optional
# ``*name``, or a bare name.  ``\d`` and ``\w`` are Unicode-aware here, as in
# `Fraction`'s own parser.
_TERM_RE = re.compile(r"\s*(?P<signs>(?:[+\-]\s*)*)(?:(?P<num>\d+(?:\.\d+)?(?:/\d+)?)"
                      r"(?:\s*\*\s*(?P<scaled>[A-Za-z_]\w*))?|(?P<name>[A-Za-z_]\w*))")


def parse_affine(value: Union[int, str, Fraction], params: Sequence[str]) -> AffineExpr:
    """Parse a utility entry: a number, a rational string, or a term string
    like ``"R - 2*c"`` whose names must all be declared parameters.  Every
    term after the first needs a sign."""
    if isinstance(value, (int, Fraction)) and not isinstance(value, bool):
        return AffineExpr(parse_rational(value))
    if not isinstance(value, str):
        raise ParseError(f"bad utility entry {value!r}")
    text = value.strip()
    if not text:
        raise ParseError("empty utility entry")
    terms: dict[Optional[str], Fraction] = {}  # the constant is at key None
    pos = 0
    while pos < len(text):
        term = _TERM_RE.match(text, pos)
        if term is None:
            raise ParseError(f"cannot parse utility entry {value!r}")
        signs, num, scaled, name = term.group("signs", "num", "scaled", "name")
        if pos and not signs:
            raise ParseError(f"expected '+' or '-' between terms in {value!r}")
        coeff = parse_rational(num) if num else Fraction(1)
        if signs.count("-") % 2:
            coeff = -coeff
        name = name or scaled
        if name is not None and name not in params:
            raise ValidationError(f"unknown parameter {name!r} in utility entry")
        terms[name] = terms[name] + coeff if name in terms else coeff
        pos = term.end()
    constant = terms.pop(None) if None in terms else Fraction(0)
    return AffineExpr.make(constant, terms) if terms else AffineExpr(constant)


# ---------------------------------------------------------------------------
# Action sequences
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ActionSequence:
    """A root-to-leaf path padded with `PAD` to the problem's period count."""

    entries: tuple[str, ...]

    def __post_init__(self) -> None:
        seen_pad = False
        for e in self.entries:
            if e == PAD:
                seen_pad = True
            elif seen_pad:
                raise ValidationError(f"action after padding in {self.entries!r}")

    @property
    def history(self) -> tuple[str, ...]:
        """The unpadded path."""
        return tuple(e for e in self.entries if e != PAD)

    @property
    def label(self) -> str:
        return ",".join(self.history)

    def __str__(self) -> str:  # pragma: no cover - repr sugar
        return self.label


def _pad(history: Sequence[str], periods: int) -> ActionSequence:
    return ActionSequence(tuple(history) + (PAD,) * (periods - len(history)))


# ---------------------------------------------------------------------------
# Decision problems
# ---------------------------------------------------------------------------

def _leaf_histories(branch_map: Mapping[tuple[str, ...], tuple[str, ...]], history=()):
    """The terminal histories at or below ``history``, in document
    (depth-first) order."""
    actions = branch_map.get(history)
    if actions is None:
        yield history
        return
    for a in actions:
        yield from _leaf_histories(branch_map, history + (a,))


def _check_label(label: str, what: str) -> None:
    if not isinstance(label, str) or not label:
        raise ValidationError(f"{what} must be a nonempty string")
    if label in (PAD, "∅"):
        raise ValidationError(f"{what} {label!r} is reserved for padding")
    if any(ch in label for ch in _FORBIDDEN_LABEL_CHARS):
        raise ValidationError(f"{what} {label!r} contains a forbidden character")


@dataclass(frozen=True, eq=False)
class DecisionProblem:
    """A finite dynamic decision problem.

    ``branches`` lists, in document order, every non-terminal history together
    with its available actions; the root history is ``()``.  ``utilities``
    carries one `AffineExpr` per (padded leaf, state) pair.  Instances are
    immutable and safe to share; identity is used for equality and hashing so
    they can key caches.
    """

    periods: int
    states: tuple[str, ...]
    param_names: tuple[str, ...]
    branches: tuple[tuple[tuple[str, ...], tuple[str, ...]], ...]
    utilities: tuple[tuple[tuple[str, ...], str, AffineExpr], ...]

    def __post_init__(self) -> None:
        if self.periods < 1:
            raise ValidationError("periods must be at least 1")
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

        branch_map = {}
        for history, actions in self.branches:
            if history in branch_map:
                raise ValidationError(f"history {history!r} listed twice")
            if not actions:
                raise ValidationError(f"history {history!r} has an empty action set")
            if len(set(actions)) != len(actions):
                raise ValidationError(f"duplicate action label at history {history!r}")
            for a in actions:
                _check_label(a, "action label")
            if len(history) >= self.periods:
                raise ValidationError("tree deeper than the number of periods")
            branch_map[history] = actions
        if () not in branch_map:
            raise ValidationError("missing root action set")

        for history in branch_map:  # reachable: offered by its parent, recursively
            if history and history[-1] not in branch_map.get(history[:-1], ()):
                raise ValidationError(f"unreachable history {history!r}")

        padded = {leaf.entries for leaf in self.leaves}
        states = set(self.states)
        seen = set()
        for entries, state, expr in self.utilities:
            key = (entries, state)
            if key in seen:
                raise ValidationError(f"duplicate utility entry for {key!r}")
            if entries not in padded or state not in states:
                raise ValidationError(f"utility entry for unknown pair {key!r}")
            bad = [n for n, _ in expr.coeffs if n not in self.param_names]
            if bad:
                raise ValidationError(f"utility references undeclared parameter {bad[0]!r}")
            seen.add(key)
        if len(seen) < len(padded) * len(states):
            entries, state = min((e, s) for e in padded for s in self.states if (e, s) not in seen)
            raise ValidationError(
                f"missing utility for leaf {','.join(e for e in entries if e != PAD)!r}"
                f" in state {state!r}"
            )

    # -- derived structure ---------------------------------------------------

    @cached_property
    def branch_map(self) -> dict[tuple[str, ...], tuple[str, ...]]:
        return dict(self.branches)

    @cached_property
    def leaves(self) -> tuple[ActionSequence, ...]:
        """All padded leaves, in document (depth-first) order."""
        return tuple(_pad(h, self.periods) for h in _leaf_histories(self.branch_map))

    @cached_property
    def leaf_index(self) -> dict[ActionSequence, int]:
        return {leaf: i for i, leaf in enumerate(self.leaves)}

    @cached_property
    def state_index(self) -> dict[str, int]:
        return {s: i for i, s in enumerate(self.states)}

    @cached_property
    def _utility_map(self) -> dict[tuple[tuple[str, ...], str], AffineExpr]:
        return {(entries, state): expr for entries, state, expr in self.utilities}

    @cached_property
    def integer_payoffs(self) -> tuple[tuple[tuple[int, ...], ...], int]:
        """The utility table in integers: ``(numerators, den)`` with
        ``payoffs[i][s] == numerators[i][s] / den``, over the least common
        denominator.  Raises `ValidationError` while the problem has free
        parameters."""
        _require_parameter_free(self)
        return self._integer_payoffs_at(())

    @cached_property
    def payoffs(self) -> tuple[tuple[Fraction, ...], ...]:
        """The exact utility table: ``payoffs[i][s]`` is the utility of
        ``leaves[i]`` in ``states[s]``."""
        nums, den = self.integer_payoffs
        return tuple(tuple(Fraction(n, den) for n in row) for row in nums)

    @cached_property
    def _affine_table(self) -> tuple[list[list[int]], int]:
        """Each utility entry, in leaf and state order, as its constant and
        its coefficient of each declared parameter, over one lcm."""
        terms = []
        for leaf in self.leaves:
            for s in self.states:
                expr = self._utility_map[leaf.entries, s]
                coeffs = dict(expr.coeffs)
                terms += [expr.constant, *(coeffs.get(p, 0) for p in self.param_names)]
        nums, den = _over_lcm(terms)
        k = 1 + len(self.param_names)
        return [nums[i:i + k] for i in range(0, len(nums), k)], den

    def _integer_payoffs_at(
        self, values: Sequence[Fraction]
    ) -> tuple[tuple[tuple[int, ...], ...], int]:
        """`integer_payoffs` with the declared parameters at ``values``: at
        delta = p/q, c + m*delta over L is (c*q + m*p) over L*q."""
        entries, den = self._affine_table
        weights, scale = _over_lcm([1, *values])
        nums = [sum(map(operator.mul, entry, weights)) for entry in entries]
        g = math.gcd(den * scale, *nums)
        width = len(self.states)
        return (tuple(tuple(n // g for n in nums[k:k + width]) for k in range(0, len(nums), width)),
                den * scale // g)

    def __getattr__(self, name: str):
        # Reached only when normal lookup fails: a problem whose parameters
        # `substitute_params` pinned builds its utility entries, in leaf and
        # state order, from its integer payoffs when they are first read.
        if name != "utilities" or "integer_payoffs" not in self.__dict__:
            raise AttributeError(name)
        nums, den = self.integer_payoffs
        self.__dict__[name] = utilities = tuple(
            (leaf.entries, s, AffineExpr(Fraction(n, den)))
            for leaf, row in zip(self.leaves, nums) for s, n in zip(self.states, row))
        return utilities

    @cached_property
    def _per_tree(self) -> dict:
        return {}

    def per_tree(self, build: Callable[[DecisionProblem], object]):
        """``build(self)``, built once per tree: the problems that
        `substitute_params` pins from this one share it, so ``build`` must
        read the tree alone, never the utilities."""
        memo = self._per_tree
        if build not in memo:
            memo[build] = build(self)
        return memo[build]

    @property
    def has_params(self) -> bool:
        return bool(self.param_names)

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
            if value not in self.leaf_index:
                raise ValidationError(f"{value.label!r} is not a leaf of this problem")
            return value
        spellings = self.per_tree(_leaf_spellings)
        if isinstance(value, str):
            label = value if value in spellings else ",".join(p.strip() for p in value.split(","))
        else:
            parts = tuple(value) if isinstance(value, Iterable) else (value,)
            if not all(isinstance(p, str) and "," not in p for p in parts):
                raise ValidationError(f"{value!r} is not an action sequence")
            label = ",".join(parts)
        try:
            return spellings[label]
        except KeyError:
            raise ValidationError(f"{label!r} is not a leaf of this problem") from None

    def utility_expr(self, a: ActionSequence, state: str) -> AffineExpr:
        try:
            return self._utility_map[(a.entries, state)]
        except KeyError:
            if state not in self.state_index:
                raise ValidationError(f"unknown state {state!r}") from None
            raise ValidationError(f"unknown leaf {a.entries!r}") from None


def _leaf_spellings(problem: DecisionProblem) -> dict[str, ActionSequence]:
    """Each leaf's label, alone and followed by each number of `PAD` entries
    that keeps it within ``periods``, mapped to the leaf.  Depends on the
    tree alone: use it through `per_tree`."""
    return {",".join(leaf.history + (PAD,) * k): leaf for leaf in problem.leaves
            for k in range(problem.periods - len(leaf.history) + 1)}


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
    _require_probability_numerators(*_over_lcm([w for w in weights if w]), what)


def _leaf_weights(problem: DecisionProblem, row: Mapping, what: str) -> dict[int, Fraction]:
    """A row ``{leaf: q}`` as leaf index -> weight.  Two spellings of one
    leaf (``not_invest`` and ``not_invest,_``) are refused, not resolved by
    the last one; ``what`` names the row in the error."""
    weights: dict[int, Fraction] = {}
    for leaf, q in row.items():
        a = problem.sequence(leaf)
        i = problem.leaf_index[a]
        if i in weights:
            raise ValidationError(f"leaf {a.label!r} of {what} given twice")
        weights[i] = parse_rational(q)
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
    def matrix(self) -> tuple[tuple[Fraction, ...], ...]:
        """``matrix[i][s]``: the weight of leaf i in state s."""
        width = len(self.states)
        return tuple(tuple(Fraction(x, self.den) for x in self.cells[k:k + width])
                     for k in range(0, len(self.cells), width))

    @staticmethod
    def from_mapping(problem: DecisionProblem, weights) -> "JointDistribution":
        """Build from ``{(leaf, state): q}`` or nested ``{leaf: {state: q}}``."""
        if weights and all(isinstance(v, Mapping) for v in weights.values()):
            items = [((leaf, state), q) for leaf, row in weights.items() for state, q in row.items()]
        else:
            items = list(weights.items())
        width = len(problem.states)
        given: dict[int, Fraction] = {}  # cell index -> weight
        for (leaf, state), q in items:
            a = problem.sequence(leaf)
            if state not in problem.state_index:
                raise ValidationError(f"unknown state {state!r}")
            k = problem.leaf_index[a] * width + problem.state_index[state]
            if k in given:
                raise ValidationError(f"cell {a.label + '@' + state!r} given twice")
            given[k] = parse_rational(q)
        nums, den = _over_lcm(given.values())
        cells = [0] * (len(problem.leaves) * width)
        for k, x in zip(given, nums):
            cells[k] = x
        return JointDistribution(problem.leaves, problem.states, cells, den)

    def weight(self, a: ActionSequence, state: str) -> Fraction:
        k = self.leaves.index(a) * len(self.states) + self.states.index(state)
        return Fraction(self.cells[k], self.den)

    def action_marginal(self) -> "MarginalDistribution":
        width = len(self.states)
        return MarginalDistribution(self.leaves, tuple(
            Fraction(sum(self.cells[k:k + width]), self.den)
            for k in range(0, len(self.cells), width)))

    def to_json_dict(self) -> dict:
        width = len(self.states)
        out: dict[str, dict[str, str]] = {}
        for leaf, k in zip(self.leaves, range(0, len(self.cells), width)):
            cells = {s: format_rational(Fraction(x, self.den))
                     for s, x in zip(self.states, self.cells[k:k + width]) if x}
            if cells:
                out[leaf.label] = cells
        return out


@dataclass(frozen=True)
class MarginalDistribution:
    """An observed distribution over action sequences only."""

    leaves: tuple[ActionSequence, ...]
    weights: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        if len(self.weights) != len(self.leaves):
            raise ValidationError("marginal distribution shape mismatch")
        _require_probability_numerators(*self.integer_weights, "marginal distribution")

    @cached_property
    def integer_weights(self) -> tuple[list[int], int]:
        """``(weights, den)``: the weights as numerators over their least
        common denominator ``den``."""
        return _over_lcm(self.weights)

    @staticmethod
    def from_mapping(problem: DecisionProblem, weights: Mapping) -> "MarginalDistribution":
        vec = [Fraction(0)] * len(problem.leaves)
        seen = set()
        for leaf, q in weights.items():
            i = problem.leaf_index[problem.sequence(leaf)]
            if i in seen:
                raise ValidationError(f"weight of {problem.leaves[i].label!r} given twice")
            seen.add(i)
            vec[i] = parse_rational(q)
        return MarginalDistribution(problem.leaves, tuple(vec))

    def weight(self, a: ActionSequence) -> Fraction:
        return self.weights[self.leaves.index(a)]

    def to_json_dict(self) -> dict:
        return {
            leaf.label: format_rational(w)
            for leaf, w in zip(self.leaves, self.weights)
            if w != 0
        }


#: What an analyst can observe: one action sequence, an action-sequence law,
#: or a joint action-state law.
Observation = Union[ActionSequence, MarginalDistribution, JointDistribution]


# ---------------------------------------------------------------------------
# Problem files
# ---------------------------------------------------------------------------

def _no_duplicate_keys(pairs):
    seen = {}
    for key, value in pairs:
        if key in seen:
            raise ParseError(f"duplicate key {key!r}")
        seen[key] = value
    return seen


def load_problem(text: str) -> DecisionProblem:
    """Parse and validate a problem file (see the package README for the schema).

    All numeric literals are read exactly; decimal notation never passes
    through binary floating point.
    """
    try:
        doc = json.loads(text, parse_float=Fraction, object_pairs_hook=_no_duplicate_keys)
    except json.JSONDecodeError as exc:
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
    # each leaf's label, mapped to its padded entries
    known = {",".join(h): h + (PAD,) * (periods - len(h)) for h in _leaf_histories(dict(branches))}

    utility_doc = doc["utility"]
    if not isinstance(utility_doc, Mapping):
        raise ParseError("utility must be an object")
    utilities: list[tuple[tuple[str, ...], str, AffineExpr]] = []
    for leaf_id, row in utility_doc.items():
        padded = known.get(leaf_id)
        if padded is None:
            raise ValidationError(f"utility entry for unknown leaf {leaf_id!r}")
        if not isinstance(row, Mapping):
            raise ParseError(f"utility row for {leaf_id!r} must be an object")
        for state, expr in row.items():
            if state not in states:
                raise ValidationError(f"utility entry for unknown state {state!r}")
            utilities.append((padded, state, parse_affine(expr, params)))

    return DecisionProblem(
        periods=periods,
        states=tuple(states),
        param_names=tuple(params),
        branches=tuple(branches),
        utilities=tuple(utilities),
    )


def problem_to_dict(problem: DecisionProblem) -> dict:
    """Inverse of `problem_from_dict`; reproduces the problem-file schema."""

    def subtree(history: tuple[str, ...]):
        node = {}
        for a in problem.branch_map[history]:
            child = history + (a,)
            node[a] = subtree(child) if child in problem.branch_map else "leaf"
        return node

    utility: dict[str, dict] = {}
    for leaf in problem.leaves:
        row = {}
        for s in problem.states:
            row[s] = problem.utility_expr(leaf, s).render()
        utility[leaf.label] = row
    doc = {
        "periods": problem.periods,
        "states": list(problem.states),
        "tree": subtree(()),
        "utility": utility,
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
    values = {name: parse_rational(v) for name, v in point.items()}
    unknown = set(values) - set(problem.param_names)
    if unknown:
        raise ValidationError(f"unknown parameter {sorted(unknown)[0]!r}")
    missing = set(problem.param_names) - set(values)
    if missing:
        raise ValidationError(f"missing parameter {sorted(missing)[0]!r}")
    return substitute_params(problem, values)


def substitute_params(problem: DecisionProblem, point: Mapping[str, Fraction]) -> DecisionProblem:
    """Pin a subset of parameters; the remaining ones stay symbolic.

    Pinning changes neither the tree, nor the utility entries' keys, nor the
    parameters they may name, so the result is not validated again: it
    shares the validated tree of ``problem`` and what is built per tree
    (`DecisionProblem.per_tree`).  When every parameter is pinned, the
    payoffs are evaluated in integers from ``problem``'s affine table, built
    once per family, with no `Fraction` or `AffineExpr` per entry.
    """
    remaining = tuple(p for p in problem.param_names if p not in point)
    pinned = object.__new__(DecisionProblem)
    if remaining:
        pinned.__dict__["utilities"] = tuple(
            (entries, state, expr.substitute(point))
            for entries, state, expr in problem.utilities
        )
    else:
        pinned.__dict__["integer_payoffs"] = problem._integer_payoffs_at(
            [point[p] for p in problem.param_names])
    pinned.__dict__.update(
        {name: getattr(problem, name) for name in ("branch_map", "leaves", "leaf_index",
                                                   "state_index", "_per_tree")},
        periods=problem.periods, states=problem.states, param_names=remaining,
        branches=problem.branches)
    return pinned


def _require_parameter_free(problem: DecisionProblem) -> None:
    if problem.has_params:
        raise ValidationError(
            f"problem still has free parameters {problem.param_names!r}; instantiate first"
        )


def utility(problem: DecisionProblem, a: ActionSequence, state: str) -> Fraction:
    """Exact terminal utility of leaf ``a`` in ``state`` (parameter-free problems)."""
    payoffs = problem.payoffs
    if state not in problem.state_index:
        raise ValidationError(f"unknown state {state!r}")
    return payoffs[problem.leaf_index[problem.sequence(a)]][problem.state_index[state]]


def lottery_utility(
    problem: DecisionProblem,
    lottery: Mapping[Union[str, ActionSequence], Fraction],
    state: str,
) -> Fraction:
    """Expected utility of a lottery over leaves, exactly.

    ``lottery`` must be a probability vector: nonnegative weights summing to 1.
    """
    weights = [parse_rational(q) for q in lottery.values()]
    _require_probability_vector(weights, "lottery")
    return sum((w * utility(problem, a, state) for a, w in zip(lottery, weights)), Fraction(0))
