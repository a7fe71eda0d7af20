"""Decision problems, action sequences, and observed-choice distributions.

All numeric data is held as exact rationals (`fractions.Fraction`); nothing in
the core ever rounds.  A decision problem is a finite rooted action tree of
depth at most ``periods``, a finite state set, and a terminal utility table.
Histories with no successors are terminal; their root-to-leaf paths are padded
with the reserved marker ``"_"`` up to ``periods`` entries, so the set of
padded leaves plays the role of the full action-sequence space.

Utilities may be affine in a vector of named parameters (for example a
discount factor the analyst wants to estimate); `instantiate` pins the
parameters and yields a parameter-free problem.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Mapping, Sequence, Union

#: Reserved padding marker for entries after a terminal history.
PAD = "_"

#: Exact scalar type used throughout the package.
Rational = Fraction

_FORBIDDEN_LABEL_CHARS = (",", "@", ":")
_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


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
    binary rounding and would poison the strict sign tests downstream.
    """
    if isinstance(value, bool):
        raise ParseError("booleans are not numbers")
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, float):
        raise ParseError(f"refusing inexact float {value!r}; pass a string or fraction")
    if isinstance(value, str):
        text = value.strip()
        try:
            return Fraction(text)
        except (ValueError, ZeroDivisionError) as exc:
            raise ParseError(f"not a rational literal: {value!r}") from exc
    raise ParseError(f"cannot interpret {type(value).__name__} as a rational")


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
        names = [n for n, _ in self.coeffs]
        if len(set(names)) != len(names):
            raise ValidationError("duplicate parameter in affine expression")
        if any(c == 0 for _, c in self.coeffs):
            raise ValidationError("zero coefficients must be dropped")
        if list(names) != sorted(names):
            raise ValidationError("coefficients must be sorted by parameter name")

    @staticmethod
    def make(constant: Fraction, coeffs: Mapping[str, Fraction] | None = None) -> "AffineExpr":
        items = tuple(sorted((n, Fraction(c)) for n, c in (coeffs or {}).items() if c != 0))
        return AffineExpr(Fraction(constant), items)

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


_TOKEN_RE = re.compile(r"\s*(?:(?P<op>[+\-*])|(?P<num>\d+(?:\.\d+)?(?:/\d+)?)|(?P<name>[A-Za-z_]\w*))")


def parse_affine(value: Union[int, str, Fraction], params: Sequence[str]) -> AffineExpr:
    """Parse a utility entry: a number, a rational string, or a term string
    like ``"R - 2*c"`` whose names must all be declared parameters."""
    if isinstance(value, (int, Fraction)) and not isinstance(value, bool):
        return AffineExpr.make(parse_rational(value))
    if not isinstance(value, str):
        raise ParseError(f"bad utility entry {value!r}")
    text = value.strip()
    if not text:
        raise ParseError("empty utility entry")

    tokens: list[tuple[str, str]] = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None or m.end() == pos:
            raise ParseError(f"cannot tokenize utility entry {value!r}")
        pos = m.end()
        for kind in ("op", "num", "name"):
            tok = m.group(kind)
            if tok is not None:
                tokens.append((kind, tok))
    constant = Fraction(0)
    coeffs: dict[str, Fraction] = {}
    i = 0
    first = True
    while i < len(tokens):
        sign = Fraction(1)
        while i < len(tokens) and tokens[i][0] == "op" and tokens[i][1] in "+-":
            if tokens[i][1] == "-":
                sign = -sign
            i += 1
        if i >= len(tokens):
            raise ParseError(f"dangling sign in {value!r}")
        first = False
        coeff = None
        name = None
        kind, tok = tokens[i]
        if kind == "num":
            coeff = parse_rational(tok)
            i += 1
            if i < len(tokens) and tokens[i] == ("op", "*"):
                i += 1
                if i >= len(tokens) or tokens[i][0] != "name":
                    raise ParseError(f"expected parameter name after '*' in {value!r}")
                name = tokens[i][1]
                i += 1
        elif kind == "name":
            name = tok
            coeff = Fraction(1)
            i += 1
        else:
            raise ParseError(f"unexpected token {tok!r} in {value!r}")
        if name is None:
            constant += sign * coeff
        else:
            if name not in params:
                raise ValidationError(f"unknown parameter {name!r} in utility entry")
            coeffs[name] = coeffs.get(name, Fraction(0)) + sign * coeff
    return AffineExpr.make(constant, coeffs)


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
    if len(history) > periods:
        raise ValidationError(f"path {tuple(history)!r} longer than {periods} periods")
    return ActionSequence(tuple(history) + (PAD,) * (periods - len(history)))


# ---------------------------------------------------------------------------
# Decision problems
# ---------------------------------------------------------------------------

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

        reachable = set()
        stack = [()]
        while stack:
            h = stack.pop()
            reachable.add(h)
            for a in branch_map.get(h, ()):
                stack.append(h + (a,))
        for history in branch_map:
            if history not in reachable:
                raise ValidationError(f"unreachable history {history!r}")

        leaf_histories = [h for h in self._iter_leaves(branch_map)]
        expected = {(_pad(h, self.periods).entries, s) for h in leaf_histories for s in self.states}
        seen = set()
        for entries, state, expr in self.utilities:
            key = (entries, state)
            if key in seen:
                raise ValidationError(f"duplicate utility entry for {key!r}")
            if key not in expected:
                raise ValidationError(f"utility entry for unknown pair {key!r}")
            bad = [n for n, _ in expr.coeffs if n not in self.param_names]
            if bad:
                raise ValidationError(f"utility references undeclared parameter {bad[0]!r}")
            seen.add(key)
        missing = expected - seen
        if missing:
            entries, state = sorted(missing)[0]
            raise ValidationError(
                f"missing utility for leaf {','.join(e for e in entries if e != PAD)!r}"
                f" in state {state!r}"
            )

    def _iter_leaves(self, branch_map: Mapping[tuple[str, ...], tuple[str, ...]]):
        def walk(history: tuple[str, ...]):
            actions = branch_map.get(history)
            if actions is None:
                yield history
                return
            for a in actions:
                yield from walk(history + (a,))

        yield from walk(())

    # -- derived structure ---------------------------------------------------

    @cached_property
    def branch_map(self) -> dict[tuple[str, ...], tuple[str, ...]]:
        return dict(self.branches)

    @cached_property
    def leaves(self) -> tuple[ActionSequence, ...]:
        """All padded leaves, in document (depth-first) order."""
        return tuple(_pad(h, self.periods) for h in self._iter_leaves(self.branch_map))

    @cached_property
    def leaf_index(self) -> dict[ActionSequence, int]:
        return {leaf: i for i, leaf in enumerate(self.leaves)}

    @cached_property
    def state_index(self) -> dict[str, int]:
        return {s: i for i, s in enumerate(self.states)}

    @cached_property
    def _utility_map(self) -> dict[tuple[tuple[str, ...], str], AffineExpr]:
        return {(entries, state): expr for entries, state, expr in self.utilities}

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
        """Resolve and validate an action sequence given as a padded sequence,
        a comma-joined label, or an iterable of action labels."""
        if isinstance(value, ActionSequence):
            seq = value
        else:
            if isinstance(value, str):
                parts = tuple(p.strip() for p in value.split(",") if p.strip())
            else:
                parts = tuple(value) if isinstance(value, Iterable) else (value,)
            if not all(isinstance(p, str) for p in parts):
                raise ValidationError(f"{value!r} is not an action sequence")
            seq = _pad(tuple(p for p in parts if p != PAD), self.periods)
        if seq not in self.leaf_index:
            raise ValidationError(f"{seq.label!r} is not a leaf of this problem")
        return seq

    def utility_expr(self, a: ActionSequence, state: str) -> AffineExpr:
        try:
            return self._utility_map[(a.entries, state)]
        except KeyError:
            if state not in self.state_index:
                raise ValidationError(f"unknown state {state!r}") from None
            raise ValidationError(f"unknown leaf {a.entries!r}") from None


# ---------------------------------------------------------------------------
# Observed data
# ---------------------------------------------------------------------------

def _as_prob_vector(weights: Sequence[Fraction], what: str) -> None:
    if any(w < 0 for w in weights):
        raise ValidationError(f"{what} has a negative weight")
    if sum(weights, Fraction(0)) != 1:
        raise ValidationError(f"{what} weights must sum to exactly 1")


@dataclass(frozen=True)
class JointDistribution:
    """An observed joint distribution over (action sequence, state) cells."""

    leaves: tuple[ActionSequence, ...]
    states: tuple[str, ...]
    matrix: tuple[tuple[Fraction, ...], ...]

    def __post_init__(self) -> None:
        if len(self.matrix) != len(self.leaves) or any(
            len(row) != len(self.states) for row in self.matrix
        ):
            raise ValidationError("joint distribution shape mismatch")
        _as_prob_vector([w for row in self.matrix for w in row], "joint distribution")

    @staticmethod
    def from_mapping(problem: DecisionProblem, weights) -> "JointDistribution":
        """Build from ``{(leaf, state): q}`` or nested ``{leaf: {state: q}}``."""
        grid = [[Fraction(0)] * len(problem.states) for _ in problem.leaves]
        if weights and all(isinstance(v, Mapping) for v in weights.values()):
            items = [((leaf, state), q) for leaf, row in weights.items() for state, q in row.items()]
        else:
            items = list(weights.items())
        for (leaf, state), q in items:
            a = problem.sequence(leaf)
            if state not in problem.state_index:
                raise ValidationError(f"unknown state {state!r}")
            grid[problem.leaf_index[a]][problem.state_index[state]] += parse_rational(q)
        return JointDistribution(problem.leaves, problem.states,
                                 tuple(tuple(row) for row in grid))

    def weight(self, a: ActionSequence, state: str) -> Fraction:
        return self.matrix[self.leaves.index(a)][self.states.index(state)]

    def action_marginal(self) -> "MarginalDistribution":
        return MarginalDistribution(
            self.leaves, tuple(sum(row, Fraction(0)) for row in self.matrix)
        )

    def state_marginal(self) -> tuple[Fraction, ...]:
        return tuple(
            sum((row[j] for row in self.matrix), Fraction(0)) for j in range(len(self.states))
        )

    def to_json_dict(self) -> dict:
        out: dict[str, dict[str, str]] = {}
        for leaf, row in zip(self.leaves, self.matrix):
            cells = {s: format_rational(w) for s, w in zip(self.states, row) if w != 0}
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
        _as_prob_vector(self.weights, "marginal distribution")

    @staticmethod
    def from_mapping(problem: DecisionProblem, weights: Mapping) -> "MarginalDistribution":
        vec = [Fraction(0)] * len(problem.leaves)
        for leaf, q in weights.items():
            a = problem.sequence(leaf)
            vec[problem.leaf_index[a]] += parse_rational(q)
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
    branch_map = dict(branches)

    def leaf_histories(history: tuple[str, ...]):
        actions = branch_map.get(history)
        if actions is None:
            yield history
            return
        for a in actions:
            yield from leaf_histories(history + (a,))

    known = {",".join(h): h for h in leaf_histories(())}

    utility_doc = doc["utility"]
    if not isinstance(utility_doc, Mapping):
        raise ParseError("utility must be an object")
    utilities: list[tuple[tuple[str, ...], str, AffineExpr]] = []
    for leaf_id, row in utility_doc.items():
        if leaf_id not in known:
            raise ValidationError(f"utility entry for unknown leaf {leaf_id!r}")
        if not isinstance(row, Mapping):
            raise ParseError(f"utility row for {leaf_id!r} must be an object")
        for state, expr in row.items():
            if state not in states:
                raise ValidationError(f"utility entry for unknown state {state!r}")
            padded = _pad(known[leaf_id], periods) if periods >= len(known[leaf_id]) else None
            if padded is None:
                raise ValidationError("tree deeper than the number of periods")
            utilities.append((padded.entries, state, parse_affine(expr, params)))

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
    """Pin a subset of parameters; the remaining ones stay symbolic."""
    remaining = tuple(p for p in problem.param_names if p not in point)
    utilities = tuple(
        (entries, state, expr.substitute(point))
        for entries, state, expr in problem.utilities
    )
    return DecisionProblem(
        periods=problem.periods,
        states=problem.states,
        param_names=remaining,
        branches=problem.branches,
        utilities=utilities,
    )


def _require_parameter_free(problem: DecisionProblem) -> None:
    if problem.has_params:
        raise ValidationError(
            f"problem still has free parameters {problem.param_names!r}; instantiate first"
        )


def utility(problem: DecisionProblem, a: ActionSequence, state: str) -> Fraction:
    """Exact terminal utility of leaf ``a`` in ``state`` (parameter-free problems)."""
    _require_parameter_free(problem)
    return problem.utility_expr(a, state).constant


def lottery_utility(
    problem: DecisionProblem,
    lottery: Mapping[Union[str, ActionSequence], Fraction],
    state: str,
) -> Fraction:
    """Expected utility of a lottery over leaves, exactly.

    ``lottery`` must be a probability vector: nonnegative weights summing to 1.
    """
    _require_parameter_free(problem)
    total_weight = Fraction(0)
    value = Fraction(0)
    for leaf, q in lottery.items():
        w = parse_rational(q)
        if w < 0:
            raise ValidationError("lottery weights must be nonnegative")
        a = problem.sequence(leaf)
        total_weight += w
        value += w * utility(problem, a, state)
    if total_weight != 1:
        raise ValidationError("lottery weights must sum to exactly 1")
    return value
