"""Command-line front end.

Every successful invocation prints one JSON report line containing the query
echo, the embedded problem document, the result with its witness, solver
statistics, and timing.  Reports are self-contained: `verify-witness` re-checks
the certificate inside a report against the problem it carries.

The grammar is declared once, as data, in `_COMMANDS`.  When the first word
names a subcommand and the rest is plain (`_read_plain`: options spelled in
full, no value or positional starting with ``-``), the namespace is read
straight from that subcommand's declarations and argparse is never imported.
argparse, built from the same declarations, reads every other line:
abbreviations, ``--``, ``-h`` and every usage error.

A query whose problem file holds the same bytes as the last problem file
a query read in this process (`_LAST_PROBLEM`) reuses that file's problem
and rendered document, so several questions asked of one problem in a row
parse it once.  The key is the content, not the path, only a parse that
succeeds is kept, and the kept problem keeps what is built once per tree
(`Tree.per_tree`).  `verify-witness` parses the report's problem afresh on
every run, so a certificate is re-checked on a tree of its own, not on the
one the query that found it read.  A fresh process keeps nothing, so a
single `dynrat` command runs as it did without this.

Exit codes: 0 query answered (whatever the verdict), 1 usage error or
standard output closed before the report was written, 2 input validation
error, 3 `enumerate-rules` size guard exceeded, 4 out of memory.
"""

from __future__ import annotations

import functools
import io
import json
import os
import sys
import time
import types
from fractions import Fraction
from typing import Optional

from . import analysis, deviation, lp, oracle, rationalize
from .model import (
    DecisionProblem,
    JointDistribution,
    MarginalDistribution,
    Observation,
    ParseError,
    ValidationError,
    _no_duplicate_keys,
    format_rational,
    instantiate,
    load_problem,
    parse_json,
    parse_rational,
    problem_from_dict,
    problem_to_dict,
)


class UsageError(ValueError):
    pass


def _split_dist_items(spec: str) -> list[tuple[str, str]]:
    """Parse ``leaf:weight,...`` where leaf ids may themselves contain commas."""
    items: list[tuple[str, str]] = []
    pending: list[str] = []
    for token in spec.split(","):
        if ":" in token:
            head, _, weight = token.rpartition(":")
            items.append((",".join(pending + [head]), weight))
            pending = []
        else:
            pending.append(token)
    if pending:
        raise UsageError(f"dangling distribution tokens {','.join(pending)!r}")
    return items


def _parse_marginal(problem: DecisionProblem, spec: str) -> MarginalDistribution:
    return MarginalDistribution.from_mapping(problem, _no_duplicate_keys(_split_dist_items(spec)))


def _parse_joint(problem: DecisionProblem, spec: str) -> JointDistribution:
    rows: dict[str, dict[str, str]] = {}  # the law as {leaf: {state: weight}}
    for key, w in _no_duplicate_keys(_split_dist_items(spec)).items():
        leaf, at, state = key.rpartition("@")
        if not at:
            raise UsageError(f"joint cell {key!r} must look like leaf@state")
        rows.setdefault(leaf, {})[state] = w
    return JointDistribution.from_mapping(problem, rows)


def _object(value, what: str) -> dict:
    """``value`` when it is a JSON object; an input error otherwise."""
    if not isinstance(value, dict):
        raise ValidationError(f"{what} must be a JSON object")
    return value


def _read_json(path: str, what: str) -> dict:
    with open(path, "rb", buffering=0) as fh:  # `parse_json` reads the bytes as text
        return _object(parse_json(fh), what)


def _dist_from_json(problem: DecisionProblem, doc, joint: bool):
    """A marginal ``{leaf: weight}`` or a joint law ``{leaf: {state: weight}}``."""
    doc = _object(doc, "distribution")
    if joint:
        for leaf, row in doc.items():
            _object(row, f"joint law row {leaf!r}")
        return JointDistribution.from_mapping(problem, doc)
    return MarginalDistribution.from_mapping(problem, doc)


# The kind of observation each verdict command checks.
_VERDICTS = {"check-seq": "seq", "check-marginal": "marginal", "check-joint": "joint"}


def _observed_spec(args) -> tuple[str, object]:
    """The kind of observation a verdict or ``identify`` command names, and
    its spec: a sequence label, an inline law, or a dist file's contents."""
    if args.command == "identify":
        given = [(kind, spec) for kind, spec in (
            ("seq", args.seq), ("marginal", args.marginal), ("joint", args.joint))
            if spec is not None]
        if len(given) != 1:
            raise UsageError("give exactly one of --seq / --marginal / --joint")
        return given[0]
    kind = _VERDICTS[args.command]
    if kind == "seq":
        return kind, args.seq
    if (args.dist is None) == (args.dist_file is None):
        raise UsageError("give exactly one of --dist / --dist-file")
    return kind, args.dist if args.dist is not None else _read_json(args.dist_file, "dist file")


def _observation(problem: DecisionProblem, kind: str, spec) -> Observation:
    """Parse a sequence label, an inline law (``leaf:p/q,...`` or
    ``leaf@state:p/q,...``), or a law as a JSON object."""
    if kind == "seq":
        return problem.sequence(spec)
    if isinstance(spec, str):
        return (_parse_joint if kind == "joint" else _parse_marginal)(problem, spec)
    return _dist_from_json(problem, spec, kind == "joint")


def _instance(problem: DecisionProblem, params: dict) -> DecisionProblem:
    """``problem`` with its parameters pinned by ``params``; an input error
    when ``params`` misses one or names one the problem lacks."""
    return instantiate(problem, params) if (params or problem.param_names) else problem


# The arguments that several subcommands share, declared once
_PRETTY = ("--pretty", {"action": "store_true",
                        "help": "append a human-readable summary after the JSON report"})
_COMMON = (
    ("problem", {"help": "problem file (JSON)"}),
    ("--param", {"action": "append", "default": [], "metavar": "NAME=VALUE",
                 "help": "pin a parameter, e.g. --param delta=4/5 (repeatable)"}),
    _PRETTY)

#: Each subcommand's help line and its arguments in order: a word and the
#: keywords `add_argument` takes.
_COMMANDS = {
    "check-seq": ("can a single action sequence be rationalized?", _COMMON + (
        ("--seq", {"required": True, "help": "comma-joined action labels"}),)),
    "check-joint": ("can a joint action-state law be rationalized?", _COMMON + (
        ("--dist", {"help": "inline cells leaf@state:p/q,..."}),
        ("--dist-file", {"help": "JSON file {leaf: {state: weight}}"}))),
    "check-marginal": ("can an action-sequence law be rationalized?", _COMMON + (
        ("--dist", {"help": "inline cells leaf:p/q,..."}),
        ("--dist-file", {"help": "JSON file {leaf: weight}"}))),
    "maxprob": ("largest rationalizable probability of a sequence", _COMMON + (
        ("--seq", {"required": True, "help": "comma-joined action labels"}),)),
    "identify": ("parameter values consistent with an observation", _COMMON + (
        ("--seq", {"help": "observed action sequence"}),
        ("--marginal", {"help": "observed marginal, inline leaf:p/q,..."}),
        ("--joint", {"help": "observed joint, inline leaf@state:p/q,..."}),
        ("--sweep", {"required": True, "help": "parameter to sweep"}),
        ("--range", {"required": True, "metavar": "LO:HI", "dest": "sweep_range",
                     "help": "sweep range; write --range=LO:HI when LO is negative"}),
        ("--tol", {"default": None, "help": "bracketing tolerance (default range/1024)"}),
        ("--grid", {"type": int, "default": 33, "help": "number of scan points"}))),
    "enumerate-rules": ("list every adapted pure deviation rule", _COMMON + (
        ("--max-rules", {"type": int, "default": deviation.DEFAULT_MAX_RULES,
                         "help": "cap on pure-rule enumeration"}),)),
    "verify-witness": ("re-check the certificate inside a report", (
        ("report", {"help": "report file produced by another subcommand"}), _PRETTY)),
    "simulate": ("sample (state, signals, play) and report the empirical law", _COMMON + (
        ("--structure", {"required": True, "help": "information structure JSON file"}),
        ("--strategy", {"required": True, "help": "strategy JSON file"}),
        ("-n", {"type": int, "required": True, "help": "number of draws"}),
        ("--seed", {"type": int, "default": 0, "help": "sampler seed (default 0)"}))),
}


@functools.cache  # argparse copies an ``append`` default before appending
def _build_parser():
    """The argparse parser of `_COMMANDS`, for the lines `_read_plain` declines."""
    import argparse

    class _Parser(argparse.ArgumentParser):
        def error(self, message: str):  # do not sys.exit from inside the library
            raise UsageError(message)

        def _get_values(self, action, arg_strings):
            # ``--opt=--`` gives the option the value "--", as Python 3.13 reads
            # it; earlier versions drop the "--" and store [] unconverted
            if action.option_strings and action.nargs is None and arg_strings == ["--"]:
                return self._get_value(action, "--")
            return super()._get_values(action, arg_strings)

    parser = _Parser(prog="dynrat", description=__doc__.splitlines()[0])
    subs = parser.add_subparsers(dest="command", required=True)
    for name, (help_line, arguments) in _COMMANDS.items():
        sub = subs.add_parser(name, help=help_line)
        for word, keywords in arguments:
            sub.add_argument(word, **keywords)
    return parser


# The `add_argument` keywords and actions the plain reader reads
_PLAIN_KEYWORDS = {"action", "default", "dest", "help", "metavar", "required", "type"}
_PLAIN_ACTIONS = {"store", "store_true", "append"}


def _read_plain(arguments: tuple, words: list[str]) -> Optional[dict]:
    """The values argparse gives a plain command line ``words`` of the
    subcommand declared by ``arguments``, by dest; None when ``words`` is not
    plain, or when a declaration is one the reader leaves to argparse: with a
    keyword or action it does not read, a converted string default or
    positional, a non-list ``append`` default, or a dest another shares.
    Plain: each option word is one of the subcommand's own option words, a
    flag takes no value, every other option its next word or the text after
    its first ``=``; no value or positional is empty or starts with ``-``;
    the positionals are exactly the declared ones, every required option is
    given and every ``type`` conversion succeeds."""
    values, options, positionals, required = {}, {}, [], []
    for word, keywords in arguments:
        action = keywords.get("action", "store")
        default = keywords.get("default", False if action == "store_true" else None)
        convert = keywords.get("type")
        positional = word[0] != "-"
        dest = word if positional else keywords.get("dest", word.lstrip("-").replace("-", "_"))
        if (not _PLAIN_KEYWORDS.issuperset(keywords) or action not in _PLAIN_ACTIONS
                or dest in values
                or (convert is not None and (isinstance(default, str) or positional))
                or (action == "append" and type(default) is not list)):
            return None
        # argparse appends to a copy; no two parses share a list
        values[dest] = default[:] if action == "append" else default
        if positional:
            positionals.append(dest)
            continue
        if keywords.get("required"):
            required.append(dest)
        options[word] = (dest, action != "store_true", action == "append", convert)
    given, free = set(), []
    words = iter(words)
    for word in words:
        if word[:1] != "-":
            free.append(word)
            continue
        name, eq, value = word.partition("=")
        spec = options.get(name)
        if spec is None:
            return None
        dest, takes_value, append, convert = spec
        given.add(dest)
        if not takes_value:
            if eq:
                return None
            values[dest] = True
            continue
        if not eq:
            value = next(words, "")
        if not value or value[0] == "-":
            return None
        if convert is not None:
            try:
                value = convert(value)
            except Exception:  # argparse converts it again and reports the failure
                return None
        if append:
            values[dest].append(value)
        else:
            values[dest] = value
    if len(free) != len(positionals) or not given.issuperset(required):
        return None
    values.update(zip(positionals, free))
    return values


def _parse_args(argv: list[str]):
    """``argv`` parsed as the full parser parses it: a plain line after a
    subcommand's name is read from its declarations, without argparse, and
    argparse reads any other line, giving its namespace or its error.  No
    two namespaces share a list, and none holds a declared default."""
    command = _COMMANDS.get(argv[0]) if argv else None
    values = _read_plain(command[1], argv[1:]) if command else None
    if values is not None:
        return types.SimpleNamespace(command=argv[0], **values)
    args = _build_parser().parse_args(argv)
    for dest, value in list(vars(args).items()):
        if type(value) is list:  # argparse hands an unused `append` default over itself
            setattr(args, dest, value[:])
    return args


#: The last problem file a query read: ``(its bytes, its problem, the
#: document every report on it embeds)``, or None.  The document is never
#: changed.
_LAST_PROBLEM: list = [None]


def _load_problem_and_params(args) -> tuple[DecisionProblem, dict, dict]:
    """The problem file's problem, its report document and the pinned
    parameters.  The file is parsed and rendered only when its bytes differ
    from the last problem file's, and only a parse that succeeds is kept."""
    with open(args.problem, "rb", buffering=0) as fh:
        source = fh.read()
    last = _LAST_PROBLEM[0]
    if last is None or last[0] != source:
        base = load_problem(io.BytesIO(source))
        last = _LAST_PROBLEM[0] = source, base, problem_to_dict(base)
    _, base, doc = last
    params: dict[str, Fraction] = {}
    for item in args.param:
        if "=" not in item:
            raise UsageError(f"--param expects NAME=VALUE, got {item!r}")
        name, _, value = item.partition("=")
        if name in params:
            raise ValidationError(f"parameter {name!r} given twice")
        params[name] = parse_rational(value)
    return base, doc, params


def _pretty(result: dict) -> list[str]:
    """The summary lines that ``--pretty`` appends for each kind of result."""
    if "rationalizable" in result:
        verdict = "rationalizable" if result["rationalizable"] else "NOT rationalizable"
        kind = result["witness"]["kind"].replace("_", " ")
        return [f"verdict: {verdict} (witness: {kind})"]
    if "value" in result:
        q = Fraction(result["value"])
        return [f"value: {result['value']} (~{float(q):.6g})"]
    if "identified_set" in result:
        iset = result["identified_set"]
        return [f"{iv['tag']}: {iset['param']} in [{iv['lo']}, {iv['hi']}]"
                for iv in iset["intervals"]]
    if "valid" in result:
        return [f"valid: {'yes' if result['valid'] else 'no'} ({result['detail']})"]
    if "count" in result:
        return [f"rules: {result['count']}"]
    return [f"draws: {result['n']}, seed: {result['seed']}"]


#: The report writer, built once: `json.dumps` with sorted keys.
_ENCODER = json.JSONEncoder(sort_keys=True)


def _emit(report: dict, pretty: bool) -> None:
    print(_ENCODER.encode(report))
    if pretty:
        for line in _pretty(report["result"]):
            print(line)


def _query_echo(args, params: dict, **extra) -> dict:
    return {"command": args.command,
            "params": {name: format_rational(v) for name, v in params.items()}, **extra}


def _run_query(args) -> dict:
    base, doc, params = _load_problem_and_params(args)
    pivots_before = lp.pivot_tally()
    result: dict
    rules_enumerated = 0
    if args.command == "identify":
        lo, _, hi = args.sweep_range.partition(":")
        if not hi:
            raise UsageError("--range expects LO:HI")
    # an identify observation needs only the tree and the states: it is read
    # on the family, which the sweep pins at each sample
    inst = base if args.command == "identify" else _instance(base, params)
    if args.command in _VERDICTS or args.command == "identify":
        kind, spec = _observed_spec(args)
        observed = _observation(inst, kind, spec)
        echoed = spec if kind == "seq" else observed.to_json_dict()

    if args.command in _VERDICTS:
        result = rationalize.decide(inst, observed).to_json_dict()
        query = _query_echo(args, params, **{"seq" if kind == "seq" else "dist": echoed})

    elif args.command == "maxprob":
        seq = inst.sequence(args.seq)
        value, _ = rationalize.max_positive_marginal(inst, seq)
        result = {"value": format_rational(value)}
        query = _query_echo(args, params, seq=args.seq)

    elif args.command == "identify":
        iset = analysis.identified_set(
            base, observed, args.sweep, lo, hi,
            tolerance=args.tol, grid_points=args.grid,
            fixed=params or None,
        )
        result = {"identified_set": iset.to_json_dict()}
        query = _query_echo(args, params, sweep=args.sweep, range=args.sweep_range,
                            tol=args.tol, grid=args.grid, **{kind: echoed})

    elif args.command == "enumerate-rules":
        if args.max_rules < 0:
            raise UsageError(f"--max-rules must be at least 0, got {args.max_rules}")
        rules = deviation.enumerate_pure_rules(inst, args.max_rules)
        rules_enumerated = len(rules)
        # a pure rule's row is one unit entry: it is shown as its output leaf
        result = {"count": len(rules), "rules": [
            {a: r.leaves[row[0][0]] for a, row in zip(r.leaves, r.rows)}
            for r in rules]}
        query = _query_echo(args, params)

    elif args.command == "simulate":
        from . import structures  # no query loads the sampler

        structure = structures.InformationStructure.from_json_dict(
            inst, _read_json(args.structure, "structure file"))
        strategy = structures.Strategy.from_json_dict(
            inst, _read_json(args.strategy, "strategy file"))
        empirical = structures.simulate(inst, strategy, structure, args.n, args.seed)
        result = {"empirical": empirical.to_json_dict(), "n": args.n, "seed": args.seed}
        query = _query_echo(args, params, n=args.n, seed=args.seed,
                            structure=structure.to_json_dict(),
                            strategy=strategy.to_json_dict())

    else:  # pragma: no cover
        raise UsageError(f"unknown command {args.command!r}")

    return {
        "query": query,
        "problem": doc,
        "result": result,
        "stats": {
            "lp_pivots": lp.pivot_tally() - pivots_before,
            "rules_enumerated": rules_enumerated,
        },
    }


# ---------------------------------------------------------------------------
# Witness re-verification
# ---------------------------------------------------------------------------

def _verify_report(problem: DecisionProblem, doc: dict) -> tuple[bool, str]:
    result = _object(doc.get("result"), "report 'result'")
    if "witness" not in result:
        return False, "report carries no witness"
    query = _object(doc.get("query"), "report 'query'")
    params = {n: parse_rational(v)
              for n, v in _object(query.get("params", {}), "query 'params'").items()}
    inst = _instance(problem, params)
    command = query.get("command")
    kind = _VERDICTS.get(command) if isinstance(command, str) else None
    if kind is None:
        return False, f"a {command!r} report has no observation to check"
    observed = _observation(inst, kind, query.get("seq") if kind == "seq"
                            else _object(query.get("dist"), "query 'dist'"))
    witness = _object(result["witness"], "witness")
    if witness.get("kind") == "deviation_rule":
        certificate = deviation.DeviationRule.from_mapping(
            inst, _object(witness.get("kernel"), "witness 'kernel'"))
    elif witness.get("kind") == "obedient_triple":
        certificate = rationalize.obedient_triple_from_json(inst, witness)
    else:
        return False, f"unknown witness kind {witness.get('kind')!r}"
    return oracle.verify_witness(inst, certificate, observed)


def run(argv: Optional[list[str]] = None) -> int:
    started = time.perf_counter()
    try:
        args = _parse_args(sys.argv[1:] if argv is None else argv)
        if args.command == "verify-witness":
            doc = _read_json(args.report, "report")
            problem = problem_from_dict(_object(doc.get("problem"), "report 'problem'"))
            ok, detail = _verify_report(problem, doc)
            report = {
                "query": {"command": "verify-witness"},
                "problem": problem_to_dict(problem),
                "result": {"valid": ok, "detail": detail},
                "stats": {"lp_pivots": 0, "rules_enumerated": 0},
            }
        else:
            report = _run_query(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except (ParseError, ValidationError, OSError, UnicodeDecodeError, KeyError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except deviation.SizeGuardError as exc:
        print(f"size guard: {exc}", file=sys.stderr)
        return 3
    except MemoryError:
        print("out of memory: the query does not fit in this process's memory", file=sys.stderr)
        return 4
    report["timing_ms"] = round((time.perf_counter() - started) * 1000.0, 3)
    _emit(report, getattr(args, "pretty", False))
    return 0


def main() -> None:  # console entry point
    try:
        code = run()
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader went away.  Point stdout at devnull, as the Python docs
        # advise, so the interpreter's own flush at exit does not fail again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 1
    sys.exit(code)


if __name__ == "__main__":
    main()
