"""Command-line front end.

Every successful invocation prints one JSON report line containing the query
echo, the embedded problem document, the result with its witness, solver
statistics, and timing.  Reports are self-contained: `verify-witness` re-checks
the certificate inside a report against the problem it carries.

Exit codes: 0 query answered (whatever the verdict), 1 usage error or
standard output closed before the report was written, 2 input validation
error, 3 `enumerate-rules` size guard exceeded.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import time
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
    parse_rational,
    problem_from_dict,
    problem_to_dict,
)


class UsageError(ValueError):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # do not sys.exit from inside the library
        raise UsageError(message)


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
    weights = {}
    for key, w in _no_duplicate_keys(_split_dist_items(spec)).items():
        if "@" not in key:
            raise UsageError(f"joint cell {key!r} must look like leaf@state")
        leaf, _, state = key.rpartition("@")
        weights[(leaf, state)] = w
    return JointDistribution.from_mapping(problem, weights)


def _object(value, what: str) -> dict:
    """``value`` when it is a JSON object; an input error otherwise."""
    if not isinstance(value, dict):
        raise ValidationError(f"{what} must be a JSON object")
    return value


def _read_json(path: str, what: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh, parse_float=Fraction, object_pairs_hook=_no_duplicate_keys)
        except ValueError as exc:  # also undecodable text or a number past int()'s digit limit
            raise ParseError(f"invalid JSON: {exc}") from exc
    return _object(doc, what)


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
    return instantiate(problem, params) if (params or problem.has_params) else problem


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("problem", help="problem file (JSON)")
    sub.add_argument("--param", action="append", default=[], metavar="NAME=VALUE",
                     help="pin a parameter, e.g. --param delta=4/5 (repeatable)")
    sub.add_argument("--pretty", action="store_true",
                     help="append a human-readable summary after the JSON report")


@functools.cache  # argparse copies an ``append`` default before appending
def _build_parser() -> _Parser:
    parser = _Parser(prog="dynrat", description=__doc__.splitlines()[0])
    subs = parser.add_subparsers(dest="command", required=True)
    parser.commands = subs.choices  # each subcommand's own parser, by name

    s = subs.add_parser("check-seq", help="can a single action sequence be rationalized?")
    _add_common(s)
    s.add_argument("--seq", required=True, help="comma-joined action labels")

    s = subs.add_parser("check-joint", help="can a joint action-state law be rationalized?")
    _add_common(s)
    s.add_argument("--dist", help="inline cells leaf@state:p/q,...")
    s.add_argument("--dist-file", help="JSON file {leaf: {state: weight}}")

    s = subs.add_parser("check-marginal", help="can an action-sequence law be rationalized?")
    _add_common(s)
    s.add_argument("--dist", help="inline cells leaf:p/q,...")
    s.add_argument("--dist-file", help="JSON file {leaf: weight}")

    s = subs.add_parser("maxprob", help="largest rationalizable probability of a sequence")
    _add_common(s)
    s.add_argument("--seq", required=True)

    s = subs.add_parser("identify", help="parameter values consistent with an observation")
    _add_common(s)
    s.add_argument("--seq", help="observed action sequence")
    s.add_argument("--marginal", help="observed marginal, inline leaf:p/q,...")
    s.add_argument("--joint", help="observed joint, inline leaf@state:p/q,...")
    s.add_argument("--sweep", required=True, help="parameter to sweep")
    s.add_argument("--range", required=True, metavar="LO:HI", dest="sweep_range",
                   help="sweep range; write --range=LO:HI when LO is negative")
    s.add_argument("--tol", default=None, help="bracketing tolerance (default range/1024)")
    s.add_argument("--grid", type=int, default=33, help="number of scan points")

    s = subs.add_parser("enumerate-rules", help="list every adapted pure deviation rule")
    _add_common(s)
    s.add_argument("--max-rules", type=int, default=deviation.DEFAULT_MAX_RULES,
                   help="cap on pure-rule enumeration")

    s = subs.add_parser("verify-witness", help="re-check the certificate inside a report")
    s.add_argument("report", help="report file produced by another subcommand")
    s.add_argument("--pretty", action="store_true")

    s = subs.add_parser("simulate", help="sample (state, signals, play) and report the empirical law")
    _add_common(s)
    s.add_argument("--structure", required=True, help="information structure JSON file")
    s.add_argument("--strategy", required=True, help="strategy JSON file")
    s.add_argument("-n", type=int, required=True, help="number of draws")
    s.add_argument("--seed", type=int, default=0)

    return parser


def _parse_args(argv: list[str]) -> argparse.Namespace:
    """``argv`` parsed as the full parser parses it.  When the first word
    names a subcommand, the rest goes straight to that subcommand's parser,
    which gives the same namespace or raises the same error."""
    parser = _build_parser()
    sub = parser.commands.get(argv[0]) if argv else None
    if sub is None:  # no argument, an option or an unknown command
        return parser.parse_args(argv)
    args = sub.parse_args(argv[1:])
    args.command = argv[0]
    return args


def _load_problem_and_params(args) -> tuple[DecisionProblem, dict]:
    with open(args.problem, "r", encoding="utf-8") as fh:
        base = load_problem(fh.read())
    params: dict[str, Fraction] = {}
    for item in args.param:
        if "=" not in item:
            raise UsageError(f"--param expects NAME=VALUE, got {item!r}")
        name, _, value = item.partition("=")
        if name in params:
            raise ValidationError(f"parameter {name!r} given twice")
        params[name] = parse_rational(value)
    return base, params


def _pretty_verdict(result: dict) -> list[str]:
    lines = []
    if "rationalizable" in result:
        verdict = "rationalizable" if result["rationalizable"] else "NOT rationalizable"
        kind = result["witness"]["kind"].replace("_", " ")
        lines.append(f"verdict: {verdict} (witness: {kind})")
    if "value" in result:
        q = Fraction(result["value"])
        lines.append(f"value: {result['value']} (~{float(q):.6g})")
    return lines


def _emit(report: dict, pretty: bool) -> None:
    print(json.dumps(report, sort_keys=True))
    if pretty:
        for line in _pretty_verdict(report["result"]):
            print(line)


def _query_echo(args, params: dict, **extra) -> dict:
    return {"command": args.command,
            "params": {name: format_rational(v) for name, v in params.items()}, **extra}


def _run_query(args) -> dict:
    base, params = _load_problem_and_params(args)
    pivots_before = lp.pivot_tally()
    result: dict
    rules_enumerated = 0
    if args.command == "identify":
        lo, _, hi = args.sweep_range.partition(":")
        if not hi:
            raise UsageError("--range expects LO:HI")
        # the observation is read at the low end; the sweep pins the swept
        # parameter afresh at every point
        inst = _instance(base, {**params, args.sweep: lo})
    else:
        inst = _instance(base, params)
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
            {a.label: r.leaves[row[0][0]].label for a, row in zip(r.leaves, r.rows)}
            for r in rules]}
        query = _query_echo(args, params)

    elif args.command == "simulate":
        structure = oracle.InformationStructure.from_json_dict(
            inst, _read_json(args.structure, "structure file"))
        strategy = oracle.Strategy.from_json_dict(
            inst, _read_json(args.strategy, "strategy file"))
        empirical = oracle.simulate(inst, strategy, structure, args.n, args.seed)
        result = {"empirical": empirical.to_json_dict(), "n": args.n, "seed": args.seed}
        query = _query_echo(args, params, n=args.n, seed=args.seed,
                            structure=structure.to_json_dict(),
                            strategy=strategy.to_json_dict())

    else:  # pragma: no cover
        raise UsageError(f"unknown command {args.command!r}")

    return {
        "query": query,
        "problem": problem_to_dict(base),
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
