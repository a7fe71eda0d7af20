"""Mutation fuzz of the command line, in process through `cli.run`.

Each run takes one golden report, or one golden case's problem or law file,
and changes it once: a value swapped for another JSON value (huge ints,
strings of 5000 digits, bools, decimals, ``"1/0"``, or a copy of another
part of the document), a key deleted or renamed, or a list item duplicated.
Malformed input must exit 2 and never escape as a traceback, and a mutated
report that `verify-witness` accepts must agree with a fresh decision of
its own query.
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import random
from fractions import Fraction
from pathlib import Path

from dynrat import cli, rationalize
from dynrat.model import parse_rational, problem_from_dict

from test_golden import CASES, GOLDEN

# Replacement values; JSON decimals are read back as exact Fractions.
VALUES = [None, True, False, 0, 1, -1, 2, 10**30, -(10**30), 0.5, -2.0, "1/0", "0/0", "1/2",
          "-2/7", "0.85", "1e3", "", "_", "leaf", "x", [], {}, [1, 2], {"x": "leaf"},
          "1" * 5000, "1/" + "1" * 5000]


def _nodes(doc, path=()):
    """The path of every value below the root."""
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        yield path + (key,)
        yield from _nodes(value, path + (key,))


def _at(doc, path):
    for key in path:
        doc = doc[key]
    return doc


def mutate(rng: random.Random, doc):
    """``doc`` with one change, or None when the drawn change does not apply."""
    doc = copy.deepcopy(doc)
    nodes = list(_nodes(doc))
    if not nodes:
        return None
    path = rng.choice(nodes)
    parent, key = _at(doc, path[:-1]), path[-1]
    kind = rng.randrange(4)
    if kind == 0:
        parent[key] = copy.deepcopy(rng.choice(VALUES + [_at(doc, rng.choice(nodes))]))
    elif kind == 1 and isinstance(parent, dict):
        del parent[key]
    elif kind == 2 and isinstance(parent, dict):
        names = [p[-1] for p in nodes if isinstance(p[-1], str)] + ["x", "_", "periods"]
        parent[rng.choice(names)] = parent.pop(key)
    elif kind == 3 and isinstance(parent, list):
        parent.insert(key, copy.deepcopy(parent[key]))
    else:
        return None
    return doc


def run(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.run(argv)
    assert code in (0, 1, 2, 3), (argv, code)
    return code, out.getvalue()


def fresh_verdict(report: dict) -> bool:
    """Decide a report's own query afresh, with its decimals read as exact
    Fractions, as `verify-witness` read them."""
    report = json.loads(json.dumps(report), parse_float=Fraction)
    problem = problem_from_dict(report["problem"])
    query = report["query"]
    params = {n: parse_rational(v) for n, v in query.get("params", {}).items()}
    inst = cli._instance(problem, params)
    kind = cli._VERDICTS[query["command"]]
    observed = cli._observation(inst, kind, query["seq"] if kind == "seq" else query["dist"])
    return rationalize.decide(inst, observed).rationalizable


def test_mutated_reports_exit_cleanly_and_accepted_ones_are_sound(tmp_path):
    rng = random.Random(0)
    reports = [json.loads((GOLDEN / f"{name}.json").read_text()) for name in sorted(CASES)]
    path = tmp_path / "report.json"
    accepted = 0
    for _ in range(1200):
        report = mutate(rng, rng.choice(reports))
        if report is None:
            continue
        path.write_text(json.dumps(report))
        code, out = run(["verify-witness", str(path)])
        if code == 0 and json.loads(out.splitlines()[0])["result"]["valid"]:
            accepted += 1
            kind = report["result"]["witness"]["kind"]
            assert fresh_verdict(report) == (kind == "obedient_triple"), report
    assert accepted > 50


def test_mutated_problem_and_law_files_exit_cleanly(tmp_path):
    # each golden case's own query, on a mutated copy of its problem file,
    # or of its law given as a dist file
    rng = random.Random(1)
    cases = []
    for name, argv in sorted(CASES.items()):
        problem = json.loads(Path(argv[1]).read_text())
        cases.append(("problem", argv, problem))
        if argv[0] in ("check-marginal", "check-joint"):
            law = json.loads((GOLDEN / f"{name}.json").read_text())["query"]["dist"]
            spec = argv.index("--dist")
            cases.append(("law", argv[:spec] + ["--dist-file", None] + argv[spec + 2:], law))
    path = tmp_path / "input.json"
    codes = set()
    for _ in range(1200):
        what, argv, doc = rng.choice(cases)
        mutated = mutate(rng, doc)
        if mutated is None:
            continue
        path.write_text(json.dumps(mutated))
        if what == "problem":
            argv = [argv[0], str(path), *argv[2:]]
        else:
            argv = [str(path) if a is None else a for a in argv]
        codes.add(run(argv)[0])
    assert codes == {0, 2}



def test_every_top_level_value_of_a_problem_file_exits_cleanly(tmp_path):
    # every replacement value of every top-level key, on each example's
    # first golden query: a "periods" of 10**30 once overflowed
    path = tmp_path / "problem.json"
    examples = {}
    for argv in CASES.values():
        examples.setdefault(argv[1], argv)
    for problem, argv in examples.items():
        doc = json.loads(Path(problem).read_text())
        for key in doc:
            for value in VALUES:
                path.write_text(json.dumps({**doc, key: value}))
                run([argv[0], str(path), *argv[2:]])
