"""A second, independent re-checker of dynrat's reports: the benchmark's
correctness checker, `bench/checker.py`, which shares no code with dynrat.
It judges a verdict's witness by its own rule arithmetic and its own
backward induction, and a `maxprob` value against a SciPy float LP over its
own pure-rule enumeration.  The checker is imported by path, and a short
adapter (`_op`) builds its `Problem` and `Op` from a report's own
``problem`` and ``query``.  Random `identify` reports stay out: the
checker re-solves their samples with SciPy at every piece.  The altered
copies that `bench/selftest.py` makes of one round of each workload's
reports must each be rejected."""

from __future__ import annotations

import contextlib
import copy
import importlib.util
import io
import json
import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from dynrat import cli
from dynrat import model as m
from dynrat import rationalize as rz

from conftest import random_joint, random_marginal, random_problem

BENCH = Path(__file__).resolve().parent.parent / "bench"
GOLDEN = Path(__file__).resolve().parent / "golden"
VERDICTS = ("check-seq", "check-marginal", "check-joint")


def _load(name: str):
    spec = importlib.util.spec_from_file_location(name, BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module  # the checker imports the workloads by name
    spec.loader.exec_module(module)
    return module


workloads = _load("workloads")
checker = _load("checker")


def _affine(entry, params) -> tuple[Fraction, dict[str, Fraction]]:
    """A utility entry as a report spells it (`model.problem_to_dict`): a
    number, or terms joined by " + " and " - ", each a number, a parameter
    or ``number*parameter``, the first maybe with a leading "-"."""
    constant, coeffs = Fraction(0), {}
    for term in str(entry).replace(" - ", " + -").split(" + "):
        sign, body = (-1, term[1:]) if term.startswith("-") else (1, term)
        coef, star, name = body.rpartition("*")
        if star or name in params:
            coeffs[name] = sign * Fraction(coef or 1)
        else:
            constant += sign * Fraction(body)
    return constant, coeffs


def _op(report: dict):
    """The checker's `Op` for a report, built from its ``problem`` and
    ``query`` alone; zero weights of a law are left out."""
    doc, query = report["problem"], report["query"]
    params = tuple(doc.get("params", ()))
    utility = {leaf: {s: _affine(v, params) for s, v in row.items()}
               for leaf, row in doc["utility"].items()}
    problem = workloads.Problem(doc["periods"], tuple(doc["states"]), doc["tree"], utility, params)
    point = {p: Fraction(v) for p, v in query["params"].items()}
    command, dist = query["command"], query.get("dist", {})
    marginal = joint = None
    if command == "check-marginal":
        marginal = {leaf: Fraction(w) for leaf, w in dist.items() if Fraction(w)}
    elif command == "check-joint":
        joint = {(leaf, s): Fraction(w) for leaf, row in dist.items()
                 for s, w in row.items() if Fraction(w)}
    case = json.dumps([doc, query["params"], query.get("seq")], sort_keys=True)
    return workloads.Op(command, problem, "", [], point, seq=query.get("seq"),
                        marginal=marginal, joint=joint, case=case)


def _goldens(*commands: str) -> dict[str, dict]:
    reports = {path.stem: json.loads(path.read_text()) for path in sorted(GOLDEN.glob("*.json"))}
    return {name: r for name, r in reports.items() if r["query"]["command"] in commands}


def _run(argv: list[str]) -> dict:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.run(argv) == 0, argv
    return json.loads(out.getvalue())


def _corpus(tmp_path: Path, commands: tuple[str, ...], count: int) -> list[dict]:
    """The reports of ``commands`` on ``count`` seeded random problems:
    every leaf as a sequence, a random marginal law, a random joint law and
    the obedient law of each "yes" sequence report, each query once."""
    rng = random.Random(2028)
    reports = []
    for k in range(count):
        problem = random_problem(rng)
        path = tmp_path / f"p{k}.json"
        path.write_text(json.dumps(m.problem_to_dict(problem)))
        laws = [("check-marginal", random_marginal(rng, problem)),
                ("check-joint", random_joint(rng, problem))]
        for leaf in problem.leaves:
            for command in ("check-seq", "maxprob"):
                if command in commands:
                    reports.append(_run([command, str(path), "--seq", leaf]))
            result = _run(["check-seq", str(path), "--seq", leaf])["result"]
            if result["rationalizable"]:
                law = rz.obedient_triple_from_json(problem, result["witness"])
                laws.append(("check-joint", law))
        for n, (command, law) in enumerate(laws):
            if command in commands:
                dist = tmp_path / f"p{k}-{n}.json"
                dist.write_text(json.dumps(law.to_json_dict()))
                reports.append(_run([command, str(path), "--dist-file", str(dist)]))
    return reports


def test_every_golden_verdict_passes_the_checker():
    goldens = _goldens(*VERDICTS)
    assert len(goldens) == 18
    for name, report in goldens.items():
        assert checker.check_report(_op(report), report) == [], name


def test_random_verdicts_pass_the_checker(tmp_path):
    # both verdicts of each command are reached, so each witness kind is
    # judged on each kind of data
    reports = _corpus(tmp_path, VERDICTS, 30)
    seen = {(r["query"]["command"], r["result"]["rationalizable"]) for r in reports}
    assert seen == {(c, v) for c in VERDICTS for v in (True, False)} and len(reports) > 150
    for report in reports:
        assert checker.check_report(_op(report), report) == [], report


def test_the_checker_rejects_a_tampered_witness():
    goldens = _goldens(*VERDICTS)
    # an obedient triple with its two states' recommendations swapped:
    # probability vectors still, but no longer obedient
    report = copy.deepcopy(goldens["ex1-check-seq-pull-back"])
    rows = report["result"]["witness"]["recommendation"]
    rows["good"], rows["bad"] = rows["bad"], rows["good"]
    assert checker.check_report(_op(report), report) == [
        "obeying the recommendations is not optimal"]
    # the identity rule in place of a dominating one: stochastic and
    # adapted, but it gains nothing
    report = copy.deepcopy(goldens["ex1-check-marginal-no"])
    report["result"]["witness"]["kernel"] = {a: {a: "1"} for a in report["problem"]["utility"]}
    assert checker.check_report(_op(report), report) == [
        "rule does not improve the marginal's worst-state average"]


def test_maxprob_values_pass_the_float_checker(tmp_path):
    pytest.importorskip("scipy")
    goldens = list(_goldens("maxprob").values())
    assert len(goldens) == 3
    reports = _corpus(tmp_path, ("check-seq", "maxprob"), 20)
    ops = [_op(r) for r in goldens + reports]
    # each maxprob value also agrees with the check-seq verdict on its case
    assert checker.check_all(ops, goldens + reports) == []
    assert sum(r["query"]["command"] == "maxprob" for r in reports) > 40
    tampered = copy.deepcopy(goldens[0])
    tampered["result"]["value"] = "3/4" if tampered["result"]["value"] != "3/4" else "1/2"
    assert checker.check_report(_op(tampered), tampered) == [
        "maxprob value disagrees with the HiGHS float LP"]


def test_the_checker_rejects_each_selftest_alteration(tmp_path, monkeypatch):
    # bench/selftest.py's altered copies of one round of every workload's
    # reports, the round's problem files written here and each query run
    # through `cli.run`: every genuine report passes, and each altered copy,
    # checked on its own, is rejected.  Without SciPy the maxprob and
    # identify ops stay out, as the checker re-solves them with it
    monkeypatch.setattr(sys, "path", list(sys.path))  # selftest prepends bench/ and src/
    selftest = _load("selftest")
    scipy = importlib.util.find_spec("scipy") is not None
    seen = set()
    for workload in ("sequence", "joint", "identify"):
        ops, files = workloads.build(workload, 7, 1)
        ops = [op for op in ops if op.case.startswith("r0-")
               and (scipy or op.command not in ("maxprob", "identify"))]
        for name, problem in files.items():
            workloads.write_problem(tmp_path / name, problem)
        reports = [_run(op.argv(tmp_path)) for op in ops]
        assert checker.check_all(ops, reports) == [], workload
        for op, report in zip(ops, reports):
            for what, bad in selftest.alterations(op, report):
                assert checker.check_report(op, bad) != [], (workload, op.case, what)
                seen.add(what)
    kinds = {"deviation rule to the identity", "deviation rule weight", "obedient triple"}
    assert seen == kinds | ({"maxprob value", "interval tags", "interval endpoint"}
                            if scipy else set())
