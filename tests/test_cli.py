import argparse
import itertools
import json
import os
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from dynrat import cli, deviation, model, oracle, rationalize
from dynrat.model import format_rational, load_problem

import parser_corpus
from conftest import complete_tree_doc, live_instances
from test_golden import CASES, render

ROOT = Path(__file__).resolve().parent.parent
PROBLEMS = ROOT / "problems"
GOLDEN = ROOT / "tests" / "golden"
EX1 = str(PROBLEMS / "example1.json")
EX2 = str(PROBLEMS / "example2.json")
EX3 = str(PROBLEMS / "example3.json")
EX1_STRUCTURE = str(PROBLEMS / "example1_structure.json")
EX1_STRATEGY = str(PROBLEMS / "example1_obedient_strategy.json")


def run_cli(capsys, *args):
    code = cli.run(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def first_report(out: str) -> dict:
    return json.loads(out.splitlines()[0])


def test_check_seq_rationalizable(capsys, tmp_path):
    code, out, _ = run_cli(capsys, "check-seq", EX1, "--seq", "invest,pull_back")
    assert code == 0
    report = first_report(out)
    assert report["result"]["rationalizable"] is True
    assert report["result"]["witness"]["kind"] == "obedient_triple"
    assert report["stats"]["rules_enumerated"] == 0  # no enumeration on this path
    assert report["stats"]["lp_pivots"] > 0

    path = tmp_path / "report.json"
    path.write_text(out.splitlines()[0])
    code, out, _ = run_cli(capsys, "verify-witness", str(path))
    assert code == 0
    assert first_report(out)["result"]["valid"] is True


def test_check_seq_dominated(capsys, tmp_path):
    code, out, _ = run_cli(capsys, "check-seq", EX2, "--param", "delta=3/4",
                           "--seq", "w,x")
    assert code == 0
    report = first_report(out)
    assert report["result"]["rationalizable"] is False
    assert report["result"]["witness"]["kind"] == "deviation_rule"

    path = tmp_path / "report.json"
    path.write_text(json.dumps(report))
    code, out, _ = run_cli(capsys, "verify-witness", str(path))
    assert first_report(out)["result"]["valid"] is True

    # breaking the witness must break verification
    report["result"]["witness"]["kernel"]["x"] = {"y": "1"}
    path.write_text(json.dumps(report))
    code, out, _ = run_cli(capsys, "verify-witness", str(path))
    assert code == 0
    assert first_report(out)["result"]["valid"] is False

    # identify reports carry no witness, and their echoed params omit the
    # swept parameter, so the problem cannot be instantiated from them
    for name in ("ex2-identify-seq", "ex3-identify-seq"):
        code, out, err = run_cli(capsys, "verify-witness", str(GOLDEN / f"{name}.json"))
        assert code == 0, err
        assert first_report(out)["result"] == {
            "valid": False, "detail": "report carries no witness"}

    # a witness is re-checked only against a verdict command's observation
    report["query"]["command"] = ["check-seq"]
    path.write_text(json.dumps(report))
    code, out, err = run_cli(capsys, "verify-witness", str(path))
    assert code == 0, err
    assert first_report(out)["result"] == {
        "valid": False, "detail": "a ['check-seq'] report has no observation to check"}


def test_maxprob_pretty(capsys):
    code, out, _ = run_cli(capsys, "maxprob", EX2, "--param", "delta=9/10",
                           "--seq", "w,x", "--pretty")
    assert code == 0
    lines = out.splitlines()
    assert first_report(out)["result"]["value"] == "7/9"
    assert any("7/9" in line and "0.77" in line for line in lines[1:])


# Every other kind of result and the summary that --pretty appends to it
PRETTY = {
    "identify": (["identify", EX2, "--seq", "w,x", "--sweep", "delta", "--range", "0:1"],
                 ["out: delta in [0, 819/1024]", "gap: delta in [819/1024, 205/256]",
                  "in: delta in [205/256, 1]"]),
    "enumerate-rules": (["enumerate-rules", EX1], ["rules: 15"]),
    "simulate": (["simulate", EX1, "--structure", EX1_STRUCTURE, "--strategy", EX1_STRATEGY,
                  "-n", "100", "--seed", "7"], ["draws: 100, seed: 7"]),
    "verify-witness-valid": (["verify-witness", str(GOLDEN / "ex1-check-seq-invest.json")],
                             ["valid: yes (obedient triple re-checked)"]),
    "verify-witness-invalid": (["verify-witness", str(GOLDEN / "ex2-identify-seq.json")],
                               ["valid: no (report carries no witness)"]),
}


@pytest.mark.parametrize("name", sorted(PRETTY))
def test_pretty_summarizes_every_kind_of_result(capsys, name):
    argv, want = PRETTY[name]
    code, plain, err = run_cli(capsys, *argv)
    assert code == 0, err
    code, out, err = run_cli(capsys, *argv, "--pretty")
    assert code == 0, err
    first, *summary = out.splitlines()
    report, alone = json.loads(first), first_report(plain)
    report.pop("timing_ms"), alone.pop("timing_ms")
    assert report == alone and len(plain.splitlines()) == 1  # the JSON line is unchanged
    assert summary == want


def test_exit_codes(capsys):
    code, _, err = run_cli(capsys, "check-seq", EX1, "--seq", "nope")
    assert code == 2 and "not a leaf" in err
    code, _, err = run_cli(capsys, "check-seq", EX1)
    assert code == 1 and "usage error" in err
    code, _, err = run_cli(capsys, "check-marginal", EX1, "--dist", "")
    assert code == 1 and "usage error" in err
    code, _, err = run_cli(capsys, "enumerate-rules", EX2, "--param", "delta=1/2",
                           "--max-rules", "5")
    assert code == 3 and "size guard" in err
    code, _, err = run_cli(capsys, "check-seq", str(PROBLEMS / "missing.json"),
                           "--seq", "a")
    assert code == 2


def test_negative_rule_cap_is_a_usage_error(capsys, monkeypatch):
    # a negative cap is refused before any enumeration runs
    def refuse(*args):
        raise AssertionError("enumeration ran")

    monkeypatch.setattr(cli.deviation, "enumerate_pure_rules", refuse)
    code, out, err = run_cli(capsys, "enumerate-rules", EX1, "--max-rules", "-1")
    assert code == 1 and "usage error" in err and "--max-rules must be at least 0" in err
    assert out == ""


# ``--opt=--`` gives the option the value "--" on every Python; before 3.13
# argparse stored [] and the query raised a traceback
MISSING_DASH_FILE = "input error: [Errno 2] No such file or directory: '--'"
DASH_VALUES = [
    (["identify", EX2, "--seq", "w,x", "--sweep", "delta", "--range=--"],
     1, "usage error: --range expects LO:HI"),
    (["identify", EX2, "--seq", "w,x", "--sweep=--", "--range", "0:1"],
     2, "input error: unknown parameter '--'"),
    (["check-joint", EX1, "--dist-file=--"], 2, MISSING_DASH_FILE),
    (["simulate", EX1, "--structure=--", "--strategy", EX1_STRATEGY, "-n", "4"],
     2, MISSING_DASH_FILE),
    (["enumerate-rules", EX1, "--max-rules=--"],
     1, "usage error: argument --max-rules: invalid int value: '--'"),
]


@pytest.mark.parametrize("argv, want, message", DASH_VALUES,
                         ids=["range", "sweep", "dist-file", "structure", "max-rules"])
def test_an_option_spelled_equals_dashes_takes_the_value_dashes(capsys, monkeypatch, tmp_path,
                                                                argv, want, message):
    monkeypatch.chdir(tmp_path)  # no file named "--"
    code, out, err = run_cli(capsys, *argv)
    assert (code, out, err) == (want, "", message + "\n")


def _golden_report(name: str) -> dict:
    return json.loads((GOLDEN / f"{name}.json").read_text())


def _edited(name: str, edit) -> dict:
    report = _golden_report(name)
    edit(report)
    return report


def _shipped(path: str, edit) -> dict:
    doc = json.loads(Path(path).read_text())
    edit(doc)
    return doc


MALFORMED = {
    "report-is-a-list": ("verify-witness", []),
    "witness-is-a-number": ("verify-witness", _edited(
        "ex1-check-seq-pull-back", lambda r: r.update(result={"witness": 5}))),
    "problem-is-a-number": ("verify-witness", _edited(
        "ex1-check-seq-pull-back", lambda r: r.update(problem=7))),
    "params-is-a-list": ("verify-witness", _edited(
        "ex1-check-seq-pull-back", lambda r: r["query"].update(params=[1]))),
    "prior-is-a-list": ("verify-witness", _edited(
        "ex1-check-seq-pull-back",
        lambda r: r["result"]["witness"].update(prior=["1/2", "1/2"]))),
    "kernel-is-a-list": ("verify-witness", _edited(
        "ex2-check-seq-no", lambda r: r["result"]["witness"].update(kernel=[1]))),
    "kernel-row-is-a-number": ("verify-witness", _edited(
        "ex2-check-seq-no", lambda r: r["result"]["witness"]["kernel"].update(x=5))),
    "seq-is-a-number": ("verify-witness", _edited(
        "ex1-check-seq-pull-back", lambda r: r["query"].update(seq=5))),
    # `check-seq --param foo=1` on example 1 exits 2 "unknown parameter"; the
    # re-check instantiates a report's problem by the same rule
    "params-name-an-unknown-parameter": ("verify-witness", _edited(
        "ex1-check-seq-pull-back", lambda r: r["query"].update(params={"foo": "1"}))),
    "marginal-file-is-a-list": ("check-marginal", [["invest,pull_back", "1"]]),
    "joint-file-is-a-list": ("check-joint", [["invest,pull_back", "good", "1"]]),
    "joint-file-is-flat": ("check-joint", {"invest,pull_back": "1/2",
                                           "invest,invest": "1/2"}),
    # `simulate --structure` or `--strategy`, the other file being the shipped one
    "structure-signals-is-a-number": ("simulate --structure", _shipped(
        EX1_STRUCTURE, lambda d: d.update(signals=5))),
    "structure-prior-is-a-list": ("simulate --structure", _shipped(
        EX1_STRUCTURE, lambda d: d.update(prior=["1/2", "1/2"]))),
    "structure-kernel-row-is-a-number": ("simulate --structure", _shipped(
        EX1_STRUCTURE, lambda d: d["kernel"].update(good=5))),
    "strategy-signal-is-a-number": ("simulate --strategy", _shipped(
        EX1_STRATEGY, lambda d: d.update(signals=[["s"], ["g", 5]]))),
    "strategy-kernel-row-is-a-number": ("simulate --strategy", _shipped(
        EX1_STRATEGY, lambda d: d["kernel"].update({"s,g": 5}))),
    "strategy-signal-label-repeats": ("simulate --strategy", _shipped(
        EX1_STRATEGY, lambda d: d.update(signals=[["s"], ["g", "g"]]))),
    # one signal set per declared period: a third one is refused
    "strategy-has-a-period-too-many": ("simulate --strategy", {
        "signals": [["s"], ["g", "b"], ["x"]],
        "kernel": {"s,g,x": {"invest,invest": "1"}, "s,b,x": {"invest,pull_back": "1"}}},
        "strategy periods do not match"),
    "problem-is-a-directory": ("check-seq --seq a", None),
    "problem-is-not-utf8": ("check-seq --seq a", b'{"periods": 1, "states": ["\xe9"]}'),
    # numbers past int()'s digit limit, where no Python value can stand in
    "problem-with-a-5000-digit-int": ("check-seq --seq not_invest",
                                      Path(EX1).read_text().replace("-2", "1" * 5000)),
    "law-with-a-5000-digit-decimal": ("check-marginal", '{"not_invest": 0.' + "1" * 5000 + "}"),
    # one name with two values: neither may win silently
    "param-given-twice": ("check-seq --seq w,x --param delta=3/4 --param delta=9/10",
                          json.loads(Path(EX2).read_text())),
    # a law cell given twice: neither value may win silently, nor may the two
    # be summed, and the error names the cell
    "marginal-cell-given-twice": (
        "check-marginal --dist invest,invest:1/2,invest,invest:1/2,invest,pull_back:1/2",
        json.loads(Path(EX1).read_text()), "'invest,invest'"),
    "joint-cell-given-twice": (
        "check-joint --dist invest,invest@good:1/2,invest,invest@good:1/2,invest,pull_back@bad:1/2",
        json.loads(Path(EX1).read_text()), "'invest,invest@good'"),
    "identify-marginal-cell-given-twice": (
        "identify --marginal w,x:1/2,w,x:1/2,w,y:1/2 --sweep delta --range 0:1",
        json.loads(Path(EX2).read_text()), "'w,x'"),
    "identify-joint-cell-given-twice": (
        "identify --joint w,x@X:1/2,w,x@X:1/2,w,y@Y:1/2 --sweep delta --range 0:1",
        json.loads(Path(EX2).read_text()), "'w,x@X'"),
    "marginal-file-repeats-a-key": (
        "check-marginal",
        '{"invest,invest": "1/2", "invest,invest": "1/2", "invest,pull_back": "1/2"}',
        "'invest,invest'"),
    "joint-file-repeats-a-key": (
        "check-joint",
        '{"invest,invest": {"good": "1/2", "good": "1/2"}, "invest,pull_back": {"bad": "1/2"}}',
        "'good'"),
    "marginal-file-spells-a-leaf-twice": (
        "check-marginal", {"not_invest": "1/2", "not_invest,_": "1/2"}, "'not_invest'"),
    "joint-file-spells-a-leaf-twice": (
        "check-joint", {"not_invest": {"good": "1/2"}, "not_invest,_": {"good": "1/2"}},
        "'not_invest@good'"),
    # a rule's output cell given twice is refused like a law's, not summed
    "kernel-row-spells-an-output-twice": ("verify-witness", _edited(
        "ex1-check-marginal-no", lambda r: r["result"]["witness"]["kernel"].update(
            not_invest={"not_invest": "1/2", "not_invest,_": "1/2"})), "'not_invest'"),
    # so is a leaf spelled twice in a recommendation or a strategy row: the
    # last spelling may not win silently
    "triple-row-spells-a-leaf-twice": ("verify-witness", _edited(
        "ex1-check-joint-yes", lambda r: r["result"]["witness"]["recommendation"]["good"].update(
            {"not_invest": "1/2", "not_invest,_": "0"})), "'not_invest'", "given twice"),
    "strategy-row-spells-a-leaf-twice": ("simulate --strategy", _shipped(
        EX1_STRATEGY, lambda d: d["kernel"]["s,g"].update(
            {"not_invest": "1/2", "not_invest,_": "0"})), "'not_invest'", "given twice"),
    # a state the problem lacks, or a key a file lacks, is named in the error
    "triple-prior-names-an-unknown-state": ("verify-witness", _edited(
        "ex1-check-joint-yes", lambda r: r["result"]["witness"]["prior"].update(meh="0")),
        "unknown state 'meh'"),
    "triple-row-names-an-unknown-state": ("verify-witness", _edited(
        "ex1-check-joint-yes", lambda r: r["result"]["witness"]["recommendation"].update(
            meh={"not_invest": "1"})), "unknown state 'meh'"),
    **{f"{kind}-lacks-{key}": (f"simulate --{kind}", _shipped(
        path, lambda d, key=key: d.pop(key)), f"has no '{key}'")
       for kind, path, keys in (("structure", EX1_STRUCTURE, ("signals", "prior", "kernel")),
                                ("strategy", EX1_STRATEGY, ("signals", "kernel")))
       for key in keys},
    # the prior and every recommendation row must be probability vectors,
    # also the row of a state without mass ("hard" in this report)
    "triple-prior-sums-below-1": ("verify-witness", _edited(
        "ex3-check-seq-yes", lambda r: r["result"]["witness"].update(prior={"easy": "1/2"})),
        "prior must be a probability vector"),
    "triple-massless-row-sums-below-1": ("verify-witness", _edited(
        "ex3-check-seq-yes", lambda r: r["result"]["witness"]["recommendation"].update(
            hard={"no_effort": "1/2"})), "recommendation row must be a probability vector"),
    "triple-massless-row-missing": ("verify-witness", _edited(
        "ex3-check-seq-yes", lambda r: r["result"]["witness"]["recommendation"].pop("hard")),
        "recommendation row must be a probability vector"),
    # a leaf is named by its actions, then at most the padding that fills the
    # horizon: padding in front of or between actions, an empty entry or one
    # entry too many names no leaf, wherever a leaf is read
    "seq-padded-in-front": ("check-seq --seq _,invest,_,pull_back",
                            json.loads(Path(EX1).read_text()), "'_,invest,_,pull_back'"),
    "seq-with-an-empty-entry": ("check-seq --seq invest,,pull_back",
                                json.loads(Path(EX1).read_text()), "'invest,,pull_back'"),
    "seq-padded-past-the-horizon": ("check-seq --seq not_invest,_,_",
                                    json.loads(Path(EX1).read_text()), "'not_invest,_,_'"),
    "marginal-leaf-padded-in-front": (
        "check-marginal --dist _,invest,invest:1/3,invest,pull_back:2/3",
        json.loads(Path(EX1).read_text()), "'_,invest,invest'"),
    "joint-leaf-padded-past-the-horizon": (
        "check-joint --dist not_invest,_,_@good:1", json.loads(Path(EX1).read_text())),
    "kernel-row-padded-in-front": ("verify-witness", _edited(
        "ex2-check-seq-no", lambda r: r["result"]["witness"]["kernel"].update(
            {"_,w,x": r["result"]["witness"]["kernel"].pop("w,x")})), "'_,w,x'"),
    "triple-row-padded-past-the-horizon": ("verify-witness", _edited(
        "ex1-check-seq-pull-back", lambda r: r["result"]["witness"]["recommendation"].update(
            bad={"invest,pull_back,_": "1"})), "'invest,pull_back,_'"),
    # two utility terms side by side are not a sum
    "utility-terms-without-an-operator": ("check-seq --seq not_invest", _shipped(
        EX1, lambda d: d["utility"]["invest,invest"].update(good="1 2")), "between terms"),
    "utility-number-and-parameter-run-together": (
        "check-seq --seq effort,no_effort --param R=4 --param c=1",
        _shipped(EX3, lambda d: d["utility"]["effort,effort"].update(hard="2R")),
        "between terms"),
    # JSON nested 3000 deep, in a problem, a law and a report: invalid JSON
    # where the decoder stops at the recursion limit (Python 3.10 to 3.12),
    # else the document's own first fault
    "problem-tree-nested-3000-deep": (
        "check-seq --seq a",
        '{"periods": 1, "states": ["s"], "tree": ' + '{"a": ' * 3000 + '"leaf"' + "}" * 3000
        + ', "utility": {}}'),
    "dist-file-nested-3000-deep": ("check-marginal", '{"a": ' * 3000 + '"1"' + "}" * 3000),
    "report-nested-3000-deep": ("verify-witness", '{"a": ' * 3000 + "1" + "}" * 3000),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_input_exits_2(capsys, tmp_path, case):
    command, content, *named = MALFORMED[case]
    path = tmp_path / "input.json"
    if content is None:
        path.mkdir()
    elif isinstance(content, bytes):
        path.write_bytes(content)
    elif isinstance(content, str):
        path.write_text(content)
    else:
        path.write_text(json.dumps(content))
    name, *rest = command.split()
    if name == "verify-witness":
        argv = [name, str(path)]
    elif name == "simulate":
        files = {"--structure": EX1_STRUCTURE, "--strategy": EX1_STRATEGY}
        files[rest[0]] = str(path)
        argv = ["simulate", EX1, *itertools.chain(*files.items()), "-n", "4"]
    elif rest:  # the file is the problem, and the query is inline
        argv = [name, str(path), *rest]
    else:
        argv = [name, EX1, "--dist-file", str(path)]
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and err.startswith("input error") and err.count("\n") == 1, err
    assert all(text in err for text in named), err
    assert out == ""


def test_undecodable_problem_and_dist_files_read_alike(capsys, tmp_path):
    # a problem file goes through the one JSON reader, as a dist file does,
    # so the same undecodable bytes give the same one line and exit 2
    path = tmp_path / "bad.json"
    path.write_bytes(b'{"periods": 1, "states": ["\xe9"]}')
    errors = []
    for argv in (["check-seq", str(path), "--seq", "a"],
                 ["check-marginal", EX1, "--dist-file", str(path)]):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == "" and err.count("\n") == 1, err
        errors.append(err)
    assert errors[0] == errors[1] and errors[0].startswith("input error: invalid JSON: 'utf-8'")


BOM_ERROR = ("input error: invalid JSON: Unexpected UTF-8 BOM (decode using utf-8-sig):"
             " line 1 column 1 (char 0)\n")


@pytest.mark.parametrize("what", ["problem", "dist-file", "report"])
def test_a_byte_order_mark_is_invalid_json(capsys, tmp_path, what):
    # a problem file, a dist file and a report that begin with a UTF-8
    # byte-order mark: exit 2 and one line on stderr, JSON's own message
    source = {"problem": Path(EX1), "dist-file": None,
              "report": GOLDEN / "ex1-check-joint-yes.json"}[what]
    text = source.read_text() if source else '{"invest,invest": "1"}'
    path = tmp_path / "bom.json"
    path.write_bytes(b"\xef\xbb\xbf" + text.encode())
    argv = {"problem": ["check-seq", str(path), "--seq", "invest,pull_back"],
            "dist-file": ["check-marginal", EX1, "--dist-file", str(path)],
            "report": ["verify-witness", str(path)]}[what]
    assert run_cli(capsys, *argv) == (2, "", BOM_ERROR)


@pytest.mark.parametrize("newline", ["\r\n", "\r"])
def test_files_are_read_as_text_mode_reads_them(capsys, tmp_path, newline):
    # CR LF and a lone CR read as LF: a file with them gives the report of
    # the file without them, and a fault is placed at the line and column
    # that a text-mode read of the file places it at
    path = tmp_path / "problem.json"
    path.write_bytes(Path(EX1).read_bytes().replace(b"\n", newline.encode()))
    argv = ["check-seq", str(path), "--seq", "invest,pull_back"]
    reports = [first_report(run_cli(capsys, *argv)[1]),
               first_report(run_cli(capsys, "check-seq", EX1, "--seq", "invest,pull_back")[1])]
    for report in reports:
        report.pop("timing_ms")
    assert reports[0] == reports[1]
    path.write_bytes(path.read_bytes().rstrip().rstrip(b"}") + b"," + newline.encode() + b"}")
    with open(path, encoding="utf-8") as fh:
        with pytest.raises(ValueError) as fault:
            json.loads(fh.read())
    assert "line 1 " not in str(fault.value)
    assert run_cli(capsys, *argv) == (2, "", f"input error: invalid JSON: {fault.value}\n")


EX1_IDENTITY = {leaf: {leaf: "1"} for leaf in ("not_invest", "invest,pull_back", "invest,invest")}

# One golden report per rejection branch of `oracle.verify_witness`, edited
# so that only that branch fails, and the reason it must give.
TAMPERED = {
    "rule-gains-nothing-on-a-marginal": (
        "ex1-check-marginal-no",
        lambda r: r["result"]["witness"].update(kernel=EX1_IDENTITY),
        "rule does not dominate"),
    "rule-gains-nothing-on-a-joint-law": (
        "ex1-check-joint-no",
        lambda r: r["result"]["witness"].update(kernel=EX1_IDENTITY),
        "rule does not dominate"),
    "obeying-is-not-optimal": (
        "ex1-check-seq-invest",
        lambda r: r["result"]["witness"]["recommendation"].update(good={"not_invest": "1"}),
        "obeying the recommendations is not optimal"),
    "zero-mass-on-the-sequence": (
        "ex1-check-seq-invest",
        lambda r: r["query"].update(seq="invest,pull_back"),
        "witness does not induce the observation"),
    "a-different-marginal": (
        "ex1-check-marginal-yes",
        lambda r: r["query"].update(dist={"invest,pull_back": "1/3", "invest,invest": "2/3"}),
        "witness does not induce the observation"),
    "a-different-joint-law": (
        "ex1-check-joint-yes",
        lambda r: r["query"].update(
            dist={"invest,pull_back": {"bad": "1/2"}, "invest,invest": {"good": "1/2"}}),
        "witness does not induce the observation"),
}


@pytest.mark.parametrize("case", sorted(TAMPERED))
def test_verify_witness_rejects_tampered_reports(capsys, tmp_path, case):
    name, edit, detail = TAMPERED[case]
    path = tmp_path / "report.json"
    path.write_text(json.dumps(_edited(name, edit)))
    code, out, err = run_cli(capsys, "verify-witness", str(path))
    assert code == 0, err
    assert first_report(out)["result"] == {"valid": False, "detail": detail}


def test_verify_witness_echoes_a_decimal_problem_canonically(capsys, tmp_path):
    # JSON decimals are read as exact Fractions; the report echoes the
    # parsed problem in its canonical spelling, not the raw document
    report = _edited("ex1-check-seq-invest",
                     lambda r: r["problem"]["utility"]["invest,invest"].update(bad=-2.0))
    path = tmp_path / "report.json"
    path.write_text(json.dumps(report))
    assert '"bad": -2.0' in path.read_text()
    code, out, err = run_cli(capsys, "verify-witness", str(path))
    assert code == 0, err
    echoed = first_report(out)
    assert echoed["result"]["valid"] is True
    assert echoed["problem"] == _golden_report("ex1-check-seq-invest")["problem"]
    assert echoed["problem"]["utility"]["invest,invest"]["bad"] == -2


def test_parser_keeps_no_state_between_runs(capsys):
    # the parser is built once; a repeated option must not leak into the
    # next run's defaults
    ex3 = str(PROBLEMS / "example3.json")
    code, out, _ = run_cli(capsys, "check-seq", ex3, "--param", "R=4", "--param", "c=1",
                           "--seq", "effort,no_effort")
    assert code == 0 and first_report(out)["query"]["params"] == {"R": "4", "c": "1"}
    code, out, _ = run_cli(capsys, "check-seq", EX1, "--seq", "invest,pull_back")
    assert code == 0 and first_report(out)["query"]["params"] == {}
    assert cli._build_parser() is cli._build_parser()


def test_two_parses_never_share_a_param_list(monkeypatch, capsys):
    # --param declares no default: absent, it reads None, plain or by
    # argparse (an abbreviated option); each parse that gives it builds a
    # list of its own, and a run that pins parameters leaves the next run's
    # echo empty
    assert all("default" not in keywords for _, arguments in cli._COMMANDS.values()
               for word, keywords in arguments if word == "--param")
    bare = [cli._parse_args(["check-seq", "p.json", "--seq", "a"]),
            cli._parse_args(["check-seq", "p.json", "--se", "a"]),
            cli._parse_args(["identify", "p.json", "--sweep", "x", "--range", "0:1"]),
            cli._parse_args(["identify", "p.json", "--sweep", "x", "--ran", "0:1"])]
    assert [args.param for args in bare] == [None] * 4
    parsed = [cli._parse_args(["maxprob", "p.json", "--param", "x=1", "--seq", "a"]),
              cli._parse_args(["maxprob", "p.json", "--par", "x=1", "--seq", "a"]),
              cli._parse_args(["identify", "p.json", "--param=y=2", "--param", "x=1",
                               "--sweep", "x", "--range", "0:1"]),
              cli._parse_args(["identify", "p.json", "--param=y=2", "--param", "x=1",
                               "--sweep", "x", "--ran", "0:1"])]
    monkeypatch.setattr(cli, "_parse_args", lambda argv, parse=cli._parse_args:
                        parsed.append(parse(argv)) or parsed[-1])
    ex3 = str(PROBLEMS / "example3.json")
    for option in ("--param", "--para"):  # read plain, then by argparse
        code, out, err = run_cli(capsys, "check-seq", ex3, option, "R=4", option, "c=1",
                                 "--seq", "effort,no_effort")
        assert code == 0 and first_report(out)["query"]["params"] == {"R": "4", "c": "1"}, err
        code, out, _ = run_cli(capsys, "check-seq", EX1, "--seq", "invest,pull_back")
        assert code == 0 and first_report(out)["query"]["params"] == {}
    assert [args.param for args in parsed] == [
        ["x=1"], ["x=1"], ["y=2", "x=1"], ["y=2", "x=1"], ["R=4", "c=1"], None,
        ["R=4", "c=1"], None]
    lists = [args.param for args in parsed if args.param is not None]
    assert len({id(items) for items in lists}) == len(lists) == 6


def test_check_marginal_and_joint(capsys, tmp_path):
    code, out, _ = run_cli(capsys, "check-marginal", EX1, "--dist",
                           "invest,pull_back:3/4,invest,invest:1/4")
    report = first_report(out)
    assert code == 0 and report["result"]["rationalizable"] is False
    path = tmp_path / "marg.json"
    path.write_text(json.dumps(report))
    _, out, _ = run_cli(capsys, "verify-witness", str(path))
    assert first_report(out)["result"]["valid"] is True

    code, out, _ = run_cli(capsys, "check-marginal", EX1, "--dist",
                           "invest,pull_back:2/3,invest,invest:1/3")
    report = first_report(out)
    assert report["result"]["rationalizable"] is True
    path.write_text(json.dumps(report))
    _, out, _ = run_cli(capsys, "verify-witness", str(path))
    assert first_report(out)["result"]["valid"] is True

    spec = "invest,pull_back@bad:1/2,invest,pull_back@good:1/6,invest,invest@good:1/3"
    code, out, _ = run_cli(capsys, "check-joint", EX1, "--dist", spec)
    report = first_report(out)
    assert report["result"]["rationalizable"] is True
    path.write_text(json.dumps(report))
    _, out, _ = run_cli(capsys, "verify-witness", str(path))
    assert first_report(out)["result"]["valid"] is True


def test_dist_files(capsys, tmp_path):
    dist = tmp_path / "marginal.json"
    dist.write_text(json.dumps({"invest,pull_back": "3/4", "invest,invest": "1/4"}))
    code, out, _ = run_cli(capsys, "check-marginal", EX1, "--dist-file", str(dist))
    assert code == 0
    assert first_report(out)["result"]["rationalizable"] is False


def test_identify(capsys):
    code, out, _ = run_cli(capsys, "identify", EX2, "--seq", "w,x", "--sweep",
                           "delta", "--range", "0:1", "--grid", "9", "--tol", "1/64")
    assert code == 0
    intervals = first_report(out)["result"]["identified_set"]["intervals"]
    assert [iv["tag"] for iv in intervals] == ["out", "gap", "in"]


def test_identify_reads_its_observation_on_the_family(capsys, monkeypatch):
    # the observation needs only the tree and the states: no op instantiates
    # the family to read it, with parameters fixed or not
    calls = []
    instantiate = cli.instantiate
    monkeypatch.setattr(cli, "instantiate", lambda *args: calls.append(args) or instantiate(*args))
    for argv in (["identify", EX2, "--seq", "w,x", "--sweep", "delta", "--range", "0:1"],
                 ["identify", EX2, "--marginal", "w,x:1/2,w,y:1/2", "--sweep", "delta",
                  "--range", "0:1"],
                 ["identify", EX2, "--joint", "w,x@X:1/2,w,y@Y:1/2", "--sweep", "delta",
                  "--range", "0:1"],
                 ["identify", EX3, "--param", "R=4", "--seq", "effort,no_effort",
                  "--sweep", "c", "--range", "0:8"]):
        code, _, err = run_cli(capsys, *argv)
        assert code == 0, err
    assert calls == []


@pytest.mark.parametrize("argv, message", [
    (["--sweep", "c"], "one-dimensional sweep only: fix parameter 'R' first"),
    (["--sweep", "c", "--param", "R=4", "--param", "R=1"], "parameter 'R' given twice"),
    (["--sweep", "c", "--param", "R=4", "--param", "foo=1"], "unknown parameter 'foo'"),
    (["--sweep", "foo", "--param", "R=4"], "unknown parameter 'foo'"),
    (["--sweep", "c", "--param", "R=4", "--param", "c=1"], "cannot both sweep and fix 'c'"),
], ids=["unfixed", "twice", "unknown-fixed", "unknown-swept", "swept-and-fixed"])
def test_identify_refuses_a_family_it_cannot_sweep(capsys, argv, message):
    code, out, err = run_cli(capsys, "identify", EX3, "--seq", "effort,no_effort",
                             "--range", "0:8", *argv)
    assert (code, out, err) == (2, "", f"input error: {message}\n")


def test_identify_negative_range(capsys):
    # "--range -1:1" reads -1:1 as an option; the "=" form passes it as a value
    code, out, _ = run_cli(capsys, "identify", EX2, "--seq", "w,x", "--sweep",
                           "delta", "--range=-1:1", "--grid", "5", "--tol", "1/8")
    assert code == 0
    report = first_report(out)
    assert report["query"]["range"] == "-1:1"
    intervals = report["result"]["identified_set"]["intervals"]
    assert (intervals[0]["lo"], intervals[-1]["hi"]) == ("-1", "1")
    assert [iv["tag"] for iv in intervals] == ["out", "gap", "in"]


def test_enumerate_rules(capsys):
    code, out, _ = run_cli(capsys, "enumerate-rules", EX1)
    assert code == 0
    result = first_report(out)["result"]
    assert result["count"] == 15
    identity = {"not_invest": "not_invest", "invest,pull_back": "invest,pull_back",
                "invest,invest": "invest,invest"}
    assert identity in result["rules"]


def test_simulate_deterministic(capsys):
    args = ("simulate", EX1,
            "--structure", str(PROBLEMS / "example1_structure.json"),
            "--strategy", str(PROBLEMS / "example1_obedient_strategy.json"),
            "-n", "400", "--seed", "11")
    code, out1, _ = run_cli(capsys, *args)
    assert code == 0
    _, out2, _ = run_cli(capsys, *args)
    r1, r2 = first_report(out1), first_report(out2)
    r1.pop("timing_ms"), r2.pop("timing_ms")
    assert r1 == r2
    assert r1["result"]["empirical"]  # at least one populated cell


def test_simulate_reads_decimals_exactly(capsys, tmp_path):
    # the shipped structure file gives its prior as "1/2" strings
    doc = json.loads((PROBLEMS / "example1_structure.json").read_text())
    doc["prior"] = {"good": 0.5, "bad": 0.5}
    decimal = tmp_path / "structure.json"
    decimal.write_text(json.dumps(doc))
    results = []
    for structure in (decimal, PROBLEMS / "example1_structure.json"):
        code, out, err = run_cli(
            capsys, "simulate", EX1, "--structure", str(structure),
            "--strategy", str(PROBLEMS / "example1_obedient_strategy.json"),
            "-n", "400", "--seed", "11")
        assert code == 0, err
        results.append(first_report(out)["result"])
    assert results[0] == results[1]


def test_reports_are_byte_stable(capsys):
    code, out1, _ = run_cli(capsys, "check-seq", EX1, "--seq", "invest,invest")
    code, out2, _ = run_cli(capsys, "check-seq", EX1, "--seq", "invest,invest")
    r1, r2 = first_report(out1), first_report(out2)
    r1.pop("timing_ms"), r2.pop("timing_ms")
    assert json.dumps(r1, sort_keys=True) == json.dumps(r2, sort_keys=True)


def test_reports_are_self_contained(capsys, tmp_path):
    # the embedded problem plus query echo reproduce the verdict from scratch
    code, out, _ = run_cli(capsys, "check-seq", EX2, "--param", "delta=3/4",
                           "--seq", "w,x")
    report = first_report(out)
    rebuilt = tmp_path / "rebuilt.json"
    rebuilt.write_text(json.dumps(report["problem"]))
    echo = report["query"]
    args = ["check-seq", str(rebuilt), "--seq", echo["seq"]]
    for name, value in echo["params"].items():
        args += ["--param", f"{name}={value}"]
    code, out2, _ = run_cli(capsys, *args)
    assert code == 0
    replay = first_report(out2)
    assert replay["result"] == report["result"]


def _module_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def test_module_entry_point_prints_a_report():
    done = subprocess.run(
        [sys.executable, "-m", "dynrat.cli", "check-seq", EX1, "--seq", "invest,pull_back"],
        capture_output=True, text=True, env=_module_env(), timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert first_report(done.stdout)["result"]["rationalizable"] is True


def test_import_generates_no_code():
    # the types are plain classes: importing the CLI loads neither the
    # dataclass machinery nor `inspect`, which only it pulled in; nor does
    # it load the modules that no query runs, the sampler's `structures`
    # and the payoff transforms' `risk`
    done = subprocess.run(
        [sys.executable, "-c", "import json, sys, dynrat.cli; "
         "print(json.dumps(sorted({'dataclasses', 'inspect'} & set(sys.modules)))); "
         "print(json.dumps([m for m in sys.modules if m.startswith('dynrat.')]))"],
        capture_output=True, text=True, env=_module_env(), timeout=120,
    )
    assert done.returncode == 0, done.stderr
    generators, package = map(json.loads, done.stdout.splitlines())
    assert generators == []
    assert {"dynrat.cli", "dynrat.oracle", "dynrat.analysis"} <= set(package)
    assert {"dynrat.structures", "dynrat.risk"}.isdisjoint(package)


def test_a_re_import_frees_the_previous_one():
    # a process that drops dynrat from `sys.modules` and imports it again, as
    # the benchmark's set-up does, keeps only the last import: nothing, such
    # as a `typing` cache, holds a class of an earlier one
    script = (
        "import json, sys\n"
        "from pathlib import Path\n"
        "for _ in range(4):\n"
        "    for name in [name for name in sys.modules if name.split('.')[0] == 'dynrat']:\n"
        "        del sys.modules[name]\n"
        "    import dynrat, dynrat.cli\n"
        f"    dynrat.model.load_problem(Path({EX1!r}).read_text())\n"
        f"sys.path.insert(0, {str(ROOT / 'tests')!r})\n"
        "from conftest import live_instances\n"
        "classes = live_instances(type, key=lambda cls: f'{cls.__module__}.{cls.__qualname__}')\n"
        "print(json.dumps({name: n for name, n in classes.items() if name.startswith('dynrat.')}))\n"
    )
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=_module_env(), timeout=120)
    assert done.returncode == 0, done.stderr
    classes = json.loads(done.stdout)
    assert {"dynrat.model.Tree", "dynrat.lp.LinearProgram", "dynrat.cli.UsageError"} <= set(classes)
    assert {name: n for name, n in classes.items() if n != 1} == {}


def test_every_public_name_resolves_to_its_module():
    # the names of `structures` and `risk` are resolved on first access;
    # every name is its module's own object, and a star import takes them all
    import dynrat
    from dynrat import risk, structures

    modules = [getattr(dynrat, name) for name in (
        "analysis", "deviation", "lp", "model", "oracle", "rationalize")] + [risk, structures]
    for name in dynrat.__all__:
        homes = [mod for mod in modules if name in vars(mod)]
        assert homes and all(vars(mod)[name] is getattr(dynrat, name) for mod in homes), name
    assert dir(dynrat) == sorted(dynrat.__all__)
    names: dict = {}
    exec("from dynrat import *", names)
    assert all(names[name] is getattr(dynrat, name) for name in dynrat.__all__)
    assert dynrat.simulate is structures.simulate and callable(dynrat.simulate)
    with pytest.raises(AttributeError, match="no_such_name"):
        getattr(dynrat, "no_such_name")


def test_closed_stdout_exits_without_traceback():
    proc = subprocess.Popen(
        [sys.executable, "-m", "dynrat.cli", "check-seq", EX1, "--seq", "invest,pull_back"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=_module_env(),
    )
    proc.stdout.close()  # the reader goes away before the report is written
    _, err = proc.communicate(timeout=120)
    assert "Traceback" not in err
    assert proc.returncode == 1


def complete_tree(tmp_path, branching, n_states, seed) -> str:
    """A problem file holding `conftest.complete_tree_doc`."""
    path = tmp_path / f"tree-{'-'.join(map(str, branching))}-{seed}.json"
    path.write_text(json.dumps(complete_tree_doc(branching, n_states, seed)))
    return str(path)


def chain_doc(depth: int) -> tuple[dict, str]:
    """A chain ``depth`` periods deep, with a ``b`` leaf and a ``c`` branch
    at each level (a ``c`` leaf at the last), states s and t, and every
    payoff 0 but the deepest ``b`` leaf's, 1 in s and -1 in t; and the law
    with all its mass on that leaf in s."""
    node = {"b": "leaf", "c": "leaf"}
    for _ in range(depth - 1):
        node = {"b": "leaf", "c": node}
    labels = [",".join(["c"] * k + ["b"]) for k in range(depth)] + [",".join(["c"] * depth)]
    utility = {label: {"s": 0, "t": 0} for label in labels}
    utility[labels[depth - 1]] = {"s": 1, "t": -1}
    doc = {"periods": depth, "states": ["s", "t"], "tree": node, "utility": utility}
    return doc, f"{labels[depth - 1]}@s:1"


def test_a_deep_chain_report_is_re_checked(capsys, tmp_path):
    # neither the backward induction nor the oracle's re-check recurses or
    # keeps prefixes as tuples, and a rule's adaptedness check ties each
    # pair of neighbouring leaves once, so a chain 700 periods deep is
    # answered and re-checked in well under a second each: with the law in
    # s, which is obedient, and in t, where c beats the deepest b leaf
    doc, dist = chain_doc(700)
    problem = tmp_path / "chain.json"
    problem.write_text(json.dumps(doc))
    report = tmp_path / "report.json"
    for state, verdict, detail in (("s", True, "obedient triple re-checked"),
                                   ("t", False, "dominating rule re-checked")):
        code, out, err = run_cli(capsys, "check-joint", str(problem),
                                 "--dist", dist.replace("@s:", f"@{state}:"))
        assert code == 0, err
        assert first_report(out)["result"]["rationalizable"] is verdict
        report.write_text(out.splitlines()[0])
        code, out, err = run_cli(capsys, "verify-witness", str(report))
        assert code == 0, err
        assert first_report(out)["result"] == {"valid": True, "detail": detail}


def test_a_deep_chain_rule_reads_its_tree_s_common_prefixes(capsys, monkeypatch, tmp_path):
    # a rule built on a problem's leaves checks its adaptedness against the
    # common-prefix lengths its tree keeps, which the prefix runs read too:
    # a dominated check-joint and its verify-witness derive them once per
    # tree read, and verify-witness builds no prefix runs for them
    callers, real = [], model._common

    def common(seqs):
        callers.append(sys._getframe(1).f_code)
        return real(seqs)

    monkeypatch.setattr(model, "_common", common)
    assert not hasattr(deviation, "_common")  # a rule reads its tree's, and derives none
    doc, dist = chain_doc(700)
    problem, report = tmp_path / "chain.json", tmp_path / "report.json"
    problem.write_text(json.dumps(doc))
    code, out, err = run_cli(capsys, "check-joint", str(problem),
                             "--dist", dist.replace("@s:", "@t:"))
    assert code == 0 and first_report(out)["result"]["rationalizable"] is False, err
    report.write_text(out.splitlines()[0])
    code, out, err = run_cli(capsys, "verify-witness", str(report))
    assert first_report(out)["result"] == {"valid": True, "detail": "dominating rule re-checked"}
    assert callers == [model.Tree.common.func.__code__] * 2  # one tree read by each run


@pytest.mark.parametrize("command", ["check-marginal", "verify-witness"])
def test_running_out_of_memory_is_one_line_and_exit_4(capsys, monkeypatch, command):
    # a query too large for the process's memory, such as check-marginal
    # with mass on the deepest b leaf of a 700-deep chain under a 2 GB
    # address limit, ends in one stderr line and exit 4, not a traceback;
    # here the decision and the re-check are patched to raise it
    def out_of_memory(*args):
        raise MemoryError

    monkeypatch.setattr(rationalize, "decide", out_of_memory)
    monkeypatch.setattr(oracle, "verify_witness", out_of_memory)
    report = str(GOLDEN / "ex1-check-seq-invest.json")
    argv = ([command, EX1, "--dist", "invest,invest:1/3,invest,pull_back:2/3"]
            if command == "check-marginal" else [command, report])
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (4, "")
    assert err == "out of memory: the query does not fit in this process's memory\n"


def test_a_deep_chain_runs_every_query_on_its_own_block(capsys, tmp_path):
    # the leaf b is its own first-action block: its programs take that
    # block's rows alone, not the whole tree's cubic ones, and counting the
    # chain's rules is a loop, so the size guard answers
    doc, _ = chain_doc(700)
    problem = tmp_path / "chain.json"
    problem.write_text(json.dumps(doc))
    code, out, err = run_cli(capsys, "enumerate-rules", str(problem))
    assert code == 3 and out == ""
    # a count within int()'s digit limit is written out in full
    assert len(err.splitlines()) == 1
    assert re.fullmatch(r"size guard: instance has [0-9]{1693} adapted pure rules, above the cap"
                        r" of 1000000; enumeration-based checks are not viable at this size\n", err)
    code, out, err = run_cli(capsys, "check-seq", str(problem), "--seq", "b")
    assert code == 0, err
    assert first_report(out)["result"]["rationalizable"] is True
    report = tmp_path / "report.json"
    report.write_text(out.splitlines()[0])
    code, out, err = run_cli(capsys, "verify-witness", str(report))
    assert code == 0, err
    assert first_report(out)["result"]["valid"] is True
    code, out, err = run_cli(capsys, "maxprob", str(problem), "--seq", "b")
    assert code == 0, err
    assert first_report(out)["result"]["value"] == "1"


def test_a_deep_path_of_one_action_has_one_rule(capsys, tmp_path):
    # one leaf 600 periods down: every prefix is a run of that one leaf
    node, label = "leaf", ",".join(["a"] * 600)
    for _ in range(600):
        node = {"a": node}
    problem = tmp_path / "path.json"
    problem.write_text(json.dumps({"periods": 600, "states": ["s"], "tree": node,
                                   "utility": {label: {"s": 0}}}))
    code, out, err = run_cli(capsys, "enumerate-rules", str(problem))
    assert code == 0, err
    assert first_report(out)["result"] == {"count": 1, "rules": [{label: label}]}
    code, out, err = run_cli(capsys, "check-joint", str(problem), "--dist", f"{label}@s:1")
    assert code == 0, err
    assert first_report(out)["result"]["rationalizable"] is True


def test_the_size_guard_states_a_count_past_the_digit_limit(capsys, tmp_path):
    # a complete (60, 60) tree has about 10**6508 adapted pure rules, past
    # the digits that int() converts to a string: the guard gives their
    # number of digits instead of a traceback
    tree = {f"a{i}": dict.fromkeys((f"b{j}" for j in range(60)), "leaf") for i in range(60)}
    utility = {f"a{i},b{j}": {"s": 0} for i in range(60) for j in range(60)}
    problem = tmp_path / "complete.json"
    problem.write_text(json.dumps({"periods": 2, "states": ["s"], "tree": tree,
                                   "utility": utility}))
    code, out, err = run_cli(capsys, "enumerate-rules", str(problem))
    assert code == 3 and out == ""
    assert err.splitlines() == [
        "size guard: instance has a 6509-digit number of adapted pure rules, above the cap"
        " of 1000000; enumeration-based checks are not viable at this size"]
    count = cli.deviation.count_pure_rules(load_problem(problem.read_text()))
    assert 10 ** 6508 <= count < 10 ** 6509


def test_check_seq_answers_where_rule_enumeration_cannot(capsys, tmp_path):
    # 16 leaves and about 1.1e12 adapted pure rules, far past the size guard
    tree = complete_tree(tmp_path, (4, 4), 2, seed=5)
    code, out, err = run_cli(capsys, "check-seq", tree, "--seq", "a,b")
    assert code == 0, err
    report = first_report(out)
    assert report["result"]["rationalizable"] is True
    assert report["stats"]["rules_enumerated"] == 0
    path = tmp_path / "report.json"
    path.write_text(out.splitlines()[0])
    _, out, _ = run_cli(capsys, "verify-witness", str(path))
    assert first_report(out)["result"]["valid"] is True


def test_maxprob_and_check_marginal_on_three_periods(capsys, tmp_path):
    # 8 leaves and 16 384 adapted pure rules
    tree = complete_tree(tmp_path, (2, 2, 2), 2, seed=3)
    problem = load_problem(Path(tree).read_text())
    interior = 0
    for leaf in problem.leaves:
        code, out, err = run_cli(capsys, "maxprob", tree, "--seq", leaf)
        assert code == 0, err
        value = Fraction(first_report(out)["result"]["value"])
        assert (value == 0) == (rationalize.dominating_rule(problem, leaf) is not None)
        best, joint = rationalize.max_positive_marginal(problem, leaf)
        assert best == value
        if value == 0:
            continue
        assert oracle.verify_obedient_optimality(problem, joint)
        if value == 1:
            continue
        interior += 1
        # the witness's action marginal is rationalizable by construction
        dist = tmp_path / "marginal.json"
        marginal = joint.action_marginal()
        dist.write_text(json.dumps({a: format_rational(Fraction(w, marginal.den))
                                    for a, w in zip(problem.leaves, marginal.weights)}))
        code, out, err = run_cli(capsys, "check-marginal", tree, "--dist-file", str(dist))
        assert code == 0, err
        report = first_report(out)
        assert report["result"]["rationalizable"] is True
        law = rationalize.obedient_triple_from_json(problem, report["result"]["witness"])
        assert oracle.verify_obedient_optimality(problem, law)
        assert law.action_marginal() == joint.action_marginal()
    assert interior > 0


@pytest.mark.parametrize("periods", [2000, 10**30])
def test_periods_past_the_depth_change_only_the_echo(capsys, tmp_path, periods):
    # example 1 declares 2 periods on a tree of depth 2; more periods only
    # allow more padding in a label, so every golden query on example 1
    # gives the golden report with the declared periods echoed
    doc = json.loads(Path(EX1).read_text())
    path = tmp_path / "example1.json"
    path.write_text(json.dumps({**doc, "periods": periods}))
    report = tmp_path / "report.json"
    for name, argv in CASES.items():
        if argv[1] != EX1:
            continue
        want = _golden_report(name)
        want["problem"]["periods"] = periods
        got = render([argv[0], str(path), *argv[2:]])
        assert json.loads(got) == want, name
        if "witness" in want["result"]:
            report.write_text(got)
            assert json.loads(render(["verify-witness", str(report)]))["result"]["valid"] is True
    # padding past the tree's depth, within the declared periods
    code, out, err = run_cli(capsys, "check-seq", str(path), "--seq", "not_invest,_,_")
    assert code == 0, err
    assert first_report(out)["result"]["rationalizable"] is True


# Command lines the subcommand's own parser must treat as the full parser
# does: each golden's, and malformed ones
MALFORMED_ARGV = [
    [],
    ["--pretty", "check-seq", EX1, "--seq", "invest,pull_back"],  # an option first
    ["no-such-command", EX1],
    ["check-seq", EX1, "--seq", "invest,pull_back", "--bogus"],   # unknown option
    ["check-seq", EX1],                                            # missing --seq
    ["maxprob", "--seq", "invest,pull_back"],                      # missing problem
    ["identify", EX2, "--seq", "w,x", "--sweep", "delta", "--range", "0:1", "--grid", "x"],
    ["check-seq", EX1, "--seq", "invest,pull_back", "extra"],      # a trailing extra argument
    ["check-seq", EX1, "--se", "invest,pull_back"],                # an abbreviated option
    ["check-joint", EX1, "--dist", "invest,invest@good:1", "--dist-f", "x"],
    ["check-joint", EX1, "--di", "invest,invest@good:1"],          # ambiguous abbreviation
    ["enumerate-rules", EX1, "--max-rules", "-"],
    ["simulate", EX1, "--structure", "s.json", "--strategy", "t.json", "-n"],
    ["verify-witness"],
    ["verify-witness", "r.json", "--", "--pretty"],
    ["check-seq", EX1, "--seq="],                                  # an empty value
    ["check-seq", EX1, "--seq", "a", "--pretty=yes"],              # a flag given a value
    ["identify", EX2, "--seq", "w,x", "--sweep", "delta", "--range=-1:1"],  # a dashed value
    ["simulate", EX1, "--structure", "s.json", "--strategy=t.json", "-n=4", "-n", "x"],
]


@pytest.mark.parametrize("argv", list(CASES.values()) + MALFORMED_ARGV,
                         ids=list(CASES) + [f"malformed-{k}" for k in range(len(MALFORMED_ARGV))])
def test_subcommand_parser_matches_the_full_parser(capsys, argv):
    def parsed(parse):
        try:
            return parse(list(argv))
        except cli.UsageError as exc:
            return f"usage error: {exc}"

    expected = parsed(cli._build_parser().parse_args)
    got = parsed(cli._parse_args)
    assert got == expected if isinstance(expected, str) else vars(got) == vars(expected)
    if isinstance(expected, str):  # and `run` reports it as a usage error, exit 1
        assert cli.run(list(argv)) == 1
        assert capsys.readouterr().err == expected + "\n"


def test_the_plain_reader_matches_the_full_parser_on_a_seeded_corpus():
    # well-formed and mutated command lines over every subcommand
    # (tests/parser_corpus.py, which also runs without pytest)
    plain, wrong = parser_corpus.compare(parser_corpus.corpus(2500, seed=0))
    assert wrong == []
    assert plain >= 1000  # most of the well-formed lines take the plain path


def _without_argparse(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("argparse parsed a plain command line")

    monkeypatch.setattr(argparse.ArgumentParser, "parse_args", refuse)


def test_every_golden_command_line_is_read_without_argparse(monkeypatch):
    expected = {name: vars(cli._build_parser().parse_args(argv)) for name, argv in CASES.items()}
    _without_argparse(monkeypatch)
    for name, argv in CASES.items():
        assert vars(cli._parse_args(argv)) == expected[name], name
        assert cli._parse_args(["verify-witness", str(GOLDEN / f"{name}.json")]).pretty is False


@pytest.mark.parametrize("workload, runs", [("sequence", 180), ("joint", 80), ("identify", 60)])
def test_every_benchmark_run_is_read_without_argparse(monkeypatch, workload, runs):
    # each op's query, and the verify-witness run on each verdict's report:
    # a verdict always carries a witness
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    import workloads

    ops, _ = workloads.build(workload, 5, 15)
    argvs = [argv for op in ops for argv in [op.argv(Path("work"))] + (
        [["verify-witness", "work/report.json"]] if op.command in cli._VERDICTS else [])]
    assert len(argvs) == runs
    _without_argparse(monkeypatch)
    for argv in argvs:
        assert cli._parse_args(argv).command == argv[0]


@pytest.mark.parametrize("name", list(cli._COMMANDS))
def test_every_option_has_a_help_line(capsys, name):
    # argparse prints each subcommand's help from the same declarations
    with pytest.raises(SystemExit) as done:
        cli.run([name, "--help"])
    out = capsys.readouterr().out
    assert done.value.code == 0 and out.startswith(f"usage: dynrat {name} ")
    for word, keywords in cli._COMMANDS[name][1]:
        assert keywords["help"] in " ".join(out.split()), word


def test_every_declaration_is_one_the_plain_reader_reads():
    # the plain reader reads these keywords and actions only, converts no
    # positional and no string default, and keys each value by its dest
    keywords_read = {"action", "default", "dest", "help", "metavar", "required", "type"}
    for name, (_, arguments) in cli._COMMANDS.items():
        dests = []
        for word, keywords in arguments:
            assert keywords_read.issuperset(keywords), (name, word)
            assert keywords.get("action", "store") in {"store", "store_true", "append"}, word
            positional = word[0] != "-"
            assert "type" not in keywords or not (
                positional or isinstance(keywords.get("default"), str)), (name, word)
            dests.append(word if positional else
                         keywords.get("dest", word.lstrip("-").replace("-", "_")))
        assert len(set(dests)) == len(dests), name


# ---------------------------------------------------------------------------
# The last problem file: one parse for several questions asked of it in a row
# ---------------------------------------------------------------------------

def count_parses(monkeypatch) -> list:
    """Each parse `cli` runs from now on: ``("file", its bytes)`` for a
    problem file, ``("report", its sorted JSON)`` for a report's problem."""
    parses, load, from_dict = [], cli.load_problem, cli.problem_from_dict
    monkeypatch.setattr(cli, "load_problem", lambda source: parses.append(
        ("file", source.getvalue())) or load(source))
    monkeypatch.setattr(cli, "problem_from_dict", lambda doc: parses.append(
        ("report", json.dumps(doc, sort_keys=True, default=str))) or from_dict(doc))
    return parses


def test_golden_commands_repeated_in_one_process_give_the_golden_bytes(monkeypatch, tmp_path):
    # every golden command, in file order and then in reverse, each verdict
    # followed by verify-witness on its report: the golden bytes and the
    # re-check a fresh process gives; a problem file is parsed only when its
    # bytes differ from the last query's, and each report's problem on
    # every re-check
    witnessed = [name for name in CASES
                 if "witness" in _golden_report(name)["result"]]
    fresh = {}
    for name in witnessed:
        fresh[name] = render(["verify-witness", str(GOLDEN / f"{name}.json")])
    parses = count_parses(monkeypatch)
    report = tmp_path / "report.json"
    order = list(CASES) + list(reversed(CASES))
    for name in order:
        out = render(CASES[name])
        assert out == (GOLDEN / f"{name}.json").read_text(), name
        if name in fresh:
            report.write_text(out)
            assert render(["verify-witness", str(report)]) == fresh[name], name
    sources = [Path(CASES[name][1]).read_bytes() for name in order]
    changes = [source for k, source in enumerate(sources) if k == 0 or source != sources[k - 1]]
    assert [source for kind, source in parses if kind == "file"] == changes
    assert len(changes) < len(order)
    assert sum(kind == "report" for kind, _ in parses) == 2 * len(witnessed)


def test_verify_witness_re_checks_on_a_tree_of_its_own(capsys, monkeypatch, tmp_path):
    # only queries reuse the last problem file: a report's problem is parsed
    # afresh on every re-check, so no certificate is re-checked on the tree,
    # or the per-tree caches, of the query that found it
    code, out, err = run_cli(capsys, "check-seq", EX1, "--seq", "invest,pull_back")
    assert code == 0, err
    _, kept, _ = cli._LAST_PROBLEM[0]
    report = tmp_path / "report.json"
    report.write_text(out.splitlines()[0])
    seen, real = [], oracle.verify_witness
    monkeypatch.setattr(oracle, "verify_witness",
                        lambda problem, *rest: seen.append(problem) or real(problem, *rest))
    for _ in range(2):
        code, out, err = run_cli(capsys, "verify-witness", str(report))
        assert code == 0 and first_report(out)["result"]["valid"] is True, err
    assert len(seen) == 2 and len({id(problem.tree) for problem in seen + [kept]}) == 3
    assert cli._LAST_PROBLEM[0][1] is kept


def test_the_kept_file_is_keyed_by_content_not_path(capsys, monkeypatch, tmp_path):
    # rewriting a file between runs changes the answer; two paths holding
    # the same bytes share one parse
    parses = count_parses(monkeypatch)
    path, copy = tmp_path / "ex1.json", tmp_path / "copy.json"
    doc = json.loads(Path(EX1).read_text())
    verdicts = []
    for bad in (-2, 2):  # with 2, investing again beats pulling back in every state
        doc["utility"]["invest,invest"]["bad"] = bad
        path.write_text(json.dumps(doc))
        code, out, err = run_cli(capsys, "check-seq", str(path), "--seq", "invest,pull_back")
        assert code == 0, err
        verdicts.append(first_report(out)["result"]["rationalizable"])
    assert verdicts == [True, False] and len(parses) == 2
    copy.write_bytes(path.read_bytes())
    reports = []
    for problem in (path, copy):
        code, out, err = run_cli(capsys, "maxprob", str(problem), "--seq", "invest,invest")
        assert code == 0, err
        reports.append(first_report(out))
        reports[-1].pop("timing_ms")
    assert reports[0] == reports[1] and len(parses) == 2


def test_a_file_holding_a_report_s_problem_text_is_one_more_file(tmp_path):
    # the key is a file's bytes: a file holding exactly the writer's text of
    # the kept problem is parsed as a file of its own, and no bytes are ever
    # compared with a str (run with -bb, where that comparison raises)
    path, again = tmp_path / "ex1.json", tmp_path / "again.json"
    path.write_text(Path(EX1).read_text())
    script = (
        "import contextlib, io, json, sys\n"
        "from dynrat import cli\n"
        "def run(*argv):\n"
        "    out = io.StringIO()\n"
        "    with contextlib.redirect_stdout(out):\n"
        "        assert cli.run(list(argv)) == 0\n"
        "    return out.getvalue()\n"
        f"first = run('check-seq', {str(path)!r}, '--seq', 'invest,pull_back')\n"
        f"with open({str(tmp_path / 'r.json')!r}, 'w') as fh:\n"
        "    fh.write(first)\n"
        f"run('verify-witness', {str(tmp_path / 'r.json')!r})\n"
        f"with open({str(again)!r}, 'w') as fh:\n"
        "    fh.write(cli._ENCODER.encode(json.loads(first)['problem']))\n"
        f"second = run('check-seq', {str(again)!r}, '--seq', 'invest,pull_back')\n"
        "verdicts = [json.loads(out)['result']['rationalizable'] for out in (first, second)]\n"
        "assert verdicts == [True, True]\n"
        "assert type(cli._LAST_PROBLEM[0][0]) is bytes\n"
    )
    done = subprocess.run([sys.executable, "-bb", "-c", script], capture_output=True,
                          text=True, env=_module_env(), timeout=60)
    assert done.returncode == 0, done.stderr


def test_a_malformed_problem_is_refused_on_every_run_until_fixed(capsys, monkeypatch, tmp_path):
    # only a parse that succeeds is kept: the same bad bytes fail every time
    parses = count_parses(monkeypatch)
    path = tmp_path / "problem.json"
    doc = json.loads(Path(EX1).read_text())
    doc["tree"]["invest"] = {}
    path.write_text(json.dumps(doc))
    for _ in range(2):
        code, out, err = run_cli(capsys, "check-seq", str(path), "--seq", "not_invest")
        assert code == 2 and out == "" and "empty action set" in err
    assert len(parses) == 2 and cli._LAST_PROBLEM[0] is None
    path.write_text(Path(EX1).read_text())
    code, out, err = run_cli(capsys, "check-seq", str(path), "--seq", "not_invest")
    assert code == 0 and first_report(out)["result"]["rationalizable"] is True, err


def reordered(problem: dict) -> None:
    problem["tree"] = dict(reversed(problem["tree"].items()))


# A report's problem edited in place: (edit, still valid)
REPORT_EDITS = {
    "decimal": (lambda p: p["utility"]["invest,invest"].update(bad=-2.0), True),
    "reordered": (reordered, True),
    "tampered": (lambda p: p["utility"]["invest,invest"].update(bad=2), False),
}


@pytest.mark.parametrize("case", sorted(REPORT_EDITS))
def test_verify_witness_parses_an_edited_problem_afresh(capsys, monkeypatch, tmp_path, case):
    # a report whose problem is not the writer's text of it (a decimal,
    # another key order, a tampered payoff) is parsed on every run and
    # echoed canonically
    edit, valid = REPORT_EDITS[case]
    report = tmp_path / "report.json"
    code, out, err = run_cli(capsys, "check-seq", EX1, "--seq", "invest,pull_back")
    assert code == 0, err
    written = first_report(out)["problem"]
    doc = first_report(out)
    edit(doc["problem"])
    report.write_text(json.dumps(doc))
    parses = count_parses(monkeypatch)
    for _ in range(2):
        code, out, err = run_cli(capsys, "verify-witness", str(report))
        assert code == 0 and first_report(out)["result"]["valid"] is valid, err
    assert [kind for kind, _ in parses] == ["report"] * 2
    written["utility"]["invest,invest"]["bad"] = -2 if valid else 2
    assert cli._ENCODER.encode(first_report(out)["problem"]) == cli._ENCODER.encode(written)


def test_only_the_last_problem_file_is_kept(capsys, monkeypatch, tmp_path):
    # a query on another file replaces the kept one
    parses = count_parses(monkeypatch)
    first, second = tmp_path / "first.json", tmp_path / "second.json"
    doc = json.loads(Path(EX1).read_text())
    for path, good in ((first, 0), (second, 1)):
        doc["utility"]["not_invest"]["good"] = good
        path.write_text(json.dumps(doc))
    for path in (first, second, first, first, second):
        code, _, err = run_cli(capsys, "check-seq", str(path), "--seq", "not_invest")
        assert code == 0, err
    assert [source for _, source in parses] == [
        path.read_bytes() for path in (first, second, first, second)]


def test_a_query_keeps_nothing_beyond_the_kept_problem(capsys):
    # the pure rules that enumerate-rules lists die with the query, also on
    # an instance that shares the kept problem's tree
    # (other tests' data holds rules of its own, so the count is a difference)
    before = live_instances(deviation.DeviationRule)
    for path, params, count in ((EX1, [], 15), (EX2, ["--param", "delta=1/2"], 96)):
        code, out, err = run_cli(capsys, "enumerate-rules", path, *params)
        assert code == 0 and first_report(out)["result"]["count"] == count, err
        assert live_instances(deviation.DeviationRule) == before
        kept, problem, _ = cli._LAST_PROBLEM[0]
        assert kept == Path(path).read_bytes() and isinstance(problem, model.DecisionProblem)


def test_a_query_run_again_builds_nothing_that_stays():
    # every golden command run a second time in the same process leaves as
    # many records of each type alive as the first run left
    def run_all():
        for argv in CASES.values():
            render(argv)
        return live_instances(model.Frozen)

    assert run_all() == run_all()


def test_the_library_loader_keeps_nothing():
    # only the command line keeps a problem: `load_problem` parses every call
    text = Path(EX1).read_text()
    first, second = load_problem(text), load_problem(text)
    assert first is not second and first.tree is not second.tree
    assert cli._LAST_PROBLEM[0] is None
