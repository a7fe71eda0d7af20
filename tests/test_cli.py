import itertools
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from dynrat import cli, oracle, rationalize
from dynrat.model import format_rational, load_problem

from conftest import complete_tree_doc
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
    assert code == 2 and "input error" in err, err
    assert all(text in err for text in named), err
    assert out == ""


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
        code, out, err = run_cli(capsys, "maxprob", tree, "--seq", leaf.label)
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
        dist.write_text(json.dumps({a.label: format_rational(Fraction(w, marginal.den))
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
    assert parsed(cli._parse_args) == expected
    if isinstance(expected, str):  # and `run` reports it as a usage error, exit 1
        assert cli.run(list(argv)) == 1
        assert capsys.readouterr().err == expected + "\n"
