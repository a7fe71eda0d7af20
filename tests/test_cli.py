import itertools
import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from dynrat import cli, oracle, rationalize
from dynrat.model import format_rational, load_problem

ROOT = Path(__file__).resolve().parent.parent
PROBLEMS = ROOT / "problems"
GOLDEN = ROOT / "tests" / "golden"
EX1 = str(PROBLEMS / "example1.json")
EX2 = str(PROBLEMS / "example2.json")


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


def _golden_report(name: str) -> dict:
    return json.loads((GOLDEN / f"{name}.json").read_text())


def _edited(name: str, edit) -> dict:
    report = _golden_report(name)
    edit(report)
    return report


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
    "problem-is-a-directory": ("check-seq", None),
    "problem-is-not-utf8": ("check-seq", b'{"periods": 1, "states": ["\xe9"]}'),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_input_exits_2(capsys, tmp_path, case):
    command, content = MALFORMED[case]
    path = tmp_path / "input.json"
    if content is None:
        path.mkdir()
    elif isinstance(content, bytes):
        path.write_bytes(content)
    else:
        path.write_text(json.dumps(content))
    if command == "verify-witness":
        argv = [command, str(path)]
    elif command == "check-seq":
        argv = [command, str(path), "--seq", "a"]
    else:
        argv = [command, EX1, "--dist-file", str(path)]
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and "input error" in err, err
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
        "witness puts zero probability on the sequence"),
    "a-different-marginal": (
        "ex1-check-marginal-yes",
        lambda r: r["query"].update(dist={"invest,pull_back": "1/3", "invest,invest": "2/3"}),
        "witness induces a different marginal"),
    "a-different-joint-law": (
        "ex1-check-joint-yes",
        lambda r: r["query"].update(
            dist={"invest,pull_back": {"bad": "1/2"}, "invest,invest": {"good": "1/2"}}),
        "witness induces a different joint law"),
}


@pytest.mark.parametrize("case", sorted(TAMPERED))
def test_verify_witness_rejects_tampered_reports(capsys, tmp_path, case):
    name, edit, detail = TAMPERED[case]
    path = tmp_path / "report.json"
    path.write_text(json.dumps(_edited(name, edit)))
    code, out, err = run_cli(capsys, "verify-witness", str(path))
    assert code == 0, err
    assert first_report(out)["result"] == {"valid": False, "detail": detail}


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
    """A problem file: a complete tree with ``branching[t]`` actions in period
    t, and payoffs drawn from the integers in [-5, 5]."""
    rng = random.Random(seed)

    def build(depth):
        return {"abcd"[k]: "leaf" if depth + 1 == len(branching) else build(depth + 1)
                for k in range(branching[depth])}

    states = [f"s{i}" for i in range(n_states)]
    leaves = [",".join(path) for path in itertools.product(
        *("abcd"[:b] for b in branching))]
    doc = {"periods": len(branching), "states": states, "tree": build(0),
           "utility": {leaf: {s: rng.randint(-5, 5) for s in states} for leaf in leaves}}
    path = tmp_path / f"tree-{'-'.join(map(str, branching))}-{seed}.json"
    path.write_text(json.dumps(doc))
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
        triple = rationalize.obedient_triple_from_joint(joint)
        assert oracle.verify_obedient_optimality(problem, triple)
        if value == 1:
            continue
        interior += 1
        # the witness's action marginal is rationalizable by construction
        dist = tmp_path / "marginal.json"
        dist.write_text(json.dumps({a.label: format_rational(w) for a, w in
                                    zip(problem.leaves, joint.action_marginal().weights)}))
        code, out, err = run_cli(capsys, "check-marginal", tree, "--dist-file", str(dist))
        assert code == 0, err
        report = first_report(out)
        assert report["result"]["rationalizable"] is True
        triple = rationalize.ObedientTriple.from_json_dict(problem, report["result"]["witness"])
        assert oracle.verify_obedient_optimality(problem, triple)
        assert triple.induced_joint().action_marginal() == joint.action_marginal()
    assert interior > 0
