import json
import os
import subprocess
import sys
from pathlib import Path

from dynrat import cli

ROOT = Path(__file__).resolve().parent.parent
PROBLEMS = ROOT / "problems"
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
    assert report["stats"]["rules_enumerated"] == 15
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
    code, _, err = run_cli(capsys, "maxprob", EX2, "--param", "delta=1/2",
                           "--seq", "w,x", "--max-rules", "5")
    assert code == 3 and "size guard" in err
    code, _, err = run_cli(capsys, "check-seq", str(PROBLEMS / "missing.json"),
                           "--seq", "a")
    assert code == 2


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


def test_module_entry_point_prints_a_report():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    done = subprocess.run(
        [sys.executable, "-m", "dynrat.cli", "check-seq", EX1, "--seq", "invest,pull_back"],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert first_report(done.stdout)["result"]["rationalizable"] is True
