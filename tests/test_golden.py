"""Pinned CLI reports: same verdicts, same witnesses, same pivot counts.

Each case runs one CLI command on a shipped example and compares the report,
minus `timing_ms`, byte for byte with the file under `tests/golden/`.  The
files pin the solver's pivot sequence (`stats.lp_pivots`) and the exact
certificates it finds, so a change to the tableau arithmetic that alters
either shows up here.

To rewrite the files after an intended change of output:

    PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

import contextlib
import io
import json
from pathlib import Path

import pytest

from dynrat import cli, lp

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden"
EX1 = str(ROOT / "problems" / "example1.json")
EX2 = str(ROOT / "problems" / "example2.json")
EX3 = str(ROOT / "problems" / "example3.json")
EX1_STRUCTURE = str(ROOT / "problems" / "example1_structure.json")
EX1_STRATEGY = str(ROOT / "problems" / "example1_obedient_strategy.json")
JOINT_YES = "invest,pull_back@bad:1/2,invest,pull_back@good:1/6,invest,invest@good:1/3"
JOINT_NO = "invest,pull_back@good:1/2,invest,invest@good:1/2"
# a complete (4,4) tree with three states and fractional payoffs: 16 leaves,
# so the joint path runs at more than the examples' 3 or 4 leaves
GRID = str(GOLDEN / "problems" / "grid-4x4.json")
# a mixture of play with the state revealed and of play blind to it: obedient
GRID_YES = "b,a@lo:1/4,b,d@mid:1/6,d,a@hi:5/24,b,a@mid:1/6,b,a@hi:5/24"
GRID_NO = "a,b@hi:1/3,c,c@lo:1/6,b,a@mid:1/4,d,d@mid:1/4"

CASES = {
    "ex1-check-seq-pull-back": ["check-seq", EX1, "--seq", "invest,pull_back"],
    "ex1-check-seq-invest": ["check-seq", EX1, "--seq", "invest,invest"],
    "ex1-maxprob-pull-back": ["maxprob", EX1, "--seq", "invest,pull_back"],
    "ex1-check-marginal-no": ["check-marginal", EX1, "--dist",
                              "invest,pull_back:3/4,invest,invest:1/4"],
    "ex1-check-marginal-yes": ["check-marginal", EX1, "--dist",
                               "invest,pull_back:2/3,invest,invest:1/3"],
    "ex1-check-joint-yes": ["check-joint", EX1, "--dist", JOINT_YES],
    "ex1-check-joint-no": ["check-joint", EX1, "--dist", JOINT_NO],
    "ex2-check-seq-no": ["check-seq", EX2, "--param", "delta=3/4", "--seq", "w,x"],
    "ex2-check-seq-yes": ["check-seq", EX2, "--param", "delta=9/10", "--seq", "w,x"],
    "ex2-maxprob": ["maxprob", EX2, "--param", "delta=9/10", "--seq", "w,x"],
    "ex2-check-marginal-no": ["check-marginal", EX2, "--param", "delta=3/4",
                              "--dist", "w,x:1/2,w,y:1/2"],
    "ex2-check-marginal-yes": ["check-marginal", EX2, "--param", "delta=9/10",
                               "--dist", "w,x:1/3,w,y:1/3,x:1/3"],
    "ex2-check-joint-yes": ["check-joint", EX2, "--param", "delta=9/10",
                            "--dist", "w,x@X:1/2,w,y@Y:1/2"],
    "ex2-check-joint-no": ["check-joint", EX2, "--param", "delta=3/4",
                           "--dist", "w,x@X:1/2,w,y@Y:1/2"],
    "ex2-identify-seq": ["identify", EX2, "--seq", "w,x", "--sweep", "delta",
                         "--range", "0:1", "--grid", "9", "--tol", "1/64"],
    "ex2-identify-marginal": ["identify", EX2, "--marginal", "w,x:1/2,w,y:1/2",
                              "--sweep", "delta", "--range", "0:1", "--grid", "9",
                              "--tol", "1/64"],
    "ex2-identify-joint": ["identify", EX2, "--joint", "w,x@X:1/2,w,y@Y:1/2",
                           "--sweep", "delta", "--range", "0:1", "--grid", "9",
                           "--tol", "1/64"],
    "ex3-check-seq-yes": ["check-seq", EX3, "--param", "R=4", "--param", "c=1",
                          "--seq", "effort,no_effort"],
    "ex3-check-seq-no": ["check-seq", EX3, "--param", "R=1", "--param", "c=2",
                         "--seq", "effort,effort"],
    "ex3-maxprob": ["maxprob", EX3, "--param", "R=4", "--param", "c=1",
                    "--seq", "effort,no_effort"],
    "ex3-check-marginal-yes": ["check-marginal", EX3, "--param", "R=4", "--param", "c=1",
                               "--dist", "effort,no_effort:1/2,effort,effort:1/2"],
    "ex3-check-joint-no": ["check-joint", EX3, "--param", "R=4", "--param", "c=3",
                           "--dist", "effort,effort@hard:1/2,no_effort@easy:1/2"],
    "ex3-identify-seq": ["identify", EX3, "--param", "R=4", "--seq", "effort,no_effort",
                         "--sweep", "c", "--range", "0:8", "--grid", "9", "--tol", "1/16"],
    "grid-check-joint-yes": ["check-joint", GRID, "--dist", GRID_YES],
    "grid-check-joint-no": ["check-joint", GRID, "--dist", GRID_NO],
    "ex1-enumerate-rules": ["enumerate-rules", EX1],
    "ex1-simulate": ["simulate", EX1, "--structure", EX1_STRUCTURE, "--strategy",
                     EX1_STRATEGY, "-n", "1000", "--seed", "7"],
}


# Each case's answer, written out by hand: the verdict of a check, the value
# of `maxprob`, the intervals of `identify`, the count of `enumerate-rules`,
# the draws and the support of `simulate`.
# Regenerating the files cannot flip one of these unnoticed.
EX2_DELTA_SET = [("0", "51/64", "out"), ("51/64", "13/16", "gap"), ("13/16", "1", "in")]
ANSWERS = {
    "ex1-check-seq-pull-back": True,
    "ex1-check-seq-invest": True,
    "ex1-maxprob-pull-back": "2/3",
    "ex1-check-marginal-no": False,
    "ex1-check-marginal-yes": True,
    "ex1-check-joint-yes": True,
    "ex1-check-joint-no": False,
    "ex2-check-seq-no": False,
    "ex2-check-seq-yes": True,
    "ex2-maxprob": "7/9",
    "ex2-check-marginal-no": False,
    "ex2-check-marginal-yes": True,
    "ex2-check-joint-yes": True,
    "ex2-check-joint-no": False,
    "ex2-identify-seq": EX2_DELTA_SET,
    "ex2-identify-marginal": EX2_DELTA_SET,
    "ex2-identify-joint": EX2_DELTA_SET,
    "ex3-check-seq-yes": True,
    "ex3-check-seq-no": False,
    "ex3-maxprob": "1",
    "ex3-check-marginal-yes": True,
    "ex3-check-joint-no": False,
    "ex3-identify-seq": [("0", "4", "in"), ("4", "65/16", "gap"), ("65/16", "8", "out")],
    "grid-check-joint-yes": True,
    "grid-check-joint-no": False,
    "ex1-enumerate-rules": 15,
    # the obedient strategy against example 1's structure: bad always reads
    # b and pulls back, good reads g or b and follows it
    "ex1-simulate": (1000, [("invest,invest", "good"), ("invest,pull_back", "bad"),
                            ("invest,pull_back", "good")]),
}


# Each sequence or marginal verdict's program columns, written out by hand:
# the inputs of the first-action blocks the data touch, times the leaves
# (example 1 and example 3 have 3 leaves, example 2 has 4), plus one level
# for the sequence or per input.  ex2-check-marginal-yes touches the blocks
# of w and x, and ex2-check-seq-no that of w.
COLUMNS = {
    "ex1-check-seq-pull-back": 2 * 3 + 1,
    "ex1-check-seq-invest": 2 * 3 + 1,
    "ex1-check-marginal-no": 2 * 3 + 2,
    "ex1-check-marginal-yes": 2 * 3 + 2,
    "ex2-check-seq-no": 2 * 4 + 1,
    "ex2-check-seq-yes": 2 * 4 + 1,
    "ex2-check-marginal-no": 2 * 4 + 2,
    "ex2-check-marginal-yes": 3 * 4 + 3,
    "ex3-check-seq-yes": 2 * 3 + 1,
    "ex3-check-seq-no": 2 * 3 + 1,
    "ex3-check-marginal-yes": 2 * 3 + 2,
}


def render(argv: list[str]) -> str:
    """The report line of one CLI run, minus timing.  Reports do not echo the
    problem's path, so they do not depend on where the repository lives."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.run(list(argv))
    assert code == 0, f"{argv} exited {code}"
    report = json.loads(out.getvalue().splitlines()[0])
    report.pop("timing_ms")
    return json.dumps(report, sort_keys=True) + "\n"


@pytest.mark.parametrize("name", sorted(CASES))
def test_report_matches_golden(name):
    assert render(CASES[name]) == (GOLDEN / f"{name}.json").read_text()


# The cases of the verdict commands, whose reports always carry a witness.
# They are picked by command, so that adding a case reads no golden file at
# import and the entry point below can write the new one.
VERDICTS = sorted(n for n, argv in CASES.items()
                  if argv[0] in ("check-seq", "check-marginal", "check-joint"))


@pytest.mark.parametrize("name", VERDICTS)
def test_golden_witnesses_verify(name):
    result = json.loads(render(["verify-witness", str(GOLDEN / f"{name}.json")]))["result"]
    assert result["valid"] is True, result["detail"]


def test_only_verdicts_carry_a_witness():
    carried = sorted(n for n in CASES
                     if "witness" in json.loads((GOLDEN / f"{n}.json").read_text())["result"])
    assert carried == VERDICTS


@pytest.mark.parametrize("name", VERDICTS)
def test_each_verdict_solves_one_program(name, monkeypatch):
    """A sequence or a marginal verdict solves its dominance LP, over the
    blocks its data touch; a joint verdict is backward induction and solves
    none."""
    solves = []
    real_solve = lp.solve

    def solve(prog):
        if CASES[name][0] == "check-joint":
            raise AssertionError("a joint verdict solved an LP")
        solves.append(prog)
        return real_solve(prog)

    monkeypatch.setattr(lp, "solve", solve)
    render(CASES[name])
    assert len(solves) == (0 if CASES[name][0] == "check-joint" else 1)
    assert [len(prog.variables) for prog in solves] == (
        [] if CASES[name][0] == "check-joint" else [COLUMNS[name]])


def test_golden_cases_cover_both_verdicts():
    verdicts = {}
    for name in CASES:
        result = json.loads((GOLDEN / f"{name}.json").read_text())["result"]
        if "rationalizable" in result:
            verdicts.setdefault(CASES[name][0], set()).add(result["rationalizable"])
    for command in ("check-seq", "check-marginal", "check-joint"):
        assert verdicts[command] == {True, False}


def test_golden_answers_match_the_table():
    def answer(result: dict):
        if "rationalizable" in result:
            return result["rationalizable"]
        if "value" in result:
            return result["value"]
        if "count" in result:
            return result["count"]
        if "empirical" in result:
            return result["n"], sorted((leaf, state) for leaf, row in result["empirical"].items()
                                       for state in row)
        return [(iv["lo"], iv["hi"], iv["tag"])
                for iv in result["identified_set"]["intervals"]]

    found = {name: answer(json.loads((GOLDEN / f"{name}.json").read_text())["result"])
             for name in CASES}
    assert found == ANSWERS


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for name, argv in CASES.items():
        (GOLDEN / f"{name}.json").write_text(render(argv))
