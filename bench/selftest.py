"""Self-test of the benchmark.

    python3 bench/selftest.py

1. The checker accepts real reports and rejects each of them once its
   witness, value or interval has been altered.
2. The calibration holds: a fixed query list is timed in ten fresh processes,
   and the spread (interquartile range over median) of its time in reference
   seconds stays within ``CALIBRATED_SPREAD``.  The raw wall-clock spread is
   printed next to it for comparison.

Exits 0 when both hold.
"""

from __future__ import annotations

import copy
import json
import os
import shutil
import statistics
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import calibrate  # noqa: E402
import checker  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

CALIBRATED_SPREAD = 0.10
PROBE_RUNS = 10


def _reports(workload: str):
    """Ops of one round of ``workload`` and dynrat's reports on them."""
    ops, files = workloads.build(workload, 7, 1)
    ops = [op for op in ops if op.case.startswith("r0-")]
    work = HERE / "out" / f"selftest-{os.getpid()}"
    try:
        run.setup_once(work, files)
        import dynrat.cli as cli
        reports = []
        for op in ops:
            report, _, _, reason = run.run_op(cli, op, work)
            if report is None:
                raise SystemExit(f"{op.case} {op.command} failed: {reason}")
            reports.append(report)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return ops, reports


def _bump(text: str, by: Fraction) -> str:
    q = Fraction(text) + by
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def alterations(op, report):
    """(what was altered, altered report) pairs for one report."""
    result = report["result"]
    out = []
    if op.command == "maxprob":
        bad = copy.deepcopy(report)
        bad["result"]["value"] = _bump(result["value"], Fraction(1, 7))
        out.append(("maxprob value", bad))
    elif op.command == "identify":
        pieces = result["identified_set"]["intervals"]
        bad = copy.deepcopy(report)
        flip = {"in": "out", "out": "in", "gap": "gap"}
        for piece in bad["result"]["identified_set"]["intervals"]:
            piece["tag"] = flip[piece["tag"]]
        out.append(("interval tags", bad))
        if len(pieces) > 1:
            bad = copy.deepcopy(report)
            bad["result"]["identified_set"]["intervals"][0]["hi"] = _bump(pieces[0]["hi"],
                                                                         Fraction(-1, 3))
            out.append(("interval endpoint", bad))
    elif result["witness"]["kind"] == "deviation_rule":
        bad = copy.deepcopy(report)
        kernel = bad["result"]["witness"]["kernel"]
        for leaf in kernel:
            kernel[leaf] = {leaf: "1"}
        out.append(("deviation rule to the identity", bad))
        bad = copy.deepcopy(report)
        row = next(iter(bad["result"]["witness"]["kernel"].values()))
        leaf = next(iter(row))
        row[leaf] = _bump(row[leaf], Fraction(1, 5))
        out.append(("deviation rule weight", bad))
    else:
        # Move all mass of one observed leaf onto another leaf in every state.
        target = op.seq or next(iter(op.marginal or {leaf: 0 for leaf, _ in op.joint}))
        other = next(leaf for leaf in op.problem.leaves if leaf != target)
        bad = copy.deepcopy(report)
        for row in bad["result"]["witness"]["recommendation"].values():
            if target in row:
                row[other] = _bump(row.get(other, "0"), Fraction(row.pop(target)))
        out.append(("obedient triple", bad))
    return out


def check_rejections() -> bool:
    ok = True
    for workload in ("sequence", "joint", "identify"):
        ops, reports = _reports(workload)
        errors = checker.check_all(ops, reports)
        if errors:
            print(f"FAIL {workload}: checker rejects genuine reports: {errors[:3]}")
            ok = False
        caught = missed = 0
        for i, (op, report) in enumerate(zip(ops, reports)):
            for what, bad in alterations(op, report):
                altered = list(reports)
                altered[i] = bad
                if checker.check_all(ops, altered):
                    caught += 1
                else:
                    missed += 1
                    ok = False
                    print(f"FAIL {workload} {op.case} {op.command}: altered {what} accepted")
        print(f"{workload}: {len(reports)} genuine reports accepted, "
              f"{caught} altered reports rejected, {missed} accepted")
    return ok


def probe() -> None:
    """One calibration run: the joint workload's first round, timed like run.py."""
    ops, files = workloads.build("joint", 7, 1)
    ops = [op for op in ops if op.case.startswith("r0-")]
    work = HERE / "out" / f"probe-{os.getpid()}"
    try:
        run.setup_once(work, files)
        import dynrat.cli as cli
        cal, raw = [], []
        for op in ops:
            cal.append(calibrate.measure())
            _, seconds, _, _ = run.run_op(cli, op, work)
            raw.append(seconds)
        cal.append(calibrate.measure())
    finally:
        shutil.rmtree(work, ignore_errors=True)
    factors = calibrate.local_factors(cal)
    print(json.dumps({"raw_s": sum(raw),
                      "ref_s": sum(t * f for t, f in zip(raw, factors))}))


def spread(values: list[float]) -> float:
    q = statistics.quantiles(values, n=4)
    return (q[2] - q[0]) / statistics.median(values)


def check_calibration() -> bool:
    raw, ref = [], []
    for _ in range(PROBE_RUNS):
        out = subprocess.run([sys.executable, __file__, "--probe"], check=True,
                             capture_output=True, text=True).stdout
        doc = json.loads(out.strip().splitlines()[-1])
        raw.append(doc["raw_s"])
        ref.append(doc["ref_s"])
    print(f"calibration over {PROBE_RUNS} runs: reference-second spread {spread(ref):.3f} "
          f"(allowed {CALIBRATED_SPREAD}), raw wall-clock spread {spread(raw):.3f}")
    return spread(ref) <= CALIBRATED_SPREAD


def main() -> int:
    if sys.argv[1:] == ["--probe"]:
        probe()
        return 0
    rejected = check_rejections()
    calibrated = check_calibration()
    print("selftest", "passed" if rejected and calibrated else "FAILED")
    return 0 if rejected and calibrated else 1


if __name__ == "__main__":
    sys.exit(main())
