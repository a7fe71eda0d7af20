"""Seeded benchmark of dynrat, driven through ``dynrat.cli.run`` in one
process by one closed-loop client.

    python3 bench/run.py --workload sequence --seed 1 --seconds 15 --trace 0

Each workload is a fixed list of operations made from the seed; every run
does the whole list (``--seconds`` sets its length, see workloads.build).  An
operation is one query plus, when its report carries a witness,
``verify-witness`` on that report.  Times are reported in reference seconds
(see calibrate.py); the raw wall-clock figures go to standard error.  With
``--trace 1`` the same list runs with per-layer spans (tracing.py) and the
per-layer metrics are printed instead of the end-to-end ones.  The last line
of standard output is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import os
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import calibrate  # noqa: E402
import workloads  # noqa: E402

SETUP_REPEATS = 9
TAIL_BEYOND = 10

END_TO_END_UNITS = {
    "queries_per_s": "1/ref_s",
    "query_s.p50": "ref_s",
    "query_s.tail": "ref_s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def per_layer_unit(name: str) -> str:
    if name.endswith("_s") or name == "lp.s_per_pivot":
        return "ref_s"
    if name in ("rationalize.rows_per_rule", "rationalize.solves_per_verdict"):
        return "ratio"
    if name == "cli.report_bytes":
        return "bytes"
    return "count"


def setup_once(work: Path, files: dict) -> float:
    """Import dynrat afresh, write every problem file and load each one."""
    for name in [m for m in sys.modules if m == "dynrat" or m.startswith("dynrat.")]:
        del sys.modules[name]
    shutil.rmtree(work, ignore_errors=True)
    start = time.perf_counter()
    dynrat = importlib.import_module("dynrat")
    importlib.import_module("dynrat.cli")
    work.mkdir(parents=True)
    for name, problem in files.items():
        workloads.write_problem(work / name, problem)
    for name in files:
        dynrat.load_problem((work / name).read_text())
    return time.perf_counter() - start


def call(cli, argv: list[str]) -> tuple[int, str, float]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        start = time.perf_counter()
        code = cli.run(argv)
        elapsed = time.perf_counter() - start
    return code, buf.getvalue(), elapsed


def run_op(cli, op, work: Path) -> tuple[dict | None, float, int, str]:
    """(report or None on failure, seconds, bytes printed, failure reason)."""
    code, text, seconds = call(cli, op.argv(work))
    if code != 0:
        return None, seconds, len(text), f"exit code {code}"
    report = json.loads(text.splitlines()[0])
    printed = len(text)
    if "witness" in report["result"]:
        path = work / "report.json"
        path.write_text(text)
        code, text, verify_s = call(cli, ["verify-witness", str(path)])
        seconds += verify_s
        printed += len(text)
        if code != 0 or not json.loads(text.splitlines()[0])["result"]["valid"]:
            return None, seconds, printed, "verify-witness rejected the report"
    return report, seconds, printed, ""


def summarize(times: list[float]) -> dict[str, float]:
    ordered = sorted(times)
    return {
        "queries_per_s": len(times) / sum(times),
        "query_s.p50": statistics.median(times),
        "query_s.tail": ordered[max(0, len(ordered) - TAIL_BEYOND - 1)],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.ROUNDS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "dynrat" / "__init__.py").is_file():
        print(f"no dynrat sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))

    ops, files = workloads.build(args.workload, args.seed, args.seconds)
    out_dir = HERE / "out"
    work = out_dir / f"work-{args.workload}-{os.getpid()}"
    try:
        return measure(args, ops, files, out_dir, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def measure(args, ops, files, out_dir: Path, work: Path) -> int:
    setup_cal = [calibrate.measure()]
    setup_raw = []
    for _ in range(SETUP_REPEATS):
        setup_raw.append(setup_once(work, files))
        setup_cal.append(calibrate.measure())
    setup_factors = calibrate.local_factors(setup_cal)
    setup_s = statistics.median(t * f for t, f in zip(setup_raw, setup_factors))

    cli = importlib.import_module("dynrat.cli")
    if not Path(cli.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"dynrat imported from {cli.__file__}, not from this checkout", file=sys.stderr)
        return 2
    tracer = None
    if args.trace:
        from tracing import Tracer
        tracer = Tracer()
        tracer.install()

    cal, raw, reports, failed, printed = [], [], [], 0, 0
    for i, op in enumerate(ops):
        cal.append(calibrate.measure())
        if tracer:
            tracer.op = i
        try:
            report, seconds, nbytes, reason = run_op(cli, op, work)
        except Exception:  # one broken query must not hide the others
            traceback.print_exc()
            report, seconds, nbytes, reason = None, 0.0, 0, "exception"
        printed += nbytes
        reports.append(report)
        raw.append(seconds)
        if report is None:
            failed += 1
            print(f"failed: {op.case} {op.command}: {reason}", file=sys.stderr)
    cal.append(calibrate.measure())
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    import checker  # only now, so that SciPy does not count in peak_rss_mb
    errors = checker.check_all(ops, reports)
    for e in errors[:20]:
        print(f"incorrect: {e}", file=sys.stderr)

    factors = calibrate.local_factors(cal)
    ok = [i for i, r in enumerate(reports) if r is not None]
    if not ok:
        print("no operation completed", file=sys.stderr)
        return 1
    ref = [raw[i] * factors[i] for i in ok]
    wall = [raw[i] for i in ok]
    run_factor = calibrate.NOMINAL_S / statistics.median(cal)
    percentile = 100.0 * (len(ok) - TAIL_BEYOND - 1) / (len(ok) - 1)
    print(json.dumps({
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "ops": len(ops), "tail_percentile": round(percentile, 1),
        "calibration_median_s": statistics.median(cal), "run_factor": run_factor,
        "ops_wall_s": sum(raw), "setup_wall_s": statistics.median(setup_raw),
        "raw": summarize(wall), "calibrated": summarize(ref),
    }), file=sys.stderr)

    if tracer:
        out_dir.mkdir(parents=True, exist_ok=True)
        tracer.write(out_dir / f"trace-{args.workload}-seed{args.seed}.json")
        if tracer.absent:
            print(f"absent from this dynrat: {', '.join(tracer.absent)}", file=sys.stderr)
        values = tracer.metrics(run_factor)
        values["cli.report_bytes"] = printed
        metrics = {k: {"value": v, "unit": per_layer_unit(k)} for k, v in values.items()}
    else:
        values = {**summarize(ref), "setup_s": setup_s, "peak_rss_mb": peak_rss_mb}
        metrics = {k: {"value": values[k], "unit": u} for k, u in END_TO_END_UNITS.items()}

    print(json.dumps({"correct": not errors, "attempted": len(ops), "failed": failed,
                      "metrics": metrics}))
    return 0 if not errors else 1


if __name__ == "__main__":
    sys.exit(main())
