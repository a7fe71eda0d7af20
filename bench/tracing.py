"""Per-layer spans recorded from outside the program.

`Tracer.install` replaces selected public functions of dynrat's modules with
wrappers, patching the name in every dynrat module that holds the same
function object (``from .rationalize import truly_dominated`` included).  A
wrapper records a span (key, parent, start, end, attributes) in memory; the
spans are written out once, at the end of the run.  A call nested directly in
a span of the same key is not recorded again, so ``load_problem`` calling
``problem_from_dict`` counts once.  A name that the program no longer has is
listed as absent and its metrics read zero.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from pathlib import Path

# span key -> (module, public function names)
TARGETS = {
    "model.load": ("model", ["load_problem", "problem_from_dict"]),
    "model.instantiate": ("model", ["instantiate", "substitute_params"]),
    "deviation.enumerate": ("deviation", ["enumerate_pure_rules"]),
    "deviation.dominates": ("deviation", ["dominates_sequence", "dominates_joint",
                                          "dominates_marginal"]),
    "lp.solve": ("lp", ["solve"]),
    "lp.polytope": ("lp", ["deviation_polytope_constraints"]),
    "rationalize.dominance": ("rationalize", ["apparently_dominated", "truly_dominated",
                                              "dominated_on_average",
                                              "intermediately_dominated"]),
    "rationalize.obedience": ("rationalize", ["max_positive_marginal",
                                              "rationalizing_joint"]),
    "analysis.identify": ("analysis", ["identified_set"]),
    "oracle.verify": ("oracle", ["verify_obedient_optimality"]),
    "cli.run": ("cli", ["run"]),
}

VERDICT_COMMANDS = {"check-seq", "check-joint", "check-marginal"}


class Tracer:
    def __init__(self) -> None:
        # span: [id, parent id, key, start, end, op index, attributes]
        self.spans: list[list] = []
        self.stack: list[list] = []
        self.absent: list[str] = []
        self.op = -1

    def install(self) -> None:
        for key, (module_name, names) in TARGETS.items():
            module = sys.modules.get(f"dynrat.{module_name}")
            for name in names:
                original = getattr(module, name, None) if module else None
                if original is None:
                    self.absent.append(f"{module_name}.{name}")
                    continue
                wrapper = self._wrap(key, original)
                for mod_name, mod in list(sys.modules.items()):
                    if mod is None or not (mod_name == "dynrat" or mod_name.startswith("dynrat.")):
                        continue
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapper)

    def _wrap(self, key: str, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.stack and tracer.stack[-1][2] == key:
                return fn(*args, **kwargs)
            parent = tracer.stack[-1][0] if tracer.stack else None
            span = [len(tracer.spans), parent, key, time.perf_counter(), None, tracer.op, {}]
            tracer.spans.append(span)
            tracer.stack.append(span)
            try:
                result = fn(*args, **kwargs)
                _annotate(key, span[6], args, kwargs, result)
                return result
            finally:
                span[4] = time.perf_counter()
                tracer.stack.pop()

        return wrapper

    def write(self, path: Path) -> None:
        path.write_text(json.dumps({
            "absent": self.absent,
            "fields": ["id", "parent", "key", "start", "end", "op", "attrs"],
            "spans": self.spans,
        }))

    def metrics(self, factor: float) -> dict[str, float]:
        """Per-layer metrics; times are scaled to reference seconds by ``factor``."""
        by_id = {s[0]: s for s in self.spans}

        def ancestors(span):
            while span[1] is not None:
                span = by_id[span[1]]
                yield span

        total: dict[str, float] = {}
        own: dict[str, float] = {}
        calls: dict[str, int] = {}
        for s in self.spans:
            took = s[4] - s[3]
            total[s[2]] = total.get(s[2], 0.0) + took
            own[s[2]] = own.get(s[2], 0.0) + took
            calls[s[2]] = calls.get(s[2], 0) + 1
            if s[1] is not None:
                parent = by_id[s[1]][2]
                own[parent] = own.get(parent, 0.0) - took

        def inside(span, key) -> bool:
            return any(a[2] == key for a in ancestors(span))

        solves = [s for s in self.spans if s[2] == "lp.solve"]
        pivots = sum(s[6].get("pivots", 0) for s in solves)
        rules = sum(s[6].get("rules", 0) for s in self.spans if s[2] == "deviation.enumerate")
        obedience_rows = sum(s[6].get("rows", 0) for s in solves
                             if inside(s, "rationalize.obedience"))
        verdicts = [s for s in self.spans
                    if s[2] == "cli.run" and s[6].get("command") in VERDICT_COMMANDS]
        verdict_ids = {s[0] for s in verdicts}
        verdict_solves = sum(1 for s in solves
                             if any(a[0] in verdict_ids for a in ancestors(s)))
        identify_pivots = sum(s[6].get("pivots", 0) for s in solves
                              if inside(s, "analysis.identify"))
        point_tests = sum(1 for s in self.spans if s[2] == "rationalize.dominance"
                          and inside(s, "analysis.identify"))
        identify_calls = calls.get("analysis.identify", 0)

        def t(key, table=total):
            return table.get(key, 0.0) * factor

        return {
            "model.load_s": t("model.load"),
            "model.instantiate_s": t("model.instantiate"),
            "model.instantiate_calls": calls.get("model.instantiate", 0),
            "deviation.enumerate_s": t("deviation.enumerate"),
            "deviation.enumerate_calls": calls.get("deviation.enumerate", 0),
            "deviation.rules_enumerated": rules,
            "deviation.dominates_s": t("deviation.dominates"),
            "lp.solve_s": t("lp.solve"),
            "lp.solves": len(solves),
            "lp.pivots": pivots,
            "lp.rows.max": max((s[6].get("rows", 0) for s in solves), default=0),
            "lp.cols.max": max((s[6].get("cols", 0) for s in solves), default=0),
            "lp.cells": sum(s[6].get("rows", 0) * s[6].get("cols", 0) for s in solves),
            "lp.s_per_pivot": t("lp.solve") / pivots if pivots else 0.0,
            "lp.polytope_s": t("lp.polytope"),
            "rationalize.dominance_s": t("rationalize.dominance", own),
            "rationalize.obedience_s": t("rationalize.obedience", own),
            "rationalize.obedience_rows": obedience_rows,
            "rationalize.rows_per_rule": obedience_rows / rules if rules else 0.0,
            "rationalize.solves_per_verdict":
                verdict_solves / len(verdicts) if verdicts else 0.0,
            "analysis.identify_s": t("analysis.identify", own),
            "analysis.point_tests": point_tests,
            "analysis.pivots_per_query":
                identify_pivots / identify_calls if identify_calls else 0.0,
            "oracle.verify_s": t("oracle.verify"),
            "oracle.verify_calls": calls.get("oracle.verify", 0),
            "cli.self_s": t("cli.run", own),
        }


def _annotate(key: str, attrs: dict, args, kwargs, result) -> None:
    """Counts read from a call's arguments and result, where they exist."""
    if key == "lp.solve" and args:
        program = args[0]
        attrs["rows"] = len(getattr(program, "constraints", ()))
        attrs["cols"] = len(getattr(program, "variables", ()))
        attrs["pivots"] = getattr(result, "pivots", 0)
    elif key == "deviation.enumerate":
        try:
            attrs["rules"] = len(result)
        except TypeError:
            pass
    elif key == "cli.run":
        argv = args[0] if args else kwargs.get("argv")
        if argv:
            attrs["command"] = argv[0]
