"""Write the problem files of the faults the workloads leave out, and print
the dynrat command that shows each one.

    python3 bench/found.py size-guard | slow-maxprob | slow-check-seq

* size-guard: a complete tree with 2 periods, 4 actions and 2 states (16
  leaves, about 1.1e12 adapted pure rules); ``check-seq`` exits 3.
* slow-maxprob: a complete tree with 3 periods and 2 actions (8 leaves,
  16 384 rules); ``maxprob`` does not finish in 90 s.
* slow-check-seq: a 5-leaf, 3-state tree drawn from seed
  ``"slow-check-seq:6"`` (455 rules, 407 obedience rows kept); ``check-seq``
  on leaf b,c takes about 35 s.
"""

from __future__ import annotations

import os
import random
import sys
from pathlib import Path

import workloads as w

OUT = Path(__file__).resolve().parent / "out"


def build(case: str) -> tuple[w.Problem, list[str]]:
    if case == "size-guard":
        rng = random.Random("size-guard")
        tmpl = w.make_template(rng, w.complete_tree((4, 4)), 2, 2)
        return tmpl.draw(rng), ["check-seq", "--seq", "a,b"]
    if case == "slow-maxprob":
        rng = random.Random("slow-maxprob")
        tmpl = w.make_template(rng, w.complete_tree((2, 2, 2)), 3, 2)
        return tmpl.draw(rng), ["maxprob", "--seq", "a,a,b"]
    if case == "slow-check-seq":
        rng = random.Random("slow-check-seq:6")
        tree = w.random_tree(rng, 2, (2, 3))
        tmpl = w.make_template(rng, tree, 2, 3)
        problem = tmpl.draw(random.Random(0))
        return problem, ["check-seq", "--seq", "b,c"]
    raise SystemExit(f"unknown case {case!r}; see the module docstring")


def main() -> None:
    if len(sys.argv) != 2:
        raise SystemExit(__doc__)
    problem, query = build(sys.argv[1])
    OUT.mkdir(exist_ok=True)
    path = OUT / f"found-{sys.argv[1]}.json"
    w.write_problem(path, problem)
    print(f"rules={w.count_pure_rules(problem)} leaves={len(problem.leaves)}")
    print("PYTHONPATH=src python3 -c 'import sys; from dynrat.cli import run; "
          f"sys.exit(run(sys.argv[1:]))' {query[0]} {os.path.relpath(path)} {' '.join(query[1:])}")


if __name__ == "__main__":
    main()
