"""The code that finds a verdict never reaches the code that re-checks it.

`dynrat.oracle` re-derives answers without the decision procedures, so the
modules that decide (`deviation`, which holds the joint backward induction,
and `rationalize`) must not import it, directly or through another module of
the package.  Nor may the oracle reach `rationalize` or the LP solver `lp`:
it takes a certificate as data and re-checks it without the programs that
found it.
The scan reads the source, so a lazy import inside a function counts too.
"""

from __future__ import annotations

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "dynrat"


def package_imports(module: str) -> set[str]:
    """The `dynrat` modules that ``module`` names in any import statement."""
    found = set()
    for node in ast.walk(ast.parse((PACKAGE / f"{module}.py").read_text())):
        if isinstance(node, ast.Import):
            found.update(a.name.split(".")[1] for a in node.names
                         if a.name.startswith("dynrat."))
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level == 0:
                if module.split(".")[0] != "dynrat":
                    continue
                module = module[len("dynrat."):]
            # `from . import x` and `from dynrat import x` name modules
            if module:
                found.add(module.split(".")[0])
            else:
                found.update(a.name for a in node.names)
    return {name for name in found if (PACKAGE / f"{name}.py").exists()}


def reachable(module: str) -> set[str]:
    seen, stack = set(), [module]
    while stack:
        for name in package_imports(stack.pop()):
            if name not in seen:
                seen.add(name)
                stack.append(name)
    return seen


def test_scan_sees_the_known_imports():
    assert {"deviation", "model"} <= package_imports("oracle")
    assert {"lp", "deviation", "model"} <= package_imports("rationalize")


def test_deciding_modules_never_import_the_oracle():
    for module in ("deviation", "rationalize"):
        assert "oracle" not in reachable(module), module


def test_the_oracle_reaches_neither_rationalize_nor_lp():
    assert {"rationalize", "lp"}.isdisjoint(reachable("oracle"))
    # the scan follows imports through other modules: `analysis` reaches
    # `lp` only through `rationalize`
    assert "lp" not in package_imports("analysis") and "lp" in reachable("analysis")
