"""The code that finds a verdict never reaches the code that re-checks it,
and a query loads only the code that queries run.

`dynrat.oracle` re-derives answers without the decision procedures, so the
modules that decide (`deviation`, which holds the joint backward induction,
and `rationalize`) must not import it, directly or through another module of
the package.  Nor may the oracle reach `rationalize` or the LP solver `lp`:
it takes a certificate as data and re-checks it without the programs that
found it.
The scan reads the source, so a lazy import inside a function counts too.
A second scan reads only the imports at module level, the ones that run
when a module is loaded: no module that the CLI loads may reach
`structures` (the sampler) or `risk` (the payoff transforms)."""

from __future__ import annotations

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "dynrat"


def package_imports(module: str, at_load: bool = False) -> set[str]:
    """The `dynrat` modules that ``module`` names in any import statement,
    or, ``at_load``, in one at module level."""
    tree = ast.parse((PACKAGE / f"{module}.py").read_text())
    found = set()
    for node in tree.body if at_load else ast.walk(tree):
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


def reachable(module: str, at_load: bool = False) -> set[str]:
    seen, stack = set(), [module]
    while stack:
        for name in package_imports(stack.pop(), at_load):
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


def test_a_query_loads_neither_the_sampler_nor_the_transforms():
    # the package and the CLI load these modules, and whatever they import
    # at module level; `dynrat` resolves the names of the other two on
    # first access, and the CLI imports `structures` in `simulate` alone
    loaded = {"__init__", "cli"} | reachable("__init__", True) | reachable("cli", True)
    assert {"analysis", "deviation", "lp", "model", "oracle", "rationalize"} <= loaded
    for module in loaded:
        assert {"structures", "risk"}.isdisjoint(reachable(module, True)), module
    assert "structures" in package_imports("cli") and "structures" not in package_imports(
        "cli", at_load=True)


def test_the_oracle_never_imports_the_structures_built_on_it():
    assert "structures" not in reachable("oracle")
    assert "oracle" in package_imports("structures", at_load=True)
