"""The library's module layering, read from its source.

The modules form one order: errors, states, coeffmat, flip, invariants,
classify, cli. Each imports only earlier ones, so `flip` builds Omega and
applies no rank rule, and every spectrum and every threshold on one sits
in `invariants`, beside the rule `_rank`. One function-level import crosses
the order: the one-state wrapper `coeffmat.local_rank` reaches
`invariants._local_ranks`.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"
PACKAGE = SRC / "spinflip"
ORDER = ("errors", "states", "coeffmat", "flip", "invariants", "classify", "cli")
# (importing module, enclosing function, imported module, imported name)
UPWARD_ALLOWED = {("coeffmat", "local_rank", "invariants", "_local_ranks")}


def _tree(module):
    return ast.parse((PACKAGE / f"{module}.py").read_text())


def _imports(module):
    """(module, enclosing top-level function or None, imported spinflip
    module, imported name) for each import of a spinflip module in
    src/spinflip/<module>.py; the package itself reads as ''."""
    found = []

    def visit(node, function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, function or child.name)
                continue
            if isinstance(child, ast.ImportFrom) and child.level:
                for alias in child.names:
                    target = child.module or (alias.name if alias.name in ORDER else "")
                    found.append((module, function, target, alias.name))
            elif isinstance(child, ast.ImportFrom) and (child.module or "").startswith("spinflip"):
                target = child.module.partition(".")[2]
                found.extend((module, function, target, alias.name) for alias in child.names)
            elif isinstance(child, ast.Import):
                found.extend((module, function, alias.name.partition(".")[2], alias.name)
                             for alias in child.names if alias.name.startswith("spinflip"))
            visit(child, function)

    visit(_tree(module), None)
    return found


def test_order_names_every_module():
    assert {p.stem for p in PACKAGE.glob("*.py")} == set(ORDER) | {"__init__"}


def test_no_module_imports_a_later_one():
    upward = {entry for module in ORDER for entry in _imports(module)
              if entry[2] in ORDER and ORDER.index(entry[2]) >= ORDER.index(module)}
    assert upward <= UPWARD_ALLOWED


def test_the_only_function_level_import_is_local_rank_s():
    nested = set()
    for module in ORDER + ("__init__",):
        for function in ast.walk(_tree(module)):
            if isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef)):
                nested.update((module, function.name, ast.unparse(node))
                              for node in ast.walk(function)
                              if isinstance(node, (ast.Import, ast.ImportFrom)))
    assert nested <= {("coeffmat", "local_rank", "from .invariants import _local_ranks")}


def _callers(name):
    """The modules that call a function of this name, bare or as an attribute."""
    callers = set()
    for module in ORDER:
        for node in ast.walk(_tree(module)):
            if isinstance(node, ast.Call):
                func = node.func
                called = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                if called == name:
                    callers.add(module)
    return callers


def test_the_rank_rule_is_applied_only_in_invariants():
    assert _callers("_rank") == {"invariants"}


@pytest.mark.parametrize("name", ["_spectra", "_noise_floors", "singular_values"])
def test_spectra_are_read_only_in_invariants(name):
    # classify turns invariants' decisions into labels and verdicts; it
    # takes no spectrum and sets no threshold of its own
    assert _callers(name) == {"invariants"}


def test_cli_imports_nothing_third_party_beyond_numpy():
    # every start of a CLI process pays this import, so it stays at numpy,
    # the standard library and spinflip's own modules
    code = ("import sys; import numpy; before = set(sys.modules); import spinflip.cli; "
            "print('\\n'.join(sorted(set(sys.modules) - before)))")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True, timeout=120).stdout.split()
    assert "spinflip.cli" in out
    foreign = [name for name in out if name.partition(".")[0] != "spinflip"
               and name.partition(".")[0] not in sys.stdlib_module_names]
    assert foreign == []
