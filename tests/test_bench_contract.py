"""The benchmark's binding to the program: every name it reaches must exist.

`benchmarks/tracer.py` wraps program functions by name and
`benchmarks/stages.py` and `benchmarks/workloads.py` call them by name, so a
rename in `src/` would break `benchmarks/run.py` (its `--trace 1` run
first). The benchmark files are loaded by path and never edited here.
"""

import ast
import importlib
import importlib.util
from pathlib import Path

import numpy as np
import pytest

import spinflip
from spinflip import QubitPartition, standard_state

BENCH = Path(__file__).resolve().parents[1] / "benchmarks"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"_bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _spinflip_names(path):
    """(module, name) for each `spinflip[.mod].name` attribute read and each
    `from spinflip[.mod] import name` in a benchmark file."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("spinflip"):
            found.update((node.module, alias.name) for alias in node.names)
        elif isinstance(node, ast.Attribute):
            chain, value = [node.attr], node.value
            while isinstance(value, ast.Attribute):
                chain.append(value.attr)
                value = value.value
            if isinstance(value, ast.Name) and value.id == "spinflip":
                *mods, name = ["spinflip"] + chain[::-1]
                found.add((".".join(mods), name))
    return found


def test_traced_names_resolve():
    tracer = _load("tracer")
    for layer, names in tracer.TRACED.items():
        module = importlib.import_module(f"spinflip.{layer}")
        for name in names:
            assert callable(getattr(module, name, None)), f"spinflip.{layer}.{name}"
    for kernel in tracer.KERNELS:
        assert callable(getattr(np.linalg, kernel))


@pytest.mark.parametrize("name", ["stages", "workloads"])
def test_called_names_resolve(name):
    names = _spinflip_names(BENCH / f"{name}.py")
    assert names
    for module_name, attr in names:
        module = importlib.import_module(module_name)
        # a read of a submodule (spinflip.cli) resolves as an attribute too
        assert hasattr(module, attr), f"{module_name}.{attr} used by {name}.py"


def test_stage_run_makes_one_pass():
    stages = _load("stages")
    items = [(standard_state("ghz", 3), QubitPartition((1, 2), 3))]
    got = stages.stage_run(items, 0.0)
    assert set(got) == set(stages.STAGES)


def test_tracer_counts_and_restores():
    tracer_module = _load("tracer")
    originals = (spinflip.classify.classify_three, np.linalg.svd)
    tracer = tracer_module.Tracer()
    tracer.install()
    try:
        tracer.enabled = True
        for _ in range(2):
            assert spinflip.classify_three(standard_state("w", 3)).label == "W"
        # |det| comes from the singular values, so the program makes no det
        # call; a direct one keeps the det wrapper covered
        assert tracer.calls["kernel.det"] == 0
        np.linalg.det(np.eye(2))
        # classify_three reaches _partition_invariants but not omega; direct
        # calls keep both wrappers covered
        assert tracer.calls["flip.omega"] == 0
        assert tracer.calls["invariants._partition_invariants"] == 2
        spinflip.omega(standard_state("w", 3), QubitPartition((1, 2), 3))
        spinflip.invariant_profile(standard_state("w", 3))
        tracer.enabled = False
    finally:
        tracer.uninstall()
    assert (spinflip.classify.classify_three, np.linalg.svd) == originals
    assert tracer.calls["classify.classify_three"] == 2
    assert tracer.calls["invariants._partition_invariants"] == 3
    assert tracer.calls["flip.omega"] == 1
    assert tracer.calls["kernel.svd"] == 5
    assert tracer.calls["kernel.det"] == 1
