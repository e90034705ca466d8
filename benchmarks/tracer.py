"""Per-layer tracer: wraps named program functions from outside the program.

Each traced name is replaced, in every `spinflip` module namespace that
binds it, by a wrapper that counts calls and accumulates self time (span
duration minus the time covered by traced child spans). The `kernel`
layer wraps `numpy.linalg.svd` and `numpy.linalg.det`, which the program
reaches through the `numpy.linalg` attribute, and adds a computed flop
count per call. Nothing under `src/` is modified; `uninstall` restores
every original binding.
"""

from __future__ import annotations

import functools
import importlib
import math
import sys
import time

import numpy as np

TRACED = {
    "states": ("parse_state", "serialize_state", "apply_local"),
    "coeffmat": ("coeff_matrix", "local_rank"),
    "flip": ("omega", "omega_power_sequence"),
    "invariants": ("_partition_invariants", "concurrence_even", "odd_invariants",
                   "three_qubit_S"),
    "classify": ("classify_three", "family_label", "classify_acin", "lu_compare",
                 "slocc_compare"),
    "cli": ("main", "_emit_json"),
}
KERNELS = ("svd", "det")

SPAN_NAMES = [f"{layer}.{fn}" for layer, fns in TRACED.items() for fn in fns] + [
    f"kernel.{k}" for k in KERNELS]


def _dims(a) -> tuple[int, int, int, bool]:
    """(batch, rows, cols, is_complex) of a matrix or stack of matrices."""
    arr = np.asarray(a)
    batch = math.prod(arr.shape[:-2]) if arr.ndim > 2 else 1
    return batch, arr.shape[-2], arr.shape[-1], np.iscomplexobj(arr)


def svd_flops(a, full_matrices=True, compute_uv=True, hermitian=False) -> float:
    """Computed (not measured) flops of one SVD call: the Golub-Van Loan
    counts for bidiagonalisation, plus forming U and V when requested;
    a complex flop is counted as four real ones."""
    batch, m, n, cplx = _dims(a)
    big, small = max(m, n), min(m, n)
    if compute_uv:
        real = 4 * big * big * small + 8 * big * small * small + 9 * small**3
    else:
        real = 4 * big * small * small - 4 * small**3 / 3
    return batch * real * (4 if cplx else 1)


def det_flops(a) -> float:
    """Computed flops of one determinant: LU factorisation, 2n^3/3."""
    batch, n, _, cplx = _dims(a)
    return batch * 2 * n**3 / 3 * (4 if cplx else 1)


FLOPS = {"svd": svd_flops, "det": det_flops}


class Tracer:
    def __init__(self):
        self.calls = dict.fromkeys(SPAN_NAMES, 0)
        self.self_ns = dict.fromkeys(SPAN_NAMES, 0)
        self.flops = {f"kernel.{k}": 0.0 for k in KERNELS}
        self.enabled = False
        self._children: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def _wrap(self, span: str, fn, flops=None):
        calls, self_ns, children = self.calls, self.self_ns, self._children
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            if flops is not None:
                self.flops[span] += flops(*args, **kwargs)
            children.append(0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = clock() - start
                self_ns[span] += duration - children.pop()
                calls[span] += 1
                if children:
                    children[-1] += duration
        return wrapper

    def install(self) -> None:
        homes = {layer: importlib.import_module(f"spinflip.{layer}") for layer in TRACED}
        modules = [m for name, m in sys.modules.items()
                   if name == "spinflip" or name.startswith("spinflip.")]
        for layer, fns in TRACED.items():
            home = homes[layer]
            for fn in fns:
                original = getattr(home, fn)
                wrapper = self._wrap(f"{layer}.{fn}", original)
                for module in modules:
                    if getattr(module, fn, None) is original:
                        self._patch(module, fn, wrapper)
        for k in KERNELS:
            original = getattr(np.linalg, k)
            self._patch(np.linalg, k, self._wrap(f"kernel.{k}", original, FLOPS[k]))

    def _patch(self, owner, attr: str, value) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)
