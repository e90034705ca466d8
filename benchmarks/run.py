"""spinflip benchmark: end-to-end and per-layer metrics for three workloads.

    python3 benchmarks/run.py --workload three-qubit-mix --seed 1805 --seconds 35 --trace 0
    python3 benchmarks/run.py --workload all

Run from anywhere inside a checkout; the package is imported from its
`src/` directory (it need not be installed). `--trace 0` measures the
end-to-end metrics with no tracer installed; `--trace 1` makes a stage run,
then runs each cycle of operations twice, untraced and traced, and reports
the per-layer metrics. Every operation's output is checked; the last line
of stdout is one JSON object with `correct`, `attempted`, `failed` and
`metrics`. Operations run closed loop, one client, one at a time. With
`--workload all` the three workloads run in turn and the metric names in
the last line carry a `<workload>/` prefix.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
WORKLOADS = ("three-qubit-mix", "n14-invariants", "cli-reports")
DEFAULT_SEED = 1805

# setup_s is the median over this many fresh processes
SETUP_PROBES = 7
IMPORT_PROBES = 5
# p90 needs at least ten samples above it
MIN_SAMPLES = 100
# shares of --seconds in a traced run
STAGE_SHARE = 0.15
PASSES_SHARE = 0.6
PROBE_TIMEOUT_S = 60


def _fail(message: str) -> int:
    print(f"benchmark: {message}", file=sys.stderr)
    return 2


def set_up(name: str, seed: int, workdir: Path, in_process: bool = False):
    """Import the package, build the seeded inputs and warm up."""
    import workloads

    wl = workloads.build(name, seed, workdir, SRC, in_process)
    # one cycle; one process start when each operation is a CLI process
    one_process = name == "cli-reports" and not in_process
    for op in wl.cycles[0][:1] if one_process else wl.cycles[0]:
        op.run()
    return wl


def setup_probe(args) -> int:
    start = time.perf_counter()
    with tempfile.TemporaryDirectory(prefix=".bench-work-", dir=ROOT) as tmp:
        set_up(args.workload, args.seed, Path(tmp))
        print(f"setup_s {time.perf_counter() - start!r}")
    return 0


def _probe(cmd: list[str], env=None) -> float:
    """Run a probe process; its last stdout line ends with a float."""
    out = subprocess.run(cmd, capture_output=True, text=True, env=env, timeout=PROBE_TIMEOUT_S,
                         check=True)
    return float(out.stdout.split()[-1])


def setup_seconds(args) -> list[float]:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-probe"]
    return [_probe(cmd) for _ in range(SETUP_PROBES)]


def import_ms() -> list[float]:
    """Fresh-interpreter import time of the CLI module."""
    import workloads

    code = ("import time; t = time.perf_counter(); import spinflip.cli; "
            "print(time.perf_counter() - t)")
    env = workloads.cli_env(SRC)
    return [1e3 * _probe([sys.executable, "-c", code], env) for _ in range(IMPORT_PROBES)]


def run_cycle(ops, tracer=None) -> tuple[list[int], list[str]]:
    """Run each operation once; time only the call into the program, then
    check its output. The tracer, if any, records only during the call."""
    durations, failures = [], []
    for op in ops:
        if tracer:
            tracer.enabled = True
        start = time.perf_counter_ns()
        try:
            result, error = op.run(), None
        except Exception as exc:
            result, error = None, f"{type(exc).__name__}: {exc}"
        durations.append(time.perf_counter_ns() - start)
        if tracer:
            tracer.enabled = False
        if error is None:
            try:
                error = op.check(result)
            except Exception as exc:
                error = f"check raised {type(exc).__name__}: {exc}"
        if error:
            failures.append(f"{op.label}: {error}")
    return durations, failures


def measure(wl, seconds: float, min_samples: int):
    """Closed loop over whole cycles until `seconds` have passed and
    `min_samples` operations are done."""
    durations, failures = [], []
    done = 0
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline or len(durations) < min_samples:
        d, f = run_cycle(wl.cycles[done % len(wl.cycles)])
        durations += d
        failures += f
        done += 1
    return durations, failures


def _blas_threads() -> int | None:
    """Thread count of the OpenBLAS that numpy loaded, if it is one."""
    try:
        with open("/proc/self/maps") as maps:
            paths = {line.split()[-1] for line in maps if "openblas" in line.lower()}
    except OSError:
        return None
    for path in paths:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo") as info:
            for line in info:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def environment(args) -> dict:
    import numpy as np

    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": _cpu_model(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def end_to_end(args, workdir: Path):
    setups = setup_seconds(args)
    wl = set_up(args.workload, args.seed, workdir)
    durations, failures = measure(wl, args.seconds, MIN_SAMPLES)
    ms = [d / 1e6 for d in durations]
    q = statistics.quantiles(ms, n=100)
    n = len(ms)
    metrics = {
        "setup_s": (statistics.median(setups), "s", len(setups)),
        "ops_per_s": (n / (sum(ms) / 1e3), "1/s", n),
        "op_ms_p50": (q[49], "ms", n),
        "op_ms_p90": (q[89], "ms", n),
        "ok_frac": (1.0 - len(failures) / n, "frac", n),
        "peak_rss_mb": (wl.peak_rss_mb(), "MB", 1),
    }
    above = sum(x > q[89] for x in ms)
    notes = [f"failed_frac {len(failures) / n!r} ({len(failures)} of {n})",
             f"samples above p90: {above}"]
    return metrics, n, failures, notes


def per_layer(args, workdir: Path):
    import stages
    from tracer import SPAN_NAMES, Tracer

    wl = set_up(args.workload, args.seed, workdir, in_process=True)
    items = wl.stage_items()
    stage_us = stages.stage_run(items, STAGE_SHARE * args.seconds)
    imports = import_ms()
    # each cycle runs twice, untraced and with the tracer installed, in
    # alternating order, so slow phases of the machine and warm caches fall
    # on both sides of the overhead
    tracer = Tracer()
    plain, traced, failures = [], [], []
    cycles = 0
    deadline = time.perf_counter() + PASSES_SHARE * args.seconds
    while not cycles or time.perf_counter() < deadline:
        ops = wl.cycles[cycles % len(wl.cycles)]
        for with_tracer in (False, True) if cycles % 2 else (True, False):
            if with_tracer:
                tracer.install()
            try:
                d, f = run_cycle(ops, tracer if with_tracer else None)
            finally:
                tracer.uninstall()
            (traced if with_tracer else plain).extend(d)
            failures += f
        cycles += 1
    ops = len(traced)
    metrics = {}
    for span in SPAN_NAMES:
        metrics[f"{span}.calls_per_op"] = (tracer.calls[span] / ops, "count", ops)
        metrics[f"{span}.self_ms_per_op"] = (tracer.self_ns[span] / 1e6 / ops, "ms", ops)
    for span, flops in tracer.flops.items():
        metrics[f"{span}.mflop_per_op"] = (flops / 1e6 / ops, "Mflop", ops)
    metrics["cli.import_ms"] = (statistics.median(imports), "ms", len(imports))
    for name, us in stage_us.items():
        metrics[f"stage.{name}.us_per_item"] = (us, "us", len(items))
    overhead = (sum(traced) - sum(plain)) / 1e6 / ops
    metrics["trace.overhead_ms_per_op"] = (overhead, "ms", ops)
    notes = [f"untraced and traced passes: {cycles} cycles, {ops} operations each"]
    return metrics, len(plain) + ops, failures, notes


def _print_block(metrics: dict, notes: list, failures: list, env: dict) -> None:
    for name, (value, unit, samples) in metrics.items():
        print(f"{name:44s} {value:14.6g} {unit:6s} samples={samples}")
    for note in notes:
        print(note)
    for failure in failures[:20]:
        print(f"FAILED {failure}")
    print(json.dumps({"environment": env}))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), required=True,
                        help="one workload, or all three in turn")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "spinflip" / "__init__.py").is_file():
        return _fail(f"no spinflip package under {SRC}")
    sys.path.insert(0, str(SRC))
    if args.setup_probe:
        return setup_probe(args)

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    result = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        one = argparse.Namespace(**{**vars(args), "workload": name})
        with tempfile.TemporaryDirectory(prefix=".bench-work-", dir=ROOT) as tmp:
            run = per_layer if args.trace else end_to_end
            metrics, attempted, failures, notes = run(one, Path(tmp))
        if len(names) > 1:
            print(f"== {name}")
        _print_block(metrics, notes, failures, environment(one))
        result["correct"] = result["correct"] and not failures
        result["attempted"] += attempted
        result["failed"] += len(failures)
        prefix = f"{name}/" if len(names) > 1 else ""
        result["metrics"].update({f"{prefix}{key}": {"value": value, "unit": unit}
                                  for key, (value, unit, _) in metrics.items()})
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
