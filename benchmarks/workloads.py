"""Seeded inputs, operation cycles and output checks for the three workloads.

A workload is built from a seed and exposes `cycles`: a list of operation
cycles. Every cycle has the same structure (the same functions on inputs
of the same classes and sizes); only the seeded numbers differ, so the
call counts the tracer sees per operation do not depend on the seed.

Each operation is an `Op`: `run()` makes one call into the program and
`check(result)` returns None when the output is right, else the reason it
is wrong. An exception raised by `run()` is a failure too.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import subprocess
import sys
import threading
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import spinflip
from spinflip import PureState, QubitPartition

CLASSES = ("GHZ", "W", "A-BC", "B-AC", "C-AB", "A-B-C")

# rank triple of the rows {1,2} matrix for each three-qubit class
TRIPLES = {
    "GHZ": (2, 2, 2),
    "W": (2, 1, 0),
    "A-BC": (2, 0, 0),
    "B-AC": (2, 0, 0),
    "C-AB": (0, 0, 0),
    "A-B-C": (0, 0, 0),
}

# canonical-form branch -> class; weight patterns of `acin_form` below
ACIN_BRANCH_CLASS = (
    "GHZ", "W", "W", "B-AC", "C-AB", "A-B-C", "A-BC", "A-BC", "A-B-C", "A-B-C",
)

# agreement between two routes to one real number
CROSS_ATOL = 1e-12
CROSS_RTOL = 1e-9
# family values of LU-equivalent states, at the library's compare tolerance
FAMILY_ATOL = 1e-9

CLI_TIMEOUT_S = 60


@dataclass
class Op:
    label: str
    run: Callable[[], object]
    check: Callable[[object], str | None]


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= CROSS_ATOL + CROSS_RTOL * max(abs(a), abs(b))


def _seeds(rng: np.random.Generator, count: int) -> list[int]:
    return [int(s) for s in rng.integers(0, 2**32, size=count)]


def _bisep3(indices) -> PureState:
    amps = np.zeros(8, dtype=complex)
    for i in indices:
        amps[i] = 2**-0.5
    return PureState(3, amps)


def class_seeds() -> dict[str, PureState]:
    """One representative per three-qubit SLOCC class (as in tests/helpers.py)."""
    return {
        "GHZ": spinflip.standard_state("ghz", 3),
        "W": spinflip.standard_state("w", 3),
        "A-BC": _bisep3((0, 3)),
        "B-AC": _bisep3((0, 5)),
        "C-AB": _bisep3((0, 6)),
        "A-B-C": spinflip.standard_state("zeros", 3),
    }


def acin_form(rng: np.random.Generator, branch: int) -> spinflip.AcinForm:
    """A canonical form from one of the ten structural branches of the
    weight space (the branches of tests/helpers.py::sample_acin)."""
    u0, u1, u2, u3, u4 = rng.uniform(0.25, 1.0, size=5)
    raw = {
        0: (u0, u1, u2, u3, u4),
        1: (u0, u1, u2, u3, 0.0),
        2: (u0, 0.0, u2, u3, 0.0),
        3: (u0, u1, u2, 0.0, 0.0),
        4: (u0, u1, 0.0, u3, 0.0),
        5: (u0, u1, 0.0, 0.0, 0.0),
        6: (0.0, 0.0, u2, u3, u4),
        7: (0.0, u1, 0.0, u3, u4),
        # l2 l3 = l1 l4 at phi = 0: all three qubits factor
        8: (0.0, u1, u2, u3, u2 * u3 / u1),
        9: (0.0, u1, u2, 0.0, 0.0),
    }[branch]
    phi = float(rng.uniform(0.0, np.pi)) if branch in (0, 1, 6) else 0.0
    lams = np.asarray(raw, dtype=float)
    lams = lams / np.linalg.norm(lams)
    return spinflip.AcinForm(*(float(x) for x in lams), phi=phi)


def orbit(state: PureState, kind: str, seed: int) -> PureState:
    """A point on the LU ("unitary") or SLOCC ("invertible") orbit of a
    state; SLOCC points are renormalised."""
    out = spinflip.apply_local(state, spinflip.random_local(state.n, kind, seed))
    if kind == "invertible":
        out = PureState(state.n, out.amplitudes / out.norm())
    return out


def closed_form_mismatch(state: PureState, concurrence, odd) -> str | None:
    """Compare the closed forms with the SVD route: the singular values of
    the power-1 matrix for rows {1}."""
    om = spinflip.omega(state, QubitPartition((1,), state.n))
    sigma = np.linalg.svd(om.entries, compute_uv=False)
    if state.n % 2 == 0:
        if not all(_close(concurrence, s) for s in sigma):
            return f"concurrence {concurrence!r} vs singular values {sigma.tolist()}"
    elif not (_close(odd.t1, sigma[0]) and _close(odd.t2, sigma[1])):
        return f"t1, t2 = {odd.t1!r}, {odd.t2!r} vs singular values {sigma.tolist()}"
    return None


def _expect_label(expected: str):
    def check(result):
        if result.label != expected:
            return f"label {result.label}, expected {expected}"
        return None
    return check


def _expect_relation(expected: str, witness_kinds=None):
    def check(verdict):
        if verdict.relation != expected:
            return f"relation {verdict.relation}, expected {expected}"
        if witness_kinds and verdict.witness.kind not in witness_kinds:
            return f"witness {verdict.witness.kind}, expected one of {witness_kinds}"
        return None
    return check


class ThreeQubitMix:
    """n = 3: SLOCC and LU orbits of the six class seeds and canonical forms
    from all ten branches, through classify_three, family_label,
    classify_acin and slocc_compare."""

    name = "three-qubit-mix"
    pool = 32

    def __init__(self, seed: int):
        rng = np.random.default_rng(seed)
        seeds = class_seeds()
        self.lu = {c: [orbit(s, "unitary", k) for k in _seeds(rng, self.pool)]
                   for c, s in seeds.items()}
        self.slocc = {c: [orbit(s, "invertible", k) for k in _seeds(rng, self.pool)]
                      for c, s in seeds.items()}
        self.acin = [[acin_form(rng, b) for _ in range(self.pool)] for b in range(10)]
        # F values are LU invariants: every LU orbit point must reproduce
        # the seed's value
        self.family_ref = {c: spinflip.family_label(s).value for c, s in seeds.items()}
        self.cycles = [self._cycle(i) for i in range(self.pool)]

    def _family_check(self, cls: str, lu: bool):
        kind = "F_c" if cls == "C-AB" else "F_S"

        def check(label):
            if (label.kind, label.slocc_class) != (kind, cls):
                return f"family {label.kind}/{label.slocc_class}, expected {kind}/{cls}"
            if lu and abs(label.value - self.family_ref[cls]) > FAMILY_ATOL:
                return f"family value {label.value!r}, seed has {self.family_ref[cls]!r}"
            return None
        return check

    @staticmethod
    def _acin_check(cls: str):
        def check(result):
            label, triple, _ = result
            if (label.label, tuple(triple)) != (cls, TRIPLES[cls]):
                return f"acin {label.label} {triple}, expected {cls} {TRIPLES[cls]}"
            return None
        return check

    def _cycle(self, i: int) -> list[Op]:
        ops = []
        for c in CLASSES:
            for tag, pool, lu in (("lu", self.lu, True), ("slocc", self.slocc, False)):
                s = pool[c][i]
                ops.append(Op(f"classify_three/{c}/{tag}",
                              lambda s=s: spinflip.classify_three(s), _expect_label(c)))
                ops.append(Op(f"family_label/{c}/{tag}",
                              lambda s=s: spinflip.family_label(s), self._family_check(c, lu)))
        for b, forms in enumerate(self.acin):
            f = forms[i]
            ops.append(Op(f"classify_acin/branch{b}",
                          lambda f=f: spinflip.classify_acin(f),
                          self._acin_check(ACIN_BRANCH_CLASS[b])))
        j = (i + 1) % self.pool
        for k, c in enumerate(CLASSES):
            other = CLASSES[(k + 1) % len(CLASSES)]
            a, b = self.lu[c][i], self.slocc[c][j]
            ops.append(Op(f"slocc_compare/{c}~{c}",
                          lambda a=a, b=b: spinflip.slocc_compare(a, b),
                          _expect_relation("not-distinguished")))
            a, b = self.slocc[c][i], self.slocc[other][i]
            ops.append(Op(f"slocc_compare/{c}~{other}",
                          lambda a=a, b=b: spinflip.slocc_compare(a, b),
                          _expect_relation("inequivalent")))
        return ops

    def stage_items(self):
        part = QubitPartition((1, 2), 3)
        return [(s, part) for pool in (self.lu, self.slocc) for c in CLASSES
                for s in pool[c][:4]]

    def peak_rss_mb(self) -> float:
        return _self_peak_rss_mb()


class N14Invariants:
    """n in {13, 14}: invariant_profile and lu_compare on balanced (rows
    1..n//2) and narrow (rows 1,2) partitions. LU pairs are a state and a
    random local unitary image of it; a fixed share of pairs is
    inequivalent and must stop at a closed-form witness."""

    name = "n14-invariants"
    sizes = (13, 14)
    pool = 8
    # (operation, n, partition, copies per cycle). The copies put the median
    # inside the n = 14 balanced invariant_profile cluster and p90 inside
    # the n = 14 balanced lu_compare cluster, not on the edge between two
    # kinds of operation of different cost.
    MIX = (
        ("profile", 13, "narrow", 1), ("profile", 14, "narrow", 1),
        ("equivalent", 13, "narrow", 1), ("equivalent", 14, "narrow", 1),
        ("inequivalent", 13, "balanced", 1), ("inequivalent", 14, "balanced", 1),
        ("profile", 13, "balanced", 1), ("equivalent", 13, "balanced", 1),
        ("profile", 14, "balanced", 8), ("equivalent", 14, "balanced", 4),
    )

    def __init__(self, seed: int):
        rng = np.random.default_rng(seed)
        self.states, self.lu, self.other = {}, {}, {}
        for n in self.sizes:
            seeds = _seeds(rng, 3 * self.pool)
            self.states[n] = [spinflip.random_state(n, k) for k in seeds[0::3]]
            self.lu[n] = [orbit(s, "unitary", k) for s, k in zip(self.states[n], seeds[1::3])]
            self.other[n] = [spinflip.random_state(n, k) for k in seeds[2::3]]
        self.parts = {
            n: {"balanced": QubitPartition(tuple(range(1, n // 2 + 1)), n),
                "narrow": QubitPartition((1, 2), n)}
            for n in self.sizes
        }
        self.cycles = [self._cycle(i) for i in range(self.pool)]

    @staticmethod
    def _profile_check(state: PureState):
        def check(profile):
            return closed_form_mismatch(state, profile.concurrence, profile.odd)
        return check

    def _op(self, what: str, n: int, kind: str, j: int) -> Op:
        s, part = self.states[n][j], self.parts[n][kind]
        label = f"{what}/n{n}/{kind}"
        if what == "profile":
            return Op(label, lambda: spinflip.invariant_profile(s, [part]),
                      self._profile_check(s))
        if what == "equivalent":
            t = self.lu[n][j]
            return Op(label, lambda: spinflip.lu_compare(s, t, [part]),
                      _expect_relation("not-distinguished"))
        u = self.other[n][j]
        return Op(label, lambda: spinflip.lu_compare(s, u, [part]),
                  _expect_relation("inequivalent", ("concurrence", "ntangle", "delta")))

    def _cycle(self, i: int) -> list[Op]:
        return [self._op(what, n, kind, (i + c) % self.pool)
                for what, n, kind, copies in self.MIX for c in range(copies)]

    def stage_items(self):
        return [(self.states[n][0], part) for n in self.sizes
                for part in self.parts[n].values()]

    def peak_rss_mb(self) -> float:
        return _self_peak_rss_mb()


def _self_peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def cli_env(src: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    return env


def run_cli_in_process(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = spinflip.cli.main(argv)
    return code, out.getvalue()


class CliReports:
    """One `python -m spinflip.cli` subprocess per operation, one at a time,
    cycling through all nine subcommands on n = 3 files and one n = 14 file.

    With `in_process` the same argument lists go to `spinflip.cli.main`
    in this process instead, which is what the tracer can see into.
    """

    name = "cli-reports"

    def __init__(self, seed: int, workdir: Path, src: Path, in_process: bool = False):
        import spinflip.cli  # noqa: F401  (bound for run_cli_in_process)

        self.workdir, self.in_process = workdir, in_process
        self.env = cli_env(src)
        self.schema_path = src / "spinflip" / "report_schema.json"
        self.child_rss_kb = 0
        rng = np.random.default_rng(seed)
        k = _seeds(rng, 8)
        seeds = class_seeds()
        self.s14 = spinflip.random_state(14, k[0])
        op14 = spinflip.random_local(14, "unitary", k[1])
        self.files = {
            "s14": self.s14,
            "s14lu": spinflip.apply_local(self.s14, op14),
            "ghz3": orbit(seeds["GHZ"], "unitary", k[2]),
            "w3a": orbit(seeds["W"], "unitary", k[3]),
            "w3b": orbit(seeds["W"], "unitary", k[4]),
            "cab3": orbit(seeds["C-AB"], "invertible", k[5]),
        }
        ops = {"op14": op14, "op3": spinflip.random_local(3, "unitary", k[6]),
               "op3i": spinflip.random_local(3, "invertible", k[7])}
        self.paths = {}
        for name, state in self.files.items():
            self.paths[name] = self._write(f"{name}.json", spinflip.serialize_state(state))
        for name, op in ops.items():
            self.paths[name] = self._write(f"{name}.json", spinflip.serialize_operator(op))
        self.gen_seed = int(rng.integers(0, 2**31))
        self.form = acin_form(rng, 1)
        self.ghz_family = spinflip.family_label(seeds["GHZ"]).value
        self._stdout_path = workdir / "stdout.txt"
        self._stderr_path = workdir / "stderr.txt"
        self._verified: dict[tuple, tuple[str, str | None]] = {}
        self.cycles = [self._cycle()]

    def _write(self, name: str, text: str) -> str:
        path = self.workdir / name
        path.write_text(text)
        return str(path)

    def _cycle(self) -> list[Op]:
        p = self.paths
        acin = ",".join(repr(x) for x in self.form.lambdas())
        phi = repr(self.form.phi)
        specs = [
            (["gen", "--random", "--n", "14", "--seed", str(self.gen_seed)], self._same_text(
                lambda: spinflip.random_state(14, self.gen_seed))),
            (["apply", p["s14"], p["op14"]], self._same_text(
                lambda: spinflip.apply_local(self._load(p["s14"]), self._load_op(p["op14"])))),
            (["invariants", p["s14"], "--rows", "1,2,3,4,5,6,7"], self._invariants_s14),
            (["compare-lu", p["s14"], p["s14lu"], "--rows", "1,2"],
             self._field("relation", "not-distinguished")),
            (["gen", "--acin", acin, "--phi", phi], self._same_text(
                lambda: spinflip.acin_state(self.form))),
            (["apply", p["ghz3"], p["op3"]], self._same_text(
                lambda: spinflip.apply_local(self._load(p["ghz3"]), self._load_op(p["op3"])))),
            (["invariants", p["ghz3"]], self._field("ranks", list(TRIPLES["GHZ"]))),
            (["classify", p["cab3"]], self._field("class", "C-AB")),
            (["classify-acin", "--acin", acin, "--phi", phi], self._field("class", "W")),
            (["compare-lu", p["w3a"], p["w3b"]], self._field("relation", "not-distinguished")),
            (["compare-slocc", p["ghz3"], p["w3a"]], self._field("relation", "inequivalent")),
            (["family", p["ghz3"]], self._family_ghz),
            (["verify-congruence", p["w3a"], p["op3i"], "--power", "2"],
             self._field("passed", True)),
        ]
        return [Op(f"cli/{argv[0]}/{i}", self._runner(argv), self._checker(argv, answer))
                for i, (argv, answer) in enumerate(specs)]

    @staticmethod
    def _load(path: str) -> PureState:
        return spinflip.parse_state(Path(path).read_text())

    @staticmethod
    def _load_op(path: str):
        return spinflip.parse_operator(Path(path).read_text())

    def _runner(self, argv: list[str]):
        if self.in_process:
            return lambda: run_cli_in_process(argv)
        return lambda: self._run_subprocess(argv)

    def _run_subprocess(self, argv: list[str]) -> tuple[int, str]:
        """Run the CLI and reap it with wait4, which gives the child's own
        peak RSS."""
        cmd = [sys.executable, "-m", "spinflip.cli", *argv]
        with open(self._stdout_path, "wb") as out, open(self._stderr_path, "wb") as err:
            proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=self.env)
            timer = threading.Timer(CLI_TIMEOUT_S, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            proc.returncode = os.waitstatus_to_exitcode(status)
        self.child_rss_kb = max(self.child_rss_kb, usage.ru_maxrss)
        return proc.returncode, self._stdout_path.read_text()

    def _checker(self, argv: list[str], answer):
        key = tuple(argv)

        def check(result):
            code, text = result
            if code != 0:
                err = "" if self.in_process else self._stderr_path.read_text().strip()
                return f"exit code {code}: {err}"
            if key not in self._verified:
                self._verified[key] = self._reference(argv, answer)
            ref_text, problem = self._verified[key]
            if problem:
                return problem
            if text != ref_text:
                return "output differs from the in-process report"
            return None
        return check

    def _reference(self, argv, answer) -> tuple[str, str | None]:
        """In-process output for argv, validated once: schema (reports) and
        the answer against the library."""
        code, text = run_cli_in_process(argv)
        if code != 0:
            return text, f"in-process exit code {code}"
        if argv[0] not in ("gen", "apply"):
            import jsonschema

            schema = json.loads(self.schema_path.read_text())
            validator = jsonschema.Draft202012Validator(schema)
            errors = sorted(e.message for e in validator.iter_errors(json.loads(text)))
            if errors:
                return text, f"report fails the schema: {errors[0]}"
        return text, answer(text)

    @staticmethod
    def _same_text(make_state):
        def answer(text):
            expected = spinflip.serialize_state(make_state())
            return None if text == expected else "state file differs from serialize_state"
        return answer

    @staticmethod
    def _field(key, expected):
        def answer(text):
            got = json.loads(text).get(key)
            return None if got == expected else f"{key} = {got!r}, expected {expected!r}"
        return answer

    def _invariants_s14(self, text):
        report = json.loads(text)
        part = QubitPartition(tuple(range(1, 8)), 14)
        profile = spinflip.invariant_profile(self.s14, [part])
        ranks = list(profile.partitions[0].rank_profile.ranks)
        if report["ranks"] != ranks:
            return f"ranks {report['ranks']}, library gives {ranks}"
        return closed_form_mismatch(self.s14, report["concurrence"], None)

    def _family_ghz(self, text):
        report = json.loads(text)
        if (report["kind"], report.get("class")) != ("F_S", "GHZ"):
            return f"family {report['kind']}/{report.get('class')}, expected F_S/GHZ"
        if abs(report["value"] - self.ghz_family) > FAMILY_ATOL:
            return f"family value {report['value']!r}, seed has {self.ghz_family!r}"
        return None

    def stage_items(self):
        part14 = QubitPartition(tuple(range(1, 8)), 14)
        part3 = QubitPartition((1, 2), 3)
        return [(self.files["s14"], part14), (self.files["s14"], QubitPartition((1, 2), 14))] + [
            (self.files[k], part3) for k in ("ghz3", "w3a", "w3b", "cab3")]

    def peak_rss_mb(self) -> float:
        return self.child_rss_kb / 1024.0


WORKLOADS = {w.name: w for w in (ThreeQubitMix, N14Invariants, CliReports)}


def build(name: str, seed: int, workdir: Path, src: Path, in_process: bool = False):
    """The named workload; only cli-reports needs files, `src` and a mode."""
    if name == CliReports.name:
        return CliReports(seed, workdir, src, in_process)
    return WORKLOADS[name](seed)
