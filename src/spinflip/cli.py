"""Command-line front end emitting JSON reports.

Every analysis subcommand writes a single JSON report (stdout or -o) that
echoes the tool version and the effective configuration, so results are
reproducible from the report alone. gen and apply write state files in the
same format the other subcommands consume. Exit codes: 0 success, 2 for
malformed input or incompatible parameters, 3 when two internal routes to
the same answer disagree (a tolerance inconsistency); exit 3 also writes
the inconsistency's details to stderr as one JSON line.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import is_dataclass

import numpy as np

from . import __version__
from .classify import (
    classify_acin,
    classify_three,
    classify_two,
    family_label,
    lu_compare,
    slocc_compare,
)
from .coeffmat import QubitPartition
from .errors import ToleranceInconsistency, ValidationError
from .invariants import (COMPARE_TOL, RANK_TOL, default_rows, invariant_profile, rank_profile,
                         verify_congruence)
from .states import (
    AcinForm,
    acin_state,
    apply_local,
    parse_operator,
    parse_state,
    random_state,
    serialize_state,
    standard_state,
)

TOOL_NAME = "spinflip"

# verify-congruence passes below this relative residual
RESIDUAL_TOL = 1e-8


def _jsonable(value):
    """json.dumps hook: complex numbers become [re, im] pairs, numpy arrays
    and scalars their Python counterparts, result dataclasses an object of
    their non-None fields in field order."""
    if is_dataclass(value):
        return {k: v for k, v in vars(value).items() if v is not None}
    if isinstance(value, (complex, np.complexfloating)):
        return [value.real, value.imag]
    if isinstance(value, (np.ndarray, np.generic)):
        return value.tolist()
    raise TypeError(f"cannot serialize {type(value)!r}")


def _emit_json(value) -> str:
    # floats go out as their shortest round-trip repr
    return json.dumps(value, indent=2, default=_jsonable)


def _write_output(text: str, path: str | None) -> None:
    if path is None:
        sys.stdout.write(text)
        return
    try:
        with open(path, "w") as handle:
            handle.write(text)
    except OSError as exc:
        raise ValidationError(f"cannot write {path}: {exc}") from exc


def _read(path: str, parse, what: str):
    try:
        with open(path) as handle:
            text = handle.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ValidationError(f"cannot read {what} file {path}: {exc}") from exc
    return parse(text)


def _parse_rows(spec: str | None, n: int) -> QubitPartition:
    if spec is None:
        return QubitPartition(default_rows(n), n)
    try:
        rows = tuple(int(part) for part in spec.split(","))
    except ValueError as exc:
        raise ValidationError(f"--rows must be comma-separated integers: {spec!r}") from exc
    return QubitPartition(rows, n)


def _parse_acin(spec: str, phi: float) -> AcinForm:
    try:
        lams = [float(part) for part in spec.split(",")]
    except ValueError as exc:
        raise ValidationError(f"--acin must be five comma-separated reals: {spec!r}") from exc
    if len(lams) != 5:
        raise ValidationError(f"--acin needs exactly five weights, got {len(lams)}")
    return AcinForm(*lams, phi=phi)


def _config(args, rows, tol=None, **extras) -> dict:
    cfg = {
        "rows": list(rows) if rows is not None else None,
        "max_power": getattr(args, "max_power", None),
        "tol": tol,
        "output": args.output,
    }
    cfg.update(extras)
    return {"tool": TOOL_NAME, "version": __version__, "command": args.command, "config": cfg}


def _cmd_invariants(args) -> dict:
    state = _read(args.state, parse_state, "state")
    partition = _parse_rows(args.rows, state.n)
    report = _config(args, partition.rows, RANK_TOL)
    report["n"] = state.n
    report["normalized"] = state.normalized
    if state.normalized:
        profile = invariant_profile(state, [partition], args.max_power)
        part = profile.partitions[0]
        rp = part.rank_profile
    else:
        # ranks are facts about the ray; singular values scale as |c|^(2l)
        # and the closed forms need unit norm, so they are omitted
        profile = None
        rp = rank_profile(state, partition, args.max_power)
    report["ranks"] = list(rp.ranks)
    block = {"rows": list(partition.rows), "ranks": list(rp.ranks), "tolerance": RANK_TOL}
    report["partitions"] = [block]
    if profile is None:
        return report
    block["powers"] = [
        {"power": ell, "singular_values": sigma}
        for ell, sigma in enumerate(part.singular_values, 1)
    ]
    if profile.concurrence is not None:
        report["concurrence"] = profile.concurrence
    if profile.odd is not None:
        report["ntangle"] = profile.odd.ntangle
        report["odd"] = profile.odd
    if profile.s_value is not None:
        report["s"] = profile.s_value
    return report


def _cmd_classify(args) -> dict:
    state = _read(args.state, parse_state, "state")
    classify = {2: classify_two, 3: classify_three}.get(state.n)
    if classify is None:
        raise ValidationError("classify handles 2- and 3-qubit states only")
    label = classify(state)
    report = _config(args, default_rows(state.n), RANK_TOL)
    report["n"] = state.n
    report["class"] = label.label
    report["ranks"] = list(label.ranks)
    if label.local_ranks is not None:
        report["local_ranks"] = list(label.local_ranks)
    return report


def _cmd_classify_acin(args) -> dict:
    form = _parse_acin(args.acin, args.phi)
    label, triple, s_value = classify_acin(form)
    report = _config(args, (1, 2), RANK_TOL)
    report["lambdas"] = list(form.lambdas())
    report["phi"] = form.phi
    report["class"] = label.label
    report["ranks"] = list(triple)
    report["s"] = s_value
    return report


def _cmd_compare_lu(args) -> dict:
    a, b = (_read(path, parse_state, "state") for path in (args.state_a, args.state_b))
    partition = _parse_rows(args.rows, a.n)
    verdict = lu_compare(a, b, [partition], args.max_power)
    report = _config(args, partition.rows, compare_tol=COMPARE_TOL)
    report["relation"] = verdict.relation
    report["witness"] = verdict.witness
    return report


def _cmd_compare_slocc(args) -> dict:
    a, b = (_read(path, parse_state, "state") for path in (args.state_a, args.state_b))
    verdict = slocc_compare(a, b)
    report = _config(args, default_rows(a.n), RANK_TOL)
    report["relation"] = verdict.relation
    report["witness"] = verdict.witness
    return report


def _cmd_family(args) -> dict:
    state = _read(args.state, parse_state, "state")
    label = family_label(state)
    rows = default_rows(state.n) if state.n == 3 else None
    report = _config(args, rows, RANK_TOL)
    report["kind"] = label.kind
    report["value"] = label.value
    if label.slocc_class is not None:
        report["class"] = label.slocc_class
    return report


def _cmd_gen(args) -> str:
    for flag, value, source, read in (
        ("--n", args.n, "--state or --random", args.acin is None),
        ("--seed", args.seed, "--random", args.random),
        ("--phi", args.phi, "--acin", args.acin is not None),
    ):
        if value is not None and not read:
            raise ValidationError(f"{flag} applies to {source} only")
    if args.state is not None:
        if args.n is None and args.state in ("ghz", "w", "zeros"):
            raise ValidationError(f"--state {args.state} requires --n")
        state = standard_state(args.state, args.n)
    elif args.random:
        if args.n is None:
            raise ValidationError("--random requires --n")
        state = random_state(args.n, args.seed)
    else:
        state = acin_state(_parse_acin(args.acin, 0.0 if args.phi is None else args.phi))
    return serialize_state(state)


def _cmd_apply(args) -> str:
    state = _read(args.state, parse_state, "state")
    op = _read(args.operator, parse_operator, "operator")
    return serialize_state(apply_local(state, op))


def _cmd_verify_congruence(args) -> dict:
    state = _read(args.state, parse_state, "state")
    op = _read(args.operator, parse_operator, "operator")
    partition = _parse_rows(args.rows, state.n)
    outcome = verify_congruence(state, op, partition, args.power)
    report = _config(args, partition.rows, power=args.power, residual_tol=RESIDUAL_TOL)
    report["alpha"] = outcome.alpha
    report["beta"] = outcome.beta
    report["residual"] = outcome.residual
    report["passed"] = bool(outcome.residual < RESIDUAL_TOL)
    return report


def _add_common(parser, rows=False, power=False):
    parser.add_argument("-o", "--output", default=None, help="write to file instead of stdout")
    if rows:
        parser.add_argument("--rows", default=None,
                            help="row qubits, comma-separated (default 1,2 from n=3 up, else 1)")
    if power:
        parser.add_argument("--max-power", type=int, default=3,
                            help="highest power to compute (default 3)")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog=TOOL_NAME,
        description="Spin-flipping matrix invariants and classification of n-qubit states",
    )
    parser.add_argument("--version", action="version", version=f"{TOOL_NAME} {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("invariants", help="ranks, singular values per power, closed forms")
    p.add_argument("state", help="state JSON file")
    _add_common(p, rows=True, power=True)
    p.set_defaults(func=_cmd_invariants)

    p = sub.add_parser("classify", help="SLOCC class of a 2- or 3-qubit state")
    p.add_argument("state")
    _add_common(p)
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("classify-acin", help="SLOCC class of a canonical form")
    p.add_argument("--acin", required=True, help="five weights, comma-separated")
    p.add_argument("--phi", type=float, default=0.0, help="phase in [0, pi] (default 0)")
    _add_common(p)
    p.set_defaults(func=_cmd_classify_acin)

    p = sub.add_parser("compare-lu", help="necessary-condition comparison under local unitaries")
    p.add_argument("state_a")
    p.add_argument("state_b")
    _add_common(p, rows=True, power=True)
    p.set_defaults(func=_cmd_compare_lu)

    p = sub.add_parser("compare-slocc", help="necessary-condition comparison under SLOCC")
    p.add_argument("state_a")
    p.add_argument("state_b")
    _add_common(p)
    p.set_defaults(func=_cmd_compare_slocc)

    p = sub.add_parser("family", help="LU family label")
    p.add_argument("state")
    _add_common(p)
    p.set_defaults(func=_cmd_family)

    p = sub.add_parser("gen", help="write a state file")
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--state", default=None,
                        help="named state: ghz, w, bell, zeros, xi, vartheta, w1, w2")
    source.add_argument("--random", action="store_true", help="Haar-random state")
    source.add_argument("--acin", default=None, help="five canonical weights, comma-separated")
    p.add_argument("--phi", type=float, default=None, help="phase with --acin (default 0)")
    p.add_argument("--n", type=int, default=None, help="qubit count")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("apply", help="apply a local operator, write the new state file")
    p.add_argument("state")
    p.add_argument("operator", help="operator JSON file")
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=_cmd_apply)

    p = sub.add_parser("verify-congruence", help="check the local-transformation congruence")
    p.add_argument("state")
    p.add_argument("operator")
    p.add_argument("--power", type=int, default=1)
    _add_common(p, rows=True)
    p.set_defaults(func=_cmd_verify_congruence)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on bad flags, 0 on --help
        return int(exc.code or 0)
    try:
        output = args.func(args)
        # gen and apply return a state file's text, every other command a report
        text = output if isinstance(output, str) else _emit_json(output) + "\n"
        _write_output(text, args.output)
    except ToleranceInconsistency as exc:
        print(f"{TOOL_NAME}: tolerance inconsistency: {exc}", file=sys.stderr)
        print(json.dumps(exc.details, default=_jsonable), file=sys.stderr)
        return 3
    except ValidationError as exc:
        print(f"{TOOL_NAME}: error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
