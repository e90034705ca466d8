"""End-to-end tests of the command-line interface and its JSON reports."""

import json
import math
import warnings
from importlib import resources
from pathlib import Path

import jsonschema
import numpy as np
import pytest

from spinflip import (LocalOperator, PureState, invariants, parse_state, random_local,
                      serialize_operator, serialize_state)
from spinflip.cli import main

import helpers

GOLDEN_DIR = Path(__file__).parent / "golden"

_SCHEMA = json.loads(
    resources.files("spinflip").joinpath("report_schema.json").read_text()
)
_VALIDATOR = jsonschema.Draft202012Validator(_SCHEMA)


def run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_report(argv, capsys):
    code, out, err = run(argv, capsys)
    assert code == 0, err
    report = json.loads(out)
    _VALIDATOR.validate(report)
    return report


@pytest.fixture(scope="module")
def states(tmp_path_factory):
    """Named state files generated once through the gen subcommand."""
    root = tmp_path_factory.mktemp("states")
    paths = {}
    for name, extra in [
        ("bell", []),
        ("ghz3", ["--state", "ghz", "--n", "3"]),
        ("ghz4", ["--state", "ghz", "--n", "4"]),
        ("w3", ["--state", "w", "--n", "3"]),
        ("xi", ["--state", "xi"]),
        ("w1", ["--state", "w1"]),
        ("w2", ["--state", "w2"]),
    ]:
        path = root / f"{name}.json"
        argv = ["gen", "-o", str(path)]
        argv += extra if extra else ["--state", name]
        assert main(argv) == 0
        paths[name] = str(path)
    return paths


def test_version_flag(capsys):
    code, out, _ = run(["--version"], capsys)
    assert code == 0
    assert out.startswith("spinflip ")


def test_help_exits_zero(capsys):
    code, out, _ = run(["--help"], capsys)
    assert code == 0
    assert "invariants" in out


def test_gen_writes_state_file(tmp_path, capsys):
    path = tmp_path / "ghz.json"
    code, out, _ = run(["gen", "--state", "ghz", "--n", "3", "-o", str(path)], capsys)
    assert code == 0
    assert out == ""
    doc = json.loads(path.read_text())
    assert doc["n"] == 3
    r = 1 / math.sqrt(2)
    assert doc["amplitudes"][0] == pytest.approx([r, 0.0])
    assert doc["amplitudes"][7] == pytest.approx([r, 0.0])
    assert doc["amplitudes"][3] == [0.0, 0.0]

    # stdout and file output carry identical bytes
    code, out, _ = run(["gen", "--state", "ghz", "--n", "3"], capsys)
    assert code == 0
    assert out == path.read_text()


def test_gen_acin_weights(capsys):
    code, out, _ = run(["gen", "--acin", "0.5,0.5,0.5,0.5,0"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["n"] == 3
    amps = doc["amplitudes"]
    assert [amps[i] for i in (0, 4, 5, 6)] == [[0.5, 0.0]] * 4
    assert amps[7] == [0.0, 0.0]


def test_gen_random_deterministic(capsys):
    argv = ["gen", "--random", "--n", "3", "--seed", "7"]
    code, first, _ = run(argv, capsys)
    assert code == 0
    code, second, _ = run(argv, capsys)
    assert first == second
    doc = json.loads(first)
    amps = np.array([complex(re, im) for re, im in doc["amplitudes"]])
    assert np.linalg.norm(amps) == pytest.approx(1.0, abs=1e-12)


def test_gen_source_validation(capsys):
    assert run(["gen", "--state", "ghz", "--random", "--n", "3"], capsys)[0] == 2
    assert run(["gen"], capsys)[0] == 2
    assert run(["gen", "--state", "ghz"], capsys)[0] == 2
    assert run(["gen", "--state", "w"], capsys)[0] == 2
    for n in ("64", "-1"):
        assert run(["gen", "--state", "zeros", "--n", n], capsys)[:2] == (2, "")
    assert run(["gen", "--random"], capsys)[0] == 2
    assert run(["gen", "--acin", "0.5,0.5"], capsys)[0] == 2
    assert run(["gen", "--acin", "a,b,c,d,e"], capsys)[0] == 2


@pytest.mark.parametrize("argv, flag", [
    (["--acin", "1,0,0,0,0", "--n", "5"], "--n"),
    (["--state", "ghz", "--n", "3", "--seed", "1"], "--seed"),
    (["--acin", "1,0,0,0,0", "--seed", "1"], "--seed"),
    (["--random", "--n", "3", "--phi", "1"], "--phi"),
    (["--state", "ghz", "--n", "3", "--phi", "0"], "--phi"),
])
def test_gen_refuses_options_its_source_ignores(argv, flag, capsys):
    code, out, err = run(["gen", *argv], capsys)
    assert (code, out) == (2, "")
    assert flag in err


# numpy refuses these stack shapes before it allocates anything
@pytest.mark.parametrize("command", [
    ["invariants", "{ghz3}", "--max-power", str(2**62)],
    ["compare-lu", "{ghz3}", "{ghz3}", "--max-power", str(2**62)],
    ["verify-congruence", "{ghz3}", "{op}", "--power", str(10**20)],
])
def test_unallocatable_power_stack_exits_2(command, states, tmp_path, capsys):
    op_path = tmp_path / "u.json"
    op_path.write_text(serialize_operator(random_local(3, "unitary", 13)))
    argv = [arg.format(op=op_path, **states) for arg in command]
    code, out, err = run(argv, capsys)
    assert (code, out) == (2, "")
    # worded by the count the user passed, not by a parameter name
    assert f"{command[-1]} powers" in err and "cannot be allocated" in err
    assert "max_power" not in err


# GHZ3 against W3 is decided by a closed form, GHZ3 against itself by spectra
@pytest.mark.parametrize("b", ["w3", "ghz3"])
@pytest.mark.parametrize("power", ["0", "-5"])
def test_compare_lu_refuses_powers_below_one(b, power, states, capsys):
    code, out, err = run(["compare-lu", states["ghz3"], states[b], "--max-power", power], capsys)
    assert (code, out) == (2, "")
    assert ">= 1" in err


@pytest.mark.parametrize("weights", ["nan,0,0,0,0", "1,0,0,0,inf", "1,0,nan,0,0"])
def test_gen_rejects_non_finite_weights(weights, capsys):
    code, out, err = run(["gen", "--acin", weights], capsys)
    assert code == 2
    assert out == ""
    assert "finite" in err


def test_invariants_report_ghz3(states, capsys):
    report = run_report(
        ["invariants", states["ghz3"], "--rows", "1,2", "--max-power", "3"], capsys
    )
    assert report["tool"] == "spinflip"
    assert report["command"] == "invariants"
    assert report["config"]["rows"] == [1, 2]
    assert report["config"]["max_power"] == 3
    assert report["n"] == 3
    assert report["normalized"] is True
    assert report["ranks"] == [2, 2, 2]
    assert report["ntangle"] == pytest.approx(0.25, abs=1e-15)
    assert report["odd"]["delta"] == pytest.approx(0.5, abs=1e-15)
    assert report["odd"]["e12"] == pytest.approx([0.5, 0.0], abs=1e-15)
    assert report["s"] == pytest.approx(0.5, abs=1e-15)
    powers = report["partitions"][0]["powers"]
    assert powers[0]["power"] == 1
    assert powers[0]["singular_values"] == pytest.approx([0.5, 0.5, 0, 0], abs=1e-15)
    assert powers[1]["singular_values"] == pytest.approx([0.25, 0.25, 0, 0], abs=1e-15)
    assert powers[2]["singular_values"] == pytest.approx(
        [0.125, 0.125, 0, 0], abs=1e-15
    )
    # |det| is the product of the printed spectrum, so no power prints it
    assert all("abs_det" not in power for power in powers)


def test_invariants_report_n14_prints_no_underflowed_det(tmp_path, capsys):
    # the spectrum's product underflows to 0 here while every rank is full;
    # the report prints the spectrum, whose log sum is log|det|
    path = tmp_path / "r14.json"
    assert run(["gen", "--random", "--n", "14", "--seed", "5", "-o", str(path)], capsys)[0] == 0
    report = run_report(["invariants", str(path), "--rows", "1,2,3,4,5,6,7"], capsys)
    assert report["ranks"] == [128, 128, 128]
    for power in report["partitions"][0]["powers"]:
        assert "abs_det" not in power
        assert min(power["singular_values"]) > 0


def test_invariants_report_even_n(states, capsys):
    report = run_report(["invariants", states["ghz4"]], capsys)
    assert report["concurrence"] == pytest.approx(0.5, abs=1e-15)
    assert "ntangle" not in report
    assert "s" not in report
    assert report["config"]["rows"] == [1, 2]


def test_invariants_unnormalized_state(tmp_path, capsys):
    path = tmp_path / "big.json"
    path.write_text(
        '{"n": 2, "amplitudes": [[3, 0], [0, 0], [0, 0], [4, 0]]}'
    )
    report = run_report(["invariants", str(path)], capsys)
    assert report["normalized"] is False
    assert report["ranks"] == [2, 2, 2]
    assert "concurrence" not in report
    assert "powers" not in report["partitions"][0]


def _scaled_file(path, name, scale):
    amps = scale * np.asarray(
        {"ghz": [1, 0, 0, 0, 0, 0, 0, 1], "zero": [0] * 8}[name], dtype=float
    )
    path.write_text(json.dumps({"n": 3, "amplitudes": [[a, 0.0] for a in amps]}))
    return str(path)


def test_unnormalized_tiny_ghz_reports_and_classifies(tmp_path, capsys):
    # GHZ x 1e-100: ranks and class are properties of the ray
    path = _scaled_file(tmp_path / "tiny.json", "ghz", 1e-100)
    report = run_report(["invariants", path], capsys)
    assert report["normalized"] is False
    assert report["ranks"] == [2, 2, 2]
    report = run_report(["classify", path], capsys)
    assert report["class"] == "GHZ"
    assert report["ranks"] == [2, 2, 2]


def test_huge_amplitudes_parse_and_classify_without_warnings(tmp_path, capsys):
    # squaring 1e300 overflows; the norm divides by the peak magnitude first
    path = tmp_path / "huge.json"
    path.write_text(
        '{"n": 2, "amplitudes": [[1e300, 0], [0, 0], [0, 0], [1e300, 0]]}'
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert parse_state(path.read_text()).normalized is False
        report = run_report(["classify", str(path)], capsys)
    assert report["class"] == "entangled"
    assert report["ranks"] == [2, 2, 2]


def _flat8_file(tmp_path):
    path = tmp_path / "flat8.json"
    path.write_text(serialize_state(helpers.flat8()[0]))
    return str(path)


def test_flat_unnormalized_state_reports_high_powers_without_warnings(tmp_path, capsys):
    # ||a||^2 = 230.4 with a peak in [1/2, 1): scaled by its peak, power 300
    # overflowed with three RuntimeWarnings and exit 2
    argv = ["invariants", _flat8_file(tmp_path), "--rows", "1,2,3,4", "--max-power", "300"]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(argv, capsys)
    assert (code, err) == (0, "")
    ranks = json.loads(out)["ranks"]
    assert ranks[:6] == [16, 16, 16, 16, 16, 15]
    assert ranks.index(0) == 41 and not any(ranks[41:])


def test_verify_congruence_of_a_flat_unnormalized_state_at_power_300(tmp_path, capsys):
    # only the operator can put a power out of range, and this one is unitary
    op_path = tmp_path / "u8.json"
    op_path.write_text(serialize_operator(random_local(8, "unitary", 7)))
    argv = ["verify-congruence", _flat8_file(tmp_path), str(op_path),
            "--rows", "1,2,3,4", "--power", "300"]
    report = run_report(argv, capsys)
    assert report["residual"] == 0.0
    assert report["passed"] is True


def test_classify_label_against_local_ranks_exits_3(tmp_path, capsys):
    # |000> + 1e-10|111>: the triple reads GHZ, every local rank reads 1
    path = tmp_path / "near_product.json"
    amps = np.zeros(8)
    amps[[0, 7]] = 1.0, 1e-10
    amps /= np.linalg.norm(amps)
    path.write_text(json.dumps({"n": 3, "amplitudes": [[a, 0.0] for a in amps]}))
    code, out, err = run(["classify", str(path)], capsys)
    assert code == 3
    assert out == ""
    message, details = err.splitlines()
    assert "tolerance inconsistency" in message
    assert json.loads(details) == {
        "triple": [2, 2, 2], "local_ranks": [1, 1, 1], "label": "A-B-C"
    }


def test_all_zero_state_file_is_rejected(tmp_path, capsys):
    path = _scaled_file(tmp_path / "zero.json", "zero", 1.0)
    for command in ("invariants", "classify"):
        code, out, err = run([command, path], capsys)
        assert code == 2
        assert out == ""
        assert "all zero" in err


def test_classify_report_w(states, capsys):
    report = run_report(["classify", states["w3"]], capsys)
    assert report["class"] == "W"
    assert report["ranks"] == [2, 1, 0]
    assert report["local_ranks"] == [2, 2, 2]


def test_classify_report_bell(states, capsys):
    report = run_report(["classify", states["bell"]], capsys)
    assert report["class"] == "entangled"
    assert report["ranks"] == [2, 2, 2]
    assert "local_ranks" not in report


def test_classify_bell_makes_one_svd_call(states, capsys, monkeypatch):
    calls = helpers.count_svd_calls(monkeypatch)
    report = run_report(["classify", states["bell"]], capsys)
    assert (report["class"], report["ranks"]) == ("entangled", [2, 2, 2])
    assert calls == [(3, 2, 2)]


def test_classify_rejects_four_qubits(states, capsys):
    code, _, err = run(["classify", states["ghz4"]], capsys)
    assert code == 2
    assert "2- and 3-qubit" in err


def test_classify_acin_report(capsys):
    report = run_report(["classify-acin", "--acin", "0.5,0.5,0.5,0.5,0"], capsys)
    assert report["class"] == "W"
    assert report["ranks"] == [2, 1, 0]
    assert report["lambdas"] == [0.5, 0.5, 0.5, 0.5, 0.0]
    assert report["phi"] == 0.0
    assert report["s"] == pytest.approx(math.sqrt(0.125), abs=1e-15)


def test_classify_acin_tolerance_exit(capsys):
    lam0 = format(math.sqrt(1.0 - (2e-10) ** 2 - 1e-6), ".17g")
    code, out, err = run(
        ["classify-acin", "--acin", f"{lam0},0,2e-10,1e-3,0"], capsys
    )
    assert code == 3
    assert out == ""
    message, details = err.splitlines()
    assert "tolerance inconsistency" in message
    assert json.loads(details) == {
        "triple": [2, 0, 0], "local_ranks": [2, 2, 2], "tol": 1e-10
    }


def test_compare_lu_report(states, capsys):
    report = run_report(["compare-lu", states["w1"], states["w2"]], capsys)
    assert report["relation"] == "inequivalent"
    assert report["witness"]["kind"] == "delta"
    assert report["witness"]["value_a"] == pytest.approx(0.25, abs=1e-12)
    assert report["witness"]["value_b"] == pytest.approx(0.375, abs=1e-12)
    assert report["config"]["compare_tol"] == 1e-9


def test_compare_lu_same_state(states, capsys):
    report = run_report(["compare-lu", states["ghz3"], states["ghz3"]], capsys)
    assert report["relation"] == "not-distinguished"
    assert report["witness"] is None


def test_compare_lu_near_w_boundary_exits_0(states, tmp_path, capsys):
    # W + 1e-11|111> against W: the ranks there come out non-monotone, but
    # compare-lu compares spectra only, so it gives a verdict
    path = tmp_path / "w_plus.json"
    amps = np.zeros(8)
    amps[[1, 2, 4, 7]] = 1.0, 1.0, 1.0, 1e-11
    amps /= np.linalg.norm(amps)
    path.write_text(json.dumps({"n": 3, "amplitudes": [[a, 0.0] for a in amps]}))
    report = run_report(["compare-lu", str(path), states["w3"]], capsys)
    assert report["relation"] in ("inequivalent", "not-distinguished")


def _w_plus_file(path, eps):
    amps = np.zeros(8)
    amps[[1, 2, 4, 7]] = 1.0, 1.0, 1.0, eps
    amps /= np.linalg.norm(amps)
    path.write_text(json.dumps({"n": 3, "amplitudes": [[a, 0.0] for a in amps]}))
    return str(path)


def test_near_w_closed_forms_report(states, tmp_path, capsys):
    # W + 1e-8|111>: t2 ~ 1e-8 must come out of t1 t2 = ntangle, not a
    # cancelling difference that fails the t1*t2 check
    path = _w_plus_file(tmp_path / "w_plus.json", 1e-8)
    report = run_report(["invariants", path], capsys)
    assert report["odd"]["t1"] * report["odd"]["t2"] == pytest.approx(
        report["ntangle"], rel=1e-15
    )
    report = run_report(["compare-lu", path, states["w3"]], capsys)
    assert report["relation"] in ("inequivalent", "not-distinguished")


def test_compare_lu_tilted_ghz_forms(tmp_path, capsys):
    # every spectrum of both forms lies below 1e-9; the compare threshold
    # follows each power's own scale, so the forms are told apart
    paths = []
    for eps in ("1e-10", "3e-10"):
        paths.append(str(tmp_path / f"ghz_{eps}.json"))
        assert run(["gen", "--acin", f"1,0,0,0,{eps}", "-o", paths[-1]], capsys)[0] == 0
    report = run_report(["compare-lu", *paths], capsys)
    assert report["relation"] == "inequivalent"
    assert report["witness"]["kind"] == "singular-value"


def test_compare_slocc_flags_what_classify_flags(states, tmp_path, capsys):
    # W + 1e-11|111> sits on the GHZ/W boundary: both commands exit 3
    path = _w_plus_file(tmp_path / "w_plus.json", 1e-11)
    for argv in (["classify", path], ["compare-slocc", path, states["ghz3"]]):
        code, out, err = run(argv, capsys)
        assert code == 3
        assert out == ""
        assert "tolerance inconsistency" in err


def test_tol_is_refused_where_no_rank_is_read(states, tmp_path, capsys):
    # the rank threshold is the library constant RANK_TOL, not an option:
    # no subcommand takes --tol, and config.tol echoes the constant where
    # ranks decide the report. The compare and residual thresholds are
    # constants too, echoed in config and set by no flag.
    op_path = tmp_path / "u.json"
    op_path.write_text(serialize_operator(random_local(3, "unitary", 13)))
    reports = [
        (["invariants", states["ghz3"]], 1e-10),
        (["classify", states["w3"]], 1e-10),
        (["classify-acin", "--acin", "0.5,0.5,0.5,0.5,0"], 1e-10),
        (["compare-slocc", states["ghz3"], states["w3"]], 1e-10),
        (["family", states["xi"]], 1e-10),
        (["compare-lu", states["ghz3"], states["w3"]], None),
        (["verify-congruence", states["ghz3"], str(op_path)], None),
    ]
    for argv, tol in reports:
        assert run_report(argv, capsys)["config"]["tol"] == tol
    writers = [["gen", "--state", "bell"], ["apply", states["ghz3"], str(op_path)]]
    for argv in writers:
        assert run(argv, capsys)[0] == 0
    for argv in [argv for argv, _ in reports] + writers:
        code, out, err = run(argv + ["--tol", "1e-3"], capsys)
        assert code == 2
        assert out == ""
        assert "--tol" in err
    compare_lu, verify = reports[-2][0], reports[-1][0]
    assert run_report(compare_lu, capsys)["config"]["compare_tol"] == 1e-9
    assert run_report(verify, capsys)["config"]["residual_tol"] == 1e-8
    for argv, flag in ((compare_lu, "--compare-tol"), (verify, "--residual-tol")):
        code, out, err = run(argv + [flag, "1e-3"], capsys)
        assert (code, out) == (2, "")
        assert flag in err


@pytest.mark.parametrize("a, b, relation, witness", [
    ("ghz3", "w3", "inequivalent", {"kind": "class", "value_a": "GHZ", "value_b": "W"}),
    ("w3", "w3", "not-distinguished", None),
], ids=["ghz3-w3", "w3-w3"])
def test_compare_slocc_report(states, capsys, a, b, relation, witness):
    report = run_report(["compare-slocc", states[a], states[b]], capsys)
    assert report["relation"] == relation
    assert report["witness"] == witness


def test_family_report_three_qubits(states, capsys):
    report = run_report(["family", states["ghz3"]], capsys)
    assert report["kind"] == "F_S"
    assert report["class"] == "GHZ"
    assert report["value"] == pytest.approx(0.5, abs=1e-12)


def test_family_report_even_n(states, capsys):
    report = run_report(["family", states["ghz4"]], capsys)
    assert report["kind"] == "F_c"
    assert report["value"] == pytest.approx(0.5, abs=1e-12)
    assert "class" not in report
    assert report["config"]["rows"] is None


def test_apply_identity_is_byte_stable(states, tmp_path, capsys):
    op = LocalOperator(tuple(np.eye(2, dtype=complex) for _ in range(3)))
    op_path = tmp_path / "identity.json"
    op_path.write_text(serialize_operator(op))
    code, out, _ = run(["apply", states["ghz3"], str(op_path)], capsys)
    assert code == 0
    assert out == Path(states["ghz3"]).read_text()


def test_apply_hadamards(states, tmp_path, capsys):
    h = np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2)
    op_path = tmp_path / "h3.json"
    op_path.write_text(serialize_operator(LocalOperator((h, h, h))))
    out_path = tmp_path / "out.json"
    code, _, _ = run(
        ["apply", states["ghz3"], str(op_path), "-o", str(out_path)], capsys
    )
    assert code == 0
    doc = json.loads(out_path.read_text())
    amps = np.array([complex(re, im) for re, im in doc["amplitudes"]])
    expected = np.zeros(8, dtype=complex)
    expected[[0, 3, 5, 6]] = 0.5
    assert np.allclose(amps, expected, atol=1e-15)


def test_near_unitary_operator_applies_and_reads_back_unnormalized(
    states, tmp_path, capsys
):
    # Hadamards written with 9 digits pass the unitarity check (defect
    # 5.3e-10 < UNITARY_ATOL) but move the norm by 1.6e-9 >> NORM_ATOL:
    # the result is a valid, unnormalized state
    r = 0.707106781
    h = [[[r, 0.0], [r, 0.0]], [[r, 0.0], [-r, 0.0]]]
    op_path = tmp_path / "h9.json"
    op_path.write_text(json.dumps({"kind": "unitary", "factors": [h, h, h]}))
    out_path = tmp_path / "out.json"
    code, _, err = run(
        ["apply", states["ghz3"], str(op_path), "-o", str(out_path)], capsys
    )
    assert code == 0, err
    assert parse_state(out_path.read_text()).normalized is False
    report = run_report(["verify-congruence", states["ghz3"], str(op_path)], capsys)
    assert report["passed"] is True
    report = run_report(["invariants", str(out_path)], capsys)
    assert report["normalized"] is False
    assert report["ranks"] == [2, 2, 2]
    assert "powers" not in report["partitions"][0]
    assert "ntangle" not in report


def test_verify_congruence_report(states, tmp_path, capsys):
    op_path = tmp_path / "u.json"
    op_path.write_text(serialize_operator(random_local(3, "unitary", 11)))
    report = run_report(
        ["verify-congruence", states["ghz3"], str(op_path), "--power", "2"], capsys
    )
    assert report["passed"] is True
    assert report["residual"] < 1e-8
    assert abs(complex(*report["alpha"])) == pytest.approx(1.0, abs=1e-10)
    assert abs(complex(*report["beta"])) == pytest.approx(1.0, abs=1e-10)
    assert report["config"]["power"] == 2


def test_verify_congruence_vanishing_power_passes(states, tmp_path, capsys):
    # W3's rows {1} power 2 is zero on both sides; its rounding noise once
    # sat above an unscaled zero floor and read as residual 1.0
    op_path = tmp_path / "op3.json"
    op_path.write_text(serialize_operator(random_local(3, "invertible", 3)))
    report = run_report(
        ["verify-congruence", states["w3"], str(op_path), "--rows", "1", "--power", "2"], capsys
    )
    assert report["residual"] == 0.0
    assert report["passed"] is True
    assert report["config"]["tol"] is None


@pytest.mark.parametrize("power", [20, 40])
def test_verify_congruence_catches_a_corrupted_side(states, tmp_path, capsys, monkeypatch, power):
    # GHZ3's image under this operator shrinks below 1e-23 from power 20 on,
    # where an absolute residual once passed a zero or rescaled image
    op_path = tmp_path / "op89.json"
    op_path.write_text(serialize_operator(random_local(3, "invertible", 89)))
    argv = ["verify-congruence", states["ghz3"], str(op_path), "--power", str(power)]
    assert run_report(argv, capsys)["residual"] < 1e-11
    honest = invariants.apply_local
    ket0 = np.eye(1, 8).ravel()
    monkeypatch.setattr("spinflip.invariants.apply_local", lambda state, op: PureState(3, ket0))
    report = run_report(argv, capsys)
    assert report["residual"] == 1.0
    assert report["passed"] is False
    # scales the power-l side by exactly 1 + 1e-6, up to rounding
    gain = (1 + 1e-6) ** (1 / (2 * power))
    monkeypatch.setattr("spinflip.invariants.apply_local",
                        lambda state, op: PureState(3, gain * honest(state, op).amplitudes))
    report = run_report(argv, capsys)
    assert report["residual"] == pytest.approx(1e-6, rel=1e-3)
    assert report["passed"] is False


def test_verify_congruence_accepts_a_move_with_cancelling_entries(tmp_path, capsys):
    # the moved state's power-1 entries cancel far below its norm^2; their
    # rounding once read as a broken skew symmetry and exited 2
    state_path, op_path = tmp_path / "r7.json", tmp_path / "op7.json"
    gen = ["gen", "--random", "--n", "7", "--seed", "4743", "-o", str(state_path)]
    assert run(gen, capsys)[0] == 0
    op_path.write_text(serialize_operator(random_local(7, "invertible", 4744)))
    argv = ["verify-congruence", str(state_path), str(op_path), "--rows", "3,2", "--power", "1"]
    report = run_report(argv, capsys)
    assert report["passed"] is True
    assert report["residual"] < 1e-11


def test_verify_congruence_power_zero_exits_2(states, tmp_path, capsys):
    op_path = tmp_path / "u.json"
    op_path.write_text(serialize_operator(random_local(3, "unitary", 12)))
    code, out, err = run(
        ["verify-congruence", states["ghz3"], str(op_path), "--power", "0"], capsys
    )
    assert code == 2
    assert out == ""
    assert "power must be >= 1, got 0" in err


@pytest.mark.parametrize("name, op", [
    # W's high powers vanish, but beta^2000 overflows the prefactor
    ("w3", random_local(3, "invertible", 7)),
    # 3 I on every qubit overflows the transformed state's power stack
    ("ghz3", LocalOperator(np.full((3, 2, 2), 3.0) * np.eye(2), "invertible")),
])
def test_verify_congruence_out_of_range_power_exits_2(states, tmp_path, capsys, name, op):
    op_path = tmp_path / "op.json"
    op_path.write_text(serialize_operator(op))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(
            ["verify-congruence", states[name], str(op_path), "--power", "2000"], capsys
        )
    assert code == 2
    assert out == ""
    assert "floating-point range" in err


def test_boolean_and_empty_inputs_exit_2(states, tmp_path, capsys):
    # JSON true/false once read as 1.0/0.0: this file parsed as |0>, and an
    # operator of booleans as the identity, which apply wrote out with exit 0
    flags = tmp_path / "flags.json"
    flags.write_text('{"n": 1, "amplitudes": [[true, 0], [false, 0]]}')
    code, out, err = run(["invariants", str(flags)], capsys)
    assert (code, out) == (2, "") and "true or false" in err
    one, zero = "[true, false]", "[false, false]"
    eye = f"[[{one}, {zero}], [{zero}, {one}]]"
    for name, factors in (("bool-op", f"[{eye}, {eye}, {eye}]"), ("empty-op", "[]")):
        op_path = tmp_path / f"{name}.json"
        op_path.write_text(f'{{"kind": "unitary", "factors": {factors}}}')
        code, out, err = run(["apply", states["ghz3"], str(op_path)], capsys)
        assert (code, out) == (2, ""), name
        assert "Traceback" not in err


@pytest.mark.parametrize("command", ["invariants", "compare-lu", "compare-slocc"])
def test_one_qubit_file_without_rows_exits_2(command, tmp_path, capsys):
    # the default partition of one qubit does not exist; the error names n
    # instead of refusing a partition the user never gave
    one = tmp_path / "one.json"
    one.write_text(serialize_state(PureState(1, np.array([1, 0], dtype=complex))))
    files = [str(one)] * (1 if command == "invariants" else 2)
    code, out, err = run([command, *files], capsys)
    assert (code, out) == (2, "")
    assert "got n = 1" in err and "partition must pick" not in err


def test_exit_codes_for_bad_input(states, tmp_path, capsys):
    assert run(["invariants", str(tmp_path / "missing.json")], capsys)[0] == 2

    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert run(["invariants", str(bad)], capsys)[0] == 2

    short = tmp_path / "short.json"
    short.write_text('{"n": 2, "amplitudes": [[1, 0]]}')
    assert run(["classify", str(short)], capsys)[0] == 2

    inf = tmp_path / "inf.json"
    inf.write_text('{"n": 1, "amplitudes": [[Infinity, 0], [0, 0]]}')
    assert run(["invariants", str(inf)], capsys)[0] == 2

    assert run(["invariants", states["ghz3"], "--bogus"], capsys)[0] == 2
    assert run(["frobnicate"], capsys)[0] == 2
    assert run([], capsys)[0] == 2
    assert run(["invariants", states["ghz3"], "--rows", "1;2"], capsys)[0] == 2

    not_a_list = tmp_path / "factors5.json"
    not_a_list.write_text('{"kind": "unitary", "factors": 5}')
    assert run(["apply", states["ghz3"], str(not_a_list)], capsys)[0] == 2

    binary = tmp_path / "binary.json"
    binary.write_bytes(b"\xff\xfe\x00")
    assert run(["invariants", str(binary)], capsys)[0] == 2

    unwritable = str(tmp_path / "missing-dir" / "report.json")
    assert run(["classify", states["ghz3"], "-o", unwritable], capsys)[0] == 2

    code, out, err = run(["gen", "--random", "--n", "3", "--seed", "-1"], capsys)
    assert (code, out) == (2, "")
    assert "seed" in err and "Traceback" not in err


def test_report_determinism(states, tmp_path, capsys):
    argv = ["invariants", states["ghz3"], "--max-power", "3"]
    _, first, _ = run(argv, capsys)
    _, second, _ = run(argv, capsys)
    assert first == second

    out_path = tmp_path / "report.json"
    code, _, _ = run(argv + ["-o", str(out_path)], capsys)
    assert code == 0
    # -o echoes the path inside config, so only the config differs
    on_disk = json.loads(out_path.read_text())
    in_memory = json.loads(first)
    assert on_disk["config"]["output"] == str(out_path)
    on_disk["config"]["output"] = None
    assert on_disk == in_memory


GOLDEN_CASES = [
    (
        "invariants_ghz3.json",
        lambda s: ["invariants", s["ghz3"], "--rows", "1,2", "--max-power", "3"],
    ),
    ("classify_w.json", lambda s: ["classify", s["w3"]]),
    (
        "classify_acin_w1.json",
        lambda s: ["classify-acin", "--acin", "0.5,0.5,0.5,0.5,0"],
    ),
    ("compare_lu_w1_w2.json", lambda s: ["compare-lu", s["w1"], s["w2"]]),
    ("family_xi.json", lambda s: ["family", s["xi"]]),
]


@pytest.mark.parametrize("fname,argv_of", GOLDEN_CASES, ids=[c[0] for c in GOLDEN_CASES])
def test_golden_reports(fname, argv_of, states, capsys):
    golden = json.loads((GOLDEN_DIR / fname).read_text())
    _VALIDATOR.validate(golden)
    report = run_report(argv_of(states), capsys)
    assert report == golden


def test_report_config_is_closed():
    # config lists the keys commands emit and no placeholder beside them
    report = json.loads((GOLDEN_DIR / "classify_w.json").read_text())
    assert "seed" not in report["config"]
    report["config"]["seed"] = None
    assert not _VALIDATOR.is_valid(report)


def test_report_power_blocks_are_closed():
    # partition and power blocks list the keys commands emit; a stale
    # abs_det in either fails
    report = json.loads((GOLDEN_DIR / "invariants_ghz3.json").read_text())
    assert _VALIDATOR.is_valid(report)
    power = report["partitions"][0]["powers"][0]
    power["abs_det"] = 0
    assert not _VALIDATOR.is_valid(report)
    del power["abs_det"]
    report["partitions"][0]["abs_det"] = 0
    assert not _VALIDATOR.is_valid(report)


def test_golden_contents_independently():
    # the checked-in files must state the right answers on their own
    ghz3 = json.loads((GOLDEN_DIR / "invariants_ghz3.json").read_text())
    assert ghz3["ranks"] == [2, 2, 2]
    assert ghz3["ntangle"] == pytest.approx(0.25, abs=1e-15)
    sigma1 = ghz3["partitions"][0]["powers"][0]["singular_values"]
    assert sigma1 == pytest.approx([0.5, 0.5, 0, 0], abs=1e-15)

    w = json.loads((GOLDEN_DIR / "classify_w.json").read_text())
    assert w["class"] == "W"
    assert w["ranks"] == [2, 1, 0]

    acin = json.loads((GOLDEN_DIR / "classify_acin_w1.json").read_text())
    assert acin["class"] == "W"
    assert acin["s"] == pytest.approx(math.sqrt(0.125), abs=1e-15)

    lu = json.loads((GOLDEN_DIR / "compare_lu_w1_w2.json").read_text())
    assert lu["relation"] == "inequivalent"
    assert lu["witness"]["value_a"] == pytest.approx(0.25, abs=1e-12)
    assert lu["witness"]["value_b"] == pytest.approx(0.375, abs=1e-12)

    xi = json.loads((GOLDEN_DIR / "family_xi.json").read_text())
    assert xi["kind"] == "F_S"
    assert xi["class"] == "GHZ"
    assert xi["value"] == pytest.approx(math.sqrt(3) / 4, abs=1e-12)
