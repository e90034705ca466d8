"""End-to-end tests of the command-line interface and its JSON reports."""

import json
import math
import warnings
from importlib import resources
from pathlib import Path

import jsonschema
import numpy as np
import pytest

from spinflip import LocalOperator, parse_state, random_local, serialize_operator
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
    assert run(["gen", "--random"], capsys)[0] == 2
    assert run(["gen", "--acin", "0.5,0.5"], capsys)[0] == 2
    assert run(["gen", "--acin", "a,b,c,d,e"], capsys)[0] == 2


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
    assert powers[0]["abs_det"] == pytest.approx(0.0, abs=1e-15)


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


def test_compare_slocc_report(states, capsys):
    report = run_report(["compare-slocc", states["ghz3"], states["w3"]], capsys)
    assert report["relation"] == "inequivalent"
    assert report["witness"]["kind"] == "ntangle"
    assert report["witness"]["value_a"] == pytest.approx(0.25, abs=1e-12)
    assert report["witness"]["value_b"] == pytest.approx(0.0, abs=1e-12)


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

    # same run with an absurdly small threshold flips the verdict only
    strict = run_report(
        [
            "verify-congruence", states["ghz3"], str(op_path),
            "--power", "2", "--residual-tol", "1e-30",
        ],
        capsys,
    )
    assert strict["passed"] is False
    assert strict["residual"] == report["residual"]


def test_verify_congruence_power_zero_exits_2(states, tmp_path, capsys):
    op_path = tmp_path / "u.json"
    op_path.write_text(serialize_operator(random_local(3, "unitary", 12)))
    code, out, err = run(
        ["verify-congruence", states["ghz3"], str(op_path), "--power", "0"], capsys
    )
    assert code == 2
    assert out == ""
    assert "power must be >= 1, got 0" in err


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
