import json
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from phasequark.cli import main
from phasequark.verify import MAX_SAMPLES, run_suite

HERE = Path(__file__).parent
DATA = HERE / "data"
GOLDEN = HERE / "golden"


def strict_json(text):
    """Parse text as JSON, failing on NaN and Infinity."""
    def reject(constant):
        raise AssertionError(f"non-strict JSON constant {constant}")

    return json.loads(text, parse_constant=reject)


def run_in_process(capsys, *args):
    """Run cli.main in this process; return (exit code, stdout)."""
    code = main(list(args))
    return code, capsys.readouterr().out


def run_cli(*args, **kwargs):
    return subprocess.run(
        [sys.executable, "-m", "phasequark", *args],
        capture_output=True,
        text=True,
        **kwargs,
    )


# -- exit-code contract ------------------------------------------------------


def test_verify_all_passes_with_exit_zero():
    result = run_cli("verify", "--suite", "all")
    assert result.returncode == 0
    report = json.loads(result.stdout)
    assert report["all_passed"] is True
    assert report["seed"] == 1729
    assert len(report["checks"]) == 32
    assert all(c["status"] == "pass" for c in report["checks"])


def test_unreachable_tolerance_fails_with_exit_one():
    result = run_cli("verify", "--suite", "clifford", "--tol", "1e-30")
    assert result.returncode == 1
    report = json.loads(result.stdout)
    assert report["all_passed"] is False
    failed = [c["name"] for c in report["checks"] if c["status"] == "fail"]
    assert "clifford/random-basis-similarity" in failed


def test_unknown_suite_is_usage_error():
    result = run_cli("verify", "--suite", "nope")
    assert result.returncode == 2


def test_missing_subcommand_is_usage_error():
    result = run_cli()
    assert result.returncode == 2


def test_malformed_spec_file_is_input_error(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    result = run_cli("spectrum", str(bad))
    assert result.returncode == 2
    assert "error" in json.loads(result.stdout)


def test_invalid_spec_fields_is_input_error(tmp_path):
    bad = tmp_path / "bad_kind.json"
    bad.write_text(json.dumps({"kind": "ColorR", "m": -1}))
    result = run_cli("spectrum", str(bad))
    assert result.returncode == 2
    assert "m must be" in json.loads(result.stdout)["error"]


@pytest.mark.parametrize(
    "spec",
    [
        {"kind": "ColorR", "m": "1"},
        {"kind": "Dirac", "m": True},
        {"kind": "Custom", "beta": "x"},
        {"kind": "Dirac", "em": {"charge": 1.0}},
    ],
)
def test_wrong_typed_spec_is_json_input_error(tmp_path, spec):
    bad = tmp_path / "bad_type.json"
    bad.write_text(json.dumps(spec))
    result = run_cli("conjugate", str(bad))
    assert result.returncode == 2
    error = json.loads(result.stdout)["error"]
    assert "must be" in error or "is not valid" in error
    assert "Traceback" not in result.stderr


@pytest.mark.parametrize(
    "flag,value,message",
    [
        pytest.param("--samples", "0", "samples must be >= 1", id="0"),
        pytest.param("--samples", "-3", "samples must be >= 1", id="-3"),
        pytest.param("--tol", "nan", "tol must be", id="tol-nan"),
        pytest.param("--tol", "inf", "tol must be", id="tol-inf"),
        pytest.param("--tol", "-1", "tol must be", id="tol-negative"),
    ],
)
def test_verify_rejects_non_positive_samples(flag, value, message):
    result = run_cli("verify", "--suite", "su3", flag, value)
    assert result.returncode == 2
    assert message in strict_json(result.stdout)["error"]


def test_verify_rejects_samples_above_the_cap(capsys):
    code, out = run_in_process(capsys, "verify", "--suite", "conjugation",
                               "--samples", "100000000")
    assert code == 2
    assert strict_json(out)["error"] == "samples must be <= 10000000, got 100000000"
    with pytest.raises(ValueError, match="samples"):
        run_suite("conjugation", samples=MAX_SAMPLES + 1)


def test_verify_rejects_a_negative_seed(capsys):
    code, out = run_in_process(capsys, "verify", "--suite", "su3", "--seed", "-1")
    assert code == 2
    assert "seed must be a non-negative integer" in strict_json(out)["error"]


@pytest.mark.parametrize("seed", [True, -1, 1.5, "7", None])
def test_run_suite_rejects_a_seed_that_is_not_a_non_negative_int(seed):
    with pytest.raises(ValueError, match="seed"):
        run_suite("clifford", seed=seed)


@pytest.mark.parametrize("samples", [True, 2.5, "3"])
def test_run_suite_rejects_samples_that_are_not_an_int(samples):
    with pytest.raises(ValueError, match="samples must be an integer"):
        run_suite("conjugation", samples=samples)


def test_run_suite_accepts_large_seeds():
    for seed in (0, 2**31 - 1, 2**64 + 5):
        assert run_suite("clifford", seed=seed).passed


@pytest.mark.parametrize(
    "text,key",
    [
        ('{"kind": "Dirac", "m": 1, "m": 2}', "m"),
        ('{"kind": "Dirac", "m": 1, "em": {"e": 1, "A0": 0.5, "e": 2}}', "e"),
    ],
    ids=["top-level", "em"],
)
def test_duplicate_spec_keys_are_input_errors(capsys, tmp_path, text, key):
    spec = tmp_path / "dup.json"
    spec.write_text(text)
    for command in ("spectrum", "conjugate"):
        code, out = run_in_process(capsys, command, str(spec))
        assert code == 2
        assert strict_json(out)["error"] == f"duplicate key {key!r} in spec file"


def test_unwritable_out_path_is_json_input_error(tmp_path):
    target = tmp_path / "missing" / "x.json"
    result = run_cli("export", "A1", "--out", str(target))
    assert result.returncode == 2
    assert "cannot write" in json.loads(result.stdout)["error"]
    assert "Traceback" not in result.stderr
    assert not target.exists()


def test_unknown_export_label_is_input_error():
    result = run_cli("export", "Q7")
    assert result.returncode == 2
    # the 8x8 labels are listed in the order of clifford.OPERATORS
    assert ("; A1, A2, A3, B, B1, B2, B3, C, gamma5, gammaR5, gammaY5, gammaB5  (8x8 operators);"
            in strict_json(result.stdout)["error"])


@pytest.mark.parametrize("command,spec", [
    ("conjugate", {"kind": "Dirac", "m": 1, "em": {"e": 1e308, "Avec": [1e308, 0, 0]}}),
    ("spectrum", {"kind": "Dirac", "em": {"e": 1e308, "A0": 1e308}}),
], ids=["conjugate-e-Avec", "spectrum-e-A0"])
def test_overflowing_coefficients_are_input_errors(tmp_path, command, spec):
    path = tmp_path / "overflow.json"
    path.write_text(json.dumps(spec))
    result = run_cli(command, str(path))
    assert result.returncode == 2
    assert result.stderr == ""
    error = strict_json(result.stdout)["error"]
    assert "Dirac" in error and "'em'" in error


def test_transform_rejects_short_input():
    result = run_cli("transform", "--pairing", "R", "--input", "1,2,3")
    assert result.returncode == 2


def test_transform_generator_requires_angle():
    result = run_cli("transform", "--generator", "F2", "--input", "1,2,3,4,5,6")
    assert result.returncode == 2


# -- determinism -------------------------------------------------------------


def test_reports_are_byte_identical_for_same_seed():
    first = run_cli("verify", "--suite", "composite", "--seed", "7")
    second = run_cli("verify", "--suite", "composite", "--seed", "7")
    assert first.returncode == second.returncode == 0
    assert first.stdout == second.stdout
    different = run_cli("verify", "--suite", "composite", "--seed", "8")
    assert different.stdout != first.stdout


# -- golden files -------------------------------------------------------------


@pytest.mark.parametrize(
    "golden,args",
    [
        ("verify_su3_default.json", ("verify", "--suite", "su3")),
        ("spectrum_qqbar_rest.json", ("spectrum", str(DATA / "qqbar_rest.json"))),
        ("conjugate_color_r.json", ("conjugate", str(DATA / "color_r.json"))),
        (
            "transform_pairing_r.json",
            ("transform", "--pairing", "R", "--input", "1,2,3,4,5,6"),
        ),
        ("export_a1.json", ("export", "A1")),
        ("verify_composite_default.json", ("verify", "--suite", "composite")),
        ("verify_conjugation_default.json", ("verify", "--suite", "conjugation")),
        ("verify_clifford_default.json", ("verify", "--suite", "clifford")),
        ("verify_rotation_default.json", ("verify", "--suite", "rotation")),
    ],
)
def test_golden_outputs(golden, args):
    result = run_cli(*args)
    assert result.returncode == 0
    assert result.stdout == (GOLDEN / golden).read_text()


# -- behavior spot checks ------------------------------------------------------


def test_transform_pairing_red_example():
    result = run_cli("transform", "--pairing", "R", "--input", "1,2,3,4,5,6")
    payload = json.loads(result.stdout)
    assert payload["generalized_p"] == [1, 5, -6]
    assert payload["generalized_x"] == [4, -2, 3]


def test_transform_generator_examples():
    identity = run_cli("transform", "--generator", "F2", "--angle", "0",
                       "--input", "1,2,3,4,5,6")
    assert json.loads(identity.stdout)["output"] == [1, 2, 3, 4, 5, 6]
    quarter = run_cli("transform", "--generator", "R", "--angle",
                      "1.5707963267948966", "--input", "1,0,0,0,0,0")
    assert json.loads(quarter.stdout)["output"] == [0, 0, 0, 1, 0, 0]


@pytest.mark.parametrize("label", ["F1", "F8"])
@pytest.mark.parametrize("angle", ["1e20", "1e300"])
def test_transform_at_huge_angle_keeps_the_norm(capsys, label, angle):
    code, out = run_in_process(capsys, "transform", "--generator", label,
                               "--angle", angle, "--input", "1,2,3,4,5,6")
    assert code == 0
    payload = strict_json(out)
    norm_in = math.sqrt(sum(v * v for v in payload["input"]))
    norm_out = math.sqrt(sum(v * v for v in payload["output"]))
    assert abs(norm_out - norm_in) <= 1e-12 * norm_in


def test_spectrum_of_extreme_spec_is_strict_json(capsys, tmp_path):
    spec = tmp_path / "extreme.json"
    spec.write_text(json.dumps({"kind": "Dirac", "m": 1e308, "p": [1e308, 0, 0]}))
    code, out = run_in_process(capsys, "spectrum", str(spec))
    assert code in (0, 2)
    payload = strict_json(out)
    assert code == 0 or "error" in payload


def test_non_finite_spectrum_names_kind_and_field(tmp_path):
    spec = tmp_path / "extreme.json"
    spec.write_text(json.dumps({"kind": "Dirac", "m": 1e308, "p": [1e308, 0, 0]}))
    result = run_cli("spectrum", str(spec))
    assert result.returncode == 2
    assert result.stderr == ""
    error = strict_json(result.stdout)["error"]
    assert "Dirac" in error and "'degeneracies'" in error


def test_spectrum_rest_frame_values():
    result = run_cli("spectrum", str(DATA / "qqbar_rest.json"))
    payload = json.loads(result.stdout)
    assert payload["spectrum"]["scalar_square"] == 36
    assert payload["spectrum"]["eigenvalues"] == [-6, -6, -6, -6, 6, 6, 6, 6]


def test_conjugate_dirac_em_flips_charge():
    result = run_cli("conjugate", str(DATA / "dirac_em.json"))
    payload = json.loads(result.stdout)
    assert payload["conjugated_spec"]["em"]["e"] == -1.25
    assert payload["input_spec"]["em"]["e"] == 1.25


def test_export_csv_format():
    result = run_cli("export", "A1", "--format", "csv")
    assert result.returncode == 0
    rows = result.stdout.strip().split("\n")
    assert len(rows) == 8
    assert set(",".join(rows).split(",")) == {"0", "1"}
    gmatrix = run_cli("export", "G(1,5)", "--format", "csv")
    assert gmatrix.stdout.splitlines()[0] == "0,0,0,0,1,0"


@pytest.mark.parametrize("label", [
    "A1", "A2", "A3", "B", "B1", "B2", "B3", "C", "gamma5", "gammaR5", "gammaY5", "gammaB5",
])
def test_export_operator_matches_literal_matrix(capsys, literal_operators, label):
    code, out = run_in_process(capsys, "export", label)
    assert code == 0
    payload = strict_json(out)
    assert (payload["kind"], payload["shape"]) == ("operator8", [8, 8])
    matrix = np.array([[complex(*v) if isinstance(v, list) else v for v in row]
                       for row in payload["matrix"]])
    assert np.array_equal(matrix, literal_operators[label])


def test_export_pairing_matrix():
    result = run_cli("export", "pairing:R")
    payload = json.loads(result.stdout)
    assert payload["kind"] == "pairing"
    assert payload["matrix"][0] == [1, 0, 0, 0, 0, 0]
    assert payload["matrix"][1] == [0, 0, 0, 0, 1, 0]


def test_out_flag_writes_file(tmp_path):
    target = tmp_path / "report.json"
    result = run_cli("verify", "--suite", "su3", "--out", str(target))
    assert result.returncode == 0
    assert result.stdout == ""
    assert target.read_text() == (GOLDEN / "verify_su3_default.json").read_text()


def test_version_flag():
    result = run_cli("--version")
    assert result.returncode == 0
    assert "phasequark" in result.stdout
