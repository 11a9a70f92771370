import contextlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from phasequark import cli, verify
from phasequark.cli import main
from phasequark.hamiltonian import KINDS, _TABLE
from phasequark.phase_space import pairing_tags
from phasequark.verify import run_suite

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


def test_a_nan_residual_fails_with_exit_one_and_reads_null(monkeypatch, capsys):
    monkeypatch.setattr(verify, "_substitution",
                        lambda samples: np.full((1, 8, 8), np.nan))
    code, out = run_in_process(capsys, "verify", "--suite", "conjugation")
    assert code == 1
    report = strict_json(out)
    assert report["all_passed"] is False
    failed = {c["name"]: c["max_residual"] for c in report["checks"] if c["status"] == "fail"}
    assert failed == {"conjugation/colored-closed-forms": None, "conjugation/involution": None,
                      "conjugation/dirac-em": None}


def test_unknown_suite_is_usage_error():
    result = run_cli("verify", "--suite", "nope")
    assert result.returncode == 2


def test_missing_subcommand_is_usage_error():
    result = run_cli()
    assert result.returncode == 2


@pytest.mark.parametrize(
    "args,message",
    [
        pytest.param(["verify", "--samples", "50"], "unrecognized arguments: --samples 50",
                     id="removed-samples-flag"),
        pytest.param(["verify", "--bogus"], "unrecognized arguments: --bogus", id="unknown-flag"),
        pytest.param(["verify", "--seed", "x"], "invalid int value: 'x'", id="seed-not-int"),
        pytest.param([], "required: command", id="no-subcommand"),
        pytest.param(["export"], "required: label", id="export-no-label"),
    ],
)
def test_usage_errors_are_json_objects(args, message):
    result = run_cli(*args)
    assert result.returncode == 2
    assert message in strict_json(result.stdout)["error"]
    assert result.stderr == ""


def test_help_still_prints_usage_text(capsys):
    for args in (["--help"], ["verify", "--help"]):
        with pytest.raises(SystemExit) as exc:
            main(args)
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith("usage: phasequark")


# The exact error of each argv.
_ALL_COMMANDS = "'verify', 'transform', 'spectrum', 'conjugate', 'export'"
BAD_ARGV = [
    ([], "phasequark: the following arguments are required: command"),
    (["bogus"], f"phasequark: argument command: invalid choice: 'bogus' (choose from {_ALL_COMMANDS})"),
    (["-", "spectrum", "x"], f"phasequark: argument command: invalid choice: '-' (choose from {_ALL_COMMANDS})"),
    (["-1", "export", "A1"], f"phasequark: argument command: invalid choice: '-1' (choose from {_ALL_COMMANDS})"),
    (["spectrum"], "phasequark spectrum: the following arguments are required: spec_file"),
    (["spectrum", "a.json", "extra"], "phasequark: unrecognized arguments: extra"),
    (["verify", "--suite", "nope"],
     "phasequark verify: argument --suite: invalid choice: 'nope' "
     "(choose from 'all', 'su3', 'clifford', 'rotation', 'conjugation', 'composite')"),
    (["transform", "--pairing", "R"], "phasequark transform: the following arguments are required: --input"),
    (["transform", "--pairing", "R", "--generator", "F1", "--input=1,2,3,4,5,6"],
     "phasequark transform: argument --generator: not allowed with argument --pairing"),
    (["export", "A1", "--format", "xml"],
     "phasequark export: argument --format: invalid choice: 'xml' (choose from 'json', 'csv')"),
    (["export", "A1", "--version"], "phasequark: unrecognized arguments: --version"),
]


@pytest.mark.parametrize("argv,error", BAD_ARGV, ids=[" ".join(a) or "empty" for a, _ in BAD_ARGV])
def test_bad_argv_errors_are_pinned(capsys, argv, error):
    code, out = run_in_process(capsys, *argv)
    assert code == 2
    assert out == json.dumps({"error": error}, indent=2) + "\n"
    assert capsys.readouterr().err == ""


def _run_main(argv):
    """(exit or SystemExit code, stdout, stderr) of cli.main(argv) in this process."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def _verify_would_pass(argv) -> bool:
    """True when the full parser reads argv as a verify run at its default tolerance."""
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            args = cli.build_parser().parse_args(list(argv))
    except (ValueError, SystemExit):
        return False
    return args.command == "verify" and args.tol is None


_COMMAND_NAMES = ("verify", "transform", "spectrum", "conjugate", "export")
_FRAGMENTS = _COMMAND_NAMES + (
    "--suite", "su3", "all", "nope", "--tol", "1e-30", "nan", "--seed", "7", "-1",
    "--pairing", "R", "Y", "--generator", "F1", "G(1,5)", "--angle", "0.5", "--angle=x",
    "--input=1,2,3,4,5,6", "--input", "1,2", str(DATA / "color_r.json"),
    str(DATA / "dirac_em.json"), "missing.json", "A1", "pairing:R", "nolabel",
    "--format", "csv", "xml", "--out", str(DATA), "--bogus", "-x", "extra",
    "-", "--", "-h", "--help", "--version",
)
# Most argv name a command, first or after a word or two such as "-" or "-1".
_ARGV = st.one_of(
    st.lists(st.sampled_from(_FRAGMENTS), max_size=6),
    st.tuples(st.lists(st.sampled_from(_FRAGMENTS), max_size=2), st.sampled_from(_COMMAND_NAMES),
              st.lists(st.sampled_from(_FRAGMENTS), max_size=4)).map(lambda t: [*t[0], t[1], *t[2]]),
)


@settings(max_examples=300)
@given(argv=_ARGV)
def test_random_argv_exits_0_1_or_2_with_empty_stderr(argv):
    assume(not _verify_would_pass(argv))
    code, _, err = _run_main(argv)
    assert code in (0, 1, 2)
    assert err == ""


def test_build_parser_shares_one_parser():
    assert cli.build_parser() is cli.build_parser()
    assert cli.build_parser.__wrapped__() is not cli.build_parser()


_VALID_ARGV = (
    ["export", "A1"], ["export", "G(1,5)", "--format", "csv"], ["spectrum", str(DATA / "color_r.json")],
    ["conjugate", str(DATA / "dirac_em.json")], ["transform", "--pairing", "R", "--input=1,2,3,4,5,6"],
    ["verify", "--suite", "su3"],
)


@settings(max_examples=100)
@example(argvs=[["verify", "--samples", "5"], ["export", "-h"], ["--version"], ["bogus"],
                ["transform", "--pairing", "R", "--input=1,2,3,4,5,6"]])
@example(argvs=[["export", "A1", "--format", "xml"], ["-h"], ["export", "A1"], ["export", "A1"]])
@given(argvs=st.tuples(st.lists(_ARGV.filter(lambda argv: not _verify_would_pass(argv)),
                                min_size=1, max_size=5),
                       st.sampled_from(_VALID_ARGV)).map(lambda t: [*t[0], t[1]]))
def test_a_reused_parser_behaves_like_a_fresh_one(argvs):
    """A sequence of main calls in one process gives, at every step, what it gives
    when each call builds its own parser, after usage errors, -h and --version too."""
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)  # a drawn "--out extra" writes here
        try:
            reused = [_run_main(argv) for argv in argvs]
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(cli, "build_parser", cli.build_parser.__wrapped__)
                fresh = [_run_main(argv) for argv in argvs]
        finally:
            os.chdir(cwd)
    assert reused == fresh
    assert reused[-1][0] == 0


@settings(max_examples=300)
@example(argv=["spectrum", str(DATA / "color_r.json"), "extra"])
@example(argv=["export", "A1", "--version"])
@example(argv=["transform", "--", "--pairing", "R", "--input=1,2,3,4,5,6"])
@given(argv=_ARGV.filter(lambda argv: not _verify_would_pass(argv)))
def test_a_named_command_parses_as_the_full_parser_does(argv):
    """main reads an argv that starts with a command's name with that command's
    parser alone; it gives what the full parser gives, help and errors included."""
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)  # a drawn "--out extra" writes here
        try:
            dispatched = _run_main(argv)
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(cli.build_parser(), "commands", {})  # every argv takes the full parser
                full = _run_main(argv)
        finally:
            os.chdir(cwd)
    assert dispatched == full


@pytest.mark.parametrize("flag", ["-h", "--help"])
@pytest.mark.parametrize("command", _COMMAND_NAMES)
def test_help_after_a_command_is_the_full_parsers_help(monkeypatch, command, flag):
    dispatched = _run_main([command, flag])
    monkeypatch.setattr(cli.build_parser(), "commands", {})
    assert dispatched == _run_main([command, flag])
    assert dispatched[0] == 0 and dispatched[1].startswith(f"usage: phasequark {command} ")


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
        pytest.param("--tol", "nan", "tol must be", id="tol-nan"),
        pytest.param("--tol", "inf", "tol must be", id="tol-inf"),
        pytest.param("--tol", "-1", "tol must be", id="tol-negative"),
    ],
)
def test_verify_rejects_a_bad_tolerance(flag, value, message):
    result = run_cli("verify", "--suite", "su3", flag, value)
    assert result.returncode == 2
    assert message in strict_json(result.stdout)["error"]


def test_verify_rejects_a_negative_seed(capsys):
    code, out = run_in_process(capsys, "verify", "--suite", "su3", "--seed", "-1")
    assert code == 2
    assert "seed must be a non-negative integer" in strict_json(out)["error"]


@pytest.mark.parametrize("seed", [True, -1, 1.5, "7", None])
def test_run_suite_rejects_a_seed_that_is_not_a_non_negative_int(seed):
    with pytest.raises(ValueError, match="seed"):
        run_suite("clifford", seed=seed)


def test_run_suite_accepts_large_seeds():
    for seed in (0, 2**31 - 1, 2**64 + 5):
        assert run_suite("clifford", seed=seed).passed


@pytest.mark.parametrize("tol", [True, False, "1e-3", 1 + 0j, float("nan"), float("inf"), -1.0])
def test_run_suite_rejects_a_tol_that_is_not_a_finite_real_number(tol):
    with pytest.raises(ValueError, match="tol must be a finite number >= 0"):
        run_suite("clifford", tol=tol)


def test_run_suite_reads_any_real_tol_as_a_float():
    for tol in (np.float64(1e-3), Fraction(1, 1000), 0, 1e-3):
        assert {c.tolerance for c in run_suite("clifford", tol=tol).checks} == {float(tol)}


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


def test_over_nested_spec_is_input_error(capsys, tmp_path):
    spec = tmp_path / "deep.json"
    spec.write_text("[" * 100000 + "]" * 100000)
    for command in ("spectrum", "conjugate"):
        code, out = run_in_process(capsys, command, str(spec))
        assert code == 2
        error = f"spec file {str(spec)!r} is nested too deeply to parse"
        assert strict_json(out) == {"error": error}
        assert capsys.readouterr().err == ""


@pytest.mark.parametrize("content,error", [
    (b'{"kind": "Dirac", "m": \xff}', "cannot read spec file {!r}: 'utf-8' codec can't decode"),
    (b'{"kind": "Dirac", "m": 1' + b"0" * 5000 + b"}", "spec file {!r} is not valid JSON: "
                                                        "Exceeds the limit (4300 digits)"),
], ids=["non-utf8", "5000-digit-int"])
def test_unparsable_spec_file_error_names_the_file(capsys, tmp_path, content, error):
    spec = tmp_path / "spec.json"
    spec.write_bytes(content)
    code, out = run_in_process(capsys, "spectrum", str(spec))
    assert code == 2
    assert strict_json(out)["error"].startswith(error.format(str(spec)))
    assert capsys.readouterr().err == ""


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


@pytest.mark.parametrize("command,spec,fields", [
    ("conjugate", {"kind": "Dirac", "m": 1, "em": {"e": 1e308, "Avec": [1e308, 0, 0]}}, "'em'"),
    ("spectrum", {"kind": "Dirac", "em": {"e": 1e308, "A0": 1e308}}, "'em'"),
    # finite coefficients, but the conjugate's overflow
    ("conjugate", {"kind": "Dirac", "m": 1, "p": [1e308, 0, 0],
                   "em": {"e": 1, "Avec": [1e308, 0, 0]}}, "'p', 'em'"),
], ids=["conjugate-e-Avec", "spectrum-e-A0", "conjugate-flip-overflows"])
def test_overflowing_coefficients_are_input_errors(tmp_path, command, spec, fields):
    path = tmp_path / "overflow.json"
    path.write_text(json.dumps(spec))
    result = run_cli(command, str(path))
    assert result.returncode == 2
    assert result.stderr == ""
    assert strict_json(result.stdout) == {
        "error": f"coefficients of the Dirac spec overflow float64 in {fields}"}


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


def test_verify_timings_add_elapsed_ms_and_change_nothing_else(capsys):
    golden = (GOLDEN / "verify_conjugation_default.json").read_text()
    code, out = run_in_process(capsys, "verify", "--suite", "conjugation", "--timings")
    assert code == 0
    report = strict_json(out)
    elapsed = [check.pop("elapsed_ms") for check in report["checks"]]
    assert all(type(t) in (int, float) and math.isfinite(t) and t >= 0.0 for t in elapsed)
    assert report == json.loads(golden)
    assert run_in_process(capsys, "verify", "--suite", "conjugation") == (0, golden)


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


@pytest.mark.parametrize("spaced,joined", [
    (["--generator", "F1", "--angle", "-1e-3", "--input=1,2,3,4,5,6"],
     ["--generator", "F1", "--angle=-1e-3", "--input=1,2,3,4,5,6"]),
    (["--pairing", "R", "--input", "-1,2,3,4,5,6"], ["--pairing", "R", "--input=-1,2,3,4,5,6"]),
], ids=["angle", "input"])
def test_a_negative_number_may_follow_its_option(capsys, spaced, joined):
    joined_result = run_in_process(capsys, "transform", *joined)
    assert joined_result[0] == 0
    assert run_in_process(capsys, "transform", *spaced) == joined_result
    assert capsys.readouterr().err == ""


_NOT_A_FLOAT = "--input must be six comma-separated numbers: could not convert string to float: "


@pytest.mark.parametrize("text,error", [
    ("1 2,3,4,5,6,7", _NOT_A_FLOAT + "'1 2'"),
    ("1,2,3,,4,5,6", _NOT_A_FLOAT + "''"),
    (",1,2,3,4,5,6,", _NOT_A_FLOAT + "''"),
    ("", _NOT_A_FLOAT + "''"),
], ids=["space-inside-a-number", "empty-field", "leading-and-trailing-comma", "empty"])
def test_input_is_read_as_typed(capsys, text, error):
    assert run_in_process(capsys, "transform", "--pairing", "R", f"--input={text}") == (
        2, json.dumps({"error": error}, indent=2) + "\n")


_WRONG_COUNT = "--input must be six finite comma-separated numbers, got "


@pytest.mark.parametrize("text,error", [
    ("1,2,3,4,5,nan", "--input field x3 must be finite, got 'nan'"),
    ("inf,2,3,4,5,6", "--input field p1 must be finite, got 'inf'"),
    ("1,2, -Infinity ,4,5,6", "--input field p3 must be finite, got ' -Infinity '"),
    ("1,2,3,1e999,5,6", "--input field x1 must be finite, got '1e999'"),
    ("1,2,3", _WRONG_COUNT + "3"),
    ("1,2,3,4,5,nan,7", _WRONG_COUNT + "7"),
], ids=["nan", "inf", "spaced-infinity", "overflowing-literal", "short", "long-with-nan"])
def test_input_errors_name_the_field_or_the_count(capsys, text, error):
    for command in (["--pairing", "R"], ["--generator", "F1", "--angle", "1"]):
        assert run_in_process(capsys, "transform", *command, f"--input={text}") == (
            2, json.dumps({"error": error}, indent=2) + "\n")


def test_input_fields_may_carry_surrounding_spaces(capsys):
    code, out = run_in_process(capsys, "transform", "--pairing", "R", "--input= 1, 2, 3 ,4,5,6 ")
    assert code == 0
    assert strict_json(out)["input"] == [1, 2, 3, 4, 5, 6]


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


def test_overflowing_transform_names_its_generator(capsys):
    code, out = run_in_process(capsys, "transform", "--generator", "G(1,2)",
                               "--angle", "0.7853981633974483",
                               "--input=1.7e308,1.7e308,0,0,0,0")
    assert code == 2
    assert strict_json(out) == {
        "error": "transform by G(1,2) is not finite: 'output' overflows float64"}
    assert capsys.readouterr().err == ""


# the Dirac file and the three extreme specs of the benchmark's edge probe
EXTREME_SPECS = [
    json.loads((DATA / "dirac_extreme.json").read_text()),
    {"kind": "Dirac", "m": 1e308, "p": [1e308, 0.0, 0.0]},
    {"kind": "Custom", "a": [1e308, 0.0, 0.0], "b": [0.0, 1e308, 0.0], "beta": 0.0, "scalar": 0.0},
    {"kind": "ColorR", "m": 1e308, "p": [1e308, 0.0, 0.0], "x": [0.0, 1.0, 1.0]},
]


@pytest.mark.parametrize("spec", EXTREME_SPECS, ids=["dirac-1e200", "dirac", "custom", "color-r"])
def test_spectrum_of_extreme_specs_is_closed_form(capsys, tmp_path, spec):
    path = tmp_path / "extreme.json"
    path.write_text(json.dumps(spec))
    code = main(["spectrum", str(path)])
    captured = capsys.readouterr()
    assert (code, captured.err) == (0, "")
    report = strict_json(captured.out)["spectrum"]
    # s = 0 and r = |(a, b, beta)|: the eigenvalues are -r, fourfold, then +r
    r = math.hypot(*(v for key in ("p", "x", "a", "b") for v in spec.get(key, ())),
                   spec.get("m", 0.0), spec.get("beta", 0.0))
    expected = np.array([-r] * 4 + [r] * 4)
    assert np.abs(np.array(report["eigenvalues"]) - expected).max() <= 1e-12 * r
    assert report["scalar_square"] is None  # r^2 overflows float64


def test_non_finite_spectrum_names_kind_and_field(tmp_path):
    spec = tmp_path / "extreme.json"
    spec.write_text(json.dumps({"kind": "Custom", "scalar": 1e308, "a": [1e308, 0, 0]}))
    result = run_cli("spectrum", str(spec))
    assert result.returncode == 2
    assert result.stderr == ""
    error = strict_json(result.stdout)["error"]
    assert "Custom" in error and "'eigenvalues'" in error


def test_overflowing_scalar_residual_is_null(capsys, tmp_path):
    # s = |v| = 1e200: the eigenvalues 0 and 2e200 are representable, while
    # lam = s^2 + |v|^2 and the residual 2|s| max|H - s*1| overflow
    path = tmp_path / "dirac.json"
    path.write_text(json.dumps({"kind": "Dirac", "p": [1e200, 0, 0], "em": {"e": 1, "A0": 1e200}}))
    code = main(["spectrum", str(path)])
    captured = capsys.readouterr()
    assert (code, captured.err) == (0, "")
    report = strict_json(captured.out)["spectrum"]
    assert report["eigenvalues"] == [0] * 4 + [2e200] * 4
    assert report["scalar_square"] is None and report["scalar_residual"] is None


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


_OUT_ARGV = [  # every subcommand, and the exit code of each argv
    (["verify", "--suite", "su3"], 0),
    (["verify", "--suite", "su3", "--tol", "1e-30"], 1),
    (["transform", "--pairing", "R", "--input=1,2,3,4,5,6"], 0),
    (["transform", "--generator", "H2", "--angle", "0.5", "--input=1,2,3,4,5,6"], 0),
    (["spectrum", str(DATA / "qqbar_rest.json")], 0),
    (["conjugate", str(DATA / "dirac_em.json")], 0),
    (["export", "A1"], 0),
    (["export", "G(1,5)", "--format", "csv"], 0),
]


@pytest.mark.parametrize("argv,code", _OUT_ARGV, ids=[
    "verify", "verify-failing", "transform-pairing", "transform-generator", "spectrum",
    "conjugate", "export-json", "export-csv"])
def test_out_writes_what_the_command_prints(capsys, tmp_path, argv, code):
    assert main(argv) == code
    printed = capsys.readouterr()
    assert printed.err == ""
    target = tmp_path / "out"
    assert main([*argv, "--out", str(target)]) == code
    assert capsys.readouterr() == ("", "")
    assert target.read_bytes() == printed.out.encode("utf-8")
    unwritable = tmp_path / "missing" / "out"
    assert main([*argv, "--out", str(unwritable)]) == 2
    error = capsys.readouterr()
    assert error.err == "" and list(strict_json(error.out)) == ["error"]
    assert strict_json(error.out)["error"].startswith("cannot write --out file")
    assert not unwritable.exists()


def test_version_flag():
    result = run_cli("--version")
    assert result.returncode == 0
    assert "phasequark" in result.stdout


# -- the CLI contract at its input boundaries ----------------------------------
# Exit 0 or 2, no escaped exception, strict JSON on stdout, exactly {"error": str}
# on exit 2, and nothing on stderr (a NumPy warning included) for any input.

_EDGE_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-300, -1e-300,
                1e300, -1e300, 1e308, 1.7e308, 1.7976931348623157e308, -1.7976931348623157e308]
_EDGE_INTS = [2 ** 53 + 1, -(2 ** 53 + 1), 2 ** 63, 10 ** 308, 10 ** 309, -(10 ** 400)]
_FINITE = st.one_of(st.integers(-3, 3), st.floats(-4.0, 4.0), st.sampled_from(_EDGE_FLOATS),
                    st.sampled_from(_EDGE_INTS), st.floats(allow_nan=False, allow_infinity=False))
_NUMBERS = _FINITE | st.floats()  # NaN and infinities too
_VALUES = st.recursive(
    _NUMBERS | st.booleans() | st.none() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=3), inner,
                                                                max_size=3),
    max_leaves=6)


def _fields(number):
    """A strategy per spec key, its numbers drawn from number."""
    vector = st.lists(number, min_size=3, max_size=3)
    em = st.fixed_dictionaries({}, optional={"e": number, "A0": number, "Avec": vector})
    return {"m": number.map(abs), "beta": number, "scalar": number, "em": em,
            **{name: vector for name in ("p", "x", "pbar", "xbar", "a", "b", "P", "dx")}}


_NUMERIC_FIELDS = _fields(_FINITE)
_ANY_FIELDS = {name: field | _VALUES for name, field in _fields(_NUMBERS).items()}


_RARELY = st.integers(0, 9).map(lambda n: n == 4)  # one draw in ten, not at a bound


@st.composite
def _spec_text(draw):
    """JSON text of a spec of any kind, some fields left out, with junk values
    in some specs; now and then a foreign or duplicate key, a junk kind or no
    object at all."""
    if draw(_RARELY):
        return json.dumps(draw(_VALUES))
    kind = draw(_VALUES) if draw(_RARELY) else draw(st.sampled_from(KINDS))
    names = list(_TABLE[kind].fields) if kind in KINDS else []
    if kind == "QQbar" and draw(st.booleans()):
        names = ["m", "P", "dx"]
    strategies = _ANY_FIELDS if draw(_RARELY) else _NUMERIC_FIELDS
    pairs = [("kind", kind)] + [(n, draw(strategies[n])) for n in names if not draw(_RARELY)]
    if draw(_RARELY):
        pairs.append((draw(st.sampled_from(["kind", *_ANY_FIELDS])), draw(_VALUES)))
    return "{" + ", ".join(f"{json.dumps(k)}: {json.dumps(v)}" for k, v in pairs) + "}"


def _holds_the_contract(argv):
    """Run cli.main on argv in this process and check the CLI contract."""
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught, contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(err):
        warnings.simplefilter("always")
        code = main(argv)
    assert [str(w.message) for w in caught] == []
    assert err.getvalue() == ""
    payload = strict_json(out.getvalue())
    assert code in (0, 2)
    if code == 2:
        assert list(payload) == ["error"] and isinstance(payload["error"], str)


@settings(max_examples=200)
@given(text=_spec_text())
def test_spec_files_hold_the_cli_contract(text):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "spec.json"
        path.write_text(text, encoding="utf-8")
        for command in ("spectrum", "conjugate"):
            _holds_the_contract([command, str(path)])


def _number_text(v) -> str:
    return repr(v) if isinstance(v, float) else str(v)


_GENERATOR_LABELS = ([f"F{i}" for i in range(1, 9)] + ["R", "R1", "H2", "J3", "G(1,2)", "G(4,6)"]
                     + ["G(1,1)", "F9", "", "R\u00b2"])
_INPUT = (st.lists(_FINITE, min_size=6, max_size=6) | st.lists(_NUMBERS, min_size=5, max_size=7)).map(
    lambda values: "--input=" + ",".join(map(_number_text, values)))
_ANGLE = _NUMBERS.map(lambda v: "--angle=" + _number_text(v))


@settings(max_examples=150)
@example(argv=["transform", "--generator", "G(1,2)", "--angle=0.7853981633974483",
               "--input=1.7e308,1.7e308,0,0,0,0"])
@given(argv=st.one_of(
    st.tuples(st.just("--pairing"), st.sampled_from([*pairing_tags(), "Even(Q)", "Red"]),
              _INPUT, st.lists(_ANGLE, max_size=1)),
    st.tuples(st.just("--generator"), st.sampled_from(_GENERATOR_LABELS), _INPUT,
              st.lists(_ANGLE, min_size=1, max_size=1) | st.just([])),
).map(lambda t: ["transform", t[0], t[1], t[2], *t[3]]))
def test_transform_holds_the_cli_contract(argv):
    _holds_the_contract(argv)
