"""Command-line front end.

Subcommands: verify, transform, spectrum, conjugate, export.  All output
is deterministic JSON (or CSV for matrix export): identical invocations
with the same --seed produce byte-identical bytes.  Exit codes: 0 when
every check passes / the command succeeds, 1 when a verification check
fails, 2 for usage or input errors (malformed flags, unknown labels, spec
files that are unreadable, not UTF-8, not valid JSON or nested too deeply,
a spectrum or transform output that overflows float64), each reported as a
JSON object {"error": ...} on stdout.

The parser is built on its first use and shared for the life of the process:
later main calls reuse it.  Each subcommand's handler returns its text and exit
code, and main writes the text once, to stdout or to --out.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import re
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .hamiltonian import HamiltonianSpec, conjugate_hamiltonian, build_hamiltonian, square_and_spectrum
from .phase_space import (LABEL_HELP, PhaseVector, apply_pairing, exp_generator, pairing,
                          pairing_tags, resolve_generator6)
from .serialize import dump_json, matrix_to_csv, resolve_export
from .verify import DEFAULT_SEED, SUITES, run_suite

__all__ = ["main", "build_parser"]


def _emit(text: str, out: str | None) -> None:
    if out:
        try:
            Path(out).write_text(text, encoding="utf-8")
        except OSError as exc:
            raise ValueError(f"cannot write --out file {out!r}: {exc}") from exc
    else:
        sys.stdout.write(text)


def _emit_error(message: str) -> int:
    _emit(dump_json({"error": message}), None)
    return 2


def _parse_vector6(text: str) -> list[float]:
    fields = text.split(",")
    try:
        values = [float(part) for part in fields]
    except ValueError as exc:
        raise ValueError(f"--input must be six comma-separated numbers: {exc}") from exc
    if len(values) != 6:
        raise ValueError(f"--input must be six finite comma-separated numbers, got {len(values)}")
    for name, field, value in zip(("p1", "p2", "p3", "x1", "x2", "x3"), fields, values):
        if not math.isfinite(value):
            raise ValueError(f"--input field {name} must be finite, got {field!r}")
    return values


def _unique_keys(pairs: list[tuple[str, object]]) -> dict:
    """A JSON object's dict; a key given twice is a KeyError, not last-wins."""
    out: dict = {}
    for key, value in pairs:
        if key in out:
            raise KeyError(key)
        out[key] = value
    return out


def _load_spec(path: str) -> HamiltonianSpec:
    try:
        raw = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ValueError(f"cannot read spec file {path!r}: {exc}") from exc
    try:
        data = json.loads(raw, object_pairs_hook=_unique_keys)
    except KeyError as exc:
        raise ValueError(f"duplicate key {exc.args[0]!r} in spec file") from None
    except ValueError as exc:  # malformed, or an integer past int's 4300-digit limit
        raise ValueError(f"spec file {path!r} is not valid JSON: {exc}") from exc
    except RecursionError:
        raise ValueError(f"spec file {path!r} is nested too deeply to parse") from None
    return HamiltonianSpec.from_dict(data)


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser whose usage errors reach main as ValueError (exit 2, JSON),
    and which reads "-" or "-." then a digit as a value, as Python 3.13 does, so
    "--angle -1e-3" and "--input -1,2,3,4,5,6" parse as their "=" forms do."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"-\.?\d")

    def error(self, message: str):
        raise ValueError(f"{self.prog}: {message}")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser of every subcommand.

    It is built on its first use and shared for the life of the process,
    so treat it as read-only; ``build_parser.__wrapped__()`` builds a
    fresh one.
    """
    parser = _Parser(
        prog="phasequark",
        description="Exact checks and transforms for the phase-space "
        "generator algebra and its 8x8 Dirac-style Hamiltonians.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    out = argparse.ArgumentParser(add_help=False)  # the --out of every subcommand
    out.add_argument("--out", default=None, help="write the output here instead of stdout")
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", parents=[out], help="run a named verification suite")
    p_verify.set_defaults(run=_cmd_verify)
    p_verify.add_argument("--suite", default="all", choices=("all",) + SUITES)
    p_verify.add_argument("--tol", type=float, default=None,
                          help="override every check tolerance")
    p_verify.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p_verify.add_argument("--timings", action="store_true",
                          help="add each check's wall time as elapsed_ms")

    p_tr = sub.add_parser("transform", parents=[out],
                          help="apply a pairing or a generator exponential")
    p_tr.set_defaults(run=_cmd_transform)
    group = p_tr.add_mutually_exclusive_group(required=True)
    group.add_argument("--pairing", default=None, metavar="TAG",
                       help=f"one of {', '.join(pairing_tags())}")
    group.add_argument("--generator", default=None, metavar="LABEL",
                       help=LABEL_HELP)
    p_tr.add_argument("--angle", type=float, default=None,
                      help="rotation angle for --generator")
    p_tr.add_argument("--input", required=True,
                      help="six comma-separated numbers p1,p2,p3,x1,x2,x3")

    p_sp = sub.add_parser("spectrum", parents=[out], help="eigenvalues and squared form of a spec")
    p_sp.set_defaults(run=_cmd_spectrum)
    p_sp.add_argument("spec_file", help="JSON Hamiltonian spec")

    p_cj = sub.add_parser("conjugate", parents=[out], help="charge conjugate a Dirac/colored spec")
    p_cj.set_defaults(run=_cmd_conjugate)
    p_cj.add_argument("spec_file", help="JSON Hamiltonian spec")

    p_ex = sub.add_parser("export", parents=[out], help="export a named matrix as JSON or CSV")
    p_ex.set_defaults(run=_cmd_export)
    p_ex.add_argument("label", help="e.g. F3, R, G(1,5), A1, B2, C, gamma5, pairing:R")
    p_ex.add_argument("--format", default="json", choices=("json", "csv"))

    return parser


def _cmd_verify(args: argparse.Namespace) -> tuple[str, int]:
    report = run_suite(args.suite, tol=args.tol, seed=args.seed, timings=args.timings)
    return dump_json(report.to_dict()), 0 if report.passed else 1


def _cmd_transform(args: argparse.Namespace) -> tuple[str, int]:
    values = _parse_vector6(args.input)
    if args.pairing is not None:
        if args.angle is not None:
            raise ValueError("--angle applies to --generator, not --pairing")
        scheme = pairing(args.pairing)
        result = apply_pairing(scheme, PhaseVector.from_array(values))
        payload = {
            "pairing": scheme.describe(),
            "input": values,
            "generalized_p": list(result.p),
            "generalized_x": list(result.x),
        }
    else:
        if args.angle is None:
            raise ValueError("--generator requires --angle")
        gen = resolve_generator6(args.generator)
        with np.errstate(over="ignore", invalid="ignore"):  # reported below, by generator
            moved = (exp_generator(gen, args.angle) @ values).tolist()
        if not all(map(math.isfinite, moved)):
            raise ValueError(f"transform by {gen.label} is not finite: 'output' overflows float64")
        payload = {
            "generator": gen.label,
            "angle": args.angle,
            "input": values,
            "output": moved,
        }
    return dump_json(payload), 0


def _finite(value) -> bool:
    """True when every number in a report value (None, or nested lists) is finite."""
    if isinstance(value, list):
        return all(map(_finite, value))
    return value is None or math.isfinite(value)


def _cmd_spectrum(args: argparse.Namespace) -> tuple[str, int]:
    spec = _load_spec(args.spec_file)
    report = square_and_spectrum(build_hamiltonian(spec)).to_dict()
    for field, value in report.items():
        if not _finite(value):
            raise ValueError(
                f"spectrum of the {spec.kind} spec is not finite: "
                f"{field!r} overflows float64"
            )
    return dump_json({"spec": spec.to_dict(), "spectrum": report}), 0


def _cmd_conjugate(args: argparse.Namespace) -> tuple[str, int]:
    spec = _load_spec(args.spec_file)
    matrix, conj_spec = conjugate_hamiltonian(spec)
    payload = {
        "input_spec": spec.to_dict(),
        "conjugated_spec": conj_spec.to_dict(),
        "matrix": matrix,
    }
    return dump_json(payload), 0


def _cmd_export(args: argparse.Namespace) -> tuple[str, int]:
    kind, matrix = resolve_export(args.label)
    if args.format == "csv":
        return matrix_to_csv(matrix), 0
    payload = {
        "label": args.label,
        "kind": kind,
        "shape": list(matrix.shape),
        "matrix": matrix,
    }
    return dump_json(payload), 0


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        text, code = args.run(args)  # each subcommand's handler, set by build_parser
        _emit(text, args.out)
        return code
    except ValueError as exc:
        return _emit_error(str(exc))


if __name__ == "__main__":
    sys.exit(main())
