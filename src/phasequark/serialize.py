"""JSON/CSV serialization and label resolution shared by the CLI.

Conventions: complex numbers serialize as two-element [re, im] arrays;
real matrices serialize as plain numbers (integers where the value is
integral, so signed permutation and Clifford matrices stay readable);
JSON reports are emitted with sorted keys, two-space indentation and a
trailing newline so identical inputs give byte-identical files, and never
contain NaN or Infinity.
"""

from __future__ import annotations

import json
import re
from typing import IO

import numpy as np

from . import clifford, phase_space

__all__ = [
    "to_jsonable",
    "dump_json",
    "matrix_to_csv",
    "resolve_generator6",
    "resolve_operator8",
    "resolve_export",
    "EXPORT_LABELS",
]


def _scalar_to_jsonable(value):
    if isinstance(value, (bool, np.bool_)):
        return bool(value)
    if isinstance(value, (int, np.integer)):
        return int(value)
    if isinstance(value, (float, np.floating)):
        f = float(value)
        return int(f) if f.is_integer() and abs(f) < 2**53 else f
    if isinstance(value, (complex, np.complexfloating)):
        c = complex(value)
        return [_scalar_to_jsonable(c.real), _scalar_to_jsonable(c.imag)]
    raise TypeError(f"cannot serialize {type(value).__name__}")


def to_jsonable(obj):
    """Recursively convert values (incl. numpy) to JSON-compatible data."""
    if obj is None or isinstance(obj, str):
        return obj
    if isinstance(obj, np.ndarray):
        if obj.dtype.kind == "c" and not np.any(obj.imag):
            obj = obj.real
        return [to_jsonable(row) for row in obj.tolist()] if obj.ndim else _scalar_to_jsonable(obj[()])
    if isinstance(obj, dict):
        return {str(k): to_jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [to_jsonable(v) for v in obj]
    return _scalar_to_jsonable(obj)


def dump_json(obj, stream: IO[str] | None = None) -> str:
    """Render obj deterministically as strict JSON; optionally also write it to stream.

    A NaN or infinite number raises ValueError: JSON has no such values.
    """
    text = json.dumps(to_jsonable(obj), sort_keys=True, indent=2, allow_nan=False) + "\n"
    if stream is not None:
        stream.write(text)
    return text


def _csv_number(value: float) -> str:
    return str(int(value)) if float(value).is_integer() else repr(float(value))


def matrix_to_csv(m: np.ndarray) -> str:
    """Rows of comma-separated entries; complex entries printed as a+bi."""
    m = np.asarray(m)
    if m.ndim != 2:
        raise ValueError(f"CSV export is for matrices, got ndim={m.ndim}")
    lines = []
    complex_valued = m.dtype.kind == "c" and bool(np.any(m.imag))
    for row in m:
        cells = []
        for value in row:
            if complex_valued:
                c = complex(value)
                sign = "+" if c.imag >= 0 else "-"
                cells.append(f"{_csv_number(c.real)}{sign}{_csv_number(abs(c.imag))}i")
            else:
                cells.append(_csv_number(complex(value).real))
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Label resolution
# ---------------------------------------------------------------------------

_G_LABEL = re.compile(r"^G\((\d),(\d)\)$")


def resolve_generator6(label: str) -> phase_space.Generator6:
    """Resolve a 6x6 generator label: F1..F8, R, R1..R3, H1..H3, J1..J3, G(m,n)."""
    match = _G_LABEL.match(label)
    if match:
        return phase_space.build_G(int(match.group(1)), int(match.group(2)))
    if label == "R":
        return phase_space.build_R()
    families = {"F": phase_space.build_F, "R": phase_space.build_R,
                "H": phase_space.build_H, "J": phase_space.build_J}
    if len(label) == 2 and label[0] in families and label[1].isdigit():
        return families[label[0]](int(label[1]))
    raise ValueError(
        f"unknown generator label {label!r}; expected F1..F8, R, R1..R3, "
        f"H1..H3, J1..J3, or G(m,n)"
    )


def resolve_operator8(label: str) -> np.ndarray:
    """Resolve an 8x8 operator label, a name of clifford.OPERATORS."""
    try:
        return clifford.named_operator(label)
    except KeyError:
        raise ValueError(
            f"unknown operator label {label!r}; expected one of "
            f"{', '.join(clifford.OPERATORS)}"
        ) from None


EXPORT_LABELS = (
    "F1..F8, R, R1..R3, H1..H3, J1..J3, G(m,n)  (6x6 generators); "
    + ", ".join(clifford.OPERATORS) + "  (8x8 operators); "
    "pairing:TAG for TAG in " + ", ".join(phase_space.pairing_tags())
)


def resolve_export(label: str) -> tuple[str, np.ndarray]:
    """Resolve any exportable label to (kind, matrix).

    kind is one of "generator6", "operator8", "pairing".
    """
    if label.startswith("pairing:"):
        return "pairing", phase_space.pairing(label[len("pairing:"):]).matrix()
    try:
        return "generator6", resolve_generator6(label).matrix
    except ValueError:
        pass
    try:
        return "operator8", resolve_operator8(label)
    except ValueError:
        pass
    raise ValueError(f"unknown export label {label!r}; known labels: {EXPORT_LABELS}")
