"""JSON/CSV serialization and label resolution shared by the CLI; a 6x6
label is read from phase_space's label table, an 8x8 one from clifford.OPERATORS.

Conventions: complex numbers serialize as two-element [re, im] arrays;
real matrices serialize as plain numbers (integers where the value is
integral, so signed permutation and Clifford matrices stay readable);
JSON reports are emitted with sorted keys, two-space indentation and a
trailing newline so identical inputs give byte-identical files, and never
contain NaN or Infinity.
"""

from __future__ import annotations

import json

import numpy as np

from . import clifford, phase_space

__all__ = [
    "to_jsonable",
    "dump_json",
    "matrix_to_csv",
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
    """Convert values (incl. numpy) to JSON-compatible data; a float or complex array in one pass."""
    if obj is None or isinstance(obj, str):
        return obj
    if isinstance(obj, np.ndarray):
        if obj.dtype.kind not in "fc":
            return to_jsonable(obj.tolist())
        if obj.dtype.kind == "c":
            obj = np.stack((obj.real, obj.imag), axis=-1) if np.any(obj.imag) else obj.real
        a = np.asarray(obj, dtype=np.float64)
        out = a.astype(object)
        whole = (a == np.trunc(a)) & (np.abs(a) < 2.0**53)  # the integer rule of _scalar_to_jsonable
        out[whole] = a[whole].astype(np.int64)
        return out.tolist()
    if isinstance(obj, dict):
        return {str(k): to_jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [to_jsonable(v) for v in obj]
    return _scalar_to_jsonable(obj)


def dump_json(obj) -> str:
    """Render obj deterministically as strict JSON.

    A NaN or infinite number raises ValueError: JSON has no such values.
    """
    return json.dumps(to_jsonable(obj), sort_keys=True, indent=2, allow_nan=False) + "\n"


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

EXPORT_LABELS = (
    phase_space.LABEL_HELP.replace(", or", ",") + "  (6x6 generators); "
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
        return "generator6", phase_space.resolve_generator6(label).matrix
    except ValueError:
        pass
    if label in clifford.OPERATORS:
        return "operator8", clifford.named_operator(label)
    raise ValueError(f"unknown export label {label!r}; known labels: {EXPORT_LABELS}")
