"""JSON/CSV serialization and label resolution shared by the CLI; a 6x6
label is read from phase_space's label table, an 8x8 one from clifford.OPERATORS.

Conventions: complex numbers serialize as two-element [re, im] arrays;
real matrices serialize as plain numbers (integers where the value is
integral, so signed permutation and Clifford matrices stay readable);
dump_json writes sorted keys, two-space indentation and a trailing newline
in one recursive pass (an array converted once by NumPy, joined by rows),
so identical inputs give byte-identical files, and never NaN or Infinity.
"""

from __future__ import annotations

import math
from json.encoder import encode_basestring_ascii

import numpy as np

from . import clifford, phase_space

__all__ = ["dump_json", "matrix_to_csv", "resolve_export", "EXPORT_LABELS"]


def _block(brackets: str, items: list[str], indent: str) -> str:
    """Rendered items one per line, indented one level below indent."""
    if not items:
        return brackets
    inner = indent + "  "
    return brackets[0] + "\n" + inner + (",\n" + inner).join(items) + "\n" + indent + brackets[1]


def _render(obj, indent: str) -> str:
    # the most frequent types first; bool before int, which it subclasses
    if isinstance(obj, (float, np.floating)):
        f = float(obj)
        if f.is_integer() and abs(f) < 2**53:  # a whole float prints as an int
            return repr(int(f))
        if not math.isfinite(f):
            raise ValueError(f"Out of range float values are not JSON compliant: {f!r}")
        return repr(f)
    if isinstance(obj, str):
        return encode_basestring_ascii(obj)
    if isinstance(obj, (list, tuple)):
        return _block("[]", [_render(v, indent + "  ") for v in obj], indent)
    if isinstance(obj, dict):
        items = {str(k): v for k, v in obj.items()}
        if len(items) < len(obj):
            key = next(k for k in items if sum(str(o) == k for o in obj) > 1)
            raise ValueError(f"two keys of one object render as the JSON key {key!r}")
        return _block("{}", [f"{encode_basestring_ascii(k)}: {_render(items[k], indent + '  ')}"
                             for k in sorted(items)], indent)
    if isinstance(obj, np.ndarray):
        if obj.dtype.kind not in "fc" or not obj.size:
            return _render(obj.tolist(), indent)
        if obj.dtype.kind == "c":
            obj = np.stack((obj.real, obj.imag), axis=-1) if np.any(obj.imag) else obj.real
        a = np.asarray(obj, dtype=np.float64)
        if not np.isfinite(a).all():  # the first non-finite number raises as a float
            _render(float(a[~np.isfinite(a)][0]), indent)
        out = a.astype(object)
        whole = (a == np.trunc(a)) & (np.abs(a) < 2.0**53)  # the float branch's integer rule
        out[whole] = a[whole].astype(np.int64)
        items = list(map(repr, out.ravel().tolist()))
        for depth in range(a.ndim - 1, -1, -1):  # the innermost rows first, one join per row
            n, outer = a.shape[depth], indent + "  " * depth
            sep = ",\n  " + outer
            items = ["[\n  " + outer + sep.join(items[i * n:(i + 1) * n]) + "\n" + outer + "]"
                     for i in range(len(items) // n)]
        return items[0]
    if obj is None:
        return "null"
    if isinstance(obj, (bool, np.bool_)):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return repr(int(obj))
    if isinstance(obj, (complex, np.complexfloating)):
        return _render([obj.real, obj.imag], indent)
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def dump_json(obj) -> str:
    """Render obj deterministically as strict JSON, in the layout of
    json.dumps(obj, sort_keys=True, indent=2) plus a trailing newline.

    A NaN or infinite number raises ValueError: JSON has no such values, and
    so do two keys of one dict that render as one string, such as 1 and "1".
    A type but JSON's, tuple, complex, ndarray and NumPy scalars raises TypeError."""
    return _render(obj, "") + "\n"


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
