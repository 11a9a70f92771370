"""JSON/CSV serialization and label resolution shared by the CLI; a 6x6
label is read from phase_space's label table, an 8x8 one from clifford.OPERATORS.

Conventions: complex numbers serialize as two-element [re, im] arrays;
real matrices serialize as plain numbers (integers where the value is
integral, so signed permutation and Clifford matrices stay readable);
dump_json writes sorted keys, two-space indentation and a trailing newline
in one recursive pass (exact built-in types first, by identity, then their
subclasses and NumPy's; an array converted once by NumPy, joined by rows), so
identical inputs give byte-identical files, and never NaN or Infinity.
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
    t = type(obj)
    if t is float:
        if obj.is_integer() and abs(obj) < 2**53:  # a whole float prints as an int
            return repr(int(obj))
        if not math.isfinite(obj):
            raise ValueError(f"Out of range float values are not JSON compliant: {obj!r}")
        return repr(obj)
    if isinstance(obj, str):
        return encode_basestring_ascii(obj)
    if t is list or t is tuple:
        return _block("[]", [_render(v, indent + "  ") for v in obj], indent)
    if isinstance(obj, dict):
        if t is not dict or not all(type(k) is str for k in obj):  # else no key to re-key
            items = {str(k): v for k, v in obj.items()}
            if len(items) < len(obj):
                key = next(k for k in items if sum(str(o) == k for o in obj) > 1)
                raise ValueError(f"two keys of one object render as the JSON key {key!r}")
            obj = items
        return _block("{}", [f"{encode_basestring_ascii(k)}: {_render(obj[k], indent + '  ')}"
                             for k in sorted(obj)], indent)
    if t is bool or isinstance(obj, np.bool_):
        return "true" if obj else "false"
    if t is int or isinstance(obj, (int, np.integer)):  # bool is caught above
        return repr(int(obj))
    if obj is None:
        return "null"
    if isinstance(obj, (float, np.floating)):
        return _render(float(obj), indent)
    if isinstance(obj, (list, tuple)):
        return _render(list(obj), indent)
    if isinstance(obj, np.ndarray):
        if obj.dtype.kind not in "fc" or not obj.size:
            return _render(obj.tolist(), indent)
        if obj.dtype.kind == "c":
            obj = np.stack((obj.real, obj.imag), axis=-1) if np.any(obj.imag) else obj.real
        items = _numbers(a := np.asarray(obj, dtype=np.float64))
        for depth in range(a.ndim - 1, -1, -1):  # the innermost rows first, one join per row
            n, outer = a.shape[depth], indent + "  " * depth
            sep = ",\n  " + outer
            items = ["[\n  " + outer + sep.join(items[i * n:(i + 1) * n]) + "\n" + outer + "]"
                     for i in range(len(items) // n)]
        return items[0]
    if isinstance(obj, (complex, np.complexfloating)):
        return _render([obj.real, obj.imag], indent)
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def _numbers(a: np.ndarray) -> list[str]:
    """A float array's numbers in C order, printed as the float branch prints them."""
    if not np.isfinite(a).all():  # the first non-finite number raises as a float
        _render(float(a[~np.isfinite(a)][0]), "")
    out = a.astype(object)
    whole = (a == np.trunc(a)) & (np.abs(a) < 2.0**53)  # the float branch's integer rule
    out[whole] = a[whole].astype(np.int64)
    return list(map(repr, out.ravel().tolist()))


def dump_json(obj) -> str:
    """Render obj deterministically as strict JSON, in the layout of
    json.dumps(obj, sort_keys=True, indent=2) plus a trailing newline.

    A NaN or infinite number raises ValueError: JSON has no such values, and
    so do two keys of one dict that render as one string, such as 1 and "1".
    A type but JSON's, tuple, complex, ndarray and NumPy scalars raises TypeError."""
    return _render(obj, "") + "\n"


def matrix_to_csv(m: np.ndarray) -> str:
    """Rows of comma-separated entries, each number printed as dump_json prints
    it; complex entries printed as a+bi."""
    m = np.asarray(m)
    if m.ndim != 2:
        raise ValueError(f"CSV export is for matrices, got ndim={m.ndim}")
    if m.dtype.kind == "c" and np.any(m.imag):  # a+bi or a-bi, each part printed in cell order
        parts = _numbers(np.stack((m.real, m.imag), axis=-1).astype(float))
        cells = [re + (im if im[0] == "-" else "+" + im) + "i"
                 for re, im in zip(parts[::2], parts[1::2])]
    else:
        cells = _numbers(np.asarray(m.real, dtype=float))
    n = m.shape[1]
    return "".join(",".join(cells[i * n:(i + 1) * n]) + "\n" for i in range(m.shape[0]))


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
