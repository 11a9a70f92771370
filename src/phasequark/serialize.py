"""JSON/CSV serialization and label resolution shared by the CLI; a 6x6
label is read from phase_space's label table, an 8x8 one from clifford.OPERATORS.

Conventions: complex numbers serialize as two-element [re, im] arrays;
real matrices serialize as plain numbers (integers where the value is
integral, so signed permutation and Clifford matrices stay readable);
dump_json writes sorted keys, two-space indentation and a trailing newline:
one walk gathers each value's text in render order (an array's distinct numbers
formatted once) and the payload's shape key, and one % fills the layout text
cached for that key, so identical inputs give byte-identical files, and never
NaN or Infinity.
"""

from __future__ import annotations

import functools
import math
from json.encoder import encode_basestring_ascii

import numpy as np

from . import clifford, phase_space

__all__ = ["dump_json", "matrix_to_csv", "resolve_export", "EXPORT_LABELS"]


def _walk(obj, texts: list):
    """The shape key of obj: None for one value, the tuple of its items' keys for a list,
    ("{", sorted keys, their values' keys) for a dict and ("#", *shape) for a float array.
    The text of each value goes to texts, in render order."""
    t = type(obj)
    if t is float:
        texts.append(_number(obj))
    elif isinstance(obj, (list, tuple)):
        types = set(map(type, obj))  # a vector of floats or of strings: no call per item
        if {float} >= types or {str} == types:
            texts += map(_number if float in types else encode_basestring_ascii, obj)
            return (None,) * len(obj)
        return tuple([_walk(v, texts) for v in obj])
    elif isinstance(obj, dict):
        if t is not dict or not {str} >= set(map(type, obj)):  # else no key to re-key
            items = {str(k): v for k, v in obj.items()}
            if len(items) < len(obj):
                key = next(k for k in items if sum(str(o) == k for o in obj) > 1)
                raise ValueError(f"two keys of one object render as the JSON key {key!r}")
            obj = items
        keys = sorted(obj)
        return "{", tuple(keys), tuple([_walk(obj[k], texts) for k in keys])
    elif isinstance(obj, str):
        texts.append(encode_basestring_ascii(obj))
    elif t is bool or isinstance(obj, np.bool_):
        texts.append("true" if obj else "false")
    elif t is int or isinstance(obj, (int, np.integer)):  # bool is caught above
        texts.append(repr(int(obj)))
    elif obj is None:
        texts.append("null")
    elif isinstance(obj, (float, np.floating)):
        texts.append(_number(float(obj)))
    elif isinstance(obj, np.ndarray):
        if obj.dtype.kind not in "fc" or not obj.size:
            return _walk(obj.tolist(), texts)
        if obj.dtype.kind == "c":
            obj = _interleaved(obj) if np.any(obj.imag) else obj.real
        texts += _texts(obj)
        return ("#", *obj.shape)
    elif isinstance(obj, (complex, np.complexfloating)):
        return _walk([obj.real, obj.imag], texts)
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__}")
    return None


@functools.lru_cache(maxsize=256)
def _layout(key, indent: str) -> str:
    """The rendered text of a payload of this shape key at this indent, %s for each value."""
    if key is None or key == ("#",):
        return "%s"
    inner = indent + "  "
    if key[:1] == ("{",):  # a % in a key is escaped, as the layout is a % format
        brackets, items = "{}", [encode_basestring_ascii(k).replace("%", "%%") + ": " + _layout(v, inner)
                                 for k, v in zip(key[1], key[2])]
    elif key[:1] == ("#",):  # an array, by its shape: each row at the next indent
        brackets, items = "[]", [_layout(("#", *key[2:]), inner)] * key[1]
    else:
        brackets, items = "[]", [_layout(v, inner) for v in key]
    if not items:
        return brackets
    return brackets[0] + "\n" + inner + (",\n" + inner).join(items) + "\n" + indent + brackets[1]


def _number(v: float) -> str:
    if v.is_integer() and abs(v) < 2**53:  # a whole float prints as an int
        return repr(int(v))
    if not math.isfinite(v):
        raise ValueError(f"Out of range float values are not JSON compliant: {v!r}")
    return repr(v)


def _interleaved(m: np.ndarray) -> np.ndarray:
    """A complex array as a real one with a last axis of 2: re, im."""
    return np.ascontiguousarray(m).view(m.real.dtype).reshape(m.shape + (2,))


def _texts(a: np.ndarray) -> list[str]:
    """A real array's numbers in C order as _number prints them, each distinct value formatted
    once (equal floats have equal repr; 0.0, -0.0 print 0): a non-finite one raises at its first."""
    values = np.asarray(a, dtype=np.float64).ravel().tolist()
    text = {v: _number(v) for v in dict.fromkeys(values)}
    return list(map(text.__getitem__, values))


def dump_json(obj) -> str:
    """Render obj deterministically as strict JSON, in the layout of
    json.dumps(obj, sort_keys=True, indent=2) plus a trailing newline.

    A NaN or infinite number raises ValueError: JSON has no such values, and
    so do two keys of one dict that render as one string, such as 1 and "1".
    A type but JSON's, tuple, complex, ndarray and NumPy scalars raises TypeError."""
    texts: list[str] = []
    key = _walk(obj, texts)
    return _layout(key, "") % tuple(texts) + "\n"


def matrix_to_csv(m: np.ndarray) -> str:
    """Rows of comma-separated entries, each number printed as dump_json prints
    it; complex entries printed as a+bi."""
    m = np.asarray(m)
    if m.ndim != 2:
        raise ValueError(f"CSV export is for matrices, got ndim={m.ndim}")
    if m.dtype.kind == "c" and np.any(m.imag):  # a+bi or a-bi, each part printed in cell order
        parts = _texts(_interleaved(m))
        cells = [re + (im if im[0] == "-" else "+" + im) + "i" for re, im in zip(parts[::2], parts[1::2])]
    else:
        cells = _texts(m.real)
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
    if label in clifford.OPERATORS:  # no label is in both tables
        return "operator8", clifford.named_operator(label)
    try:
        return "generator6", phase_space.resolve_generator6(label).matrix
    except ValueError:
        raise ValueError(f"unknown export label {label!r}; known labels: {EXPORT_LABELS}") from None
