import json

import numpy as np
import pytest
from hypothesis import given, strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from phasequark.serialize import dump_json


# -- the per-element route, kept as the reference for the one-pass conversion --


def _reference_scalar(value):
    if isinstance(value, (bool, np.bool_)):
        return bool(value)
    if isinstance(value, (int, np.integer)):
        return int(value)
    if isinstance(value, (float, np.floating)):
        f = float(value)
        return int(f) if f.is_integer() and abs(f) < 2**53 else f
    if isinstance(value, (complex, np.complexfloating)):
        c = complex(value)
        return [_reference_scalar(c.real), _reference_scalar(c.imag)]
    raise TypeError(f"cannot serialize {type(value).__name__}")


def reference_to_jsonable(obj):
    """Recursively convert values (incl. numpy) to JSON-compatible data, element by element."""
    if obj is None or isinstance(obj, str):
        return obj
    if isinstance(obj, np.ndarray):
        if obj.dtype.kind == "c" and not np.any(obj.imag):
            obj = obj.real
        return [reference_to_jsonable(row) for row in obj.tolist()] if obj.ndim else _reference_scalar(obj[()])
    if isinstance(obj, dict):
        return {str(k): reference_to_jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [reference_to_jsonable(v) for v in obj]
    return _reference_scalar(obj)


def reference_dump_json(obj) -> str:
    return json.dumps(reference_to_jsonable(obj), sort_keys=True, indent=2, allow_nan=False) + "\n"


_EDGE_FLOATS = (0.0, -0.0, 2.0**53 - 1, -(2.0**53 - 1), 2.0**53, -(2.0**53), 1e308, -1e308,
                5e-324, -5e-324, 0.5, -2.5, 3.0)
_FLOATS = st.one_of(
    st.sampled_from(_EDGE_FLOATS),
    st.integers(-(2**60), 2**60).map(float),
    st.floats(allow_nan=False, allow_infinity=False),
)
_SHAPES = st.one_of(st.sampled_from([(), (0,), (2, 0)]), array_shapes(min_dims=1, max_dims=3, max_side=4))


@st.composite
def _arrays(draw):
    dtype = draw(st.sampled_from(["float64", "complex128", "int64", "bool"]))
    shape = draw(_SHAPES)
    if dtype == "float64":
        elements = _FLOATS
    elif dtype == "complex128":
        # Half the complex arrays have only zero imaginary parts, which serialize as reals.
        imag = draw(st.sampled_from([st.sampled_from([0.0, -0.0]), _FLOATS]))
        elements = st.builds(complex, _FLOATS, imag)
    elif dtype == "int64":
        elements = st.integers(-(2**63), 2**63 - 1)
    else:
        elements = st.booleans()
    return draw(arrays(dtype, shape, elements=elements))


@given(_arrays())
def test_array_conversion_matches_the_per_element_route(a):
    payload = {"array": a, "transposed": a.T, "scalar": a[(0,) * a.ndim] if a.size else None}
    assert dump_json(payload) == reference_dump_json(payload)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(1, np.nan), complex(np.inf, 0)])
@pytest.mark.parametrize("shape", [(), (3,), (2, 2)])
def test_non_finite_arrays_are_rejected_by_both_routes(bad, shape):
    a = np.zeros(shape, dtype=complex if isinstance(bad, complex) else float)
    a[(0,) * len(shape)] = bad
    for dump in (dump_json, reference_dump_json):
        with pytest.raises(ValueError):
            dump(a)
