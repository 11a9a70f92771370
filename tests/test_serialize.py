import json
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from phasequark import clifford, phase_space
from phasequark.serialize import dump_json, matrix_to_csv, resolve_export


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


def reference_matrix_to_csv(m) -> str:
    """The CSV of a matrix, cell by cell: a+bi or a-bi when any imaginary part is nonzero."""
    m = np.asarray(m)
    parts = m.dtype.kind == "c" and np.any(m.imag)

    def number(x):
        return json.dumps(_reference_scalar(float(x)))

    def cell(z):
        if not parts:
            return number(z.real)
        im = number(z.imag)
        return number(z.real) + ("" if im[0] == "-" else "+") + im + "i"

    return "".join(",".join(cell(z) for z in row) + "\n" for row in m)


@given(_arrays())
def test_array_conversion_matches_the_per_element_route(a):
    # one array at depth 1 and at depth 3: a layout cached without its indent fails here
    payload = {"array": a, "transposed": a.T, "scalar": a[(0,) * a.ndim] if a.size else None,
               "nested": [[a]]}
    assert dump_json(payload) == reference_dump_json(payload)
    if a.ndim == 2:  # CSV after JSON of the same shape
        assert matrix_to_csv(a) == reference_matrix_to_csv(a)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(1, np.nan), complex(np.inf, 0)])
@pytest.mark.parametrize("shape", [(), (3,), (2, 2)])
def test_non_finite_arrays_are_rejected_by_both_routes(bad, shape):
    a = np.zeros(shape, dtype=complex if isinstance(bad, complex) else float)
    a[(0,) * len(shape)] = bad
    for dump in (dump_json, reference_dump_json):
        with pytest.raises(ValueError):
            dump(a)


# -- arrays that repeat values: each distinct number is formatted once per array --


@st.composite
def _repeating_arrays(draw):
    """Arrays whose values come from a pool of at most seven: 0.0 and -0.0, x and -x
    for a whole and a non-whole x, and +-2**53, each array C-ordered or transposed."""
    x, w = draw(_FLOATS.filter(lambda v: not v.is_integer())), float(draw(st.integers(-99, 99)))
    pool = [0.0, -0.0, x, -x, w, -w, draw(st.sampled_from([2.0**53, -(2.0**53)]))]
    dtype = draw(st.sampled_from(["float64", "complex128", "complex64"]))
    values = st.sampled_from(pool)
    elements = values if dtype == "float64" else st.builds(complex, values, values)
    a = draw(arrays(dtype, array_shapes(min_dims=1, max_dims=3, max_side=5), elements=elements))
    return a.T if draw(st.booleans()) else a


@given(_repeating_arrays())
def test_repeated_values_match_the_per_element_route(a):
    assert dump_json({"array": a, "nested": [a]}) == reference_dump_json({"array": a, "nested": [a]})
    if a.ndim == 2:
        assert matrix_to_csv(a) == reference_matrix_to_csv(a)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("dtype", ["float64", "complex128", "complex64"])
def test_a_non_finite_number_after_repeated_ones_raises_as_the_per_element_route(bad, dtype):
    a = np.array([[0.5, -0.5, 0.5], [-0.5, bad, -np.inf]], dtype=dtype)
    if dtype != "float64":
        a = a + 0.25j  # every imaginary part nonzero, so each part is printed in cell order
    errors = set()
    for route in (dump_json, reference_dump_json, matrix_to_csv):  # the CSV reference prints NaN
        with pytest.raises(ValueError) as excinfo:
            route(a)
        errors.add(str(excinfo.value))
    assert errors == {f"Out of range float values are not JSON compliant: {float(bad)!r}"}


# -- whole payload trees: every type dump_json takes, at any depth --

# subclasses of the built-in types, which dump_json renders as their base types
class _Str(str):
    pass


class _Int(int):
    pass


class _Float(float):
    pass


class _Dict(dict):
    pass


class _Pair(NamedTuple):
    first: object
    second: object


# control characters, non-ASCII, astral, quotes, a lone surrogate, and % formats: a key's
# text goes into a layout that % fills, so a % in it must print as itself
_TEXT = st.one_of(st.text(), st.sampled_from(
    ["", "\x00\x1f\x7f", "caf\u00e9", "\u2028", "\U0001d11e", '"\\/', "\ud800", "%", "%s", "%(x)s"]))
_LEAVES = st.one_of(
    st.none(),
    _TEXT,
    st.booleans(),
    st.booleans().map(np.bool_),
    st.integers(-(2**70), 2**70),
    st.sampled_from([2**63, -(2**63) - 1, 10**30]),
    st.integers(-(2**63), 2**63 - 1).map(np.int64),
    st.integers(0, 255).map(np.uint8),
    _FLOATS,
    st.sampled_from([2.0**53 + 2, -(2.0**53 + 2)]),
    # equal and of equal hash, but printed differently: a text memo keyed by value mixes them up
    st.sampled_from([True, 1, 1.0, 2**53, 2.0**53, -0.0]),
    _FLOATS.map(np.float64),
    st.floats(width=32, allow_nan=False, allow_infinity=False).map(np.float32),
    st.builds(complex, _FLOATS, _FLOATS),
    st.builds(complex, _FLOATS, _FLOATS).map(np.complex128),
    _arrays(),
    _TEXT.map(_Str),
    _TEXT.map(np.str_),
    st.integers(-(2**70), 2**70).map(_Int),
    _FLOATS.map(_Float),
)
_KEYS = st.one_of(_TEXT, st.integers(), st.booleans(), st.floats(), st.none(),
                  _TEXT.map(_Str), _TEXT.map(np.str_), st.integers().map(_Int),
                  st.floats().map(_Float), _FLOATS.map(np.float64),
                  st.integers(-(2**63), 2**63 - 1).map(np.int64))

# Hypothesis renders a strategy's repr when a filter in it retries, such as the
# unique keys of a dict, and a tree strategy holds every level below it.  The
# composites below print as their own name, so that repr stays short however
# many leaf strategies and levels the trees hold.


@st.composite
def _leaf(draw):
    return draw(_LEAVES)


def _dicts(children):
    """Dicts whose keys render as distinct strings, as dump_json requires."""
    return st.lists(st.tuples(_KEYS, children), max_size=4, unique_by=lambda kv: str(kv[0])).map(dict)


@st.composite
def _containers(draw, children):
    """A list, a tuple, a dict, a dict subclass or a NamedTuple of at most four children."""
    shape = draw(st.sampled_from([list, tuple, dict, _Dict, _Pair]))
    if shape is _Pair:
        return _Pair(draw(children), draw(children))
    if shape in (dict, _Dict):
        return shape(draw(_dicts(children)))
    return shape(draw(st.lists(children, max_size=4)))


_TREES = st.recursive(_leaf(), _containers, max_leaves=20)


def _nested(bad):
    """Trees that hold bad once, at any depth, among valid siblings."""
    return st.recursive(bad, lambda inner: st.one_of(
        st.builds(lambda fine, x: [*fine, x], st.lists(_TREES, max_size=3), inner),
        st.builds(lambda x: (x,), inner),
        st.builds(lambda d, k, x: {**{j: v for j, v in d.items() if str(j) != str(k)}, k: x},
                  _dicts(_TREES), _KEYS, inner),
    ), max_leaves=4)


_NON_FINITE = st.sampled_from([np.nan, np.inf, -np.inf, np.float64(-np.inf), np.float32(np.nan),
                               complex(1, np.nan), complex(np.inf, 0), np.array([1.0, np.nan]),
                               np.array([[0, 1j], [np.inf, 0]]), np.array(-np.inf)])


@pytest.mark.filterwarnings("error::hypothesis.errors.HypothesisWarning")  # such as a large repr
@settings(max_examples=300)
@given(_TREES)
def test_payload_trees_match_the_per_element_route(tree):
    assert dump_json(tree) == reference_dump_json(tree)


@given(_nested(_NON_FINITE))
def test_a_non_finite_number_at_any_depth_is_rejected_by_both_routes(tree):
    errors = []
    for dump in (dump_json, reference_dump_json):
        with pytest.raises(ValueError) as excinfo:
            dump(tree)
        errors.append(str(excinfo.value))
    assert errors[0] == errors[1]
    assert errors[0].startswith("Out of range float values are not JSON compliant: ")


@given(_nested(st.sampled_from([{1, 2}, frozenset(), object(), b"bytes"])))
def test_an_unsupported_type_at_any_depth_is_rejected_by_both_routes(tree):
    for dump in (dump_json, reference_dump_json):
        with pytest.raises(TypeError):
            dump(tree)


def test_keys_that_render_alike_are_rejected():
    with pytest.raises(ValueError, match="render as the JSON key '1'"):
        dump_json({1: "a", "1": "b"})


@given(_nested(st.sampled_from([{1: "a", "1": "b"}, {None: 0, "None": 1}, {0.5: [], "0.5": {}},
                                {True: 1, "True": 2}, {float("nan"): 0, float("nan"): 1}])))
def test_keys_that_render_alike_at_any_depth_are_rejected(tree):
    with pytest.raises(ValueError, match="render as the JSON key"):
        dump_json(tree)


def test_csv_export_takes_only_matrices():
    with pytest.raises(ValueError, match="CSV export is for matrices, got ndim=1"):
        matrix_to_csv(np.zeros(3))


def test_an_8x8_label_is_read_without_the_6x6_reader(monkeypatch):
    def unreachable(label):
        raise AssertionError(f"resolve_generator6({label!r}) was called")

    monkeypatch.setattr(phase_space, "resolve_generator6", unreachable)
    for label in ("A1", "gammaB5"):
        kind, matrix = resolve_export(label)
        assert kind == "operator8"
        assert np.array_equal(matrix, clifford.named_operator(label))
