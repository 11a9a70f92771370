import dataclasses
import json
import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from phasequark import cli, clifford as cf, hamiltonian, phase_space as ps
from phasequark.hamiltonian import (
    BASIS,
    KINDS,
    EMField,
    HamiltonianSpec,
    antiparticle_distinctness_check,
    build_composite,
    build_hamiltonian,
    coefficients,
    colored_sum,
    conjugate_hamiltonian,
    matrices,
    rotate_hamiltonian,
    rotated_operators,
    rotation_matrix,
    spec_spectrum,
    square_and_spectrum,
)
from phasequark.pauli_expr import SYMBOLS, parse
from phasequark.verify import substitution_conjugate

A = [cf.named_operator(f"A{k}") for k in (1, 2, 3)]
BK = [cf.named_operator(f"B{k}") for k in (1, 2, 3)]
B = cf.named_operator("B")

finite = st.floats(min_value=-3.0, max_value=3.0, allow_nan=False)
vec3 = st.tuples(finite, finite, finite)
mass = st.floats(min_value=0.0, max_value=3.0, allow_nan=False)
dyadic = st.integers(min_value=-64, max_value=64).map(lambda n: n / 8)
unit_axis = (
    vec3.filter(lambda v: np.linalg.norm(v) > 0.1)
    .map(lambda v: tuple(np.array(v) / np.linalg.norm(v)))
)


@st.composite
def specs(draw, kinds=KINDS, number=dyadic):
    """A spec of one of kinds with every field of its kind drawn, EM optional."""
    vec = st.tuples(number, number, number)
    kind = draw(st.sampled_from(kinds))
    if kind == "Custom":
        return HamiltonianSpec(kind=kind, a=draw(vec), b=draw(vec),
                               beta=draw(number), scalar=draw(number))
    fields = {"kind": kind, "m": abs(draw(number)), "p": draw(vec)}
    if kind != "Dirac":
        fields["x"] = draw(vec)
    if kind == "QQbar":
        fields.update(pbar=draw(vec), xbar=draw(vec))
    if kind in ("Dirac", "ColorR", "ColorY", "ColorB"):
        fields["em"] = draw(st.none() | st.builds(EMField, number, number, vec))
    return HamiltonianSpec(**fields)


def closed_form(spec, rot=None):
    """The module docstring's closed form, term by term; with rot, built
    from the primed operators at rotated coordinates."""
    a_ops, b_ops = (A, BK) if rot is None else rotated_operators(rot)
    turn = np.asarray if rot is None else (lambda v: rot @ np.asarray(v))
    p, x, pbar, xbar = (turn(v) for v in (spec.p, spec.x, spec.pbar, spec.xbar))
    em = spec.em or EMField()
    e, a0, avec = em.e, em.A0, turn(em.Avec)
    one, m, kind = np.eye(8), spec.m, spec.kind
    if kind == "Dirac":
        return sum(a_ops[i] * (p[i] - e * avec[i]) for i in range(3)) + B * m + e * a0 * one
    if kind[:-1] in ("Color", "Anti"):
        c = "RYB".index(kind[-1])
        sign = 1.0 if kind.startswith("Color") else -1.0
        position = sum(b_ops[k] * x[k] for k in range(3) if k != c)
        return a_ops[c] * (p[c] - e * avec[c]) + sign * position + B * m + e * a0 * one
    if kind == "QuarkSum":
        return sum(a_ops[i] * p[i] + 2 * b_ops[i] * x[i] for i in range(3)) + 3 * m * B
    if kind == "QQbar":
        return sum(
            a_ops[i] * (p[i] + pbar[i]) + 2 * b_ops[i] * (x[i] - xbar[i]) for i in range(3)
        ) + 6 * m * B
    assert kind == "Custom"
    return sum(A[i] * spec.a[i] + BK[i] * spec.b[i] for i in range(3)) + spec.beta * B + spec.scalar * one


def test_color_r_example():
    h = build_hamiltonian(
        HamiltonianSpec(kind="ColorR", p=(1, 0, 0), x=(0, 2, 3), m=5)
    )
    assert np.array_equal(h, A[0] + 2 * BK[1] + 3 * BK[2] + 5 * B)


def test_color_b_zero_inputs_give_zero_matrix():
    h = build_hamiltonian(HamiltonianSpec(kind="ColorB"))
    assert np.array_equal(h, np.zeros((8, 8)))


def test_dirac_with_em_coupling():
    em = EMField(e=2.0, A0=0.5, Avec=(1.0, 0.0, -1.0))
    h = build_hamiltonian(HamiltonianSpec(kind="Dirac", p=(1, 2, 3), m=4, em=em))
    expected = (
        A[0] * (1 - 2.0 * 1.0)
        + A[1] * 2
        + A[2] * (3 - 2.0 * (-1.0))
        + 4 * B
        + 2.0 * 0.5 * np.eye(8)
    )
    assert np.array_equal(h, expected)


def test_quark_sum_and_qqbar_closed_forms():
    h = build_hamiltonian(
        HamiltonianSpec(kind="QuarkSum", p=(1, 2, 3), x=(4, 5, 6), m=7)
    )
    expected = sum(A[i] * (i + 1) + 2 * BK[i] * (i + 4) for i in range(3)) + 21 * B
    assert np.array_equal(h, expected)

    h2 = build_hamiltonian(
        HamiltonianSpec(
            kind="QQbar", p=(1, 0, 0), x=(0, 1, 0), pbar=(0, 2, 0), xbar=(0, 0, 3), m=1
        )
    )
    expected2 = A[0] + 2 * A[1] + 2 * (BK[1] - 3 * BK[2]) + 6 * B
    assert np.array_equal(h2, expected2)


def test_qqbar_opposite_quarks_cancel():
    spec = HamiltonianSpec(
        kind="QQbar", p=(1, 2, 3), pbar=(-1, -2, -3), x=(4, 5, 6), xbar=(4, 5, 6), m=0
    )
    assert np.array_equal(build_hamiltonian(spec), np.zeros((8, 8)))


@given(vec3, vec3, mass, st.sampled_from(["ColorR", "ColorY", "ColorB", "QuarkSum"]))
def test_real_specs_build_hermitian_matrices(p, x, m, kind):
    h = build_hamiltonian(HamiltonianSpec(kind=kind, p=p, x=x, m=m))
    assert np.array_equal(h, h.conj().T)


@given(specs())
def test_build_matches_docstring_closed_form_exactly(spec):
    # dyadic inputs keep every sum exact, so the two routes agree bit for bit
    assert np.array_equal(build_hamiltonian(spec), closed_form(spec))


def _docstring_closed_forms() -> dict[str, str]:
    """The closed-form rows of the hamiltonian docstring, by kind: each row
    whose first word is a kind and whose text does not open the mask table."""
    rows = re.findall(r"^    (\w+) +([^\s(].*)$", hamiltonian.__doc__, re.M)
    forms = [(kind, text) for kind, text in rows if kind in KINDS]
    assert sorted(kind for kind, _ in forms) == sorted(KINDS)  # one row per kind
    return dict(forms)


@pytest.mark.parametrize("kind,with_em", [(k, False) for k in KINDS] + [
    (k, True) for k in ("Dirac", "ColorR", "ColorY", "ColorB")])
def test_docstring_closed_forms_parse_to_the_built_matrix(kind, with_em):
    form = parse(_docstring_closed_forms()[kind])
    accepted = hamiltonian._TABLE[kind].fields
    for v in np.random.default_rng(11).integers(-32, 33, size=(5, 18)) / 8.0:
        p, x, pbar, xbar, avec = v[0:3], v[3:6], v[6:9], v[9:12], v[12:15]
        m, e, a0 = abs(v[15]), v[16] if with_em else 0.0, v[17]
        given = {"m": m, "p": p, "x": x, "pbar": pbar, "xbar": xbar, "a": p, "b": x,
                 "beta": m, "scalar": a0, "em": EMField(e, a0, avec) if with_em else None}
        spec = HamiltonianSpec(kind, **{name: given[name] for name in accepted})
        if kind == "QQbar":  # the form reads p and x as P and dx
            p, x = p + pbar, x - xbar
        values = dict(zip(SYMBOLS, [*p, *x, m, e, a0, *avec]))
        # dyadic values keep every sum exact, so the two routes agree bit for bit
        assert np.array_equal(form.to_matrix(values), build_hamiltonian(spec))


# conjugation by B on the rows of BASIS: it negates A1..A3 and B1..B3 and keeps 1 and B
REFLECT_SIGNS = np.array([1.0, -1, -1, -1, -1, -1, -1, 1])


def test_reflect_signs_match_conjugation_by_b():
    for sign, g in zip(REFLECT_SIGNS, BASIS.reshape(8, 8, 8)):
        assert np.array_equal(B @ g @ B, sign * g)


def test_custom_kind():
    spec = HamiltonianSpec(kind="Custom", a=(1, 0, 0), b=(0, 2, 0), beta=3, scalar=4)
    assert np.array_equal(
        build_hamiltonian(spec), A[0] + 2 * BK[1] + 3 * B + 4 * np.eye(8)
    )


# -- spec validation ------------------------------------------------------


def test_from_dict_rejects_unknown_kind():
    with pytest.raises(ValueError, match="kind"):
        HamiltonianSpec.from_dict({"kind": "Chartreuse"})


def test_from_dict_rejects_wrong_fields():
    with pytest.raises(ValueError, match="not valid for kind"):
        HamiltonianSpec.from_dict({"kind": "Dirac", "x": [1, 2, 3]})
    with pytest.raises(ValueError, match="not valid for kind"):
        HamiltonianSpec.from_dict({"kind": "AntiR", "em": {"e": 1.0}})


def test_from_dict_rejects_bad_values():
    with pytest.raises(ValueError):
        HamiltonianSpec.from_dict({"kind": "Dirac", "m": -1.0})
    with pytest.raises(ValueError):
        HamiltonianSpec.from_dict({"kind": "Dirac", "m": float("inf")})
    with pytest.raises(ValueError):
        HamiltonianSpec.from_dict({"kind": "Dirac", "p": [1, 2]})
    # finite fields whose coefficients overflow
    with pytest.raises(ValueError, match="QQbar spec overflow float64 in 'p', 'pbar'$"):
        HamiltonianSpec.from_dict({"kind": "QQbar", "p": [1e308, 0, 0], "pbar": [1e308, 0, 0]})
    with pytest.raises(ValueError, match="QuarkSum spec overflow float64 in 'm'$"):
        HamiltonianSpec.from_dict({"kind": "QuarkSum", "m": 1e308})
    with pytest.raises(ValueError, match="QQbar spec overflow float64 in 'dx'$"):
        HamiltonianSpec.from_dict({"kind": "QQbar", "dx": [1e308, 0, 0]})
    # finite coefficients pass, however large
    HamiltonianSpec.from_dict({"kind": "Dirac", "m": 1e308, "p": [1e308, 0, 0]})


def test_constructor_rejects_overflowing_coefficients():
    # the same boundary as from_dict: a directly built spec is checked too
    with pytest.raises(ValueError, match="Dirac spec overflow float64 in 'em'$"):
        HamiltonianSpec(kind="Dirac", em=EMField(e=1e308, A0=1e308))
    # c is finite, but the diagonal entries s +- beta of H overflow
    with pytest.raises(ValueError, match="Custom spec overflow float64 in 'beta', 'scalar'$"):
        HamiltonianSpec(kind="Custom", scalar=1e308, beta=1e308)
    with pytest.raises(ValueError, match="Dirac spec overflow float64 in 'm', 'em'$"):
        HamiltonianSpec(kind="Dirac", m=1e308, em=EMField(e=-1.0, A0=1e308))


# numbers whose rows overflow, signed zeros and ordinary values
_EXTREME = st.one_of(
    st.sampled_from([0.0, -0.0, 1e308, -1e308, 9e307, -9e307, 1.7976931348623157e308,
                     -1.7976931348623157e308, 5e-324, -5e-324]),
    st.floats(allow_nan=False, allow_infinity=False),
)


@st.composite
def kind_fields(draw, number=_EXTREME):
    """A kind and some of its own fields, EM included, as HamiltonianSpec takes them."""
    kind = draw(st.sampled_from(KINDS))
    vec = st.tuples(number, number, number)
    strategies = {"m": number.map(lambda v: v if v >= 0.0 else -v), "beta": number,
                  "scalar": number, "em": st.builds(EMField, number, number, vec)}
    names = draw(st.lists(st.sampled_from(hamiltonian._TABLE[kind].fields), unique=True))
    return kind, {name: draw(strategies.get(name, vec)) for name in names}


def _bits(c):
    return np.asarray(c, dtype=np.float64).view(np.int64).tolist()


@settings(max_examples=500)
@given(kind_fields())
def test_plain_row_equals_coefficients_bit_for_bit(case):
    kind, given = case
    with np.errstate(over="ignore", invalid="ignore"):
        assert _bits(hamiltonian._row(kind, **given)) == _bits(coefficients(kind, **given))


@settings(max_examples=500)
@given(kind_fields())
def test_spec_check_matches_the_batched_route(case):
    """A spec keeps the row coefficients() gives, or names the fields whose own
    part of it reaches a non-finite entry or diagonal s +- beta, as found there."""
    kind, drawn = case
    defaults = {f.name: f.default for f in dataclasses.fields(HamiltonianSpec)}
    given = {n: drawn[n] for n in defaults if n in drawn and drawn[n] != defaults[n]}
    with np.errstate(over="ignore", invalid="ignore"):
        c = coefficients(kind, **given)
        bad = ~np.isfinite(c)
        bad[[0, 7]] |= not np.isfinite(abs(c[0]) + abs(c[7]))
        names = [n for n, v in given.items() if np.any(coefficients(kind, **{n: v})[bad] != 0)]
    if not bad.any():
        assert _bits(HamiltonianSpec(kind=kind, **drawn)._c) == _bits(c)
        return
    with pytest.raises(ValueError) as excinfo:
        HamiltonianSpec(kind=kind, **drawn)
    assert str(excinfo.value) == (f"coefficients of the {kind} spec overflow float64 in "
                                  + ", ".join(map(repr, names)))


@st.composite
def row_stacks(draw, number=_EXTREME):
    """1-6 rows sharing one set of field names, each row its own kind among the kinds
    that accept them all and, where em is a name, its own EM field or None; rot draws
    one frame per row, for stacks without Custom."""
    base = draw(st.sampled_from(KINDS))
    names = draw(st.lists(st.sampled_from(hamiltonian._TABLE[base].fields), unique=True))
    accepting = [k for k in KINDS if set(names) <= set(hamiltonian._TABLE[k].fields)]
    n = draw(st.integers(min_value=1, max_value=6))
    kinds = draw(st.lists(st.sampled_from(accepting), min_size=n, max_size=n))
    vec = st.tuples(number, number, number)
    value = {"m": number.map(abs), "beta": number, "scalar": number,
             "em": st.none() | st.builds(EMField, number, number, vec)}
    rows = [{name: draw(value.get(name, vec)) for name in names} for _ in kinds]
    rot = None
    if "Custom" not in kinds and draw(st.booleans()):
        rot = [rotation_matrix(axis, phi) for axis, phi in draw(st.lists(
            st.tuples(unit_axis, st.floats(-math.pi, math.pi)), min_size=n, max_size=n))]
    return kinds, rows, rot


_HUGE = (1.7976931348623157e308,) * 3  # u.p overflows where u has two large components


@settings(max_examples=500)
@given(row_stacks(), st.booleans())
# a Dirac row beside a colored one: its beta of 0 must skip the u u^T term, which is nan here
@example((["Dirac", "ColorR"], [{"p": _HUGE}, {"p": _HUGE}], [rotation_matrix(3, math.pi / 4)] * 2),
         False)
def test_stacked_coefficients_equal_single_rows_bit_for_bit(stack, as_array):
    """A kind and an EM field per row, and a frame per row, give each row the bits of
    the call with that row's own kind, fields and frame: the same elementwise IEEE
    operations whatever the neighbouring rows are."""
    kinds, rows, rot = stack
    fields = {name: [row[name] for row in rows] for name in rows[0]}
    extra = {} if rot is None else {"rot": np.array(rot)}
    with np.errstate(over="ignore", invalid="ignore"):
        c = coefficients(np.array(kinds) if as_array else kinds, **fields, **extra)
        singles = [coefficients(kind, **row, **({} if rot is None else {"rot": rot[i]}))
                   for i, (kind, row) in enumerate(zip(kinds, rows))]
    assert c.shape == (len(rows), 8)
    assert c.view(np.int64).tolist() == np.array(singles).view(np.int64).tolist()


@settings(max_examples=300)
@given(st.sampled_from(KINDS), st.lists(st.one_of(st.none(), st.builds(
    EMField, _EXTREME, _EXTREME, st.tuples(_EXTREME, _EXTREME, _EXTREME))), min_size=1, max_size=6))
def test_one_kind_or_field_broadcasts_over_the_rows(kind, ems):
    """One kind against an EM field per row, and one EM field against a kind per row."""
    em_kinds = [k for k in KINDS if "em" in hamiltonian._TABLE[k].fields]
    with np.errstate(over="ignore", invalid="ignore"):
        if kind in em_kinds:
            stacked = coefficients(kind, m=1.5, em=ems)
            single = [coefficients(kind, m=1.5, em=em) for em in ems]
            assert stacked.view(np.int64).tolist() == np.array(single).view(np.int64).tolist()
        kinds = [em_kinds[i % len(em_kinds)] for i in range(len(ems))]
        stacked = coefficients(kinds, p=(1.0, -0.0, 1e308), em=ems[0])
        single = [coefficients(k, p=(1.0, -0.0, 1e308), em=ems[0]) for k in kinds]
    assert stacked.view(np.int64).tolist() == np.array(single).view(np.int64).tolist()


def test_a_kind_stack_takes_only_fields_every_kind_accepts():
    with pytest.raises(ValueError, match="field 'x' is not valid for kind Dirac"):
        coefficients(["ColorR", "Dirac"], x=np.ones((2, 3)))
    with pytest.raises(ValueError, match="field 'em' is not valid for kind AntiR"):
        coefficients(["ColorR", "AntiR"], em=[None, EMField(e=1.0)])
    with pytest.raises(ValueError, match="unknown kind 'Gluon'"):
        coefficients(["ColorR", "Gluon"], m=np.ones(2))
    with pytest.raises(ValueError, match="Custom"):
        coefficients(["QQbar", "Custom"], rot=np.eye(3))


_COEFFICIENT = st.floats(-1e300, 1e300) | st.sampled_from([0.0, -0.0, 1e154, -1e154, 5e-324])


@settings(max_examples=300)
@given(st.lists(st.lists(_COEFFICIENT, min_size=8, max_size=8), min_size=1, max_size=6))
@example([[1e200, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0], [0.0, 3.0, 0.0, 4.0, 0.0, 0.0, 0.0, 0.0]])
def test_a_stack_of_rows_reports_as_each_row_alone(rows):
    """Each report of the one report routine on a stack of coefficient rows equals, bit for
    bit (repr is exact for floats and tells -0.0 from 0.0), its report on that row alone;
    a square past float64 is None."""
    stacked = hamiltonian._reports(np.array(rows))
    single = [hamiltonian._reports(np.array([row]))[0] for row in rows]
    assert list(map(repr, stacked)) == list(map(repr, single))
    for (s, *v), report in zip(rows, stacked):
        r = math.hypot(*v)
        if not math.isfinite(s * s + r * r):
            assert report.scalar_square is None
            assert report.eigenvalues == (s - r,) * 4 + (s + r,) * 4


def test_components_a_kind_does_not_use_never_overflow():
    # ColorB reads only p3 - e*A3v; p1 - e*A1v overflows, but no coefficient holds it
    spec = HamiltonianSpec.from_dict(
        {"kind": "ColorB", "p": [1e308, 0, 1], "em": {"e": 1, "Avec": [-1e308, 0, 0]}})
    assert np.array_equal(build_hamiltonian(spec), closed_form(spec))


@pytest.mark.parametrize(
    "spec,field",
    [
        ({"kind": "Dirac", "m": "1"}, "m"),
        ({"kind": "Dirac", "m": True}, "m"),
        ({"kind": "ColorR", "m": None}, "m"),
        ({"kind": "Custom", "beta": "x"}, "beta"),
        ({"kind": "Custom", "scalar": False}, "scalar"),
        ({"kind": "ColorR", "p": ["1", "0", "0"]}, "p[0]"),
        ({"kind": "QQbar", "xbar": [0, 0, True]}, "xbar[2]"),
        ({"kind": "QQbar", "P": [0, 0, True]}, "P[2]"),
        ({"kind": "QQbar", "dx": "abc"}, "dx"),
        ({"kind": "AntiY", "x": "123"}, "x"),
        ({"kind": "Dirac", "m": 10 ** 400}, "m"),
        ({"kind": "Dirac", "em": {"e": "2"}}, "em.e"),
        ({"kind": "ColorB", "em": {"A0": None}}, "em.A0"),
        ({"kind": "Dirac", "em": {"Avec": [0, True, 0]}}, "em.Avec[1]"),
        ({"kind": "Dirac", "em": {"charge": 1.0}}, "em.charge"),
    ],
)
def test_from_dict_rejects_wrong_typed_numbers(spec, field):
    with pytest.raises(ValueError, match=re.escape(field) + " must be|'" + re.escape(field)):
        HamiltonianSpec.from_dict(spec)


@pytest.mark.parametrize("value", [
    {0.1, 2.5, -7.25}, frozenset({1.0, 2.0, 3.0}), {1: 0, 2: 0, 3: 0}.keys(),
    "abc", b"abc", bytearray(b"abc"), {"a": 1, "b": 2, "c": 3},
], ids=["set", "frozenset", "dict-keys", "str", "bytes", "bytearray", "dict"])
def test_a_3_vector_must_be_an_ordered_sequence(value):
    # a set would be stored in its iteration order, text and mappings element by element
    with pytest.raises(ValueError) as err:
        HamiltonianSpec(kind="Dirac", p=value)
    assert str(err.value) == f"p must be a 3-vector, got {value!r}"


@pytest.mark.parametrize("spec,message", [
    ({"kind": "ColorR", "p": "abc"}, "p must be a 3-vector, got 'abc'"),
    ({"kind": "ColorR", "p": {"a": 1, "b": 2, "c": 3}},
     "p must be a 3-vector, got {'a': 1, 'b': 2, 'c': 3}"),
    ({"kind": "QQbar", "dx": "abc"}, "dx must be a 3-vector, got 'abc'"),
    ({"kind": "Dirac", "em": {"Avec": {"x": 0, "y": 0, "z": 0}}},
     "em.Avec must be a 3-vector, got {'x': 0, 'y': 0, 'z': 0}"),
], ids=["str", "dict", "shorthand-str", "em-dict"])
def test_from_dict_rejects_unordered_3_vectors(spec, message):
    with pytest.raises(ValueError) as err:
        HamiltonianSpec.from_dict(spec)
    assert str(err.value) == message


def test_numpy_real_scalars_are_accepted():
    spec = HamiltonianSpec(
        kind="ColorR", m=np.float64(1.5), p=np.array([1.0, 0.0, 0.0]),
        x=(np.int64(0), np.float32(2.0), 3), em=EMField(e=np.float64(0.5)),
    )
    assert spec.m == 1.5 and type(spec.m) is float
    assert spec.x == (0.0, 2.0, 3.0) and all(type(v) is float for v in spec.x)
    assert type(spec.em.e) is float


def test_constructor_rejects_fields_outside_the_kind():
    with pytest.raises(ValueError, match="'pbar' is not valid for kind ColorR"):
        HamiltonianSpec(kind="ColorR", pbar=(1.0, 0.0, 0.0))
    with pytest.raises(ValueError, match="'em' is not valid for kind AntiR"):
        HamiltonianSpec(kind="AntiR", em=EMField(e=1.0))
    with pytest.raises(ValueError, match="'beta' is not valid for kind QuarkSum"):
        HamiltonianSpec(kind="QuarkSum", beta=1.0)
    with pytest.raises(ValueError, match="'m' is not valid for kind Custom"):
        HamiltonianSpec(kind="Custom", m=1.0)


def test_qqbar_shorthand_and_exclusivity():
    spec = HamiltonianSpec.from_dict({"kind": "QQbar", "P": [1, 2, 3], "dx": [4, 5, 6], "m": 1})
    full = HamiltonianSpec.from_dict(
        {"kind": "QQbar", "p": [1, 2, 3], "x": [4, 5, 6], "m": 1}
    )
    assert np.array_equal(build_hamiltonian(spec), build_hamiltonian(full))
    with pytest.raises(ValueError, match="not both"):
        HamiltonianSpec.from_dict({"kind": "QQbar", "P": [1, 2, 3], "p": [1, 2, 3]})
    with pytest.raises(ValueError, match="only valid for kind QQbar"):
        HamiltonianSpec.from_dict({"kind": "QuarkSum", "P": [1, 2, 3]})


def test_spec_dict_round_trip():
    spec = HamiltonianSpec(
        kind="ColorY", p=(1, 2, 3), x=(4, 5, 6), m=7,
        em=EMField(e=0.5, A0=1.0, Avec=(0, 1, 0)),
    )
    assert HamiltonianSpec.from_dict(spec.to_dict()) == spec


def spec_fields(spec):
    """The fields of the spec's kind, as coefficients() takes them."""
    return {name: getattr(spec, name) for name in spec.to_dict() if name != "kind"}


@given(specs(number=finite))
def test_stored_row_is_the_table_row(spec):
    row = spec._c
    assert np.array_equal(row, coefficients(spec.kind, **spec_fields(spec)))
    assert not row.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        row[0] = 1.0
    # a second spec from the same fields: equal, same hash, its own equal row
    twin = HamiltonianSpec(kind=spec.kind, **spec_fields(spec))
    assert twin == spec and hash(twin) == hash(spec)
    assert twin._c is not row and np.array_equal(twin._c, row)


def test_stored_row_is_no_field():
    spec = HamiltonianSpec.from_dict({"kind": "QQbar", "P": [1, 2, 3], "dx": [4, 5, 6], "m": 1})
    assert np.array_equal(spec._c, coefficients("QQbar", m=1.0, p=(1, 2, 3), x=(4, 5, 6)))
    assert "_c" not in repr(spec) and "_c" not in spec.to_dict()
    assert [f.name for f in dataclasses.fields(spec)] == [
        "kind", "m", "p", "x", "pbar", "xbar", "em", "a", "b", "beta", "scalar"]
    # a replaced spec, such as the conjugate, carries the row of its own fields
    spec = HamiltonianSpec(kind="ColorR", m=1.0, p=(1, 2, 3), x=(4, 5, 6),
                           em=EMField(e=0.5, A0=1.0, Avec=(0, 1, 0)))
    for other in (conjugate_hamiltonian(spec)[1], dataclasses.replace(spec, m=2.0)):
        assert other != spec and not np.array_equal(other._c, spec._c)
        assert np.array_equal(other._c, coefficients(other.kind, **spec_fields(other)))
        assert np.array_equal(build_hamiltonian(other), closed_form(other))


def test_finite_entries_pass_even_where_their_sum_overflows():
    # |c| sums to 4.5e308, but each entry and the diagonal s +- beta are finite
    spec = HamiltonianSpec(kind="ColorR", p=(1.5e308, 0.0, 0.0), x=(0.0, 1.5e308, 1.5e308))
    assert np.array_equal(build_hamiltonian(spec), closed_form(spec))
    assert np.isfinite(build_hamiltonian(spec)).all()


# -- composites -----------------------------------------------------------


def test_composite_sum_route_matches_closed_form():
    inputs = {"p": [1.0, -2.0, 0.5], "x": [0.25, 1.5, -1.0], "m": 1.25}
    direct = build_hamiltonian(HamiltonianSpec.from_dict({"kind": "QuarkSum", **inputs}))
    summed = build_composite("QuarkSum", inputs)
    assert np.abs(direct - summed).max() <= 1e-12

    inputs_qq = {**inputs, "pbar": [0.5, 0.5, 0.5], "xbar": [1.0, 0.0, -1.0]}
    direct_qq = build_hamiltonian(HamiltonianSpec.from_dict({"kind": "QQbar", **inputs_qq}))
    summed_qq = build_composite("QQbar", inputs_qq)
    assert np.abs(direct_qq - summed_qq).max() <= 1e-12


@st.composite
def spec_batches(draw):
    """1-6 specs of one kind; the EM kinds share one optional EM field."""
    kind = draw(st.sampled_from(KINDS))
    em = draw(st.none() | st.builds(EMField, finite, finite, vec3))
    rows = draw(st.lists(specs(kinds=(kind,), number=finite), min_size=1, max_size=6))
    if kind in ("Dirac", "ColorR", "ColorY", "ColorB"):
        rows = [dataclasses.replace(spec, em=em) for spec in rows]
    return rows


def stacked_fields(rows):
    """The rows' fields as the stacked arrays coefficients() takes."""
    names = [name for name in rows[0].to_dict() if name not in ("kind", "em")]
    return {name: np.array([getattr(spec, name) for spec in rows]) for name in names}


@given(spec_batches(), st.lists(st.tuples(unit_axis, st.floats(-math.pi, math.pi)),
                                min_size=6, max_size=6))
def test_batched_coefficients_match_single_spec_builders(rows, turns):
    kind, em, fields = rows[0].kind, rows[0].em, stacked_fields(rows)
    stack = matrices(coefficients(kind, em=em, **fields))
    assert stack.shape == (len(rows), 8, 8)
    for spec, h in zip(rows, stack):
        assert np.array_equal(h, build_hamiltonian(spec))
    if kind == "Custom":
        return
    turns = turns[: len(rows)]
    rots = np.stack([rotation_matrix(axis, phi) for axis, phi in turns])
    rotated = matrices(coefficients(kind, em=em, rot=rots, **fields))
    for spec, (axis, phi), h in zip(rows, turns, rotated):
        assert np.abs(h - rotate_hamiltonian(spec, axis, phi)).max() <= 1e-12


@given(st.sampled_from(["QuarkSum", "QQbar"]),
       st.lists(st.tuples(mass, vec3, vec3, vec3, vec3), min_size=1, max_size=6))
def test_batched_colored_sum_matches_build_composite(kind, rows):
    m, p, x, pbar, xbar = (np.array(v) for v in zip(*rows))
    anti = kind == "QQbar"
    stack = colored_sum(kind, m=m, p=p, x=x, **({"pbar": pbar, "xbar": xbar} if anti else {}))
    assert stack.shape == (len(rows), 8, 8)
    for h, (mi, pi, xi, pbi, xbi) in zip(stack, rows):
        inputs = {"m": mi, "p": pi, "x": xi, **({"pbar": pbi, "xbar": xbi} if anti else {})}
        assert np.array_equal(h, build_composite(kind, inputs))
        # the literal sum of single-spec builds, in the same order
        reference = np.zeros((8, 8), dtype=complex)
        for color in "RYB":
            reference = reference + build_hamiltonian(
                HamiltonianSpec(kind=f"Color{color}", m=mi, p=pi, x=xi))
            if anti:
                reference = reference + build_hamiltonian(
                    HamiltonianSpec(kind=f"Anti{color}", m=mi, p=pbi, x=xbi))
        assert np.array_equal(h, reference)


def test_coefficients_rejects_foreign_fields():
    with pytest.raises(ValueError, match="unknown kind"):
        coefficients("Gluon", m=1.0)
    with pytest.raises(ValueError, match="'x' is not valid for kind Dirac"):
        coefficients("Dirac", m=np.ones(2), x=np.ones((2, 3)))
    with pytest.raises(ValueError, match="'em' is not valid for kind QQbar"):
        coefficients("QQbar", em=EMField(e=1.0))
    with pytest.raises(ValueError, match="Custom"):
        coefficients("Custom", beta=1.0, rot=np.eye(3))
    with pytest.raises(ValueError, match=re.escape("(..., 3, 3), got (3, 5)")):
        coefficients("Dirac", p=(1.0, 2.0, 3.0), rot=np.ones((3, 5)))


def test_composite_rejects_other_kinds():
    with pytest.raises(ValueError, match="QuarkSum or QQbar"):
        build_composite("Dirac", {"p": [1, 0, 0]})


# -- rotations ------------------------------------------------------------


def test_rotation_matrix_passive_convention():
    phi = 0.3
    rot = rotation_matrix(3, phi)
    c, s = math.cos(phi), math.sin(phi)
    assert np.allclose(rot, np.array([[c, s, 0], [-s, c, 0], [0, 0, 1]]), atol=1e-15)
    assert np.allclose(rotation_matrix((0.0, 0.0, 1.0), phi), rot, atol=1e-15)
    # any integer type names an axis
    assert rotation_matrix(np.int64(3), phi).tobytes() == rot.tobytes()


def test_rotation_matrix_stacks_equal_scalar_calls():
    rng = np.random.default_rng(5)
    angles = rng.uniform(-math.pi, math.pi, size=(4, 5))
    axes = rng.normal(size=(4, 5, 3))
    axes /= np.linalg.norm(axes, axis=-1, keepdims=True)
    for axis in (1, 2, 3, tuple(axes[0, 0])):  # one axis, many angles
        for phis in (angles[0], angles):
            stack = rotation_matrix(axis, phis)
            assert stack.shape == phis.shape + (3, 3)
            for i in np.ndindex(phis.shape):
                # bit for bit, signs of zeros included
                assert stack[i].tobytes() == rotation_matrix(axis, float(phis[i])).tobytes()
    for ax, phis in ((axes[0], angles[0]), (axes, angles), (axes, 0.7)):  # an axis per matrix
        stack = rotation_matrix(ax, phis)
        assert stack.shape == ax.shape + (3,)
        phis = np.broadcast_to(phis, ax.shape[:-1])
        for i in np.ndindex(phis.shape):
            assert stack[i].tobytes() == rotation_matrix(tuple(ax[i]), float(phis[i])).tobytes()


def test_rotation_matrix_rejects_bad_axes():
    with pytest.raises(ValueError, match="unit"):
        rotation_matrix((1.0, 1.0, 0.0), 0.5)
    with pytest.raises(ValueError, match="axis index"):
        rotation_matrix(4, 0.5)
    with pytest.raises(ValueError, match="axis index"):
        rotation_matrix(np.int64(0), 0.5)
    for flag in (True, np.True_):  # a bool is not an axis index
        with pytest.raises(ValueError, match="not a bool"):
            rotation_matrix(flag, 0.5)
    with pytest.raises(ValueError, match="finite"):
        rotation_matrix(3, float("nan"))
    # one bad member fails the whole stack
    axes = np.array([[0.0, 0.0, 1.0], [0.6, 0.8, 0.0], [0.6, 0.8, 0.1]])
    with pytest.raises(ValueError, match="unit"):
        rotation_matrix(axes, np.zeros(3))
    with pytest.raises(ValueError, match="finite"):
        rotation_matrix(axes[:2], [0.1, float("nan")])
    with pytest.raises(ValueError, match="finite"):
        rotation_matrix(3, [[0.1, 0.2], [0.3, float("inf")]])
    with pytest.raises(ValueError, match="3-vector"):
        rotation_matrix(np.full((2, 4), 0.5), [0.1, 0.2])


_SPEC = HamiltonianSpec(kind="ColorR", m=1.0, p=(1.0, 2.0, 3.0), x=(0.0, 1.0, 0.0))
_NOT_NUMBERS = [  # NumPy would read each as a number: (call, its args, the name)
    (rotation_matrix, (3, True), "angle"),
    (rotation_matrix, (3, "0.5"), "angle"),
    (rotation_matrix, (3, [np.True_, np.False_]), "angle"),
    (ps.exp_generator, (ps.resolve_generator6("F1"), True), "angle"),
    (ps.exp_generator, (ps.resolve_generator6("F1"), "0.5"), "angle"),
    (rotate_hamiltonian, (_SPEC, 3, True), "angle"),
]


@pytest.mark.parametrize("fn,args,name", _NOT_NUMBERS,
                         ids=[f"{fn.__name__}({args[-1]!r})" for fn, args, _ in _NOT_NUMBERS])
def test_an_index_or_angle_that_is_not_a_number_is_a_value_error(fn, args, name):
    with pytest.raises(ValueError, match=name):
        fn(*args)


def test_ints_floats_and_numpy_numbers_stay_indices_and_angles():
    assert np.array_equal(rotation_matrix(3, 1), rotation_matrix(3, 1.0))
    assert np.array_equal(rotation_matrix(3, np.float32(0.5)), rotation_matrix(3, float(np.float32(0.5))))
    assert np.array_equal(rotation_matrix(3, np.arange(3)), rotation_matrix(3, [0.0, 1.0, 2.0]))
    f1 = ps.resolve_generator6("F1")
    assert np.array_equal(ps.exp_generator(f1, np.int64(1)), ps.exp_generator(f1, 1.0))
    assert np.array_equal(rotate_hamiltonian(_SPEC, 3, 2), rotate_hamiltonian(_SPEC, 3, 2.0))


def einsum_rotated_operators(rot):
    """The per-entry einsum A'_k = R_kl A_l, B'_k = R_kl B_l: the reference route."""
    ops = BASIS.reshape(8, 8, 8)
    return tuple(np.einsum("...kl,lij->k...ij", rot, ops[s]) for s in (slice(1, 4), slice(4, 7)))


@pytest.mark.parametrize("lead", [(), (7,), (4, 5)])
def test_rotated_operators_match_einsum_route(lead):
    rng = np.random.default_rng(len(lead))
    axes = rng.normal(size=lead + (3,))
    axes /= np.linalg.norm(axes, axis=-1, keepdims=True)
    rots = rotation_matrix(axes, rng.uniform(-math.pi, math.pi, size=lead))
    for primed, reference in zip(rotated_operators(rots), einsum_rotated_operators(rots)):
        assert primed.shape == (3,) + lead + (8, 8)
        assert np.array_equal(primed, reference)


def test_color_hamiltonians_invariant_about_own_axis():
    for color, axis in (("R", 1), ("Y", 2), ("B", 3)):
        spec = HamiltonianSpec(kind=f"Color{color}", p=(1, 2, 3), x=(4, 5, 6), m=7)
        h = build_hamiltonian(spec)
        for phi in (0.3, 1.1, -2.2):
            assert np.abs(h - rotate_hamiltonian(spec, axis, phi)).max() <= 1e-12


def test_mixing_law_about_axis3():
    from phasequark.hamiltonian import rotated_operators

    p, x, m = np.array([1.0, -0.5, 2.0]), np.array([0.5, 1.5, -1.0]), 0.75
    spec_r = HamiltonianSpec(kind="ColorR", p=tuple(p), x=tuple(x), m=m)
    spec_y = HamiltonianSpec(kind="ColorY", p=tuple(p), x=tuple(x), m=m)
    h_r = build_hamiltonian(spec_r)
    for phi in (0.3, -1.2, 2.5):
        c, s = math.cos(phi), math.sin(phi)
        rot = rotation_matrix(3, phi)
        a_p, b_p = rotated_operators(rot)
        pp, xp = rot @ p, rot @ x
        cross = b_p[1] * xp[0] + b_p[0] * xp[1] - a_p[1] * pp[0] - a_p[0] * pp[1]
        recomposed = (
            c * c * rotate_hamiltonian(spec_r, 3, phi)
            + s * s * rotate_hamiltonian(spec_y, 3, phi)
            + s * c * cross
        )
        assert np.abs(h_r - recomposed).max() <= 1e-12


@pytest.mark.parametrize("kind", ["Dirac", "QuarkSum", "QQbar"])
@given(data=st.data(), pick=st.integers(min_value=0, max_value=10 ** 6))
def test_quark_sum_rotation_invariance(kind, data, pick):
    # beta = 0 in both masks: every rotation returns the unrotated matrix exactly
    spec = data.draw(specs(kinds=(kind,), number=finite))
    if kind == "Dirac" and spec.em is None:
        spec = dataclasses.replace(spec, em=data.draw(st.builds(EMField, finite, finite, vec3)))
    rng = np.random.default_rng(pick)
    axis = rng.normal(size=3)
    axis /= np.linalg.norm(axis)
    phi = float(rng.uniform(-math.pi, math.pi))
    assert np.array_equal(build_hamiltonian(spec), rotate_hamiltonian(spec, tuple(axis), phi))


@given(specs(kinds=KINDS[:-1], number=finite), unit_axis,
       st.floats(min_value=-math.pi, max_value=math.pi))
def test_rotation_matches_operator_route(spec, axis, phi):
    rot = rotation_matrix(axis, phi)
    expected = closed_form(spec, rot)
    assert np.abs(rotate_hamiltonian(spec, axis, phi) - expected).max() <= 1e-12


def test_rotate_rejects_custom():
    with pytest.raises(ValueError, match="Custom"):
        rotate_hamiltonian(HamiltonianSpec(kind="Custom"), 3, 0.5)


def test_rotate_rejects_overflowing_coefficients():
    # rotation keeps |p| but not u.p: u = (1, 1, 0)/sqrt(2) gives u.p = 2.1e308
    spec = HamiltonianSpec(kind="ColorR", p=(1.5e308, 1.5e308, 0.0))
    with pytest.raises(ValueError, match="rotated coefficients of the ColorR spec overflow"):
        rotate_hamiltonian(spec, 3, math.pi / 4)
    # the Dirac masks do not move, so no intermediate R p overflows
    dirac = HamiltonianSpec(kind="Dirac", p=(1.5e308, 1.5e308, 0.0))
    assert np.array_equal(rotate_hamiltonian(dirac, 3, math.pi / 4), build_hamiltonian(dirac))


# -- the float check of 3-vectors: exact floats, and every other input --------


class _Float(float):
    pass


@pytest.mark.parametrize("value", [
    [0.5, -1.25, 2.0], (0.5, -1.25, 2.0), [1e308, 1e308, -0.0], (-0.0, 0.0, 5e-324),
    [np.float64(0.5), -1.25, 2.0], [1, 0, -3], (0.5, 1, 2.0), [_Float(0.5), 1.0, 2.0],
], ids=["list", "tuple", "sum-overflows", "signed-zeros", "np-float64", "ints", "mixed", "subclass"])
def test_a_3_vector_of_numbers_is_stored_as_three_floats(value):
    want = tuple(float(v) for v in value)
    spec = HamiltonianSpec(kind="ColorR", p=value, x=value)
    assert repr(spec.p) == repr(spec.x) == repr(want)  # repr tells -0.0 from 0.0
    assert all(type(v) is float for v in spec.p + spec.x)
    assert HamiltonianSpec.from_dict({"kind": "ColorR", "p": value, "x": value}) == spec
    assert repr(conjugate_hamiltonian(spec)[1].x) == repr(tuple(-v for v in want))


@pytest.mark.parametrize("value,index", [
    ([0.5, True, 2.0], 1), ((0.5, 2.0, False), 2), ([math.nan, 0.0, 0.0], 0),
    ([0.0, math.inf, 0.0], 1), ((0.0, 0.0, -math.inf), 2), ([math.inf, -math.inf, 1.0], 0),
    ([np.float64(np.nan), 0.0, 0.0], 0), (["1", 0.0, 0.0], 0), ([0.0, 0.5, "2"], 2),
], ids=["bool", "bool-tuple", "nan", "inf", "minus-inf", "inf-minus-inf", "np-nan", "str", "str-last"])
def test_a_3_vector_with_a_bad_entry_names_its_first_one(value, index):
    message = f"p[{index}] must be a finite number, got {value[index]!r}"
    for build in (lambda: HamiltonianSpec(kind="Dirac", p=value),
                  lambda: HamiltonianSpec.from_dict({"kind": "Dirac", "p": value})):
        with pytest.raises(ValueError) as err:
            build()
        assert str(err.value) == message


@pytest.mark.parametrize("value", [[0.5, 2.0], (0.5, 2.0, 1.0, 0.0), []])
def test_an_exact_float_list_of_another_length_is_not_a_3_vector(value):
    with pytest.raises(ValueError) as err:
        HamiltonianSpec(kind="Dirac", p=value)
    assert str(err.value) == f"p must be a 3-vector, got {value!r}"


def test_a_conjugate_whose_flip_overflows_is_an_input_error(capsys, tmp_path):
    # p - eA is 0, so the spec builds; its flip p + eA is 2e308
    spec = HamiltonianSpec(kind="Dirac", p=(1e308, 0.0, 0.0), em=EMField(e=1.0, Avec=(1e308, 0.0, 0.0)))
    message = "coefficients of the Dirac spec overflow float64 in 'p', 'em'"
    with pytest.raises(ValueError) as err:
        conjugate_hamiltonian(spec)
    assert str(err.value) == message
    path = tmp_path / "flip.json"
    path.write_text(json.dumps({"kind": "Dirac", "p": [1e308, 0, 0], "em": {"e": 1, "Avec": [1e308, 0, 0]}}))
    assert cli.main(["conjugate", str(path)]) == 2
    assert json.loads(capsys.readouterr().out) == {"error": message}


# -- conjugation ----------------------------------------------------------


def test_conjugate_color_r_matches_printed_antiparticle_form():
    spec = HamiltonianSpec(kind="ColorR", p=(1, 0, 0), x=(0, 2, 3), m=5)
    matrix, conj_spec = conjugate_hamiltonian(spec)
    assert np.array_equal(matrix, A[0] - 2 * BK[1] - 3 * BK[2] + 5 * B)
    anti = build_hamiltonian(HamiltonianSpec(kind="AntiR", p=(1, 0, 0), x=(0, 2, 3), m=5))
    assert np.array_equal(matrix, anti)
    assert conj_spec.x == (0.0, -2.0, -3.0)
    assert conj_spec.kind == "ColorR"


@pytest.mark.parametrize("color", ["R", "Y", "B"])
def test_conjugate_all_colors_equal_anti_kinds(color):
    spec = HamiltonianSpec(kind=f"Color{color}", p=(0.5, -1.5, 2.0), x=(1.0, 0.25, -0.75), m=1.5)
    matrix, _ = conjugate_hamiltonian(spec)
    anti = build_hamiltonian(
        HamiltonianSpec(kind=f"Anti{color}", p=spec.p, x=spec.x, m=spec.m)
    )
    assert np.array_equal(matrix, anti)


def test_conjugate_dirac_em_equals_charge_flip():
    em = EMField(e=1.25, A0=-0.5, Avec=(0.75, -1.0, 0.25))
    spec = HamiltonianSpec(kind="Dirac", p=(1.0, -2.0, 0.5), m=2.0, em=em)
    matrix, conj_spec = conjugate_hamiltonian(spec)
    flipped = HamiltonianSpec(kind="Dirac", p=spec.p, m=spec.m,
                              em=EMField(e=-1.25, A0=-0.5, Avec=em.Avec))
    assert np.abs(matrix - build_hamiltonian(flipped)).max() <= 1e-13
    assert conj_spec == flipped


def test_free_dirac_is_self_conjugate():
    spec = HamiltonianSpec(kind="Dirac", p=(1, 2, 3), m=4)
    matrix, conj_spec = conjugate_hamiltonian(spec)
    assert np.array_equal(matrix, build_hamiltonian(spec))
    assert conj_spec == spec


def test_conjugation_is_an_involution():
    spec = HamiltonianSpec(kind="ColorY", p=(1.5, 0.5, -2.0), x=(0.25, 1.0, -1.0), m=0.5)
    _, once = conjugate_hamiltonian(spec)
    twice_matrix, twice = conjugate_hamiltonian(once)
    assert twice == spec
    assert np.array_equal(twice_matrix, build_hamiltonian(spec))


@given(specs(kinds=("Dirac", "ColorR", "ColorY", "ColorB")))
def test_field_flip_equals_substitution_chain(spec):
    # dyadic inputs keep every sum exact, so the two routes agree bit for bit
    assert np.array_equal(substitution_conjugate(spec), conjugate_hamiltonian(spec)[0])


def test_conjugate_rejects_composite_kinds():
    with pytest.raises(ValueError, match="supports kinds"):
        conjugate_hamiltonian(HamiltonianSpec(kind="QuarkSum"))


def test_distinctness_generic_case():
    report = antiparticle_distinctness_check("R")
    assert report.margin == pytest.approx(math.sqrt(2.0))
    assert report.min_distance >= report.margin - 1e-9
    assert report.passed
    assert not report.degenerate


def test_distinctness_degenerate_case():
    report = antiparticle_distinctness_check("R", p=(0, 0, 0), x=(0, 0, 0), m=1.0)
    assert report.degenerate
    assert report.margin == 0.0
    assert report.min_distance == pytest.approx(0.0)


def full_stack_rows(color, n, seed):
    """Row `color` of n rotations from uniform unit quaternions."""
    q = np.random.default_rng(seed).normal(size=(n, 4))
    q /= np.linalg.norm(q, axis=1, keepdims=True)
    w, xq, yq, zq = q.T
    rots = np.stack(
        [
            np.stack([1 - 2 * (yq * yq + zq * zq), 2 * (xq * yq - zq * w), 2 * (xq * zq + yq * w)], axis=1),
            np.stack([2 * (xq * yq + zq * w), 1 - 2 * (xq * xq + zq * zq), 2 * (yq * zq - xq * w)], axis=1),
            np.stack([2 * (xq * zq - yq * w), 2 * (yq * zq + xq * w), 1 - 2 * (xq * xq + yq * yq)], axis=1),
        ],
        axis=1,
    )
    return rots[:, "RYB".index(color), :]


def row_distances(color, u, p, x, pv, xv, signs):
    """Distance of signs * (Anti(color) rotated by rows u, at (pv, xv)) to
    Color(color) at (p, x), summed row-wise over the a- and b-blocks."""
    e = np.eye(3)["RYB".index(color)]
    target_a, target_b = e * np.asarray(p, float), (1.0 - e) * np.asarray(x, float)
    a = signs[1:4] * (u * (u @ pv)[:, None]) - target_a
    b = signs[4:7] * (-xv[None, :] + u * (u @ xv)[:, None]) - target_b
    return np.sqrt((a ** 2).sum(axis=1) + (b ** 2).sum(axis=1))


DISTINCTNESS_CASES = [("R", (1.0, 0.0, 0.0), (0.0, 1.0, 1.0)),
                      ("Y", (0.5, -1.5, 2.0), (1.0, 0.25, -2.0)),
                      ("B", (-1.0, 2.0, 0.75), (0.5, -1.0, 1.5))]


@pytest.mark.parametrize("seed", [1729, 1, 2])
@pytest.mark.parametrize("color,p,x", DISTINCTNESS_CASES + [
    ("R", (0.3, -1.2, 0.7), (1.1, 0.4, -0.9)),
    ("Y", (0.3, -1.2, 0.7), (1.1, 0.4, -0.9)),
    ("B", (0.3, -1.2, 0.7), (1.1, 0.4, -0.9)),
])
def test_reflected_distances_equal_rotated_distances(color, p, x, seed):
    # reflection: sign mask REFLECT_SIGNS on c with p -> -p, x -> -x; it
    # needs no pass of its own because it lands on the same floats
    u = full_stack_rows(color, 5000, seed)
    pv, xv = np.array(p), np.array(x)
    rotated = row_distances(color, u, p, x, pv, xv, np.ones(8))
    reflected = row_distances(color, u, p, x, -pv, -xv, REFLECT_SIGNS)
    assert np.array_equal(rotated, reflected)


def test_distinctness_default_minima_are_exact():
    # R: u = (0, 1, 1)/sqrt(2) gives sqrt(3); Y, B: 3 - sqrt(5) at a golden-ratio u
    expected = {"R": math.sqrt(3.0), "Y": math.sqrt(3.0 - math.sqrt(5.0)),
                "B": math.sqrt(3.0 - math.sqrt(5.0))}
    for color, value in expected.items():
        report = antiparticle_distinctness_check(color)
        assert abs(report.min_distance - value) <= 1e-15
        assert report.passed


@settings(max_examples=60, deadline=None)
@given(color=st.sampled_from("RYB"), p=vec3, x=vec3,
       x_case=st.sampled_from(["free", "on the color axis", "zero"]))
def test_distinctness_minimum_is_below_every_sampled_rotation(color, p, x, x_case):
    axis = "RYB".index(color)
    if x_case != "free":
        x = tuple(v if k == axis and x_case != "zero" else 0.0 for k, v in enumerate(x))
    report = antiparticle_distinctness_check(color, p=p, x=x)
    assert report.passed
    pv, xv = np.array(p), np.array(x)
    sampled = row_distances(color, full_stack_rows(color, 20000, seed=5), p, x, pv, xv, np.ones(8))
    assert sampled.min() >= report.min_distance - 1e-12 * max(1.0, pv @ pv + xv @ xv)


def test_distinctness_validates_inputs():
    with pytest.raises(ValueError):
        antiparticle_distinctness_check("W")


# -- spectra ---------------------------------------------------------------


def test_rest_frame_spectrum():
    h = build_hamiltonian(HamiltonianSpec.from_dict(
        {"kind": "QQbar", "P": [0, 0, 0], "dx": [0, 0, 0], "m": 1}
    ))
    report = square_and_spectrum(h)
    assert report.scalar_square == pytest.approx(36.0)
    assert report.degeneracies == ((-6.0, 4), (6.0, 4))
    assert report.symmetric_about_zero


def test_moving_frame_spectrum():
    h = build_hamiltonian(HamiltonianSpec.from_dict(
        {"kind": "QQbar", "P": [3, 0, 0], "dx": [0, 2, 0], "m": 0}
    ))
    report = square_and_spectrum(h)
    assert report.scalar_square == pytest.approx(25.0)
    assert [n for _, n in report.degeneracies] == [4, 4]
    assert report.eigenvalues[0] == pytest.approx(-5.0)
    assert report.eigenvalues[-1] == pytest.approx(5.0)


def test_dirac_rest_spectrum():
    h = build_hamiltonian(HamiltonianSpec(kind="Dirac", m=2.5))
    report = square_and_spectrum(h)
    assert report.degeneracies == ((-2.5, 4), (2.5, 4))


def test_spectrum_rejects_non_hermitian():
    with pytest.raises(ValueError, match="Hermitian"):
        square_and_spectrum(np.triu(np.ones((8, 8))))


@pytest.mark.parametrize("h", [np.diag(np.arange(8.0)), np.full((8, 8), np.nan)],
                         ids=["outside-basis-span", "nan"])
def test_spectrum_rejects_matrices_outside_the_basis_span(h):
    with pytest.raises(ValueError, match="Hermitian"):
        square_and_spectrum(h)


def test_spectrum_flags_agree_with_eigenvalues_when_s_plus_r_overflows():
    h = build_hamiltonian(HamiltonianSpec(kind="Custom", scalar=1e308, a=(1e308, 0.0, 0.0)))
    report = square_and_spectrum(h)
    assert report.eigenvalues == (0.0,) * 4 + (math.inf,) * 4
    assert report.degeneracies == ((0.0, 4), (math.inf, 4))
    assert not report.symmetric_about_zero
    assert report.scalar_square is None


@settings(max_examples=300)
@given(specs(number=finite))
def test_closed_form_spectrum_matches_eigvalsh(spec):
    h = build_hamiltonian(spec)
    report = square_and_spectrum(h)
    eig = np.linalg.eigvalsh(h)  # ascending, as the closed form lists s - r, then s + r
    scale = max(1.0, float(np.abs(eig).max()))  # |s| + r
    assert np.abs(np.array(report.eigenvalues) - eig).max() <= 1e-12 * scale
    lam = float(eig @ eig) / 8.0
    assert abs(report.scalar_residual - np.abs(h @ h - lam * np.eye(8)).max()) <= 1e-12 * scale**2
    assert report.hermiticity_residual == 0.0


@pytest.mark.parametrize("kind", KINDS)
@settings(max_examples=60)
@given(data=st.data())
def test_spec_spectrum_is_the_matrix_route_read_off_the_row(kind, data):
    """At dyadic inputs the matrix route's readback is exact, so the row route equals it bit
    for bit (repr tells -0.0 from 0.0); elsewhere their eigenvalues agree within 4 ulp of
    |s| + r.  The row route's H = c . BASIS is Hermitian by construction: its residual is 0."""
    spec = data.draw(specs(kinds=(kind,)))
    assert repr(spec_spectrum(spec)) == repr(square_and_spectrum(build_hamiltonian(spec)))
    spec = data.draw(specs(kinds=(kind,), number=finite))
    row, matrix = spec_spectrum(spec), square_and_spectrum(build_hamiltonian(spec))
    ulp = math.ulp(abs(spec._c[0]) + math.hypot(*spec._c[1:]))
    assert all(abs(a - b) <= 4 * ulp for a, b in zip(row.eigenvalues, matrix.eigenvalues))
    assert repr(row.hermiticity_residual) == "0.0"


def test_em_breaks_spectral_symmetry_but_not_hermiticity():
    em = EMField(e=1.0, A0=2.0)
    h = build_hamiltonian(HamiltonianSpec(kind="Dirac", p=(1, 0, 0), m=1, em=em))
    report = square_and_spectrum(h)
    assert not report.symmetric_about_zero
    assert report.scalar_square is None


@given(vec3, vec3, vec3, vec3, mass)
def test_mass_squared_law_property(p, x, pbar, xbar, m):
    spec = HamiltonianSpec(kind="QQbar", p=p, x=x, pbar=pbar, xbar=xbar, m=m)
    h = build_hamiltonian(spec)
    big_p = np.array(p) + np.array(pbar)
    dx = np.array(x) - np.array(xbar)
    lam = float(big_p @ big_p + 4.0 * dx @ dx + 36.0 * m * m)
    assert np.abs(h @ h - lam * np.eye(8)).max() <= 1e-11 * max(1.0, lam)


def test_translation_invariance_of_qqbar_exact():
    base = dict(kind="QQbar", p=(0.5, 1.0, -0.25), pbar=(1.5, -0.5, 0.75), m=1.25)
    x, xbar = np.array([0.125, 2.0, -1.5]), np.array([1.0, -0.375, 0.25])
    shift = np.array([0.625, -2.25, 3.125])
    h0 = build_hamiltonian(HamiltonianSpec(x=tuple(x), xbar=tuple(xbar), **base))
    h1 = build_hamiltonian(
        HamiltonianSpec(x=tuple(x + shift), xbar=tuple(xbar + shift), **base)
    )
    assert np.array_equal(h0, h1)


def test_single_quark_shift_witness_changes_matrix():
    spec = HamiltonianSpec(kind="QuarkSum", p=(1, 2, 3), x=(0.5, -1.0, 2.0), m=1.0)
    shifted = HamiltonianSpec(kind="QuarkSum", p=(1, 2, 3), x=(1.5, -1.0, 2.0), m=1.0)
    diff = build_hamiltonian(shifted) - build_hamiltonian(spec)
    assert np.array_equal(diff, 2.0 * BK[0])
    assert np.abs(diff).max() == 2.0


@pytest.mark.parametrize("call,fragment", [
    (lambda: HamiltonianSpec(kind="Bogus"), "unknown kind 'Bogus'; expected one of"),
    (lambda: HamiltonianSpec(kind="Dirac", em={"e": 1.0}), "em must be an EMField"),
    (lambda: rotated_operators(np.eye(2)), "rotation must be 3x3, got (2, 2)"),
    (lambda: square_and_spectrum(np.eye(4)), "expected an 8x8 matrix, got (4, 4)"),
], ids=["unknown-kind", "em-dict", "rotation-2x2", "spectrum-4x4"])
def test_malformed_specs_and_matrices_are_rejected(call, fragment):
    with pytest.raises(ValueError, match=re.escape(fragment)):
        call()
