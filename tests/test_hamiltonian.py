import dataclasses
import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, strategies as st

from phasequark import clifford as cf
from phasequark.hamiltonian import (
    BASIS,
    KINDS,
    REFLECT_SIGNS,
    EMField,
    HamiltonianSpec,
    antiparticle_distinctness_check,
    build_composite,
    build_hamiltonian,
    coefficient_pattern,
    coefficients,
    colored_sum,
    conjugate_hamiltonian,
    matrices,
    rotate_hamiltonian,
    rotated_operators,
    rotation_matrix,
    square_and_spectrum,
)

A = [cf.build_A(k) for k in (1, 2, 3)]
BK = [cf.build_Bk(k) for k in (1, 2, 3)]
B = cf.build_B()

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


def test_reflect_signs_match_conjugation_by_b():
    for sign, g in zip(REFLECT_SIGNS, BASIS.reshape(8, 8, 8)):
        assert np.array_equal(cf.reflect(g), sign * g)


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
        ({"kind": "QQbar", "dx": "abc"}, "dx[0]"),
        ({"kind": "AntiY", "x": "123"}, "x[0]"),
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


def test_rotation_matrix_rejects_bad_axes():
    with pytest.raises(ValueError, match="unit"):
        rotation_matrix((1.0, 1.0, 0.0), 0.5)
    with pytest.raises(ValueError, match="axis index"):
        rotation_matrix(4, 0.5)
    with pytest.raises(ValueError, match="finite"):
        rotation_matrix(3, float("nan"))


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


@given(vec3, vec3, mass, st.integers(min_value=0, max_value=10 ** 6))
def test_quark_sum_rotation_invariance(p, x, m, pick):
    rng = np.random.default_rng(pick)
    axis = rng.normal(size=3)
    axis /= np.linalg.norm(axis)
    phi = float(rng.uniform(-math.pi, math.pi))
    spec = HamiltonianSpec(kind="QuarkSum", p=p, x=x, m=m)
    h = build_hamiltonian(spec)
    assert np.abs(h - rotate_hamiltonian(spec, tuple(axis), phi)).max() <= 1e-12


@given(specs(kinds=KINDS[:-1], number=finite), unit_axis,
       st.floats(min_value=-math.pi, max_value=math.pi))
def test_rotation_matches_operator_route(spec, axis, phi):
    rot = rotation_matrix(axis, phi)
    expected = closed_form(spec, rot)
    assert np.abs(rotate_hamiltonian(spec, axis, phi) - expected).max() <= 1e-12


def test_rotate_rejects_custom():
    with pytest.raises(ValueError, match="Custom"):
        rotate_hamiltonian(HamiltonianSpec(kind="Custom"), 3, 0.5)


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


def test_conjugate_rejects_composite_kinds():
    with pytest.raises(ValueError, match="supports kinds"):
        conjugate_hamiltonian(HamiltonianSpec(kind="QuarkSum"))


def test_coefficient_pattern_projectors():
    phi, psi, m = coefficient_pattern(HamiltonianSpec(kind="ColorR", m=2.0))
    assert np.array_equal(phi, np.diag([1.0, 0, 0]))
    assert np.array_equal(psi, np.diag([0.0, 1, 1]))
    assert m == 2.0
    phi_a, psi_a, _ = coefficient_pattern(HamiltonianSpec(kind="AntiR"))
    assert np.array_equal(phi_a, phi)
    assert np.array_equal(psi_a, -psi)
    with pytest.raises(ValueError):
        coefficient_pattern(HamiltonianSpec(kind="Dirac"))


def test_distinctness_generic_case():
    report = antiparticle_distinctness_check("R", n_samples=4000, seed=11)
    assert report.margin == pytest.approx(math.sqrt(2.0))
    assert report.min_distance >= report.margin - 1e-9
    assert report.passed
    # reflection example: position coefficients come out with flipped signs
    assert report.reflected_b_coefficients == (0.0, -1.0, -1.0)
    assert report.target_b_coefficients == (0.0, 1.0, 1.0)
    assert not report.degenerate


def test_distinctness_degenerate_case():
    report = antiparticle_distinctness_check("R", p=(0, 0, 0), x=(0, 0, 0), m=1.0,
                                             n_samples=100, seed=3)
    assert report.degenerate
    assert report.margin == 0.0
    assert report.min_distance == pytest.approx(0.0)


def full_stack_rows(color, n, seed):
    """Row `color` of the whole (n, 3, 3) quaternion rotation stack at once:
    the reference for the block-wise draw of one row."""
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


@pytest.mark.parametrize("n", [1, 10001, 25000])
@pytest.mark.parametrize("color,p,x", DISTINCTNESS_CASES)
def test_distinctness_blocks_equal_the_full_stack(color, p, x, n):
    report = antiparticle_distinctness_check(color, p=p, x=x, m=1.0, n_samples=n, seed=5)
    pv, xv = np.array(p), np.array(x)
    u = full_stack_rows(color, n, seed=5)
    assert report.min_distance == float(row_distances(color, u, p, x, pv, xv, np.ones(8)).min())


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


def test_distinctness_memory_does_not_grow_with_samples():
    tracemalloc.start()
    try:
        report = antiparticle_distinctness_check("R", n_samples=1_000_000)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 20_000_000
    assert report.passed


def test_distinctness_validates_inputs():
    with pytest.raises(ValueError):
        antiparticle_distinctness_check("W")
    with pytest.raises(ValueError):
        antiparticle_distinctness_check("R", n_samples=0)


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
