import math
import re

import numpy as np
import pytest
from hypothesis import given, strategies as st

from phasequark import phase_space as ps
from phasequark.phase_space import resolve_generator6
from phasequark.serialize import EXPORT_LABELS

SQRT3 = math.sqrt(3.0)


def test_build_G_places_signed_pair():
    g = resolve_generator6("G(1,5)")
    expected = np.zeros((6, 6))
    expected[0, 4] = 1.0
    expected[4, 0] = -1.0
    assert np.array_equal(g.matrix, expected)
    assert g.label == "G(1,5)"


@pytest.mark.parametrize("bad", [(0, 1), (1, 7), (2, 2)])
def test_build_G_rejects_bad_indices(bad):
    with pytest.raises(ValueError):
        resolve_generator6("G({},{})".format(*bad))


def test_F_definitions_match_G_sums():
    def G(m, n):
        return resolve_generator6(f"G({m},{n})")

    expected = {
        1: G(1, 5).matrix + G(2, 4).matrix,
        2: G(1, 2).matrix + G(4, 5).matrix,
        3: G(4, 1).matrix - G(5, 2).matrix,
        4: G(3, 4).matrix + G(1, 6).matrix,
        5: G(1, 3).matrix + G(4, 6).matrix,
        6: G(6, 2).matrix + G(5, 3).matrix,
        7: G(3, 2).matrix + G(6, 5).matrix,
        8: (G(4, 1).matrix + G(5, 2).matrix - 2.0 * G(6, 3).matrix) / SQRT3,
    }
    for i in range(1, 9):
        assert np.array_equal(resolve_generator6(f"F{i}").matrix, expected[i]), f"F{i}"


def test_R_is_sum_of_coordinate_blocks():
    r = resolve_generator6("R").matrix
    total = sum(resolve_generator6(f"G({i + 3},{i})").matrix for i in (1, 2, 3))
    assert np.array_equal(r, total)
    for i in (1, 2, 3):
        assert np.array_equal(resolve_generator6(f"R{i}").matrix,
                              resolve_generator6(f"G({i + 3},{i})").matrix)
    assert np.array_equal(r, sum(resolve_generator6(f"R{i}").matrix for i in (1, 2, 3)))


def test_H_and_J_aliases():
    assert np.array_equal(resolve_generator6("H1").matrix, resolve_generator6("F6").matrix)
    assert np.array_equal(resolve_generator6("H2").matrix, -resolve_generator6("F4").matrix)
    assert np.array_equal(resolve_generator6("H3").matrix, -resolve_generator6("F1").matrix)
    assert np.array_equal(resolve_generator6("J1").matrix, resolve_generator6("F7").matrix)
    assert np.array_equal(resolve_generator6("J2").matrix, resolve_generator6("F5").matrix)
    assert np.array_equal(resolve_generator6("J3").matrix, -resolve_generator6("F2").matrix)


@given(st.integers(min_value=1, max_value=8))
def test_generators_are_antisymmetric(i):
    m = resolve_generator6(f"F{i}").matrix
    assert np.array_equal(m, -m.T)


def test_structure_constant_canonical_triples():
    table = ps.structure_constants()
    expected = {
        (1, 2, 3): 1.0,
        (1, 4, 7): 0.5,
        (1, 6, 5): 0.5,
        (2, 4, 6): 0.5,
        (2, 5, 7): 0.5,
        (3, 4, 5): 0.5,
        (3, 7, 6): 0.5,
        (4, 5, 8): SQRT3 / 2.0,
        (6, 7, 8): SQRT3 / 2.0,
    }
    assert {t: table[t] for t in expected} == pytest.approx(expected)
    assert np.count_nonzero(table) == 6 * len(expected)  # each triple's six orders


@given(
    st.integers(min_value=1, max_value=8),
    st.integers(min_value=1, max_value=8),
    st.integers(min_value=1, max_value=8),
)
def test_structure_constants_totally_antisymmetric(i, k, j):
    f = ps.structure_constants()
    assert f[i, k, j] == -f[k, i, j]
    assert f[i, k, j] == f[k, j, i]


def test_su3_table_closes():
    ok, worst, rows = ps.verify_su3_table()
    assert ok
    assert worst <= 1e-12
    assert len(rows) == 28


def test_su3_table_rows_match_a_per_pair_reference():
    # reference: one pair at a time, each sum in the same order
    F = [resolve_generator6(f"F{i}").matrix for i in range(1, 9)]
    f = ps.structure_constants()
    reference = []
    for i in range(1, 9):
        for k in range(i + 1, 9):
            c = F[i - 1] @ F[k - 1] - F[k - 1] @ F[i - 1]
            coeffs = np.array([np.trace(c.T @ F[j]) / 4.0 for j in range(8)])
            expected = np.array([2.0 * f[i, k, j] for j in range(1, 9)])
            span = sum(coeffs[j] * F[j] for j in range(8))
            resid = max(float(np.abs(coeffs - expected).max()), float(np.abs(c - span).max()))
            reference.append({"pair": (i, k), "coefficients": coeffs.tolist(),
                              "expected": expected.tolist(), "residual": resid})
    ok, worst, rows = ps.verify_su3_table()
    assert rows == reference
    assert worst == max(row["residual"] for row in reference)
    assert ok and not ps.verify_su3_table(tol=worst / 2)[0]


def test_commutators_match_table_directly():
    # independent route: rebuild each bracket from the stored table and
    # compare matrices, rather than projecting onto the basis
    F = [resolve_generator6(f"F{i}").matrix for i in range(1, 9)]
    f = ps.structure_constants()
    for i in range(1, 9):
        for k in range(i + 1, 9):
            direct = ps.commutator6(F[i - 1], F[k - 1])
            from_table = sum(
                2.0 * f[i, k, j] * F[j - 1] for j in range(1, 9)
            )
            assert np.abs(direct - from_table).max() <= 1e-12, (i, k)


@given(st.tuples(*[st.integers(min_value=1, max_value=8)] * 3))
def test_jacobi_identity(triple):
    i, j, k = triple
    a, b, c = (resolve_generator6(f"F{n}").matrix for n in (i, j, k))
    acc = (
        ps.commutator6(ps.commutator6(a, b), c)
        + ps.commutator6(ps.commutator6(b, c), a)
        + ps.commutator6(ps.commutator6(c, a), b)
    )
    assert np.abs(acc).max() <= 1e-12


def test_R_is_central():
    r = resolve_generator6("R").matrix
    for i in range(1, 9):
        assert np.abs(ps.commutator6(r, resolve_generator6(f"F{i}").matrix)).max() <= 1e-12


def test_exp_generator_at_zero_is_identity():
    assert np.allclose(ps.exp_generator(resolve_generator6("F5"), 0.0), np.eye(6), atol=1e-15)


def test_exp_generator_rejects_non_finite_angle():
    with pytest.raises(ValueError):
        ps.exp_generator(resolve_generator6("F1"), float("nan"))


# Every label resolve_generator6 accepts.
GENERATOR_LABELS = (
    [f"F{i}" for i in range(1, 9)]
    + ["R", "R1", "R2", "R3", "H1", "H2", "H3", "J1", "J2", "J3"]
    + [f"G({m},{n})" for m in range(1, 7) for n in range(1, 7) if m != n]
)
# Sums of disjoint planes with unit weights: S = -g @ g is diagonal.
PLANE_SUM_LABELS = [label for label in GENERATOR_LABELS if label != "F8"]
NAMED_LABELS = [label for label in GENERATOR_LABELS if not label.startswith("G(")]


def test_label_table_holds_the_eighteen_named_generators():
    assert sorted(ps._LABEL_TERMS) == sorted(NAMED_LABELS)
    assert len(NAMED_LABELS) == 18


@pytest.mark.parametrize("label", NAMED_LABELS)
def test_each_named_label_resolves_to_its_builder(literal_generators6, label):
    g = ps.resolve_generator6(label)
    assert g.label == label
    assert np.array_equal(g.matrix, literal_generators6[label])


def test_shared_generators_and_structure_constants_are_read_only():
    assert resolve_generator6("F3") is resolve_generator6("F3")  # one shared instance per name
    for m in (resolve_generator6("H2").matrix, resolve_generator6("G(1,2)").matrix):
        with pytest.raises(ValueError, match="read-only"):
            m[0, 1] = 5.0
    assert np.array_equal(resolve_generator6("H2").matrix, -resolve_generator6("F4").matrix)
    # a matrix given to Generator6 is copied, so the caller's array stays writable
    given = np.zeros((6, 6))
    ps.Generator6("zero", given)
    given[0, 1] = 1.0
    f = ps.structure_constants()
    with pytest.raises(ValueError, match="read-only"):
        f[1, 2, 3] = 0.0
    assert f.shape == (9, 9, 9) and f[1, 2, 3] == 1.0
    assert np.array_equal(f, -f.transpose(1, 0, 2))
    assert np.array_equal(f, f.transpose(1, 2, 0))


UNKNOWN = ("unknown generator label {!r}; expected F1..F8, R, R1..R3, H1..H3, J1..J3, "
           "or G(m,n)")
LABEL_ERRORS = [
    (ps.resolve_generator6, "F9", "F index must be in 1..8, got 9"),
    (ps.resolve_generator6, "F0", "F index must be in 1..8, got 0"),
    (ps.resolve_generator6, "R0", "R index must be 1..3, got 0"),
    (ps.resolve_generator6, "R4", "R index must be 1..3, got 4"),
    (ps.resolve_generator6, "H0", "H index must be 1..3, got 0"),
    (ps.resolve_generator6, "H4", "H index must be 1..3, got 4"),
    (ps.resolve_generator6, "J0", "J index must be 1..3, got 0"),
    (ps.resolve_generator6, "J4", "J index must be 1..3, got 4"),
    (ps.resolve_generator6, "J9", "J index must be 1..3, got 9"),
    (ps.resolve_generator6, "G(7,1)", "G indices must be in 1..6, got (7, 1)"),
    (ps.resolve_generator6, "G(0,2)", "G indices must be in 1..6, got (0, 2)"),
    (ps.resolve_generator6, "G(3,3)", "G indices must differ, got (3, 3)"),
    *[(ps.resolve_generator6, label, UNKNOWN.format(label))
      for label in ("X1", "F", "H", "F10", "R12", "r1", "G(1,2,3)", "G(12,1)", "",
                    # a label is ASCII: no trailing newline, no other script's digits
                    "G(1,2)\n", "G(\u0661,2)", "F\u0663", "R\u00b2")],
]


@pytest.mark.parametrize("fn,arg,message", LABEL_ERRORS,
                         ids=[f"{fn.__name__}({arg!r})" for fn, arg, _ in LABEL_ERRORS])
def test_label_and_index_errors_are_pinned(fn, arg, message):
    with pytest.raises(ValueError) as info:
        fn(arg)
    assert str(info.value) == message


def test_export_label_help_is_pinned():
    assert EXPORT_LABELS.startswith(
        "F1..F8, R, R1..R3, H1..H3, J1..J3, G(m,n)  (6x6 generators); A1, A2, A3, B, ")


# the three diagonal generators of derive_pairing_from_diagonal, built as it builds them
_F3, _F8 = resolve_generator6("F3").matrix, resolve_generator6("F8").matrix
DIAGONAL_GENERATORS = {
    "F3": resolve_generator6("F3"),
    "(F3+sqrt3*F8)/2": ps.Generator6("(F3+sqrt3*F8)/2", (_F3 + SQRT3 * _F8) / 2),
    "(F3-sqrt3*F8)/2": ps.Generator6("(F3-sqrt3*F8)/2", (_F3 - SQRT3 * _F8) / 2),
}
STACK_ANGLES = np.array(
    [k * math.pi / 2 for k in range(-8, 9)]
    + [0.0, -0.0, 1e-300, 0.3, -2.9, 7.5, 123.456, -1e6, 1e20, -1e20, 1e300, -1e300]
)


@pytest.mark.parametrize(
    "generator",
    [resolve_generator6(label) for label in GENERATOR_LABELS]
    + list(DIAGONAL_GENERATORS.values()),
    ids=list(GENERATOR_LABELS) + list(DIAGONAL_GENERATORS),
)
def test_stacked_exponential_rows_equal_scalar_calls(generator):
    stack = ps.exp_generator(generator, STACK_ANGLES)
    assert stack.shape == (len(STACK_ANGLES), 6, 6)
    for theta, m in zip(STACK_ANGLES.tolist(), stack):
        assert np.array_equal(m, ps.exp_generator(generator, theta)), theta


def test_stacked_exponential_edge_shapes_and_angles():
    g = resolve_generator6("F4")
    assert ps.exp_generator(g, np.array([])).shape == (0, 6, 6)
    assert ps.exp_generator(g, [0.5]).shape == (1, 6, 6)
    for bad in ([0.1, float("nan")], [float("inf")], np.array([1.0, -np.inf, 2.0])):
        with pytest.raises(ValueError, match="finite"):
            ps.exp_generator(g, bad)
    with pytest.raises(ValueError):
        ps.exp_generator(g, np.zeros((2, 2)))


@given(
    st.sampled_from([f"F{i}" for i in range(1, 9)]
                    + ["R", "H1", "H2", "H3", "J1", "J2", "J3"]),
    st.floats(min_value=-7.0, max_value=7.0, allow_nan=False),
)
def test_exponentials_are_orthogonal_and_symplectic(label, theta):
    m = ps.exp_generator(resolve_generator6(label), theta)
    assert ps.is_orthogonal(m)
    assert ps.is_symplectic(m)


@given(
    st.sampled_from([label for label in GENERATOR_LABELS if label[0] in "GR" and label != "R"]),
    st.floats(min_value=-7.0, max_value=7.0, allow_nan=False),
)
def test_single_plane_exponential_matches_rodrigues(label, theta):
    g = resolve_generator6(label).matrix
    rodrigues = np.eye(6) + math.sin(theta) * g + (1.0 - math.cos(theta)) * (g @ g)
    assert np.abs(ps.exp_generator(g, theta) - rodrigues).max() <= 1e-13


@pytest.mark.parametrize("label", PLANE_SUM_LABELS)
def test_quarter_turns_of_plane_sums_are_exact_signed_permutations(label):
    g = resolve_generator6(label)
    quarter = ps.exp_generator(g, math.pi / 2)
    power = np.eye(6)
    for k in range(9):
        m = ps.exp_generator(g, k * math.pi / 2)
        assert set(np.unique(m).tolist()) <= {0.0, 1.0, -1.0}, k
        assert np.array_equal(m, power), k
        assert np.array_equal(ps.exp_generator(g, -k * math.pi / 2), power.T), k
        power = quarter @ power


@pytest.mark.parametrize("label", ["F1", "F8", "R", "J2"])
@pytest.mark.parametrize("theta", [1e20, -1e300, 1.7e308])
def test_exponential_stays_orthogonal_at_huge_angles(label, theta):
    m = ps.exp_generator(resolve_generator6(label), theta)
    assert np.isfinite(m).all()
    assert ps.is_orthogonal(m)
    assert ps.is_symplectic(m)


@given(
    st.sampled_from(["F1", "F8", "R", "G(2,6)"]),
    st.floats(min_value=-7.0, max_value=7.0, allow_nan=False),
    st.integers(min_value=0, max_value=2**32 - 1),
)
def test_exponential_commutes_with_change_of_basis(label, theta, seed):
    # A rotated generator has a non-diagonal S with degenerate eigenvalues.
    q, _ = np.linalg.qr(np.random.default_rng(seed).normal(size=(6, 6)))
    g = resolve_generator6(label).matrix
    rotated = q @ g @ q.T
    rotated = (rotated - rotated.T) / 2.0
    expected = q @ ps.exp_generator(g, theta) @ q.T
    assert np.abs(ps.exp_generator(rotated, theta) - expected).max() <= 1e-12
    for huge in (1e8, -1e300):
        assert ps.is_orthogonal(ps.exp_generator(rotated, huge))


def test_exp_generator_rejects_non_antisymmetric_matrix():
    with pytest.raises(ValueError, match="antisymmetric"):
        ps.exp_generator(np.eye(6), 0.5)
    with pytest.raises(ValueError, match="6x6"):
        ps.exp_generator(np.zeros((4, 4)), 0.5)


def test_exponential_matches_expm_oracle():
    linalg = pytest.importorskip("scipy.linalg")
    rng = np.random.default_rng(11)
    for label in GENERATOR_LABELS:
        g = resolve_generator6(label).matrix
        for theta in rng.uniform(-7.0, 7.0, size=25):
            diff = np.abs(ps.exp_generator(g, theta) - linalg.expm(theta * g)).max()
            assert diff <= 1e-12, (label, theta)


def test_F2_generates_simultaneous_axis3_rotation():
    theta = 0.7
    m = ps.exp_generator(resolve_generator6("F2"), theta)
    c, s = math.cos(theta), math.sin(theta)
    block = np.array([[c, s], [-s, c]])
    assert np.allclose(m[np.ix_([0, 1], [0, 1])], block, atol=1e-13)
    assert np.allclose(m[np.ix_([3, 4], [3, 4])], block, atol=1e-13)
    assert np.allclose(m[np.ix_([2, 5], [2, 5])], np.eye(2), atol=1e-13)


def test_group_additivity():
    g = resolve_generator6("F4")
    lhs = ps.exp_generator(g, 0.9) @ ps.exp_generator(g, -0.4)
    assert np.abs(lhs - ps.exp_generator(g, 0.5)).max() <= 1e-11


def test_is_orthogonal_rejects_scaling():
    assert not ps.is_orthogonal(np.diag([2.0, 1, 1, 1, 1, 1]))
    assert ps.is_orthogonal(np.eye(6))


def test_reciprocity_and_reflection():
    r = resolve_generator6("R")
    recip = ps.exp_generator(r, math.pi / 2.0)
    # (p, x) -> (-x, p): documented sign convention
    expected = np.zeros((6, 6))
    expected[:3, 3:] = -np.eye(3)
    expected[3:, :3] = np.eye(3)
    assert np.abs(recip - expected).max() <= 1e-15
    reflection = recip @ recip
    assert np.abs(reflection + np.eye(6)).max() <= 1e-12
    assert np.abs(ps.exp_generator(r, math.pi) + np.eye(6)).max() <= 1e-12


def test_phase_vector_round_trip():
    v = ps.PhaseVector.from_array([1, 2, 3, 4, 5, 6])
    assert v.p == (1.0, 2.0, 3.0)
    assert v.x == (4.0, 5.0, 6.0)
    assert np.array_equal(v.as_array(), np.arange(1.0, 7.0))


def test_pairing_tables_match_printed_assignments():
    assert ps.pairing("Standard").describe() == {
        "label": "Standard",
        "momenta": ["p1", "p2", "p3"],
        "positions": ["x1", "x2", "x3"],
    }
    assert ps.pairing("R").describe() == {
        "label": "R",
        "momenta": ["p1", "x2", "-x3"],
        "positions": ["x1", "-p2", "p3"],
    }
    assert ps.pairing("Y").describe() == {
        "label": "Y",
        "momenta": ["-x1", "p2", "x3"],
        "positions": ["p1", "x2", "-p3"],
    }
    assert ps.pairing("B").describe() == {
        "label": "B",
        "momenta": ["x1", "-x2", "p3"],
        "positions": ["-p1", "p2", "x3"],
    }
    assert ps.pairing("Even(R)").describe() == {
        "label": "Even(R)",
        "momenta": ["x1", "-p2", "p3"],
        "positions": ["-p1", "-x2", "x3"],
    }


def test_apply_pairing_red_example():
    result = ps.apply_pairing(
        ps.pairing("R"), ps.PhaseVector.from_array([1, 2, 3, 4, 5, 6])
    )
    assert result.p == (1.0, 5.0, -6.0)
    assert result.x == (4.0, -2.0, 3.0)


def test_all_pairings_are_symplectic_and_orthogonal():
    for tag in ps.pairing_tags():
        m = ps.pairing(tag).matrix()
        assert ps.is_symplectic(m), tag
        assert ps.is_orthogonal(m), tag


@pytest.mark.parametrize("tag", ["Standard", "R", "Y", "B"])
def test_even_pairing_is_its_pairing_after_the_inverse_quarter_turn_of_R(tag):
    # the second route: exp(-pi/2 * R) as a closed-form exponential, not the slot map
    turned = ps.pairing(tag).matrix() @ ps.exp_generator(resolve_generator6("R"), -math.pi / 2)
    assert np.array_equal(ps.pairing(f"Even({tag})").matrix(), turned)


def test_unknown_pairing_tag_raises():
    with pytest.raises(ValueError, match="unknown pairing tag"):
        ps.pairing("Purple")


@pytest.mark.parametrize(
    "color,quarter", [("R", "H1"), ("Y", "H2"), ("B", "H3")]
)
def test_pairings_derive_from_quarter_turn_plus_rotation(color, quarter):
    derived = ps.derive_pairing_from_rotation(color)
    assert derived.quarter_turn == quarter
    assert derived.residual == 0.0
    assert np.array_equal(derived.matrix, ps.pairing(color).matrix())
    assert ps.is_orthogonal(derived.matrix)
    assert ps.is_symplectic(derived.matrix)


@pytest.mark.parametrize(
    "color,generator,angle",
    [
        ("R", "(F3-sqrt3*F8)/2", math.pi / 2.0),
        ("Y", "(F3+sqrt3*F8)/2", math.pi / 2.0),
        ("B", "F3", -math.pi / 2.0),
    ],
)
def test_pairings_derive_from_diagonal_generators(color, generator, angle):
    derived = ps.derive_pairing_from_diagonal(color)
    assert derived.quarter_turn == generator
    assert derived.quarter_turn_angle == pytest.approx(angle)
    assert derived.residual <= 1e-12
    assert np.abs(derived.matrix - ps.pairing(color).matrix()).max() <= 1e-12


@pytest.mark.parametrize("call,fragment", [
    (lambda: ps.PhaseVector.from_array([1, 2]), "phase vector needs 6 components, got (2,)"),
    (lambda: ps.Generator6("X", np.zeros((5, 5))), "X: generator must be 6x6, got (5, 5)"),
    (lambda: ps.Generator6("X", np.ones((6, 6))), "X: generator must be antisymmetric"),
    (lambda: ps.derive_pairing_from_rotation("W"), "color must be one of R, Y, B, got 'W'"),
    (lambda: ps.derive_pairing_from_diagonal("W"), "color must be one of R, Y, B, got 'W'"),
], ids=["vector-2", "generator-5x5", "generator-symmetric", "rotation-color", "diagonal-color"])
def test_malformed_vectors_generators_and_colors_are_rejected(call, fragment):
    with pytest.raises(ValueError, match=re.escape(fragment)):
        call()
