import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

from phasequark import clifford as cf
from phasequark.pauli_expr import PauliExpr, parse

SRC = Path(__file__).resolve().parent.parent / "src"

GAMMAS = {name: cf.named_operator(name) for name in ("A1", "A2", "A3", "B1", "B2", "B3", "B")}
I8 = np.eye(8)


def test_pauli_matrices():
    s0, s1, s2, s3 = cf.PAULI
    assert np.array_equal(s0, np.eye(2))
    assert np.array_equal(s1, np.array([[0, 1], [1, 0]]))
    assert np.array_equal(s2, np.array([[0, -1j], [1j, 0]]))
    assert np.array_equal(s3, np.array([[1, 0], [0, -1]]))


def test_kron3_first_factor_is_outermost():
    d = np.diag(cf.kron3(cf.PAULI[3], cf.PAULI[0], cf.PAULI[0]))
    assert np.array_equal(d, np.array([1, 1, 1, 1, -1, -1, -1, -1], dtype=complex))
    d = np.diag(cf.kron3(cf.PAULI[0], cf.PAULI[0], cf.PAULI[3]))
    assert np.array_equal(d, np.array([1, -1, 1, -1, 1, -1, 1, -1], dtype=complex))


@given(st.tuples(*[st.integers(min_value=0, max_value=3)] * 3))
def test_kron3_by_index_matches_kron3(ijk):
    i, j, k = ijk
    assert np.array_equal(
        cf.kron3_by_index(i, j, k), cf.kron3(cf.PAULI[i], cf.PAULI[j], cf.PAULI[k])
    )


def test_kron3_stack_holds_every_tensor_read_only():
    assert cf.KRON3_STACK.shape == (64, 8, 8)
    assert not cf.KRON3_STACK.flags.writeable
    for n in range(64):
        i, j, k = n >> 4, (n >> 2) & 3, n & 3
        assert np.array_equal(
            cf.KRON3_STACK[n], cf.kron3(cf.PAULI[i], cf.PAULI[j], cf.PAULI[k])
        ), (i, j, k)


def test_generator_definitions():
    s = cf.PAULI
    assert np.array_equal(GAMMAS["A1"], cf.kron3(s[1], s[1], s[0]))
    assert np.array_equal(GAMMAS["A2"], cf.kron3(s[2], s[1], s[0]))
    assert np.array_equal(GAMMAS["A3"], cf.kron3(s[3], s[1], s[0]))
    assert np.array_equal(GAMMAS["B"], cf.kron3(s[0], s[3], s[0]))
    for k in (1, 2, 3):
        assert np.array_equal(GAMMAS[f"B{k}"], cf.kron3(s[0], s[2], s[k]))


def test_seven_generators_anticommute_exactly():
    names = list(GAMMAS)
    for a in names:
        for b in names:
            anti = cf.anticommutator(GAMMAS[a], GAMMAS[b])
            target = 2.0 * I8 if a == b else np.zeros((8, 8))
            assert np.array_equal(anti, target), (a, b)


def test_generators_are_hermitian_involutions_with_unit_entries():
    allowed = {0, 1, -1, 1j, -1j}
    for name, g in GAMMAS.items():
        assert np.array_equal(g, g.conj().T), name
        assert np.array_equal(g @ g, I8), name
        assert set(np.unique(g)) <= allowed, name


def test_entry_reality_pattern():
    # the two sigma_2 factors of B2 multiply to real entries; B1 and B3
    # carry a single sigma_2 factor and stay purely imaginary
    for name in ("A1", "A3", "B", "B2"):
        assert np.array_equal(GAMMAS[name].imag, np.zeros((8, 8))), name
    for name in ("A2", "B1", "B3"):
        assert np.array_equal(GAMMAS[name].real, np.zeros((8, 8))), name


def test_complex_conjugation_pattern():
    conj = np.conj
    assert np.array_equal(conj(GAMMAS["A1"]), GAMMAS["A1"])
    assert np.array_equal(conj(GAMMAS["A3"]), GAMMAS["A3"])
    assert np.array_equal(conj(GAMMAS["A2"]), -GAMMAS["A2"])
    assert np.array_equal(conj(GAMMAS["B"]), GAMMAS["B"])
    assert np.array_equal(conj(GAMMAS["B2"]), GAMMAS["B2"])
    assert np.array_equal(conj(GAMMAS["B1"]), -GAMMAS["B1"])
    assert np.array_equal(conj(GAMMAS["B3"]), -GAMMAS["B3"])


def test_reflect_flips_vector_operators_and_fixes_B():
    b = GAMMAS["B"]  # reflection is conjugation by B
    for name in ("A1", "A2", "A3", "B1", "B2", "B3"):
        assert np.array_equal(b @ GAMMAS[name] @ b, -GAMMAS[name]), name
    assert np.array_equal(b @ b @ b, b)


def test_commutator_and_anticommutator_consistency():
    a, b = GAMMAS["A1"], GAMMAS["B2"]
    assert np.array_equal(
        (a @ b - b @ a) + cf.anticommutator(a, b), 2.0 * (a @ b)
    )


def test_charge_conjugation_matrix_properties():
    c = cf.build_C()
    assert np.array_equal(c.imag, np.zeros((8, 8)))
    assert np.array_equal(c @ c, -I8)
    assert np.array_equal(c @ (-c), I8)  # inverse is -C
    # one nonzero entry of magnitude 1 per row and column
    assert np.array_equal(np.sum(np.abs(c), axis=0), np.ones(8))
    assert np.array_equal(np.sum(np.abs(c), axis=1), np.ones(8))


def test_charge_conjugation_identities_with_s2():
    c = cf.build_C("s2")
    c_inv = -c
    assert np.array_equal(c @ GAMMAS["B"] @ c_inv, -GAMMAS["B"])
    for k in (1, 2, 3):
        ak, bk = GAMMAS[f"A{k}"], GAMMAS[f"B{k}"]
        assert np.array_equal(c @ np.conj(ak) @ c_inv, ak), k
        assert np.array_equal(c @ np.conj(bk) @ c_inv, bk), k


def test_only_s2_satisfies_all_Bk_identities():
    scan = cf.charge_conjugation_tau_scan()
    assert scan == {"s0": [1, 3], "s1": [1, 2], "s2": [], "s3": [2, 3]}
    # the lookup agrees with the matrix condition C conj(B_k) C^-1 == B_k, C^-1 = -C
    for tau, failing in scan.items():
        c = cf.build_C(tau)
        held = [np.array_equal(c @ np.conj(GAMMAS[f"B{k}"]) @ -c, GAMMAS[f"B{k}"]) for k in (1, 2, 3)]
        assert failing == [k for k, ok in zip((1, 2, 3), held) if not ok], tau


def test_build_C_rejects_unknown_tau():
    with pytest.raises(ValueError):
        cf.build_C("s9")


def test_gamma5_structure_and_chirality():
    g5 = cf.named_operator("gamma5")
    s = cf.PAULI
    assert np.array_equal(g5, cf.kron3(s[0], s[1], s[0]))
    assert np.array_equal(
        g5, -1j * GAMMAS["A1"] @ GAMMAS["A2"] @ GAMMAS["A3"]
    )
    assert np.array_equal(g5 @ g5, I8)
    assert np.array_equal(cf.anticommutator(g5, GAMMAS["B"]), np.zeros((8, 8)))
    for k in (1, 2, 3):
        assert np.array_equal(
            cf.anticommutator(g5, GAMMAS[f"B{k}"]), np.zeros((8, 8))
        )
        assert np.array_equal(g5 @ GAMMAS[f"A{k}"] - GAMMAS[f"A{k}"] @ g5, np.zeros((8, 8)))


def test_colored_gamma5():
    s = cf.PAULI
    expected = {
        "R": cf.kron3(s[1], s[1], s[1]),
        "Y": cf.kron3(s[2], s[1], s[2]),
        "B": cf.kron3(s[3], s[1], s[3]),
    }
    for color, target in expected.items():
        gc5 = cf.named_operator(f"gamma{color}5")
        assert np.array_equal(gc5, target), color
        assert np.array_equal(gc5 @ gc5, I8), color
        assert np.array_equal(
            cf.anticommutator(gc5, GAMMAS["B"]), np.zeros((8, 8))
        ), color


def test_colored_gamma5_rejects_unknown_color():
    # an unknown name is a ValueError that lists the table's names
    with pytest.raises(ValueError, match="unknown operator 'gammaG5'; known operators: " + ", ".join(cf.OPERATORS)):
        cf.named_operator("gammaG5")


def test_phase_table_is_the_product_rule_of_the_stack():
    stack = cf.KRON3_STACK
    for a in range(64):
        for b in range(64):
            assert np.array_equal(stack[a] @ stack[b], 1j ** cf.PHASE[a][b] * stack[a ^ b]), (a, b)


def test_tensor_labels_parse_to_their_tensors():
    for n, label in enumerate(cf.TENSOR_LABELS):
        assert parse(label) == PauliExpr.from_basis(n >> 4, (n >> 2) & 3, n & 3), label
        assert np.array_equal(parse(label).to_matrix(), cf.KRON3_STACK[n]), label


# (old text, new text) in clifford.py: sigma_1 sigma_2 = -i sigma_3 in place of i sigma_3
_PHASE1_MUTANT = ("[0, 0, 1, 3]", "[0, 0, 3, 3]")


def test_verify_fails_on_a_phase_table_mutant(tmp_path):
    """One wrong entry of the one-factor phase table fails `phasequark verify`, at tau-uniqueness."""
    shutil.copytree(SRC, tmp_path / "src", ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
    path = tmp_path / "src" / "phasequark" / "clifford.py"
    text = path.read_text(encoding="utf-8")
    old, new = _PHASE1_MUTANT
    assert text.count(old) == 1
    path.write_text(text.replace(old, new), encoding="utf-8")
    result = subprocess.run([sys.executable, "-m", "phasequark", "verify", "--suite", "clifford"],
                            capture_output=True, text=True, cwd=tmp_path,
                            env={**os.environ, "PYTHONPATH": str(tmp_path / "src")})
    assert result.returncode == 1, result.stderr
    failed = [c["name"] for c in json.loads(result.stdout)["checks"] if c["status"] != "pass"]
    assert failed == ["clifford/tau-uniqueness"]
