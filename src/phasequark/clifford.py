"""8x8 Clifford generators for three colored Dirac structures.

Each named operator is a phase times one triple Kronecker product of
Pauli matrices, and OPERATORS is its single definition: name -> (n,
(i, j, k)) means i**n * kron3(s_i, s_j, s_k).  The builders, BASIS, the
DSL, export and verify all read it; verify's gamma5-chirality check also
forms gamma5 = -i A1 A2 A3 and gammaC5 = -i A_c B_u B_v (c, u, v cyclic)
by matmul, a second route to those rows.  kron3 puts the first factor
outermost (slowest index): kron3(a, b, c) = kron(kron(a, b), c).

The seven generators A_k = kron3(s_k, s1, s0), B = kron3(s0, s3, s0) and
B_k = kron3(s0, s2, s_k), k = 1..3, are Hermitian involutions and pairwise
anticommute, a rank-7 Clifford family; every entry lies in {0, +-1, +-i},
so identities between their products hold exactly in complex floating
point and are checked with exact equality.  The middle factor of B_k must
be s2: with any other choice B_k would fail to anticommute with the A_k or
with B, and the mixed momentum-position cross terms of squared
Hamiltonians would survive.

Charge conjugation uses C(tau) = -i * kron3(s2, s2, tau) with tau a Pauli
matrix, so C^2 = -1 and C^-1 = -C.  Only tau = s2 satisfies all of

    C B C^-1 = -B,  C conj(A_k) C^-1 = A_k,  C conj(B_k) C^-1 = B_k;

tau = s0, s1, s3 each break the B_k rule for at least one k.

KRON3_STACK holds all 64 tensors kron3(s_i, s_j, s_k) as one read-only
(64, 8, 8) array, entry 16 i + 4 j + k, built from PAULI by one einsum at
import.  A linear combination of tensors is then a single matmul of its
coefficients against the selected entries flattened to rows of 64.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "PAULI",
    "KRON3_STACK",
    "OPERATORS",
    "GENERATOR_NAMES",
    "kron3",
    "named_operator",
    "build_A",
    "build_B",
    "build_Bk",
    "anticommutator",
    "commutator8",
    "build_C",
    "charge_conjugation_tau_scan",
    "build_gamma5",
    "build_colored_gamma5",
]

PAULI: tuple[np.ndarray, ...] = (
    np.eye(2, dtype=complex),
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
)

_TAU_NAMES = ("s0", "s1", "s2", "s3")

# KRON3_STACK[16 i + 4 j + k][(a c e), (b d f)] = s_i[a, b] s_j[c, d] s_k[e, f]
KRON3_STACK: np.ndarray = np.einsum(
    "iab,jcd,kef->ijkacebdf", PAULI, PAULI, PAULI
).reshape(64, 8, 8)
KRON3_STACK.flags.writeable = False


def kron3(a: np.ndarray, b: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Triple Kronecker product, first factor outermost (slowest index)."""
    return np.kron(np.kron(np.asarray(a, dtype=complex), b), c)


def kron3_by_index(i: int, j: int, k: int) -> np.ndarray:
    """kron3 of Pauli matrices selected by index, e.g. (3, 1, 0)."""
    return kron3(PAULI[i], PAULI[j], PAULI[k])


# name -> (n, (i, j, k)): the operator i**n * kron3(s_i, s_j, s_k)
OPERATORS: dict[str, tuple[int, tuple[int, int, int]]] = {
    "A1": (0, (1, 1, 0)), "A2": (0, (2, 1, 0)), "A3": (0, (3, 1, 0)),
    "B": (0, (0, 3, 0)),
    "B1": (0, (0, 2, 1)), "B2": (0, (0, 2, 2)), "B3": (0, (0, 2, 3)),
    "C": (3, (2, 2, 2)),
    "gamma5": (0, (0, 1, 0)),
    "gammaR5": (0, (1, 1, 1)), "gammaY5": (0, (2, 1, 2)), "gammaB5": (0, (3, 1, 3)),
}
# the seven anticommuting involutions, in the order of hamiltonian.BASIS
GENERATOR_NAMES = ("A1", "A2", "A3", "B1", "B2", "B3", "B")
_I_POWER = (1, 1j, -1, -1j)


def _tensor(n: int, i: int, j: int, k: int) -> np.ndarray:
    return _I_POWER[n] * KRON3_STACK[16 * i + 4 * j + k]


def named_operator(name: str) -> np.ndarray:
    """The table's operator i**n * kron3(s_i, s_j, s_k), a new array; KeyError if unknown."""
    n, ijk = OPERATORS[name]
    return _tensor(n, *ijk)


def build_A(k: int) -> np.ndarray:
    """Momentum-sector generator A_k = kron3(s_k, s1, s0)."""
    if isinstance(k, bool) or not isinstance(k, (int, np.integer)) or k not in (1, 2, 3):
        raise ValueError(f"A index must be 1..3, got {k}")
    return named_operator(f"A{k}")


def build_B() -> np.ndarray:
    """Mass-sector generator B = kron3(s0, s3, s0)."""
    return named_operator("B")


def build_Bk(k: int) -> np.ndarray:
    """Position-sector generator B_k = kron3(s0, s2, s_k)."""
    if isinstance(k, bool) or not isinstance(k, (int, np.integer)) or k not in (1, 2, 3):
        raise ValueError(f"B index must be 1..3, got {k}")
    return named_operator(f"B{k}")


def anticommutator(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    return x @ y + y @ x


def commutator8(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    return x @ y - y @ x


def build_C(tau: str = "s2") -> np.ndarray:
    """Charge conjugation C = -i * kron3(s2, s2, tau): the table's C, last factor tau."""
    if tau not in _TAU_NAMES:
        raise ValueError(f"tau must be one of {_TAU_NAMES}, got {tau!r}")
    n, (i, j, _) = OPERATORS["C"]
    return _tensor(n, i, j, _TAU_NAMES.index(tau))


def charge_conjugation_tau_scan() -> dict[str, list[int]]:
    """For each tau choice, list the k for which C conj(B_k) C^-1 != B_k.

    The B and A_k rules hold for every tau; only tau = s2 clears the B_k
    rule for all three k, which is why it is the default in build_C.
    """
    bk = np.stack([build_Bk(k) for k in (1, 2, 3)])
    failures: dict[str, list[int]] = {}
    for tau in _TAU_NAMES:
        c = build_C(tau)
        held = (c @ np.conj(bk) @ -c == bk).all(axis=(1, 2))
        failures[tau] = [k for k, ok in zip((1, 2, 3), held) if not ok]
    return failures


def build_gamma5() -> np.ndarray:
    """Chirality matrix -i A1 A2 A3 = kron3(s0, s1, s0)."""
    return named_operator("gamma5")


def build_colored_gamma5(color: str) -> np.ndarray:
    """Colored chirality -i A_c B_(c+1) B_(c+2), cyclic in the color axis.

    Closed forms: R -> kron3(s1, s1, s1), Y -> kron3(s2, s1, s2),
    B -> kron3(s3, s1, s3).  Each anticommutes with the mass term B.
    """
    if color not in ("R", "Y", "B"):
        raise ValueError(f"color must be one of R, Y, B, got {color!r}")
    return named_operator(f"gamma{color}5")
