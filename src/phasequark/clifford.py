"""8x8 Clifford generators for three colored Dirac structures.

The 8x8 operator algebra is stated here once, as two tables and one
reader: OPERATORS maps name -> (n, (i, j, k)), the operator i**n *
kron3(s_i, s_j, s_k); PHASE is the product rule of those tensors; and
named_operator reads OPERATORS.  BASIS, the DSL, export and verify read
these three; verify's gamma5-chirality check also forms gamma5 = -i A1 A2
A3 and gammaC5 = -i A_c B_u B_v (c, u, v cyclic) by matmul, a second
route to those rows.  kron3 puts the first factor outermost (slowest
index): kron3(a, b, c) = kron(kron(a, b), c).

The seven generators A_k = kron3(s_k, s1, s0), B = kron3(s0, s3, s0) and
B_k = kron3(s0, s2, s_k), k = 1..3, are Hermitian involutions and pairwise
anticommute, a rank-7 Clifford family; every entry lies in {0, +-1, +-i},
so identities between their products hold exactly in complex floating
point and are checked with exact equality.  The middle factor of B_k must
be s2: with any other choice B_k would fail to anticommute with the A_k or
with B, and the mixed momentum-position cross terms of squared
Hamiltonians would survive.

KRON3_STACK holds all 64 tensors T_n = kron3(s_i, s_j, s_k) as one
read-only (64, 8, 8) array, entry n = 16 i + 4 j + k, built from PAULI by
one einsum at import; TENSOR_LABELS[n] is its DSL label ``si#sj#sk``.  A
linear combination of tensors is then a single matmul of its coefficients
against the selected entries flattened to rows of 64.  With the two-bit
codes I = 0, X = 1, Y = 2, Z = 3 a single-factor product is
sigma_a sigma_b = i^e(a, b) sigma_(a xor b), the (x|z) bit form of
Aaronson & Gottesman, "Improved simulation of stabilizer circuits"
(arXiv:quant-ph/0406196).  Factor by factor, the product of two tensors is

    T_a T_b = i^n T_c,   c = a xor b,   n = sum of the three e's mod 4,

and ``PHASE[a][b] = n`` tabulates all 64 x 64 pairs.

Charge conjugation uses C(tau) = -i * kron3(s2, s2, tau) with tau a Pauli
matrix, so C^2 = -1 and C^-1 = -C.  Only tau = s2 satisfies all of

    C B C^-1 = -B,  C conj(A_k) C^-1 = A_k,  C conj(B_k) C^-1 = B_k;

tau = s0, s1, s3 each break the B_k rule for at least one k.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "PAULI",
    "KRON3_STACK",
    "TENSOR_LABELS",
    "PHASE",
    "OPERATORS",
    "GENERATOR_NAMES",
    "kron3",
    "named_operator",
    "anticommutator",
    "build_C",
    "charge_conjugation_tau_scan",
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
TENSOR_LABELS = tuple("s%d#s%d#s%d" % (n >> 4, (n >> 2) & 3, n & 3) for n in range(64))

# sigma_a sigma_b = i**_PHASE1[a][b] * sigma_(a xor b), for a, b in 0..3
_PHASE1 = np.array([[0, 0, 0, 0], [0, 0, 1, 3], [0, 3, 0, 1], [0, 1, 3, 0]])


def _phase_table() -> list[list[int]]:
    """PHASE[a][b] = n with T_a T_b = i**n T_(a xor b), as lists of ints: no NumPy scalar lookups."""
    index = np.arange(64)
    digits = np.stack([index >> 4, (index >> 2) & 3, index & 3])  # (3, 64): i, j, k
    return (_PHASE1[digits[:, :, None], digits[:, None, :]].sum(axis=0) % 4).tolist()


PHASE = _phase_table()


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


def named_operator(name: str) -> np.ndarray:
    """The table's operator i**n * kron3(s_i, s_j, s_k), a new array; ValueError if unknown."""
    if name not in OPERATORS:
        raise ValueError(f"unknown operator {name!r}; known operators: {', '.join(OPERATORS)}")
    n, (i, j, k) = OPERATORS[name]
    return _I_POWER[n] * KRON3_STACK[16 * i + 4 * j + k]


def anticommutator(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    return x @ y + y @ x


def build_C(tau: str = "s2") -> np.ndarray:
    """Charge conjugation C = -i * kron3(s2, s2, tau): the table's C, last factor tau."""
    if tau not in _TAU_NAMES:
        raise ValueError(f"tau must be one of {_TAU_NAMES}, got {tau!r}")
    n, (i, j, _) = OPERATORS["C"]
    return _I_POWER[n] * KRON3_STACK[16 * i + 4 * j + _TAU_NAMES.index(tau)]


def charge_conjugation_tau_scan() -> dict[str, list[int]]:
    """For each tau choice, list the k for which C conj(B_k) C^-1 != B_k.

    A lookup, no matrices: with C = i**n T_c, B_k = i**m T_b and s the
    number of s2 factors of b, C conj(B_k) C^-1 = (-1)**s i**-m T_c T_b T_c,
    which is B_k iff 2 s - 2 m + PHASE[c][b] + PHASE[c xor b][c] = 0 mod 4.
    The B and A_k rules hold for every tau; only tau = s2 clears the B_k
    rule for all three k, which is why it is the default in build_C.
    """
    _, (i, j, _) = OPERATORS["C"]
    failures: dict[str, list[int]] = {}
    for t, tau in enumerate(_TAU_NAMES):
        c = 16 * i + 4 * j + t
        failures[tau] = []
        for k in (1, 2, 3):
            m, (bi, bj, bk) = OPERATORS[f"B{k}"]
            b = 16 * bi + 4 * bj + bk
            if (2 * ((bi, bj, bk).count(2) - m) + PHASE[c][b] + PHASE[c ^ b][c]) % 4:
                failures[tau].append(k)
    return failures
