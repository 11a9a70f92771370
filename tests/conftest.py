import math

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from phasequark.clifford import PAULI

settings.register_profile(
    "ci",
    derandomize=True,
    database=None,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("ci")


@pytest.fixture(scope="session")
def literal_operators():
    """The twelve named 8x8 operators from np.kron and matmul, not from clifford.OPERATORS."""
    def kron(i, j, k):
        return np.kron(np.kron(PAULI[i], PAULI[j]), PAULI[k])

    a = {k: kron(k, 1, 0) for k in (1, 2, 3)}
    b = {k: kron(0, 2, k) for k in (1, 2, 3)}
    return {
        **{f"A{k}": a[k] for k in (1, 2, 3)},
        "B": kron(0, 3, 0),
        **{f"B{k}": b[k] for k in (1, 2, 3)},
        "C": -1j * kron(2, 2, 2),
        "gamma5": -1j * a[1] @ a[2] @ a[3],
        "gammaR5": -1j * a[1] @ b[2] @ b[3],
        "gammaY5": -1j * a[2] @ b[3] @ b[1],
        "gammaB5": -1j * a[3] @ b[1] @ b[2],
    }


@pytest.fixture(scope="session")
def literal_generators6():
    """Every 6x6 generator label, F1..F8, R, R1..R3, H1..H3, J1..J3 and each G(m,n),
    as the plane sum the paper states, written out here and not read from phase_space."""
    def plane(m, n):  # +1 in row m column n, -1 in row n column m, 1-based
        g = np.zeros((6, 6))
        g[m - 1, n - 1], g[n - 1, m - 1] = 1.0, -1.0
        return g

    f = {
        "F1": plane(1, 5) + plane(2, 4),
        "F2": plane(1, 2) + plane(4, 5),
        "F3": plane(4, 1) - plane(5, 2),
        "F4": plane(3, 4) + plane(1, 6),
        "F5": plane(1, 3) + plane(4, 6),
        "F6": plane(6, 2) + plane(5, 3),
        "F7": plane(3, 2) + plane(6, 5),
        "F8": (plane(4, 1) + plane(5, 2) - 2.0 * plane(6, 3)) / math.sqrt(3.0),
    }
    r = {f"R{i}": plane(i + 3, i) for i in (1, 2, 3)}
    return {
        **f,
        "R": r["R1"] + r["R2"] + r["R3"],
        **r,
        "H1": f["F6"], "H2": -f["F4"], "H3": -f["F1"],
        "J1": f["F7"], "J2": f["F5"], "J3": -f["F2"],
        **{f"G({m},{n})": plane(m, n) for m in range(1, 7) for n in range(1, 7) if m != n},
    }
