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
