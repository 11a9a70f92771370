"""Independent oracles for the benchmark's outputs.

Nothing here imports phasequark.  Each expected value is rebuilt from the
paper's definitions: the Pauli tensor table, the seven anticommuting
generators A1..A3, B1..B3, B, and the table that maps a spec kind to its
coefficients on {1, A1..A3, B1..B3, B}.  A defect in the package's own
builders therefore cannot also be the oracle's answer.

Every check raises OracleError with a short reason; returning means the
output was accepted.
"""

from __future__ import annotations

import json
import math

import numpy as np

__all__ = [
    "OracleError",
    "require",
    "TENSORS",
    "NAMED_OPERATORS",
    "strict_json",
    "coefficients",
    "hamiltonian_matrix",
    "expected_eigenvalues",
    "check_spectrum",
    "check_conjugate",
    "check_generator_transform",
    "check_pairing_transform",
    "check_export",
    "check_error_payload",
    "evaluate_terms",
    "check_dsl_matrices",
    "check_verify_report",
    "VERIFY_CHECKS",
]


class OracleError(AssertionError):
    """An output the oracle rejects."""


def require(condition: bool, message: str) -> None:
    if not condition:
        raise OracleError(message)


# ---------------------------------------------------------------------------
# Pauli tensor table
# ---------------------------------------------------------------------------

_PAULI = (
    np.eye(2, dtype=complex),
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
)

# TENSORS[i, j, k] = sigma_i (x) sigma_j (x) sigma_k, first factor outermost.
TENSORS = np.array(
    [[[np.kron(np.kron(a, b), c) for c in _PAULI] for b in _PAULI] for a in _PAULI]
)

# name -> (phase, (i, j, k)): A_k = s_k#s1#s0, B_k = s0#s2#s_k, B = s0#s3#s0,
# C = -i s2#s2#s2, gamma5 = -i A1 A2 A3 = s0#s1#s0, and the colored
# chiralities -i A_c B_u B_v.
NAMED_OPERATORS: dict[str, tuple[complex, tuple[int, int, int]]] = {
    "A1": (1, (1, 1, 0)),
    "A2": (1, (2, 1, 0)),
    "A3": (1, (3, 1, 0)),
    "B": (1, (0, 3, 0)),
    "B1": (1, (0, 2, 1)),
    "B2": (1, (0, 2, 2)),
    "B3": (1, (0, 2, 3)),
    "C": (-1j, (2, 2, 2)),
    "gamma5": (1, (0, 1, 0)),
    "gammaR5": (1, (1, 1, 1)),
    "gammaY5": (1, (2, 1, 2)),
    "gammaB5": (1, (3, 1, 3)),
}

_A = [TENSORS[k, 1, 0] for k in (1, 2, 3)]
_BK = [TENSORS[0, 2, k] for k in (1, 2, 3)]
_B = TENSORS[0, 3, 0]
_I8 = TENSORS[0, 0, 0]


def _reject_constant(token: str):
    raise OracleError(f"stdout is not strict JSON: contains {token}")


def strict_json(text: str):
    """Parse JSON, rejecting NaN and +-Infinity."""
    try:
        return json.loads(text, parse_constant=_reject_constant)
    except json.JSONDecodeError as exc:
        raise OracleError(f"stdout is not JSON: {exc}") from None


# ---------------------------------------------------------------------------
# Hamiltonian specs: kind -> coefficients (s, a, b, beta)
# ---------------------------------------------------------------------------


def _vec(spec: dict, key: str) -> np.ndarray:
    return np.array(spec.get(key, (0.0, 0.0, 0.0)), dtype=float)


def coefficients(spec: dict) -> tuple[float, np.ndarray, np.ndarray, float]:
    """Coefficients (s, a, b, beta) with H = s*1 + a.A + b.B_k + beta*B."""
    kind = spec["kind"]
    if kind == "Custom":
        return (float(spec.get("scalar", 0.0)), _vec(spec, "a"), _vec(spec, "b"),
                float(spec.get("beta", 0.0)))
    m = float(spec.get("m", 0.0))
    em = spec.get("em") or {}
    e, a0 = float(em.get("e", 0.0)), float(em.get("A0", 0.0))
    avec = np.array(em.get("Avec", (0.0, 0.0, 0.0)), dtype=float)
    if kind == "QQbar":
        if "P" in spec or "dx" in spec:
            ptot, dx = _vec(spec, "P"), _vec(spec, "dx")
        else:
            ptot = _vec(spec, "p") + _vec(spec, "pbar")
            dx = _vec(spec, "x") - _vec(spec, "xbar")
        return 0.0, ptot, 2.0 * dx, 6.0 * m
    p, x = _vec(spec, "p"), _vec(spec, "x")
    if kind == "QuarkSum":
        return 0.0, p, 2.0 * x, 3.0 * m
    if kind == "Dirac":
        return e * a0, p - e * avec, np.zeros(3), m
    color, sign = kind[-1], (1.0 if kind.startswith("Color") else -1.0)
    axis = "RYB".index(color)
    a = np.zeros(3)
    a[axis] = p[axis] - e * avec[axis]
    b = sign * x
    b[axis] = 0.0
    return e * a0, a, b, m


def hamiltonian_matrix(spec: dict) -> np.ndarray:
    s, a, b, beta = coefficients(spec)
    h = s * _I8 + beta * _B
    for k in range(3):
        h = h + a[k] * _A[k] + b[k] * _BK[k]
    return h


def expected_eigenvalues(spec: dict) -> tuple[float, float]:
    """(s, r): the spectrum is s - r and s + r, each fourfold.

    The seven generators anticommute and square to 1, so
    (H - s)^2 = |(a, b, beta)|^2 * 1.
    """
    s, a, b, beta = coefficients(spec)
    return s, math.hypot(*a, *b, beta)


def _close(got: float, want: float, scale: float, rel: float = 1e-9) -> bool:
    return math.isfinite(got) and abs(got - want) <= rel * max(1.0, scale)


def check_spectrum(spec: dict, payload: dict) -> None:
    s, r = expected_eigenvalues(spec)
    eig = payload["spectrum"]["eigenvalues"]
    require(len(eig) == 8, f"expected 8 eigenvalues, got {len(eig)}")
    want = [s - r] * 4 + [s + r] * 4
    scale = abs(s) + r
    for got, exp in zip(sorted(eig), want):
        require(_close(got, exp, scale), f"eigenvalue {got!r} != {exp!r}")
    if s == 0.0 and r < 1e150:
        sq = payload["spectrum"]["scalar_square"]
        require(sq is not None and _close(sq, r * r, r * r),
                f"scalar_square {sq!r} != {r * r!r}")


def _matrix_from_json(rows) -> np.ndarray:
    return np.array(
        [[complex(v[0], v[1]) if isinstance(v, list) else complex(v) for v in row]
         for row in rows]
    )


def check_conjugate(spec: dict, payload: dict) -> None:
    """Charge conjugation flips e, and x on the colored kinds."""
    want = dict(spec)
    if spec.get("em"):
        want["em"] = {**spec["em"], "e": -spec["em"]["e"]}
    if spec["kind"] != "Dirac":
        want["x"] = [-v for v in spec.get("x", (0.0, 0.0, 0.0))]
    got = payload["conjugated_spec"]
    require(got["kind"] == want["kind"], "conjugated kind changed")
    for key in ("m", "p", "x"):
        if key in want or key in got:
            require(np.array_equal(np.asarray(got.get(key, 0.0), dtype=float),
                                   np.asarray(want.get(key, 0.0), dtype=float)),
                    f"conjugated {key} {got.get(key)!r} != {want.get(key)!r}")
    if want.get("em"):
        for key in ("e", "A0", "Avec"):
            require(np.array_equal(np.asarray(got["em"][key], dtype=float),
                                   np.asarray(want["em"][key], dtype=float)),
                    f"conjugated em.{key} is wrong")
    expected = hamiltonian_matrix(want)
    matrix = _matrix_from_json(payload["matrix"])
    require(matrix.shape == (8, 8), f"conjugate matrix shape {matrix.shape}")
    tol = 1e-12 * max(1.0, float(np.abs(expected).max()))
    require(float(np.abs(matrix - expected).max()) <= tol,
            "conjugate matrix differs from the flipped-coefficient Hamiltonian")


# ---------------------------------------------------------------------------
# Phase-space transforms
# ---------------------------------------------------------------------------


def check_generator_transform(values: list[float], payload: dict) -> None:
    """exp(t*G) is orthogonal for antisymmetric G, so the norm is kept."""
    out = payload["output"]
    require(len(out) == 6, f"output has {len(out)} components")
    require(all(math.isfinite(v) for v in out), "output is not finite")
    n_in, n_out = math.hypot(*values), math.hypot(*out)
    require(abs(n_out - n_in) <= 1e-12 * max(1.0, n_in),
            f"norm changed from {n_in!r} to {n_out!r}")


def check_pairing_transform(values: list[float], payload: dict) -> None:
    """The generalized (p, x) must be a signed permutation of the input.

    Input magnitudes are distinct, so each output names one input slot.
    """
    out = list(payload["generalized_p"]) + list(payload["generalized_x"])
    require(len(out) == 6, f"pairing output has {len(out)} components")
    used = set()
    for v in out:
        slots = [i for i, w in enumerate(values) if abs(w) == abs(v)]
        require(len(slots) == 1 and slots[0] not in used,
                f"output {v!r} is not a signed copy of a distinct input")
        used.add(slots[0])


# ---------------------------------------------------------------------------
# Matrix export
# ---------------------------------------------------------------------------


def _parse_csv_number(text: str) -> complex:
    """A CSV cell: a real number, or re+imi / re-imi as matrix_to_csv writes it."""
    if not text.endswith("i"):
        return complex(float(text))
    body = text[:-1]
    for cut in range(len(body) - 1, 0, -1):
        if body[cut] in "+-" and body[cut - 1] not in "eE":
            return complex(float(body[:cut]), float(body[cut:]))
    raise OracleError(f"unreadable complex CSV cell {text!r}")


def _export_matrix(fmt: str, text: str) -> np.ndarray:
    if fmt == "csv":
        require(text.endswith("\n"), "CSV export lacks a trailing newline")
        return np.array([[_parse_csv_number(c) for c in line.split(",")]
                         for line in text.splitlines()])
    return _matrix_from_json(strict_json(text)["matrix"])


def _is_signed_permutation(m: np.ndarray) -> bool:
    return (bool(np.all(np.isin(m, (0, 1, -1))))
            and bool(np.all((m != 0).sum(axis=0) == 1))
            and bool(np.all((m != 0).sum(axis=1) == 1)))


def check_export(label: str, fmt: str, text: str) -> None:
    m = _export_matrix(fmt, text)
    if label.startswith("pairing:"):
        require(m.shape == (6, 6), f"pairing shape {m.shape}")
        require(_is_signed_permutation(m), f"{label} is not a signed permutation")
    elif label in NAMED_OPERATORS:
        require(m.shape == (8, 8), f"operator shape {m.shape}")
        require(bool(np.all(np.isin(m, (0, 1, -1, 1j, -1j)))),
                f"{label} has an entry outside {{0, +-1, +-i}}")
        phase, idx = NAMED_OPERATORS[label]
        require(np.array_equal(m, phase * TENSORS[idx]), f"{label} differs from its tensor")
    else:
        require(m.shape == (6, 6), f"generator shape {m.shape}")
        require(not np.any(m.imag) and np.array_equal(m, -m.T),
                f"{label} is not real antisymmetric")
        require(bool(np.any(m)), f"{label} is zero")
        if label.startswith("G("):
            a, b = int(label[2]) - 1, int(label[4]) - 1
            want = np.zeros((6, 6))
            want[a, b], want[b, a] = 1.0, -1.0
            require(np.array_equal(m, want), f"{label} is not the ({a + 1},{b + 1}) plane")


def check_error_payload(payload) -> None:
    require(isinstance(payload, dict) and isinstance(payload.get("error"), str),
            "input error is not reported as a JSON object with an 'error' string")


# ---------------------------------------------------------------------------
# Pauli expression DSL
# ---------------------------------------------------------------------------


def evaluate_terms(terms, values: dict[str, float]) -> np.ndarray:
    """Sum of coeff * prod(symbols) * phase * tensor over generated terms.

    A term is (coeff, symbols, phase, (i, j, k)) as the workload generated it.
    """
    out = np.zeros((8, 8), dtype=complex)
    for coeff, symbols, phase, idx in terms:
        scale = complex(coeff) * phase
        for name in symbols:
            scale *= values[name]
        out += scale * TENSORS[idx]
    return out


def check_dsl_matrices(terms_a, terms_b, values, mat_a, mat_b, mat_ab) -> None:
    want_a = evaluate_terms(terms_a, values)
    want_b = evaluate_terms(terms_b, values)
    want_ab = want_a @ want_b
    for name, got, want in (("a", mat_a, want_a), ("b", mat_b, want_b),
                            ("a*b", mat_ab, want_ab)):
        tol = 1e-9 * (1.0 + float(np.abs(want).max()))
        require(float(np.abs(np.asarray(got) - want).max()) <= tol,
                f"to_matrix of {name} differs from the Pauli-table evaluation")


# ---------------------------------------------------------------------------
# Verification report
# ---------------------------------------------------------------------------

VERIFY_CHECKS = (
    "su3/commutator-table", "su3/jacobi-identity", "su3/u1-centrality",
    "su3/group-membership", "su3/group-additivity", "su3/quadratic-form-invariance",
    "su3/reflection-square", "su3/pairing-symplectic", "su3/pairing-from-rotation",
    "su3/pairing-from-diagonal",
    "clifford/anticommutation-table", "clifford/hermitian-involution",
    "clifford/conjugation-identities", "clifford/tau-uniqueness",
    "clifford/gamma5-chirality", "clifford/random-basis-similarity",
    "rotation/mixing-law-axis3", "rotation/color-axis-invariance",
    "rotation/full-sum-invariance", "rotation/qqbar-invariance",
    "conjugation/c-matrix-properties", "conjugation/colored-closed-forms",
    "conjugation/involution", "conjugation/dirac-em",
    "conjugation/antiparticle-distinctness",
    "composite/quark-sum-square", "composite/qqbar-mass-law",
    "composite/spectrum-symmetry", "composite/sum-route-equality",
    "composite/translation-invariance", "composite/rest-frame-example",
    "composite/chirality-breaking",
)


def check_verify_report(payload: dict, suites: tuple[str, ...]) -> None:
    """all_passed holds and every check of the named suites is present."""
    require(payload["all_passed"] is True, "verification report does not pass")
    names = {c["name"] for c in payload["checks"]}
    require(all(c["status"] == "pass" for c in payload["checks"]), "a check failed")
    missing = [n for n in VERIFY_CHECKS if n.split("/")[0] in suites and n not in names]
    require(not missing, f"checks missing from the report: {missing}")
