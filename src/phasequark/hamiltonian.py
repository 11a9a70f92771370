"""Generalized 8x8 Dirac Hamiltonians over phase space.

Builds the electromagnetic Dirac Hamiltonian, the three colored quark
Hamiltonians obtained from the canonical pairings, their antiparticle
partners from charge conjugation, and the composite single-quark and
quark-antiquark sums whose square is a scalar (the mass-squared law).

Every Hamiltonian is H = c . BASIS for one real 8-vector of coefficients
c = (s, a1..a3, b1..b3, beta) on BASIS = {1, A1..A3, B1..B3, B}, the
identity and the seven generators of phasequark.clifford, which are
orthonormal under <X, Y> = tr(X^+ Y)/8 and mutually anticommuting.  One
table row per kind holds the spec fields it accepts, diagonal masks Phi
and Psi and a mass factor mu, and every kind reads

    c = (scalar + e*A0, a + Phi(p + pbar - e*Avec), b + Psi(x - xbar), beta + mu*m)

with (e, A0, Avec) the optional EM field; the fields a kind does not
accept stay zero, so Custom passes (scalar, a, b, beta) through unchanged.
With e_c the unit vector of the color axis (R, Y, B = 1, 2, 3):

    kind      Phi  Psi        mu  closed form
    Dirac     1    0          1   A.(p - e*Avec) + B m + e*A0
    ColorR    e1   1 - e1     1   A1(p1 - e*A1v) + B2 x2 + B3 x3 + B m + e*A0
    ColorY    e2   1 - e2     1   B1 x1 + A2(p2 - e*A2v) + B3 x3 + B m + e*A0
    ColorB    e3   1 - e3     1   B1 x1 + B2 x2 + A3(p3 - e*A3v) + B m + e*A0
    AntiR     e1   -(1 - e1)  1   A1 p1 - B2 x2 - B3 x3 + B m
    AntiY     e2   -(1 - e2)  1   -B1 x1 + A2 p2 - B3 x3 + B m
    AntiB     e3   -(1 - e3)  1   -B1 x1 - B2 x2 + A3 p3 + B m
    QuarkSum  1    2          3   A.p + 2 B.x + 3 B m    (ColorR + ColorY + ColorB)
    QQbar     1    2          6   A.P + 2 B.dx + 6 B m   (P = p + pbar, dx = x - xbar)
    Custom    0    0          0   A.a + B.b + beta B + scalar

Every entry of a BASIS matrix is in {0, +-1, +-i} and no entry of H
collects more than two real terms and one imaginary term, so c . BASIS
is exact whatever the order of summation.

coefficients() evaluates the table over a leading sample axis: stacked
m (N,) and p, x, pbar, xbar (N, 3), with an optional EM field and an
optional (N, 3, 3) rotation, give c of shape (N, 8), and matrices()
turns that into the (N, 8, 8) stack c @ BASIS.  build_hamiltonian,
rotate_hamiltonian and the literal colored sum behind build_composite
are its one-sample case.

Charge conjugation is the substitution chain i -> -i, p -> -p, H -> -H
followed by conjugation with C = build_C("s2"); on the colored kinds it
lands exactly on the Anti forms, and on the HamiltonianSpec fields it is
the sign flip of e and x.  Rotations are passive (frame) rotations:
coordinates map as v' = R v and operators as A'_k = R_kl A_l,
B'_k = R_kl B_l, so a rotated Hamiltonian is the table at the rotated
coordinates with its a- and b-blocks pulled back by R^T.  Reflection
(conjugation by B) multiplies c by REFLECT_SIGNS = (+, -, -, -, -, -, -, +).
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field, fields
from typing import Mapping, NamedTuple, Sequence

import numpy as np

from .clifford import build_C, clifford_generators

__all__ = [
    "EMField",
    "HamiltonianSpec",
    "SpectrumReport",
    "DistinctnessReport",
    "KINDS",
    "coefficients",
    "matrices",
    "colored_sum",
    "build_hamiltonian",
    "build_composite",
    "rotation_matrix",
    "rotated_operators",
    "rotate_hamiltonian",
    "conjugate_hamiltonian",
    "coefficient_pattern",
    "antiparticle_distinctness_check",
    "square_and_spectrum",
]


class _Row(NamedTuple):
    fields: tuple[str, ...]  # the spec fields the kind accepts
    phi: np.ndarray          # diagonal of Phi
    psi: np.ndarray          # diagonal of Psi
    mu: float


_E = np.eye(3)
_ONE, _ZERO = np.ones(3), np.zeros(3)
_TABLE: dict[str, _Row] = {
    "Dirac": _Row(("m", "p", "em"), _ONE, _ZERO, 1.0),
    **{f"Color{c}": _Row(("m", "p", "x", "em"), _E[i], 1.0 - _E[i], 1.0)
       for i, c in enumerate("RYB")},
    **{f"Anti{c}": _Row(("m", "p", "x"), _E[i], _E[i] - 1.0, 1.0)
       for i, c in enumerate("RYB")},
    "QuarkSum": _Row(("m", "p", "x"), _ONE, 2.0 * _ONE, 3.0),
    "QQbar": _Row(("m", "p", "x", "pbar", "xbar"), _ONE, 2.0 * _ONE, 6.0),
    "Custom": _Row(("a", "b", "beta", "scalar"), _ZERO, _ZERO, 0.0),
}
KINDS = tuple(_TABLE)

_COLOR_AXIS = {"R": 0, "Y": 1, "B": 2}
_EM_KINDS = tuple(kind for kind, row in _TABLE.items() if "em" in row.fields)

# rows: 1, then clifford.GENERATOR_NAMES (A1..A3, B1..B3, B), each a flattened 8x8 matrix
BASIS = np.stack([np.eye(8, dtype=complex)] + [g for _, g in clifford_generators()]).reshape(8, 64)
BASIS.flags.writeable = False
REFLECT_SIGNS = np.array([1.0, -1, -1, -1, -1, -1, -1, 1])
_A = BASIS.reshape(8, 8, 8)[1:4]
_BK = BASIS.reshape(8, 8, 8)[4:7]
_PLAIN = (float, int, np.float64)  # number types that need no further check


def _real(value, name: str, index: int | None = None) -> float:
    """value as a finite float; bool, str, None and the like are errors."""
    if type(value) in _PLAIN or (
        isinstance(value, numbers.Real) and not isinstance(value, (bool, np.bool_))
    ):
        try:
            v = float(value)
        except OverflowError:
            v = math.inf
        if math.isfinite(v):
            return v
    label = name if index is None else f"{name}[{index}]"
    raise ValueError(f"{label} must be a finite number, got {value!r}")


def _vec3(value, name: str) -> tuple[float, float, float]:
    try:
        x, y, z = value
    except (TypeError, ValueError):
        raise ValueError(f"{name} must be a 3-vector, got {value!r}") from None
    return _real(x, name, 0), _real(y, name, 1), _real(z, name, 2)


@dataclass(frozen=True)
class EMField:
    e: float = 0.0
    A0: float = 0.0
    Avec: tuple[float, float, float] = (0.0, 0.0, 0.0)

    def __post_init__(self) -> None:
        for name in ("e", "A0"):
            object.__setattr__(self, name, _real(getattr(self, name), f"em.{name}"))
        object.__setattr__(self, "Avec", _vec3(self.Avec, "em.Avec"))

    def to_dict(self) -> dict:
        return {"e": self.e, "A0": self.A0, "Avec": list(self.Avec)}


_NO_FIELD = EMField()
_EM_FIELDS = tuple(f.name for f in fields(EMField))


@dataclass(frozen=True)
class HamiltonianSpec:
    """Declarative description of one Hamiltonian.

    Only the fields of the kind's table row may differ from their zero
    defaults.  QQbar accepts either the quark/antiquark variables (p, x,
    pbar, xbar) or the total/relative shorthand (P, dx); the shorthand is
    stored as p = P, x = dx with zero antiquark variables, which builds the
    same matrix.  Custom carries explicit coefficients a.A + b.B_k + beta*B
    + scalar*1.
    """

    kind: str
    m: float = 0.0
    p: tuple[float, float, float] = (0.0, 0.0, 0.0)
    x: tuple[float, float, float] = (0.0, 0.0, 0.0)
    pbar: tuple[float, float, float] = (0.0, 0.0, 0.0)
    xbar: tuple[float, float, float] = (0.0, 0.0, 0.0)
    em: EMField | None = None
    a: tuple[float, float, float] = (0.0, 0.0, 0.0)
    b: tuple[float, float, float] = (0.0, 0.0, 0.0)
    beta: float = 0.0
    scalar: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ValueError(f"unknown kind {self.kind!r}; expected one of {KINDS}")
        for name in ("m", "beta", "scalar"):
            object.__setattr__(self, name, _real(getattr(self, name), name))
        if self.m < 0.0:
            raise ValueError(f"m must be finite and >= 0, got {self.m!r}")
        for name in ("p", "x", "pbar", "xbar", "a", "b"):
            object.__setattr__(self, name, _vec3(getattr(self, name), name))
        if self.em is not None and not isinstance(self.em, EMField):
            raise ValueError(f"em must be an EMField, got {self.em!r}")
        accepted = _TABLE[self.kind].fields
        for f in fields(self)[1:]:
            if f.name not in accepted and getattr(self, f.name) != f.default:
                raise ValueError(f"field {f.name!r} is not valid for kind {self.kind}")

    @classmethod
    def from_dict(cls, d: dict) -> "HamiltonianSpec":
        if not isinstance(d, dict):
            raise ValueError("spec must be a JSON object")
        data = dict(d)
        kind = data.pop("kind", None)
        if kind not in KINDS:
            raise ValueError(f"spec.kind must be one of {KINDS}, got {kind!r}")
        accepted = _TABLE[kind].fields
        if "P" in data or "dx" in data:
            if "pbar" not in accepted:
                raise ValueError("P/dx shorthand is only valid for kind QQbar")
            if data.keys() & {"p", "x", "pbar", "xbar"}:
                raise ValueError("give either (P, dx) or (p, x, pbar, xbar), not both")
            data["p"] = _vec3(data.pop("P", (0.0, 0.0, 0.0)), "P")
            data["x"] = _vec3(data.pop("dx", (0.0, 0.0, 0.0)), "dx")
        for key in data:
            if key not in accepted:
                raise ValueError(f"field {key!r} is not valid for kind {kind}")
        if "em" in data:
            em = data["em"]
            if not isinstance(em, dict):
                raise ValueError("em must be an object with e, A0, Avec")
            for key in em:
                if key not in _EM_FIELDS:
                    raise ValueError(f"field 'em.{key}' is not valid; expected e, A0, Avec")
            data["em"] = EMField(**em)
        spec = cls(kind=kind, **data)
        with np.errstate(over="ignore", invalid="ignore"):  # finite fields can overflow c
            bad = ~np.isfinite(_spec_coefficients(spec))
            names = [name for name in data if bad.any()
                     and np.any(coefficients(kind, **{name: getattr(spec, name)})[bad] != 0)]
        if names:
            given = {"p": "P", "x": "dx"} if "P" in d or "dx" in d else {}
            raise ValueError(f"coefficients of the {kind} spec overflow float64 in "
                             + ", ".join(repr(given.get(name, name)) for name in names))
        return spec

    def to_dict(self) -> dict:
        out: dict = {"kind": self.kind}
        for name in _TABLE[self.kind].fields:
            value = getattr(self, name)
            if isinstance(value, EMField):
                out[name] = value.to_dict()
            elif value is not None:
                out[name] = list(value) if isinstance(value, tuple) else value
        return out


_FIELDS = tuple(f.name for f in fields(HamiltonianSpec))[1:]  # m, p, x, ..., scalar


def coefficients(
    kind: str,
    *,
    m=None, p=None, x=None, pbar=None, xbar=None, em: EMField | None = None,
    a=None, b=None, beta=None, scalar=None, rot=None,
) -> np.ndarray:
    """Coefficient rows c of one kind over a leading sample axis.

    Scalars m, beta, scalar as arrays of shape (N,) and vectors p, x, pbar,
    xbar, a, b of shape (N, 3) give c of shape (N, 8); numbers and
    3-vectors give one row of shape (8,), and the two broadcast together.
    Only the fields of the kind's table row may be given; the others are
    zero.  em is one field shared by every row.  rot, of shape (N, 3, 3) or
    (3, 3), evaluates the table at the rotated coordinates and pulls the a-
    and b-blocks back by R^T, as rotate_hamiltonian describes.  Inputs are
    not validated beyond that: HamiltonianSpec is the checked entry point.
    """
    if kind not in _TABLE:
        raise ValueError(f"unknown kind {kind!r}; expected one of {KINDS}")
    row = _TABLE[kind]
    for name, value in zip(_FIELDS, (m, p, x, pbar, xbar, em, a, b, beta, scalar)):
        if value is not None and name not in row.fields:
            raise ValueError(f"field {name!r} is not valid for kind {kind}")
    em = em or _NO_FIELD
    p, x, pbar, xbar, avec = [
        _ZERO if v is None else np.asarray(v) for v in (p, x, pbar, xbar, em.Avec)
    ]
    if rot is not None:
        if kind == "Custom":
            raise ValueError("rotations do not apply to Custom coefficients")
        rot = np.asarray(rot)
        p, x, pbar, xbar, avec = [(rot @ v[..., None])[..., 0] for v in (p, x, pbar, xbar, avec)]
    s = (0.0 if scalar is None else scalar) + em.e * em.A0
    av = (0.0 if a is None else np.asarray(a)) + row.phi * (p + pbar - em.e * avec)
    bv = (0.0 if b is None else np.asarray(b)) + row.psi * (x - xbar)
    mass = (0.0 if beta is None else beta) + row.mu * (0.0 if m is None else m)
    c = np.empty(np.broadcast(s, mass, av[..., 0], bv[..., 0]).shape + (8,))
    c[..., 0], c[..., 1:4], c[..., 4:7], c[..., 7] = s, av, bv, mass
    if rot is not None:
        back = rot.swapaxes(-1, -2)
        c[..., 1:4] = (back @ c[..., 1:4, None])[..., 0]
        c[..., 4:7] = (back @ c[..., 4:7, None])[..., 0]
    return c


def matrices(c: np.ndarray) -> np.ndarray:
    """c . BASIS: coefficient rows of shape (..., 8) to matrices (..., 8, 8)."""
    c = np.asarray(c)
    return (c @ BASIS).reshape(c.shape[:-1] + (8, 8))


def colored_sum(kind: str, *, m, p, x, pbar=None, xbar=None) -> np.ndarray:
    """The literal colored sum of a composite, over a leading sample axis.

    Adds the matrices ColorR + ColorY + ColorB at (p, x, m) and, for QQbar,
    after each color its Anti partner at (pbar, xbar, m), in that order.
    Arguments broadcast as in coefficients.
    """
    if kind not in ("QuarkSum", "QQbar"):
        raise ValueError(f"composite kind must be QuarkSum or QQbar, got {kind!r}")
    total = 0.0
    for color in "RYB":
        total = total + matrices(coefficients(f"Color{color}", m=m, p=p, x=x))
        if kind == "QQbar":
            total = total + matrices(coefficients(f"Anti{color}", m=m, p=pbar, x=xbar))
    return total


def _spec_coefficients(spec: HamiltonianSpec, rot: np.ndarray | None = None) -> np.ndarray:
    """The spec's 8-vector c, at coordinates rotated by rot."""
    return coefficients(
        spec.kind, rot=rot, **{name: getattr(spec, name) for name in _TABLE[spec.kind].fields}
    )


def build_hamiltonian(spec: HamiltonianSpec) -> np.ndarray:
    """Assemble the 8x8 matrix c . BASIS of a spec; Hermitian for real inputs."""
    return matrices(_spec_coefficients(spec))


def build_composite(kind: str, inputs: Mapping) -> np.ndarray:
    """Assemble a composite by literally summing its colored parts.

    kind "QuarkSum" sums ColorR + ColorY + ColorB over a shared (p, x, m);
    kind "QQbar" additionally adds AntiR + AntiY + AntiB evaluated at the
    antiquark variables (pbar, xbar) with the same m.  This is an
    independent route to the same matrices as build_hamiltonian on the
    QuarkSum/QQbar kinds, which use the collapsed closed forms; tests
    compare the two.
    """
    if kind not in ("QuarkSum", "QQbar"):
        raise ValueError(f"composite kind must be QuarkSum or QQbar, got {kind!r}")
    spec = HamiltonianSpec.from_dict({"kind": kind, **dict(inputs)})
    return colored_sum(kind, m=spec.m, p=spec.p, x=spec.x, pbar=spec.pbar, xbar=spec.xbar)


# ---------------------------------------------------------------------------
# Rotations
# ---------------------------------------------------------------------------


def rotation_matrix(axis: int | Sequence[float], angle: float) -> np.ndarray:
    """Passive (frame) rotation: about axis 3, p'1 = c p1 + s p2.

    axis is 1, 2, 3 or a unit 3-vector (a non-unit vector is an error).
    Equals exp(-angle * cross(n)) = I cos - sin [n]x + (1 - cos) n n^T.
    """
    if not math.isfinite(angle):
        raise ValueError(f"angle must be finite, got {angle!r}")
    if isinstance(axis, int):
        if axis not in (1, 2, 3):
            raise ValueError(f"axis index must be 1..3, got {axis}")
        n = np.zeros(3)
        n[axis - 1] = 1.0
    else:
        n = np.asarray(axis, dtype=float).reshape(-1)
        if n.shape != (3,) or not np.all(np.isfinite(n)):
            raise ValueError(f"axis must be a finite 3-vector, got {axis!r}")
        if abs(np.linalg.norm(n) - 1.0) > 1e-12:
            raise ValueError(f"axis must be a unit vector, got norm {np.linalg.norm(n)!r}")
    cross = np.array([[0, -n[2], n[1]], [n[2], 0, -n[0]], [-n[1], n[0], 0]])
    c, s = math.cos(angle), math.sin(angle)
    return c * np.eye(3) - s * cross + (1.0 - c) * np.outer(n, n)


def rotated_operators(rot: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Primed operator triplets A'_k = R_kl A_l and B'_k = R_kl B_l.

    A rotation of shape (..., 3, 3) gives two arrays of shape (3, ..., 8, 8),
    k first.  Each entry is one product R_kl * (0, +-1 or +-i), so the sum
    over l is exact.
    """
    rot = np.asarray(rot, dtype=float)
    if rot.shape[-2:] != (3, 3):
        raise ValueError(f"rotation must be 3x3, got {rot.shape}")
    return tuple(np.einsum("...kl,lij->k...ij", rot, ops) for ops in (_A, _BK))


def rotate_hamiltonian(spec: HamiltonianSpec, axis: int | Sequence[float],
                       angle: float) -> np.ndarray:
    """Rebuild the Hamiltonian with primed operators and primed coordinates.

    The table is evaluated at R p, R x, R pbar, R xbar and R Avec, which
    gives the coefficients on the primed operators; R^T carries the a- and
    b-blocks back to A_k and B_k.  Scalar contractions A.p and B.x are form
    invariant, so QuarkSum, QQbar and Dirac return the unrotated matrix up
    to roundoff for any rotation; the colored kinds are only invariant
    under rotations about their own color axis, and mix pairwise otherwise.
    """
    if spec.kind == "Custom":
        raise ValueError("rotate_hamiltonian does not apply to Custom specs")
    return matrices(_spec_coefficients(spec, rotation_matrix(axis, angle)))


# ---------------------------------------------------------------------------
# Charge conjugation
# ---------------------------------------------------------------------------


def conjugate_hamiltonian(spec: HamiltonianSpec) -> tuple[np.ndarray, HamiltonianSpec]:
    """Charge conjugate a Dirac or colored spec.

    Returns (matrix, conjugated_spec).  The matrix is computed through the
    substitution route: negate p, conjugate entries, negate the whole
    operator, then conjugate with C.  The returned spec is the equivalent
    sign flip of e (Dirac) or of e and x (colored kinds); building it
    reproduces the matrix, and for the free colored kinds the matrix equals
    the corresponding Anti kind.
    """
    if spec.kind not in _EM_KINDS:
        raise ValueError(f"conjugate_hamiltonian supports kinds {_EM_KINDS}")
    flipped_p = HamiltonianSpec.from_dict(
        {**spec.to_dict(), "p": [-v for v in spec.p]}
    )
    h_prime = -np.conj(build_hamiltonian(flipped_p))
    c = build_C("s2")
    matrix = c @ h_prime @ (-c)

    out = spec.to_dict()
    if spec.em is not None:
        out["em"] = {**spec.em.to_dict(), "e": -spec.em.e}
    if spec.kind != "Dirac":
        out["x"] = [-v for v in spec.x]
    conj_spec = HamiltonianSpec.from_dict(out)
    # the substitution route must land exactly on the closed form obtained
    # by flipping e (Dirac) or e and x (colored); both are signed
    # rearrangements of the same floats, so equality is exact
    if not np.array_equal(matrix, build_hamiltonian(conj_spec)):
        raise RuntimeError("conjugation routes disagree; convention drift")
    return matrix, conj_spec


def coefficient_pattern(spec: HamiltonianSpec) -> tuple[np.ndarray, np.ndarray, float]:
    """Coefficient maps (Phi, Psi, mass) with H = A.(Phi p) + B.(Psi x) + m B.

    Defined for the free colored and anti kinds, where the Hamiltonian is
    linear in (p, x) through fixed projectors: Phi = e_c e_c^T and
    Psi = +-(I - e_c e_c^T).
    """
    if not spec.kind.startswith(("Color", "Anti")) or spec.em is not None:
        raise ValueError("coefficient_pattern applies to free colored/anti kinds")
    row = _TABLE[spec.kind]
    return np.diag(row.phi), np.diag(row.psi), spec.m


@dataclass(frozen=True)
class DistinctnessReport:
    """Outcome of the antiparticle distinctness search for one color."""

    color: str
    p: tuple[float, float, float]
    x: tuple[float, float, float]
    m: float
    n_samples: int
    seed: int
    min_distance: float
    margin: float
    degenerate: bool
    reflected_b_coefficients: tuple[float, float, float]
    target_b_coefficients: tuple[float, float, float]

    @property
    def passed(self) -> bool:
        if self.degenerate:
            return True
        slack = 1e-9 * max(1.0, self.margin)
        return self.min_distance > 0.0 and self.min_distance >= self.margin - slack

    def to_dict(self) -> dict:
        return {
            "color": self.color,
            "p": list(self.p),
            "x": list(self.x),
            "m": self.m,
            "n_samples": self.n_samples,
            "seed": self.seed,
            "min_distance": self.min_distance,
            "margin": self.margin,
            "degenerate": self.degenerate,
            "reflected_b_coefficients": list(self.reflected_b_coefficients),
            "target_b_coefficients": list(self.target_b_coefficients),
            "passed": self.passed,
        }


_ROTATION_BLOCK = 16384  # rotations drawn per block; one block covers the default 10000


def _quaternion_row(rng: np.random.Generator, n: int, axis: int) -> tuple[np.ndarray, ...]:
    """Row `axis` of n rotations from uniform unit quaternions, as its three
    columns; the quaternions are normalized as np.linalg.norm over rows does."""
    w, xq, yq, zq = rng.normal(size=(n, 4)).T
    norm = np.sqrt(w * w + xq * xq + yq * yq + zq * zq)
    w, xq, yq, zq = (v / norm for v in (w, xq, yq, zq))
    if axis == 0:
        return (1 - 2 * (yq * yq + zq * zq), 2 * (xq * yq - zq * w), 2 * (xq * zq + yq * w))
    if axis == 1:
        return (2 * (xq * yq + zq * w), 1 - 2 * (xq * xq + zq * zq), 2 * (yq * zq - xq * w))
    return (2 * (xq * zq - yq * w), 2 * (yq * zq + xq * w), 1 - 2 * (xq * xq + yq * yq))


def antiparticle_distinctness_check(
    color: str = "R",
    p: Sequence[float] = (1.0, 0.0, 0.0),
    x: Sequence[float] = (0.0, 1.0, 1.0),
    m: float = 1.0,
    n_samples: int = 10000,
    seed: int = 1729,
) -> DistinctnessReport:
    """Show no rotation or reflection carries Anti(color) onto Color(color).

    A frame transformation acts on the coefficient maps by conjugation,
    Phi -> R^T Phi R and Psi -> R^T Psi R, while the coordinate values ride
    along as p -> R p, x -> R x.  The distance between two Hamiltonians is
    the Euclidean norm of the difference of their 7 coefficients (A1..A3,
    B1..B3, B), which equals the operator distance in the normalized trace
    inner product <X, Y> = tr(X^+ Y)/8 because the seven generators are
    orthonormal.

    Reflections need no pass of their own.  Reflection is conjugation by B
    (the sign mask REFLECT_SIGNS on c, which negates the a- and b-blocks)
    together with p -> -p, x -> -x, which negates them back: the reflected
    distances are the rotated ones float for float.  Likewise the distance
    depends on R only through u, its color-axis row, and Phi and Psi are
    quadratic in u, so an improper -R reaches the same distance as R.

    For every rotation the position block satisfies
        |R^T Psi_anti R x - Psi_color x| >= |P_c x|^2 / |x|,
    the documented margin (P_c projects off the color axis).  The check
    samples n_samples quaternion rotations and reports the minimum sampled
    distance next to that margin.
    """
    if color not in _COLOR_AXIS:
        raise ValueError(f"color must be one of R, Y, B, got {color!r}")
    if n_samples < 1:
        raise ValueError("n_samples must be positive")
    axis = _COLOR_AXIS[color]
    anti = HamiltonianSpec(kind=f"Anti{color}", m=m, p=p, x=x)
    target = _spec_coefficients(HamiltonianSpec(kind=f"Color{color}", m=m, p=p, x=x))
    pv, xv = np.array(anti.p), np.array(anti.x)
    # The s and B coefficients (0 and m) agree on both sides, so only the
    # a-block R^T Phi_a R p = u (u.p) and the b-block R^T Psi_a R x =
    # -x + u (u.x) count.  On the columns of u, their squares are summed
    # as (a1^2 + a2^2 + a3^2) + (b1^2 + b2^2 + b3^2), a row-wise sum's order.
    ta, tb, xs = target[1:4].tolist(), target[4:7].tolist(), anti.x
    rng = np.random.default_rng(seed)
    d2_min = math.inf
    # the blocks continue one normal stream, so they draw the rotations of
    # a single n_samples draw in a fixed amount of memory
    for start in range(0, n_samples, _ROTATION_BLOCK):
        cols = _quaternion_row(rng, min(_ROTATION_BLOCK, n_samples - start), axis)
        u = np.stack(cols, axis=1)
        up, ux = u @ pv, u @ xv
        a2 = b2 = 0.0
        for col, t_a, x_k, t_b in zip(cols, ta, xs, tb):
            a2 = a2 + (col * up - t_a) ** 2
            b2 = b2 + (col * ux - x_k - t_b) ** 2
        d2_min = min(d2_min, float((a2 + b2).min()))
    d_min = math.sqrt(d2_min)

    xnorm = float(np.linalg.norm(xv))
    target_b = target[4:7]
    margin = 0.0 if xnorm == 0.0 else float(target_b @ target_b) / xnorm
    return DistinctnessReport(
        color=color,
        p=anti.p,
        x=anti.x,
        m=anti.m,
        n_samples=int(n_samples),
        seed=int(seed),
        min_distance=d_min,
        margin=margin,
        degenerate=(margin == 0.0),
        reflected_b_coefficients=tuple(float(v) for v in _spec_coefficients(anti)[4:7]),
        target_b_coefficients=tuple(float(v) for v in target_b),
    )


# ---------------------------------------------------------------------------
# Spectra
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SpectrumReport:
    eigenvalues: tuple[float, ...]
    degeneracies: tuple[tuple[float, int], ...]
    scalar_square: float | None
    scalar_residual: float
    hermiticity_residual: float
    symmetric_about_zero: bool = field(default=False)

    def to_dict(self) -> dict:
        return {
            "eigenvalues": list(self.eigenvalues),
            "degeneracies": [[v, n] for v, n in self.degeneracies],
            "scalar_square": self.scalar_square,
            "scalar_residual": self.scalar_residual,
            "hermiticity_residual": self.hermiticity_residual,
            "symmetric_about_zero": self.symmetric_about_zero,
        }


def square_and_spectrum(h: np.ndarray, scalar_tol: float = 1e-11) -> SpectrumReport:
    """Square the Hamiltonian, detect a scalar square, and diagonalize.

    Raises ValueError for non-Hermitian input.  scalar_square is set when
    H^2 = lam * I within scalar_tol relative to max(1, |lam|); the
    eigenvalues then come out as +-sqrt(lam), fourfold each.
    """
    h = np.asarray(h, dtype=complex)
    if h.shape != (8, 8):
        raise ValueError(f"expected an 8x8 matrix, got {h.shape}")
    herm = float(np.abs(h - h.conj().T).max())
    if herm > 1e-12 * max(1.0, float(np.abs(h).max())):
        raise ValueError(f"matrix is not Hermitian (residual {herm:.3e})")

    sq = h @ h
    lam = float(np.real(np.trace(sq)) / 8.0)
    resid = float(np.abs(sq - lam * np.eye(8)).max())
    scalar = lam if resid <= scalar_tol * max(1.0, abs(lam)) else None

    eig = np.sort(np.linalg.eigvalsh(h))
    groups: list[list[float]] = []
    for v in eig:
        if groups and abs(v - groups[-1][-1]) <= 1e-9 * max(1.0, abs(v)):
            groups[-1].append(float(v))
        else:
            groups.append([float(v)])
    degs = tuple((float(np.mean(g)), len(g)) for g in groups)
    sym = bool(np.abs(eig + eig[::-1]).max() <= 1e-10 * max(1.0, float(np.abs(eig).max())))
    return SpectrumReport(
        eigenvalues=tuple(float(v) for v in eig),
        degeneracies=degs,
        scalar_square=scalar,
        scalar_residual=resid,
        hermiticity_residual=herm,
        symmetric_about_zero=sym,
    )
