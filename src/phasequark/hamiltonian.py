"""Generalized 8x8 Dirac Hamiltonians over phase space.

Builds the electromagnetic Dirac Hamiltonian, the three colored quark
Hamiltonians obtained from the canonical pairings, their antiparticle
partners from charge conjugation, and the composite single-quark and
quark-antiquark sums whose square is a scalar (the mass-squared law).

Every Hamiltonian is H = c . BASIS for one real 8-vector of coefficients
c = (s, a1..a3, b1..b3, beta) on BASIS = {1, A1..A3, B1..B3, B}, the
identity and the seven generators of phasequark.clifford, which are
orthonormal under <X, Y> = tr(X^+ Y)/8 and mutually anticommuting.  One
table row per kind holds the spec fields it accepts, the masks Phi and
Psi and a mass factor mu, and every kind reads

    c = (scalar + e*A0, a + Phi(p + pbar - e*Avec), b + Psi(x - xbar), beta + mu*m)

with (e, A0, Avec) the optional EM field; the fields a kind does not
accept stay zero, so Custom passes (scalar, a, b, beta) through unchanged.
Each mask is alpha + beta e_c e_c^T, with e_c the unit vector of the
row's color axis (R, Y, B = 1, 2, 3), and the table gives (alpha, beta):

    kind      Phi     Psi      mu
    Dirac     (1, 0)  (0, 0)   1
    ColorR    (0, 1)  (1, -1)  1
    ColorY    (0, 1)  (1, -1)  1
    ColorB    (0, 1)  (1, -1)  1
    AntiR     (0, 1)  (-1, 1)  1
    AntiY     (0, 1)  (-1, 1)  1
    AntiB     (0, 1)  (-1, 1)  1
    QuarkSum  (1, 0)  (2, 0)   3
    QQbar     (1, 0)  (2, 0)   6
    Custom    (0, 0)  (0, 0)   0

Each kind's closed form, in the syntax and SYMBOLS of phasequark.pauli_expr
(Avec = (A1v, A2v, A3v)); QQbar reads p and x as P = p + pbar and dx = x -
xbar, and Custom reads p, x, m and A0 as a, b, beta and scalar.  QuarkSum
is ColorR + ColorY + ColorB, and QQbar adds each color's Anti partner:

    Dirac     A1*(p1 - e*A1v) + A2*(p2 - e*A2v) + A3*(p3 - e*A3v) + B*m + e*A0
    ColorR    A1*(p1 - e*A1v) + B2*x2 + B3*x3 + B*m + e*A0
    ColorY    B1*x1 + A2*(p2 - e*A2v) + B3*x3 + B*m + e*A0
    ColorB    B1*x1 + B2*x2 + A3*(p3 - e*A3v) + B*m + e*A0
    AntiR     A1*p1 - B2*x2 - B3*x3 + B*m
    AntiY     -B1*x1 + A2*p2 - B3*x3 + B*m
    AntiB     -B1*x1 - B2*x2 + A3*p3 + B*m
    QuarkSum  A1*p1 + A2*p2 + A3*p3 + 2*B1*x1 + 2*B2*x2 + 2*B3*x3 + 3*B*m
    QQbar     A1*p1 + A2*p2 + A3*p3 + 2*B1*x1 + 2*B2*x2 + 2*B3*x3 + 6*B*m
    Custom    A1*p1 + A2*p2 + A3*p3 + B1*x1 + B2*x2 + B3*x3 + B*m + A0

Rotations are passive (frame) rotations: coordinates map as v' = R v and
operators as A'_k = R_kl A_l, B'_k = R_kl B_l, which conjugates each mask,

    R^T (alpha + beta e_c e_c^T) R = alpha + beta u u^T,   u = R^T e_c,

u being the color-axis row of R, and moves nothing else in c.  So the
kinds with beta = 0 (Dirac, QuarkSum, QQbar) are invariant under every
rotation, and unrotated (u = e_c) a mask is the diagonal alpha + beta e_c.

Every entry of a BASIS matrix is in {0, +-1, +-i} and no entry of H
collects more than two real terms and one imaginary term, so c . BASIS
is exact whatever the order of summation.  The two real terms meet only
in the diagonal s +- beta, which a spec's check covers too, so no valid
spec builds a non-finite matrix.

coefficients() evaluates the table over a leading sample axis, with one
kind and EM field for all rows or one per row, optionally rotated, and
matrices() turns its (N, 8) rows into the stack c @ BASIS in one real
product; build_hamiltonian, rotate_hamiltonian and colored_sum are built on
them.  A spec's own row comes from _row: the unrotated operations of
coefficients() in the same order on plain floats, so the two agree bit for
bit.  Validation checks it finite and keeps it read-only for reuse.

Charge conjugation is the field flip e -> -e, and x -> -x for a kind
whose row has x; on the free colored kinds it lands exactly on the Anti
forms.  The substitution chain p -> -p, i -> -i, H -> -H followed by
C H C^-1 with C = build_C("s2") reaches the same matrix by a second,
independent route, which phasequark.verify and the tests compare against
it.  Reflection (conjugation by B) negates the A_k and B_k entries of c
and keeps those of 1 and B.

Spectra are closed form: the generators anticommute and square to 1, so
with s = c[0], r = |c[1:]| and lam = s^2 + r^2, H^2 = lam*1 + 2s(H - s*1)
and the eigenvalues are s -+ r, fourfold each, for every kind;
square_and_spectrum reports them, and no scalar_square or scalar_residual
where that value overflows.  Antiparticle distinctness is exact too: its
minimum over O(3) is the lowest eigenvalue of a 3x3 form read off the table.

SpectrumReport and DistinctnessReport are NamedTuples.  EMField and
HamiltonianSpec are frozen dataclasses: a spec validates its fields, and
both compare, hash and dataclasses.replace field by field.
"""

from __future__ import annotations

import math
import numbers
from collections.abc import Mapping, Sequence, Set as AbstractSet
from dataclasses import dataclass, fields, replace
from typing import NamedTuple

import numpy as np

from .clifford import GENERATOR_NAMES, named_operator

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
    "antiparticle_distinctness_check",
    "square_and_spectrum",
]


class _Row(NamedTuple):
    fields: tuple[str, ...]     # the spec fields the kind accepts
    phi: tuple[float, float]    # (alpha, beta) of Phi = alpha*1 + beta*e_c e_c^T
    psi: tuple[float, float]    # (alpha, beta) of Psi
    mu: float
    axis: int = 0               # e_c = e_(axis+1); no matter where both betas are 0


_TABLE: dict[str, _Row] = {
    "Dirac": _Row(("m", "p", "em"), (1.0, 0.0), (0.0, 0.0), 1.0),
    **{f"Color{c}": _Row(("m", "p", "x", "em"), (0.0, 1.0), (1.0, -1.0), 1.0, i)
       for i, c in enumerate("RYB")},
    **{f"Anti{c}": _Row(("m", "p", "x"), (0.0, 1.0), (-1.0, 1.0), 1.0, i)
       for i, c in enumerate("RYB")},
    "QuarkSum": _Row(("m", "p", "x"), (1.0, 0.0), (2.0, 0.0), 3.0),
    "QQbar": _Row(("m", "p", "x", "pbar", "xbar"), (1.0, 0.0), (2.0, 0.0), 6.0),
    "Custom": _Row(("a", "b", "beta", "scalar"), (0.0, 0.0), (0.0, 0.0), 0.0),
}
KINDS = tuple(_TABLE)

_ZERO = np.zeros(3)
# the table as arrays over k = _INDEX[kind]: masks (2, 2, k), diagonals (2, k, 3), mu, axis
_INDEX = {kind: k for k, kind in enumerate(KINDS)}
_MASKS = np.array([(row.phi, row.psi) for row in _TABLE.values()]).transpose(1, 2, 0)
_MU, _AXIS = (np.array([getattr(row, name) for row in _TABLE.values()]) for name in ("mu", "axis"))
_DIAGONALS = _MASKS[:, 0, :, None] + _MASKS[:, 1, :, None] * np.eye(3)[_AXIS]
_PLAIN_DIAGONALS = dict(zip(KINDS, _DIAGONALS.transpose(1, 0, 2).tolist()))  # for _row
_EM_KINDS = tuple(kind for kind, row in _TABLE.items() if "em" in row.fields)

# rows: 1, then clifford.GENERATOR_NAMES (A1..A3, B1..B3, B), each a flattened 8x8 matrix
BASIS = np.stack([np.eye(8, dtype=complex)] + [named_operator(n) for n in GENERATOR_NAMES])
BASIS = BASIS.reshape(8, 64)
BASIS.flags.writeable = False
_REAL, _BASIS_CONJ, _I8 = BASIS.view(float), BASIS.conj(), np.eye(8)  # _REAL: re, im interleaved
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
    """value as three finite floats; it must be an ordered sequence, so text,
    bytes, mappings and sets are errors, whatever their length."""
    try:
        if isinstance(value, (str, bytes, bytearray, Mapping, AbstractSet)):
            raise TypeError
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
    + scalar*1.  Every spec, however built, has finite coefficients c: a
    spec whose finite fields overflow c is an error naming those fields.
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
        _accepts(self.kind, ())
        for name in ("m", "beta", "scalar"):  # a field still at its default object is valid
            if (value := getattr(self, name)) is not _FIELDS[name]:
                object.__setattr__(self, name, _real(value, name))
        if self.m < 0.0:
            raise ValueError(f"m must be finite and >= 0, got {self.m!r}")
        for name in ("p", "x", "pbar", "xbar", "a", "b"):
            if (value := getattr(self, name)) is not _FIELDS[name]:
                object.__setattr__(self, name, _vec3(value, name))
        if self.em is not None and not isinstance(self.em, EMField):
            raise ValueError(f"em must be an EMField, got {self.em!r}")
        given = {name: v for name, d in _FIELDS.items() if (v := getattr(self, name)) != d}
        row = _row(self.kind, **given)  # which rejects a field the kind lacks
        diagonal = math.isfinite(abs(row[0]) + abs(row[7]))  # the entries s +- beta of H
        if not (diagonal and all(map(math.isfinite, row))):  # name the fields behind it
            bad = [not (math.isfinite(v) and (diagonal or 0 < i < 7)) for i, v in enumerate(row)]
            names = [name for name, v in given.items()
                     if any(b and c != 0 for b, c in zip(bad, _row(self.kind, **{name: v})))]
            raise ValueError(f"coefficients of the {self.kind} spec overflow float64 in "
                             + ", ".join(map(repr, names)))
        c = np.array(row)
        c.flags.writeable = False
        object.__setattr__(self, "_c", c)  # not a field: ==, hash and repr ignore it

    @classmethod
    def from_dict(cls, d: dict) -> "HamiltonianSpec":
        """The spec of a JSON object: the P/dx shorthand, the em object, no unknown keys."""
        if not isinstance(d, dict):
            raise ValueError("spec must be a JSON object")
        data = dict(d)
        kind = data.pop("kind", None)
        if kind not in KINDS:
            raise ValueError(f"spec.kind must be one of {KINDS}, got {kind!r}")
        shorthand = "P" in data or "dx" in data
        if shorthand:
            if "pbar" not in _TABLE[kind].fields:
                raise ValueError("P/dx shorthand is only valid for kind QQbar")
            if data.keys() & {"p", "x", "pbar", "xbar"}:
                raise ValueError("give either (P, dx) or (p, x, pbar, xbar), not both")
            data["p"] = _vec3(data.pop("P", (0.0, 0.0, 0.0)), "P")
            data["x"] = _vec3(data.pop("dx", (0.0, 0.0, 0.0)), "dx")
        _accepts(kind, data)
        if "em" in data:
            em = data["em"]
            if not isinstance(em, dict):
                raise ValueError("em must be an object with e, A0, Avec")
            for key in em:
                if key not in _EM_FIELDS:
                    raise ValueError(f"field 'em.{key}' is not valid; expected e, A0, Avec")
            data["em"] = EMField(**em)
        try:
            return cls(kind=kind, **data)
        except ValueError as exc:
            if not shorthand:
                raise
            # the overflow error names the stored fields p and x, given here as P and dx
            raise ValueError(str(exc).replace("'p'", "'P'").replace("'x'", "'dx'")) from None

    def to_dict(self) -> dict:
        out: dict = {"kind": self.kind}
        for name in _TABLE[self.kind].fields:
            value = getattr(self, name)
            if isinstance(value, EMField):
                out[name] = value.to_dict()
            elif value is not None:
                out[name] = list(value) if isinstance(value, tuple) else value
        return out


_FIELDS = {f.name: f.default for f in fields(HamiltonianSpec)[1:]}  # m, p, ..., scalar: defaults


def _accepts(kind: str, names) -> None:
    """Reject an unknown kind, then the first of names that its table row lacks."""
    if kind not in KINDS:
        raise ValueError(f"unknown kind {kind!r}; expected one of {KINDS}")
    for name in names:
        if name not in _TABLE[kind].fields:
            raise ValueError(f"field {name!r} is not valid for kind {kind}")


def _row(kind: str, **given) -> list[float]:
    """The unrotated coefficients(kind, **given) of one spec's fields, on plain
    floats: the same IEEE operations in the same order, so equal bit for bit."""
    _accepts(kind, given)
    (phi, psi), get = _PLAIN_DIAGONALS[kind], given.get
    p, x, pbar, xbar, a, b = (get(n, (0.0,) * 3) for n in ("p", "x", "pbar", "xbar", "a", "b"))
    em = get("em") or _NO_FIELD
    return [get("scalar", 0.0) + em.e * em.A0,
            *[a[i] + phi[i] * (p[i] + pbar[i]) - (phi[i] * em.e) * em.Avec[i] for i in range(3)],
            *[b[i] + psi[i] * (x[i] - xbar[i]) for i in range(3)],
            get("beta", 0.0) + _TABLE[kind].mu * get("m", 0.0)]


def coefficients(
    kind,
    *,
    m=None, p=None, x=None, pbar=None, xbar=None, em=None,
    a=None, b=None, beta=None, scalar=None, rot=None,
) -> np.ndarray:
    """Coefficient rows c over a leading sample axis, of one kind or one per row.

    Scalars m, beta, scalar as arrays of shape (N,) and vectors p, x, pbar,
    xbar, a, b of shape (N, 3) give c of shape (N, 8); numbers and
    3-vectors give one row of shape (8,), and the two broadcast together,
    as does kind: one name, or an array of names such as one per row.  em
    is one EMField, or a sequence of one per row (None for no field).  Only
    fields of every kind's table row may be given; the others are zero.
    rot, of shape (N, 3, 3) or (3, 3), gives the coefficients in the rotated
    frame, one row per rotation: the masks become alpha + beta u u^T with u
    the color-axis row of R (module docstring).  Each row equals, bit for
    bit, the call with its own kind and field.  Inputs are not validated
    beyond that: HamiltonianSpec is the checked entry point.
    """
    kinds = None if isinstance(kind, str) else np.asarray(kind)
    names = [kind] if kinds is None else kinds.ravel().tolist()
    given = [name for name, v in zip(_FIELDS, (m, p, x, pbar, xbar, em, a, b, beta, scalar))
             if v is not None]
    for name in dict.fromkeys(names):
        _accepts(name, given)
    k = _INDEX[kind] if kinds is None else np.array([_INDEX[n] for n in names],
                                                    dtype=np.intp).reshape(kinds.shape)
    if rot is not None and "Custom" in names:
        raise ValueError("rotations do not apply to Custom coefficients")
    if rot is not None and np.shape(rot)[-2:] != (3, 3):
        raise ValueError(f"rot must have shape (..., 3, 3), got {np.shape(rot)}")
    if em is None or isinstance(em, EMField):  # one field for every row
        em = em or _NO_FIELD
        e, a0, avec, ev = em.e, em.A0, np.asarray(em.Avec), em.e
    else:  # one field per row, and ev is e against the 3-vectors
        em = [f or _NO_FIELD for f in em]
        e, a0 = (np.array([getattr(f, n) for f in em]) for n in ("e", "A0"))
        avec, ev = np.array([f.Avec for f in em]).reshape(-1, 3), e[:, None]
    p, x, pbar, xbar = [_ZERO if v is None else np.asarray(v) for v in (p, x, pbar, xbar)]
    a, b, m, beta, scalar = [0.0 if v is None else np.asarray(v) for v in (a, b, m, beta, scalar)]
    s, mass = scalar + e * a0, beta + _MU[k] * m
    lead = ()
    if rot is None:
        phi, psi = _DIAGONALS[0, k], _DIAGONALS[1, k]
        # the mask scales each term, so a component the kind does not use stays 0
        # even where p - e*Avec would overflow there
        av = a + phi * (p + pbar) - (phi * ev) * avec
        bv = b + psi * (x - xbar)
    else:
        rot = np.asarray(rot)  # u = R^T e_c, the color-axis row of each R
        u = (rot[..., _AXIS[k], :] if kinds is None
             else rot[(*np.indices(rot.shape[:-2], sparse=True), _AXIS[k])])
        phi, psi = (mask[:, k] if kinds is None else mask[:, k, None] for mask in _MASKS)
        av = a + _masked(phi, u, p + pbar) - _masked(phi, u, avec, ev)
        bv = b + _masked(psi, u, x - xbar)
        lead = (u[..., 0],)  # one row per rotation, also where no mask moves
    c = np.empty(np.broadcast(s, mass, av[..., 0], bv[..., 0], *lead).shape + (8,))
    c[..., 0], c[..., 1:4], c[..., 4:7], c[..., 7] = s, av, bv, mass
    return c


def _masked(mask: np.ndarray, u: np.ndarray, v: np.ndarray, scale=1.0):
    """scale * (alpha + beta u u^T) v, the mask scaling each term first; none where beta = 0."""
    alpha, beta = mask
    out = (alpha * scale) * v
    if nonzero := np.count_nonzero(beta):
        turn = ((beta * scale) * np.einsum("...i,...i->...", u, v)[..., None]) * u
        out = out + turn if nonzero == beta.size else np.where(beta != 0.0, out + turn, out)
    return out


def matrices(c: np.ndarray) -> np.ndarray:
    """c . BASIS: real coefficient rows (..., 8) to matrices (..., 8, 8), as one real product."""
    c = np.asarray(c, dtype=float)
    return (c @ _REAL).view(complex).reshape(c.shape[:-1] + (8, 8))


def colored_sum(kind: str, *, m, p, x, pbar=None, xbar=None) -> np.ndarray:
    """The literal colored sum of a composite, over a leading sample axis.

    Adds the matrices ColorR + ColorY + ColorB at (p, x, m) and, for QQbar,
    after each color its Anti partner at (pbar, xbar, m), in that order;
    the colors are one coefficients call and the Antis another.  Arguments
    broadcast as in coefficients.
    """
    if kind not in ("QuarkSum", "QQbar"):
        raise ValueError(f"composite kind must be QuarkSum or QQbar, got {kind!r}")
    depth = max(np.ndim(m), *(np.ndim(v) - 1 for v in (p, x, pbar, xbar) if v is not None))
    parts = [matrices(coefficients(np.reshape([prefix + c for c in "RYB"], (3,) + (1,) * depth),
                                   m=m, p=u, x=v))
             for prefix, u, v in (("Color", p, x), ("Anti", pbar, xbar))[:1 + (kind == "QQbar")]]
    return sum((h for terms in zip(*parts) for h in terms), 0.0)  # R, AntiR, Y, AntiY, B, AntiB


def build_hamiltonian(spec: HamiltonianSpec) -> np.ndarray:
    """Assemble the 8x8 matrix c . BASIS of a spec; Hermitian for real inputs."""
    return matrices(spec._c)


def build_composite(kind: str, inputs: Mapping) -> np.ndarray:
    """colored_sum of a QuarkSum or QQbar given as a JSON-style mapping: the
    independent route to build_hamiltonian's collapsed closed forms."""
    spec = HamiltonianSpec.from_dict({"kind": kind, **dict(inputs)})
    return colored_sum(kind, m=spec.m, p=spec.p, x=spec.x, pbar=spec.pbar, xbar=spec.xbar)


# ---------------------------------------------------------------------------
# Rotations
# ---------------------------------------------------------------------------


def rotation_matrix(axis: int | Sequence[float], angle: float | np.ndarray) -> np.ndarray:
    """Passive (frame) rotation: about axis 3, p'1 = c p1 + s p2.

    axis is an integer 1, 2, 3 (a bool is an error) or unit 3-vectors of
    shape (..., 3) (a non-unit vector is an error) and angle a number or an
    array; they broadcast to a stack (..., 3, 3).  Equals exp(-angle *
    cross(n)) = I cos - sin [n]x + (1 - cos) n n^T, cos and sin from math per
    angle, so each matrix of a stack equals the call for its own axis and
    angle bit for bit.
    """
    angles = np.asarray(angle)  # NumPy would read a bool or text as a float
    flat = angles.ravel().tolist()
    if angles.dtype.kind not in "iuf" or not all(map(math.isfinite, flat)):
        raise ValueError(f"angle must be a finite int or float, or an array, got {angle!r}")
    if isinstance(axis, (bool, np.bool_)):
        raise ValueError(f"axis must be an index 1..3 or a 3-vector, not a bool: {axis!r}")
    if isinstance(axis, numbers.Integral):
        if axis not in (1, 2, 3):
            raise ValueError(f"axis index must be 1..3, got {axis}")
        n = np.eye(3)[axis - 1]
    else:
        n = np.asarray(axis, dtype=float)
        if n.shape[-1:] != (3,) or not np.all(np.isfinite(n)):
            raise ValueError(f"axis must be a finite 3-vector, got {axis!r}")
        norm = np.linalg.norm(n, axis=-1)
        if np.any(np.abs(norm - 1.0) > 1e-12):
            raise ValueError(f"axis must be a unit vector, got norm {norm!r}")
    x, y, z, zero = n[..., 0], n[..., 1], n[..., 2], np.zeros(n.shape[:-1])
    cross = np.stack([zero, -z, y, z, zero, -x, -y, x, zero], -1).reshape(n.shape[:-1] + (3, 3))
    c, s = (np.array([f(t) for t in flat]).reshape(angles.shape + (1, 1))
            for f in (math.cos, math.sin))
    return c * np.eye(3) - s * cross + (1.0 - c) * (n[..., :, None] * n[..., None, :])


def rotated_operators(rot: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Primed operator triplets A'_k = R_kl A_l and B'_k = R_kl B_l.

    A rotation of shape (..., 3, 3) gives two arrays of shape (3, ..., 8, 8),
    k first, each one matmul of the rows R_k. against the triplet read as
    real (3, 128) arrays.  Each real and each imaginary part of an entry is
    nonzero in at most one A_l (likewise B_l), and there it is +-1, so every
    entry is one exact product R_kl * (+-1) plus zeros, in any summation order.
    """
    rot = np.asarray(rot, dtype=float)
    if rot.shape[-2:] != (3, 3):
        raise ValueError(f"rotation must be 3x3, got {rot.shape}")
    rows, shape = np.moveaxis(rot, -2, 0), (3,) + rot.shape[:-2] + (8, 8)  # R_kl, k first
    return tuple((rows @ ops).view(complex).reshape(shape) for ops in (_REAL[1:4], _REAL[4:7]))


def rotate_hamiltonian(spec: HamiltonianSpec, axis: int | Sequence[float],
                       angle: float) -> np.ndarray:
    """The Hamiltonian in the frame rotated by rotation_matrix(axis, angle).

    Its masks are alpha + beta u u^T (module docstring), so Dirac, QuarkSum
    and QQbar, whose betas are 0, return the unrotated matrix exactly for
    any rotation; the colored kinds are only invariant under rotations
    about their own color axis, and mix pairwise otherwise.  Rotated
    coefficients that overflow are a ValueError naming the kind.
    """
    with np.errstate(over="ignore", invalid="ignore"):  # reported below, by kind
        c = coefficients(spec.kind, rot=rotation_matrix(axis, angle),
                         **{name: getattr(spec, name) for name in _TABLE[spec.kind].fields})
    if not np.isfinite(c).all():  # s and beta do not rotate, so the diagonal stays finite
        raise ValueError(f"rotated coefficients of the {spec.kind} spec overflow float64")
    return matrices(c)


# ---------------------------------------------------------------------------
# Charge conjugation
# ---------------------------------------------------------------------------


def conjugate_hamiltonian(spec: HamiltonianSpec) -> tuple[np.ndarray, HamiltonianSpec]:
    """Charge conjugate a Dirac or colored spec: (matrix, conjugated_spec).

    The conjugated spec is the field flip of the module docstring and the
    matrix is built from it; for the free colored kinds it equals the Anti
    kind.  A flip whose coefficients overflow is a ValueError, as for any spec.
    """
    if spec.kind not in _EM_KINDS:
        raise ValueError(f"conjugate_hamiltonian supports kinds {_EM_KINDS}")
    flips: dict = {} if spec.em is None else {"em": replace(spec.em, e=-spec.em.e)}
    if "x" in _TABLE[spec.kind].fields:
        flips["x"] = tuple(-v for v in spec.x)
    conj = replace(spec, **flips)
    return build_hamiltonian(conj), conj


class DistinctnessReport(NamedTuple):
    """Outcome of the antiparticle distinctness check for one color."""

    color: str
    p: tuple[float, float, float]
    x: tuple[float, float, float]
    m: float
    min_distance: float
    minimizer: tuple[float, float, float]
    margin: float
    degenerate: bool

    @property
    def passed(self) -> bool:
        if self.degenerate:
            return True
        slack = 1e-9 * max(1.0, self.margin)
        return self.min_distance > 0.0 and self.min_distance >= self.margin - slack


def antiparticle_distinctness_check(
    color: str = "R",
    p: Sequence[float] = (1.0, 0.0, 0.0),
    x: Sequence[float] = (0.0, 1.0, 1.0),
    m: float = 1.0,
) -> DistinctnessReport:
    """Show no rotation or reflection carries Anti(color) onto Color(color).

    In the frame R the Anti masks are alpha + beta u u^T (module
    docstring), so its a- or b-block is alpha v + beta u (u.v) for v = p
    or x.  The distance between two Hamiltonians is the norm of the
    difference of their 7 coefficients (A1..A3, B1..B3, B), the operator
    distance in <X, Y> = tr(X^+ Y)/8 since the generators are orthonormal;
    s and B (0 and m) agree on both sides, so only the a- and b-blocks count.

    The minimum over all of O(3) is exact.  Against the Color target t the
    block difference is g + beta u (u.v) with g = alpha v - t, and on
    |u| = 1 its square is
        |g|^2 + u^T (beta^2 v v^T + beta (v g^T + g v^T)) u.
    Summed over both blocks, d^2 = const + u^T Q u, whose minimum over the
    unit sphere is reached at the eigenvector u of the lowest eigenvalue
    of the 3x3 matrix Q.  Every unit u is the color-axis row of some
    rotation, so min_distance, the norm of the two block differences at
    that u (a sum of squares, free of cancellation), is the minimum.

    Reflections reach no other distance.  Reflection, conjugation by B,
    negates the a- and b-blocks and p -> -p, x -> -x negates them back;
    an improper -R has the row -u, and d is even in u.
    For every rotation the position block satisfies
        |R^T Psi_anti R x - Psi_color x| >= |P_c x|^2 / |x|,
    the margin reported next to the minimum (P_c projects off the color axis).
    """
    if color not in ("R", "Y", "B"):
        raise ValueError(f"color must be one of R, Y, B, got {color!r}")
    anti = HamiltonianSpec(kind=f"Anti{color}", m=m, p=p, x=x)
    row = _TABLE[anti.kind]
    target = HamiltonianSpec(kind=f"Color{color}", m=m, p=p, x=x)._c
    blocks, q = [], np.zeros((3, 3))
    for (alpha, beta), v, t in ((row.phi, anti.p, target[1:4]), (row.psi, anti.x, target[4:7])):
        v = np.array(v)
        g = alpha * v - t
        q += beta * beta * np.outer(v, v) + beta * (np.outer(v, g) + np.outer(g, v))
        blocks.append((beta, v, g))
    u = np.linalg.eigh(q)[1][:, 0]
    diff = np.concatenate([g + beta * (u @ v) * u for beta, v, g in blocks])
    d_min = math.sqrt(float(diff @ diff))

    xnorm = float(np.linalg.norm(anti.x))
    margin = 0.0 if xnorm == 0.0 else float(target[4:7] @ target[4:7]) / xnorm
    return DistinctnessReport(color=color, p=anti.p, x=anti.x, m=anti.m, min_distance=d_min,
                              minimizer=tuple(float(v) for v in u), margin=margin,
                              degenerate=(margin == 0.0))


# ---------------------------------------------------------------------------
# Spectra
# ---------------------------------------------------------------------------


class SpectrumReport(NamedTuple):
    eigenvalues: tuple[float, ...]
    degeneracies: tuple[tuple[float, int], ...]
    scalar_square: float | None
    scalar_residual: float | None
    hermiticity_residual: float
    symmetric_about_zero: bool

    def to_dict(self) -> dict:
        return {**self._asdict(), "eigenvalues": list(self.eigenvalues),
                "degeneracies": [[v, n] for v, n in self.degeneracies]}


_SCALAR_TOL = 1e-11  # relative tolerance of a scalar square


def square_and_spectrum(h: np.ndarray) -> SpectrumReport:
    """Closed-form square and spectrum of h = c . BASIS (see the module docstring).

    c = Re(conj(BASIS) h)/8, and an h that c . BASIS does not rebuild within
    1e-12 max(1, max|h|), non-Hermitian or outside the span, is a ValueError.
    With s = c[0] and r = |c[1:]| the eigenvalues are s - r, then s + r,
    fourfold each (one eightfold s when 2r <= 1e-9 max(1, |s + r|)), and
    scalar_residual = 2|s| max|H - s*1| is max|H^2 - lam*1| exactly.
    scalar_square is lam = s^2 + r^2 when that residual is within
    _SCALAR_TOL max(1, lam).  Each is None when it overflows float64, though
    the eigenvalues s -+ r are still given.  A numerical diagonalization,
    in verify, is the independent route.
    """
    h = np.asarray(h, dtype=complex)
    if h.shape != (8, 8):
        raise ValueError(f"expected an 8x8 matrix, got {h.shape}")
    return _spectra(h[None])[0]


def _spectra(h: np.ndarray) -> list[SpectrumReport]:
    """square_and_spectrum of each matrix of a stack (N, 8, 8), by the same operations."""
    h = np.asarray(h, dtype=complex)
    herm = np.abs(h - h.conj().swapaxes(1, 2)).max(axis=(1, 2))
    c = (_BASIS_CONJ @ (h.reshape(-1, 64, 1) / 8.0))[..., 0].real  # no partial sum overflows
    off = np.abs(h - matrices(c)).max(axis=(1, 2))
    bad = ~(off <= 1e-12 * np.maximum(1.0, np.abs(h).max(axis=(1, 2))))  # NaN fails too
    if bad.any():
        raise ValueError(f"matrix is not a Hermitian combination of 1, A1..A3, B1..B3, B "
                         f"(residual {off[bad][0]:.3e})")
    diagonal = np.abs(h - c[:, :1, None] * _I8).max(axis=(1, 2))
    reports = []
    for (s, *v), diag, hm in zip(c.tolist(), diagonal.tolist(), herm.tolist()):
        r = math.hypot(*v)
        lo, hi, resid, lam = s - r, s + r, 2.0 * abs(s) * diag, s * s + r * r
        scalar = lam if math.isfinite(lam) and resid <= _SCALAR_TOL * max(1.0, lam) else None
        reports.append(SpectrumReport(
            eigenvalues=(lo,) * 4 + (hi,) * 4,
            # ratios, not products, so that an overflowed s + r (inf/inf = nan) reads False
            degeneracies=((s, 8),) if 2.0 * r / max(1.0, abs(hi)) <= 1e-9 else ((lo, 4), (hi, 4)),
            scalar_square=scalar,
            scalar_residual=resid if math.isfinite(resid) else None,
            hermiticity_residual=hm,
            symmetric_about_zero=abs(2.0 * s) / max(1.0, abs(s) + r) <= 1e-10,
        ))
    return reports
