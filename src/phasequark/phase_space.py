"""Rotation algebra of six-dimensional phase space.

Phase space is coordinatized as v = (p1, p2, p3, x1, x2, x3), momenta first.
The quadratic invariant is p.p + x.x, so the full rotation group of the
space is SO(6).  The subgroup that additionally preserves canonical Poisson
brackets is U(3) = U(1) x SU(3); this module builds its generators, checks
the structure constants, and exponentiates generators into group elements.
Every named generator (F1..F8, R, R1..R3, H1..H3, J1..J3) is one row of
plane-sum terms in a single label table, built once at import into shared
Generator6 instances; resolve_generator6 reads every label, G(m,n) included,
and returns the shared instance.  Only G(m,n) is built per call.  The
structure constants are one read-only (9, 9, 9) array, also built once.
The four printed pairings are one table of signed coordinate names, and
each Even(tag) is its row under the slot map p_k -> x_k, x_k -> -p_k of
exp(-pi/2 * R); all eight are built once at import.  The records
(PhaseVector, PairingScheme, DerivedPairing) are NamedTuples; Generator6,
which validates its matrix and holds it read-only, is a dataclass.

Conventions fixed here and used everywhere else in the package:

* Coordinate order (p1, p2, p3, x1, x2, x3); indices in labels are 1-based.
* Antisymmetric plane generators (G(m,n))[i,k] = d(m,i) d(n,k) - d(m,k) d(n,i),
  i.e. +1 in row m column n, -1 in row n column m.
* Symplectic form J = [[0, I3], [-I3, 0]] in (p, x) block order.  A linear
  map M preserves Poisson brackets iff M^T J M = J.
* exp_generator(g, theta) = exp(theta * g.matrix).  With this sign the
  U(1) generator R gives exp(+pi/2 * R): (p, x) -> (-x, p), the momentum
  position interchange whose square is the full reflection -1.  The inverse
  quarter turn exp(-pi/2 * R) realizes (p, x) -> (x, -p).
* The exponential is the closed form for a real antisymmetric g (Gallier &
  Xu, "Computing exponentials of skew-symmetric matrices and logarithms of
  orthogonal matrices", 2002): with S = -g g = V diag(w^2) V^T,
  exp(theta g) = V cos(theta w) V^T + g V (sin(theta w) / w) V^T, where
  g V = 0 at w = 0.  Whole quarter turns are taken out of
  theta w exactly before cos and sin are evaluated, so every plane-sum
  generator (diagonal S) gives an exact signed permutation at float
  multiples of pi/2.

The eight SU(3) generators F1..F8 close as [Fi, Fk] = 2 f_ikj Fj with
totally antisymmetric structure constants

    f_123 = 1,
    f_147 = f_165 = f_246 = f_257 = f_345 = f_376 = 1/2,
    f_458 = f_678 = sqrt(3)/2,

and the U(1) generator R = R1 + R2 + R3 commutes with all of them.
"""

from __future__ import annotations

import functools
import itertools
import math
import re
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

__all__ = [
    "COORD_NAMES",
    "PhaseVector",
    "Generator6",
    "PairingScheme",
    "DerivedPairing",
    "LABEL_HELP",
    "resolve_generator6",
    "commutator6",
    "structure_constants",
    "verify_su3_table",
    "exp_generator",
    "is_orthogonal",
    "is_symplectic",
    "symplectic_form",
    "pairing",
    "pairing_tags",
    "apply_pairing",
    "derive_pairing_from_rotation",
    "derive_pairing_from_diagonal",
]

COORD_NAMES = ("p1", "p2", "p3", "x1", "x2", "x3")

_SQRT3 = math.sqrt(3.0)


class PhaseVector(NamedTuple):
    """A point (p, x) of six-dimensional phase space."""

    p: tuple[float, float, float]
    x: tuple[float, float, float]

    @classmethod
    def from_array(cls, v: Sequence[float]) -> "PhaseVector":
        a = np.asarray(v, dtype=float).reshape(-1)
        if a.shape != (6,):
            raise ValueError(f"phase vector needs 6 components, got {a.shape}")
        return cls(p=(a[0], a[1], a[2]), x=(a[3], a[4], a[5]))

    def as_array(self) -> np.ndarray:
        return np.array([*self.p, *self.x], dtype=float)


@dataclass(frozen=True)
class Generator6:
    """Labeled real antisymmetric 6x6 matrix, an so(6) element.

    The matrix is a read-only copy, so a generator can be shared.
    """

    label: str
    matrix: np.ndarray

    def __post_init__(self) -> None:
        m = np.array(self.matrix, dtype=float)
        if m.shape != (6, 6):
            raise ValueError(f"{self.label}: generator must be 6x6, got {m.shape}")
        if not np.array_equal(m, -m.T):
            raise ValueError(f"{self.label}: generator must be antisymmetric")
        m.flags.writeable = False
        object.__setattr__(self, "matrix", m)


def _plane(m: int, n: int) -> Generator6:
    """Plane rotation generator G(m,n): +1 at (m, n) and -1 at (n, m), 1-based."""
    if not (1 <= m <= 6 and 1 <= n <= 6):
        raise ValueError(f"G indices must be in 1..6, got ({m}, {n})")
    if m == n:
        raise ValueError(f"G indices must differ, got ({m}, {n})")
    g = np.zeros((6, 6))
    g[m - 1, n - 1] = 1.0
    g[n - 1, m - 1] = -1.0
    return Generator6(label=f"G({m},{n})", matrix=g)


# Every named 6x6 generator as its plane-sum terms (coeff, m, n), each
# coeff * G(m, n): the SU(3) basis F1..F8, whose F3 and F8 span the Cartan
# subalgebra; the U(1) generator R = R1 + R2 + R3 with Ri = G(i+3, i); the
# momentum/position quarter turns H1, H2, H3 = F6, -F4, -F1; and the
# simultaneous (p, x) space rotations J1, J2, J3 = F7, F5, -F2.
_LABEL_TERMS: dict[str, tuple[tuple[float, int, int], ...]] = {
    "F1": ((1, 1, 5), (1, 2, 4)),
    "F2": ((1, 1, 2), (1, 4, 5)),
    "F3": ((1, 4, 1), (-1, 5, 2)),
    "F4": ((1, 3, 4), (1, 1, 6)),
    "F5": ((1, 1, 3), (1, 4, 6)),
    "F6": ((1, 6, 2), (1, 5, 3)),
    "F7": ((1, 3, 2), (1, 6, 5)),
    "F8": ((1 / _SQRT3, 4, 1), (1 / _SQRT3, 5, 2), (-2 / _SQRT3, 6, 3)),
    "R": ((1, 4, 1), (1, 5, 2), (1, 6, 3)),
    "R1": ((1, 4, 1),), "R2": ((1, 5, 2),), "R3": ((1, 6, 3),),
}
_LABEL_TERMS.update({
    label: tuple((sign * coeff, a, b) for coeff, a, b in _LABEL_TERMS[f"F{i}"])
    for label, sign, i in (("H1", 1, 6), ("H2", -1, 4), ("H3", -1, 1),
                           ("J1", 1, 7), ("J2", 1, 5), ("J3", -1, 2))
})
_NAMED = {label: Generator6(label, sum(coeff * _plane(a, b).matrix for coeff, a, b in terms))
          for label, terms in _LABEL_TERMS.items()}
_INDEX_RANGE = {"F": "in 1..8", "R": "1..3", "H": "1..3", "J": "1..3"}  # of each family's error
LABEL_HELP = "F1..F8, R, R1..R3, H1..H3, J1..J3, or G(m,n)"
_G_LABEL = re.compile(r"G\(([0-9]),([0-9])\)")


def resolve_generator6(label: str) -> Generator6:
    """Resolve a 6x6 generator label: F1..F8, R, R1..R3, H1..H3, J1..J3, G(m,n)."""
    match = _G_LABEL.fullmatch(label)
    if match:
        return _plane(int(match.group(1)), int(match.group(2)))
    if label in _NAMED:
        return _NAMED[label]
    if len(label) == 2 and label[0] in _INDEX_RANGE and "0" <= label[1] <= "9":
        raise ValueError(f"{label[0]} index must be {_INDEX_RANGE[label[0]]}, got {label[1]}")
    raise ValueError(f"unknown generator label {label!r}; expected {LABEL_HELP}")


def commutator6(a: Generator6 | np.ndarray, b: Generator6 | np.ndarray) -> np.ndarray:
    """Matrix commutator [a, b] of 6x6 generators."""
    ma = a.matrix if isinstance(a, Generator6) else np.asarray(a, dtype=float)
    mb = b.matrix if isinstance(b, Generator6) else np.asarray(b, dtype=float)
    return ma @ mb - mb @ ma


# Canonical nonzero structure constants f_ikj, one representative per orbit.
_F_CANONICAL: dict[tuple[int, int, int], float] = {
    (1, 2, 3): 1.0,
    (1, 4, 7): 0.5,
    (1, 6, 5): 0.5,
    (2, 4, 6): 0.5,
    (2, 5, 7): 0.5,
    (3, 4, 5): 0.5,
    (3, 7, 6): 0.5,
    (4, 5, 8): _SQRT3 / 2,
    (6, 7, 8): _SQRT3 / 2,
}


def _f_table() -> np.ndarray:
    """f[i, k, j], 1-based (slot 0 unused), read-only: +f at the three cyclic
    orders of each canonical triple, -f at the three odd ones."""
    t = np.zeros((9, 9, 9))
    for (i, k, j), v in _F_CANONICAL.items():
        for a, b, c in ((i, k, j), (k, j, i), (j, i, k)):
            t[a, b, c], t[b, a, c] = v, -v
    t.flags.writeable = False
    return t


_F_TABLE = _f_table()

_F_STACK = np.stack([_NAMED[f"F{i}"].matrix for i in range(1, 9)])  # F1..F8
_F_STACK.flags.writeable = False


def structure_constants() -> np.ndarray:
    """The read-only totally antisymmetric table f[i, k, j] with
    [Fi, Fk] = 2 f_ikj Fj: shape (9, 9, 9), 1-based indices, slot 0 unused."""
    return _F_TABLE


def verify_su3_table(tol: float = 1e-12) -> tuple[bool, float, list[dict]]:
    """Re-derive [Fi, Fk] coefficients from matrix commutators.

    For each of the 28 pairs i < k the commutator is projected onto the
    orthogonal F basis (Frobenius inner product; each generator has squared
    norm 4) and compared against 2 f_ikj from the stored table.  Returns
    (all_ok, max_residual, rows); the residual of a pair combines the
    coefficient mismatch and the norm of any component outside the span.
    All 28 pairs are one stack, with the per-pair order of every sum kept.
    """
    pairs = np.array(list(itertools.combinations(range(1, 9), 2)))
    F = _F_STACK
    fi, fk = F[pairs[:, 0] - 1], F[pairs[:, 1] - 1]
    c = fi @ fk - fk @ fi
    coeffs = np.trace(c.swapaxes(1, 2)[:, None] @ F, axis1=2, axis2=3) / 4.0
    expected = 2.0 * _F_TABLE[pairs[:, 0], pairs[:, 1], 1:]
    span = 0.0
    for j in range(8):
        span = span + coeffs[:, j, None, None] * F[j]
    off_span = np.abs(c - span).max(axis=(1, 2))
    resid = np.maximum(np.abs(coeffs - expected).max(axis=1), off_span)
    rows = [
        {"pair": tuple(pair), "coefficients": co, "expected": ex, "residual": r}
        for pair, co, ex, r in zip(
            pairs.tolist(), coeffs.tolist(), expected.tolist(), resid.tolist()
        )
    ]
    worst = max(resid.tolist())
    return worst <= tol, worst, rows


_HALF_PI = math.pi / 2.0


@functools.lru_cache(maxsize=64)
def _frequency_terms(key: bytes) -> tuple[tuple[float, ...], np.ndarray]:
    """Spectral split of a 6x6 antisymmetric matrix given by its float64 bytes.

    S = -g g is symmetric and positive semidefinite; eigh(S) = (w^2, V).
    For each distinct frequency w, with P_w the projector onto its
    eigenvectors, the rows 2k and 2k + 1 of the returned (read-only)
    stack are P_w and g P_w flattened, so exp(theta g) = sum over w of
    cos(theta w) P_w + (sin(theta w) / w) g P_w, and P_0 alone at w = 0.
    """
    g = np.frombuffer(key).reshape(6, 6)
    if not np.array_equal(g, -g.T):
        raise ValueError("exp_generator needs an antisymmetric 6x6 matrix")
    w2, v = np.linalg.eigh(-(g @ g))
    # eigh gives w^2 only to ~eps * max(w^2), so closer eigenvalues are one
    # frequency: their eigenspace is g-invariant, and turning it by unequal
    # angles would break orthogonality at large theta.  A cluster at the
    # noise floor is w = 0, where g P_0 = 0 (g vanishes on the kernel of S).
    tol = 64.0 * np.finfo(float).eps * max(w2[-1], 0.0)
    starts = list(np.flatnonzero(np.diff(w2, prepend=-np.inf) > tol))
    freqs, rows = [], []
    for lo, hi in zip(starts, starts[1:] + [6]):
        w = math.sqrt(w2[hi - 1]) if w2[hi - 1] > tol else 0.0
        proj = v[:, lo:hi] @ v[:, lo:hi].T
        freqs.append(w)
        rows += [proj, g @ proj]
    stack = np.array(rows).reshape(len(rows), 36)
    stack.flags.writeable = False
    return tuple(freqs), stack


def _cos_sin(theta: float, w: float) -> tuple[float, float]:
    """cos and sin of theta * w, whole quarter turns taken out exactly.

    math.remainder is exact, and so is subtracting |k| <= 2 quarter turns
    from its result, so only the leftover angle is rounded.  At a float
    multiple of pi/2 with w = 1 that leftover is 0 and the result is
    exactly (0 or +-1, 0 or +-1).
    """
    quarter = _HALF_PI / w
    r = math.remainder(theta, 4.0 * quarter)
    k = round(r / quarter)
    rest = (r - k * quarter) * w
    c, s = math.cos(rest), math.sin(rest)
    for _ in range(k % 4):
        c, s = -s, c
    return c, s


def exp_generator(g: Generator6 | np.ndarray, theta: float | np.ndarray) -> np.ndarray:
    """Group element exp(theta * g) in closed form, or a stack over angles.

    With S = -g g = V diag(w^2) V^T (g antisymmetric, so S >= 0),

        exp(theta g) = V cos(theta w) V^T + g V (sin(theta w) / w) V^T,

    where the w = 0 term is V V^T alone, since g V = 0 there (Gallier & Xu
    2002).  The decomposition is computed once per generator matrix.  Before
    cos and sin, theta w is reduced by whole quarter turns exactly, and the
    result is turned back by them with swaps and negations, so plane-sum
    generators give exact signed permutations at float multiples of pi/2.
    The result stays orthogonal, to rounding, at every finite angle.

    A 1-D array of N angles gives the (N, 6, 6) stack of exp(theta_n g):
    an (N, 2F) block of weights, each angle still reduced on its own, times
    the cached split.  Each matrix equals the call at its angle.
    """
    thetas = np.asarray(theta)  # NumPy would read a bool or text as a float
    if thetas.dtype.kind not in "iuf" or thetas.ndim > 1 or not np.isfinite(thetas).all():
        raise ValueError(f"angle must be a finite int or float, or a 1-D array, got {theta!r}")
    m = g.matrix if isinstance(g, Generator6) else np.asarray(g, dtype=float)
    if m.shape != (6, 6):
        raise ValueError(f"exp_generator needs a 6x6 matrix, got {m.shape}")
    freqs, stack = _frequency_terms(np.ascontiguousarray(m).tobytes())
    coeffs = []
    for t in thetas.reshape(-1).tolist():
        for w in freqs:
            if w == 0.0:
                coeffs += (1.0, 0.0)
            else:
                c, s = _cos_sin(t, w)
                coeffs += (c, s / w)
    coeffs = np.array(coeffs).reshape(thetas.shape + (len(stack),))
    return (coeffs @ stack).reshape(thetas.shape + (6, 6))


def symplectic_form() -> np.ndarray:
    """J = [[0, I3], [-I3, 0]] in (p, x) block order."""
    j = np.zeros((6, 6))
    j[:3, 3:] = np.eye(3)
    j[3:, :3] = -np.eye(3)
    return j


def is_orthogonal(m: np.ndarray, tol: float = 1e-12) -> bool:
    m = np.asarray(m, dtype=float)
    return float(np.abs(m.T @ m - np.eye(6)).max()) <= tol


def is_symplectic(m: np.ndarray, tol: float = 1e-12) -> bool:
    m = np.asarray(m, dtype=float)
    j = symplectic_form()
    return float(np.abs(m.T @ j @ m - j).max()) <= tol


# ---------------------------------------------------------------------------
# Canonical pairings ("colored" momentum/position splits)
# ---------------------------------------------------------------------------

class PairingScheme(NamedTuple):
    """A split of phase space into canonically conjugate triplets.

    momenta[i] and positions[i] are (sign, coordinate_index) pairs naming the
    signed original coordinate that plays the role of generalized momentum
    and generalized position number i.  Every scheme below satisfies
    {X_i, P_k} = d(i, k) for the standard bracket {x_i, p_k} = d(i, k),
    equivalently matrix() is symplectic.
    """

    label: str
    momenta: tuple[tuple[int, int], tuple[int, int], tuple[int, int]]
    positions: tuple[tuple[int, int], tuple[int, int], tuple[int, int]]

    def matrix(self) -> np.ndarray:
        """Signed permutation sending v to (P1, P2, P3, X1, X2, X3)."""
        m = np.zeros((6, 6))
        for row, (sign, col) in enumerate(self.momenta + self.positions):
            m[row, col] = float(sign)
        return m

    def describe(self) -> dict:
        names = [("-" if sign < 0 else "") + COORD_NAMES[col]
                 for sign, col in self.momenta + self.positions]
        return {"label": self.label, "momenta": names[:3], "positions": names[3:]}


# The printed pairings: the signed coordinates read as (P1, P2, P3, X1, X2, X3).
_PAIRING_ROWS = {
    "Standard": "p1 p2 p3 x1 x2 x3",
    "R": "p1 x2 -x3 x1 -p2 p3",
    "Y": "-x1 p2 x3 p1 x2 -p3",
    "B": "x1 -x2 p3 -p1 p2 x3",
}


def _pairing_scheme(label: str, row: str, even: bool) -> PairingScheme:
    """A printed row as a scheme, if even turned by exp(-pi/2 * R): (p, x) -> (x, -p)."""
    slots = []
    for name in row.split():
        sign, col = -1 if name[0] == "-" else 1, COORD_NAMES.index(name.lstrip("-"))
        if even:  # slot p_k reads x_k, slot x_k reads -p_k
            sign, col = (sign, col + 3) if col < 3 else (-sign, col - 3)
        slots.append((sign, col))
    return PairingScheme(label, tuple(slots[:3]), tuple(slots[3:]))


_PAIRINGS = {tag: _pairing_scheme(tag, row, False) for tag, row in _PAIRING_ROWS.items()}
_PAIRINGS.update({f"Even({tag})": _pairing_scheme(f"Even({tag})", row, True)
                  for tag, row in _PAIRING_ROWS.items()})


def pairing_tags() -> tuple[str, ...]:
    return tuple(_PAIRINGS)


def pairing(tag: str) -> PairingScheme:
    """Look up a pairing scheme by tag, e.g. "R" or "Even(R)"."""
    if tag in _PAIRINGS:
        return _PAIRINGS[tag]
    raise ValueError(f"unknown pairing tag {tag!r}; expected one of {pairing_tags()}")


def apply_pairing(scheme: PairingScheme, v: PhaseVector) -> PhaseVector:
    """Read the generalized (momenta, positions) of v under the scheme."""
    return PhaseVector.from_array(scheme.matrix() @ v.as_array())


# ---------------------------------------------------------------------------
# Deriving the colored pairings from group rotations
# ---------------------------------------------------------------------------

_COLOR_AXIS = {"R": 1, "Y": 2, "B": 3}


class DerivedPairing(NamedTuple):
    color: str
    quarter_turn: str          # label of the H generator used
    quarter_turn_angle: float
    ordinary: str              # label of the space rotation completing the map
    ordinary_angle: float
    matrix: np.ndarray
    residual: float            # max |matrix - printed pairing matrix|


def derive_pairing_from_rotation(color: str) -> DerivedPairing:
    """Realize pairing(color) as exp(pi/2 * Jc) . exp(pi/2 * Hc).

    The quarter turn exp(pi/2 * Hc) exchanges two momentum/position
    planes; the ordinary quarter turn about the same axis c then aligns the
    signs with the printed pairing.  residual is the largest entry of the
    difference from pairing(color), exactly 0 for every color.
    """
    if color not in _COLOR_AXIS:
        raise ValueError(f"color must be one of R, Y, B, got {color!r}")
    h, j = _NAMED[f"H{_COLOR_AXIS[color]}"], _NAMED[f"J{_COLOR_AXIS[color]}"]
    m = exp_generator(j, _HALF_PI) @ exp_generator(h, _HALF_PI)
    residual = float(np.abs(m - pairing(color).matrix()).max())
    return DerivedPairing(color, h.label, _HALF_PI, j.label, _HALF_PI, m, residual)


# each colored pairing's diagonal generator and the angle of its quarter turn
_F3, _F8 = _NAMED["F3"].matrix, _NAMED["F8"].matrix
_DIAGONAL_PAIRING = {
    "R": (Generator6("(F3-sqrt3*F8)/2", (_F3 - _SQRT3 * _F8) / 2), _HALF_PI),
    "Y": (Generator6("(F3+sqrt3*F8)/2", (_F3 + _SQRT3 * _F8) / 2), _HALF_PI),
    "B": (_NAMED["F3"], -_HALF_PI),
}


def derive_pairing_from_diagonal(color: str) -> DerivedPairing:
    """Realize pairing(color) as the quarter turn of one diagonal generator:

        R  <-  exp(+pi/2 * (F3 - sqrt3*F8)/2)
        Y  <-  exp(+pi/2 * (F3 + sqrt3*F8)/2)
        B  <-  exp(-pi/2 * F3)

    residual is the largest entry of the difference from pairing(color).
    Note F3 itself reproduces the blue pairing, not the red one: exp(t*F3)
    leaves the (p3, x3) plane fixed for every t, while the red pairing
    moves x3 into a momentum slot, so no angle can work there.
    """
    if color not in _COLOR_AXIS:
        raise ValueError(f"color must be one of R, Y, B, got {color!r}")
    g, angle = _DIAGONAL_PAIRING[color]
    m = exp_generator(g, angle)
    residual = float(np.abs(m - pairing(color).matrix()).max())
    return DerivedPairing(color, g.label, angle, "(none)", 0.0, m, residual)
