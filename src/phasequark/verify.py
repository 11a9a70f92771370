"""Named verification suites over the whole library.

Five suites (su3, clifford, rotation, conjugation, composite) each run a
fixed list of checks.  A check reports its maximum residual and passes
iff that residual is at or below its tolerance; a --tol override replaces
every default tolerance, which is also how tolerance plumbing is tested
(an unreachable tolerance such as 1e-30 must turn honest floating-point
checks into failures).  All randomness is drawn from the package's own
SplitMix64 stream keyed by (seed, stable-check-id), so a report is byte-identical
for a fixed seed whatever the NumPy version.  Antiparticle distinctness draws
nothing: it checks the exact minimum over O(3) against the distance form rebuilt from matrices.

A check states each identity by two independent routes, one stack per
route with the sample axis first, and _compare turns the two stacks into
the residual: the largest |a - b|, divided by each sample's scale where
the check is relative.  Loops only build stacks.  Residuals that the
library reports (verify_su3_table, derive_pairing_from_*) stay the
library's, and a structural test that fails forces a residual of 1.  The
second route of rotation is the operator route: the table at rotated
coordinates on the primed operators.  Each route is one library call
over its samples, with a kind and an EM field per row where they differ
(the conjugation checks: one per group of samples with the same fields),
and the conjugation checks compare conjugate_hamiltonian with the flip once.  Every check
draws each random quantity with one stream call, as one block that the
stream fills row by row.  A VerificationReport is a NamedTuple of
its checks, each a CheckResult: a frozen dataclass whose == ignores elapsed_ms.
"""

from __future__ import annotations

import itertools
import math
import numbers
import time
from dataclasses import dataclass, field, replace
from functools import partial
from typing import Callable, NamedTuple

import numpy as np

from . import __version__, clifford, phase_space
from .hamiltonian import (
    BASIS,
    EMField,
    HamiltonianSpec,
    _spectra,
    antiparticle_distinctness_check,
    build_hamiltonian,
    coefficients,
    colored_sum,
    conjugate_hamiltonian,
    matrices,
    rotated_operators,
    rotation_matrix,
    square_and_spectrum,
)

__all__ = ["CheckResult", "VerificationReport", "run_suite", "substitution_conjugate", "SUITES",
           "DEFAULT_SEED"]

SUITES = ("su3", "clifford", "rotation", "conjugation", "composite")
DEFAULT_SEED = 1729


@dataclass(frozen=True)
class CheckResult:
    name: str
    max_residual: float
    tolerance: float
    details: dict
    elapsed_ms: float | None = field(default=None, compare=False)  # only when asked for

    @property
    def passed(self) -> bool:
        return self.max_residual <= self.tolerance

    def to_dict(self) -> dict:
        out = {
            "name": self.name,
            "status": "pass" if self.passed else "fail",
            "max_residual": self.max_residual if math.isfinite(self.max_residual) else None,
            "tolerance": self.tolerance,
            "details": self.details,
        }
        if self.elapsed_ms is not None:
            out["elapsed_ms"] = self.elapsed_ms
        return out


class VerificationReport(NamedTuple):
    suite: str
    seed: int
    checks: tuple[CheckResult, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_dict(self) -> dict:
        return {**self._asdict(), "tool_version": __version__, "all_passed": self.passed,
                "checks": [c.to_dict() for c in self.checks]}


def _compare(a, b, scale=None) -> float:
    """The residual of route a against route b: the largest |a - b|.

    a is a stack with the sample axis first; b broadcasts against it, so a
    number or one matrix is a route too.  With scale, each sample's largest
    |a - b| is divided by its entry of scale.  An empty stack gives 0.0, and
    a NaN in either route gives NaN, which fails."""
    a = np.asarray(a)
    if not a.size:
        return 0.0
    diff = np.abs(a - b)
    if scale is not None:
        diff = diff.reshape(len(diff), -1).max(axis=1) / scale
    return float(diff.max())


def _worst(*residuals: float) -> float:
    """The largest residual, NaN if any is: max(0.1, nan) is 0.1, not NaN."""
    return math.nan if any(r != r for r in residuals) else max(residuals)


_F = np.stack([phase_space.resolve_generator6(f"F{i}").matrix for i in range(1, 9)])
_R6 = phase_space.resolve_generator6("R").matrix
_F9 = np.concatenate([_F, _R6[None]])  # F1..F8, then R
_J6 = phase_space.symplectic_form()
_I6 = np.eye(6)

_GAMMA = BASIS.reshape(8, 8, 8)[1:]  # the rows of clifford.GENERATOR_NAMES
_A8, _BK8, _B8 = _GAMMA[0:3], _GAMMA[3:6], _GAMMA[6]
_I8 = np.eye(8)
_C8 = clifford.build_C("s2")
_I3 = np.eye(3)
_COLORS, _ANTIS = (np.array([kind + c for c in "RYB"]) for kind in ("Color", "Anti"))
_MASK64, _GOLDEN = (1 << 64) - 1, 0x9E3779B97F4A7C15  # SplitMix64's increment, gamma
_MIX = ((30, 0xBF58476D1CE4E5B9), (27, 0x94D049BB133111EB))  # its finalizer, then z ^ z >> 31
_UMIX = tuple(tuple(map(np.uint64, step)) for step in _MIX)
_UGOLDEN, _U31, _U11 = map(np.uint64, (_GOLDEN, 31, 11))


def _mix64(z: int) -> int:
    """SplitMix64's finalizer of a Python int below 2**64."""
    for shift, mult in _MIX:
        z = (z ^ z >> shift) * mult & _MASK64
    return z ^ z >> 31


class SplitMix64:
    """SplitMix64 (Steele, Lea & Flood, OOPSLA 2014) keyed by (seed, stream), counter-based:
    word n = 1, 2, ... of all draws is mix64(state0 + n * gamma), one uint64 array per draw
    (0-d for size=None); state0 chains mix64 in Python ints over the stream id, then each
    64-bit limb of the seed from the low end.  Draws fill in C order by NumPy Generator's
    formulas: (word >> 11) * 2**-53, low + (high - low) * random, low + word % (high - low)."""

    def __init__(self, seed: int, stream: int):
        key, seed = _mix64(stream + _GOLDEN & _MASK64), int(seed)
        for shift in range(0, max(seed.bit_length(), 1), 64):
            key = _mix64((key ^ seed >> shift & _MASK64) + _GOLDEN & _MASK64)
        self._state = key  # state0, then advanced by gamma per word drawn

    def _words(self, size) -> np.ndarray:
        shape = () if size is None else size
        n = shape if isinstance(shape, int) else math.prod(shape)
        z = (np.arange(1, n + 1, dtype=np.uint64) * _UGOLDEN + np.uint64(self._state)).reshape(shape)
        self._state = self._state + n * _GOLDEN & _MASK64
        for shift, mult in _UMIX:  # _mix64 in place: array products wrap with no warning
            z ^= z >> shift
            z *= mult
        z ^= z >> _U31
        return z

    def random(self, size=None):
        u = (self._words(size) >> _U11) * 2.0 ** -53
        return float(u) if size is None else u

    def uniform(self, low: float, high: float, size=None):
        return low + (high - low) * self.random(size)

    def integers(self, low: int, high: int, size=None):
        return (self._words(size) % np.uint64(high - low)).astype(np.int64) + low


def _random_inputs(rng: SplitMix64, n: int) -> tuple[np.ndarray, ...]:
    """(m, p, x, pbar, xbar) of n samples, stacked, from one block of uniforms.

    Each sample takes 13 uniforms u: -2 + 4u are the floats uniform(-2, 2) draws
    for p, x, pbar, xbar and 2u those of uniform(0, 2) for m.  The stream fills
    the block row by row, so one block of n draws the floats of n draws of one sample.
    """
    u = rng.random((n, 13))
    vals = -2.0 + 4.0 * u[:, :12]
    return 2.0 * u[:, 12], vals[:, 0:3], vals[:, 3:6], vals[:, 6:9], vals[:, 9:12]


def _sq3(v: np.ndarray) -> np.ndarray:
    """|v|^2 of each row, summed in component order."""
    return v[:, 0] * v[:, 0] + v[:, 1] * v[:, 1] + v[:, 2] * v[:, 2]


# ---------------------------------------------------------------------------
# su3 suite
# ---------------------------------------------------------------------------


def _check_commutator_table():
    ok, max_residual, rows = phase_space.verify_su3_table()
    nonzero = sum(any(abs(c) > 1e-9 for c in row["coefficients"]) for row in rows)
    return max_residual, {"pairs": len(rows), "pairs_with_nonzero_bracket": nonzero,
                          "table_consistent": ok}


def _check_jacobi():
    # the cyclic sum is totally antisymmetric in (a, b, c), so the 56 triples
    # i < j < k cover every triple of distinct generators, and it is 0 at the rest
    a, b, c = _F[np.array(list(itertools.combinations(range(8), 3))).T]
    comm = phase_space.commutator6
    acc = comm(comm(a, b), c) + comm(comm(b, c), a) + comm(comm(c, a), b)
    return _compare(acc, 0.0), {"triples": len(a)}


def _check_centrality():
    return _compare(phase_space.commutator6(_R6, _F), 0.0), {"generators": 8}


def _exp_stack(generators: np.ndarray, angles: np.ndarray) -> np.ndarray:
    """exp(theta g) at each angle of row i of angles for g = generators[i]:
    one exp_generator stack per generator, concatenated in row order."""
    return np.concatenate([phase_space.exp_generator(g, theta)
                           for g, theta in zip(generators, angles)])


def _check_group_membership(rng):
    angles = rng.uniform(-3.1, 3.1, size=(len(_F9), 10))  # row i for _F9[i]
    m = _exp_stack(_F9, angles)
    mt = m.swapaxes(1, 2)
    worst = _worst(_compare(mt @ m, _I6), _compare(mt @ _J6 @ m, _J6))
    # a matrix off the group by more than 1e-12 fails at any --tol below 1
    return (_worst(worst, 1.0) if worst > 1e-12 else worst), {"matrices": angles.size}


def _check_group_additivity(rng):
    first, second = rng.uniform(-2.0, 2.0, size=(2, len(_F), 3))  # row i for F(i+1)
    lhs = _exp_stack(_F, first) @ _exp_stack(_F, second)
    return _compare(lhs, _exp_stack(_F, first + second)), {"samples": first.size}


def _check_quadratic_form(rng):
    angles = rng.uniform(-3.0, 3.0, size=(len(_F9), 11))  # row i for _F9[i]
    vectors = rng.uniform(-2.0, 2.0, size=(len(_F9), 11, 6))
    # stacked products keep the rounding of the 1-D dot products
    v = vectors.reshape(-1, 6, 1)
    mv = _exp_stack(_F9, angles) @ v
    vv = (v.swapaxes(1, 2) @ v)[:, 0, 0]
    worst = _compare(vv, (mv.swapaxes(1, 2) @ mv)[:, 0, 0], scale=vv)
    return worst, {"vectors": angles.size}


def _check_reflection_square():
    recip = phase_space.exp_generator(_R6, math.pi / 2.0)
    reflection = phase_space.exp_generator(_R6, math.pi)
    worst = _worst(_compare(recip @ recip, reflection), _compare(reflection, -_I6))
    return worst, {"convention": "exp((pi/2) R) maps (p, x) to (-x, p)"}


def _check_pairing_symplectic():
    tags = ("Standard", "R", "Y", "B", "Even(R)")
    m = np.stack([phase_space.pairing(tag).matrix() for tag in tags])
    return _compare(m.swapaxes(1, 2) @ _J6 @ m, _J6), {"tags": list(tags)}


def _check_pairing(route: str, keys: dict[str, str]):
    """Worst residual of phase_space.derive_pairing_from_<route>(color) over
    R, Y, B, and per color the DerivedPairing fields named by the values of
    keys, under its keys.  The function is looked up on the module at call
    time, so a wrapper installed there (a tracer) sees the call."""
    derive = getattr(phase_space, f"derive_pairing_from_{route}")
    derived = {color: derive(color) for color in "RYB"}
    found = {color: {key: getattr(d, attr) for key, attr in keys.items()}
             for color, d in derived.items()}
    return _worst(*(d.residual for d in derived.values())), found


# ---------------------------------------------------------------------------
# clifford suite
# ---------------------------------------------------------------------------


def _anticommutation_residual(gammas: np.ndarray) -> float:
    """Largest |{G_a, G_b} - 2 delta_ab 1| over all pairs of a (7, 8, 8) stack."""
    target = 2.0 * np.eye(7)[:, :, None, None] * _I8
    return _compare(clifford.anticommutator(gammas[:, None], gammas[None]), target)


def _check_anticommutation():
    return _anticommutation_residual(_GAMMA), {"generators": list(clifford.GENERATOR_NAMES)}


def _check_hermitian_involution():
    g = _GAMMA
    worst = _worst(_compare(g, g.conj().swapaxes(1, 2)), _compare(g @ g, _I8))
    if not np.isin(g, [0, 1, -1, 1j, -1j]).all():
        worst = _worst(worst, 1.0)
    return worst, {"entry_set": "0, +-1, +-i"}


def _check_conjugation_identities():
    c, ops = _C8, _GAMMA[:6]
    worst = _worst(_compare(c @ _B8 @ -c, -_B8), _compare(c @ np.conj(ops) @ -c, ops))
    return worst, {"tau": "s2"}


def _check_tau_uniqueness():
    expected = {"s0": [1, 3], "s1": [1, 2], "s2": [], "s3": [2, 3]}
    scan = clifford.charge_conjugation_tau_scan()
    failures = {tau: sorted(ks) for tau, ks in scan.items()}
    return (0.0 if failures == expected else 1.0), {"failing_Bk_indices": failures}


def _check_gamma5():
    """The table's chiralities against -i A1 A2 A3 and -i A_c B_u B_v by matmul."""
    c, u, v = [0, 1, 2], [1, 2, 0], [2, 0, 1]  # R, Y, B
    products = -1j * np.stack([_A8[0] @ _A8[1] @ _A8[2], *(_A8[c] @ _BK8[u] @ _BK8[v])])
    table = np.stack([clifford.named_operator(f"gamma{n}5") for n in ("", "R", "Y", "B")])
    g5 = table[0]
    worst = _worst(_compare(products, table), _compare(table @ table, _I8),
                   _compare(clifford.anticommutator(table, _B8), 0.0),
                   _compare(clifford.anticommutator(g5, _BK8), 0.0),
                   _compare(g5 @ _A8 - _A8 @ g5, 0.0))
    return worst, {"colored": ["R", "Y", "B"]}


def _check_random_basis_similarity(rng):
    # the Q of a random complex matrix, with the phases of R's diagonal, is a random unitary
    z = rng.uniform(-1.0, 1.0, size=(8, 8)) + 1j * rng.uniform(-1.0, 1.0, size=(8, 8))
    q, r = np.linalg.qr(z)
    u = q * (np.diag(r) / np.abs(np.diag(r)))
    worst = _anticommutation_residual(u @ _GAMMA @ u.conj().T)
    return worst, {"note": "anticommutation table under a random unitary change of basis"}


# ---------------------------------------------------------------------------
# rotation suite
# ---------------------------------------------------------------------------


def _check_mixing_law(rng):
    p, x = rng.uniform(-2.0, 2.0, size=(2, 3))  # one block, filled row by row
    fields = {"m": float(rng.uniform(0.0, 2.0)), "p": p, "x": x}
    phis = rng.uniform(-3.1, 3.1, size=10).tolist()
    c, s = (np.array([f(phi) for phi in phis])[:, None, None] for f in (math.cos, math.sin))
    rots = rotation_matrix(3, phis)
    h_r_p, h_y_p = matrices(coefficients([["ColorR"], ["ColorY"]], rot=rots, **fields))
    a_p, b_p = rotated_operators(rots)  # the operator route
    pp, xp = ((rots @ v)[:, :, None, None] for v in (p, x))
    cross = b_p[1] * xp[:, 0] + b_p[0] * xp[:, 1] - a_p[1] * pp[:, 0] - a_p[0] * pp[:, 1]
    h_r = matrices(coefficients("ColorR", **fields))
    return _compare(c * c * h_r_p + s * s * h_y_p + s * c * cross, h_r), {"angles": 10}


def _operator_route(kind, rots: np.ndarray, **fields) -> np.ndarray:
    """Hamiltonians in the frames rots (..., 3, 3) by the operator route (no EM
    field); kinds and fields broadcast against the frames' leading axes.

    The table at R p, R x, R pbar, R xbar, read on the primed operators
    A'_k = R_kl A_l and B'_k = R_kl B_l of rotated_operators: the second
    route of coefficients(rot=), which turns the masks instead.
    """
    turned = {name: (rots @ np.asarray(v)[..., None])[..., 0] if name != "m" else v
              for name, v in fields.items()}
    c = coefficients(kind, **turned)
    primed = np.concatenate(rotated_operators(rots))  # A'_1..A'_3, B'_1..B'_3
    return (c[..., 0, None, None] * _I8 + np.einsum("...k,k...ij->...ij", c[..., 1:7], primed)
            + c[..., 7, None, None] * _B8)


def _check_color_axis_invariance(rng):
    m, p, x, _, _ = _random_inputs(rng, 3)  # row i for color i
    rots = rotation_matrix(_I3[:, None], rng.uniform(-3.1, 3.1, size=(3, 5)))  # own axis
    rotated = _operator_route(_COLORS[:, None], rots, m=m[:, None], p=p[:, None], x=x[:, None])
    worst = _compare(rotated, matrices(coefficients(_COLORS, m=m, p=p, x=x))[:, None])
    return worst, {"pairs": "ColorR/axis1, ColorY/axis2, ColorB/axis3"}


def _rotation_invariance(rng, kind: str) -> tuple[float, dict]:
    """Largest |H - H rotated| over 20 random specs, each with a random rotation."""
    m, p, x, pbar, xbar = _random_inputs(rng, 20)
    axes = rng.uniform(-1.0, 1.0, size=(20, 3))
    axes /= np.linalg.norm(axes, axis=1, keepdims=True)
    angles = rng.uniform(-math.pi, math.pi, size=20)
    fields = {"m": m, "p": p, "x": x}
    if kind == "QQbar":
        fields.update(pbar=pbar, xbar=xbar)
    h = matrices(coefficients(kind, **fields))
    rots = rotation_matrix(axes, angles)
    return _compare(h, _operator_route(kind, rots, **fields)), {"samples": 20}


# ---------------------------------------------------------------------------
# conjugation suite
# ---------------------------------------------------------------------------


def _field_flip(fields: dict) -> dict:
    """Conjugation's field flip, stated apart from the library, on stacked fields
    with an EM field (or None) per row: e -> -e, and x -> -x where the fields
    give x (the colored kinds)."""
    flipped = dict(fields)
    if "x" in fields:
        flipped["x"] = -np.asarray(fields["x"])
    if "em" in fields:
        flipped["em"] = [em and EMField(-em.e, em.A0, em.Avec) for em in fields["em"]]
    return flipped


def _stack(groups: list[tuple], route=lambda fields: fields) -> np.ndarray:
    """Matrices of groups (kinds, fields) of samples at route(fields): one
    coefficients call per group, on its kinds (one name, or one per row) and
    stacked fields, with an EM field (or None) per row; the groups' rows in order."""
    return matrices(np.concatenate([coefficients(kinds, **route(fields))
                                    for kinds, fields in groups]))


def _substitution(groups: list[tuple]) -> np.ndarray:
    """The substitution chain over groups as in _stack: the rows at p -> -p,
    then i -> -i, H -> -H and C H C^-1 = -C H C as one stacked product."""
    h = _stack(groups, lambda fields: {**fields, "p": -np.asarray(fields["p"])})
    return _C8 @ -np.conj(h) @ -_C8


def substitution_conjugate(spec: HamiltonianSpec) -> np.ndarray:
    """Charge conjugation by the substitution chain, the second route.

    p -> -p, complex conjugation i -> -i, H -> -H, then C H C^-1 = -C H C
    with C = build_C("s2").  Every step is a signed rearrangement of the
    same floats, so it equals conjugate_hamiltonian's field flip exactly.
    """
    fields = {name: [getattr(spec, name)] for name in spec.to_dict() if name != "kind"}
    return _substitution([(spec.kind, fields)])[0]


def _library_flip(group: tuple, flip: np.ndarray):
    """conjugate_hamiltonian at the first sample of a group against flip, its
    field flip's matrix.

    Returns the largest difference (1 when the conjugated spec is not the
    flipped spec), the sample's spec and its conjugate.
    """
    kinds, fields = group
    spec = HamiltonianSpec(str(np.ravel(kinds)[0]), **{name: v[0] for name, v in fields.items()})
    matrix, conj = conjugate_hamiltonian(spec)
    worst = _compare(matrix, flip)
    flipped = {"em": None, **{name: v[0] for name, v in _field_flip(fields).items()}}
    if not all(np.array_equal(getattr(conj, name), v) for name, v in flipped.items()):
        worst = _worst(worst, 1.0)
    return worst, spec, conj


def _check_c_matrix():
    c = _C8
    worst = _worst(_compare(c @ c, -_I8), _compare(np.imag(c), 0.0))
    signed_perm = (np.all(np.sum(np.abs(c) > 0, axis=0) == 1)
                   and np.all(np.isin(np.real(c).reshape(-1), [0.0, 1.0, -1.0])))
    if not signed_perm:
        worst = _worst(worst, 1.0)
    return worst, {"square": "-identity", "real_signed_permutation": bool(signed_perm)}


def _check_colored_closed_forms(rng):
    m, p, x, _, _ = _random_inputs(rng, 3)  # sample i for color i
    colors = [(_COLORS, {"m": m, "p": p, "x": x})]
    flip = _stack(colors, _field_flip)
    anti = _stack([(_ANTIS, colors[0][1])])
    worst = _worst(_compare(flip, anti), _compare(flip, _substitution(colors)),
                   _library_flip(colors[0], flip[0])[0])
    return worst, {"colors": ["R", "Y", "B"]}


def _check_conjugation_involution(rng):
    m, p, x, _, _ = _random_inputs(rng, 4)  # ColorR, ColorY, ColorB, then Dirac
    samples = [(_COLORS, {"m": m[:3], "p": p[:3], "x": x[:3]}),
               ("Dirac", {"m": [m[3], 1.0], "p": [p[3], (0.5, -1.0, 2.0)],
                          "em": [None, EMField(e=0.75, A0=-0.25, Avec=(0.5, 1.5, -0.5))]})]
    h, once = _stack(samples), _stack(samples, _field_flip)
    twice = _stack(samples, lambda fields: _field_flip(_field_flip(fields)))
    flip_residual, spec, conj = _library_flip(samples[0], once[0])
    twice_matrix, twice_spec = conjugate_hamiltonian(conj)
    worst = _worst(flip_residual, _compare(twice, h), _compare(twice_matrix, h[0]),
                   _compare(once, _substitution(samples)))
    if twice_spec != spec:
        worst = _worst(worst, 1.0)
    return worst, {"specs": len(h)}


def _check_dirac_em(rng):
    u = rng.random((5, 9))  # columns e, A0, Avec, m, p: -2 + 4u, and 2u for m
    v = -2.0 + 4.0 * u
    # then the free Dirac, whose flip changes nothing: the chain must return it unchanged
    samples = [("Dirac", {"m": [*2.0 * u[:, 5], 1.5], "p": [*v[:, 6:9], (1.0, -2.0, 0.5)],
                          "em": [*(EMField(r[0], r[1], r[2:5]) for r in v), None]})]
    flip = _stack(samples, _field_flip)
    worst = _worst(_compare(flip, _substitution(samples)), _library_flip(samples[0], flip[0])[0])
    return worst, {"random_fields": 5, "free_dirac_self_conjugate": True}


_PI, _PJ = [0, 0, 1], [1, 2, 2]  # the pairs (i, j) of the probe rows (e_i + e_j)/sqrt(2)
_PROBES = np.concatenate([_I3, (_I3[_PI] + _I3[_PJ]) / math.sqrt(2.0)])


def _check_distinctness():
    """The exact minimum of antiparticle_distinctness_check, checked by matrices.

    d^2, the squared distance of Anti(c) in a frame to Color(c), is u^T M u in
    the frame's color-axis row u.  The operator route gives d^2 = |dH|_F^2 / 8
    at frames whose row is the minimizer or one of six probes.  The minimizer
    must attain min_distance, and M by polarization, M_ii = d^2(e_i) and M_ij =
    d^2((e_i + e_j)/sqrt(2)) - (M_ii + M_jj)/2, must have min_distance^2 as
    its lowest eigenvalue; both residuals join the margin gap.
    """
    reports = [antiparticle_distinctness_check(color) for color in "RYB"]
    u = np.array([report.minimizer for report in reports])  # row i for color i
    # minus the Householder reflection along e_axis + r is a rotation whose
    # color-axis row is r, for a unit r with r[axis] >= 0 (d is even in u)
    v = np.concatenate([np.where(np.diagonal(u)[:, None] >= 0.0, u, -u)[:, None],
                        np.broadcast_to(_PROBES, (3, 6, 3))], axis=1) + _I3[:, None]
    frames = 2.0 * v[..., :, None] * v[..., None, :] / (v * v).sum(axis=-1)[..., None, None] - _I3
    fields = {name: np.array([getattr(report, name) for report in reports]) for name in "mpx"}
    anti = _operator_route(_ANTIS[:, None], frames, **{n: f[:, None] for n, f in fields.items()})
    diff = anti - matrices(coefficients(_COLORS, **fields))[:, None]  # (color, frame, 8, 8)
    d2 = (diff.real ** 2 + diff.imag ** 2).sum(axis=(2, 3)) / 8.0
    axes = d2[:, 1:4]
    form = axes[:, :, None] * _I3  # M_ii; the entries off the diagonal are set next
    form[:, _PI, _PJ] = form[:, _PJ, _PI] = d2[:, 4:] - (axes[:, _PI] + axes[:, _PJ]) / 2.0
    distance = np.array([report.min_distance for report in reports])
    scale = np.maximum(1.0, np.trace(form, axis1=1, axis2=2))
    # a zero margin proves nothing, so it fails at any tolerance below 1
    gaps = [1.0 if r.margin <= 0.0 else _worst(0.0, r.margin - r.min_distance) for r in reports]
    worst = _worst(*gaps, _compare(np.sqrt(d2[:, 0]), distance),
                   _compare(np.linalg.eigvalsh(form)[:, 0], distance ** 2, scale=scale))
    details = {color: {"min_distance": r.min_distance, "margin": r.margin}
               for color, r in zip("RYB", reports)}
    return worst, details


# ---------------------------------------------------------------------------
# composite suite
# ---------------------------------------------------------------------------


def _mass_law(rng, kind: str) -> tuple[float, dict]:
    """Largest |H^2 - lam*1| / max(1, lam) over 200 random specs, with lam =
    p^2 + 4x^2 + 9m^2 for QuarkSum, (p + pbar)^2 + 4(x - xbar)^2 + 36m^2 for QQbar."""
    m, p, x, pbar, xbar = _random_inputs(rng, 200)
    fields = {"m": m, "p": p, "x": x}
    if kind == "QQbar":
        fields.update(pbar=pbar, xbar=xbar)
        p, x = p + pbar, x - xbar
    h = matrices(coefficients(kind, **fields))
    lam = _sq3(p) + 4.0 * _sq3(x) + {"QuarkSum": 9.0, "QQbar": 36.0}[kind] * m * m
    worst = _compare(h @ h, lam[:, None, None] * _I8, scale=np.maximum(1.0, lam))
    return worst, {"samples": 200}


def _check_spectrum_symmetry(rng):
    m, p, x, pbar, xbar = _random_inputs(rng, 25)
    stack = matrices(coefficients("QQbar", m=m, p=p, x=x, pbar=pbar, xbar=xbar))
    reports = _spectra(stack)
    kept = [i for i, report in enumerate(reports) if report.scalar_square is not None]
    roots = np.sqrt([max(reports[i].scalar_square, 0.0) for i in kept])
    # eigvalsh is the second route: it checks the closed form and the +-sqrt(lambda) law
    eig = np.linalg.eigvalsh(stack[kept])
    scale = np.maximum(1.0, roots)
    worst = _worst(_compare(eig, roots[:, None] * np.repeat([-1.0, 1.0], 4), scale=scale),
                   _compare([reports[i].eigenvalues for i in kept], eig, scale=scale))
    # a square that is not scalar, or a spectrum away from 0 not split 4 + 4, fails
    split = all([n for _, n in reports[i].degeneracies] == [4, 4] or root <= 1e-6
                for i, root in zip(kept, roots))
    if len(kept) < len(reports) or not split:
        worst = _worst(worst, 1.0)
    return worst, {"samples": 25, "pattern": "+-sqrt(lambda) with multiplicity 4"}


def _check_sum_route_equality(rng):
    m, p, x, pbar, xbar = _random_inputs(rng, 100)
    # the samples alternate QuarkSum, QQbar
    quark = {"m": m[0::2], "p": p[0::2], "x": x[0::2]}
    qqbar = {"m": m[1::2], "p": p[1::2], "x": x[1::2], "pbar": pbar[1::2], "xbar": xbar[1::2]}
    kinds = (("QuarkSum", quark), ("QQbar", qqbar))
    table = np.concatenate([matrices(coefficients(kind, **fields)) for kind, fields in kinds])
    summed = np.concatenate([colored_sum(kind, **fields) for kind, fields in kinds])
    return _compare(table, summed), {"samples": 50, "kinds": ["QuarkSum", "QQbar"]}


def _check_translation_invariance(rng):
    grid = rng.integers(-32, 33, size=(30, 15)) / 8.0  # dyadic grid keeps sums exact
    m = rng.integers(0, 9, size=30) / 4.0
    p, x, pbar, xbar, shift = np.split(grid, 5, axis=1)
    base = coefficients("QQbar", m=m, p=p, x=x, pbar=pbar, xbar=xbar)
    shifted = coefficients("QQbar", m=m, p=p, x=x + shift, pbar=pbar, xbar=xbar + shift)
    worst = _compare(matrices(base), matrices(shifted))
    # witness of single-quark NON-invariance: the shift must move H_q
    q = HamiltonianSpec(kind="QuarkSum", m=1.0, p=(1.0, 2.0, 3.0), x=(0.5, -1.0, 2.0))
    witness = _compare(build_hamiltonian(q), build_hamiltonian(replace(q, x=(1.5, -1.0, 2.0))))
    if witness < 0.5:
        worst = _worst(worst, 1.0)
    return worst, {"samples": 30, "witness_shift": [1.0, 0.0, 0.0],
                   "witness_change": witness}


def _check_rest_frame():
    spec = HamiltonianSpec.from_dict({"kind": "QQbar", "P": [0, 0, 0], "dx": [0, 0, 0], "m": 1})
    report = square_and_spectrum(build_hamiltonian(spec))
    worst = _worst(_compare(report.scalar_square or 0.0, 36.0),
                   _compare(report.eigenvalues, np.repeat([-6.0, 6.0], 4)))
    return worst, {"scalar_square": report.scalar_square,
                   "degeneracies": [[v, n] for v, n in report.degeneracies]}


def _check_chirality_breaking(rng):
    g5 = clifford.named_operator("gamma5")
    x = rng.uniform(-2.0, 2.0, size=3)
    m = float(rng.uniform(0.5, 2.0))
    # the mass term m B, the position term x.B_k and the kinetic term x.A_k
    terms = np.stack([m * _B8, *(sum(ops[k] * x[k] for k in range(3)) for ops in (_BK8, _A8))])
    worst = _compare(g5 @ terms @ g5, np.array([-1.0, -1.0, 1.0])[:, None, None] * terms)
    return worst, {"note": "mass and position terms anticommute with gamma5; kinetic term commutes"}


# ---------------------------------------------------------------------------
# registry and runner
# ---------------------------------------------------------------------------

# (name, stable SplitMix64 stream id, default tolerance, function); a check that
# draws nothing has stream None and is called with no stream
_REGISTRY: dict[str, list[tuple[str, int | None, float, Callable]]] = {
    "su3": [
        ("su3/commutator-table", None, 1e-12, _check_commutator_table),
        ("su3/jacobi-identity", None, 1e-12, _check_jacobi),
        ("su3/u1-centrality", None, 1e-12, _check_centrality),
        ("su3/group-membership", 13, 1e-12, _check_group_membership),
        ("su3/group-additivity", 14, 1e-11, _check_group_additivity),
        ("su3/quadratic-form-invariance", 15, 1e-12, _check_quadratic_form),
        ("su3/reflection-square", None, 1e-12, _check_reflection_square),
        ("su3/pairing-symplectic", None, 1e-12, _check_pairing_symplectic),
        ("su3/pairing-from-rotation", None, 1e-12, partial(_check_pairing, "rotation", {
            k: k for k in ("quarter_turn", "quarter_turn_angle", "ordinary", "ordinary_angle")})),
        ("su3/pairing-from-diagonal", None, 1e-12, partial(_check_pairing, "diagonal", {
            "generator": "quarter_turn", "angle": "quarter_turn_angle"})),
    ],
    "clifford": [
        ("clifford/anticommutation-table", None, 1e-12, _check_anticommutation),
        ("clifford/hermitian-involution", None, 1e-12, _check_hermitian_involution),
        ("clifford/conjugation-identities", None, 1e-12, _check_conjugation_identities),
        ("clifford/tau-uniqueness", None, 1e-12, _check_tau_uniqueness),
        ("clifford/gamma5-chirality", None, 1e-12, _check_gamma5),
        ("clifford/random-basis-similarity", 25, 1e-12, _check_random_basis_similarity),
    ],
    "rotation": [
        ("rotation/mixing-law-axis3", 30, 1e-12, _check_mixing_law),
        ("rotation/color-axis-invariance", 31, 1e-12, _check_color_axis_invariance),
        ("rotation/full-sum-invariance", 32, 1e-12, partial(_rotation_invariance, kind="QuarkSum")),
        ("rotation/qqbar-invariance", 33, 1e-12, partial(_rotation_invariance, kind="QQbar")),
    ],
    "conjugation": [
        ("conjugation/c-matrix-properties", None, 1e-12, _check_c_matrix),
        ("conjugation/colored-closed-forms", 41, 1e-12, _check_colored_closed_forms),
        ("conjugation/involution", 42, 1e-12, _check_conjugation_involution),
        ("conjugation/dirac-em", 43, 1e-13, _check_dirac_em),
        ("conjugation/antiparticle-distinctness", None, 1e-12, _check_distinctness),
    ],
    "composite": [
        ("composite/quark-sum-square", 50, 1e-11, partial(_mass_law, kind="QuarkSum")),
        ("composite/qqbar-mass-law", 51, 1e-11, partial(_mass_law, kind="QQbar")),
        ("composite/spectrum-symmetry", 52, 1e-10, _check_spectrum_symmetry),
        ("composite/sum-route-equality", 53, 1e-12, _check_sum_route_equality),
        ("composite/translation-invariance", 54, 0.0, _check_translation_invariance),
        ("composite/rest-frame-example", None, 1e-12, _check_rest_frame),
        ("composite/chirality-breaking", 56, 1e-12, _check_chirality_breaking),
    ],
}


def run_suite(
    suite: str,
    tol: float | None = None,
    seed: int = DEFAULT_SEED,
    timings: bool = False,
) -> VerificationReport:
    """Run one named suite (or "all") and collect CheckResults; with timings,
    each carries its wall time in ms (its stream's key derivation included)."""
    if suite == "all":
        names = SUITES
    elif suite in _REGISTRY:
        names = (suite,)
    else:
        raise ValueError(f"unknown suite {suite!r}; expected one of {('all',) + SUITES}")
    if isinstance(seed, bool) or not isinstance(seed, numbers.Integral) or seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got {seed!r}")
    if tol is not None and (isinstance(tol, bool) or not isinstance(tol, numbers.Real)
                            or not (math.isfinite(tol) and tol >= 0.0)):
        raise ValueError(f"tol must be a finite number >= 0, got {tol}")
    checks: list[CheckResult] = []
    for name in names:
        for check_name, stream, default_tol, fn in _REGISTRY[name]:
            start = time.perf_counter()
            residual, details = fn() if stream is None else fn(SplitMix64(seed, stream))
            elapsed_ms = 1e3 * (time.perf_counter() - start) if timings else None
            tolerance = default_tol if tol is None else float(tol)
            checks.append(CheckResult(check_name, float(residual), tolerance, details, elapsed_ms))
    return VerificationReport(suite=suite, seed=seed, checks=tuple(checks))
