"""Named verification suites over the whole library.

Five suites (su3, clifford, rotation, conjugation, composite) each run a
fixed list of checks.  A check reports its maximum residual and passes
iff that residual is at or below its tolerance; a --tol override replaces
every default tolerance, which is also how tolerance plumbing is tested
(an unreachable tolerance such as 1e-30 must turn honest floating-point
checks into failures).  All randomness is drawn from numpy Generators
seeded with (seed, stable-check-id), so reports are byte-identical for a
fixed seed.

Checks work on stacks, not one matrix at a time.  The composite and
rotation checks, the mixing law over its rotations included, build each
sample stack with one hamiltonian.coefficients call; the su3 checks take
one exp_generator stack over an angle axis per generator.  Each stack is
compared in one batched product, which rounds as the per-matrix product
does.  A check that draws only uniforms takes them as one (N, 13) block,
which a Generator fills with the same floats as N per-sample draws; where
normal or integer draws interleave, the draws stay one sample at a time.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import __version__, clifford, phase_space
from .hamiltonian import (
    BASIS,
    EMField,
    HamiltonianSpec,
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

__all__ = ["CheckResult", "VerificationReport", "run_suite", "SUITES", "DEFAULT_SEED"]

SUITES = ("su3", "clifford", "rotation", "conjugation", "composite")
DEFAULT_SEED = 1729
MAX_SAMPLES = 10**7  # the distinctness search then takes about 4 s on one core


@dataclass(frozen=True)
class CheckResult:
    name: str
    max_residual: float
    tolerance: float
    details: dict

    @property
    def passed(self) -> bool:
        return self.max_residual <= self.tolerance

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "status": "pass" if self.passed else "fail",
            "max_residual": self.max_residual,
            "tolerance": self.tolerance,
            "details": self.details,
        }


@dataclass(frozen=True)
class VerificationReport:
    suite: str
    seed: int
    checks: tuple[CheckResult, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_dict(self) -> dict:
        return {
            "suite": self.suite,
            "seed": self.seed,
            "tool_version": __version__,
            "all_passed": self.passed,
            "checks": [c.to_dict() for c in self.checks],
        }


def _maxabs(m) -> float:
    arr = np.asarray(m)
    return float(np.abs(arr).max()) if arr.size else 0.0


_F = np.stack([phase_space.build_F(i).matrix for i in range(1, 9)])
_R6 = phase_space.build_R().matrix
_F9 = np.concatenate([_F, _R6[None]])  # F1..F8, then R
_J6 = phase_space.symplectic_form()
_I6 = np.eye(6)

_GAMMA = BASIS.reshape(8, 8, 8)[1:]  # the rows of clifford.GENERATOR_NAMES
_A8, _BK8, _B8 = _GAMMA[0:3], _GAMMA[3:6], _GAMMA[6]
_I8 = np.eye(8)


def _random_inputs(rng: np.random.Generator, n: int) -> tuple[np.ndarray, ...]:
    """(m, p, x, pbar, xbar) of n samples, stacked, from one block of uniforms.

    Each sample takes 13 uniforms: -2 + 4u are the floats rng.uniform(-2, 2)
    gives for p, x, pbar, xbar and 2u those of rng.uniform(0, 2) for m.  The
    generator fills the block row by row, so one block of n draws the same
    floats as n draws of one sample.
    """
    u = rng.random((n, 13))
    vals = -2.0 + 4.0 * u[:, :12]
    return 2.0 * u[:, 12], vals[:, 0:3], vals[:, 3:6], vals[:, 6:9], vals[:, 9:12]


def _worst_scalar_residual(h: np.ndarray, lam: np.ndarray) -> float:
    """Largest |H^2 - lam 1| / max(1, |lam|) over a stack of matrices."""
    resid = np.abs(h @ h - lam[:, None, None] * _I8).max(axis=(1, 2))
    return float((resid / np.maximum(1.0, np.abs(lam))).max())


def _sq3(v: np.ndarray) -> np.ndarray:
    """|v|^2 of each row, summed in component order."""
    return v[:, 0] * v[:, 0] + v[:, 1] * v[:, 1] + v[:, 2] * v[:, 2]


def _random_spec(rng: np.random.Generator, kind: str) -> HamiltonianSpec:
    """A Dirac or colored spec at one sample of _random_inputs."""
    m, p, x, _, _ = (v[0] for v in _random_inputs(rng, 1))
    fields: dict = {"kind": kind, "m": float(m), "p": p.tolist()}
    if kind != "Dirac":
        fields["x"] = x.tolist()
    return HamiltonianSpec.from_dict(fields)


# ---------------------------------------------------------------------------
# su3 suite
# ---------------------------------------------------------------------------


def _check_commutator_table(rng, samples):
    ok, max_residual, rows = phase_space.verify_su3_table()
    nonzero = sum(
        1 for row in rows if any(abs(c) > 1e-9 for c in row["coefficients"])
    )
    return max_residual, {"pairs": len(rows), "pairs_with_nonzero_bracket": nonzero,
                          "table_consistent": ok}


def _check_jacobi(rng, samples):
    a, b, c = _F[rng.integers(0, 8, size=(50, 3)).T]
    comm = phase_space.commutator6
    acc = comm(comm(a, b), c) + comm(comm(b, c), a) + comm(comm(c, a), b)
    return _maxabs(acc), {"triples": 50}


def _check_centrality(rng, samples):
    return _maxabs(phase_space.commutator6(_R6, _F)), {"generators": 8}


def _by_generator(draws: list[tuple]):
    """Per-sample draws (generator index, value, ...) grouped by generator:
    (generator matrix, stacked values of its samples) per distinct index."""
    index, *values = (np.array(v) for v in zip(*draws))
    for g in np.unique(index):
        yield _F9[g], [v[index == g] for v in values]


def _check_group_membership(rng, samples):
    worst = 0.0
    for g in _F9:
        m = phase_space.exp_generator(g, rng.uniform(-3.1, 3.1, size=10))
        mt = m.swapaxes(1, 2)
        worst = max(worst, _maxabs(mt @ m - _I6), _maxabs(mt @ _J6 @ m - _J6))
    # a matrix off the group by more than 1e-12 fails at any --tol below 1
    return (max(worst, 1.0) if worst > 1e-12 else worst), {"matrices": 10 * len(_F9)}


def _check_group_additivity(rng, samples):
    draws = [(rng.integers(0, 8), *rng.uniform(-2.0, 2.0, size=2)) for _ in range(20)]
    worst = 0.0
    for g, (t1, t2) in _by_generator(draws):
        lhs = phase_space.exp_generator(g, t1) @ phase_space.exp_generator(g, t2)
        worst = max(worst, _maxabs(lhs - phase_space.exp_generator(g, t1 + t2)))
    return worst, {"samples": 20}


def _check_quadratic_form(rng, samples):
    draws = [
        (rng.integers(0, 9), rng.uniform(-3.0, 3.0), rng.uniform(-2.0, 2.0, size=6))
        for _ in range(100)
    ]
    worst = 0.0
    for g, (theta, v) in _by_generator(draws):
        # stacked products keep the rounding of the 1-D dot products
        v = v[:, :, None]
        mv = phase_space.exp_generator(g, theta) @ v
        vv = (v.swapaxes(1, 2) @ v)[:, 0, 0]
        worst = max(worst, _maxabs((vv - (mv.swapaxes(1, 2) @ mv)[:, 0, 0]) / vv))
    return worst, {"vectors": 100}


def _check_reflection_square(rng, samples):
    recip = phase_space.exp_generator(_R6, math.pi / 2.0)
    reflection = phase_space.exp_generator(_R6, math.pi)
    worst = max(_maxabs(recip @ recip - reflection), _maxabs(reflection + _I6))
    return worst, {"convention": "exp((pi/2) R) maps (p, x) to (-x, p)"}


def _check_pairing_symplectic(rng, samples):
    tags = ("Standard", "R", "Y", "B", "Even(R)")
    m = np.stack([phase_space.pairing(tag).matrix() for tag in tags])
    return _maxabs(m.swapaxes(1, 2) @ _J6 @ m - _J6), {"tags": list(tags)}


def _check_pairing_from_rotation(rng, samples):
    worst = 0.0
    found = {}
    for color in "RYB":
        derived = phase_space.derive_pairing_from_rotation(color)
        worst = max(worst, derived.residual)
        found[color] = {
            "quarter_turn": derived.quarter_turn,
            "quarter_turn_angle": derived.quarter_turn_angle,
            "ordinary": derived.ordinary,
            "ordinary_angle": derived.ordinary_angle,
        }
    return worst, found


def _check_pairing_from_diagonal(rng, samples):
    worst = 0.0
    found = {}
    for color in "RYB":
        derived = phase_space.derive_pairing_from_diagonal(color)
        worst = max(worst, derived.residual)
        found[color] = {
            "generator": derived.quarter_turn,
            "angle": derived.quarter_turn_angle,
        }
    return worst, found


# ---------------------------------------------------------------------------
# clifford suite
# ---------------------------------------------------------------------------


def _anticommutation_residual(gammas: np.ndarray) -> float:
    """Largest |{G_a, G_b} - 2 delta_ab 1| over all pairs of a (7, 8, 8) stack."""
    target = 2.0 * np.eye(7)[:, :, None, None] * _I8
    return _maxabs(clifford.anticommutator(gammas[:, None], gammas[None]) - target)


def _check_anticommutation(rng, samples):
    return _anticommutation_residual(_GAMMA), {"generators": list(clifford.GENERATOR_NAMES)}


def _check_hermitian_involution(rng, samples):
    g = _GAMMA
    worst = max(_maxabs(g - g.conj().swapaxes(1, 2)), _maxabs(g @ g - _I8))
    if not np.isin(g, [0, 1, -1, 1j, -1j]).all():
        worst = max(worst, 1.0)
    return worst, {"entry_set": "0, +-1, +-i"}


def _check_conjugation_identities(rng, samples):
    c, ops = clifford.build_C("s2"), _GAMMA[:6]
    worst = max(_maxabs(c @ _B8 @ -c + _B8), _maxabs(c @ np.conj(ops) @ -c - ops))
    return worst, {"tau": "s2"}


def _check_tau_uniqueness(rng, samples):
    expected = {"s0": [1, 3], "s1": [1, 2], "s2": [], "s3": [2, 3]}
    scan = clifford.charge_conjugation_tau_scan()
    failures = {tau: sorted(ks) for tau, ks in scan.items()}
    residual = 0.0 if failures == expected else 1.0
    return residual, {"failing_Bk_indices": failures}


def _check_gamma5(rng, samples):
    """The table's chiralities against -i A1 A2 A3 and -i A_c B_u B_v by matmul."""
    c, u, v = [0, 1, 2], [1, 2, 0], [2, 0, 1]  # R, Y, B
    products = -1j * np.stack([_A8[0] @ _A8[1] @ _A8[2], *(_A8[c] @ _BK8[u] @ _BK8[v])])
    table = np.stack([clifford.named_operator(f"gamma{n}5") for n in ("", "R", "Y", "B")])
    g5 = table[0]
    worst = max(
        _maxabs(products - table), _maxabs(table @ table - _I8),
        _maxabs(clifford.anticommutator(table, _B8)), _maxabs(clifford.anticommutator(g5, _BK8)),
        _maxabs(clifford.commutator8(g5, _A8)),
    )
    return worst, {"colored": ["R", "Y", "B"]}


def _check_random_basis_similarity(rng, samples):
    z = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
    q, r = np.linalg.qr(z)
    u = q * (np.diag(r) / np.abs(np.diag(r)))
    worst = _anticommutation_residual(u @ _GAMMA @ u.conj().T)
    return worst, {"note": "anticommutation table under a random unitary change of basis"}


# ---------------------------------------------------------------------------
# rotation suite
# ---------------------------------------------------------------------------


def _check_mixing_law(rng, samples):
    p = rng.uniform(-2.0, 2.0, size=3)
    x = rng.uniform(-2.0, 2.0, size=3)
    fields = {"m": float(rng.uniform(0.0, 2.0)), "p": p, "x": x}
    phis = rng.uniform(-3.1, 3.1, size=10).tolist()
    c, s = (np.array([f(phi) for phi in phis])[:, None, None] for f in (math.cos, math.sin))
    rots = np.stack([rotation_matrix(3, phi) for phi in phis])
    h_r_p, h_y_p = (matrices(coefficients(k, rot=rots, **fields)) for k in ("ColorR", "ColorY"))
    a_p, b_p = rotated_operators(rots)  # the operator route
    pp, xp = ((rots @ v)[:, :, None, None] for v in (p, x))
    cross = b_p[1] * xp[:, 0] + b_p[0] * xp[:, 1] - a_p[1] * pp[:, 0] - a_p[0] * pp[:, 1]
    h_r = matrices(coefficients("ColorR", **fields))
    worst = _maxabs(h_r - (c * c * h_r_p + s * s * h_y_p + s * c * cross))
    return worst, {"angles": 10}


def _check_color_axis_invariance(rng, samples):
    worst = 0.0
    for color, axis in (("R", 1), ("Y", 2), ("B", 3)):
        m, p, x, _, _ = _random_inputs(rng, 1)
        phis = rng.uniform(-3.1, 3.1, size=5)
        rots = np.stack([rotation_matrix(axis, float(phi)) for phi in phis])
        kind, fields = f"Color{color}", {"m": m, "p": p, "x": x}
        rotated = matrices(coefficients(kind, rot=rots, **fields))
        worst = max(worst, _maxabs(matrices(coefficients(kind, **fields)) - rotated))
    return worst, {"pairs": "ColorR/axis1, ColorY/axis2, ColorB/axis3"}


def _rotation_invariance(rng, kind: str, n: int) -> float:
    """Largest |H - H rotated| over n random specs, each with a random rotation.

    The draws interleave uniforms and normals, so they stay one sample at a
    time; the build and the compare run on the whole stack.
    """
    draws, rots = [], []
    for _ in range(n):
        draws.append(_random_inputs(rng, 1))
        axis = rng.normal(size=3)
        axis /= np.linalg.norm(axis)
        rots.append(rotation_matrix(axis, float(rng.uniform(-math.pi, math.pi))))
    m, p, x, pbar, xbar = (np.concatenate(v) for v in zip(*draws))
    fields = {"m": m, "p": p, "x": x}
    if kind == "QQbar":
        fields.update(pbar=pbar, xbar=xbar)
    h = matrices(coefficients(kind, **fields))
    return _maxabs(h - matrices(coefficients(kind, rot=np.stack(rots), **fields)))


def _check_full_sum_invariance(rng, samples):
    return _rotation_invariance(rng, "QuarkSum", 20), {"samples": 20}


def _check_qqbar_invariance(rng, samples):
    return _rotation_invariance(rng, "QQbar", 20), {"samples": 20}


# ---------------------------------------------------------------------------
# conjugation suite
# ---------------------------------------------------------------------------


def _check_c_matrix(rng, samples):
    c = clifford.build_C("s2")
    worst = max(_maxabs(c @ c + _I8), _maxabs(np.imag(c)))
    signed_perm = np.all(np.sum(np.abs(c) > 0, axis=0) == 1) and np.all(
        np.isin(np.real(c).reshape(-1), [0.0, 1.0, -1.0])
    )
    if not signed_perm:
        worst = max(worst, 1.0)
    return worst, {"square": "-identity", "real_signed_permutation": bool(signed_perm)}


def _check_colored_closed_forms(rng, samples):
    worst = 0.0
    for color in "RYB":
        spec = _random_spec(rng, f"Color{color}")
        matrix, conj_spec = conjugate_hamiltonian(spec)
        anti = HamiltonianSpec(kind=f"Anti{color}", m=spec.m, p=spec.p, x=spec.x)
        worst = max(worst, _maxabs(matrix - build_hamiltonian(anti)))
        worst = max(worst, _maxabs(matrix - build_hamiltonian(conj_spec)))
    return worst, {"colors": ["R", "Y", "B"]}


def _check_conjugation_involution(rng, samples):
    worst = 0.0
    specs = [_random_spec(rng, k) for k in ("ColorR", "ColorY", "ColorB", "Dirac")]
    specs.append(
        HamiltonianSpec(
            kind="Dirac", m=1.0, p=(0.5, -1.0, 2.0),
            em=EMField(e=0.75, A0=-0.25, Avec=(0.5, 1.5, -0.5)),
        )
    )
    for spec in specs:
        once_matrix, once_spec = conjugate_hamiltonian(spec)
        twice_matrix, twice_spec = conjugate_hamiltonian(once_spec)
        worst = max(worst, _maxabs(twice_matrix - build_hamiltonian(spec)))
        if twice_spec != spec:
            worst = max(worst, 1.0)
    return worst, {"specs": len(specs)}


def _check_dirac_em(rng, samples):
    worst = 0.0
    for _ in range(5):
        em = EMField(
            e=float(rng.uniform(-2.0, 2.0)),
            A0=float(rng.uniform(-2.0, 2.0)),
            Avec=tuple(rng.uniform(-2.0, 2.0, size=3)),
        )
        spec = HamiltonianSpec(
            kind="Dirac", m=float(rng.uniform(0.0, 2.0)),
            p=tuple(rng.uniform(-2.0, 2.0, size=3)), em=em,
        )
        matrix, conj_spec = conjugate_hamiltonian(spec)
        flipped = HamiltonianSpec.from_dict(
            {**spec.to_dict(), "em": {**em.to_dict(), "e": -em.e}}
        )
        worst = max(worst, _maxabs(matrix - build_hamiltonian(flipped)))
        if conj_spec != flipped:
            worst = max(worst, 1.0)
    free = HamiltonianSpec(kind="Dirac", m=1.5, p=(1.0, -2.0, 0.5))
    matrix, _ = conjugate_hamiltonian(free)
    worst = max(worst, _maxabs(matrix - build_hamiltonian(free)))
    return worst, {"random_fields": 5, "free_dirac_self_conjugate": True}


def _check_distinctness(rng, samples):
    n = 10000 if samples is None else int(samples)
    worst = 0.0
    details = {}
    for index, color in enumerate("RYB"):
        report = antiparticle_distinctness_check(
            color=color, n_samples=n, seed=DEFAULT_SEED + index
        )
        gap = max(0.0, report.margin - report.min_distance)
        if report.margin <= 0.0:
            gap = max(gap, 1.0)
        worst = max(worst, gap)
        details[color] = {
            "min_distance": report.min_distance,
            "margin": report.margin,
            "samples": report.n_samples,
        }
    return worst, details


# ---------------------------------------------------------------------------
# composite suite
# ---------------------------------------------------------------------------


def _check_quark_sum_square(rng, samples):
    m, p, x, _, _ = _random_inputs(rng, 200)
    h = matrices(coefficients("QuarkSum", m=m, p=p, x=x))
    lam = _sq3(p) + 4.0 * _sq3(x) + 9.0 * m * m
    return _worst_scalar_residual(h, lam), {"samples": 200}


def _check_qqbar_mass_law(rng, samples):
    m, p, x, pbar, xbar = _random_inputs(rng, 200)
    h = matrices(coefficients("QQbar", m=m, p=p, x=x, pbar=pbar, xbar=xbar))
    lam = _sq3(p + pbar) + 4.0 * _sq3(x - xbar) + 36.0 * m * m
    return _worst_scalar_residual(h, lam), {"samples": 200}


def _check_spectrum_symmetry(rng, samples):
    worst = 0.0
    m, p, x, pbar, xbar = _random_inputs(rng, 25)
    for h in matrices(coefficients("QQbar", m=m, p=p, x=x, pbar=pbar, xbar=xbar)):
        report = square_and_spectrum(h)
        if report.scalar_square is None:
            worst = max(worst, 1.0)
            continue
        root = math.sqrt(max(report.scalar_square, 0.0))
        target = np.array([-root] * 4 + [root] * 4)
        worst = max(
            worst,
            float(np.abs(np.array(report.eigenvalues) - target).max()) / max(1.0, root),
        )
        if [n for _, n in report.degeneracies] != [4, 4] and root > 1e-6:
            worst = max(worst, 1.0)
    return worst, {"samples": 25, "pattern": "+-sqrt(lambda) with multiplicity 4"}


def _check_sum_route_equality(rng, samples):
    m, p, x, pbar, xbar = _random_inputs(rng, 100)
    # the samples alternate QuarkSum, QQbar
    quark = {"m": m[0::2], "p": p[0::2], "x": x[0::2]}
    qqbar = {"m": m[1::2], "p": p[1::2], "x": x[1::2], "pbar": pbar[1::2], "xbar": xbar[1::2]}
    worst = max(
        _maxabs(matrices(coefficients(kind, **fields)) - colored_sum(kind, **fields))
        for kind, fields in (("QuarkSum", quark), ("QQbar", qqbar))
    )
    return worst, {"samples": 50, "kinds": ["QuarkSum", "QQbar"]}


def _check_translation_invariance(rng, samples):
    grids, masses = [], []
    for _ in range(30):
        grids.append(rng.integers(-32, 33, size=15) / 8.0)  # dyadic grid keeps sums exact
        masses.append(float(rng.integers(0, 9)) / 4.0)
    p, x, pbar, xbar, shift = np.split(np.stack(grids), 5, axis=1)
    m = np.array(masses)
    base = coefficients("QQbar", m=m, p=p, x=x, pbar=pbar, xbar=xbar)
    shifted = coefficients("QQbar", m=m, p=p, x=x + shift, pbar=pbar, xbar=xbar + shift)
    worst = _maxabs(matrices(base) - matrices(shifted))
    # witness of single-quark NON-invariance: the shift must move H_q
    q = HamiltonianSpec(kind="QuarkSum", m=1.0, p=(1.0, 2.0, 3.0), x=(0.5, -1.0, 2.0))
    q_shift = HamiltonianSpec(kind="QuarkSum", m=1.0, p=(1.0, 2.0, 3.0),
                              x=(1.5, -1.0, 2.0))
    witness = _maxabs(build_hamiltonian(q) - build_hamiltonian(q_shift))
    if witness < 0.5:
        worst = max(worst, 1.0)
    return worst, {"samples": 30, "witness_shift": [1.0, 0.0, 0.0],
                   "witness_change": witness}


def _check_rest_frame(rng, samples):
    spec = HamiltonianSpec.from_dict({"kind": "QQbar", "P": [0, 0, 0], "dx": [0, 0, 0], "m": 1})
    report = square_and_spectrum(build_hamiltonian(spec))
    worst = abs((report.scalar_square or 0.0) - 36.0)
    target = np.array([-6.0] * 4 + [6.0] * 4)
    worst = max(worst, float(np.abs(np.array(report.eigenvalues) - target).max()))
    return worst, {"scalar_square": report.scalar_square,
                   "degeneracies": [[v, n] for v, n in report.degeneracies]}


def _check_chirality_breaking(rng, samples):
    g5 = clifford.build_gamma5()
    x = rng.uniform(-2.0, 2.0, size=3)
    m = float(rng.uniform(0.5, 2.0))
    mass_term = m * clifford.build_B()
    position_term = sum(clifford.build_Bk(k + 1) * x[k] for k in range(3))
    kinetic = sum(clifford.build_A(k + 1) * x[k] for k in range(3))
    worst = max(
        _maxabs(g5 @ mass_term @ g5 + mass_term),
        _maxabs(g5 @ position_term @ g5 + position_term),
        _maxabs(g5 @ kinetic @ g5 - kinetic),
    )
    return worst, {"note": "mass and position terms anticommute with gamma5; kinetic term commutes"}


# ---------------------------------------------------------------------------
# registry and runner
# ---------------------------------------------------------------------------

_CheckFn = Callable[[np.random.Generator, int | None], tuple[float, dict]]

# (name, stable rng stream id, default tolerance, function)
_REGISTRY: dict[str, list[tuple[str, int, float, _CheckFn]]] = {
    "su3": [
        ("su3/commutator-table", 10, 1e-12, _check_commutator_table),
        ("su3/jacobi-identity", 11, 1e-12, _check_jacobi),
        ("su3/u1-centrality", 12, 1e-12, _check_centrality),
        ("su3/group-membership", 13, 1e-12, _check_group_membership),
        ("su3/group-additivity", 14, 1e-11, _check_group_additivity),
        ("su3/quadratic-form-invariance", 15, 1e-12, _check_quadratic_form),
        ("su3/reflection-square", 16, 1e-12, _check_reflection_square),
        ("su3/pairing-symplectic", 17, 1e-12, _check_pairing_symplectic),
        ("su3/pairing-from-rotation", 18, 1e-12, _check_pairing_from_rotation),
        ("su3/pairing-from-diagonal", 19, 1e-12, _check_pairing_from_diagonal),
    ],
    "clifford": [
        ("clifford/anticommutation-table", 20, 1e-12, _check_anticommutation),
        ("clifford/hermitian-involution", 21, 1e-12, _check_hermitian_involution),
        ("clifford/conjugation-identities", 22, 1e-12, _check_conjugation_identities),
        ("clifford/tau-uniqueness", 23, 1e-12, _check_tau_uniqueness),
        ("clifford/gamma5-chirality", 24, 1e-12, _check_gamma5),
        ("clifford/random-basis-similarity", 25, 1e-12, _check_random_basis_similarity),
    ],
    "rotation": [
        ("rotation/mixing-law-axis3", 30, 1e-12, _check_mixing_law),
        ("rotation/color-axis-invariance", 31, 1e-12, _check_color_axis_invariance),
        ("rotation/full-sum-invariance", 32, 1e-12, _check_full_sum_invariance),
        ("rotation/qqbar-invariance", 33, 1e-12, _check_qqbar_invariance),
    ],
    "conjugation": [
        ("conjugation/c-matrix-properties", 40, 1e-12, _check_c_matrix),
        ("conjugation/colored-closed-forms", 41, 1e-12, _check_colored_closed_forms),
        ("conjugation/involution", 42, 1e-12, _check_conjugation_involution),
        ("conjugation/dirac-em", 43, 1e-13, _check_dirac_em),
        ("conjugation/antiparticle-distinctness", 44, 1e-12, _check_distinctness),
    ],
    "composite": [
        ("composite/quark-sum-square", 50, 1e-11, _check_quark_sum_square),
        ("composite/qqbar-mass-law", 51, 1e-11, _check_qqbar_mass_law),
        ("composite/spectrum-symmetry", 52, 1e-10, _check_spectrum_symmetry),
        ("composite/sum-route-equality", 53, 1e-12, _check_sum_route_equality),
        ("composite/translation-invariance", 54, 0.0, _check_translation_invariance),
        ("composite/rest-frame-example", 55, 1e-12, _check_rest_frame),
        ("composite/chirality-breaking", 56, 1e-12, _check_chirality_breaking),
    ],
}


def run_suite(
    suite: str,
    tol: float | None = None,
    seed: int = DEFAULT_SEED,
    samples: int | None = None,
) -> VerificationReport:
    """Run one named suite (or "all") and collect CheckResults."""
    if suite == "all":
        names = SUITES
    elif suite in _REGISTRY:
        names = (suite,)
    else:
        raise ValueError(f"unknown suite {suite!r}; expected one of {('all',) + SUITES}")
    if samples is not None:
        if isinstance(samples, bool) or not isinstance(samples, numbers.Integral):
            raise ValueError(f"samples must be an integer, got {samples!r}")
        if samples < 1:
            raise ValueError(f"samples must be >= 1, got {samples}")
        if samples > MAX_SAMPLES:
            raise ValueError(f"samples must be <= {MAX_SAMPLES}, got {samples}")
    if isinstance(seed, bool) or not isinstance(seed, numbers.Integral) or seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got {seed!r}")
    if tol is not None and not (math.isfinite(tol) and tol >= 0.0):
        raise ValueError(f"tol must be a finite number >= 0, got {tol}")
    checks: list[CheckResult] = []
    for name in names:
        for check_name, stream, default_tol, fn in _REGISTRY[name]:
            rng = np.random.default_rng([seed, stream])
            residual, details = fn(rng, samples)
            tolerance = default_tol if tol is None else float(tol)
            checks.append(
                CheckResult(
                    name=check_name,
                    max_residual=float(residual),
                    tolerance=tolerance,
                    details=details,
                )
            )
    return VerificationReport(suite=suite, seed=seed, checks=tuple(checks))
