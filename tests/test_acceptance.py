"""Acceptance criteria, one test per criterion.

Each test prints exactly one `[PRIMARY nn] name: PASS|FAIL` line (emitted
with capture disabled so it is visible in the pytest output) and uses the
tolerances stated in the criteria, not looser ones.
"""

import json
import math
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import numpy as np

from phasequark import clifford as cf
from phasequark import phase_space as ps
from phasequark.hamiltonian import (
    HamiltonianSpec,
    build_hamiltonian,
    conjugate_hamiltonian,
    rotate_hamiltonian,
    rotated_operators,
    rotation_matrix,
    square_and_spectrum,
)
from phasequark.pauli_expr import PauliExpr, parse

DATA = Path(__file__).parent / "data"
GOLDEN = Path(__file__).parent / "golden"
SQRT3 = math.sqrt(3.0)


def _report(number: int, name: str, run, capfd):
    def emit(status: str):
        with capfd.disabled():
            sys.stdout.write(f"[PRIMARY {number:02d}] {name}: {status}\n")
            sys.stdout.flush()

    try:
        run()
    except BaseException:
        emit("FAIL")
        raise
    emit("PASS")


def test_primary_01_su3_closure(capfd):
    def run():
        start = time.perf_counter()
        ok, worst, rows = ps.verify_su3_table(tol=1e-12)
        assert ok and worst <= 1e-12 and len(rows) == 28
        expected = {
            (1, 2, 3): 1.0,
            (1, 4, 7): 0.5, (1, 6, 5): 0.5, (2, 4, 6): 0.5,
            (2, 5, 7): 0.5, (3, 4, 5): 0.5, (3, 7, 6): 0.5,
            (4, 5, 8): SQRT3 / 2.0, (6, 7, 8): SQRT3 / 2.0,
        }
        table = ps.structure_constants()
        assert np.count_nonzero(table) == 6 * len(expected)  # each triple's six orders
        assert all(abs(table[k] - expected[k]) <= 1e-15 for k in expected)
        assert time.perf_counter() - start < 1.0

    _report(1, "su3-closure-28-commutators", run, capfd)


def test_primary_02_group_membership(capfd):
    def run():
        rng = np.random.default_rng(2026)
        generators = [ps.resolve_generator6(f"F{i}") for i in range(1, 9)] + [ps.resolve_generator6("R")]
        for g in generators:
            for theta in rng.uniform(-3.1, 3.1, size=10):
                m = ps.exp_generator(g, float(theta))
                assert ps.is_orthogonal(m, tol=1e-12)
                assert ps.is_symplectic(m, tol=1e-12)
        recip = ps.exp_generator(ps.resolve_generator6("R"), math.pi / 2.0)
        assert np.abs(recip @ recip + np.eye(6)).max() <= 1e-12

    _report(2, "u1su3-group-membership-and-reflection", run, capfd)


def test_primary_03_pairing_generation(capfd):
    def run():
        for color in "RYB":
            derived = ps.derive_pairing_from_rotation(color)
            printed = ps.pairing(color).matrix()
            assert np.array_equal(derived.matrix, printed), color
            entries = set(np.unique(derived.matrix))
            assert entries <= {0.0, 1.0, -1.0}
        for tag in ("Standard", "R", "Y", "B", "Even(R)"):
            assert ps.is_symplectic(ps.pairing(tag).matrix(), tol=1e-12)

    _report(3, "colored-pairings-from-quarter-turns", run, capfd)


def test_primary_04_clifford_table(capfd):
    def run():
        gammas = [cf.named_operator(f"A{k}") for k in (1, 2, 3)] + [
            cf.named_operator(f"B{k}") for k in (1, 2, 3)
        ] + [cf.named_operator("B")]
        for a in range(7):
            for b in range(7):
                anti = cf.anticommutator(gammas[a], gammas[b])
                target = 2.0 * np.eye(8) if a == b else np.zeros((8, 8))
                assert np.array_equal(anti, target), (a, b)

    _report(4, "seven-generator-anticommutation-table", run, capfd)


def test_primary_05_rotation_mixing(capfd):
    def run():
        rng = np.random.default_rng(5)
        p, x, m = rng.uniform(-2, 2, 3), rng.uniform(-2, 2, 3), 1.25
        spec_r = HamiltonianSpec(kind="ColorR", p=tuple(p), x=tuple(x), m=m)
        spec_y = HamiltonianSpec(kind="ColorY", p=tuple(p), x=tuple(x), m=m)
        h_r = build_hamiltonian(spec_r)
        for phi in rng.uniform(-3.1, 3.1, size=10):
            phi = float(phi)
            c, s = math.cos(phi), math.sin(phi)
            rot = rotation_matrix(3, phi)
            a_p, b_p = rotated_operators(rot)
            pp, xp = rot @ p, rot @ x
            cross = b_p[1] * xp[0] + b_p[0] * xp[1] - a_p[1] * pp[0] - a_p[0] * pp[1]
            mixed = (
                c * c * rotate_hamiltonian(spec_r, 3, phi)
                + s * s * rotate_hamiltonian(spec_y, 3, phi)
                + s * c * cross
            )
            assert np.abs(h_r - mixed).max() <= 1e-12
        for _ in range(20):
            spec = HamiltonianSpec(
                kind="QuarkSum",
                p=tuple(rng.uniform(-2, 2, 3)),
                x=tuple(rng.uniform(-2, 2, 3)),
                m=float(rng.uniform(0, 2)),
            )
            axis = rng.normal(size=3)
            axis /= np.linalg.norm(axis)
            phi = float(rng.uniform(-math.pi, math.pi))
            delta = build_hamiltonian(spec) - rotate_hamiltonian(spec, tuple(axis), phi)
            assert np.abs(delta).max() <= 1e-12

    _report(5, "rotation-mixing-law-and-full-invariance", run, capfd)


def test_primary_06_charge_conjugation(capfd):
    def run():
        c = cf.build_C("s2")
        c_inv = -c
        b = cf.named_operator("B")
        assert np.array_equal(c @ b @ c_inv, -b)
        for k in (1, 2, 3):
            ak, bk = cf.named_operator(f"A{k}"), cf.named_operator(f"B{k}")
            assert np.array_equal(c @ np.conj(ak) @ c_inv, ak)
            assert np.array_equal(c @ np.conj(bk) @ c_inv, bk)
        for color in "RYB":
            spec = HamiltonianSpec(
                kind=f"Color{color}", p=(1.0, -0.5, 2.0), x=(0.25, 1.5, -1.0), m=0.75
            )
            matrix, _ = conjugate_hamiltonian(spec)
            anti = build_hamiltonian(
                HamiltonianSpec(kind=f"Anti{color}", p=spec.p, x=spec.x, m=spec.m)
            )
            assert np.array_equal(matrix, anti), color
        scan = cf.charge_conjugation_tau_scan()
        for tau in ("s0", "s1", "s3"):
            assert len(scan[tau]) >= 1, tau
        assert scan["s2"] == []
        em_spec = HamiltonianSpec.from_dict(json.loads((DATA / "dirac_em.json").read_text()))
        matrix, conj_spec = conjugate_hamiltonian(em_spec)
        flipped = HamiltonianSpec.from_dict(
            {**em_spec.to_dict(), "em": {**em_spec.em.to_dict(), "e": -em_spec.em.e}}
        )
        assert np.abs(matrix - build_hamiltonian(flipped)).max() <= 1e-13
        assert conj_spec == flipped

    _report(6, "charge-conjugation-identities-and-antiparticles", run, capfd)


def test_primary_07_mass_squared_law(capfd):
    def run():
        start = time.perf_counter()
        rng = np.random.default_rng(7)
        eye = np.eye(8)
        for _ in range(200):
            spec = HamiltonianSpec(
                kind="QQbar",
                p=tuple(rng.uniform(-3, 3, 3)),
                x=tuple(rng.uniform(-3, 3, 3)),
                pbar=tuple(rng.uniform(-3, 3, 3)),
                xbar=tuple(rng.uniform(-3, 3, 3)),
                m=float(rng.uniform(0, 3)),
            )
            h = build_hamiltonian(spec)
            big_p = np.array(spec.p) + np.array(spec.pbar)
            dx = np.array(spec.x) - np.array(spec.xbar)
            lam = float(big_p @ big_p + 4 * dx @ dx + 36 * spec.m**2)
            assert np.abs(h @ h - lam * eye).max() <= 1e-11 * max(1.0, lam)
            report = square_and_spectrum(h)
            root = math.sqrt(lam)
            target = np.array([-root] * 4 + [root] * 4)
            assert np.abs(np.array(report.eigenvalues) - target).max() <= 1e-10 * max(1.0, root)
            assert [n for _, n in report.degeneracies] == [4, 4]
        assert time.perf_counter() - start < 2.0

    _report(7, "quark-antiquark-mass-squared-law", run, capfd)


def test_primary_08_chirality(capfd):
    def run():
        g5 = cf.named_operator("gamma5")
        zero = np.zeros((8, 8))
        assert np.array_equal(cf.anticommutator(g5, cf.named_operator("B")), zero)
        for k in (1, 2, 3):
            assert np.array_equal(cf.anticommutator(g5, cf.named_operator(f"B{k}")), zero)
        for color in "RYB":
            gc5 = cf.named_operator(f"gamma{color}5")
            assert np.array_equal(cf.anticommutator(gc5, cf.named_operator("B")), zero)
        s = cf.PAULI
        assert np.array_equal(cf.named_operator("gammaR5"), cf.kron3(s[1], s[1], s[1]))

    _report(8, "gamma5-chirality-relations", run, capfd)


def test_primary_09_translational_invariance(capfd):
    def run():
        rng = np.random.default_rng(9)
        for _ in range(25):
            grid = rng.integers(-32, 33, size=15) / 8.0
            p, x, pbar, xbar, shift = (grid[i : i + 3] for i in range(0, 15, 3))
            m = float(rng.integers(0, 8)) / 4.0
            h0 = build_hamiltonian(HamiltonianSpec(
                kind="QQbar", m=m, p=tuple(p), x=tuple(x),
                pbar=tuple(pbar), xbar=tuple(xbar)))
            h1 = build_hamiltonian(HamiltonianSpec(
                kind="QQbar", m=m, p=tuple(p), x=tuple(x + shift),
                pbar=tuple(pbar), xbar=tuple(xbar + shift)))
            assert np.array_equal(h0, h1)
        quark = HamiltonianSpec(kind="QuarkSum", p=(1, 2, 3), x=(0.5, -1.0, 2.0), m=1.0)
        shifted = HamiltonianSpec(kind="QuarkSum", p=(1, 2, 3), x=(1.5, -1.0, 2.0), m=1.0)
        witness = build_hamiltonian(shifted) - build_hamiltonian(quark)
        assert np.abs(witness).max() == 2.0

    _report(9, "qqbar-translation-invariance-with-witness", run, capfd)


def _random_expr(rng: np.random.Generator) -> PauliExpr:
    symbols = ("p1", "p2", "p3", "x1", "x2", "x3", "m", "e")
    total = PauliExpr.zero()
    for _ in range(int(rng.integers(1, 4))):
        re, im = Fraction(int(rng.integers(-3, 4))), Fraction(int(rng.integers(-2, 3)))
        term = PauliExpr.from_scalar(re) + PauliExpr.from_scalar(im) * parse("i")
        term = term * PauliExpr.from_basis(*(int(v) for v in rng.integers(0, 4, 3)))
        if rng.integers(0, 2):
            term = term * PauliExpr.from_symbol(symbols[int(rng.integers(0, 8))])
        total = total + term
    return total


def test_primary_10_symbolic_numeric_equivalence(capfd):
    def run():
        rng = np.random.default_rng(1729)
        symbols = ("p1", "p2", "p3", "x1", "x2", "x3", "m", "e")
        for _ in range(100):
            a, b = _random_expr(rng), _random_expr(rng)
            bindings = {s: float(v) for s, v in zip(symbols, rng.uniform(-2, 2, 8))}
            lhs = (a * b).to_matrix(bindings)
            rhs = a.to_matrix(bindings) @ b.to_matrix(bindings)
            assert np.abs(lhs - rhs).max() <= 1e-12
        corpus = [
            line
            for line in (DATA / "expr_corpus.txt").read_text().splitlines()
            if line.strip()
        ]
        assert len(corpus) == 55
        for text in corpus:
            expr = parse(text)
            printed = str(expr)
            assert parse(printed) == expr
            assert str(parse(printed)) == printed

    _report(10, "symbolic-numeric-product-equivalence", run, capfd)


def test_primary_11_cli_contract(capfd):
    def run():
        def cli(*args):
            return subprocess.run(
                [sys.executable, "-m", "phasequark", *args],
                capture_output=True, text=True,
            )

        first = cli("verify", "--suite", "conjugation", "--seed", "42")
        second = cli("verify", "--suite", "conjugation", "--seed", "42")
        assert first.returncode == 0 and first.stdout == second.stdout

        su3 = cli("verify", "--suite", "su3")
        assert su3.returncode == 0
        assert su3.stdout == (GOLDEN / "verify_su3_default.json").read_text()

        spectrum = cli("spectrum", str(DATA / "qqbar_rest.json"))
        assert spectrum.returncode == 0
        assert spectrum.stdout == (GOLDEN / "spectrum_qqbar_rest.json").read_text()

        conjugate = cli("conjugate", str(DATA / "color_r.json"))
        assert conjugate.returncode == 0
        assert conjugate.stdout == (GOLDEN / "conjugate_color_r.json").read_text()

        assert cli("verify", "--suite", "clifford", "--tol", "1e-30").returncode == 1
        assert cli("verify", "--suite", "imaginary").returncode == 2
        assert cli("spectrum", "no_such_file.json").returncode == 2

    _report(11, "cli-determinism-goldens-exit-codes", run, capfd)
