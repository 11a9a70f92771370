import ast
import dataclasses
import itertools
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from phasequark import verify
from phasequark.cli import main
from phasequark.hamiltonian import EMField, HamiltonianSpec, build_hamiltonian
from phasequark.verify import run_suite


# -- the per-spec conjugation checks, kept as the reference for the stacked ones --


def _maxabs(x):
    """The reference routes' own residual, apart from verify._compare."""
    return float(np.abs(x).max())


def _reference_random_spec(rng, kind):
    m, p, x, _, _ = (v[0] for v in verify._random_inputs(rng, 1))
    fields = {"m": float(m), "p": p.tolist()}
    if kind != "Dirac":
        fields["x"] = x.tolist()
    return HamiltonianSpec(kind, **fields)


def _reference_substitution(spec):
    flipped_p = build_hamiltonian(dataclasses.replace(spec, p=tuple(-v for v in spec.p)))
    return verify._C8 @ -np.conj(flipped_p) @ -verify._C8


def _reference_colored_closed_forms(rng):
    worst = 0.0
    for color in "RYB":
        spec = _reference_random_spec(rng, f"Color{color}")
        matrix, _ = verify.conjugate_hamiltonian(spec)
        anti = HamiltonianSpec(kind=f"Anti{color}", m=spec.m, p=spec.p, x=spec.x)
        worst = max(worst, _maxabs(matrix - build_hamiltonian(anti)),
                    _maxabs(matrix - _reference_substitution(spec)))
    return worst, {"colors": ["R", "Y", "B"]}


def _reference_involution(rng):
    worst = 0.0
    specs = [_reference_random_spec(rng, k) for k in ("ColorR", "ColorY", "ColorB", "Dirac")]
    specs.append(HamiltonianSpec(kind="Dirac", m=1.0, p=(0.5, -1.0, 2.0),
                                 em=EMField(e=0.75, A0=-0.25, Avec=(0.5, 1.5, -0.5))))
    for spec in specs:
        once_matrix, once_spec = verify.conjugate_hamiltonian(spec)
        twice_matrix, twice_spec = verify.conjugate_hamiltonian(once_spec)
        worst = max(worst, _maxabs(twice_matrix - build_hamiltonian(spec)),
                    _maxabs(once_matrix - _reference_substitution(spec)))
        if twice_spec != spec:
            worst = max(worst, 1.0)
    return worst, {"specs": len(specs)}


def _reference_dirac_em(rng):
    worst = 0.0
    u = rng.random((5, 9))
    for row, m in zip((-2.0 + 4.0 * u).tolist(), (2.0 * u[:, 5]).tolist()):
        em = EMField(e=row[0], A0=row[1], Avec=tuple(row[2:5]))
        spec = HamiltonianSpec(kind="Dirac", m=m, p=tuple(row[6:9]), em=em)
        matrix, conj_spec = verify.conjugate_hamiltonian(spec)
        flipped = HamiltonianSpec(kind="Dirac", m=spec.m, p=spec.p,
                                  em=EMField(e=-em.e, A0=em.A0, Avec=em.Avec))
        worst = max(worst, _maxabs(matrix - build_hamiltonian(flipped)),
                    _maxabs(matrix - _reference_substitution(spec)))
        if conj_spec != flipped:
            worst = max(worst, 1.0)
    free = HamiltonianSpec(kind="Dirac", m=1.5, p=(1.0, -2.0, 0.5))
    matrix, _ = verify.conjugate_hamiltonian(free)
    worst = max(worst, _maxabs(matrix - build_hamiltonian(free)),
                _maxabs(matrix - _reference_substitution(free)))
    return worst, {"random_fields": 5, "free_dirac_self_conjugate": True}


@pytest.mark.parametrize("check,reference,stream", [
    (verify._check_colored_closed_forms, _reference_colored_closed_forms, 41),
    (verify._check_conjugation_involution, _reference_involution, 42),
    (verify._check_dirac_em, _reference_dirac_em, 43),
], ids=["colored-closed-forms", "involution", "dirac-em"])
def test_stacked_conjugation_checks_match_the_per_spec_route(check, reference, stream):
    for seed in range(50):
        expected = reference(verify.SplitMix64(seed, stream))
        assert check(verify.SplitMix64(seed, stream)) == expected, seed


# -- a broken conjugation must fail verify --------------------------------------


def _failing(report):
    return sorted(c.name for c in report.checks if not c.passed)


def _flip(flip_x, flip_em):
    """A conjugate_hamiltonian that flips x or not, and em by flip_em."""
    def conjugate(spec):
        changes = {} if spec.em is None else {"em": flip_em(spec.em)}
        if flip_x and spec.kind != "Dirac":
            changes["x"] = tuple(-v for v in spec.x)
        conj = dataclasses.replace(spec, **changes)
        return build_hamiltonian(conj), conj
    return conjugate


@pytest.mark.parametrize("conjugate,failing", [
    (_flip(False, lambda em: dataclasses.replace(em, e=-em.e)),
     ["conjugation/colored-closed-forms", "conjugation/involution"]),
    # -A0 and -Avec build the same matrix as -e: only the conjugated spec differs
    (_flip(True, lambda em: EMField(em.e, -em.A0, tuple(-v for v in em.Avec))),
     ["conjugation/dirac-em"]),
], ids=["x-not-flipped", "potential-flipped-instead-of-e"])
def test_a_broken_library_flip_fails_verify(monkeypatch, conjugate, failing):
    monkeypatch.setattr(verify, "conjugate_hamiltonian", conjugate)
    report = run_suite("conjugation")
    assert report.passed is False
    assert _failing(report) == failing


def test_a_substitution_chain_without_conj_fails_verify(monkeypatch):
    def without_conj(samples):
        h = verify._stack(samples, lambda fields: {**fields, "p": -np.asarray(fields["p"])})
        return verify._C8 @ -h @ -verify._C8

    monkeypatch.setattr(verify, "_substitution", without_conj)
    report = run_suite("conjugation")
    assert report.passed is False
    assert _failing(report) == ["conjugation/colored-closed-forms", "conjugation/dirac-em",
                                "conjugation/involution"]


# -- a structural test made false fails its check at any tolerance below 1 ------


def _gammas_off_the_entry_set(monkeypatch):
    # a diagonal unitary of phases keeps Hermitian, anticommuting involutions
    u = np.exp(1j * np.pi / 8 * np.arange(8))
    monkeypatch.setattr(verify, "_GAMMA", u[:, None] * verify._GAMMA * u.conj())


def _c_not_a_signed_permutation(monkeypatch):
    # a real rotation of C still squares to -1 and stays real
    r = np.eye(8)
    r[:2, :2] = [[math.cos(0.3), -math.sin(0.3)], [math.sin(0.3), math.cos(0.3)]]
    monkeypatch.setattr(verify, "_C8", r @ verify._C8 @ r.T)


def _conjugate_twice_drifts(monkeypatch):
    # each matrix stays right; only the conjugate of a conjugate moves m
    conjugate, returned = verify.conjugate_hamiltonian, []

    def drifting(spec):
        matrix, conj = conjugate(spec)
        if any(spec is c for c in returned):
            conj = dataclasses.replace(conj, m=conj.m + 1.0)
        returned.append(conj)
        return matrix, conj

    monkeypatch.setattr(verify, "conjugate_hamiltonian", drifting)


def _sample_not_kept(monkeypatch):
    # no square reads as scalar, so spectrum-symmetry keeps no sample
    reports = verify._reports
    monkeypatch.setattr(verify, "_reports", lambda *args: [
        report._replace(scalar_square=None) for report in reports(*args)])


def _spectrum_not_split(monkeypatch):
    # the eigenvalues stay right; the degeneracies read one eightfold value
    reports = verify._reports

    def eightfold(*args):
        return [report._replace(degeneracies=((report.eigenvalues[0], 8),))
                for report in reports(*args)]

    monkeypatch.setattr(verify, "_reports", eightfold)


def _witness_ignores_x(monkeypatch):
    # the witness's shift of x then moves nothing, as if QuarkSum were invariant
    build_hamiltonian = verify.build_hamiltonian
    monkeypatch.setattr(verify, "build_hamiltonian",
                        lambda spec: build_hamiltonian(dataclasses.replace(spec, x=(0.0, 0.0, 0.0))))


@pytest.mark.parametrize("check,breaks", [
    ("clifford/hermitian-involution", _gammas_off_the_entry_set),
    ("conjugation/c-matrix-properties", _c_not_a_signed_permutation),
    ("conjugation/involution", _conjugate_twice_drifts),
    ("composite/spectrum-symmetry", _sample_not_kept),
    ("composite/spectrum-symmetry", _spectrum_not_split),
    ("composite/translation-invariance", _witness_ignores_x),
], ids=["entry-set", "signed-permutation", "twice-conjugated-spec", "sample-not-kept",
        "spectrum-not-split", "witness"])
def test_a_false_structural_property_fails_its_check(monkeypatch, capsys, check, breaks):
    breaks(monkeypatch)
    suite = check.split("/")[0]
    result = next(c for c in run_suite(suite).checks if c.name == check)
    assert not result.passed and result.max_residual >= 1.0
    code = main(["verify", "--suite", suite])
    captured = capsys.readouterr()
    report = json.loads(captured.out, parse_constant=lambda c: pytest.fail(f"non-strict {c}"))
    assert (code, captured.err, report["all_passed"]) == (1, "", False)
    assert {c["name"]: c["status"] for c in report["checks"]}[check] == "fail"


def test_check_results_compare_without_their_timings():
    timed, plain = run_suite("conjugation", timings=True), run_suite("conjugation")
    assert timed == plain
    assert all(c.elapsed_ms >= 0.0 for c in timed.checks)
    assert all(c.elapsed_ms is None for c in plain.checks)
    assert [c.to_dict() for c in plain.checks] == [
        {k: v for k, v in c.to_dict().items() if k != "elapsed_ms"} for c in timed.checks]


def test_verify_runs_never_load_numpy_random():
    """The checks draw from SplitMix64, so no verify run, timed or through the CLI,
    imports numpy.random or, through it, secrets and hashlib."""
    code = (
        "import contextlib, io, sys\n"
        "from phasequark import cli, verify\n"
        "verify.run_suite('all', timings=True)\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    code = cli.main(['verify'])\n"
        "print(code, [m for m in ('numpy.random', 'secrets') if m in sys.modules])\n"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert result.returncode == 0, result.stderr
    assert result.stdout == "0 []\n"


def test_only_the_checks_that_draw_get_a_generator(monkeypatch):
    streams = []

    class Counting(verify.SplitMix64):
        def __init__(self, seed, stream):
            streams.append(stream)
            super().__init__(seed, stream)

    monkeypatch.setattr(verify, "SplitMix64", Counting)
    report = run_suite("all")
    assert len(report.checks) == 32
    assert streams == [13, 14, 15, 25, 30, 31, 32, 33, 41, 42, 43, 50, 51, 52, 53, 54, 56]


# -- the stream against a pure-Python SplitMix64 --------------------------------

_M64, _GAMMA64 = 2**64 - 1, 0x9E3779B97F4A7C15


def _python_mix64(z):
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) % 2**64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) % 2**64
    return z ^ (z >> 31)


def _python_words(seed, stream, n):
    """Words 1..n of (seed, stream): the key chains mix64 over the stream id, then
    over the seed's 64-bit limbs from the low end; word k is mix64(key + k gamma)."""
    key = _python_mix64((stream + _GAMMA64) % 2**64)
    limbs = [(seed >> (64 * i)) & _M64 for i in range(max(1, -(-seed.bit_length() // 64)))]
    for limb in limbs:
        key = _python_mix64(((key ^ limb) + _GAMMA64) % 2**64)
    return [_python_mix64((key + k * _GAMMA64) % 2**64) for k in range(1, n + 1)]


@pytest.mark.parametrize("seed", [0, 1, 1729, 2**63 - 1, 2**64 - 1, 2**64, 2**64 + 1, 2**100])
@pytest.mark.parametrize("stream", [13, 56])
def test_stream_words_match_a_pure_python_splitmix64(seed, stream):
    rng = verify.SplitMix64(seed, stream)
    words = [*rng._words(3).tolist(), *rng._words((2, 2)).ravel().tolist(), *rng._words(1).tolist()]
    assert words == _python_words(seed, stream, 8)


def test_stream_keys_are_distinct_and_read_numpy_integers_as_ints():
    first = {(seed, stream): verify.SplitMix64(seed, stream)._words(1)[0]
             for seed in (0, 1, 2**64, 2**64 + 1, 2**100) for stream in (13, 14, 15, 25)}
    assert len(set(first.values())) == len(first)  # 0 and 2**64 do not alias
    assert verify.SplitMix64(np.int64(7), 13)._words(4).tolist() == _python_words(7, 13, 4)


def test_stream_reproduces_the_published_splitmix64_vector():
    rng = verify.SplitMix64(0, 0)
    rng._state = 1234567  # the reference sequence starts from this state
    assert rng._words(5).tolist() == [6457827717110365317, 3203168211198807973, 9817491932198370423,
                                      4593380528125082431, 16408922859458223821]


def test_stream_draws_take_numpy_formulas_on_the_words():
    words = np.array(_python_words(1729, 13, 4000), dtype=np.uint64)
    u = (words >> 11) * 2.0**-53
    rng = verify.SplitMix64(1729, 13)
    assert np.array_equal(rng.random((2, 1000)), u[:2000].reshape(2, 1000))  # C order
    assert np.array_equal(rng.uniform(-2.0, 2.0, size=1000), -2.0 + 4.0 * u[2000:3000])
    ints = rng.integers(-32, 33, size=(1000,))
    assert ints.dtype == np.int64 and np.array_equal(ints, (words[3000:] % 65).astype(int) - 32)
    assert 0.0 <= u.min() and u.max() < 1.0
    assert set(verify.SplitMix64(1, 54).integers(-32, 33, size=5000).tolist()) == set(range(-32, 33))


def test_su3_checks_reach_every_generator(monkeypatch):
    """At the default seed, each su3 check on generators reaches all of them,
    and the Jacobi check every triple of distinct generators."""
    labels = [f"F{i}" for i in range(1, 9)] + ["R"]  # the rows of verify._F9
    reached, pairs = {}, {}

    def which(stack):
        """The generator label of each 6x6 matrix of stack, None for a non-generator."""
        return [next((label for label, g in zip(labels, verify._F9) if np.array_equal(m, g)), None)
                for m in np.reshape(getattr(stack, "matrix", stack), (-1, 6, 6))]

    def record(fn):
        def wrapper(a, b):
            frame = sys._getframe(1)
            # a comprehension has a frame of its own before Python 3.12 (PEP 709)
            while not frame.f_code.co_name.startswith("_check_"):
                frame = frame.f_back
            check = frame.f_code.co_name
            reached.setdefault(check, set()).update(which(a))
            if fn is commutator6 and None not in which(a) + which(b):
                pairs.setdefault(check, []).append(list(zip(which(a), which(b))))
            return fn(a, b)
        return wrapper

    exp_generator, commutator6 = verify.phase_space.exp_generator, verify.phase_space.commutator6
    monkeypatch.setattr(verify.phase_space, "exp_generator", record(exp_generator))
    monkeypatch.setattr(verify.phase_space, "commutator6", record(commutator6))
    assert run_suite("su3", seed=1729).passed
    assert reached["_check_group_additivity"] == set(labels[:8])
    assert reached["_check_quadratic_form"] == set(labels)
    assert reached["_check_group_membership"] == set(labels)
    # the Jacobi sum's brackets [a, b], [b, c] and [c, a] of each row name its triple
    triples = [frozenset(a + b + c) for a, b, c in zip(*pairs["_check_jacobi"])]
    assert len(triples) == 56
    assert set(triples) == set(map(frozenset, itertools.combinations(labels[:8], 3)))


def _draws_in_loops(source: str) -> list[int]:
    """Lines of the draws (a call on rng, or a call given rng) that run once per
    pass: in the body or condition of a for or while loop, or in a comprehension."""
    def draws(node):
        return [n.lineno for n in ast.walk(node) if isinstance(n, ast.Call) and (
            isinstance(n.func, ast.Attribute) and getattr(n.func.value, "id", None) == "rng"
            or any(getattr(arg, "id", None) == "rng" for arg in n.args))]

    lines = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.For, ast.AsyncFor)):
            lines.update(line for stmt in node.body for line in draws(stmt))
        elif isinstance(node, ast.While):
            lines.update(line for part in (node.test, *node.body) for line in draws(part))
        elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)):
            lines.update(draws(node))
    return sorted(lines)


def test_every_random_quantity_is_drawn_as_one_block():
    assert _draws_in_loops("for g in rng.random(3):\n    f(g)\n") == []  # one draw, then a loop
    assert _draws_in_loops("for _ in range(3):\n    x = rng.normal(size=3)\n") == [2]
    assert _draws_in_loops("while ok:\n    f(g(rng, 1))\n") == [2]
    assert _draws_in_loops("x = [rng.random() for _ in range(3)]\n") == [1]
    assert _draws_in_loops(Path(verify.__file__).read_text(encoding="utf-8")) == []


# -- the one residual form ------------------------------------------------------


def test_compare_is_the_largest_difference_scaled_per_sample():
    a = np.array([[0.0, 2.0], [100.0, 0.0]])
    assert verify._compare(a, 0.0) == 100.0
    assert verify._compare(a, [[0.0, 1.0], [99.0, 0.0]]) == 1.0
    # a large scale on one sample does not hide another sample's error
    assert verify._compare(a, 0.0, scale=np.array([1.0, 1000.0])) == 2.0
    assert verify._compare(np.ones((3, 2, 2)), verify._I8[:2, :2]) == 1.0  # one matrix broadcasts
    assert verify._compare(np.zeros((0, 8, 8)), verify._I8) == 0.0
    assert verify._compare([], 1.0, scale=np.array([])) == 0.0
    for nan_in_a in (True, False):
        routes = [np.array([[0.0, np.nan], [5.0, 0.0]]), np.zeros((2, 2))]
        residual = verify._compare(*(routes if nan_in_a else routes[::-1]))
        assert np.isnan(residual)
        assert not verify.CheckResult("nan", residual, 1e300, {}).passed


def test_a_nan_route_fails_every_check_that_reads_it(monkeypatch):
    exp_generator = verify.phase_space.exp_generator
    monkeypatch.setattr(verify.phase_space, "exp_generator",
                        lambda g, theta: np.full_like(exp_generator(g, theta), np.nan))
    report = run_suite("su3")
    assert _failing(report) == ["su3/group-additivity", "su3/group-membership",
                                "su3/pairing-from-diagonal", "su3/pairing-from-rotation",
                                "su3/quadratic-form-invariance", "su3/reflection-square"]
    assert all(np.isnan(c.max_residual) for c in report.checks if not c.passed)


def test_a_nan_residual_fails_its_check_wherever_it_is_combined(monkeypatch):
    # max(0.1, nan) is 0.1: each of these checks combines the substitution
    # residual with others, and only dirac-em's comes first
    assert np.isnan(verify._worst(0.1, np.nan)) and np.isnan(verify._worst(np.nan, 0.1))
    assert verify._worst(0.1, 0.3, 0.2) == 0.3
    monkeypatch.setattr(verify, "_substitution",
                        lambda samples: np.full((1, 8, 8), np.nan))
    report = run_suite("conjugation")
    assert _failing(report) == ["conjugation/colored-closed-forms", "conjugation/dirac-em",
                                "conjugation/involution"]
    assert all(np.isnan(c.max_residual) for c in report.checks if not c.passed)


@pytest.mark.parametrize("seed", range(20))
def test_all_runs_each_suite_in_turn_and_passes(seed):
    report = run_suite("all", seed=seed)
    assert report.passed
    assert report.checks == tuple(c for suite in verify.SUITES
                                  for c in run_suite(suite, seed=seed).checks)


def test_unknown_suite_is_rejected():
    with pytest.raises(ValueError, match=r"unknown suite 'bogus'; expected one of \('all', 'su3'"):
        run_suite("bogus")
