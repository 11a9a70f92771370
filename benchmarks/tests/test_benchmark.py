"""Self-test of the benchmark: oracles, input generators and the tracer.

Run from the repository root with ``python3 -m pytest benchmarks/tests -q``.
Each oracle must accept the package's real output and reject a
deliberately corrupted copy of it.
"""

import copy
import io
import json
import contextlib
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import oracles
import workloads
from oracles import OracleError
from tracing import LayerStats, Tracer

import phasequark
import phasequark.cli


def cli_json(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = phasequark.cli.main(argv)
    assert code == 0
    return out.getvalue()


def spec_file(tmp_path: Path, spec: dict) -> str:
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    return str(path)


SPECS = [
    {"kind": "Dirac", "m": 1.5, "p": [0.5, -1.0, 2.0],
     "em": {"e": 0.75, "A0": -0.25, "Avec": [0.5, 1.5, -0.5]}},
    {"kind": "ColorY", "m": 0.5, "p": [1.0, 2.0, -1.0], "x": [0.25, -2.0, 1.5],
     "em": {"e": -1.0, "A0": 0.5, "Avec": [1.0, -1.0, 0.5]}},
    {"kind": "AntiB", "m": 2.0, "p": [1.0, 2.0, 3.0], "x": [-1.0, 0.5, 2.0]},
    {"kind": "QuarkSum", "m": 1.0, "p": [1.0, 0.0, -1.0], "x": [0.5, 0.5, 2.0]},
    {"kind": "QQbar", "m": 0.25, "p": [1.0, 2.0, 3.0], "x": [0.0, 1.0, 1.0],
     "pbar": [-1.0, 0.5, 0.0], "xbar": [2.0, 0.0, -1.0]},
    {"kind": "QQbar", "m": 1.0, "P": [0.5, 0.0, 0.0], "dx": [0.0, 1.0, -2.0]},
    {"kind": "Custom", "a": [1.0, -2.0, 0.5], "b": [0.0, 1.0, 3.0], "beta": -1.5, "scalar": 0.75},
]


@pytest.mark.parametrize("spec", SPECS, ids=lambda s: s["kind"])
def test_coefficient_table_matches_an_eigensolver(spec):
    s, r = oracles.expected_eigenvalues(spec)
    eig = np.linalg.eigvalsh(oracles.hamiltonian_matrix(spec))
    assert np.allclose(eig, [s - r] * 4 + [s + r] * 4, atol=1e-12)


@pytest.mark.parametrize("spec", SPECS, ids=lambda s: s["kind"])
def test_spectrum_oracle_rejects_a_flipped_eigenvalue(tmp_path, spec):
    payload = json.loads(cli_json(["spectrum", spec_file(tmp_path, spec)]))
    oracles.check_spectrum(spec, payload)
    bad = copy.deepcopy(payload)
    bad["spectrum"]["eigenvalues"][-1] *= -1
    with pytest.raises(OracleError):
        oracles.check_spectrum(spec, bad)


@pytest.mark.parametrize("spec", SPECS[:2], ids=lambda s: s["kind"])
def test_conjugate_oracle_rejects_unflipped_fields_and_matrix(tmp_path, spec):
    payload = json.loads(cli_json(["conjugate", spec_file(tmp_path, spec)]))
    oracles.check_conjugate(spec, payload)
    unflipped = copy.deepcopy(payload)
    unflipped["conjugated_spec"]["em"]["e"] *= -1
    with pytest.raises(OracleError):
        oracles.check_conjugate(spec, unflipped)
    wrong_matrix = copy.deepcopy(payload)
    wrong_matrix["matrix"] = [[[z.real, z.imag] for z in row]
                              for row in oracles.hamiltonian_matrix(spec)]
    with pytest.raises(OracleError):
        oracles.check_conjugate(spec, wrong_matrix)


def test_generator_oracle_rejects_a_changed_norm():
    values = [1.0, -2.0, 0.5, 3.0, -0.25, 1.5]
    payload = json.loads(cli_json(["transform", "--generator", "F8", "--angle=0.7",
                                   "--input=" + ",".join(map(repr, values))]))
    oracles.check_generator_transform(values, payload)
    payload["output"][0] *= 1.001
    with pytest.raises(OracleError):
        oracles.check_generator_transform(values, payload)


@pytest.mark.parametrize("tag", workloads.PAIRING_TAGS)
def test_pairing_oracle_rejects_a_non_permutation(tag):
    values = [1.5, -2.25, 0.5, 3.0, -0.75, 4.125]
    payload = json.loads(cli_json(["transform", "--pairing", tag,
                                   "--input=" + ",".join(map(repr, values))]))
    oracles.check_pairing_transform(values, payload)
    payload["generalized_x"][2] = payload["generalized_p"][0]
    with pytest.raises(OracleError):
        oracles.check_pairing_transform(values, payload)


@pytest.mark.parametrize("label", ["A2", "C", "gammaY5", "pairing:Even(B)", "F8", "G(2,5)", "H1"])
@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_export_oracle_rejects_a_corrupted_entry(label, fmt):
    text = cli_json(["export", label, "--format", fmt])
    oracles.check_export(label, fmt, text)
    # 0.5 on the diagonal is outside {0, +-1, +-i} and breaks antisymmetry
    if fmt == "csv":
        rows = [line.split(",") for line in text.splitlines()]
        rows[0][0] = "0.5"
        bad = "\n".join(",".join(r) for r in rows) + "\n"
    else:
        payload = json.loads(text)
        payload["matrix"][0][0] = 0.5
        bad = json.dumps(payload)
    with pytest.raises(OracleError):
        oracles.check_export(label, fmt, bad)


def test_strict_json_rejects_non_finite_numbers():
    for text in ('{"x": NaN}', '{"x": Infinity}', '[-Infinity]'):
        with pytest.raises(OracleError):
            oracles.strict_json(text)
    with pytest.raises(OracleError):
        oracles.check_error_payload(["not", "an", "object"])
    oracles.check_error_payload({"error": "bad"})


def test_dsl_oracle_rejects_a_wrong_product_term():
    workload = workloads.DslAlgebra(5, Path("."), phasequark)
    stream = workload.ops()
    for _ in range(20):
        op = next(stream)
        out = workload.run(op)
        workload.check(op, out)
    text_a, terms_a, text_b, terms_b, values = op.data
    round_trip, canonical, (mat_a, mat_b, mat_ab) = out.value
    extra = mat_ab + oracles.TENSORS[1, 2, 3]
    with pytest.raises(OracleError):
        oracles.check_dsl_matrices(terms_a, terms_b, values, mat_a, mat_b, extra)
    wrong_term = list(terms_a)
    coeff, symbols, phase, idx = wrong_term[0]
    wrong_term[0] = (coeff, symbols, -phase, idx)
    with pytest.raises(OracleError):
        oracles.check_dsl_matrices(wrong_term, terms_b, values, mat_a, mat_b, mat_ab)


def test_verify_oracle_rejects_missing_or_failed_checks():
    report = phasequark.run_suite("all", seed=3).to_dict()
    oracles.check_verify_report(report, workloads.SUITES)
    missing = copy.deepcopy(report)
    missing["checks"].pop(7)
    with pytest.raises(OracleError):
        oracles.check_verify_report(missing, workloads.SUITES)
    failed = copy.deepcopy(report)
    failed["all_passed"] = False
    with pytest.raises(OracleError):
        oracles.check_verify_report(failed, workloads.SUITES)


def _inputs(workload, n):
    """The first n ops, with spec file paths replaced by the file contents."""
    stream = workload.ops()
    ops = []
    for _ in range(n):
        op = next(stream)
        data = op.data
        if workload.name == "spec-cli":
            argv, expect = data
            argv = [Path(a).read_text() if a.endswith(".json") else a for a in argv]
            data = (argv, expect)
        ops.append((op.index, repr(data), op.edge))
    return ops


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_generators_repeat_for_a_seed(tmp_path, name):
    cls = workloads.WORKLOADS[name]
    made = []
    for seed, sub in ((11, "a"), (11, "b"), (12, "c")):
        (tmp_path / sub).mkdir()
        made.append(_inputs(cls(seed, tmp_path / sub, phasequark), 60))
    assert made[0] == made[1]
    assert made[0] != made[2]


@pytest.mark.parametrize("seed", [3, 4])
def test_mixes_have_fixed_edge_and_tail_shares(tmp_path, seed):
    rounds = 4
    n = workloads.EDGE_EVERY * len(workloads.EDGE_CATEGORIES) * rounds
    ops = _inputs(workloads.SpecCli(seed, tmp_path, phasequark), n)
    edges = Counter(edge for _, _, edge in ops if edge is not None)
    assert edges == {category: rounds for category in workloads.EDGE_CATEGORIES}
    stream = workloads.DslAlgebra(seed, tmp_path, phasequark).ops()
    tails = sum(len(next(stream).data[1]) >= 8 for _ in range(n))
    assert tails == n // workloads.TAIL_EVERY


def test_edge_probe_covers_every_hardening_file_and_repeats(tmp_path):
    import run

    workload = workloads.SpecCli(5, tmp_path, phasequark)
    ops = workload.probe_ops()
    assert Counter(op.edge for op in ops) == {"wrong-type-str": 8, "wrong-type-bool": 8, "extreme": 4}
    first, second = run.edge_probe(workload), run.edge_probe(workload)
    assert first.attempted == second.attempted == len(ops)
    assert first.by_category() == second.by_category()


def test_tracer_counts_calls_through_every_imported_name():
    import phasequark.hamiltonian as ham
    import phasequark.verify as verify

    original = ham.build_hamiltonian
    tracer = Tracer()
    targets = [("phasequark.hamiltonian", "build_hamiltonian", "build", None),
               ("phasequark.hamiltonian", "HamiltonianSpec.from_dict", "from_dict", None),
               ("phasequark.pauli_expr", "PauliExpr.__mul__", "mul", None)]
    with tracer.installed(targets):
        assert verify.build_hamiltonian is ham.build_hamiltonian is phasequark.build_hamiltonian
        assert verify.build_hamiltonian is not original
        phasequark.run_suite("composite", seed=1)
        a = phasequark.parse("A1")
        _ = 2 * a
        _ = a * a
    assert ham.build_hamiltonian is original and verify.build_hamiltonian is original
    assert isinstance(ham.HamiltonianSpec.__dict__["from_dict"], classmethod)
    stats = tracer.stats()
    assert stats.calls["build"] > 500
    assert stats.calls["from_dict"] > 0
    assert stats.calls["mul"] == 2   # __rmul__ is the same method


def test_self_time_excludes_child_spans():
    spans = [["outer", 0.0, 10.0, -1], ["child", 1.0, 4.0, 0], ["child", 5.0, 6.0, 0],
             ["grandchild", 2.0, 3.0, 1]]
    stats = LayerStats(spans)
    assert stats.self_s["outer"] == 6.0
    assert stats.self_s["child"] == 3.0
    assert stats.total_s["child"] == 4.0
    assert stats.calls["child"] == 2


def _declared(kind):
    spec = json.loads((Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


def test_traced_run_reports_every_layer_metric_and_repeats_counts(tmp_path):
    import run

    results = []
    for sub in ("a", "b"):
        (tmp_path / sub).mkdir()
        metrics, _ = run.per_layer("spec-cli", 0.1, 4, tmp_path / sub, phasequark, run.Tally())
        results.append(metrics)
    declared = _declared("per_layer")
    assert {k: u for k, (_, u) in results[0].items()} == declared
    for name, unit in declared.items():
        if unit in ("count", "calls/op", "bytes/op") or name.endswith("per_hit"):
            assert results[0][name][0] == results[1][name][0], name


def test_untraced_run_reports_every_end_to_end_metric(tmp_path):
    import run

    tally = run.Tally()
    metrics, info = run.end_to_end(workloads.SpecCli(4, tmp_path, phasequark), 0.1, tally)
    assert {k: u for k, (_, u) in metrics.items()} == _declared("end_to_end")
    assert info["samples"] >= run.MIN_OPS and info["samples_above_p90"] >= 10
    assert tally.correct and tally.failed == 0
    assert all(v > 0 for v, _ in metrics.values())
