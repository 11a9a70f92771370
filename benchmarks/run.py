"""phasequark benchmark: one command, one workload, every metric with its unit.

    python3 benchmarks/run.py --workload verify-suite --seed 1 --seconds 25 --trace 0

Run from a source checkout: the package is imported from ``src/`` next to
this directory, never from site-packages, and the run fails (exit 2, no
result line) when ``src/phasequark`` is missing.

--trace 0 measures the end-to-end metrics of the workload: import time of
the package in fresh interpreters (setup_s), then a closed loop of timed
ops for --seconds, each output checked by an oracle of the benchmark's
own.  Times are scaled to reference speed by fixed reference work timed
next to them (reference.py).  --trace 1 gives the per-layer metrics
instead; see README.md.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics.  The lines above it describe the machine,
the sample counts and any failed op.
"""

from __future__ import annotations

import os

# NumPy here links a multi-threaded OpenBLAS.  One thread per process keeps
# runs comparable on a shared machine; children inherit the setting.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import oracles  # noqa: E402
import reference  # noqa: E402
import workloads  # noqa: E402
from tracing import NullTracer, Tracer  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

SETUP_RUNS = 9          # fresh interpreters timed per run for setup_s
IMPORTTIME_RUNS = 3     # fresh interpreters per run for the import.* layer
MIN_OPS = 100           # leaves at least 10 samples above p90
WARMUP_OPS = {"verify-suite": 2, "spec-cli": 19, "dsl-algebra": 20}
# Ops per traced pass = seconds * rate, so a pass takes about a quarter of
# --seconds here and call counts repeat exactly for a given seed.
TRACE_OPS_PER_S = {"verify-suite": 1.0, "spec-cli": 50.0, "dsl-algebra": 25.0}
ORACLE_REJECTIONS = (oracles.OracleError, LookupError, TypeError, ValueError, AttributeError)

IMPORT_PROBE = (
    "import time\n"
    "t = time.perf_counter()\n"
    "import {}\n"
    "t = time.perf_counter() - t\n"
    "import sys\n"
    "print(repr(t), getattr(sys.modules.get('phasequark'), '__file__', '-'))\n"
)


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def _run_child(args: list[str]) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, *args], cwd=ROOT, env=_child_env(),
                          capture_output=True, text=True, check=True, timeout=120)


def _import_seconds(modules: str) -> tuple[float, str]:
    seconds, path = _run_child(["-c", IMPORT_PROBE.format(modules)]).stdout.strip().split(" ", 1)
    return float(seconds), path


def measure_setup(runs: int) -> tuple[list[float], list[float]]:
    """Seconds to `import phasequark` in fresh interpreters, boot excluded.

    Each is preceded by a fresh interpreter timing the reference import;
    returns both lists.  The two share the machine's slow stretches, not
    the package's code.
    """
    _import_seconds("phasequark")   # compiles bytecode; not timed
    walls, refs = [], []
    for _ in range(runs):
        refs.append(_import_seconds(reference.REFERENCE_IMPORTS)[0])
        seconds, path = _import_seconds("phasequark")
        if not Path(path).resolve().is_relative_to(SRC):
            raise RuntimeError(f"phasequark was imported from {path}, not {SRC}")
        walls.append(seconds)
    return walls, refs


IMPORT_LAYERS = {"numpy": "import.numpy.ms", "scipy.linalg": "import.scipy.linalg.ms",
                 "phasequark.phase_space": "import.phasequark.phase_space.ms",
                 "phasequark": "import.phasequark.ms"}


def import_breakdown(runs: int) -> dict[str, float]:
    """Cumulative import ms per module from `python -X importtime` (medians)."""
    samples: dict[str, list[float]] = {m: [] for m in IMPORT_LAYERS.values()}
    for _ in range(runs):
        seen = dict.fromkeys(IMPORT_LAYERS.values(), 0.0)
        stderr = _run_child(["-X", "importtime", "-c", "import phasequark"]).stderr
        for line in stderr.splitlines():
            fields = line.removeprefix("import time:").split("|")
            if len(fields) == 3 and fields[2].strip() in IMPORT_LAYERS and fields[1].strip().isdigit():
                seen[IMPORT_LAYERS[fields[2].strip()]] = int(fields[1]) / 1e3
        for metric, value in seen.items():
            samples[metric].append(value)
    return {metric: statistics.median(values) for metric, values in samples.items()}


def load_package():
    if not (SRC / "phasequark" / "__init__.py").is_file():
        raise FileNotFoundError(f"no phasequark sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import phasequark
    import phasequark.cli  # noqa: F401
    import phasequark.serialize  # noqa: F401
    if not Path(phasequark.__file__).resolve().is_relative_to(SRC):
        raise RuntimeError(f"phasequark was imported from {phasequark.__file__}, not {SRC}")
    return phasequark


class Tally:
    """Attempted and failed ops; any failed op makes a run incorrect."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: list[tuple[int, str | None, str]] = []

    def record(self, workload, op, out) -> bool:
        self.attempted += 1
        try:
            workload.check(op, out)
        except ORACLE_REJECTIONS as exc:
            self.failures.append((op.index, op.edge, f"{type(exc).__name__}: {exc}"))
            return False
        return True

    @property
    def failed(self) -> int:
        return len(self.failures)

    @property
    def correct(self) -> bool:
        return not self.failures

    def by_category(self) -> Counter:
        return Counter(edge or "regular" for _, edge, _ in self.failures)


def edge_probe(workload) -> Tally:
    """The spec-cli edge inputs the CLI mishandles today, each run once.

    They are kept out of the timed loop, where no op may fail; their
    failures are counted here and reported, never in `failed`.
    """
    probe = Tally()
    for op in workload.probe_ops():
        probe.record(workload, op, workload.run(op))
    return probe


def _probe_info(probe: Tally) -> dict:
    return {"edge_probe_ops": probe.attempted, "edge_probe_mishandled": probe.by_category()}


def _warm_up(workload, stream, count: int) -> None:
    for _ in range(count):
        workload.run(next(stream))
        reference.kernel()


def timed_loop(workload, seconds: float, tally: Tally) -> tuple[list[float], list[float]]:
    """Closed loop for `seconds` (at least MIN_OPS ops).

    Returns each op's wall seconds and its latency scaled to reference
    speed in ms: the op's seconds over the mean reference-kernel time just
    before and just after it, times REF_MS.  Only the op is timed: input
    generation and the oracle run between ops.
    """
    stream = workload.ops()
    _warm_up(workload, stream, WARMUP_OPS[workload.name])
    gc.collect()
    walls: list[float] = []
    refs = [reference.timed_kernel()]
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline or len(walls) < MIN_OPS:
        op = next(stream)
        start = time.perf_counter()
        out = workload.run(op)
        walls.append(time.perf_counter() - start)
        refs.append(reference.timed_kernel())
        tally.record(workload, op, out)
    scaled = [wall * 2 * reference.REF_MS / (refs[i] + refs[i + 1]) for i, wall in enumerate(walls)]
    return walls, scaled


def p90(values: list[float]) -> float:
    """Nearest-rank 90th percentile."""
    ordered = sorted(values)
    return ordered[math.ceil(0.9 * len(ordered)) - 1]


def end_to_end(workload, seconds: float, tally: Tally) -> tuple[dict, dict]:
    setup_walls, setup_refs = measure_setup(SETUP_RUNS)
    setup_s = statistics.median(setup_walls) * reference.REF_IMPORT_S / statistics.median(setup_refs)
    walls, latencies = timed_loop(workload, seconds, tally)
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    tail = p90(latencies)
    metrics = {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (1e3 * len(latencies) / sum(latencies), "1/s"),
        "op_ms_p50": (statistics.median(latencies), "ms"),
        "op_ms_p90": (tail, "ms"),
        "peak_rss_mb": (rss_kb / 1024.0, "MB"),
    }
    info = {
        "setup_runs": len(setup_walls),
        "samples": len(latencies),
        "samples_above_p90": sum(v > tail for v in latencies),
        "error_rate": tally.failed / tally.attempted,
        # The same figures in plain wall time, not scaled to reference speed.
        "wall_setup_s": statistics.median(setup_walls),
        "wall_ops_per_s": len(walls) / sum(walls),
        "wall_op_ms_p50": statistics.median(walls) * 1e3,
        "wall_op_ms_p90": p90(walls) * 1e3,
    }
    return metrics, info


# ---------------------------------------------------------------------------
# Traced run
# ---------------------------------------------------------------------------


def _count_exit(tracer: Tracer, result, exc) -> None:
    if isinstance(exc, SystemExit):
        result = exc.code
    elif exc is not None:
        tracer.counts["cli.main.uncaught"] += 1
    if result == 2:
        tracer.counts["cli.main.exit2"] += 1


def _count_bytes(tracer: Tracer, result, exc) -> None:
    if exc is None:
        tracer.counts["serialize.dump_json.bytes"] += len(result.encode("utf-8"))


def _count_hit(tracer: Tracer, result, exc) -> None:
    if exc is None and result.residual <= 1e-12:
        tracer.counts["derive_pairing.hits"] += 1


HAMILTONIAN_FUNCS = ("from_dict", "build_hamiltonian", "build_composite", "rotate_hamiltonian",
                     "conjugate_hamiltonian", "square_and_spectrum",
                     "antiparticle_distinctness_check")
DERIVE = ("phase_space.derive_pairing_from_rotation", "phase_space.derive_pairing_from_diagonal")

TRACE_TARGETS = [
    ("phasequark.cli", "build_parser", "cli.build_parser", None),
    ("phasequark.cli", "main", "cli.main", _count_exit),
    ("phasequark.serialize", "dump_json", "serialize.dump_json", _count_bytes),
    ("phasequark.serialize", "matrix_to_csv", "serialize.matrix_to_csv", None),
    ("phasequark.serialize", "resolve_export", "serialize.resolve_export", None),
    ("phasequark.hamiltonian", "HamiltonianSpec.from_dict", "hamiltonian.from_dict", None),
    *[("phasequark.hamiltonian", f, f"hamiltonian.{f}", None) for f in HAMILTONIAN_FUNCS[1:]],
    ("phasequark.phase_space", "exp_generator", "phase_space.exp_generator", None),
    ("phasequark.phase_space", "verify_su3_table", "phase_space.verify_su3_table", None),
    ("phasequark.phase_space", "pairing", "phase_space.pairing", None),
    ("phasequark.phase_space", "derive_pairing_from_rotation", DERIVE[0], _count_hit),
    ("phasequark.phase_space", "derive_pairing_from_diagonal", DERIVE[1], _count_hit),
    ("phasequark.clifford", "kron3", "clifford.kron3", None),
    ("phasequark.clifford", "kron3_by_index", "clifford.kron3_by_index", None),
    ("phasequark.clifford", "build_C", "clifford.build_C", None),
    ("phasequark.pauli_expr", "parse", "pauli_expr.parse", None),
    ("phasequark.pauli_expr", "PauliExpr.__mul__", "pauli_expr.mul", None),
    ("phasequark.pauli_expr", "PauliExpr.to_matrix", "pauli_expr.to_matrix", None),
    ("phasequark.pauli_expr", "PauliExpr.__str__", "pauli_expr.str", None),
]


class TracedPass:
    """A fixed number of ops of one workload, run under the tracer."""

    def __init__(self, workload, n_ops: int, tally: Tally) -> None:
        self.n = n_ops
        self.tracer = Tracer()
        self.product_terms = 0
        stream = workload.ops()
        ops = [next(stream) for _ in range(n_ops)]
        _warm_up(workload, workload.ops(), WARMUP_OPS[workload.name])
        gc.collect()
        self.op_seconds = 0.0
        with self.tracer.installed(TRACE_TARGETS):
            for op in ops:
                start = time.perf_counter()
                with self.tracer.span("op"):
                    out = workload.run(op, self.tracer)
                self.op_seconds += time.perf_counter() - start
                if tally.record(workload, op, out) and workload.name == "dsl-algebra":
                    self.product_terms += workloads.product_terms(out.value[1])
        self.stats = self.tracer.stats()

    def calls(self, name: str) -> float:
        return self.stats.calls[name] / self.n

    def self_ms(self, *names: str) -> float:
        return sum(self.stats.self_s[n] for n in names) * 1e3 / self.n

    def total_ms(self, name: str) -> float:
        return self.stats.total_s[name] * 1e3 / self.n


def untraced_seconds(workload, n_ops: int, warm: bool) -> float:
    """Op seconds of the traced pass's ops run untraced, after a warm pass if asked.

    The ops take the traced code path (verify-suite's five suites one by
    one) with a NullTracer, so only the tracing differs.
    """
    stream = workload.ops()
    ops = [next(stream) for _ in range(n_ops)]
    for op in ops if warm else ():
        workload.run(op, NullTracer())
    gc.collect()
    total = 0.0
    for op in ops:
        start = time.perf_counter()
        workload.run(op, NullTracer())
        total += time.perf_counter() - start
    return total


def per_layer(name: str, seconds: float, seed: int, workdir: Path, pq,
              tally: Tally) -> tuple[dict, dict]:
    """Each layer is reported from the workload that drives it (README.md)."""
    sizes = {w: max(2, round(seconds * rate)) for w, rate in TRACE_OPS_PER_S.items()}
    made = {}
    for w, cls in workloads.WORKLOADS.items():
        (workdir / w).mkdir()
        made[w] = cls(seed, workdir / w, pq)
    # Untraced before and after the traced passes, so slow drift in machine
    # speed does not pass for tracing overhead.
    plain = untraced_seconds(made[name], sizes[name], warm=True)
    passes = {w: TracedPass(made[w], sizes[w], tally) for w in made}
    plain = (plain + untraced_seconds(made[name], sizes[name], warm=False)) / 2
    v, s, d = passes["verify-suite"], passes["spec-cli"], passes["dsl-algebra"]
    exp_in_derive = v.tracer.descendants_of(set(DERIVE), "phase_space.exp_generator")
    metrics = {
        "cli.build_parser.self_ms": (s.self_ms("cli.build_parser"), "ms"),
        "cli.main.self_ms": (s.self_ms("cli.main"), "ms"),
        "cli.main.exit2": (s.tracer.counts["cli.main.exit2"], "count"),
        "cli.main.uncaught": (s.tracer.counts["cli.main.uncaught"], "count"),
        "serialize.dump_json.self_ms": (s.self_ms("serialize.dump_json"), "ms"),
        "serialize.dump_json.bytes": (s.tracer.counts["serialize.dump_json.bytes"] / s.n, "bytes/op"),
        "serialize.matrix_to_csv.self_ms": (s.self_ms("serialize.matrix_to_csv"), "ms"),
        "serialize.resolve_export.self_ms": (s.self_ms("serialize.resolve_export"), "ms"),
    }
    for f in HAMILTONIAN_FUNCS:
        metrics[f"hamiltonian.{f}.calls"] = (v.calls(f"hamiltonian.{f}"), "calls/op")
        metrics[f"hamiltonian.{f}.self_ms"] = (v.self_ms(f"hamiltonian.{f}"), "ms")
    metrics.update({
        "phase_space.exp_generator.calls": (v.calls("phase_space.exp_generator"), "calls/op"),
        "phase_space.exp_generator.self_ms": (v.self_ms("phase_space.exp_generator"), "ms"),
        "phase_space.verify_su3_table.self_ms": (v.self_ms("phase_space.verify_su3_table"), "ms"),
        "phase_space.pairing.self_ms": (v.self_ms("phase_space.pairing"), "ms"),
        "phase_space.derive_pairing.exp_calls_per_hit": (
            exp_in_derive / max(1, v.tracer.counts["derive_pairing.hits"]), "ratio"),
        "clifford.kron3.calls": (d.calls("clifford.kron3"), "calls/op"),
        "clifford.kron3.self_ms": (d.self_ms("clifford.kron3", "clifford.kron3_by_index"), "ms"),
        "clifford.build_C.calls": (s.calls("clifford.build_C"), "calls/op"),
        "pauli_expr.parse.self_ms": (d.self_ms("pauli_expr.parse"), "ms"),
        "pauli_expr.mul.calls": (d.calls("pauli_expr.mul"), "calls/op"),
        "pauli_expr.mul.self_ms": (d.self_ms("pauli_expr.mul"), "ms"),
        "pauli_expr.to_matrix.self_ms": (d.self_ms("pauli_expr.to_matrix"), "ms"),
        "pauli_expr.str.self_ms": (d.self_ms("pauli_expr.str"), "ms"),
        "pauli_expr.product_terms": (d.product_terms, "count"),
    })
    for suite in workloads.SUITES:
        metrics[f"verify.suite.{suite}.ms"] = (v.total_ms(f"verify.suite.{suite}"), "ms")
    metrics.update({m: (value, "ms") for m, value in import_breakdown(IMPORTTIME_RUNS).items()})
    metrics["trace.overhead_frac"] = (passes[name].op_seconds / plain - 1.0, "ratio")
    probe = edge_probe(made["spec-cli"])
    metrics["cli.edge_probe.mishandled"] = (probe.failed, "count")
    info = {"traced_ops": sizes, "importtime_runs": IMPORTTIME_RUNS, **_probe_info(probe)}
    return metrics, info


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    try:
        pq = load_package()
    except (FileNotFoundError, RuntimeError) as exc:
        print(f"benchmark: {exc}", file=sys.stderr)
        return 2

    tally = Tally()
    with tempfile.TemporaryDirectory(dir=ROOT, prefix=".bench_work_") as tmp:
        workdir = Path(tmp)
        if args.trace:
            metrics, info = per_layer(args.workload, args.seconds, args.seed, workdir, pq, tally)
        else:
            workload = workloads.WORKLOADS[args.workload](args.seed, workdir, pq)
            metrics, info = end_to_end(workload, args.seconds, tally)
            if args.workload == "spec-cli":
                info.update(_probe_info(edge_probe(workload)))

    print(json.dumps({
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(), "numpy": np.__version__,
        "scipy": getattr(sys.modules.get("scipy"), "__version__", None),
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"], **info,
        "failures_by_category": tally.by_category(),
    }))
    for index, edge, message in tally.failures[:5]:
        print(f"failed op {index} ({edge or 'regular'}): {message}")
    print(json.dumps({
        "correct": tally.correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
