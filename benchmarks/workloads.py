"""The three workloads: seeded input streams, the timed op, and its oracle.

Each workload is a closed loop with one client in one process: the next op
starts when the previous one returns.  Inputs come only from the seed, and
phasequark receives nothing but the generated inputs.  Functions of the
package are looked up at call time (``phasequark.run_suite``, ``cli.main``),
so wrappers installed by the tracer are the ones that run.

An op returns an Outcome; an exception escaping the package is caught at
this boundary and recorded in it, because it counts as a failed op.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
from dataclasses import dataclass
from decimal import Decimal
from pathlib import Path

import oracles

__all__ = ["Outcome", "VerifySuite", "SpecCli", "DslAlgebra", "WORKLOADS"]

SUITES = ("su3", "clifford", "rotation", "conjugation", "composite")


@dataclass
class Outcome:
    value: object = None
    error: str | None = None      # exception that escaped the package
    exit_code: int | None = None  # cli ops only


@dataclass
class Op:
    index: int
    data: object
    edge: str | None = None       # category of a deliberately malformed or extreme input


def _op_stream(make, seed: int, name: str):
    rng = random.Random(f"{name}/{seed}")
    index = 0
    while True:
        yield make(rng, index)
        index += 1


# ---------------------------------------------------------------------------
# verify-suite
# ---------------------------------------------------------------------------


class VerifySuite:
    """run_suite("all") plus dump_json, which is what `phasequark verify` does."""

    name = "verify-suite"

    def __init__(self, seed: int, workdir: Path, pq) -> None:
        self.seed, self.pq = seed, pq

    def ops(self):
        return _op_stream(lambda rng, i: Op(i, rng.randrange(2**31)), self.seed, self.name)

    def run(self, op: Op, tracer=None) -> Outcome:
        pq = self.pq
        try:
            if tracer is None:
                report = pq.run_suite("all", seed=op.data)
                return Outcome([pq.serialize.dump_json(report.to_dict())])
            # The traced op runs the five suites one by one, the same work as
            # "all", so each suite gets its own span.
            texts = []
            for suite in SUITES:
                with tracer.span(f"verify.suite.{suite}"):
                    report = pq.run_suite(suite, seed=op.data)
                texts.append(pq.serialize.dump_json(report.to_dict()))
            return Outcome(texts)
        except Exception as exc:
            return Outcome(error=repr(exc))

    def check(self, op: Op, out: Outcome) -> None:
        oracles.require(out.error is None, f"exception escaped: {out.error}")
        for text in out.value:
            payload = oracles.strict_json(text)
            suites = SUITES if payload["suite"] == "all" else (payload["suite"],)
            oracles.check_verify_report(payload, suites)


# ---------------------------------------------------------------------------
# spec-cli
# ---------------------------------------------------------------------------

KINDS = ("Dirac", "ColorR", "ColorY", "ColorB", "AntiR", "AntiY", "AntiB",
         "QuarkSum", "QQbar", "Custom")
EM_KINDS = ("Dirac", "ColorR", "ColorY", "ColorB")
GENERATOR_LABELS = (
    [f"F{i}" for i in range(1, 9)] + ["R", "R1", "R2", "R3"]
    + [f"H{i}" for i in (1, 2, 3)] + [f"J{i}" for i in (1, 2, 3)]
    + [f"G({m},{n})" for m in range(1, 7) for n in range(1, 7) if m != n]
)
PAIRING_TAGS = ("Standard", "R", "Y", "B", "Even(Standard)", "Even(R)", "Even(Y)", "Even(B)")
# Export draws a group first, so 6x6 generators, 8x8 operators and pairings
# get equal shares whatever the number of labels in each.
EXPORT_LABELS = (GENERATOR_LABELS, list(oracles.NAMED_OPERATORS),
                 [f"pairing:{t}" for t in PAIRING_TAGS])
EDGE_EVERY = 20   # every 20th op is an edge input: a fixed 5% share
EDGE_CATEGORIES = ("unknown-kind", "bad-field", "non-finite", "wrong-length", "unknown-label")
# Edge inputs that the CLI mishandles today (ROADMAP item 5).  A timed op
# may not fail, so these stay out of the loop: SpecCli.probe_ops runs each
# of their files once per run and the benchmark reports how many the CLI
# mishandles.
HARDENING_CATEGORIES = ("wrong-type-str", "wrong-type-bool", "extreme")
UNKNOWN_LABEL_ARGV = (
    ["export", "Z9"], ["export", "pairing:Q"], ["export", "G(7,1)"],
    ["transform", "--generator", "F9", "--angle=0.5", "--input=1,2,3,4,5,6"],
    ["transform", "--generator", "G(1,1)", "--angle=0.5", "--input=1,2,3,4,5,6"],
    ["transform", "--pairing", "Even(Q)", "--input=1,2,3,4,5,6"],
    ["transform", "--pairing", "Red", "--input=1,2,3,4,5,6"],
)
SPECS_PER_KIND = 6   # a pool of files per kind; it sets the values drawn, not the mix


def _vec3(rng, lo=-3.0, hi=3.0) -> list[float]:
    return [rng.uniform(lo, hi) for _ in range(3)]


def random_spec(rng: random.Random, kind: str, em: bool = False) -> dict:
    if kind == "Custom":
        return {"kind": kind, "a": _vec3(rng), "b": _vec3(rng),
                "beta": rng.uniform(-3, 3), "scalar": rng.uniform(-3, 3)}
    spec: dict = {"kind": kind, "m": rng.uniform(0, 3)}
    if kind == "QQbar" and rng.random() < 0.5:
        spec.update(P=_vec3(rng), dx=_vec3(rng))
        return spec
    spec["p"] = _vec3(rng)
    if kind != "Dirac":
        spec["x"] = _vec3(rng)
    if kind == "QQbar":
        spec.update(pbar=_vec3(rng), xbar=_vec3(rng))
    if em:
        spec["em"] = {"e": rng.uniform(-2, 2), "A0": rng.uniform(-2, 2), "Avec": _vec3(rng, -2, 2)}
    return spec


def _edge_spec_text(rng: random.Random, category: str) -> tuple[str, dict | None]:
    """(file text, spec for the oracle) of one malformed or extreme spec."""
    # Kinds that conjugate accepts, so a spec fails only for its flaw.
    base = random_spec(rng, rng.choice(("Dirac", "ColorR")))
    if category == "unknown-kind":
        base["kind"] = rng.choice(("Tachyon", "colorR", "Gluon", ""))
    elif category == "bad-field":
        base[rng.choice(("spin", "pbar", "beta"))] = 1.0
    elif category == "non-finite":
        text = json.dumps(base).replace(json.dumps(base["m"]), rng.choice(("1e999", "NaN", "-1e999")), 1)
        return text, None
    elif category == "wrong-length":
        base["p"] = base["p"][: rng.choice((1, 2))] if rng.random() < 0.5 else base["p"] + [1.0]
    elif category == "wrong-type-str":
        key = rng.choice(("m", "p"))
        base[key] = "1" if key == "m" else ["1", "0", "0"]
    elif category == "wrong-type-bool":
        base["m"] = True
    elif category == "extreme":
        spec = rng.choice((
            {"kind": "Dirac", "m": 1e308, "p": [1e308, 0.0, 0.0]},
            {"kind": "Custom", "a": [1e308, 0.0, 0.0], "b": [0.0, 1e308, 0.0],
             "beta": 0.0, "scalar": 0.0},
            {"kind": "ColorR", "m": 1e308, "p": [1e308, 0.0, 0.0], "x": [0.0, 1.0, 1.0]},
        ))
        return json.dumps(spec), spec
    return json.dumps(base), None


def _distinct_magnitudes(rng: random.Random) -> list[float]:
    while True:
        values = [rng.choice((-1, 1)) * rng.uniform(0.1, 5.0) for _ in range(6)]
        if len({abs(v) for v in values}) == 6:
            return values


def _csv6(values: list[float]) -> str:
    return ",".join(repr(v) for v in values)


class SpecCli:
    """In-process `phasequark` CLI calls over a seeded argv mix.

    No record of real use exists to weight the mix by, so every choice is
    even: each regular op draws one of spectrum, conjugate, transform and
    export (25% each), then an even kind, transform mode (generator or
    pairing), export group and format.  Every 20th op is an edge input
    of EDGE_CATEGORIES, which the CLI must reject with exit 2.
    """

    name = "spec-cli"

    def __init__(self, seed: int, workdir: Path, pq) -> None:
        self.seed, self.pq = seed, pq
        rng = random.Random(f"{self.name}-files/{seed}")
        self.specs: dict[str, list[tuple[str, dict]]] = {kind: [] for kind in KINDS}
        self.edge_specs: dict[str, list[tuple[str, dict | None]]] = {}
        count = 0

        def write(text: str) -> str:
            nonlocal count
            path = workdir / f"spec{count:04d}.json"
            path.write_text(text, encoding="utf-8")
            count += 1
            return str(path)

        for kind in KINDS:
            for n in range(SPECS_PER_KIND):
                # Half the files of each EM kind carry a field, half do not.
                spec = random_spec(rng, kind, em=kind in EM_KINDS and n % 2 == 1)
                self.specs[kind].append((write(json.dumps(spec)), spec))
        for category in EDGE_CATEGORIES + HARDENING_CATEGORIES:
            if category != "unknown-label":
                self.edge_specs[category] = [
                    (write(text), spec)
                    for text, spec in (_edge_spec_text(rng, category) for _ in range(4))
                ]

    def _regular(self, rng: random.Random, index: int) -> Op:
        command = rng.choice(("spectrum", "conjugate", "transform", "export"))
        if command == "spectrum":
            path, spec = rng.choice(self.specs[rng.choice(KINDS)])
            return Op(index, (["spectrum", path], ("spectrum", spec)))
        if command == "conjugate":
            path, spec = rng.choice(self.specs[rng.choice(EM_KINDS)])
            return Op(index, (["conjugate", path], ("conjugate", spec)))
        if command == "transform" and rng.random() < 0.5:
            values = [rng.uniform(-5, 5) for _ in range(6)]
            argv = ["transform", "--generator", rng.choice(GENERATOR_LABELS),
                    f"--angle={rng.uniform(-2 * math.pi, 2 * math.pi)!r}",
                    f"--input={_csv6(values)}"]
            return Op(index, (argv, ("generator", values)))
        if command == "transform":
            values = _distinct_magnitudes(rng)
            argv = ["transform", "--pairing", rng.choice(PAIRING_TAGS), f"--input={_csv6(values)}"]
            return Op(index, (argv, ("pairing", values)))
        label, fmt = rng.choice(rng.choice(EXPORT_LABELS)), rng.choice(("json", "csv"))
        return Op(index, (["export", label, "--format", fmt], ("export", label, fmt)))

    def _edge(self, index: int) -> Op:
        # Categories, and the files within one, come in a fixed rotation, so
        # every run has the same share of each whatever the seed.
        turn = index // EDGE_EVERY
        category = EDGE_CATEGORIES[turn % len(EDGE_CATEGORIES)]
        variant = turn // len(EDGE_CATEGORIES)
        if category == "unknown-label":
            argv = UNKNOWN_LABEL_ARGV[variant % len(UNKNOWN_LABEL_ARGV)]
            return Op(index, (argv, ("error",)), edge=category)
        files = self.edge_specs[category]
        path, _ = files[variant % len(files)]
        command = ("spectrum", "conjugate")[variant // len(files) % 2]
        return Op(index, ([command, path], ("error",)), edge=category)

    def probe_ops(self) -> list[Op]:
        """Every file of every hardening category: malformed ones through
        spectrum and conjugate, extreme ones through spectrum."""
        ops = []
        for category in HARDENING_CATEGORIES:
            for path, spec in self.edge_specs[category]:
                if category == "extreme":
                    ops.append(Op(len(ops), (["spectrum", path], ("spectrum", spec)), category))
                    continue
                for command in ("spectrum", "conjugate"):
                    ops.append(Op(len(ops), ([command, path], ("error",)), category))
        return ops

    def ops(self):
        def make(rng, index):
            if index % EDGE_EVERY == EDGE_EVERY - 1:
                return self._edge(index)
            return self._regular(rng, index)
        return _op_stream(make, self.seed, self.name)

    def run(self, op: Op, tracer=None) -> Outcome:
        argv, _ = op.data
        stdout, stderr = io.StringIO(), io.StringIO()
        try:
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                code = self.pq.cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:
            return Outcome(stdout.getvalue(), error=repr(exc))
        return Outcome(stdout.getvalue(), exit_code=code)

    def check(self, op: Op, out: Outcome) -> None:
        _, expect = op.data
        oracles.require(out.error is None, f"exception escaped: {out.error}")
        want_code = 2 if expect[0] == "error" else 0
        oracles.require(out.exit_code == want_code,
                        f"exit code {out.exit_code!r}, expected {want_code}")
        if expect[0] == "export":
            _, label, fmt = expect
            oracles.check_export(label, fmt, out.value)
            return
        payload = oracles.strict_json(out.value)
        if expect[0] == "error":
            oracles.check_error_payload(payload)
        elif expect[0] == "spectrum":
            oracles.check_spectrum(expect[1], payload)
        elif expect[0] == "conjugate":
            oracles.check_conjugate(expect[1], payload)
        elif expect[0] == "generator":
            oracles.check_generator_transform(expect[1], payload)
        else:
            oracles.check_pairing_transform(expect[1], payload)


# ---------------------------------------------------------------------------
# dsl-algebra
# ---------------------------------------------------------------------------

DSL_SYMBOLS = ("p1", "p2", "p3", "x1", "x2", "x3", "m", "e", "A0", "A1v", "A2v", "A3v")
DSL_OPERATORS = ("A1", "A2", "A3", "B", "B1", "B2", "B3", "C", "gamma5")
# Every TAIL_EVERY-th op has 8-16 terms per expression, the others 1-3: a
# fixed 20% tail.  With more than 10% in the tail op_ms_p90 falls inside it
# (near its middle), and with more than 50% small ops op_ms_p50 falls among
# them, so neither percentile sits at the edge between the two.
TAIL_EVERY = 5


def _literal(rng: random.Random) -> tuple[str, complex]:
    """A Gaussian-rational literal in the grammar and its value."""
    def decimal() -> str:
        whole = rng.randrange(4)
        frac = rng.choice(("", ".5", ".25", ".125", ".75"))
        if whole == 0 and not frac:
            whole = 1
        return f"{whole}{frac}"

    form = rng.randrange(4)
    if form == 0:
        text = decimal()
        return text, complex(Decimal(text))
    if form == 1:
        text = decimal()
        return f"{text}i", complex(0, Decimal(text))
    if form == 2:
        return "i", 1j
    re_text, im_text, sign = decimal(), decimal(), rng.choice("+-")
    value = complex(Decimal(re_text), Decimal(im_text) * (1 if sign == "+" else -1))
    return f"({re_text}{sign}{im_text}i)", value


def _term(rng: random.Random) -> tuple[str, tuple]:
    factors, (coeff_text, coeff) = [], _literal(rng)
    if rng.random() < 0.7:
        factors.append(coeff_text)
    else:
        coeff = 1
    symbols = tuple(rng.choice(DSL_SYMBOLS) for _ in range(rng.choice((0, 1, 1, 2))))
    factors.extend(symbols)
    r = rng.random()
    if r < 0.45:
        name = rng.choice(DSL_OPERATORS)
        phase, idx = oracles.NAMED_OPERATORS[name]
        factors.append(name)
    elif r < 0.9:
        idx, phase = (rng.randrange(4), rng.randrange(4), rng.randrange(4)), 1
        factors.append("s%d#s%d#s%d" % idx)
    else:
        idx, phase = (0, 0, 0), 1
    if not factors:
        factors.append("1")
    return "*".join(factors), (coeff, symbols, phase, idx)


def random_expression(rng: random.Random, n_terms: int) -> tuple[str, list[tuple]]:
    parts, terms = [], []
    for position in range(n_terms):
        text, (coeff, symbols, phase, idx) = _term(rng)
        negative = rng.random() < 0.3
        if position == 0:
            parts.append(("-" if negative else "") + text)
        else:
            parts.append((" - " if negative else " + ") + text)
        terms.append((-coeff if negative else coeff, symbols, phase, idx))
    return "".join(parts), terms


def product_terms(canonical: str) -> int:
    """Number of terms in a canonical printed expression."""
    if canonical == "0":
        return 0
    return 1 + canonical.count(" + ") + canonical.count(" - ")


class DslAlgebra:
    """Parse, round-trip, multiply, print and evaluate two random expressions."""

    name = "dsl-algebra"

    def __init__(self, seed: int, workdir: Path, pq) -> None:
        self.seed, self.pq = seed, pq

    def ops(self):
        def make(rng, index):
            band = (8, 16) if index % TAIL_EVERY == TAIL_EVERY - 1 else (1, 3)
            text_a, terms_a = random_expression(rng, rng.randint(*band))
            text_b, terms_b = random_expression(rng, rng.randint(*band))
            values = {s: round(rng.uniform(-2, 2), 6) for s in DSL_SYMBOLS}
            return Op(index, (text_a, terms_a, text_b, terms_b, values))
        return _op_stream(make, self.seed, self.name)

    def run(self, op: Op, tracer=None) -> Outcome:
        text_a, _, text_b, _, values = op.data
        parse = self.pq.parse
        try:
            a, b = parse(text_a), parse(text_b)
            round_trip = parse(str(a)) == a and parse(str(b)) == b
            ab = a * b
            canonical = str(ab)
            mats = (a.to_matrix(values), b.to_matrix(values), ab.to_matrix(values))
        except Exception as exc:
            return Outcome(error=repr(exc))
        return Outcome((round_trip, canonical, mats))

    def check(self, op: Op, out: Outcome) -> None:
        _, terms_a, _, terms_b, values = op.data
        oracles.require(out.error is None, f"exception escaped: {out.error}")
        round_trip, canonical, (mat_a, mat_b, mat_ab) = out.value
        oracles.require(round_trip, "parse(str(e)) != e")
        oracles.require(bool(canonical), "empty canonical form")
        oracles.check_dsl_matrices(terms_a, terms_b, values, mat_a, mat_b, mat_ab)


WORKLOADS = {w.name: w for w in (VerifySuite, SpecCli, DslAlgebra)}
