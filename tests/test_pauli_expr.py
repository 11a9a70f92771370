import copy
import hashlib
import itertools
import math
import os
import pickle
import random
import re
import subprocess
import sys
import warnings
from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from phasequark import clifford as cf
from phasequark import pauli_expr
from phasequark.hamiltonian import HamiltonianSpec, build_hamiltonian
from phasequark.pauli_expr import (
    SYMBOLS,
    ParseError,
    PauliExpr,
    parse,
)

HERE = Path(__file__).parent
CORPUS = [
    line
    for line in (HERE / "data" / "expr_corpus.txt")
    .read_text()
    .splitlines()
    if line.strip()
]
TRIPLES = list(itertools.product(range(4), repeat=3))


# -- exact scalars ----------------------------------------------------------


def _gaussian(real, imag) -> PauliExpr:
    """The scalar real + imag i, built as the DSL builds one: a real part plus i times another."""
    return PauliExpr.from_scalar(real) + PauliExpr.from_scalar(imag) * parse("i")


_PRINTED = [
    (Fraction(1, 2), 0, "0.5"),
    (Fraction(-1, 4), 0, "-0.25"),
    (3, 0, "3"),
    (0, 1, "i"),
    (0, -1, "-i"),
    (0, Fraction(5, 2), "2.5i"),
    (1, 1, "(1+i)"),
    (Fraction(5, 2), Fraction(-1, 2), "(2.5-0.5i)"),
]


def test_literals_parse_exactly():
    assert parse("0.1") == PauliExpr.from_scalar(Fraction(1, 10))
    assert parse("2.5") == PauliExpr.from_scalar(Fraction(5, 2))
    assert parse("1000000") == PauliExpr.from_scalar(10**6)
    assert parse(".25") == PauliExpr.from_scalar(Fraction(1, 4))


@pytest.mark.parametrize("real,imag,text", _PRINTED, ids=[text for *_, text in _PRINTED])
def test_scalar_printing(real, imag, text):
    assert str(_gaussian(real, imag)) == text
    assert parse(text) == _gaussian(real, imag)


_NON_DECIMAL = [Fraction(1, 3), Fraction(-2, 7), Fraction(1, 30), Fraction(7, 2**70 * 3)]


@pytest.mark.parametrize("value", _NON_DECIMAL, ids=str)
def test_non_decimal_scalars_are_rejected(value):
    """The grammar writes no 1/3, so no expression may hold one."""
    e = parse("2*i*p1 + A1")
    builds = [lambda: e * value, lambda: value * e, lambda: PauliExpr.from_scalar(value),
              lambda: PauliExpr({(0, 0, 0): {(): value}}),
              lambda: PauliExpr({(1, 1, 0): {(("p1", 1),): value}})]
    for build in builds:
        with pytest.raises(ValueError, match=re.escape(repr(value))):
            build()


@pytest.mark.parametrize("value", [True, False, 0.5, 1j, Decimal("0.5"), "2", None],
                         ids=repr)
def test_scalars_that_are_not_int_or_fraction_are_type_errors(value):
    with pytest.raises(TypeError, match="exact scalar"):
        parse("A1") * value
    with pytest.raises(TypeError, match="exact scalar"):
        PauliExpr.from_scalar(value)


@given(st.integers(0, 60), st.integers(0, 60), st.sampled_from([1, 3, 7, 9, 11, 2**61 - 1]),
       st.sampled_from([1, -1, 3]))
def test_the_scalar_domain_is_the_decimal_fractions(twos, fives, rest, num):
    value = Fraction(num, 2**twos * 5**fives * rest)
    if value.denominator == 2**twos * 5**fives:  # rest is 1, or num divided it out
        e = PauliExpr.from_scalar(value) * parse("A1")
        assert parse(str(e)) == e
    else:
        with pytest.raises(ValueError, match=re.escape(repr(value))):
            PauliExpr.from_scalar(value)


# -- the two-Fraction coefficient, kept as the reference route ---------------


def _reference_decimal_str(f: Fraction) -> str:
    num, den = f.numerator, f.denominator
    d = den
    digits = 0
    for prime in (2, 5):
        count = 0
        while d % prime == 0:
            d //= prime
            count += 1
        digits = max(digits, count)
    if d != 1:
        return f"{num}/{den}"
    if digits == 0:
        return str(num)
    scaled = abs(num) * 10**digits // den
    sign = "-" if num < 0 else ""
    whole, frac = divmod(scaled, 10**digits)
    frac_str = str(frac).rjust(digits, "0").rstrip("0")
    return f"{sign}{whole}.{frac_str}" if frac_str else f"{sign}{whole}"


@dataclass(frozen=True)
class FractionComplex:
    """Gaussian rational a + b i with exact Fraction components."""

    re: Fraction = Fraction(0)
    im: Fraction = Fraction(0)

    def __add__(self, other):
        return FractionComplex(self.re + other.re, self.im + other.im)

    def __sub__(self, other):
        return FractionComplex(self.re - other.re, self.im - other.im)

    def __mul__(self, other):
        return FractionComplex(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    def __neg__(self):
        return FractionComplex(-self.re, -self.im)

    def times_i_power(self, n):
        return [self, FractionComplex(-self.im, self.re), -self,
                FractionComplex(self.im, -self.re)][n]

    def __complex__(self):
        return complex(float(self.re), float(self.im))

    def __str__(self):
        if self.im == 0:
            return _reference_decimal_str(self.re)
        if self.re == 0:
            if self.im == 1:
                return "i"
            if self.im == -1:
                return "-i"
            return _reference_decimal_str(self.im) + "i"
        im_part = "i" if abs(self.im) == 1 else _reference_decimal_str(abs(self.im)) + "i"
        op = "+" if self.im > 0 else "-"
        return f"({_reference_decimal_str(self.re)}{op}{im_part})"


_DENOMINATORS = st.one_of(
    st.just(1),
    st.builds(lambda a, b: 2**a * 5**b, st.integers(0, 12), st.integers(0, 12)),
)
_RATIONALS = st.builds(Fraction, st.integers(-(2**80), 2**80), _DENOMINATORS)
# small numerators too, so that sums cancel and products reduce
_PARTS = st.one_of(_RATIONALS, st.builds(Fraction, st.integers(-4, 4), _DENOMINATORS))
_GAUSSIAN = st.tuples(_PARTS, _PARTS)


def _both(parts):
    """The triple of real + imag i, built by the triple arithmetic, and its reference."""
    real, imag = parts
    z = pauli_expr._cadd(pauli_expr._from_rational(real),
                         pauli_expr._times_i_power(pauli_expr._from_rational(imag), 1))
    return z, FractionComplex(real, imag)


def _same(z, ref: FractionComplex) -> None:
    a, b, d = z
    assert d > 0 and math.gcd(a, b, d) == 1  # the triple is reduced
    assert (Fraction(a, d), Fraction(b, d)) == (ref.re, ref.im)
    assert pauli_expr._coeff_str(z) == str(ref)


@given(_GAUSSIAN, _GAUSSIAN, st.integers(0, 3))
@example((Fraction(1, 2), Fraction(0)), (Fraction(2), Fraction(0)), 0)  # 2/2 reduces
@example((Fraction(1, 2), Fraction(1, 2)), (Fraction(1, 2), Fraction(-1, 2)), 1)  # (1+i)(1-i)/4
@example((Fraction(1, 10), Fraction(0)), (Fraction(-1, 10), Fraction(3, 8)), 3)  # 1/10 - 1/10
@example((Fraction(1, 2), Fraction(1, 4)), (Fraction(1), Fraction(0)), 0)  # (2, 1, 4): 2/4 is not reduced
@example((Fraction(3, 2**9 * 5**2), Fraction(-7, 2**9 * 5**2)), (Fraction(1, 2**9 * 5**2), Fraction(0)), 2)
# whole part and fraction each under 4300 digits, num * 10^k / den over it
@example((Fraction(10**4000 + 1, 2**2000), Fraction(0)), (Fraction(1, 2), Fraction(1)), 1)
def test_coefficients_match_the_fraction_reference(x_parts, y_parts, n):
    cadd, cmul, times_i_power = pauli_expr._cadd, pauli_expr._cmul, pauli_expr._times_i_power
    (x, rx), (y, ry) = _both(x_parts), _both(y_parts)
    _same(x, rx)
    _same(cadd(x, y), rx + ry)
    _same(cadd(x, times_i_power(y, 2)), rx - ry)
    _same(cmul(x, y), rx * ry)
    _same(times_i_power(x, n), rx.times_i_power(n))
    _same(times_i_power(x, n + 4), rx.times_i_power(n))  # n is read mod 4
    _same(cmul(x, (0, 1, 1)), rx.times_i_power(1))
    assert (x == y) == (rx == ry)
    assert cadd(x, y) == cadd(y, x) and cmul(x, y) == cmul(y, x)
    assert cadd(cmul(x, (2, 0, 1)), times_i_power(x, 2)) == x  # 2x - x reduces back to x
    assert cadd(x, times_i_power(x, 2)) == (0, 0, 1)


def _reference_to_matrix(expr: PauliExpr, values) -> np.ndarray:
    """to_matrix's evaluation with every coefficient taken through FractionComplex."""
    totals = {}
    for (basis, mono), (a, b, d) in sorted(expr._terms.items()):
        val = complex(FractionComplex(Fraction(a, d), Fraction(b, d)))
        for name, power in mono:
            val *= complex(values[name]) ** power
        totals[basis] = totals.get(basis, 0j) + val
    index = [basis for basis, total in totals.items() if total != 0]
    weights = np.array([totals[basis] for basis in index], dtype=complex)
    return (weights @ cf.KRON3_STACK.reshape(64, 64)[index]).reshape(8, 8)


@st.composite
def coefficient_expressions(draw):
    """A sum of up to 6 terms with Gaussian-rational coefficients, times another."""
    def one():
        total = PauliExpr.zero()
        for _ in range(draw(st.integers(1, 6))):
            mono = tuple(sorted(draw(st.dictionaries(
                st.sampled_from(SYMBOLS[:4]), st.integers(1, 2), max_size=2)).items()))
            ijk, (real, imag) = draw(st.sampled_from(TRIPLES)), draw(_GAUSSIAN)
            total += PauliExpr({ijk: {mono: real}}) + PauliExpr({ijk: {mono: imag}}) * parse("i")
        return total
    return one() * one()


@given(coefficient_expressions(), st.integers(0, 2**31 - 1))
def test_to_matrix_matches_the_fraction_reference(expr, seed):
    rng = np.random.default_rng(seed)
    values = {name: float(v) for name, v in zip(SYMBOLS, rng.uniform(-2, 2, size=12))}
    assert np.array_equal(expr.to_matrix(values), _reference_to_matrix(expr, values))


@given(st.from_regex(r"\A(?:[0-9]{1,25}\.[0-9]{0,25}|\.[0-9]{1,25}|[0-9]{1,25})\Z"))
def test_parsed_literals_equal_their_decimal_value(text):
    assert parse(text) == PauliExpr.from_scalar(Fraction(Decimal(text)))
    assert parse(text + "i") == _gaussian(0, Fraction(Decimal(text)))


def test_literal_longer_than_int_string_limit():
    e = parse("1" * 5000)
    assert e == PauliExpr.from_scalar((10**5000 - 1) // 9)
    assert str(e) == "1" * 5000
    assert parse(str(e)) == e
    fractional = parse("-" + "7" * 5000 + "." + "25" * 2500 + "*A1")
    assert str(fractional) == "-" + "7" * 5000 + "." + "25" * 2500 + "*s1#s1#s0"
    assert parse(str(fractional)) == fractional


_LONG_LITERALS = ["1" * 1000, "0." + "5" * 900 + "*A1", "(1+2i)*" + "1" * 1000]


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"), reason="no int digit limit")
def test_printing_holds_under_a_low_int_digit_limit():
    """A child interpreter with int's str() limit at its lowest, 640 digits, prints long
    literals as this one does under its own limit."""
    child = subprocess.run(
        [sys.executable, "-c", "import sys; from phasequark import parse; "
         "print(sys.get_int_max_str_digits(), *map(parse, sys.argv[1:]), sep='\\n')", *_LONG_LITERALS],
        env={**os.environ, "PYTHONINTMAXSTRDIGITS": "640",
             "PYTHONPATH": os.pathsep.join(filter(None, [str(Path(pauli_expr.__file__).parents[1]),
                                                         os.environ.get("PYTHONPATH")]))},
        capture_output=True, text=True, timeout=60)
    assert child.returncode == 0 and not child.stderr, child.stderr
    assert child.stdout == "".join(f"{line}\n" for line in [640, *map(parse, _LONG_LITERALS)])


# -- parsing and canonical printing ----------------------------------------


def test_colored_hamiltonian_canonical_form():
    expr = parse("A1*p1 + B2*x2 + B3*x3 + B*m")
    assert str(expr) == "x2*s0#s2#s2 + x3*s0#s2#s3 + m*s0#s3#s0 + p1*s1#s1#s0"


def test_identity_products_canonicalize_to_one():
    assert str(parse("B*B")) == "1"
    assert str(parse("gamma5*gamma5")) == "1"
    assert parse("A1*A1") == parse("1")


def test_anticommuting_pair_cancels_to_zero():
    assert parse("A1*B1 + B1*A1").is_zero()
    assert str(parse("A1*B1 + B1*A1")) == "0"


def test_pauli_product_phases():
    assert str(parse("A1") * parse("A2")) == "i*s3#s0#s0"
    assert str(parse("A2") * parse("A1")) == "-i*s3#s0#s0"
    assert str(parse("C*C")) == "-1"
    assert str(parse("i*i")) == "-1"


def test_named_operators_match_matrix_builders(literal_operators):
    assert list(cf.OPERATORS) == list(literal_operators)
    for name, matrix in literal_operators.items():
        assert np.array_equal(parse(name).to_matrix(), matrix), name


def test_symbols_commute():
    assert parse("p1*p2*B") == parse("p2*p1*B")
    assert str(parse("e*A0*s0#s0#s0")) == "A0*e"


def test_whitespace_insensitive():
    assert parse(" A1*p1+B *  m ") == parse("A1*p1 + B*m")


def test_leading_minus():
    assert parse("-A1") == -parse("A1")
    assert str(parse("-A1")) == "-s1#s1#s0"


def test_bare_pauli_factor_rejected_with_hint():
    with pytest.raises(ParseError, match="full tensor") as err:
        parse("s1")
    assert err.value.position == 1
    with pytest.raises(ParseError) as err2:
        parse("  s2*A1")
    assert err2.value.position == 3


def test_unknown_name_position():
    with pytest.raises(ParseError, match="unknown name 'foo'") as err:
        parse("A1 + foo")
    assert err.value.position == 6


def test_unexpected_character_position():
    with pytest.raises(ParseError, match="unexpected character") as err:
        parse("A1 $ B")
    assert err.value.position == 4


def test_truncated_input():
    with pytest.raises(ParseError, match="unexpected end of input") as err:
        parse("A1 +")
    assert err.value.position == 5


def test_unbalanced_parenthesis():
    with pytest.raises(ParseError, match="expected '\\)'"):
        parse("(A1 + B")
    with pytest.raises(ParseError, match="unexpected"):
        parse("A1)")


def test_nesting_up_to_the_limit_parses():
    depth = pauli_expr._MAX_DEPTH
    assert parse("(" * 100 + "1" + ")" * 100) == parse("1")
    assert parse("(" * depth + "A1*p1" + ")" * depth) == parse("A1*p1")


@pytest.mark.parametrize("levels", [400, 5000])
def test_deep_nesting_is_a_parse_error(levels):
    depth = pauli_expr._MAX_DEPTH
    with pytest.raises(ParseError, match="nested deeper than") as err:
        parse("(" * levels + "1" + ")" * levels)
    assert err.value.position == depth + 1  # the first '(' past the limit
    with pytest.raises(ParseError) as err:
        parse("2*" + "(" * (depth + 1) + "1" + ")" * (depth + 1))
    assert err.value.position == depth + 3


# -- the finditer tokenizer, kept as the reference route ---------------------

# One match per token with a named group per kind; \d is written [0-9], as the
# grammar's NUMBER is an ASCII decimal literal.
_REFERENCE_TOKEN_RE = re.compile(
    r"""
    (?P<WS>\s+)
  | (?P<TENSOR>s[0-3]\#s[0-3]\#s[0-3])
  | (?P<IMAG>(?:[0-9]+\.[0-9]*|\.[0-9]+|[0-9]+)i(?![A-Za-z0-9_]))
  | (?P<NAME>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<NUMBER>[0-9]+\.[0-9]*|\.[0-9]+|[0-9]+)
  | (?P<OP>[+\-*()])
  | (?P<BAD>.)
    """,
    re.VERBOSE | re.DOTALL,
)


def _reference_tokenize(text: str) -> list[tuple[str, str, int]]:
    """(kind, token, 1-based position) per token, ending with END."""
    tokens = []
    for match in _REFERENCE_TOKEN_RE.finditer(text):
        kind, tok = match.lastgroup, match.group()
        if kind == "BAD":
            raise ParseError(f"unexpected character {tok!r}", match.start() + 1)
        if kind != "WS":
            tokens.append((tok if kind == "OP" else kind, tok, match.start() + 1))
    return tokens + [("END", "", len(text) + 1)]


# the parser's kind of each reference kind: a TENSOR is read as a NAME, an IMAG as a NUMBER
_PARSER_KIND = {"TENSOR": "NAME", "IMAG": "NUMBER"}


class _ReferenceParser(pauli_expr._Parser):
    """The general route: reference tokens and positions, and no literal fast path."""

    __slots__ = ("positions",)

    def __init__(self, text: str):
        tokens = _reference_tokenize(text)
        self.text, self.index, self.depth = text, 0, 0
        self.kinds = [_PARSER_KIND.get(kind, kind) for kind, _, _ in tokens]
        self.tokens = [tok for _, tok, _ in tokens]
        self.positions = [pos for _, _, pos in tokens]

    def error(self, message, at):
        return ParseError(message, self.positions[at])

    def literal(self):
        return None


def _outcome(route, text):
    """route's terms for text, or its ParseError's message and position."""
    try:
        return route(text)
    except ParseError as err:
        return str(err), err.position


def _fast(text):
    return parse(text)._terms


def _general(text):
    return _ReferenceParser(text).parse()


_FACTORS_TEXT = ["A1", "B", "gamma5", "C", "s1#s2#s3", "s0#s0#s0", "i", "2i", "0.5i", ".25", "3", "2.",
                 "0", "p1", "m", "e", "A1v", "(1+2i)", "(-0.5-i)", "(0+0i)", "(2.5-0.125i)", "(1-i)",
                 "(3-1.5)"]
_JUNK = ["(", ")", "*", "+", "s1", "s1#s2", "foo", "_x", "(1+)", ".", "#", "$", "\u0663", "\u00e9",
         "\u00a0", "\t", "ii", "2in", "1.5.5"]
_WELL_FORMED = st.recursive(
    st.sampled_from(_FACTORS_TEXT),
    lambda inner: st.one_of(
        st.tuples(inner, st.sampled_from(["+", "-", "*", " * ", " - "]), inner).map("".join),
        inner.map(lambda text: f"({text})"), inner.map(lambda text: f"(-{text})")),
    max_leaves=12)
# well-formed expressions, the same with one junk fragment inserted, and any text
_TEXTS = st.one_of(
    _WELL_FORMED,
    st.tuples(_WELL_FORMED, st.sampled_from(_JUNK), st.integers(0, 100))
    .map(lambda t: t[0][:t[2]] + t[1] + t[0][t[2]:]),
    st.text(alphabet="sAB0123.#i+-*() \tpmev\u0663$_", max_size=24),
)


@settings(max_examples=400)
@given(_TEXTS)
def test_tokens_and_positions_match_the_reference_tokenizer(text):
    try:
        reference = _reference_tokenize(text)
    except ParseError as err:
        with pytest.raises(ParseError) as got:
            pauli_expr._tokenize(text)
        assert (str(got.value), got.value.position) == (str(err), err.position)
        return
    tokens, kinds = pauli_expr._tokenize(text)
    assert tokens == [tok for _, tok, _ in reference]
    assert kinds == [_PARSER_KIND.get(kind, kind) for kind, _, _ in reference]
    assert [pauli_expr._position(text, n) for n in range(len(tokens))] == [p for *_, p in reference]


@settings(max_examples=400)
@given(_TEXTS)
def test_parse_matches_the_general_route_over_the_reference_tokens(text):
    assert _outcome(_fast, text) == _outcome(_general, text)


_LITERALS = ["(1.5+2i)*A1", "(1.5-2i)*A1", "(-3+0.125i)*p1*B2", "(-0.5-i)", "(2+i)*m", "(0+0i)*B1",
             "(-0-0i)", "(2i+3)", "(1+2)", "(1-2)", "((1+2i))", "2*(0.25-0.75i)*(1+i)*s1#s2#s3", "(1 + 2i)",
             "(1+2i)*(A1 + B)", "-(0.75-1.5i)*s3#s0#s2 + (0.25+i)*B", "(1+2i", "(1+2i)(", "(1+)"]


@pytest.mark.parametrize("text", _LITERALS)
def test_literal_fast_path_matches_the_general_route(text):
    assert _outcome(_fast, text) == _outcome(_general, text)


def test_malformed_literals_are_the_general_route_errors():
    assert _outcome(_fast, "(1+2i") == ("parse error at position 6: expected ')'", 6)
    assert _outcome(_fast, "(1+2i)(") == ("parse error at position 7: unexpected '('", 7)
    assert _outcome(_fast, "(1+)") == ("parse error at position 4: expected a factor, got ')'", 4)


def test_printed_literals_skip_the_sub_expression(monkeypatch):
    def refuse(self):
        raise AssertionError("a Gaussian literal was parsed as a sub-expression")

    expected = _general("(-3+0.125i)*p1*B2 - (1.5-i)*A1 + (0+0i)*B1")
    monkeypatch.setattr(pauli_expr._Parser, "parenthesised", refuse)
    assert _fast("(-3+0.125i)*p1*B2 - (1.5-i)*A1 + (0+0i)*B1") == expected
    assert parse("(0+0i)*B1").is_zero()


def test_literal_nesting_limit():
    depth = pauli_expr._MAX_DEPTH
    deepest = "(" * (depth - 1) + "(1+2i)" + ")" * (depth - 1)
    assert _outcome(_fast, deepest) == _outcome(_general, deepest) == parse("(1+2i)")._terms
    too_deep = "(" * depth + "(1+2i)" + ")" * depth
    message = f"parse error at position {depth + 1}: parentheses nested deeper than {depth}"
    assert _outcome(_fast, too_deep) == _outcome(_general, too_deep) == (message, depth + 1)


@pytest.mark.parametrize("text,position",
                         [("\u0663*B1", 1), ("\u0663i", 1), ("2\u0663", 2), ("A1 + \u0663", 6)])
def test_non_ascii_digits_are_unexpected_characters(text, position):
    with pytest.raises(ParseError, match="unexpected character '\u0663'") as err:
        parse(text)
    assert err.value.position == position


def test_unicode_whitespace_separates_tokens():
    assert parse("\u00a0A1\u2003+\u3000B\n") == parse("A1 + B")


def test_the_sort_cache_changes_no_copy_or_comparison():
    e = parse("(1+i)*A1*p1 - 0.5*B + m*m*s3#s3#s3 + 2")
    blank = pickle.dumps(e)
    values = {"p1": 0.5, "m": -1.25}
    text, matrix = str(e), e.to_matrix(values)
    assert pickle.dumps(e) == blank
    for twin in (copy.deepcopy(e), copy.copy(e), pickle.loads(blank)):
        assert twin == e and hash(twin) == hash(e)
        assert str(twin) == text and np.array_equal(twin.to_matrix(values), matrix)


def test_corpus_round_trips():
    assert len(CORPUS) == 55
    for text in CORPUS:
        expr = parse(text)
        printed = str(expr)
        again = parse(printed)
        assert again == expr, text
        assert str(again) == printed, text


def test_corpus_canonical_forms_match_golden():
    """str(e) and str(e * e) of every corpus line, tab-separated, byte for byte."""
    got = "".join(f"{parse(text)}\t{parse(text) * parse(text)}\n" for text in CORPUS)
    assert got == (HERE / "golden" / "expr_corpus_canonical.txt").read_text()


def _fingerprint_corpus(count: int = 2000) -> list[str]:
    """count expressions of 1-16 terms: Gaussian decimal coefficients, tensors, named
    operators and symbols (a repeated symbol is a power); every 50th holds a literal of
    1000-5000 digits."""
    rng = random.Random(1729)
    names = ["A1", "A2", "A3", "B", "B1", "B2", "B3", "C", "gamma5", "gammaR5", "gammaY5", "gammaB5",
             *(f"s{i}#s{j}#s{k}" for i, j, k in TRIPLES)]

    def number(big: bool) -> str:
        digits = "".join(rng.choices("0123456789", k=rng.randint(1000, 5000) if big else rng.randint(1, 4)))
        point = rng.randint(0, len(digits))
        return digits if point == len(digits) else f"{digits[:point]}.{digits[point:]}"

    def coefficient(big: bool) -> str:
        shape = rng.randrange(4)
        if shape == 0:
            return number(big)
        if shape == 1:
            return number(big) + "i"
        return f"({'-' if rng.random() < 0.5 else ''}{number(big)}{rng.choice('+-')}{number(False)}i)"

    def term(big: bool) -> str:
        factors = [coefficient(big)] if big or rng.random() < 0.8 else []
        factors += rng.choices(names, k=rng.randint(0, 2))
        for name in rng.sample(SYMBOLS, rng.randint(0, 3)):
            factors += [name] * rng.randint(1, 3)
        rng.shuffle(factors)
        return "*".join(factors) or "1"

    corpus = []
    for n in range(count):
        size = rng.randint(1, 16)
        big = rng.randrange(size) if n % 50 == 49 else -1  # the term with the long literal
        terms = [term(k == big) for k in range(size)]
        corpus.append("".join(f" {rng.choice('+-')} {t}" if k else t for k, t in enumerate(terms)))
    return corpus


def _fingerprints(corpus: list[str]) -> list[str]:
    """The SHA-256 of str(e), str(e * e) and str(e + f), f the next expression, per block of 100."""
    exprs = [parse(text) for text in corpus]
    blocks = []
    for start in range(0, len(exprs), 100):
        digest = hashlib.sha256()
        for n in range(start, min(start + 100, len(exprs))):
            e, f = exprs[n], exprs[(n + 1) % len(exprs)]
            digest.update(f"{e}\t{e * e}\t{e + f}\n".encode())
        blocks.append(digest.hexdigest())
    return blocks


def test_printed_forms_match_the_fingerprint_golden():
    """The printed forms of 2000 generated expressions, hashed per block of 100, equal
    the golden written by this same code when it was added, so a printer or arithmetic
    change that moves one byte fails here, naming the first block that moved."""
    corpus = _fingerprint_corpus()
    assert sum(len(text) > 1000 for text in corpus) == 40
    golden = (HERE / "golden" / "expr_fingerprint.txt").read_text().split()
    got = _fingerprints(corpus)
    moved = [n for n, (a, b) in enumerate(zip(got, golden)) if a != b]
    assert not moved and len(got) == len(golden), (
        f"block {moved[0]} (expressions {100 * moved[0]}-{100 * moved[0] + 99}) prints differently"
        if moved else f"{len(got)} blocks, golden has {len(golden)}")


# -- the constructor --------------------------------------------------------

# a decimal denominator 2^a 5^b, so that every coefficient prints as parse reads it
_DECIMAL_FRACTIONS = st.builds(lambda n, a, b: Fraction(n, 2**a * 5**b),
                               st.integers(-50, 50), st.integers(0, 3), st.integers(0, 3))
_SCALARS = st.one_of(st.integers(-5, 5), _DECIMAL_FRACTIONS)
# (symbol, power) pairs in any order, a symbol possibly more than once
_FACTORS = st.lists(st.tuples(st.sampled_from(SYMBOLS[:4]), st.integers(1, 2)), max_size=3)


@given(st.dictionaries(st.sampled_from(TRIPLES),
                       st.dictionaries(_FACTORS.map(tuple), _SCALARS, max_size=3), max_size=4))
def test_constructor_built_expressions_round_trip(terms):
    e = PauliExpr(terms)
    again = parse(str(e))
    assert again == e and hash(again) == hash(e)
    built = PauliExpr.zero()
    for ijk, poly in terms.items():
        for mono, value in poly.items():
            term = PauliExpr.from_scalar(value) * PauliExpr.from_basis(*ijk)
            for name, power in mono:
                for _ in range(power):
                    term = term * PauliExpr.from_symbol(name)
            built = built + term
    assert built == e and hash(built) == hash(e)


_REJECTED = [
    ({(0, 0, 4): {(): 1}}, ValueError),
    ({(0, 0, -1): {(): 1}}, ValueError),
    ({(1.0, 0, 0): {(): 1}}, ValueError),
    ({(1, 0): {(): 1}}, ValueError),
    ({(1, 0, 0): {(("zz", 1),): 1}}, ValueError),
    ({(1, 0, 0): {(("p1", 0),): 1}}, ValueError),
    ({(1, 0, 0): {(("p1", 1.0),): 1}}, ValueError),
    ({(1, 0, 0): {"": 1}}, TypeError),
    ({(1, 0, 0): {(): True}}, TypeError),
    ({(1, 0, 0): [1]}, TypeError),
]


@pytest.mark.parametrize("terms,error", _REJECTED, ids=[repr(t) for t, _ in _REJECTED])
def test_constructor_rejects_malformed_terms(terms, error):
    with pytest.raises(error):
        PauliExpr(terms)


def _pairs(items):
    return st.tuples(items, items)


# every way to build an expression: the constructor and the DSL at the leaves
# (the DSL is the only source of i), then +, -, * and * by an int or decimal Fraction
_BUILT = st.recursive(
    st.one_of(
        st.dictionaries(st.sampled_from(TRIPLES),
                        st.dictionaries(_FACTORS.map(tuple), _SCALARS, max_size=2),
                        max_size=2).map(PauliExpr),
        st.sampled_from(["i", "1.5i", "(0.5-2i)*A1", "-0.25i*p1*B2", "gamma5", "C*x3"]).map(parse),
    ),
    lambda inner: st.one_of(
        _pairs(inner).map(lambda t: t[0] + t[1]),
        _pairs(inner).map(lambda t: t[0] - t[1]),
        _pairs(inner).map(lambda t: t[0] * t[1]),
        st.tuples(inner, _SCALARS).map(lambda t: t[0] * t[1]),
        st.tuples(_SCALARS, inner).map(lambda t: t[0] * t[1]),
    ),
    max_leaves=5,
)


@settings(derandomize=True, max_examples=300)
@given(_BUILT)
def test_built_expressions_round_trip(e):
    printed = str(e)
    assert parse(printed) == e
    assert str(parse(printed)) == printed


@pytest.mark.parametrize("other", [1, 0, Fraction(1, 2), 0.5, "A1", None], ids=repr)
def test_adding_a_non_expression_is_a_type_error(other):
    e = parse("A1")
    for combine in (lambda: e + other, lambda: e - other, lambda: other + e, lambda: other - e):
        with pytest.raises(TypeError):
            combine()


# -- evaluation -------------------------------------------------------------


def test_product_table_matches_matrix_products():
    """All 64 x 64 unit tensor products against kron3 matrix products."""
    for a in TRIPLES:
        left = PauliExpr.from_basis(*a)
        for b in TRIPLES:
            got = (left * PauliExpr.from_basis(*b)).to_matrix()
            want = cf.kron3_by_index(*a) @ cf.kron3_by_index(*b)
            assert np.array_equal(got, want), (a, b)


def test_to_matrix_matches_hamiltonian_builder():
    expr = parse("A1*p1 + B2*x2 + B3*x3 + B*m")
    numeric = expr.to_matrix({"p1": 1.0, "x2": 2.0, "x3": 3.0, "m": 5.0})
    built = build_hamiltonian(
        HamiltonianSpec(kind="ColorR", p=(1, 0, 0), x=(0, 2, 3), m=5)
    )
    assert np.array_equal(numeric, built)


def test_mass_law_through_the_dsl():
    """(A.p + 2 B.x + 3 m B)^2 = p^2 + 4 x^2 + 9 m^2, exactly, and the DSL's
    matrix of the quark sum is the Hamiltonian builder's at a dyadic point."""
    q = parse("A1*p1 + A2*p2 + A3*p3 + 2*B1*x1 + 2*B2*x2 + 2*B3*x3 + 3*m*B")
    assert str(q * q) == "9*m*m + p1*p1 + p2*p2 + p3*p3 + 4*x1*x1 + 4*x2*x2 + 4*x3*x3"
    p, x, m = (0.5, -1.25, 2.0), (0.75, -0.5, 1.5), 1.25
    values = {"m": m, **dict(zip(("p1", "p2", "p3"), p)), **dict(zip(("x1", "x2", "x3"), x))}
    built = build_hamiltonian(HamiltonianSpec(kind="QuarkSum", p=p, x=x, m=m))
    assert np.array_equal(q.to_matrix(values), built)
    lam = sum(v * v for v in p) + 4 * sum(v * v for v in x) + 9 * m * m
    assert np.array_equal((q * q).to_matrix(values), lam * np.eye(8))


def test_to_matrix_literal_scaling():
    assert np.array_equal(parse("i*A2").to_matrix(), 1j * cf.named_operator("A2"))
    assert np.array_equal(parse("0").to_matrix(), np.zeros((8, 8)))


def test_equal_expressions_give_bit_identical_matrices():
    a, b = parse("A1*p1 + A1*x1 + A1*m"), parse("A1*m + A1*x1 + A1*p1")
    assert a == b and hash(a) == hash(b)
    values = {"p1": 1e16, "x1": 1.0, "m": 1.0}
    assert a.to_matrix(values).tobytes() == b.to_matrix(values).tobytes()


def test_to_matrix_requires_bindings():
    with pytest.raises(ValueError, match="m, p1"):
        parse("A1*p1 + B*m").to_matrix({})


@pytest.mark.parametrize("value", ["2", b"2", True, False, np.bool_(True), None, [1], object()],
                         ids=lambda v: "object()" if type(v) is object else repr(v))
def test_to_matrix_takes_only_numbers(value):
    """complex() reads '2' and True, but neither is a number; what it cannot read is named too."""
    with pytest.raises(TypeError, match="symbol p1 needs a number"):
        parse("A1*p1 + B*m").to_matrix({"p1": value, "m": 1.0})


@pytest.mark.parametrize("value", [2, 2.0, 2 + 0j, Fraction(2), Decimal(2), np.float64(2),
                                   np.int64(2), np.complex128(2)], ids=repr)
def test_to_matrix_takes_any_number(value):
    assert np.array_equal(parse("A1*p1").to_matrix({"p1": value}), 2 * cf.named_operator("A1"))


@pytest.mark.parametrize("text,values,named", [
    ("A1*p1", {"p1": 10**400}, "symbol p1"),  # complex() overflows
    ("A1*p1*p1", {"p1": 1e200}, "s1#s1#s0"),  # the power overflows
    ("A1*p1", {"p1": math.inf}, "s1#s1#s0"),
    ("A1*p1*x1", {"p1": 1e200, "x1": 1e200}, "s1#s1#s0"),  # the product overflows
    ("B + A1*p1 + A2", {"p1": math.nan}, "s1#s1#s0"),  # the other sums stay finite
    ("A1*p1", {"p1": Decimal("1e400")}, "s1#s1#s0"),  # complex() reads it as inf
    ("1" + "0" * 400 + "*A1", {}, "s1#s1#s0"),  # the coefficient overflows
    ("B*p1 + x1", {"p1": 1e308, "x1": 1e308}, "s0#s0#s0 + s0#s3#s0"),  # finite sums meet on the diagonal
], ids=["int-past-float64", "power", "inf", "product", "nan", "decimal-past-float64",
        "coefficient", "matrix-entry"])
def test_to_matrix_names_the_value_or_the_tensor_that_is_not_finite(text, values, named):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no NumPy warning either
        with pytest.raises(ValueError, match=re.escape(named)):
            parse(text).to_matrix(values)


def test_to_matrix_keeps_large_sums_that_share_no_entry():
    # A1 is off-diagonal and B diagonal, so each entry holds at most one of the two sums
    matrix = parse("A1*p1 + B*x1").to_matrix({"p1": 1e308, "x1": -1e308})
    assert np.array_equal(matrix, 1e308 * (cf.named_operator("A1") - cf.named_operator("B")))


def test_anticommutator_and_commutator_from_products():
    g5, b, a1, a2 = parse("gamma5"), parse("B"), parse("A1"), parse("A2")
    assert (g5 * b + b * g5).is_zero()
    assert (a1 * a1 - a1 * a1).is_zero()
    assert not (a1 * a2 - a2 * a1).is_zero()


# -- randomized properties ---------------------------------------------------

_ATOMS = (
    [f"s{i}#s{j}#s{k}" for i, j, k in [(0, 1, 2), (3, 3, 3), (1, 0, 2), (2, 2, 0)]]
    + list(cf.OPERATORS)
    + list(SYMBOLS[:8])
    + ["2", "0.5", "i", "1.5i"]
)


@st.composite
def expressions(draw):
    n_terms = draw(st.integers(min_value=1, max_value=3))
    parts = []
    for _ in range(n_terms):
        n_factors = draw(st.integers(min_value=1, max_value=3))
        factors = [draw(st.sampled_from(_ATOMS)) for _ in range(n_factors)]
        parts.append("(" + "*".join(factors) + ")")
    sign = draw(st.sampled_from(["", "-"]))
    ops = [draw(st.sampled_from([" + ", " - "])) for _ in range(n_terms - 1)]
    text = sign + parts[0]
    for op, part in zip(ops, parts[1:]):
        text += op + part
    return parse(text)


_FACTOR_ATOMS = ["A1", "A2", "B1", "C", "gamma5", "s1#s2#s3", "s3#s0#s1", "p1", "x2", "m",
                 "2", "0.5", "1.5i", "i", "(1-0.25i)"]


@st.composite
def mixed_sums(draw, depth=2):
    """(text, left-to-right value) of a sum of products whose factors are
    atoms or parenthesised sums, the value built with PauliExpr's operators."""
    text, value = "", None
    for position in range(draw(st.integers(1, 3))):
        factors = []
        for _ in range(draw(st.integers(1, 4))):
            if depth and draw(st.booleans()):
                inner_text, inner = draw(mixed_sums(depth - 1))
                factors.append(("(" + inner_text + ")", inner))
            else:
                atom = draw(st.sampled_from(_FACTOR_ATOMS))
                factors.append((atom, parse(atom)))
        product = factors[0][1]
        for _, factor in factors[1:]:
            product = product * factor
        minus = draw(st.booleans())
        op = ("-" if minus else "") if position == 0 else (" - " if minus else " + ")
        text += op + "*".join(t for t, _ in factors)
        if value is None:
            value = -product if minus else product
        else:
            value = value - product if minus else value + product
    return text, value


@given(mixed_sums(), st.integers(0, 2**31 - 1))
def test_parse_multiplies_factors_left_to_right(case, seed):
    text, want = case
    got = parse(text)
    assert got == want, text
    values = {name: float(v) for name, v in zip(SYMBOLS, np.random.default_rng(seed).uniform(-2, 2, 12))}
    assert np.array_equal(got.to_matrix(values), want.to_matrix(values)), text


@given(expressions())
def test_print_parse_round_trip(expr):
    assert parse(str(expr)) == expr


@given(expressions(), expressions(), st.integers(min_value=0, max_value=2**31 - 1))
def test_symbolic_numeric_homomorphism(a, b, seed):
    rng = np.random.default_rng(seed)
    bindings = {name: float(v) for name, v in zip(SYMBOLS, rng.uniform(-2, 2, size=12))}
    lhs = (a * b).to_matrix(bindings)
    rhs = a.to_matrix(bindings) @ b.to_matrix(bindings)
    assert np.abs(lhs - rhs).max() <= 1e-12


_DECIMALS = st.sampled_from(["1", "2", "0.5", "0.25", "1.125", "3.75"])


@st.composite
def literal_terms(draw):
    """(text, coefficient, symbols, tensor triple) of one literal term."""
    re_text, im_text = draw(_DECIMALS), draw(_DECIMALS)
    text, coeff = draw(st.sampled_from([
        (re_text, float(re_text)),
        (f"{im_text}i", 1j * float(im_text)),
        (f"({re_text}-{im_text}i)", complex(float(re_text), -float(im_text))),
    ]))
    symbols = draw(st.lists(st.sampled_from(SYMBOLS), max_size=3))
    ijk = draw(st.sampled_from(TRIPLES))
    return "*".join([text, *symbols, "s%d#s%d#s%d" % ijk]), coeff, symbols, ijk


@given(st.lists(literal_terms(), min_size=1, max_size=16),
       st.integers(min_value=0, max_value=2**31 - 1))
def test_to_matrix_matches_literal_kron3_sum(terms, seed):
    rng = np.random.default_rng(seed)
    bindings = {name: float(v) for name, v in zip(SYMBOLS, rng.uniform(-2, 2, size=12))}
    want = np.zeros((8, 8), dtype=complex)
    for _, coeff, symbols, (i, j, k) in terms:
        for name in symbols:
            coeff *= bindings[name]
        want += coeff * cf.kron3(cf.PAULI[i], cf.PAULI[j], cf.PAULI[k])
    got = parse(" + ".join(text for text, *_ in terms)).to_matrix(bindings)
    assert np.abs(got - want).max() <= 1e-12 * max(1.0, float(np.abs(want).max()))


@given(expressions(), expressions(), expressions())
def test_multiplication_associativity(a, b, c):
    assert (a * b) * c == a * (b * c)


@given(expressions(), expressions())
def test_addition_commutes(a, b):
    assert a + b == b + a


def test_scalar_multiplication():
    e = parse("A1")
    assert 2 * e == parse("2*A1")
    assert e * Fraction(1, 2) == parse("0.5*A1")
    assert -1 * e == -e


def test_constructors_and_dunders_outside_the_grammar():
    with pytest.raises(ValueError, match="unknown symbol 'q'; known symbols"):
        PauliExpr.from_symbol("q")
    with pytest.raises(TypeError, match="expression must be a string"):
        parse(5)
    assert (parse("A1") == 1) is False  # not equal, rather than an error
    assert repr(parse("A1")) == "PauliExpr(s1#s1#s0)"
