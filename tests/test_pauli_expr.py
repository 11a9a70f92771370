import itertools
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

from phasequark import clifford as cf
from phasequark.hamiltonian import HamiltonianSpec, build_hamiltonian
from phasequark.pauli_expr import (
    NAMED_OPERATORS,
    SYMBOLS,
    ExactComplex,
    ParseError,
    PauliExpr,
    anticommutator_expr,
    commutator_expr,
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


def test_literals_parse_exactly():
    assert ExactComplex.from_literal("0.1").re == Fraction(1, 10)
    assert ExactComplex.from_literal("2.5").re == Fraction(5, 2)
    assert ExactComplex.from_literal("1000000").re == 10**6
    assert ExactComplex.from_literal(".25").re == Fraction(1, 4)


@pytest.mark.parametrize(
    "value,text",
    [
        (ExactComplex(Fraction(1, 2)), "0.5"),
        (ExactComplex(Fraction(-1, 4)), "-0.25"),
        (ExactComplex(Fraction(3)), "3"),
        (ExactComplex(Fraction(0), Fraction(1)), "i"),
        (ExactComplex(Fraction(0), Fraction(-1)), "-i"),
        (ExactComplex(Fraction(0), Fraction(5, 2)), "2.5i"),
        (ExactComplex(Fraction(1), Fraction(1)), "(1+i)"),
        (ExactComplex(Fraction(5, 2), Fraction(-1, 2)), "(2.5-0.5i)"),
        (ExactComplex(Fraction(1, 3)), "1/3"),  # non-decimal fallback
    ],
)
def test_exact_complex_printing(value, text):
    assert str(value) == text


def test_exact_complex_arithmetic():
    i = ExactComplex.unit_i()
    assert i * i == ExactComplex(Fraction(-1))
    a = ExactComplex(Fraction(1, 2), Fraction(3))
    b = ExactComplex(Fraction(2), Fraction(-1))
    assert a + b == ExactComplex(Fraction(5, 2), Fraction(2))
    assert a * b == ExactComplex(Fraction(4), Fraction(11, 2))
    assert complex(a) == 0.5 + 3j


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


def test_named_operators_match_matrix_builders():
    builders = {
        "A1": cf.build_A(1),
        "A2": cf.build_A(2),
        "A3": cf.build_A(3),
        "B": cf.build_B(),
        "B1": cf.build_Bk(1),
        "B2": cf.build_Bk(2),
        "B3": cf.build_Bk(3),
        "C": cf.build_C(),
        "gamma5": cf.build_gamma5(),
    }
    for name, matrix in builders.items():
        assert np.array_equal(NAMED_OPERATORS[name].to_matrix(), matrix), name


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


def test_corpus_round_trips():
    assert len(CORPUS) == 50
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


def test_to_matrix_literal_scaling():
    assert np.array_equal(parse("i*A2").to_matrix(), 1j * cf.build_A(2))
    assert np.array_equal(parse("0").to_matrix(), np.zeros((8, 8)))


def test_to_matrix_requires_bindings():
    with pytest.raises(ValueError, match="m, p1"):
        parse("A1*p1 + B*m").to_matrix({})


def test_anticommutator_and_commutator_helpers():
    assert anticommutator_expr(parse("gamma5"), parse("B")).is_zero()
    assert commutator_expr(parse("A1"), parse("A1")).is_zero()
    assert not commutator_expr(parse("A1"), parse("A2")).is_zero()


# -- randomized properties ---------------------------------------------------

_ATOMS = (
    [f"s{i}#s{j}#s{k}" for i, j, k in [(0, 1, 2), (3, 3, 3), (1, 0, 2), (2, 2, 0)]]
    + list(NAMED_OPERATORS)
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
