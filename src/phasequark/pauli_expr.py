"""Exact symbolic algebra over three-fold Pauli tensor products.

An expression is a linear combination of basis elements ``si#sj#sk``
(i, j, k in 0..3, meaning kron(sigma_i, sigma_j, sigma_k)) whose
coefficients are polynomials in a fixed set of real symbols with Gaussian
rational (exact complex) coefficients.  Products, commutators and
anticommutators are exact — no floating point is involved until
:meth:`PauliExpr.to_matrix`.

Representation: an expression is one dict from (tensor index, monomial)
to a nonzero coefficient.  The index of si#sj#sk is 16 i + 4 j + k, whose
order is that of the (i, j, k) triples; a monomial is a tuple of (symbol,
power) pairs sorted by symbol, built only by ``_monomial``.  With the
two-bit codes I = 0, X = 1, Y = 2, Z = 3 a single-factor product is
sigma_a sigma_b = i^e(a, b) sigma_(a xor b), the (x|z) bit form of
Aaronson & Gottesman, "Improved simulation of stabilizer circuits"
(arXiv:quant-ph/0406196).  Factor by factor, the product of two tensors is

    T_a T_b = i^n T_c,   c = a xor b,   n = sum of the three e's mod 4,

and ``_PHASE[a][b] = n`` tabulates all 64 x 64 pairs.  A coefficient is
one reduced triple of Python ints ``(a, b, d)``, meaning (a + b i) / d
with d > 0 and gcd(a, b, d) = 1, so equal numbers have equal triples.
Multiplying two expressions costs one XOR, one table lookup and one
coefficient product per pair of terms; the factor i^n is a swap and/or
negation of (a, b).  :meth:`PauliExpr.to_matrix` takes each coefficient
as ``complex(a / d, b / d)`` (int true division is correctly rounded),
sums each tensor's terms in canonical order and contracts the sums
against ``clifford.KRON3_STACK`` in one matmul.

Grammar (whitespace insensitive)::

    expr    := ['-'] term (('+'|'-') term)*
    term    := factor ('*' factor)*
    factor  := TENSOR | NAME | NUMBER | IMAG | 'i' | '(' expr ')'
    TENSOR  := s[0-3]#s[0-3]#s[0-3]
    NUMBER  := decimal literal, e.g. 2, 0.5, .25   (parsed exactly)
    IMAG    := decimal literal directly suffixed with i, e.g. 0.5i

NAME is either a named operator of clifford.OPERATORS (A1 A2 A3 B B1 B2
B3 C gamma5 gammaR5 gammaY5 gammaB5) or a symbol (p1 p2 p3 x1 x2 x3 m e
A0 A1v A2v A3v).  A bare Pauli factor such as ``s1`` is rejected with a
hint to write the full tensor form, and parentheses nest at most
``_MAX_DEPTH`` deep.  The parser multiplies the scalar, symbol and tensor
factors of a term into one (coefficient, monomial, tensor) triple and
builds a general product only at a parenthesised factor.

Scalars are the numbers the grammar writes: with no division and decimal
literals, the Gaussian rationals whose denominators are 2^a 5^b, a set
closed under + and *, so every coefficient prints as an exact decimal.
Scalar ``*`` and the constructors take an int or such a Fraction and raise
ValueError for any other (``Fraction(1, 3)``); a complex scalar is written
in the DSL, as ``parse("0.5 - 2i")`` or ``e * parse("i")``.

Canonical form: terms are sorted by tensor index triple, then by
monomial; unit coefficients and the identity tensor ``s0#s0#s0`` are
omitted when anything else identifies the term (so ``B*B`` prints as
``1`` and ``m`` prints as ``m``).  ``parse(str(e))`` returns an
expression equal to ``e``.
"""

from __future__ import annotations

import cmath
import re
from decimal import Decimal
from fractions import Fraction
from math import gcd
from typing import Mapping

import numpy as np

from .clifford import KRON3_STACK, OPERATORS

__all__ = [
    "PauliExpr",
    "ParseError",
    "parse",
    "anticommutator_expr",
    "commutator_expr",
    "SYMBOLS",
    "NAMED_OPERATORS",
]

SYMBOLS = ("p1", "p2", "p3", "x1", "x2", "x3", "m", "e", "A0", "A1v", "A2v", "A3v")


# ---------------------------------------------------------------------------
# Exact complex numbers: reduced triples (a, b, d) = (a + b i) / d
# ---------------------------------------------------------------------------

Coeff = tuple[int, int, int]
_ONE: Coeff = (1, 0, 1)


def _reduced(a: int, b: int, d: int) -> Coeff:
    """(a, b, d) divided by gcd(a, b, d); d must be > 0."""
    g = gcd(a, b, d)
    return (a // g, b // g, d // g) if g != 1 else (a, b, d)


def _cadd(x: Coeff, y: Coeff) -> Coeff:
    a1, b1, d1 = x
    a2, b2, d2 = y
    if d1 == d2:
        if d1 == 1:
            return (a1 + a2, b1 + b2, 1)
        return _reduced(a1 + a2, b1 + b2, d1)
    return _reduced(a1 * d2 + a2 * d1, b1 * d2 + b2 * d1, d1 * d2)


def _cmul(x: Coeff, y: Coeff) -> Coeff:
    a1, b1, d1 = x
    a2, b2, d2 = y
    if b1 or b2:
        a, b = a1 * a2 - b1 * b2, a1 * b2 + b1 * a2
    else:
        a, b = a1 * a2, 0
    if d1 == 1 and d2 == 1:
        return (a, b, 1)
    return _reduced(a, b, d1 * d2)


def _times_i_power(z: Coeff, n: int) -> Coeff:
    """z * i**n for n mod 4, by a swap and/or negation of (a, b)."""
    a, b, d = z
    n &= 3
    if n == 0:
        return z
    if n == 1:
        return (-b, a, d)
    if n == 2:
        return (-a, -b, d)
    return (b, -a, d)


def _from_rational(value: int | Fraction) -> Coeff:
    """An exact scalar (see Scalars in the module docstring) as a coefficient."""
    if not isinstance(value, (int, Fraction)) or isinstance(value, bool):
        raise TypeError(f"cannot use {type(value).__name__} as an exact scalar")
    den = value.denominator
    # 2^a 5^b divides 10^k once k >= a, b, as k = den.bit_length() is; no other den does
    if 10 ** den.bit_length() % den:
        raise ValueError(f"cannot use {value!r} as an exact scalar: "
                         "its denominator is not 2^a 5^b, so no decimal writes it")
    return (value.numerator, 0, den)


def _decimal_str(num: int, den: int) -> str:
    """num/den, with den = 2^a 5^b, as an exact decimal.

    num/den must be reduced with den > 0; then the last decimal digit is
    nonzero, so the digits need no trimming.
    """
    if den == 1:
        return _int_str(num)
    twos = (den & -den).bit_length() - 1
    rest, fives = den >> twos, 0
    while rest % 5 == 0:
        rest //= 5
        fives += 1
    digits = max(twos, fives)
    whole, frac = divmod(abs(num) * (10**digits // den), 10**digits)
    return f"{'-' if num < 0 else ''}{_int_str(whole)}.{_int_str(frac).zfill(digits)}"


def _int_str(n: int) -> str:
    """str(n), or past int's 4300-digit str() limit, by way of Decimal, which has none."""
    return str(n) if n.bit_length() <= 14000 else str(Decimal(n))


def _part_str(num: int, d: int) -> str:
    g = gcd(num, d)
    return _decimal_str(num // g, d // g)


def _coeff_str(z: Coeff) -> str:
    a, b, d = z
    # with one part zero, gcd(a, b, d) = 1 makes the other part num/d reduced
    if not b:
        return _decimal_str(a, d)
    im_part = "i" if abs(b) == d else _part_str(abs(b), d) + "i"
    if not a:
        return im_part if b > 0 else "-" + im_part
    op = "+" if b > 0 else "-"
    return f"({_part_str(a, d)}{op}{im_part})"


# ---------------------------------------------------------------------------
# Tensor basis: index 16 i + 4 j + k and the phase-tracked product table
# ---------------------------------------------------------------------------

Basis = tuple[int, int, int]

# sigma_a sigma_b = i**_PHASE1[a][b] * sigma_(a xor b), for a, b in 0..3
_PHASE1 = np.array([[0, 0, 0, 0], [0, 0, 1, 3], [0, 3, 0, 1], [0, 1, 3, 0]])


def _phase_table() -> list[list[int]]:
    """_PHASE[a][b] = n with T_a T_b = i**n T_(a xor b), for a, b in 0..63.

    Nested lists of Python ints, so a lookup costs no NumPy scalar indexing.
    """
    index = np.arange(64)
    digits = np.stack([index >> 4, (index >> 2) & 3, index & 3])  # (3, 64): i, j, k
    return (_PHASE1[digits[:, :, None], digits[:, None, :]].sum(axis=0) % 4).tolist()


_PHASE = _phase_table()
# Row n is KRON3_STACK[n] flattened, so a weighted sum of tensors is one matmul.
_FLAT_STACK = KRON3_STACK.reshape(64, 64)
_LABELS = tuple("s%d#s%d#s%d" % (n >> 4, (n >> 2) & 3, n & 3) for n in range(64))
_LABEL_INDEX = {label: n for n, label in enumerate(_LABELS)}


def _basis_index(basis: Basis) -> int:
    """16 i + 4 j + k of a tensor key (i, j, k), each an int in 0..3."""
    if not (len(basis) == 3 and all(type(n) is int and 0 <= n <= 3 for n in basis)):
        raise ValueError(f"a tensor is three ints in 0..3, got {basis!r}")
    return 16 * basis[0] + 4 * basis[1] + basis[2]


# ---------------------------------------------------------------------------
# Terms: one table (tensor index, monomial) -> coefficient triple
# ---------------------------------------------------------------------------

Monomial = tuple[tuple[str, int], ...]
Terms = dict  # (tensor index, Monomial) -> Coeff, never zero


def _monomial(pairs) -> Monomial:
    """The canonical monomial of (name, power) pairs: sorted, equal names merged."""
    if len(pairs) < 2:
        return tuple(pairs)
    powers: dict[str, int] = {}
    for name, k in pairs:
        powers[name] = powers.get(name, 0) + k
    return tuple(sorted(powers.items()))


def _mono_mul(a: Monomial, b: Monomial) -> Monomial:
    if not (a and b):
        return a or b
    return _monomial((*a, *b))


def _add_into(out: Terms, key: tuple[int, Monomial], coeff: Coeff) -> None:
    """out[key] += coeff, holding no key whose coefficient is zero."""
    cur = out.get(key)
    new = coeff if cur is None else _cadd(cur, coeff)
    if new[0] or new[1]:
        out[key] = new
    else:
        out.pop(key, None)


def _add_terms(out: Terms, terms: Terms, negate: bool) -> None:
    """out += terms (or -terms) in place."""
    for key, c in terms.items():
        _add_into(out, key, (-c[0], -c[1], c[2]) if negate else c)


def _mul_terms(left: Terms, right: Terms) -> Terms:
    """The product of two tables: T_a T_b = i**_PHASE[a][b] T_(a xor b) per term pair."""
    out: Terms = {}
    for (a, mono_a), ca in left.items():
        row = _PHASE[a]
        for (b, mono_b), cb in right.items():
            _add_into(out, (a ^ b, _mono_mul(mono_a, mono_b)),
                      _times_i_power(_cmul(ca, cb), row[b]))
    return out


# ---------------------------------------------------------------------------
# Expressions
# ---------------------------------------------------------------------------


def _checked_monomial(mono: Monomial) -> Monomial:
    """A constructor's monomial in canonical form, each factor checked."""
    if not isinstance(mono, tuple):
        raise TypeError(f"a monomial is a tuple of (symbol, power) pairs, got {mono!r}")
    for factor in mono:
        if not (isinstance(factor, tuple) and len(factor) == 2 and factor[0] in SYMBOLS
                and type(factor[1]) is int and factor[1] >= 1):
            raise ValueError(f"a monomial factor is (symbol, int power >= 1), got {factor!r}")
    return _monomial(mono)


class PauliExpr:
    """Immutable linear combination of tensor basis elements.

    Supports +, -, * (with another expression or an exact scalar), exact
    equality, canonical printing via str(), and numeric evaluation via
    :meth:`to_matrix`.  ``PauliExpr({(i, j, k): {monomial: scalar}})`` takes
    ints i, j, k in 0..3 and a monomial's (symbol, power) pairs in any order.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[Basis, Mapping[Monomial, int | Fraction]] | None = None):
        table: Terms = {}
        for basis, poly in dict(terms or {}).items():
            index = _basis_index(basis)
            for mono, value in dict(poly).items():
                _add_into(table, (index, _checked_monomial(mono)), _from_rational(value))
        self._terms = table

    @classmethod
    def _from_index(cls, terms: Terms) -> "PauliExpr":
        """Wrap a table that holds no zero coefficient."""
        expr = cls.__new__(cls)
        expr._terms = terms
        return expr

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls) -> "PauliExpr":
        return cls()

    @classmethod
    def from_basis(cls, i: int, j: int, k: int) -> "PauliExpr":
        return cls._from_index({(_basis_index((i, j, k)), ()): _ONE})

    @classmethod
    def from_symbol(cls, name: str) -> "PauliExpr":
        if name not in SYMBOLS:
            raise ValueError(f"unknown symbol {name!r}; known symbols: {SYMBOLS}")
        return cls._from_index({(0, ((name, 1),)): _ONE})

    @classmethod
    def from_scalar(cls, value: int | Fraction) -> "PauliExpr":
        return cls({(0, 0, 0): {(): value}})

    # -- algebra ------------------------------------------------------

    def _combine(self, other: "PauliExpr", negate: bool) -> "PauliExpr":
        if not isinstance(other, PauliExpr):
            return NotImplemented  # so that e + 1 is a TypeError
        terms = dict(self._terms)
        _add_terms(terms, other._terms, negate)
        return PauliExpr._from_index(terms)

    def __add__(self, other: "PauliExpr") -> "PauliExpr":
        return self._combine(other, False)

    def __sub__(self, other: "PauliExpr") -> "PauliExpr":
        return self._combine(other, True)

    def __neg__(self) -> "PauliExpr":
        return PauliExpr()._combine(self, True)

    def __mul__(self, other: "PauliExpr | int | Fraction") -> "PauliExpr":
        if not isinstance(other, PauliExpr):
            scalar = _from_rational(other)
            if not (scalar[0] or scalar[1]):
                return PauliExpr()
            return PauliExpr._from_index({key: _cmul(c, scalar) for key, c in self._terms.items()})
        return PauliExpr._from_index(_mul_terms(self._terms, other._terms))

    __rmul__ = __mul__

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PauliExpr):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self) -> int:
        return hash(frozenset(self._terms.items()))

    def is_zero(self) -> bool:
        return not self._terms

    @property
    def free_symbols(self) -> frozenset[str]:
        return frozenset(name for _, mono in self._terms for name, _ in mono)

    # -- rendering and evaluation --------------------------------------

    def __str__(self) -> str:
        parts: list[str] = []
        for (basis, mono), (a, b, d) in sorted(self._terms.items()):
            negative = (a < 0 and not b) or (not a and b < 0)
            if negative:
                a, b = -a, -b
            pieces: list[str] = []
            if not (a == 1 and not b and d == 1):
                pieces.append(_coeff_str((a, b, d)))
            for name, power in mono:
                pieces.extend([name] * power)
            if basis:
                pieces.append(_LABELS[basis])
            elif not pieces:
                pieces.append("1")
            sign = (" - " if negative else " + ") if parts else ("-" if negative else "")
            parts.append(sign + "*".join(pieces))
        return "".join(parts) or "0"

    def __repr__(self) -> str:
        return f"PauliExpr({self})"

    def to_matrix(self, values: Mapping[str, complex] | None = None) -> np.ndarray:
        """Evaluate to an 8x8 complex matrix.

        values supplies a number for every free symbol; a missing symbol
        raises ValueError and text or a bool, which complex() would read,
        TypeError, each naming the symbol.  A tensor whose sum is not finite
        (from a NaN or infinite value, or an overflow) raises ValueError naming
        it.  Terms are summed in canonical order, so equal expressions give
        bit-identical matrices.
        """
        values = dict(values or {})
        free = self.free_symbols
        missing = sorted(free - values.keys())
        if missing:
            raise ValueError(f"no value given for symbol(s): {', '.join(missing)}")
        numbers = {}
        for name in free:
            value = values[name]
            if isinstance(value, (str, bytes, bool, np.bool_)):
                raise TypeError(f"symbol {name} needs a number, got {type(value).__name__}")
            try:
                numbers[name] = complex(value)
            except OverflowError:  # an int or a Fraction past float64
                raise ValueError(f"symbol {name} needs a number within float64's range") from None
        totals: dict[int, complex] = {}
        try:
            for (basis, mono), (a, b, d) in sorted(self._terms.items()):
                val = complex(a / d, b / d)
                for name, power in mono:
                    val *= numbers[name] ** power
                totals[basis] = totals.get(basis, 0j) + val
        except OverflowError:  # a coefficient or a power past float64: an infinite sum
            totals[basis] = cmath.inf
        bad = [_LABELS[basis] for basis, total in totals.items() if not cmath.isfinite(total)]
        if bad:  # from a NaN or infinite value, or an overflow
            raise ValueError(f"the sum of the {bad[0]} terms is not finite at these values")
        index = [basis for basis, total in totals.items() if total != 0]
        weights = np.array([totals[basis] for basis in index], dtype=complex)
        return (weights @ _FLAT_STACK[index]).reshape(8, 8)


def anticommutator_expr(a: PauliExpr, b: PauliExpr) -> PauliExpr:
    return a * b + b * a


def commutator_expr(a: PauliExpr, b: PauliExpr) -> PauliExpr:
    return a * b - b * a


# name -> (n, index): the operator is i**n times the tensor at index
_OPERATOR_INDEX = {name: (n, _basis_index(ijk)) for name, (n, ijk) in OPERATORS.items()}
NAMED_OPERATORS = {
    name: PauliExpr._from_index({(idx, ()): _times_i_power(_ONE, n)})
    for name, (n, idx) in _OPERATOR_INDEX.items()
}


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


class ParseError(ValueError):
    """Syntax or name error with a 1-based character position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"parse error at position {position}: {message}")
        self.position = position


# An operator token's kind is its own character; BAD is any other character.
_TOKEN_RE = re.compile(
    r"""
    (?P<WS>\s+)
  | (?P<TENSOR>s[0-3]\#s[0-3]\#s[0-3])
  | (?P<IMAG>(?:\d+\.\d*|\.\d+|\d+)i(?![A-Za-z0-9_]))
  | (?P<NAME>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<NUMBER>\d+\.\d*|\.\d+|\d+)
  | (?P<OP>[+\-*()])
  | (?P<BAD>.)
    """,
    re.VERBOSE | re.DOTALL,
)

_BARE_PAULI = {"s0", "s1", "s2", "s3"}
# Deepest parenthesis nesting parse accepts; each level costs three stack frames.
_MAX_DEPTH = 200

Token = tuple[str, str, int]  # kind, text, 1-based position


def _tokenize(text: str) -> list[Token]:
    tokens: list[Token] = []
    for match in _TOKEN_RE.finditer(text):
        kind = match.lastgroup
        if kind == "WS":
            continue
        tok = match.group()
        if kind == "BAD":
            raise ParseError(f"unexpected character {tok!r}", match.start() + 1)
        tokens.append((tok if kind == "OP" else kind, tok, match.start() + 1))
    tokens.append(("END", "", len(text) + 1))
    return tokens


def _literal(text: str) -> Coeff:
    """The exact value of a NUMBER token: digits with at most one '.'."""
    whole, _, frac = text.partition(".")
    try:
        num, den = int(whole + frac), 10 ** len(frac)
    except ValueError:  # more digits than int() reads from a string
        num, den = Decimal(text).as_integer_ratio()
    return _reduced(num, 0, den)


class _Parser:
    __slots__ = ("tokens", "index", "depth")

    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.index = 0
        self.depth = 0

    def parse(self) -> Terms:
        terms = self.expr()
        _, text, pos = tok = self.tokens[self.index]
        if tok[0] != "END":
            raise ParseError(f"unexpected {text!r}", pos)
        return terms

    def expr(self) -> Terms:
        tokens = self.tokens
        negate = tokens[self.index][0] == "-"
        if negate:
            self.index += 1
        out: Terms = {}
        while True:
            _add_terms(out, self.term(), negate)
            kind = tokens[self.index][0]
            if kind != "+" and kind != "-":
                return out
            negate = kind == "-"
            self.index += 1

    def term(self) -> Terms:
        """One product of factors.

        Scalars, symbols and tensors fold into coeff * i**phase * names *
        T_basis, and so does a parenthesised scalar; any other parenthesised
        factor multiplies what came before it and its own value into
        ``result`` in order, since tensors do not commute.
        """
        tokens = self.tokens
        coeff, phase, basis, names = _ONE, 0, 0, []
        result = None
        while True:
            kind, text, pos = tokens[self.index]
            self.index += 1
            if kind == "TENSOR":
                idx = _LABEL_INDEX[text]
                phase += _PHASE[basis][idx]
                basis ^= idx
            elif kind == "NUMBER":
                coeff = _cmul(coeff, _literal(text))
            elif kind == "IMAG":
                coeff = _cmul(coeff, _literal(text[:-1]))
                phase += 1
            elif kind == "NAME":
                if text == "i":
                    phase += 1
                elif text in _OPERATOR_INDEX:
                    n, idx = _OPERATOR_INDEX[text]
                    phase += n + _PHASE[basis][idx]
                    basis ^= idx
                elif text in SYMBOLS:
                    names.append((text, 1))
                elif text in _BARE_PAULI:
                    raise ParseError(
                        f"bare Pauli factor {text!r}; write a full tensor such as "
                        f"{text}#s0#s0",
                        pos,
                    )
                else:
                    raise ParseError(f"unknown name {text!r}", pos)
            elif kind == "(":
                inner = self.parenthesised(pos)
                scalar = _scalar(inner)
                if scalar is not None:
                    coeff = _cmul(coeff, scalar)
                else:
                    result = _mul_terms(_fold(result, coeff, phase, basis, names), inner)
                    coeff, phase, basis, names = _ONE, 0, 0, []
            else:
                raise ParseError(
                    f"expected a factor, got {text!r}" if kind != "END" else "unexpected end of input",
                    pos,
                )
            if tokens[self.index][0] != "*":
                break
            self.index += 1
        return _fold(result, coeff, phase, basis, names)

    def parenthesised(self, pos: int) -> Terms:
        """The expression after a '(' at pos, and its ')'."""
        if self.depth == _MAX_DEPTH:
            raise ParseError(f"parentheses nested deeper than {_MAX_DEPTH}", pos)
        self.depth += 1
        inner = self.expr()
        self.depth -= 1
        kind, _, closing = self.tokens[self.index]
        if kind != ")":
            raise ParseError("expected ')'", closing)
        self.index += 1
        return inner


def _fold(result, coeff: Coeff, phase: int, basis: int, names: list[tuple[str, int]]) -> Terms:
    """result (None for 1) times coeff * i**phase * names * T_basis."""
    if not (coeff[0] or coeff[1]):
        return {}
    if result is not None and coeff == _ONE and not (phase & 3 or basis or names):
        return result
    single = {(basis, _monomial(names)): _times_i_power(coeff, phase)}
    return single if result is None else _mul_terms(result, single)


def _scalar(terms: Terms) -> Coeff | None:
    """The coefficient of terms if they are a multiple of 1 (0 included), else None."""
    if not terms:
        return (0, 0, 1)
    return terms.get((0, ())) if len(terms) == 1 else None


def parse(text: str) -> PauliExpr:
    """Parse the expression grammar into a canonical PauliExpr."""
    if not isinstance(text, str):
        raise TypeError("expression must be a string")
    return PauliExpr._from_index(_Parser(text).parse())
