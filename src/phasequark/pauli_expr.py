"""Exact symbolic algebra over three-fold Pauli tensor products.

An expression is a linear combination of basis elements ``si#sj#sk``
(i, j, k in 0..3, meaning kron(sigma_i, sigma_j, sigma_k)) whose
coefficients are polynomials in a fixed set of real symbols with Gaussian
rational (exact complex) coefficients.  Products, commutators and
anticommutators are exact — no floating point is involved until
:meth:`PauliExpr.to_matrix`.

Representation: each tensor is keyed by its index 16 i + 4 j + k, whose
order is that of the (i, j, k) triples.  With the two-bit codes I = 0,
X = 1, Y = 2, Z = 3 a single-factor product is sigma_a sigma_b =
i^e(a, b) sigma_(a xor b), the (x|z) bit form of Aaronson & Gottesman,
"Improved simulation of stabilizer circuits" (arXiv:quant-ph/0406196).
Factor by factor, the product of two tensors is then

    T_a T_b = i^n T_c,   c = a xor b,   n = sum of the three e's mod 4:

the index of the product is the XOR of the indices, and ``_PHASE[a][b] = n``
tabulates the phase exponent of all 64 x 64 pairs, built once with NumPy
from the 4 x 4 single-factor table.  Multiplying two expressions costs one
XOR and one table lookup per tensor pair and one coefficient product per
monomial pair; the factor i^n is a swap and/or negation of (re, im).
:meth:`PauliExpr.to_matrix` sums each tensor's monomials to one number and
contracts those numbers against ``clifford.KRON3_STACK`` in one matmul.

Grammar (whitespace insensitive)::

    expr    := ['-'] term (('+'|'-') term)*
    term    := factor ('*' factor)*
    factor  := TENSOR | NAME | NUMBER | IMAG | 'i' | '(' expr ')'
    TENSOR  := s[0-3]#s[0-3]#s[0-3]
    NUMBER  := decimal literal, e.g. 2, 0.5, .25   (parsed exactly)
    IMAG    := decimal literal directly suffixed with i, e.g. 0.5i

NAME is either a named operator (A1 A2 A3 B B1 B2 B3 C gamma5) or a
symbol (p1 p2 p3 x1 x2 x3 m e A0 A1v A2v A3v).  A bare Pauli factor such
as ``s1`` is rejected with a hint to write the full tensor form.  There
is no division and literals are decimal, so every reachable coefficient
denominator is a product of twos and fives and the canonical printer can
always render coefficients as exact decimals.

Canonical form: terms are sorted by tensor index triple, then by
monomial; unit coefficients and the identity tensor ``s0#s0#s0`` are
omitted when anything else identifies the term (so ``B*B`` prints as
``1`` and ``m`` prints as ``m``).  ``parse(str(e))`` returns an
expression equal to ``e``.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction
from typing import Iterator, Mapping, Union

import numpy as np

from .clifford import KRON3_STACK

__all__ = [
    "ExactComplex",
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
# Exact complex numbers
# ---------------------------------------------------------------------------


def _decimal_str(f: Fraction) -> str:
    """Exact decimal rendering; falls back to a/b for non 2^a 5^b denominators."""
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
class ExactComplex:
    """Gaussian rational a + b i with exact Fraction components."""

    re: Fraction = Fraction(0)
    im: Fraction = Fraction(0)

    @classmethod
    def from_literal(cls, text: str) -> "ExactComplex":
        return cls(Fraction(Decimal(text)))

    @classmethod
    def unit_i(cls) -> "ExactComplex":
        return cls(Fraction(0), Fraction(1))

    def __add__(self, other: "ExactComplex") -> "ExactComplex":
        return ExactComplex(self.re + other.re, self.im + other.im)

    def __sub__(self, other: "ExactComplex") -> "ExactComplex":
        return ExactComplex(self.re - other.re, self.im - other.im)

    def __mul__(self, other: "ExactComplex") -> "ExactComplex":
        # Most coefficients are real: skip the products with a zero part.
        if not self.im:
            if not other.im:
                return ExactComplex(self.re * other.re)
            return ExactComplex(self.re * other.re, self.re * other.im)
        if not other.im:
            return ExactComplex(self.re * other.re, self.im * other.re)
        return ExactComplex(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    def __neg__(self) -> "ExactComplex":
        return ExactComplex(-self.re, -self.im)

    def is_zero(self) -> bool:
        return not self.re and not self.im

    def __complex__(self) -> complex:
        return complex(float(self.re), float(self.im))

    def __str__(self) -> str:
        if self.im == 0:
            return _decimal_str(self.re)
        if self.re == 0:
            if self.im == 1:
                return "i"
            if self.im == -1:
                return "-i"
            return _decimal_str(self.im) + "i"
        im_part = "i" if abs(self.im) == 1 else _decimal_str(abs(self.im)) + "i"
        op = "+" if self.im > 0 else "-"
        return f"({_decimal_str(self.re)}{op}{im_part})"


_ONE = ExactComplex(Fraction(1))
_I = ExactComplex.unit_i()
_MINUS_I = ExactComplex(Fraction(0), Fraction(-1))


def _times_i_power(z: ExactComplex, n: int) -> ExactComplex:
    """z * i**n for n in 0..3, by a swap and/or negation of (re, im)."""
    if n == 0:
        return z
    if n == 1:
        return ExactComplex(-z.im, z.re)
    if n == 2:
        return ExactComplex(-z.re, -z.im)
    return ExactComplex(z.im, -z.re)


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


def _basis_index(i: int, j: int, k: int) -> int:
    return 16 * int(i) + 4 * int(j) + int(k)


# ---------------------------------------------------------------------------
# Polynomials in the real symbols (dict monomial -> ExactComplex)
# ---------------------------------------------------------------------------

Monomial = tuple[tuple[str, int], ...]
Poly = dict  # Monomial -> ExactComplex


def _poly_add_into(target: Poly, mono: Monomial, coeff: ExactComplex) -> None:
    cur = target.get(mono)
    new = coeff if cur is None else cur + coeff
    if new.is_zero():
        target.pop(mono, None)
    else:
        target[mono] = new


def _mono_mul(a: Monomial, b: Monomial) -> Monomial:
    if not a:
        return b
    if not b:
        return a
    powers: dict[str, int] = {}
    for name, k in (*a, *b):
        powers[name] = powers.get(name, 0) + k
    return tuple(sorted(powers.items()))


# ---------------------------------------------------------------------------
# Expressions
# ---------------------------------------------------------------------------

ScalarLike = Union[int, Fraction, ExactComplex]


def _as_exact(value: ScalarLike) -> ExactComplex:
    if isinstance(value, ExactComplex):
        return value
    if isinstance(value, (int, Fraction)):
        return ExactComplex(Fraction(value))
    raise TypeError(f"cannot use {type(value).__name__} as an exact scalar")


class PauliExpr:
    """Immutable linear combination of tensor basis elements.

    Supports +, -, * (with another expression or an exact scalar), exact
    equality, canonical printing via str(), and numeric evaluation via
    :meth:`to_matrix`.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[Basis, Mapping[Monomial, ExactComplex]] | None = None):
        clean: dict[int, Poly] = {}
        for basis, poly in (terms or {}).items():
            kept = {m: c for m, c in poly.items() if not c.is_zero()}
            if kept:
                clean[_basis_index(*basis)] = kept
        self._terms = clean

    @classmethod
    def _from_index(cls, terms: dict[int, Poly]) -> "PauliExpr":
        """Wrap index-keyed polynomials that hold no zero coefficient."""
        expr = cls.__new__(cls)
        expr._terms = {b: p for b, p in terms.items() if p}
        return expr

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls) -> "PauliExpr":
        return cls()

    @classmethod
    def from_basis(cls, i: int, j: int, k: int) -> "PauliExpr":
        for idx in (i, j, k):
            if idx not in (0, 1, 2, 3):
                raise ValueError(f"tensor indices must be 0..3, got {(i, j, k)}")
        return cls._from_index({_basis_index(i, j, k): {(): _ONE}})

    @classmethod
    def from_symbol(cls, name: str) -> "PauliExpr":
        if name not in SYMBOLS:
            raise ValueError(f"unknown symbol {name!r}; known symbols: {SYMBOLS}")
        return cls._from_index({0: {((name, 1),): _ONE}})

    @classmethod
    def from_scalar(cls, value: ScalarLike) -> "PauliExpr":
        return cls({(0, 0, 0): {(): _as_exact(value)}})

    # -- algebra ------------------------------------------------------

    def _combine(self, other: "PauliExpr", negate: bool) -> "PauliExpr":
        terms = {b: dict(p) for b, p in self._terms.items()}
        for basis, poly in other._terms.items():
            target = terms.setdefault(basis, {})
            for mono, coeff in poly.items():
                _poly_add_into(target, mono, -coeff if negate else coeff)
        return PauliExpr._from_index(terms)

    def __add__(self, other: "PauliExpr") -> "PauliExpr":
        return self._combine(other, False)

    def __sub__(self, other: "PauliExpr") -> "PauliExpr":
        return self._combine(other, True)

    def __neg__(self) -> "PauliExpr":
        return PauliExpr._from_index(
            {b: {m: -c for m, c in p.items()} for b, p in self._terms.items()}
        )

    def __mul__(self, other: "PauliExpr | ScalarLike") -> "PauliExpr":
        if not isinstance(other, PauliExpr):
            scalar = _as_exact(other)
            if scalar.is_zero():
                return PauliExpr()
            return PauliExpr._from_index(
                {b: {m: c * scalar for m, c in p.items()} for b, p in self._terms.items()}
            )
        out: dict[int, Poly] = {}
        for a, poly_a in self._terms.items():
            row = _PHASE[a]
            for b, poly_b in other._terms.items():
                n = row[b]
                target = out.setdefault(a ^ b, {})
                for mono_a, ca in poly_a.items():
                    for mono_b, cb in poly_b.items():
                        _poly_add_into(target, _mono_mul(mono_a, mono_b),
                                       _times_i_power(ca * cb, n))
        return PauliExpr._from_index(out)

    __rmul__ = __mul__

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PauliExpr):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self) -> int:
        return hash(
            tuple(
                (b, tuple(sorted(p.items())))
                for b, p in sorted(self._terms.items())
            )
        )

    def is_zero(self) -> bool:
        return not self._terms

    @property
    def free_symbols(self) -> frozenset[str]:
        names = set()
        for poly in self._terms.values():
            for mono in poly:
                names.update(name for name, _ in mono)
        return frozenset(names)

    # -- rendering and evaluation --------------------------------------

    def _flat(self) -> Iterator[tuple[int, Monomial, ExactComplex]]:
        for basis in sorted(self._terms):
            poly = self._terms[basis]
            for mono in sorted(poly):
                yield basis, mono, poly[mono]

    def __str__(self) -> str:
        parts: list[str] = []
        for basis, mono, coeff in self._flat():
            negative = False
            if coeff.im == 0 and coeff.re < 0:
                coeff, negative = -coeff, True
            elif coeff.re == 0 and coeff.im < 0:
                coeff, negative = -coeff, True
            pieces: list[str] = []
            if not (coeff.re == 1 and coeff.im == 0):
                pieces.append(str(coeff))
            for name, power in mono:
                pieces.extend([name] * power)
            if basis:
                pieces.append(_LABELS[basis])
            elif not pieces:
                pieces.append("1")
            text = "*".join(pieces)
            if not parts:
                parts.append(("-" if negative else "") + text)
            else:
                parts.append((" - " if negative else " + ") + text)
        return "".join(parts) if parts else "0"

    def __repr__(self) -> str:
        return f"PauliExpr({self})"

    def to_matrix(self, values: Mapping[str, complex] | None = None) -> np.ndarray:
        """Evaluate to an 8x8 complex matrix.

        values supplies a number for every free symbol; a missing symbol
        raises ValueError naming it.
        """
        values = dict(values or {})
        missing = sorted(self.free_symbols - values.keys())
        if missing:
            raise ValueError(f"no value given for symbol(s): {', '.join(missing)}")
        index: list[int] = []
        weights: list[complex] = []
        for basis, poly in self._terms.items():
            total = 0j
            for mono, coeff in poly.items():
                val = complex(coeff)
                for name, power in mono:
                    val *= complex(values[name]) ** power
                total += val
            if total != 0:
                index.append(basis)
                weights.append(total)
        return (np.array(weights, dtype=complex) @ _FLAT_STACK[index]).reshape(8, 8)


def anticommutator_expr(a: PauliExpr, b: PauliExpr) -> PauliExpr:
    return a * b + b * a


def commutator_expr(a: PauliExpr, b: PauliExpr) -> PauliExpr:
    return a * b - b * a


def _named_operators() -> dict[str, PauliExpr]:
    e = PauliExpr.from_basis
    return {
        "A1": e(1, 1, 0),
        "A2": e(2, 1, 0),
        "A3": e(3, 1, 0),
        "B": e(0, 3, 0),
        "B1": e(0, 2, 1),
        "B2": e(0, 2, 2),
        "B3": e(0, 2, 3),
        "C": e(2, 2, 2) * _MINUS_I,
        "gamma5": e(0, 1, 0),
    }


NAMED_OPERATORS = _named_operators()


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


class ParseError(ValueError):
    """Syntax or name error with a 1-based character position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"parse error at position {position}: {message}")
        self.position = position


_TOKEN_RE = re.compile(
    r"""
    (?P<WS>\s+)
  | (?P<TENSOR>s[0-3]\#s[0-3]\#s[0-3])
  | (?P<IMAG>(?:\d+\.\d*|\.\d+|\d+)i(?![A-Za-z0-9_]))
  | (?P<NAME>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<NUMBER>\d+\.\d*|\.\d+|\d+)
  | (?P<OP>[+\-*()])
    """,
    re.VERBOSE,
)

_BARE_PAULI = {"s0", "s1", "s2", "s3"}


@dataclass(frozen=True)
class _Token:
    kind: str
    text: str
    pos: int  # 1-based


def _tokenize(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    index = 0
    while index < len(text):
        match = _TOKEN_RE.match(text, index)
        if match is None:
            raise ParseError(f"unexpected character {text[index]!r}", index + 1)
        kind = match.lastgroup or ""
        if kind != "WS":
            tokens.append(_Token(kind, match.group(), index + 1))
        index = match.end()
    tokens.append(_Token("END", "", len(text) + 1))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.index = 0

    @property
    def current(self) -> _Token:
        return self.tokens[self.index]

    def advance(self) -> _Token:
        tok = self.tokens[self.index]
        self.index += 1
        return tok

    def parse(self) -> PauliExpr:
        expr = self.expr()
        if self.current.kind != "END":
            raise ParseError(f"unexpected {self.current.text!r}", self.current.pos)
        return expr

    def expr(self) -> PauliExpr:
        negate = False
        if self.current.kind == "OP" and self.current.text == "-":
            self.advance()
            negate = True
        result = self.term()
        if negate:
            result = -result
        while self.current.kind == "OP" and self.current.text in "+-":
            op = self.advance().text
            rhs = self.term()
            result = result + rhs if op == "+" else result - rhs
        return result

    def term(self) -> PauliExpr:
        result = self.factor()
        while self.current.kind == "OP" and self.current.text == "*":
            self.advance()
            result = result * self.factor()
        return result

    def factor(self) -> PauliExpr:
        tok = self.current
        if tok.kind == "TENSOR":
            self.advance()
            i, j, k = (int(tok.text[n]) for n in (1, 4, 7))
            return PauliExpr.from_basis(i, j, k)
        if tok.kind == "NUMBER":
            self.advance()
            return PauliExpr.from_scalar(ExactComplex.from_literal(tok.text))
        if tok.kind == "IMAG":
            self.advance()
            return PauliExpr.from_scalar(
                ExactComplex(Fraction(0), Fraction(Decimal(tok.text[:-1])))
            )
        if tok.kind == "NAME":
            self.advance()
            name = tok.text
            if name == "i":
                return PauliExpr.from_scalar(_I)
            if name in NAMED_OPERATORS:
                return NAMED_OPERATORS[name]
            if name in SYMBOLS:
                return PauliExpr.from_symbol(name)
            if name in _BARE_PAULI:
                raise ParseError(
                    f"bare Pauli factor {name!r}; write a full tensor such as "
                    f"{name}#s0#s0",
                    tok.pos,
                )
            raise ParseError(f"unknown name {name!r}", tok.pos)
        if tok.kind == "OP" and tok.text == "(":
            self.advance()
            inner = self.expr()
            closing = self.current
            if not (closing.kind == "OP" and closing.text == ")"):
                raise ParseError("expected ')'", closing.pos)
            self.advance()
            return inner
        raise ParseError(
            f"expected a factor, got {tok.text!r}" if tok.kind != "END" else "unexpected end of input",
            tok.pos,
        )


def parse(text: str) -> PauliExpr:
    """Parse the expression grammar into a canonical PauliExpr."""
    if not isinstance(text, str):
        raise TypeError("expression must be a string")
    return _Parser(text).parse()
