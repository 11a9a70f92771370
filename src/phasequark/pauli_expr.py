"""Exact symbolic algebra over three-fold Pauli tensor products.

An expression is a linear combination of basis elements ``si#sj#sk``
(i, j, k in 0..3, meaning kron(sigma_i, sigma_j, sigma_k)) whose
coefficients are polynomials in a fixed set of real symbols with Gaussian
rational (exact complex) coefficients.  Products, commutators and
anticommutators are exact — no floating point is involved until
:meth:`PauliExpr.to_matrix`.

Representation: an expression is one dict from (tensor index, monomial)
to a nonzero coefficient.  The index of si#sj#sk is 16 i + 4 j + k, whose
order is that of the (i, j, k) triples, and ``clifford.TENSOR_LABELS``
holds its label; a monomial is a tuple of (symbol, power) pairs sorted by
symbol, built by ``_monomial`` (of a product, ``_merged``).  A coefficient
is one reduced triple of Python ints ``(a, b, d)``, meaning (a + b i) / d
with d > 0 and gcd(a, b, d) = 1, so equal numbers have equal triples.
Multiplying two expressions costs one XOR, one lookup in ``clifford.PHASE``
(T_a T_b = i**PHASE[a][b] T_(a xor b)) and one coefficient product per pair
of terms, all written out in ``_mul_terms``' pair loop; the factor i^n is a
swap and/or negation of (a, b).  :meth:`PauliExpr.to_matrix` converts a
symbol's value where a term first reads it and a coefficient as ``complex(a
/ d, b / d)`` (correctly rounded), sums each tensor's terms in canonical
order and contracts the sums against ``clifford.KRON3_STACK`` in one
matmul.  An expression sorts its terms once, for str() or to_matrix.

Grammar (whitespace insensitive)::

    expr    := ['-'] term (('+'|'-') term)*
    term    := factor ('*' factor)*
    factor  := TENSOR | NAME | NUMBER | IMAG | 'i' | '(' expr ')'
    TENSOR  := s[0-3]#s[0-3]#s[0-3]
    NUMBER  := ASCII decimal literal, e.g. 2, 0.5, .25   (parsed exactly)
    IMAG    := decimal literal directly suffixed with i, e.g. 0.5i

NAME is either a named operator of clifford.OPERATORS (A1 A2 A3 B B1 B2
B3 C gamma5 gammaR5 gammaY5 gammaB5) or a symbol (p1 p2 p3 x1 x2 x3 m e
A0 A1v A2v A3v).  A bare Pauli factor such as ``s1`` is rejected with a
hint to write the full tensor form, and parentheses nest at most
``_MAX_DEPTH`` deep.  The tokenizer is one ``findall``, and each token's
kind is read from its first character; a position is worked out only for
an error.  The parser folds the scalar, symbol and tensor factors of a
plain term into one (coefficient, monomial, tensor) entry of the table it
builds, and makes a general product only at a parenthesised factor; a
Gaussian literal in the form str() prints, such as ``(-0.5+2i)``, is read
straight into the coefficient.

Scalars are the numbers the grammar writes: with no division and decimal
literals, the Gaussian rationals whose denominators are 2^a 5^b, a set
closed under + and *, so every coefficient prints as an exact decimal: a part
num/d, d = 2^a 5^b, prints the digits of num 10^k / d, k = max(a, b, 1), with
the point k places from the right.  No int digit limit is assumed: an int past
str()'s, whatever it is set to, prints by way of Decimal.  Scalar ``*`` and the
constructors take an int or such a Fraction and raise ValueError for any
other (``Fraction(1, 3)``); a complex scalar is written in the DSL, as
``parse("0.5 - 2i")`` or ``e * parse("i")``.

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
from itertools import islice
from math import gcd, log
from typing import Mapping

import numpy as np

from .clifford import KRON3_STACK, OPERATORS, PHASE, TENSOR_LABELS

__all__ = [
    "PauliExpr",
    "ParseError",
    "parse",
    "SYMBOLS",
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
    return _reduced(a1 * d2 + a2 * d1, b1 * d2 + b2 * d1, d1 * d2)


def _cmul(x: Coeff, y: Coeff) -> Coeff:
    a1, b1, d1 = x
    a2, b2, d2 = y
    return _reduced(a1 * a2 - b1 * b2, a1 * b2 + b1 * a2, d1 * d2)


def _times_i_power(z: Coeff, n: int) -> Coeff:
    """z * i**n (n mod 4) as (-1)**(n >> 1) * i**(n & 1): a negation and/or a swap of (a, b)."""
    a, b, d = z
    if n & 2:
        a, b = -a, -b
    if n & 1:
        a, b = -b, a
    return (a, b, d)


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
    """num/den, with den = 2^a 5^b > 0 and no need to be reduced, as an exact decimal: the
    digits of num * 10^k / den for k = max(a, b, 1), the fewest (but one) that den divides,
    with the point k places from the right and trailing zeros stripped."""
    if den == 1:
        return _int_str(num)
    k = den.bit_length() - 1 or 1  # a for den = 2^a, but at least 1
    if den & (den - 1):  # a factor 5: den >> a is 5^b, and its log is b to ~1e-12
        k = max(twos := (den & -den).bit_length() - 1, round(log(den >> twos, 5)))
    digits = _int_str(abs(num) * (10**k // den)).zfill(k + 1)
    frac = digits[-k:].rstrip("0")
    text = digits[:-k] + "." + frac if frac else digits[:-k]
    return "-" + text if num < 0 else text


def _int_str(n: int) -> str:
    """str(n), or past int's str() digit limit, whatever it is set to, by way of Decimal."""
    try:
        return str(n)
    except ValueError:
        return str(Decimal(n))


def _coeff_str(z: Coeff) -> str:
    a, b, d = z
    if not b:
        return _decimal_str(a, d)
    im_part = "i" if abs(b) == d else _decimal_str(abs(b), d) + "i"
    if not a:
        return im_part if b > 0 else "-" + im_part
    return f"({_decimal_str(a, d)}{'+' if b > 0 else '-'}{im_part})"


# ---------------------------------------------------------------------------
# Tensor basis: index 16 i + 4 j + k, with clifford's labels and phase table
# ---------------------------------------------------------------------------

Basis = tuple[int, int, int]

# Row n is KRON3_STACK[n] flattened, so a weighted sum of tensors is one matmul.
_FLAT_STACK = KRON3_STACK.reshape(64, 64)


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


def _merged(x: Monomial, y: Monomial) -> Monomial:
    """The product of two canonical monomials, in one merge of the two sorted tuples."""
    out, i, j = [], 0, 0
    while i < len(x) and j < len(y):
        (nx, kx), (ny, ky) = x[i], y[j]
        out.append(x[i] if nx < ny else y[j] if ny < nx else (nx, kx + ky))
        i, j = i + (nx <= ny), j + (ny <= nx)
    return (*out, *x[i:], *y[j:])


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
    """The product of two tables: T_a T_b = i**PHASE[a][b] T_(a xor b) per term pair,
    with _cmul, _times_i_power and _add_into written out in the pair loop."""
    out: Terms = {}
    for (a, mono_a), (a1, b1, d1) in left.items():
        row = PHASE[a]
        for (b, mono_b), (a2, b2, d2) in right.items():
            real, imag = a1 * a2 - b1 * b2, a1 * b2 + b1 * a2
            n = row[b]
            if n & 2:
                real, imag = -real, -imag
            if n & 1:
                real, imag = -imag, real
            d = d1 * d2
            if d != 1 and (g := gcd(real, imag, d)) != 1:
                real, imag, d = real // g, imag // g, d // g
            key = (a ^ b, _merged(mono_a, mono_b) if mono_a and mono_b else mono_a or mono_b)
            cur = out.get(key)
            if cur is None:  # a product of nonzero coefficients is nonzero
                out[key] = (real, imag, d)
            elif (new := _cadd(cur, (real, imag, d)))[0] or new[1]:
                out[key] = new
            else:
                del out[key]
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


def _number(name: str, value) -> complex:
    """A symbol's value as a complex: TypeError for text, a bool or a non-number, ValueError past float64."""
    if type(value) is not float and isinstance(value, (str, bytes, bool, np.bool_)):
        raise TypeError(f"symbol {name} needs a number, got {type(value).__name__}") from None
    try:
        return complex(value)
    except OverflowError:  # an int or a Fraction past float64
        raise ValueError(f"symbol {name} needs a number within float64's range") from None
    except TypeError:  # None, a list, any object that complex() cannot read
        raise TypeError(f"symbol {name} needs a number, got {type(value).__name__}") from None


class PauliExpr:
    """Immutable linear combination of tensor basis elements.

    Supports +, -, * (with another expression or an exact scalar), exact
    equality, canonical printing via str(), and numeric evaluation via
    :meth:`to_matrix`.  ``PauliExpr({(i, j, k): {monomial: scalar}})`` takes
    ints i, j, k in 0..3 and a monomial's (symbol, power) pairs in any order.
    """

    # _sorted caches sorted items for str() and to_matrix(); ==, hash, pickle and deepcopy skip it
    __slots__ = ("_terms", "_sorted")

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

    def __getstate__(self):
        return None, {"_terms": self._terms}

    def _sorted_terms(self) -> list:
        items = getattr(self, "_sorted", None)
        if items is None:
            self._sorted = items = sorted(self._terms.items())
        return items

    def is_zero(self) -> bool:
        return not self._terms

    @property
    def free_symbols(self) -> frozenset[str]:
        return frozenset(name for _, mono in self._terms for name, _ in mono)

    # -- rendering and evaluation --------------------------------------

    def __str__(self) -> str:
        parts: list[str] = []
        for (basis, mono), (a, b, d) in self._sorted_terms():
            negative = (a < 0 and not b) or (not a and b < 0)
            if negative:
                a, b = -a, -b
            pieces: list[str] = []
            if not (a == 1 and not b and d == 1):
                pieces.append(_coeff_str((a, b, d)))
            for name, power in mono:
                pieces.extend([name] * power)
            if basis:
                pieces.append(TENSOR_LABELS[basis])
            elif not pieces:
                pieces.append("1")
            sign = (" - " if negative else " + ") if parts else ("-" if negative else "")
            parts.append(sign + "*".join(pieces))
        return "".join(parts) or "0"

    def __repr__(self) -> str:
        return f"PauliExpr({self})"

    def to_matrix(self, values: Mapping[str, complex] | None = None) -> np.ndarray:
        """Evaluate to an 8x8 complex matrix.

        values supplies a number for every free symbol: missing symbols raise
        ValueError naming them all, else the first symbol in canonical term
        order (as str() prints) whose value is text, a bool (which complex()
        would read) or any other non-number raises TypeError, or ValueError
        past float64.  A tensor sum that is not finite, or finite sums that
        overflow one matrix entry together, raise ValueError naming the
        tensors.  Terms are summed in canonical order, so equal expressions
        give bit-identical matrices.
        """
        values = dict(values or {})
        numbers: dict[str, complex] = {}
        totals: dict[int, complex] = {}
        try:
            for (basis, mono), (a, b, d) in self._sorted_terms():
                val = complex(a / d, b / d)
                for name, power in mono:
                    number = numbers.get(name)
                    if number is None:  # the first term that reads name converts its value
                        number = numbers[name] = _number(name, values[name])
                    val *= number ** power
                totals[basis] = totals.get(basis, 0j) + val
        except (KeyError, TypeError, ValueError, OverflowError) as error:
            # a value missing or not a number, in any term, comes before an overflow
            names = dict.fromkeys(name for (_, mono), _ in self._sorted_terms() for name, _ in mono)
            if missing := sorted(names.keys() - values.keys()):
                raise ValueError(f"no value given for symbol(s): {', '.join(missing)}") from None
            for name in names:
                _number(name, values[name])
            if not isinstance(error, OverflowError):
                raise
            totals[basis] = cmath.inf  # a coefficient or a power past float64: an infinite sum
        large = [b for b, t in totals.items() if not (abs(t.real) <= 2e307 and abs(t.imag) <= 2e307)]
        bad = [TENSOR_LABELS[basis] for basis in large if not cmath.isfinite(totals[basis])]
        if bad:  # from a NaN or infinite value, or an overflow
            raise ValueError(f"the sum of the {bad[0]} terms is not finite at these values")
        index = [basis for basis, total in totals.items() if total != 0]
        weights = np.array([totals[basis] for basis in index], dtype=complex)
        if large:  # an entry adds at most 8 sums times 0, +-1 or +-i, so only these can overflow it
            with np.errstate(all="ignore"):
                over = ~np.isfinite(weights @ _FLAT_STACK[index])
            named = [TENSOR_LABELS[basis] for basis in large if _FLAT_STACK[basis][over].any()]
            if named:
                raise ValueError(f"the {' + '.join(named)} terms overflow a matrix entry at these values")
        return (weights @ _FLAT_STACK[index]).reshape(8, 8)


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


class ParseError(ValueError):
    """Syntax or name error with a 1-based character position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"parse error at position {position}: {message}")
        self.position = position


# A token is a TENSOR, a NUMBER or IMAG, a name, or any other non-space
# character; findall skips the whitespace between tokens.
_TOKEN_RE = re.compile(
    r"s[0-3]#s[0-3]#s[0-3]"
    r"|(?:[0-9]+\.?[0-9]*|\.[0-9]+)(?:i(?![A-Za-z0-9_]))?"
    r"|[A-Za-z_][A-Za-z0-9_]*"
    r"|\S"
)
# A token's kind by its first character: NAME (a TENSOR too), NUMBER (an IMAG
# too) or an operator's own character; None is BAD, as is a lone '.'.
_KINDS = {**dict.fromkeys("ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz_", "NAME"),
          **dict.fromkeys("0123456789.", "NUMBER"), **{c: c for c in "+-*()"}}
# A tensor, operator or 'i' -> (n, index): that factor is i**n times the tensor at index.
_FACTORS = {**{label: (0, n) for n, label in enumerate(TENSOR_LABELS)}, "i": (1, 0),
            **{name: (n, _basis_index(ijk)) for name, (n, ijk) in OPERATORS.items()}}
_BARE_PAULI = {"s0", "s1", "s2", "s3"}
# Deepest parenthesis nesting parse accepts; each level costs three stack frames.
_MAX_DEPTH = 200


def _tokenize(text: str) -> tuple[list[str], list[str]]:
    """The tokens of text and their kinds, each list ending with END, whose token is ''."""
    tokens = _TOKEN_RE.findall(text)
    kinds = [_KINDS.get(tok[0]) for tok in tokens]
    if None in kinds or "." in tokens:
        at = next(n for n, tok in enumerate(tokens) if kinds[n] is None or tok == ".")
        raise ParseError(f"unexpected character {tokens[at]!r}", _position(text, at))
    tokens.append("")
    kinds.append("END")
    return tokens, kinds


def _position(text: str, at: int) -> int:
    """The 1-based position of token number at (len(text) + 1 for END), found again for an error."""
    match = next(islice(_TOKEN_RE.finditer(text), at, None), None)
    return len(text) + 1 if match is None else match.start() + 1


def _literal(text: str) -> Coeff:
    """The exact value of a NUMBER or IMAG token: digits with at most one '.', then maybe i."""
    imag = text[-1] == "i"
    digits = text[:-1] if imag else text
    whole, _, frac = digits.partition(".")
    try:
        num, den = int(whole + frac), 10 ** len(frac)
    except ValueError:  # more digits than int() reads from a string
        num, den = Decimal(digits).as_integer_ratio()
    return _reduced(0, num, den) if imag else _reduced(num, 0, den)


class _Parser:
    __slots__ = ("text", "tokens", "kinds", "index", "depth")

    def __init__(self, text: str):
        self.text = text
        self.tokens, self.kinds = _tokenize(text)
        self.index = 0
        self.depth = 0

    def error(self, message: str, at: int) -> ParseError:
        return ParseError(message, _position(self.text, at))

    def parse(self) -> Terms:
        terms = self.expr()
        if self.kinds[self.index] != "END":
            raise self.error(f"unexpected {self.tokens[self.index]!r}", self.index)
        return terms

    def expr(self) -> Terms:
        tokens = self.tokens
        negate = tokens[self.index] == "-"
        if negate:
            self.index += 1
        out: Terms = {}
        while True:
            self.term(out, negate)
            tok = tokens[self.index]
            if tok != "+" and tok != "-":
                return out
            negate = tok == "-"
            self.index += 1

    def term(self, out: Terms, negate: bool) -> None:
        """Add one product of factors, negated if negate (a phase of 2), into out.

        Scalars, symbols and tensors fold into coeff * i**phase * names *
        T_basis, one entry of out, and so does a parenthesised scalar; any
        other parenthesised factor multiplies what came before it and its
        own value into ``result`` in order, since tensors do not commute.
        """
        tokens, kinds = self.tokens, self.kinds
        coeff, phase, basis, names = _ONE, 2 if negate else 0, 0, []
        result = None
        while True:
            at = self.index
            kind, text = kinds[at], tokens[at]
            self.index = at + 1
            if kind == "NAME":
                factor = _FACTORS.get(text)
                if factor is not None:
                    n, idx = factor
                    phase += n + PHASE[basis][idx]
                    basis ^= idx
                elif text in SYMBOLS:
                    names.append((text, 1))
                elif text in _BARE_PAULI:
                    raise self.error(f"bare Pauli factor {text!r}; write a full tensor "
                                     f"such as {text}#s0#s0", at)
                else:
                    raise self.error(f"unknown name {text!r}", at)
            elif kind == "NUMBER":
                coeff = _literal(text) if coeff is _ONE else _cmul(coeff, _literal(text))
            elif kind == "(":
                if self.depth == _MAX_DEPTH:
                    raise self.error(f"parentheses nested deeper than {_MAX_DEPTH}", at)
                scalar = self.literal()
                if scalar is None:
                    inner = self.parenthesised()
                    scalar = _scalar(inner)
                if scalar is not None:
                    coeff = scalar if coeff is _ONE else _cmul(coeff, scalar)
                else:
                    result = _mul_terms(_fold(result, coeff, phase, basis, names), inner)
                    coeff, phase, basis, names = _ONE, 0, 0, []
            else:
                raise self.error(f"expected a factor, got {text!r}" if kind != "END"
                                 else "unexpected end of input", at)
            if tokens[self.index] != "*":
                break
            self.index += 1
        if result is None:
            _add_into(out, (basis, _monomial(names)), _times_i_power(coeff, phase))
        else:
            _add_terms(out, _fold(result, coeff, phase, basis, names), False)

    def literal(self) -> Coeff | None:
        """The value of ['-'] NUMBER ('+'|'-') (NUMBER | 'i') ')' after a '(', which is how
        str() prints a Gaussian coefficient, read up to its ')'; None for other tokens."""
        tokens, kinds, start = self.tokens, self.kinds, self.index
        j = start + (tokens[start] == "-")
        if not (kinds[j] == "NUMBER" and tokens[j + 1] in ("+", "-")
                and (kinds[j + 2] == "NUMBER" or tokens[j + 2] == "i") and tokens[j + 3] == ")"):
            return None
        x = _literal(tokens[j])
        y = (0, 1, 1) if tokens[j + 2] == "i" else _literal(tokens[j + 2])
        if j > start:
            x = (-x[0], -x[1], x[2])
        if tokens[j + 1] == "-":
            y = (-y[0], -y[1], y[2])
        self.index = j + 4
        return _cadd(x, y)

    def parenthesised(self) -> Terms:
        """The expression after a '(', and its ')'."""
        self.depth += 1
        inner = self.expr()
        self.depth -= 1
        if self.tokens[self.index] != ")":
            raise self.error("expected ')'", self.index)
        self.index += 1
        return inner


def _fold(result, coeff: Coeff, phase: int, basis: int, names: list[tuple[str, int]]) -> Terms:
    """result (None for 1) times coeff * i**phase * names * T_basis, in a non-plain term."""
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
