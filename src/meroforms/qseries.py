"""Exact truncated q-series arithmetic over the rationals.

This module is the ground-truth side of the library: Eisenstein series
q-expansions and the expression trees built from them are evaluated
exactly, with no rounding, and every coefficient is reported as a
``fractions.Fraction``.  A tree evaluates to a numerator series over a
denominator series, both products of the small generator series, and
divides once at the end (a ``D(...)`` of a quotient divides its operand
first); a product of two series packs each into one int (Kronecker
substitution) and multiplies those once.  All
floating-point machinery elsewhere is validated against it.  Forms are
read from text by ``parse_form``, a walk over Python's own parse tree
that admits only the grammar of forms.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction
from functools import lru_cache, reduce
from math import comb, gcd, isqrt, lcm
from operator import mul
from typing import Iterable, Iterator, Sequence, Union

RationalLike = Union[int, Fraction]


@lru_cache(maxsize=None)
def bernoulli(n: int) -> Fraction:
    """Exact Bernoulli number B_n (B_1 = -1/2), from sum_{i<=n} C(n+1, i) B_i = 0."""
    if n < 0:
        raise ValueError("n must be >= 0")
    if n == 0:
        return Fraction(1)
    return -sum(comb(n + 1, i) * bernoulli(i) for i in range(n)) / (n + 1)


#: q-expansion constants of the generators: E_w = 1 + EISENSTEIN_COEFF[w] *
#: sum sigma_{w-1}(n) q^n, with EISENSTEIN_COEFF[w] = -2w/B_w
EISENSTEIN_COEFF = {w: int(-2 * w / bernoulli(w)) for w in (2, 4, 6, 10)}


@lru_cache(maxsize=None)
def sigma(n: int, power: int) -> int:
    """Divisor sum sigma_power(n) for n >= 1."""
    if n < 1:
        raise ValueError("sigma is defined for n >= 1")
    total = 0
    for d in range(1, isqrt(n) + 1):
        if n % d == 0:
            total += d**power
            e = n // d
            if e != d:
                total += e**power
    return total


def exact_str(value: Fraction) -> str:
    """``str(value)`` for a rational of any size.  ``str`` of an int refuses
    more than ``sys.get_int_max_str_digits()`` digits, while ``Decimal``
    converts an int exactly and is not limited."""
    text = str(Decimal(value.numerator))
    return text if value.denominator == 1 else f"{text}/{Decimal(value.denominator)}"


class RationalQSeries:
    """Truncated formal power series in q with exact rational coefficients.

    The coefficients are held as Python-int ``numerators`` over one positive
    common ``denominator``, reduced so that no integer > 1 divides the
    denominator and every numerator; that form is unique, so arithmetic
    touches only ints and reduces once per operation.  A product is one
    big-int product of the packed numerators; a quotient is one integer
    recurrence.  ``coeffs[n]`` is the coefficient of q^n as a ``Fraction``;
    the truncation order is ``len(coeffs) - 1``.  Instances are immutable;
    arithmetic truncates to the minimum order of the operands.
    """

    __slots__ = ("numerators", "denominator")

    def __init__(self, coeffs: Iterable[RationalLike]):
        cs = [Fraction(c) for c in coeffs]
        if not cs:
            raise ValueError("series needs at least the constant term")
        den = lcm(*(c.denominator for c in cs))
        self.numerators = tuple(c.numerator * (den // c.denominator) for c in cs)
        self.denominator = den

    @classmethod
    def _of(cls, numerators: Sequence[int], denominator: int) -> "RationalQSeries":
        """The series numerators / denominator (denominator nonzero, of
        either sign), brought to the reduced form."""
        g = gcd(denominator, *numerators)
        if denominator < 0:
            g = -g
        out = object.__new__(cls)
        out.numerators = tuple(x // g for x in numerators) if g != 1 else tuple(numerators)
        out.denominator = denominator // g
        return out

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        d = self.denominator
        return tuple(Fraction(x, d) for x in self.numerators)

    @property
    def truncation_order(self) -> int:
        return len(self.numerators) - 1

    @classmethod
    def constant(cls, value: RationalLike, truncation_order: int) -> "RationalQSeries":
        c = Fraction(value)
        return cls._of((c.numerator,) + (0,) * truncation_order, c.denominator)

    @classmethod
    def one(cls, truncation_order: int) -> "RationalQSeries":
        return cls.constant(1, truncation_order)

    def __repr__(self) -> str:
        head = ", ".join(exact_str(c) for c in self.coeffs[:5])
        tail = ", ..." if len(self.numerators) > 5 else ""
        return f"RationalQSeries([{head}{tail}], order={self.truncation_order})"

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, RationalQSeries)
            and self.denominator == other.denominator
            and self.numerators == other.numerators
        )

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def _coerce(self, other) -> "RationalQSeries":
        if isinstance(other, RationalQSeries):
            return other
        return RationalQSeries.constant(other, self.truncation_order)

    def __add__(self, other) -> "RationalQSeries":
        o = self._coerce(other)
        den = lcm(self.denominator, o.denominator)
        sa, sb = den // self.denominator, den // o.denominator
        return RationalQSeries._of([x * sa + y * sb for x, y in zip(self.numerators, o.numerators)], den)

    __radd__ = __add__

    def __neg__(self) -> "RationalQSeries":
        return RationalQSeries._of([-x for x in self.numerators], self.denominator)

    def __sub__(self, other) -> "RationalQSeries":
        return self + (-self._coerce(other))

    def __rsub__(self, other) -> "RationalQSeries":
        return self._coerce(other) - self

    def __mul__(self, other) -> "RationalQSeries":
        if isinstance(other, (int, Fraction)):
            c = Fraction(other)
            return RationalQSeries._of([x * c.numerator for x in self.numerators], self.denominator * c.denominator)
        o = self._coerce(other)
        n = min(self.truncation_order, o.truncation_order)
        a, b = self.numerators[: n + 1], o.numerators[: n + 1]
        # Kronecker substitution: a series packs into one int, a byte slot per
        # coefficient, and one big-int product makes every coefficient.  A slot
        # spans over twice any |sum_i a_i b_(k-i)| and holds x + half >= 0.
        slot = (max(x.bit_length() for x in a) + max(x.bit_length() for x in b) + (n + 1).bit_length()) // 8 + 1
        half, size = 1 << (8 * slot - 1), slot * (n + 1)
        bias = int.from_bytes((bytes(slot - 1) + b"\x80") * (n + 1), "little")  # half in every slot

        def pack(xs):
            return int.from_bytes(b"".join((x + half).to_bytes(slot, "little") for x in xs), "little") - bias

        pa = pack(a)
        product = pa * (pa if o is self else pack(b))  # a square packs once and squares faster
        digits = ((product + bias) & ((1 << 8 * size) - 1)).to_bytes(size, "little")  # a mask: % would divide
        out = [int.from_bytes(digits[i : i + slot], "little") - half for i in range(0, size, slot)]
        return RationalQSeries._of(out, self.denominator * o.denominator)

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> "RationalQSeries":
        if not isinstance(exponent, int):
            raise TypeError("only integer powers are supported")
        if exponent < 0:
            return (self ** -exponent).reciprocal()  # one division of a small power
        if exponent == 0:
            return RationalQSeries.one(self.truncation_order)
        result = None
        base = self
        e = exponent
        while True:
            if e & 1:
                result = base if result is None else result * base
            e >>= 1
            if not e:
                return result
            base = base * base

    def __truediv__(self, other) -> "RationalQSeries":
        """The quotient up to the lower truncation order n.

        With self = B/d, other = A/e and c = A_0, B/A has coefficients
        F_k / c^(k+1), where the integers F_k = B_k c^k - sum_(i>=1) A_i
        c^(i-1) F_(k-i); over the common denominator d c^(n+1), self/other
        has the numerators e F_k c^(n-k).
        """
        o = self._coerce(other)
        c = o.numerators[0]
        if c == 0:
            raise ZeroDivisionError("not invertible as q-series")
        n = min(self.truncation_order, o.truncation_order)
        powers = [c**k for k in range(n + 1)]
        rs = [x * p for x, p in zip(o.numerators[n:0:-1], powers[n - 1 :: -1])]  # rs[n - i] is A_i c^(i-1)
        fs: list[int] = []
        for k in range(n + 1):
            fs.append(self.numerators[k] * powers[k] - sum(map(mul, fs, rs[n - k :])))
        out = [o.denominator * f * p for f, p in zip(fs, reversed(powers))]
        return RationalQSeries._of(out, self.denominator * powers[n] * c)

    def reciprocal(self) -> "RationalQSeries":
        """Multiplicative inverse up to the truncation order."""
        return RationalQSeries.one(self.truncation_order) / self

    def dee(self) -> "RationalQSeries":
        """The operator q d/dq: coefficient n maps to n times itself."""
        return RationalQSeries._of([n * x for n, x in enumerate(self.numerators)], self.denominator)


def eisenstein_qseries(weight: int, truncation_order: int) -> RationalQSeries:
    """Normalized Eisenstein series E_weight = 1 - (2 weight/B_weight) sum
    sigma_{weight-1}(n) q^n of any even weight >= 2, exactly."""
    if weight % 2 or weight < 2:
        raise ValueError("weight must be an even integer >= 2")
    if truncation_order < 0:
        raise ValueError("truncation_order must be >= 0")
    c = -2 * weight / bernoulli(weight)
    return RationalQSeries._of(
        [c.denominator] + [c.numerator * sigma(n, weight - 1) for n in range(1, truncation_order + 1)],
        c.denominator,
    )


def make_eisenstein(weight: int, truncation_order: int) -> RationalQSeries:
    """Normalized Eisenstein series of a generator weight (2, 4, 6, 10)."""
    if weight not in EISENSTEIN_COEFF:
        raise ValueError("weight not in {2, 4, 6, 10}")
    return eisenstein_qseries(weight, truncation_order)


# --------------------------------------------------------------------------
# Expression trees over the generators E2, E4, E6, E10.


GENERATOR_WEIGHTS = {"E2": 2, "E4": 4, "E6": 6, "E10": 10}

# The formula path's cap on a form's pole order at i or rho, plus its E2
# power.  Each pole order, read from the exact valuation, adds a term to
# every series and a basis element to every solve, and the auxiliary forms
# of E2^n f have the pole order of f plus n.  On a 2-core x86-64 VM, in a
# fresh process at 256 bits: `expand --form "1/E6^40" --point i --depth
# 200` takes 3.1 s; `verify --m 0 --tol 1e-8` takes 1.1 s on "1/E6^40",
# 4.7 s on "E2^29 * (1/E6^11)" and 9.1 s on "E2^20 * (1/E10^20)", and
# `verify --form "1/E6^40" --m 0..3` 2.3-2.5 s.  It is stated here, with
# the grammar of forms, so that the CLI checks it without loading mpmath.
MAX_POLE_ORDER = 40


@dataclass(frozen=True)
class FormExpression:
    """Base class for expression-tree nodes; use the subclasses below."""

    @property
    def weight(self) -> int:
        raise NotImplementedError

    def quotient(self, truncation_order: int) -> tuple[RationalQSeries | None, RationalQSeries | None]:
        """The form as (numerator, denominator) series, None for the series 1."""
        raise NotImplementedError

    def qseries(self, truncation_order: int) -> RationalQSeries:
        """The form's series: its quotient, divided once if it has a denominator."""
        num, den = self.quotient(truncation_order)
        return num if den is None else (RationalQSeries.one(truncation_order) if num is None else num) / den

    def nodes(self) -> Iterator[FormExpression]:
        """This node and every node below it, depth first; a node's
        children are its FormExpression fields, alone or in a tuple."""
        yield self
        for value in vars(self).values():
            for child in value if isinstance(value, tuple) else (value,):
                if isinstance(child, FormExpression):
                    yield from child.nodes()

    def has_reciprocal(self) -> bool:
        return any(isinstance(node, Reciprocal) for node in self.nodes())

    def contains_generator(self, name: str) -> bool:
        return any(isinstance(node, Generator) and node.name == name for node in self.nodes())

    def __str__(self) -> str:
        raise NotImplementedError


@dataclass(frozen=True)
class Generator(FormExpression):
    name: str

    def __post_init__(self):
        if self.name not in GENERATOR_WEIGHTS:
            raise ValueError(f"unknown generator {self.name!r}")

    @property
    def weight(self) -> int:
        return GENERATOR_WEIGHTS[self.name]

    def quotient(self, truncation_order: int):
        return make_eisenstein(GENERATOR_WEIGHTS[self.name], truncation_order), None

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True)
class Constant(FormExpression):
    value: Fraction

    @property
    def weight(self) -> int:
        return 0

    def quotient(self, truncation_order: int):
        return RationalQSeries.constant(self.value, truncation_order), None

    def __str__(self) -> str:
        return str(self.value)


@dataclass(frozen=True)
class Product(FormExpression):
    factors: tuple[FormExpression, ...]

    @property
    def weight(self) -> int:
        return sum(f.weight for f in self.factors)

    def quotient(self, truncation_order: int):
        sides = zip(*(f.quotient(truncation_order) for f in self.factors))
        present = ([x for x in side if x is not None] for side in sides)  # None is 1: nothing to multiply
        return tuple(reduce(mul, xs) if xs else None for xs in present)

    def __str__(self) -> str:
        return " * ".join(str(f) for f in self.factors)


@dataclass(frozen=True)
class Power(FormExpression):
    base: FormExpression
    exponent: int

    def __post_init__(self):
        if self.exponent < 2:
            raise ValueError(f"Power exponent must be >= 2, got {self.exponent}")

    @property
    def weight(self) -> int:
        return self.exponent * self.base.weight

    def quotient(self, truncation_order: int):
        return tuple(None if x is None else x**self.exponent for x in self.base.quotient(truncation_order))

    def __str__(self) -> str:
        base = str(self.base) if isinstance(self.base, (Generator, Constant)) else f"({self.base})"
        return f"{base}^{self.exponent}"


@dataclass(frozen=True)
class Reciprocal(FormExpression):
    operand: FormExpression

    @property
    def weight(self) -> int:
        return -self.operand.weight

    def quotient(self, truncation_order: int):
        num, den = self.operand.quotient(truncation_order)
        if num is not None and num.numerators[0] == 0:  # no inverse, even where 1/(1/f) would cancel
            raise ZeroDivisionError("not invertible as q-series")
        return den, num

    def __str__(self) -> str:
        return f"1/({self.operand})"


@dataclass(frozen=True)
class Dee(FormExpression):
    """D = (1/2 pi i) d/dz, acting on q-series as q d/dq."""

    operand: FormExpression

    @property
    def weight(self) -> int:
        return self.operand.weight + 2

    def quotient(self, truncation_order: int):
        # divides a quotient operand first: the quotient rule D(N/Q) =
        # (D N * Q - N * D Q) / Q^2 would square Q at every nested D
        return self.operand.qseries(truncation_order).dee(), None

    def __str__(self) -> str:
        return f"D({self.operand})"


class FormParseError(ValueError):
    pass


_ONE = Constant(Fraction(1))


def parse_form(text: str) -> FormExpression:
    """Parse a form such as ``E2^2 * (1/E6^4)`` or ``D(1/E10)`` with Python's
    parser, ``^`` read as ``**``: integer literals, E2, E4, E6, E10, ``*``,
    ``/``, ``^`` with a signed integer exponent, parentheses and ``D(...)``.
    Anything else, or more than 200 nested parentheses or about 3000
    factors in one product, raises ``FormParseError``."""
    source = " ".join(text.split()).replace("^", "**")  # one line, so a column places a node
    try:
        tree = ast.parse(source, mode="eval")
    except (SyntaxError, ValueError) as exc:  # ValueError: a NUL byte, on older Pythons
        raise FormParseError(f"cannot parse {text!r}: {getattr(exc, 'msg', exc)}") from None
    except (RecursionError, MemoryError):
        # how Python's parser gives up on about 3000 factors or nested operators
        raise FormParseError("form is nested too deeply or has too many factors") from None
    return _walk(tree.body, source)


def _walk(node: ast.expr, source: str) -> FormExpression:
    """The form tree of one node of the parsed ``source``."""
    if isinstance(node, ast.BinOp) and isinstance(node.op, (ast.Mult, ast.Div)):
        # * and / associate to the left, so a chain of them runs down the left
        # operands and a right operand that is a product was in parentheses,
        # as was a left one that starts after the chain: both stay nested
        start, factors = node.col_offset, []
        while isinstance(node, ast.BinOp) and isinstance(node.op, (ast.Mult, ast.Div)) and node.col_offset == start:
            rhs = _walk(node.right, source)
            factors.append(Reciprocal(rhs) if isinstance(node.op, ast.Div) else rhs)
            node = node.left
        factors.append(_walk(node, source))
        return _product(factors[::-1])
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Pow):
        base, exponent, sign = _walk(node.left, source), node.right, 1
        if isinstance(exponent, ast.UnaryOp) and isinstance(exponent.op, ast.USub):
            exponent, sign = exponent.operand, -1
        if not (isinstance(exponent, ast.Constant) and type(exponent.value) is int):
            raise FormParseError(f"expected an integer exponent, found {_segment(exponent, source)!r}")
        e = sign * exponent.value
        if e < 0:
            return Reciprocal(base if e == -1 else Power(base, -e))
        return _ONE if e == 0 else base if e == 1 else Power(base, e)
    if isinstance(node, ast.Name) and node.id in GENERATOR_WEIGHTS:
        return Generator(node.id)
    if isinstance(node, ast.Constant) and type(node.value) is int:
        return Constant(Fraction(node.value))
    if isinstance(node, ast.Call) and getattr(node.func, "id", "") == "D" and len(node.args) == 1 and not node.keywords:
        return Dee(_walk(node.args[0], source))
    raise FormParseError(f"unexpected {_segment(node, source)!r} in a form")


def _product(factors: list[FormExpression]) -> FormExpression:
    """The product of ``factors`` without its factors 1."""
    kept = [f for f in factors if f != _ONE] or [_ONE]
    return kept[0] if len(kept) == 1 else Product(tuple(kept))


def _segment(node: ast.expr, source: str) -> str:
    """The text of ``node``, with powers spelled ``^`` as forms spell them."""
    return ast.get_source_segment(source, node).replace("**", "^")


def split_e2_power(expr: FormExpression) -> tuple[int, FormExpression]:
    """Split a top-level product into (E2 exponent, E2-free remainder).

    Raises ``FormParseError`` when E2 occurs anywhere other than as a
    plain top-level factor E2^n.
    """
    factors = list(expr.factors) if isinstance(expr, Product) else [expr]
    n = 0
    rest: list[FormExpression] = []
    for f in factors:
        if isinstance(f, Generator) and f.name == "E2":
            n += 1
        elif isinstance(f, Power) and isinstance(f.base, Generator) and f.base.name == "E2":
            n += f.exponent
        elif f.contains_generator("E2"):
            raise FormParseError("E2 must appear only as a top-level factor E2^n")
        else:
            rest.append(f)
    return n, _product(rest)


def contains_dee(expr: FormExpression) -> bool:
    return any(isinstance(node, Dee) for node in expr.nodes())


def oracle_coeffs(expr: FormExpression | str, n_max: int) -> tuple[Fraction, ...]:
    """Exact Fourier coefficients for 0 <= m <= n_max; ValueError if not invertible."""
    expr = parse_form(expr) if isinstance(expr, str) else expr
    try:
        return expr.qseries(n_max).coeffs
    except ZeroDivisionError:
        why = "divides by a q-series with constant term 0, so it is not bounded at the cusp"
        raise ValueError(f"{expr} {why}") from None
