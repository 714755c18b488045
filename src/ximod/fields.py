"""Exact scalars over the three supported coefficient fields.

A :class:`Field` is the value tag, `canon` and the inverse: two scalars
interoperate only when they carry the same field object.  Arithmetic, truth,
order and printing belong to the raw values themselves (`Fraction` over Q,
`Gaussian` over Q(i), int over F_p); a `Scalar` runs Python's operators on
its value and reduces mod p once per result, as `Poly` does over F_p.
Values are kept canonical at all times (reduced fractions with positive
denominator, `Gaussian` pairs of them, residues in ``[0, p)``), so
equality of scalars is equality of representations.
"""
from __future__ import annotations

from dataclasses import dataclass, field as dataclass_field
from fractions import Fraction
from operator import add, eq, mul, neg, sub, truediv

from .errors import DivisionByZero, TagMismatch


# Miller-Rabin to the first 13 prime bases decides primality exactly below
# this bound (Sorenson & Webster 2015); larger moduli are refused
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MAX_MODULUS = 3317044064679887385961981


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    for q in _MR_BASES:
        if n % q == 0:
            return n == q
    d, r = n - 1, 0
    while d % 2 == 0:
        d, r = d // 2, r + 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1:
            continue
        for _ in range(r):
            if x == n - 1:
                break
            x = x * x % n
        else:
            return False
    return True


# Python's default int-to-str limit: a longer numerator or denominator could
# be parsed but never printed
_MAX_LITERAL_DIGITS = 4300


def _parse_fraction(text: str) -> Fraction:
    # accept the unicode minus sign alongside the ASCII one
    text = text.strip().replace("−", "-")
    # bound "1e10000000" before Fraction spends seconds building 10**exponent
    mantissa, e, exponent = text.lower().partition("e")
    if e:
        try:
            digits = sum(ch.isdigit() for ch in mantissa) + abs(int(exponent))
        except ValueError:
            digits = 0  # not an exponent; Fraction rejects the text itself
        if digits > _MAX_LITERAL_DIGITS:
            raise ValueError(f"literal expands past {_MAX_LITERAL_DIGITS} digits")
    return Fraction(text)


@dataclass(frozen=True)
class Field:
    """A coefficient field: the tag of its values, `canon` and the inverse."""

    kind = "?"
    # p over F_p, else 0; stored on each instance (hence the factory), since
    # CPython reads an instance attribute faster than a class attribute
    characteristic: int = dataclass_field(
        default_factory=int, init=False, repr=False, compare=False
    )

    def canon(self, value):
        raise NotImplementedError

    def raw_inv(self, a):
        raise NotImplementedError

    def parse(self, text: str) -> "Scalar":
        return self.scalar(text)

    # scalar construction -------------------------------------------------
    def scalar(self, value) -> "Scalar":
        return Scalar(self, self.canon(value))

    def zero(self) -> "Scalar":
        return self.from_int(0)

    def one(self) -> "Scalar":
        return self.from_int(1)

    def from_int(self, n: int) -> "Scalar":
        return self.scalar(n)

    def describe(self) -> str:
        return self.kind


@dataclass(frozen=True)
class Rationals(Field):
    """The field of rational numbers; values are ``fractions.Fraction``."""

    kind = "q"

    def canon(self, value):
        if isinstance(value, Fraction):
            return value
        if isinstance(value, int):
            return Fraction(value)
        if isinstance(value, str):
            return _parse_fraction(value)
        raise TypeError(f"cannot build a rational from {value!r}")

    def raw_inv(self, a):
        if a == 0:
            raise DivisionByZero("inverse of zero")
        return 1 / a

    def describe(self):
        return "rationals"


class Gaussian(tuple):
    """A gaussian rational re + im*i as the pair (re, im), with the ring
    operations of a raw value: ``+``, ``-``, ``*``, unary ``-``, truth, and
    ``str`` in the text form that `parse` reads ("i", "-2i", "1/2-3/4i").
    There is no ``__radd__``, so ``sum()`` does not take Gaussian values."""

    __slots__ = ()

    def __add__(self, other):
        return Gaussian((self[0] + other[0], self[1] + other[1]))

    def __sub__(self, other):
        return Gaussian((self[0] - other[0], self[1] - other[1]))

    def __mul__(self, other):
        (a, b), (c, d) = self, other
        return Gaussian((a * c - b * d, a * d + b * c))

    def __neg__(self):
        return Gaussian((-self[0], -self[1]))

    def __bool__(self):
        # calling __bool__ directly skips CPython's slower truth-slot dispatch
        return self[0].__bool__() or self[1].__bool__()

    def __str__(self):
        re, im = self
        if not im:
            return str(re)
        im_part = "i" if im == 1 else "-i" if im == -1 else f"{im}i"
        if not re:
            return im_part
        sep = "" if im_part.startswith("-") else "+"
        return f"{re}{sep}{im_part}"


@dataclass(frozen=True)
class GaussianRationals(Field):
    """Rationals adjoined a square root of -1; values are `Gaussian` pairs."""

    kind = "qi"

    def canon(self, value):
        if isinstance(value, tuple) and len(value) == 2:
            re, im = value
            if isinstance(re, str):
                re = _parse_fraction(re)
            if isinstance(im, str):
                im = _parse_fraction(im)
            return Gaussian((Fraction(re), Fraction(im)))
        if isinstance(value, (int, Fraction)):
            return Gaussian((Fraction(value), Fraction(0)))
        if isinstance(value, str):
            return _parse_gaussian_text(value)
        raise TypeError(f"cannot build a gaussian rational from {value!r}")

    def raw_inv(self, a):
        n = a[0] * a[0] + a[1] * a[1]
        if n == 0:
            raise DivisionByZero("inverse of zero")
        return Gaussian((a[0] / n, -a[1] / n))

    def describe(self):
        return "gaussian rationals"


def _parse_gaussian_text(text: str) -> Gaussian:
    """Parse compact gaussian literals: "3/4", "i", "-2i", "1/2-3i"."""
    s = text.strip().replace("−", "-").replace(" ", "")
    if not s:
        raise ValueError("empty scalar")
    if not s.endswith(("i", "I")):
        return Gaussian((_parse_fraction(s), Fraction(0)))
    body = s[:-1]
    # find a top-level sign separating the real and imaginary parts
    split = -1
    for k in range(len(body) - 1, 0, -1):
        # a sign after e/E belongs to a decimal exponent
        if body[k] in "+-" and body[k - 1] not in "+-/eE":
            split = k
            break
    if split == -1:
        re_text, im_text = "", body
    else:
        re_text, im_text = body[:split], body[split:]
    if im_text in ("", "+"):
        im = Fraction(1)
    elif im_text == "-":
        im = Fraction(-1)
    else:
        im = _parse_fraction(im_text)
    re = _parse_fraction(re_text) if re_text else Fraction(0)
    return Gaussian((re, im))


@dataclass(frozen=True)
class PrimeField(Field):
    """Integers modulo a prime p; values are residues in [0, p)."""

    p: int

    kind = "fp"

    def __post_init__(self):
        if self.p >= _MAX_MODULUS:
            raise ValueError(f"modulus {self.p} is too large (must be below {_MAX_MODULUS})")
        if not _is_prime(self.p):
            raise ValueError(f"modulus {self.p} is not prime")
        object.__setattr__(self, "characteristic", self.p)

    def canon(self, value):
        if isinstance(value, str):
            value = int(value.strip().replace("−", "-"))
        if isinstance(value, int):
            return value % self.p
        raise TypeError(f"cannot build a mod-{self.p} residue from {value!r}")

    def raw_inv(self, a):
        if a == 0:
            raise DivisionByZero("inverse of zero")
        return pow(a, self.p - 2, self.p)

    def elements(self):
        """All field elements, in residue order."""
        return [Scalar(self, r) for r in range(self.p)]

    def describe(self):
        return f"integers mod {self.p}"


QQ = Rationals()
QI = GaussianRationals()


class Scalar:
    """An immutable element of one of the supported fields."""

    __slots__ = ("field", "value")

    def __init__(self, field: Field, value):
        # value is trusted to be canonical (over Q(i) a `Gaussian`, never a
        # plain tuple); use Field.scalar() to canonicalize
        _set_field(self, field)
        _set_value(self, value)

    def __setattr__(self, name, _value):
        raise AttributeError(f"Scalar is immutable; cannot set {name!r}")

    # ------------------------------------------------------------------
    def _check(self, other: "Scalar"):
        if not isinstance(other, Scalar):
            raise TypeError(f"expected a Scalar, got {other!r}")
        if other.field is not self.field and other.field != self.field:
            raise TagMismatch(f"{self.field.describe()} vs {other.field.describe()}")

    def __add__(self, other):
        self._check(other)
        return _scalar(self.field, self.value + other.value)

    def __sub__(self, other):
        self._check(other)
        return _scalar(self.field, self.value - other.value)

    def __mul__(self, other):
        self._check(other)
        return _scalar(self.field, self.value * other.value)

    def __truediv__(self, other):
        self._check(other)
        return _scalar(self.field, self.value * self.field.raw_inv(other.value))

    def __neg__(self):
        return _scalar(self.field, -self.value)

    def inv(self) -> "Scalar":
        return Scalar(self.field, self.field.raw_inv(self.value))

    def __eq__(self, other):
        if not isinstance(other, Scalar):
            return NotImplemented
        if other.field is not self.field and other.field != self.field:
            raise TagMismatch(f"{self.field.describe()} vs {other.field.describe()}")
        return self.value == other.value

    def __hash__(self):
        return hash((self.field, self.value))

    def __bool__(self):
        return bool(self.value)

    @property
    def is_zero(self) -> bool:
        return not self.value

    def sort_key(self):
        return self.value

    def __str__(self):
        return str(self.value)

    def __repr__(self):
        return f"Scalar({self.field.kind}, {self})"


# Scalar's slot descriptors set its attributes past the refusing
# Scalar.__setattr__, and faster than object.__setattr__
_set_field, _set_value = Scalar.field.__set__, Scalar.value.__set__


def _scalar(field: Field, value) -> Scalar:
    """The Scalar with raw value `value`, reduced mod p over F_p; built
    without a call to `__init__`, as `poly._from_lift` builds a Poly."""
    p = field.characteristic
    s = object.__new__(Scalar)
    _set_field(s, field)
    _set_value(s, value % p if p else value)
    return s


_UNARY = {"neg": neg, "inv": Scalar.inv}
_BINARY = {"add": add, "sub": sub, "mul": mul, "div": truediv, "eq": eq}


def field_arithmetic(a: Scalar, b: Scalar | None, op: str):
    """Dispatch a field operation by name.

    ``op`` is one of add, sub, mul, div, neg, inv, eq.  Unary operations
    ignore ``b``; a missing ``b`` is a TypeError before an unknown name is
    a ValueError.  Raises TagMismatch for mixed fields and DivisionByZero
    for div/inv by zero.
    """
    if op in _UNARY:
        return _UNARY[op](a)
    if b is None:
        raise TypeError(f"operation {op!r} needs a second operand")
    if op not in _BINARY:
        raise ValueError(f"unknown operation {op!r}")
    return _BINARY[op](a, b)


def parse_scalar_text(field: Field, text: str) -> Scalar:
    """Parse a scalar literal in the field's text encoding."""
    return field.parse(text)
