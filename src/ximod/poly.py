"""Dense univariate polynomials over an exact coefficient field.

A `Poly` holds the raw values of its coefficients (`Scalar.value`):
Fractions over Q, `Gaussian` pairs over Q(i), residues over F_p.  Its ring
operations run Python's operators on them in one code path for the three
fields, the same arithmetic a `Scalar` runs, and over F_p reduce each
coefficient mod p once, when it is final.  Order and printing are the
values' own; only the inverse comes from the field.  Coefficients are boxed
as Scalars only when read.

Over F_p, a product whose shorter factor has `_KRON_MIN` coefficients or
more is one integer product (Kronecker substitution, `_kron`), where every
coefficient of the product fits a 64-bit lane (`_packs`): at p = 10007 for
any length, never from p = 2^31 up.  Where they do not fit, shorter
factors and the other fields run the schoolbook loop.
"""
from __future__ import annotations

import sys
from array import array
from itertools import zip_longest

from .errors import BothZero, DivisionByZero, TagMismatch
from .fields import Field, Scalar


def _value(field: Field, c):
    """The raw value of the Scalar c, which must belong to field."""
    if not isinstance(c, Scalar) or (c.field is not field and c.field != field):
        raise TagMismatch("scalar does not belong to the declared field")
    return c.value


# Kronecker substitution packs residues into the 64-bit lanes of one int;
# lanes are native words, so products fall back to schoolbook where they
# are not 64 bits wide
_LANE_BITS = 64 if array("Q").itemsize == 8 else 0
# a packed product beats schoolbook from a shorter factor of length 2 to 4
# on CPython 3.11, x86-64; at 2 and 3 by about 1 us, at 12 by 2-3x
_KRON_MIN = 4


def _packs(p: int, n: int) -> bool:
    """Whether `_kron`'s lanes hold every coefficient of a product of
    residues mod p whose shorter factor has length n: a sum of at most n
    terms below (p - 1)^2."""
    return 2 * (p - 1).bit_length() + n.bit_length() <= _LANE_BITS


def _kron(a, b) -> list[int]:
    """The unreduced coefficients of the product of the nonempty residue
    lists a and b, where `_packs` holds: each list is packed into one int,
    one lane per coefficient, and the two ints are multiplied once.

    Lanes are read in native byte order.  On a big-endian host that packs
    the reversed lists, whose product is the reversed product, and the
    unpacking restores the order.
    """
    order = sys.byteorder
    x = int.from_bytes(array("Q", a).tobytes(), order)
    y = x if b is a else int.from_bytes(array("Q", b).tobytes(), order)
    size = 8 * (len(a) + len(b) - 1)
    return memoryview((x * y).to_bytes(size, order)).cast("Q").tolist()


def _poly(field: Field, values) -> "Poly":
    """The Poly with raw coefficients `values`, reduced mod p over F_p."""
    p = field.characteristic
    values = [v % p for v in values] if p else list(values)
    while values and not values[-1]:
        values.pop()
    f = object.__new__(Poly)
    object.__setattr__(f, "field", field)
    object.__setattr__(f, "values", tuple(values))
    return f


class Poly:
    """A polynomial stored as a tuple of raw coefficient values, index =
    degree; ``Poly(field, scalars)`` checks and unboxes the Scalars.

    The representation is canonical: no trailing zero coefficients, so the
    zero polynomial is the empty tuple and equality is structural.
    """

    __slots__ = ("field", "values")

    def __new__(cls, field: Field, coeffs):
        return _poly(field, [_value(field, c) for c in coeffs])

    def __setattr__(self, name, _value):
        raise AttributeError(f"Poly is immutable; cannot set {name!r}")

    # construction ------------------------------------------------------
    @classmethod
    def zero(cls, field: Field) -> "Poly":
        return _poly(field, ())

    @classmethod
    def one(cls, field: Field) -> "Poly":
        return cls.from_ints(field, (1,))

    @classmethod
    def x(cls, field: Field) -> "Poly":
        return cls.from_ints(field, (0, 1))

    @classmethod
    def constant(cls, c: Scalar) -> "Poly":
        return cls(c.field, (c,))

    @classmethod
    def from_ints(cls, field: Field, ints) -> "Poly":
        return _poly(field, [field.canon(n) for n in ints])

    # predicates --------------------------------------------------------
    @property
    def coeffs(self) -> tuple[Scalar, ...]:
        """The coefficients as Scalars, index = degree."""
        return tuple(Scalar(self.field, v) for v in self.values)

    @property
    def degree(self) -> int:
        """Degree; -1 for the zero polynomial."""
        return len(self.values) - 1

    @property
    def is_zero(self) -> bool:
        return not self.values

    @property
    def is_monic(self) -> bool:
        return bool(self.values) and self.values[-1] == self.field.canon(1)

    @property
    def leading_coefficient(self) -> Scalar:
        if not self.values:
            raise ZeroDivisionError("zero polynomial has no leading coefficient")
        return Scalar(self.field, self.values[-1])

    def coefficient(self, k: int) -> Scalar:
        v = self.values
        return Scalar(self.field, v[k]) if 0 <= k < len(v) else self.field.zero()

    # arithmetic ---------------------------------------------------------
    def _check(self, other: "Poly"):
        if not isinstance(other, Poly):
            raise TypeError(f"expected a Poly, got {other!r}")
        if other.field is not self.field and other.field != self.field:
            raise TagMismatch("polynomials over different fields")

    def _pairs(self, other: "Poly"):
        self._check(other)
        return zip_longest(self.values, other.values, fillvalue=self.field.canon(0))

    def __add__(self, other):
        return _poly(self.field, [a + b for a, b in self._pairs(other)])

    def __sub__(self, other):
        return _poly(self.field, [a - b for a, b in self._pairs(other)])

    def __neg__(self):
        return _poly(self.field, [-c for c in self.values])

    def __mul__(self, other):
        self._check(other)
        a, b = self.values, other.values
        if not a or not b:
            return _poly(self.field, ())
        if len(a) > len(b):
            a, b = b, a
        p = self.field.characteristic
        if p and len(a) >= _KRON_MIN and _packs(p, len(a)):
            return _poly(self.field, _kron(a, b))
        out = [self.field.canon(0)] * (len(a) + len(b) - 1)
        for i, c in enumerate(a):
            if c:
                out[i:i + len(b)] = [s + c * t for s, t in zip(out[i:i + len(b)], b)]
        return _poly(self.field, out)

    def scale(self, c: Scalar) -> "Poly":
        v = _value(self.field, c)
        return _poly(self.field, [a * v for a in self.values])

    def __pow__(self, n: int) -> "Poly":
        if n < 0:
            raise ValueError("negative polynomial power")
        if not n:
            return Poly.one(self.field)
        # left to right: one squaring per bit after the leading one
        result = self
        for bit in bin(n)[3:]:
            result = result * result
            if bit == "1":
                result = result * self
        return result

    def __divmod__(self, other):
        self._check(other)
        b, field = other.values, self.field
        if not b:
            raise DivisionByZero("polynomial division by zero")
        db = len(b) - 1
        if self.degree < db:
            return _poly(field, ()), self
        p, inv = field.characteristic, field.raw_inv(b[-1])
        rem = list(self.values)
        quot = [field.canon(0)] * (len(rem) - db)
        for k in range(len(rem) - 1, db - 1, -1):
            c = rem[k] % p if p else rem[k]
            if c:
                q = quot[k - db] = c * inv % p if p else c * inv
                # b's leading term cancels rem[k], which is not read again
                rem[k - db:k] = [s - q * t for s, t in zip(rem[k - db:k], b)]
        return _poly(field, quot), _poly(field, rem[:db])

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def __mod__(self, other):
        return divmod(self, other)[1]

    def divides(self, other: "Poly") -> bool:
        if self.is_zero:
            return other.is_zero
        return (other % self).is_zero

    def monic(self) -> "Poly":
        if self.is_zero:
            raise DivisionByZero("cannot rescale the zero polynomial")
        if self.is_monic:
            return self
        inv = self.field.raw_inv(self.values[-1])
        return _poly(self.field, [a * inv for a in self.values])

    def derivative(self) -> "Poly":
        canon = self.field.canon
        return _poly(self.field, [c * canon(k) for k, c in enumerate(self.values)][1:])

    def eval(self, s: Scalar) -> Scalar:
        return Scalar(self.field, self._at(_value(self.field, s)))

    def _at(self, x):
        """The raw value at x, by Horner, reduced mod p at every step over F_p."""
        p, acc = self.field.characteristic, self.field.canon(0)
        for c in reversed(self.values):
            acc = (acc * x + c) % p if p else acc * x + c
        return acc

    # comparison / rendering ----------------------------------------------
    def __eq__(self, other):
        if not isinstance(other, Poly):
            return NotImplemented
        self._check(other)
        return self.values == other.values

    def __hash__(self):
        return hash((self.field, self.values))

    def sort_key(self):
        return (self.degree, self.values)

    def __str__(self):
        if self.is_zero:
            return "0"
        parts = []
        one = self.field.canon(1)
        for k in range(len(self.values) - 1, -1, -1):
            c = self.values[k]
            if not c:
                continue
            text = str(c)
            composite = any(ch in text[1:] for ch in "+-")
            if k == 0:
                term = f"({text})" if composite else text
            else:
                xpow = "x" if k == 1 else f"x^{k}"
                if c == one:
                    term = xpow
                elif composite:
                    term = f"({text})*{xpow}"
                elif text == "-1":
                    term = f"-{xpow}"
                else:
                    term = f"{text}*{xpow}"
            parts.append(term)
        out = parts[0]
        for term in parts[1:]:
            if term.startswith("-"):
                out += " - " + term[1:]
            else:
                out += " + " + term
        return out

    def __repr__(self):
        return f"Poly({self.field.kind}, {self})"


def poly_divmod(f: Poly, g: Poly) -> tuple[Poly, Poly]:
    """Euclidean division: f = q*g + r with deg r < deg g."""
    return divmod(f, g)


def poly_gcd(f: Poly, g: Poly) -> Poly:
    """Monic greatest common divisor via the Euclidean algorithm."""
    f._check(g)
    if f.is_zero and g.is_zero:
        raise BothZero("gcd(0, 0) is undefined")
    a, b, p = f, g, f.field.characteristic
    while not b.is_zero:
        # keeping remainders monic tames coefficient growth over the
        # rationals; residues cannot grow
        a, b = b, (a % b)
        if not (p or b.is_zero):
            b = b.monic()
    return a.monic()
