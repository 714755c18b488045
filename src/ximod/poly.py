"""Dense univariate polynomials over an exact coefficient field."""
from __future__ import annotations

from .errors import BothZero, DivisionByZero, TagMismatch
from .fields import Field, Scalar


class Poly:
    """A polynomial stored as a coefficient tuple, index = degree.

    The representation is canonical: no trailing zero coefficients, so the
    zero polynomial is the empty tuple and equality is structural.
    """

    __slots__ = ("field", "coeffs")

    def __init__(self, field: Field, coeffs):
        coeffs = list(coeffs)
        for c in coeffs:
            if not isinstance(c, Scalar) or (c.field is not field and c.field != field):
                raise TagMismatch("coefficient does not belong to the declared field")
        while coeffs and coeffs[-1].is_zero:
            coeffs.pop()
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "coeffs", tuple(coeffs))

    def __setattr__(self, name, _value):
        raise AttributeError(f"Poly is immutable; cannot set {name!r}")

    # construction ------------------------------------------------------
    @classmethod
    def zero(cls, field: Field) -> "Poly":
        return cls(field, ())

    @classmethod
    def one(cls, field: Field) -> "Poly":
        return cls(field, (field.one(),))

    @classmethod
    def x(cls, field: Field) -> "Poly":
        return cls(field, (field.zero(), field.one()))

    @classmethod
    def constant(cls, c: Scalar) -> "Poly":
        return cls(c.field, (c,))

    @classmethod
    def from_ints(cls, field: Field, ints) -> "Poly":
        return cls(field, tuple(field.from_int(n) for n in ints))

    # predicates --------------------------------------------------------
    @property
    def degree(self) -> int:
        """Degree; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1] == self.field.one()

    @property
    def leading_coefficient(self) -> Scalar:
        if not self.coeffs:
            raise ZeroDivisionError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def coefficient(self, k: int) -> Scalar:
        return self.coeffs[k] if 0 <= k < len(self.coeffs) else self.field.zero()

    # arithmetic ---------------------------------------------------------
    def _check(self, other: "Poly"):
        if not isinstance(other, Poly):
            raise TypeError(f"expected a Poly, got {other!r}")
        if other.field is not self.field and other.field != self.field:
            raise TagMismatch("polynomials over different fields")

    def __add__(self, other):
        self._check(other)
        n = max(len(self.coeffs), len(other.coeffs))
        return Poly(
            self.field,
            (self.coefficient(k) + other.coefficient(k) for k in range(n)),
        )

    def __sub__(self, other):
        self._check(other)
        n = max(len(self.coeffs), len(other.coeffs))
        return Poly(
            self.field,
            (self.coefficient(k) - other.coefficient(k) for k in range(n)),
        )

    def __neg__(self):
        return Poly(self.field, (-c for c in self.coeffs))

    def __mul__(self, other):
        if isinstance(other, Scalar):
            return self.scale(other)
        self._check(other)
        if self.is_zero or other.is_zero:
            return Poly.zero(self.field)
        zero = self.field.zero()
        out = [zero] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a.is_zero:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] = out[i + j] + a * b
        return Poly(self.field, out)

    def scale(self, c: Scalar) -> "Poly":
        return Poly(self.field, (a * c for a in self.coeffs))

    def __pow__(self, n: int) -> "Poly":
        if n < 0:
            raise ValueError("negative polynomial power")
        result = Poly.one(self.field)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __divmod__(self, other):
        self._check(other)
        if other.is_zero:
            raise DivisionByZero("polynomial division by zero")
        if self.degree < other.degree:
            return Poly.zero(self.field), self
        rem = list(self.coeffs)
        lead_inv = other.leading_coefficient.inv()
        dg = other.degree
        quot = [self.field.zero()] * (len(rem) - dg)
        for k in range(len(rem) - 1, dg - 1, -1):
            c = rem[k]
            if c.is_zero:
                continue
            q = c * lead_inv
            quot[k - dg] = q
            for j, b in enumerate(other.coeffs):
                rem[k - dg + j] = rem[k - dg + j] - q * b
        return Poly(self.field, quot), Poly(self.field, rem)

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
        return self.scale(self.leading_coefficient.inv())

    def derivative(self) -> "Poly":
        return Poly(
            self.field,
            (self.coeffs[k] * self.field.from_int(k) for k in range(1, len(self.coeffs))),
        )

    def eval(self, s: Scalar) -> Scalar:
        # Horner
        acc = self.field.zero()
        for c in reversed(self.coeffs):
            acc = acc * s + c
        return acc

    # comparison / rendering ----------------------------------------------
    def __eq__(self, other):
        if not isinstance(other, Poly):
            return NotImplemented
        self._check(other)
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.field, self.coeffs))

    def sort_key(self):
        return (self.degree, tuple(c.sort_key() for c in self.coeffs))

    def __str__(self):
        if self.is_zero:
            return "0"
        parts = []
        one = self.field.one()
        for k in range(len(self.coeffs) - 1, -1, -1):
            c = self.coeffs[k]
            if c.is_zero:
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
    a, b = f, g
    while not b.is_zero:
        # keeping remainders monic tames coefficient growth over the rationals
        a, b = b, (a % b)
        if not b.is_zero:
            b = b.monic()
    return a.monic()
