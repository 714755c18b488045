"""Dense univariate polynomials over an exact coefficient field.

Over Q and Q(i) a `Poly` is stored as its integral lift: `u`, a tuple of
ints over Q or of (re, im) pairs of ints over Q(i), and `den`, one positive
int, with coefficient k equal to u[k] / den.  The lift is canonical (no
trailing zero, and gcd(den, every component of u) = 1), so equality is
structural.  Every ring operation runs on u in ints and normalises its
result once (`_from_lift`).  Division is pseudo-division by the divisor's
lead, which is made a positive int first: over Q(i) the divisor is
multiplied by the conjugate of its lead (`_pseudo_divmod`).  Over F_p, `u`
is the tuple of residues and `den` is 1.

`values`, the raw coefficients as a `Scalar` holds them (Fractions over Q,
`Gaussian` pairs of Fractions over Q(i), residues over F_p), is boxed from
the lift on first read and cached; over F_p it is `u` itself.  No ring
operation reads it: printing, ordering, evaluation at a point (`eval`)
and the Scalar readers (`coeffs`, `leading_coefficient`) do.  `lift` and
`_box` are the one way between raw values and lifts, for vectors and
matrices (`matrix`) as for polynomials.

Over F_p, a product whose shorter factor has `_KRON_MIN` coefficients or
more is one integer product (Kronecker substitution, `_kron`) in the
narrowest native lane of 8, 16, 32 or 64 bits that holds every coefficient
of the product (`_lane`): 8 bits at p = 2 up to length 63, 32 bits at
p = 101 and at p = 10007 up to length 15, 64 bits at p = 10007 from
length 16, none from p = 2^31 up.  Where no lane holds them, shorter
factors and the other fields run the schoolbook loop.
"""
from __future__ import annotations

import sys
from array import array
from fractions import Fraction
from itertools import chain, zip_longest
from math import gcd, lcm
from operator import index

from .errors import BothZero, DivisionByZero, TagMismatch
from .fields import Field, Gaussian, GaussianRationals, Scalar


def _value(field: Field, c):
    """The raw value of the Scalar c, which must belong to field."""
    if not isinstance(c, Scalar) or (c.field is not field and c.field != field):
        raise TagMismatch("scalar does not belong to the declared field")
    return c.value


# -- integral lifts -------------------------------------------------------------

def lift(field: Field, values) -> tuple[list, int]:
    """(u, L) with values = u / L for raw values over K: u holds ints over Q,
    plain (re, im) pairs of ints over Q(i), residues over F_p (L = 1), and
    L is the lcm of the denominators.  Integral code computes on u, and
    `_box` is the way back."""
    if field.characteristic:
        return list(values), 1
    if isinstance(field, GaussianRationals):
        L = lcm(*(x.denominator for pair in values for x in pair))
        return [(a.numerator * (L // a.denominator), b.numerator * (L // b.denominator))
                for a, b in values], L
    L = lcm(*(x.denominator for x in values))
    return [x.numerator * (L // x.denominator) for x in values], L


def _box(field: Field, u, L) -> list:
    """The raw values u / L over K for lifted values u, the inverse of
    `lift`; L is an integer, or over Q(i) a Gaussian integer (re, im) as an
    `Echelon` gives it.  Over F_p, L = 1 and u is reduced mod p here."""
    p = field.characteristic
    if p:
        return [a % p for a in u]
    zero = field.canon(0)
    if isinstance(field, GaussianRationals):
        if isinstance(L, tuple):  # (a + bi) / L = (a + bi) conj(L) / |L|^2
            lr, li = L
            u, L = _times(u, (lr, -li), True), lr * lr + li * li
        return [Gaussian((Fraction(a, L), Fraction(b, L))) if a or b else zero for a, b in u]
    return [Fraction(a, L) if a else zero for a in u]


def _canonical(u, den, gaussian: bool) -> tuple[tuple, int]:
    """The canonical lift of u / den over Q or Q(i): no trailing zero, den
    positive and gcd(den, every component of u) = 1.  den is a nonzero int,
    over Q(i) also a Gaussian integer (re, im), divided out through its
    conjugate as `_box` does, or None for the lead of u, which gives the
    lift of u's monic scaling."""
    u = list(u)
    if gaussian:
        while u and not (u[-1][0] or u[-1][1]):
            u.pop()
        if den is None:
            den = u[-1] if u else 1
        if isinstance(den, tuple):
            dr, di = den
            if di:
                # the content shared with den first, while u is small
                g = gcd(dr, di, *chain.from_iterable(u))
                if g != 1:
                    u, dr, di = [(a // g, b // g) for a, b in u], dr // g, di // g
                u, den = _times(u, (dr, -di), True), dr * dr + di * di
            else:
                den = dr
        if den < 0:
            u, den = [(-a, -b) for a, b in u], -den
        if den != 1:
            g = gcd(den, *chain.from_iterable(u))
            if g != 1:
                u, den = [(a // g, b // g) for a, b in u], den // g
        return tuple(u), den
    while u and not u[-1]:
        u.pop()
    if den is None:
        den = u[-1] if u else 1
    if den < 0:
        u, den = [-a for a in u], -den
    if den != 1:
        g = gcd(den, *u)
        if g != 1:
            u, den = [a // g for a in u], den // g
    return tuple(u), den


def _from_lift(field: Field, u, den=1) -> "Poly":
    """The Poly u / den for lifted values u (see `lift`) and a nonzero den
    as `_canonical` takes it; over F_p, u is reduced mod p and den is 1."""
    f = object.__new__(Poly)
    p = field.characteristic
    if p:
        u = [a % p for a in u]
        while u and not u[-1]:
            u.pop()
        u, den = tuple(u), 1
        _set_values(f, u)
    else:
        u, den = _canonical(u, den, isinstance(field, GaussianRationals))
    _set_field(f, field)
    _set_u(f, u)
    _set_den(f, den)
    return f


def _poly(field: Field, values) -> "Poly":
    """The Poly with raw coefficients `values`, lifted (see `lift`)."""
    return _from_lift(field, *lift(field, values))


def _times(u, k, gaussian: bool) -> list:
    """The lifted values u (see `lift`) times k: an int, or over Q(i) also
    a Gaussian integer (re, im).  Only the fused loops (`Poly.__mul__`,
    `_pseudo_divmod`, `Echelon`, `_Lifted.dot`) scale by one elsewhere."""
    if not gaussian:
        return [k * a for a in u]
    if isinstance(k, tuple):
        kr, ki = k
        if ki:
            return [(kr * a - ki * b, kr * b + ki * a) for a, b in u]
        k = kr
    return [(k * a, k * b) for a, b in u]


def _power(x, n: int, mul):
    """x^n for n >= 1 under the product mul, by left-to-right
    square-and-multiply: one squaring per bit of n after the leading one,
    then a product by x where that bit is set."""
    result = x
    for bit in bin(n)[3:]:
        result = mul(result, result)
        if bit == "1":
            result = mul(result, x)
    return result


def _conj_lead(b, gaussian: bool):
    """(c, b') with b' = c b for an integral lift b: c is the sign of b's
    lead over Q, and its conjugate over Q(i) (or its sign where it is
    real), so that b's lead becomes a positive int N, stored as (N, 0)
    over Q(i)."""
    if gaussian:
        lr, li = b[-1]
        c = (lr, -li) if li else ((1, 0) if lr > 0 else (-1, 0))
    else:
        c = 1 if b[-1] > 0 else -1
    return c, (b if c in (1, (1, 0)) else _times(b, c, gaussian))


def _pseudo_divmod(a, b, gaussian: bool) -> tuple[list, list, int]:
    """(q, r, s) with s a = q b + r and deg r < deg b, for integral lifts a
    and b whose lead is a positive int N (over Q(i), the pair (N, 0)) and
    len(a) >= len(b) (Geddes, Czapor & Labahn, *Algorithms for Computer
    Algebra*, 7.2).  Each step cancels the top coefficient c of r against
    N x^j b, after scaling r and q by only N / gcd(N, c), so that s is a
    positive int and nothing is scaled where N divides each such c, as
    for an integral monic b (N = 1)."""
    m = len(b) - 1
    body, rem = b[:m], list(a)
    quot = [(0, 0) if gaussian else 0] * (len(a) - m)
    s = 1
    if gaussian:
        N = b[m][0]
        for k in range(len(rem) - 1, m - 1, -1):
            cr, ci = rem[k]
            if not (cr or ci):
                continue
            g = gcd(N, cr, ci)
            if g != N:
                f = N // g
                rem, quot, s = _times(rem[:k], f, True), _times(quot, f, True), s * f
            cr, ci = cr // g, ci // g
            quot[k - m] = (cr, ci)
            rem[k - m:k] = [(x - cr * y + ci * z, w - cr * z - ci * y)
                            for (x, w), (y, z) in zip(rem[k - m:k], body)]
        return quot, rem[:m], s
    N = b[m]
    for k in range(len(rem) - 1, m - 1, -1):
        c = rem[k]
        if not c:
            continue
        g = gcd(N, c)
        if g != N:
            f = N // g
            rem, quot, s = [f * x for x in rem[:k]], [f * x for x in quot], s * f
        c //= g
        quot[k - m] = c
        rem[k - m:k] = [x - c * y for x, y in zip(rem[k - m:k], body)]
    return quot, rem[:m], s


def _divmod_fp(a, b, p: int) -> tuple[list, list]:
    """Schoolbook (q, r) with a = q b + r mod p for residue lists with
    len(a) >= len(b), r left unreduced: each remainder coefficient is
    reduced once, when it is read as the next quotient term."""
    m = len(b) - 1
    inv = pow(b[m], -1, p)
    rem = list(a)
    quot = [0] * (len(rem) - m)
    for k in range(len(rem) - 1, m - 1, -1):
        c = rem[k] % p
        if c:
            q = quot[k - m] = c * inv % p
            # b's leading term cancels rem[k], which is not read again
            rem[k - m:k] = [s - q * t for s, t in zip(rem[k - m:k], b)]
    return quot, rem[:m]


# Kronecker substitution packs residues into the lanes of one int, native
# unsigned array items of 8, 16, 32 or 64 bits; a narrower lane makes the
# packed ints, their product and the unpacking shorter
_LANES = sorted({8 * array(t).itemsize: t for t in "QLIHB"}.items())
_WIDTH = {lane: width // 8 for width, lane in _LANES}
# a packed product beats schoolbook from a shorter factor of length 2 to 4
# on CPython 3.11, x86-64; at 2 and 3 by about 1 us, at 12 by 2-3x
_KRON_MIN = 4


def _lane(p: int, n: int) -> str | None:
    """The typecode of the narrowest lane that holds every coefficient of a
    product of residues mod p whose shorter factor has length n, a sum of
    at most n terms up to (p - 1)^2, so below 2^(2 bitlen(p - 1) + bitlen(n));
    None where no native lane is that wide."""
    bits = 2 * (p - 1).bit_length() + n.bit_length()
    for width, lane in _LANES:
        if bits <= width:
            return lane
    return None


def _pack(a, lane: str) -> int:
    """The residues a as one int, one lane per entry, entry 0 in the lowest
    lane on a little-endian host and in the highest on a big-endian one."""
    return int.from_bytes(array(lane, a).tobytes(), sys.byteorder)


def _unpack(x: int, n: int, lane: str) -> list[int]:
    """The n lanes of x, the inverse of `_pack` on n entries."""
    return memoryview(x.to_bytes(n * _WIDTH[lane], sys.byteorder)).cast(lane).tolist()


def _kron(a, b, lane: str) -> list[int]:
    """The unreduced coefficients of the product of the nonempty residue
    lists a and b, in a lane `_lane` gives for them: each list is packed
    into one int and the two ints are multiplied once.

    On a big-endian host `_pack` packs the reversed lists, whose product is
    the reversed product, and the unpacking restores the order.
    """
    x = _pack(a, lane)
    y = x if b is a else _pack(b, lane)
    return _unpack(x * y, len(a) + len(b) - 1, lane)


def _schoolbook(a, b) -> list[int]:
    """The product of the nonempty int lists a and b, one pass over a; the
    shorter list should be a."""
    n = len(b)
    out = [0] * (len(a) + n - 1)
    for i, c in enumerate(a):
        if c:
            out[i:i + n] = [s + c * t for s, t in zip(out[i:i + n], b)]
    return out


class Poly:
    """A polynomial stored as its lift (`u`, `den`), index = degree;
    ``Poly(field, scalars)`` checks and unboxes the Scalars.

    The representation is canonical (see the module docstring), so the
    zero polynomial is ``u == ()`` and equality is structural.  Over Q and
    Q(i) the `values` slot is empty until first read; `__getattr__` boxes
    it then.
    """

    __slots__ = ("field", "u", "den", "values")

    def __new__(cls, field: Field, coeffs):
        return _poly(field, [_value(field, c) for c in coeffs])

    def __setattr__(self, name, _value):
        raise AttributeError(f"Poly is immutable; cannot set {name!r}")

    def __getattr__(self, name):
        # called only for an empty slot: `values` over Q and Q(i) is boxed
        # on first read and kept
        if name != "values":
            raise AttributeError(f"'Poly' object has no attribute {name!r}")
        values = tuple(_box(self.field, self.u, self.den))
        _set_values(self, values)
        return values

    # construction ------------------------------------------------------
    @classmethod
    def zero(cls, field: Field) -> "Poly":
        return _from_lift(field, ())

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
        if isinstance(field, GaussianRationals):
            return _from_lift(field, [(n, 0) for n in map(index, ints)])
        return _from_lift(field, list(map(index, ints)))

    # predicates --------------------------------------------------------
    @property
    def coeffs(self) -> tuple[Scalar, ...]:
        """The coefficients as Scalars, index = degree."""
        return tuple(Scalar(self.field, v) for v in self.values)

    @property
    def degree(self) -> int:
        """Degree; -1 for the zero polynomial."""
        return len(self.u) - 1

    @property
    def is_zero(self) -> bool:
        return not self.u

    @property
    def is_monic(self) -> bool:
        u = self.u
        if not u:
            return False
        if isinstance(self.field, GaussianRationals):
            return u[-1] == (self.den, 0)
        return u[-1] == self.den

    @property
    def leading_coefficient(self) -> Scalar:
        if not self.u:
            raise ZeroDivisionError("zero polynomial has no leading coefficient")
        return Scalar(self.field, _box(self.field, self.u[-1:], self.den)[0])

    def coefficient(self, k: int) -> Scalar:
        v = self.values
        return Scalar(self.field, v[k]) if 0 <= k < len(v) else self.field.zero()

    # arithmetic ---------------------------------------------------------
    def _check(self, other: "Poly"):
        if not isinstance(other, Poly):
            raise TypeError(f"expected a Poly, got {other!r}")
        if other.field is not self.field and other.field != self.field:
            raise TagMismatch("polynomials over different fields")

    def _aligned(self, other: "Poly"):
        """(a, b, den, gaussian): the lifts of self and other over one den."""
        self._check(other)
        a, b, da, db = self.u, other.u, self.den, other.den
        gaussian = isinstance(self.field, GaussianRationals)
        if da == db:  # always over F_p
            return a, b, da, gaussian
        g = gcd(da, db)
        return _times(a, db // g, gaussian), _times(b, da // g, gaussian), da // g * db, gaussian

    def __add__(self, other):
        a, b, den, gaussian = self._aligned(other)
        if gaussian:
            u = [(x[0] + y[0], x[1] + y[1]) for x, y in zip_longest(a, b, fillvalue=(0, 0))]
        else:
            u = [x + y for x, y in zip_longest(a, b, fillvalue=0)]
        return _from_lift(self.field, u, den)

    def __sub__(self, other):
        a, b, den, gaussian = self._aligned(other)
        if gaussian:
            u = [(x[0] - y[0], x[1] - y[1]) for x, y in zip_longest(a, b, fillvalue=(0, 0))]
        else:
            u = [x - y for x, y in zip_longest(a, b, fillvalue=0)]
        return _from_lift(self.field, u, den)

    def __neg__(self):
        return _from_lift(self.field, _times(self.u, -1, isinstance(self.field, GaussianRationals)),
                          self.den)

    def __mul__(self, other):
        self._check(other)
        a, b, field = self.u, other.u, self.field
        if not a or not b:
            return _from_lift(field, ())
        if len(a) > len(b):
            a, b = b, a
        p, n = field.characteristic, len(b)
        if p and len(a) >= _KRON_MIN:
            lane = _lane(p, len(a))
            if lane:
                return _from_lift(field, _kron(a, b, lane))
        if isinstance(field, GaussianRationals):
            out = [(0, 0)] * (len(a) + n - 1)
            for i, (cr, ci) in enumerate(a):
                if cr or ci:
                    out[i:i + n] = [(s + cr * tr - ci * ti, t + cr * ti + ci * tr)
                                    for (s, t), (tr, ti) in zip(out[i:i + n], b)]
        else:
            out = _schoolbook(a, b)
        return _from_lift(field, out, self.den * other.den)

    def scale(self, c: Scalar) -> "Poly":
        (k,), L = lift(self.field, [_value(self.field, c)])
        gaussian = isinstance(self.field, GaussianRationals)
        return _from_lift(self.field, _times(self.u, k, gaussian), self.den * L)

    def __pow__(self, n: int) -> "Poly":
        if n < 0:
            raise ValueError("negative polynomial power")
        if not n:
            return Poly.one(self.field)
        # looked up per call, so that a wrapper set on the class sees each product
        return _power(self, n, Poly.__mul__)

    def __divmod__(self, other):
        self._check(other)
        a, b, field = self.u, other.u, self.field
        if not b:
            raise DivisionByZero("polynomial division by zero")
        if len(a) < len(b):
            return _from_lift(field, ()), self
        p = field.characteristic
        if p:
            q, r = _divmod_fp(a, b, p)
            return _from_lift(field, q), _from_lift(field, r)
        # with c b = b' and s a = q' b' + r: a / da = (q' c db / (s da)) (b / db) + r / (s da)
        gaussian = isinstance(field, GaussianRationals)
        c, b = _conj_lead(b, gaussian)
        q, r, s = _pseudo_divmod(a, b, gaussian)
        den = s * self.den
        (k,) = _times([c], other.den, gaussian)  # c db
        q = _times(q, k, gaussian)
        return _from_lift(field, q, den), _from_lift(field, r, den)

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def __mod__(self, other):
        return divmod(self, other)[1]

    def divides(self, other: "Poly") -> bool:
        if self.is_zero:
            return other.is_zero
        return (other % self).is_zero

    def monic(self) -> "Poly":
        u, field = self.u, self.field
        if not u:
            raise DivisionByZero("cannot rescale the zero polynomial")
        if self.is_monic:
            return self
        p = field.characteristic
        if p:
            inv = field.raw_inv(u[-1])
            return _from_lift(field, [a * inv for a in u])
        return _from_lift(field, u, None)  # u / den divided by u[-1] / den

    def derivative(self) -> "Poly":
        if isinstance(self.field, GaussianRationals):
            u = [(k * a, k * b) for k, (a, b) in enumerate(self.u)]
        else:
            u = [k * c for k, c in enumerate(self.u)]
        return _from_lift(self.field, u[1:], self.den)

    def eval(self, s: Scalar) -> Scalar:
        return Scalar(self.field, self._at(_value(self.field, s)))

    def _at(self, x):
        """The raw value at the raw point x, by Horner on `values`: Fractions
        over Q, `Gaussian`s over Q(i), residues reduced mod p at every step
        over F_p."""
        p, acc = self.field.characteristic, self.field.canon(0)
        for c in reversed(self.values):
            acc = (acc * x + c) % p if p else acc * x + c
        return acc

    # comparison / rendering ----------------------------------------------
    def __eq__(self, other):
        if not isinstance(other, Poly):
            return NotImplemented
        self._check(other)
        return self.u == other.u and self.den == other.den

    def __hash__(self):
        return hash((self.field, self.u))

    def sort_key(self):
        return (self.degree, self.values)

    def __str__(self):
        if self.is_zero:
            return "0"
        parts = []
        values = self.values
        one = self.field.canon(1)
        for k in range(len(values) - 1, -1, -1):
            c = values[k]
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


# Poly's slot descriptors set its attributes past the refusing __setattr__
_set_field, _set_u, _set_den, _set_values = (
    Poly.field.__set__, Poly.u.__set__, Poly.den.__set__, Poly.values.__set__
)


def poly_divmod(f: Poly, g: Poly) -> tuple[Poly, Poly]:
    """Euclidean division: f = q*g + r with deg r < deg g."""
    return divmod(f, g)


def poly_gcd(f: Poly, g: Poly) -> Poly:
    """Monic greatest common divisor via the Euclidean algorithm, run on
    the lifts; one Poly is built, at the end.

    A gcd is one up to a unit, so over Q and Q(i) the dens are dropped and
    each remainder is kept as the canonical lift of its monic scaling: over
    Q its primitive part with a positive lead N, over Q(i) with the lead
    (N, 0).  That tames coefficient growth as monic remainders do over the
    field, and each next pseudo-division has an int lead.  Residues cannot
    grow, so over F_p the remainders are left as they come.
    """
    f._check(g)
    if f.is_zero and g.is_zero:
        raise BothZero("gcd(0, 0) is undefined")
    field, a, b = f.field, f.u, g.u
    p = field.characteristic
    if p:
        while b:
            r = [x % p for x in _divmod_fp(a, b, p)[1]] if len(a) >= len(b) else list(a)
            while r and not r[-1]:
                r.pop()
            a, b = b, r
        inv = pow(a[-1], -1, p)
        return _from_lift(field, [x * inv for x in a])
    gaussian = isinstance(field, GaussianRationals)
    while b:
        _, b = _conj_lead(b, gaussian)
        r = _pseudo_divmod(a, b, gaussian)[1] if len(a) >= len(b) else a
        a, b = b, _canonical(r, None, gaussian)[0]
    return _from_lift(field, a, None)
