"""Squarefree and irreducible factorisation of univariate polynomials.

Factorisation is complete over prime fields (distinct-degree plus
equal-degree splitting).  Everything here computes with `Poly`'s
arithmetic (`divmod`, `poly_gcd` and `_pow_mod` below): on residues over
F_p, reducing each coefficient mod p once, when it is final, and on the
integral lift over Q and Q(i).  Powers mod a fixed modulus run through
`_Modulus` on reduced residue lists, boxed into a `Poly` once per power:
it reduces packed products in the modulus' lane (`poly._lane`) with a
precomputed inverse, and runs the schoolbook product and division where
no lane fits.

Distinct-degree and equal-degree splitting take every p-th power mod a
squarefree part g through one operator phi: h -> h^p mod g (`_Frobenius`).
It is F_p-linear, so where it saves products it is a matrix, whose rows
x^(ip) mod g are built when phi is first applied; elsewhere, always at
p = 2 and 3, it squares.  Equal-degree splitting at degree d reads the
orbit of a random h under phi mod its own factor (`_split_witness`): the
trace at p = 2, and at odd p the norm of h^((p-1)/2), which is
h^((p^d - 1)/2).  Every route gives the residues of repeated squaring and
the random draws are the same, so the splits and factors are too.

Over the rational and gaussian-rational fields it is deliberately partial,
and works on the integral form h = L^n g(x/L) of a monic g and on its
images over F_p at the primes p in increasing order (p = 1 mod 4 over Q(i),
where i maps to either square root of -1).  Squarefree decomposition first:
a squarefree image at one of the first three primes proves g squarefree;
otherwise Musser's gcd peeling runs.  Then exhaustive root extraction:
the smallest prime at which every image is squarefree (one gcd per image)
is the one prime where the prime-field splitting finds the roots mod p,
which are lifted p-adically and checked, and divided out of h, by Horner
in gaussian integers.  A rootless factor of degree <= 3 is irreducible,
since any splitting of it has a linear part.  A rootless factor of degree
>= 4 cannot be decided by these means and raises FactorizationIncomplete;
callers fall back to invariant factors.
"""
from __future__ import annotations

import math
import random
from fractions import Fraction
from functools import cached_property
from itertools import islice, zip_longest

from .errors import FactorizationIncomplete, ZeroPolynomial
from .fields import GaussianRationals, PrimeField, Rationals, Scalar, _is_prime
from .poly import (Poly, _divmod_fp, _from_lift, _kron, _lane, _pack, _poly, _power,
                   _schoolbook, _unpack, poly_gcd)

# fixed seed: equal-degree splitting must be reproducible run to run
_SPLIT_SEED = 0x5EED


# ---------------------------------------------------------------------------
# squarefree decomposition
# ---------------------------------------------------------------------------

def squarefree_decomposition(f: Poly) -> list[tuple[Poly, int]]:
    """Write the monic scaling of f as a product of pairwise-coprime
    squarefree factors with multiplicities, sorted canonically."""
    if f.is_zero:
        raise ZeroPolynomial("cannot decompose the zero polynomial")
    f = f.monic()
    if f.degree == 0:
        return []
    if f.field.characteristic == 0 and _certified_squarefree(f):
        return [(f, 1)]
    return sorted(_squarefree_parts(f), key=lambda gm: gm[0].sort_key())


# how many of the first primes of `_IntegralForm.images`, those that root
# extraction tries first, may certify squarefreeness over Q and Q(i); where
# none does, Musser's peeling runs
_CERTIFICATE_PRIMES = 3


def _certified_squarefree(f: Poly) -> bool:
    """Whether an image of f's integral form at one of the first
    `_CERTIFICATE_PRIMES` primes is squarefree, which proves f squarefree.

    The integral form h is monic over Z or Z[i], both UFDs.  By Gauss's
    lemma a square factor a^2 b of h has a monic integral a, and reduction
    at p is a ring map, so every image of h would keep the square of a's
    image, of positive degree.
    """
    images = islice(_IntegralForm(f).images(), _CERTIFICATE_PRIMES)
    return any(_is_squarefree(image) for _, _, per_prime in images for image in per_prime)


def _pth_root(f: Poly) -> Poly:
    # over F_p the Frobenius is the identity on coefficients, so the p-th
    # root of f(x) = g(x^p) just reads off every p-th coefficient
    return Poly.from_ints(f.field, f.values[::f.field.characteristic])


def _squarefree_parts(f: Poly) -> list[tuple[Poly, int]]:
    # Musser's gcd peeling splits off the factors of multiplicity i in round
    # i.  Factors whose multiplicity is a multiple of p stay in c, where a
    # p-th root takes over; in characteristic 0 there are none.
    p = f.field.characteristic
    out: list[tuple[Poly, int]] = []
    d = f.derivative()
    if d.is_zero:
        for g, m in _squarefree_parts(_pth_root(f)):
            out.append((g, m * p))
        return out
    c = poly_gcd(f, d)
    w = f // c
    i = 1
    while w.degree >= 1:
        y = poly_gcd(w, c)
        z = w // y
        if z.degree >= 1:
            out.append((z, i))
        w = y
        c = c // y
        i += 1
    if c.degree >= 1:
        for g, m in _squarefree_parts(_pth_root(c)):
            out.append((g, m * p))
    return out


# ---------------------------------------------------------------------------
# irreducible factorisation
# ---------------------------------------------------------------------------

def factor_irreducible(f: Poly) -> list[tuple[Poly, int]]:
    """Factor the monic scaling of f into monic irreducibles.

    Raises FactorizationIncomplete over the rational and gaussian-rational
    fields when a squarefree rootless factor of degree >= 4 remains.
    """
    if f.is_zero:
        raise ZeroPolynomial("cannot factor the zero polynomial")
    if f.degree < 1:
        raise ZeroPolynomial("cannot factor a constant polynomial")
    field = f.field
    out: dict[Poly, int] = {}
    for g, mult in squarefree_decomposition(f):
        if isinstance(field, PrimeField):
            primes = _factor_squarefree_fp(g)
        else:
            primes = _factor_squarefree_roots(g)
        for q in primes:
            out[q] = out.get(q, 0) + mult
    return sorted(out.items(), key=lambda qm: qm[0].sort_key())


# -- exact square roots ------------------------------------------------------

def _sqrt_fraction(a: Fraction) -> Fraction | None:
    if a < 0:
        return None
    num = math.isqrt(a.numerator)
    den = math.isqrt(a.denominator)
    if num * num == a.numerator and den * den == a.denominator:
        return Fraction(num, den)
    return None


def exact_square_root(s: Scalar) -> Scalar | None:
    """Square root of a rational or gaussian-rational scalar, if one exists
    in the same field."""
    field = s.field
    if isinstance(field, Rationals):
        r = _sqrt_fraction(s.value)
        return None if r is None else field.scalar(r)
    if isinstance(field, GaussianRationals):
        a, b = s.value
        if b == 0:
            r = _sqrt_fraction(a)
            if r is not None:
                return field.scalar((r, Fraction(0)))
            r = _sqrt_fraction(-a)
            return None if r is None else field.scalar((Fraction(0), r))
        # (x + yi)^2 = a + bi forces x^2 + y^2 = |a + bi|, which must be rational
        n = _sqrt_fraction(a * a + b * b)
        if n is None:
            return None
        x2 = (a + n) / 2
        x = _sqrt_fraction(x2)
        if x is None or x == 0:
            return None
        y = b / (2 * x)
        return field.scalar((x, y))
    raise TypeError("square roots are supported over Q and Q(i) only")


# -- roots over Q and Q(i): p-adic lifting ------------------------------------

class _IntegralForm:
    """h(x) = L^n g(x/L) for a monic g of degree n over Q or Q(i), with L the
    lcm of g's coefficient denominators: monic with gaussian-integer
    coefficients, stored as (re, im) pairs of ints, index = degree.  Over Q
    every im is 0.  g and h have the same roots up to the factor L and the
    same squarefree factorisation up to that scaling."""

    def __init__(self, g: Poly):
        self.field = g.field
        self.gaussian = isinstance(g.field, GaussianRationals)
        self.signs = (1, -1) if self.gaussian else (1,)
        # g = u / L is canonical, so L is the lcm of its coefficients'
        # denominators, and u[n] = L since g is monic: h_k = u_k L^(n-1-k)
        n, u, self.lcm = g.degree, g.u, g.den
        parts = u if self.gaussian else [(c, 0) for c in u]
        self.h = [(re * self.lcm ** (n - 1 - k), im * self.lcm ** (n - 1 - k))
                  for k, (re, im) in enumerate(parts[:n])] + [(1, 0)]

    def image(self, t: int, m: int) -> list[int]:
        """h mod m with i -> t."""
        return [(re + im * t) % m for re, im in self.h]

    def images(self):
        """Yield p, s and the images of h over F_p for the primes p in
        increasing order: with i -> s and i -> -s over Q(i), where p = 1
        (mod 4) and s is the smaller square root of -1 mod p (each a ring
        map Z[i] -> F_p); over Q, s = 0 and the one image is h mod p."""
        p, s = 1, 0
        while True:
            p += 4 if self.gaussian else 1
            if not _is_prime(p):
                continue
            if self.gaussian:
                s = _sqrt_minus_one(p)
            fp = PrimeField(p)
            yield p, s, [_poly(fp, self.image(e * s, p)) for e in self.signs]

    def descale(self, q: list[tuple[int, int]]) -> Poly:
        """The monic polynomial over K whose integral form, with this L, is
        the monic q of degree m: coefficient k is q_k / L^(m-k), the lift
        q_k L^k over L^m."""
        m, L = len(q) - 1, self.lcm
        u = [(re * L**k, im * L**k) for k, (re, im) in enumerate(q)]
        return _from_lift(self.field, u if self.gaussian else [re for re, _ in u], L**m)


def _deflate(h: list[tuple[int, int]], u: int, v: int) -> list[tuple[int, int]] | None:
    """h / (x - (u + vi)) if u + vi is a root of h, else None.  Horner's
    running values in gaussian integers are the quotient's coefficients
    from the top, and the last is h(u + vi)."""
    re = im = 0
    running = []
    for a, b in reversed(h):
        re, im = re * u - im * v + a, re * v + im * u + b
        running.append((re, im))
    return None if re or im else running[-2::-1]


def _is_squarefree(f: Poly) -> bool:
    return poly_gcd(f, f.derivative()).degree == 0


def _factor_squarefree_roots(g: Poly) -> list[Poly]:
    """Split a squarefree monic g over Q or Q(i) by exhaustive root
    extraction.  A rootless factor of degree <= 3 is irreducible: any
    splitting of it has a linear part.

    The integral form h = L^n g(x/L) (`_IntegralForm`) is monic with
    gaussian-integer coefficients, so its roots are gaussian integers
    u + vi with |u|, |v| at most the Cauchy bound.  The prime p is the
    smallest (= 1 mod 4 over Q(i)) at which every image of h is squarefree,
    found with one gcd per image; the prime-field splitter runs at that p
    only.  The images' roots are then simple, and Newton lifting to
    p^k > 2 * bound recovers u and v as symmetric residues.  Every candidate
    is checked exactly, by Horner on h in gaussian integers, which also
    divides the root's linear factor out of h.
    """
    form = _IntegralForm(g)
    bound = 1 + max(abs(re) + abs(im) for re, im in form.h[:-1])
    for p, s, images in form.images():
        if all(_is_squarefree(f) for f in images):
            break
    mod_roots = [_roots_mod_p(f) for f in images]
    modulus = p
    while modulus <= 2 * bound:
        modulus *= modulus
    s = _lift([1, 0, 1], s, p, modulus) if form.gaussian else 0
    lifted = [[_lift(form.image(e * s, modulus), a, p, modulus) for a in roots]
              for e, roots in zip(form.signs, mod_roots)]
    if form.gaussian:
        half, half_s = pow(2, -1, modulus), pow(2 * s, -1, modulus)
        pairs = [((a + b) * half, (a - b) * half_s) for a in lifted[0] for b in lifted[1]]
    else:
        pairs = [(a, 0) for a in lifted[0]]
    out, h = [], form.h
    for pair in pairs:
        u, v = ((w + modulus // 2) % modulus - modulus // 2 for w in pair)
        if abs(u) <= bound and abs(v) <= bound:
            quotient = _deflate(h, u, v)
            if quotient is not None:
                h = quotient
                out.append(form.descale([(-u, -v), (1, 0)]))
    rest = form.descale(h)
    if rest.degree > 3:
        raise FactorizationIncomplete(rest)
    return out + [rest] if rest.degree >= 1 else out


def _sqrt_minus_one(p: int) -> int:
    """The smaller square root of -1 mod a prime p = 1 (mod 4): c^((p-1)/4)
    for the least quadratic non-residue c, since c^((p-1)/2) = -1."""
    c = 2
    while pow(c, (p - 1) // 2, p) != p - 1:
        c += 1
    s = pow(c, (p - 1) // 4, p)
    return min(s, p - s)


def _roots_mod_p(f: Poly) -> list[int]:
    """The roots of the squarefree monic f over F_p."""
    p, x, mod = f.field.characteristic, Poly.x(f.field), _Modulus(f)
    w = poly_gcd(f, _pow_mod(x, p, mod) - x)  # the product of f's linear factors
    if w.degree < 1:
        return []
    linear = _equal_degree_split(w, 1, random.Random(_SPLIT_SEED), _Frobenius(mod))
    return [-q.values[0] % p for q in linear]


def _lift(f: list[int], a: int, p: int, modulus: int) -> int:
    """Newton-lift a simple root a of f mod p to a root mod modulus = p^(2^j)."""
    df = [k * c for k, c in enumerate(f)][1:]
    m = p

    def at(coeffs):
        acc = 0
        for c in reversed(coeffs):
            acc = (acc * a + c) % m
        return acc

    while m < modulus:
        m *= m
        a = (a - at(f) * pow(at(df), -1, m)) % m
    return a


# -- prime fields: distinct-degree + equal-degree splitting ------------------

class _Modulus:
    """Products mod a fixed polynomial m of degree n over F_p, on reduced
    residue lists: at most n entries, each in [0, p).

    Where m's lane (`_lane(p, n)`) exists, a product costs three packed
    products in it: c = a*b, the quotient q from the top n - 1
    coefficients of c times the inverse of the reversal of m, and q*m
    (von zur Gathen & Gerhard, *Modern Computer Algebra*, 9.1).  The
    inverse is computed once per modulus, when first needed.  Otherwise
    it is the schoolbook product and division.
    """

    def __init__(self, m: Poly):
        self.poly = m
        self.lane = _lane(m.field.characteristic, m.degree)

    @cached_property
    def inverse(self) -> list[int]:
        """The inverse of the reversal R of m mod x^(n - 1), reversed; that
        is the quotient of x^(2n - 2) by m.  Newton iteration doubles the
        precision k to t with I <- I - I*(R*I - 1), since R*I = 1 mod x^k."""
        m, lane = self.poly, self.lane
        p, r = m.field.characteristic, m.u[::-1]
        inv = [m.field.raw_inv(r[0])]
        while len(inv) < m.degree - 1:
            k, t = len(inv), min(2 * len(inv), m.degree - 1)
            e = [v % p for v in _kron(r[:t], inv, lane)[k:t]]
            inv += [-v % p for v in _kron(inv, e, lane)[:t - k]]
        return inv[::-1]

    def reduce(self, a) -> list[int]:
        """The reduced residue list of the int list a mod m."""
        m = self.poly
        p = m.field.characteristic
        if len(a) > m.degree:
            a = _divmod_fp(a, m.u, p)[1]
        return [v % p for v in a]

    def mul(self, a, b) -> list[int]:
        """a * b mod m, for reduced residue lists a and b."""
        if not (a and b):
            return []
        m, lane = self.poly, self.lane
        if not lane:
            return self.reduce(_schoolbook(a, b))
        p, n = m.field.characteristic, m.degree
        c = _kron(a, b, lane)
        if len(c) <= n:
            return [v % p for v in c]
        # c = q*m + r with deg q <= n - 2: q is the top n - 1 coefficients
        # of (c div x^n) times the reversed inverse
        q = [v % p for v in _kron([v % p for v in c[n:]], self.inverse, lane)[n - 2:]]
        return [(u - v) % p for u, v in zip(c[:n], _kron(q, m.u, lane))]


def _pow_mod(base: Poly, exp: int, mod: _Modulus) -> Poly:
    """base^exp mod mod.poly for exp >= 0: `poly._power` under `mod.mul`
    on the reduced residue lists, so one Poly is built, at the end."""
    if not exp:
        return Poly.one(base.field) % mod.poly
    return _from_lift(base.field, _power(mod.reduce(base.u), exp, mod.mul))


class _Frobenius:
    """The Frobenius map phi: h -> h^p mod g, F_p-linear, for a modulus g
    of degree n (von zur Gathen & Shoup, "Computing Frobenius maps and
    factoring polynomials", 1992).  With `rows`, h^p is the sum of h_i
    times row i, n small-int by packed-int products and one unpacking; no
    lane overflows, since each sums at most n products of residues, as in a
    product whose shorter factor has length n.  Otherwise it squares."""

    def __init__(self, mod: _Modulus):
        self.mod, self.p = mod, mod.poly.field.characteristic

    @cached_property
    def rows(self) -> list[int] | None:
        """Row i is x^(ip) mod g, padded to n entries and packed in g's lane,
        for one p-th power and n - 2 products; built where the at most
        n // 2 - 1 later p-th powers of distinct-degree splitting would cost
        more products by squaring (`_pow_mod` for the exponent p), else None,
        as always at p = 2 and 3 and where g has no lane."""
        mod, p, n = self.mod, self.p, self.mod.poly.degree
        squaring = p.bit_length() + bin(p).count("1") - 2
        if not mod.lane or (n // 2 - 1) * squaring <= n - 2:
            return None
        xp = _pow_mod(Poly.x(mod.poly.field), p, mod).u
        rows = [[1], xp]
        while len(rows) < n:
            rows.append(mod.mul(rows[-1], xp))
        return [_pack(list(r) + [0] * (n - len(r)), mod.lane) for r in rows]

    def __call__(self, h, mod: _Modulus) -> list[int]:
        """h^p mod mod.poly, a divisor of g, for a residue list h reduced
        mod it: phi mod g reduced mod a divisor of g is phi mod that."""
        rows = self.rows
        if rows is None:
            return _power(h, self.p, mod.mul)
        acc = sum(c * row for c, row in zip(h, rows) if c)
        return mod.reduce(_unpack(acc, self.mod.poly.degree, self.mod.lane))


def _factor_squarefree_fp(g: Poly) -> list[Poly]:
    field, rng, out = g.field, random.Random(_SPLIT_SEED), []
    x, mod = Poly.x(field), _Modulus(g)
    phi, h, d = _Frobenius(mod), x.u, 0
    while g.degree >= 1:
        d += 1
        if g.degree < 2 * d:
            out.append(g)  # what is left is irreducible
            break
        h = phi(h, mod)
        w = poly_gcd(g, _from_lift(field, h) - x)
        if w.degree >= 1:
            out.extend(_equal_degree_split(w, d, rng, phi))
            g = g // w
            # with rows, h stays reduced mod the first g, which every later g
            # divides, so gcd(g, h - x) is the same; squaring is cheaper mod g
            if g.degree >= 1 and phi.rows is None:
                mod = _Modulus(g)
                h = mod.reduce(h)
    return out


def _split_witness(h, d: int, phi: _Frobenius, mod: _Modulus) -> Poly:
    """At p = 2 the trace h + phi(h) + ... + phi^(d-1)(h), at odd p the norm
    u phi(u) ... phi^(d-1)(u) of u = h^((p-1)/2), which is h^((p^d - 1)/2);
    h is a residue list reduced mod mod.poly, a divisor of phi's modulus."""
    if phi.p == 2:
        u, combine = h, lambda a, b: [s + t for s, t in zip_longest(a, b, fillvalue=0)]
    else:
        u, combine = _power(h, (phi.p - 1) // 2, mod.mul), mod.mul
    w = u
    for _ in range(d - 1):
        u = phi(u, mod)
        w = combine(w, u)
    return _from_lift(mod.poly.field, w)


def _equal_degree_split(g: Poly, d: int, rng: random.Random, phi: _Frobenius) -> list[Poly]:
    """Cantor-Zassenhaus: g is a monic product of irreducibles all of degree
    d, and divides the modulus of phi."""
    if g.degree == d:
        return [g]
    field, p, mod = g.field, g.field.characteristic, _Modulus(g)
    while True:
        h = [rng.randrange(p) for _ in range(g.degree)]
        if not any(h):
            continue
        # mod each irreducible factor of g the trace is 0 or 1, the norm 0, 1
        # or -1, so gcd(g, w) can split g
        w = _split_witness(h, d, phi, mod)
        if p > 2:
            w = w - Poly.one(field)
        if w.is_zero:
            continue
        split = poly_gcd(g, w)
        if 0 < split.degree < g.degree:
            left = _equal_degree_split(split, d, rng, phi)
            return left + _equal_degree_split(g // split, d, rng, phi)
