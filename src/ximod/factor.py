"""Squarefree and irreducible factorisation of univariate polynomials.

Factorisation is complete over prime fields (distinct-degree plus
equal-degree splitting).  Everything here computes with `Poly`'s one
arithmetic on raw coefficients (`divmod`, `poly_gcd` and `_pow_mod`
below); over F_p that reduces each coefficient mod p once, when it is
final.  Powers mod a fixed modulus (`_pow_mod`, the characteristic-2
trace map) run through `_Modulus`, which reduces packed products with a
precomputed inverse where `Poly`'s packed lanes fit, and takes Poly's
schoolbook a * b % m for larger primes.  Over the rational and
gaussian-rational fields it is deliberately partial: squarefree
decomposition, then exhaustive root extraction by p-adic lifting of the
roots mod a small prime p, found by the same prime-field splitting.  A
rootless factor of degree <= 3 is irreducible, since any splitting of it
has a linear part.  A rootless factor of degree >= 4 cannot be decided by
these means and raises FactorizationIncomplete; callers fall back to
invariant factors.
"""
from __future__ import annotations

import math
import random
from fractions import Fraction
from functools import cached_property

from .errors import FactorizationIncomplete, ZeroPolynomial
from .fields import GaussianRationals, PrimeField, Rationals, Scalar, _is_prime
from .poly import Poly, _kron, _packs, _poly, poly_gcd

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
    return sorted(_squarefree_parts(f), key=lambda gm: gm[0].sort_key())


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


def _factor_squarefree_roots(g: Poly) -> list[Poly]:
    """Split a squarefree monic g over Q or Q(i) by exhaustive root
    extraction.  A rootless factor of degree <= 3 is irreducible: any
    splitting of it has a linear part."""
    field = g.field
    factors: list[Poly] = []
    for r in _roots(g):
        linear = Poly(field, (-r, field.one()))
        factors.append(linear)
        g = g // linear
    if g.degree > 3:
        raise FactorizationIncomplete(g)
    if g.degree >= 1:
        factors.append(g)
    return factors


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

def _roots(g: Poly) -> list[Scalar]:
    """All roots of a squarefree monic g in Q or Q(i).

    With L the lcm of the coefficient denominators, h(x) = L^n g(x/L) is
    monic with gaussian-integer coefficients, so its roots are gaussian
    integers u + vi with |u|, |v| at most the Cauchy bound.
    Their images mod p (with i -> +-s over Q(i)) are simple roots of the
    images of h; Newton lifting to p^k > 2 * bound recovers u and v as
    symmetric residues, and every candidate is checked exactly.
    """
    field = g.field
    gaussian = isinstance(field, GaussianRationals)
    n = g.degree
    parts = g.values if gaussian else [(c, 0) for c in g.values]
    lcm = math.lcm(*(x.denominator for part in parts for x in part))
    h = [(int(re * lcm ** (n - k)), int(im * lcm ** (n - k))) for k, (re, im) in enumerate(parts)]
    bound = 1 + max(abs(re) + abs(im) for re, im in h[:-1])
    signs = (1, -1) if gaussian else (1,)

    def image(t: int, m: int) -> list[int]:  # h mod m with i -> t
        return [(re + im * t) % m for re, im in h]

    # the smallest prime (= 1 mod 4 over Q(i)) at which every image is squarefree
    p, s = 1, 0
    while True:
        p += 4 if gaussian else 1
        if not _is_prime(p):
            continue
        if gaussian:
            s = _sqrt_minus_one(p)
        fp = PrimeField(p)
        mod_roots = [_roots_mod_p(Poly.from_ints(fp, image(e * s, p))) for e in signs]
        if None not in mod_roots:
            break
    modulus = p
    while modulus <= 2 * bound:
        modulus *= modulus
    s = _lift([1, 0, 1], s, p, modulus) if gaussian else 0
    lifted = [[_lift(image(e * s, modulus), a, p, modulus) for a in roots]
              for e, roots in zip(signs, mod_roots)]
    if gaussian:
        half, half_s = pow(2, -1, modulus), pow(2 * s, -1, modulus)
        pairs = [((a + b) * half, (a - b) * half_s) for a in lifted[0] for b in lifted[1]]
    else:
        pairs = [(a, 0) for a in lifted[0]]
    out = []
    for pair in pairs:
        u, v = ((w + modulus // 2) % modulus - modulus // 2 for w in pair)
        if abs(u) <= bound and abs(v) <= bound:
            value = (Fraction(u, lcm), Fraction(v, lcm))
            z = field.scalar(value if gaussian else value[0])
            if g.eval(z).is_zero:
                out.append(z)
    return out


def _sqrt_minus_one(p: int) -> int:
    """The smaller square root of -1 mod a prime p = 1 (mod 4): c^((p-1)/4)
    for the least quadratic non-residue c, since c^((p-1)/2) = -1."""
    c = 2
    while pow(c, (p - 1) // 2, p) != p - 1:
        c += 1
    s = pow(c, (p - 1) // 4, p)
    return min(s, p - s)


def _roots_mod_p(f: Poly) -> list[int] | None:
    """The roots of the monic f over F_p, or None if f is not squarefree."""
    p, x = f.field.characteristic, Poly.x(f.field)
    if poly_gcd(f, f.derivative()).degree > 0:
        return None
    w = poly_gcd(f, _pow_mod(x, p, _Modulus(f)) - x)  # the product of f's linear factors
    if w.degree < 1:
        return []
    linear = _equal_degree_split(w, 1, random.Random(_SPLIT_SEED))
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
    """Products mod a fixed polynomial m of degree n over F_p.

    Where `_kron`'s lanes fit, the product of two residues mod m costs
    three packed products: c = a*b, the quotient q from the top n - 1
    coefficients of c times the inverse of the reversal of m, and q*m
    (von zur Gathen & Gerhard, *Modern Computer Algebra*, 9.1).  The
    inverse is computed once per modulus, when first needed.  Otherwise
    the product is Poly's a * b % m.
    """

    def __init__(self, m: Poly):
        self.poly = m
        self.packed = m.degree > 1 and _packs(m.field.characteristic, m.degree)

    @cached_property
    def inverse(self) -> list[int]:
        """The inverse of the reversal R of m mod x^(n - 1), reversed; that
        is the quotient of x^(2n - 2) by m.  Newton iteration doubles the
        precision k to t with I <- I - I*(R*I - 1), since R*I = 1 mod x^k."""
        m = self.poly
        p, r = m.field.characteristic, m.values[::-1]
        inv = [m.field.raw_inv(r[0])]
        while len(inv) < m.degree - 1:
            k, t = len(inv), min(2 * len(inv), m.degree - 1)
            e = [v % p for v in _kron(r[:t], inv)[k:t]]
            inv += [-v % p for v in _kron(inv, e)[:t - k]]
        return inv[::-1]

    def mul(self, a: Poly, b: Poly) -> Poly:
        """a * b mod m, for a and b of degree below n."""
        m = self.poly
        if not (self.packed and a.values and b.values):
            return a * b % m
        field, p, n = m.field, m.field.characteristic, m.degree
        c = _kron(a.values, b.values)
        if len(c) <= n:
            return _poly(field, c)
        # c = q*m + r with deg q <= n - 2: q is the top n - 1 coefficients
        # of (c div x^n) times the reversed inverse
        q = [v % p for v in _kron([v % p for v in c[n:]], self.inverse)[n - 2:]]
        return _poly(field, [u - v for u, v in zip(c[:n], _kron(q, m.values))])


def _pow_mod(base: Poly, exp: int, mod: _Modulus) -> Poly:
    """base^exp mod mod.poly, by left-to-right repeated squaring."""
    base = base % mod.poly
    if not exp:
        return Poly.one(base.field) % mod.poly
    result = base
    for bit in bin(exp)[3:]:
        result = mod.mul(result, result)
        if bit == "1":
            result = mod.mul(result, base)
    return result


def _factor_squarefree_fp(g: Poly) -> list[Poly]:
    p = g.field.characteristic
    rng = random.Random(_SPLIT_SEED)
    out: list[Poly] = []
    x = h = Poly.x(g.field)
    mod, d = _Modulus(g), 0
    while g.degree >= 1:
        d += 1
        if g.degree < 2 * d:
            out.append(g)  # what is left is irreducible
            break
        h = _pow_mod(h, p, mod)
        w = poly_gcd(g, h - x)
        if w.degree >= 1:
            out.extend(_equal_degree_split(w, d, rng))
            g = g // w
            if g.degree >= 1:
                h, mod = h % g, _Modulus(g)
    return out


def _equal_degree_split(g: Poly, d: int, rng: random.Random) -> list[Poly]:
    """Cantor-Zassenhaus: g is a monic product of irreducibles all of degree d."""
    if g.degree == d:
        return [g]
    p, mod = g.field.characteristic, _Modulus(g)
    while True:
        h = Poly.from_ints(g.field, [rng.randrange(p) for _ in range(g.degree)])
        if h.is_zero:
            continue
        if p == 2:
            # trace map works where the odd-characteristic exponent trick
            # fails; in characteristic 2 subtraction is addition
            t = w = h
            for _ in range(d - 1):
                t = mod.mul(t, t)
                w = w - t
        else:
            w = _pow_mod(h, (p**d - 1) // 2, mod) - Poly.one(g.field)
        if w.is_zero:
            continue
        split = poly_gcd(g, w)
        if 0 < split.degree < g.degree:
            left = _equal_degree_split(split, d, rng)
            return left + _equal_degree_split(g // split, d, rng)
