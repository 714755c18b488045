"""Squarefree and irreducible factorisation of univariate polynomials.

Factorisation is complete over prime fields (distinct-degree plus
equal-degree splitting).  Over the rational and gaussian-rational fields it
is deliberately partial: squarefree decomposition, exhaustive root
extraction, cubic-without-root certification, and exact quadratic-formula
splitting.  A squarefree factor of degree >= 4 with no roots cannot be
decided by these means and raises FactorizationIncomplete; callers fall
back to invariant factors.
"""
from __future__ import annotations

import math
import random
from fractions import Fraction

from .errors import FactorizationIncomplete, ZeroPolynomial
from .fields import GaussianRationals, PrimeField, Rationals, Scalar
from .poly import Poly, poly_gcd

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
    p = f.field.characteristic
    return Poly(f.field, (f.coefficient(k) for k in range(0, len(f.coeffs), p)))


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
    extraction, then certify or split what is left."""
    field = g.field
    factors: list[Poly] = []
    if isinstance(field, Rationals):
        roots = _rational_roots(g)
    else:
        roots = _gaussian_roots(g)
    for r in roots:
        linear = Poly(field, (-r, field.one()))
        factors.append(linear)
        g = g // linear
    if g.degree >= 1:
        if g.degree == 1:
            factors.append(g)
        elif g.degree == 2:
            split = _quadratic_split(g)
            if split is None:
                factors.append(g)  # irreducible: discriminant has no square root
            else:
                factors.extend(split)
        elif g.degree == 3:
            # a rootless cubic cannot factor: any splitting has a linear part
            factors.append(g)
        else:
            raise FactorizationIncomplete(g)
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


def _quadratic_split(g: Poly) -> list[Poly] | None:
    # g monic of degree 2; roots (-b +- sqrt(b^2 - 4c)) / 2
    field = g.field
    c, b = g.coefficient(0), g.coefficient(1)
    disc = b * b - field.from_int(4) * c
    root = exact_square_root(disc)
    if root is None:
        return None
    two_inv = field.from_int(2).inv()
    r1 = (-b + root) * two_inv
    r2 = (-b - root) * two_inv
    return sorted(
        (Poly(field, (-r1, field.one())), Poly(field, (-r2, field.one()))),
        key=Poly.sort_key,
    )


# -- rational roots ----------------------------------------------------------

def _int_divisors(n: int) -> list[int]:
    n = abs(n)
    out = set()
    d = 1
    while d * d <= n:
        if n % d == 0:
            out.add(d)
            out.add(n // d)
        d += 1
    return sorted(out)


def _rational_roots(g: Poly) -> list[Scalar]:
    """All rational roots of g (squarefree), via the integer root bound on
    the denominator-cleared polynomial."""
    field = g.field
    roots = []
    zero = field.zero()
    if g.coefficient(0).is_zero:
        roots.append(zero)
        g = g // Poly.x(field)
    if g.degree < 1:
        return roots
    lcm = 1
    for c in g.coeffs:
        lcm = lcm * c.value.denominator // math.gcd(lcm, c.value.denominator)
    ints = [int(c.value * lcm) for c in g.coeffs]
    a0, an = ints[0], ints[-1]
    candidates = set()
    for p in _int_divisors(a0):
        for q in _int_divisors(an):
            candidates.add(Fraction(p, q))
            candidates.add(Fraction(-p, q))
    for cand in sorted(candidates):
        s = field.scalar(cand)
        if g.eval(s).is_zero:
            roots.append(s)
    return roots


# -- gaussian-rational roots -------------------------------------------------

def _gaussian_int_divisors(z: tuple[int, int]) -> list[tuple[int, int]]:
    """All gaussian-integer divisors of z (unit multiples included), found by
    enumerating two-square representations of each divisor of the norm."""
    a, b = z
    norm = a * a + b * b
    divisors = set()
    for d in _int_divisors(norm):
        for x in range(math.isqrt(d) + 1):
            y2 = d - x * x
            y = math.isqrt(y2)
            if y * y != y2:
                continue
            for u, v in {(x, y), (y, x)}:
                for su in (1, -1):
                    for sv in (1, -1):
                        w = (su * u, sv * v)
                        if w != (0, 0) and _gaussian_divides(w, z):
                            divisors.add(w)
    return sorted(divisors)


def _gaussian_divides(w: tuple[int, int], z: tuple[int, int]) -> bool:
    # z / w = z * conj(w) / N(w) must have integer parts
    wn = w[0] * w[0] + w[1] * w[1]
    re = z[0] * w[0] + z[1] * w[1]
    im = z[1] * w[0] - z[0] * w[1]
    return re % wn == 0 and im % wn == 0


def _gaussian_roots(g: Poly) -> list[Scalar]:
    """All roots of squarefree g in Q(i): candidates p/q with p dividing the
    cleared constant term and q dividing the cleared leading term in Z[i]."""
    field = g.field
    roots = []
    if g.coefficient(0).is_zero:
        roots.append(field.zero())
        g = g // Poly.x(field)
    if g.degree < 1:
        return roots
    lcm = 1
    for c in g.coeffs:
        for part in c.value:
            lcm = lcm * part.denominator // math.gcd(lcm, part.denominator)
    ints = [(int(c.value[0] * lcm), int(c.value[1] * lcm)) for c in g.coeffs]
    a0, an = ints[0], ints[-1]
    numerators = _gaussian_int_divisors(a0)
    denominators = _gaussian_int_divisors(an)
    seen = set()
    candidates = []
    for p in numerators:
        for q in denominators:
            qn = q[0] * q[0] + q[1] * q[1]
            re = Fraction(p[0] * q[0] + p[1] * q[1], qn)
            im = Fraction(p[1] * q[0] - p[0] * q[1], qn)
            if (re, im) not in seen:
                seen.add((re, im))
                candidates.append((re, im))
    for re, im in sorted(candidates):
        s = field.scalar((re, im))
        if g.eval(s).is_zero:
            roots.append(s)
    return roots


# -- prime fields: distinct-degree + equal-degree splitting ------------------

def _pow_mod(base: Poly, exp: int, mod: Poly) -> Poly:
    result = Poly.one(base.field)
    base = base % mod
    while exp:
        if exp & 1:
            result = (result * base) % mod
        base = (base * base) % mod
        exp >>= 1
    return result


def _factor_squarefree_fp(g: Poly) -> list[Poly]:
    p = g.field.characteristic
    rng = random.Random(_SPLIT_SEED)
    out: list[Poly] = []
    x = Poly.x(g.field)
    h = x
    v = g
    d = 0
    while v.degree >= 1:
        d += 1
        if v.degree < 2 * d:
            out.append(v)  # what is left is irreducible
            break
        h = _pow_mod(h, p, v)
        w = poly_gcd(v, h - x)
        if w.degree >= 1:
            out.extend(_equal_degree_split(w, d, rng))
            v = v // w
            h = h % v if v.degree >= 1 else h
    return out


def _random_poly(field: PrimeField, degree: int, rng: random.Random) -> Poly:
    return Poly(field, (field.from_int(rng.randrange(field.p)) for _ in range(degree + 1)))


def _equal_degree_split(g: Poly, d: int, rng: random.Random) -> list[Poly]:
    """Cantor-Zassenhaus: g is a product of irreducibles all of degree d."""
    if g.degree == d:
        return [g]
    p = g.field.characteristic
    while True:
        h = _random_poly(g.field, g.degree - 1, rng)
        if h.is_zero:
            continue
        if p == 2:
            # trace map works where the odd-characteristic exponent trick fails
            t = h
            acc = h
            for _ in range(d - 1):
                t = (t * t) % g
                acc = acc + t
            w = acc % g
        else:
            w = _pow_mod(h, (p**d - 1) // 2, g) - Poly.one(g.field)
        if w.is_zero:
            continue
        split = poly_gcd(g, w)
        if 1 <= split.degree < g.degree:
            left = _equal_degree_split(split, d, rng)
            right = _equal_degree_split(g // split, d, rng)
            return left + right
