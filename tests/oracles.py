"""Independent oracles and random data generators for the test suite.

Everything here recomputes results along a different route than the code
under test: plain recursive cofactor determinants, power sums of matrices,
Krylov annihilators, exhaustive trial division over prime fields, and the
rational-literal parser without its fast path.
"""
from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations, product

from ximod import (
    Matrix,
    NoSolution,
    Poly,
    PolyMatrix,
    PrimeField,
    Rationals,
    poly_gcd,
    solve_linear,
)


def naive_poly_det(P: PolyMatrix, rows=None, cols=None) -> Poly:
    """Recursive cofactor expansion, no memoisation, no pivoting; with rows
    and cols, the minor on them."""

    def det(rows, cols):
        if not rows:
            return Poly.one(P.field)
        r = rows[0]
        acc = Poly.zero(P.field)
        for k, c in enumerate(cols):
            e = P.entries[r][c]
            if e.is_zero:
                continue
            term = e * det(rows[1:], cols[:k] + cols[k + 1 :])
            acc = acc + term if k % 2 == 0 else acc - term
        return acc

    return det(tuple(range(P.rows)) if rows is None else tuple(rows),
               tuple(range(P.cols)) if cols is None else tuple(cols))


def naive_charpoly(A: Matrix) -> Poly:
    return naive_poly_det(PolyMatrix.characteristic_matrix(A))


def naive_invariant_factors(A: Matrix) -> tuple[Poly, ...]:
    """Nonconstant invariant factors of xI - A from its determinantal
    divisors: d_k is the monic gcd of all k x k minors (cofactor expansion),
    and the k-th invariant factor is d_k / d_(k-1)."""
    P = PolyMatrix.characteristic_matrix(A)
    divisors = [Poly.one(A.field)]
    for k in range(1, A.rows + 1):
        d = Poly.zero(A.field)
        for rows in combinations(range(A.rows), k):
            for cols in combinations(range(A.rows), k):
                minor = naive_poly_det(P, rows, cols)
                if not minor.is_zero:
                    d = poly_gcd(d, minor)
        divisors.append(d)
    factors = (divisors[k] // divisors[k - 1] for k in range(1, A.rows + 1))
    return tuple(f for f in factors if f.degree >= 1)


def naive_poly_eval(pi: Poly, A: Matrix) -> Matrix:
    """sum_i c_i A^i, each power one product after the previous one."""
    n = A.rows
    power = Matrix.identity(A.field, n)
    acc = Matrix.zeros(A.field, n, n)
    for i, c in enumerate(pi.coeffs):
        if i:
            power = power @ A
        acc = acc + power.scale(c)
    return acc


def krylov_minimal_polynomial(A: Matrix) -> Poly:
    """Least-degree monic annihilator of A, found as the first linear
    dependence among the vectorised powers I, A, A^2, ..."""
    field = A.field
    n = A.rows

    def vec(M):
        return tuple(e for row in M.entries for e in row)

    powers = [Matrix.identity(field, n)]
    while True:
        target = powers[-1] @ A
        cols = [vec(M) for M in powers]
        system = Matrix(field, ((col[i] for col in cols) for i in range(n * n)))
        try:
            x = solve_linear(system, vec(target))
        except NoSolution:
            powers.append(target)
            continue
        return Poly(field, tuple(-c for c in x) + (field.one(),))


def sympy_domain(field):
    """The sympy domain matching `field`, and the map of its scalars into it;
    callers skip first when sympy is missing."""
    import sympy

    if isinstance(field, Rationals):
        domain = sympy.QQ
    elif isinstance(field, PrimeField):
        domain = sympy.GF(field.p)
    else:
        domain = sympy.QQ_I

    def convert(c):
        if isinstance(field, Rationals):
            return domain(c.value.numerator, c.value.denominator)
        if isinstance(field, PrimeField):
            return domain(c.value)
        re, im = (sympy.Rational(x.numerator, x.denominator) for x in c.value)
        return domain.from_sympy(re + sympy.I * im)

    return domain, convert


def exhaustive_irreducible_fp(f: Poly) -> bool:
    """Trial division by every lower-degree monic polynomial."""
    field = f.field
    assert isinstance(field, PrimeField)
    if f.degree < 1:
        return False
    for d in range(1, f.degree // 2 + 1):
        for coeffs in product(range(field.p), repeat=d):
            g = Poly(field, [field.from_int(c) for c in coeffs] + [field.one()])
            if (f % g).is_zero:
                return False
    return True


# -- random data ---------------------------------------------------------------

def rand_scalar(field, rng: random.Random, nonzero=False):
    while True:
        if isinstance(field, PrimeField):
            s = field.from_int(rng.randrange(field.p))
        elif isinstance(field, Rationals):
            s = field.scalar(Fraction(rng.randint(-4, 4), rng.randint(1, 3)))
        else:
            s = field.scalar(
                (
                    Fraction(rng.randint(-3, 3), rng.randint(1, 2)),
                    Fraction(rng.randint(-3, 3), rng.randint(1, 2)),
                )
            )
        if not nonzero or not s.is_zero:
            return s


def rand_big_scalar(field, rng: random.Random):
    """Numerators of 20-30 digits over denominators up to 10^6, either sign."""

    def big():
        return Fraction(rng.choice((-1, 1)) * rng.randrange(10**19, 10**30), rng.randint(1, 10**6))

    if isinstance(field, Rationals):
        return field.scalar(big())
    return field.scalar((big(), big()))


def rand_vector(field, n, rng, nonzero=False):
    while True:
        v = tuple(rand_scalar(field, rng) for _ in range(n))
        if not nonzero or any(not c.is_zero for c in v):
            return v


def rand_matrix(field, rows, cols, rng) -> Matrix:
    return Matrix(field, ((rand_scalar(field, rng) for _ in range(cols)) for _ in range(rows)))


def rand_invertible(field, n, rng) -> Matrix:
    from ximod import rank

    while True:
        M = rand_matrix(field, n, n, rng)
        if rank(M) == n:
            return M


def rand_poly(field, max_degree, rng, monic=False, nonzero=False, min_degree=0) -> Poly:
    while True:
        deg = rng.randint(min_degree, max_degree)
        coeffs = [rand_scalar(field, rng) for _ in range(deg + 1)]
        if monic:
            coeffs[-1] = field.one()
        p = Poly(field, coeffs)
        if nonzero and p.is_zero:
            continue
        if p.degree < min_degree:
            continue
        return p


def rand_polymatrix(field, rows, cols, max_degree, rng) -> PolyMatrix:
    return PolyMatrix(
        field,
        (
            (rand_poly(field, max_degree, rng) for _ in range(cols))
            for _ in range(rows)
        ),
    )


# the rational-literal parser as it stood before its integer and "a/b" fast
# path, kept verbatim as the reference that path is tested against
_MAX_LITERAL_DIGITS = 4300


def reference_parse_fraction(text: str) -> Fraction:
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
