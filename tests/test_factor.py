import random
import time
from fractions import Fraction

import pytest

from ximod import (
    QI,
    QQ,
    FactorizationIncomplete,
    Poly,
    PrimeField,
    ZeroPolynomial,
    exact_square_root,
    factor_irreducible,
    squarefree_decomposition,
)
from ximod.poly import poly_gcd
from oracles import exhaustive_irreducible_fp, rand_poly

F2 = PrimeField(2)
F3 = PrimeField(3)
F5 = PrimeField(5)


def remultiply(field, parts):
    out = Poly.one(field)
    for p, m in parts:
        out = out * p**m
    return out


def test_squarefree_trivial():
    f = Poly.from_ints(QQ, [1, 1, 1])
    assert squarefree_decomposition(f) == [(f, 1)]


def test_squarefree_with_multiplicity():
    x_minus_1 = Poly.from_ints(QQ, [-1, 1])
    x_plus_2 = Poly.from_ints(QQ, [2, 1])
    f = x_minus_1**2 * x_plus_2
    parts = squarefree_decomposition(f)
    assert sorted(parts, key=lambda pm: pm[1]) == [(x_plus_2, 1), (x_minus_1, 2)]
    assert remultiply(QQ, parts) == f


def test_squarefree_char_p_cube():
    x = Poly.x(F3)
    f = x**3 - x  # three distinct linear factors mod 3
    parts = squarefree_decomposition(f)
    assert parts == [(f.monic(), 1)]
    g = (x + Poly.one(F3)) ** 3
    parts = squarefree_decomposition(g)
    assert parts == [(x + Poly.one(F3), 3)]


@pytest.mark.parametrize("p", [0, 2, 3, 5])
def test_squarefree_matches_sympy(p):
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    field = QQ if p == 0 else PrimeField(p)
    domain = {"domain": "QQ"} if p == 0 else {"modulus": p}
    # >= 3 takes several peeling rounds; a multiple of p needs the p-th root step
    high = 3 if p == 0 else p
    rng = random.Random(61 + p)
    for _ in range(8):
        f = Poly.one(field)
        expr = sympy.Integer(1)
        for k in range(rng.randint(1, 3)):
            coeffs = [rng.randint(-4, 4) for _ in range(rng.randint(1, 2))] + [1]
            m = rng.choice((high, high + 1, 2 * high) if k == 0 else (1, 2, high))
            f = f * Poly.from_ints(field, coeffs) ** m
            expr = expr * sympy.Poly(coeffs[::-1], x).as_expr() ** m
        _, parts = sympy.Poly(expr, x, **domain).sqf_list()
        expected = []
        for g, m in parts:
            coeffs = g.all_coeffs()[::-1]
            g = Poly(field, (field.from_int(int(c.p)) / field.from_int(int(c.q)) for c in coeffs))
            expected.append((g.monic(), m))
        expected.sort(key=lambda gm: gm[0].sort_key())
        assert squarefree_decomposition(f) == expected


def test_squarefree_zero_rejected():
    with pytest.raises(ZeroPolynomial):
        squarefree_decomposition(Poly.zero(QQ))


def test_factor_difference_of_squares():
    f = Poly.from_ints(QQ, [-1, 0, 1])
    parts = factor_irreducible(f)
    assert parts == [
        (Poly.from_ints(QQ, [-1, 1]), 1),
        (Poly.from_ints(QQ, [1, 1]), 1),
    ]


def test_factor_gaussian_splits_sum_of_squares():
    f = Poly.from_ints(QI, [1, 0, 1])  # splits as (x - i)(x + i)
    parts = factor_irreducible(f)
    assert len(parts) == 2
    assert remultiply(QI, parts) == f
    roots = sorted(str(-p.coefficient(0)) for p, _ in parts)
    assert roots == ["-i", "i"]


def test_factor_irreducible_quartic_mod2():
    f = Poly.from_ints(F2, [1, 1, 0, 0, 1])  # x^4 + x + 1
    assert exhaustive_irreducible_fp(f)
    parts = factor_irreducible(f)
    assert parts == [(f, 1)]


def test_factor_fp_matches_exhaustive_oracle():
    rng = random.Random(31)
    for field in (F2, F3, F5):
        for _ in range(15):
            f = rand_poly(field, 6, rng, nonzero=True, min_degree=1)
            parts = factor_irreducible(f)
            assert remultiply(field, parts) == f.monic()
            for p, _ in parts:
                assert p.is_monic
                assert exhaustive_irreducible_fp(p)


@pytest.mark.parametrize("p", [2, 3, 101, 10007, 10**18 + 3])
def test_factor_fp_matches_sympy(p):
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    field = PrimeField(p)
    rng = random.Random(f"factor-fp-{p}")
    # over the large fields, pieces of degree up to 12 in products up to degree 36
    top, cap = (6, None) if p <= 101 else (12, 36)
    for _ in range(8):
        f = Poly.one(field)
        expr = sympy.Integer(1)
        for _ in range(rng.randint(1, 3)):
            # random monic pieces, some of them repeated
            coeffs = [rng.randrange(p) for _ in range(rng.randint(1, top))] + [1]
            m = rng.choice((1, 1, 2, 3))
            if cap is not None and f.degree + (len(coeffs) - 1) * m > cap:
                continue
            f = f * Poly.from_ints(field, coeffs) ** m
            expr = expr * sympy.Poly(coeffs[::-1], x).as_expr() ** m
        _, parts = sympy.Poly(expr, x, modulus=p).factor_list()
        expected = {}
        for g, m in parts:
            g = Poly.from_ints(field, [int(c) for c in g.all_coeffs()[::-1]]).monic()
            expected[g] = expected.get(g, 0) + m
        assert dict(factor_irreducible(f)) == expected


@pytest.mark.parametrize("p, degrees", [
    (10007, (1, 1, 2, 3, 4, 4, 5, 6, 7, 8, 9, 10)),
    (10**18 + 3, (1, 2, 3, 4, 5, 9)),
])
def test_factor_fp_runs_in_polynomial_time(p, degrees):
    # 60 and 24 in all; splitting on boxed scalars took several times the bound
    field = PrimeField(p)
    rng = random.Random(f"fp-time-{p}")
    f = Poly.one(field)
    for d in degrees:
        f = f * Poly.from_ints(field, [rng.randrange(p) for _ in range(d)] + [1])
    start = time.process_time()
    parts = factor_irreducible(f)
    assert time.process_time() - start < 0.5
    assert remultiply(field, parts) == f
    assert sum(q.degree * m for q, m in parts) == sum(degrees)


@pytest.mark.parametrize("p", [2, 3, 101, 10007])
def test_residue_kernel_matches_boxed_poly(p):
    from ximod.factor import _divmod, _gcd, _pow_mod

    field = PrimeField(p)
    rng = random.Random(f"residue-kernel-{p}")

    def residues(f):
        return [c.value for c in f.coeffs]

    def rand(degree, lead=None):
        coeffs = [rng.randrange(p) for _ in range(degree)] + [lead or rng.randrange(1, p)]
        return Poly.from_ints(field, coeffs)

    # a zero dividend, a divisor above the dividend's degree, a non-monic
    # divisor (except over F_2), then random pairs with random leading terms
    cases = [(Poly.zero(field), rand(3)), (rand(2), rand(5)), (rand(8), rand(3, lead=p - 1))]
    cases += [(rand(rng.randint(0, 12)), rand(rng.randint(0, 6))) for _ in range(40)]
    for a, b in cases:
        q, r = divmod(a, b)
        assert _divmod(residues(a), residues(b), p) == (residues(q), residues(r))
        assert _gcd(residues(a), residues(b), p) == residues(poly_gcd(a, b))
        if b.degree >= 1:
            e = rng.randrange(40)
            power = Poly.one(field) % b
            for _ in range(e):
                power = (power * a) % b
            assert _pow_mod(residues(a), e, residues(b), p) == residues(power)
    # a common factor, so the gcd is not 1
    c = rand(3, lead=1)
    a, b = c * rand(4), c * rand(4)
    assert len(_gcd(residues(a), residues(b), p)) >= 4
    assert _gcd(residues(a), residues(b), p) == residues(poly_gcd(a, b))


def test_factor_rational_remultiplies():
    rng = random.Random(32)
    for _ in range(15):
        roots = [rand_poly(QQ, 1, rng, monic=True, min_degree=1) for _ in range(3)]
        f = roots[0] * roots[1] * roots[2]
        parts = factor_irreducible(f)
        assert remultiply(QQ, parts) == f.monic()


def test_factor_quadratic_irreducible_over_q_splits_over_qi():
    f_q = Poly.from_ints(QQ, [1, 0, 1])
    assert factor_irreducible(f_q) == [(f_q, 1)]
    f_qi = Poly.from_ints(QI, [2, 2, 1])  # roots -1 +- i
    parts = factor_irreducible(f_qi)
    assert len(parts) == 2
    assert remultiply(QI, parts) == f_qi


def test_factor_rootless_cubic_is_irreducible():
    f = Poly.from_ints(QQ, [2, 0, 0, 1])  # x^3 + 2 has no rational root
    assert factor_irreducible(f) == [(f, 1)]


def test_factorization_incomplete_on_rootless_quartic():
    # (x^2 + 1)(x^2 + 2): no rational roots, both quadratics irreducible,
    # and the product resists the root-extraction pipeline
    f = Poly.from_ints(QQ, [2, 0, 3, 0, 1])
    with pytest.raises(FactorizationIncomplete) as exc:
        factor_irreducible(f)
    assert exc.value.remainder.degree == 4


def test_factor_with_mixed_multiplicities():
    x = Poly.x(QQ)
    one = Poly.one(QQ)
    f = (x - one) ** 3 * (x + one) * x**2
    parts = factor_irreducible(f)
    # canonical order: by degree, then coefficient tuples ascending
    assert parts == [
        (x - one, 3),
        (x, 2),
        (x + one, 1),
    ]


def test_exact_square_root():
    assert exact_square_root(QQ.scalar(Fraction(9, 4))) == QQ.scalar(Fraction(3, 2))
    assert exact_square_root(QQ.from_int(2)) is None
    assert exact_square_root(QI.from_int(-4)) == QI.scalar((0, 2))
    two_i = QI.scalar((0, 2))  # (1 + i)^2
    assert exact_square_root(two_i) == QI.scalar((1, 1))
    assert exact_square_root(QI.scalar((0, 3))) is None


def test_gaussian_root_extraction_degree_three():
    # (x - i)(x - 2i)(x + 3): root extraction finds all three roots
    field = QI
    x = Poly.x(field)
    i = Poly.constant(field.scalar((0, 1)))
    f = (x - i) * (x - i - i) * (x + Poly.from_ints(field, [3]))
    parts = factor_irreducible(f)
    assert len(parts) == 3
    assert remultiply(field, parts) == f.monic()


@pytest.mark.parametrize("field", [QQ, QI], ids=["q", "qi"])
def test_roots_match_sympy(field):
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    rng = random.Random(71 if field is QQ else 72)

    def to_sympy(c):
        re, im = (c.value, Fraction(0)) if field is QQ else c.value
        return sympy.Rational(re.numerator, re.denominator) + sympy.I * sympy.Rational(
            im.numerator, im.denominator
        )

    def from_sympy(c):
        re, im = c.as_real_imag()
        value = (Fraction(int(re.p), int(re.q)), Fraction(int(im.p), int(im.q)))
        return field.scalar(value if field is QI else value[0])

    for _ in range(12):
        # roots with denominators, gaussian parts and 1 to 30 digits, next to
        # one small monic quadratic or cubic that is usually rootless
        f = Poly.one(field)
        for _ in range(rng.randint(1, 3)):
            size, den = 10 ** rng.choice((1, 3, 20, 30)), rng.randint(1, 12)
            re, im = (Fraction(rng.randint(-size, size), den) for _ in range(2))
            root = field.scalar((re, im) if field is QI else re)
            f = f * Poly(field, (-root, field.one())) ** rng.randint(1, 2)
        small = [rng.randint(-5, 5) for _ in range(rng.choice((2, 3)))] + [1]
        f = f * Poly.from_ints(field, small) ** rng.randint(1, 2)
        expr = sympy.expand(sum(to_sympy(c) * x**k for k, c in enumerate(f.coeffs)))
        _, parts = sympy.factor_list(expr, x, gaussian=field is QI)
        expected = []
        for g, m in parts:
            g = Poly(field, [from_sympy(c) for c in sympy.Poly(g, x).all_coeffs()[::-1]])
            expected.append((g.monic(), m))
        expected.sort(key=lambda gm: gm[0].sort_key())
        assert factor_irreducible(f) == expected


@pytest.mark.parametrize("field", [QQ, QI], ids=["q", "qi"])
def test_root_extraction_runs_in_polynomial_time(field):
    # a root search exponential in the digits of the constant term would not finish
    f = Poly.from_ints(field, [10**40 + 7, 0, 0, 1])
    start = time.process_time()
    assert factor_irreducible(f) == [(f, 1)]
    assert time.process_time() - start < 1


def test_square_root_of_minus_one_matches_the_prime_field_splitter():
    # the Q(i) root finder maps i to the smaller square root of -1 mod p
    from ximod.factor import _roots_mod_p, _sqrt_minus_one
    from ximod.fields import _is_prime

    primes = [p for p in range(5, 2000, 4) if _is_prime(p)]
    assert len(primes) > 100
    for p in primes:
        assert _sqrt_minus_one(p) == min(_roots_mod_p([1, 0, 1], p)), p
