import random
import time
from fractions import Fraction

import pytest

from ximod import (
    QI,
    QQ,
    BothZero,
    DivisionByZero,
    Matrix,
    Poly,
    PrimeField,
    charpoly,
    poly_divmod,
    poly_eval_operator,
    poly_gcd,
)
from oracles import (
    naive_charpoly,
    naive_poly_eval,
    rand_big_scalar,
    rand_matrix,
    rand_poly,
    rand_scalar,
)

F5 = PrimeField(5)
ALL_FIELDS = [QQ, QI, F5]


def test_trailing_zeros_stripped():
    p = Poly.from_ints(QQ, [1, 2, 0, 0])
    assert p.degree == 1
    assert Poly.from_ints(QQ, [0, 0]).is_zero
    assert Poly.zero(QQ).degree == -1


def test_divmod_examples():
    f = Poly.from_ints(QQ, [1, 0, 1])  # x^2 + 1
    g = Poly.from_ints(QQ, [-1, 1])  # x - 1
    q, r = poly_divmod(f, g)
    assert q == Poly.from_ints(QQ, [1, 1])
    assert r == Poly.from_ints(QQ, [2])
    assert q * g + r == f

    q, r = poly_divmod(f, f)
    assert q == Poly.one(QQ) and r.is_zero

    q, r = poly_divmod(Poly.zero(QQ), g)
    assert q.is_zero and r.is_zero


def test_divmod_by_zero():
    with pytest.raises(DivisionByZero):
        poly_divmod(Poly.one(QQ), Poly.zero(QQ))


@pytest.mark.parametrize("field", ALL_FIELDS, ids=["q", "qi", "fp5"])
def test_divmod_property(field):
    rng = random.Random(21)
    for _ in range(60):
        f = rand_poly(field, 6, rng)
        g = rand_poly(field, 4, rng, nonzero=True)
        q, r = poly_divmod(f, g)
        assert q * g + r == f
        assert r.degree < g.degree


def test_gcd_examples():
    f = Poly.from_ints(QQ, [-1, 0, 1])  # x^2 - 1
    g = Poly.from_ints(QQ, [-1, 1])  # x - 1
    assert poly_gcd(f, g) == g

    scaled = Poly.from_ints(QQ, [-2, 2])
    assert poly_gcd(scaled, Poly.zero(QQ)) == g  # monic scaling of the input

    with pytest.raises(BothZero):
        poly_gcd(Poly.zero(QQ), Poly.zero(QQ))


@pytest.mark.parametrize("field", ALL_FIELDS, ids=["q", "qi", "fp5"])
def test_gcd_properties(field):
    rng = random.Random(22)
    for _ in range(40):
        common = rand_poly(field, 2, rng, monic=True, min_degree=1)
        f = common * rand_poly(field, 2, rng, nonzero=True)
        g = common * rand_poly(field, 2, rng, nonzero=True)
        d = poly_gcd(f, g)
        assert d.is_monic
        assert (f % d).is_zero and (g % d).is_zero
        assert common.divides(d)


def test_gaussian_arithmetic_matches_sympy():
    sympy = pytest.importorskip("sympy")
    from oracles import sympy_domain

    domain, convert = sympy_domain(QI)
    x = sympy.Symbol("x")
    rng = random.Random("qi-poly-sympy")

    def scalar():
        re, im = (Fraction(rng.randint(-9, 9), rng.randint(1, 7)) for _ in range(2))
        return QI.scalar((re, im))

    def rand(degree):
        return Poly(QI, [scalar() for _ in range(degree + 1)])

    def to_sympy(f):
        return sympy.Poly.from_list([convert(c) for c in reversed(f.coeffs)], x, domain=domain)

    def same(f, g):
        return [convert(c) for c in reversed(f.coeffs)] == g.rep.to_list()

    for _ in range(30):
        a, b = rand(rng.randint(0, 7)), rand(rng.randint(0, 4))
        common = Poly(QI, [scalar() for _ in range(rng.randint(1, 3))] + [QI.one()])
        sa, sb, sc = to_sympy(a), to_sympy(b), to_sympy(common)
        assert same(a * b, sa * sb)
        if not b.is_zero:
            q, r = divmod(a, b)
            sq, sr = sa.div(sb)
            assert same(q, sq) and same(r, sr)
        if not (a.is_zero and b.is_zero):
            assert same(poly_gcd(a, b), sa.gcd(sb).monic())
        if not (a.is_zero or b.is_zero):
            assert same(poly_gcd(common * a, common * b), (sc * sa).gcd(sc * sb).monic())


def test_gcd_with_shared_constructed_factor():
    rng = random.Random(23)
    shared = Poly.from_ints(QQ, [2, 1])  # x + 2
    for _ in range(10):
        f = shared * rand_poly(QQ, 3, rng, nonzero=True)
        g = shared * rand_poly(QQ, 3, rng, nonzero=True)
        assert shared.divides(poly_gcd(f, g))


def test_eval_operator_basics():
    A = Matrix.from_ints(QQ, [[0, 1], [1, 1]])
    assert poly_eval_operator(Poly.x(QQ), A) == A
    assert poly_eval_operator(Poly.one(QQ), A) == Matrix.identity(QQ, 2)
    assert poly_eval_operator(Poly.zero(QQ), A) == Matrix.zeros(QQ, 2, 2)


def test_eval_operator_diagonal_componentwise():
    a, b = QQ.from_int(2), QQ.from_int(-3)
    A = Matrix.diagonal(QQ, (a, b))
    pi = Poly.from_ints(QQ, [1, 2, 1])
    evaluated = poly_eval_operator(pi, A)
    assert evaluated == Matrix.diagonal(QQ, (pi.eval(a), pi.eval(b)))


def test_eval_operator_is_ring_homomorphism():
    rng = random.Random(24)
    for field in ALL_FIELDS:
        for _ in range(10):
            A = rand_matrix(field, 3, 3, rng)
            p = rand_poly(field, 3, rng)
            q = rand_poly(field, 3, rng)
            left = poly_eval_operator(p * q, A)
            right = poly_eval_operator(p, A) @ poly_eval_operator(q, A)
            assert left == right
            assert poly_eval_operator(p + q, A) == (
                poly_eval_operator(p, A) + poly_eval_operator(q, A)
            )


@pytest.mark.parametrize(
    "field", [QQ, QI, F5, PrimeField(101)], ids=["q", "qi", "fp5", "fp101"]
)
def test_eval_operator_matches_power_sum_oracle(field):
    # degrees 0..25 take d + 1 both a perfect square (0, 3, 8, 15, 24) and
    # not, so the last coefficient block is sometimes full and sometimes short
    rng = random.Random(f"eval-{field.describe()}")
    for d in range(26):
        A = rand_matrix(field, 3, 3, rng)
        # about half the coefficients zero, the constant term among them
        coeffs = [field.zero()] + [
            field.zero() if rng.random() < 0.5 else rand_scalar(field, rng, nonzero=True)
            for _ in range(d - 1)
        ]
        coeffs = (coeffs + [rand_scalar(field, rng, nonzero=True)])[-(d + 1):]
        for pi in (Poly(field, coeffs), rand_poly(field, d, rng, min_degree=d)):
            assert pi.degree == d
            assert poly_eval_operator(pi, A) == naive_poly_eval(pi, A)
        monomial = Poly(field, [field.zero()] * d + [field.one()])
        assert poly_eval_operator(monomial, A) == A ** d


@pytest.mark.parametrize("field", [QQ, QI], ids=["q", "qi"])
def test_eval_operator_with_denominators_matches_power_sum_oracle(field):
    # 20-30 digit numerators over denominators up to 10^6 in the matrix and
    # in the coefficients, so the lift A = M / d has d > 1, the coefficients
    # have L > 1, and both the scaling by d^(m-k) and the final division by
    # L d^m are exercised; sizes 1..6 and degrees 0..12 each come up
    rng = random.Random(f"eval-big-{field.describe()}")
    for n in range(1, 7):
        A = Matrix(field, ((rand_big_scalar(field, rng) for _ in range(n)) for _ in range(n)))
        for d in range(n - 1, 13, 3):
            pi = Poly(field, [rand_big_scalar(field, rng) for _ in range(d + 1)])
            assert poly_eval_operator(pi, A) == naive_poly_eval(pi, A), (n, d)


def test_eval_operator_over_a_large_prime_runs_in_polynomial_time():
    # Cayley-Hamilton on a dense 64 x 64 matrix over F_(10^18 + 3): about
    # 0.7 s of process time on a 2-vCPU VM with every inner product reduced
    # mod p, 4.5 s when the integers are reduced only at the end
    field = PrimeField(10**18 + 3)
    rng = random.Random("eval-large-prime")
    A = Matrix.from_ints(field, [[rng.randrange(field.p) for _ in range(64)] for _ in range(64)])
    f = charpoly(A)
    start = time.process_time()
    assert poly_eval_operator(f, A).is_zero
    assert time.process_time() - start < 2


def test_cayley_hamilton_via_independent_determinant():
    rng = random.Random(25)
    for _ in range(5):
        A = rand_matrix(QQ, 3, 3, rng)
        cp = naive_charpoly(A)
        assert poly_eval_operator(cp, A).is_zero


def test_poly_str_forms():
    assert str(Poly.from_ints(QQ, [1, 0, 1])) == "x^2 + 1"
    assert str(Poly.from_ints(QQ, [-2, 1])) == "x - 2"
    assert str(Poly.zero(QQ)) == "0"
    assert str(Poly.from_ints(QQ, [0, -1])) == "-x"
    assert str(Poly.from_ints(F5, [4, 3])) == "3*x + 4"
