import math
import random
import time
from array import array
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ximod import (
    QI,
    QQ,
    BothZero,
    DivisionByZero,
    Matrix,
    Poly,
    PolyMatrix,
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


def test_scaling_goes_through_scale_only():
    p = Poly.from_ints(QQ, [1, 2])
    assert p.scale(QQ.from_int(3)) == Poly.from_ints(QQ, [3, 6])
    with pytest.raises(TypeError):
        p * QQ.one()


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


@pytest.mark.parametrize("field", [*ALL_FIELDS, PrimeField(2), PrimeField(101)],
                         ids=["q", "qi", "fp5", "fp2", "fp101"])
def test_power_matches_repeated_products(field):
    rng = random.Random(23)
    for _ in range(10):
        f = rand_poly(field, 3, rng)
        expected = Poly.one(field)
        for n in range(10):
            assert f**n == expected, n
            expected = expected * f
    with pytest.raises(ValueError):
        f ** -1


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


def schoolbook_mod_p(a, b, p):
    """The product of two residue lists mod p, trailing zeros stripped."""
    out = [0] * (len(a) + len(b) - 1) if a and b else []
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    out = [c % p for c in out]
    while out and not out[-1]:
        out.pop()
    return out


@pytest.mark.parametrize("p", [2, 3, 101, 10007, 2**30 - 35, 2**31 - 1, 2**61 - 1, 10**18 + 3])
def test_fp_products_match_schoolbook(p):
    # packed products above the crossover, schoolbook below it and for
    # primes whose lanes do not fit; all-(p - 1) lists give the largest sums
    field = PrimeField(p)
    rng = random.Random(f"fp-products-{p}")
    for n in range(65):
        for m in (n, rng.randrange(65)):
            for a, b in (([p - 1] * n, [p - 1] * m),
                         ([rng.randrange(p) for _ in range(n)], [rng.randrange(p) for _ in range(m)])):
                product = Poly.from_ints(field, a) * Poly.from_ints(field, b)
                assert list(product.values) == schoolbook_mod_p(a, b, p), (n, m)


@pytest.mark.parametrize("p, n, bits", [
    (2**31 - 1, 3, 64), (2**31 - 1, 7, 65), (2**30 - 35, 15, 64), (2**30 - 35, 16, 65),
    (3, 15, 8), (3, 16, 9), (31, 63, 16), (31, 64, 17), (8191, 63, 32), (8191, 64, 33),
])
def test_fp_products_on_both_sides_of_the_lane_bound(p, n, bits):
    # 2*bitlen(p - 1) + bitlen(n) is the width a product's coefficients need
    # when the shorter factor has length n; each case is at the top of a lane
    # width w or one bit above it, where the next wider lane must be taken,
    # and none above 64: at 65 bits a lane of (2^31 - 2)^2 * 7 overflows, so a
    # packed product there would be wrong
    from ximod.factor import _Modulus
    from ximod.poly import _kron, _lane

    assert 2 * (p - 1).bit_length() + n.bit_length() == bits
    lane = _lane(p, n)
    assert (lane is not None) == (bits <= 64)
    if lane:
        assert 8 * array(lane).itemsize == min(w for w in (8, 16, 32, 64) if w >= bits)
    field = PrimeField(p)
    a, b = [p - 1] * n, [p - 1] * (n + 5)
    expected = schoolbook_mod_p(a, b, p)
    assert list((Poly.from_ints(field, a) * Poly.from_ints(field, b)).values) == expected
    assert list((Poly.from_ints(field, b) * Poly.from_ints(field, a)).values) == expected
    if lane:
        assert [c % p for c in _kron(a, b, lane)] == expected
    # products mod a modulus of degree n take the same lane
    rng = random.Random(f"lane-{p}-{n}")
    m = Poly.from_ints(field, [rng.randrange(p) for _ in range(n)] + [rng.randrange(1, p)])
    mod = _Modulus(m)
    assert mod.lane == lane
    c = [rng.randrange(p) for _ in range(n)]
    for x, y in ((a, a), (a, c), (c, c)):
        assert Poly.from_ints(field, mod.mul(x, y)) == Poly.from_ints(field, schoolbook_mod_p(x, y, p)) % m


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


# -- the integral lift: every op against sympy, canonical forms agree ---------

def _rational():
    # mostly non-integral, with denominators that share factors and do not
    return st.builds(Fraction, st.integers(-40, 40), st.sampled_from([1, 2, 3, 4, 6, 9, 35, 64]))


def _scalar(field):
    if field is QQ:
        return _rational().map(field.scalar)
    if field is QI:
        return st.tuples(_rational(), _rational()).map(field.scalar)
    return st.integers(0, field.p - 1).map(field.scalar)


def _polys(field, max_degree=5):
    return st.lists(_scalar(field), max_size=max_degree + 1).map(lambda cs: Poly(field, cs))


def _nonzero(field, max_degree=4):
    # the lead is drawn apart, so that it is nonzero and mostly not 1
    return st.tuples(st.lists(_scalar(field), max_size=max_degree), _scalar(field).filter(bool)).map(
        lambda parts: Poly(field, parts[0] + [parts[1]]))


def _assert_canonical(f):
    gaussian = f.field is QI
    parts = [x for c in f.u for x in c] if gaussian else list(f.u)
    if f.field.characteristic:
        assert f.den == 1 and all(0 <= c < f.field.p for c in f.u) and f.u == f.values
    else:
        assert f.den > 0 and math.gcd(f.den, *parts) == 1
    assert not f.u or (any(f.u[-1]) if gaussian else f.u[-1])


LIFT_EXAMPLES = settings(max_examples=150, derandomize=True, deadline=None, database=None)


@pytest.mark.parametrize("field", [QQ, QI], ids=["q", "qi"])
def test_lifted_ops_match_sympy(field):
    sympy = pytest.importorskip("sympy")
    from oracles import sympy_domain

    domain, convert = sympy_domain(field)
    x = sympy.Symbol("x")

    def to_sympy(f):
        return sympy.Poly.from_list([convert(c) for c in reversed(f.coeffs)], x, domain=domain)

    def same(f, g):
        _assert_canonical(f)
        return [convert(c) for c in reversed(f.coeffs)] == g.rep.to_list()

    # evaluation of the zero and of a constant polynomial, at points with
    # denominators
    half = field.scalar((Fraction(-1, 2), Fraction(2, 9)) if field is QI else Fraction(-1, 2))
    b0, c0 = Poly.from_ints(field, [1, 3]), field.from_int(2)

    @LIFT_EXAMPLES
    @example(Poly.zero(field), b0, c0, half, b0, 0)
    @example(Poly(field, [half]), b0, c0, half, b0, 1)
    @example(Poly(field, [c0, half, half]), b0, c0, half, b0, 2)
    @given(_polys(field), _nonzero(field), _scalar(field).filter(bool), _scalar(field),
           _nonzero(field, 2), st.integers(0, 3))
    def check(a, b, c, point, common, k):
        sa, sb, sc = to_sympy(a), to_sympy(b), to_sympy(common)
        assert same(a + b, sa + sb) and same(a - b, sa - sb) and same(-a, -sa)
        assert same(a * b, sa * sb) and same(a ** k, sa ** k)
        q, r = divmod(a, b)
        sq, sr = sa.div(sb)
        assert same(q, sq) and same(r, sr)
        assert same(a // b, sq) and same(a % b, sr) and b.divides(a * b)
        assert same(a.scale(c), sa.mul_ground(convert(c)))
        assert same(a.derivative(), sa.diff(x))
        value, y = domain.zero, convert(point)
        for coefficient in sa.rep.to_list():  # Horner in the sympy domain
            value = value * y + coefficient
        assert convert(a.eval(point)) == value
        assert PolyMatrix.diagonal(field, (a, b)).evaluate(point) == Matrix.diagonal(
            field, (a.eval(point), b.eval(point)))
        assert a.degree == (sa.degree() if not sa.is_zero else -1)
        assert b.is_monic == (sb.LC() == domain.one)
        assert same(b.monic(), sb.monic())
        assert b.leading_coefficient == b.coeffs[-1]
        assert same(poly_gcd(a, b), sb.gcd(sa).monic())
        assert same(poly_gcd(common * a, common * b), (sc * sa).gcd(sc * sb).monic())
        assert (a == b) == (sa == sb) and (a * b == b * a) and hash(a * b) == hash(b * a)

    check()


@pytest.mark.parametrize("field", [QQ, QI, PrimeField(2), PrimeField(101)],
                         ids=["q", "qi", "fp2", "fp101"])
def test_construction_routes_agree_on_equal_values(field):
    # Poly(field, scalars), _poly on raw values, a lift that is not in
    # lowest terms (unreduced residues over F_p), from_ints and op results
    # of the same value are one canonical form: the same (u, den), hash,
    # values and text
    from ximod.poly import _from_lift, _poly

    m0, c0 = Poly.from_ints(field, [1, 3]), field.from_int(3)

    @LIFT_EXAMPLES
    @example([], m0, c0, 1)
    @example([c0], m0, c0, 10**6)
    @given(st.lists(_scalar(field), max_size=6), _nonzero(field, 3), _scalar(field).filter(bool),
           st.integers(1, 10**6))
    def check(scalars, m, c, k):
        f = Poly(field, scalars)
        if field.characteristic:  # unreduced residues
            scaled = _from_lift(field, [a + k * field.p for a in f.u])
        elif field is QI:
            scaled = _from_lift(field, [(k * a, k * b) for a, b in f.u], k * f.den)
        else:
            scaled = _from_lift(field, [k * a for a in f.u], k * f.den)
        routes = [
            _poly(field, [s.value for s in scalars]),
            scaled,
            (f * m) // m,
            (f + m) - m,
            f.scale(c).scale(c.inv()),
            (f * m - f * m) + f,
        ]
        for g in routes:
            _assert_canonical(g)
            assert (g.u, g.den) == (f.u, f.den)
            assert g == f and hash(g) == hash(f)
            assert g.values == f.values and str(g) == str(f) and g.coeffs == f.coeffs
        raw = [s.value for s in scalars]
        while raw and not raw[-1]:
            raw.pop()
        assert f.values == tuple(raw)
        # every route evaluates at c to the power sum of the scalars, also
        # over F_p from a lift of unreduced residues and at an unreduced point
        value, power = field.zero(), field.one()
        for s in scalars:
            value, power = value + s * power, power * c
        assert all(g.eval(c) == value for g in [f] + routes)
        assert PolyMatrix.diagonal(field, routes[:2]).evaluate(c) == Matrix.diagonal(
            field, (value, value))
        if field.characteristic:
            assert scaled._at(c.value + k * field.p) == value.value
        ints = [(k + i) % 7 - 3 for i in range(len(scalars))]
        g = Poly(field, [field.from_int(n) for n in ints])
        assert Poly.from_ints(field, ints) == g and hash(Poly.from_ints(field, ints)) == hash(g)
        assert str(Poly.from_ints(field, ints)) == str(g)

    check()


@pytest.mark.parametrize("field", [PrimeField(2), PrimeField(101)], ids=["fp2", "fp101"])
def test_fp_gcd_matches_sympy(field):
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")

    def to_sympy(f):
        return sympy.Poly(list(reversed(f.u)), x, modulus=field.p)

    @LIFT_EXAMPLES
    @given(_polys(field, 8), _nonzero(field, 6), _nonzero(field, 3))
    def check(a, b, common):
        for f, g in ((a, b), (common * a, common * b)):
            d = poly_gcd(f, g)
            expected = to_sympy(f).gcd(to_sympy(g)).monic()
            assert [int(c) % field.p for c in expected.all_coeffs()][::-1] == list(d.u)
            assert d.is_monic

    check()


@pytest.mark.parametrize("field, bound", [(QQ, 0.5), (QI, 5.0)], ids=["q", "qi"])
def test_division_and_gcd_at_degree_64_stay_polynomial(field, bound):
    # 60-bit denominators, all distinct, so each lift's den has about
    # 65 * 60 bits: divmod of degree 64 by a non-monic degree 32 (33
    # pseudo-division steps, whose scaling the remainder carries) and the
    # gcd of c*s and c*t for a monic c of degree 60 and s, t of degree 4.
    # On a 2-vCPU VM: q 0.04 s, qi 1.3 s; on Fraction coefficients 0.14 s
    # and 2.9 s.  A pseudo-division that scales by the whole lead at every
    # step took 0.55 s and 12.5 s, a gcd that leaves its remainders
    # unnormalised 5.8 s over Q(i).
    rng = random.Random(f"degree-64-{field.kind}")

    def scalar():
        parts = [Fraction(rng.randint(-2**60, 2**60), rng.randint(1, 2**60)) for _ in range(2)]
        return field.scalar(parts[0] if field is QQ else tuple(parts))

    def rand(degree, monic=False):
        return Poly(field, [scalar() for _ in range(degree)] + [field.one() if monic else scalar()])

    a, b, c, s, t = rand(64), rand(32), rand(60, monic=True), rand(4), rand(4)
    f, g = c * s, c * t
    start = time.process_time()
    q, r = divmod(a, b)
    d = poly_gcd(f, g)
    elapsed = time.process_time() - start
    assert q * b + r == a and r.degree < b.degree
    assert d == c
    assert elapsed < bound
