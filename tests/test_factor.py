import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
from ximod import factor
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


@pytest.mark.parametrize("p", [0, 2, 3, 5, 10007])
def test_squarefree_matches_sympy(p):
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    field = QQ if p == 0 else PrimeField(p)
    domain = {"domain": "QQ"} if p == 0 else {"modulus": p}
    # >= 3 takes several peeling rounds; a multiple of a small p needs the
    # p-th root step
    high = p if 0 < p < 10 else 3
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


def test_squarefree_decomposition_runs_in_polynomial_time():
    # degree 720 over F_10007; squarefree decomposition on boxed scalars took 1.9 s
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    p = 10007
    field = PrimeField(p)
    rng = random.Random("sqf-time-10007")
    f, g = Poly.one(field), sympy.Poly(1, x, modulus=p)
    while f.degree < 720:
        coeffs = [rng.randrange(p) for _ in range(12)] + [1]
        m = min(rng.randint(1, 4), (720 - f.degree) // 12)
        f = f * Poly.from_ints(field, coeffs) ** m
        g = g * sympy.Poly(coeffs[::-1], x, modulus=p) ** m
    start = time.process_time()
    parts = squarefree_decomposition(f)
    assert time.process_time() - start < 0.75
    expected = [(Poly.from_ints(field, [int(c) for c in h.all_coeffs()[::-1]]).monic(), m)
                for h, m in g.sqf_list()[1]]
    assert parts == sorted(expected, key=lambda gm: gm[0].sort_key())


@pytest.mark.parametrize("field, root", [(QI, 1105), (QQ, 30)], ids=["qi", "q"])
def test_squarefree_certificate_falls_back_to_musser(field, root):
    # x (x - root) (x^2 - 3): root = 5 * 13 * 17 over Q(i) and 2 * 3 * 5 over Q,
    # so the images at every certificate prime have the double root 0
    x = Poly.x(field)
    factors = [x, x - Poly.from_ints(field, [root]), Poly.from_ints(field, [-3, 0, 1])]
    f = factors[0] * factors[1] * factors[2]
    assert not factor._certified_squarefree(f)
    assert squarefree_decomposition(f) == [(f, 1)]
    assert factor_irreducible(f) == [(q, 1) for q in sorted(factors, key=Poly.sort_key)]


def _coefficient(field):
    rational = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4))
    if field is QQ:
        return rational.map(field.scalar)
    return st.tuples(rational, rational).map(field.scalar)


@st.composite
def _products_with_repeats(draw, field):
    """Monic products of 1 to 4 random factors of degree 1 to 3, each to a
    power of 1 to 3; the factors need not be coprime or irreducible."""
    f = Poly.one(field)
    for _ in range(draw(st.integers(1, 4))):
        coeffs = [draw(_coefficient(field)) for _ in range(draw(st.integers(1, 3)))]
        f = f * Poly(field, coeffs + [field.one()]) ** draw(st.integers(1, 3))
    return f


@pytest.mark.parametrize("field", [QQ, QI], ids=["q", "qi"])
def test_squarefree_decomposition_matches_musser(field):
    @settings(max_examples=60, derandomize=True, deadline=None, database=None)
    @given(_products_with_repeats(field))
    def check(f):
        musser = sorted(factor._squarefree_parts(f), key=lambda gm: gm[0].sort_key())
        assert squarefree_decomposition(f) == musser

    check()


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


def test_factor_f2_splits_equal_degree_products_by_the_trace_map():
    # each product below has several irreducible factors of one degree d >= 2,
    # which only the characteristic-2 trace map can separate
    c1 = Poly.from_ints(F2, [1, 1, 0, 1])  # x^3 + x + 1
    c2 = Poly.from_ints(F2, [1, 0, 1, 1])  # x^3 + x^2 + 1
    quartics = [Poly.from_ints(F2, c) for c in ([1, 1, 0, 0, 1], [1, 0, 0, 1, 1], [1, 1, 1, 1, 1])]
    q = quartics[0] * quartics[1] * quartics[2]
    cases = [
        (c1 * c2, {c1: 1, c2: 1}),
        (q, {g: 1 for g in quartics}),
        (q**2 * c1, {c1: 1, **{g: 2 for g in quartics}}),
    ]
    for f, expected in cases:
        parts = factor_irreducible(f)
        assert dict(parts) == expected
        assert all(exhaustive_irreducible_fp(g) for g, _ in parts)


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
    (10007, (1, 2, 3, 5, 8, 13, 21, 34, 57)),
    (101, (1, 2, 3, 5, 8, 13, 21, 34, 57)),
    (2, (1, 2, 3, 5, 8, 13, 21, 34, 57)),
])
def test_factor_fp_runs_in_polynomial_time(p, degrees):
    # 60, 24 and 144 in all; splitting on boxed scalars took several times the
    # bound, and schoolbook products mod g took 0.85 s at degree 144
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


@pytest.mark.parametrize("p", [2, 3, 101, 10007, 2**31 - 1, 2**61 - 1])
def test_prime_field_arithmetic_matches_sympy(p):
    # 2^31 - 1 reduces packed products mod moduli of degree <= 3 and takes
    # `_schoolbook` and `_divmod_fp` above that, where it has no lane;
    # 2^61 - 1 always takes them
    sympy = pytest.importorskip("sympy")
    from sympy.polys.domains import ZZ
    from sympy.polys.galoistools import gf_pow_mod
    from ximod.factor import _Modulus, _pow_mod

    x = sympy.Symbol("x")
    field = PrimeField(p)
    rng = random.Random(f"residue-kernel-{p}")

    def to_sympy(f):
        return sympy.Poly([c.value for c in reversed(f.coeffs)] or [0], x, modulus=p)

    def from_sympy(g):
        return Poly.from_ints(field, [int(c) for c in reversed(g.all_coeffs())])

    def rand(degree, lead=None):
        coeffs = [rng.randrange(p) for _ in range(degree)] + [lead or rng.randrange(1, p)]
        return Poly.from_ints(field, coeffs)

    # a zero dividend, a divisor above the dividend's degree, a non-monic
    # divisor (except over F_2), then random pairs with random leading terms
    cases = [(Poly.zero(field), rand(3)), (rand(2), rand(5)), (rand(8), rand(3, lead=p - 1))]
    cases += [(rand(rng.randint(0, 12)), rand(rng.randint(0, 6))) for _ in range(40)]
    for a, b in cases:
        sa, sb = to_sympy(a), to_sympy(b)
        assert divmod(a, b) == tuple(map(from_sympy, sa.div(sb)))
        assert poly_gcd(a, b) == from_sympy(sa.gcd(sb)).monic()
        if b.degree >= 1:
            e = rng.randrange(40)
            assert _pow_mod(a, e, _Modulus(b)) == from_sympy((sa**e).rem(sb))
    # a common factor, so the gcd is not 1
    c = rand(3, lead=1)
    a, b = c * rand(4), c * rand(4)
    assert poly_gcd(a, b).degree >= 3
    assert poly_gcd(a, b) == from_sympy(to_sympy(a).gcd(to_sympy(b))).monic()
    # moduli of degree 1 to 40, monic and not, each with exponents 0, 1 and
    # two larger ones, and bases of degree up to twice the modulus'
    for degree in [*range(1, 13), 20, 27, 33, 40]:
        for lead in (1, p - 1):
            m = rand(degree, lead)
            mod = _Modulus(m)
            if mod.lane and degree > 1:  # the reversed inverse is the quotient of x^(2n - 2) by m
                assert mod.inverse == list((Poly.from_ints(field, [0] * (2 * degree - 2) + [1]) // m).values)
            for base, e in [(rand(degree + 3), 0), (rand(degree - 1), 1),
                            (rand(degree - 1), rng.randrange(2, 200)),
                            (rand(2 * degree), rng.randrange(2, min(p**3, 2**40)))]:
                expected = gf_pow_mod([c.value for c in reversed(base.coeffs)], e,
                                      [c.value for c in reversed(m.coeffs)], p, ZZ)
                assert _pow_mod(base, e, mod) == from_sympy(sympy.Poly(expected or [0], x, modulus=p))


@pytest.mark.parametrize("p", [2, 101, 2**31 + 11])
def test_pow_mod_is_the_power_reduced_once(p):
    # 2^31 + 11 is a prime with no native lane for its products
    from ximod.factor import _Modulus, _pow_mod

    field = PrimeField(p)
    rng = random.Random(f"pow-mod-{p}")
    for degree in (1, 2, 5, 9):
        m = rand_poly(field, degree, rng, nonzero=True, min_degree=degree)
        mod = _Modulus(m)
        for b in (rand_poly(field, degree - 1, rng), rand_poly(field, degree + 3, rng)):
            for e in range(41):
                assert _pow_mod(b, e, mod) == (b**e) % m, (degree, e)


@pytest.mark.parametrize("p, n", [(3, 12), (5, 12), (101, 36), (10007, 36), (2**30 - 35, 15)])
def test_frobenius_map_matches_pow_mod_and_sympy(p, n):
    # at 2^30 - 35 and degree 15 the map's lane sums need 2*30 + 4 = 64 bits,
    # the top of the widest lane; all-(p - 1) residues give the largest sums.
    # At p = 3 the map has no rows and squares.
    sympy = pytest.importorskip("sympy")
    from sympy.polys.domains import ZZ
    from sympy.polys.galoistools import gf_pow_mod
    from ximod.factor import _Frobenius, _Modulus, _pow_mod

    field = PrimeField(p)
    rng = random.Random(f"frobenius-{p}-{n}")
    g = Poly.from_ints(field, [rng.randrange(p) for _ in range(n)] + [1])
    mod = _Modulus(g)
    assert mod.lane is not None
    frobenius = _Frobenius(mod)
    assert (frobenius.rows is None) == (p == 3)
    bases = [Poly.x(field), Poly.one(field), Poly.from_ints(field, [p - 1] * n)]
    bases += [Poly.from_ints(field, [rng.randrange(p) for _ in range(rng.randint(1, n))])
              for _ in range(8)]
    for h in bases:
        image = Poly.from_ints(field, frobenius(h.u, mod))
        assert image == _pow_mod(h, p, mod)
        expected = gf_pow_mod(list(reversed(h.u)), p, list(reversed(g.u)), p, ZZ)
        assert image == Poly.from_ints(field, [int(c) for c in reversed(expected)])


@pytest.mark.parametrize("p", [2, 3, 5, 101, 10007, 2**31 + 11])
def test_split_witness_is_the_power_by_squaring(p):
    # equal-degree splitting reads h^((p^d - 1)/2) mod w as the norm
    # u phi(u) ... phi^(d-1)(u), with u = h^((p-1)/2) and phi the map mod a g
    # that w divides, and at p = 2 the trace h + h^2 + ... + h^(2^(d-1));
    # phi has rows at 5, 101 and 10007 and squares at 2, 3 and 2^31 + 11
    from ximod.factor import _Frobenius, _Modulus, _pow_mod, _split_witness

    field = PrimeField(p)
    rng = random.Random(f"half-power-{p}")

    def rand(degree, lead=None):
        return Poly.from_ints(field, [rng.randrange(p) for _ in range(degree)] + [lead or rng.randrange(1, p)])

    w = rand(4, 1) * rand(4, 1)
    g = w * rand(6, 1)
    frobenius = _Frobenius(_Modulus(g))
    assert (frobenius.rows is None) == (p in (2, 3, 2**31 + 11))
    for target in (g, w):
        mod = _Modulus(target)
        for d in (1, 2, 3, 5):
            h = rand(target.degree - 1)
            if p == 2:
                expected = sum((_pow_mod(h, 2**k, mod) for k in range(d)), Poly.zero(field))
            else:
                expected = _pow_mod(h, (p**d - 1) // 2, mod)
            assert _split_witness(list(h.u), d, frobenius, mod) == expected, (target.degree, d)


def test_frobenius_map_is_built_only_where_it_saves_products(monkeypatch):
    # by squaring a p-th power costs one product at p = 2 and two at p = 3,
    # never more than the map's rows; without a lane there are no rows
    built = []
    frobenius = factor._Frobenius

    def record(mod):
        built.append(frobenius(mod))
        return built[-1]

    monkeypatch.setattr(factor, "_Frobenius", record)
    rng = random.Random("frobenius-rule")
    cases = [(2, 64), (3, 64), (2**61 - 1, 8), (5, 3), (5, 4), (101, 36)]
    for p, n in cases:
        field = PrimeField(p)
        g = Poly.x(field) ** 2
        while poly_gcd(g, g.derivative()).degree:  # the splitter takes squarefree input
            g = Poly.from_ints(field, [rng.randrange(p) for _ in range(n)] + [1])
        assert remultiply(field, [(q, 1) for q in factor._factor_squarefree_fp(g)]) == g
    # one map per squarefree part; the rows are built by the first p-th power
    assert [(phi.p, phi.mod.poly.degree) for phi in built] == cases
    assert [(phi.p, phi.mod.poly.degree) for phi in built if vars(phi).get("rows")] \
        == [(5, 4), (101, 36)]
    # the root search splits at degree 1, which never applies its map, so
    # at p = 101 and degree 8 the rows it would have stay unbuilt; x^2 + 2
    # is irreducible mod 101, since -2 is a non-residue
    built.clear()
    field = PrimeField(101)
    f = Poly.from_ints(field, [2, 0, 1])
    for r in (1, 2, 3, 5, 8, 13):
        f = f * Poly.from_ints(field, [-r, 1])
    assert sorted(factor._roots_mod_p(f)) == [1, 2, 3, 5, 8, 13]
    assert len(built) == 1 and "rows" not in vars(built[0])
    assert built[0].rows is not None


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


def test_gaussian_root_extraction_splits_at_one_prime(monkeypatch):
    # six gaussian-integer roots of norms 2 to 25 next to x^2 - 3: at 5 and 13
    # an image is not squarefree, so the splitter runs only at 17
    primes = []
    roots_mod_p = factor._roots_mod_p
    monkeypatch.setattr(factor, "_roots_mod_p",
                        lambda f: primes.append(f.field.characteristic) or roots_mod_p(f))
    x = Poly.x(QI)
    quadratic = Poly.from_ints(QI, [-3, 0, 1])
    linears = [x - Poly.constant(QI.scalar(r))
               for r in ((1, 1), (2, 1), (3, 1), (3, 2), (4, 1), (4, 3))]
    f = quadratic
    for linear in linears:
        f = f * linear
    start = time.process_time()
    parts = factor_irreducible(f)
    assert time.process_time() - start < 0.1
    assert parts == [(q, 1) for q in sorted(linears + [quadratic], key=Poly.sort_key)]
    assert primes == [17, 17]


def test_square_root_of_minus_one_matches_the_prime_field_splitter():
    # the Q(i) root finder maps i to the smaller square root of -1 mod p
    from ximod.factor import _roots_mod_p, _sqrt_minus_one
    from ximod.fields import _is_prime

    primes = [p for p in range(5, 2000, 4) if _is_prime(p)]
    assert len(primes) > 100
    for p in primes:
        x2_plus_1 = Poly.from_ints(PrimeField(p), [1, 0, 1])
        assert _sqrt_minus_one(p) == min(_roots_mod_p(x2_plus_1)), p
