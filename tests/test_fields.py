import random
import time
from fractions import Fraction

import pytest

from ximod import (
    QI,
    QQ,
    DivisionByZero,
    Matrix,
    Poly,
    PrimeField,
    TagMismatch,
    field_arithmetic,
    parse_scalar_text,
)
from oracles import rand_scalar

F5 = PrimeField(5)
ALL_FIELDS = [QQ, QI, F5]


def test_rational_canonical_on_construction():
    assert QQ.scalar(Fraction(2, 4)) == QQ.scalar(Fraction(1, 2))
    assert str(QQ.scalar(Fraction(2, 4))) == "1/2"
    assert str(QQ.scalar(Fraction(3, -4))) == "-3/4"


def test_prime_field_inverse():
    two = F5.from_int(2)
    assert two.inv() == F5.from_int(3)
    assert (two * two.inv()) == F5.one()


def test_gaussian_conjugate_product():
    a = QI.scalar((1, 1))
    b = QI.scalar((1, -1))
    assert a * b == QI.from_int(2)


def test_prime_field_requires_prime_modulus():
    with pytest.raises(ValueError):
        PrimeField(6)
    with pytest.raises(ValueError):
        PrimeField(1)
    # primality is Miller-Rabin, so an 18-digit prime is accepted at once
    start = time.process_time()
    assert PrimeField(1000000000000000003).p == 10**18 + 3
    assert PrimeField(2**61 - 1).p == 2**61 - 1
    assert time.process_time() - start < 1
    # a Carmichael number, and a strong pseudoprime to the bases 2, 3, 5 and 7
    for n in (561, 3215031751):
        with pytest.raises(ValueError, match="not prime"):
            PrimeField(n)
    # the first 13 prime bases are exact only below 3317044064679887385961981
    for n in (3317044064679887385961981, 2**89 - 1):
        with pytest.raises(ValueError, match="too large"):
            PrimeField(n)


def test_tag_mismatch_raises():
    with pytest.raises(TagMismatch):
        QQ.one() + F5.one()
    with pytest.raises(TagMismatch):
        QQ.one() == QI.one()
    with pytest.raises(TagMismatch):
        PrimeField(3).one() + PrimeField(5).one()


def test_equal_field_tags_interoperate_and_unequal_ones_do_not():
    # two PrimeField(101) objects are distinct but equal: they are one field
    a, b = PrimeField(101), PrimeField(101)
    assert a is not b
    x, y = a.from_int(7), b.from_int(30)
    assert x + y == b.from_int(37) and x * y == b.from_int(210)
    assert x - y == a.from_int(-23) and x / y == a.from_int(7) / a.from_int(30)
    assert Poly(a, (x, y)) == Poly.from_ints(b, [7, 30])
    assert Poly(a, (x,)) * Poly(b, (y,)) == Poly.from_ints(a, [210])
    assert Matrix(a, [[x, y]]) == Matrix(b, [[b.from_int(7), b.from_int(30)]])
    for f, g in ((PrimeField(5), PrimeField(7)), (QQ, QI), (QI, QQ)):
        u, v = f.one(), g.one()
        for op in (lambda: u + v, lambda: u * v, lambda: u - v, lambda: u / v,
                   lambda: u == v, lambda: Poly(f, (v,)), lambda: Poly(f, (u,)) + Poly(g, (v,)),
                   lambda: Matrix(f, [[u, v]])):
            with pytest.raises(TagMismatch):
                op()


def test_division_by_zero():
    for field in ALL_FIELDS:
        with pytest.raises(DivisionByZero):
            field.one() / field.zero()
        with pytest.raises(DivisionByZero):
            field.zero().inv()


def test_field_arithmetic_dispatch():
    a, b = QQ.from_int(3), QQ.from_int(2)
    assert field_arithmetic(a, b, "add") == QQ.from_int(5)
    assert field_arithmetic(a, b, "sub") == QQ.from_int(1)
    assert field_arithmetic(a, b, "mul") == QQ.from_int(6)
    assert field_arithmetic(a, b, "div") == QQ.scalar(Fraction(3, 2))
    assert field_arithmetic(a, None, "neg") == QQ.from_int(-3)
    assert field_arithmetic(b, None, "inv") == QQ.scalar(Fraction(1, 2))
    assert field_arithmetic(a, a, "eq") is True
    assert field_arithmetic(a, b, "eq") is False


def test_field_arithmetic_checks_the_operand_before_the_name():
    # a missing second operand is a TypeError even when the name is unknown
    a, b = QQ.from_int(3), QQ.from_int(2)
    for op in ("add", "sub", "mul", "div", "eq", "pow"):
        with pytest.raises(TypeError, match="needs a second operand"):
            field_arithmetic(a, None, op)
    with pytest.raises(ValueError, match="unknown operation 'pow'"):
        field_arithmetic(a, b, "pow")


@pytest.mark.parametrize("field", ALL_FIELDS, ids=["q", "qi", "fp5"])
def test_field_axioms_on_random_samples(field):
    rng = random.Random(11)
    for _ in range(50):
        a = rand_scalar(field, rng)
        b = rand_scalar(field, rng)
        c = rand_scalar(field, rng)
        assert a + b == b + a
        assert (a + b) + c == a + (b + c)
        assert a * (b + c) == a * b + a * c
        assert a - a == field.zero()
        if not b.is_zero:
            assert (a / b) * b == a


def test_canonical_forms_are_unique():
    rng = random.Random(12)
    for field in ALL_FIELDS:
        for _ in range(30):
            a = rand_scalar(field, rng)
            b = rand_scalar(field, rng)
            s1 = a + b
            s2 = b + a
            # equal values have bit-identical canonical representations
            assert s1.value == s2.value
            assert hash(s1) == hash(s2)


def test_scalar_text_round_trip():
    rng = random.Random(13)
    for field in ALL_FIELDS:
        for _ in range(40):
            s = rand_scalar(field, rng)
            assert parse_scalar_text(field, str(s)) == s


def test_gaussian_text_forms():
    assert parse_scalar_text(QI, "i") == QI.scalar((0, 1))
    assert parse_scalar_text(QI, "-i") == QI.scalar((0, -1))
    assert parse_scalar_text(QI, "3i") == QI.scalar((0, 3))
    assert parse_scalar_text(QI, "1/2-3/4i") == QI.scalar((Fraction(1, 2), Fraction(-3, 4)))
    assert parse_scalar_text(QI, "-2") == QI.scalar((-2, 0))
    assert str(QI.scalar((Fraction(1, 2), Fraction(-3, 4)))) == "1/2-3/4i"
    # these forms are printed by Gaussian.__str__
    for text in ("i", "-i", "3i", "-1/2+i", "2"):
        assert str(parse_scalar_text(QI, text)) == text
    # a sign after e/E belongs to the decimal exponent, not to the imaginary part
    assert parse_scalar_text(QI, "1e-5i") == QI.scalar((0, Fraction(1, 10**5)))
    assert parse_scalar_text(QI, "2+1e-5i") == QI.scalar((2, Fraction(1, 10**5)))
    assert parse_scalar_text(QI, "3-1e-2i") == QI.scalar((3, Fraction(-1, 100)))
    assert parse_scalar_text(QI, "1E+2-3i") == QI.scalar((100, -3))


def _matrix_route_values(M, N, a, v, pi):
    """The raw values that every matrix route gives from the square matrices
    M and N, the scalar a, the vector v and the monic polynomial pi."""
    from ximod import (
        OperatorPairKind,
        PolyMatrix,
        companion_matrix,
        induced_operator,
        kronecker,
        relation_subspace,
        sylvester_operator,
    )

    W = relation_subspace(OperatorPairKind(M, M), M.rows, M.rows)
    induced = induced_operator(W)
    assert induced.rows >= M.rows  # the quotient of (M, M) has dimension >= rows
    matrices = [
        M @ N, M + N, M - N, N - M, M.scale(a), kronecker(M, N), sylvester_operator(M, N),
        induced, companion_matrix(pi), PolyMatrix.characteristic_matrix(M).evaluate(a),
        Matrix.from_ints(M.field, [[-1, -2 * 10**18 - 7], [-3, 0]]),
    ]
    values = [x for X in matrices for row in X.values for x in row]
    return values + [s.value for s in M.matvec(v)]


def test_every_route_to_a_gaussian_scalar_gives_a_gaussian_value():
    # a plain (re, im) tuple inside a Poly would concatenate under +
    from ximod import charpoly, poly_eval_operator, rref
    from ximod.fields import Gaussian
    from ximod.jsonio import parse_scalar_json
    from ximod.matrix import Echelon
    from ximod.poly import _box, lift

    a = parse_scalar_text(QI, "1/2-3i")
    b = parse_scalar_json(QI, {"re": "2", "im": "-1/3"}, "$")
    scalars = [a, b, parse_scalar_text(QI, "5"), QI.from_int(3), QI.zero()]
    scalars += [a + b, a - b, a * b, a / b, a.inv(), -a]
    M = Matrix(QI, [[a, b], [b * b, a]])
    scalars += [c for row in rref(M).reduced.entries for c in row]
    echelon = Echelon(QI)
    w, den = echelon.reduce_lifted(*lift(QI, [a.value, b.value]))
    values = _box(QI, echelon.lifted(w), den)
    pi = Poly(QI, [a, b, a, b])
    for A in (M, Matrix.from_ints(QI, [[1, 2], [3, 4]])):  # with and without denominators
        scalars += charpoly(A).coeffs
        scalars += [c for row in poly_eval_operator(pi, A).entries for c in row]
        scalars += [c for row in poly_eval_operator(Poly.from_ints(QI, [2, 0, -1, 3]), A).entries
                    for c in row]
    scalars += (Poly(QI, [a, b]) * Poly(QI, [b, a]) - Poly.x(QI)).coeffs
    N = Matrix.from_ints(QI, [[1, 2], [3, 4]])
    values += _matrix_route_values(M, N, a, (a, b), pi.monic())
    values += [s.value for s in scalars]
    assert all(type(v) is Gaussian for v in values)
    g, h = a.value, b.value
    assert g + h == (a + b).value and not g - g and (g * h, -g) == ((a * b).value, (-a).value)


def test_every_route_to_a_residue_gives_a_reduced_int():
    # over F_p a value outside [0, p) would break equality and printing;
    # p is large so that unreduced sums and products would show
    from ximod import charpoly, poly_eval_operator, rref
    from ximod.matrix import Echelon
    from ximod.poly import _box, lift

    F = PrimeField(10**18 + 3)
    p = F.p
    rng = random.Random(15)
    entries = [[F.from_int(rng.randrange(p // 2, p)) for _ in range(3)] for _ in range(3)]
    a, b = entries[0][0], entries[1][1]
    scalars = [a + b, a - b, b - a, a * b, a / b, a.inv(), -F.zero(), -F.from_int(p - 1)]
    M = Matrix(F, entries)
    scalars += [c for row in rref(M).reduced.entries for c in row]
    echelon = Echelon(F)
    w, den = echelon.reduce_lifted(*lift(F, [a.value for a in entries[0]]))
    values = _box(F, echelon.lifted(w), den)
    scalars += charpoly(M).coeffs
    pi = Poly(F, [F.from_int(rng.randrange(p // 2, p)) for _ in range(6)])
    scalars += [c for row in poly_eval_operator(pi, M).entries for c in row]
    scalars += (pi * pi - Poly(F, [a, b]) * pi).coeffs
    N = Matrix(F, [[F.from_int(rng.randrange(p // 2, p)) for _ in range(3)] for _ in range(3)])
    values += _matrix_route_values(M, N, a, entries[1], pi.monic())
    values += [s.value for s in scalars]
    assert all(type(v) is int and 0 <= v < p for v in values)
    assert (-F.from_int(p - 1)).value == 1 and (-F.zero()).value == 0


def test_prime_field_parse_canonicalizes():
    assert parse_scalar_text(F5, "7") == F5.from_int(2)
    assert parse_scalar_text(F5, "-1") == F5.from_int(4)


def test_exponent_literals_stay_printable():
    # every accepted literal renders within Python's 4300-digit int-str limit
    for text in ("1e4299", "-1e-4299", "25e4298"):
        assert str(parse_scalar_text(QQ, text))
    for text in ("1e4300", "1e-4300", "25e4299", "1.5e4300", "1e10000000"):
        with pytest.raises(ValueError, match="4300 digits"):
            parse_scalar_text(QQ, text)
    with pytest.raises(ValueError, match="4300 digits"):
        parse_scalar_text(QI, "1e5000i")
