import random
import time
from fractions import Fraction

import pytest

from ximod import (
    QI,
    QQ,
    Matrix,
    Poly,
    PolyMatrix,
    PrimeField,
    charpoly,
    companion_matrix,
    smith_normal_form,
    solve_linear,
    unit_vector,
)
from oracles import (
    krylov_minimal_polynomial,
    naive_charpoly,
    naive_poly_det,
    rand_big_scalar,
    rand_invertible,
    rand_matrix,
    rand_poly,
    rand_polymatrix,
    rand_scalar,
    sympy_domain,
)

F5 = PrimeField(5)


def assert_valid_smith(P, snf):
    assert snf.U @ P @ snf.V == snf.D
    assert snf.U.determinant().degree == 0
    assert snf.V.determinant().degree == 0
    diag = snf.diagonal()
    seen_zero = False
    for d in diag:
        if d.is_zero:
            seen_zero = True
        else:
            assert not seen_zero, "zero entries must trail"
            assert d.is_monic
    for i in range(P.rows):
        for j in range(P.cols):
            if i != j:
                assert snf.D.entries[i][j].is_zero
    nonzero = snf.nonzero_diagonal()
    for a, b in zip(nonzero, nonzero[1:]):
        assert a.divides(b)


def test_already_diagonal():
    x = Poly.x(QQ)
    P = PolyMatrix.diagonal(QQ, (x, x * x))
    snf = smith_normal_form(P)
    assert snf.diagonal() == [x, x * x]
    assert_valid_smith(P, snf)


def test_divisibility_repair():
    x = Poly.x(QQ)
    P = PolyMatrix.diagonal(QQ, (x * x, x))
    snf = smith_normal_form(P)
    assert snf.diagonal() == [x, x * x]
    assert_valid_smith(P, snf)


def test_companion_presentation():
    p = Poly.from_ints(QQ, [1, 0, 1])
    C = companion_matrix(p)
    P = PolyMatrix.characteristic_matrix(C)
    snf = smith_normal_form(P)
    assert snf.diagonal() == [Poly.one(QQ), p]
    assert_valid_smith(P, snf)
    # independent check: the annihilator of the companion is p itself
    assert krylov_minimal_polynomial(C) == p


def test_companion_matrices_random_degree():
    rng = random.Random(51)
    from oracles import rand_poly

    for _ in range(5):
        p = rand_poly(QQ, 4, rng, monic=True, min_degree=2)
        C = companion_matrix(p)
        snf = smith_normal_form(PolyMatrix.characteristic_matrix(C))
        assert snf.nonconstant_diagonal() == [p]


def test_zero_and_empty_matrices():
    P = PolyMatrix.zeros(QQ, 2, 3)
    snf = smith_normal_form(P)
    assert snf.diagonal() == [Poly.zero(QQ), Poly.zero(QQ)]
    assert_valid_smith(P, snf)

    empty = PolyMatrix.zeros(QQ, 2, 0)
    snf = smith_normal_form(empty)
    assert snf.diagonal() == []
    assert snf.U @ empty @ snf.V == snf.D

    no_rows = PolyMatrix.zeros(QQ, 0, 3)
    assert (no_rows.rows, no_rows.cols) == (0, 3)
    assert empty.transpose() == PolyMatrix.zeros(QQ, 0, 2)
    snf = smith_normal_form(no_rows)
    assert (snf.D.rows, snf.D.cols) == (0, 3)
    assert snf.V == PolyMatrix.identity(QQ, 3)
    assert snf.U @ no_rows @ snf.V == snf.D


def test_rectangular():
    rng = random.Random(52)
    for rows, cols in [(2, 4), (4, 2), (3, 3)]:
        P = rand_polymatrix(QQ, rows, cols, 2, rng)
        snf = smith_normal_form(P)
        assert_valid_smith(P, snf)


def test_random_property_suite_small():
    rng = random.Random(53)
    for field in (QQ, F5):
        for _ in range(25):
            rows = rng.randint(1, 4)
            cols = rng.randint(1, 4)
            P = rand_polymatrix(field, rows, cols, 2, rng)
            snf = smith_normal_form(P)
            assert_valid_smith(P, snf)


def test_rank_agrees_with_evaluation_at_generic_point():
    rng = random.Random(54)
    from ximod import rank

    for _ in range(10):
        P = rand_polymatrix(QQ, 3, 3, 2, rng)
        snf = smith_normal_form(P)
        nonzero = snf.nonzero_diagonal()
        # evaluate away from every root of the diagonal entries
        point = QQ.from_int(1)
        while any(d.eval(point).is_zero for d in nonzero):
            point = point + QQ.one()
        assert rank(P.evaluate(point)) == len(nonzero)


def test_determinant_matches_diagonal_product_up_to_unit():
    rng = random.Random(55)
    for _ in range(8):
        P = rand_polymatrix(QQ, 3, 3, 1, rng)
        snf = smith_normal_form(P)
        det = naive_poly_det(P)
        prod = Poly.one(QQ)
        for d in snf.diagonal():
            prod = prod * d
        if det.is_zero:
            assert prod.is_zero
        else:
            assert prod == det.monic()


@pytest.mark.parametrize(
    "field", [QQ, QI, PrimeField(2), PrimeField(101)], ids=["q", "qi", "fp2", "fp101"]
)
def test_determinant_matches_naive_cofactor_expansion(field):
    rng = random.Random(57)
    singular = 0
    for n in range(6):
        for _ in range(12):
            # zero entries force pivot row swaps and singular matrices
            P = PolyMatrix(
                field,
                (
                    (
                        Poly.zero(field) if rng.random() < 0.4 else rand_poly(field, 2, rng)
                        for _ in range(n)
                    )
                    for _ in range(n)
                ),
                (n, n),
            )
            det = P.determinant()
            assert det == naive_poly_det(P)
            singular += det.is_zero
    assert singular > 0


def test_charpoly_of_dense_16x16_runs_in_polynomial_time():
    # memoised cofactor expansion, which is exponential, took over 10 s here
    field = PrimeField(101)
    rng = random.Random(58)
    f = rand_poly(field, 16, rng, monic=True, min_degree=16)
    S = rand_invertible(field, 16, rng)
    S_inv_columns = [solve_linear(S, unit_vector(field, 16, j)) for j in range(16)]
    S_inv = Matrix(field, ((col[i] for col in S_inv_columns) for i in range(16)))
    A = S @ companion_matrix(f) @ S_inv
    start = time.process_time()
    assert charpoly(A) == f
    assert time.process_time() - start < 10


def _charpoly_cases(field, rng):
    """Matrices with vanishing subdiagonals and singular leading blocks, on
    which a reduction that divides by pivots must swap or skip, one whose
    first subdiagonal pivot needs a row and column swap, dense and sparse
    random ones, and over Q and Q(i) dense ones with 20-30 digit numerators
    over denominators up to 10^6, so that the integral lift has L > 1."""
    zero, one = field.zero(), field.one()

    def grid(n, entry):
        return Matrix(field, ((entry(i, j) for j in range(n)) for i in range(n)), (n, n))

    def direct_sum(*blocks):
        n = sum(B.rows for B in blocks)
        out = [[zero] * n for _ in range(n)]
        k = 0
        for B in blocks:
            for i, row in enumerate(B.entries):
                out[k + i][k : k + B.rows] = row
            k += B.rows
        return Matrix(field, out, (n, n))

    def block_upper(B, C):
        D = direct_sum(B, C)
        k, n = B.rows, D.rows
        return grid(n, lambda i, j: rand_scalar(field, rng) if i < k <= j else D.entries[i][j])

    def permuted(M):
        # P M P^-1 for a random permutation P keeps the spectrum but moves
        # the zero blocks to where a reduction or a leading block meets them
        # midway
        order = list(range(M.rows))
        rng.shuffle(order)
        return grid(M.rows, lambda i, j: M.entries[order[i]][order[j]])

    def sparse(n):
        return grid(n, lambda i, j: zero if rng.random() < 0.6 else rand_scalar(field, rng))

    def jordan(n, c):
        return grid(n, lambda i, j: c if i == j else one if j == i + 1 else zero)

    c = rand_scalar(field, rng, nonzero=True)
    cases = [
        grid(0, None),
        grid(1, lambda i, j: c),
        Matrix.zeros(field, 4, 4),
        Matrix.identity(field, 4).scale(c),
        jordan(5, zero),
        jordan(4, zero).transpose(),
        # column 0 has a zero subdiagonal entry and a nonzero one below it
        grid(4, lambda i, j: zero if (i, j) == (1, 0) else one if (i, j) == (3, 0)
             else rand_scalar(field, rng)),
        direct_sum(jordan(2, zero), jordan(3, c)),
    ]
    for n in range(1, 7):
        cases.append(rand_matrix(field, n, n, rng))
        cases.append(sparse(n))
    for _ in range(3):
        k = rng.randint(1, 3)
        B, C = rand_matrix(field, k, k, rng), sparse(rng.randint(1, 3))
        cases.append(block_upper(B, C))
        cases.append(permuted(block_upper(B, C)))
        cases.append(permuted(direct_sum(B, C, jordan(2, zero))))
    if not field.characteristic:
        for n in range(1, 7):
            cases.append(grid(n, lambda i, j: rand_big_scalar(field, rng)))
    return cases


@pytest.mark.parametrize(
    "field", [QQ, QI, PrimeField(2), PrimeField(3), PrimeField(101)],
    ids=["q", "qi", "fp2", "fp3", "fp101"],
)
def test_charpoly_matches_naive_and_sympy(field):
    pytest.importorskip("sympy")
    from sympy.polys.matrices import DomainMatrix

    domain, convert = sympy_domain(field)
    rng = random.Random(f"charpoly-{field.describe()}")
    for A in _charpoly_cases(field, rng):
        p = charpoly(A)
        assert p == naive_charpoly(A)
        entries = [[convert(a) for a in row] for row in A.entries]
        expected = DomainMatrix(entries, (A.rows, A.cols), domain).charpoly()
        assert [convert(a) for a in reversed(p.coeffs)] == expected


def test_charpoly_of_dense_32x32_over_q_runs_in_polynomial_time():
    # Bareiss over Q[x] took about 39 s of process time on a 2-vCPU VM
    rng = random.Random(32)
    A = Matrix.from_ints(QQ, [[rng.randint(-9, 9) for _ in range(32)] for _ in range(32)])
    start = time.process_time()
    p = charpoly(A)
    assert time.process_time() - start < 10
    assert p.degree == 32 and p.is_monic
    assert p.coefficient(31) == -sum((A.entries[i][i] for i in range(32)), QQ.zero())
    # p(t) = det(t*I - A) at two points, by Bareiss on constant polynomials
    for t in (QQ.zero(), QQ.from_int(3)):
        T = Matrix.identity(QQ, 32).scale(t) - A
        det = PolyMatrix(QQ, ((Poly.constant(e) for e in row) for row in T.entries)).determinant()
        assert det == Poly.constant(p.eval(t))


@pytest.mark.parametrize("field, n", [(QQ, 40), (QI, 24)], ids=["q", "qi"])
def test_dense_charpoly_runs_in_polynomial_time(field, n):
    # entries in [-9, 9] over Q, fractions with denominators up to 9 in both
    # parts over Q(i); a Hessenberg similarity over boxed Fractions took
    # about 4.7 s and 10.5 s of process time on a 2-vCPU VM
    pytest.importorskip("sympy")
    from sympy.polys.matrices import DomainMatrix

    rng = random.Random(f"dense-charpoly-{field.describe()}")

    def entry():
        if field is QQ:
            return QQ.from_int(rng.randint(-9, 9))
        re, im = (Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(2))
        return QI.scalar((re, im))

    A = Matrix(field, [[entry() for _ in range(n)] for _ in range(n)])
    start = time.process_time()
    p = charpoly(A)
    assert time.process_time() - start < 1
    domain, convert = sympy_domain(field)
    entries = [[convert(a) for a in row] for row in A.entries]
    expected = DomainMatrix(entries, (n, n), domain).charpoly()
    assert [convert(a) for a in reversed(p.coeffs)] == expected


def test_determinism():
    rng = random.Random(56)
    P = rand_polymatrix(QQ, 4, 4, 2, rng)
    first = smith_normal_form(P)
    second = smith_normal_form(P)
    assert first.U == second.U and first.D == second.D and first.V == second.V
