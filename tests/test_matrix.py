import random
import subprocess
import sys
from fractions import Fraction
from math import lcm

import pytest

from ximod import (
    QI,
    QQ,
    ConstantPolynomial,
    Matrix,
    NoSolution,
    NotMonic,
    OperatorPairKind,
    Poly,
    PolyMatrix,
    PrimeField,
    Scalar,
    TagMismatch,
    companion_matrix,
    kernel_basis,
    kronecker,
    rank,
    relation_subspace,
    rref,
    solve_linear,
    sylvester_operator,
    unit_vector,
)
from ximod.matrix import Echelon, _Lifted
from ximod.poly import _box, lift
from oracles import (
    naive_charpoly,
    rand_big_scalar,
    rand_invertible,
    rand_matrix,
    rand_scalar,
    rand_vector,
    sympy_domain,
)

F5 = PrimeField(5)
ALL_FIELDS = [QQ, QI, F5]


def test_rref_identity_and_zero():
    I3 = Matrix.identity(QQ, 3)
    res = rref(I3)
    assert res.reduced == I3
    assert res.rank == 3
    assert res.pivot_columns == (0, 1, 2)

    Z = Matrix.zeros(QQ, 2, 3)
    res = rref(Z)
    assert res.rank == 0
    assert res.pivot_columns == ()


def test_rref_proportional_rows():
    M = Matrix.from_ints(QQ, [[1, 2], [2, 4]])
    assert rref(M).rank == 1


def _reduce(ech, v):
    """`Echelon.reduce_lifted` of the lift of the Scalars v."""
    return ech.reduce_lifted(*lift(ech.field, [a.value for a in v]))


def _sympy_converter(field):
    """Skip without sympy; else the map of a matrix over field to a DomainMatrix."""
    pytest.importorskip("sympy")
    from sympy.polys.matrices import DomainMatrix

    domain, convert = sympy_domain(field)

    def to_sympy(M):
        entries = [[convert(a) for a in row] for row in M.entries]
        return DomainMatrix(entries, (M.rows, M.cols), domain)

    return to_sympy


@pytest.mark.parametrize(
    "field", [QQ, QI, PrimeField(2), PrimeField(3), PrimeField(101)],
    ids=["q", "qi", "fp2", "fp3", "fp101"],
)
def test_rref_and_coset_map_match_sympy(field):
    to_sympy = _sympy_converter(field)
    rng = random.Random(f"rref-{field.describe()}")

    def sparse(rows, cols):  # about 40% zeros
        return Matrix(
            field,
            ((field.zero() if rng.random() < 0.4 else rand_scalar(field, rng) for _ in range(cols))
             for _ in range(rows)),
            (rows, cols),
        )

    for _ in range(4):
        repeated = sparse(3, 5).entries
        cases = [
            sparse(0, rng.randint(1, 4)),
            sparse(rng.randint(1, 4), 0),
            sparse(7, 4),  # tall
            sparse(3, 8),  # wide
            sparse(6, 2) @ sparse(2, 6),  # rank at most 2
            Matrix(field, repeated + repeated[::-1] + repeated[:1]),
        ]
        for M in cases:
            res = rref(M)
            reduced, pivots = to_sympy(M).rref()
            assert to_sympy(res.reduced) == reduced
            assert res.pivot_columns == tuple(pivots)
            assert res.rank == len(pivots)

    # the coset map: W.reduce(v) vanishes at every pivot and differs from v by
    # an element of W
    for _ in range(4):
        n, m = rng.randint(1, 3), rng.randint(1, 3)
        A = sparse(n, n)
        B = A if n == m and rng.random() < 0.5 else sparse(m, m)
        W = relation_subspace(OperatorPairKind(A, B), n, m)
        G = to_sympy(W.generator_matrix)
        for _ in range(3):
            v = rand_vector(field, n * m, rng)
            r = W.reduce(v)
            assert all(r[pivot].is_zero for pivot in W.pivots)
            d = to_sympy(Matrix(field, ((a - b,) for a, b in zip(v, r)), (n * m, 1)))
            assert G.hstack(d).rank() == G.rank()


@pytest.mark.parametrize("field", [QQ, QI], ids=["q", "qi"])
def test_rref_and_coset_map_are_exact_on_large_entries(field):
    # the integral rows divide exactly only when each update divides by the
    # right pivot value; 20-30 digit entries, negative and non-unit pivots,
    # rank deficiency and repeated rows leave that no slack
    to_sympy = _sympy_converter(field)
    rng = random.Random(f"rref-big-{field.describe()}")

    def big(rows, cols):
        return Matrix(field, ((rand_big_scalar(field, rng) for _ in range(cols))
                              for _ in range(rows)), (rows, cols))

    def small(rows, cols):  # Gaussian integers, 2+3i in the corner; -7 over Q
        def entry():
            if field is QI:
                return field.scalar((rng.randint(-4, 4), rng.randint(-4, 4)))
            return field.from_int(rng.randint(-9, 9))
        entries = [[entry() for _ in range(cols)] for _ in range(rows)]
        entries[0][0] = field.scalar((2, 3)) if field is QI else field.from_int(-7)
        return Matrix(field, entries)

    for _ in range(3):
        repeated = big(3, 6).entries
        scaled = tuple(rand_big_scalar(field, rng) * a for a in repeated[1])
        cases = [
            big(5, 7),
            big(8, 4),  # tall: full column rank
            big(6, 2) @ big(2, 7),  # rank at most 2
            Matrix(field, repeated + (scaled,) + repeated[::-1]),
            small(5, 6),
            small(4, 3) @ small(3, 6),
        ]
        for M in cases:
            res = rref(M)
            reduced, pivots = to_sympy(M).rref()
            assert to_sympy(res.reduced) == reduced
            assert res.pivot_columns == tuple(pivots)
            # the coset map: v - sum_i v[p_i] R_i, R the reduced rows
            ech = Echelon(field)
            for row in M.entries:
                ech.push(_reduce(ech, row)[0])
            k = len(pivots)
            for v in (rand_vector(field, M.cols, rng), [rand_big_scalar(field, rng)
                                                       for _ in range(M.cols)]):
                w, den = _reduce(ech, v)
                r = Matrix(field, [[Scalar(field, a) for a in _box(field, w, den)]])
                # a lift scaled by c reduces as the fresh lift does
                u, L = lift(field, [a.value for a in v])
                c = rng.randint(2, 10**6)
                scaled = [(a * c, b * c) for a, b in u] if field is QI else [a * c for a in u]
                assert ech.reduce_lifted(scaled, L * c) == _reduce(ech, v)
                expected = to_sympy(Matrix(field, [v]))
                if k:
                    coeffs = to_sympy(Matrix(field, [[v[q] for q in pivots]]))
                    expected = expected - coeffs.matmul(reduced.extract(range(k), range(M.cols)))
                assert to_sympy(r) == expected


def test_lift_clears_denominators_by_their_lcm():
    F = Fraction
    assert lift(QQ, [F(1, 2), F(-3, 4), F(5), F(0)]) == ([2, -3, 20, 0], 4)
    # the only denominator is in an imaginary part
    assert lift(QI, [(F(3), F(1, 6)), (F(2), F(0))]) == ([(18, 1), (12, 0)], 6)
    assert lift(QI, [(F(1, 4), F(-5, 6))]) == ([(3, -10)], 12)
    assert lift(PrimeField(7), [3, 0, 6]) == ([3, 0, 6], 1)
    for field in (QQ, QI, PrimeField(7)):
        assert lift(field, []) == ([], 1)
    rng = random.Random("lift")
    for field in (QQ, QI):
        values = [rand_big_scalar(field, rng).value for _ in range(6)]
        u, L = lift(field, values)
        if field is QI:
            values, u = [x for pair in values for x in pair], [a for pair in u for a in pair]
        assert L == lcm(*(x.denominator for x in values))
        assert [F(a, L) for a in u] == values


@pytest.mark.parametrize(
    "field", [QQ, QI, PrimeField(2), PrimeField(3), PrimeField(101)],
    ids=["q", "qi", "fp2", "fp3", "fp101"],
)
def test_echelon_push_of_a_zero_vector_adds_no_pivot(field):
    rng = random.Random(f"zero-push-{field.describe()}")
    ech = Echelon(field)
    zero = [field.zero()] * 4
    w, _ = _reduce(ech, zero)
    assert ech.leading(w) is None
    ech.push(w)
    assert (ech.pivots, ech.rows) == ([], [])
    v = rand_vector(field, 4, rng, nonzero=True)
    ech.push(_reduce(ech, v)[0])
    state = ([*ech.pivots], repr(ech.rows), ech.D)
    c = rand_scalar(field, rng, nonzero=True)
    for u in (zero, v, [c * a for a in v]):  # all reduce to zero
        w, _ = _reduce(ech, u)
        assert ech.leading(w) is None
        ech.push(w)
        assert ([*ech.pivots], repr(ech.rows), ech.D) == state


@pytest.mark.parametrize(
    "field", [QQ, QI, PrimeField(2), PrimeField(101)], ids=["q", "qi", "fp2", "fp101"]
)
def test_echelon_basis_is_d_times_the_reduced_rows_and_its_kernel_is_annihilated(field):
    to_sympy = _sympy_converter(field)
    _, convert = sympy_domain(field)
    rng = random.Random(f"basis-kernel-{field.describe()}")
    ring = _Lifted(field)
    for rows, cols, r in [(3, 5, 3), (5, 4, 2), (4, 6, 1), (6, 6, 4), (2, 7, 2), (4, 4, 4)]:
        for M in (rand_matrix(field, rows, r, rng) @ rand_matrix(field, r, cols, rng),
                  Matrix.zeros(field, rows, cols)):
            lifts = [lift(field, row) for row in M.values]
            ech = Echelon(field)
            for u, L in lifts:
                ech.push(ech.reduce_lifted(u, L)[0])
            basis = ech.basis()
            reduced, pivots = to_sympy(M).rref()
            k = len(pivots)
            assert [q for q, _ in basis] == list(pivots)
            if k:
                rows_over_k = Matrix(field, [[Scalar(field, a) for a in _box(field, row, 1)]
                                             for _, row in basis])
                D = convert(Scalar(field, _box(field, [ech.D], 1)[0]))
                assert to_sympy(rows_over_k) == reduced.extract(range(k), range(cols)).scalarmul(D)
            kernel = list(ech.kernel(cols))
            free = [f for f in range(cols) if f not in pivots]
            assert len(kernel) == len(free) == cols - k
            for f, x in zip(free, kernel):
                assert len(x) == cols and x[f] == ech.D
                assert all(x[g] == ring.zero for g in free if g != f)
                assert all(ring.dot(u, x) == ring.zero for u, _ in lifts)


@pytest.mark.parametrize(
    "field", [QQ, QI, PrimeField(2), PrimeField(101)], ids=["q", "qi", "fp2", "fp101"]
)
def test_echelon_vectors_are_lists_of_lifted_values(field):
    # the layout of `lift`: a list of (re, im) int pairs over Q(i), of ints otherwise
    def lifted_value(a):
        if field is QI:
            return type(a) is tuple and len(a) == 2 and all(type(x) is int for x in a)
        return type(a) is int

    def layout(v):
        return type(v) is list and all(map(lifted_value, v))

    rng = random.Random(f"layout-{field.describe()}")
    M = rand_matrix(field, 5, 2, rng) @ rand_matrix(field, 2, 6, rng)
    M = Matrix(field, [*M.entries, rand_vector(field, 6, rng)])
    ech, reduced = Echelon(field), []
    for row in M.values:
        w, _ = ech.reduce_lifted(*lift(field, row))
        reduced.append(w)
        ech.push(w)
    kernel = list(ech.kernel(M.cols))
    assert len(ech.rows) == 3 and len(kernel) == 3
    assert lifted_value(ech.D)
    assert all(map(layout, [*ech.rows, *reduced, *(r for _, r in ech.basis()), *kernel]))


@pytest.mark.parametrize(
    "field", [QQ, QI, PrimeField(2), PrimeField(101)], ids=["q", "qi", "fp2", "fp101"]
)
def test_lifted_powers_are_the_repeated_products_with_m_itself_second(field):
    rng = random.Random(f"powers-{field.describe()}")
    ring = _Lifted(field)
    products = []
    matmul = ring.matmul
    ring.matmul = lambda X, Y: products.append(1) or matmul(X, Y)
    for n in (1, 3):
        M, _ = ring.rows(rand_matrix(field, n, n, rng))
        B = Matrix(field, [[Scalar(field, a) for a in _box(field, row, 1)] for row in M])
        for k in range(5):
            products.clear()
            powers = ring.powers(M, k)
            assert len(products) == max(k - 1, 0)
            assert powers == [ring.rows(B ** j)[0] for j in range(k + 1)]
            assert k == 0 or powers[1] is M


def test_box_over_qi_divides_by_a_gaussian_denominator():
    # (a + bi) / (dr + di i) = (a + bi)(dr - di i) / (dr^2 + di^2)
    rng = random.Random("box-gaussian")
    dens = [(2, 0), (-3, 0), (0, 1), (0, -5)]
    dens += [(rng.randint(-30, 30), rng.randint(-30, 30)) for _ in range(40)]
    for dr, di in dens:
        if not (dr or di):
            continue
        u = [(rng.randint(-50, 50), rng.randint(-50, 50)) for _ in range(5)] + [(0, 0)]
        conj = [(a * dr + b * di, b * dr - a * di) for a, b in u]
        values = _box(QI, u, (dr, di))
        assert values == _box(QI, conj, dr * dr + di * di)
        d = QI.scalar((dr, di))
        assert [Scalar(QI, v) for v in values] == [QI.scalar(a) / d for a in u]
    assert _box(QI, [(3, 4), (0, 0)], (2, 0)) == _box(QI, [(3, 4), (0, 0)], 2)


def test_kernel_basis_cases():
    assert kernel_basis(Matrix.identity(QQ, 3)) == []
    z_kernel = kernel_basis(Matrix.zeros(QQ, 3, 3))
    assert len(z_kernel) == 3

    M = Matrix.from_ints(QQ, [[1, 1]])
    basis = kernel_basis(M)
    assert len(basis) == 1
    v = basis[0]
    # the kernel is the span of (1, -1)
    assert all(c.is_zero for c in M.matvec(v))
    assert v[0] == -v[1]


def test_kernel_rank_nullity():
    rng = random.Random(41)
    for field in ALL_FIELDS:
        for _ in range(10):
            M = rand_matrix(field, rng.randint(1, 4), rng.randint(1, 4), rng)
            basis = kernel_basis(M)
            assert len(basis) == M.cols - rank(M)
            for v in basis:
                assert all(c.is_zero for c in M.matvec(v))
            # independence: stack as columns and check the rank
            if basis:
                K = Matrix(field, ((v[i] for v in basis) for i in range(M.cols)))
                assert rank(K) == len(basis)


def test_solve_linear_cases():
    b = (QQ.from_int(3), QQ.from_int(-1))
    assert solve_linear(Matrix.identity(QQ, 2), b) == b
    with pytest.raises(NoSolution):
        solve_linear(Matrix.zeros(QQ, 2, 2), b)


def test_solve_linear_recovers_known_solution():
    rng = random.Random(42)
    for _ in range(10):
        M = rand_invertible(QQ, 3, rng)
        x0 = rand_vector(QQ, 3, rng)
        b = M.matvec(x0)
        assert solve_linear(M, b) == x0


def test_kronecker_shapes_and_identity():
    A = rand_matrix(QQ, 2, 3, random.Random(43))
    B = rand_matrix(QQ, 4, 2, random.Random(44))
    K = kronecker(A, B)
    assert (K.rows, K.cols) == (8, 6)
    assert kronecker(Matrix.identity(QQ, 2), Matrix.identity(QQ, 2)) == Matrix.identity(QQ, 4)


def test_kronecker_diagonal():
    a, b, c, d = (QQ.from_int(k) for k in (2, 3, 5, 7))
    K = kronecker(Matrix.diagonal(QQ, (a, b)), Matrix.diagonal(QQ, (c, d)))
    assert K == Matrix.diagonal(QQ, (a * c, a * d, b * c, b * d))


def test_kronecker_mixed_product_rule():
    rng = random.Random(45)
    for _ in range(10):
        A, B, C, D = (rand_matrix(QQ, 2, 2, rng) for _ in range(4))
        assert kronecker(A, B) @ kronecker(C, D) == kronecker(A @ C, B @ D)


def test_kronecker_is_bilinear():
    rng = random.Random(46)
    A, A2, B = (rand_matrix(QQ, 2, 2, rng) for _ in range(3))
    assert kronecker(A + A2, B) == kronecker(A, B) + kronecker(A2, B)
    assert kronecker(B, A + A2) == kronecker(B, A) + kronecker(B, A2)


# Q, Q(i), F_2 and F_101
FOUR_FIELDS = [QQ, QI, PrimeField(2), PrimeField(101)]
FOUR_IDS = ["q", "qi", "fp2", "fp101"]


def _vec(Y: Matrix) -> tuple:
    """The entries of Y row by row: entry (i, j) at i * Y.cols + j."""
    return tuple(c for row in Y.entries for c in row)


@pytest.mark.parametrize("field", FOUR_FIELDS, ids=FOUR_IDS)
def test_kronecker_acts_on_row_major_vec_as_a_y_b_transpose(field):
    # (A (x) B) vec(Y) = vec(A Y B^T) for rectangular A, B and Y
    rng = random.Random(f"kronecker-vec-{field.kind}")
    for a, b, c, d in [(2, 3, 4, 1), (3, 2, 2, 5), (1, 4, 3, 3), (3, 3, 2, 2)]:
        A, B = rand_matrix(field, a, b, rng), rand_matrix(field, c, d, rng)
        Y = rand_matrix(field, b, d, rng)
        K = kronecker(A, B)
        assert (K.rows, K.cols) == (a * c, b * d)
        assert K.matvec(_vec(Y)) == _vec(A @ Y @ B.transpose())


@pytest.mark.parametrize("field", FOUR_FIELDS, ids=FOUR_IDS)
def test_sylvester_operator_acts_on_row_major_vec_as_a_y_minus_y_b_transpose(field):
    rng = random.Random(f"sylvester-vec-{field.kind}")
    for n, m in [(1, 1), (2, 3), (3, 2), (4, 4)]:
        A, B = rand_matrix(field, n, n, rng), rand_matrix(field, m, m, rng)
        Y = rand_matrix(field, n, m, rng)
        assert sylvester_operator(A, B).matvec(_vec(Y)) == _vec(A @ Y - Y @ B.transpose())


@pytest.mark.parametrize("field", FOUR_FIELDS, ids=FOUR_IDS)
def test_matrix_power_is_the_repeated_product(field):
    rng = random.Random(f"matrix-power-{field.kind}")
    for n in (1, 2, 3):
        A = rand_matrix(field, n, n, rng)
        expected = Matrix.identity(field, n)
        for k in range(6):
            assert A**k == expected, k
            expected = expected @ A


def test_negative_matrix_power_is_refused():
    # in a child process under a timeout: a power loop that shifts a negative
    # exponent right stays at -1 and never returns
    code = (
        "from ximod import Matrix, PrimeField\n"
        "try:\n"
        "    Matrix.from_ints(PrimeField(5), [[2]]) ** -1\n"
        "except ValueError as exc:\n"
        "    print(exc)\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, timeout=30)
    assert (proc.returncode, proc.stdout) == (0, b"negative matrix power\n"), proc.stderr


def test_kronecker_tag_mismatch():
    with pytest.raises(TagMismatch):
        kronecker(Matrix.identity(QQ, 2), Matrix.identity(F5, 2))


def test_sylvester_operator_cases():
    I2 = Matrix.identity(QQ, 2)
    assert sylvester_operator(I2, I2).is_zero

    alpha, beta = QQ.from_int(4), QQ.from_int(9)
    S = sylvester_operator(Matrix.diagonal(QQ, (alpha,)), Matrix.diagonal(QQ, (beta,)))
    assert S == Matrix.diagonal(QQ, (alpha - beta,))

    a, b, c, d = (QQ.from_int(k) for k in (1, 2, 3, 4))
    S = sylvester_operator(Matrix.diagonal(QQ, (a, b)), Matrix.diagonal(QQ, (c, d)))
    assert S == Matrix.diagonal(QQ, (a - c, a - d, b - c, b - d))


def test_sylvester_image_contains_rule_differences():
    # (A x) (x) y - x (x) (B y) must be a column combination of the operator
    rng = random.Random(47)
    from ximod import solve_linear as solve, tensor_coordinates

    for _ in range(5):
        A = rand_matrix(QQ, 2, 2, rng)
        B = rand_matrix(QQ, 2, 2, rng)
        x = rand_vector(QQ, 2, rng)
        y = rand_vector(QQ, 2, rng)
        lhs = tensor_coordinates(A.matvec(x), y)
        rhs = tensor_coordinates(x, B.matvec(y))
        diff = tuple(p - q for p, q in zip(lhs.coords, rhs.coords))
        S = sylvester_operator(A, B)
        solve(S, diff)  # must not raise


def test_companion_matrix():
    assert companion_matrix(Poly.from_ints(QQ, [-3, 1])) == Matrix.from_ints(QQ, [[3]])
    assert companion_matrix(Poly.from_ints(QQ, [1, 0, 1])) == Matrix.from_ints(
        QQ, [[0, -1], [1, 0]]
    )
    with pytest.raises(NotMonic):
        companion_matrix(Poly.from_ints(QQ, [1, 2]))
    with pytest.raises(ConstantPolynomial):
        companion_matrix(Poly.one(QQ))


def test_companion_charpoly_matches():
    rng = random.Random(48)
    from oracles import rand_poly

    for _ in range(5):
        p = rand_poly(QQ, 3, rng, monic=True, min_degree=3)
        C = companion_matrix(p)
        assert naive_charpoly(C) == p


def test_unit_vector():
    e1 = unit_vector(QQ, 3, 0)
    assert e1 == (QQ.one(), QQ.zero(), QQ.zero())


def test_scalar_and_polynomial_matrices_never_compare_equal():
    for rows, cols in [(0, 0), (0, 2), (2, 2)]:
        M, P = Matrix.zeros(QQ, rows, cols), PolyMatrix.zeros(QQ, rows, cols)
        assert M != P and P != M
        assert {M} & {P} == set()
        assert len({M, P}) == 2


def test_the_checked_edges_refuse_entries_of_another_field():
    # a matrix stores raw values; only its edges see the Scalars' field tags
    from ximod import TensorElement

    F7 = PrimeField(7)
    edges = [
        lambda: Matrix(QQ, [[1]]),  # a bare int is not a Scalar
        lambda: Matrix(QQ, [[F5.one()]]),
        lambda: Matrix.diagonal(QQ, [F5.one()]),
        lambda: PolyMatrix(QQ, [[QQ.one()]]),
        lambda: PolyMatrix(QQ, [[Poly.one(F5)]]),
        lambda: PolyMatrix.diagonal(QQ, [Poly.one(F5)]),
        lambda: Matrix.identity(QQ, 2).matvec((QQ.one(), F5.one())),
        lambda: Matrix.identity(QQ, 2).scale(F5.one()),
        lambda: PolyMatrix.identity(QQ, 2).evaluate(F5.one()),
        lambda: solve_linear(Matrix.identity(QQ, 1), (F5.one(),)),
        lambda: TensorElement(QQ, 2, 2, tuple(F5.from_int(k) for k in range(4))),
    ]
    for edge in edges:
        with pytest.raises(TagMismatch):
            edge()
    # equal raw grids over different fields stay apart
    grids = [Matrix.from_ints(field, [[1, 2], [3, 4]]) for field in (QQ, F5, F7)]
    assert len({str(M) for M in grids}) == 1
    assert all(M != N for i, M in enumerate(grids) for N in grids[i + 1:])
    assert len(set(grids)) == 3
    assert len({Matrix.identity(QQ, 1), Matrix.identity(F5, 1), Matrix.identity(F7, 1)}) == 3


def test_a_matrix_keeps_its_lift_and_hands_out_fresh_rows():
    A = Matrix(QQ, [[QQ.scalar(Fraction(1, 2)), QQ.from_int(3)], [QQ.from_int(-1), QQ.zero()]])
    ring = _Lifted(QQ)
    first = ring.rows(A)
    assert first == ([[1, 6], [-2, 0]], 2) and A.lifted == ([1, 6, -2, 0], 2)
    second = ring.rows(A)
    assert second == first and second[0] is not first[0]
    assert all(r is not s for r, s in zip(first[0], second[0]))
    first[0][0][0] = 99
    first[0].append([0, 0])
    assert ring.rows(A) == ([[1, 6], [-2, 0]], 2)


def test_derived_matrices_start_without_a_lift():
    A = Matrix.from_ints(QI, [[1, 2], [3, 4]])
    _Lifted(QI).rows(A)
    derived = (A @ A, A.transpose(), A + A, Matrix._make(QI, A.values, (2, 2)),
               Matrix._checked(QI, A.values))
    assert all(not hasattr(M, "lifted") for M in derived)
    assert _Lifted(QI).rows(A @ A) == ([[(7, 0), (10, 0)], [(15, 0), (22, 0)]], 1)
