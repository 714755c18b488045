import random
import time
from fractions import Fraction
from itertools import product

import pytest

from ximod import (
    QI,
    QQ,
    BranchingKind,
    DimensionMismatch,
    Matrix,
    OperatorPairKind,
    Poly,
    PrimeField,
    StandardKind,
    SubringKind,
    TagMismatch,
    TensorElement,
    WrongKind,
    apply_left,
    apply_right,
    companion_matrix,
    induced_operator,
    induced_surjection,
    poly_eval_operator,
    project_to_quotient,
    quotient_dim,
    rank,
    relation_subspace,
    scalar_branching_report,
    schmidt_rank,
    simplification_report,
    solve_linear,
    sylvester_operator,
    tensor_coordinates,
)
from ximod.matrix import lift
from oracles import (
    rand_invertible,
    rand_matrix,
    rand_poly,
    rand_scalar,
    rand_vector,
    sympy_domain,
)

F5 = PrimeField(5)


def ints(field, values):
    return tuple(field.from_int(v) for v in values)


# -- coordinates ---------------------------------------------------------------

def test_tensor_coordinates_unit():
    t = tensor_coordinates(ints(QQ, (1, 0)), ints(QQ, (1, 0)))
    assert t.coords == ints(QQ, (1, 0, 0, 0))


def test_tensor_coordinates_expansion():
    t = tensor_coordinates(ints(QQ, (1, 2)), ints(QQ, (3, 4)))
    assert t.coords == ints(QQ, (3, 4, 6, 8))


def test_tensor_element_refuses_coordinates_of_another_field():
    with pytest.raises(TagMismatch):
        TensorElement(QQ, 1, 2, (F5.one(), F5.zero()))
    # an equal field built apart is the same field
    t = TensorElement(PrimeField(5), 1, 2, (F5.one(), F5.zero()))
    assert not t.is_zero and t.field == F5


def test_scalar_moves_across_factors():
    rng = random.Random(71)
    c = rand_scalar(QQ, rng)
    x = rand_vector(QQ, 3, rng)
    y = rand_vector(QQ, 2, rng)
    left = tensor_coordinates(tuple(c * e for e in x), y)
    right = tensor_coordinates(x, tuple(c * e for e in y))
    assert left.coords == right.coords


# -- relation subspaces ----------------------------------------------------------

def test_kind_operators():
    A = Matrix.from_ints(QQ, [[1, 2], [0, 3]])
    B = Matrix.from_ints(QQ, [[2, 0, 1], [1, 1, 0], [0, 0, 4]])
    p = Poly.from_ints(QQ, [1, 0, 1])
    q = Poly.from_ints(QQ, [0, 2])
    I2, I3 = Matrix.identity(QQ, 2), Matrix.identity(QQ, 3)
    assert StandardKind(QQ).operators(2, 3) == (I2, I3)
    assert OperatorPairKind(A, B).operators(2, 3) == (A, B)
    assert SubringKind(A, B, p).operators(2, 3) == (
        poly_eval_operator(p, A),
        poly_eval_operator(p, B),
    )
    assert BranchingKind(A, B, p, q).operators(2, 3) == (
        poly_eval_operator(p, A),
        poly_eval_operator(q, B),
    )


def test_standard_subspace_is_trivial():
    W = relation_subspace(StandardKind(QQ), 2, 2)
    assert W.rank == 0
    assert quotient_dim(W) == 4
    t = TensorElement(QQ, 2, 2, ints(QQ, (1, 2, 3, 4)))
    assert project_to_quotient(t, W).canonical == t.coords


def test_identity_pair_collapses_to_standard():
    I2 = Matrix.identity(QQ, 2)
    W = relation_subspace(OperatorPairKind(I2, I2), 2, 2)
    assert W.rank == 0
    assert quotient_dim(W) == 4


def test_diagonal_pair_rank():
    A = Matrix.diagonal(QQ, ints(QQ, (1, 2)))
    B = Matrix.diagonal(QQ, ints(QQ, (1, 3)))
    W = relation_subspace(OperatorPairKind(A, B), 2, 2)
    # sylvester spectrum 0, -2, 1, -1: one zero, so rank 3
    assert W.rank == 3
    assert quotient_dim(W) == 1


def test_quotient_dim_exhaustive_diagonal_table():
    for a, b, c, d in product(range(3), repeat=4):
        A = Matrix.diagonal(QQ, ints(QQ, (a, b)))
        B = Matrix.diagonal(QQ, ints(QQ, (c, d)))
        W = relation_subspace(OperatorPairKind(A, B), 2, 2)
        # independent: count kernel vectors of the explicit diagonal matrix
        diag = [a - c, a - d, b - c, b - d]
        expected = sum(1 for e in diag if e == 0)
        assert quotient_dim(W) == expected


def test_relation_subspace_dimension_check():
    A = Matrix.identity(QQ, 2)
    B = Matrix.identity(QQ, 3)
    with pytest.raises(DimensionMismatch):
        relation_subspace(OperatorPairKind(A, B), 2, 2)


def test_reduce_and_contains_refuse_a_wrong_coordinate_count():
    D = Matrix.diagonal(QQ, ints(QQ, (1, 2)))
    W = relation_subspace(OperatorPairKind(D, D), 2, 2)
    for k in (2, 6):
        v = ints(QQ, range(k))
        with pytest.raises(DimensionMismatch):
            W.contains(v)
        with pytest.raises(DimensionMismatch):
            W.reduce(v)


# -- containment of an image ---------------------------------------------------------

def _contains_every_sylvester_column(W, M, N):
    S = sylvester_operator(M, N)
    return all(W.contains(S.column(j)) for j in range(S.cols))


def _pair_with_a_common_block(field, n, m, rng):
    """Conjugates of block diagonal A and B that share a random block of
    size min(n, m), so that W^perp of (A, B) is not zero."""
    k = min(n, m)
    C = rand_matrix(field, k, k, rng)

    def extend(size):
        blocks = [C] + [rand_matrix(field, size - k, size - k, rng)] * (size > k)
        return _conjugate(rand_invertible(field, size, rng), _block_diagonal(field, *blocks))

    return extend(n), extend(m)


@pytest.mark.parametrize(
    "field", [QQ, QI, PrimeField(2), PrimeField(101)], ids=["q", "qi", "fp2", "fp101"]
)
def test_contains_image_agrees_with_the_sylvester_columns(field):
    # W contains im(M (x) I - I (x) N) exactly when it contains every column
    # of the Sylvester operator
    rng = random.Random(f"contains-image-{field.describe()}")
    outcomes = set()
    for n, m in product(range(1, 5), repeat=2):
        A, B = _pair_with_a_common_block(field, n, m, rng)
        subring = SubringKind(A, B, rand_poly(field, 2, rng, min_degree=1))
        c = rand_scalar(field, rng)
        opair = relation_subspace(OperatorPairKind(A, B), n, m)
        assert quotient_dim(opair) >= min(n, m)
        standard = relation_subspace(StandardKind(field), n, m)
        unrelated = rand_matrix(field, n, n, rng), rand_matrix(field, m, m, rng)
        scalars = Matrix.identity(field, n).scale(c), Matrix.identity(field, m).scale(c)
        cases = [
            (opair, (A, B), True),  # the kind's own pair
            (opair, subring.operators(n, m), True),  # p(A) (x) I - I (x) p(B) moves p
            (opair, unrelated, None),
            (standard, (A, B), None),
            (standard, scalars, True),  # W = 0 holds only the image of a scalar pair
            (standard, unrelated, None),
        ]
        for W, (M, N), known in cases:
            got = W.contains_image(M, N)
            assert got == _contains_every_sylvester_column(W, M, N), (n, m, M, N)
            assert known in (None, got)
            outcomes.add(got)
    assert outcomes == {True, False}


def test_contains_image_rejects_a_wrong_shape_or_field():
    A, B = Matrix.from_ints(QQ, [[1, 1], [0, 1]]), Matrix.from_ints(QQ, [[2]])
    W = relation_subspace(OperatorPairKind(A, B), 2, 1)
    assert W.contains_image(A, B)
    for M, N in ((B, A), (A, Matrix.identity(QQ, 2)), (Matrix.zeros(QQ, 2, 1), B)):
        with pytest.raises(DimensionMismatch):
            W.contains_image(M, N)
    A5, B5 = Matrix.from_ints(F5, [[1, 1], [0, 1]]), Matrix.from_ints(F5, [[2]])
    for M, N in ((A5, B5), (A, B5), (A5, B)):
        with pytest.raises(TagMismatch):
            W.contains_image(M, N)


# -- projection -------------------------------------------------------------------

def test_projection_kills_exactly_the_subspace():
    rng = random.Random(72)
    for _ in range(8):
        A = rand_matrix(QQ, 2, 2, rng)
        B = rand_matrix(QQ, 2, 2, rng)
        W = relation_subspace(OperatorPairKind(A, B), 2, 2)
        # every generator column projects to zero
        for j in range(W.generator_matrix.cols):
            col = W.generator_matrix.column(j)
            t = TensorElement(QQ, 2, 2, col)
            assert project_to_quotient(t, W).is_zero
        # canonical basis vectors project to nonzero classes
        for j in W.canonical_indices:
            coords = [QQ.zero()] * 4
            coords[j] = QQ.one()
            t = TensorElement(QQ, 2, 2, tuple(coords))
            assert not project_to_quotient(t, W).is_zero


@pytest.mark.parametrize("field", [QQ, QI, F5], ids=["q", "qi", "fp5"])
def test_readers_leave_the_relation_basis_unchanged(field):
    # reduce, contains, the coset map and the projection only read the stored
    # form (I, P, X, D) of W^perp
    rng = random.Random(f"readers-{field.describe()}")
    for _ in range(3):
        A = rand_matrix(field, 3, 3, rng)
        W = relation_subspace(OperatorPairKind(A, A), 3, 3)  # quotient dim >= 3
        state = (W.canonical_indices, W.pivots, repr(W.X), W.D)
        for _ in range(3):
            v = rand_vector(field, 9, rng)
            W.reduce(v)
            W.contains(v)
            W.coset_coordinates([lift(field, [a.value for a in v])] * 2)
            project_to_quotient(TensorElement(field, 3, 3, v), W)
            induced_operator(W)
        assert (W.canonical_indices, W.pivots, repr(W.X), W.D) == state


def test_projection_refuses_another_field_as_the_other_readers_do():
    # a tensor over F_5 against W over Q: a field fault (TagMismatch) for
    # project_to_quotient as for contains and reduce, a wrong shape a
    # DimensionMismatch
    t = TensorElement(F5, 1, 1, (F5.one(),))
    A = Matrix.from_ints(QQ, [[2]])
    for W in (relation_subspace(StandardKind(QQ), 1, 1),
              relation_subspace(OperatorPairKind(A, A), 1, 1)):
        for read in (lambda: project_to_quotient(t, W), lambda: W.contains(t.coords),
                     lambda: W.reduce(t.coords)):
            with pytest.raises(TagMismatch):
                read()
        with pytest.raises(DimensionMismatch):
            project_to_quotient(TensorElement(QQ, 2, 2, (QQ.one(),) * 4), W)
        assert project_to_quotient(TensorElement(QQ, 1, 1, (QQ.one(),)), W).canonical == (QQ.one(),)


def _block_diagonal(field, *blocks):
    zero, size = field.zero(), sum(B.rows for B in blocks)
    rows, offset = [], 0
    for B in blocks:
        for row in B.entries:
            rows.append([zero] * offset + list(row) + [zero] * (size - offset - B.rows))
        offset += B.rows
    return Matrix(field, rows)


def _conjugate(S, A):
    """S A S^-1."""
    field, n = A.field, A.rows
    inverse_columns = [solve_linear(S, tuple(field.from_int(int(i == j)) for i in range(n)))
                       for j in range(n)]
    return S @ A @ Matrix(field, zip(*inverse_columns))


@pytest.mark.parametrize(
    "field", [QQ, QI, PrimeField(2), PrimeField(101)], ids=["q", "qi", "fp2", "fp101"]
)
def test_relation_subspace_matches_sympy_on_the_sylvester_matrix(field):
    # W is computed from its annihilator; sympy eliminates the Sylvester
    # columns themselves.  Its pivots on the coordinates (the rref of the
    # transpose) are W's pivots, and the rest are the canonical indices
    pytest.importorskip("sympy")
    from sympy.polys.matrices import DomainMatrix

    domain, convert = sympy_domain(field)

    def to_sympy(M):
        return DomainMatrix([[convert(a) for a in row] for row in M.entries], (M.rows, M.cols),
                            domain)

    rng = random.Random(f"sylvester-sympy-{field.describe()}")
    f, g, h = (companion_matrix(rand_poly(field, 2, rng, monic=True, min_degree=d))
               for d in (1, 2, 2))
    c = field.from_int(3)  # a nonzero scalar in every field here
    pairs = [  # (A, B, whether W = 0)
        (f, f, False),
        (_block_diagonal(field, f, g), _block_diagonal(field, f, h), False),  # shared factor f
        (_block_diagonal(field, g, g), _block_diagonal(field, g, g, f), False),  # 2 chains each
        (_block_diagonal(field, f, g), _block_diagonal(field, g, g, f), False),
    ]
    # the same, conjugated: the later chains' relations reach into the earlier ones
    for A, B, _ in pairs[1:]:
        S, T = rand_invertible(field, A.rows, rng), rand_invertible(field, B.rows, rng)
        pairs.append((_conjugate(S, A), _conjugate(T, B), False))
    for n in range(1, 6):
        m = rng.randint(1, 5)
        A = rand_matrix(field, n, n, rng)
        pairs += [
            (A, rand_matrix(field, m, m, rng), False),
            (A, A, False),
            (Matrix.identity(field, n).scale(c), Matrix.identity(field, m).scale(c), True),
            (Matrix.zeros(field, n, n), Matrix.zeros(field, m, m), True),
            (Matrix.zeros(field, n, n), rand_matrix(field, m, m, rng), False),
        ]
    for A, B, everything in pairs:
        n, m = A.rows, B.rows
        W = relation_subspace(OperatorPairKind(A, B), n, m)
        S = to_sympy(sylvester_operator(A, B))
        _, pivots = S.transpose().rref()
        assert W.pivots == tuple(pivots)
        assert W.canonical_indices == tuple(j for j in range(n * m) if j not in pivots)
        if everything:
            assert quotient_dim(W) == n * m
        for _ in range(2):
            v = rand_vector(field, n * m, rng)
            r = W.reduce(v)
            assert all(r[p].is_zero for p in W.pivots)
            d = to_sympy(Matrix(field, ((a - b,) for a, b in zip(v, r)), (n * m, 1)))
            assert S.hstack(d).rank() == S.rank()


def test_projection_is_linear():
    rng = random.Random(73)
    A = rand_matrix(QQ, 2, 2, rng)
    B = rand_matrix(QQ, 2, 2, rng)
    W = relation_subspace(OperatorPairKind(A, B), 2, 2)
    for _ in range(10):
        s = TensorElement(QQ, 2, 2, rand_vector(QQ, 4, rng))
        t = TensorElement(QQ, 2, 2, rand_vector(QQ, 4, rng))
        c = rand_scalar(QQ, rng)
        lhs = project_to_quotient(s + t.scale(c), W).canonical
        ps = project_to_quotient(s, W).canonical
        pt = project_to_quotient(t, W).canonical
        assert lhs == tuple(a + c * b for a, b in zip(ps, pt))


def test_projection_respects_pair_moves():
    rng = random.Random(74)
    for _ in range(10):
        a, b, c, d = (rand_scalar(QQ, rng) for _ in range(4))
        A = Matrix.diagonal(QQ, (a, b))
        B = Matrix.diagonal(QQ, (c, d))
        W = relation_subspace(OperatorPairKind(A, B), 2, 2)
        pi = rand_poly(QQ, 3, rng)
        x = rand_vector(QQ, 2, rng)
        y = rand_vector(QQ, 2, rng)
        left = tensor_coordinates(poly_eval_operator(pi, A).matvec(x), y)
        right = tensor_coordinates(x, poly_eval_operator(pi, B).matvec(y))
        assert project_to_quotient(left, W).canonical == project_to_quotient(right, W).canonical


# -- induced operator -------------------------------------------------------------

def test_induced_operator_identity_pair():
    I2 = Matrix.identity(QQ, 2)
    W = relation_subspace(OperatorPairKind(I2, I2), 2, 2)
    assert induced_operator(W) == Matrix.identity(QQ, 4)


def test_induced_operator_matched_eigenvalue():
    A = Matrix.diagonal(QQ, ints(QQ, (1, 2)))
    B = Matrix.diagonal(QQ, ints(QQ, (1, 3)))
    W = relation_subspace(OperatorPairKind(A, B), 2, 2)
    assert quotient_dim(W) == 1
    assert induced_operator(W) == Matrix.from_ints(QQ, [[1]])


def test_induced_operator_left_right_agree():
    rng = random.Random(75)
    for n, m in [(2, 2), (3, 3), (2, 3)]:
        A = rand_matrix(QQ, n, n, rng)
        B = rand_matrix(QQ, m, m, rng)
        W = relation_subspace(OperatorPairKind(A, B), n, m)
        for _ in range(5):
            t = TensorElement(QQ, n, m, rand_vector(QQ, n * m, rng))
            left = project_to_quotient(apply_left(A, t), W)
            right = project_to_quotient(apply_right(B, t), W)
            assert left.canonical == right.canonical


def test_induced_commutes_with_projection():
    rng = random.Random(76)
    for n, m in [(2, 2), (3, 3)]:
        A = rand_matrix(QQ, n, n, rng)
        B = rand_matrix(QQ, m, m, rng)
        W = relation_subspace(OperatorPairKind(A, B), n, m)
        induced = induced_operator(W)
        for _ in range(5):
            t = TensorElement(QQ, n, m, rand_vector(QQ, n * m, rng))
            via_quotient = induced.matvec(project_to_quotient(t, W).canonical)
            via_space = project_to_quotient(apply_left(A, t), W).canonical
            assert via_quotient == via_space


def test_induced_operator_wrong_kind():
    W = relation_subspace(StandardKind(QQ), 2, 2)
    with pytest.raises(WrongKind):
        induced_operator(W)


# -- subring comparison ------------------------------------------------------------

def test_subring_relations_inside_operator_relations():
    rng = random.Random(77)
    for _ in range(10):
        A = rand_matrix(QQ, 2, 2, rng)
        B = rand_matrix(QQ, 2, 2, rng)
        p = rand_poly(QQ, 2, rng, min_degree=1)
        sub = relation_subspace(SubringKind(A, B, p), 2, 2)
        full = relation_subspace(OperatorPairKind(A, B), 2, 2)
        for j in range(sub.generator_matrix.cols):
            assert full.contains(sub.generator_matrix.column(j))
        surj = induced_surjection(sub, full)
        assert surj.rows == quotient_dim(full)
        assert surj.cols == quotient_dim(sub)
        assert quotient_dim(sub) >= quotient_dim(full)
        assert rank(surj) == quotient_dim(full)


def test_subring_surjection_factors_projection():
    rng = random.Random(78)
    A = rand_matrix(QQ, 2, 2, rng)
    B = rand_matrix(QQ, 2, 2, rng)
    p = Poly.from_ints(QQ, [0, 0, 1])  # move only squares
    sub = relation_subspace(SubringKind(A, B, p), 2, 2)
    full = relation_subspace(OperatorPairKind(A, B), 2, 2)
    surj = induced_surjection(sub, full)
    for _ in range(10):
        t = TensorElement(QQ, 2, 2, rand_vector(QQ, 4, rng))
        through_sub = surj.matvec(project_to_quotient(t, sub).canonical)
        direct = project_to_quotient(t, full).canonical
        assert through_sub == direct


def test_induced_surjection_requires_containment():
    A = Matrix.diagonal(QQ, ints(QQ, (1, 2)))
    B = Matrix.diagonal(QQ, ints(QQ, (3, 4)))
    big = relation_subspace(OperatorPairKind(A, B), 2, 2)
    trivial = relation_subspace(StandardKind(QQ), 2, 2)
    with pytest.raises(DimensionMismatch):
        induced_surjection(big, trivial)


# -- schmidt rank -------------------------------------------------------------------

def test_schmidt_rank_simple_and_bell():
    rng = random.Random(79)
    for _ in range(10):
        x = rand_vector(QQ, 2, rng, nonzero=True)
        y = rand_vector(QQ, 3, rng, nonzero=True)
        assert schmidt_rank(tensor_coordinates(x, y)) == 1
    bell = TensorElement(QQ, 2, 2, ints(QQ, (1, 0, 0, 1)))
    assert schmidt_rank(bell) == 2
    assert schmidt_rank(TensorElement.zero(QQ, 2, 2)) == 0


def test_schmidt_rank_local_invariance():
    rng = random.Random(80)
    for _ in range(10):
        t = TensorElement(QQ, 2, 2, rand_vector(QQ, 4, rng))
        P = rand_invertible(QQ, 2, rng)
        Q = rand_invertible(QQ, 2, rng)
        moved = P @ t.reshape() @ Q
        transformed = TensorElement(QQ, 2, 2, tuple(e for row in moved.entries for e in row))
        assert schmidt_rank(transformed) == schmidt_rank(t)


# -- simplification report -----------------------------------------------------------

def test_simplification_report_random_instances():
    rng = random.Random(81)
    for _ in range(20):
        a, b, c, d = (rand_scalar(QQ, rng) for _ in range(4))
        u, v, w, z = (rand_scalar(QQ, rng) for _ in range(4))
        pi = rand_poly(QQ, 3, rng)
        rep = simplification_report(a, b, c, d, pi, u, v, w, z)
        assert rep.difference_in_relations
        assert rep.classes_equal


def test_simplification_report_trivial_cases():
    one = QQ.one()
    c = QQ.from_int(3)
    # constant coefficient: both sides coincide as plain tensors
    rep = simplification_report(
        QQ.from_int(2), QQ.from_int(2), c, c, Poly.from_ints(QQ, [5]),
        one, one, one, one,
    )
    assert rep.standard_equal

    # zero polynomial: both sides are the zero tensor, class is zero
    rep = simplification_report(
        QQ.from_int(2), QQ.from_int(3), c, QQ.from_int(7), Poly.zero(QQ),
        one, one, one, one,
    )
    assert rep.left_tensor.is_zero and rep.right_tensor.is_zero
    assert all(e.is_zero for e in rep.common_class)


def test_simplification_generic_sides_differ_as_plain_tensors():
    rep = simplification_report(
        QQ.from_int(2), QQ.from_int(3), QQ.from_int(4), QQ.from_int(5),
        Poly.x(QQ),
        QQ.one(), QQ.one(), QQ.one(), QQ.one(),
    )
    assert not rep.standard_equal
    assert rep.difference_in_relations


# -- scalar branching -----------------------------------------------------------------

def test_scalar_branching_dimensions():
    assert scalar_branching_report(QQ.from_int(1)).quotient_dim == 1
    for a in (QQ.from_int(0), QQ.from_int(2), QQ.from_int(-1), QQ.scalar(Fraction(1, 2))):
        rep = scalar_branching_report(a)
        assert rep.quotient_dim == 0
        assert rep.literal_span_agrees


def test_scalar_branching_caveat_flag():
    assert scalar_branching_report(QQ.from_int(2)).homomorphism_caveat is not None
    assert scalar_branching_report(QQ.from_int(1)).homomorphism_caveat is None
    assert scalar_branching_report(QQ.from_int(0)).homomorphism_caveat is None


# -- functoriality at the subspace level ----------------------------------------------

def test_standard_kernel_contained_everywhere():
    # the standard product has kernel {0}, so factoring through any other
    # product is automatic; spot-check the containment degenerately
    rng = random.Random(82)
    std = relation_subspace(StandardKind(QQ), 2, 2)
    A = rand_matrix(QQ, 2, 2, rng)
    B = rand_matrix(QQ, 2, 2, rng)
    opair = relation_subspace(OperatorPairKind(A, B), 2, 2)
    surj = induced_surjection(std, opair)
    assert rank(surj) == quotient_dim(opair)


def test_opair_relation_subspace_runs_in_polynomial_time():
    # the 100x100 Sylvester matrix of a companion matrix with itself, rank 90
    f = rand_poly(QQ, 10, random.Random(71), monic=True, min_degree=10)
    A = companion_matrix(f)
    start = time.process_time()
    W = relation_subspace(OperatorPairKind(A, A), 10, 10)
    assert time.process_time() - start < 1
    assert quotient_dim(W) == 10


@pytest.mark.parametrize(
    "field, n, bound", [(QQ, 10, 1.5), (QI, 8, 0.75)], ids=["q", "qi"]
)
def test_dense_opair_relation_subspace_runs_in_polynomial_time(field, n, bound):
    # boxed Gauss-Jordan on the dense n^2 x n^2 Sylvester matrix took about
    # 4 s in both cases (Fraction gcds on every entry); the fraction-free
    # elimination on integral rows takes a small fraction of the bound
    rng = random.Random(f"dense-opair-{field.kind}")

    def dense():
        return Matrix(field, [
            [field.scalar((rng.randint(-9, 9), rng.randint(-9, 9)) if field is QI
                          else rng.randint(-9, 9)) for _ in range(n)]
            for _ in range(n)
        ])

    kind = OperatorPairKind(dense(), dense())
    start = time.process_time()
    W = relation_subspace(kind, n, n)
    induced = induced_operator(W)
    assert time.process_time() - start < bound
    assert induced.rows == quotient_dim(W)
