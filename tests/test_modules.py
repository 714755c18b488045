import random
import time
from fractions import Fraction

import pytest

from ximod import (
    QI,
    QQ,
    FactorizationIncomplete,
    InconsistentAction,
    Matrix,
    ModuleDecomposition,
    OperatorModule,
    Poly,
    PolyMatrix,
    PresentedModule,
    PrimeField,
    Scalar,
    ZeroVector,
    charpoly,
    companion_matrix,
    cyclic_witness,
    decompose_operator_module,
    decompose_presented_module,
    minimal_generator_count,
    module_action,
    operator_from_action,
    poly_eval_operator,
    primary_decomposition,
    recombine_invariant_factors,
    smith_normal_form,
    solve_linear,
    torsion_info,
    unit_vector,
)
from oracles import (
    krylov_minimal_polynomial,
    naive_invariant_factors,
    rand_big_scalar,
    rand_invertible,
    rand_matrix,
    rand_poly,
    rand_scalar,
    rand_vector,
)

F3 = PrimeField(3)
F5 = PrimeField(5)
ALL_FIELDS = [QQ, QI, F5]


def _product(field, polys):
    out = Poly.one(field)
    for p in polys:
        out = out * p
    return out


# -- actions -------------------------------------------------------------------

def test_module_action_constant_recovers_scaling():
    A = Matrix.from_ints(QQ, [[0, 1], [1, 0]])
    module = OperatorModule(QQ, 2, A)
    x = (QQ.from_int(3), QQ.from_int(5))
    c = Poly.from_ints(QQ, [7])
    assert module_action(module, c, x) == (QQ.from_int(21), QQ.from_int(35))


def test_module_action_variable_applies_operator():
    A = Matrix.from_ints(QQ, [[1, 2], [3, 4]])
    module = OperatorModule(QQ, 2, A)
    x = (QQ.one(), QQ.one())
    assert module_action(module, Poly.x(QQ), x) == A.matvec(x)


def test_module_action_diagonal_componentwise():
    a, b = QQ.from_int(2), QQ.from_int(5)
    A = Matrix.diagonal(QQ, (a, b))
    module = OperatorModule(QQ, 2, A)
    pi = Poly.from_ints(QQ, [1, 1, 1])
    u, v = QQ.from_int(3), QQ.from_int(-2)
    got = module_action(module, pi, (u, v))
    assert got == (u * pi.eval(a), v * pi.eval(b))


def test_operator_from_action_round_trip():
    rng = random.Random(61)
    for field in ALL_FIELDS:
        for _ in range(10):
            dim = rng.randint(2, 4)
            A = rand_matrix(field, dim, dim, rng)
            module = OperatorModule(field, dim, A)

            def act(pi, x):
                return module_action(module, pi, x)

            assert operator_from_action(act, dim, field) == A


def test_operator_from_action_zero_action():
    def act(pi, x):
        c = pi.coefficient(0)
        return tuple(c * e for e in x)

    assert operator_from_action(act, 3, QQ) == Matrix.zeros(QQ, 3, 3)


def test_operator_from_action_rejects_non_action():
    # x acts as A but x^2 deliberately acts as zero: not a module action
    A = Matrix.from_ints(F3, [[1, 1, 0], [0, 1, 0], [2, 0, 1]])

    def bogus(pi, x):
        if pi.degree == 1:
            return A.matvec(x)
        return tuple(F3.zero() for _ in x)

    with pytest.raises(InconsistentAction):
        operator_from_action(bogus, 3, F3)


# -- decompositions --------------------------------------------------------------

def test_decompose_companion_is_cyclic():
    p = Poly.from_ints(QQ, [2, 0, 1, 1])
    C = companion_matrix(p)
    dec = decompose_operator_module(OperatorModule(QQ, 3, C))
    assert dec.free_rank == 0
    assert dec.invariant_factors == (p,)
    assert krylov_minimal_polynomial(C) == p


def test_decompose_identity():
    x_minus_1 = Poly.from_ints(QQ, [-1, 1])
    dec = decompose_operator_module(OperatorModule(QQ, 2, Matrix.identity(QQ, 2)))
    assert dec.invariant_factors == (x_minus_1, x_minus_1)


def test_decompose_zero_operator_dim1():
    dec = decompose_operator_module(OperatorModule(QQ, 1, Matrix.zeros(QQ, 1, 1)))
    assert dec.invariant_factors == (Poly.x(QQ),)


def test_invariant_factors_multiply_to_charpoly():
    rng = random.Random(62)
    for field in (QQ, F5):
        for _ in range(10):
            dim = rng.randint(2, 4)
            A = rand_matrix(field, dim, dim, rng)
            dec = decompose_operator_module(OperatorModule(field, dim, A))
            assert _product(field, dec.invariant_factors) == charpoly(A)
            last = dec.invariant_factors[-1]
            assert poly_eval_operator(last, A).is_zero
            assert last == krylov_minimal_polynomial(A)


def test_last_invariant_factor_is_minimal_annihilator():
    # dividing out any prime factor of the annihilator must break annihilation
    from ximod import factor_irreducible

    rng = random.Random(67)
    for _ in range(8):
        dim = rng.randint(2, 4)
        A = rand_matrix(F5, dim, dim, rng)
        dec = decompose_operator_module(OperatorModule(F5, dim, A))
        last = dec.invariant_factors[-1]
        for prime, _mult in factor_irreducible(last):
            reduced = last // prime
            assert not poly_eval_operator(reduced, A).is_zero


def test_similar_operators_same_decomposition():
    rng = random.Random(63)
    for field in (QQ, F5):
        for _ in range(8):
            dim = rng.randint(2, 4)
            A = rand_matrix(field, dim, dim, rng)
            P = rand_invertible(field, dim, rng)
            Pinv = _inverse(P)
            B = P @ A @ Pinv
            dec_a = decompose_operator_module(OperatorModule(field, dim, A))
            dec_b = decompose_operator_module(OperatorModule(field, dim, B))
            assert dec_a == dec_b


def _inverse(M):
    from ximod import solve_linear

    cols = []
    for j in range(M.rows):
        cols.append(solve_linear(M, unit_vector(M.field, M.rows, j)))
    return Matrix(M.field, ((cols[j][i] for j in range(M.rows)) for i in range(M.rows)))


# -- the Krylov route against the Smith form of x*I - A ----------------------------

F2 = PrimeField(2)
F101 = PrimeField(101)


def _block_diagonal(field, blocks):
    n = sum(B.rows for B in blocks)
    out = [[field.zero()] * n for _ in range(n)]
    k = 0
    for B in blocks:
        for i, row in enumerate(B.entries):
            out[k + i][k : k + B.rows] = row
        k += B.rows
    return Matrix(field, out)


def _composition(n, rng, most):
    parts = []
    while n:
        parts.append(rng.randint(1, min(n, most)))
        n -= parts[-1]
    return parts


def _conjugate(A, rng):
    S = rand_invertible(A.field, A.rows, rng)
    return S @ A @ _inverse(S)


def _chain_operator(field, degrees, rng):
    # companions of a_1 | a_2 | ...: each factor is the previous one times a
    # fresh monic piece, so the degrees must be nondecreasing
    factors, a = [], Poly.one(field)
    for d in degrees:
        a = a * rand_poly(field, d - a.degree, rng, monic=True, min_degree=d - a.degree)
        factors.append(a)
    return _block_diagonal(field, [companion_matrix(f) for f in factors])


def _operator_classes(field, n, rng):
    """One operator of each class, keyed by class name."""
    zero, one, c = field.zero(), field.one(), rand_scalar(field, rng)
    k = rng.randint(2, 3) if n >= 4 else min(n, 2)
    heavy = n // 2 + 1
    # every block shares the linear factor p, so each is an invariant factor
    p = Poly(field, (-c, one))
    q = rand_poly(field, 2, rng, monic=True, min_degree=1)
    repeated, room = [], n
    while room:
        f = rng.choice([f for f in (p, p * p, p * q) if f.degree <= room])
        repeated.append(companion_matrix(f))
        room -= f.degree
    jordan = [
        Matrix(field, ((one if j == i + 1 else zero for j in range(m)) for i in range(m)))
        for m in _composition(n, rng, 3)
    ]
    diagonal = [rand_scalar(field, rng) for _ in range(2)]
    triangular = Matrix(field, (
        (rng.choice(diagonal) if i == j
         else rand_scalar(field, rng) if j > i and rng.random() < 0.5 else zero
         for j in range(n))
        for i in range(n)
    ))
    generic = companion_matrix(rand_poly(field, n, rng, monic=True, min_degree=n))
    derogatory = sorted(_composition(n, rng, max(1, n // k)))
    return {
        "generic": _conjugate(generic, rng),
        "derogatory": _conjugate(_chain_operator(field, derogatory, rng), rng),
        "scalar-heavy": _conjugate(
            _chain_operator(field, [1] * (heavy - 1) + [n - heavy + 1], rng), rng
        ),
        "zero": Matrix.zeros(field, n, n),
        "scalar": Matrix.identity(field, n).scale(c),
        "nilpotent": _block_diagonal(field, jordan),
        "repeated": _block_diagonal(field, repeated),
        "triangular": triangular,
    }


@pytest.mark.parametrize(
    "field", [QQ, QI, F2, F3, F101], ids=["q", "qi", "fp2", "fp3", "fp101"]
)
def test_krylov_route_matches_smith_form_of_characteristic_matrix(field):
    from ximod.modules import _krylov_presentation

    rng = random.Random(f"krylov-{field.describe()}")
    chains, coupled = {}, set()
    for n in range(1, 9):
        for name, A in _operator_classes(field, n, rng).items():
            P = _krylov_presentation(A).relations
            # upper triangular, monic diagonal, deg det = n
            assert all(P.entries[i][j].is_zero for j in range(P.cols) for i in range(j + 1, P.rows))
            assert all(d.is_monic for d in P.diagonal_entries())
            assert sum(d.degree for d in P.diagonal_entries()) == n
            oracle = smith_normal_form(PolyMatrix.characteristic_matrix(A))
            dec = decompose_operator_module(OperatorModule(field, n, A))
            assert dec.invariant_factors == tuple(oracle.nonconstant_diagonal()), (name, n)
            chains[name] = max(chains.get(name, 0), P.rows)
            if any(not P.entries[i][j].is_zero for j in range(P.cols) for i in range(j)):
                coupled.add(name)
    # k is at least the number of invariant factors: n for 0 and c*I, and
    # one per block (of size <= 3) for the nilpotent and repeated classes
    assert chains["zero"] == chains["scalar"] == 8
    assert min(chains["nilpotent"], chains["repeated"]) >= 3, chains
    # some chains depend on earlier ones: entries above the diagonal
    assert {"triangular", "nilpotent"} <= coupled


def test_krylov_smith_diagonal_over_qi_matches_determinantal_divisors():
    # large fractional Gaussian entries: the Krylov rows and their coefficient
    # block go through the integral elimination with non-unit pivots
    from ximod.modules import _krylov_presentation

    rng = random.Random("krylov-qi-big")
    for n in range(1, 5):
        S = Matrix(QI, ((rand_big_scalar(QI, rng) for _ in range(n)) for _ in range(n)))
        S_inv = Matrix(QI, zip(*(solve_linear(S, unit_vector(QI, n, j)) for j in range(n))))
        for name, A in _operator_classes(QI, n, rng).items():
            A = S @ A @ S_inv
            snf = smith_normal_form(_krylov_presentation(A).relations)
            assert tuple(snf.nonconstant_diagonal()) == naive_invariant_factors(A), (name, n)


def _chain_generators(A, lengths):
    """The unit vectors Krylov chains of the given lengths start from, each
    the first e_j outside the span of the chains before it, and the Krylov
    vectors of all chains in chain order."""
    from ximod import rank

    n, span, generators = A.rows, [], []
    for length in lengths:
        j = next(j for j in range(n)
                 if rank(Matrix(A.field, span + [unit_vector(A.field, n, j)])) > len(span))
        v = unit_vector(A.field, n, j)
        generators.append(v)
        for _ in range(length):
            span.append(v)
            v = A.matvec(v)
    return generators, span


@pytest.mark.parametrize("field", [QQ, QI], ids=["q", "qi"])
def test_decompose_of_fractional_derogatory_operators_matches_determinantal_divisors(field):
    # S C S^-1 with fractional S and C: the lift A = M / d has d > 1, and
    # the Krylov vectors of each chain are scaled by d^t from t = 0 again
    from ximod.matrix import lift
    from ximod.modules import _krylov_presentation

    rng = random.Random(f"fractional-derogatory-{field.describe()}")
    for degrees in ([1, 2], [2, 2], [2, 3], [1, 1, 2], [1, 3], [1, 1, 1, 2]):
        n = sum(degrees)
        A = _conjugate(_chain_operator(field, degrees, rng), rng)
        assert lift(field, [a.value for row in A.entries for a in row])[1] > 1
        presentation = _krylov_presentation(A)
        P = presentation.relations
        assert P.rows == P.cols >= len(degrees)
        assert all(d.is_monic for d in P.diagonal_entries())
        # each column is a relation among the chains' own unit vectors,
        # unscaled: sum_i P[i][k](A) g_i = 0, g_i kept as presentation.starts
        generators, _ = _chain_generators(A, [d.degree for d in P.diagonal_entries()])
        assert generators == [unit_vector(field, n, j) for j in presentation.starts]
        for k in range(P.cols):
            images = [poly_eval_operator(P.entries[i][k], A).matvec(g)
                      for i, g in enumerate(generators)]
            assert all(sum(c, field.zero()).is_zero for c in zip(*images)), (degrees, k)
        dec = decompose_operator_module(OperatorModule(field, n, A))
        assert len(dec.invariant_factors) == len(degrees)
        assert dec.invariant_factors == naive_invariant_factors(A), degrees


@pytest.mark.parametrize("field", [QQ, QI, F2, F101], ids=["q", "qi", "fp2", "fp101"])
def test_krylov_chain_record_holds_its_relations_and_the_inverse_basis(field):
    # random operators, integral and with denominators, and conjugated block
    # diagonals of equal blocks: several chains, whose closing relations
    # reach back into the earlier chains
    from ximod.matrix import _Lifted
    from ximod.modules import _krylov_chains
    from ximod.poly import _box

    rng = random.Random(f"chain-record-{field.describe()}")
    one, ring = field.one(), _Lifted(field)
    seen = {"denominators": 0, "three chains": 0, "coupled": 0}
    for n in range(1, 10):
        b = rng.randint(1, max(1, n // 2))
        integral = Matrix.from_ints(field, [[rng.randint(-9, 9) for _ in range(n)]
                                            for _ in range(n)])
        equal_blocks = _block_diagonal(field, [rand_matrix(field, b, b, rng)] * (n // b)
                                       + [rand_matrix(field, n % b, n % b, rng)] * (n % b > 0))
        for A in (integral, rand_matrix(field, n, n, rng), _conjugate(equal_blocks, rng)):
            M, d = ring.rows(A)
            seen["denominators"] += d > 1
            chains, inverse, starts = _krylov_chains(ring, M, d)
            k = len(chains)
            assert [len(blocks) for blocks, _ in chains] == list(range(1, k + 1))
            lengths = [len(blocks[j]) - 1 for j, (blocks, _) in enumerate(chains)]
            assert sum(lengths) == n
            generators, krylov = _chain_generators(A, lengths)
            assert generators == [unit_vector(field, n, j) for j in starts]
            assert len(krylov) == n
            for j, (blocks, den) in enumerate(chains):
                # sum_i r_ij(A) g_i = 0, r_jj monic of degree d_j
                assert _box(field, blocks[j][-1:], den) == [one.value]
                total = [field.zero()] * n
                for coeffs, g in zip(blocks, generators):
                    v = g
                    for a in _box(field, coeffs, den):
                        total = [x + Scalar(field, a) * y for x, y in zip(total, v)]
                        v = A.matvec(v)
                assert all(x.is_zero for x in total), (n, j)
                seen["coupled"] += any(a != ring.zero for coeffs in blocks[:j] for a in coeffs)
            seen["three chains"] += k >= 3
            # (D K^-1) K = D I for the Krylov basis K in chain order
            inverse = Matrix(field, [[Scalar(field, a) for a in _box(field, row, 1)]
                                     for row in inverse])
            K = Matrix(field, zip(*krylov))
            D = (inverse @ K).entries[0][0]
            assert not D.is_zero and inverse @ K == Matrix.identity(field, n).scale(D)
    assert seen["three chains"] and seen["coupled"], seen
    assert seen["denominators"] or field.characteristic, seen


@pytest.mark.parametrize("p", [0, 2, 3, 101], ids=["q", "fp2", "fp3", "fp101"])
def test_invariant_factors_match_sympy(p):
    sympy = pytest.importorskip("sympy")
    from sympy.polys.matrices import DomainMatrix
    from sympy.polys.matrices.normalforms import invariant_factors

    x = sympy.Symbol("x")
    field = QQ if p == 0 else PrimeField(p)
    ring = (sympy.QQ if p == 0 else sympy.GF(p))[x]

    def to_sympy(c):
        return sympy.Rational(c.value.numerator, c.value.denominator) if p == 0 else c.value

    def from_sympy(c):
        return field.scalar(Fraction(c.numerator, c.denominator) if p == 0 else int(c))

    rng = random.Random(f"sympy-{p}")
    for _ in range(16):
        n = rng.randint(1, 6)
        A = rng.choice(list(_operator_classes(field, n, rng).values()))
        M = sympy.Matrix(n, n, lambda i, j: (x if i == j else 0) - to_sympy(A.entries[i][j]))
        expected = tuple(
            Poly(field, [from_sympy(c) for c in f.monic().to_dense()[::-1]])
            for f in invariant_factors(DomainMatrix.from_Matrix(M).convert_to(ring))
            if f.degree() >= 1
        )
        assert decompose_operator_module(OperatorModule(field, n, A)).invariant_factors == expected


def test_generic_decomposition_runs_in_polynomial_time():
    # the Smith form of the 16x16 x*I - A took seconds; 16 Krylov steps do not
    rng = random.Random(69)
    f = rand_poly(QQ, 16, rng, monic=True, min_degree=16)
    A = _conjugate(companion_matrix(f), rng)
    start = time.process_time()
    dec = decompose_operator_module(OperatorModule(QQ, 16, A))
    assert time.process_time() - start < 1
    assert dec.invariant_factors == (f,)


def test_decompose_free_presentation():
    P = PolyMatrix.zeros(QQ, 2, 0)
    dec = decompose_presented_module(PresentedModule(QQ, 2, P))
    assert dec.free_rank == 2
    assert dec.invariant_factors == ()
    flags = torsion_info(dec)
    assert flags.is_free and flags.is_torsion_free and not flags.is_torsion


def test_decompose_presentation_with_unit_factor():
    x = Poly.x(QQ)
    P = PolyMatrix.diagonal(QQ, (Poly.one(QQ), x * x))
    dec = decompose_presented_module(PresentedModule(QQ, 2, P))
    assert dec.free_rank == 0
    assert dec.invariant_factors == (x * x,)


def test_decompose_presentation_single_relation():
    x = Poly.x(QQ)
    P = PolyMatrix(QQ, [[x], [x]])
    dec = decompose_presented_module(PresentedModule(QQ, 2, P))
    assert dec.free_rank == 1
    assert dec.invariant_factors == (x,)


# -- primary decomposition --------------------------------------------------------

def test_primary_decomposition_grouping():
    x = Poly.x(QQ)
    one = Poly.one(QQ)
    a1 = x * (x - one)
    a2 = x * (x - one) ** 2
    dec = ModuleDecomposition(free_rank=0, invariant_factors=(a1, a2))
    primary = primary_decomposition(dec)
    comps = {str(p): exps for p, exps in primary.components}
    assert comps == {"x": (1, 1), "x - 1": (1, 2)}
    assert recombine_invariant_factors(primary, QQ) == [a1, a2]


def test_primary_single_irreducible():
    p = Poly.from_ints(QQ, [1, 1, 1])
    dec = ModuleDecomposition(free_rank=0, invariant_factors=(p,))
    primary = primary_decomposition(dec)
    assert primary.components == ((p, (1,)),)


def test_primary_mod2_irreducible():
    F2 = PrimeField(2)
    p = Poly.from_ints(F2, [1, 1, 1])
    from oracles import exhaustive_irreducible_fp

    assert exhaustive_irreducible_fp(p)
    dec = ModuleDecomposition(free_rank=0, invariant_factors=(p,))
    assert primary_decomposition(dec).components == ((p, (1,)),)


def test_primary_random_crt_round_trip():
    rng = random.Random(64)
    for _ in range(10):
        dim = rng.randint(2, 5)
        A = rand_matrix(F5, dim, dim, rng)
        dec = decompose_operator_module(OperatorModule(F5, dim, A))
        primary = primary_decomposition(dec)
        assert recombine_invariant_factors(primary, F5) == list(dec.invariant_factors)
        for _, exps in primary.components:
            assert list(exps) == sorted(exps)


def test_primary_propagates_incomplete():
    f = Poly.from_ints(QQ, [2, 0, 3, 0, 1])  # rootless quartic
    dec = ModuleDecomposition(free_rank=0, invariant_factors=(f,))
    with pytest.raises(FactorizationIncomplete):
        primary_decomposition(dec)


# -- torsion flags and generators --------------------------------------------------

def test_torsion_flags():
    torsion = ModuleDecomposition(free_rank=0, invariant_factors=(Poly.x(QQ),))
    flags = torsion_info(torsion)
    assert flags.is_torsion and not flags.is_torsion_free and not flags.is_free

    free = ModuleDecomposition(free_rank=2, invariant_factors=())
    flags = torsion_info(free)
    assert not flags.is_torsion and flags.is_torsion_free and flags.is_free

    mixed = ModuleDecomposition(free_rank=1, invariant_factors=(Poly.x(QQ),))
    flags = torsion_info(mixed)
    assert not flags.is_torsion and not flags.is_torsion_free and not flags.is_free


def test_free_iff_torsion_free_identity():
    rng = random.Random(65)
    for _ in range(20):
        s = rng.randint(0, 2)
        r = rng.randint(0, 2)
        factors = tuple(Poly.x(QQ) for _ in range(r))
        dec = ModuleDecomposition(free_rank=s, invariant_factors=factors)
        flags = torsion_info(dec)
        assert flags.is_free == flags.is_torsion_free


def test_minimal_generator_count():
    assert minimal_generator_count(ModuleDecomposition(2, ())) == 2
    assert minimal_generator_count(ModuleDecomposition(0, (Poly.x(QQ),))) == 1
    x = Poly.x(QQ)
    assert minimal_generator_count(ModuleDecomposition(1, (x, x * x))) == 3


def test_decomposition_validates_chain():
    x = Poly.x(QQ)
    with pytest.raises(ValueError):
        ModuleDecomposition(0, (x * x, x))
    with pytest.raises(ValueError):
        ModuleDecomposition(0, (Poly.one(QQ),))


# -- cyclic witness -----------------------------------------------------------------

def test_cyclic_witness_first_basis_vector():
    x = unit_vector(QQ, 3, 0)
    y = (QQ.from_int(4), QQ.from_int(-1), QQ.from_int(2))
    A = cyclic_witness(x, y)
    assert A.matvec(x) == y
    assert A.column(0) == y


def test_cyclic_witness_fixed_point():
    x = (QQ.from_int(2), QQ.from_int(1))
    A = cyclic_witness(x, x)
    assert A.matvec(x) == x


def test_cyclic_witness_random():
    rng = random.Random(66)
    for _ in range(20):
        x = rand_vector(F5, 3, rng, nonzero=True)
        y = rand_vector(F5, 3, rng)
        assert cyclic_witness(x, y).matvec(x) == y


def test_cyclic_witness_rejects_zero():
    with pytest.raises(ZeroVector):
        cyclic_witness((QQ.zero(), QQ.zero()), (QQ.one(), QQ.zero()))
