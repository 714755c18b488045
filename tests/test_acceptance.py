"""Acceptance suite: every criterion runs at full stated scale, exactly
(zero tolerance), and prints one PASS line when it holds."""
import json
import random
import subprocess
import sys
from fractions import Fraction
from itertools import product

import pytest

from ximod import (
    QI,
    QQ,
    FactorizationIncomplete,
    FormalPair,
    FormalSequence,
    Matrix,
    ModuleDecomposition,
    OperatorModule,
    OperatorPairKind,
    OracleBudget,
    Poly,
    PrimeField,
    RuleSet,
    StandardKind,
    SubringKind,
    TensorElement,
    BudgetExceeded,
    closure_oracle,
    decide_equiv,
    decompose_operator_module,
    induced_surjection,
    module_action,
    operator_from_action,
    primary_decomposition,
    project_to_quotient,
    quotient_dim,
    rank,
    recombine_invariant_factors,
    relation_subspace,
    schmidt_rank,
    simplification_report,
    scalar_branching_report,
    smith_normal_form,
    solve_linear,
    tensor_coordinates,
)
from oracles import (
    krylov_minimal_polynomial,
    naive_charpoly,
    rand_invertible,
    rand_matrix,
    rand_poly,
    rand_polymatrix,
    rand_scalar,
    rand_vector,
)

F2 = PrimeField(2)
F5 = PrimeField(5)


def _report(n, text):
    print(f"ACCEPTANCE {n}: {text} PASS")


# -- 1 ---------------------------------------------------------------------------

def test_criterion_01_snf_property_suite():
    rng = random.Random(201)
    total = 0
    for field in (QQ, F5):
        for _ in range(100):
            rows = rng.randint(1, 4)
            cols = rng.randint(1, 4)
            P = rand_polymatrix(field, rows, cols, 2, rng)
            snf = smith_normal_form(P)
            assert snf.U @ P @ snf.V == snf.D
            assert snf.U.determinant().degree == 0
            assert snf.V.determinant().degree == 0
            diag = snf.diagonal()
            seen_zero = False
            for d in diag:
                if d.is_zero:
                    seen_zero = True
                else:
                    assert not seen_zero
                    assert d.is_monic
            nonzero = snf.nonzero_diagonal()
            for a, b in zip(nonzero, nonzero[1:]):
                assert a.divides(b)
            total += 1
    assert total == 200
    _report(1, "200 random smith forms: exact transforms, unimodular, monic chain.")


# -- 2 ---------------------------------------------------------------------------

def test_criterion_02_structure_theorem():
    rng = random.Random(202)
    checked = 0
    for i in range(100):
        field = QQ if i % 2 == 0 else F5
        dim = rng.randint(2, 5)
        A = rand_matrix(field, dim, dim, rng)
        dec = decompose_operator_module(OperatorModule(field, dim, A))
        prod = Poly.one(field)
        for f in dec.invariant_factors:
            prod = prod * f
        assert prod == naive_charpoly(A)
        assert dec.invariant_factors[-1] == krylov_minimal_polynomial(A)
        P = rand_invertible(field, dim, rng)
        cols = [solve_linear(P, tuple(field.one() if k == j else field.zero() for k in range(dim))) for j in range(dim)]
        Pinv = Matrix(field, ((cols[j][i2] for j in range(dim)) for i2 in range(dim)))
        similar = P @ A @ Pinv
        assert decompose_operator_module(OperatorModule(field, dim, similar)) == dec
        checked += 1
    assert checked == 100
    _report(2, "100 operators: factors multiply to charpoly, annihilator matches, "
               "similarity invariance.")


# -- 3 ---------------------------------------------------------------------------

def test_criterion_03_action_round_trip():
    rng = random.Random(203)
    fields = [QQ, QI, F5]
    checked = 0
    for i in range(100):
        field = fields[i % 3]
        dim = rng.randint(2, 4)
        A = rand_matrix(field, dim, dim, rng)
        module = OperatorModule(field, dim, A)

        def act(pi, x, module=module):
            return module_action(module, pi, x)

        assert operator_from_action(act, dim, field) == A
        checked += 1
    assert checked == 100
    _report(3, "100 operators recovered exactly from their module actions, "
               "all three fields.")


# -- 4 ---------------------------------------------------------------------------

def test_criterion_04_quotient_dimension_law():
    cases = 0
    for a, b, c, d in product(range(3), repeat=4):
        A = Matrix.diagonal(QQ, (QQ.from_int(a), QQ.from_int(b)))
        B = Matrix.diagonal(QQ, (QQ.from_int(c), QQ.from_int(d)))
        W = relation_subspace(OperatorPairKind(A, B), 2, 2)
        # independent brute force: kernel of the explicit diagonal matrix
        diag = [a - c, a - d, b - c, b - d]
        explicit = Matrix.diagonal(QQ, tuple(QQ.from_int(e) for e in diag))
        from ximod import kernel_basis

        expected = len(kernel_basis(explicit))
        assert quotient_dim(W) == expected == sum(1 for e in diag if e == 0)
        cases += 1
    assert cases == 81
    _report(4, "81 exhaustive diagonal pairs: quotient dimension equals "
               "spectrum-match count.")


# -- 5 ---------------------------------------------------------------------------

def test_criterion_05_diagonal_simplification():
    rng = random.Random(205)
    checked = 0
    while checked < 100:
        a, b, c, d = (rand_scalar(QQ, rng) for _ in range(4))
        u, v, w, z = (rand_scalar(QQ, rng) for _ in range(4))
        pi = rand_poly(QQ, 3, rng)
        rep = simplification_report(a, b, c, d, pi, u, v, w, z)
        assert rep.difference_in_relations
        assert rep.classes_equal
        checked += 1
    # generic data with pi = x: the two sides are inequivalent as plain tensors
    generic = 0
    while generic < 20:
        a, b, c, d = (rand_scalar(QQ, rng) for _ in range(4))
        u, v, w, z = (rand_scalar(QQ, rng, nonzero=True) for _ in range(4))
        rep = simplification_report(a, b, c, d, Poly.x(QQ), u, v, w, z)
        if rep.standard_equal:
            continue  # degenerate draw (matching spectra); resample
        assert rep.difference_in_relations
        assert not (rep.left_tensor - rep.right_tensor).is_zero
        generic += 1
    _report(5, "100 random simplifications land in the relation subspace; "
               "generic sides differ as plain tensors.")


# -- 6 ---------------------------------------------------------------------------

def _random_standard_rewrite(s: FormalSequence, rng: random.Random) -> FormalSequence:
    """Apply one linearization-preserving rule at random."""
    field = s.field
    pairs = list(s.pairs)
    choices = ["permute", "split_x", "split_y", "scalar"]
    if len(pairs) >= 2:
        choices.append("merge")
    move = rng.choice(choices)
    if move == "permute" and len(pairs) >= 2:
        i, j = rng.sample(range(len(pairs)), 2)
        pairs[i], pairs[j] = pairs[j], pairs[i]
    elif move == "split_x":
        idx = rng.randrange(len(pairs))
        p = pairs[idx]
        x1 = rand_vector(field, len(p.x), rng)
        x2 = tuple(a - b for a, b in zip(p.x, x1))
        pairs[idx : idx + 1] = [FormalPair(x1, p.y), FormalPair(x2, p.y)]
    elif move == "split_y":
        idx = rng.randrange(len(pairs))
        p = pairs[idx]
        y1 = rand_vector(field, len(p.y), rng)
        y2 = tuple(a - b for a, b in zip(p.y, y1))
        pairs[idx : idx + 1] = [FormalPair(p.x, y1), FormalPair(p.x, y2)]
    elif move == "merge":
        idx = rng.randrange(len(pairs) - 1)
        p1, p2 = pairs[idx], pairs[idx + 1]
        if p1.y == p2.y:
            pairs[idx : idx + 2] = [
                FormalPair(tuple(a + b for a, b in zip(p1.x, p2.x)), p1.y)
            ]
        else:
            pairs[idx : idx + 2] = [p1, p2]  # merge does not apply; keep
    else:  # scalar move: (c x, y) -> (x, c y) applied through division
        idx = rng.randrange(len(pairs))
        p = pairs[idx]
        c = rand_scalar(field, rng, nonzero=True)
        pairs[idx] = FormalPair(tuple(c * e for e in p.x), tuple(e / c for e in p.y))
    return FormalSequence(tuple(pairs))


def test_criterion_06_functoriality():
    rng = random.Random(206)
    checked = 0
    for _ in range(100):
        base = FormalSequence(
            tuple(
                FormalPair(rand_vector(QQ, 2, rng), rand_vector(QQ, 2, rng))
                for _ in range(rng.randint(1, 2))
            )
        )
        other = base
        for _ in range(rng.randint(1, 4)):
            other = _random_standard_rewrite(other, rng)
        assert decide_equiv(base, other, RuleSet(StandardKind(QQ)))[0]
        kinds = [
            StandardKind(QQ),
            OperatorPairKind(rand_matrix(QQ, 2, 2, rng), rand_matrix(QQ, 2, 2, rng)),
            SubringKind(
                rand_matrix(QQ, 2, 2, rng),
                rand_matrix(QQ, 2, 2, rng),
                rand_poly(QQ, 2, rng, min_degree=1),
            ),
        ]
        for kind in kinds:
            assert decide_equiv(base, other, RuleSet(kind))[0]
        checked += 1
    assert checked == 100
    # projection kernel: generators die, a complement basis survives
    A = rand_matrix(QQ, 2, 2, rng)
    B = rand_matrix(QQ, 2, 2, rng)
    W = relation_subspace(OperatorPairKind(A, B), 2, 2)
    for j in range(W.generator_matrix.cols):
        col = W.generator_matrix.column(j)
        assert project_to_quotient(TensorElement(QQ, 2, 2, col), W).is_zero
    for j in W.canonical_indices:
        coords = [QQ.zero()] * 4
        coords[j] = QQ.one()
        assert not project_to_quotient(TensorElement(QQ, 2, 2, tuple(coords)), W).is_zero
    _report(6, "100 standard-equivalent pairs stay equivalent under every kind; "
               "projection kills exactly the relation subspace.")


# -- 7 ---------------------------------------------------------------------------

def test_criterion_07_rewrite_oracle_agreement():
    rng = random.Random(207)
    budget = OracleBudget(max_length=2, max_degree=1, max_states=100000,
                          max_applications=4)
    A = Matrix.from_ints(F2, [[1, 1], [0, 1]])
    B = Matrix.from_ints(F2, [[0, 1], [1, 0]])
    rulesets = {
        "standard": RuleSet(StandardKind(F2)),
        "opair": RuleSet(OperatorPairKind(A, B)),
    }
    for name, rules in rulesets.items():
        pairs_checked = 0
        seeds_used = 0
        while pairs_checked < 500:
            seeds_used += 1
            pairs = tuple(
                FormalPair(rand_vector(F2, 2, rng), rand_vector(F2, 2, rng))
                for _ in range(rng.randint(1, 2))
            )
            s = FormalSequence(pairs)
            try:
                closure = closure_oracle(s, rules, budget)
            except BudgetExceeded:
                continue  # inconclusive run, excluded
            for t in closure:
                assert decide_equiv(s, t, rules)[0], (
                    f"oracle-reachable state rejected by the decider under {name}"
                )
                pairs_checked += 1
        assert pairs_checked >= 500
    _report(7, "decider accepts 100% of >= 500 oracle-reachable pairs per ruleset.")


# -- 8 ---------------------------------------------------------------------------

def test_criterion_08_subring_monotonicity():
    rng = random.Random(208)
    checked = 0
    for _ in range(50):
        n = rng.choice([2, 3])
        A = rand_matrix(QQ, n, n, rng)
        B = rand_matrix(QQ, n, n, rng)
        p = rand_poly(QQ, 2, rng, min_degree=1)
        sub = relation_subspace(SubringKind(A, B, p), n, n)
        full = relation_subspace(OperatorPairKind(A, B), n, n)
        for j in range(sub.generator_matrix.cols):
            col = sub.generator_matrix.column(j)
            solve_linear(full.generator_matrix, col)  # solvable inside the image
        surjection = induced_surjection(sub, full)
        assert rank(surjection) == quotient_dim(full)
        assert quotient_dim(sub) >= quotient_dim(full)
        checked += 1
    assert checked == 50
    _report(8, "50 subring products: relations embed, induced surjection "
               "well-defined and dimension-nonincreasing.")


# -- 9 ---------------------------------------------------------------------------

def test_criterion_09_primary_decomposition():
    rng = random.Random(209)
    checked = 0
    for _ in range(50):
        dim = rng.randint(1, 6)
        A = rand_matrix(F5, dim, dim, rng)
        dec = decompose_operator_module(OperatorModule(F5, dim, A))
        primary = primary_decomposition(dec)
        assert recombine_invariant_factors(primary, F5) == list(dec.invariant_factors)
        for _, exps in primary.components:
            assert list(exps) == sorted(exps)
            assert all(e >= 1 for e in exps)
        checked += 1
    assert checked == 50
    # the rational path that must stop cleanly: a rootless quartic
    quartic = Poly.from_ints(QQ, [2, 0, 3, 0, 1])  # (x^2 + 1)(x^2 + 2)
    dec = ModuleDecomposition(free_rank=0, invariant_factors=(quartic,))
    with pytest.raises(FactorizationIncomplete):
        primary_decomposition(dec)
    _report(9, "50 prime-field primary decompositions recombine exactly; "
               "rational quartic stops with FactorizationIncomplete.")


# -- 10 --------------------------------------------------------------------------

def test_criterion_10_branching_example():
    assert scalar_branching_report(QQ.from_int(1)).quotient_dim == 1
    for value in (QQ.from_int(0), QQ.from_int(2), QQ.from_int(-1),
                  QQ.scalar(Fraction(1, 2))):
        rep = scalar_branching_report(value)
        assert rep.quotient_dim == 0
    assert scalar_branching_report(QQ.from_int(2)).homomorphism_caveat
    proc = subprocess.run(
        [sys.executable, "-m", "ximod", "demo", "branching", "--json"],
        capture_output=True,
    )
    assert proc.returncode == 0
    table = json.loads(proc.stdout)["table"]
    assert {row["a"]: row["quotient_dim"] for row in table} == {
        "1": 1, "0": 0, "2": 0, "-1": 0, "1/2": 0,
    }
    assert any(row["caveat"] for row in table)
    _report(10, "branching twist: dimension 1 at a = 1, dimension 0 otherwise, "
                "caveat flagged.")


# -- 11 --------------------------------------------------------------------------

def test_criterion_11_entanglement_classification():
    rng = random.Random(211)
    for _ in range(100):
        n = rng.randint(2, 3)
        m = rng.randint(2, 3)
        x = rand_vector(QQ, n, rng, nonzero=True)
        y = rand_vector(QQ, m, rng, nonzero=True)
        assert schmidt_rank(tensor_coordinates(x, y)) == 1
    bell = TensorElement(QQ, 2, 2, (QQ.one(), QQ.zero(), QQ.zero(), QQ.one()))
    assert schmidt_rank(bell) == 2
    assert schmidt_rank(TensorElement.zero(QQ, 2, 2)) == 0
    for _ in range(20):
        t = TensorElement(QQ, 2, 2, rand_vector(QQ, 4, rng))
        P = rand_invertible(QQ, 2, rng)
        Q = rand_invertible(QQ, 2, rng)
        moved = P @ t.reshape() @ Q
        transformed = TensorElement(
            QQ, 2, 2, tuple(e for row in moved.entries for e in row)
        )
        assert schmidt_rank(transformed) == schmidt_rank(t)
    _report(11, "schmidt rank: 1 on 100 simple tensors, 2 on the bell element, "
                "0 on zero, invariant under local changes of basis.")


# -- 12 --------------------------------------------------------------------------

SNF_PAYLOAD = json.dumps(
    {
        "field": "q",
        "rows": 2,
        "cols": 2,
        "entries": [[["0", "1"], ["0"]], [["0"], ["0", "0", "1"]]],
    }
)

DECOMPOSE_PAYLOAD = json.dumps(
    {
        "operator": {
            "field": "q",
            "rows": 3,
            "cols": 3,
            "entries": [["2", "0", "0"], ["0", "2", "0"], ["0", "0", "3"]],
        }
    }
)


def _run(args, stdin_text=""):
    return subprocess.run(
        [sys.executable, "-m", "ximod", *args],
        input=stdin_text.encode(),
        capture_output=True,
    )


def test_criterion_12_cli_contract():
    golden = [
        (["demo", "example61", "--json"], ""),
        (["demo", "branching", "--json"], ""),
        (["snf", "--json"], SNF_PAYLOAD),
        (["decompose", "--primary", "--json"], DECOMPOSE_PAYLOAD),
    ]
    for args, stdin_text in golden:
        first = _run(args, stdin_text)
        second = _run(args, stdin_text)
        assert first.returncode == 0, first.stderr.decode()
        assert first.stdout == second.stdout and first.stdout
    bad = _run(["snf"], "{broken")
    assert bad.returncode == 2
    # exit 3 is exercised in-process (test_cli.py) by corrupting the backend;
    # here assert the code is reserved: a healthy run never produces it
    healthy = _run(["snf", "--json"], SNF_PAYLOAD)
    assert healthy.returncode == 0
    _report(12, "golden CLI runs byte-identical; exit codes 0/2 observed, "
                "3 reserved for self-check failures.")
