import random
from fractions import Fraction

import pytest

from ximod import (
    QI,
    QQ,
    BudgetExceeded,
    DimensionMismatch,
    ExpressionSyntaxError,
    FormalPair,
    FormalSequence,
    Matrix,
    OperatorPairKind,
    OracleBudget,
    Poly,
    PrimeField,
    RuleSet,
    StandardKind,
    closure_oracle,
    concatenate,
    decide_equiv,
    format_sequence,
    linearize,
    parse_expression,
    tensor_coordinates,
)
from oracles import rand_matrix, rand_vector

F2 = PrimeField(2)


def ints(field, values):
    return tuple(field.from_int(v) for v in values)


def seq(field, *pairs):
    return FormalSequence(
        tuple(FormalPair(ints(field, x), ints(field, y)) for x, y in pairs)
    )


# -- parsing -------------------------------------------------------------------

def test_parse_single_pair():
    s = parse_expression("([1,0],[0,1])", QQ)
    assert len(s) == 1
    assert s.pairs[0] == FormalPair(ints(QQ, (1, 0)), ints(QQ, (0, 1)))


def test_parse_bell_sequence():
    s = parse_expression("([1,0],[1,0]);([0,1],[0,1])", QQ)
    assert len(s) == 2
    assert linearize(s).coords == ints(QQ, (1, 0, 0, 1))


def test_parse_rational_scalars():
    s = parse_expression("([1/2,-3],[0,1])", QQ)
    assert s.pairs[0].x == (QQ.scalar(Fraction(1, 2)), QQ.from_int(-3))


def test_parse_whitespace_insensitive():
    a = parse_expression("([1, 0],\n [0, 1]) ; ([2,2],[3,3])", QQ)
    b = parse_expression("([1,0],[0,1]);([2,2],[3,3])", QQ)
    assert a == b


def test_parse_gaussian_literals():
    s = parse_expression("([i,1-i],[2i])", QI)
    assert s.pairs[0].x == (QI.scalar((0, 1)), QI.scalar((1, -1)))
    assert s.pairs[0].y == (QI.scalar((0, 2)),)


def test_parse_gaussian_object_form():
    s = parse_expression('([{"re": "1/2", "im": "-3"}],[1])', QI)
    assert s.pairs[0].x == (QI.scalar((Fraction(1, 2), Fraction(-3))),)


def test_parse_errors_carry_position():
    with pytest.raises(ExpressionSyntaxError) as exc:
        parse_expression("([1,0],[0,1]", QQ)
    assert exc.value.line == 1
    with pytest.raises(ExpressionSyntaxError):
        parse_expression("([1,zz],[1])", QQ)
    with pytest.raises(ExpressionSyntaxError):
        parse_expression("", QQ)


@pytest.mark.parametrize("scalar", [
    '{"re": "1/0"}',  # a zero denominator
    '{"re":' * 3000 + '"1"' + "}" * 3000,  # deeper than the JSON decoder recurses
    '{"re": {"re": "1"}}',
    '{"re": "1" "im": "2"}',
], ids=["zero-denominator", "nested-3000-deep", "nested-object", "missing-comma"])
def test_parse_refuses_a_bad_object_scalar_at_its_position(scalar):
    with pytest.raises(ExpressionSyntaxError) as exc:
        parse_expression(f"([1],[1]);\n ([2, {scalar}], [1])", QI)
    assert (exc.value.line, exc.value.column) == (2, 7)


def test_parse_dimension_mismatch_across_pairs():
    with pytest.raises(DimensionMismatch):
        parse_expression("([1,0],[1]);([1],[1])", QQ)


def test_print_parse_round_trip():
    rng = random.Random(91)
    for field in (QQ, QI, F2):
        for _ in range(15):
            pairs = tuple(
                FormalPair(rand_vector(field, 2, rng), rand_vector(field, 3, rng))
                for _ in range(rng.randint(1, 3))
            )
            s = FormalSequence(pairs)
            assert parse_expression(format_sequence(s), field) == s


# -- concatenation ----------------------------------------------------------------

def test_concatenate_lengths_and_linearity():
    s = seq(QQ, ((1, 0), (1, 0)))
    t = seq(QQ, ((0, 1), (0, 1)), ((1, 1), (1, 1)))
    joined = concatenate(s, t)
    assert len(joined) == 3
    assert (
        linearize(joined).coords
        == (linearize(s) + linearize(t)).coords
    )


def test_concatenate_not_commutative_but_equivalent():
    s = seq(QQ, ((1, 0), (1, 0)))
    t = seq(QQ, ((0, 1), (0, 1)))
    st = concatenate(s, t)
    ts = concatenate(t, s)
    assert st != ts
    assert decide_equiv(st, ts, RuleSet(StandardKind(QQ)))[0]


def test_concatenate_dimension_mismatch():
    s = seq(QQ, ((1, 0), (1, 0)))
    t = seq(QQ, ((1,), (1, 0)))
    with pytest.raises(DimensionMismatch):
        concatenate(s, t)


# -- linearization ------------------------------------------------------------------

def test_linearize_single_pair_is_simple_tensor():
    s = seq(QQ, ((2, 3), (1, 4)))
    assert linearize(s).coords == tensor_coordinates(ints(QQ, (2, 3)), ints(QQ, (1, 4))).coords


def test_linearize_cancellation():
    s = seq(QQ, ((1, 2), (3, 4)), ((-1, -2), (3, 4)))
    assert linearize(s).is_zero


# -- deciding -----------------------------------------------------------------------

def test_decide_reflexive():
    s = seq(QQ, ((1, 2), (3, 4)))
    assert decide_equiv(s, s, RuleSet(StandardKind(QQ)))[0]


def test_decide_split_rule_invariance():
    rng = random.Random(92)
    for _ in range(10):
        x = rand_vector(QQ, 2, rng)
        x1 = rand_vector(QQ, 2, rng)
        x2 = tuple(a - b for a, b in zip(x, x1))
        y = rand_vector(QQ, 2, rng)
        whole = FormalSequence((FormalPair(x, y),))
        split = FormalSequence((FormalPair(x1, y), FormalPair(x2, y)))
        for kind in (StandardKind(QQ), OperatorPairKind(rand_matrix(QQ, 2, 2, rng), rand_matrix(QQ, 2, 2, rng))):
            assert decide_equiv(whole, split, RuleSet(kind))[0]


def test_decide_operator_vs_standard_asymmetry():
    field = QQ
    A = Matrix.diagonal(field, ints(field, (2, 3)))
    B = Matrix.diagonal(field, ints(field, (4, 5)))
    lhs = FormalSequence((FormalPair(A.matvec(ints(field, (1, 1))), ints(field, (1, 1))),))
    rhs = FormalSequence((FormalPair(ints(field, (1, 1)), B.matvec(ints(field, (1, 1)))),))
    equivalent, diff = decide_equiv(lhs, rhs, RuleSet(OperatorPairKind(A, B)))
    assert equivalent and diff == linearize(lhs) - linearize(rhs) and not diff.is_zero
    assert not decide_equiv(lhs, rhs, RuleSet(StandardKind(field)))[0]


def test_decide_dimension_mismatch():
    s = seq(QQ, ((1, 0), (1, 0)))
    t = seq(QQ, ((1, 0, 0), (1, 0)))
    with pytest.raises(DimensionMismatch):
        decide_equiv(s, t, RuleSet(StandardKind(QQ)))


# -- the closure oracle ----------------------------------------------------------------

def test_closure_zero_applications():
    s = seq(F2, ((1, 0), (1, 1)))
    budget = OracleBudget(max_length=2, max_degree=1, max_states=100, max_applications=0)
    assert closure_oracle(s, RuleSet(StandardKind(F2)), budget) == {s}


def test_closure_requires_prime_field():
    s = seq(QQ, ((1, 0), (1, 1)))
    budget = OracleBudget(max_length=2, max_degree=1, max_states=10, max_applications=1)
    with pytest.raises(ValueError):
        closure_oracle(s, RuleSet(StandardKind(QQ)), budget)


def test_closure_budget_exceeded():
    s = seq(F2, ((1, 0), (1, 1)))
    budget = OracleBudget(max_length=2, max_degree=1, max_states=3, max_applications=4)
    with pytest.raises(BudgetExceeded):
        closure_oracle(s, RuleSet(StandardKind(F2)), budget)


def test_closure_mod2_singleton():
    # with one coordinate over the two-element field the only usable
    # coefficient is 1, so nothing new is reachable at length one
    s = FormalSequence((FormalPair(ints(F2, (1,)), ints(F2, (1,))),))
    budget = OracleBudget(max_length=1, max_degree=0, max_states=50, max_applications=4)
    closure = closure_oracle(s, RuleSet(StandardKind(F2)), budget)
    assert closure == {s}


def test_closure_subring_and_branching_rules_run():
    from ximod import BranchingKind, Poly, SubringKind

    field = F2
    A = Matrix.from_ints(field, [[1, 1], [0, 1]])
    B = Matrix.from_ints(field, [[0, 1], [1, 1]])
    s = seq(field, ((1, 0), (1, 1)))
    budget = OracleBudget(max_length=2, max_degree=1, max_states=100000,
                          max_applications=2)
    for kind in (
        SubringKind(A, B, Poly.from_ints(field, [0, 0, 1])),
        BranchingKind(A, B, Poly.x(field), Poly.from_ints(field, [1, 1])),
    ):
        rules = RuleSet(kind)
        closure = closure_oracle(s, rules, budget)
        assert s in closure
        for t in closure:
            assert decide_equiv(s, t, rules)[0]


def test_closure_one_dimensional_states():
    # scalars move freely in one dimension: (1,1) reaches exactly the pairs
    # (c, d) with c*d = 1, plus split forms
    field = PrimeField(3)
    s = FormalSequence((FormalPair(ints(field, (1,)), ints(field, (1,))),))
    budget = OracleBudget(max_length=1, max_degree=0, max_states=200, max_applications=3)
    closure = closure_oracle(s, RuleSet(StandardKind(field)), budget)
    singles = {state.pairs[0] for state in closure if len(state) == 1}
    products = {(p.x[0].value * p.y[0].value) % 3 for p in singles}
    assert products == {1}


def test_closure_zero_pair_absorption():
    # (0, y) and (x, 0) communicate through the zero coefficient move
    field = F2
    s = FormalSequence((FormalPair(ints(field, (0, 0)), ints(field, (1, 0))),))
    budget = OracleBudget(max_length=1, max_degree=1, max_states=500, max_applications=2)
    closure = closure_oracle(s, RuleSet(StandardKind(field)), budget)
    wanted = FormalPair(ints(field, (1, 0)), ints(field, (0, 0)))
    assert any(state.pairs == (wanted,) for state in closure)


def test_closure_members_all_decided_equivalent():
    rng = random.Random(93)
    field = F2
    budget = OracleBudget(max_length=2, max_degree=1, max_states=6000, max_applications=3)
    for kind_name in ("standard", "opair"):
        for _ in range(3):
            pairs = tuple(
                FormalPair(rand_vector(field, 2, rng), rand_vector(field, 2, rng))
                for _ in range(rng.randint(1, 2))
            )
            s = FormalSequence(pairs)
            if kind_name == "standard":
                kind = StandardKind(field)
            else:
                kind = OperatorPairKind(
                    rand_matrix(field, 2, 2, rng), rand_matrix(field, 2, 2, rng)
                )
            rules = RuleSet(kind)
            closure = closure_oracle(s, rules, budget)
            assert len(closure) >= 1
            for t in closure:
                assert decide_equiv(s, t, rules)[0]


def test_permute_split_merge_preserve_linearization():
    field = F2
    s = seq(field, ((1, 0), (1, 1)), ((0, 1), (1, 0)))
    target = linearize(s).coords
    perm = FormalSequence((s.pairs[1], s.pairs[0]))
    assert linearize(perm).coords == target
    x1 = ints(field, (1, 1))
    x2 = tuple(a - b for a, b in zip(s.pairs[0].x, x1))
    split = FormalSequence(
        (FormalPair(x1, s.pairs[0].y), FormalPair(x2, s.pairs[0].y), s.pairs[1])
    )
    assert linearize(split).coords == target
    merged = FormalSequence(
        (FormalPair(vec_add_local(x1, x2), s.pairs[0].y), s.pairs[1])
    )
    assert merged == s
    assert linearize(merged).coords == target


def vec_add_local(a, b):
    return tuple(p + q for p, q in zip(a, b))
