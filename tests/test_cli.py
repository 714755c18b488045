import dataclasses
import functools
import json
import os
import random
import subprocess
import sys
import time
from fractions import Fraction

import pytest

from ximod import (
    QI,
    QQ,
    Matrix,
    OperatorPairKind,
    Poly,
    PolyMatrix,
    PrimeField,
    SelfCheckFailed,
    SmithForm,
    companion_matrix,
    induced_operator,
    relation_subspace,
    solve_linear,
    unit_vector,
)
from ximod.cli import STANDARD_MAX_COORDINATES, _check_smith, _check_tensor, build_parser, main
from ximod.jsonio import matrix_to_json, poly_to_json

from oracles import rand_invertible, rand_matrix, rand_scalar, sympy_domain


def run_cli(args, stdin_text=""):
    proc = subprocess.run(
        [sys.executable, "-m", "ximod", *args],
        input=stdin_text.encode(),
        capture_output=True,
    )
    return proc


def run_main(capsys, args):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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
            "rows": 2,
            "cols": 2,
            "entries": [["1", "0"], ["0", "1"]],
        }
    }
)


# -- exit code contract -----------------------------------------------------------

def test_snf_success_exit_zero(capsys, tmp_path):
    payload_file = tmp_path / "p.json"
    payload_file.write_text(SNF_PAYLOAD)
    code, out, _ = run_main(capsys, ["snf", "--input", str(payload_file), "--json"])
    assert code == 0
    report = json.loads(out)
    assert report["self_check"] == "ok"
    assert report["diagonal"] == [["0", "1"], ["0", "0", "1"]]


def test_malformed_json_exit_two(capsys, tmp_path):
    payload_file = tmp_path / "bad.json"
    payload_file.write_text("{not json")
    code, _, err = run_main(capsys, ["snf", "--input", str(payload_file)])
    assert code == 2
    assert "$" in err


def test_deeply_nested_json_exits_two(capsys, tmp_path):
    payload_file = tmp_path / "deep.json"
    payload_file.write_text("[" * 100000)
    code, out, err = run_main(capsys, ["decompose", "--input", str(payload_file)])
    assert (code, out) == (2, "")
    assert err.startswith("input error: $:") and "nested too deeply" in err


def test_undecodable_input_file_exits_two(capsys, tmp_path):
    payload_file = tmp_path / "bad.json"
    payload_file.write_bytes(b"\xff")
    code, out, err = run_main(capsys, ["snf", "--json", "--input", str(payload_file)])
    assert (code, out) == (2, "")
    assert err.startswith("input error: --input:") and "Traceback" not in err


def test_undecodable_stdin_exits_two():
    env = {**os.environ, "PYTHONIOENCODING": "utf-8:strict"}
    proc = subprocess.run([sys.executable, "-m", "ximod", "snf", "--json"], input=b"\xff",
                          capture_output=True, env=env)
    assert (proc.returncode, proc.stdout) == (2, b"")
    assert proc.stderr.startswith(b"input error: $:") and b"Traceback" not in proc.stderr


def test_schema_violation_reports_path(capsys, tmp_path):
    payload_file = tmp_path / "bad.json"
    payload_file.write_text(
        json.dumps({"field": "q", "rows": 2, "cols": 2, "entries": [[["1"]]]})
    )
    code, _, err = run_main(capsys, ["snf", "--input", str(payload_file)])
    assert code == 2
    assert "$.entries" in err


def test_parse_error_exit_two_with_position(capsys):
    code, _, err = run_main(
        capsys, ["equiv", "--rules", "standard", "--lhs", "([1,0],[1)", "--rhs", "([1],[1])"]
    )
    assert code == 2
    assert "column" in err


def test_equiv_dimension_mismatch_exit_two(capsys):
    code, _, err = run_main(
        capsys,
        ["equiv", "--rules", "standard", "--lhs", "([1,0],[1])", "--rhs", "([1],[1])"],
    )
    assert code == 2


def test_unknown_demo_exit_two(capsys):
    code, _, err = run_main(capsys, ["demo", "nothing"])
    assert code == 2
    assert "unknown demo" in err


def test_self_check_failure_exit_three(capsys, tmp_path, monkeypatch):
    # corrupt the computation behind the scenes: the CLI must notice and
    # report through the dedicated exit code
    import ximod.cli as cli

    def broken_snf(P):
        good = smith_normal_form_original(P)
        bad_d = PolyMatrix.diagonal(P.field, [Poly.one(P.field)] * min(P.rows, P.cols))
        return SmithForm(U=good.U, D=bad_d, V=good.V)

    from ximod import smith_normal_form as smith_normal_form_original

    monkeypatch.setattr(cli, "smith_normal_form", broken_snf)
    payload_file = tmp_path / "p.json"
    payload_file.write_text(SNF_PAYLOAD)
    code, _, err = run_main(capsys, ["snf", "--input", str(payload_file)])
    assert code == 3
    assert "self-check" in err


def test_smith_check_rejects_a_transform_that_is_not_unimodular():
    # U @ P @ V == D holds, so only the determinant of U can catch it
    x = Poly.x(QQ)
    one = Poly.one(QQ)
    U = PolyMatrix.diagonal(QQ, (one, x))
    P = PolyMatrix.diagonal(QQ, (x, x))
    V = PolyMatrix.identity(QQ, 2)
    with pytest.raises(SelfCheckFailed, match="U is not unimodular"):
        _check_smith(P, SmithForm(U=U, D=U @ P @ V, V=V))


def _run_tampered_snf(capsys, tmp_path, monkeypatch, entries, U, D, V):
    """`ximod snf` on the 2x2 rational polynomial matrix with the given
    entries, answered by the tampered Smith form (U, D, V)."""
    monkeypatch.setattr("ximod.cli.smith_normal_form", lambda P: SmithForm(U=U, D=D, V=V))
    payload_file = tmp_path / "p.json"
    payload_file.write_text(json.dumps({"field": "q", "rows": 2, "cols": 2, "entries": entries}))
    return run_main(capsys, ["snf", "--input", str(payload_file)])


@pytest.mark.parametrize("tamper, message", [
    ("scaled", "diagonal entries must be monic"),
    ("zero first", "zero diagonal entries must trail"),
    ("swapped", "divisibility chain broken"),
])
def test_smith_check_rejects_a_tampered_diagonal(capsys, tmp_path, monkeypatch, tamper, message):
    # each tampered (U, D, V) still has U P V = D with unimodular U and V, so
    # only the shape of the diagonal can catch it: diag(2x, x^2) from
    # U = diag(2, 1), and diag(0, x) or diag(x^2, x) from swapping both the
    # rows and the columns of diag(x, 0) or diag(x, x^2)
    x, one, zero = Poly.x(QQ), Poly.one(QQ), Poly.zero(QQ)
    swap = PolyMatrix(QQ, ((zero, one), (one, zero)))
    second = zero if tamper == "zero first" else x * x
    P = PolyMatrix.diagonal(QQ, (x, second))
    U = PolyMatrix.diagonal(QQ, (one.scale(QQ.from_int(2)), one)) if tamper == "scaled" else swap
    V = PolyMatrix.identity(QQ, 2) if tamper == "scaled" else swap
    entries = [[["0", "1"], []], [[], [str(c) for c in second.values]]]
    code, out, err = _run_tampered_snf(capsys, tmp_path, monkeypatch, entries, U, U @ P @ V, V)
    assert (code, out) == (3, "")
    assert message in err


def test_branching_check_rejects_a_tampered_literal_span(capsys, monkeypatch):
    import ximod.cli as cli

    report = cli.scalar_branching_report
    monkeypatch.setattr(cli, "scalar_branching_report",
                        lambda a: dataclasses.replace(report(a), literal_span_agrees=False))
    code, out, err = run_main(capsys, ["tensor", "--kind", "branching", "--scalar-a", "2"])
    assert (code, out) == (3, "")
    assert "literal relation span disagrees with the kind span" in err


def test_schmidt_check_rejects_a_rank_above_both_dimensions(capsys, tmp_path, monkeypatch):
    monkeypatch.setattr("ximod.cli.schmidt_rank", lambda t: min(t.n, t.m) + 1)
    payload_file = tmp_path / "p.json"
    payload_file.write_text(json.dumps({"field": "q", "n": 2, "m": 2, "coords": ["1", "0", "0", "1"]}))
    code, out, err = run_main(capsys, ["schmidt", "--input", str(payload_file)])
    assert (code, out) == (3, "")
    assert "rank exceeds both factor dimensions" in err


def test_example61_check_rejects_classes_that_differ(capsys, monkeypatch):
    import ximod.cli as cli

    report = cli.simplification_report
    monkeypatch.setattr(cli, "simplification_report",
                        lambda *args: dataclasses.replace(report(*args), classes_equal=False))
    code, out, err = run_main(capsys, ["demo", "example61"])
    assert (code, out) == (3, "")
    assert "the two sides do not agree in the quotient" in err


def test_tensor_check_rejects_a_tampered_induced_operator():
    A = Matrix.from_ints(QQ, [[1, 0], [0, 2]])
    B = Matrix.from_ints(QQ, [[1, 0], [0, 3]])
    W = relation_subspace(OperatorPairKind(A, B), 2, 2)
    induced = induced_operator(W)
    _check_tensor(W, induced)
    with pytest.raises(SelfCheckFailed, match="disagree"):
        _check_tensor(W, induced + Matrix.identity(QQ, induced.rows))


def _run_tampered_opair(capsys, tmp_path, monkeypatch, tamper):
    """`ximod tensor --kind opair` on A = diag(1, 2), B = diag(1, 3), whose
    quotient has dimension 1, with its relation subspace W replaced by
    tamper(W)."""
    monkeypatch.setattr(
        "ximod.cli.relation_subspace", lambda kind, n, m: tamper(relation_subspace(kind, n, m))
    )
    payload = {
        "A": {"field": "q", "rows": 2, "cols": 2, "entries": [["1", "0"], ["0", "2"]]},
        "B": {"field": "q", "rows": 2, "cols": 2, "entries": [["1", "0"], ["0", "3"]]},
    }
    payload_file = tmp_path / "p.json"
    payload_file.write_text(json.dumps(payload))
    return run_main(capsys, ["tensor", "--kind", "opair", "--input", str(payload_file)])


def test_tensor_check_rejects_a_tampered_relation_rank(capsys, tmp_path, monkeypatch):
    # W = everything (no row of W^perp) passes the action check on the empty
    # quotient, but the invariant factors of A and B say it has dimension 1
    def everything(W):
        return dataclasses.replace(W, canonical_indices=(), pivots=tuple(range(W.n * W.m)), X=())

    code, out, err = _run_tampered_opair(capsys, tmp_path, monkeypatch, everything)
    assert (code, out) == (3, "")
    assert "quotient dimension disagrees with the invariant factors" in err


def test_tensor_check_rejects_a_tampered_annihilator_row(capsys, tmp_path, monkeypatch):
    # one row of W^perp moved off {Y : A^T Y = Y B}: still one independent
    # row, so the count agrees, but the row itself fails the certificate
    def moved(W):
        assert (W.canonical_indices, W.pivots) == ((0,), (1, 2, 3))
        return dataclasses.replace(W, X=((W.D,) + W.X[0][1:],))

    code, out, err = _run_tampered_opair(capsys, tmp_path, monkeypatch, moved)
    assert (code, out) == (3, "")
    assert "fails A^T Y = Y B" in err


def _run_tampered_decompose(capsys, tmp_path, monkeypatch, operator, tamper, primary=False):
    """`ximod decompose` on the rational operator with the given rows, with
    the decomposition dec of an operator A replaced by tamper(A, dec)."""
    import ximod.cli as cli

    decompose = cli._decompose_operator
    monkeypatch.setattr(cli, "_decompose_operator", lambda A: tamper(A, decompose(A)))
    payload_file = tmp_path / "p.json"
    payload_file.write_text(json.dumps({"operator": _matrix(operator)}))
    argv = ["decompose", *(["--primary"] if primary else []), "--input", str(payload_file)]
    return run_main(capsys, argv)


def _invariant_factors(*factors):
    """A tamper that keeps the free rank and sets the invariant factors."""
    return lambda A, dec: dataclasses.replace(dec, invariant_factors=factors)


def test_decompose_check_catches_factors_off_the_charpoly(capsys, tmp_path, monkeypatch):
    # a Jordan block of 1, (x - 1)^2, decomposed as R/(x - 1)
    x_1 = Poly.from_ints(QQ, [-1, 1])
    tamper = _invariant_factors(x_1)
    jordan = [[1, 1], [0, 1]]
    code, out, err = _run_tampered_decompose(capsys, tmp_path, monkeypatch, jordan, tamper)
    assert (code, out) == (3, "")
    assert "invariant factors do not multiply to the charpoly" in err


def test_decompose_check_catches_a_last_factor_that_does_not_annihilate(
    capsys, tmp_path, monkeypatch
):
    # R/(x - 1) (+) R/(x - 1) multiplies to the charpoly of the Jordan block,
    # but x - 1 does not annihilate it
    x_1 = Poly.from_ints(QQ, [-1, 1])
    tamper = _invariant_factors(x_1, x_1)
    jordan = [[1, 1], [0, 1]]
    code, out, err = _run_tampered_decompose(capsys, tmp_path, monkeypatch, jordan, tamper)
    assert (code, out) == (3, "")
    assert "last invariant factor does not annihilate the operator" in err


def test_decompose_check_catches_factors_of_degree_n_off_the_charpoly(
    capsys, tmp_path, monkeypatch
):
    # diag(1, 1, 2) is R/(x - 1) (+) R/((x - 1)(x - 2)); (x - 2) for the
    # first factor keeps the degrees and the annihilating last factor
    x_1, x_2 = Poly.from_ints(QQ, [-1, 1]), Poly.from_ints(QQ, [-2, 1])
    tamper = _invariant_factors(x_2, x_1 * x_2)
    operator = [[1, 0, 0], [0, 1, 0], [0, 0, 2]]
    code, out, err = _run_tampered_decompose(capsys, tmp_path, monkeypatch, operator, tamper)
    assert (code, out) == (3, "")
    assert "invariant factors do not multiply to the charpoly" in err


def test_decompose_check_catches_elementary_divisors_that_do_not_recombine(
    capsys, tmp_path, monkeypatch
):
    # diag(1, 1) is R/(x - 1) (+) R/(x - 1); one exponent raised to 2
    import ximod.cli as cli
    from ximod.modules import PrimaryDecomposition

    primary = cli.primary_decomposition

    def raised(dec):
        (prime, exps), *rest = primary(dec).components
        return PrimaryDecomposition(((prime, exps[:-1] + (exps[-1] + 1,)), *rest))

    monkeypatch.setattr(cli, "primary_decomposition", raised)
    code, out, err = _run_tampered_decompose(
        capsys, tmp_path, monkeypatch, [[1, 0], [0, 1]], lambda A, dec: dec, primary=True
    )
    assert (code, out) == (3, "")
    assert "elementary divisors do not recombine" in err


def _count_operator_checks(monkeypatch):
    """Wrap `charpoly` and `poly_eval_operator` in every ximod module that
    holds them; the dict returned counts their calls."""
    import ximod.matrix
    import ximod.polymatrix

    originals = {"charpoly": ximod.polymatrix.charpoly,
                 "poly_eval_operator": ximod.matrix.poly_eval_operator}
    calls = dict.fromkeys(originals, 0)

    def counted(name, check):
        def wrapper(*args):
            calls[name] += 1
            return check(*args)
        return wrapper

    modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "ximod"]
    for name, check in originals.items():
        for module in modules:
            if getattr(module, name, None) is check:
                monkeypatch.setattr(module, name, counted(name, check))
    return calls


def _count_certificate_primes(monkeypatch):
    """Record the indices that `cli._check_operator` asks of the prime sequence."""
    import ximod.cli as cli

    asked, prime = [], cli._certificate_prime

    def recorded(i):
        asked.append(i)
        return prime(i)

    monkeypatch.setattr(cli, "_certificate_prime", recorded)
    return asked


def _with_presentation(starts=None, change=None):
    """A tamper that keeps the answer and replaces the route's Krylov
    presentation: its starts by `starts`, its relations P by change(P)."""
    def tamper(A, dec):
        pres = dec.presentation
        relations = pres.relations if change is None else change(pres.relations)
        return dataclasses.replace(dec, presentation=dataclasses.replace(
            pres, starts=pres.starts if starts is None else starts, relations=relations))
    return tamper


def test_decompose_certificate_catches_a_cyclic_factor_that_does_not_annihilate(
    capsys, tmp_path, monkeypatch
):
    # e_1 is cyclic for the swap, whose one invariant factor x^2 - 1 is
    # given as x^2 - 2: the Krylov rank is 2 and f(A) e_1 = -e_1
    calls = _count_operator_checks(monkeypatch)
    tamper = _invariant_factors(Poly.from_ints(QQ, [-2, 0, 1]))
    code, out, err = _run_tampered_decompose(capsys, tmp_path, monkeypatch, [[0, 1], [1, 0]], tamper)
    assert (code, out) == (3, "")
    assert "last invariant factor does not annihilate the operator" in err
    assert calls == {"charpoly": 0, "poly_eval_operator": 0}


def test_decompose_certificate_takes_two_chains_when_e1_is_an_eigenvector(
    capsys, tmp_path, monkeypatch
):
    # diag(1, 2) is cyclic, but its Krylov vectors e_1, A e_1 = e_1 are not:
    # the route starts a second chain at e_2, and the certificate checks both
    calls, seen = _count_operator_checks(monkeypatch), []
    code, out, err = _run_tampered_decompose(capsys, tmp_path, monkeypatch, [[1, 0], [0, 2]],
                                             lambda A, dec: seen.append(dec) or dec)
    assert (code, err) == (0, "")
    assert "R/(x^2 - 3*x + 2)" in out
    assert seen[0].presentation.starts == (0, 1)
    assert calls == {"charpoly": 0, "poly_eval_operator": 0}


def test_decompose_certificate_passes_its_unlucky_prime(capsys, tmp_path, monkeypatch):
    # e_1, A e_1 = (1, 0), (0, p) are independent over Q, not mod the first
    # prime p: the rank is n at the second
    import ximod.cli as cli

    p = cli._certificate_prime(0)[0].p
    calls, asked = _count_operator_checks(monkeypatch), _count_certificate_primes(monkeypatch)
    code, out, err = _run_tampered_decompose(capsys, tmp_path, monkeypatch, [[0, 1], [p, 0]],
                                             lambda A, dec: dec)
    assert (code, err) == (0, "")
    assert f"R/(x^2 - {p})" in out
    assert asked == [0, 1]
    assert calls == {"charpoly": 0, "poly_eval_operator": 0}


def test_certified_decompose_calls_neither_charpoly_nor_poly_eval_operator(
    capsys, tmp_path, monkeypatch
):
    # cyclic, scalar, Jordan and diagonal operators, with and without --primary
    calls = _count_operator_checks(monkeypatch)
    identity = lambda A, dec: dec  # noqa: E731
    for operator in ([[0, 1], [1, 0]], [[1, 0], [0, 1]], [[1, 1], [0, 1]], [[1, 0], [0, 2]],
                     [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 1], [0, 0, 0, 1]]):
        for primary in (False, True):
            code, _, _ = _run_tampered_decompose(capsys, tmp_path, monkeypatch, operator, identity,
                                                 primary=primary)
            assert code == 0
    assert calls == {"charpoly": 0, "poly_eval_operator": 0}


def test_decompose_certificate_catches_a_changed_relation_coefficient(
    capsys, tmp_path, monkeypatch
):
    # the Jordan block's presentation [[x - 1, -1], [0, x - 1]] with its -1
    # made -2: (A - 1) e_2 - 2 e_1 = -e_1
    def changed(P):
        assert P.entries[0][1] == Poly.from_ints(QQ, [-1])
        rows = [list(row) for row in P.entries]
        rows[0][1] = Poly.from_ints(QQ, [-2])
        return PolyMatrix(QQ, rows)

    code, out, err = _run_tampered_decompose(capsys, tmp_path, monkeypatch, [[1, 1], [0, 1]],
                                             _with_presentation(change=changed))
    assert (code, out) == (3, "")
    assert "a closing relation of the Krylov presentation fails" in err


@pytest.mark.parametrize("field", [QQ, QI, PrimeField(101)], ids=["q", "qi", "fp101"])
def test_operator_certificate_catches_every_changed_relation_coefficient(field):
    # S diag(C, C, C) S^-1 for a 2 x 2 C, three chains, with denominators
    # over Q and Q(i): adding 1 at x^t, t < d_i, to any entry of row i of P
    # adds A^t g_i to its column's relation, a Krylov vector, so it fails
    import ximod.cli as cli

    rng = random.Random(f"changed-relations-{field.describe()}")
    C = rand_matrix(field, 2, 2, rng).entries
    D = Matrix(field, [[C[i % 2][j % 2] if i // 2 == j // 2 else field.zero() for j in range(6)]
                       for i in range(6)])
    A = _conjugated(D, rng)
    dec = cli._decompose_operator(A)
    cli._check_operator(A, dec)
    P = dec.presentation.relations
    k = P.rows
    assert k == 3
    changed = 0
    for i in range(k):
        for j in range(i, k):
            for t in range(P.entries[i][i].degree):
                rows = [list(row) for row in P.entries]
                rows[i][j] = rows[i][j] + Poly.x(field) ** t
                tampered = _with_presentation(change=lambda _: PolyMatrix(field, rows))(A, dec)
                with pytest.raises(SelfCheckFailed, match="closing relation"):
                    cli._check_operator(A, tampered)
                changed += 1
    assert changed == 12


def _shape_tampers():
    """(name, tamper of the Jordan block's decomposition) pairs, each giving a
    presentation that is not upper triangular with a monic diagonal of
    degree n on starts that are unit vectors."""
    x = Poly.x(QQ)

    def entry(i, j, value):
        def change(P):
            rows = [list(row) for row in P.entries]
            rows[i][j] = value(rows[i][j])
            return PolyMatrix(QQ, rows)
        return _with_presentation(change=change)

    yield "below the diagonal", entry(1, 0, lambda _: Poly.one(QQ))
    yield "diagonal not monic", entry(0, 0, lambda e: e + e)
    yield "diagonal of degree n + 1", entry(0, 0, lambda e: e * x)
    yield "start out of range", _with_presentation(starts=(0, 2))
    yield "one start too few", _with_presentation(starts=(0,))


@pytest.mark.parametrize("name", [name for name, _ in _shape_tampers()])
def test_operator_certificate_refuses_a_presentation_of_the_wrong_shape(name):
    import ximod.cli as cli

    A = Matrix.from_ints(QQ, [[1, 1], [0, 1]])
    dec = cli._decompose_operator(A)
    cli._check_operator(A, dec)
    tamper = dict(_shape_tampers())[name]
    with pytest.raises(SelfCheckFailed, match="the Krylov presentation is not triangular"):
        cli._check_operator(A, tamper(A, dec))


def test_operator_certificate_refuses_a_decomposition_without_a_presentation():
    import ximod.cli as cli

    A = Matrix.from_ints(QQ, [[1, 1], [0, 1]])
    dec = dataclasses.replace(cli._decompose_operator(A), presentation=None)
    with pytest.raises(SelfCheckFailed, match="keeps no Krylov presentation"):
        cli._check_operator(A, dec)


def test_decompose_certificate_proves_dependent_starts_past_the_hadamard_bound(
    capsys, tmp_path, monkeypatch
):
    # B (+) B for B = [[0, 1], [N, 0]], N = 2^150, is R/(x^2 - N) (+)
    # R/(x^2 - N), and both chains given the start e_1 close by x^2 - N;
    # their Krylov vectors e_1, N e_2 twice are dependent at every prime, so
    # the check fails once the primes' product passes |det| <= N^2
    import ximod.cli as cli

    N = 2 ** 150
    operator = [[0, 1, 0, 0], [N, 0, 0, 0], [0, 0, 0, 1], [0, 0, N, 0]]
    code, out, err = _run_tampered_decompose(capsys, tmp_path, monkeypatch, operator,
                                             lambda A, dec: dec)
    assert (code, err) == (0, "")
    assert f"R/(x^2 - {N}) (+) R/(x^2 - {N})" in out
    asked = _count_certificate_primes(monkeypatch)
    code, out, err = _run_tampered_decompose(capsys, tmp_path, monkeypatch, operator,
                                             _with_presentation(starts=(0, 0)))
    assert (code, out) == (3, "")
    assert "the Krylov vectors of the presentation are dependent" in err
    tried, product, needed = list(asked), 1, 0
    while product <= N ** 2:
        product *= cli._certificate_prime(needed)[0].p
        needed += 1
    assert needed > 5
    assert tried == list(range(needed))


def test_decompose_certificate_needs_the_last_factor_to_annihilate_every_chain(
    capsys, tmp_path, monkeypatch
):
    # diag(1, 1, J_2(1)) is R/(x - 1)^2 (+) (R/(x - 1))^2 on four chains;
    # four copies of x - 1 multiply to chi_A, but x - 1 leaves e_4 -> e_3
    seen = []

    def rearranged(A, dec):
        seen.append(dec)
        return dataclasses.replace(dec, invariant_factors=(Poly.from_ints(QQ, [-1, 1]),) * 4)

    operator = [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 1], [0, 0, 0, 1]]
    code, out, err = _run_tampered_decompose(capsys, tmp_path, monkeypatch, operator, rearranged)
    assert (code, out) == (3, "")
    assert "last invariant factor does not annihilate the operator" in err
    assert [f.degree for f in seen[0].invariant_factors] == [1, 1, 2]
    assert len(seen[0].presentation.starts) == 4


def test_operator_certificate_over_qi_maps_i_to_a_square_root_of_minus_one():
    # A is cyclic, chi_A = x (x - i)^2, and e_1, A e_1 = (0, 1, i) span
    # A^2 e_1 = i A e_1, so (x - i)^2 x, the right answer, closes the chain
    # of e_1 alone; its Krylov vectors' real parts, the images under i -> 0
    # (no ring map), would be independent
    import ximod.cli as cli

    A = Matrix(QI, [[QI.scalar(c) for c in row]
                    for row in [[0, 0, 0], [1, (0, 2), -1], [(0, 1), -1, 0]]])
    dec = cli._decompose_operator(A)
    assert [f.degree for f in dec.invariant_factors] == [3]
    assert dec.presentation.starts == (0, 1)
    cli._check_operator(A, dec)
    one_chain = _with_presentation((0,), lambda P: PolyMatrix(QI, [[dec.invariant_factors[0]]]))
    with pytest.raises(SelfCheckFailed, match="Krylov vectors of the presentation are dependent"):
        cli._check_operator(A, one_chain(A, dec))


def _conjugated(D, rng):
    """S D S^-1 for a random invertible S over D's field."""
    field, n = D.field, D.rows
    S = rand_invertible(field, n, rng)
    columns = [solve_linear(S, unit_vector(field, n, j)) for j in range(n)]
    return S @ D @ Matrix(field, ((column[i] for column in columns) for i in range(n)))


def _certificate_operators(field, n, rng):
    """Dense integral, dense with denominators (over Q and Q(i); rand_scalar
    draws them), a companion matrix, for which e_1 is cyclic, a conjugated
    diag(C, C) or diag(C, C, c), and diag(1, ..., n)."""
    yield Matrix.from_ints(field, [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)])
    yield rand_matrix(field, n, n, rng)
    yield companion_matrix(Poly(field, [rand_scalar(field, rng) for _ in range(n)] + [field.one()]))
    if n > 1:
        C, c = rand_matrix(field, n // 2, n // 2, rng).entries, rand_scalar(field, rng)
        zero = field.zero()
        D = [[C[i % (n // 2)][j % (n // 2)] if i // (n // 2) == j // (n // 2) < 2 else zero
              for j in range(n)] for i in range(n)]
        if n % 2:
            D[-1][-1] = c
        yield _conjugated(Matrix(field, D), rng)
    yield Matrix.diagonal(field, [field.from_int(k) for k in range(1, n + 1)])


@pytest.mark.parametrize("field", [QQ, QI, PrimeField(2), PrimeField(101)],
                         ids=["q", "qi", "fp2", "fp101"])
def test_operator_certificate_matches_sympy(field, monkeypatch):
    # every operator's answer is certified on its presentation, equals the
    # determinantal divisors' and multiplies to sympy's charpoly; a
    # perturbed single factor raises
    pytest.importorskip("sympy")
    from sympy.polys.matrices import DomainMatrix

    import ximod.cli as cli
    from oracles import naive_invariant_factors

    domain, convert = sympy_domain(field)
    rng = random.Random(f"operator-certificate-{field.describe()}")
    calls = _count_operator_checks(monkeypatch)
    chains = set()
    for n in range(1, 7):
        for A in _certificate_operators(field, n, rng):
            S = DomainMatrix([[convert(a) for a in row] for row in A.entries], (n, n), domain)
            dec = cli._decompose_operator(A)
            cli._check_operator(A, dec)
            chains.add(len(dec.presentation.starts))
            assert dec.invariant_factors == naive_invariant_factors(A), (n, A)
            product = functools.reduce(Poly.__mul__, dec.invariant_factors, Poly.one(field))
            assert [convert(c) for c in reversed(product.coeffs)] == S.charpoly()
            if len(dec.invariant_factors) == 1:
                f = dec.invariant_factors[0]
                perturbed = dataclasses.replace(dec, invariant_factors=(f + Poly.one(field),))
                with pytest.raises(SelfCheckFailed):
                    cli._check_operator(A, perturbed)
    assert calls == {"charpoly": 0, "poly_eval_operator": 0}
    assert {1, 2, 3} <= chains, chains


def test_operator_certificate_of_a_dense_qi_operator_runs_quickly():
    # about 0.012 s of process time on a 2-vCPU VM; charpoly and
    # Paterson-Stockmeyer took 0.19 s
    import ximod.cli as cli

    n, rng = 32, random.Random("operator-certificate-qi-32")
    A = Matrix(QI, [[QI.scalar((Fraction(rng.randint(-9, 9)), Fraction(rng.randint(-9, 9))))
                     for _ in range(n)] for _ in range(n)])
    dec = cli._decompose_operator(A)
    assert [f.degree for f in dec.invariant_factors] == [n]
    start = time.process_time()
    cli._check_operator(A, dec)
    assert time.process_time() - start < 0.06


def _ladder_derogatory_qi(n):
    """The derogatory Q(i) rung of tools/decompose_ladder.py, drawn as it
    draws it: L U diag(C, ..., C) U^-1 L^-1 for a dense 4 x 4 C with real
    and imaginary parts in [-9, 9] and two shears L, U with -1, 0, 1 next
    to the diagonal, whose inverses are integral."""
    rng = random.Random(f"decompose-ladder-{QI.describe()}-{n}")

    def part():
        return Fraction(rng.randint(-9, 9), rng.randint(1, 1))

    C = [[QI.scalar((part(), part())) for _ in range(4)] for _ in range(4)]
    D = Matrix(QI, [[C[i % 4][j % 4] if i // 4 == j // 4 else QI.zero() for j in range(n)]
                    for i in range(n)])

    def shear(lower):
        off = [rng.randint(-1, 1) for _ in range(n)]
        S = [[int(i == j) for j in range(n)] for i in range(n)]
        inv = [[0] * n for _ in range(n)]
        for i in range(n):
            if i:
                S[i][i - 1] = off[i]
            prod = 1
            for j in range(i, -1, -1):
                inv[i][j] = prod
                prod *= -off[j]
        if not lower:
            S, inv = ([list(col) for col in zip(*M)] for M in (S, inv))
        return Matrix.from_ints(QI, S), Matrix.from_ints(QI, inv)

    (L, L_inv), (U, U_inv) = shear(True), shear(False)
    return L @ U @ D @ U_inv @ L_inv


def test_operator_certificate_of_a_derogatory_qi_operator_runs_quickly():
    # n / 4 = 8 chains that reach back into the earlier ones; 0.005-0.008 s
    # of process time on a 2-vCPU VM, where charpoly and Paterson-Stockmeyer
    # took 0.042 s
    import ximod.cli as cli

    A = _ladder_derogatory_qi(32)
    dec = cli._decompose_operator(A)
    assert len(dec.invariant_factors) == len(dec.presentation.starts) == 8
    start = time.process_time()
    cli._check_operator(A, dec)
    assert time.process_time() - start < 0.02


def test_tensor_check_rejects_annihilator_rows_that_are_not_independent(
    capsys, tmp_path, monkeypatch
):
    # the stored rows of W^perp claim a zero D
    code, out, err = _run_tampered_opair(
        capsys, tmp_path, monkeypatch, lambda W: dataclasses.replace(W, D=0)
    )
    assert (code, out) == (3, "")
    assert "stored rows of the relation annihilator are not independent" in err


def test_tensor_check_rejects_tampered_induced_invariant_factors(capsys, tmp_path, monkeypatch):
    # the quotient of A = diag(1, 2), B = diag(1, 3) is K[x]/(x - 1), whose
    # induced operator, the only 1x1 one decomposed, is given R/(x - 2)
    import ximod.cli as cli

    x_2 = Poly.from_ints(QQ, [-2, 1])
    decompose = cli._decompose_operator

    def tampered(A):
        dec = decompose(A)
        return dataclasses.replace(dec, invariant_factors=(x_2,)) if A.rows == 1 else dec

    monkeypatch.setattr(cli, "_decompose_operator", tampered)
    code, out, err = _run_tampered_opair(capsys, tmp_path, monkeypatch, lambda W: W)
    assert (code, out) == (3, "")
    assert "induced invariant factors disagree with those of A and B" in err


def _matrix(rows):
    return {"field": "q", "rows": len(rows), "cols": len(rows),
            "entries": [[str(a) for a in row] for row in rows]}


def test_tensor_runs_without_the_sylvester_matrix_or_rref(capsys, tmp_path, monkeypatch):
    # W is computed from its annihilator: no command below may build the
    # Sylvester matrix or call rref
    A, B = _matrix([[1, 1, 0], [0, 1, 0], [0, 0, 2]]), _matrix([[1, 0], [1, 1]])
    cases = {
        "opair": {"A": A, "B": B},
        "subring": {"A": A, "B": B, "p": ["0", "0", "1"]},
        "branching": {"A": A, "B": B, "phi": ["1", "1"], "psi": ["0", "2", "1"]},
    }

    def run_all():
        outputs = {}
        for kind, payload in cases.items():
            payload_file = tmp_path / f"{kind}.json"
            payload_file.write_text(json.dumps(payload))
            argv = ["tensor", "--kind", kind, "--decompose", "--json"]
            outputs[kind] = run_main(capsys, [*argv, "--input", str(payload_file)])
        return outputs

    expected = run_all()
    assert all(code == 0 for code, _, _ in expected.values())

    def refuse(*_args):
        raise AssertionError("the tensor command must not reach this")

    for name, module in list(sys.modules.items()):
        if name == "ximod" or name.startswith("ximod."):
            for attr in ("sylvester_operator", "rref"):
                if hasattr(module, attr):
                    monkeypatch.setattr(module, attr, refuse)
    assert run_all() == expected


def test_parser_is_built_once_and_carries_nothing_between_calls(capsys, tmp_path):
    assert build_parser() is build_parser()
    payload_file = tmp_path / "p.json"
    payload_file.write_text(DECOMPOSE_PAYLOAD)
    argv = ["decompose", "--input", str(payload_file), "--json"]
    code, out, _ = run_main(capsys, argv[:1] + ["--primary"] + argv[1:])
    assert code == 0 and json.loads(out)["primary"] is not None
    code, out, _ = run_main(capsys, argv)
    assert code == 0 and json.loads(out)["primary"] is None
    for bad in (["decompose", "--help"], ["tensor", "--kind", "nope"], []):
        first = run_main(capsys, bad)
        assert first[0] in (0, 2) and run_main(capsys, bad) == first


# -- polynomial time ---------------------------------------------------------------------

def _generic_operator(n, rng, span):
    """S C(f) S^-1 with f monic of degree n and S = L U for unit triangular
    integer L, U: an integer operator with the one invariant factor f."""
    f = Poly.from_ints(QQ, [rng.randint(-2, 2) for _ in range(n)] + [1])

    def unit_lower():
        return Matrix.from_ints(
            QQ, [[1 if i == j else rng.randint(-span, span) if j < i else 0
                  for j in range(n)] for i in range(n)]
        )

    def inverse(T):
        columns = [solve_linear(T, unit_vector(QQ, n, j)) for j in range(n)]
        return Matrix(QQ, ((column[i] for column in columns) for i in range(n)))

    L, U = unit_lower(), unit_lower().transpose()
    return L @ U @ companion_matrix(f) @ inverse(U) @ inverse(L), f


def test_decompose_of_a_generic_20x20_operator_runs_in_polynomial_time(capsys, tmp_path):
    # entries of up to 13 digits; with the self-checks over Q[x] (Bareiss
    # charpoly, Horner annihilation) this took about 5.6 s of process time on
    # a 2-vCPU VM, and takes about 1 s now
    A, f = _generic_operator(20, random.Random(7), 4)
    assert max(len(str(abs(a.value.numerator))) for row in A.entries for a in row) == 13
    payload_file = tmp_path / "p.json"
    payload_file.write_text(json.dumps({"operator": matrix_to_json(A)}))
    start = time.process_time()
    code, out, _ = run_main(capsys, ["decompose", "--json", "--input", str(payload_file)])
    assert time.process_time() - start < 2.5
    assert code == 0
    assert json.loads(out)["invariant_factors"] == [poly_to_json(f)]


@pytest.mark.parametrize(
    "field,n,bound",
    [({"field": "q"}, 40, 3), ({"field": "fp", "p": 101}, 40, 1), ({"field": "qi"}, 20, 0.75)],
    ids=["q-40", "fp101-40", "qi-20"],
)
def test_decompose_of_a_dense_operator_runs_in_polynomial_time(capsys, tmp_path, field, n, bound):
    # entries (and, over Q(i), real and imaginary parts) drawn from [-9, 9];
    # with Paterson-Stockmeyer and the Krylov vectors on boxed fractions this
    # took 7.2-8.5, 2.0-3.0 and 1.6-1.7 s of process time on a 2-vCPU VM,
    # and it takes about 1.1, 0.15 and 0.13 s on the integral lift
    rng = random.Random(f"dense-decompose-{n}")
    if field["field"] == "qi":
        def entry():
            return f"{rng.randint(-9, 9)}{rng.randint(-9, 9):+d}i"
    else:
        def entry():
            return str(rng.randint(-9, 9))
    operator = {**field, "rows": n, "cols": n, "entries": [[entry() for _ in range(n)]
                                                           for _ in range(n)]}
    payload_file = tmp_path / "p.json"
    payload_file.write_text(json.dumps({"operator": operator}))
    start = time.process_time()
    code, out, _ = run_main(capsys, ["decompose", "--json", "--input", str(payload_file)])
    assert time.process_time() - start < bound
    assert code == 0
    report = json.loads(out)
    assert report["self_check"] == "ok"
    assert sum(len(f) - 1 for f in report["invariant_factors"]) == n


def test_standard_tensor_of_20_by_20_runs_in_polynomial_time(capsys, tmp_path):
    # building two dense 400x400 Kronecker products and their difference
    # took about 1.9 s of process time on a 2-vCPU VM; W = 0 is now built
    # without any elimination
    payload_file = tmp_path / "p.json"
    payload_file.write_text(json.dumps({"field": "q", "n": 20, "m": 20}))
    start = time.process_time()
    code, out, _ = run_main(
        capsys, ["tensor", "--kind", "standard", "--json", "--input", str(payload_file)]
    )
    assert time.process_time() - start < 1
    assert code == 0
    report = json.loads(out)
    assert (report["relation_rank"], report["quotient_dim"]) == (0, 400)


@pytest.mark.parametrize(
    "n,m", [(256, 256), (1, STANDARD_MAX_COORDINATES)], ids=["square", "thin"]
)
def test_standard_tensor_at_the_size_bound_runs_quickly(capsys, tmp_path, n, m):
    # about 0.08 s of process time on a 2-vCPU VM, most of it rendering the
    # n*m canonical indices
    assert n * m == STANDARD_MAX_COORDINATES
    payload_file = tmp_path / "p.json"
    payload_file.write_text(json.dumps({"field": "q", "n": n, "m": m}))
    start = time.process_time()
    code, out, _ = run_main(
        capsys, ["tensor", "--kind", "standard", "--json", "--input", str(payload_file)]
    )
    assert time.process_time() - start < 1
    assert code == 0
    report = json.loads(out)
    assert (report["relation_rank"], report["quotient_dim"]) == (0, n * m)
    assert report["canonical_basis"] == list(range(n * m))


@pytest.mark.parametrize(
    "n,m",
    [(1, STANDARD_MAX_COORDINATES + 1), (STANDARD_MAX_COORDINATES + 1, 1), (10**9, 10**9)],
    ids=["one-past-thin", "one-past-tall", "huge"],
)
def test_standard_tensor_past_the_size_bound_exits_two_at_once(capsys, tmp_path, n, m):
    payload_file = tmp_path / "p.json"
    payload_file.write_text(json.dumps({"field": "q", "n": n, "m": m}))
    for flags in ([], ["--json"]):
        start = time.process_time()
        code, out, err = run_main(
            capsys, ["tensor", "--kind", "standard", *flags, "--input", str(payload_file)]
        )
        assert time.process_time() - start < 0.05
        assert (code, out) == (2, "")
        assert err == f"input error: $: standard kind needs n*m <= {STANDARD_MAX_COORDINATES}\n"


# -- determinism ---------------------------------------------------------------------

@pytest.mark.parametrize(
    "args,stdin_text",
    [
        (["demo", "example61"], ""),
        (["demo", "example61", "--json"], ""),
        (["demo", "example61", "--random", "--seed", "3", "--json"], ""),
        (["demo", "branching", "--json"], ""),
        (["demo", "register", "--json"], ""),
        (["snf", "--json"], SNF_PAYLOAD),
        (["decompose", "--primary", "--json"], DECOMPOSE_PAYLOAD),
    ],
    ids=["ex61", "ex61-json", "ex61-random", "branching", "register", "snf", "decompose"],
)
def test_golden_runs_byte_identical(args, stdin_text):
    first = run_cli(args, stdin_text)
    second = run_cli(args, stdin_text)
    assert first.returncode == 0, first.stderr.decode()
    assert second.returncode == 0
    assert first.stdout == second.stdout
    assert first.stdout  # nonempty output


# text renderings of the paths no other test renders, byte for byte
SPLIT_TEXT = (
    'module decomposition over rationals\n'
    'M ~= R/(x - 2) (+) R/(x^5 - 3*x^4 + x^3 + x^2 + 4)\n'
    'free rank: 0\n'
    'invariant factors: x - 2, x^5 - 3*x^4 + x^3 + x^2 + 4\n'
    'flags: torsion=True torsion-free=False free=False\n'
    'minimal generators: 2\n'
    'elementary divisors:\n'
    '  (x - 2) with exponents 1, 2\n'
    '  (x + 1) with exponents 1\n'
    '  (x^2 + 1) with exponents 1\n'
    'self-check: ok\n'
)
QUARTIC_TEXT = (
    'module decomposition over rationals\n'
    'M ~= R/(x^4 + 1)\n'
    'free rank: 0\n'
    'invariant factors: x^4 + 1\n'
    'flags: torsion=True torsion-free=False free=False\n'
    'minimal generators: 1\n'
    'warning: factorization incomplete on x^4 + 1\n'
    'self-check: ok\n'
)
EX61_TEXT = (
    'two-qubit diagonal operator-pair simplification demo\n'
    'A = diag(-2/3, 1), B = diag(-1/3, 0), pi = -2/3, x = (1, 1), y = (3/2, -1/3)\n'
    '  (pi(A) x) (x) y = (-1, 2/9, -1, 2/9)\n'
    '  x (x) (pi(B) y) = (-1, 2/9, -1, 2/9)\n'
    '  both plain tensors project to the same coset: difference in relations = True, '
    'already equal as plain tensors = True\n'
    'A = diag(1, 0), B = diag(2, -2/3), pi = -3/2*x + 1, x = (-2/3, 0), y = (-1, 3)\n'
    '  (pi(A) x) (x) y = (-1/3, 1, 0, 0)\n'
    '  x (x) (pi(B) y) = (-4/3, -4, 0, 0)\n'
    '  both plain tensors project to the same coset: difference in relations = True, '
    'already equal as plain tensors = False\n'
    'A = diag(3, 3/2), B = diag(0, 1), pi = -x^2 - x - 3, x = (1, 0), y = (1, 0)\n'
    '  (pi(A) x) (x) y = (-15, 0, 0, 0)\n'
    '  x (x) (pi(B) y) = (-3, 0, 0, 0)\n'
    '  both plain tensors project to the same coset: difference in relations = True, '
    'already equal as plain tensors = False\n'
    'A = diag(1, 1), B = diag(3/2, 0), pi = -3/2*x - 1/3, x = (3/2, 1/2), y = (1/3, 0)\n'
    '  (pi(A) x) (x) y = (-11/12, 0, -11/36, 0)\n'
    '  x (x) (pi(B) y) = (-31/24, 0, -31/72, 0)\n'
    '  both plain tensors project to the same coset: difference in relations = True, '
    'already equal as plain tensors = False\n'
    'A = diag(1/3, 2), B = diag(1, 1/3), pi = x^2 - 3/2*x - 1, x = (1, 2/3), y = (-2/3, 1)\n'
    '  (pi(A) x) (x) y = (25/27, -25/18, 0, 0)\n'
    '  x (x) (pi(B) y) = (1, -25/18, 2/3, -25/27)\n'
    '  both plain tensors project to the same coset: difference in relations = True, '
    'already equal as plain tensors = False\n'
    'self-check: ok\n'
)
BRANCHING_TEXT = (
    'one-dimensional branching tensor products with twisted scalar moves\n'
    'a = 1: quotient dimension 1\n'
    'a = 0: quotient dimension 0\n'
    'a = 2: quotient dimension 0\n'
    'a = -1: quotient dimension 0\n'
    'a = 1/2: quotient dimension 0\n'
    'caveat: the scalar map c -> a*c is not multiplicative unless a is 0 or 1; '
    'the quotient is computed from the literal relation span\n'
    'self-check: ok\n'
)

# a 6x6 operator whose elementary divisors group by three primes, one of
# them quadratic, and the companion matrix of x^4 + 1, a quartic without
# rational roots whose splitting into quadratics stays undecided
SPLIT_OPERATOR = [[2, 1, 0, 0, 0, 0], [0, 2, 0, 0, 0, 0], [0, 0, 2, 0, 0, 0],
                  [0, 0, 0, -1, 0, 0], [0, 0, 0, 0, 0, -1], [0, 0, 0, 0, 1, 0]]
QUARTIC_OPERATOR = [[0, 0, 0, -1], [1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0]]


@pytest.mark.parametrize(
    "args,operator,expected",
    [
        (["decompose", "--primary"], SPLIT_OPERATOR, SPLIT_TEXT),
        (["decompose", "--primary"], QUARTIC_OPERATOR, QUARTIC_TEXT),
        (["demo", "example61", "--random", "--seed", "3"], None, EX61_TEXT),
        (["demo", "branching"], None, BRANCHING_TEXT),
    ],
    ids=["primary-split", "primary-incomplete", "ex61-random", "branching"],
)
def test_text_rendering_matches_its_golden(capsys, tmp_path, args, operator, expected):
    if operator is not None:
        payload_file = tmp_path / "p.json"
        payload_file.write_text(json.dumps({"operator": _matrix(operator)}))
        args = [*args, "--input", str(payload_file)]
    assert run_main(capsys, args) == (0, expected, "")


# -- command behaviour ------------------------------------------------------------------

def test_decompose_operator_with_primary(capsys, tmp_path):
    payload_file = tmp_path / "p.json"
    payload_file.write_text(DECOMPOSE_PAYLOAD)
    code, out, _ = run_main(
        capsys, ["decompose", "--primary", "--input", str(payload_file), "--json"]
    )
    assert code == 0
    report = json.loads(out)
    assert report["free_rank"] == 0
    assert report["invariant_factors"] == [["-1", "1"], ["-1", "1"]]
    assert report["primary"] == [{"prime": ["-1", "1"], "exponents": [1, 1]}]
    assert report["flags"] == {
        "is_torsion": True,
        "is_torsion_free": False,
        "is_free": False,
    }


def test_decompose_free_presentation(capsys, tmp_path):
    payload = {
        "presentation": {"field": "q", "rows": 2, "cols": 0, "entries": [[], []]}
    }
    payload_file = tmp_path / "p.json"
    payload_file.write_text(json.dumps(payload))
    code, out, _ = run_main(capsys, ["decompose", "--input", str(payload_file)])
    assert code == 0
    assert "M ~= R^2" in out


def test_decompose_incomplete_factorization_is_warning_not_failure(capsys, tmp_path):
    # companion of the rootless quartic (x^2+1)(x^2+2)
    payload = {
        "operator": {
            "field": "q",
            "rows": 4,
            "cols": 4,
            "entries": [
                ["0", "0", "0", "-2"],
                ["1", "0", "0", "0"],
                ["0", "1", "0", "-3"],
                ["0", "0", "1", "0"],
            ],
        }
    }
    payload_file = tmp_path / "p.json"
    payload_file.write_text(json.dumps(payload))
    code, out, _ = run_main(
        capsys, ["decompose", "--primary", "--input", str(payload_file), "--json"]
    )
    assert code == 0
    report = json.loads(out)
    assert report["primary"] is None
    assert "factorization_incomplete" in report["warning"]


def test_decompose_primary_over_prime_field(capsys, tmp_path):
    payload = {
        "operator": {
            "field": "fp",
            "p": 5,
            "rows": 3,
            "cols": 3,
            "entries": [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "2"]],
        }
    }
    payload_file = tmp_path / "p.json"
    payload_file.write_text(json.dumps(payload))
    code, out, _ = run_main(
        capsys, ["decompose", "--primary", "--input", str(payload_file), "--json"]
    )
    assert code == 0
    report = json.loads(out)
    # diag(1, 1, 2) decomposes as (x - 1) | (x - 1)(x - 2)
    assert report["invariant_factors"] == [["4", "1"], ["2", "2", "1"]]
    assert report["primary"] == [
        {"prime": ["3", "1"], "exponents": [1]},
        {"prime": ["4", "1"], "exponents": [1, 1]},
    ]


def test_tensor_standard(capsys, tmp_path):
    payload_file = tmp_path / "p.json"
    payload_file.write_text(json.dumps({"field": "q", "n": 2, "m": 2}))
    code, out, _ = run_main(
        capsys, ["tensor", "--kind", "standard", "--input", str(payload_file), "--json"]
    )
    assert code == 0
    report = json.loads(out)
    assert report["quotient_dim"] == 4
    assert report["relation_rank"] == 0


def test_tensor_opair_with_decomposition(capsys, tmp_path):
    payload = {
        "A": {"field": "q", "rows": 2, "cols": 2, "entries": [["1", "0"], ["0", "2"]]},
        "B": {"field": "q", "rows": 2, "cols": 2, "entries": [["1", "0"], ["0", "3"]]},
    }
    payload_file = tmp_path / "p.json"
    payload_file.write_text(json.dumps(payload))
    code, out, _ = run_main(
        capsys,
        ["tensor", "--kind", "opair", "--decompose", "--input", str(payload_file), "--json"],
    )
    assert code == 0
    report = json.loads(out)
    assert report["quotient_dim"] == 1
    assert report["induced_operator"]["entries"] == [["1"]]
    assert report["induced_decomposition"]["invariant_factors"] == [["-1", "1"]]


def test_tensor_scalar_a_shortcut(capsys):
    code, out, _ = run_main(
        capsys, ["tensor", "--kind", "branching", "--scalar-a", "2", "--json"]
    )
    assert code == 0
    report = json.loads(out)
    assert report["quotient_dim"] == 0
    assert report["caveat"]

    code, out, _ = run_main(
        capsys, ["tensor", "--kind", "branching", "--scalar-a", "1", "--json"]
    )
    assert json.loads(out)["quotient_dim"] == 1


@pytest.mark.parametrize(
    "field, value", [("q", "-1/2"), ("qi", "-i"), ("qi", "-2+3i"), ("fp:7", "-3")]
)
def test_tensor_scalar_a_takes_values_that_start_with_a_minus(capsys, field, value):
    argv = ["tensor", "--kind", "branching", "--field", field, "--json"]
    joined = run_main(capsys, [*argv, f"--scalar-a={value}"])
    assert joined[0] == 0
    assert run_main(capsys, [*argv, "--scalar-a", value]) == joined


def test_tensor_scalar_a_without_a_value_exits_two(capsys):
    code, out, err = run_main(capsys, ["tensor", "--kind", "branching", "--scalar-a"])
    assert code == 2
    assert out == ""
    assert "expected one argument" in err


@pytest.mark.parametrize("literal", ["x", "1e5000", "1e10000000"])
def test_tensor_scalar_a_rejects_bad_literals_quickly(capsys, literal):
    start = time.perf_counter()
    code, out, err = run_main(capsys, ["tensor", "--kind", "branching", "--scalar-a", literal])
    assert time.perf_counter() - start < 1
    assert code == 2
    assert out == ""
    assert "--scalar-a" in err


def test_tensor_scalar_a_accepts_a_large_exponent(capsys):
    code, out, _ = run_main(
        capsys, ["tensor", "--kind", "branching", "--scalar-a", "1e300", "--json"]
    )
    assert code == 0
    assert json.loads(out)["scalar_a"] == "1" + "0" * 300


def test_tensor_dimension_mismatch_exit_two(capsys, tmp_path):
    payload = {
        "A": {"field": "q", "rows": 2, "cols": 2, "entries": [["1", "0"], ["0", "2"]]},
        "B": {"field": "q", "rows": 1, "cols": 2, "entries": [["1", "0"]]},
    }
    payload_file = tmp_path / "p.json"
    payload_file.write_text(json.dumps(payload))
    code, _, _ = run_main(
        capsys, ["tensor", "--kind", "opair", "--input", str(payload_file)]
    )
    assert code == 2


def test_equiv_reports_asymmetry(capsys, tmp_path):
    payload = {
        "A": {"field": "q", "rows": 2, "cols": 2, "entries": [["2", "0"], ["0", "3"]]},
        "B": {"field": "q", "rows": 2, "cols": 2, "entries": [["2", "0"], ["0", "5"]]},
    }
    payload_file = tmp_path / "p.json"
    payload_file.write_text(json.dumps(payload))
    code, out, _ = run_main(
        capsys,
        [
            "equiv",
            "--rules",
            "opair",
            "--input",
            str(payload_file),
            "--lhs",
            "([2,3],[1,1])",
            "--rhs",
            "([1,1],[2,5])",
            "--json",
        ],
    )
    assert code == 0
    report = json.loads(out)
    assert report["equivalent"] is True
    assert report["standard_equivalent"] is False
    assert report["note"]


def test_equiv_identical_expressions(capsys):
    code, out, _ = run_main(
        capsys,
        ["equiv", "--rules", "standard", "--lhs", "([1,2],[3,4])", "--rhs", "([1,2],[3,4])", "--json"],
    )
    assert code == 0
    assert json.loads(out)["equivalent"] is True


def _opair_payload_file(tmp_path):
    payload = {
        "A": {"field": "q", "rows": 2, "cols": 2, "entries": [["2", "0"], ["0", "3"]]},
        "B": {"field": "q", "rows": 2, "cols": 2, "entries": [["2", "0"], ["0", "5"]]},
    }
    payload_file = tmp_path / "p.json"
    payload_file.write_text(json.dumps(payload))
    return str(payload_file)


def test_equiv_opair_sides_equal_as_plain_tensors(capsys, tmp_path):
    argv = ["equiv", "--rules", "opair", "--input", _opair_payload_file(tmp_path)]
    lhs, rhs = "([1,0],[1,0]); ([0,1],[0,1])", "([0,1],[0,1]); ([1,0],[1,0])"
    code, out, _ = run_main(capsys, [*argv, "--lhs", lhs, "--rhs", rhs, "--json"])
    assert code == 0
    report = json.loads(out)
    assert report["equivalent"] is True
    assert report["standard_equivalent"] is True
    assert report["note"] is None
    assert report["difference"] == ["0"] * 4
    # a right-hand side of the wrong shape is refused by the decision itself
    code, out, err = run_main(capsys, [*argv, "--lhs", lhs, "--rhs", "([1,0,0],[1,0])"])
    assert (code, out) == (2, "")
    assert "sequences of different shapes" in err


def test_equiv_decides_once_and_linearizes_one_difference(capsys, tmp_path, monkeypatch):
    # decide_equiv returns the difference it linearised, and cmd_equiv reports
    # that one: one command linearises each side once.  Every ximod module's
    # name for rewrite.linearize is wrapped, so no caller goes uncounted
    from ximod import cli, rewrite

    calls = {"decide_equiv": 0, "linearize": 0}

    def counted(name, inner):
        def wrapper(*args):
            calls[name] += 1
            return inner(*args)

        return wrapper

    monkeypatch.setattr(cli, "decide_equiv", counted("decide_equiv", cli.decide_equiv))
    linearize = counted("linearize", rewrite.linearize)
    for name, module in list(sys.modules.items()):
        if (name == "ximod" or name.startswith("ximod.")) and hasattr(module, "linearize"):
            monkeypatch.setattr(module, "linearize", linearize)
    for argv in (
        ["--rules", "opair", "--input", _opair_payload_file(tmp_path)],
        ["--rules", "standard"],
    ):
        calls.update(decide_equiv=0, linearize=0)
        code, _, _ = run_main(
            capsys, ["equiv", *argv, "--lhs", "([2,3],[1,1])", "--rhs", "([1,1],[2,5])", "--json"]
        )
        assert code == 0
        assert calls == {"decide_equiv": 1, "linearize": 2}


def test_json_output_renders_no_text(capsys, tmp_path, monkeypatch):
    # under --json no handler may build its text lines: make the renderers
    # raise an error main does not catch, and every command must still pass
    from ximod import cli
    from ximod.matrix import DenseMatrix

    def refuse(*_):
        raise AssertionError("text rendered under --json")

    for owner, name in ((cli, "_poly_list"), (cli, "_module_summary"), (DenseMatrix, "__str__")):
        monkeypatch.setattr(owner, name, refuse)
    opair = tmp_path / "opair.json"
    opair.write_text(json.dumps({
        "A": {"field": "q", "rows": 2, "cols": 2, "entries": [["1", "0"], ["0", "2"]]},
        "B": {"field": "q", "rows": 2, "cols": 2, "entries": [["1", "0"], ["0", "3"]]},
    }))
    snf, decompose = tmp_path / "snf.json", tmp_path / "decompose.json"
    snf.write_text(SNF_PAYLOAD)
    decompose.write_text(DECOMPOSE_PAYLOAD)
    commands = [
        ["snf", "--input", str(snf)],
        ["decompose", "--primary", "--input", str(decompose)],
        ["tensor", "--kind", "opair", "--decompose", "--input", str(opair)],
        ["demo", "register"],
    ]
    for argv in commands:
        code, out, _ = run_main(capsys, [*argv, "--json"])
        assert code == 0 and json.loads(out)["self_check"] == "ok"
        with pytest.raises(AssertionError, match="text rendered"):
            main(argv)
        assert capsys.readouterr().out == ""


def test_schmidt_command(capsys, tmp_path):
    payload_file = tmp_path / "p.json"
    payload_file.write_text(
        json.dumps({"field": "q", "n": 2, "m": 2, "coords": ["1", "0", "0", "1"]})
    )
    code, out, _ = run_main(capsys, ["schmidt", "--input", str(payload_file), "--json"])
    assert code == 0
    report = json.loads(out)
    assert report["schmidt_rank"] == 2
    assert report["classification"] == "entangled"


def test_snf_output_feeds_back_as_input(capsys, tmp_path):
    payload_file = tmp_path / "p.json"
    payload_file.write_text(SNF_PAYLOAD)
    code, out, _ = run_main(capsys, ["snf", "--input", str(payload_file), "--json"])
    assert code == 0
    first = json.loads(out)

    again = tmp_path / "d.json"
    again.write_text(json.dumps(first["D"]))
    code, out, _ = run_main(capsys, ["snf", "--input", str(again), "--json"])
    assert code == 0
    second = json.loads(out)
    # the smith form is a fixed point of itself
    assert second["D"] == first["D"]
    assert second["diagonal"] == first["diagonal"]


def test_snf_keeps_declared_shape_without_rows(capsys, tmp_path):
    payload_file = tmp_path / "p.json"
    payload_file.write_text(json.dumps({"field": "q", "rows": 0, "cols": 3, "entries": []}))
    code, out, _ = run_main(capsys, ["snf", "--input", str(payload_file), "--json"])
    assert code == 0
    report = json.loads(out)
    assert (report["rows"], report["cols"]) == (0, 3)
    assert (report["D"]["rows"], report["D"]["cols"]) == (0, 3)
    one, zero = ["1"], []
    assert report["V"]["entries"] == [
        [one if i == j else zero for j in range(3)] for i in range(3)
    ]


# diag(x - 1, x - 2) needs the divisibility repair; the 2x3 matrix is
# [[x, 1, x^2], [x + 1, 0, x^2 + 2]]
SNF_REPAIR = {"rows": 2, "cols": 2, "entries": [[["-1", "1"], ["0"]], [["0"], ["-2", "1"]]]}
SNF_WIDE = {"rows": 2, "cols": 3, "entries": [[["0", "1"], ["1"], ["0", "0", "1"]],
                                              [["1", "1"], ["0"], ["2", "0", "1"]]]}


def _q(rows, cols, entries):
    return {"field": "q", "rows": rows, "cols": cols, "entries": entries}


def _fp7(rows, cols, entries):
    return {"field": "fp", "p": 7, "rows": rows, "cols": cols, "entries": entries}


def _qi(rows, cols, entries):
    return {"field": "qi", "rows": rows, "cols": cols, "entries": entries}


def _g(re, im):
    return {"re": re, "im": im}


# over qi with non-integral gaussian coefficients: a dense 2x2 matrix
# [[x/2 + 1, 1 - i/3], [x^2 - 2i, 3i/4 x + 1/5]], and diag(x - i/2, x - 1/3),
# which needs the divisibility repair
SNF_QI_DENSE = _qi(2, 2, [[[_g("1", "0"), _g("1/2", "0")], [_g("1", "-1/3")]],
                          [[_g("0", "-2"), _g("0", "0"), _g("1", "0")], [_g("1/5", "0"), _g("0", "3/4")]]])
SNF_QI_REPAIR = _qi(2, 2, [[[_g("0", "-1/2"), _g("1", "0")], []],
                           [[], [_g("-1/3", "0"), _g("1", "0")]]])


@pytest.mark.parametrize(
    "flags,payload,expected",
    [
        ([], {"field": "q", **SNF_REPAIR}, {
            "command": "snf", "field": "q", "rows": 2, "cols": 2,
            "U": _q(2, 2, [[["1"], ["-1"]], [["2", "-1"], ["-1", "1"]]]),
            "D": _q(2, 2, [[["1"], []], [[], ["2", "-3", "1"]]]),
            "V": _q(2, 2, [[["1"], ["-2", "1"]], [["1"], ["-1", "1"]]]),
            "diagonal": [["1"], ["2", "-3", "1"]],
            "invariant_factors": [["2", "-3", "1"]], "self_check": "ok"}),
        ([], {"field": "q", **SNF_WIDE}, {
            "command": "snf", "field": "q", "rows": 2, "cols": 3,
            "U": _q(2, 2, [[["1"], []], [[], ["1/3"]]]),
            "D": _q(2, 3, [[["1"], [], []], [[], ["1"], []]]),
            "V": _q(3, 3, [[[], ["1", "-1"], ["2/3", "0", "1/3"]],
                           [["1"], ["0", "-1"], ["0", "-2/3", "1/3"]],
                           [[], ["1"], ["-1/3", "-1/3"]]]),
            "diagonal": [["1"], ["1"]], "invariant_factors": [], "self_check": "ok"}),
        (["--field", "fp:7"], SNF_REPAIR, {
            "command": "snf", "field": "fp", "p": 7, "rows": 2, "cols": 2,
            "U": _fp7(2, 2, [[["1"], ["6"]], [["2", "6"], ["6", "1"]]]),
            "D": _fp7(2, 2, [[["1"], []], [[], ["2", "4", "1"]]]),
            "V": _fp7(2, 2, [[["1"], ["5", "1"]], [["1"], ["6", "1"]]]),
            "diagonal": [["1"], ["2", "4", "1"]],
            "invariant_factors": [["2", "4", "1"]], "self_check": "ok"}),
        ([], SNF_QI_DENSE, {
            "command": "snf", "field": "qi", "rows": 2, "cols": 2,
            "U": _qi(2, 2, [[[_g("9/10", "3/10")], []],
                            [[_g("-576/4325", "-408/4325"), _g("306/865", "-432/865")],
                             [_g("712/865", "216/865")]]]),
            "D": _qi(2, 2, [[[_g("1", "0")], []],
                            [[], [_g("1584/4325", "-7528/4325"), _g("1242/4325", "-2364/4325"),
                                  _g("1", "0")]]]),
            "V": _qi(2, 2, [[[], [_g("1", "0")]],
                            [[_g("1", "0")], [_g("-9/10", "-3/10"), _g("-9/20", "-3/20")]]]),
            "diagonal": [[_g("1", "0")], [_g("1584/4325", "-7528/4325"),
                                          _g("1242/4325", "-2364/4325"), _g("1", "0")]],
            "invariant_factors": [[_g("1584/4325", "-7528/4325"), _g("1242/4325", "-2364/4325"),
                                   _g("1", "0")]],
            "self_check": "ok"}),
        ([], SNF_QI_REPAIR, {
            "command": "snf", "field": "qi", "rows": 2, "cols": 2,
            "U": _qi(2, 2, [[[_g("12/13", "18/13")], [_g("-12/13", "-18/13")]],
                            [[_g("1/3", "0"), _g("-1", "0")], [_g("0", "-1/2"), _g("1", "0")]]]),
            "D": _qi(2, 2, [[[_g("1", "0")], []],
                            [[], [_g("0", "1/6"), _g("-1/3", "-1/2"), _g("1", "0")]]]),
            "V": _qi(2, 2, [[[_g("1", "0")], [_g("-4/13", "-6/13"), _g("12/13", "18/13")]],
                            [[_g("1", "0")], [_g("9/13", "-6/13"), _g("12/13", "18/13")]]]),
            "diagonal": [[_g("1", "0")], [_g("0", "1/6"), _g("-1/3", "-1/2"), _g("1", "0")]],
            "invariant_factors": [[_g("0", "1/6"), _g("-1/3", "-1/2"), _g("1", "0")]],
            "self_check": "ok"}),
    ],
    ids=["repair", "2x3", "repair-fp7", "dense-qi", "repair-qi"],
)
def test_snf_transforms_are_pinned(capsys, tmp_path, flags, payload, expected):
    # the exact stdout, transforms included, of the reduction without a border
    payload_file = tmp_path / "p.json"
    payload_file.write_text(json.dumps(payload))
    code, out, _ = run_main(capsys, ["snf", "--json", *flags, "--input", str(payload_file)])
    assert code == 0
    assert out == json.dumps(expected, indent=2) + "\n"


def test_decompose_singular_square_presentation_has_free_rank(capsys, tmp_path):
    x = ["0", "1"]
    payload = {"presentation": _q(2, 2, [[x, x], [x, x]])}
    payload_file = tmp_path / "p.json"
    payload_file.write_text(json.dumps(payload))
    code, out, _ = run_main(capsys, ["decompose", "--json", "--input", str(payload_file)])
    assert code == 0
    report = json.loads(out)
    assert (report["free_rank"], report["invariant_factors"]) == (1, [x])


@pytest.mark.parametrize(
    "diagonal,message",
    [("one", "do not multiply to the determinant"), ("zero", "free rank disagrees")],
)
def test_decompose_presentation_check_catches_a_tampered_diagonal(
    capsys, tmp_path, monkeypatch, diagonal, message
):
    import ximod.modules as modules

    def tampered(P):
        entry = Poly.one(P.field) if diagonal == "one" else Poly.zero(P.field)
        return [entry] * min(P.rows, P.cols)

    monkeypatch.setattr(modules, "smith_diagonal", tampered)
    payload_file = tmp_path / "p.json"
    payload_file.write_text(json.dumps({"presentation": {"field": "q", **SNF_REPAIR}}))
    code, _, err = run_main(capsys, ["decompose", "--input", str(payload_file)])
    assert code == 3
    assert message in err


def test_field_flag_conflicts_with_payload(capsys, tmp_path):
    payload_file = tmp_path / "p.json"
    payload_file.write_text(SNF_PAYLOAD)
    code, _, err = run_main(
        capsys, ["snf", "--field", "fp:5", "--input", str(payload_file)]
    )
    assert code == 2


def test_large_prime_modulus_is_accepted_quickly(capsys, tmp_path):
    p = 1000000000000000003
    payload_file = tmp_path / "p.json"
    payload_file.write_text(
        json.dumps({"field": "fp", "p": p, "rows": 1, "cols": 1, "entries": [[["1", "1"]]]})
    )
    start = time.process_time()
    code, out, _ = run_main(
        capsys, ["snf", "--field", f"fp:{p}", "--input", str(payload_file), "--json"]
    )
    assert time.process_time() - start < 1
    assert code == 0
    assert json.loads(out)["p"] == p


def test_modulus_beyond_the_primality_bound_exits_two(capsys, tmp_path):
    p = 2**89 - 1  # a Mersenne prime, beyond the bound where primality is decided
    payload_file = tmp_path / "p.json"
    payload_file.write_text(SNF_PAYLOAD)
    code, out, err = run_main(capsys, ["snf", "--field", f"fp:{p}", "--input", str(payload_file)])
    assert (code, out) == (2, "")
    assert err.startswith("input error: --field: modulus") and "too large" in err
    payload_file.write_text(
        json.dumps({"field": "fp", "p": p, "rows": 1, "cols": 1, "entries": [[["1"]]]})
    )
    code, out, err = run_main(capsys, ["snf", "--input", str(payload_file)])
    assert (code, out) == (2, "")
    assert err.startswith("input error: $.p: modulus") and "too large" in err


@pytest.mark.parametrize("flags", [[], ["--json"], ["--primary", "--json"]])
def test_unprintable_computed_coefficient_exits_two(capsys, tmp_path, flags):
    # (x - 10^3000)^2 has a 6001-digit constant term: past Python's int-str limit
    payload = {"operator": {"field": "q", "rows": 2, "cols": 2,
                            "entries": [["1e3000", "1"], ["0", "1e3000"]]}}
    payload_file = tmp_path / "p.json"
    payload_file.write_text(json.dumps(payload))
    code, out, err = run_main(capsys, ["decompose", "--input", str(payload_file), *flags])
    assert (code, out) == (2, "")
    assert err.startswith("input error:")


def test_json_integer_past_the_str_limit_exits_two(capsys, tmp_path):
    payload_file = tmp_path / "p.json"
    payload_file.write_text(
        '{"operator": {"field": "q", "rows": 1, "cols": 1, "entries": [[1' + "0" * 5000 + "]]}}"
    )
    code, out, err = run_main(capsys, ["decompose", "--input", str(payload_file)])
    assert (code, out) == (2, "")
    assert err.startswith("input error:")


@pytest.mark.parametrize("part", ["10000000000000000000000.5", "1.0000000000000001", "1.5",
                                  "true", "null", "[1]"])
def test_a_gaussian_part_that_is_a_json_float_bool_or_null_exits_two(capsys, tmp_path, part):
    # a JSON float would be read through a double: 10^22 + 1/2 as 10^22
    payload_file = tmp_path / "p.json"
    payload_file.write_text('{"operator": {"field": "qi", "rows": 1, "cols": 1, '
                            f'"entries": [[{{"re": "1", "im": {part}}}]]}}}}')
    code, out, err = run_main(capsys, ["decompose", "--json", "--input", str(payload_file)])
    assert (code, out) == (2, "")
    assert err.startswith("input error: $.operator.entries[0][0].im: bad scalar ")
    assert "Traceback" not in err


def _count_lifts(capsys, monkeypatch, tmp_path, argv, payload):
    """How often one command lifts a matrix (`matrix.lift`), with its exit code."""
    from ximod import matrix

    calls, lift = [], matrix.lift
    monkeypatch.setattr(matrix, "lift", lambda *a: calls.append(1) or lift(*a))
    payload_file = tmp_path / "p.json"
    payload_file.write_text(json.dumps(payload))
    code, _, _ = run_main(capsys, [*argv, "--json", "--input", str(payload_file)])
    return code, len(calls)


def test_each_matrix_is_lifted_once_per_command(capsys, monkeypatch, tmp_path):
    # decompose lifts A for the Krylov chains and the cyclic-vector
    # certificate, whose mod-p image is no Matrix; opair lifts A and B for
    # W, its check and the two quotient actions, and the induced operator
    # for its decomposition
    rng = random.Random(29)
    A = [[rng.randint(-4, 4) for _ in range(6)] for _ in range(6)]
    count = _count_lifts(capsys, monkeypatch, tmp_path, ["decompose"], {"operator": _matrix(A)})
    assert count == (0, 1)
    A = [row[:4] for row in A[:4]]
    B = [list(col) for col in zip(*A)]  # similar to A, so the quotient is not zero
    count = _count_lifts(capsys, monkeypatch, tmp_path, ["tensor", "--kind", "opair", "--decompose"],
                         {"A": _matrix(A), "B": _matrix(B)})
    assert count == (0, 3)


_OPERATOR_1x1 = {"field": "q", "rows": 1, "cols": 1, "entries": [["2"]]}
_BOOLEAN_FIELDS = {
    # case: (argv, payload with the field at its accepted value, path of the field)
    "tensor-n": (["tensor", "--kind", "standard"], {"field": "q", "n": 1, "m": 1}, ("n",)),
    "tensor-m": (["tensor", "--kind", "standard"], {"field": "q", "n": 1, "m": 1}, ("m",)),
    "schmidt-n": (["schmidt"], {"field": "q", "n": 1, "m": 1, "coords": ["1"]}, ("n",)),
    "schmidt-m": (["schmidt"], {"field": "q", "n": 1, "m": 1, "coords": ["1"]}, ("m",)),
    "rows": (["decompose"], {"operator": _OPERATOR_1x1}, ("operator", "rows")),
    "cols": (["decompose"], {"operator": _OPERATOR_1x1}, ("operator", "cols")),
    "generators": (
        ["decompose"],
        {"presentation": {"field": "q", "rows": 1, "cols": 1, "entries": [[["1", "1"]]]},
         "generators": 1},
        ("generators",),
    ),
    "p": (["decompose"], {"operator": {**_OPERATOR_1x1, "field": "fp", "p": 2}}, ("operator", "p")),
}


@pytest.mark.parametrize("case", sorted(_BOOLEAN_FIELDS))
def test_json_booleans_are_not_integers(capsys, tmp_path, case):
    # Python's bool is an int, so a JSON true once passed for 1
    argv, payload, path = _BOOLEAN_FIELDS[case]
    payload = json.loads(json.dumps(payload))  # a copy to edit
    payload_file = tmp_path / "p.json"
    payload_file.write_text(json.dumps(payload))
    code, out, _ = run_main(capsys, [*argv, "--json", "--input", str(payload_file)])
    assert code == 0 and json.loads(out)["self_check"] == "ok"
    inner = payload
    for key in path[:-1]:
        inner = inner[key]
    inner[path[-1]] = True
    payload_file.write_text(json.dumps(payload))
    code, out, err = run_main(capsys, [*argv, "--json", "--input", str(payload_file)])
    assert (code, out) == (2, "")
    assert err.startswith("input error: $." + ".".join(path) + ":") and "True" not in err


def test_demo_register_content(capsys):
    code, out, _ = run_main(capsys, ["demo", "register", "--json"])
    assert code == 0
    report = json.loads(out)
    ranks = {s["label"]: s["schmidt_rank"] for s in report["states"]}
    assert ranks["product e1 (x) (f1 + f2)"] == 1
    assert ranks["bell (1,0,0,1)"] == 2
    assert report["opair"]["quotient_dim"] == 1
    assert report["opair"]["induced_invariant_factors"] == [["-1", "1"]]


def test_demo_branching_dims(capsys):
    code, out, _ = run_main(capsys, ["demo", "branching", "--json"])
    assert code == 0
    report = json.loads(out)
    dims = {row["a"]: row["quotient_dim"] for row in report["table"]}
    assert dims == {"1": 1, "0": 0, "2": 0, "-1": 0, "1/2": 0}


def test_demo_example61_membership(capsys):
    code, out, _ = run_main(capsys, ["demo", "example61", "--json"])
    assert code == 0
    report = json.loads(out)
    inst = report["instances"][0]
    assert inst["difference_in_relations"] is True
    assert inst["classes_equal"] is True
    assert inst["standard_equal"] is False
