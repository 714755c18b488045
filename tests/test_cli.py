import dataclasses
import json
import random
import subprocess
import sys
import time

import pytest

from ximod import (
    QQ,
    Matrix,
    OperatorPairKind,
    Poly,
    PolyMatrix,
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
from ximod.matrix import Echelon


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


def test_tensor_check_rejects_a_tampered_induced_operator():
    A = Matrix.from_ints(QQ, [[1, 0], [0, 2]])
    B = Matrix.from_ints(QQ, [[1, 0], [0, 3]])
    W = relation_subspace(OperatorPairKind(A, B), 2, 2)
    induced = induced_operator(W)
    _check_tensor(W, induced)
    with pytest.raises(SelfCheckFailed, match="disagree"):
        _check_tensor(W, induced + Matrix.identity(QQ, induced.rows))


def test_tensor_check_rejects_a_tampered_relation_rank(capsys, tmp_path, monkeypatch):
    # W = everything passes the action check on the empty quotient, but the
    # invariant factors of A and B say the quotient has dimension 1
    def everything(kind, n, m):
        W = relation_subspace(kind, n, m)
        basis = Echelon(QQ)
        for row in Matrix.identity(QQ, n * m).entries:
            basis.push(basis.reduce(row)[0])
        return dataclasses.replace(W, basis=basis)

    monkeypatch.setattr("ximod.cli.relation_subspace", everything)
    payload = {
        "A": {"field": "q", "rows": 2, "cols": 2, "entries": [["1", "0"], ["0", "2"]]},
        "B": {"field": "q", "rows": 2, "cols": 2, "entries": [["1", "0"], ["0", "3"]]},
    }
    payload_file = tmp_path / "p.json"
    payload_file.write_text(json.dumps(payload))
    code, out, err = run_main(capsys, ["tensor", "--kind", "opair", "--input", str(payload_file)])
    assert (code, out) == (3, "")
    assert "quotient dimension disagrees with the invariant factors" in err


def _matrix(rows):
    return {"field": "q", "rows": len(rows), "cols": len(rows),
            "entries": [[str(a) for a in row] for row in rows]}


def test_tensor_runs_without_the_sylvester_matrix_or_rref(capsys, tmp_path, monkeypatch):
    # W is read through its `Echelon` only: no command below may build the
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
    ],
    ids=["repair", "2x3", "repair-fp7"],
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
