"""Batch command-line interface.

Every command validates its payload, computes, re-verifies a core identity
of the result, and only then prints.  Exit codes: 0 success, 2 input
error, 3 failed internal self-check.
"""
from __future__ import annotations

import argparse
import functools
import json
import random
import sys
from fractions import Fraction

from .errors import (
    AlgebraError,
    FactorizationIncomplete,
    InputValidationError,
    SelfCheckFailed,
    UnknownDemo,
)
from .fields import QQ, Field
from .jsonio import (
    field_to_json,
    json_int,
    matrix_to_json,
    parse_field_declaration,
    parse_field_name,
    parse_matrix_json,
    parse_poly_json,
    parse_polymatrix_json,
    parse_scalar_json,
    parse_vector_json,
    poly_to_json,
    polymatrix_to_json,
    scalar_to_json,
    vector_to_json,
)
from .matrix import Matrix, kronecker_column, poly_eval_operator
from .modules import (
    ModuleDecomposition,
    OperatorModule,
    PresentedModule,
    decompose_operator_module,
    decompose_presented_module,
    minimal_generator_count,
    primary_decomposition,
    recombine_invariant_factors,
    torsion_info,
)
from .poly import Poly, poly_gcd
from .polymatrix import PolyMatrix, charpoly, smith_diagonal, smith_normal_form
from .rewrite import RuleSet, decide_equiv, format_sequence, linearize, parse_expression
from .tensor import (
    BranchingKind,
    OperatorPairKind,
    StandardKind,
    SubringKind,
    TensorElement,
    induced_operator,
    project_to_quotient,
    quotient_dim,
    relation_subspace,
    scalar_branching_report,
    schmidt_rank,
    simplification_report,
    tensor_coordinates,
)


# -- plumbing -----------------------------------------------------------------

def _load_payload(args) -> dict:
    if getattr(args, "input", None):
        try:
            with open(args.input, "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise InputValidationError("--input", str(exc))
    else:
        text = sys.stdin.read()
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputValidationError("$", f"malformed JSON: {exc}")
    except RecursionError:
        raise InputValidationError("$", "JSON nested too deeply")
    if not isinstance(payload, dict):
        raise InputValidationError("$", "the payload must be a JSON object")
    return payload


def _ambient_field(args) -> Field | None:
    return parse_field_name(args.field) if getattr(args, "field", None) else None


def _emit(args, report: dict, human_lines: list[str]) -> None:
    """Print the report, or its human lines, with the self-check verdict
    last: every caller has run its checks by now."""
    if args.json:
        report["self_check"] = "ok"
        print(json.dumps(report, indent=2))
    else:
        for line in human_lines:
            print(line)
        print("self-check: ok")


def _poly_list(polys) -> str:
    return ", ".join(str(p) for p in polys) if polys else "(none)"


# -- snf ------------------------------------------------------------------------

def _check_smith(P: PolyMatrix, snf) -> None:
    if snf.U @ P @ snf.V != snf.D:
        raise SelfCheckFailed("transforms do not reproduce the diagonal form")
    for name, T in (("U", snf.U), ("V", snf.V)):
        det = T.determinant()
        if det.degree != 0:
            raise SelfCheckFailed(f"{name} is not unimodular (det = {det})")
    diag = snf.diagonal()
    for d in diag:
        if not d.is_zero and not d.is_monic:
            raise SelfCheckFailed("diagonal entries must be monic")
    for a, b in zip(diag, diag[1:]):
        if a.is_zero and not b.is_zero:
            raise SelfCheckFailed("zero diagonal entries must trail")
        if not a.is_zero and not b.is_zero and not a.divides(b):
            raise SelfCheckFailed("divisibility chain broken")


def cmd_snf(args) -> int:
    payload = _load_payload(args)
    P = parse_polymatrix_json(payload, "$", _ambient_field(args))
    snf = smith_normal_form(P)
    _check_smith(P, snf)
    report = {
        "command": "snf",
        **field_to_json(P.field),
        "rows": P.rows,
        "cols": P.cols,
        "U": polymatrix_to_json(snf.U),
        "D": polymatrix_to_json(snf.D),
        "V": polymatrix_to_json(snf.V),
        "diagonal": [poly_to_json(d) for d in snf.diagonal()],
        "invariant_factors": [poly_to_json(d) for d in snf.nonconstant_diagonal()],
    }
    human = [
        f"smith normal form over {P.field.describe()} ({P.rows}x{P.cols})",
        "diagonal: " + _poly_list(snf.diagonal()),
        "invariant factors: " + _poly_list(snf.nonconstant_diagonal()),
        "U =",
        str(snf.U),
        "V =",
        str(snf.V),
    ]
    _emit(args, report, human)
    return 0


# -- decompose -------------------------------------------------------------------

def _decomposition_report(dec: ModuleDecomposition, field: Field, with_primary: bool):
    flags = torsion_info(dec)
    report = {
        "free_rank": dec.free_rank,
        "invariant_factors": [poly_to_json(f) for f in dec.invariant_factors],
        "flags": {
            "is_torsion": flags.is_torsion,
            "is_torsion_free": flags.is_torsion_free,
            "is_free": flags.is_free,
        },
        "minimal_generators": minimal_generator_count(dec),
        "primary": None,
    }
    warning = None
    primary = None
    if with_primary:
        try:
            primary = primary_decomposition(dec)
            rebuilt = recombine_invariant_factors(primary, field)
            if rebuilt != list(dec.invariant_factors):
                raise SelfCheckFailed("elementary divisors do not recombine")
            report["primary"] = [
                {"prime": poly_to_json(p), "exponents": list(exps)}
                for p, exps in primary.components
            ]
        except FactorizationIncomplete as exc:
            warning = {
                "factorization_incomplete": str(exc.remainder),
                "detail": "irreducibility undecided; keeping invariant factors only",
            }
    if warning is not None:
        report["warning"] = warning
    return report, flags, warning, primary


def _module_summary(dec: ModuleDecomposition) -> str:
    parts = []
    if dec.free_rank == 1:
        parts.append("R")
    elif dec.free_rank > 1:
        parts.append(f"R^{dec.free_rank}")
    parts.extend(f"R/({f})" for f in dec.invariant_factors)
    return "M ~= " + (" (+) ".join(parts) if parts else "0")


def _product(polys, field: Field) -> Poly:
    return functools.reduce(Poly.__mul__, polys, Poly.one(field))


def _decompose_operator(A: Matrix) -> ModuleDecomposition:
    return decompose_operator_module(OperatorModule(A.field, A.rows, A))


def _check_presentation(P: PolyMatrix, dec: ModuleDecomposition) -> None:
    """Check a square presentation against its Bareiss determinant: det P
    vanishes exactly when the free rank is positive, and otherwise det P,
    made monic, is the product of the invariant factors."""
    det = P.determinant()
    if det.is_zero != (dec.free_rank > 0):
        raise SelfCheckFailed("free rank disagrees with the determinant of the presentation")
    if not det.is_zero and det.monic() != _product(dec.invariant_factors, P.field):
        raise SelfCheckFailed("invariant factors do not multiply to the determinant")


def cmd_decompose(args) -> int:
    payload = _load_payload(args)
    ambient = _ambient_field(args)
    if ("operator" in payload) == ("presentation" in payload):
        raise InputValidationError(
            "$", 'provide exactly one of "operator" or "presentation"'
        )
    if "operator" in payload:
        A = parse_matrix_json(payload["operator"], "$.operator", ambient)
        if not A.is_square or A.rows < 1:
            raise InputValidationError("$.operator", "operator must be square, size >= 1")
        dec = _decompose_operator(A)
        if _product(dec.invariant_factors, A.field) != charpoly(A):
            raise SelfCheckFailed("invariant factors do not multiply to the charpoly")
        if dec.invariant_factors and not poly_eval_operator(
            dec.invariant_factors[-1], A
        ).is_zero:
            raise SelfCheckFailed("last invariant factor does not annihilate the operator")
        field = A.field
        source = {"kind": "operator", "dim": A.rows}
    else:
        P = parse_polymatrix_json(payload["presentation"], "$.presentation", ambient)
        if P.rows < 1:
            raise InputValidationError("$.presentation", "need at least one generator")
        if payload.get("generators") is not None:
            message = "generators must equal the presentation row count"
            if json_int(payload, "generators", "$", message) != P.rows:
                raise InputValidationError("$.generators", message)
        dec = decompose_presented_module(PresentedModule(P.field, P.rows, P))
        if P.is_square:
            _check_presentation(P, dec)
        field = P.field
        source = {"kind": "presentation", "generators": P.rows, "relations": P.cols}
    body, flags, warning, primary = _decomposition_report(dec, field, args.primary)
    report = {"command": "decompose", **field_to_json(field), **source, **body}
    human = [
        f"module decomposition over {field.describe()}",
        _module_summary(dec),
        f"free rank: {dec.free_rank}",
        "invariant factors: " + _poly_list(dec.invariant_factors),
        f"flags: torsion={flags.is_torsion} torsion-free={flags.is_torsion_free} "
        f"free={flags.is_free}",
        f"minimal generators: {minimal_generator_count(dec)}",
    ]
    if primary is not None:
        human.append("elementary divisors:")
        for prime, exps in primary.components:
            human.append(f"  ({prime}) with exponents {', '.join(str(e) for e in exps)}")
    if warning is not None:
        human.append(
            "warning: factorization incomplete on " + warning["factorization_incomplete"]
        )
    _emit(args, report, human)
    return 0


# -- tensor ----------------------------------------------------------------------

# the largest n*m a standard payload may declare: W = 0 takes no work, but
# the report lists every one of the n*m canonical indices
STANDARD_MAX_COORDINATES = 1 << 16

# kind name -> (kind class, names of its polynomial payload fields)
_OPERATOR_KINDS = {
    "opair": (OperatorPairKind, ()),
    "subring": (SubringKind, ("p",)),
    "branching": (BranchingKind, ("phi", "psi")),
}


def _build_kind(kind_name, payload, ambient):
    if kind_name == "standard":
        field = None
        if payload and "field" in payload:
            field = parse_field_declaration(payload, "$")
            if ambient is not None and field != ambient:
                raise InputValidationError("$.field", "field conflicts with --field")
        field = field or ambient or QQ
        n, m = (json_int(payload, k, "$", 'standard kind needs integers "n" and "m"', 1)
                for k in "nm")
        if n * m > STANDARD_MAX_COORDINATES:
            raise InputValidationError(
                "$", f"standard kind needs n*m <= {STANDARD_MAX_COORDINATES}")
        return StandardKind(field), n, m
    if not payload or "A" not in payload or "B" not in payload:
        raise InputValidationError("$", f'kind {kind_name} needs matrices "A" and "B"')
    A = parse_matrix_json(payload["A"], "$.A", ambient)
    B = parse_matrix_json(payload["B"], "$.B", A.field)
    if not A.is_square or not B.is_square:
        raise InputValidationError("$", "A and B must be square")
    cls, poly_names = _OPERATOR_KINDS[kind_name]
    if any(name not in payload for name in poly_names):
        # a single polynomial is reported at its own path, several at the root
        path = f"$.{poly_names[0]}" if len(poly_names) == 1 else "$"
        quoted = ", ".join(f'"{name}"' for name in poly_names)
        raise InputValidationError(path, f"{kind_name} kind needs polynomials {quoted}")
    polys = (parse_poly_json(A.field, payload[name], f"$.{name}") for name in poly_names)
    return cls(A, B, *polys), A.rows, B.rows


def _check_tensor(W, induced) -> ModuleDecomposition | None:
    """Check an operator-pair W against independent routes and return the
    decomposition of a nonempty induced operator.  The other kinds
    (induced is None) have no check here that could fail."""
    if induced is None:
        return None
    # x acts through A (x) I; on the quotient it must agree with I (x) B
    identity = Matrix.identity(W.field, W.n)
    right = (kronecker_column(identity, W.kind.B, k) for k in W.canonical_indices)
    if W.coset_coordinates(right) != induced:
        raise SelfCheckFailed("left and right actions disagree on the quotient")
    # K[x]/(a) (x) K[x]/(b) = K[x]/gcd(a, b), over the invariant factors of A and B
    a_factors = _decompose_operator(W.kind.A).invariant_factors
    b_factors = _decompose_operator(W.kind.B).invariant_factors
    gcds = [poly_gcd(a, b) for a in a_factors for b in b_factors]
    if quotient_dim(W) != sum(g.degree for g in gcds):
        raise SelfCheckFailed("quotient dimension disagrees with the invariant factors of A and B")
    if induced.rows == 0:
        return None
    dec = _decompose_operator(induced)
    nonconstant = [g for g in gcds if g.degree >= 1]
    diagonal = smith_diagonal(PolyMatrix.diagonal(W.field, nonconstant))
    if tuple(d for d in diagonal if d.degree >= 1) != dec.invariant_factors:
        raise SelfCheckFailed("induced invariant factors disagree with those of A and B")
    return dec


def cmd_tensor(args) -> int:
    ambient = _ambient_field(args)
    if args.scalar_a is not None:
        if args.kind != "branching":
            raise InputValidationError("--scalar-a", "only valid with --kind branching")
        field = ambient or QQ
        a = parse_scalar_json(field, args.scalar_a, "--scalar-a")
        rep = scalar_branching_report(a)
        if not rep.literal_span_agrees:
            raise SelfCheckFailed("literal relation span disagrees with the kind span")
        report = {
            "command": "tensor",
            "kind": "branching",
            **field_to_json(field),
            "n": 1,
            "m": 1,
            "scalar_a": scalar_to_json(a),
            "relation_rank": rep.relation_rank,
            "quotient_dim": rep.quotient_dim,
            "caveat": rep.homomorphism_caveat,
        }
        human = [
            f"branching tensor product of K (x) K over {field.describe()}, "
            f"twist a = {a}",
            f"relation rank: {rep.relation_rank}",
            f"quotient dimension: {rep.quotient_dim}",
        ]
        if rep.homomorphism_caveat:
            human.append("caveat: " + rep.homomorphism_caveat)
        _emit(args, report, human)
        return 0
    payload = _load_payload(args)
    kind, n, m = _build_kind(args.kind, payload, ambient)
    W = relation_subspace(kind, n, m)
    induced = induced_operator(W) if isinstance(kind, OperatorPairKind) else None
    checked = _check_tensor(W, induced)
    induced_dec = checked if args.decompose else None
    induced_body = None
    if induced_dec is not None:
        induced_body, _, _, _ = _decomposition_report(induced_dec, W.field, False)
    report = {
        "command": "tensor",
        "kind": kind.name,
        **field_to_json(W.field),
        "n": n,
        "m": m,
        "relation_rank": W.rank,
        "quotient_dim": quotient_dim(W),
        "canonical_basis": list(W.canonical_indices),
        "induced_operator": matrix_to_json(induced) if induced is not None else None,
        "induced_decomposition": induced_body,
    }
    human = [
        f"{kind.name} tensor product of K^{n} (x) K^{m} over {W.field.describe()}",
        f"relation rank: {W.rank}",
        f"quotient dimension: {quotient_dim(W)}",
        "canonical basis indices: "
        + (", ".join(str(i) for i in W.canonical_indices) or "(none)"),
    ]
    if induced is not None:
        human.append("induced operator =")
        human.append(str(induced) if induced.rows else "(zero-dimensional)")
    if induced_dec is not None:
        human.append("induced invariant factors: " + _poly_list(induced_dec.invariant_factors))
    _emit(args, report, human)
    return 0


# -- equiv -----------------------------------------------------------------------

def cmd_equiv(args) -> int:
    ambient = _ambient_field(args)
    payload = None
    if args.rules != "standard":
        payload = _load_payload(args)
    if args.rules == "standard":
        field = ambient or QQ
        lhs = parse_expression(args.lhs, field)
        rhs = parse_expression(args.rhs, field)
        kind = StandardKind(field)
    else:
        kind, n, m = _build_kind(args.rules, payload, ambient)
        field = kind.A.field
        lhs = parse_expression(args.lhs, field)
        rhs = parse_expression(args.rhs, field)
        if (lhs.n, lhs.m) != (n, m):
            raise InputValidationError(
                "--lhs", f"expression shape {lhs.n}x{lhs.m} does not match operators"
            )
    rules = RuleSet(kind)
    equivalent = decide_equiv(lhs, rhs, rules)
    standard_equivalent = equivalent
    if args.rules != "standard":
        standard_equivalent = decide_equiv(lhs, rhs, RuleSet(StandardKind(field)))
    diff = linearize(lhs) - linearize(rhs)
    note = None
    if equivalent and not standard_equivalent:
        note = (
            "equivalent under the operator rules although not under the "
            "coefficient-only rules"
        )
    report = {
        "command": "equiv",
        "rules": args.rules,
        **field_to_json(field),
        "lhs": format_sequence(lhs),
        "rhs": format_sequence(rhs),
        "equivalent": equivalent,
        "standard_equivalent": standard_equivalent,
        "difference": vector_to_json(diff.coords),
        "note": note,
    }
    human = [
        f"equivalence under {args.rules} rules over {field.describe()}",
        f"lhs: {format_sequence(lhs)}",
        f"rhs: {format_sequence(rhs)}",
        f"equivalent: {equivalent}",
        f"equivalent under standard rules: {standard_equivalent}",
    ]
    if note:
        human.append("note: " + note)
    _emit(args, report, human)
    return 0


# -- schmidt ---------------------------------------------------------------------

def cmd_schmidt(args) -> int:
    payload = _load_payload(args)
    ambient = _ambient_field(args)
    field = ambient
    if "field" in payload:
        declared = parse_field_declaration(payload, "$")
        if field is not None and declared != field:
            raise InputValidationError("$.field", "field conflicts with --field")
        field = declared
    field = field or QQ
    n, m = (json_int(payload, k, "$", 'schmidt needs integers "n" and "m"', 1) for k in "nm")
    coords = parse_vector_json(field, payload.get("coords"), "$.coords")
    if len(coords) != n * m:
        raise InputValidationError("$.coords", f"expected {n * m} coordinates")
    t = TensorElement(field, n, m, coords)
    r = schmidt_rank(t)
    if r > min(n, m):
        raise SelfCheckFailed("rank exceeds both factor dimensions")
    classification = "zero" if r == 0 else ("simple" if r == 1 else "entangled")
    report = {
        "command": "schmidt",
        **field_to_json(field),
        "n": n,
        "m": m,
        "schmidt_rank": r,
        "classification": classification,
    }
    human = [f"schmidt rank over {field.describe()}: {r} ({classification})"]
    _emit(args, report, human)
    return 0


# -- demos -----------------------------------------------------------------------

def _frac(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(-3, 3), rng.randint(1, 3))


def _demo_example61(args) -> int:
    field = QQ
    instances = []
    if args.random:
        rng = random.Random(args.seed)
        for _ in range(5):
            a, b, c, d = (field.scalar(_frac(rng)) for _ in range(4))
            u, v, w, z = (field.scalar(_frac(rng)) for _ in range(4))
            pi = Poly(field, tuple(field.scalar(_frac(rng)) for _ in range(rng.randint(1, 4))))
            instances.append((a, b, c, d, pi, u, v, w, z))
    else:
        a, b = field.from_int(2), field.from_int(3)
        c, d = field.from_int(2), field.from_int(5)
        pi = Poly.from_ints(field, [1, 0, 1])
        u, v, w, z = (field.from_int(k) for k in (1, 2, 1, 1))
        instances.append((a, b, c, d, pi, u, v, w, z))
    reports = []
    for a, b, c, d, pi, u, v, w, z in instances:
        rep = simplification_report(a, b, c, d, pi, u, v, w, z)
        if not rep.difference_in_relations or not rep.classes_equal:
            raise SelfCheckFailed("the two sides do not agree in the quotient")
        reports.append((a, b, c, d, pi, u, v, w, z, rep))
    json_out = {
        "command": "demo",
        "name": "example61",
        **field_to_json(field),
        "instances": [
            {
                "a": scalar_to_json(a),
                "b": scalar_to_json(b),
                "c": scalar_to_json(c),
                "d": scalar_to_json(d),
                "pi": poly_to_json(pi),
                "x": vector_to_json((u, v)),
                "y": vector_to_json((w, z)),
                "left_tensor": vector_to_json(rep.left_tensor.coords),
                "right_tensor": vector_to_json(rep.right_tensor.coords),
                "difference_in_relations": rep.difference_in_relations,
                "classes_equal": rep.classes_equal,
                "standard_equal": rep.standard_equal,
                "quotient_dim": rep.quotient_dim,
                "common_class": vector_to_json(rep.common_class),
            }
            for a, b, c, d, pi, u, v, w, z, rep in reports
        ],
    }
    human = ["two-qubit diagonal operator-pair simplification demo"]
    for a, b, c, d, pi, u, v, w, z, rep in reports:
        human.append(
            f"A = diag({a}, {b}), B = diag({c}, {d}), pi = {pi}, "
            f"x = ({u}, {v}), y = ({w}, {z})"
        )
        human.append(
            f"  (pi(A) x) (x) y = ({', '.join(str(cc) for cc in rep.left_tensor.coords)})"
        )
        human.append(
            f"  x (x) (pi(B) y) = ({', '.join(str(cc) for cc in rep.right_tensor.coords)})"
        )
        human.append(
            "  both plain tensors project to the same coset: "
            f"difference in relations = {rep.difference_in_relations}, "
            f"already equal as plain tensors = {rep.standard_equal}"
        )
    _emit(args, json_out, human)
    return 0


def _demo_branching(args) -> int:
    field = QQ
    values = [
        field.from_int(1),
        field.from_int(0),
        field.from_int(2),
        field.from_int(-1),
        field.scalar(Fraction(1, 2)),
    ]
    rows = []
    for a in values:
        rep = scalar_branching_report(a)
        if not rep.literal_span_agrees:
            raise SelfCheckFailed("literal relation span disagrees with the kind span")
        rows.append(rep)
    json_out = {
        "command": "demo",
        "name": "branching",
        **field_to_json(field),
        "table": [
            {
                "a": scalar_to_json(rep.a),
                "quotient_dim": rep.quotient_dim,
                "relation_rank": rep.relation_rank,
                "caveat": rep.homomorphism_caveat,
            }
            for rep in rows
        ],
    }
    human = ["one-dimensional branching tensor products with twisted scalar moves"]
    for rep in rows:
        human.append(f"a = {rep.a}: quotient dimension {rep.quotient_dim}")
    human.append(
        "caveat: the scalar map c -> a*c is not multiplicative unless a is 0 or 1; "
        "the quotient is computed from the literal relation span"
    )
    _emit(args, json_out, human)
    return 0


def _demo_register(args) -> int:
    field = QQ
    one, zero = field.one(), field.zero()
    A = Matrix.diagonal(field, (field.from_int(1), field.from_int(2)))
    B = Matrix.diagonal(field, (field.from_int(1), field.from_int(3)))
    kind = OperatorPairKind(A, B)
    W = relation_subspace(kind, 2, 2)
    product_state = tensor_coordinates((one, zero), (one, one))
    bell_state = TensorElement(field, 2, 2, (one, zero, zero, one))
    samples = [("product e1 (x) (f1 + f2)", product_state), ("bell (1,0,0,1)", bell_state)]
    induced = induced_operator(W)
    factors = _decompose_operator(induced).invariant_factors if induced.rows else ()
    json_out = {
        "command": "demo",
        "name": "register",
        **field_to_json(field),
        "standard_dim": 4,
        "states": [
            {
                "label": label,
                "coords": vector_to_json(t.coords),
                "schmidt_rank": schmidt_rank(t),
                "class_in_opair_quotient": vector_to_json(
                    project_to_quotient(t, W).canonical
                ),
            }
            for label, t in samples
        ],
        "opair": {
            "A": matrix_to_json(A),
            "B": matrix_to_json(B),
            "relation_rank": W.rank,
            "quotient_dim": quotient_dim(W),
            "induced_operator": matrix_to_json(induced),
            "induced_invariant_factors": [poly_to_json(f) for f in factors],
        },
    }
    human = [
        "two-qubit register: plain product K^2 (x) K^2 has dimension 4",
    ]
    for label, t in samples:
        human.append(f"{label}: schmidt rank {schmidt_rank(t)}")
    human.append(
        f"operator-pair quotient by A = diag(1, 2), B = diag(1, 3): "
        f"dimension {quotient_dim(W)}"
    )
    human.append("induced invariant factors: " + _poly_list(factors))
    _emit(args, json_out, human)
    return 0


def cmd_demo(args) -> int:
    demos = {
        "example61": _demo_example61,
        "branching": _demo_branching,
        "register": _demo_register,
    }
    handler = demos.get(args.name)
    if handler is None:
        raise UnknownDemo(f"unknown demo {args.name!r}; choose from {sorted(demos)}")
    return handler(args)


# -- argument parsing -------------------------------------------------------------

@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process; `parse_args` returns
    a fresh namespace on every call."""
    parser = argparse.ArgumentParser(
        prog="ximod",
        description=(
            "Exact module decompositions over K[x] and generalized tensor "
            "product quotients."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--field", help="ambient field: q, qi, or fp:<p>")
        p.add_argument("--input", help="JSON payload file (default: stdin)")
        p.add_argument("--json", action="store_true", help="machine-readable output")

    p_snf = sub.add_parser("snf", help="Smith normal form of a polynomial matrix")
    common(p_snf)
    p_snf.set_defaults(handler=cmd_snf)

    p_dec = sub.add_parser("decompose", help="invariant-factor decomposition")
    common(p_dec)
    p_dec.add_argument(
        "--primary", action="store_true", help="also compute elementary divisors"
    )
    p_dec.set_defaults(handler=cmd_decompose)

    p_ten = sub.add_parser("tensor", help="generalized tensor product quotient")
    common(p_ten)
    p_ten.add_argument(
        "--kind",
        required=True,
        choices=["standard", "opair", "subring", "branching"],
    )
    p_ten.add_argument(
        "--scalar-a",
        dest="scalar_a",
        help="shortcut: one-dimensional branching instance with twist a",
    )
    p_ten.add_argument(
        "--decompose",
        action="store_true",
        help="decompose the induced operator (opair kind)",
    )
    p_ten.set_defaults(handler=cmd_tensor)

    p_eq = sub.add_parser("equiv", help="decide equivalence of two expressions")
    common(p_eq)
    p_eq.add_argument(
        "--rules",
        required=True,
        choices=["standard", "opair", "subring", "branching"],
    )
    p_eq.add_argument("--lhs", required=True)
    p_eq.add_argument("--rhs", required=True)
    p_eq.set_defaults(handler=cmd_equiv)

    p_sch = sub.add_parser("schmidt", help="rank classification of a tensor element")
    common(p_sch)
    p_sch.set_defaults(handler=cmd_schmidt)

    p_demo = sub.add_parser("demo", help="golden demonstrations")
    common(p_demo)
    p_demo.add_argument("name", help="example61, branching, or register")
    p_demo.add_argument("--random", action="store_true")
    p_demo.add_argument("--seed", type=int, default=0)
    p_demo.set_defaults(handler=cmd_demo)

    return parser


def _attach_scalar_a(argv) -> list[str]:
    """`--scalar-a VALUE` as `--scalar-a=VALUE` when VALUE starts with a
    single '-': argparse reads "-1/2", "-i" or "-2+3i" as an option, since
    only plain negative numbers pass as values."""
    out = []
    for arg in argv:
        if out and out[-1] == "--scalar-a" and arg.startswith("-") and not arg.startswith("--"):
            out[-1] += "=" + arg
        else:
            out.append(arg)
    return out


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(_attach_scalar_a(sys.argv[1:] if argv is None else argv))
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.handler(args)
    except SelfCheckFailed as exc:
        print(f"self-check failed: {exc}", file=sys.stderr)
        return 3
    except AlgebraError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        # Python's int-str limit: a computed coefficient too long to print
        if "integer string conversion" not in str(exc):
            raise
        print(f"input error: {exc}", file=sys.stderr)
        return 2


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
