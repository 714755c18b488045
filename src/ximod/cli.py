"""Batch command-line interface.

Every command handler validates its payload, computes, re-verifies a core
identity of the result, and returns its JSON report together with a
function that yields the text lines.  `main` alone prints, after the
handler has returned: the report with --json, otherwise the text lines,
which are built only then.  Exit codes: 0 success, 2 input error, 3 failed
internal self-check.
"""
from __future__ import annotations

import argparse
import functools
import json
import random
import sys
from fractions import Fraction
from itertools import count
from math import lcm, prod

from .errors import (
    AlgebraError,
    FactorizationIncomplete,
    InputValidationError,
    SelfCheckFailed,
    UnknownDemo,
)
from .factor import _sqrt_minus_one
from .fields import QQ, Field, PrimeField, _is_prime
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
from .matrix import Echelon, Matrix, _Lifted
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
from .polymatrix import PolyMatrix, smith_diagonal, smith_normal_form
from .rewrite import RuleSet, decide_equiv, format_sequence, parse_expression
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
    right_induced_operator,
    scalar_branching_report,
    schmidt_rank,
    simplification_report,
    tensor_coordinates,
)


# -- plumbing -----------------------------------------------------------------

def _load_payload(args) -> dict:
    path = getattr(args, "input", None)
    try:
        if path:
            with open(path, "r", encoding="utf-8") as fh:
                text = fh.read()
        else:
            text = sys.stdin.read()
    except (OSError, UnicodeDecodeError) as exc:  # unreadable, or not UTF-8
        raise InputValidationError("--input" if path else "$", str(exc))
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


def _emit(args, report: dict, human) -> None:
    """Print the report with --json, or else the lines `human()` yields,
    with the self-check verdict last.  Only `main` calls this, once the
    handler has run every check; the text is built in full before the
    first line is printed, so a failure while rendering prints nothing."""
    if args.json:
        report["self_check"] = "ok"
        print(json.dumps(report, indent=2))
    else:
        print("\n".join([*human(), "self-check: ok"]))


def _payload_field(payload: dict, ambient: Field | None) -> Field:
    """The field the payload declares, else --field, else Q."""
    if "field" not in payload:
        return ambient or QQ
    declared = parse_field_declaration(payload, "$")
    if ambient is not None and declared != ambient:
        raise InputValidationError("$.field", "field conflicts with --field")
    return declared


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


def cmd_snf(args):
    payload = _load_payload(args)
    P = parse_polymatrix_json(payload, "$", _ambient_field(args))
    if not P.rows and P.cols * P.cols > STANDARD_MAX_COORDINATES:  # V = I_cols
        raise InputValidationError(
            "$.cols", f"a matrix without rows needs cols^2 <= {STANDARD_MAX_COORDINATES}")
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

    def human():
        yield f"smith normal form over {P.field.describe()} ({P.rows}x{P.cols})"
        yield "diagonal: " + _poly_list(snf.diagonal())
        yield "invariant factors: " + _poly_list(snf.nonconstant_diagonal())
        yield from ("U =", str(snf.U), "V =", str(snf.V))

    return report, human


# -- decompose -------------------------------------------------------------------

def _decomposition_report(dec: ModuleDecomposition, field: Field, with_primary: bool):
    """The JSON body of a decomposition, and a function that yields its text
    lines after the heading."""
    flags = torsion_info(dec)
    body = {
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
    primary = None
    if with_primary:
        try:
            primary = primary_decomposition(dec)
            rebuilt = recombine_invariant_factors(primary, field)
            if rebuilt != list(dec.invariant_factors):
                raise SelfCheckFailed("elementary divisors do not recombine")
            body["primary"] = [
                {"prime": poly_to_json(p), "exponents": list(exps)}
                for p, exps in primary.components
            ]
        except FactorizationIncomplete as exc:
            body["warning"] = {
                "factorization_incomplete": str(exc.remainder),
                "detail": "irreducibility undecided; keeping invariant factors only",
            }

    def human():
        yield _module_summary(dec)
        yield f"free rank: {dec.free_rank}"
        yield "invariant factors: " + _poly_list(dec.invariant_factors)
        yield (f"flags: torsion={flags.is_torsion} torsion-free={flags.is_torsion_free} "
               f"free={flags.is_free}")
        yield f"minimal generators: {body['minimal_generators']}"
        if primary is not None:
            yield "elementary divisors:"
            for prime, exps in primary.components:
                yield f"  ({prime}) with exponents {', '.join(str(e) for e in exps)}"
        if "warning" in body:
            remainder = body["warning"]["factorization_incomplete"]
            yield "warning: factorization incomplete on " + remainder

    return body, human


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


# the primes at which `_check_operator` takes Krylov ranks over Q and Q(i):
# p = 1 (mod 4) below 2^30, largest first, each with s, s^2 = -1 mod p, so
# that i -> s is a ring map Z[i] -> F_p; found as the check asks for them
_CERTIFICATE_PRIMES: list[tuple[PrimeField, int]] = []


def _certificate_prime(i: int) -> tuple[PrimeField, int]:
    """(F_p, s) for the i-th prime of `_CERTIFICATE_PRIMES`, found first if
    the list is shorter."""
    while len(_CERTIFICATE_PRIMES) <= i:
        p = _CERTIFICATE_PRIMES[-1][0].p - 4 if _CERTIFICATE_PRIMES else 2**30 - 3
        while not _is_prime(p):
            p -= 4
        _CERTIFICATE_PRIMES.append((PrimeField(p), _sqrt_minus_one(p)))
    return _CERTIFICATE_PRIMES[i]


def _check_operator(A: Matrix, dec: ModuleDecomposition) -> None:
    """Check the invariant factors f_1 | ... | f_r of the n x n operator A
    on the Krylov presentation that `dec` keeps: chain starts g_j, unit
    vectors, and a k x k upper-triangular P with a monic diagonal and
    sum deg P_jj = n.  Everything runs on A's kept lift A = M / d, where
    the integral M^t g_j stands for d^t A^t g_j.

    The n vectors M^t g_j, t < deg P_jj, are pushed into an `Echelon` mod
    p: over F_p in the field itself, where the rank is exact; over Q and
    Q(i) at the primes of `_CERTIFICATE_PRIMES` with i -> s, until the rank
    is n, or until the primes' product exceeds the Hadamard bound of their
    determinant (of its norm over Q(i)), which every prime tried divides,
    so that it is zero.  Each column's closing relation sum_i P_ij(A) g_i
    = 0 is tested exactly, as an integral sum of such vectors.  Rank n
    makes e_j -> g_j map K[x]^k onto K^n; it kills P K[x]^k, whose quotient
    has dimension deg det P = n, so K^n = K[x]^k / P K[x]^k.  Hence chi_A =
    prod P_jj, to which the f_i must multiply, and the g_j generate K^n, so
    f_r annihilates A when f_r(A) g_j = 0 for every j.  With f_r = q P_jj +
    r, the relation of column j makes f_r(A) g_j = r(A) g_j - sum_{i<j}
    (q P_ij)(A) g_i, which is tested instead: zero with no product when f_r
    = P_11 and k = 1, and in general a few more vectors of the first chains
    instead of deg f_r of every chain.

    Any chain whose product is chi_A and whose last factor is a multiple of
    mu_A passes: chi_A alone for a derogatory A, for one.
    """
    field, n, factors = A.field, A.rows, dec.invariant_factors
    if dec.presentation is None:
        raise SelfCheckFailed("the decomposition keeps no Krylov presentation")
    starts, P = dec.presentation.starts, dec.presentation.relations
    k, diagonal = len(starts), P.diagonal_entries()
    if (P.field != field or (P.rows, P.cols) != (k, k)
            or any(not 0 <= g < n for g in starts)
            or any(not P.values[i][j].is_zero for j in range(k) for i in range(j + 1, k))
            or not all(e.is_monic for e in diagonal) or sum(e.degree for e in diagonal) != n):
        raise SelfCheckFailed("the Krylov presentation is not triangular of degree n")
    if sum(f.degree for f in factors) != n:
        raise SelfCheckFailed("invariant factors do not multiply to the charpoly")
    ring = _Lifted(field)
    M, d = ring.rows(A)
    chains = [[[ring.one if a == g else ring.zero for a in range(n)]] for g in starts]

    def krylov(j, length) -> list:
        """M^t g_j for t < length, each one matrix-vector product from the one
        before, kept for the next call."""
        chain = chains[j]
        while len(chain) < length:
            chain.append([ring.dot(row, chain[-1]) for row in M])
        return chain[:length]

    def vanishes(terms) -> bool:
        """Whether sum e(A) g_j = 0 over the (e, j) terms: with each e stored
        as u / den, L d^T times it, exactly, L the lcm of the dens and T the
        highest degree."""
        terms = [(e, j) for e, j in terms if not e.is_zero]
        if not terms:
            return True
        T, L = max(e.degree for e, _ in terms), lcm(*(e.den for e, _ in terms))
        coeffs, vectors = [], []
        for e, j in terms:
            coeffs += (ring.scale(L // e.den * d ** (T - t), c) for t, c in enumerate(e.u))
            vectors += krylov(j, len(e.u))
        return all(ring.dot(coeffs, column) == ring.zero for column in zip(*vectors))

    if not all(vanishes((P.values[i][j], i) for i in range(j + 1)) for j in range(k)):
        raise SelfCheckFailed("a closing relation of the Krylov presentation fails")
    basis = [v for j, e in enumerate(diagonal) for v in krylov(j, e.degree)]
    product, bound = 1, None
    for i in count():
        F, s = (field, 0) if ring.p else _certificate_prime(i)
        ech, p = Echelon(F), F.p
        for t, v in enumerate(basis):
            image = [(a + b * s) % p for a, b in v] if ring.gaussian else [a % p for a in v]
            ech.push(ech.reduce_lifted(image, 1)[0])
            if len(ech.pivots) == t:  # v lies in the span of the vectors before it mod p
                break
        if len(ech.pivots) == n:
            break
        product *= p
        if bound is None:  # |det|^2 <= prod |v|^2 (Hadamard)
            bound = prod(sum(x * x for a in v for x in (a if ring.gaussian else (a,))) for v in basis)
        if ring.p or product ** (1 if ring.gaussian else 2) > bound:
            raise SelfCheckFailed("the Krylov vectors of the presentation are dependent")
    for j in range(k):  # f_r(A) g_j, reduced by the relation of column j
        q, r = divmod(factors[-1], diagonal[j])
        if not vanishes([(r, j)] + [(-(q * P.values[i][j]), i) for i in range(j)]):
            raise SelfCheckFailed("last invariant factor does not annihilate the operator")
    # the factors that the two products share cancel first
    left, right = list(factors), []
    for e in diagonal:
        if e in left:
            left.remove(e)
        else:
            right.append(e)
    if _product(left, field) != _product(right, field):
        raise SelfCheckFailed("invariant factors do not multiply to the charpoly")


def cmd_decompose(args):
    """`ximod decompose`: the invariant factors (and with --primary the
    elementary divisors) of an operator module K^n, checked by
    `_check_operator`, or of a presented module, checked against the
    presentation's determinant when it is square."""
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
        _check_operator(A, dec)
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
    body, body_lines = _decomposition_report(dec, field, args.primary)
    report = {"command": "decompose", **field_to_json(field), **source, **body}

    def human():
        yield f"module decomposition over {field.describe()}"
        yield from body_lines()

    return report, human


# -- tensor ----------------------------------------------------------------------

# the largest n*m a standard payload may declare: W = 0 takes no work, but
# the report lists every one of the n*m canonical indices; also the most
# entries of V = I_cols for an `snf` payload without rows, whose cols no
# entry bounds
STANDARD_MAX_COORDINATES = 1 << 16

# kind name -> (kind class, names of its polynomial payload fields)
_OPERATOR_KINDS = {
    "opair": (OperatorPairKind, ()),
    "subring": (SubringKind, ("p",)),
    "branching": (BranchingKind, ("phi", "psi")),
}


def _build_kind(kind_name, payload, ambient):
    if kind_name == "standard":
        field = _payload_field(payload, ambient)
        n, m = (json_int(payload, k, "$", 'standard kind needs integers "n" and "m"', 1)
                for k in "nm")
        if n * m > STANDARD_MAX_COORDINATES:
            raise InputValidationError(
                "$", f"standard kind needs n*m <= {STANDARD_MAX_COORDINATES}")
        return StandardKind(field), n, m
    if "A" not in payload or "B" not in payload:
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
    # each stored row Y of W^perp, n x m, must satisfy A^T Y = Y B; the rows
    # are independent (D at distinct coordinates), so with the count below
    # they span W^perp, and W is its annihilator
    if not W.D or sorted(W.canonical_indices + W.pivots) != list(range(W.n * W.m)):
        raise SelfCheckFailed("the stored rows of the relation annihilator are not independent")
    if not W.contains_image(W.kind.A, W.kind.B):
        raise SelfCheckFailed("a stored row Y of the relation annihilator fails A^T Y = Y B")
    # x acts through A (x) I; on the quotient it must agree with I (x) B
    if right_induced_operator(W) != induced:
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


def _scalar_branching(a):
    """The checked one-dimensional branching report for the twist a."""
    rep = scalar_branching_report(a)
    if not rep.literal_span_agrees:
        raise SelfCheckFailed("literal relation span disagrees with the kind span")
    return rep


def _tensor_scalar_a(args, ambient):
    if args.kind != "branching":
        raise InputValidationError("--scalar-a", "only valid with --kind branching")
    field = ambient or QQ
    a = parse_scalar_json(field, args.scalar_a, "--scalar-a")
    rep = _scalar_branching(a)
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

    def human():
        yield f"branching tensor product of K (x) K over {field.describe()}, twist a = {a}"
        yield f"relation rank: {rep.relation_rank}"
        yield f"quotient dimension: {rep.quotient_dim}"
        if rep.homomorphism_caveat:
            yield "caveat: " + rep.homomorphism_caveat

    return report, human


def cmd_tensor(args):
    ambient = _ambient_field(args)
    if args.scalar_a is not None:
        return _tensor_scalar_a(args, ambient)
    kind, n, m = _build_kind(args.kind, _load_payload(args), ambient)
    W = relation_subspace(kind, n, m)
    induced = induced_operator(W) if isinstance(kind, OperatorPairKind) else None
    checked = _check_tensor(W, induced)
    induced_dec = checked if args.decompose else None
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
        "induced_decomposition": (
            _decomposition_report(induced_dec, W.field, False)[0]
            if induced_dec is not None else None
        ),
    }

    def human():
        yield f"{kind.name} tensor product of K^{n} (x) K^{m} over {W.field.describe()}"
        yield f"relation rank: {W.rank}"
        yield f"quotient dimension: {report['quotient_dim']}"
        yield "canonical basis indices: " + (", ".join(map(str, W.canonical_indices)) or "(none)")
        if induced is not None:
            yield "induced operator ="
            yield str(induced) if induced.rows else "(zero-dimensional)"
        if induced_dec is not None:
            yield "induced invariant factors: " + _poly_list(induced_dec.invariant_factors)

    return report, human


# -- equiv -----------------------------------------------------------------------

def cmd_equiv(args):
    ambient = _ambient_field(args)
    if args.rules == "standard":
        kind = StandardKind(ambient or QQ)
        field, shape = kind.field, None
    else:
        kind, n, m = _build_kind(args.rules, _load_payload(args), ambient)
        field, shape = kind.A.field, (n, m)
    lhs = parse_expression(args.lhs, field)
    rhs = parse_expression(args.rhs, field)
    if shape not in (None, (lhs.n, lhs.m)):
        raise InputValidationError(
            "--lhs", f"expression shape {lhs.n}x{lhs.m} does not match operators"
        )
    # decide_equiv checks the shapes first; the standard rules have W = 0,
    # so equivalence under them is a zero difference
    equivalent, diff = decide_equiv(lhs, rhs, RuleSet(kind))
    standard_equivalent = diff.is_zero
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

    def human():
        yield f"equivalence under {args.rules} rules over {field.describe()}"
        yield f"lhs: {report['lhs']}"
        yield f"rhs: {report['rhs']}"
        yield f"equivalent: {equivalent}"
        yield f"equivalent under standard rules: {standard_equivalent}"
        if note:
            yield "note: " + note

    return report, human


# -- schmidt ---------------------------------------------------------------------

def cmd_schmidt(args):
    payload = _load_payload(args)
    field = _payload_field(payload, _ambient_field(args))
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

    def human():
        yield f"schmidt rank over {field.describe()}: {r} ({classification})"

    return report, human


# -- demos -----------------------------------------------------------------------

def _frac(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(-3, 3), rng.randint(1, 3))


def _demo_example61(args):
    field = QQ
    rng = random.Random(args.seed)

    def draw():
        return field.scalar(_frac(rng))

    instances, rows = [], []
    for _ in range(5 if args.random else 1):
        if args.random:
            a, b, c, d, u, v, w, z = (draw() for _ in range(8))
            pi = Poly(field, tuple(draw() for _ in range(rng.randint(1, 4))))
        else:
            a, b, c, d, u, v, w, z = (field.from_int(k) for k in (2, 3, 2, 5, 1, 2, 1, 1))
            pi = Poly.from_ints(field, [1, 0, 1])
        rep = simplification_report(a, b, c, d, pi, u, v, w, z)
        if not rep.difference_in_relations or not rep.classes_equal:
            raise SelfCheckFailed("the two sides do not agree in the quotient")
        instances.append({
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
        })
        rows.append((a, b, c, d, pi, u, v, w, z, rep))
    report = {"command": "demo", "name": "example61", **field_to_json(field),
              "instances": instances}

    def human():
        yield "two-qubit diagonal operator-pair simplification demo"
        for a, b, c, d, pi, u, v, w, z, rep in rows:
            yield (f"A = diag({a}, {b}), B = diag({c}, {d}), pi = {pi}, "
                   f"x = ({u}, {v}), y = ({w}, {z})")
            yield f"  (pi(A) x) (x) y = ({', '.join(map(str, rep.left_tensor.coords))})"
            yield f"  x (x) (pi(B) y) = ({', '.join(map(str, rep.right_tensor.coords))})"
            yield ("  both plain tensors project to the same coset: "
                   f"difference in relations = {rep.difference_in_relations}, "
                   f"already equal as plain tensors = {rep.standard_equal}")

    return report, human


def _demo_branching(args):
    field = QQ
    values = [*(field.from_int(k) for k in (1, 0, 2, -1)), field.scalar(Fraction(1, 2))]
    rows = [_scalar_branching(a) for a in values]
    report = {
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

    def human():
        yield "one-dimensional branching tensor products with twisted scalar moves"
        for rep in rows:
            yield f"a = {rep.a}: quotient dimension {rep.quotient_dim}"
        yield ("caveat: the scalar map c -> a*c is not multiplicative unless a is 0 or 1; "
               "the quotient is computed from the literal relation span")

    return report, human


def _demo_register(args):
    field = QQ
    one, zero = field.one(), field.zero()
    A = Matrix.from_ints(field, [[1, 0], [0, 2]])
    B = Matrix.from_ints(field, [[1, 0], [0, 3]])
    W = relation_subspace(OperatorPairKind(A, B), 2, 2)
    product_state = tensor_coordinates((one, zero), (one, one))
    bell_state = TensorElement(field, 2, 2, (one, zero, zero, one))
    samples = [("product e1 (x) (f1 + f2)", product_state), ("bell (1,0,0,1)", bell_state)]
    induced = induced_operator(W)
    factors = _decompose_operator(induced).invariant_factors if induced.rows else ()
    report = {
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

    def human():
        yield "two-qubit register: plain product K^2 (x) K^2 has dimension 4"
        for state in report["states"]:
            yield f"{state['label']}: schmidt rank {state['schmidt_rank']}"
        yield (f"operator-pair quotient by A = diag(1, 2), B = diag(1, 3): "
               f"dimension {report['opair']['quotient_dim']}")
        yield "induced invariant factors: " + _poly_list(factors)

    return report, human


def cmd_demo(args):
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
        choices=["standard", *_OPERATOR_KINDS],
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
        choices=["standard", *_OPERATOR_KINDS],
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
        report, human = args.handler(args)
        _emit(args, report, human)
        return 0
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
