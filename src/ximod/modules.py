"""Module structures induced on a vector space by a linear operator.

A square operator A turns K^n into a module over the polynomial ring K[x]:
a polynomial acts through evaluation at A.  Such a module is torsion.  Its
invariant factors are those of x*I - A, but they are read off a smaller
presentation: Krylov chains e, Ae, A^2 e, ... over K present the module by
a k x k polynomial matrix, k the number of chains, and only that matrix
goes through the Smith form.  The chains are formed on the integral lift
A = M / d, each vector scaled by d^t, into one record of their closing
relations and D K^-1 (`_krylov_chains`), and the relations become
polynomials from their lifts, without being boxed.  The decomposition
keeps that presentation with its chain starts (`KrylovPresentation`), on
which the CLI checks it.  Finitely presented modules go through the Smith
form of their presentation matrix directly.
"""
from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Callable

from .errors import DimensionMismatch, InconsistentAction, NonSquare, ZeroVector
from .factor import factor_irreducible
from .fields import Field
from .matrix import Echelon, Matrix, Vector, _Lifted, poly_eval_operator, unit_vector
from .poly import Poly, _from_lift, _value
from .polymatrix import PolyMatrix, smith_diagonal


@dataclass(frozen=True)
class OperatorModule:
    """K^dim with the polynomial action induced by `operator`."""

    field: Field
    dim: int
    operator: Matrix

    def __post_init__(self):
        if self.dim < 1:
            raise DimensionMismatch("module dimension must be at least 1")
        if not self.operator.is_square or self.operator.rows != self.dim:
            raise NonSquare(f"operator must be {self.dim}x{self.dim}")
        if self.operator.field != self.field:
            raise DimensionMismatch("operator field does not match")


@dataclass(frozen=True)
class PresentedModule:
    """Quotient of the free module R^generators by the column span of the
    presentation matrix (one row per generator, one column per relation)."""

    field: Field
    generators: int
    presentation: PolyMatrix

    def __post_init__(self):
        if self.generators < 1:
            raise DimensionMismatch("need at least one generator")
        if self.presentation.rows != self.generators:
            raise DimensionMismatch("presentation must have one row per generator")
        if self.presentation.field != self.field:
            raise DimensionMismatch("presentation field does not match")


@dataclass(frozen=True)
class KrylovPresentation:
    """K^n presented by its Krylov chains: e_j -> g_j, the unit vector with
    index starts[j], maps K[x]^k onto K^n, and column j of the k x k
    `relations`, upper triangular with a monic diagonal, is the closing
    relation sum_i relations[i][j](A) g_i = 0 of chain j."""

    starts: tuple[int, ...]
    relations: PolyMatrix


@dataclass(frozen=True)
class ModuleDecomposition:
    """Free rank plus the monic invariant-factor chain a_1 | a_2 | ...; an
    operator module's decomposition keeps the Krylov presentation it was
    read from, which takes no part in equality."""

    free_rank: int
    invariant_factors: tuple[Poly, ...]
    presentation: KrylovPresentation | None = dataclasses.field(
        default=None, compare=False, repr=False
    )

    def __post_init__(self):
        for f in self.invariant_factors:
            if f.degree < 1:
                raise ValueError("invariant factors must be nonconstant")
            if not f.is_monic:
                raise ValueError("invariant factors must be monic")
        for a, b in zip(self.invariant_factors, self.invariant_factors[1:]):
            if not a.divides(b):
                raise ValueError("invariant factors must form a divisibility chain")

    @property
    def torsion_count(self) -> int:
        return len(self.invariant_factors)


@dataclass(frozen=True)
class PrimaryDecomposition:
    """Elementary divisors grouped by prime, exponents nondecreasing."""

    components: tuple[tuple[Poly, tuple[int, ...]], ...]

    def __post_init__(self):
        primes = [p for p, _ in self.components]
        if len(set(primes)) != len(primes):
            raise ValueError("primes must be pairwise distinct")
        for _, exps in self.components:
            if list(exps) != sorted(exps) or any(e < 1 for e in exps):
                raise ValueError("exponents must be nondecreasing and positive")


@dataclass(frozen=True)
class TorsionFlags:
    is_torsion: bool
    is_torsion_free: bool
    is_free: bool


def module_action(module: OperatorModule, pi: Poly, x: Vector) -> Vector:
    """Act by a polynomial: evaluate it at the operator, then apply."""
    if len(x) != module.dim:
        raise DimensionMismatch(f"vector length {len(x)}, module dimension {module.dim}")
    return poly_eval_operator(pi, module.operator).matvec(x)


def operator_from_action(
    act: Callable[[Poly, Vector], Vector], dim: int, field: Field
) -> Matrix:
    """Recover the defining operator of a polynomial module action.

    The candidate matrix collects act(x, e_j) columnwise; a spot check
    act(x^2, e_j) == A(A e_j) guards against oracles that are not genuine
    module actions.
    """
    if dim < 1:
        raise DimensionMismatch("module dimension must be at least 1")
    x = Poly.x(field)
    basis = [unit_vector(field, dim, j) for j in range(dim)]
    columns = [act(x, e) for e in basis]
    for col in columns:
        if len(col) != dim:
            raise DimensionMismatch("action oracle returned a wrong-sized vector")
    A = Matrix(field, ((columns[j][i] for j in range(dim)) for i in range(dim)))
    x2 = x * x
    for j, e in enumerate(basis):
        if tuple(act(x2, e)) != A.matvec(A.matvec(e)):
            raise InconsistentAction(
                f"act(x^2, e_{j}) disagrees with the squared candidate operator"
            )
    return A


def decompose_operator_module(module: OperatorModule) -> ModuleDecomposition:
    """Invariant factors of the operator-induced module: the nonconstant
    diagonal of the Smith form of its k x k Krylov presentation, where k
    is the number of chains (1 for a generic operator), which the result
    keeps.  Always torsion (free rank 0)."""
    presentation = _krylov_presentation(module.operator)
    diagonal = smith_diagonal(presentation.relations)
    return ModuleDecomposition(
        free_rank=0,
        invariant_factors=tuple(d for d in diagonal if d.degree >= 1),
        presentation=presentation,
    )


def _krylov_chains(ring: _Lifted, M: list, d: int) -> tuple[list, list, list]:
    """The Krylov chains of A = M / d on K^n, M a list of lifted rows, in one
    `Echelon` over K in O(n^3) ring operations.  Krylov vector s enters it
    followed by e_s in K^{n+1}, so a reduced vector that vanishes on its
    first n entries is a relation, with its coefficients in the last n + 1,
    and once the n Krylov vectors are in, its rows read [D I | D K^-T | 0].

    Chain j runs g_j, A g_j, A^2 g_j, ... from the first unit vector g_j
    outside the span so far, until A^{d_j} g_j depends on the vectors
    before it.  Nothing is boxed: the t-th vector of a chain is d^t A^t g_j
    = M (d^(t-1) A^(t-1) g_j), an integral matvec, and it enters with its
    whole K^(2n+1) vector scaled by d^t as the lift (u, d^t).

    Gives the record (chains, inverse, generators) in lifted values.  Chain
    j closes with sum_{i <= j} r_ij(A) g_i = 0; chains[j] is (blocks, den),
    and blocks[i] / den are the coefficients of r_ij, lowest degree first:
    d_i of them for i < j, and d_j + 1 for the monic r_jj, whose last is
    den.  The rows of `inverse` are D K^-1 for the Krylov basis K in chain
    order, and g_j is the unit vector with index generators[j].
    """
    n = len(M)
    echelon = Echelon(ring.field)
    starts, chains, generators = [], [], []
    s = 0  # the number of Krylov vectors so far
    for j in range(n):
        if s == n:
            break
        start = s
        v, scale = [ring.zero] * n, 1  # v = d^t A^t g_j, scale = d^t
        v[j] = ring.one
        while True:
            tail = [ring.zero] * (n + 1)
            tail[s] = ring.of_int(scale)
            w, den = echelon.reduce_lifted(v + tail, scale)
            if echelon.leading(w) >= n:
                break
            echelon.push(w)
            s += 1
            v, scale = [ring.dot(row, v) for row in M], scale * d
        if s > start:  # else e_j is already in the span
            c = w[n:]
            starts.append(start)
            generators.append(j)
            chains.append(([c[a:b] for a, b in zip(starts, starts[1:] + [s + 1])], den))
    return chains, list(zip(*(r[n : 2 * n] for _, r in echelon.basis()))), generators


def _krylov_presentation(A: Matrix) -> KrylovPresentation:
    """Present the module of A by its Krylov chains (`_krylov_chains`) on
    the integral lift A = M / d.

    Chain j closes with A^{d_j} g_j = sum_{i <= j} a_i(A) g_i (deg a_i <
    d_i), and column j is that relation: x^{d_j} - a_j on the diagonal and
    -a_i above it.  The map K[x]^k -> K^n, e_j -> g_j is onto and kills
    every column, and the quotient by the columns has dimension deg det =
    sum d_j = n, so the columns generate all relations.  Each relation is
    the Poly of its lift over its den, which unscales it and keeps x^{d_j}
    monic.
    """
    field = A.field
    ring = _Lifted(field)
    chains, _, generators = _krylov_chains(ring, *ring.rows(A))
    columns = [[_from_lift(field, b, den) for b in blocks] for blocks, den in chains]
    k = len(columns)
    return KrylovPresentation(tuple(generators), PolyMatrix._make(
        field,
        ((col[i] if i < len(col) else Poly.zero(field) for col in columns) for i in range(k)),
        (k, k),
    ))


def decompose_presented_module(module: PresentedModule) -> ModuleDecomposition:
    """Decompose R^g / (column span of the presentation)."""
    nonzero = [d for d in smith_diagonal(module.presentation) if not d.is_zero]
    return ModuleDecomposition(
        free_rank=module.generators - len(nonzero),
        invariant_factors=tuple(d for d in nonzero if d.degree >= 1),
    )


def primary_decomposition(dec: ModuleDecomposition) -> PrimaryDecomposition:
    """Refine the invariant-factor chain into elementary divisors.

    Only the torsion part contributes.  Propagates FactorizationIncomplete
    when an invariant factor resists irreducible factorisation.
    """
    per_prime: dict[Poly, list[int]] = {}
    for factor in dec.invariant_factors:
        for prime, mult in factor_irreducible(factor):
            per_prime.setdefault(prime, []).append(mult)
    components = tuple(
        (prime, tuple(sorted(exps)))
        for prime, exps in sorted(per_prime.items(), key=lambda kv: kv[0].sort_key())
    )
    return PrimaryDecomposition(components=components)


def recombine_invariant_factors(primary: PrimaryDecomposition, field: Field) -> list[Poly]:
    """Rebuild the invariant-factor chain from elementary divisors: the last
    factor takes every prime's largest exponent, and so on down."""
    if not primary.components:
        return []
    r = max(len(exps) for _, exps in primary.components)
    chain = []
    for i in range(r):
        f = Poly.one(field)
        for prime, exps in primary.components:
            k = i - (r - len(exps))
            if k >= 0:
                f = f * prime ** exps[k]
        chain.append(f)
    return chain


def torsion_info(dec: ModuleDecomposition) -> TorsionFlags:
    """Structural torsion flags; freeness and torsion-freeness coincide for
    finitely generated modules over K[x], and that identity is built in."""
    no_torsion = dec.torsion_count == 0
    return TorsionFlags(
        is_torsion=dec.free_rank == 0,
        is_torsion_free=no_torsion,
        is_free=no_torsion,
    )


def minimal_generator_count(dec: ModuleDecomposition) -> int:
    """Fewest generators: one per free summand plus one per invariant factor."""
    return dec.free_rank + dec.torsion_count


def cyclic_witness(x: Vector, y: Vector) -> Matrix:
    """Some matrix A with A x = y, for nonzero x.

    Built from a coordinate functional that sends x to 1: pick the first
    nonzero coordinate x_k and map v -> (v_k / x_k) y.
    """
    if len(x) != len(y):
        raise DimensionMismatch("witness vectors must have equal length")
    if all(c.is_zero for c in x):
        raise ZeroVector("cannot map the zero vector anywhere but zero")
    field = x[0].field
    xs, ys = [_value(field, c) for c in x], [_value(field, c) for c in y]
    k = next(i for i, c in enumerate(xs) if c)
    inv, zero = field.raw_inv(xs[k]), field.canon(0)
    return Matrix._make(
        field, ([b * inv if j == k else zero for j in range(len(x))] for b in ys), (len(y), len(x))
    )
