"""Generalized tensor products as computable quotient spaces.

Every product lives on the nm coordinates of the plain tensor square, with
basis order e_i (x) f_j -> i*m + j.  A product flavour is an operator
pair (M, N), given by its `operators` method.  It contributes the relation
subspace W = im(M (x) I - I (x) N), and the product itself is the quotient
by W:

  * standard          (M, N) = (I, I)             W = 0
  * operator pair     (M, N) = (A, B)
  * subring (by p)    (M, N) = (p(A), p(B))
  * branching         (M, N) = (phi(A), psi(B))

The image of the degree-one difference operator really does span all
rewriting differences: a pair exchange moving pi across the tensor sign
contributes pi(M) x (x) y - x (x) pi(N) y, and the telescoping identity

  M^k (x) I - I (x) N^k = sum_i (M (x) I - I (x) N) (M^i (x) N^(k-1-i))

drops every higher-degree generator into the image of M (x) I - I (x) N,
while constants contribute nothing.  This linear-algebra reading of the
rewriting rules is validated against the breadth-first closure oracle in
the rewrite module at finite-field scale.

Cosets are represented canonically on the coordinates that are not pivots
of W, which index a basis of the quotient.  W is never eliminated itself:
under the trace pairing its annihilator is W^perp = {Y : M^T Y = Y N}, the
module maps (K^m, N) -> (K^n, M^T), of dimension q = sum deg gcd(a_i, b_j)
over the invariant factors of M and N, which is small whenever the quotient
is.  A basis of W^perp comes from the record of the Krylov chains of N on
the integral lifts (`modules._krylov_chains`), and the `basis` of one
fraction-free `matrix.Echelon` of those q vectors, with the coordinates
reversed, gives both the canonical coordinates and the coset map
(`RelationSubspace`).  That basis also tells whether W contains the image
of another pair (M', N'): exactly when M'^T Y = Y N' for each of its Y
(`RelationSubspace.contains_image`).  Scalars are checked and unboxed
where they come in (`RelationSubspace.reduce` and `contains`,
`project_to_quotient`) and boxed where they go out.
"""
from __future__ import annotations

from dataclasses import dataclass, field as dataclass_field
from math import gcd
from typing import Union

from .errors import DimensionMismatch, TagMismatch, WrongKind
from .fields import Field, Scalar
from .matrix import (
    Echelon,
    Matrix,
    Vector,
    _Lifted,
    _vector,
    poly_eval_operator,
    rref,
    sylvester_operator,
)
from .modules import _krylov_chains
from .poly import Poly, _box, _times, lift


# -- tensor elements ----------------------------------------------------------

@dataclass(frozen=True)
class TensorElement:
    """A vector of nm coordinates on the plain tensor square, each a Scalar
    of `field`."""

    field: Field
    n: int
    m: int
    coords: tuple[Scalar, ...]

    def __post_init__(self):
        if len(self.coords) != self.n * self.m:
            raise DimensionMismatch(
                f"expected {self.n * self.m} coordinates, got {len(self.coords)}"
            )
        field = self.field
        if any(c.field is not field and c.field != field for c in self.coords):
            raise TagMismatch("tensor coordinates over another field")

    def __add__(self, other: "TensorElement") -> "TensorElement":
        self._check(other)
        return TensorElement(
            self.field, self.n, self.m, tuple(a + b for a, b in zip(self.coords, other.coords))
        )

    def __sub__(self, other: "TensorElement") -> "TensorElement":
        self._check(other)
        return TensorElement(
            self.field, self.n, self.m, tuple(a - b for a, b in zip(self.coords, other.coords))
        )

    def scale(self, c: Scalar) -> "TensorElement":
        return TensorElement(self.field, self.n, self.m, tuple(c * a for a in self.coords))

    def _check(self, other: "TensorElement"):
        if self.field != other.field:
            raise TagMismatch("tensor elements over different fields")
        if (self.n, self.m) != (other.n, other.m):
            raise DimensionMismatch("tensor elements of different shapes")

    @property
    def is_zero(self) -> bool:
        return all(a.is_zero for a in self.coords)

    def reshape(self) -> Matrix:
        """The n x m coefficient matrix of the tensor."""
        return Matrix(
            self.field,
            ((self.coords[i * self.m + j] for j in range(self.m)) for i in range(self.n)),
        )

    @classmethod
    def zero(cls, field: Field, n: int, m: int) -> "TensorElement":
        return cls(field, n, m, tuple(field.zero() for _ in range(n * m)))


def tensor_coordinates(x: Vector, y: Vector) -> TensorElement:
    """Coordinates of the simple tensor x (x) y."""
    if not x or not y:
        raise DimensionMismatch("tensor factors must be nonempty")
    field = x[0].field
    for c in x + y:
        if c.field != field:
            raise TagMismatch("tensor factors over different fields")
    coords = tuple(a * b for a in x for b in y)
    return TensorElement(field, len(x), len(y), coords)


# -- product flavours ---------------------------------------------------------

@dataclass(frozen=True)
class StandardKind:
    """The plain tensor product: scalars move across the tensor sign."""

    field: Field

    name = "standard"

    def operators(self, n: int, m: int) -> tuple[Matrix, Matrix]:
        """(I_n, I_m): the Sylvester image is zero."""
        return Matrix.identity(self.field, n), Matrix.identity(self.field, m)


@dataclass(frozen=True)
class OperatorPairKind:
    """Polynomials move across the tensor sign, acting through A and B."""

    A: Matrix
    B: Matrix

    name = "opair"

    def operators(self, n: int, m: int) -> tuple[Matrix, Matrix]:
        return self.A, self.B


@dataclass(frozen=True)
class SubringKind:
    """Only polynomials in p(x) move across the tensor sign."""

    A: Matrix
    B: Matrix
    p: Poly

    name = "subring"

    def operators(self, n: int, m: int) -> tuple[Matrix, Matrix]:
        return poly_eval_operator(self.p, self.A), poly_eval_operator(self.p, self.B)


@dataclass(frozen=True)
class BranchingKind:
    """Polynomials move with different substitutions on the two sides:
    through phi(A) on the left and psi(B) on the right."""

    A: Matrix
    B: Matrix
    phi: Poly
    psi: Poly

    name = "branching"

    def operators(self, n: int, m: int) -> tuple[Matrix, Matrix]:
        return poly_eval_operator(self.phi, self.A), poly_eval_operator(self.psi, self.B)


TensorKind = Union[StandardKind, OperatorPairKind, SubringKind, BranchingKind]


@dataclass(frozen=True)
class RelationSubspace:
    """The subspace W of coordinate space whose quotient is the product.

    W is held through its annihilator W^perp = {Y : M^T Y = Y N}, Y an n x m
    matrix on the same coordinates and (M, N) the kind's pair, in the form
    the coset map reads.  W^perp has one row for each of the q
    `canonical_indices` I, equal to D there and zero on the rest of I; X is
    the q x (nm - q) matrix of their entries on W's `pivots` P, the other
    coordinates.  The entries of X are lifted values (see `poly.lift`) and
    D is a positive integer (1 over F_p), so the class of v = u / L has the
    coordinates (D u_I + X u_P) / (D L) on I.
    """

    kind: TensorKind
    field: Field
    n: int
    m: int
    canonical_indices: tuple[int, ...] = dataclass_field(compare=False, repr=False)
    pivots: tuple[int, ...] = dataclass_field(compare=False, repr=False)
    X: tuple[tuple, ...] = dataclass_field(compare=False, repr=False)
    D: int = dataclass_field(compare=False, repr=False)

    @property
    def generator_matrix(self) -> Matrix:
        """The Sylvester operator, whose columns span W; built on demand."""
        return sylvester_operator(*self.kind.operators(self.n, self.m))

    @property
    def rank(self) -> int:
        return len(self.pivots)

    def contains_image(self, M: Matrix, N: Matrix) -> bool:
        """Whether W contains the image of M (x) I - I (x) N: whether every
        stored row Y of W^perp, read as an n x m matrix, has M^T Y = Y N."""
        n, m, field = self.n, self.m, self.field
        if (M.rows, M.cols, N.rows, N.cols) != (n, n, m, m):
            raise DimensionMismatch(f"operators do not act on K^{n} (x) K^{m}")
        if M.field != field or N.field != field:
            raise TagMismatch("operators and relation subspace over different fields")
        ring = _Lifted(field)
        M, N = _integral_pair(ring, M, N)
        for i, x in zip(self.canonical_indices, self.X):
            y = {i: ring.of_int(self.D), **dict(zip(self.pivots, x))}
            Y = [[y.get(r * m + s, ring.zero) for s in range(m)] for r in range(n)]
            if ring.matmul(M, Y) != ring.matmul(Y, N):
                return False
        return True

    def _coordinates(self, u, L: int) -> list:
        """The raw coordinates on `canonical_indices` of the class of the
        lifted vector u / L."""
        ring, D = _Lifted(self.field), self.D
        numerators = [u[i] if D == 1 else ring.scale(D, u[i]) for i in self.canonical_indices]
        if self.pivots:
            u_P = [u[p] for p in self.pivots]
            numerators = [ring.add(a, ring.dot(x, u_P)) for a, x in zip(numerators, self.X)]
        return _box(self.field, numerators, D * L)

    def _checked_coordinates(self, coords: tuple[Scalar, ...]) -> list:
        field, nm = self.field, self.n * self.m
        if len(coords) != nm:
            raise DimensionMismatch(f"expected {nm} coordinates, got {len(coords)}")
        if any(a.field is not field and a.field != field for a in coords):
            raise TagMismatch("vector and relation subspace over different fields")
        return self._coordinates(*lift(field, [a.value for a in coords]))

    def reduce(self, coords: tuple[Scalar, ...]) -> tuple[Scalar, ...]:
        """The canonical representative of coords + W: its class's
        coordinates on `canonical_indices`, zero on the pivots."""
        out = [self.field.canon(0)] * (self.n * self.m)
        for i, c in zip(self.canonical_indices, self._checked_coordinates(coords)):
            out[i] = c
        return _vector(self.field, out)

    def contains(self, coords: tuple[Scalar, ...]) -> bool:
        return not any(self._checked_coordinates(coords))

    def coset_coordinates(self, lifted) -> Matrix:
        """The coset map on lifted vectors (see `poly.lift`): column c is
        the coordinates on `canonical_indices` of the class of u / L, for the
        c-th pair (u, L) of `lifted`."""
        columns = [self._coordinates(u, L) for u, L in lifted]
        q = len(self.canonical_indices)
        return Matrix._make(self.field, ([c[t] for c in columns] for t in range(q)),
                            (q, len(columns)))


def _integral_pair(ring: _Lifted, M: Matrix, N: Matrix) -> tuple[list, list]:
    """(M', N') = (d_N M_lift^T, d_M N_lift), for M = M_lift / d_M and
    N = N_lift / d_N: both are integral, and M^T Y = Y N exactly when
    M' Y = Y N'."""
    (M_lift, d_M), (N_lift, d_N) = ring.rows(M), ring.rows(N)
    return ([[ring.scale(d_N, a) for a in col] for col in zip(*M_lift)],
            [[ring.scale(d_M, a) for a in row] for row in N_lift])


def _intertwiners(ring: _Lifted, M: list, N: list):
    """Lifted vectors vec(Y), row by row, that form a basis of the n x m
    matrices Y with M Y = Y N, for integral n x n M and m x m N.

    Such a Y is a module map (K^m, N) -> (K^n, M), fixed by the images
    y_j = Y g_j of the generators of N's Krylov chains (`_krylov_chains`).
    If chain j closes with the relation sum_i r_ij(N) g_i = 0, the y_j that
    occur are the solutions of sum_i r_ij(M) y_i = 0 for every j: a kn x kn
    system, one vector Y per kernel vector (`Echelon.kernel`).  Y maps
    Krylov vector N^t g_i to M^t y_i, so Y K = Z for the Krylov basis K and
    Z = [M^t y_i], and Y is taken as Z (D K^-1), the chains' `inverse`.
    """
    n, m = len(M), len(N)
    chains, inverse = _krylov_chains(ring, N, 1)
    k, zero = len(chains), ring.zero
    lengths = [len(blocks[j]) - 1 for j, (blocks, _) in enumerate(chains)]
    powers = ring.powers(M, max(lengths))
    system = Echelon(ring.field)
    for j, (blocks, _) in enumerate(chains):
        # the coefficients of r_ij, i <= j; chains after j do not occur
        for r in range(n):
            row = []
            for coeffs in blocks:
                if coeffs.count(zero) == len(coeffs):
                    row += [zero] * n
                else:
                    row += [ring.dot(coeffs, col) for col in zip(*(P[r] for P in powers))]
            system.push(system.reduce_lifted(row + [zero] * (n * (k - j - 1)), 1)[0])
    inverse = list(zip(*inverse))  # column c of D K^-1
    for x in system.kernel(k * n):
        Z = [[] for _ in range(n)]  # row r of Z, column by column
        for i, length in enumerate(lengths):
            v = x[i * n : (i + 1) * n]
            for t in range(length):
                for z, a in zip(Z, v):
                    z.append(a)
                if t + 1 < length:
                    v = [ring.dot(row, v) for row in M]
        yield [a for z in Z for a in (
            [zero] * m if z.count(zero) == m else [ring.dot(z, col) for col in inverse]
        )]


def relation_subspace(kind: TensorKind, n: int, m: int) -> RelationSubspace:
    """The relation subspace of a product flavour on K^n (x) K^m, found from
    its annihilator: a basis of W^perp (`_intertwiners`, on the integral
    pair of `_integral_pair`) goes into one `Echelon` with its coordinates
    reversed.  Read backwards, its pivots are the complement of W's pivots
    (the complement of a basis of a matroid is a basis of the dual, and
    greedy from the left picks the complement of greedy from the right),
    and its rows, D on those coordinates, are W^perp in the stored form."""
    if n < 1 or m < 1:
        raise DimensionMismatch("factor dimensions must be positive")
    nm = n * m
    if isinstance(kind, StandardKind):  # (I, I): W = 0 and W^perp is everything
        return RelationSubspace(kind, kind.field, n, m, tuple(range(nm)), (), ((),) * nm, 1)
    M, N = kind.operators(n, m)
    if M.rows != n or N.rows != m:
        raise DimensionMismatch(
            f"kind operators are {M.rows} and {N.rows}; expected {n} and {m}"
        )
    if M.field != N.field:
        raise TagMismatch("kind operators over different fields")
    field, ring = M.field, _Lifted(M.field)
    echelon = Echelon(field)
    for y in _intertwiners(ring, *_integral_pair(ring, M, N)):
        echelon.push(echelon.reduce_lifted(y[::-1], 1)[0])
    rows = [(nm - 1 - q, r[::-1]) for q, r in reversed(echelon.basis())]
    indices = tuple(i for i, _ in rows)
    pivots = tuple(sorted(set(range(nm)) - set(indices)))
    X, D = [[r[p] for p in pivots] for _, r in rows], echelon.D
    if isinstance(D, tuple):  # over Q(i), multiply every row by conj(D) to make D an integer
        X, D = [_times(x, (D[0], -D[1]), True) for x in X], D[0] ** 2 + D[1] ** 2
    if not field.characteristic:  # take out the content that D shares with every row
        g = gcd(D, *(c for x in X for a in x for c in (a if ring.gaussian else (a,))))
        g = g if D > 0 else -g
        X = [[(a[0] // g, a[1] // g) if ring.gaussian else a // g for a in x] for x in X]
        D //= g
    return RelationSubspace(kind, field, n, m, indices, pivots, tuple(map(tuple, X)), D)


def quotient_dim(W: RelationSubspace) -> int:
    """Dimension of the quotient: full coordinate count minus rank of W."""
    return W.n * W.m - W.rank


@dataclass(frozen=True)
class QuotientClass:
    """A coset, stored as residual coordinates on the canonical basis."""

    subspace: RelationSubspace
    canonical: tuple[Scalar, ...]

    @property
    def is_zero(self) -> bool:
        return all(a.is_zero for a in self.canonical)


def project_to_quotient(t: TensorElement, W: RelationSubspace) -> QuotientClass:
    """The canonical surjection onto the quotient by W."""
    if (t.n, t.m) != (W.n, W.m):
        raise DimensionMismatch("tensor element does not match the subspace")
    return QuotientClass(subspace=W, canonical=_vector(W.field, W._checked_coordinates(t.coords)))


def induced_operator(W: RelationSubspace) -> Matrix:
    """Matrix of the polynomial-variable action on the operator-pair quotient.

    The action of x on a coset is represented by A (x) I; this preserves W
    because A (x) I commutes with the Sylvester operator, and on the
    quotient it agrees with I (x) B by construction.  The resulting matrix
    feeds straight into the operator-module decomposition.
    """
    return _quotient_action(W, left=True)


def right_induced_operator(W: RelationSubspace) -> Matrix:
    """Matrix of I (x) B on the operator-pair quotient, which equals
    `induced_operator(W)`; the CLI self-check compares the two."""
    return _quotient_action(W, left=False)


def _quotient_action(W: RelationSubspace, left: bool) -> Matrix:
    """A (x) I (left) or I (x) B on the quotient, from the lift of A or B."""
    if not isinstance(W.kind, OperatorPairKind):
        raise WrongKind("induced operator is defined for the operator-pair kind")
    ring, m = _Lifted(W.field), W.m
    M, d = ring.rows(W.kind.A if left else W.kind.B)

    def column(k):  # k = i m + j
        i, j = divmod(k, m)
        u = [ring.zero] * (W.n * m)
        if left:  # (A (x) I) e_k: column i of A on the coordinates r m + j
            u[j::m] = [row[i] for row in M]
        else:  # (I (x) B) e_k: column j of B on the coordinates i m + s
            u[i * m:(i + 1) * m] = [row[j] for row in M]
        return u, d

    return W.coset_coordinates(map(column, W.canonical_indices))


def apply_left(A: Matrix, t: TensorElement) -> TensorElement:
    """(A (x) I) applied to a tensor element."""
    if A.rows != t.n:
        raise DimensionMismatch("left operator does not match the tensor shape")
    reshaped = t.reshape()
    out = A @ reshaped
    return TensorElement(t.field, t.n, t.m, tuple(e for row in out.entries for e in row))


def apply_right(B: Matrix, t: TensorElement) -> TensorElement:
    """(I (x) B) applied to a tensor element."""
    if B.rows != t.m:
        raise DimensionMismatch("right operator does not match the tensor shape")
    reshaped = t.reshape()
    out = reshaped @ B.transpose()
    return TensorElement(t.field, t.n, t.m, tuple(e for row in out.entries for e in row))


def induced_surjection(source: RelationSubspace, target: RelationSubspace) -> Matrix:
    """Matrix of the quotient-to-quotient map when W(source) <= W(target).

    Each canonical basis vector of the source quotient is projected into
    the target quotient.  Raises DimensionMismatch when the subspace
    inclusion fails, because then the map is not well defined.
    """
    if (source.n, source.m, source.field) != (target.n, target.m, target.field):
        raise DimensionMismatch("subspaces live on different coordinate spaces")
    if not target.contains_image(*source.kind.operators(source.n, source.m)):
        raise DimensionMismatch("source relations are not contained in the target relations")
    ring, nm = _Lifted(source.field), source.n * source.m
    return target.coset_coordinates(
        ([ring.one if i == j else ring.zero for i in range(nm)], 1)
        for j in source.canonical_indices
    )


def schmidt_rank(t: TensorElement) -> int:
    """Rank of the reshaped coefficient matrix; 1 on nonzero simple tensors,
    0 on zero, and at least 2 exactly on entangled elements."""
    return rref(t.reshape()).rank


# -- the diagonal two-qubit simplification report ------------------------------

@dataclass(frozen=True)
class SimplificationReport:
    """Outcome of moving a polynomial across the tensor sign for a diagonal
    operator pair on K^2 (x) K^2."""

    kind: OperatorPairKind
    left_tensor: TensorElement
    right_tensor: TensorElement
    difference_in_relations: bool
    classes_equal: bool
    standard_equal: bool
    quotient_dim: int
    common_class: tuple[Scalar, ...]


def simplification_report(
    a: Scalar,
    b: Scalar,
    c: Scalar,
    d: Scalar,
    pi: Poly,
    u: Scalar,
    v: Scalar,
    w: Scalar,
    z: Scalar,
) -> SimplificationReport:
    """Move pi across the tensor sign for A = diag(a, b), B = diag(c, d).

    The two sides (pi(A) x) (x) y and x (x) (pi(B) y) are distinct plain
    tensors in general, but their difference always lies in the relation
    subspace, so they name the same coset of the operator-pair product.
    """
    field = a.field
    A = Matrix.diagonal(field, (a, b))
    B = Matrix.diagonal(field, (c, d))
    kind = OperatorPairKind(A, B)
    x_vec = (u, v)
    y_vec = (w, z)
    left = tensor_coordinates(poly_eval_operator(pi, A).matvec(x_vec), y_vec)
    right = tensor_coordinates(x_vec, poly_eval_operator(pi, B).matvec(y_vec))
    W = relation_subspace(kind, 2, 2)
    diff = left - right
    member = W.contains(diff.coords)
    lclass = project_to_quotient(left, W)
    rclass = project_to_quotient(right, W)
    return SimplificationReport(
        kind=kind,
        left_tensor=left,
        right_tensor=right,
        difference_in_relations=member,
        classes_equal=lclass.canonical == rclass.canonical,
        standard_equal=diff.is_zero,
        quotient_dim=quotient_dim(W),
        common_class=lclass.canonical,
    )


# -- the scalar branching example ----------------------------------------------

@dataclass(frozen=True)
class ScalarBranchingReport:
    """One-dimensional branching product where scalars move with a twist:
    c on the left becomes a*c on the right."""

    a: Scalar
    quotient_dim: int
    relation_rank: int
    literal_span_agrees: bool
    homomorphism_caveat: str | None


def scalar_branching_report(a: Scalar) -> ScalarBranchingReport:
    """Quotient of K (x) K by the relations c*(x (x) y) ~ a*c*(x (x) y).

    The relation span is literally span{1 - a}: dimension 1 survives only
    for a = 1.  The same span arises from the branching kind with
    substitutions phi = x, psi = a*x on the identity operators; the report
    cross-checks both readings and flags that the scalar map c -> a*c is
    not multiplicative unless a is 0 or 1.
    """
    field = a.field
    one = field.one()
    identity1 = Matrix.identity(field, 1)
    phi = Poly.x(field)
    psi = Poly(field, (field.zero(), a))
    kind = BranchingKind(identity1, identity1, phi, psi)
    W = relation_subspace(kind, 1, 1)
    # literal relation span: all differences c*(x(x)y) - a*c*(x(x)y)
    literal = [(c - a * c,) for c in (one, one + one)]
    literal_rank = rref(Matrix(field, ((v[0],) for v in literal))).rank
    agrees = literal_rank == W.rank
    caveat = None
    if a != field.zero() and a != one:
        caveat = (
            "the scalar map c -> a*c used to seed these relations is not "
            "multiplicative, so it is not a ring homomorphism; the quotient "
            "is computed from the literal relation span"
        )
    return ScalarBranchingReport(
        a=a,
        quotient_dim=quotient_dim(W),
        relation_rank=W.rank,
        literal_span_agrees=agrees,
        homomorphism_caveat=caveat,
    )
