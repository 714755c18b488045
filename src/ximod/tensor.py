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

Cosets are represented canonically by eliminating the pivot coordinates of
an echelonised basis of W; the surviving coordinates index a basis of the
quotient.  W's basis and the coset map come from one fraction-free
Gauss-Jordan elimination on integral rows (`matrix.Echelon`): the raw
Sylvester and Kronecker columns are lifted straight into it, and a reader
takes back into K only the entries it reads.  Scalars are checked and
unboxed where they come in (`RelationSubspace.reduce` and `contains`,
`project_to_quotient`) and boxed where they go out.
"""
from __future__ import annotations

from dataclasses import dataclass, field as dataclass_field
from typing import Union

from .errors import DimensionMismatch, TagMismatch, WrongKind
from .fields import Field, Scalar
from .matrix import (
    Echelon,
    Matrix,
    Vector,
    _vector,
    kronecker_column,
    lift,
    poly_eval_operator,
    rref,
    sylvester_columns,
    sylvester_operator,
)
from .poly import Poly


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

    `basis` holds the Sylvester columns of the kind's pair, echelonised; its
    pivots are the coordinates the coset map eliminates.
    """

    kind: TensorKind
    field: Field
    n: int
    m: int
    basis: Echelon = dataclass_field(compare=False, repr=False)

    @property
    def generator_matrix(self) -> Matrix:
        """The Sylvester operator, whose columns span W; built on demand."""
        return sylvester_operator(*self.kind.operators(self.n, self.m))

    @property
    def rank(self) -> int:
        return len(self.basis.pivots)

    @property
    def canonical_indices(self) -> tuple[int, ...]:
        pivots = set(self.basis.pivots)
        return tuple(j for j in range(self.n * self.m) if j not in pivots)

    def reduce(self, coords: tuple[Scalar, ...]) -> tuple[Scalar, ...]:
        """Eliminate the pivot coordinates; the result is the canonical
        representative of coords + W."""
        return _vector(self.field, self.basis.box(*self.basis.reduce(coords)))

    def contains(self, coords: tuple[Scalar, ...]) -> bool:
        return self.basis.leading(self.basis.reduce(coords)[0]) is None

    def coset_coordinates(self, vectors) -> Matrix:
        """The coset map on raw vectors: column c is the canonical
        coordinates of vectors[c] + W, read on the surviving
        `canonical_indices`."""
        basis, field, indices = self.basis, self.field, self.canonical_indices
        reduced = [basis.box(*basis.reduce_lifted(*lift(field, v)), indices) for v in vectors]
        return Matrix._make(
            field, ([v[t] for v in reduced] for t in range(len(indices))),
            (len(indices), len(reduced)),
        )


def relation_subspace(kind: TensorKind, n: int, m: int) -> RelationSubspace:
    """The relation subspace of a product flavour on K^n (x) K^m: the
    Sylvester columns of its pair, pushed into one `Echelon`."""
    if n < 1 or m < 1:
        raise DimensionMismatch("factor dimensions must be positive")
    if isinstance(kind, StandardKind):  # (I, I): the Sylvester operator is zero
        return RelationSubspace(kind, kind.field, n, m, Echelon(kind.field))
    M, N = kind.operators(n, m)
    if M.rows != n or N.rows != m:
        raise DimensionMismatch(
            f"kind operators are {M.rows} and {N.rows}; expected {n} and {m}"
        )
    basis = Echelon(M.field)
    for column in sylvester_columns(M, N):
        basis.push(basis.reduce_lifted(*lift(M.field, column))[0])
    return RelationSubspace(kind, M.field, n, m, basis)


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
    if (t.n, t.m) != (W.n, W.m) or t.field != W.field:
        raise DimensionMismatch("tensor element does not match the subspace")
    canonical = W.basis.box(*W.basis.reduce(t.coords), W.canonical_indices)
    return QuotientClass(subspace=W, canonical=_vector(W.field, canonical))


def induced_operator(W: RelationSubspace) -> Matrix:
    """Matrix of the polynomial-variable action on the operator-pair quotient.

    The action of x on a coset is represented by A (x) I; this preserves W
    because A (x) I commutes with the Sylvester operator, and on the
    quotient it agrees with I (x) B by construction.  The resulting matrix
    feeds straight into the operator-module decomposition.
    """
    if not isinstance(W.kind, OperatorPairKind):
        raise WrongKind("induced operator is defined for the operator-pair kind")
    identity = Matrix.identity(W.field, W.m)
    return W.coset_coordinates(
        kronecker_column(W.kind.A, identity, k) for k in W.canonical_indices
    )


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
    generators = sylvester_columns(*source.kind.operators(source.n, source.m))
    if not target.coset_coordinates(generators).is_zero:
        raise DimensionMismatch("source relations are not contained in the target relations")
    zero, one, nm = source.field.canon(0), source.field.canon(1), source.n * source.m
    return target.coset_coordinates(
        [one if i == j else zero for i in range(nm)] for j in source.canonical_indices
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
