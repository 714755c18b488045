"""Matrices over the polynomial ring K[x] and their Smith normal form.

The Smith form is computed by classical pivoting: pick a nonzero entry of
minimal degree, clear its row and column by Euclidean division (restarting
whenever a nonzero remainder produces a smaller pivot), then repair the
divisibility chain with column additions.  One worker does it, on one
matrix, pivoting inside its leading block.  `smith_diagonal` hands it P
alone.  `smith_normal_form` hands it P bordered by identities,
[[P, I_r], [I_c, 0]]; every step is an elementary operation on whole rows
or columns, so the border becomes unimodular U and V with U @ P @ V = D
exactly.
"""
from __future__ import annotations

from dataclasses import dataclass

from .errors import NonSquare, TagMismatch
from .fields import Field, Scalar
from .matrix import DenseMatrix, Matrix, _Lifted
from .poly import Poly, _from_lift, _poly, _value


class PolyMatrix(DenseMatrix):
    """An immutable matrix with polynomial entries over one field."""

    __slots__ = ()

    entries = DenseMatrix.values  # the Poly grid is read as it is stored

    @staticmethod
    def _unbox(field: Field, e) -> Poly:
        if not isinstance(e, Poly) or (e.field is not field and e.field != field):
            raise TagMismatch("entry is not a polynomial over the declared field")
        return e

    _of_int = staticmethod(lambda field, k: Poly.from_ints(field, (k,)))

    @classmethod
    def characteristic_matrix(cls, A: Matrix) -> "PolyMatrix":
        """x*I - A, the presentation matrix of the module induced by A."""
        if not A.is_square:
            raise NonSquare("characteristic matrix needs a square operator")
        field, one = A.field, A.field.canon(1)
        out = ([_poly(field, (-a, one) if i == j else (-a,)) for j, a in enumerate(row)]
               for i, row in enumerate(A.values))
        return cls._make(field, out, (A.rows, A.cols))

    def evaluate(self, s: Scalar) -> Matrix:
        """Entrywise evaluation at a scalar point."""
        x = _value(self.field, s)
        return Matrix._make(self.field, ([e._at(x) for e in row] for row in self.values),
                            (self.rows, self.cols))

    def diagonal_entries(self) -> list[Poly]:
        return [self.values[i][i] for i in range(min(self.rows, self.cols))]

    def determinant(self) -> Poly:
        """Bareiss fraction-free elimination over K[x], O(n^3) ring operations.

        Each division by the previous pivot is exact (Sylvester's identity);
        a zero pivot is replaced by a row swap, which flips the sign, and a
        row with a zero lead under a pivot equal to the previous one is left
        as it is, the update giving it back (as `Echelon.push` does).  The
        CLI uses it to test that Smith transforms are unimodular and to
        check the decomposition of a square presentation; `charpoly` does
        not go through it.
        """
        if not self.is_square:
            raise NonSquare("determinant needs a square matrix")
        n = self.rows
        a = [list(row) for row in self.values]
        negate = False
        prev = Poly.one(self.field)
        for k in range(n - 1):
            if a[k][k].is_zero:
                swap = next((i for i in range(k + 1, n) if not a[i][k].is_zero), None)
                if swap is None:
                    return Poly.zero(self.field)
                a[k], a[swap] = a[swap], a[k]
                negate = not negate
            pivot = a[k][k]
            for i in range(k + 1, n):
                row, lead = a[i], a[i][k]
                if lead.is_zero and pivot == prev:  # the update is the identity
                    continue
                for j in range(k + 1, n):
                    row[j] = (row[j] * pivot - lead * a[k][j]) // prev
            prev = pivot
        det = a[n - 1][n - 1] if n else prev
        return -det if negate else det


def charpoly(A: Matrix) -> Poly:
    """Characteristic polynomial det(x*I - A), monic, by Berkowitz's
    division-free algorithm (Inf. Process. Lett. 18, 1984) on the integral
    lift L*A, in O(n^4) ring operations.

    With A_k the leading k x k block of A_(k+1) = [[A_k, c], [r, a]],
    det(x*I - A_(k+1)) is the Toeplitz product of (1, -a, -r c, -r A_k c,
    ..., -r A_k^(k-1) c) with det(x*I - A_k), coefficients leading first.
    Only ring operations run, all through `matrix._Lifted`, so one path
    serves ints, Gaussian-integer pairs and residues, and over F_p each
    inner product is reduced once.  The coefficient at x^j of
    det(x*I - L*A) is divided by L^(n-j): the result is the lift whose
    numerator at x^j is that coefficient times L^j, over L^n.
    """
    if not A.is_square:
        raise NonSquare("characteristic matrix needs a square operator")
    field, n = A.field, A.rows
    ring = _Lifted(field)
    M, L = ring.rows(A)
    p = [ring.one]
    for k in range(n):  # r = M[k][:k], c = [M[i][k] for i < k], a = M[k][k]
        t, v = [ring.one, ring.neg(M[k][k])], [M[i][k] for i in range(k)]
        for _ in range(k):
            t.append(ring.neg(ring.dot(M[k], v)))
            v = [ring.dot(M[i], v) for i in range(k)]
        p = [ring.dot(t[j::-1], p) for j in range(k + 2)]
    # p[m] is at x^(n-m) of det(x*I - L*A)
    return _from_lift(field, [ring.scale(L ** (n - m), c) for m, c in enumerate(p)][::-1], L**n)


@dataclass(frozen=True)
class SmithForm:
    """Unimodular transforms U, V and the diagonal D with U @ P @ V = D."""

    U: PolyMatrix
    D: PolyMatrix
    V: PolyMatrix

    def diagonal(self) -> list[Poly]:
        return self.D.diagonal_entries()

    def nonzero_diagonal(self) -> list[Poly]:
        return [d for d in self.diagonal() if not d.is_zero]

    def nonconstant_diagonal(self) -> list[Poly]:
        return [d for d in self.diagonal() if d.degree >= 1]


class _SmithWorker:
    """Row and column reduction of one matrix d that pivots only inside its
    leading rows x cols block.  Each elementary operation runs across whole
    rows or whole columns of d, so whatever d carries outside that block
    (the border of `smith_normal_form`) records the operations."""

    def __init__(self, field: Field, d: list[list[Poly]], rows: int, cols: int):
        self.field, self.d, self.rows, self.cols = field, d, rows, cols

    # elementary operations ------------------------------------------------
    def swap_rows(self, i, j):
        self.d[i], self.d[j] = self.d[j], self.d[i]

    def swap_cols(self, i, j):
        if i != j:
            for row in self.d:
                row[i], row[j] = row[j], row[i]

    def submul_row(self, dst, src, q: Poly):
        """row_dst -= q * row_src"""
        if not q.is_zero:
            self.d[dst] = [a - q * b for a, b in zip(self.d[dst], self.d[src])]

    def submul_col(self, dst, src, q: Poly):
        """col_dst -= q * col_src"""
        if not q.is_zero:
            for row in self.d:
                row[dst] = row[dst] - q * row[src]

    def scale_row(self, i, c: Scalar):
        self.d[i] = [e.scale(c) for e in self.d[i]]

    # pivoting --------------------------------------------------------------
    def diagonal(self) -> list[Poly]:
        return [self.d[t][t] for t in range(min(self.rows, self.cols))]

    def diagonalize_from(self, t):
        """Pivot on a nonzero entry of minimal degree in the trailing block,
        ties broken by smallest (row, col), and clear its column, then its
        row, by Euclidean division; a nonzero remainder has smaller degree
        and is promoted to pivot."""
        d = self.d
        while t < min(self.rows, self.cols):
            pivot = min(((d[i][j].degree, i, j) for i in range(t, self.rows)
                         for j in range(t, self.cols) if not d[i][j].is_zero), default=None)
            if pivot is None:
                return
            self.swap_rows(t, pivot[1])
            self.swap_cols(t, pivot[2])
            while True:
                i = next((i for i in range(t + 1, self.rows) if not d[i][t].is_zero), None)
                if i is not None:
                    q, r = divmod(d[i][t], d[t][t])
                    self.submul_row(i, t, q)
                    if not r.is_zero:
                        self.swap_rows(t, i)
                    continue
                j = next((j for j in range(t + 1, self.cols) if not d[t][j].is_zero), None)
                if j is None:
                    break
                q, r = divmod(d[t][j], d[t][t])
                self.submul_col(j, t, q)
                if not r.is_zero:
                    self.swap_cols(t, j)
            t += 1

    def normalize_monic(self):
        for t, e in enumerate(self.diagonal()):
            if not e.is_zero and not e.is_monic:
                self.scale_row(t, e.leading_coefficient.inv())

    def reduce(self) -> list[Poly]:
        """Bring the block to Smith form and return its diagonal: monic,
        each entry dividing the next, zero entries trailing.  Deterministic:
        pivots are chosen by (degree, row, col)."""
        self.diagonalize_from(0)
        self.normalize_monic()
        while True:
            diag = self.diagonal()
            t = next((t for t, (a, b) in enumerate(zip(diag, diag[1:]))
                      if not (a.is_zero or b.is_zero or (b % a).is_zero)), None)
            if t is None:
                return diag
            # merge the offending pair: pulling column t+1 into column t puts
            # both entries in one column, and re-reduction leaves their gcd
            self.submul_col(t, t + 1, Poly.constant(self.field.from_int(-1)))
            self.diagonalize_from(t)
            self.normalize_monic()


def smith_diagonal(P: PolyMatrix) -> list[Poly]:
    """The min(rows, cols) diagonal entries of the Smith form of P, with no
    transforms: the worker reduces a copy of P alone."""
    return _SmithWorker(P.field, [list(row) for row in P.values], P.rows, P.cols).reduce()


def smith_normal_form(P: PolyMatrix) -> SmithForm:
    """Diagonalise P over K[x] with unimodular transforms.

    The worker reduces the bordered matrix [[P, I_r], [I_c, 0]]: row
    operations carry I_r into U and column operations carry I_c into V, so
    the result is [[D, U], [V, 0]].  The diagonal is that of
    `smith_diagonal`.
    """
    field, r, c = P.field, P.rows, P.cols
    zero = Poly.zero(field)
    d = [list(p) + list(u) for p, u in zip(P.values, PolyMatrix.identity(field, r).values)]
    d += [list(v) + [zero] * r for v in PolyMatrix.identity(field, c).values]
    _SmithWorker(field, d, r, c).reduce()
    return SmithForm(
        U=PolyMatrix._make(field, (row[c:] for row in d[:r]), (r, r)),
        D=PolyMatrix._make(field, (row[:c] for row in d[:r]), (r, c)),
        V=PolyMatrix._make(field, (row[:c] for row in d[r:]), (c, c)),
    )
