"""Matrices over the polynomial ring K[x] and their Smith normal form.

The Smith form is computed by classical pivoting: pick a nonzero entry of
minimal degree, clear its row and column by Euclidean division (restarting
whenever a nonzero remainder produces a smaller pivot), then repair the
divisibility chain with column additions.  Every step is an elementary row
or column operation, so the recorded transforms stay unimodular and
U @ P @ V = D holds exactly throughout.
"""
from __future__ import annotations

from dataclasses import dataclass

from .errors import NonSquare
from .fields import Field, Scalar
from .matrix import DenseMatrix, Matrix, _Lifted
from .poly import Poly


class PolyMatrix(DenseMatrix):
    """An immutable matrix with polynomial entries over one field."""

    __slots__ = ()

    _entry_type = Poly
    _entry_error = "entry is not a polynomial over the declared field"

    @staticmethod
    def _entry_zero(field: Field) -> Poly:
        return Poly.zero(field)

    @staticmethod
    def _entry_one(field: Field) -> Poly:
        return Poly.one(field)

    @classmethod
    def characteristic_matrix(cls, A: Matrix) -> "PolyMatrix":
        """x*I - A, the presentation matrix of the module induced by A."""
        if not A.is_square:
            raise NonSquare("characteristic matrix needs a square operator")
        field = A.field
        x = Poly.x(field)
        out = []
        for i in range(A.rows):
            row = []
            for j in range(A.cols):
                entry = Poly.constant(-A.entries[i][j])
                if i == j:
                    entry = entry + x
                row.append(entry)
            out.append(row)
        return cls(field, out)

    def evaluate(self, s: Scalar) -> Matrix:
        """Entrywise evaluation at a scalar point."""
        return Matrix(self.field, ((e.eval(s) for e in row) for row in self.entries))

    def diagonal_entries(self) -> list[Poly]:
        return [self.entries[i][i] for i in range(min(self.rows, self.cols))]

    def determinant(self) -> Poly:
        """Bareiss fraction-free elimination over K[x], O(n^3) ring operations.

        Each division by the previous pivot is exact (Sylvester's identity);
        a zero pivot is replaced by a row swap, which flips the sign.  The
        CLI uses it to test that Smith transforms are unimodular; `charpoly`
        does not go through it.
        """
        if not self.is_square:
            raise NonSquare("determinant needs a square matrix")
        n = self.rows
        a = [list(row) for row in self.entries]
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
    Only ring operations run, all inner products through `matrix._Lifted`,
    so one path serves ints, Gaussian-integer pairs and residues, and over
    F_p each inner product is reduced once; the coefficient at x^j of
    det(x*I - L*A) is then divided by L^(n-j).  The CLI uses it to check
    invariant factors, so it shares no elimination with their Krylov
    computation.
    """
    if not A.is_square:
        raise NonSquare("characteristic matrix needs a square operator")
    field, n = A.field, A.rows
    ring, neg = _Lifted(field), field.raw_neg
    M, L = ring.rows(A)
    p = [ring.one]
    for k in range(n):  # r = M[k][:k], c = [M[i][k] for i < k], a = M[k][k]
        t, v = [ring.one, neg(M[k][k])], [M[i][k] for i in range(k)]
        for _ in range(k):
            t.append(neg(ring.dot(M[k], v)))
            v = [ring.dot(M[i], v) for i in range(k)]
        p = [ring.dot(t[j::-1], p) for j in range(k + 2)]
    coeffs = [field.scalar(c) for c in p]
    if L != 1:  # coeffs[m] is at x^(n-m) of det(x*I - L*A)
        inv = field.from_int(L).inv()
        for m in range(1, n + 1):
            coeffs[m] = coeffs[m] * inv**m
    return Poly(field, coeffs[::-1])


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
    """Mutable row/column reduction state; every mutation is an elementary
    operation mirrored into the transforms."""

    def __init__(self, P: PolyMatrix):
        self.field = P.field
        self.rows = P.rows
        self.cols = P.cols
        self.d = [list(row) for row in P.entries]
        self.u = [list(row) for row in PolyMatrix.identity(P.field, P.rows).entries]
        self.v = [list(row) for row in PolyMatrix.identity(P.field, P.cols).entries]

    # elementary operations ------------------------------------------------
    def swap_rows(self, i, j):
        if i != j:
            self.d[i], self.d[j] = self.d[j], self.d[i]
            self.u[i], self.u[j] = self.u[j], self.u[i]

    def swap_cols(self, i, j):
        if i != j:
            for row in self.d:
                row[i], row[j] = row[j], row[i]
            for row in self.v:
                row[i], row[j] = row[j], row[i]

    def submul_row(self, dst, src, q: Poly):
        """row_dst -= q * row_src"""
        if q.is_zero:
            return
        for k in range(self.cols):
            self.d[dst][k] = self.d[dst][k] - q * self.d[src][k]
        for k in range(self.rows):
            self.u[dst][k] = self.u[dst][k] - q * self.u[src][k]

    def submul_col(self, dst, src, q: Poly):
        """col_dst -= q * col_src"""
        if q.is_zero:
            return
        for row in self.d:
            row[dst] = row[dst] - q * row[src]
        for row in self.v:
            row[dst] = row[dst] - q * row[src]

    def scale_row(self, i, c: Scalar):
        cp = Poly.constant(c)
        self.d[i] = [cp * e for e in self.d[i]]
        self.u[i] = [cp * e for e in self.u[i]]

    # pivoting --------------------------------------------------------------
    def find_pivot(self, t):
        """Nonzero entry of minimal degree in the trailing submatrix; ties
        broken by smallest (row, col)."""
        best = None
        best_key = None
        for i in range(t, self.rows):
            for j in range(t, self.cols):
                e = self.d[i][j]
                if e.is_zero:
                    continue
                key = (e.degree, i, j)
                if best_key is None or key < best_key:
                    best_key = key
                    best = (i, j)
        return best

    def diagonalize_from(self, t0):
        t = t0
        limit = min(self.rows, self.cols)
        while t < limit:
            pos = self.find_pivot(t)
            if pos is None:
                break
            self.swap_rows(t, pos[0])
            self.swap_cols(t, pos[1])
            while True:
                offender = None
                for i in range(t + 1, self.rows):
                    if not self.d[i][t].is_zero:
                        offender = ("row", i)
                        break
                if offender is None:
                    for j in range(t + 1, self.cols):
                        if not self.d[t][j].is_zero:
                            offender = ("col", j)
                            break
                if offender is None:
                    break
                which, k = offender
                if which == "row":
                    q, r = divmod(self.d[k][t], self.d[t][t])
                    self.submul_row(k, t, q)
                    if not r.is_zero:
                        # the remainder has strictly smaller degree: promote it
                        self.swap_rows(t, k)
                else:
                    q, r = divmod(self.d[t][k], self.d[t][t])
                    self.submul_col(k, t, q)
                    if not r.is_zero:
                        self.swap_cols(t, k)
            t += 1

    def normalize_monic(self):
        for t in range(min(self.rows, self.cols)):
            e = self.d[t][t]
            if not e.is_zero and not e.is_monic:
                self.scale_row(t, e.leading_coefficient.inv())

    def first_chain_violation(self):
        diag = [self.d[t][t] for t in range(min(self.rows, self.cols))]
        for t in range(len(diag) - 1):
            a, b = diag[t], diag[t + 1]
            if a.is_zero or b.is_zero:
                continue
            if not (b % a).is_zero:
                return t
        return None


def smith_normal_form(P: PolyMatrix) -> SmithForm:
    """Diagonalise P over K[x] with unimodular transforms.

    The diagonal is monic with each entry dividing the next; zero entries
    trail.  Deterministic: pivots are chosen by (degree, row, col).
    """
    w = _SmithWorker(P)
    w.diagonalize_from(0)
    w.normalize_monic()
    while True:
        t = w.first_chain_violation()
        if t is None:
            break
        # merge the offending pair: pulling column t+1 into column t puts
        # both entries in one column, and re-reduction leaves their gcd
        minus_one = Poly.constant(w.field.from_int(-1))
        w.submul_col(t, t + 1, minus_one)
        w.diagonalize_from(t)
        w.normalize_monic()
    field = P.field
    return SmithForm(
        U=PolyMatrix(field, w.u),
        D=PolyMatrix(field, w.d, (P.rows, P.cols)),
        V=PolyMatrix(field, w.v),
    )
