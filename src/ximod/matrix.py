"""Exact dense matrices and vectors over a coefficient field."""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, isqrt, lcm
from operator import mul

from .errors import (
    ConstantPolynomial,
    DimensionMismatch,
    NonSquare,
    NoSolution,
    NotMonic,
    TagMismatch,
)
from .fields import Field, Gaussian, GaussianRationals, Scalar
from .poly import Poly

Vector = tuple[Scalar, ...]


# -- vector helpers -----------------------------------------------------------

def unit_vector(field: Field, n: int, i: int) -> Vector:
    return tuple(field.one() if k == i else field.zero() for k in range(n))


def vec_add(x: Vector, y: Vector) -> Vector:
    if len(x) != len(y):
        raise DimensionMismatch(f"vector lengths {len(x)} vs {len(y)}")
    return tuple(a + b for a, b in zip(x, y))


def vec_sub(x: Vector, y: Vector) -> Vector:
    if len(x) != len(y):
        raise DimensionMismatch(f"vector lengths {len(x)} vs {len(y)}")
    return tuple(a - b for a, b in zip(x, y))


class DenseMatrix:
    """An immutable rows x cols matrix whose entries share one field.

    Subclasses fix the entry type (`_entry_type`, `_entry_error`) and its
    zero and one (`_entry_zero(field)`, `_entry_one(field)`); everything
    that only adds and multiplies entries lives here.  The optional shape
    pins down degenerate sizes (0 x k) that the entry tuples alone cannot
    express.  Matrices of different subclasses never compare equal.
    """

    __slots__ = ("field", "rows", "cols", "entries")

    _entry_type: type
    _entry_error: str

    def __init__(self, field: Field, entries, shape: tuple[int, int] | None = None):
        entries = tuple(tuple(row) for row in entries)
        rows = len(entries)
        cols = len(entries[0]) if rows else (shape[1] if shape else 0)
        if shape is not None and shape != (rows, cols):
            raise DimensionMismatch(f"entries are {rows}x{cols}, expected {shape}")
        for row in entries:
            if len(row) != cols:
                raise DimensionMismatch("ragged rows")
            for e in row:
                if not isinstance(e, self._entry_type) or (e.field is not field and e.field != field):
                    raise TagMismatch(self._entry_error)
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "entries", entries)

    def __setattr__(self, name, _value):
        raise AttributeError(f"{type(self).__name__} is immutable; cannot set {name!r}")

    # construction ------------------------------------------------------
    @classmethod
    def identity(cls, field: Field, n: int):
        one, zero = cls._entry_one(field), cls._entry_zero(field)
        return cls(field, ((one if i == j else zero for j in range(n)) for i in range(n)))

    @classmethod
    def zeros(cls, field: Field, rows: int, cols: int):
        zero = cls._entry_zero(field)
        return cls(field, ((zero for _ in range(cols)) for _ in range(rows)), (rows, cols))

    @classmethod
    def diagonal(cls, field: Field, diag):
        diag = list(diag)
        zero = cls._entry_zero(field)
        return cls(
            field,
            ((diag[i] if i == j else zero for j in range(len(diag))) for i in range(len(diag))),
        )

    # basic algebra -------------------------------------------------------
    def _check(self, other: "DenseMatrix"):
        if other.field != self.field:
            raise TagMismatch("matrices over different fields")

    def __add__(self, other):
        self._check(other)
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise DimensionMismatch("matrix shapes differ")
        return type(self)(
            self.field,
            ((a + b for a, b in zip(r1, r2)) for r1, r2 in zip(self.entries, other.entries)),
            (self.rows, self.cols),
        )

    def __sub__(self, other):
        self._check(other)
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise DimensionMismatch("matrix shapes differ")
        return type(self)(
            self.field,
            ((a - b for a, b in zip(r1, r2)) for r1, r2 in zip(self.entries, other.entries)),
            (self.rows, self.cols),
        )

    def __matmul__(self, other):
        self._check(other)
        if self.cols != other.rows:
            raise DimensionMismatch(f"{self.rows}x{self.cols} @ {other.rows}x{other.cols}")
        zero = self._entry_zero(self.field)
        cols_t = list(zip(*other.entries)) if other.rows else [()] * other.cols
        out = []
        for row in self.entries:
            out_row = []
            for col in cols_t:
                acc = zero
                for a, b in zip(row, col):
                    if not (a.is_zero or b.is_zero):
                        acc = acc + a * b
                out_row.append(acc)
            out.append(out_row)
        return type(self)(self.field, out, (self.rows, other.cols))

    def transpose(self):
        if self.rows == 0 or self.cols == 0:
            return self.zeros(self.field, self.cols, self.rows)
        return type(self)(self.field, zip(*self.entries))

    @property
    def is_square(self) -> bool:
        return self.rows == self.cols

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return (
            self.field == other.field
            and self.rows == other.rows
            and self.cols == other.cols
            and self.entries == other.entries
        )

    def __hash__(self):
        return hash((type(self).__name__, self.field, self.entries))

    def __str__(self):
        return "\n".join("[" + ", ".join(str(a) for a in row) + "]" for row in self.entries)

    def __repr__(self):
        return f"{type(self).__name__}({self.field.kind}, {self.rows}x{self.cols})"


class Matrix(DenseMatrix):
    """An immutable rows x cols matrix of scalars sharing one field."""

    __slots__ = ()

    _entry_type = Scalar
    _entry_error = "entry does not belong to the declared field"

    @staticmethod
    def _entry_zero(field: Field) -> Scalar:
        return field.zero()

    @staticmethod
    def _entry_one(field: Field) -> Scalar:
        return field.one()

    @classmethod
    def from_ints(cls, field: Field, rows) -> "Matrix":
        return cls(field, ((field.from_int(v) for v in row) for row in rows))

    def scale(self, c: Scalar) -> "Matrix":
        return Matrix(self.field, ((c * a for a in row) for row in self.entries))

    def matvec(self, x: Vector) -> Vector:
        if len(x) != self.cols:
            raise DimensionMismatch(f"matrix has {self.cols} columns, vector length {len(x)}")
        zero = self.field.zero()
        out = []
        for row in self.entries:
            acc = zero
            for a, b in zip(row, x):
                if not (a.is_zero or b.is_zero):
                    acc = acc + a * b
            out.append(acc)
        return tuple(out)

    def column(self, j: int) -> Vector:
        return tuple(row[j] for row in self.entries)

    @property
    def is_zero(self) -> bool:
        return all(a.is_zero for row in self.entries for a in row)

    def __pow__(self, n: int) -> "Matrix":
        if not self.is_square:
            raise NonSquare("powers need a square matrix")
        result = Matrix.identity(self.field, self.rows)
        base = self
        while n:
            if n & 1:
                result = result @ base
            base = base @ base
            n >>= 1
        return result


@dataclass(frozen=True)
class EchelonResult:
    """Reduced row echelon form with its pivot bookkeeping."""

    reduced: Matrix
    pivot_columns: tuple[int, ...]
    rank: int


def lift(field: Field, values) -> tuple[list, int]:
    """(u, L) with values = u / L for raw values over K: u holds ints over Q,
    plain (re, im) pairs of ints over Q(i), residues over F_p (L = 1), and
    L is the lcm of the denominators.  `_Lifted` computes on u, and `_box`
    is the way back."""
    if field.characteristic:
        return list(values), 1
    if isinstance(field, GaussianRationals):
        L = lcm(*(x.denominator for pair in values for x in pair))
        return [(a.numerator * (L // a.denominator), b.numerator * (L // b.denominator))
                for a, b in values], L
    L = lcm(*(x.denominator for x in values))
    return [x.numerator * (L // x.denominator) for x in values], L


def _box(field: Field, u, L: int) -> list[Scalar]:
    """u / L over K for lifted values u and an integer L, the inverse of
    `lift`; over F_p, L = 1 and u is reduced mod p here."""
    p = field.characteristic
    if p:
        return [Scalar(field, a % p) for a in u]
    zero = field.zero()
    if isinstance(field, GaussianRationals):
        return [Scalar(field, Gaussian((Fraction(a, L), Fraction(b, L)))) if a or b else zero
                for a, b in u]
    return [Scalar(field, Fraction(a, L)) if a else zero for a in u]


class _Lifted:
    """Ring operations on lifted values (see `lift`): ints over Q, plain
    (re, im) pairs of ints over Q(i), ints standing for residues over F_p.
    Every product is built from `dot`, and over F_p each inner product is
    reduced mod p once, not term by term; `add` and `neg` do not reduce,
    which `_box` does on the way back."""

    def __init__(self, field: Field):
        self.field = field
        self.p = field.characteristic
        self.gaussian = isinstance(field, GaussianRationals)
        self.zero, self.one = self.of_int(0), self.of_int(1)

    def of_int(self, k: int):
        """The integer k as a lifted value."""
        if self.gaussian:
            return k, 0
        return k % self.p if self.p else k

    def rows(self, A: "Matrix") -> tuple[list[list], int]:
        """(M, d) with A = M / d, M a list of lifted rows."""
        u, d = lift(self.field, [a.value for row in A.entries for a in row])
        return [u[i * A.cols : (i + 1) * A.cols] for i in range(A.rows)], d

    def add(self, x, y):
        if self.gaussian:
            return x[0] + y[0], x[1] + y[1]
        return x + y

    def neg(self, x):
        if self.gaussian:
            return -x[0], -x[1]
        return -x

    def dot(self, x, y):
        """sum_i x[i] y[i] over the shorter of x and y."""
        if self.gaussian:
            re = im = 0
            for (a, b), (c, d) in zip(x, y):
                re += a * c - b * d
                im += a * d + b * c
            return re, im
        s = sum(map(mul, x, y))
        return s % self.p if self.p else s

    def matmul(self, X, Y) -> list[list]:
        cols = list(zip(*Y))
        return [[self.dot(row, col) for col in cols] for row in X]


class Echelon:
    """The one row elimination over K: fraction-free Gauss–Jordan on integral
    rows (Bareiss, Math. Comp. 22, 1968; Geddes, Czapor & Labahn,
    *Algorithms for Computer Algebra*, ch. 9).

    Over Q a row is a list of ints; over Q(i) a Gaussian-integer row is a
    pair (re, im) of int lists; over F_p a list of residues.  Each input
    comes in as a lift (u, L), its denominators cleared once: `reduce`
    lifts a vector over K, `reduce_lifted` takes one lifted already.
    Every row equals D at its own pivot and zero at every other pivot, D
    being the latest pivot value (over F_p, D = 1), so each entry is a
    minor of the cleared inputs and every division in `push` is exact.
    All vectors given to one `Echelon` have the same length.  `reduce`
    gives (w, den) with w integral; only `box` takes w back to K.
    """

    def __init__(self, field: Field):
        self.field = field
        self.pivots: list[int] = []
        self.rows: list = []
        self.D = (1, 0) if isinstance(field, GaussianRationals) else 1

    def reduce(self, v):
        """`reduce_lifted` of the lift of v."""
        field = self.field
        if any(a.field is not field and a.field != field for a in v):
            raise TagMismatch("vector and echelon over different fields")
        return self.reduce_lifted(*lift(field, [a.value for a in v]))

    def reduce_lifted(self, u, L: int):
        """(w, D L) with w = D u - sum_i u[p_i] r_i for the lift (u, L) of a
        vector v = u / L, so that w / (D L) is the vector of v + (row space)
        that is zero at every pivot.  The coefficients are read from u, not
        from the partly reduced w.  A lift whose L shares a factor with all
        of u is first put in lowest terms, as `lift` would give it: a
        scaled lift would carry that factor into every later pivot."""
        D, p = self.D, self.field.characteristic
        if L != 1:
            pairs = isinstance(D, tuple)
            g = gcd(L, *(x for a in u for x in a)) if pairs else gcd(L, *u)
            if g != 1:
                L //= g
                u = [(a // g, b // g) for a, b in u] if pairs else [a // g for a in u]
        if isinstance(D, tuple):
            return self._reduce_gaussian(u, L)
        w = [D * a for a in u] if D != 1 else u
        for q, r in zip(self.pivots, self.rows):
            f = u[q]
            if f:
                w = [a - f * b for a, b in zip(w, r)]
        return ([a % p for a in w] if p else w), D * L

    def _reduce_gaussian(self, u, L):
        dr, di = self.D
        wr = [dr * a - di * b for a, b in u]
        wi = [dr * b + di * a for a, b in u]
        for q, (rr, ri) in zip(self.pivots, self.rows):
            fr, fi = u[q]
            if fr or fi:
                wr = [a - fr * c + fi * d for a, c, d in zip(wr, rr, ri)]
                wi = [b - fr * d - fi * c for b, c, d in zip(wi, rr, ri)]
        return (wr, wi), (dr * L, di * L)

    def leading(self, w) -> int | None:
        """The index of the first nonzero entry of w, None if w is zero."""
        if isinstance(self.D, tuple):
            return next((i for i, (a, b) in enumerate(zip(*w)) if a or b), None)
        return next((i for i, a in enumerate(w) if a), None)

    def box(self, w, den, indices=None) -> list[Scalar]:
        """w / den over K, at `indices` if given; den is (re, im) over Q(i),
        where (a + bi) / den = (a + bi) conj(den) / |den|^2."""
        if isinstance(den, tuple):
            w = list(zip(*w))
        if indices is not None:
            w = [w[t] for t in indices]
        if isinstance(den, tuple):
            dr, di = den
            w = [(a * dr + b * di, b * dr - a * di) for a, b in w]
            den = dr * dr + di * di
        return _box(self.field, w, den)

    def push(self, w) -> None:
        """Append w from the latest `reduce`; zero adds nothing.  With D' = w[q],
        q the leading index, each row r becomes (D' r - r[q] w) / D."""
        q = self.leading(w)
        if q is None:
            return
        D, p = self.D, self.field.characteristic
        if isinstance(D, tuple):
            return self._push_gaussian(q, *w)
        if p:
            inv = pow(w[q], -1, p)
            w = [a * inv % p for a in w]
        Dn = w[q]
        for i, r in enumerate(self.rows):
            f = r[q]
            if p:
                self.rows[i] = [(a - f * b) % p for a, b in zip(r, w)] if f else r
            else:
                self.rows[i] = [(Dn * a - f * b) // D for a, b in zip(r, w)]
        self.D = Dn
        self.pivots.append(q)
        self.rows.append(w)

    def _push_gaussian(self, q, wr, wi):
        """As `push`, with the division by D made a division by |D|^2:
        (D' r - f w) / D = (D' conj(D) r - f conj(D) w) / |D|^2."""
        (dr, di), nr, ni = self.D, wr[q], wi[q]
        n2 = dr * dr + di * di
        ar, ai = nr * dr + ni * di, ni * dr - nr * di
        for i, (rr, ri) in enumerate(self.rows):
            fr, fi = rr[q], ri[q]
            br, bi = fr * dr + fi * di, fi * dr - fr * di
            cols = list(zip(rr, ri, wr, wi))
            self.rows[i] = (
                [(ar * c - ai * d - br * a + bi * b) // n2 for c, d, a, b in cols],
                [(ar * d + ai * c - br * b - bi * a) // n2 for c, d, a, b in cols],
            )
        self.D = (nr, ni)
        self.pivots.append(q)
        self.rows.append((wr, wi))


def rref(M: Matrix) -> EchelonResult:
    """Reduced row echelon form by fraction-free Gauss–Jordan: every row goes
    through one `Echelon`, and its rows, sorted by pivot, are boxed once,
    each divided by D.  The result is unique."""
    ech = Echelon(M.field)
    for row in M.entries:
        ech.push(ech.reduce(row)[0])
    order = sorted(range(len(ech.pivots)), key=ech.pivots.__getitem__)
    rows = [ech.box(ech.rows[i], ech.D) for i in order]
    rows += [[M.field.zero()] * M.cols] * (M.rows - len(rows))
    pivots = tuple(ech.pivots[i] for i in order)
    return EchelonResult(Matrix(M.field, rows, (M.rows, M.cols)), pivots, len(pivots))


def rank(M: Matrix) -> int:
    return rref(M).rank


def kernel_basis(M: Matrix) -> list[Vector]:
    """A basis of the nullspace, one vector per free column."""
    ech = rref(M)
    field = M.field
    pivot_set = set(ech.pivot_columns)
    free = [c for c in range(M.cols) if c not in pivot_set]
    basis = []
    for fc in free:
        v = [field.zero()] * M.cols
        v[fc] = field.one()
        for r, pc in enumerate(ech.pivot_columns):
            v[pc] = -ech.reduced.entries[r][fc]
        basis.append(tuple(v))
    return basis


def solve_linear(M: Matrix, b: Vector) -> Vector:
    """Some exact solution of M x = b, or NoSolution."""
    if len(b) != M.rows:
        raise DimensionMismatch(f"matrix has {M.rows} rows, vector length {len(b)}")
    field = M.field
    augmented = Matrix(field, (tuple(row) + (b[i],) for i, row in enumerate(M.entries)))
    ech = rref(augmented)
    if M.cols in ech.pivot_columns:
        raise NoSolution("right-hand side outside the column space")
    x = [field.zero()] * M.cols
    for r, pc in enumerate(ech.pivot_columns):
        x[pc] = ech.reduced.entries[r][M.cols]
    return tuple(x)


def kronecker_column(A: Matrix, B: Matrix, k: int) -> Vector:
    """Column k = i*m + j of A (x) B, which is (A e_i) (x) (B f_j).  Zero
    factors are skipped, not multiplied: one side is often an identity."""
    i, j = divmod(k, B.cols)
    zero = A.field.zero()
    return tuple(
        zero if a.is_zero or b.is_zero else a * b for a in A.column(i) for b in B.column(j)
    )


def kronecker(A: Matrix, B: Matrix) -> Matrix:
    """Kronecker product in the fixed basis order e_i (x) f_j -> i*m + j."""
    if A.field != B.field:
        raise TagMismatch("kronecker requires a common field")
    columns = [kronecker_column(A, B, k) for k in range(A.cols * B.cols)]
    rows = A.rows * B.rows
    return Matrix(A.field, ((c[r] for c in columns) for r in range(rows)), (rows, len(columns)))


def sylvester_columns(A: Matrix, B: Matrix):
    """The columns of A (x) I - I (x) B in order, each filled in directly from
    the nonzero entries of A and B: column k*m + l is A[i][k] at i*m + l
    and -B[j][l] at k*m + j."""
    if A.field != B.field:
        raise TagMismatch("sylvester operator requires a common field")
    if not A.is_square or not B.is_square:
        raise NonSquare("sylvester operator requires square factors")
    n, m = A.rows, B.rows
    zero, b_cols = A.field.zero(), list(zip(*B.entries))
    for k, a_col in enumerate(zip(*A.entries)):
        for l, b_col in enumerate(b_cols):
            col = [zero] * (n * m)
            for i, a in enumerate(a_col):
                if not a.is_zero:
                    col[i * m + l] = a
            for j, b in enumerate(b_col):
                if not b.is_zero:
                    col[k * m + j] = col[k * m + j] - b
            yield col


def sylvester_operator(A: Matrix, B: Matrix) -> Matrix:
    """The map t -> (A (x) I - I (x) B) t on the nm coordinate space.  Its
    image is the span of all vectors (A x) (x) y - x (x) (B y), hence the
    relation subspace of the operator-pair tensor quotient."""
    columns = list(sylvester_columns(A, B))
    return Matrix(A.field, zip(*columns), (len(columns), len(columns)))


def companion_matrix(p: Poly) -> Matrix:
    """Companion matrix of a monic polynomial: subdiagonal ones, negated
    coefficients in the last column."""
    if p.degree < 1:
        raise ConstantPolynomial("companion matrix needs degree >= 1")
    if not p.is_monic:
        raise NotMonic("companion matrix needs a monic polynomial")
    field = p.field
    n = p.degree
    zero, one = field.zero(), field.one()
    out = [[zero] * n for _ in range(n)]
    for i in range(1, n):
        out[i][i - 1] = one
    for i in range(n):
        out[i][n - 1] = -p.coefficient(i)
    return Matrix(field, out)


def poly_eval_operator(pi: Poly, A: Matrix) -> Matrix:
    """Evaluate a polynomial at a square matrix by Paterson–Stockmeyer on
    the integral lift, boxing only the result.

    With A = M / d and the coefficients of pi lifted to c_k / L (`lift`),
    pi(A) = g(M) / (L d^m) for m = deg pi and g = sum_k c_k d^(m-k) x^k,
    whose coefficients are integral.  For s = floor(sqrt(m + 1)) the powers
    I, M, ..., M^s are formed once, the coefficients of g are cut into
    blocks of s, and Horner's rule runs in M^s over the blocks, each block
    being sum_j g_(ks+j) M^j.  That is about 2 sqrt(m) n x n products
    instead of m (Paterson & Stockmeyer, SIAM J. Comput. 2, 1973).
    """
    if not A.is_square:
        raise NonSquare("polynomial evaluation needs a square matrix")
    if pi.field != A.field:
        raise TagMismatch("polynomial and matrix fields differ")
    field, n, m = A.field, A.rows, pi.degree
    if pi.is_zero:
        return Matrix.zeros(field, n, n)
    ring = _Lifted(field)
    M, d = ring.rows(A)
    c, L = lift(field, pi.values)
    # g_k = c_k d^(m-k), each a one-term dot
    g = [ring.dot((a,), (ring.of_int(d ** (m - k)),)) for k, a in enumerate(c)]
    s = max(1, isqrt(m + 1))
    powers = [[[ring.one if i == j else ring.zero for j in range(n)] for i in range(n)], M]
    while len(powers) <= s:
        powers.append(ring.matmul(powers[-1], M))
    # stacks[i][j] = (I[i][j], M[i][j], ..., M^s[i][j]); a block entry is one dot
    stacks = [list(zip(*(P[i] for P in powers))) for i in range(n)]
    acc = None
    for k in reversed(range(0, m + 1, s)):
        block = [[ring.dot(g[k : k + s], e) for e in row] for row in stacks]
        if acc is not None:
            block = [list(map(ring.add, r, b)) for r, b in zip(ring.matmul(acc, powers[s]), block)]
        acc = block
    return Matrix(field, (_box(field, row, L * d**m) for row in acc), (n, n))
