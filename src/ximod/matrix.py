"""Exact dense matrices and vectors over a coefficient field.

A `Matrix` stores the raw values of its entries, as a `Poly` over F_p
stores its coefficients: ``Matrix(field, scalars)`` checks and unboxes
each entry once, every matrix built inside the library goes through the
unchecked `_make`, which reduces mod p once, and `entries` boxes on read.
The eliminations and evaluations run on the integral lift of the values
(`_Lifted`, `Echelon`, whose rows are read through `Echelon.basis` and
`Echelon.kernel`), in the one layout of `poly.lift`: ints over Q and F_p,
(re, im) pairs of ints over Q(i).  `poly.lift` is the way in and
`poly._box` the way back to raw values, the same pair by which a `Poly`
over Q and Q(i) is stored and read; `poly_eval_operator` takes its
polynomial's lift as it is stored.  A `Matrix` is lifted once: the first
`_Lifted.rows` keeps its lift, and a matrix that `_make` derives from it
starts without one.
"""
from __future__ import annotations

from dataclasses import dataclass
from math import isqrt
from operator import add, mul, sub

from .errors import (
    ConstantPolynomial,
    DimensionMismatch,
    NonSquare,
    NoSolution,
    NotMonic,
    TagMismatch,
)
from .fields import Field, GaussianRationals, Scalar, _scalar
from .poly import Poly, _box, _lowest_terms, _power, _times, _value, lift

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


def _vector(field: Field, values) -> Vector:
    """The raw values as Scalars, reduced mod p over F_p."""
    return tuple(_scalar(field, v) for v in values)


class DenseMatrix:
    """An immutable rows x cols grid `values` whose entries share one field.

    ``cls(field, entries, shape)`` is the checked edge: the subclass's
    `_unbox(field, entry)` checks each entry and gives the value stored.
    Everything built inside the library goes through the unchecked `_make`.
    `_of_int(field, k)` is the value of the integer k.  Everything that only
    adds and multiplies values lives here.  The shape pins down degenerate
    sizes (0 x k) that the rows alone cannot express.  Matrices of different
    subclasses, or over different fields, never compare equal.
    """

    __slots__ = ("field", "rows", "cols", "values")

    def __new__(cls, field: Field, entries, shape: tuple[int, int] | None = None):
        return cls._checked(field, ([cls._unbox(field, e) for e in row] for row in entries), shape)

    @classmethod
    def _checked(cls, field: Field, values, shape: tuple[int, int] | None = None):
        """`_make` of values whose shape is checked."""
        values = tuple(map(tuple, values))
        rows = len(values)
        cols = len(values[0]) if rows else (shape[1] if shape else 0)
        if shape is not None and shape != (rows, cols):
            raise DimensionMismatch(f"entries are {rows}x{cols}, expected {shape}")
        if any(len(row) != cols for row in values):
            raise DimensionMismatch("ragged rows")
        return cls._make(field, values, (rows, cols))

    @classmethod
    def _make(cls, field: Field, values, shape: tuple[int, int]):
        """The matrix of the given shape with rows `values`, trusted."""
        M = object.__new__(cls)
        object.__setattr__(M, "field", field)
        object.__setattr__(M, "rows", shape[0])
        object.__setattr__(M, "cols", shape[1])
        object.__setattr__(M, "values", tuple(map(tuple, values)))
        return M

    def __setattr__(self, name, _value):
        raise AttributeError(f"{type(self).__name__} is immutable; cannot set {name!r}")

    # construction ------------------------------------------------------
    @classmethod
    def identity(cls, field: Field, n: int):
        return cls._diagonal(field, [cls._of_int(field, 1)] * n)

    @classmethod
    def zeros(cls, field: Field, rows: int, cols: int):
        zero = cls._of_int(field, 0)
        return cls._make(field, ([zero] * cols for _ in range(rows)), (rows, cols))

    @classmethod
    def diagonal(cls, field: Field, diag):
        return cls._diagonal(field, [cls._unbox(field, e) for e in diag])

    @classmethod
    def _diagonal(cls, field: Field, diag: list):
        zero, n = cls._of_int(field, 0), len(diag)
        rows = ([diag[i] if i == j else zero for j in range(n)] for i in range(n))
        return cls._make(field, rows, (n, n))

    # basic algebra -------------------------------------------------------
    def _check(self, other: "DenseMatrix"):
        if other.field != self.field:
            raise TagMismatch("matrices over different fields")

    def _entrywise(self, other: "DenseMatrix", op):
        self._check(other)
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise DimensionMismatch("matrix shapes differ")
        rows = (list(map(op, r1, r2)) for r1, r2 in zip(self.values, other.values))
        return self._make(self.field, rows, (self.rows, self.cols))

    def __add__(self, other):
        return self._entrywise(other, add)

    def __sub__(self, other):
        return self._entrywise(other, sub)

    def __matmul__(self, other):
        self._check(other)
        if self.cols != other.rows:
            raise DimensionMismatch(f"{self.rows}x{self.cols} @ {other.rows}x{other.cols}")
        zero = self._of_int(self.field, 0)
        cols_t = list(zip(*other.values)) if other.rows else [()] * other.cols
        out = ([sum((a * b for a, b in zip(row, col) if a and b), zero) for col in cols_t]
               for row in self.values)
        return self._make(self.field, out, (self.rows, other.cols))

    def transpose(self):
        if self.rows == 0 or self.cols == 0:
            return self.zeros(self.field, self.cols, self.rows)
        return self._make(self.field, zip(*self.values), (self.cols, self.rows))

    @property
    def is_square(self) -> bool:
        return self.rows == self.cols

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        # the field first: Fraction(1) == 1, so grids over Q and F_p can hold equal values
        return (self.field == other.field and (self.rows, self.cols) == (other.rows, other.cols)
                and self.values == other.values)

    def __hash__(self):
        return hash((type(self).__name__, self.field, self.values))

    def __str__(self):
        return "\n".join("[" + ", ".join(str(a) for a in row) + "]" for row in self.values)

    def __repr__(self):
        return f"{type(self).__name__}({self.field.kind}, {self.rows}x{self.cols})"


class Matrix(DenseMatrix):
    """An immutable rows x cols matrix over one field, whose `values` are raw:
    Fractions over Q, `Gaussian` pairs over Q(i), residues over F_p.  The
    `lifted` slot is empty until the first `_Lifted.rows`, which keeps the
    matrix's lift there."""

    __slots__ = ("lifted",)

    _unbox = staticmethod(_value)
    _of_int = staticmethod(lambda field, k: field.canon(k))

    @classmethod
    def _make(cls, field: Field, values, shape: tuple[int, int]) -> "Matrix":
        p = field.characteristic
        if p:
            values = ([v % p for v in row] for row in values)
        return super()._make(field, values, shape)

    @property
    def entries(self) -> tuple[tuple[Scalar, ...], ...]:
        """The entries boxed as Scalars, row by row."""
        return tuple(tuple(Scalar(self.field, v) for v in row) for row in self.values)

    @classmethod
    def from_ints(cls, field: Field, rows) -> "Matrix":
        return cls._checked(field, ((field.canon(v) for v in row) for row in rows))

    def scale(self, c: Scalar) -> "Matrix":
        v = _value(self.field, c)
        return self._make(self.field, ([v * a for a in row] for row in self.values),
                          (self.rows, self.cols))

    def matvec(self, x: Vector) -> Vector:
        if len(x) != self.cols:
            raise DimensionMismatch(f"matrix has {self.cols} columns, vector length {len(x)}")
        return (self @ Matrix(self.field, [[c] for c in x], (self.cols, 1))).column(0)

    def column(self, j: int) -> Vector:
        return _vector(self.field, (row[j] for row in self.values))

    @property
    def is_zero(self) -> bool:
        return not any(map(any, self.values))

    def __pow__(self, n: int) -> "Matrix":
        """self^n for n >= 0, the identity at n = 0, by `poly._power`."""
        if not self.is_square:
            raise NonSquare("powers need a square matrix")
        if n < 0:
            raise ValueError("negative matrix power")
        if not n:
            return Matrix.identity(self.field, self.rows)
        return _power(self, n, Matrix.__matmul__)


# the slot's descriptor sets it past the refusing DenseMatrix.__setattr__
_set_lifted = Matrix.lifted.__set__


@dataclass(frozen=True)
class EchelonResult:
    """Reduced row echelon form with its pivot bookkeeping."""

    reduced: Matrix
    pivot_columns: tuple[int, ...]
    rank: int


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
        """(M, d) with A = M / d, M a list of lifted rows.  The first call
        on A lifts it and keeps (u, d) in `A.lifted`; each call cuts fresh
        row lists from u, so no caller can change what the next one reads."""
        try:
            u, d = A.lifted
        except AttributeError:
            u, d = lift(self.field, [a for row in A.values for a in row])
            _set_lifted(A, (u, d))
        return [u[i * A.cols : (i + 1) * A.cols] for i in range(A.rows)], d

    def add(self, x, y):
        if self.gaussian:
            return x[0] + y[0], x[1] + y[1]
        return x + y

    def neg(self, x):
        if self.gaussian:
            return -x[0], -x[1]
        return -x

    def scale(self, k: int, x):
        """k x for an integer k."""
        if self.gaussian:
            return k * x[0], k * x[1]
        return k * x % self.p if self.p else k * x

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

    def powers(self, M: list, k: int) -> list:
        """[I, M, M^2, ..., M^k] for a square lifted M, M itself second: k - 1
        products for k >= 1."""
        n = len(M)
        identity = [[self.one if i == j else self.zero for j in range(n)] for i in range(n)]
        powers = [identity, M][: k + 1]
        while len(powers) <= k:
            powers.append(self.matmul(powers[-1], M))
        return powers


class Echelon:
    """The one row elimination over K: fraction-free Gauss–Jordan on integral
    rows (Bareiss, Math. Comp. 22, 1968; Geddes, Czapor & Labahn,
    *Algorithms for Computer Algebra*, ch. 9).

    Rows, reduced vectors and D are lifted values in the one layout of
    `lift` (ints over Q, (re, im) pairs of ints over Q(i), residues over
    F_p), and what differs between the fields is read from the `_Lifted`
    ring.  Each input comes to `reduce_lifted` as a lift (u, L), its
    denominators cleared once.  Every row equals D at its own pivot and
    zero at every other pivot, D being the latest pivot value (over F_p,
    D = 1), so each entry is a minor of the cleared inputs and every
    division in `push` is exact.  All vectors given to one `Echelon` have
    the same length.  `reduce_lifted` gives (w, den) with w integral, and
    `_box(field, w, den)` takes it back to K.  The rows are read only
    through `basis` and `kernel`.
    """

    def __init__(self, field: Field):
        self.field = field
        self.ring = _Lifted(field)
        self.pivots: list[int] = []
        self.rows: list = []
        self.D = self.ring.one

    def reduce_lifted(self, u, L: int):
        """(w, D L) with w = D u - sum_i u[p_i] r_i for the lift (u, L) of a
        vector v = u / L, so that w / (D L) is the vector of v + (row space)
        that is zero at every pivot.  The coefficients are read from u, not
        from the partly reduced w.  A lift whose L shares a factor with all
        of u is first put in lowest terms, as `lift` would give it: a
        scaled lift would carry that factor into every later pivot."""
        D, ring = self.D, self.ring
        if L != 1:
            u, L = _lowest_terms(u, L, ring.gaussian)
        if ring.gaussian:
            w = _times(u, D, True)
            for q, r in zip(self.pivots, self.rows):
                fr, fi = u[q]
                if fr or fi:
                    w = [(a - fr * c + fi * d, b - fr * d - fi * c)
                         for (a, b), (c, d) in zip(w, r)]
            return w, ring.scale(L, D)
        p = ring.p
        w = [D * a for a in u] if D != 1 else u
        for q, r in zip(self.pivots, self.rows):
            f = u[q]
            if f:
                w = [a - f * b for a, b in zip(w, r)]
        return ([a % p for a in w] if p else w), D * L

    def leading(self, w) -> int | None:
        """The index of the first nonzero entry of w, None if w is zero."""
        zero = self.ring.zero
        return next((i for i, a in enumerate(w) if a != zero), None)

    def basis(self) -> list[tuple[int, list]]:
        """(pivot, row) for every row, ordered by pivot: divided by D, the
        rows are the reduced row echelon form."""
        return sorted(zip(self.pivots, self.rows))  # pivots are distinct

    def kernel(self, length: int):
        """The kernel of the rows, one lifted vector of the given length per
        free coordinate f, in increasing order: D at f, -r[f] at the pivot of
        each row r, zero elsewhere."""
        rows, ring = self.basis(), self.ring
        for f in sorted(set(range(length)) - set(self.pivots)):
            x = [ring.zero] * length
            x[f] = self.D
            for q, r in rows:
                x[q] = ring.neg(r[f])
            yield x

    def push(self, w) -> None:
        """Append w from the latest `reduce_lifted`; zero adds nothing.  With D' = w[q],
        q the leading index, each row r becomes (D' r - r[q] w) / D, which is
        r itself when r[q] = 0 and D' = D."""
        q = self.leading(w)
        if q is None:
            return
        D, p = self.D, self.ring.p
        if self.ring.gaussian:
            return self._push_gaussian(q, w)
        if p:
            inv = pow(w[q], -1, p)
            w = [a * inv % p for a in w]
        Dn = w[q]
        for i, r in enumerate(self.rows):
            f = r[q]
            if p:
                self.rows[i] = [(a - f * b) % p for a, b in zip(r, w)] if f else r
            elif f or Dn != D:
                self.rows[i] = [(Dn * a - f * b) // D for a, b in zip(r, w)]
        self.D = Dn
        self.pivots.append(q)
        self.rows.append(w)

    def _push_gaussian(self, q, w):
        """As `push`, with the division by D made a division by |D|^2:
        (D' r - f w) / D = (D' conj(D) r - f conj(D) w) / |D|^2."""
        (dr, di), (nr, ni) = self.D, w[q]
        n2 = dr * dr + di * di
        ar, ai = nr * dr + ni * di, ni * dr - nr * di
        for i, r in enumerate(self.rows):
            fr, fi = r[q]
            if not (fr or fi) and (nr, ni) == (dr, di):
                continue
            br, bi = fr * dr + fi * di, fi * dr - fr * di
            self.rows[i] = [((ar * c - ai * d - br * a + bi * b) // n2,
                             (ar * d + ai * c - br * b - bi * a) // n2)
                            for (c, d), (a, b) in zip(r, w)]
        self.D = w[q]
        self.pivots.append(q)
        self.rows.append(w)


def _row_echelon(M: Matrix) -> Echelon:
    """The `Echelon` of the rows of M."""
    ech = Echelon(M.field)
    for row in M.values:
        ech.push(ech.reduce_lifted(*lift(M.field, row))[0])
    return ech


def rref(M: Matrix) -> EchelonResult:
    """Reduced row echelon form by fraction-free Gauss–Jordan: the `basis`
    of the rows' `Echelon`, each row boxed once, divided by D.  The result
    is unique."""
    field, ech = M.field, _row_echelon(M)
    basis = ech.basis()
    rows = [_box(field, r, ech.D) for _, r in basis]
    rows += [[field.canon(0)] * M.cols] * (M.rows - len(rows))
    pivots = tuple(q for q, _ in basis)
    return EchelonResult(Matrix._make(field, rows, (M.rows, M.cols)), pivots, len(pivots))


def rank(M: Matrix) -> int:
    return rref(M).rank


def kernel_basis(M: Matrix) -> list[Vector]:
    """A basis of the nullspace, one vector per free column: the
    `Echelon.kernel` of the rows, boxed."""
    ech = _row_echelon(M)
    return [_vector(M.field, _box(M.field, x, ech.D)) for x in ech.kernel(M.cols)]


def solve_linear(M: Matrix, b: Vector) -> Vector:
    """Some exact solution of M x = b, or NoSolution."""
    if len(b) != M.rows:
        raise DimensionMismatch(f"matrix has {M.rows} rows, vector length {len(b)}")
    field = M.field
    augmented = (row + (_value(field, c),) for row, c in zip(M.values, b))
    ech = rref(Matrix._make(field, augmented, (M.rows, M.cols + 1)))
    if M.cols in ech.pivot_columns:
        raise NoSolution("right-hand side outside the column space")
    x = [field.canon(0)] * M.cols
    for row, pc in zip(ech.reduced.values, ech.pivot_columns):
        x[pc] = row[M.cols]
    return _vector(field, x)


def kronecker(A: Matrix, B: Matrix) -> Matrix:
    """Kronecker product in the fixed basis order e_i (x) f_j -> i*m + j:
    row (i, j) is each entry of row i of A times row j of B.  Zero factors
    are skipped, not multiplied: one side is often an identity."""
    if A.field != B.field:
        raise TagMismatch("kronecker requires a common field")
    zero = A.field.canon(0)
    rows = ([a * b if a and b else zero for a in ra for b in rb]
            for ra in A.values for rb in B.values)
    return Matrix._make(A.field, rows, (A.rows * B.rows, A.cols * B.cols))


def sylvester_operator(A: Matrix, B: Matrix) -> Matrix:
    """The map t -> (A (x) I - I (x) B) t on the nm coordinate space, built
    as written from `kronecker`.  Its image is the span of all vectors
    (A x) (x) y - x (x) (B y), hence the relation subspace of the
    operator-pair tensor quotient."""
    if A.field != B.field:
        raise TagMismatch("sylvester operator requires a common field")
    if not A.is_square or not B.is_square:
        raise NonSquare("sylvester operator requires square factors")
    return (kronecker(A, Matrix.identity(A.field, B.rows))
            - kronecker(Matrix.identity(A.field, A.rows), B))


def companion_matrix(p: Poly) -> Matrix:
    """Companion matrix of a monic polynomial: subdiagonal ones, negated
    coefficients in the last column."""
    if p.degree < 1:
        raise ConstantPolynomial("companion matrix needs degree >= 1")
    if not p.is_monic:
        raise NotMonic("companion matrix needs a monic polynomial")
    field, n = p.field, p.degree
    zero, one = field.canon(0), field.canon(1)
    out = ([one if i == j + 1 else zero for j in range(n - 1)] + [-p.values[i]] for i in range(n))
    return Matrix._make(field, out, (n, n))


def poly_eval_operator(pi: Poly, A: Matrix) -> Matrix:
    """Evaluate a polynomial at a square matrix by Paterson–Stockmeyer on
    the integral lift, boxing only the result.

    With A = M / d and pi stored as its lift c / L (c_k / L at x^k),
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
    c, L = pi.u, pi.den
    g = [ring.scale(d ** (m - k), a) for k, a in enumerate(c)]  # g_k = c_k d^(m-k)
    s = max(1, isqrt(m + 1))
    powers = ring.powers(M, s)
    # stacks[i][j] = (I[i][j], M[i][j], ..., M^s[i][j]); a block entry is one dot
    stacks = [list(zip(*(P[i] for P in powers))) for i in range(n)]
    acc = None
    for k in reversed(range(0, m + 1, s)):
        block = [[ring.dot(g[k : k + s], e) for e in row] for row in stacks]
        if acc is not None:
            block = [list(map(ring.add, r, b)) for r, b in zip(ring.matmul(acc, powers[s]), block)]
        acc = block
    return Matrix._make(field, (_box(field, row, L * d**m) for row in acc), (n, n))
