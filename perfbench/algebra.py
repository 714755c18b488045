"""Exact arithmetic for building benchmark inputs and their answers.

Everything here is independent of ximod: the benchmark builds each input
from pieces whose algebra it knows (a factored polynomial, a conjugated
block-diagonal operator) and derives the expected answer from those
pieces, never by asking ximod.  Polynomials are coefficient lists, index =
degree, without trailing zeros; a "factored" polynomial is a dict mapping
monic pairwise-coprime pieces (coefficient tuples) to exponents.
"""
from __future__ import annotations

import random
from fractions import Fraction


class Q:
    kind = "q"
    flag = "q"
    zero, one = Fraction(0), Fraction(1)

    def from_int(self, n):
        return Fraction(n)

    def add(self, a, b):
        return a + b

    def mul(self, a, b):
        return a * b

    def neg(self, a):
        return -a

    def inv(self, a):
        return 1 / a

    def enc(self, a):
        return str(a)

    def text(self, a):
        return str(a)

    def decl(self):
        return {"field": "q"}


class QI:
    kind = "qi"
    flag = "qi"
    zero, one = (Fraction(0), Fraction(0)), (Fraction(1), Fraction(0))

    def from_int(self, n):
        return (Fraction(n), Fraction(0))

    def add(self, a, b):
        return (a[0] + b[0], a[1] + b[1])

    def mul(self, a, b):
        return (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0])

    def neg(self, a):
        return (-a[0], -a[1])

    def inv(self, a):
        n = a[0] * a[0] + a[1] * a[1]
        return (a[0] / n, -a[1] / n)

    def enc(self, a):
        return {"re": str(a[0]), "im": str(a[1])}

    def text(self, a):
        """Compact literal for expressions: 3, 2i, -i, 1/2-3i."""
        re, im = a
        if im == 0:
            return str(re)
        im_part = {1: "i", -1: "-i"}.get(im, f"{im}i")
        if re == 0:
            return im_part
        return f"{re}{'' if im_part.startswith('-') else '+'}{im_part}"

    def decl(self):
        return {"field": "qi"}


class FP:
    kind = "fp"
    zero, one = 0, 1

    def __init__(self, p: int):
        self.p = p
        self.flag = f"fp:{p}"

    def from_int(self, n):
        return n % self.p

    def add(self, a, b):
        return (a + b) % self.p

    def mul(self, a, b):
        return (a * b) % self.p

    def neg(self, a):
        return (-a) % self.p

    def inv(self, a):
        return pow(a, self.p - 2, self.p)

    def enc(self, a):
        return str(a)

    def text(self, a):
        return str(a)

    def decl(self):
        return {"field": "fp", "p": self.p}


def field_from_flag(flag: str):
    if flag == "q":
        return Q()
    if flag == "qi":
        return QI()
    return FP(int(flag[3:]))


def small_scalar(F, rng: random.Random, lo=-3, hi=3):
    """A small integral scalar: an integer, or a gaussian integer over qi."""
    if F.kind == "qi":
        return (Fraction(rng.randint(lo, hi)), Fraction(rng.randint(lo, hi)))
    return F.from_int(rng.randint(lo, hi))


# -- polynomials --------------------------------------------------------------

def trim(F, a):
    a = list(a)
    while a and a[-1] == F.zero:
        a.pop()
    return a


def padd(F, a, b):
    n = max(len(a), len(b))
    a = list(a) + [F.zero] * (n - len(a))
    b = list(b) + [F.zero] * (n - len(b))
    return trim(F, (F.add(x, y) for x, y in zip(a, b)))


def pmul(F, a, b):
    if not a or not b:
        return []
    out = [F.zero] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x == F.zero:
            continue
        for j, y in enumerate(b):
            out[i + j] = F.add(out[i + j], F.mul(x, y))
    return trim(F, out)


def pscale(F, c, a):
    return trim(F, (F.mul(c, x) for x in a))


def pdivmod(F, a, b):
    rem = list(a)
    inv = F.inv(b[-1])
    db = len(b) - 1
    quot = [F.zero] * max(len(a) - db, 0)
    for k in range(len(rem) - 1, db - 1, -1):
        c = rem[k]
        if c == F.zero:
            continue
        q = F.mul(c, inv)
        quot[k - db] = q
        for j, y in enumerate(b):
            rem[k - db + j] = F.add(rem[k - db + j], F.neg(F.mul(q, y)))
    return trim(F, quot), trim(F, rem)


def monic(F, a):
    return pscale(F, F.inv(a[-1]), a)


def pgcd(F, a, b):
    a, b = trim(F, a), trim(F, b)
    while b:
        a, b = b, pdivmod(F, a, b)[1]
    return monic(F, a)


def peval(F, a, x):
    acc = F.zero
    for c in reversed(a):
        acc = F.add(F.mul(acc, x), c)
    return acc


def ppowmod(F, base, e, mod):
    result, base = [F.one], pdivmod(F, base, mod)[1]
    while e:
        if e & 1:
            result = pdivmod(F, pmul(F, result, base), mod)[1]
        base = pdivmod(F, pmul(F, base, base), mod)[1]
        e >>= 1
    return result


def linear(F, root):
    """x - root."""
    return (F.neg(root), F.one)


def _prime_divisors(n: int) -> list[int]:
    out, d = [], 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    return out + ([n] if n > 1 else [])


def irreducible_fp(F: FP, f) -> bool:
    """Rabin's test for a monic f over F_p."""
    d = len(f) - 1
    x = [F.zero, F.one]

    def frob(k):  # x^(p^k) mod f
        h = x
        for _ in range(k):
            h = ppowmod(F, h, F.p, f)
        return h

    if pdivmod(F, padd(F, frob(d), pscale(F, F.neg(F.one), x)), f)[1]:
        return False
    for r in _prime_divisors(d):
        g = pgcd(F, f, padd(F, frob(d // r), pscale(F, F.neg(F.one), x)))
        if len(g) > 1:
            return False
    return True


def random_irreducible_fp(F: FP, degree: int, rng: random.Random, avoid=()):
    while True:
        f = tuple([rng.randrange(F.p) for _ in range(degree)] + [1])
        if f not in avoid and irreducible_fp(F, list(f)):
            return f


# -- factored polynomials ------------------------------------------------------

def expand(F, fac: dict) -> list:
    out = [F.one]
    for piece in sorted(fac, key=lambda t: (len(t), repr(t))):
        for _ in range(fac[piece]):
            out = pmul(F, out, list(piece))
    return out


def degree(fac: dict) -> int:
    return sum((len(p) - 1) * e for p, e in fac.items())


def fac_gcd(a: dict, b: dict) -> dict:
    return {p: min(e, b[p]) for p, e in a.items() if p in b}


def fac_mul(a: dict, b: dict) -> dict:
    out = dict(a)
    for p, e in b.items():
        out[p] = out.get(p, 0) + e
    return out


def elementary_divisors(cyclics: list[dict]) -> dict:
    """piece -> sorted exponents, for the module sum of K[x]/(f) over f."""
    out: dict = {}
    for fac in cyclics:
        for p, e in fac.items():
            if e > 0:
                out.setdefault(p, []).append(e)
    return {p: sorted(es) for p, es in out.items()}


def invariant_chain(cyclics: list[dict]) -> list[dict]:
    """Invariant factors a_1 | a_2 | ... of the sum of K[x]/(f), lowest first."""
    elem = elementary_divisors(cyclics)
    r = max((len(es) for es in elem.values()), default=0)
    chain = []
    for i in range(r):
        fac = {}
        for p, es in elem.items():
            k = i - (r - len(es))
            if k >= 0:
                fac[p] = es[k]
        chain.append(fac)
    return chain


# -- matrices -----------------------------------------------------------------

def identity(F, n):
    return [[F.one if i == j else F.zero for j in range(n)] for i in range(n)]


def matmul(F, A, B):
    cols = list(zip(*B))
    out = []
    for row in A:
        out_row = []
        for col in cols:
            acc = F.zero
            for a, b in zip(row, col):
                if a != F.zero and b != F.zero:
                    acc = F.add(acc, F.mul(a, b))
            out_row.append(acc)
        out.append(out_row)
    return out


def matvec(F, A, v):
    return [dot(F, row, v) for row in A]


def dot(F, u, v):
    acc = F.zero
    for a, b in zip(u, v):
        acc = F.add(acc, F.mul(a, b))
    return acc


def transpose(A):
    return [list(r) for r in zip(*A)]


def companion(F, f):
    """Companion matrix of a monic f: subdiagonal ones, -coefficients last."""
    n = len(f) - 1
    C = [[F.zero] * n for _ in range(n)]
    for i in range(1, n):
        C[i][i - 1] = F.one
    for i in range(n):
        C[i][n - 1] = F.neg(f[i])
    return C


def block_diagonal(F, blocks):
    n = sum(len(b) for b in blocks)
    out = [[F.zero] * n for _ in range(n)]
    k = 0
    for b in blocks:
        for i, row in enumerate(b):
            out[k + i][k : k + len(row)] = row
        k += len(b)
    return out


def _unit_lower(F, n, rng, density):
    L = identity(F, n)
    for i in range(n):
        for j in range(i):
            if rng.random() < density:
                L[i][j] = F.from_int(rng.choice((-1, 1)))
    return L


def _invert_unit_lower(F, L):
    n = len(L)
    X = identity(F, n)
    for i in range(n):
        for j in range(i):
            acc = F.zero
            for k in range(j, i):
                acc = F.add(acc, F.mul(L[i][k], X[k][j]))
            X[i][j] = F.neg(acc)
    return X


def random_similarity(F, n, rng, density=0.5):
    """S and S^-1 for S = L U with unit triangular L, U and entries +-1."""
    L = _unit_lower(F, n, rng, density)
    Ut = _unit_lower(F, n, rng, density)
    S = matmul(F, L, transpose(Ut))
    S_inv = matmul(F, transpose(_invert_unit_lower(F, Ut)), _invert_unit_lower(F, L))
    return S, S_inv


def operator_from_chain(F, chain, rng, density=1.0):
    """S C S^-1 for C the block-diagonal companion matrix of `chain` (monic
    coefficient lists): an operator with exactly those invariant factors."""
    C = block_diagonal(F, [companion(F, f) for f in chain])
    S, S_inv = random_similarity(F, len(C), rng, density)
    return matmul(F, matmul(F, S, C), S_inv)


# -- JSON encodings -------------------------------------------------------------

def poly_json(F, a):
    return [F.enc(c) for c in a]


def matrix_json(F, M):
    return {**F.decl(), "rows": len(M), "cols": len(M[0]) if M else 0,
            "entries": [[F.enc(e) for e in row] for row in M]}


def polymatrix_json(F, P):
    return {**F.decl(), "rows": len(P), "cols": len(P[0]) if P else 0,
            "entries": [[poly_json(F, e) for e in row] for row in P]}
