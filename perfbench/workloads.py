"""The benchmark's four workloads, generated from a seed.

Each workload is a list of rounds; a round holds one command per rung of
the workload's size ladder (plus its fixed extras), so every complete
round has the same mix of fields, sizes and input classes whatever the
seed.  Every command carries the answer implied by how its input was
built (see algebra.py); the checker compares ximod's output against it.
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

import algebra as al


@dataclass
class Command:
    argv: list
    payload: object  # dict sent as JSON, str sent verbatim, None for no --input
    expect: dict  # {"exit": code, "json": {path: value}, "unordered": [...], "rules": [...]}
    group: str  # field flag: q, qi or fp:<p>
    size: int | None = None  # rung on the workload's size ladder, None if off-ladder

    @property
    def field(self) -> str:
        return "fp" if self.group.startswith("fp") else self.group


def _ok(json_fields, unordered=(), rules=()):
    return {"exit": 0, "json": json_fields, "unordered": list(unordered), "rules": list(rules)}


def _error():
    return {"exit": 2, "json": {}, "unordered": [], "rules": []}


# -- shared constructions ---------------------------------------------------------

def _random_monic(F, d, rng):
    return [al.small_scalar(F, rng, -2, 2) for _ in range(d)] + [F.one]


def _chain_degrees(n, k, rng):
    """Degrees of h_1..h_k with sum_j (k - j + 1) deg h_j = n, deg h_1 >= 1,
    so that f_i = h_1 ... h_i is a k-term invariant-factor chain of total
    degree n."""
    if k == 1:
        return [n]
    degs = [rng.randint(1, n // k)]
    remaining = n - k * degs[0]
    for j in range(2, k):
        w = k - j + 1
        degs.append(rng.randint(0, remaining // w))
        remaining -= w * degs[-1]
    return degs + [remaining]


def _distinct_scalars(F, count, rng, lo=-4, hi=4):
    out = []
    while len(out) < count:
        c = al.small_scalar(F, rng, lo, hi)
        if c not in out:
            out.append(c)
    return out


def _nonsquare(F, rng):
    if F.kind == "fp":
        while True:
            d = rng.randrange(1, F.p)
            if pow(d, (F.p - 1) // 2, F.p) == F.p - 1:
                return d
    # -a for a > 0 is no square in Q; |d| non-square is no square in Q(i)
    return F.from_int(rng.choice((-1, -2, -3, -5)) if F.kind == "q" else rng.choice((2, 3, 5, 6)))


def _quadratic_irreducible(F, rng):
    """(x - c)^2 - d with d a non-square: irreducible over F."""
    c = al.small_scalar(F, rng, -2, 2)
    d = _nonsquare(F, rng)
    return (F.add(F.mul(c, c), F.neg(d)), F.neg(F.add(c, c)), F.one)


def _pool(F, rng, linear=5):
    """Distinct monic irreducible pieces: linear ones and one quadratic."""
    return [al.linear(F, r) for r in _distinct_scalars(F, linear, rng)] + [
        _quadratic_irreducible(F, rng)
    ]


def _fill(pool, d, rng):
    fac = {}
    while d > 0:
        piece = rng.choice([p for p in pool if len(p) - 1 <= d])
        fac[piece] = fac.get(piece, 0) + 1
        d -= len(piece) - 1
    return fac


def _pool_chain(pool, n, rng, max_k=3):
    """A factored invariant-factor chain of total degree n over the pool."""
    k = rng.randint(1, min(max_k, n))
    chain, acc = [], {}
    for d in _chain_degrees(n, k, rng):
        acc = al.fac_mul(acc, _fill(pool, d, rng))
        chain.append(acc)
    return chain


def _primary_operator(F, factored, rng, size):
    return _operator_command(F, [al.expand(F, f) for f in factored], rng, size, factored)


def _decompose_expect(F, chain, primary=None):
    fields = {
        "free_rank": 0,
        "invariant_factors": [al.poly_json(F, f) for f in chain],
        "minimal_generators": len(chain),
    }
    if primary is None:
        return _ok({**fields, "primary": None})
    return _ok({**fields, "primary": _primary_json(F, primary)}, unordered=["primary"])


def _primary_json(F, cyclics):
    return [
        {"prime": al.poly_json(F, list(p)), "exponents": es}
        for p, es in al.elementary_divisors(cyclics).items()
    ]


def _operator_command(F, chain, rng, size=None, factored=None):
    """decompose on an operator with invariant factors `chain`; with the
    chain's factored form given, decompose --primary."""
    A = al.operator_from_chain(F, chain, rng)
    argv = ["decompose", "--json"] + (["--primary"] if factored else [])
    exp = _decompose_expect(F, chain, factored)
    return Command(argv, {"operator": al.matrix_json(F, A)}, exp, F.flag, size)


def _opair_command(F, n, m, rng, size=None):
    pool = _pool(F, rng, linear=4)
    while True:
        ca = _pool_chain(rng.sample(pool, 3), n, rng)
        cb = _pool_chain(rng.sample(pool, 3), m, rng)
        gcds = [al.fac_gcd(a, b) for a in ca for b in cb]
        qdim = sum(al.degree(g) for g in gcds)
        if qdim:
            break
    A = al.operator_from_chain(F, [al.expand(F, f) for f in ca], rng)
    B = al.operator_from_chain(F, [al.expand(F, f) for f in cb], rng)
    chain = [al.expand(F, f) for f in al.invariant_chain(gcds)]
    exp = _ok(
        {
            "n": n,
            "m": m,
            "quotient_dim": qdim,
            "relation_rank": n * m - qdim,
            "induced_decomposition.free_rank": 0,
            "induced_decomposition.invariant_factors": [al.poly_json(F, f) for f in chain],
        },
        rules=["basis_len"],
    )
    payload = {"A": al.matrix_json(F, A), "B": al.matrix_json(F, B)}
    return Command(["tensor", "--kind", "opair", "--decompose", "--json"], payload, exp,
                   F.flag, size)


# -- decompose-operator ----------------------------------------------------------

OPERATOR_RUNGS = [("q", n) for n in (4, 6, 8, 10)] + [("fp:101", n) for n in (4, 6, 8, 10)] + [
    ("qi", n) for n in (4, 6, 8)
]


def _operator_chain(F, n, cls, rng):
    if cls == "generic":
        return [_random_monic(F, n, rng)]
    if cls == "derogatory":
        k = min(rng.choice((2, 3)), n)
        chain, acc = [], [F.one]
        for d in _chain_degrees(n, k, rng):
            acc = al.pmul(F, acc, _random_monic(F, d, rng))
            chain.append(acc)
        return chain
    # scalar-heavy: many copies of one linear factor, the rest in the last one
    k = n // 2 + 1
    lin = list(al.linear(F, al.small_scalar(F, rng)))
    return [lin] * (k - 1) + [al.pmul(F, lin, _random_monic(F, n - k, rng))]


OPERATOR_CLASSES = ("generic", "derogatory", "scalar-heavy")


def decompose_operator(seed, rounds=4):
    rng = random.Random(seed)
    out = []
    for _ in range(rounds):
        rnd = []
        for flag, n in OPERATOR_RUNGS:
            F = al.field_from_flag(flag)
            for cls in OPERATOR_CLASSES:
                rnd.append(_operator_command(F, _operator_chain(F, n, cls, rng), rng, size=n))
        out.append(rnd)
    return out


# -- tensor-opair ----------------------------------------------------------------

OPAIR_RUNGS = [("q", n) for n in (3, 4, 5, 6)] + [("fp:101", n) for n in (3, 4, 5, 6)] + [
    ("qi", n) for n in (3, 4, 5)
]
# off-ladder non-square shapes, one per field per round
OPAIR_RECTANGLES = [("q", 5, 3), ("fp:101", 6, 4), ("qi", 4, 3)]


def tensor_opair(seed, rounds=12):
    rng = random.Random(seed)
    out = []
    for _ in range(rounds):
        rnd = [_opair_command(al.field_from_flag(f), n, n, rng, size=n) for f, n in OPAIR_RUNGS]
        rnd += [_opair_command(al.field_from_flag(f), n, m, rng) for f, n, m in OPAIR_RECTANGLES]
        out.append(rnd)
    return out


# -- factor-primary --------------------------------------------------------------

FP_PRIMES = (2, 101, 10007)
FP_DEGREES = (12, 24, 36)
Q_DEGREES = {8: 4, 10: 8, 12: 12}  # degree -> digits of the cleared constant term
QI_DEGREES = (4, 6, 8)


def _fp_pool(F, rng, max_degree=6, per_degree=3):
    if F.p == 2:  # every irreducible of small degree; there are few
        pool = []
        for d in range(1, max_degree + 1):
            for bits in range(2**d):
                f = tuple((bits >> k) & 1 for k in range(d)) + (1,)
                if al.irreducible_fp(F, list(f)):
                    pool.append(f)
        return pool
    pool = []
    for d in range(1, max_degree + 1):
        for _ in range(per_degree):
            pool.append(al.random_irreducible_fp(F, d, rng, avoid=pool))
    return pool


# (piece degree, exponent) per total degree: the shape of the factorisation
# is fixed, only the pieces vary with the seed; F_2 has enough pieces of
# each degree for these shapes
FP_SHAPES = {
    12: [(1, 2), (2, 1), (3, 1), (5, 1)],
    24: [(1, 2), (1, 1), (2, 2), (3, 1), (4, 1), (6, 1), (4, 1)],
    36: [(1, 2), (1, 1), (2, 2), (3, 1), (4, 1), (6, 1), (4, 1), (3, 1), (5, 1), (4, 1)],
}


def _fp_factored(pool, degree, rng):
    fac = {}
    for g, e in FP_SHAPES[degree]:
        piece = rng.choice([p for p in pool if len(p) - 1 == g and p not in fac])
        fac[piece] = e
    return fac


def _split(fac):
    """Two cyclic summands with product fac: exponents above one move a
    single power to the first, simple pieces alternate between the two."""
    first, second = {}, {}
    for i, (p, e) in enumerate(sorted(fac.items())):
        if e > 1:
            first[p], second[p] = 1, e - 1
        else:
            (first if i % 2 else second)[p] = 1
    return [first, second]


def _presentation_command(F, cyclics, size):
    """decompose --primary on diag(f_1, ..., f_k): the sum of K[x]/(f_i)."""
    k = len(cyclics)
    P = [[al.expand(F, cyclics[i]) if i == j else [] for j in range(k)] for i in range(k)]
    chain = al.invariant_chain(cyclics)
    exp = _ok(
        {
            "free_rank": 0,
            "invariant_factors": [al.poly_json(F, al.expand(F, f)) for f in chain],
            "primary": _primary_json(F, cyclics),
        },
        unordered=["primary"],
    )
    return Command(["decompose", "--primary", "--json"],
                   {"presentation": al.polymatrix_json(F, P)}, exp, F.flag, size)


def _is_prime(n):
    return n > 1 and all(n % d for d in range(2, int(n**0.5) + 1))


def _primes_near(target, count, rng):
    lo, hi = max(2, int(target * 0.9)), int(target * 1.1) + 10
    primes = [n for n in range(lo, hi) if _is_prime(n)]
    return rng.sample(primes, count)


def _q_factored(F, degree, digits, rng, quartic):
    """Rational roots (one with denominator 2), the rootless cubic x^3 - 2 next
    to them, and the squared non-split quadratic x^2 + 1; the roots' size
    makes the cleared constant term about `digits` digits long."""
    k = degree - 7
    b, a = 2, 1  # fixed, so that only the roots vary the divisor search
    roots = [Fraction(rng.choice((-1, 1)) * p) for p in
             _primes_near((10**digits / b) ** (1 / k), k, rng)]
    roots[0] /= 2
    fac = {al.linear(F, r): 1 for r in roots}
    fac[(F.from_int(-b), F.zero, F.zero, F.one)] = 1
    fac[(F.from_int(a), F.zero, F.one)] = 2
    if quartic:  # x^4 + c is Eisenstein at the prime c: irreducible and rootless
        fac[(F.from_int(rng.choice((2, 3, 5, 7))), F.zero, F.zero, F.zero, F.one)] = 1
    return fac


# gaussian integers of these norms, one root per norm: the norm of the
# constant term, and so the divisor search, has the same shape for every seed
QI_ROOT_NORMS = {4: (5, 13), 6: (2, 5, 13, 17), 8: (2, 5, 10, 13, 17, 25)}


def _gaussian_of_norm(F, norm, rng):
    k = int(norm**0.5) + 1
    choices = [(a, b) for a in range(-k, k + 1) for b in range(-k, k + 1)
               if a * a + b * b == norm]
    a, b = rng.choice(choices)
    return (Fraction(a), Fraction(b))


def _qi_factored(F, degree, rng, quartic):
    """Gaussian-integer roots next to the non-split quadratic x^2 - 3."""
    fac = {al.linear(F, _gaussian_of_norm(F, n, rng)): 1 for n in QI_ROOT_NORMS[degree]}
    fac[(F.from_int(-3), F.zero, F.one)] = 1
    if quartic:  # x^4 - c: its roots c^(1/4) i^k are not in Q(i)
        fac[(F.from_int(-rng.choice((2, 3, 5))), F.zero, F.zero, F.zero, F.one)] = 1
    return fac


def _incomplete_command(F, fac):
    f = al.expand(F, fac)
    P = [[f]]
    exp = _ok({"free_rank": 0, "invariant_factors": [al.poly_json(F, f)], "primary": None},
              rules=["incomplete"])
    return Command(["decompose", "--primary", "--json"],
                   {"presentation": al.polymatrix_json(F, P)}, exp, F.flag)


def factor_primary(seed, rounds=12):
    rng = random.Random(seed)
    fps = [al.FP(p) for p in FP_PRIMES]
    pools = {F.p: _fp_pool(F, rng) for F in fps}
    q, qi = al.Q(), al.QI()
    out = []
    for _ in range(rounds):
        rnd = []
        for i, F in enumerate(fps):
            for j, d in enumerate(FP_DEGREES):
                fac = _fp_factored(pools[F.p], d, rng)
                # every other rung as a 2x2 diagonal presentation
                cyclics = _split(fac) if (i + j) % 2 else [fac]
                rnd.append(_presentation_command(F, cyclics, d))
        for d, digits in Q_DEGREES.items():
            rnd.append(_presentation_command(q, [_q_factored(q, d, digits, rng, False)], d))
        for d in QI_DEGREES:
            rnd.append(_presentation_command(qi, [_qi_factored(qi, d, rng, False)], d))
        rnd.append(_incomplete_command(q, _q_factored(q, 8, 4, rng, True)))
        rnd.append(_incomplete_command(qi, _qi_factored(qi, 4, rng, True)))
        out.append(rnd)
    return out


# -- cli-small -------------------------------------------------------------------

def _text_vec(F, v):
    return "[" + ",".join(F.text(c) for c in v) + "]"


def _expression(F, pairs):
    return "; ".join(f"({_text_vec(F, x)},{_text_vec(F, y)})" for x, y in pairs)


def _linearize(F, pairs, n, m):
    coords = [F.zero] * (n * m)
    for x, y in pairs:
        for i in range(n):
            for j in range(m):
                coords[i * m + j] = F.add(coords[i * m + j], F.mul(x[i], y[j]))
    return coords


def _equiv_expect(F, lhs, rhs, n, m, equivalent):
    diff = [F.add(a, F.neg(b)) for a, b in zip(_linearize(F, lhs, n, m), _linearize(F, rhs, n, m))]
    return _ok({"equivalent": equivalent,
                "standard_equivalent": all(c == F.zero for c in diff),
                "difference": [F.enc(c) for c in diff]})


def _vec(F, n, rng):
    return [al.small_scalar(F, rng) for _ in range(n)]


def _equiv_standard(F, n, m, rng, equivalent):
    lhs = [(_vec(F, n, rng), _vec(F, m, rng)) for _ in range(2)]
    rhs = []
    for x, y in lhs:  # move a scalar across, then split the right-hand factor
        c = F.from_int(rng.choice((2, -1)))
        x2, y2 = [F.mul(c, a) for a in x], [F.mul(F.inv(c), b) for b in y]
        part = _vec(F, m, rng)
        rhs += [(x2, part), (x2, [F.add(b, F.neg(p)) for b, p in zip(y2, part)])]
    rhs.reverse()
    if not equivalent:
        rhs.append((al.identity(F, n)[0], al.identity(F, m)[0]))
    exp = _equiv_expect(F, lhs, rhs, n, m, equivalent)
    argv = ["equiv", "--rules", "standard", "--field", F.flag, "--lhs", _expression(F, lhs),
            "--rhs", _expression(F, rhs), "--json"]
    return Command(argv, None, exp, F.flag, n)


def _diagonalizable(F, eigenvalues, rng):
    D = [[eigenvalues[i] if i == j else F.zero for j in range(len(eigenvalues))]
         for i in range(len(eigenvalues))]
    S, S_inv = al.random_similarity(F, len(eigenvalues), rng)
    return al.matmul(F, al.matmul(F, S, D), S_inv), S


def _eigenvalues(F, n, rng):
    return [F.from_int(rng.choice((0, 1, 2, -1))) for _ in range(n)]


def _equiv_opair(F, n, m, rng, equivalent):
    lam, mu = _eigenvalues(F, n, rng), _eigenvalues(F, m, rng)
    mu[0] = lam[0]
    A, S = _diagonalizable(F, lam, rng)
    B, T = _diagonalizable(F, mu, rng)
    x, y, u, v = _vec(F, n, rng), _vec(F, m, rng), _vec(F, n, rng), _vec(F, m, rng)
    lhs = [(al.matvec(F, A, x), y), (u, v)]
    rhs = [(x, al.matvec(F, B, y)), (u, v)]
    if not equivalent:  # (S e_0) (x) (T f_0) pairs matched eigenvalues: outside W
        rhs.append(([F.neg(row[0]) for row in S], [row[0] for row in T]))
    exp = _equiv_expect(F, lhs, rhs, n, m, equivalent)
    argv = ["equiv", "--rules", "opair", "--lhs", _expression(F, lhs), "--rhs",
            _expression(F, rhs), "--json"]
    payload = {"A": al.matrix_json(F, A), "B": al.matrix_json(F, B)}
    return Command(argv, payload, exp, F.flag, n)


def _twisted_kind(F, kind, n, m, rng):
    """subring/branching on diagonalizable A, B: the quotient dimension counts
    eigenvalue pairs the substitutions send to the same value."""
    lam, mu = _eigenvalues(F, n, rng), _eigenvalues(F, m, rng)
    A, _ = _diagonalizable(F, lam, rng)
    B, _ = _diagonalizable(F, mu, rng)
    phi = al.trim(F, _vec(F, 3, rng)) or [F.one]
    psi = phi if kind == "subring" else (al.trim(F, _vec(F, 3, rng)) or [F.zero, F.one])
    qdim = sum(al.peval(F, phi, a) == al.peval(F, psi, b) for a in lam for b in mu)
    payload = {"A": al.matrix_json(F, A), "B": al.matrix_json(F, B)}
    if kind == "subring":
        payload["p"] = al.poly_json(F, phi)
    else:
        payload.update(phi=al.poly_json(F, phi), psi=al.poly_json(F, psi))
    exp = _ok({"quotient_dim": qdim, "relation_rank": n * m - qdim}, rules=["basis_len"])
    return Command(["tensor", "--kind", kind, "--json"], payload, exp, F.flag, n)


def _polymatrix_mul(F, A, B):
    out = []
    for row in A:
        out_row = []
        for col in zip(*B):
            acc = []
            for a, b in zip(row, col):
                acc = al.padd(F, acc, al.pmul(F, a, b))
            out_row.append(acc)
        out.append(out_row)
    return out


def _unimodular(F, n, rng, lower):
    """Unit triangular polynomial matrix with constant or linear entries."""
    M = [[[F.one] if i == j else [] for j in range(n)] for i in range(n)]
    for i in range(n):
        for j in range(n):
            if (j < i if lower else j > i) and rng.random() < 0.7:
                M[i][j] = al.trim(F, _vec(F, rng.randint(1, 2), rng))
    return M


def _smith_case(F, rows, cols, rank, rng):
    """P = U0 diag(chain, 0...) V0 with unimodular U0, V0."""
    chain, acc = [], [F.one]
    for _ in range(rank):
        acc = al.pmul(F, acc, _random_monic(F, rng.randint(0, 1), rng))
        chain.append(acc)
    D = [[chain[i] if i == j and i < rank else [] for j in range(cols)] for i in range(rows)]
    P = _polymatrix_mul(F, _polymatrix_mul(F, _unimodular(F, rows, rng, True), D),
                        _unimodular(F, cols, rng, False))
    return P, chain


def _snf(F, n, rng):
    cols = max(1, n + rng.choice((-1, 0, 1)))
    rank = rng.randint(max(0, min(n, cols) - 1), min(n, cols))
    P, chain = _smith_case(F, n, cols, rank, rng)
    diagonal = chain + [[]] * (min(n, cols) - rank)
    exp = _ok({"rows": n, "cols": cols,
               "diagonal": [al.poly_json(F, d) for d in diagonal],
               "invariant_factors": [al.poly_json(F, d) for d in chain if len(d) > 1]})
    return Command(["snf", "--json"], al.polymatrix_json(F, P), exp, F.flag, n)


def _presentation(F, n, rng):
    cols = rng.randint(1, n)
    rank = rng.randint(0, min(n, cols))
    P, chain = _smith_case(F, n, cols, rank, rng)
    torsion = [d for d in chain if len(d) > 1]
    exp = _ok({"free_rank": n - rank, "invariant_factors": [al.poly_json(F, d) for d in torsion],
               "minimal_generators": n - rank + len(torsion)})
    return Command(["decompose", "--json"], {"presentation": al.polymatrix_json(F, P)}, exp,
                   F.flag, n)


def _schmidt(F, n, m, rank, rng):
    S, _ = al.random_similarity(F, n, rng)
    T, _ = al.random_similarity(F, m, rng)
    pairs = [([row[k] for row in S], [row[k] for row in T]) for k in range(rank)]
    coords = _linearize(F, pairs, n, m)
    cls = "zero" if rank == 0 else ("simple" if rank == 1 else "entangled")
    payload = {**F.decl(), "n": n, "m": m, "coords": [F.enc(c) for c in coords]}
    exp = _ok({"schmidt_rank": rank, "classification": cls})
    return Command(["schmidt", "--json"], payload, exp, F.flag, n)


def _scalar_a(F, rng):
    choices = [F.zero, F.one, F.from_int(2), F.from_int(-1)]
    if F.kind != "fp":
        choices.append(F.mul(F.one, F.inv(F.from_int(2))))
    a = rng.choice(choices)
    qdim = int(a == F.one)
    exp = _ok({"quotient_dim": qdim, "relation_rank": 1 - qdim},
              rules=["caveat_off" if a in (F.zero, F.one) else "caveat_on"])
    return Command(["tensor", "--kind", "branching", "--scalar-a", F.text(a), "--field", F.flag,
                    "--json"], None, exp, F.flag)


def _field_commands(F, n, rng):
    """One command of each kind at size n; m is the other factor's size."""
    m = 1 + n % 3
    pool = _pool(F, rng, linear=3)
    return [
        _snf(F, n, rng),
        _operator_command(F, _operator_chain(F, n, OPERATOR_CLASSES[n % 3], rng), rng, size=n),
        _primary_operator(F, _pool_chain(pool, n, rng), rng, size=n),
        _presentation(F, n, rng),
        Command(["tensor", "--kind", "standard", "--json"], {**F.decl(), "n": n, "m": m},
                _ok({"quotient_dim": n * m, "relation_rank": 0}), F.flag, n),
        _opair_command(F, n, m, rng, size=n),
        _twisted_kind(F, "subring", n, m, rng),
        _twisted_kind(F, "branching", m, n, rng),
        _equiv_standard(F, n, m, rng, equivalent=n % 2 == 0),
        _equiv_opair(F, n, m, rng, equivalent=n % 2 == 1),
        _schmidt(F, n, m, rng.randint(0, min(n, m)), rng),
        _scalar_a(F, rng),
    ]


def _demo_commands(seed, r):
    return [
        Command(["demo", "example61", "--json"], None,
                _ok({"name": "example61"}, rules=["example61"]), "q"),
        Command(["demo", "example61", "--random", "--seed", str(seed * 100 + r), "--json"], None,
                _ok({"name": "example61"}, rules=["example61"]), "q"),
        Command(["demo", "branching", "--json"], None,
                _ok({"name": "branching"}, rules=["branching_table"]), "q"),
        Command(["demo", "register", "--json"], None,
                _ok({"opair.quotient_dim": 1, "opair.relation_rank": 3,
                     "opair.induced_invariant_factors": [["-1", "1"]],
                     "states.0.schmidt_rank": 1, "states.1.schmidt_rank": 2}), "q"),
    ]


OVERSIZED_LITERAL = "1e5000"


def _malformed_commands(rng):
    """Inputs whose correct outcome is exit code 2."""
    k = str(rng.randint(1, 9))
    return [
        Command(["decompose", "--json"], '{"operator": {"field": "q", "rows": 1, ' + k, _error(),
                "q"),
        Command(["decompose", "--json"],
                {"operator": {"field": "qi", "rows": 2, "cols": 2, "entries": [[k, "0"], ["1"]]}},
                _error(), "qi"),
        Command(["snf", "--json"],
                {"field": "zz", "rows": 1, "cols": 1, "entries": [[[k]]]}, _error(), "q"),
        Command(["decompose", "--json", "--field", "fp:100"],
                {"operator": {"rows": 1, "cols": 1, "entries": [[k]]}}, _error(), "fp:100"),
        Command(["decompose", "--json"],
                {"operator": {"field": "q", "rows": 1, "cols": 1,
                              "entries": [[OVERSIZED_LITERAL]]}}, _error(), "q"),
    ]


CLI_SMALL_FIELDS = ("q", "qi", "fp:101")


def cli_small(seed, rounds=4):
    rng = random.Random(seed)
    out = []
    for r in range(rounds):
        rnd = []
        for flag in CLI_SMALL_FIELDS:
            for n in (1, 2, 3):
                rnd += _field_commands(al.field_from_flag(flag), n, rng)
        rnd += _demo_commands(seed, r) + _malformed_commands(rng)
        out.append(rnd)
    return out


WORKLOADS = {
    "decompose-operator": decompose_operator,
    "tensor-opair": tensor_opair,
    "factor-primary": factor_primary,
    "cli-small": cli_small,
}
