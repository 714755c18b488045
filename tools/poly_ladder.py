"""Time ximod's polynomial layer over degree ladders.

    python3 tools/poly_ladder.py --root <checkout> [--degrees 12 24 36 72 144]

For p in {2, 3, 101, 10007} and each degree d of --degrees, prints the
median process time in ms, over at least 7 runs, with its interquartile
range in parentheses (`timing.median_ms`), of a `Poly` product of two
degree-d polynomials, of `_pow_mod(a, p, m)` for a monic m of degree d (one
p-th power by squaring on a general residue), and of `factor_irreducible`
on a random monic polynomial of degree d.  Factoring at p = 2 and 3 never
packs the Frobenius map's rows, so it takes every p-th power by squaring,
and p = 3 times the odd-characteristic equal-degree splitting on that
route; at 101 and 10007 it takes them through the rows.  Then, over
q and qi at the degrees of ROOT_DEGREES, the same for `squarefree_decomposition` and
`factor_irreducible` on a product of d distinct integral linear factors
(gaussian integers over qi), and for `divmod` and `poly_gcd` on a pair of
degree d with coefficients a / b, a in [-9, 9] and b in [1, 9] (real and
imaginary parts over qi), that share a factor c of degree d / 2, mostly
non-monic; `divmod` divides the first of the pair by c.  Inputs depend
only on the field and d, so two checkouts' tables compare line by line.

It checks what it times and exits non-zero on a mismatch: each F_p product
against schoolbook, each `factor_irreducible` result remultiplied, and each
gcd against the shared factor.
"""
from __future__ import annotations

import argparse
import random
import sys
from fractions import Fraction
from pathlib import Path

from timing import cells, header

ROOT_DEGREES = (8, 16, 24, 32)


def schoolbook(a: list[int], b: list[int], p: int) -> list[int]:
    """The product of two residue lists mod p, trailing zeros stripped."""
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    out = [c % p for c in out]
    while out and not out[-1]:
        out.pop()
    return out


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", required=True, type=Path, help="ximod checkout to time")
    parser.add_argument("--degrees", nargs="+", type=int, default=[12, 24, 36, 72, 144])
    args = parser.parse_args()
    sys.path.insert(0, str(args.root.resolve() / "src"))
    from ximod import QI, QQ, Poly, PrimeField, factor, poly_gcd

    def check_factors(f, field, where):
        product = Poly.one(field)
        for q, m in factor.factor_irreducible(f):
            product = product * q**m
        if product != f.monic():
            raise SystemExit(f"factor_irreducible over {where} does not remultiply to its input")

    # checkouts with a fixed-modulus reducer take it in place of the Poly
    modulus = getattr(factor, "_Modulus", lambda m: m)
    print(f"ximod from {Path(factor.__file__).parent}; median process ms (interquartile range)")
    print(f"{'p':>6} {'deg':>4} " + header("mul", "pow_mod", "factor"))
    for p in (2, 3, 101, 10007):
        field = PrimeField(p)
        for d in args.degrees:
            rng = random.Random(f"ladder-{p}-{d}")
            a, b, m, f = (Poly.from_ints(field, [rng.randrange(p) for _ in range(d)] + [1])
                          for _ in range(4))
            if list((a * b).values) != schoolbook(list(a.values), list(b.values), p):
                raise SystemExit(f"the product over fp:{p} at degree {d} differs from schoolbook")
            check_factors(f, field, f"fp:{p} at degree {d}")
            mod = modulus(m)
            print(f"{p:>6} {d:>4} " + cells(lambda: a * b, lambda: factor._pow_mod(a, p, mod),
                                            lambda: factor.factor_irreducible(f)))
    print(f"{'field':>6} {'deg':>4} " + header("sqfree", "factor"))
    for field in (QQ, QI):
        for d in ROOT_DEGREES:
            rng = random.Random(f"ladder-{field.kind}-{d}")
            if field is QQ:
                roots = rng.sample(range(-4 * d, 4 * d + 1), d)
            else:
                roots = rng.sample([(u, v) for u in range(-d, d + 1) for v in range(-d, d + 1)], d)
            f = Poly.one(field)
            for r in roots:
                f = f * Poly(field, (-field.scalar(r), field.one()))
            check_factors(f, field, f"{field.kind} at degree {d}")
            print(f"{field.kind:>6} {d:>4} " + cells(lambda: factor.squarefree_decomposition(f),
                                                    lambda: factor.factor_irreducible(f)))
    print(f"{'field':>6} {'deg':>4} " + header("divmod", "gcd"))
    for field in (QQ, QI):
        for d in ROOT_DEGREES:
            rng = random.Random(f"ladder-gcd-{field.kind}-{d}")

            def coeff():
                parts = [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(2)]
                return field.scalar(parts[0] if field is QQ else tuple(parts))

            def rand(n):
                return Poly(field, [coeff() for _ in range(n)] + [coeff() or field.one()])

            common = rand(d // 2)
            a, b = common * rand(d - d // 2), common * rand(d - d // 2)
            if poly_gcd(a, b) != common.monic():
                raise SystemExit(f"poly_gcd over {field.kind} at degree {d} missed the shared factor")
            print(f"{field.kind:>6} {d:>4} " + cells(lambda: divmod(a, common),
                                                    lambda: poly_gcd(a, b)))


if __name__ == "__main__":
    main()
