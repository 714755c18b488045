"""Time ximod's operator-pair relation subspace over size ladders.

    python3 tools/tensor_ladder.py --root <checkout> [--sizes 4 6 8 10 12]

For each field of q, qi and fp:101 and each n of --sizes, prints the median
process time in ms, over at least 7 runs, with its interquartile range in
parentheses (`timing.median_ms`), of `relation_subspace` followed by
`induced_operator` on two operator pairs on K^n (x) K^n, with the quotient
dimension q:

  * dense: A = B with entries drawn from [-9, 9] (real and imaginary parts
    over qi), so q = n for a generic A;
  * scalar: A = B = 2I, where q = n^2 and W = 0.

After each field's rungs it prints the local slope of each family between
neighbouring sizes, log(t2 / t1) / log(n2 / n1) of the medians, and over q
and qi one rung with denominators: a dense A = B at n = FRACTION_SIZE whose
entries are a / b with a in [-9, 9] and b in [1, 9], so that the integral
pair is scaled by d_M and d_N and the relation subspace's last
lowest-terms step has content to take out.  Inputs depend only on the field
and n, so two checkouts' tables compare line by line.  The timings are
information only.
"""
from __future__ import annotations

import argparse
import random
import sys
from fractions import Fraction
from pathlib import Path

from timing import cell, header, median_ms, slope_lines

FRACTION_SIZE = 8


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", required=True, type=Path, help="ximod checkout to time")
    parser.add_argument("--sizes", nargs="+", type=int, default=[4, 6, 8, 10, 12])
    args = parser.parse_args()
    sys.path.insert(0, str(args.root.resolve() / "src"))
    from ximod import QI, QQ, Matrix, OperatorPairKind, PrimeField, tensor

    def timed(A):
        """((median, IQR) ms, quotient dimension) of the pair (A, A)."""
        kind, n = OperatorPairKind(A, A), A.rows
        ms = median_ms(lambda: tensor.induced_operator(tensor.relation_subspace(kind, n, n)))
        return ms, tensor.quotient_dim(tensor.relation_subspace(kind, n, n))

    print(f"ximod from {Path(tensor.__file__).parent}; median process ms (interquartile "
          "range) of relation_subspace + induced_operator")
    print(f"{'field':>6} {'n':>3} {header('dense')} {'q':>4} {header('scalar')} {'q':>4}")
    for field in (QQ, QI, PrimeField(101)):

        def dense(n, rng, den=1):
            """Entries a / b with a in [-9, 9] and b in [1, den], real and
            imaginary parts over qi."""
            def part():
                a = rng.randint(-9, 9)
                return a if den == 1 else Fraction(a, rng.randint(1, den))

            def entry():
                return field.scalar((part(), part()) if field is QI else part())

            return Matrix(field, [[entry() for _ in range(n)] for _ in range(n)])

        rows = []
        for n in args.sizes:
            rng = random.Random(f"tensor-ladder-{field.describe()}-{n}")
            dense_A = dense(n, rng)
            scalar = Matrix.identity(field, n).scale(field.from_int(2))
            (t_dense, q_dense), (t_scalar, q_scalar) = timed(dense_A), timed(scalar)
            rows.append((n, t_dense[0], t_scalar[0]))
            print(f"{field.kind:>6} {n:>3} {cell(t_dense)} {q_dense:>4} "
                  f"{cell(t_scalar)} {q_scalar:>4}")
        for line in slope_lines(field.kind, ("dense", "scalar"), rows):
            print(line)
        if not field.characteristic:
            rng = random.Random(f"tensor-ladder-{field.describe()}-fraction")
            t, q = timed(dense(FRACTION_SIZE, rng, den=9))
            print(f"{field.kind:>6} {FRACTION_SIZE:>3} with denominators: dense {cell(t, 0)}, "
                  f"q {q}")


if __name__ == "__main__":
    main()
