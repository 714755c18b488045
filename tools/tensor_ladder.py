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
neighbouring sizes, log(t2 / t1) / log(n2 / n1) of the medians.  Inputs
depend only on the field and n, so two checkouts' tables compare line by
line.  The timings are information only.
"""
from __future__ import annotations

import argparse
import random
import sys
from pathlib import Path

from timing import cell, header, median_ms, slope_lines


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
        rows = []
        for n in args.sizes:
            rng = random.Random(f"tensor-ladder-{field.describe()}-{n}")

            def entry():
                if field is QI:
                    return field.scalar((rng.randint(-9, 9), rng.randint(-9, 9)))
                return field.from_int(rng.randint(-9, 9))

            dense = Matrix(field, [[entry() for _ in range(n)] for _ in range(n)])
            scalar = Matrix.identity(field, n).scale(field.from_int(2))
            (t_dense, q_dense), (t_scalar, q_scalar) = timed(dense), timed(scalar)
            rows.append((n, t_dense[0], t_scalar[0]))
            print(f"{field.kind:>6} {n:>3} {cell(t_dense)} {q_dense:>4} "
                  f"{cell(t_scalar)} {q_scalar:>4}")
        for line in slope_lines(field.kind, ("dense", "scalar"), rows):
            print(line)


if __name__ == "__main__":
    main()
