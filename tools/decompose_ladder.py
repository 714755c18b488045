"""Time ximod's operator decomposition, characteristic polynomial and operator check over size ladders.

    python3 tools/decompose_ladder.py --root <checkout> [--sizes 8 16 24 32]

For each field of q, qi and fp:101 and each n of --sizes, prints the median
process time in ms, over at least 7 runs, with its interquartile range in
parentheses (`timing.median_ms`), of `decompose_operator_module`, of
`charpoly` and of the command's self-check `cli._check_operator(A, dec)`
(check, on the A that decompose lifted and its decomposition dec) on two
n x n operators, and on the dense one of the whole command as well:
in-process ``cli.main(["decompose", "--json", "--input", f])`` on the
operator written to a JSON file f by `jsonio.matrix_to_json`, so that
parsing, the self-checks and rendering show too (cli):

  * dense: entries drawn from [-9, 9] (real and imaginary parts over qi),
    one Krylov chain for a generic operator;
  * derogatory: S diag(C, ..., C) S^-1 for one dense 4 x 4 block C and an
    integral S with an integral inverse, so about n / 4 chains whose
    closing relations reach back into the earlier chains.

Both checks run the one certificate on the Krylov presentation that the
decomposition keeps: the presentation's Krylov vectors independent mod p,
its closing relations exact, and the last invariant factor annihilating
every chain start.  The charpoly column times Berkowitz's algorithm for
comparison; no check calls it.

After each field's rungs it prints the local slope of each column between
neighbouring sizes, log(t2 / t1) / log(n2 / n1) of the medians, and over q and qi one rung
with denominators: a dense operator at n = FRACTION_SIZE whose entries are
a / b with a in [-9, 9] and b in [1, 9].  Inputs depend only on the field
and n, so two checkouts' tables compare line by line.  The timings are
information only.
"""
from __future__ import annotations

import argparse
import contextlib
import io
import json
import random
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

from timing import cell, header, median_ms, slope_lines

BLOCK = 4
FRACTION_SIZE = 16


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", required=True, type=Path, help="ximod checkout to time")
    parser.add_argument("--sizes", nargs="+", type=int, default=[8, 16, 24, 32])
    args = parser.parse_args()
    sys.path.insert(0, str(args.root.resolve() / "src"))
    from ximod import QI, QQ, Matrix, OperatorModule, PrimeField, charpoly, cli, jsonio, modules

    def timed(A):
        """((median, IQR) ms of decompose, the same of charpoly and of the check, number of
        invariant factors): decompose and charpoly each run on a fresh copy of A, which
        lifts itself as a parsed operator does, and the check on A, lifted by decompose
        as in the command."""
        def fresh():
            return Matrix._make(A.field, A.values, (A.rows, A.cols))

        t_dec = median_ms(lambda: modules.decompose_operator_module(
            OperatorModule(A.field, A.rows, fresh())))
        dec = modules.decompose_operator_module(OperatorModule(A.field, A.rows, A))
        return (t_dec, median_ms(lambda: charpoly(fresh())),
                median_ms(lambda: cli._check_operator(A, dec)), len(dec.invariant_factors))

    def timed_cli(A):
        """(median, IQR) ms of the whole decompose command on A, its output discarded."""
        with tempfile.TemporaryDirectory() as folder:
            payload = Path(folder) / "operator.json"
            payload.write_text(json.dumps({"operator": jsonio.matrix_to_json(A)}))
            argv = ["decompose", "--json", "--input", str(payload)]

            def run():
                with contextlib.redirect_stdout(io.StringIO()):
                    if cli.main(argv) != 0:
                        sys.exit(f"decompose exited nonzero on the {A.rows} x {A.rows} operator")
            return median_ms(run)

    def shear(field, n, rng, lower):
        """I + N and its inverse for N with random -1, 0, 1 next to the diagonal,
        below it if lower: inv[i][j] is the product of -N along the path i..j."""
        off = [rng.randint(-1, 1) for _ in range(n)]
        S = [[int(i == j) for j in range(n)] for i in range(n)]
        inv = [[0] * n for _ in range(n)]
        for i in range(n):
            if i:
                S[i][i - 1] = off[i]
            prod = 1
            for j in range(i, -1, -1):
                inv[i][j] = prod
                prod *= -off[j]
        if not lower:
            S, inv = ([list(col) for col in zip(*M)] for M in (S, inv))
        return Matrix.from_ints(field, S), Matrix.from_ints(field, inv)

    print(f"ximod from {Path(modules.__file__).parent}; median process ms (interquartile "
          "range) of decompose_operator_module (dec), charpoly (cp), cli._check_operator "
          "(check) and the whole decompose command (cli), k invariant factors")
    print(f"{'field':>6} {'n':>3} {header('dense dec', 'cp', 'check', 'cli')} {'k':>3} "
          f"{header('derog dec', 'cp', 'check')} {'k':>3}")
    for field in (QQ, QI, PrimeField(101)):

        def dense(n, rng, den=1):
            def part():
                return Fraction(rng.randint(-9, 9), rng.randint(1, den))
            if field is QI:
                return Matrix(field, [[field.scalar((part(), part())) for _ in range(n)]
                                      for _ in range(n)])
            return Matrix(field, [[field.scalar(part()) if field is QQ
                                   else field.from_int(rng.randint(-9, 9))
                                   for _ in range(n)] for _ in range(n)])

        rows = []
        for n in args.sizes:
            rng = random.Random(f"decompose-ladder-{field.describe()}-{n}")
            C = dense(BLOCK, rng).entries
            D = Matrix(field, [[C[i % BLOCK][j % BLOCK] if i // BLOCK == j // BLOCK
                                else field.zero() for j in range(n)] for i in range(n)])
            (L, L_inv), (U, U_inv) = shear(field, n, rng, True), shear(field, n, rng, False)
            derogatory = L @ U @ D @ U_inv @ L_inv
            A = dense(n, rng)
            (d_dec, d_cp, d_check, d_k), (g_dec, g_cp, g_check, g_k) = timed(A), timed(derogatory)
            d_cli = timed_cli(A)
            rows.append((n, *(t[0] for t in (d_dec, d_cp, d_check, d_cli, g_dec, g_cp, g_check))))
            print(f"{field.kind:>6} {n:>3} {cell(d_dec)} {cell(d_cp)} {cell(d_check)} {cell(d_cli)} "
                  f"{d_k:>3} {cell(g_dec)} {cell(g_cp)} {cell(g_check)} {g_k:>3}")
        names = ("dense dec", "dense cp", "dense check", "dense cli", "derog dec", "derog cp",
                 "derog check")
        for line in slope_lines(field.kind, names, rows):
            print(line)
        if not field.characteristic:
            rng = random.Random(f"decompose-ladder-{field.describe()}-fraction")
            t_dec, t_cp, t_check, k = timed(dense(FRACTION_SIZE, rng, den=9))
            print(f"{field.kind:>6} {FRACTION_SIZE:>3} with denominators: dec {cell(t_dec, 0)}, "
                  f"cp {cell(t_cp, 0)}, check {cell(t_check, 0)}, k {k}")


if __name__ == "__main__":
    main()
