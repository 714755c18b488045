"""Fingerprint ximod's outputs on the four benchmark corpora.

    python3 tools/corpus_hash.py --root <checkout> [--seeds 7 8 9]

Builds every workload of this checkout's perfbench/workloads.py at each
seed, runs each command through <checkout>/src's ``cli.main`` in this
process, with the payload on stdin, and prints one sha256 of the
(exit, stdout, stderr) triples per workload.  Two checkouts whose lines
match gave byte-identical outputs on those corpora.  Nothing is written.
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def run(cli, argv, payload) -> tuple:
    stdin = "" if payload is None else payload if isinstance(payload, str) else json.dumps(payload)
    out, err = io.StringIO(), io.StringIO()
    old_stdin, sys.stdin = sys.stdin, io.StringIO(stdin)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(list(argv))
            except Exception as exc:  # a traceback is an outcome to compare too
                code = f"raised {type(exc).__name__}"
    finally:
        sys.stdin = old_stdin
    return code, out.getvalue(), err.getvalue()


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", required=True, type=Path, help="ximod checkout to run")
    parser.add_argument("--seeds", nargs="+", type=int, default=[7, 8, 9])
    args = parser.parse_args()
    sys.path.insert(0, str(PERFBENCH))
    sys.path.insert(0, str(args.root.resolve() / "src"))
    import workloads
    from ximod import cli

    print(f"ximod from {Path(cli.__file__).parent}, seeds {' '.join(map(str, args.seeds))}")
    for name, build in workloads.WORKLOADS.items():
        digest, count = hashlib.sha256(), 0
        for seed in args.seeds:
            for rnd in build(seed):
                for cmd in rnd:
                    digest.update(repr(run(cli, cmd.argv, cmd.payload)).encode())
                    count += 1
        print(f"{name}: {digest.hexdigest()} ({count} commands)")


if __name__ == "__main__":
    main()
