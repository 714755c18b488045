"""List the ximod functions that the four benchmark corpora never call.

    python3 tools/corpus_calls.py --root <checkout> [--seeds 7]

Builds every workload of this checkout's perfbench/workloads.py at each
seed and runs each command through <checkout>/src's ``cli.main`` in this
process, once with --json and once without, as tools/corpus_hash.py does
(it reuses that tool's ``run``), under ``sys.setprofile``.  Then it prints
every function and method defined in <checkout>/src/ximod that no command
entered, with its line count, and one closing total.  A function on the
list serves no benchmark traffic, so tuning it cannot show on the
benchmark.  Nothing is written.
"""
from __future__ import annotations

import argparse
import ast
import sys
from pathlib import Path

TOOLS = Path(__file__).resolve().parent
PERFBENCH = TOOLS.parent / "perfbench"


def definitions(package: Path):
    """(file, first line, qualified name, line count) of every def under
    package, the first line being that of its first decorator, which is
    the line its code object records."""
    for path in sorted(package.glob("*.py")):
        yield from _walk(ast.parse(path.read_text()), str(path), path.stem)


def _walk(node, file: str, prefix: str):
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.ClassDef):
            yield from _walk(child, file, f"{prefix}.{child.name}")
        elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            first = min([child.lineno] + [d.lineno for d in child.decorator_list])
            yield file, first, f"{prefix}.{child.name}", child.end_lineno - child.lineno + 1
            yield from _walk(child, file, f"{prefix}.{child.name}")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", required=True, type=Path, help="ximod checkout to run")
    parser.add_argument("--seeds", nargs="+", type=int, default=[7])
    args = parser.parse_args()
    package = args.root.resolve() / "src" / "ximod"
    sys.path[:0] = [str(package.parent), str(PERFBENCH), str(TOOLS)]
    import workloads
    from corpus_hash import run
    from ximod import cli

    called = set()

    def profile(frame, event, _arg):
        if event == "call":
            code = frame.f_code
            called.add((code.co_filename, code.co_firstlineno))

    commands = [cmd for seed in args.seeds for build in workloads.WORKLOADS.values()
                for rnd in build(seed) for cmd in rnd]
    sys.setprofile(profile)
    try:
        for cmd in commands:
            run(cli, cmd.argv, cmd.payload)
            run(cli, [arg for arg in cmd.argv if arg != "--json"], cmd.payload)
    finally:
        sys.setprofile(None)
    print(f"ximod from {package}, seeds {' '.join(map(str, args.seeds))}, "
          f"{len(commands)} commands")
    never = [(name, lines) for file, first, name, lines in definitions(package)
             if (file, first) not in called]
    for name, lines in never:
        print(f"{name}: {lines} lines")
    print(f"{len(never)} functions never called ({sum(n for _, n in never)} lines)")


if __name__ == "__main__":
    main()
