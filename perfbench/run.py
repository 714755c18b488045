"""ximod benchmark: one closed-loop caller driving ximod.cli.main in-process.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a ximod checkout; ximod is imported from its src/.
The inputs are generated from --seed with their answers known by
construction, and every output is checked against that answer.  With
--trace 0 the last stdout line is a JSON object with the end-to-end
metrics; with --trace 1 it holds the per-layer metrics of a traced run
(see perfbench/README.md).  Scratch files live under perfbench/_out/.
"""
from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from array import array
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "_out"
sys.path.insert(0, str(HERE))

import clock  # noqa: E402
import spans  # noqa: E402
import verify  # noqa: E402
import workloads  # noqa: E402

# tail percentile per workload; each run completes enough rounds that at
# least ten samples lie beyond it, so the percentile never depends on speed
TAIL_PERCENTILE = {
    "decompose-operator": 80,
    "tensor-opair": 90,
    "factor-primary": 90,
    "cli-small": 99,
}
SETUP_REPEATS = 5
COLD_STARTS = 15
FIELDS = ("q", "qi", "fp")


def import_cli():
    if not (SRC / "ximod" / "cli.py").is_file():
        sys.exit("perfbench: no ximod sources under src/ximod; run from a ximod checkout")
    sys.path.insert(0, str(SRC))
    from ximod import cli

    if Path(cli.__file__).resolve().parent != SRC / "ximod":
        sys.exit(f"perfbench: imported ximod from {cli.__file__}, not from {SRC}")
    return cli


@dataclass(slots=True)
class Sample:
    cmd: workloads.Command
    seconds: float  # calibrated wall time, see clock.py
    code: int | None  # None when the command raised
    ok: bool


def _call(cli, argv):
    try:
        return cli.main(argv)
    except Exception:  # a traceback out of cli.main is a failed command
        return None


def run_command(clk, cli, argv):
    """Exit code (None when cli.main raised), stdout, start and wall seconds."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code, start, seconds = clk.time(_call, cli, argv)
    return code, out.getvalue(), start, seconds


def write_inputs(rounds, work: Path, tag: str):
    """Write payloads and expected answers; return rounds of (command, argv)."""
    work.mkdir(parents=True, exist_ok=True)
    prepared, manifest = [], []
    for r, rnd in enumerate(rounds):
        prepared.append([])
        for i, cmd in enumerate(rnd):
            argv = list(cmd.argv)
            if cmd.payload is not None:
                path = work / f"{tag}-{r}-{i}.json"
                text = cmd.payload if isinstance(cmd.payload, str) else json.dumps(cmd.payload)
                path.write_text(text, encoding="utf-8")
                argv += ["--input", str(path)]
            prepared[-1].append((cmd, argv))
            manifest.append({"argv": argv, "expect": cmd.expect, "group": cmd.group,
                             "size": cmd.size})
    (work / f"{tag}-expected.json").write_text(json.dumps(manifest), encoding="utf-8")
    return prepared


def setup(workload, seed, work: Path, clk: clock.Clock):
    """Import ximod, generate and write the inputs, run one warm-up command."""
    cli = import_cli()
    prepared = write_inputs(workloads.WORKLOADS[workload](seed), work, "w")
    run_command(clk, cli, prepared[0][0][1])
    return cli, prepared


def cold_inputs(seed, work: Path):
    """Tiny cli-small payloads for the cold-start subprocesses."""
    tiny = [c for c in workloads.cli_small(seed, rounds=1)[0] if c.expect["exit"] == 0]
    return write_inputs([tiny[::7]], work, "cold")[0]


def timed_setups(workload, seed, repeats):
    """Median calibrated wall time of a fresh interpreter running setup(); the
    child reports its probe samples (see clock.py)."""
    times = []
    for i in range(repeats):
        work = OUT / f"setup-{os.getpid()}-{i}"
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--setup-only", "--workload", workload,
             "--seed", str(seed), "--work", str(work)],
            check=True, stdin=subprocess.DEVNULL, capture_output=True, text=True, timeout=120,
        )
        wall = time.perf_counter() - start
        mean_probe, probe_total = map(float, proc.stdout.split()[-2:])
        times.append((wall - probe_total) * clock.NOMINAL_PROBE_S / mean_probe)
        shutil.rmtree(work, ignore_errors=True)
    return statistics.median(times)


class Log:
    """Raw results of the commands run, in flat arrays: a command's stdout is
    dropped once it is checked, so the measuring process does not grow with
    the number of commands a run completes."""

    def __init__(self):
        self.start, self.seconds = array("d"), array("d")
        self.cmd, self.code, self.ok = [], [], []

    def __len__(self):
        return len(self.cmd)

    def calibrated(self, clk):
        return [Sample(cmd, clk.scale(start, dt), code, ok) for start, dt, cmd, code, ok
                in zip(self.start, self.seconds, self.cmd, self.code, self.ok)]


def measured(clk, cli, commands, log, inspect=None):
    """Run and check commands; inspect(stdout) sees each correct exit-0 output."""
    for cmd, argv in commands:
        code, out, start, dt = run_command(clk, cli, argv)
        ok = verify.check(cmd.expect, code, out)
        log.start.append(start)
        log.seconds.append(dt)
        log.cmd.append(cmd)
        log.code.append(code)
        log.ok.append(ok)
        if inspect and ok and code == 0:
            inspect(out)


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def closed_loop(clk, cli, prepared, seconds, min_rounds):
    """Complete rounds, at least min_rounds, and start another only while it
    is expected to end less than half a round past `seconds`.  Returns the
    samples and the peak resident memory up to the end of the loop."""
    log = Log()
    start = last = time.perf_counter()
    r = 0
    with clk:
        while r < min_rounds or (last - start) + (last - start) / r / 2 < seconds:
            measured(clk, cli, prepared[r % len(prepared)], log)
            r += 1
            last = time.perf_counter()
    peak = peak_rss_mb()
    return log.calibrated(clk), peak


def cold_starts(cold, count):
    """`python -m ximod` as a subprocess: raw wall times, which the in-process
    reference samples cannot calibrate (see clock.py)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    samples = []
    for k in range(count):
        cmd, argv = cold[k % len(cold)]
        start = time.perf_counter()
        proc = subprocess.run([sys.executable, "-m", "ximod", *argv], cwd=ROOT, env=env,
                              stdin=subprocess.DEVNULL, capture_output=True, text=True,
                              timeout=120)
        dt = time.perf_counter() - start
        ok = verify.check(cmd.expect, proc.returncode, proc.stdout)
        samples.append(Sample(cmd, dt, proc.returncode, ok))
    return samples


def percentile(values, p):
    """The p-th percentile as a binomially weighted mean of the order
    statistics (the Bernstein quantile estimator).  Its weights spread over
    about sqrt(n p (1 - p)) ranks, so a percentile that falls between two
    clusters of latencies does not jump from one to the other run to run."""
    xs = sorted(values)
    n, q = len(xs), p / 100
    if n == 1 or q in (0, 1):
        return xs[round(q * (n - 1))]
    log_w = [math.lgamma(n) - math.lgamma(i + 1) - math.lgamma(n - i)
             + i * math.log(q) + (n - 1 - i) * math.log1p(-q) for i in range(n)]
    return sum(math.exp(w) * x for w, x in zip(log_w, xs))


def growth_exponent(points):
    """Least-squares slope of log(latency) on log(size), one intercept per group.

    points: (group, size, latency) triples, one per rung."""
    by_group = defaultdict(list)
    for group, size, latency in points:
        by_group[group].append((math.log(size), math.log(latency)))
    sxy = sxx = 0.0
    for pts in by_group.values():
        mx = sum(x for x, _ in pts) / len(pts)
        my = sum(y for _, y in pts) / len(pts)
        sxy += sum((x - mx) * (y - my) for x, y in pts)
        sxx += sum((x - mx) ** 2 for x, _ in pts)
    return sxy / sxx


def rung_medians(samples, floor=0.0):
    """(group, size, median time per rung less floor) over the sized commands."""
    rungs = defaultdict(list)
    for s in samples:
        if s.cmd.size is not None:
            rungs[(s.cmd.group, s.cmd.size)].append(s.seconds)
    return [(g, size, statistics.median(v) - floor) for (g, size), v in sorted(rungs.items())]


def reject_floor(samples):
    """Median time of a call that correctly rejects malformed input (exit 2):
    argparse, reading and parsing the JSON, reporting the error."""
    return statistics.median(s.seconds for s in samples if s.ok and s.cmd.expect["exit"] == 2)


def throughput(samples):
    return len(samples) / sum(s.seconds for s in samples)


def end_to_end(workload, samples, setup_s, peak_mb):
    latencies = [s.seconds for s in samples]
    p = TAIL_PERCENTILE[workload]
    # cli-small has no ladder, only payload sizes 1-3, and the per-call cost
    # is most of each call there; the slope is taken over the time above the
    # reject floor, so that cutting the per-call cost does not raise it
    floor = reject_floor(samples) if workload == "cli-small" else 0.0
    metrics = {"ops_per_s": (throughput(samples), "1/s")}
    for field in FIELDS:
        metrics[f"ops_per_s.{field}"] = (
            throughput([s for s in samples if s.cmd.field == field]), "1/s")
    metrics.update({
        "latency_p50_ms": (1000 * percentile(latencies, 50), "ms"),
        "latency_tail_ms": (1000 * percentile(latencies, p), "ms"),
        "latency_slope": (growth_exponent(rung_medians(samples, floor)), "1"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (peak_mb, "MB"),
    })
    info = {"tail_percentile": p, "samples": len(latencies), "slope_floor_ms": 1000 * floor}
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}, info


def traced(clk, cli, prepared, seconds):
    """Alternate each round untraced and traced; per-layer metrics."""
    tracer = spans.Tracer()
    plain, traced_log = Log(), Log()
    bits = 0

    def keep_bits(out):
        nonlocal bits
        bits = max(bits, spans.coeff_bits(json.loads(out)))

    start = time.perf_counter()
    r = 0
    with clk:
        while r < 1 or time.perf_counter() - start < seconds:
            rnd = prepared[r % len(prepared)]
            measured(clk, cli, rnd, plain)
            tracer.install()
            try:
                for item in rnd:
                    tracer.command = len(traced_log)
                    measured(clk, cli, [item], traced_log, keep_bits)
            finally:
                tracer.uninstall()
            r += 1
    plain, traced_samples = plain.calibrated(clk), traced_log.calibrated(clk)
    factors = [s.seconds / raw for s, raw in zip(traced_samples, traced_log.seconds)]
    ratio = sum(s.seconds for s in plain) / sum(s.seconds for s in traced_samples)
    return tracer, tracer.metrics(factors, bits, ratio), plain + traced_samples


def run_record(args, info):
    src_lines = {p.name: len(p.read_text(encoding="utf-8").splitlines())
                 for p in sorted((SRC / "ximod").glob("*.py"))}
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "python": platform.python_version(), "nproc": os.cpu_count(),
        "platform": platform.platform(), "commit": _commit(), "src_lines": src_lines,
        "src_lines_total": sum(src_lines.values()), **info,
    }


def _commit():
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text(encoding="utf-8").strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text(encoding="utf-8").strip()
        return ref
    except OSError:
        return "unknown"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    ap.add_argument("--work", help=argparse.SUPPRESS)
    args = ap.parse_args()
    if args.setup_only:
        with clock.Clock() as clk:
            setup(args.workload, args.seed, Path(args.work), clk)
        print(statistics.fmean(clk.probe), clk.probe_total)
        return
    import_cli()  # fail before any work when the sources are missing
    OUT.mkdir(exist_ok=True)
    work = OUT / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    clk = clock.Clock()
    try:
        if args.trace:
            cli, prepared = setup(args.workload, args.seed, work, clk)
            tracer, metrics, samples = traced(clk, cli, prepared, args.seconds)
            colds = cold_starts(cold_inputs(args.seed, work), COLD_STARTS)
            metrics["cli.cold_start_ms"] = {
                "value": 1000 * statistics.median(s.seconds for s in colds), "unit": "ms"}
            samples += colds
            tracer.write(OUT / f"spans-{args.workload}-{args.seed}.jsonl")
            info = {"traced_commands": tracer.command + 1, "spans": len(tracer.spans)}
        else:
            setup_s = timed_setups(args.workload, args.seed, SETUP_REPEATS)
            cli, prepared = setup(args.workload, args.seed, work, clk)
            p = TAIL_PERCENTILE[args.workload]
            min_rounds = math.ceil(10 / (1 - p / 100) / len(prepared[0]))
            samples, peak_mb = closed_loop(clk, cli, prepared, args.seconds, min_rounds)
            metrics, info = end_to_end(args.workload, samples, setup_s, peak_mb)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    info.update(host_speed=clk.speed(), probes=len(clk.probe))
    record = run_record(args, info)
    (OUT / f"record-{args.workload}-{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1), encoding="utf-8")
    print("perfbench-record " + json.dumps(record))
    print(json.dumps({
        "correct": not any(s.code is not None and not s.ok for s in samples),
        "attempted": len(samples),
        "failed": sum(not s.ok for s in samples),
        "metrics": metrics,
    }))


if __name__ == "__main__":
    main()
