"""freqlab benchmark: one workload per run, every metric printed with its unit.

Run from the root of a freqlab checkout (nothing needs installing; the
package is imported from ``src/``):

    python3 bench/run.py --workload census --seed 1 --seconds 35 --trace 0

``--trace 0`` measures the end-to-end metrics named in BENCHMARK.json
with tracing off.  ``--trace 1`` gives the per-layer metrics instead:
ops of the workload alternate, one round traced and one not, so the
difference of their medians is the tracing overhead; then the layers
the workload does not reach are measured by one traced round of each
other workload at tiny size.  Spans are written to
``.bench_work/spans-<workload>-<seed>.json`` at exit.

Every op's output is checked for exactness.  The last stdout line is
one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``; the lines before it print each metric, the sample counts
and the run environment.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from spans import NullTracer, Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
SETUP_PROBES = 7
NULL_TRACER = NullTracer()
# Layers a workload does not reach come from one traced tiny round of
# these, first match wins.
PROBE_ORDER = ("stretched", "census", "cli")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("census", "stretched", "cli"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=35)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny shrinks the inputs, for the self-test")
    parser.add_argument("--out", help="also write the full record as JSON to this file")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    return args


def environment(seed) -> dict:
    return {
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "commit": _commit(),
        "seed": seed,
        "loadavg": os.getloadavg(),
        "cpu_ticks": _cpu_ticks(),
    }


def _commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _cpu_ticks() -> dict:
    """Total and steal ticks of the machine, from the cpu line of /proc/stat."""
    try:
        with open("/proc/stat", encoding="ascii") as handle:
            fields = [int(x) for x in handle.readline().split()[1:]]
    except (OSError, ValueError):
        return {}
    return {"total": sum(fields), "steal": fields[7] if len(fields) > 7 else 0}


def tail(values) -> tuple[float, float]:
    """(percentile, value): the highest of p90, p99 and p99.9 with at
    least 10 samples beyond it; the slowest op (p100) when a run has too
    few ops for p90 to qualify (fewer than 100)."""
    ordered = sorted(values)
    n = len(ordered)
    for pct in (99.9, 99.0, 90.0):
        beyond = int(n * (100.0 - pct) / 100.0 + 1e-9)
        if beyond >= 10:
            return pct, ordered[n - 1 - beyond]
    return 100.0, ordered[-1]


def setup_probe_seconds(args) -> float:
    """Wall time from starting a fresh bench process to its first op."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--size", args.size, "--setup-probe"]
    start = time.perf_counter()
    with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        proc.stdout.read()
        code = proc.wait()
    if line != b"ready\n" or code != 0:
        raise RuntimeError(f"setup probe failed (exit {code}, said {line!r})")
    return elapsed


class Run:
    """Ops run so far, with their wall times and failed checks."""

    def __init__(self):
        self.times: list[float] = []
        self.traced: list[bool] = []
        self.failures: list[str] = []
        self.attempted = 0
        self.failed = 0

    def op(self, workload, i, tracer, traced=False):
        tracer.begin_op(workload.name)
        start = time.perf_counter()
        self.call(workload.op, i, tracer)
        self.times.append(time.perf_counter() - start)
        self.traced.append(traced)

    def call(self, check, *args):
        """Run one op or check; raising counts as failing, like a wrong output."""
        self.attempted += 1
        try:
            failures = check(*args)
        except Exception as exc:
            failures = [f"{type(exc).__name__}: {exc}"]
        if failures:
            self.failed += 1
            self.failures.extend(failures)


def measure(workload, seconds, run, tracer=None):
    """Closed loop for `seconds`, stopping at a round boundary.  Given a
    tracer, rounds alternate traced and untraced, at least one each."""
    deadline = time.perf_counter() + seconds
    i = 0
    while True:
        traced = tracer is not None and (i // workload.cycle) % 2 == 0
        run.op(workload, i, tracer if traced else NULL_TRACER, traced)
        i += 1
        rounds = i // workload.cycle
        if i % workload.cycle == 0 and rounds >= (1 if tracer is None else 2) \
                and time.perf_counter() >= deadline:
            return


def layer_metrics(tracer, main, run) -> dict:
    """Per-layer values from the spans: from the main workload's ops when
    it reaches the layer, else from the first tiny probe that does."""
    sources = [main] + [w for w in PROBE_ORDER if w != main]

    def first(fetch, middle, *args, **kw):
        for workload in sources:
            values = fetch(*args, workload=workload, **kw)
            if values:
                return middle(values)
        raise RuntimeError(f"no spans for {args}")

    def span(name, extra=False):
        return first(tracer.per_op, statistics.median, name, extra=extra)

    def count(name):
        return first(tracer.counts, statistics.median_low, name)

    scan = span("maximal.scan")
    serial = span("maximal.scan", extra=True)
    points = count("maximal.points")
    analyze_points = count("maximal.analyze_points")
    census = span("levelsets.census")
    interp = span("cli.interp", extra=True)
    traced = [t for t, on in zip(run.times, run.traced) if on]
    untraced = [t for t, on in zip(run.times, run.traced) if not on]
    return {
        "families.generate_s": (span("families.generate"), "s"),
        "families.points": (count("families.points"), "count"),
        "maximal.scan_s": (scan, "s"),
        "maximal.scan_serial_s": (serial, "s"),
        "maximal.scan_speedup": (serial / scan, "ratio"),
        "maximal.point_us": (serial / points * 1e6, "us"),
        "maximal.points": (points, "count"),
        "maximal.analyze_us": (span("maximal.analyze") / analyze_points * 1e6, "us"),
        "maximal.bilinear_us": (span("maximal.bilinear") / analyze_points * 1e6, "us"),
        "levelsets.census_s": (census, "s"),
        "levelsets.assemble_s": (census - scan, "s"),
        "levelsets.log_density_s": (span("levelsets.log_density"), "s"),
        "levelsets.render_s": (span("levelsets.render"), "s"),
        "signal.dump_s": (span("signal.dump"), "s"),
        "signal.parse_s": (span("signal.parse"), "s"),
        "signal.bytes": (count("signal.bytes"), "bytes"),
        "cli.interp_ms": (interp * 1e3, "ms"),
        "cli.import_ms": ((span("cli.import", extra=True) - interp) * 1e3, "ms"),
        "cli.eval_ms": (span("cli.eval") * 1e3, "ms"),
        "cli.eval_bilinear_ms": (span("cli.eval_bilinear") * 1e3, "ms"),
        "cli.profile_ms": (span("cli.profile") * 1e3, "ms"),
        "cli.levelset_ms": (span("cli.levelset") * 1e3, "ms"),
        "cli.gen_ms": (span("cli.gen") * 1e3, "ms"),
        "cli.covering_ms": (span("cli.covering") * 1e3, "ms"),
        "trace.overhead_s": (statistics.median(traced) - statistics.median(untraced), "s"),
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "freqlab" / "__init__.py").is_file():
        print(f"error: {SRC / 'freqlab'} not found; run from a freqlab checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    workdir = WORK / str(os.getpid())
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        main_workload = WORKLOADS[args.workload](args.seed, args.size, workdir)
        if args.setup_probe:
            print("ready", flush=True)
            return 0
        env = environment(args.seed)
        tracer = Tracer() if args.trace else None
        run = Run()
        wall = time.perf_counter()
        measure(main_workload, args.seconds, run, tracer)
        wall = time.perf_counter() - wall
        rss_kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                     resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
        loop_ops = len(run.times)
        pct, tail_s = tail(run.times)
        detail = {"ops": loop_ops, "loop_s": wall, "op_tail_percentile": pct,
                  "op_times_s": run.times}
        if args.trace:
            run.call(main_workload.extra, tracer)
            for name in PROBE_ORDER:
                if name == args.workload:
                    continue
                (workdir / name).mkdir()
                probe = WORKLOADS[name](args.seed, "tiny", workdir / name)
                for i in range(probe.cycle):
                    tracer.begin_op(name)
                    run.call(probe.op, i, tracer)
                run.call(probe.extra, tracer)
            metrics = layer_metrics(tracer, args.workload, run)
            detail["traced_ops"] = sum(run.traced)
            tracer.dump(WORK / f"spans-{args.workload}-{args.seed}.json")
        else:
            setups = [setup_probe_seconds(args) for _ in range(SETUP_PROBES)]
            metrics = {
                "setup_s": (statistics.median(setups), "s"),
                "op_p50_s": (statistics.median(run.times), "s"),
                "op_tail_s": (tail_s, "s"),
                "peak_rss_mb": (rss_kb / 1024, "MB"),
                "pass_rate": ((run.attempted - run.failed) / run.attempted, "ratio"),
            }
            detail["setup_samples_s"] = setups
        detail["error_rate"] = run.failed / run.attempted
        detail["failures"] = run.failures[:10]
        env_end = environment(args.seed)
        ticks = {k: env_end["cpu_ticks"].get(k, 0) - env["cpu_ticks"].get(k, 0)
                 for k in ("total", "steal")}
        env.update(loadavg_end=env_end["loadavg"], cpu_ticks=ticks)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    result = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(f"workload {args.workload} ({args.size}), seed {args.seed}, trace {args.trace}: "
          f"{loop_ops} ops in {wall:.1f} s, {run.failed} of {run.attempted} failed")
    for name, (value, unit) in metrics.items():
        print(f"  {name:24} {value:.6g} {unit}")
    print(f"  {'error_rate':24} {detail['error_rate']:.6g} ratio")
    if not args.trace:
        print(f"  op_tail_s is p{pct:.1f} of {loop_ops} ops; op_p50_s of {loop_ops}; "
              f"setup_s median of {SETUP_PROBES}")
    for failure in run.failures[:10]:
        print(f"  FAILED: {failure}")
    print("env " + json.dumps(env))
    if args.out:
        record = {"workload": args.workload, "size": args.size, "seconds": args.seconds,
                  "trace": args.trace, "env": env, "detail": detail, "result": result}
        Path(args.out).write_text(json.dumps(record, indent=1) + "\n", encoding="ascii")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
