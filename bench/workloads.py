"""The benchmark's three workloads.

Each workload class is built as ``Workload(seed, size, workdir)``; that
is its set-up, and it is timed as part of ``setup_s``.  ``op(i, tracer)``
runs operation number i and returns the list of its failed exactness
checks (empty when every output is exact).  ``extra(tracer)`` runs the
additional checks and layer measurements of a traced run.  ``cycle`` is
the number of ops in one round of the workload; runs stop only at a
round boundary.

``size`` is "full" for measurement or "tiny" for the self-test and for
the other layers measured in a traced run.

* census: ``squares_power(1/4, 2000)``, ``density_curves`` over
  [-30000, 30000] on POOL_THREADS workers, ``census_csv``.  Nearly all
  of an op is the frequency kernel and the scan/pool driver, so kernel,
  scan and pool changes show here.
* stretched: ``stretched_log(1, 5000)``, a dump/parse round trip, then
  ``analyze`` and ``bilinear_analyze`` at the 2501 upper support points.
  It runs certified dyadic generation, single-point analysis and the
  bilinear path and never enters the scan driver or the pool.
* cli: a fixed round of ``python -m freqlab`` commands, one subprocess at
  a time (a closed loop with one client).  Interpreter start and import
  are about half of each command, so import-time work shows here; the
  ``profile`` command scans at 200-bit indices, beyond int64.
"""

from __future__ import annotations

import hashlib
import os
import random
import subprocess
import sys
from fractions import Fraction

import freqlab.levelsets as levelsets
from freqlab import (
    GeneratorSpec,
    IntegerInterval,
    LevelParams,
    analyze,
    bilinear_analyze,
    census_csv,
    composite_jump,
    density_curves,
    dump_intervals,
    dump_signal,
    frequency_profile,
    greedy_disjoint,
    parse_signal,
    spike_pair,
    squares_power,
    stretched_log,
    triple,
    write_signal,
)
from freqlab.families import metadata_lines
from freqlab.verify import random_intervals

POOL_THREADS = 2
SUBPROCESS_TIMEOUT_S = 120


class Census:
    name = "census"
    cycle = 1
    params = LevelParams(Fraction(2), Fraction(1, 4))
    grids = {"full": (100, 1000, 10000, 30000), "tiny": (100, 1000, 2000)}
    # Sublinear counts and CSV digests at the commit that defined the
    # benchmark; the full counts are those of acceptance criterion 7.
    counts = {"full": (22, 143, 1024, 2615), "tiny": (22, 143, 257)}
    sha256 = {
        "full": "40f8ef0be64e13168c72dcedfc4a2bff5d210e4a3e222e3346b62b674cd53937",
        "tiny": "1e059ab356418a66b80dcb2e9c57163e8d81d96eaacc58eddb69b6d75b212092",
    }

    def __init__(self, seed, size, workdir):
        self.size = size
        self.grid = list(self.grids[size])
        self.points = 2 * self.grid[-1] + 1
        self.pooled_csv = None

    def op(self, i, tracer, threads=POOL_THREADS):
        with tracer.span("families.generate"):
            f = squares_power(Fraction(1, 4), 2000)
        tracer.count("families.points", len(f))
        tracer.count("maximal.points", self.points)
        with tracer.patched(levelsets, "frequency_values", "maximal.scan"), \
                tracer.patched(levelsets, "log_density_string", "levelsets.log_density"), \
                tracer.span("levelsets.census"):
            census = density_curves(f, self.params, self.grid, threads=threads)
        with tracer.span("levelsets.render"):
            csv = census_csv(census)
        failures = []
        if census.counts_sublinear != self.counts[self.size]:
            failures.append(f"census counts {census.counts_sublinear} at threads={threads}")
        if hashlib.sha256(csv.encode("ascii")).hexdigest() != self.sha256[self.size]:
            failures.append(f"census CSV digest differs at threads={threads}")
        if threads == POOL_THREADS:
            self.pooled_csv = csv
        elif self.pooled_csv is not None and csv != self.pooled_csv:
            failures.append(f"census CSV differs between threads={threads} and {POOL_THREADS}")
        return failures

    def extra(self, tracer):
        """One serial op: the serial scan time and the CSV byte identity
        across worker counts."""
        tracer.begin_op(self.name, extra=True)
        return self.op(-1, tracer, threads=1)


class Stretched:
    name = "stretched"
    cycle = 1
    cutoffs = {"full": 5000, "tiny": 300}

    def __init__(self, seed, size, workdir):
        self.cutoff = self.cutoffs[size]
        # m from cutoff/2 to cutoff; support position m - 10 holds m's index
        self.positions = range(self.cutoff // 2 - 10, self.cutoff - 9)

    def op(self, i, tracer):
        with tracer.span("families.generate"):
            f = stretched_log(Fraction(1), self.cutoff)
        with tracer.span("signal.dump"):
            text = dump_signal(f)
        with tracer.span("signal.parse"):
            parsed = parse_signal(text)
        points = [f.indices[k] for k in self.positions]
        tracer.count("families.points", len(f))
        tracer.count("signal.bytes", len(text))
        tracer.count("maximal.analyze_points", len(points))
        with tracer.span("maximal.analyze"):
            unilinear = [analyze(f, n) for n in points]
        with tracer.span("maximal.bilinear"):
            bilinear = [bilinear_analyze(f, f, n) for n in points]
        failures = []
        if parsed != f:
            failures.append("parse_signal(dump_signal(f)) != f")
        bad = [n for n, res in zip(points, unilinear) if res.frequency != 0]
        if bad:
            failures.append(f"{len(bad)} nonzero unilinear frequencies, first at n={bad[0]}")
        bad = [
            n for n, res in zip(points, bilinear) if res.degenerate or res.frequency != 0
        ]
        if bad:
            failures.append(f"{len(bad)} degenerate or nonzero bilinear frequencies, first at n={bad[0]}")
        return failures

    def extra(self, tracer):
        return []


def _radii(res) -> str:
    if res.extremal_radii is None:
        return "all"
    return "{" + ",".join(str(r) for r in res.extremal_radii) + "}"


def _eval_line(res) -> str:
    flag = " zero-signal" if res.zero_signal else ""
    return f"M={res.maximal_value} F={res.frequency} E={_radii(res)}{flag}\n"


def _bilinear_line(res) -> str:
    flag = " degenerate" if res.degenerate else ""
    return f"B={res.maximal_value} F={res.frequency} E={_radii(res)}{flag}\n"


def _covering_report(intervals) -> str:
    sel = greedy_disjoint(intervals)
    bound = "PASS" if 3 * sel.chosen_length_sum >= sel.union_size else "FAIL"
    return "".join(
        line + "\n"
        for line in (
            "chosen indices: " + " ".join(str(k) for k in sel.chosen),
            "chosen intervals: " + " ".join(str(intervals[k]) for k in sel.chosen),
            f"chosen length sum: {sel.chosen_length_sum}",
            f"union size: {sel.union_size}",
            f"one-third bound: {bound} (3 * {sel.chosen_length_sum} >= {sel.union_size})",
            "tripled cover: " + " ".join(str(triple(intervals[k])) for k in sel.chosen),
        )
    )


class Cli:
    """Each command's expected stdout (and, for ``gen``, file bytes) is
    computed in-process at set-up from the same library call."""

    name = "cli"
    profile_center = 4**105
    profile_half_width = 5000
    level_grid = (10, 100, 1000)
    rotation = 8  # eval points drawn from the seed; round r uses point r % 8

    def __init__(self, seed, size, workdir):
        self.workdir = workdir
        self.env = dict(os.environ)
        src = os.path.dirname(os.path.dirname(os.path.abspath(levelsets.__file__)))
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p
        )
        rng = random.Random(seed)
        spike = spike_pair(100)
        stretched = stretched_log(Fraction(1), 300)
        jump = composite_jump(100, 105)
        for name, sig in (("spike.sig", spike), ("stretched.sig", stretched), ("jump.sig", jump)):
            write_signal(sig, workdir / name)
        intervals = random_intervals(rng)
        (workdir / "intervals.txt").write_text(dump_intervals(intervals), encoding="ascii")

        eval_points = [rng.randint(-400, 400) for _ in range(self.rotation)]
        upper = stretched.indices[len(stretched) // 2:]
        bilinear_points = [rng.choice(upper) for _ in range(self.rotation)]
        lo = self.profile_center - self.profile_half_width
        hi = self.profile_center + self.profile_half_width
        profile = "".join(
            f"{n},{m},{fr}\n"
            for n, m, fr in [("n", "M", "F")] + frequency_profile(jump, IntegerInterval(lo, hi))
        )
        level = census_csv(
            density_curves(spike, LevelParams(Fraction(2)), list(self.level_grid))
        )
        spec = GeneratorSpec("spike_pair", size=100)
        self.gen_bytes = dump_signal(spike, metadata_lines(spec)).encode("ascii")

        # (span name, [(argv, expected stdout), ...]); round r takes entry r % len
        self.round = [
            ("cli.eval", [
                (["eval", "--signal", "spike.sig", "--n", str(n)], _eval_line(analyze(spike, n)))
                for n in eval_points
            ]),
            ("cli.eval_bilinear", [
                (["eval", "--f", "stretched.sig", "--g", "stretched.sig", "--n", str(n)],
                 _bilinear_line(bilinear_analyze(stretched, stretched, n)))
                for n in bilinear_points
            ]),
            ("cli.profile", [
                (["profile", "--signal", "jump.sig", "--from", str(lo), "--to", str(hi)], profile)
            ]),
            ("cli.levelset", [
                (["levelset", "--signal", "spike.sig", "--C", "2",
                  "--N-grid", ",".join(map(str, self.level_grid))], level)
            ]),
            ("cli.gen", [
                (["gen", "--family", "spike_pair", "--C", "100", "--out", "gen.sig"], "")
            ]),
            ("cli.covering", [(["covering", "--input", "intervals.txt"], _covering_report(intervals))]),
        ]
        self.cycle = len(self.round)

    def _run(self, argv):
        return subprocess.run(
            [sys.executable, *argv], cwd=self.workdir, env=self.env,
            capture_output=True, timeout=SUBPROCESS_TIMEOUT_S,
        )

    def op(self, i, tracer):
        name, variants = self.round[i % self.cycle]
        args, expected = variants[(i // self.cycle) % len(variants)]
        gen_out = self.workdir / "gen.sig"
        if name == "cli.gen" and gen_out.exists():
            gen_out.unlink()
        with tracer.span(name):
            proc = self._run(["-m", "freqlab", *args])
        failures = []
        if proc.returncode != 0:
            failures.append(f"{name} exited {proc.returncode}: {proc.stderr[-200:]!r}")
        elif proc.stdout.decode("ascii", "replace") != expected:
            failures.append(f"{name} stdout differs from the in-process result")
        elif name == "cli.gen" and gen_out.read_bytes() != self.gen_bytes:
            failures.append("gen spike_pair file differs from the in-process signal")
        return failures

    def extra(self, tracer):
        """Bare interpreter start and `import freqlab.cli`, 5 times each."""
        failures = []
        for name, code in (("cli.interp", "pass"), ("cli.import", "import freqlab.cli")):
            for _ in range(5):
                tracer.begin_op(self.name, extra=True)
                with tracer.span(name):
                    proc = self._run(["-c", code])
                if proc.returncode != 0:
                    failures.append(f"python -c {code!r} exited {proc.returncode}")
        return failures


WORKLOADS = {w.name: w for w in (Census, Stretched, Cli)}
