"""Command-line front end.

Subcommands::

    freqlab eval      --signal f.sig --n 7            point analysis
    freqlab eval      --f a.sig --g b.sig --n 7       bilinear point analysis
    freqlab profile   --signal f.sig --from -5 --to 5 CSV of (n, M, F)
    freqlab levelset  --signal f.sig --mode K --C 2/1 --N-grid 10,100  census CSV
    freqlab covering  --input intervals.txt           greedy selection report
    freqlab gen       --family spike_pair --C 100 --out f.sig
    freqlab verify    --suite oracle --trials 1000 --seed 1

All numeric flags that carry rational values use exact ``p/q`` syntax;
decimals are rejected.  Exit codes: 0 success, 1 failed verification
assertion, 2 usage or parse error.  A flag that argparse rejects prints
the subcommand's usage line; every later error (a bad value, an
unreadable or malformed file, an unwritable output) prints exactly one
stderr line, ``error: <message>`` or ``error: <path>: <reason>``.
Output for fixed inputs, flags, and seed is byte identical across runs
and worker counts.
"""

from __future__ import annotations

import argparse
import re
import sys
from fractions import Fraction

from .signal import (
    IntegerInterval,
    PrecisionError,
    dump_signal,
    format_int,
    format_number,
    parse_rational,
    parse_strict_int,
    read_signal,
)

EXIT_OK = 0
EXIT_ASSERTION = 1
EXIT_USAGE = 2

# Each handler imports the modules it runs, so a command loads no other
# code.  The parser therefore holds copies of two lists, tied to their
# owners by tests/test_cli.py: the names of `verify.SUITES`, sorted, and
# `levelsets.LEVELSET_MODES`.
_SUITE_NAMES = ("covering", "examples", "fundamental", "invariance", "oracle", "variational")
_LEVELSET_MODES = ("K", "S", "theta-zero")


def _argument(parse):
    """An argparse type from a parser that raises ValueError."""

    def convert(text: str):
        try:
            return parse(text)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None

    return convert


def _at_least_one(text: str) -> int:
    value = parse_strict_int(text)
    if value < 1:
        raise ValueError(f"must be at least 1, got {format_int(value)}")
    return value


_rational = _argument(parse_rational)
_int = _argument(parse_strict_int)
_positive_int = _argument(_at_least_one)
_grid = _argument(lambda text: [parse_strict_int(part) for part in text.split(",") if part])


class _Parser(argparse.ArgumentParser):
    """Reads every token of '-' and a digit as a value, so `--C -2/3`
    reaches its range check as `--C -2` does.  Plain argparse takes only
    negative integers and decimals as values; no flag here starts with
    '-' and a digit.  Sub-parsers inherit the class."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"-\d")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="freqlab",
        description="Exact analysis of centered averages and their least maximizing radii.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_eval = sub.add_parser("eval", help="analyze one point")
    p_eval.add_argument("--signal", help="signal file (unilinear)")
    p_eval.add_argument("--f", dest="first", help="left signal file (bilinear)")
    p_eval.add_argument("--g", dest="second", help="right signal file (bilinear)")
    p_eval.add_argument("--n", type=_int, required=True)
    p_eval.set_defaults(handler=_cmd_eval)

    p_profile = sub.add_parser("profile", help="scan a range of points to CSV")
    p_profile.add_argument("--signal", required=True)
    p_profile.add_argument("--from", dest="start", type=_int, required=True)
    p_profile.add_argument("--to", dest="stop", type=_int, required=True)
    p_profile.add_argument("--out")
    p_profile.add_argument("--threads", type=_positive_int, default=1)
    p_profile.set_defaults(handler=_cmd_profile)

    p_level = sub.add_parser("levelset", help="census CSV over an N grid")
    p_level.add_argument("--signal", required=True)
    p_level.add_argument("--mode", choices=_LEVELSET_MODES, default="K")
    p_level.add_argument("--C", dest="ratio", type=_rational, required=True)
    p_level.add_argument("--epsilon", type=_rational, default=Fraction(1))
    p_level.add_argument("--N-grid", dest="n_grid", type=_grid, required=True)
    p_level.add_argument("--out")
    p_level.add_argument("--threads", type=_positive_int, default=1)
    p_level.set_defaults(handler=_cmd_levelset)

    p_cover = sub.add_parser("covering", help="greedy disjoint selection report")
    p_cover.add_argument("--input", required=True)
    p_cover.add_argument("--out")
    p_cover.set_defaults(handler=_cmd_covering)

    p_gen = sub.add_parser("gen", help="generate a built-in family signal file")
    p_gen.add_argument("--family", required=True)
    p_gen.add_argument("--epsilon", type=_rational, help="epsilon (squares_*, stretched_log)")
    size = p_gen.add_mutually_exclusive_group()
    size.add_argument("--C", dest="size", type=_int, help="size: the spike size (spike_pair)")
    size.add_argument("--C-min", dest="size", type=_int, help="size: smallest block (composite_jump)")
    cutoff = p_gen.add_mutually_exclusive_group()
    cutoff.add_argument("--cutoff", type=_int, help="cutoff: largest m (squares_*, stretched_log)")
    cutoff.add_argument(
        "--C-max", dest="cutoff", type=_int, help="cutoff: largest block (composite_jump)"
    )
    p_gen.add_argument(
        "--precision", type=_int, help="precision_bits (squares_*, stretched_log; default 128)"
    )
    p_gen.add_argument("--out", required=True)
    p_gen.set_defaults(handler=_cmd_gen)

    p_verify = sub.add_parser("verify", help="run a verification suite")
    p_verify.add_argument("--suite", required=True, choices=[*_SUITE_NAMES, "all"])
    p_verify.add_argument("--trials", type=_positive_int)
    p_verify.add_argument("--seed", type=_int)
    p_verify.set_defaults(handler=_cmd_verify)

    return parser


def _load_signal(path):
    try:
        return read_signal(path)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def _emit(text: str, out_path) -> None:
    if not out_path:
        sys.stdout.write(text)
        return
    with open(out_path, "w", encoding="ascii", newline="") as handle:
        handle.write(text)


def _format_radii(result) -> str:
    if result.extremal_radii is None:
        return "all"
    return "{" + ",".join(map(format_int, result.extremal_radii)) + "}"


def _cmd_eval(args) -> int:
    from .maximal import analyze, bilinear_analyze

    bilinear = args.first or args.second
    if bilinear and (not args.first or not args.second or args.signal):
        raise ValueError("bilinear eval needs both --f and --g (and no --signal)")
    if not bilinear and not args.signal:
        raise ValueError("eval needs --signal, or --f with --g")
    if bilinear:
        res = bilinear_analyze(_load_signal(args.first), _load_signal(args.second), args.n)
        value, flag = "B", (" degenerate" if res.degenerate else "")
    else:
        res = analyze(_load_signal(args.signal), args.n)
        value, flag = "M", (" zero-signal" if res.zero_signal else "")
    print(f"{value}={format_number(res.maximal_value)} F={format_number(res.frequency)} "
          f"E={_format_radii(res)}{flag}")
    return EXIT_OK


def _cmd_profile(args) -> int:
    from .maximal import frequency_profile

    if args.start > args.stop:
        raise ValueError(f"--from {format_int(args.start)} exceeds --to {format_int(args.stop)}")
    f = _load_signal(args.signal)
    rows = frequency_profile(f, IntegerInterval(args.start, args.stop), threads=args.threads)
    lines = ["n,M,F"]
    lines += [f"{format_number(n)},{format_number(m)},{format_number(fr)}" for n, m, fr in rows]
    _emit("\n".join(lines) + "\n", args.out)
    return EXIT_OK


def _cmd_levelset(args) -> int:
    from .levelsets import LevelParams, census_csv, density_curves

    f = _load_signal(args.signal)
    params = LevelParams(args.ratio, args.epsilon, args.mode)
    census = density_curves(f, params, args.n_grid, threads=args.threads)
    _emit(census_csv(census), args.out)
    return EXIT_OK


def _cmd_covering(args) -> int:
    from .covering import greedy_disjoint, read_intervals, triple

    try:
        intervals = read_intervals(args.input)
        sel = greedy_disjoint(intervals)
    except ValueError as exc:
        raise ValueError(f"{args.input}: {exc}") from None
    length_sum, union_size = format_int(sel.chosen_length_sum), format_int(sel.union_size)
    lines = [
        "chosen indices: " + " ".join(str(k) for k in sel.chosen),
        "chosen intervals: " + " ".join(str(intervals[k]) for k in sel.chosen),
        f"chosen length sum: {length_sum}",
        f"union size: {union_size}",
    ]
    bound_ok = 3 * sel.chosen_length_sum >= sel.union_size
    lines.append(
        f"one-third bound: {'PASS' if bound_ok else 'FAIL'} (3 * {length_sum} >= {union_size})"
    )
    tripled = " ".join(str(triple(intervals[k])) for k in sel.chosen)
    lines.append(f"tripled cover: {tripled}")
    _emit("\n".join(lines) + "\n", args.out)
    return EXIT_OK if bound_ok else EXIT_ASSERTION


def _cmd_gen(args) -> int:
    from .families import GeneratorSpec, generate, metadata_lines

    spec = GeneratorSpec(args.family, args.epsilon, args.cutoff, args.size, args.precision)
    _emit(dump_signal(generate(spec), metadata_lines(spec)), args.out)
    return EXIT_OK


def _cmd_verify(args) -> int:
    from . import verify as verify_mod

    seeded = verify_mod.SEEDED_SUITES
    options = {key: value for key, value in (("trials", args.trials), ("seed", args.seed))
               if value is not None}
    if options and args.suite not in seeded + ("all",):
        raise ValueError(f"--trials and --seed apply only to {', '.join(seeded)}")
    names = sorted(verify_mod.SUITES) if args.suite == "all" else [args.suite]
    failures = 0
    for name in names:
        for check in verify_mod.SUITES[name](**(options if name in seeded else {})):
            status = "PASS" if check.passed else "FAIL"
            detail = f" ({check.detail})" if check.detail else ""
            print(f"[{status}] {name}: {check.name}{detail}")
            if not check.passed:
                failures += 1
                if check.replay:
                    suffix, text = check.replay
                    path = f"freqlab-replay-{suffix}"
                    _emit(text, path)
                    print(f"  offending instance written to {path}")
    print(f"{'OK' if failures == 0 else 'FAILED'}: {failures} failed assertion(s)")
    return EXIT_OK if failures == 0 else EXIT_ASSERTION


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except OSError as exc:
        message = f"{exc.filename}: {exc.strerror}" if exc.filename else exc
    except (ValueError, PrecisionError) as exc:
        message = exc
    print(f"error: {message}", file=sys.stderr)
    return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
