import hashlib
import os
import subprocess
import sys
import time
from fractions import Fraction

import pytest

from freqlab.cli import main
from freqlab.families import GeneratorSpec, composite_jump, generate, spike_pair, squares_power
from freqlab.maximal import analyze
from freqlab.signal import Signal, parse_rational, parse_strict_int, read_signal, write_signal


# 10**5000 in decimal: past the 4,300 digits str() and int() allow by default
BIG = "1" + "0" * 5000


@pytest.fixture
def delta_file(tmp_path):
    path = tmp_path / "delta.sig"
    write_signal(Signal.from_pairs([(0, 1)]), path)
    return str(path)


@pytest.fixture
def zero_file(tmp_path):
    path = tmp_path / "zero.sig"
    write_signal(Signal.from_pairs([]), path)
    return str(path)


@pytest.fixture
def spike_file(tmp_path):
    path = tmp_path / "spike.sig"
    write_signal(spike_pair(100), path)
    return str(path)


class TestEval:
    def test_delta(self, delta_file, capsys):
        assert main(["eval", "--signal", delta_file, "--n", "7"]) == 0
        assert capsys.readouterr().out == "M=1/15 F=7 E={7}\n"

    def test_zero_signal_flag(self, zero_file, capsys):
        assert main(["eval", "--signal", zero_file, "--n", "3"]) == 0
        assert capsys.readouterr().out == "M=0 F=0 E=all zero-signal\n"

    def test_spike_pair(self, spike_file, capsys):
        assert main(["eval", "--signal", spike_file, "--n", "1"]) == 0
        out = capsys.readouterr().out
        assert "F=301" in out and out.startswith("M=401/603")

    def test_bilinear(self, tmp_path, capsys):
        path = tmp_path / "pair.sig"
        write_signal(Signal.from_pairs([(0, 1), (2, 1)]), path)
        assert main(["eval", "--f", str(path), "--g", str(path), "--n", "1"]) == 0
        assert capsys.readouterr().out == "B=2/3 F=1 E={1}\n"

    def test_bilinear_degenerate(self, delta_file, capsys):
        assert main(["eval", "--f", delta_file, "--g", delta_file, "--n", "5"]) == 0
        assert capsys.readouterr().out == "B=0 F=0 E=all degenerate\n"

    def test_missing_file_is_usage_error(self, tmp_path, capsys):
        path = tmp_path / "nope.sig"
        assert main(["eval", "--signal", str(path), "--n", "0"]) == 2
        assert capsys.readouterr().err == f"error: {path}: No such file or directory\n"

    def test_parse_failure_reports_line(self, tmp_path, capsys):
        bad = tmp_path / "bad.sig"
        bad.write_text("#freqlab-signal v1\n0 1/2\nnot-a-line\n")
        assert main(["eval", "--signal", str(bad), "--n", "0"]) == 2
        assert capsys.readouterr().err == (
            f"error: {bad}: line 3: expected '<index> <numerator>/<denominator>', "
            "got 'not-a-line'\n"
        )


class TestProfile:
    def test_delta_csv(self, delta_file, capsys):
        assert main(["profile", "--signal", delta_file, "--from", "-2", "--to", "2"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "n,M,F"
        assert [line.split(",")[2] for line in lines[1:]] == ["2", "1", "0", "1", "2"]

    def test_zero_signal_single_row(self, zero_file, capsys):
        assert main(["profile", "--signal", zero_file, "--from", "0", "--to", "0"]) == 0
        assert capsys.readouterr().out == "n,M,F\n0,0,0\n"

    def test_spike_column(self, spike_file, capsys):
        assert main(["profile", "--signal", spike_file, "--from", "0", "--to", "2"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert [line.split(",")[2] for line in lines[1:]] == ["0", "301", "302"]

    def test_inverted_range_is_usage_error(self, delta_file, capsys):
        assert main(["profile", "--signal", delta_file, "--from", "3", "--to", "1"]) == 2
        assert capsys.readouterr().err == "error: --from 3 exceeds --to 1\n"

    def test_os_error_without_a_file_prints_its_text(self, delta_file, monkeypatch, capsys):
        import freqlab.maximal as maximal_mod

        def no_workers(*args, **kwargs):
            raise BlockingIOError(11, "Resource temporarily unavailable")

        monkeypatch.setattr(maximal_mod, "frequency_profile", no_workers)
        argv = ["profile", "--signal", delta_file, "--from", "0", "--to", "2", "--threads", "2"]
        assert main(argv) == 2
        assert capsys.readouterr().err == "error: [Errno 11] Resource temporarily unavailable\n"

    def test_out_file_and_thread_determinism(self, tmp_path, capsys):
        sig = tmp_path / "f.sig"
        write_signal(squares_power(Fraction(1), 30), sig)
        one = tmp_path / "one.csv"
        two = tmp_path / "two.csv"
        assert main(["profile", "--signal", str(sig), "--from", "-1200", "--to", "1200",
                     "--out", str(one)]) == 0
        assert main(["profile", "--signal", str(sig), "--from", "-1200", "--to", "1200",
                     "--out", str(two), "--threads", "2"]) == 0
        assert one.read_bytes() == two.read_bytes()


class TestLevelset:
    def test_delta_counts(self, delta_file, capsys):
        assert main(["levelset", "--signal", delta_file, "--mode", "K",
                     "--C", "2/1", "--N-grid", "10,100"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "N,count_K,count_S,density_num,density_den,log_density"
        assert lines[1].startswith("10,1,1,1,10,")
        assert lines[2].startswith("100,1,1,1,100,")

    def test_zero_signal_full_count(self, zero_file, capsys):
        assert main(["levelset", "--signal", zero_file, "--mode", "K",
                     "--C", "2/1", "--N-grid", "10"]) == 0
        assert capsys.readouterr().out.splitlines()[1].startswith("10,21,1,21,10,")

    def test_ratio_at_most_one_rejected(self, delta_file, capsys):
        assert main(["levelset", "--signal", delta_file, "--mode", "K",
                     "--C", "1/1", "--N-grid", "10"]) == 2
        assert capsys.readouterr().err == "error: ratio must exceed 1, got 1\n"

    def test_epsilon_zero_rejected(self, delta_file, capsys):
        assert main(["levelset", "--signal", delta_file, "--C", "2/1",
                     "--epsilon", "0", "--N-grid", "10"]) == 2
        assert capsys.readouterr().err == "error: epsilon must be positive, got 0\n"

    def test_ratio_past_the_str_limit_rejected(self, delta_file, capsys):
        assert main(["levelset", "--signal", delta_file, "--C", "-" + BIG,
                     "--N-grid", "10"]) == 2
        assert capsys.readouterr().err == f"error: ratio must exceed 1, got -{BIG}\n"

    @pytest.mark.parametrize(
        "flags,message",
        [
            (["--C", "-2/3"], "ratio must exceed 1, got -2/3"),
            (["--C", "2", "--epsilon", "-1/2"], "epsilon must be positive, got -1/2"),
        ],
        ids=["C", "epsilon"],
    )
    def test_negative_rational_reaches_its_range_check(self, flags, message, delta_file,
                                                       capsys):
        # a separate "-2/3" is a value, not an option: no usage line
        assert main(["levelset", "--signal", delta_file, *flags, "--N-grid", "10"]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_decimal_ratio_rejected(self, delta_file):
        with pytest.raises(SystemExit) as err:
            main(["levelset", "--signal", delta_file, "--mode", "K",
                  "--C", "2.5", "--N-grid", "10"])
        assert err.value.code == 2

    @pytest.mark.parametrize(
        "grid,message",
        [
            ("10,5", "grid must be strictly increasing"),
            ("0,10", "grid values must be positive"),
            (",,", "empty N grid"),
        ],
    )
    def test_bad_grid_is_usage_error(self, grid, message, delta_file, capsys):
        assert main(["levelset", "--signal", delta_file, "--C", "2/1", "--N-grid", grid]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_theta_zero_mode(self, delta_file, capsys):
        assert main(["levelset", "--signal", delta_file, "--mode", "theta-zero",
                     "--C", "2/1", "--N-grid", "10"]) == 0
        assert capsys.readouterr().out.splitlines()[1].startswith("10,1,1,1,10,")


class TestCovering:
    def test_report(self, tmp_path, capsys):
        path = tmp_path / "intervals.txt"
        path.write_text("0 9\n5 14\n10 19\n")
        assert main(["covering", "--input", str(path)]) == 0
        out = capsys.readouterr().out
        assert "chosen indices: 0 2" in out
        assert "chosen length sum: 20" in out
        assert "union size: 20" in out
        assert "one-third bound: PASS" in out

    def test_ends_past_the_str_limit(self, tmp_path, capsys):
        path = tmp_path / "intervals.txt"
        path.write_text(f"0 {BIG}\n5 9\n")
        assert main(["covering", "--input", str(path)]) == 0
        length = "1" + "0" * 4999 + "1"  # 10**5000 + 1
        assert capsys.readouterr().out.splitlines() == [
            "chosen indices: 0",
            f"chosen intervals: [0, {BIG}]",
            f"chosen length sum: {length}",
            f"union size: {length}",
            f"one-third bound: PASS (3 * {length} >= {length})",
            f"tripled cover: [-{length}, 2{length[1:]}]",
        ]

    def test_empty_file_is_error(self, tmp_path, capsys):
        path = tmp_path / "empty.txt"
        path.write_text("# nothing here\n")
        assert main(["covering", "--input", str(path)]) == 2
        assert capsys.readouterr().err == f"error: {path}: empty interval collection\n"


class TestGen:
    def test_spike_pair_file(self, tmp_path):
        out = tmp_path / "sp.sig"
        assert main(["gen", "--family", "spike_pair", "--C", "100",
                     "--out", str(out)]) == 0
        assert read_signal(out) == spike_pair(100)
        body = out.read_text()
        assert body.startswith("#freqlab-signal v1\n")
        assert "# family: spike_pair" in body

    def test_squares_power_file(self, tmp_path):
        out = tmp_path / "sq.sig"
        assert main(["gen", "--family", "squares_power", "--epsilon", "1/1",
                     "--cutoff", "3", "--out", str(out)]) == 0
        f = read_signal(out)
        assert list(f) == [(1, Fraction(1)), (4, Fraction(1, 4)), (9, Fraction(1, 9))]

    def test_squares_power_small_epsilon(self, tmp_path):
        out = tmp_path / "sq.sig"
        argv = ["gen", "--family", "squares_power", "--epsilon", "1/100000", "--cutoff", "2000"]
        proc = subprocess.run(
            [sys.executable, "-m", "freqlab", *argv, "--out", str(out)],
            capture_output=True, text=True, timeout=20,
        )
        assert proc.returncode == 0, proc.stderr
        assert len(read_signal(out)) == 2000

    def test_composite_jump_file(self, tmp_path):
        out = tmp_path / "cj.sig"
        assert main(["gen", "--family", "composite_jump", "--C-min", "100",
                     "--C-max", "100", "--out", str(out)]) == 0
        f = read_signal(out)
        assert len(f) == 3
        assert f.indices[1] == 4**100

    @pytest.mark.parametrize(
        "flags,message",
        [
            (["spike_pair", "--C", "99"], "size must be at least 100, got 99"),
            (["composite_jump", "--C-min", "99", "--C-max", "100"],
             "min_size must be at least 100, got 99"),
            (["composite_jump", "--C-min", "101", "--C-max", "100"],
             "max_size must be at least min_size"),
            (["squares_power", "--epsilon", "0", "--cutoff", "5"],
             "epsilon must be positive, got 0"),
        ],
        ids=["spike-size", "composite-min", "composite-order", "epsilon"],
    )
    def test_parameter_violation_is_usage_error(self, flags, message, tmp_path, capsys):
        out = tmp_path / "bad.sig"
        assert main(["gen", "--family", *flags, "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    def test_negative_rational_epsilon_reaches_its_range_check(self, tmp_path, capsys):
        out = tmp_path / "bad.sig"
        assert main(["gen", "--family", "squares_power", "--epsilon", "-1/2",
                     "--cutoff", "5", "--out", str(out)]) == 2
        assert capsys.readouterr().err == "error: epsilon must be positive, got -1/2\n"
        assert not out.exists()

    FIELD_ERRORS = [
        (["squares_power", "--epsilon", "1/4", "--cutoff", "5", "--C", "100"],
         "squares_power takes no size"),
        (["squares_log", "--epsilon", "1/2", "--cutoff", "20", "--C-min", "100"],
         "squares_log takes no size"),
        (["stretched_log", "--epsilon", "1/2", "--cutoff", "20", "--C", "100"],
         "stretched_log takes no size"),
        (["spike_pair", "--C", "100", "--epsilon", "1/2", "--cutoff", "3"],
         "spike_pair takes no epsilon"),
        (["spike_pair", "--C", "100", "--C-max", "101"], "spike_pair takes no cutoff"),
        (["composite_jump", "--C-min", "100", "--C-max", "101", "--epsilon", "1/2"],
         "composite_jump takes no epsilon"),
        (["spike_pair", "--C", "100", "--precision", "7"], "spike_pair takes no precision_bits"),
        (["composite_jump", "--C-min", "100", "--C-max", "101", "--precision", "128"],
         "composite_jump takes no precision_bits"),
        (["squares_power", "--cutoff", "5"], "squares_power requires epsilon"),
        (["squares_power", "--epsilon", "1/4"], "squares_power requires cutoff"),
        (["squares_log", "--cutoff", "20"], "squares_log requires epsilon"),
        (["squares_log", "--epsilon", "1/2"], "squares_log requires cutoff"),
        (["stretched_log", "--cutoff", "20"], "stretched_log requires epsilon"),
        (["stretched_log", "--epsilon", "1/2"], "stretched_log requires cutoff"),
        (["spike_pair"], "spike_pair requires size"),
        (["composite_jump", "--C-max", "101"], "composite_jump requires size"),
        (["composite_jump", "--C-min", "100"], "composite_jump requires cutoff"),
        (["nonsense", "--C", "100"], "unknown family 'nonsense'"),
    ]

    @pytest.mark.parametrize(
        "flags,message", FIELD_ERRORS, ids=[message for _, message in FIELD_ERRORS]
    )
    def test_fields_must_match_family(self, flags, message, tmp_path, capsys):
        out = tmp_path / "bad.sig"
        assert main(["gen", "--family", *flags, "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith(f"error: {message}")
        assert not out.exists()

    @pytest.mark.parametrize(
        "flags,pair",
        [
            (["composite_jump", "--C-min", "100", "--C-max", "101", "--C", "7"],
             "argument --C: not allowed with argument --C-min"),
            (["squares_power", "--epsilon", "1/4", "--cutoff", "5", "--C-max", "9"],
             "argument --C-max: not allowed with argument --cutoff"),
        ],
        ids=["size", "cutoff"],
    )
    def test_both_flags_of_a_pair_is_usage_error(self, flags, pair, tmp_path, capsys):
        out = tmp_path / "bad.sig"
        with pytest.raises(SystemExit) as err:
            main(["gen", "--family", *flags, "--out", str(out)])
        assert err.value.code == 2
        assert pair in capsys.readouterr().err
        assert not out.exists()

    def test_aliases_set_the_same_fields(self, tmp_path):
        a = tmp_path / "a.sig"
        b = tmp_path / "b.sig"
        assert main(["gen", "--family", "composite_jump", "--C-min", "100",
                     "--C-max", "101", "--out", str(a)]) == 0
        assert main(["gen", "--family", "composite_jump", "--C", "100",
                     "--cutoff", "101", "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize(
        "flags,digest",
        [
            (["spike_pair", "--C", "100"],
             "c7b8549af0cff27278b13082a134f21acad469362f3b43987bc100f9b183b3c2"),
            (["squares_power", "--epsilon", "1/4", "--cutoff", "50"],
             "05a609fe1e39e41942e8e2d15e269ca83ae488f326f5b09325d4bf3b3e8f40e9"),
            (["squares_log", "--epsilon", "1/2", "--cutoff", "40"],
             "8dba9547b32ba1fb2295a2dfe2db983317fe54183eae4c929ef7aede07f4f6ab"),
            (["stretched_log", "--epsilon", "1/2", "--cutoff", "60", "--precision", "96"],
             "2b12b18ab8771f115428a351f99deaa11a1a60b82d7c322d4090517e1e024991"),
            (["composite_jump", "--C-min", "100", "--C-max", "102"],
             "f8dd6153fd6f6e6f9a5d756e1bcb962d8aaa421496de63ee2ef2b0907b2310dc"),
        ],
        ids=["spike_pair", "squares_power", "squares_log", "stretched_log", "composite_jump"],
    )
    def test_file_digest(self, flags, digest, tmp_path):
        out = tmp_path / "f.sig"
        assert main(["gen", "--family", *flags, "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest

    # each file holds decimals past the 4,300 digits str() and int() allow
    LONG_DECIMALS = [
        (["squares_log", "--epsilon", "1", "--cutoff", "10", "--precision", "15000"],
         GeneratorSpec("squares_log", Fraction(1), 10, precision_bits=15000)),
        (["squares_power", "--epsilon", "1/3", "--cutoff", "3", "--precision", "15000"],
         GeneratorSpec("squares_power", Fraction(1, 3), 3, precision_bits=15000)),
        (["composite_jump", "--C-min", "7150", "--C-max", "7200"],
         GeneratorSpec("composite_jump", cutoff=7200, size=7150)),
    ]

    @pytest.mark.parametrize(
        "flags,spec", LONG_DECIMALS, ids=["squares_log", "squares_power", "composite_jump"]
    )
    def test_decimals_past_the_str_limit(self, flags, spec, tmp_path, capsys):
        out = tmp_path / "long.sig"
        assert main(["gen", "--family", *flags, "--out", str(out)]) == 0
        f = read_signal(out)
        assert f == generate(spec)
        assert main(["eval", "--signal", str(out), "--n", "100"]) == 0
        m, fr, _ = capsys.readouterr().out.split()
        res = analyze(f, 100)
        assert parse_rational(m.removeprefix("M=")) == res.maximal_value
        assert parse_strict_int(fr.removeprefix("F=")) == res.frequency
        assert main(["profile", "--signal", str(out), "--from", "100", "--to", "100"]) == 0
        assert capsys.readouterr().out == f"n,M,F\n100,{m[2:]},{fr[2:]}\n"

    def test_spike_size_past_the_str_limit(self, tmp_path):
        out = tmp_path / "sp.sig"
        assert main(["gen", "--family", "spike_pair", "--C", BIG, "--out", str(out)]) == 0
        assert read_signal(out) == spike_pair(10**5000)
        assert f"# size: {BIG}\n" in out.read_text()

    def test_decimals_follow_the_interpreter_limit(self, tmp_path):
        out = tmp_path / "cj.sig"
        env = {**os.environ, "PYTHONINTMAXSTRDIGITS": "640"}

        def freqlab(*argv):
            proc = subprocess.run([sys.executable, "-m", "freqlab", *argv],
                                  capture_output=True, text=True, env=env)
            assert proc.returncode == 0, proc.stderr
            return proc.stdout

        freqlab("gen", "--family", "composite_jump", "--C-min", "2000", "--C-max", "2000",
                "--out", str(out))
        f = read_signal(out)
        assert f == composite_jump(2000, 2000)
        res = analyze(f, 7)
        m, fr, _ = freqlab("eval", "--signal", str(out), "--n", "7").split()
        assert parse_rational(m.removeprefix("M=")) == res.maximal_value
        assert parse_strict_int(fr.removeprefix("F=")) == res.frequency

    def test_byte_identical_regeneration(self, tmp_path):
        a = tmp_path / "a.sig"
        b = tmp_path / "b.sig"
        args = ["gen", "--family", "stretched_log", "--epsilon", "1/2",
                "--cutoff", "40", "--precision", "96"]
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()


class TestUnwritableOut:
    COMMANDS = {
        "profile": ["profile", "--signal", "SIG", "--from", "0", "--to", "2"],
        "levelset": ["levelset", "--signal", "SIG", "--C", "2", "--N-grid", "10"],
        "covering": ["covering", "--input", "INTERVALS"],
        "gen": ["gen", "--family", "spike_pair", "--C", "100"],
    }

    @pytest.mark.parametrize("command", sorted(COMMANDS))
    def test_missing_directory_is_usage_error(self, command, tmp_path, delta_file, capsys):
        intervals = tmp_path / "intervals.txt"
        intervals.write_text("0 9\n")
        out = tmp_path / "missing" / "x"
        argv = [delta_file if a == "SIG" else str(intervals) if a == "INTERVALS" else a
                for a in self.COMMANDS[command]]
        assert main(argv + ["--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: {out}: No such file or directory\n"


class TestUnreadableInput:
    COMMANDS = {
        "eval": ["eval", "--signal", "PATH", "--n", "0"],
        "covering": ["covering", "--input", "PATH"],
    }
    REASONS = {
        "missing": "No such file or directory",
        "directory": "Is a directory",
        "non-ascii": "'ascii' codec can't decode byte 0xe9 in position 2: "
                     "ordinal not in range(128)",
    }

    @pytest.mark.parametrize("case", sorted(REASONS))
    @pytest.mark.parametrize("command", sorted(COMMANDS))
    def test_reason_follows_the_path(self, command, case, tmp_path, capsys):
        path = tmp_path / "input"
        if case == "directory":
            path.mkdir()
        elif case == "non-ascii":
            path.write_bytes(b"0 \xe9\n")
        argv = [str(path) if a == "PATH" else a for a in self.COMMANDS[command]]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {path}: {self.REASONS[case]}\n"


class TestUncertifiableValue:
    """A value too large for the precision cap exits 2 at once, naming the cap."""

    MESSAGE = "value needs more than 65536 bits (dyadic.MAX_PRECISION) to certify"

    def test_gen(self, tmp_path, capsys):
        out = tmp_path / "x.sig"
        argv = ["gen", "--family", "stretched_log", "--epsilon", "100000", "--cutoff", "10"]
        start = time.perf_counter()
        code = main(argv + ["--out", str(out)])
        assert time.perf_counter() - start < 5
        assert code == 2 and not out.exists()
        assert self.MESSAGE in capsys.readouterr().err

    def test_gen_far_past_the_cap(self, tmp_path, capsys):
        # exp(10**7 * ln(ln(10))) is about 2**(1.2 * 10**7): rejected before it is built
        out = tmp_path / "x.sig"
        argv = ["gen", "--family", "stretched_log", "--epsilon", "10000000", "--cutoff", "10"]
        start = time.perf_counter()
        code = main(argv + ["--out", str(out)])
        assert time.perf_counter() - start < 5
        assert code == 2 and not out.exists()
        err = capsys.readouterr().err
        assert err.startswith(f"error: {self.MESSAGE}: ") and err.count("\n") == 1

    @staticmethod
    def run_gen(family, precision, out):
        argv = ["gen", "--family", family, "--epsilon", "1/3", "--cutoff", "20"]
        start = time.perf_counter()
        code = main(argv + ["--precision", str(precision), "--out", str(out)])
        assert time.perf_counter() - start < 1
        assert code == 2 and not out.exists()

    @pytest.mark.parametrize("family", ["squares_power", "squares_log", "stretched_log"])
    def test_precision_above_the_cap(self, family, tmp_path, capsys):
        self.run_gen(family, 70000, tmp_path / "x.sig")
        assert capsys.readouterr().err == (
            "error: precision_bits must be in 1..65536 (dyadic.MAX_PRECISION), got 70000\n"
        )

    def test_precision_past_the_str_limit(self, tmp_path, capsys):
        out = tmp_path / "x.sig"
        argv = ["gen", "--family", "squares_power", "--epsilon", "1", "--cutoff", "3"]
        assert main(argv + ["--precision", "-" + BIG, "--out", str(out)]) == 2
        assert not out.exists()
        assert capsys.readouterr().err == (
            f"error: precision_bits must be in 1..65536 (dyadic.MAX_PRECISION), got -{BIG}\n"
        )

    @pytest.mark.parametrize("family", ["squares_power", "squares_log", "stretched_log"])
    def test_precision_whose_start_is_above_the_cap(self, family, tmp_path, capsys):
        self.run_gen(family, 65500, tmp_path / "x.sig")
        assert capsys.readouterr().err == (
            f"error: {self.MESSAGE}: 65500 fractional bits start at 65564 bits\n"
        )

    def test_levelset(self, spike_file, capsys):
        argv = ["levelset", "--signal", spike_file, "--C", "2", "--epsilon", "100000"]
        start = time.perf_counter()
        code = main(argv + ["--N-grid", "10"])
        assert time.perf_counter() - start < 5
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {self.MESSAGE}: its enclosure is ")
        assert captured.err.count("\n") == 1


class TestEvalUsage:
    def test_bilinear_needs_both_files(self, delta_file, capsys):
        assert main(["eval", "--f", delta_file, "--n", "0"]) == 2
        assert capsys.readouterr().err == (
            "error: bilinear eval needs both --f and --g (and no --signal)\n"
        )

    def test_signal_or_pair_required(self, capsys):
        assert main(["eval", "--n", "0"]) == 2
        assert capsys.readouterr().err == "error: eval needs --signal, or --f with --g\n"


class TestStrictIntegerFlags:
    COMMANDS = [
        ["eval", "--signal", "SIG", "--n", "X"],
        ["profile", "--signal", "SIG", "--from", "X", "--to", "5"],
        ["profile", "--signal", "SIG", "--from", "0", "--to", "X"],
        ["profile", "--signal", "SIG", "--from", "0", "--to", "5", "--threads", "X"],
        ["levelset", "--signal", "SIG", "--C", "2", "--N-grid", "10", "--threads", "X"],
        ["levelset", "--signal", "SIG", "--C", "2", "--N-grid", "X"],
        ["gen", "--family", "squares_power", "--epsilon", "1/4", "--cutoff", "X", "--out", "o"],
        ["gen", "--family", "spike_pair", "--C", "X", "--out", "o"],
        ["gen", "--family", "composite_jump", "--C-min", "X", "--C-max", "5", "--out", "o"],
        ["gen", "--family", "composite_jump", "--C-min", "4", "--C-max", "X", "--out", "o"],
        ["gen", "--family", "spike_pair", "--C", "3", "--precision", "X", "--out", "o"],
        ["verify", "--suite", "oracle", "--trials", "X"],
        ["verify", "--suite", "oracle", "--seed", "X"],
    ]

    @staticmethod
    def fill(argv, signal, text):
        return [signal if a == "SIG" else text if a == "X" else a for a in argv]

    @pytest.mark.parametrize(
        "argv", COMMANDS, ids=lambda argv: f"{argv[0]}{argv[argv.index('X') - 1]}"
    )
    @pytest.mark.parametrize("text", ["1_000", "\u0661\u0662"], ids=["underscore", "arabic-indic"])
    def test_lax_integer_spelling_is_usage_error(self, argv, text, delta_file, capsys):
        with pytest.raises(SystemExit) as err:
            main(self.fill(argv, delta_file, text))
        assert err.value.code == 2
        assert f"not a decimal integer: {text!r}" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", COMMANDS[3:5], ids=["profile", "levelset"])
    @pytest.mark.parametrize("threads", ["0", "-1"])
    def test_threads_below_one_is_usage_error(self, argv, threads, delta_file, capsys):
        with pytest.raises(SystemExit) as err:
            main(self.fill(argv, delta_file, threads))
        assert err.value.code == 2
        assert f"argument --threads: must be at least 1, got {threads}" in capsys.readouterr().err


class TestVerify:
    def test_small_suites_pass(self, capsys):
        assert main(["verify", "--suite", "variational"]) == 0
        out = capsys.readouterr().out
        assert "[PASS]" in out and "FAIL" not in out

    def test_failure_exits_nonzero_and_writes_replay(self, tmp_path, monkeypatch, capsys):
        import freqlab.verify as verify_mod
        from freqlab.verify import Check

        def rigged():
            return [Check("rigged assertion", False, "forced",
                          replay=("rigged.sig", "#freqlab-signal v1\n0 1/1\n"))]

        monkeypatch.setitem(verify_mod.SUITES, "oracle", rigged)
        monkeypatch.chdir(tmp_path)
        assert main(["verify", "--suite", "oracle"]) == 1
        out = capsys.readouterr().out
        assert "[FAIL]" in out
        replay = tmp_path / "freqlab-replay-rigged.sig"
        assert replay.exists()
        assert replay.read_text().startswith("#freqlab-signal v1")

    def test_unwritable_replay_is_usage_error(self, tmp_path, monkeypatch, capsys):
        import freqlab.verify as verify_mod
        from freqlab.verify import Check

        def rigged():
            return [Check("rigged assertion", False, "forced", replay=("rigged.sig", "0 1/1\n"))]

        monkeypatch.setitem(verify_mod.SUITES, "examples", rigged)
        monkeypatch.chdir(tmp_path)
        # a directory in the way: file modes do not stop every user
        (tmp_path / "freqlab-replay-rigged.sig").mkdir()
        assert main(["verify", "--suite", "examples"]) == 2
        captured = capsys.readouterr()
        assert "[FAIL] examples: rigged assertion (forced)" in captured.out
        assert captured.err == "error: freqlab-replay-rigged.sig: Is a directory\n"

    @pytest.mark.parametrize("trials", ["0", "-5"])
    def test_trials_below_one_is_usage_error(self, trials, capsys):
        with pytest.raises(SystemExit) as err:
            main(["verify", "--suite", "oracle", "--trials", trials])
        assert err.value.code == 2
        assert f"argument --trials: must be at least 1, got {trials}" in capsys.readouterr().err

    def test_trials_and_seed_forwarded(self, capsys):
        assert main(["verify", "--suite", "oracle", "--trials", "5", "--seed", "7"]) == 0
        assert "5 signals" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "argv",
        [["--suite", "variational", "--trials", "5"], ["--suite", "examples", "--seed", "9"]],
        ids=["variational-trials", "examples-seed"],
    )
    def test_trials_or_seed_on_unseeded_suite_is_usage_error(self, argv, capsys):
        assert main(["verify", *argv]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: --trials and --seed apply only to oracle, covering, invariance\n"
        )

    def test_all_forwards_trials_and_seed_to_seeded_suites(self, monkeypatch, capsys):
        import freqlab.verify as verify_mod

        calls = []

        def recorder(name):
            def record(**options):
                calls.append((name, options))
                return []

            return record

        for name in list(verify_mod.SUITES):
            monkeypatch.setitem(verify_mod.SUITES, name, recorder(name))
        assert main(["verify", "--suite", "all", "--trials", "5", "--seed", "2"]) == 0
        seeded = {"trials": 5, "seed": 2}
        assert calls == [
            ("covering", seeded),
            ("examples", {}),
            ("fundamental", {}),
            ("invariance", seeded),
            ("oracle", seeded),
            ("variational", {}),
        ]

    def test_unknown_suite_is_usage_error(self):
        with pytest.raises(SystemExit) as err:
            main(["verify", "--suite", "nonsense"])
        assert err.value.code == 2

    @pytest.mark.parametrize(
        "argv, digest",
        [
            (["examples"], "bd159fe4b58e87229ae3ac2504ae0a90a9a787f2a3084677e59ab9ab2c0eb356"),
            (["variational"], "973e42c00096cc9911c4a972a7db51088cf846d6328d8c60ac410a77254fb20d"),
            (["fundamental"], "fde8493f7ca3b2611fc1f701c5d5f5ec99c70fcc4b487c8c38da18bf841a49c8"),
            (
                ["oracle", "--trials", "20", "--seed", "3"],
                "0883ec7666596e88199649f60e30981dce342e24ce426c8b7cef53a32593478f",
            ),
            (
                ["covering", "--trials", "200", "--seed", "3"],
                "41ee4979571b659be0048f0048877b21ae25c6b27993deb1c4e3a364aaa6f8de",
            ),
            (
                ["invariance", "--trials", "20", "--seed", "3"],
                "c3d9bfee0946318c75c8306470d4ac137bd91a91a4d65276b29aefb6f16069c9",
            ),
        ],
        ids=["examples", "variational", "fundamental", "oracle", "covering", "invariance"],
    )
    def test_stdout_digest(self, argv, digest, capsys):
        assert main(["verify", "--suite", *argv]) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode("ascii")).hexdigest() == digest


def test_log_families_load_neither_mpmath_nor_multiprocessing():
    code = (
        "import sys\n"
        "from fractions import Fraction\n"
        "import freqlab.cli\n"
        "from freqlab import log_density_string, squares_log, stretched_log\n"
        "stretched_log(Fraction(1, 3), 20)\n"
        "squares_log(Fraction(1, 2), 20)\n"
        "log_density_string(7, 1000, Fraction(1, 1000))\n"
        "print(sorted(m for m in ('mpmath', 'multiprocessing') if m in sys.modules))\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


# Importing the CLI loads none of these: each freqlab module loads only
# under a command that runs it, and `dataclasses` (with `inspect`) costs
# more than most commands' own work.
UNWANTED_AT_START = (
    "dataclasses",
    "inspect",
    "random",
    "freqlab.verify",
    "freqlab.families",
    "freqlab.levelsets",
    "freqlab.covering",
    "freqlab.dyadic",
)


def test_commands_import_only_what_they_run(delta_file):
    code = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import freqlab\n"
        "print(sorted(m for m in set(sys.modules) - before if m.startswith('freqlab.')))\n"
        "import freqlab.cli\n"
        f"print(sorted(m for m in {UNWANTED_AT_START!r} if m in set(sys.modules) - before))\n"
        "loaded = set(sys.modules)\n"
        f"freqlab.cli.main(['eval', '--signal', {delta_file!r}, '--n', '3'])\n"
        "print(sorted(m for m in set(sys.modules) - loaded if m.startswith('freqlab')))\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["[]", "[]", "M=1/7 F=3 E={3}", "['freqlab.maximal']"]


def test_parser_choices_match_their_owners():
    import freqlab.cli as cli_mod
    from freqlab.levelsets import LEVELSET_MODES
    from freqlab.verify import SUITES

    assert cli_mod._SUITE_NAMES == tuple(sorted(SUITES))
    assert cli_mod._LEVELSET_MODES == LEVELSET_MODES


@pytest.mark.parametrize(
    "argv,error",
    [
        (["verify", "--suite", "nope"],
         "freqlab verify: error: argument --suite: invalid choice: 'nope' (choose from "
         "'covering', 'examples', 'fundamental', 'invariance', 'oracle', 'variational', 'all')"),
        (["levelset", "--signal", "f.sig", "--C", "2", "--N-grid", "1", "--mode", "Q"],
         "freqlab levelset: error: argument --mode: invalid choice: 'Q' "
         "(choose from 'K', 'S', 'theta-zero')"),
    ],
    ids=["suite", "mode"],
)
def test_unknown_choice_is_usage_error(argv, error, capsys):
    with pytest.raises(SystemExit) as err:
        main(argv)
    assert err.value.code == 2
    assert capsys.readouterr().err.splitlines()[-1] == error


def test_console_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "freqlab", "--help"], capture_output=True, text=True
    )
    assert proc.returncode == 0
    assert "eval" in proc.stdout and "verify" in proc.stdout
