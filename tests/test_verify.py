import hashlib
import random

import pytest

import freqlab.verify as verify_mod
from freqlab.maximal import BilinearFrequencyResult, FrequencyResult
from freqlab.signal import parse_signal
from freqlab.verify import (
    SEEDED_SUITES,
    SUITES,
    random_intervals,
    random_signal,
    suite_examples,
    suite_fundamental,
    suite_variational,
)


class TestGenerators:
    def test_random_signal_reproducible(self):
        a = random_signal(random.Random(5))
        b = random_signal(random.Random(5))
        assert a == b
        assert 1 <= len(a) <= 30
        assert all(-100 <= i <= 100 for i in a.indices)
        assert all(v > 0 for v in a.values)

    def test_random_intervals_reproducible(self):
        a = random_intervals(random.Random(5))
        b = random_intervals(random.Random(5))
        assert a == b
        assert 1 <= len(a) <= 50


class TestSuites:
    def test_all_names_dispatch(self):
        for name in SUITES:
            assert callable(SUITES[name])

    def test_variational_details_carry_values(self):
        checks = suite_variational(sizes=(100,))
        assert len(checks) == 1
        assert checks[0].passed
        assert "F(1)=301" in checks[0].detail

    def test_examples_pass(self):
        assert all(c.passed for c in suite_examples())

    def test_fundamental_custom_roster(self):
        from freqlab.families import spike_pair

        checks = suite_fundamental(span=40, roster=[("spike_pair(100)", spike_pair(100))])
        assert len(checks) == 1 and checks[0].passed

    def test_small_random_suites(self):
        assert all(c.passed for c in SUITES["oracle"](trials=20, seed=3))
        assert all(c.passed for c in SUITES["covering"](trials=200, seed=3))
        assert all(c.passed for c in SUITES["invariance"](trials=20, seed=3))

    def test_trials_and_seed_only_for_seeded_suites(self):
        for name in sorted(set(SUITES) - set(SEEDED_SUITES)):
            with pytest.raises(TypeError):
                SUITES[name](trials=5)
            with pytest.raises(TypeError):
                SUITES[name](seed=9)

    def test_oracle_failure_produces_replay(self, monkeypatch):
        # sabotage the fast path so the oracle suite must catch it
        real = verify_mod.analyze

        def broken(f, n):
            res = real(f, n)
            if n == 17:
                return type(res)(res.maximal_value, res.extremal_radii,
                                 res.frequency + 1, res.zero_signal)
            return res

        monkeypatch.setattr(verify_mod, "analyze", broken)
        checks = verify_mod.suite_oracle(trials=3, seed=1)
        assert not checks[0].passed
        suffix, text = checks[0].replay
        assert suffix.endswith(".sig")
        replayed = parse_signal(text)  # serialized instance parses back
        assert len(replayed) >= 1


def _digest(checks):
    text = "".join(f"{c.name}|{c.passed}|{c.detail}|{c.replay}\n" for c in checks)
    return hashlib.sha256(text.encode()).hexdigest()


def _bump_frequency(real, when):
    def broken(*args):
        res = real(*args)
        if not when(*args):
            return res
        return FrequencyResult(
            res.maximal_value, res.extremal_radii, res.frequency + 1, res.zero_signal
        )

    return broken


class TestSabotagedReplays:
    """Each seed must keep drawing the same instances: a sabotaged run's
    names, details and replay texts are pinned by digest."""

    def test_oracle(self, monkeypatch):
        broken = _bump_frequency(verify_mod.analyze, lambda f, n: n == 17)
        monkeypatch.setattr(verify_mod, "analyze", broken)
        checks = verify_mod.suite_oracle(trials=3, seed=1)
        assert [c.passed for c in checks] == [False, True]
        assert _digest(checks) == (
            "b2bc8563851bada16faba4b4a45dd36a8dc6f2fa1dc31987bab4fbae922e230a"
        )

    def test_oracle_census(self, monkeypatch):
        real = verify_mod.frequency_values

        def broken(f, span, slope):
            return [(n, fr + (n == 17)) for n, fr in real(f, span, slope=slope)]

        monkeypatch.setattr(verify_mod, "frequency_values", broken)
        checks = verify_mod.suite_oracle(trials=3, seed=1)
        assert [c.passed for c in checks] == [True, False]
        assert checks[1].detail == "mismatch at slope 1/2"
        assert _digest(checks) == (
            "d86b8e6bd5769e3b8e9b0734efa6010a5604a7997488fa0ce4f53df25cfd0c81"
        )

    def test_covering(self, monkeypatch):
        monkeypatch.setattr(verify_mod, "triple", lambda iv: iv)
        checks = verify_mod.suite_covering(trials=200, seed=3)
        assert [c.passed for c in checks] == [True, True, False, True]
        assert _digest(checks) == (
            "ff4fd4036dbeb955b1005d4b44f71272bfec5650a627582cd394935d90860f9d"
        )

    def test_invariance(self, monkeypatch):
        real_bilinear = verify_mod.bilinear_analyze

        def flip_degenerate(f, g, n):
            res = real_bilinear(f, g, n)
            if len(f) <= len(g):
                return res
            return BilinearFrequencyResult(
                res.maximal_value, res.extremal_radii, res.frequency, not res.degenerate
            )

        broken = _bump_frequency(verify_mod.analyze, lambda f, n: n > 0)
        monkeypatch.setattr(verify_mod, "analyze", broken)
        monkeypatch.setattr(verify_mod, "bilinear_analyze", flip_degenerate)
        checks = verify_mod.suite_invariance(trials=20, seed=3)
        assert [c.passed for c in checks] == [False, True, False, False]
        assert _digest(checks) == (
            "89197cced70812b31fdb42e7359cac70a7c548ce6a7c8d28f3ad783f1e0fd857"
        )
