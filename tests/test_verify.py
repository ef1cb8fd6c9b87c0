import random

import pytest

from freqlab.signal import parse_signal
from freqlab.verify import (
    SEEDED_SUITES,
    SUITES,
    random_intervals,
    random_signal,
    run_suite,
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
        with pytest.raises(ValueError):
            run_suite("bogus")

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
        assert all(c.passed for c in run_suite("oracle", trials=20, seed=3))
        assert all(c.passed for c in run_suite("covering", trials=200, seed=3))
        assert all(c.passed for c in run_suite("invariance", trials=20, seed=3))

    def test_trials_and_seed_only_for_seeded_suites(self):
        for name in sorted(set(SUITES) - set(SEEDED_SUITES)):
            with pytest.raises(TypeError):
                run_suite(name, trials=5)
            with pytest.raises(TypeError):
                run_suite(name, seed=9)

    def test_oracle_failure_produces_replay(self, monkeypatch):
        import freqlab.verify as verify_mod

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
