import doctest

import freqlab.covering
import freqlab.families
import freqlab.levelsets
import freqlab.maximal
import freqlab.signal


def test_module_doctests():
    for module in (
        freqlab.signal,
        freqlab.maximal,
        freqlab.covering,
        freqlab.families,
        freqlab.levelsets,
    ):
        failures, _ = doctest.testmod(module)
        assert failures == 0, module.__name__
