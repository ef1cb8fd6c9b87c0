import doctest
import importlib
import pkgutil

import freqlab


def test_module_doctests():
    # Every module of the package but __main__, which runs the CLI on import.
    names = [m.name for m in pkgutil.iter_modules(freqlab.__path__) if m.name != "__main__"]
    assert "maximal" in names
    for name in names:
        module = importlib.import_module(f"freqlab.{name}")
        failures, _ = doctest.testmod(module)
        assert failures == 0, module.__name__
