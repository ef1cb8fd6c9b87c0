import pickle
from fractions import Fraction
from importlib import import_module

import pytest

import freqlab
from freqlab.covering import CoveringSelection
from freqlab.families import GeneratorSpec
from freqlab.levelsets import LevelParams, LevelSetCensus
from freqlab.maximal import BilinearFrequencyResult, FrequencyResult
from freqlab.signal import IntegerInterval
from freqlab.verify import Check

# Every public name of the package, modules included; `dir(freqlab)` and
# `from freqlab import *` must keep offering each of them.
PUBLIC_NAMES = {
    "BilinearFrequencyResult", "CENSUS_CSV_HEADER", "CoveringSelection", "FAMILIES",
    "FORMAT_MAGIC", "FrequencyResult", "GeneratorSpec", "IntegerInterval", "LevelParams",
    "LevelSetCensus", "Signal", "SignalFormatError", "analyze", "analyze_brute_force",
    "average", "bilinear_analyze", "bilinear_analyze_brute_force", "bilinear_average",
    "census_csv", "census_members", "composite_jump", "covering", "density_curves",
    "dump_intervals", "dump_signal", "dyadic", "families", "format_rational",
    "frequency_profile", "frequency_values", "generate", "greedy_disjoint",
    "half_mass_radius", "levelsets", "log_density_string", "maximal", "merged_union_size",
    "parse_intervals", "parse_rational", "parse_signal", "radius_bound", "read_intervals",
    "read_signal", "signal", "spike_pair", "squares_log", "squares_power", "stretched_log",
    "triple", "write_signal",
}


@pytest.mark.parametrize("name", freqlab.__all__)
def test_public_name_is_its_module_object(name):
    if name in freqlab._MODULES:
        assert getattr(freqlab, name) is import_module(f"freqlab.{name}")
    else:
        defined = import_module(f"freqlab.{freqlab._SOURCES[name]}")
        assert getattr(freqlab, name) is getattr(defined, name)


def test_dir_and_star_import_offer_every_public_name():
    assert set(freqlab.__all__) == PUBLIC_NAMES
    assert PUBLIC_NAMES <= set(dir(freqlab))
    namespace = {}
    exec("from freqlab import *", namespace)
    assert PUBLIC_NAMES == {name for name in namespace if not name.startswith("__")}


def test_unknown_attribute_raises():
    with pytest.raises(AttributeError, match="^module 'freqlab' has no attribute 'nope'$"):
        freqlab.nope


def test_precision_error_is_one_class():
    assert freqlab.dyadic.PrecisionError is freqlab.signal.PrecisionError


RECORDS = [
    (IntegerInterval, (1, 2)),
    (FrequencyResult, (Fraction(1, 3), (1,), 1, False)),
    (BilinearFrequencyResult, (Fraction(1, 3), (1,), 1, False)),
    (CoveringSelection, ((0, 2), 30, 20)),
    (GeneratorSpec, ("spike_pair", None, None, 100, None)),
    (LevelParams, (Fraction(2), Fraction(1, 4), "S")),
    (LevelSetCensus, ((10,), (1,), (1,), (Fraction(1, 10),), ("0.1",))),
    (Check, ("name", True, "", None)),
]


@pytest.mark.parametrize("cls,fields", RECORDS, ids=[cls.__name__ for cls, _ in RECORDS])
def test_record(cls, fields):
    record = cls(*fields)
    assert tuple(getattr(record, name) for name in cls.__slots__) == fields
    assert record == cls(**dict(zip(cls.__slots__, fields)))
    assert record != fields
    assert pickle.loads(pickle.dumps(record)) == record
    assert not hasattr(record, "__dict__")
    assert hash(record) == hash(cls(*fields))
    with pytest.raises(AttributeError, match=f"^cannot assign to field {cls.__slots__[0]!r}$"):
        setattr(record, cls.__slots__[0], fields[0])


@pytest.mark.parametrize("cls,fields", RECORDS, ids=[cls.__name__ for cls, _ in RECORDS])
def test_record_refuses_a_wrong_field_list(cls, fields):
    # the records with their own __init__ get Python's wording, the rest Record's
    name, first = cls.__name__, cls.__slots__[0]
    with pytest.raises(TypeError, match=rf"^{name}\b.* {first!r}"):
        cls()
    with pytest.raises(TypeError, match=rf"^{name}\b.* 'nope'$"):
        cls(*fields, nope=1)
    with pytest.raises(TypeError, match=rf"^{name}\b"):
        cls(*fields, None)
    with pytest.raises(TypeError, match=rf"^{name}\b.* {first!r}"):
        cls(*fields, **{first: fields[0]})


def test_record_messages_name_the_record_and_the_field():
    with pytest.raises(TypeError, match="^Check is missing field 'passed'$"):
        Check("name", detail="x")
    with pytest.raises(TypeError, match="^Check has no field 'nope'$"):
        Check("name", True, nope=1)
    with pytest.raises(TypeError, match="^Check takes 4 fields, got 5$"):
        Check("name", True, "", None, None)
    with pytest.raises(TypeError, match="^Check got field 'passed' by position and by name$"):
        Check("name", True, passed=False)


@pytest.mark.parametrize("cls,fields", RECORDS, ids=[cls.__name__ for cls, _ in RECORDS])
def test_record_defaults_are_trailing_fields(cls, fields):
    slots = cls.__slots__
    assert set(cls._defaults) == set(slots[len(slots) - len(cls._defaults) :])


def test_record_defaults_fill_fields_left_out():
    assert FrequencyResult(Fraction(1), (0,), 0) == FrequencyResult(Fraction(1), (0,), 0, False)
    assert BilinearFrequencyResult(Fraction(0), None, 0, degenerate=True).degenerate is True
    assert Check("name", True) == Check("name", True, "", None)
    assert Check(passed=False, name="n", replay=("s", "x")) == Check("n", False, "", ("s", "x"))


def test_records_of_two_classes_never_equal():
    fields = (Fraction(1, 3), (1,), 1)
    assert FrequencyResult(*fields) != BilinearFrequencyResult(*fields)
    assert repr(BilinearFrequencyResult(*fields)) == (
        "BilinearFrequencyResult(maximal_value=Fraction(1, 3), extremal_radii=(1,),"
        " frequency=1, degenerate=False)"
    )
