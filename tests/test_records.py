"""Each package record behaves as its ``dataclass(frozen=True)`` twin."""

import dataclasses

import pytest

from schauderspec import (
    index_maps,
    op_algebra,
    schauder,
    sequences,
    serde,
    spectral,
)
from schauderspec.op_algebra import Sum
from schauderspec.records import record, replace
from schauderspec.schauder import SelfAdjointIntervalModel
from schauderspec.sequences import (
    ArithmeticSequence,
    ExplicitPrefixSequence,
    PowerLawRule,
)
from schauderspec.index_maps import SpreadSpec

RECORDS = sorted(
    (c for m in (index_maps, op_algebra, schauder, sequences, serde, spectral)
     for c in vars(m).values()
     if isinstance(c, type) and "_record_fields" in c.__dict__
     and c.__module__ == m.__name__),
    key=lambda c: c.__name__)

# Two valid field sets, differing in one field, for each record that
# validates its fields; any other record takes distinct ints.
SAMPLES = {
    "SpreadSpec": ({"domain": ArithmeticSequence(1, 1), "image": ArithmeticSequence(2, 1)},
                   {"domain": ArithmeticSequence(1, 1), "image": ArithmeticSequence(3, 1)}),
    "MultiplicityList": ({"entries": ((1, 1),)}, {"entries": ((1, 2),)}),
    "Permutation": ({"shift": 1, "moves": ((0, 1), (1, 0)), "description": "p"},
                    {"shift": 2, "moves": ((0, 1), (1, 0)), "description": "p"}),
    "Sum": ({"terms": (1,)}, {"terms": (1, 2)}),
    "BlockDirectSum": ({"blocks": (1,), "partition": (2,)},
                       {"blocks": (1,), "partition": (3,)}),
    "FinVector": ({"entries": ((1, 2),)}, {"entries": ((1, 3),)}),
    "PowerLawRule": ({"scale": 1, "exponent": 1}, {"scale": 1, "exponent": 2}),
    "OffsetRule": ({"inner": 0, "offset": 1}, {"inner": 0, "offset": 2}),
    "RepeatedRule": ({"inner": 0, "times": 2}, {"inner": 0, "times": 3}),
    "ArithmeticSequence": ({"start": 1, "step": 1}, {"start": 1, "step": 2}),
    "ExplicitPrefixSequence": ({"prefix": (1, 2)}, {"prefix": (1, 3)}),
    "SelfAdjointIntervalModel": ({"lower": 0, "upper": 1},
                                 {"lower": 0, "upper": 2}),
}


def samples(cls):
    if cls.__name__ in SAMPLES:
        return SAMPLES[cls.__name__]
    a = {name: i for i, name in enumerate(cls._record_fields)}
    b = dict(a)
    if b:
        b[cls._record_fields[-1]] = -1
    return a, b


def defaults(cls):
    return {n: cls.__dict__[n] for n in cls._record_fields if n in cls.__dict__}


def twin(cls):
    namespace = {"__annotations__": dict.fromkeys(cls._record_fields, object),
                 "__qualname__": cls.__qualname__, **defaults(cls)}
    if cls.__repr__.__qualname__ == f"{cls.__qualname__}.__repr__":
        namespace["__repr__"] = cls.__repr__  # written in the class body
    return dataclasses.dataclass(frozen=True)(type(cls.__name__, (), namespace))


def error_text(action):
    with pytest.raises(AttributeError) as err:
        action()
    return str(err.value)


def test_every_record_is_found():
    assert len(RECORDS) == 44


@pytest.mark.parametrize("cls", RECORDS, ids=lambda c: c.__name__)
class TestTwin:
    def test_fields_defaults_and_repr(self, cls):
        twin_cls = twin(cls)
        a, _ = samples(cls)
        assert cls.__match_args__ == twin_cls.__match_args__
        assert repr(cls(**a)) == repr(twin_cls(**a))
        required = {n: v for n, v in a.items() if n not in defaults(cls)}
        assert repr(cls(**required)) == repr(twin_cls(**required))
        assert repr(cls(*a.values())) == repr(twin_cls(*a.values()))

    def test_equality_and_hash(self, cls):
        twin_cls = twin(cls)
        a, b = samples(cls)
        x, y, z = cls(**a), cls(**a), cls(**b)
        tx, tz = twin_cls(**a), twin_cls(**b)
        assert (x == y, x != y) == (True, False)
        assert (x == z, x != z) == (tx == tz, tx != tz)
        assert hash(x) == hash(y) == hash(tx)
        assert x.__eq__(tx) is NotImplemented
        assert x != tx

    def test_fields_are_frozen(self, cls):
        twin_cls = twin(cls)
        a, _ = samples(cls)
        x, tx = cls(**a), twin_cls(**a)
        for name in (*cls._record_fields, "other"):
            assert (error_text(lambda: setattr(x, name, 0))
                    == error_text(lambda: setattr(tx, name, 0)))
            assert (error_text(lambda: delattr(x, name))
                    == error_text(lambda: delattr(tx, name)))

    def test_replace(self, cls):
        twin_cls = twin(cls)
        a, b = samples(cls)
        x, tx = cls(**a), twin_cls(**a)
        changes = {n: v for n, v in b.items() if a.get(n) != v}
        assert repr(replace(x, **changes)) == repr(dataclasses.replace(tx, **changes))
        assert replace(x, **changes) == cls(**b)
        assert replace(x) == x and replace(x) is not x


@pytest.mark.parametrize("build", [
    lambda: SpreadSpec(ExplicitPrefixSequence((1, 2)), ExplicitPrefixSequence((1,))),
    lambda: SelfAdjointIntervalModel(2, 1),
    lambda: Sum(()),
    lambda: PowerLawRule(1, -1),
    lambda: ArithmeticSequence(0, 1),
    lambda: replace(ArithmeticSequence(1, 1), step=0),
])
def test_post_init_still_validates(build):
    with pytest.raises(ValueError):
        build()


def test_replace_rejects_an_unknown_field():
    with pytest.raises(TypeError):
        replace(ArithmeticSequence(1, 1), stride=2)


def test_fields_of_record_bases_come_first():
    @record
    class Base:
        x: int
        y: int = 2

    @record
    class Child(Base):
        z: int = 3

    @dataclasses.dataclass(frozen=True)
    class TwinBase:
        x: int
        y: int = 2

    @dataclasses.dataclass(frozen=True)
    class TwinChild(TwinBase):
        z: int = 3

    assert Child.__match_args__ == ("x", "y", "z")
    assert repr(Child(1)).endswith(".Child(x=1, y=2, z=3)")
    assert repr(TwinChild(1)).endswith(".TwinChild(x=1, y=2, z=3)")
    assert Child(1, 2, 3) != Base(1, 2)
