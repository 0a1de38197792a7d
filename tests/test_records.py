"""The frozen records: construction by position and keyword, equality and
hash on the compared fields within one class, immutability, pickling and
repr, the contract each record has had since it was a frozen dataclass;
and the same freezing, pickling and repr for the three arithmetic values,
F_p scalars, polynomials in t and diagram morphisms."""

import copy
import pickle
from decimal import Decimal
from fractions import Fraction

import pytest

from semisimple.brauer import BiObject, DiagramMorphism, WalledDiagram, hom_basis
from semisimple.exact import T
from semisimple.growth import GrowthRate, GrowthReport, ImprovedBound, PadicDigits
from semisimple.modrep import JordanModule
from semisimple.scalars import ORDER_CAP, FpScalar
from semisimple.verlinde import FusionElement

B11 = BiObject(1, 1)
RATE = GrowthRate(5, (1, 0, 0, 0))

#: Each record: its class, its constructor's arguments by name, the values
#: that == and hash compare, and its repr.
RECORDS = [
    (BiObject, {"r": 2, "s": 1}, (2, 1), "BiObject(r=2, s=1)"),
    (WalledDiagram, {"source": B11, "target": B11, "pairs": ((3, 1), (2, 0))}, (B11, B11, (2, 3, 0, 1)),
     "WalledDiagram(source=BiObject(r=1, s=1), target=BiObject(r=1, s=1), pairs=((0, 2), (1, 3)))"),
    (FusionElement, {"p": 5, "multiplicities": (0, 1, 0, 2)}, (5, (0, 1, 0, 2)),
     "FusionElement(p=5, multiplicities=(0, 1, 0, 2))"),
    (JordanModule, {"p": 5, "e": 1, "blocks": (2, 3)}, (5, 1, (3, 2)), "JordanModule(p=5, e=1, blocks=(3, 2))"),
    (GrowthRate, {"p": 5, "m": (1, 0, 0, 0)}, (5, (1, 0, 0, 0)),
     "GrowthRate(p=5, m=(1, 0, 0, 0), numeric=Decimal('1'))"),
    (GrowthReport, {"p": 5, "dim": 1, "blocks": (1,), "m": (1, 0, 0, 0), "rate": RATE, "divisibility_mod_p": True,
                    "dimension_match": True, "growth_below_dim": None},
     (5, 1, (1,), (1, 0, 0, 0), RATE, True, True, None),
     "GrowthReport(p=5, dim=1, blocks=(1,), m=(1, 0, 0, 0), rate=GrowthRate(p=5, m=(1, 0, 0, 0), "
     "numeric=Decimal('1')), divisibility_mod_p=True, dimension_match=True, growth_below_dim=None)"),
    (PadicDigits, {"p": 5, "digits": (0, 1, 0, 2)}, (5, (0, 1, 0, 2)), "PadicDigits(p=5, digits=(0, 1, 0, 2))"),
    (ImprovedBound, {"p": 5, "d": 2, "bound": Decimal("1.3"), "max_schur_dim": 5, "max_partition": (4,),
                     "ratio": Fraction(16, 5), "row_sum": 6, "box_sum": 5},
     (5, 2, Decimal("1.3"), 5, (4,), Fraction(16, 5), 6, 5),
     "ImprovedBound(p=5, d=2, bound=Decimal('1.3'), max_schur_dim=5, max_partition=(4,), "
     "ratio=Fraction(16, 5), row_sum=6, box_sum=5)"),
]
IDS = [cls.__name__ for cls, *_ in RECORDS]


@pytest.mark.parametrize("cls, args, key, text", RECORDS, ids=IDS)
def test_record_constructs_by_position_and_keyword(cls, args, key, text):
    record = cls(*args.values())
    assert cls(**args) == record
    assert cls(*(getattr(record, name) for name in args)) == record  # each argument reads back


def test_jordan_module_cap_defaults_and_is_no_part_of_the_value():
    v = JordanModule(5, 1, (3, 2))
    raised = JordanModule(5, 1, (3, 2), 10**6)
    assert v.cap == ORDER_CAP and raised.cap == JordanModule(5, 1, (3, 2), cap=10**6).cap == 10**6
    assert raised == v and hash(raised) == hash(v) and repr(raised) == repr(v)


@pytest.mark.parametrize("cls, args, key, text", RECORDS, ids=IDS)
def test_record_refuses_missing_unknown_and_duplicate_arguments(cls, args, key, text):
    values = list(args.values())
    with pytest.raises(TypeError):
        cls(*values[:-1])
    with pytest.raises(TypeError):
        cls(**args, unknown=1)
    with pytest.raises(TypeError):
        cls(*values, **{next(iter(args)): values[0]})


def test_growth_rate_takes_no_numeric_argument():
    with pytest.raises(TypeError):
        GrowthRate(5, (1, 0, 0, 0), numeric=Decimal(1))


@pytest.mark.parametrize("cls, args, key, text", RECORDS, ids=IDS)
def test_record_equals_and_hashes_its_compared_fields_within_its_class(cls, args, key, text):
    record = cls(**args)
    assert record == cls(**args) and hash(record) == hash(key)
    assert record != key and key != record
    others = [other(**other_args) for other, other_args, *_ in RECORDS if other is not cls]
    assert all(record != other and other != record for other in others)


def test_records_of_two_classes_with_one_key_differ():
    assert FusionElement(5, (0, 1, 0, 2)) != PadicDigits(5, (0, 1, 0, 2))
    assert JordanModule(5, 1, (1,)) != (5, 1, (1,))


@pytest.mark.parametrize("cls, args, key, text", RECORDS, ids=IDS)
def test_record_is_immutable(cls, args, key, text):
    record = cls(**args)
    for name in args:
        with pytest.raises(AttributeError):
            setattr(record, name, getattr(record, name))
        with pytest.raises(AttributeError):
            delattr(record, name)
    with pytest.raises(AttributeError):
        record.unknown = 1
    assert cls(**args) == record


@pytest.mark.parametrize("cls, args, key, text", RECORDS, ids=IDS)
def test_record_pickles_and_copies(cls, args, key, text):
    record = cls(**args)
    copies = [pickle.loads(pickle.dumps(record, protocol)) for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
    copies += [copy.deepcopy(record), copy.copy(record)]
    for other in copies:
        assert type(other) is cls and other == record and hash(other) == hash(record) and repr(other) == text


def test_jordan_module_keeps_its_cap_through_pickle_and_deepcopy():
    v = JordanModule(5, 3, (100,), cap=125)
    assert pickle.loads(pickle.dumps(v)).cap == copy.deepcopy(v).cap == 125


@pytest.mark.parametrize("cls, args, key, text", RECORDS, ids=IDS)
def test_record_repr_is_its_dataclass_text(cls, args, key, text):
    assert repr(cls(**args)) == text


#: Each arithmetic value: a function making it afresh, the names of its
#: fields, and its repr.
VALUES = [
    (lambda: FpScalar(3, 5), ("value", "p"), "FpScalar(3, 5)"),
    (lambda: T**2 + 1, ("coeffs",), "TPolynomial([1, 0, 1])"),
    (lambda: DiagramMorphism(B11, B11, [(hom_basis(B11, B11)[0], 2), (hom_basis(B11, B11)[1], T - 1)]),
     ("source", "target", "terms"), "<[1,1] -> [1,1]: (2)*((0, 1), (2, 3)) + (t - 1)*((0, 2), (1, 3))>"),
]
VALUE_IDS = ["FpScalar", "TPolynomial", "DiagramMorphism"]


@pytest.mark.parametrize("make, fields, text", VALUES, ids=VALUE_IDS)
def test_value_refuses_to_set_or_delete_a_field(make, fields, text):
    value = make()
    for name in fields:
        with pytest.raises(AttributeError):
            setattr(value, name, getattr(value, name))
        with pytest.raises(AttributeError):
            delattr(value, name)
    with pytest.raises(AttributeError):
        value.unknown = 1


@pytest.mark.parametrize("make, fields, text", VALUES, ids=VALUE_IDS)
def test_value_pickles_and_copies(make, fields, text):
    value = make()
    copies = [pickle.loads(pickle.dumps(value, protocol)) for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
    copies += [copy.copy(value), copy.deepcopy(value)]
    for other in copies:
        assert type(other) is type(value) and other == value and repr(other) == text
        assert all(getattr(other, name) == getattr(value, name) for name in fields)
        if not isinstance(value, DiagramMorphism):
            assert hash(other) == hash(value)


def test_diagram_morphism_stays_unhashable_and_read_only():
    morphism = VALUES[2][0]()
    for other in (morphism, copy.copy(morphism), copy.deepcopy(morphism), pickle.loads(pickle.dumps(morphism))):
        with pytest.raises(TypeError):
            hash(other)
        with pytest.raises(TypeError):
            other.terms[hom_basis(B11, B11)[0]] = 1


@pytest.mark.parametrize("make, fields, text", VALUES, ids=VALUE_IDS)
def test_value_repr_is_unchanged(make, fields, text):
    assert repr(make()) == text
