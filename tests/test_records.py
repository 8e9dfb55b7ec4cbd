"""The seven value records: immutable, compared and hashed field-wise."""

import pytest

from aurifeuille.factorizer import factor_by_rounding, full_factorization
from aurifeuille.gauss import algorithm_d
from aurifeuille.lucas import algorithm_l
from aurifeuille.numthy import class_number_neg, fundamental_unit, make_context

BUILDERS = {
    "NumTheoryContext": lambda: make_context(105),
    "ClassNumberData": lambda: class_number_neg(23),
    "PellUnit": lambda: fundamental_unit(13),
    "AurifeuilleResult": lambda: factor_by_rounding(7, 2),
    "FactorList": lambda: full_factorization(7, 2)[1],
    "GaussPair": lambda: algorithm_d(105),
    "LucasPair": lambda: algorithm_l(105),
}


@pytest.mark.parametrize("name", BUILDERS)
def test_record_is_an_immutable_value(name):
    record = BUILDERS[name]()
    assert type(record).__name__ == name
    for field in record._fields:
        with pytest.raises(AttributeError):
            setattr(record, field, getattr(record, field))

    first = record._fields[0]
    changed = record._replace(**{first: getattr(record, first) + 1})
    assert type(changed) is type(record)
    assert changed != record

    again = BUILDERS[name]()
    assert again == record and hash(again) == hash(record)
    assert repr(record).startswith(f"{name}(")
