"""The result records are NamedTuples: immutable values, equal and hashed by
their fields, with the `Name(field=value, ...)` repr and `_replace`."""
import dataclasses
from fractions import Fraction

import pytest

from selinf.cosphericity import CosphericityResult
from selinf.distances import (
    ChainRecord,
    ChainReport,
    FineInequality,
    FineReport,
    LinkEvaluation,
)
from selinf.experiment import (
    MarginalReport,
    MarginalViolation,
    ValidationBreach,
    ValidationReport,
)
from selinf.lft import LftVerdict, Si2Model
from selinf.rational_lp import FeasibilityResult

RECORDS = [
    ValidationBreach,
    ValidationReport,
    MarginalViolation,
    MarginalReport,
    CosphericityResult,
    LinkEvaluation,
    ChainRecord,
    ChainReport,
    FineInequality,
    FineReport,
    FeasibilityResult,
    LftVerdict,
    Si2Model,
]


def _record(cls):
    # fresh field objects on every call, so two records share none
    return cls(*(Fraction(i + 1, 3) for i in range(len(cls._fields))))


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_record_contract(cls):
    # a record that went back to @dataclass would cost set-up time at import
    assert not dataclasses.is_dataclass(cls)
    a, b = _record(cls), _record(cls)
    assert a is not b and a == b and hash(a) == hash(b)
    assert a == tuple(a)
    for name in cls._fields:
        with pytest.raises(AttributeError):
            setattr(a, name, 0)
    fields = ", ".join(f"{name}={value!r}" for name, value in zip(cls._fields, a))
    assert repr(a) == f"{cls.__name__}({fields})"
    first = cls._fields[0]
    changed = a._replace(**{first: "other"})
    assert type(changed) is cls and getattr(changed, first) == "other"
    assert changed[1:] == a[1:] and changed != a and a == b


def test_record_defaults():
    assert ValidationBreach("kind", "message").treatment is None
    assert LftVerdict(None, True, None, None, 0).chain_failure is None
    assert {cls.__name__: cls._field_defaults for cls in RECORDS if cls._field_defaults} == {
        "ValidationBreach": {"treatment": None},
        "LftVerdict": {"chain_failure": None, "marginal_violation": None},
    }
