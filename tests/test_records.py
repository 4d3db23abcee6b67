"""The public result records: their text, immutability, equality, checks and copies."""

import copy
import pickle
from typing import get_args

import pytest

from parkseq import (
    CarSizeVector,
    Collision,
    CountReport,
    EnumerationBudgetError,
    IndexSet,
    LotLayout,
    Overflow,
    ParameterAssignment,
    Parked,
    ParkingOutcome,
    Z,
    count_report,
    identity_sides,
    poly,
    simulate_parking,
    x_var,
    y_var,
)

RECORDS = {
    "CarSizeVector": (CarSizeVector((1, 2)), "CarSizeVector(sizes=(1, 2))"),
    "CarSizeVector-empty": (CarSizeVector(), "CarSizeVector(sizes=())"),
    "LotLayout": (LotLayout((0, 1, None)), "LotLayout(cells=(0, 1, None))"),
    "Parked": (Parked(LotLayout((1,))), "Parked(layout=LotLayout(cells=(1,)))"),
    "Collision": (Collision(2, 1, 2), "Collision(car=2, first_empty=1, blocked_at=2)"),
    "Overflow-no-spot": (Overflow(1, None), "Overflow(car=1, first_empty=None)"),
    "Overflow": (Overflow(car=3, first_empty=4), "Overflow(car=3, first_empty=4)"),
    "CountReport": (
        CountReport(3, 3, True, 9),
        "CountReport(enumerated=3, formula=3, match=True, tuples_scanned=9)",
    ),
    "ParameterAssignment-default": (
        ParameterAssignment(),
        "ParameterAssignment(z_val=0, w_val=0, y_vals={}, x_vals={})",
    ),
    "ParameterAssignment": (
        ParameterAssignment(1, -2, {1: 3}, {(1, 2): 4}),
        "ParameterAssignment(z_val=1, w_val=-2, y_vals={1: 3}, x_vals={(1, 2): 4})",
    ),
}

FIELDS = {
    "CarSizeVector": (CarSizeVector((1, 2)), "sizes", (3,)),
    "LotLayout": (LotLayout((1,)), "cells", (2,)),
    "Parked": (Parked(LotLayout((1,))), "layout", None),
    "Collision": (Collision(2, 1, 2), "blocked_at", 3),
    "Overflow": (Overflow(1, None), "first_empty", 2),
    "CountReport": (CountReport(3, 3, True, 9), "match", False),
    "ParameterAssignment": (ParameterAssignment(), "z_val", 5),
}

EQUAL_VALUES = {
    "CarSizeVector": lambda: CarSizeVector((2, 1)),
    "LotLayout": lambda: LotLayout((0, 1, 1)),
    "Parked": lambda: Parked(LotLayout((1, 2))),
    "Collision": lambda: Collision(2, 1, 2),
    "Overflow": lambda: Overflow(1, None),
    "CountReport": lambda: CountReport.compare(4, 4, 16),
}


@pytest.mark.parametrize("record, text", RECORDS.values(), ids=RECORDS)
def test_repr_is_pinned(record, text):
    assert repr(record) == text


@pytest.mark.parametrize("record, name, value", FIELDS.values(), ids=FIELDS)
def test_fields_cannot_be_assigned(record, name, value):
    with pytest.raises(AttributeError):
        setattr(record, name, value)
    assert getattr(record, name) != value


@pytest.mark.parametrize(
    "value", [IndexSet((1, 2)), CarSizeVector((1, 2))], ids=["IndexSet", "CarSizeVector"]
)
def test_values_take_no_new_attributes(value):
    """Every value is immutable: none carries a ``__dict__`` for new attributes."""
    with pytest.raises(AttributeError):
        value.note = 1
    assert not hasattr(value, "note") and not hasattr(value, "__dict__")


@pytest.mark.parametrize("build", EQUAL_VALUES.values(), ids=EQUAL_VALUES)
def test_equal_values_compare_and_hash_equal(build):
    a, b = build(), build()
    assert a is not b
    assert a == b
    assert hash(a) == hash(b)


def test_parameter_assignments_compare_by_value():
    a = ParameterAssignment(1, 2, {1: 3}, {(1, 2): 4})
    assert a == ParameterAssignment(1, 2, {1: 3}, {(1, 2): 4})
    assert a != ParameterAssignment(1, 2, {1: 3}, {(1, 2): 5})


def test_count_report_refuses_an_inconsistent_match_flag():
    with pytest.raises(ValueError, match="match flag inconsistent"):
        CountReport(3, 4, True, 9)
    with pytest.raises(ValueError, match="match flag inconsistent"):
        CountReport(enumerated=3, formula=3, match=False, tuples_scanned=9)


def test_car_size_vector_exposes_its_sizes():
    cars = CarSizeVector((2, 1, 3))
    assert cars.sizes == (2, 1, 3)
    assert type(cars.sizes) is tuple
    assert cars.n == 3
    assert cars.total == 6
    assert list(cars) == [2, 1, 3]
    assert len(cars) == 3
    assert CarSizeVector(sizes=[1]).sizes == (1,)
    empty = CarSizeVector()
    assert (empty.n, empty.total, len(empty), list(empty)) == (0, 0, 0, [])


def test_count_report_replace_is_checked_too():
    report = CountReport.compare(3, 3, 9)
    assert report._replace(tuples_scanned=10) == (3, 3, True, 10)
    with pytest.raises(ValueError, match="match flag inconsistent"):
        report._replace(match=False)


def test_default_assignments_share_no_mutable_state():
    first, second = ParameterAssignment(), ParameterAssignment()
    with pytest.raises(TypeError):  # the maps refuse edits
        first.y_vals[1] = 7
    with pytest.raises(TypeError):
        first.x_vals[1, 2] = 7
    assert (second.y_vals, second.x_vals) == ({}, {})


def _budget_error():
    try:
        count_report((1,) * 30, 1)
    except EnumerationBudgetError as err:
        return err
    raise AssertionError("thirty unit cars fit the default budget")


PUBLIC_VALUES = {
    "SparsePolynomial": (poly(Z) + 2) * poly(x_var(1, 2)) - poly(y_var(3)) ** 130,
    "SparsePolynomial-zero": poly(0),
    "Variable": x_var(1, 2),
    "IndexSet": IndexSet((1, 3)),
    "CarSizeVector": CarSizeVector((1, 2)),
    "ParameterAssignment": ParameterAssignment(1, -2, {1: 3}, {(1, 2): 4}),
    "CountReport": CountReport(3, 3, True, 9),
    "LotLayout": LotLayout((0, 1, None)),
    "Parked": Parked(LotLayout((1,))),
    "Collision": Collision(2, 1, 2),
    "Overflow": Overflow(1, None),
    "EnumerationBudgetError": _budget_error(),
}

COPIES = {
    "pickle": lambda value: pickle.loads(pickle.dumps(value)),
    "copy": copy.copy,
    "deepcopy": copy.deepcopy,
}


@pytest.mark.parametrize("how", COPIES.values(), ids=COPIES)
@pytest.mark.parametrize("value", PUBLIC_VALUES.values(), ids=PUBLIC_VALUES)
def test_every_public_value_pickles_and_copies(value, how):
    """A worker process can send any result, the budget error included, back whole."""
    copied = how(value)
    assert type(copied) is type(value)
    if isinstance(value, EnumerationBudgetError):
        fields = ("m", "n", "total", "budget", "states")
        assert str(copied) == str(value)
        assert [getattr(copied, f) for f in fields] == [getattr(value, f) for f in fields]
    else:
        assert copied == value


@pytest.mark.parametrize("how", COPIES.values(), ids=COPIES)
def test_a_printed_relabelled_side_copies_with_its_text(how):
    """A relabelled side shares its print template with the other copies of
    its size's side; a copy of it made after printing prints the same text."""
    side = identity_sides("sheffer", (2, 5, 7))[1]
    text = str(side)
    copied = how(side)
    assert copied == side and str(copied) == text


OUTCOMES = {
    "parked": (((1, 2), 1, (1, 2)), Parked),
    "collision": (((1, 2), 1, (2, 1)), Collision),
    "overflow": (((2, 1), 1, (3, 1)), Overflow),
}


@pytest.mark.parametrize("attempt, kind", OUTCOMES.values(), ids=OUTCOMES)
def test_every_outcome_is_a_parking_outcome(attempt, kind):
    outcome = simulate_parking(*attempt)
    assert type(outcome) is kind
    assert isinstance(outcome, ParkingOutcome)


def test_parking_outcome_is_the_union_of_the_three_records():
    assert get_args(ParkingOutcome) == (Parked, Collision, Overflow)
    assert not isinstance(LotLayout((1,)), ParkingOutcome)


def test_record_fields_are_pinned():
    assert {cls.__name__: cls._fields for cls in (LotLayout, Parked, Collision, Overflow)} == {
        "LotLayout": ("cells",),
        "Parked": ("layout",),
        "Collision": ("car", "first_empty", "blocked_at"),
        "Overflow": ("car", "first_empty"),
    }
