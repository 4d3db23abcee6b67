"""Simulator unit tests and invariants."""

import re
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from parkseq.core import (
    TRAILER,
    CarSizeVector,
    Collision,
    Overflow,
    Parked,
    is_parking_sequence,
    simulate_parking,
)
from parkseq.counting import count_by_enumeration, count_by_formula, count_report
from parkseq.strehl import IndexSet
from parkseq.poly import SparsePolynomial, Variable, Z, monomial, x_var, y_var
from parkseq.strehl import (
    abel_rothe_specialize,
    f_as_t_specialization,
    identity_sides,
    random_identity_check,
    verify_recurrence,
)


def validate_layout(layout, cars, z):
    """Check the invariants of a successful parking of ``cars``, raising ``ValueError``.

    Trailer cells are exactly spots 1..z-1, each car occupies a contiguous
    block of its own length, and no cell is empty.
    """
    cells = layout.cells
    m = z - 1 + cars.total
    if len(cells) != m:
        raise ValueError(f"layout has {len(cells)} cells, lot has {m}")
    for k, cell in enumerate(cells, start=1):
        if (cell == TRAILER) != (k <= z - 1):
            raise ValueError(f"spot {k} holds {cell!r}, trailer zone is 1..{z - 1}")
        if cell is None:
            raise ValueError(f"spot {k} is empty in a finished layout")
    for i, y in enumerate(cars, start=1):
        block = [k for k, cell in enumerate(cells, start=1) if cell == i]
        if len(block) != y:
            raise ValueError(f"car {i} occupies {len(block)} spots, its size is {y}")
        if block and block[-1] - block[0] != y - 1:
            raise ValueError(f"car {i} is not contiguous: spots {block}")


@st.composite
def instances(draw, max_n=4, max_y=3, max_z=4):
    """A random (sizes, z, prefs) triple with prefs valid for the lot."""
    n = draw(st.integers(0, max_n))
    sizes = tuple(draw(st.lists(st.integers(1, max_y), min_size=n, max_size=n)))
    z = draw(st.integers(1, max_z))
    m = z - 1 + sum(sizes)
    if n:
        prefs = tuple(draw(st.lists(st.integers(1, m), min_size=n, max_size=n)))
    else:
        prefs = ()
    return sizes, z, prefs


def test_worked_example_layout():
    outcome = simulate_parking((2, 2, 1), 4, (5, 6, 2))
    assert isinstance(outcome, Parked)
    assert outcome.layout.cells == (TRAILER, TRAILER, TRAILER, 3, 1, 1, 2, 2)
    assert outcome.layout.render() == "T T T C3 C1 C1 C2 C2"


def test_no_cars_parks_trailer_only():
    outcome = simulate_parking((), 3, ())
    assert isinstance(outcome, Parked)
    assert outcome.layout.cells == (TRAILER, TRAILER)


def test_no_cars_no_trailer_is_empty_lot():
    outcome = simulate_parking((), 1, ())
    assert isinstance(outcome, Parked)
    assert outcome.layout.cells == ()


def test_overflow_when_block_leaves_lot():
    # car 1 needs spots 3-4 of a 3-spot lot
    assert simulate_parking((2, 1), 1, (3, 1)) == Overflow(car=1, first_empty=3)


def test_overflow_when_no_empty_spot_remains():
    # car 1 takes spot 2, car 2 sees nothing empty at or after 2
    outcome = simulate_parking((1, 1), 1, (2, 2))
    assert outcome == Overflow(car=2, first_empty=None)


def test_collision_reports_blocking_spot():
    # car 1 parks at 2; car 2 finds spot 1 empty but spot 2 occupied
    outcome = simulate_parking((1, 2), 1, (2, 1))
    assert outcome == Collision(car=2, first_empty=1, blocked_at=2)


@pytest.mark.parametrize("z", [1, 2, 5])
@pytest.mark.parametrize("y", [1, 2, 4])
def test_single_car_preferring_at_most_z_parks(z, y):
    for c in range(1, z + 1):
        assert is_parking_sequence((y,), z, (c,))


def test_is_parking_sequence_matches_simulator():
    assert is_parking_sequence((2, 2, 1), 4, (5, 6, 2))
    assert not is_parking_sequence((2, 1), 1, (3, 1))


def test_order_sensitivity_witness():
    """A parking sequence whose permutation is not one."""
    assert is_parking_sequence((2, 1), 1, (1, 3))
    assert not is_parking_sequence((2, 1), 1, (3, 1))


def test_preference_outside_lot_is_rejected_not_counted():
    with pytest.raises(ValueError):
        simulate_parking((2, 1), 1, (9, 1))
    with pytest.raises(ValueError):
        simulate_parking((1,), 1, (0,))


@pytest.mark.parametrize("sizes,z", [((1,), 10**20), ((10**20,), 1)], ids=["trailer", "car"])
def test_a_lot_too_long_to_index_is_refused(sizes, z):
    message = (
        f"a lot of {10**20} spots is too long to simulate (a row holds at most {sys.maxsize} spots)"
    )
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        simulate_parking(sizes, z, (1,))


def test_preference_count_must_match_cars():
    with pytest.raises(ValueError):
        simulate_parking((1, 1), 1, (1,))


def test_invalid_sizes_and_z():
    with pytest.raises(ValueError):
        CarSizeVector((1, 0))
    with pytest.raises(ValueError):
        simulate_parking((1,), 0, (1,))
    with pytest.raises(ValueError):
        simulate_parking((1, 1), 1, (1, -2))


@pytest.mark.parametrize(
    "entry",
    [
        lambda z: simulate_parking((1,), z, (1,)),
        lambda z: is_parking_sequence((1,), z, (1,)),
        lambda z: count_by_formula((1,), z),
        lambda z: count_report((1,), z),
        lambda z: count_by_enumeration((1,), z),
        lambda z: verify_recurrence((1,), 1, z),
        lambda z: f_as_t_specialization((1,), z),
    ],
    ids=[
        "simulate_parking",
        "is_parking_sequence",
        "count_by_formula",
        "count_report",
        "count_by_enumeration",
        "verify_recurrence",
        "f_as_t_specialization",
    ],
)
@pytest.mark.parametrize("z", [0, -3])
def test_every_entry_point_refuses_z_with_one_message(entry, z):
    message = f"trailer parameter z must be an integer >= 1, got {z}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        entry(z)


@pytest.mark.parametrize(
    "entry, message",
    [
        (lambda: count_by_formula((1,), True), "trailer parameter z must be an integer >= 1"),
        (lambda: simulate_parking((1,), True, (1,)), "trailer parameter z must be an integer >= 1"),
        (lambda: CarSizeVector((1, True)), "car sizes must be integers >= 1"),
        (lambda: count_by_formula((1, True), 1), "car sizes must be integers >= 1"),
        (lambda: simulate_parking((1,), 1, (True,)), "preferred spots must be integers >= 1"),
        (lambda: IndexSet((True, 2)), "index sets hold integers >= 1"),
        (lambda: SparsePolynomial({((Z, 1),): True}), "coefficients must be integers"),
        (lambda: SparsePolynomial.from_terms([({Z: 1}, True)]), "coefficients must be integers"),
        (lambda: monomial({Z: True}), "exponent of z must be an integer >= 0"),
        (lambda: verify_recurrence((1,), True, 1), "next car size must be an integer >= 1"),
        (lambda: y_var(True), "y index must be an integer >= 1"),
        (lambda: x_var(True, 2), "x indices must be integers with 0 < i < j"),
        (lambda: Variable(True), "family must be 0 (z), 1 (w), 2 (y) or 3 (x)"),
        (lambda: abel_rothe_specialize((1, 2), "t", True, 1), "xi must be an integer"),
        (lambda: abel_rothe_specialize((1, 2), "t", 1, True), "eta must be an integer"),
        (lambda: random_identity_check("easy", (1, 2), trials=True), "trials must be an integer"),
        (lambda: random_identity_check("easy", (1, 2), seed=True), "seed must be an integer"),
        (lambda: identity_sides("easy", (1, 2), budget=True), "budget must be an integer"),
        (lambda: count_report((1, 2), 1, budget=True), "budget must be an integer"),
    ],
    ids=[
        "z",
        "simulate_parking-z",
        "CarSizeVector",
        "count_by_formula-sizes",
        "prefs",
        "IndexSet",
        "coefficient",
        "from_terms-coefficient",
        "exponent",
        "next_size",
        "y_var",
        "x_var",
        "Variable",
        "abel_rothe-xi",
        "abel_rothe-eta",
        "random_check-trials",
        "random_check-seed",
        "identity_sides-budget",
        "count_report-budget",
    ],
)
def test_every_input_check_refuses_bool(entry, message):
    """``bool`` is an ``int`` subclass, but a flag is never a size, spot, index or count."""
    with pytest.raises(ValueError, match=f"^{re.escape(message)}.*True"):
        entry()


@pytest.mark.parametrize(
    "entry, message",
    [
        (lambda v: abel_rothe_specialize((1, 2), "t", v, 1), "xi must be an integer"),
        (lambda v: abel_rothe_specialize((1, 2), "s", 1, v), "eta must be an integer"),
        (lambda v: random_identity_check("sheffer", (1, 2), trials=v), "trials must be an integer"),
        (lambda v: random_identity_check("sheffer", (1, 2), seed=v), "seed must be an integer"),
        (lambda v: identity_sides("easy", (1, 2), budget=v), "budget must be an integer"),
    ],
    ids=["xi", "eta", "trials", "seed", "budget"],
)
@pytest.mark.parametrize("value", [2.5, "3", None])
def test_count_arguments_are_refused_by_their_one_check(entry, message, value):
    """A flag, a float or a string is no count, seed or constant: each is refused
    by the argument's own check, naming it, before any work."""
    with pytest.raises(ValueError, match=f"^{re.escape(f'{message}, got {value!r}')}$"):
        entry(value)


def test_trailer_inside_preference_zone_is_allowed():
    # the worked example prefers spot 2, inside the trailer block
    assert is_parking_sequence((2, 2, 1), 4, (5, 6, 2))


@given(instances())
def test_determinism(case):
    sizes, z, prefs = case
    assert simulate_parking(sizes, z, prefs) == simulate_parking(sizes, z, prefs)


@given(instances())
def test_parked_layout_invariants(case):
    """Conservation: every car keeps its size, trailer keeps z-1 spots, no gaps."""
    sizes, z, prefs = case
    outcome = simulate_parking(sizes, z, prefs)
    if not isinstance(outcome, Parked):
        return
    cells = outcome.layout.cells
    m = z - 1 + sum(sizes)
    assert len(cells) == m
    assert cells.count(TRAILER) == z - 1
    assert cells.count(None) == 0
    for i, y in enumerate(sizes, start=1):
        assert cells.count(i) == y
    validate_layout(outcome.layout, CarSizeVector(sizes), z)


@given(instances())
def test_failure_outcomes_satisfy_their_invariants(case):
    sizes, z, prefs = case
    outcome = simulate_parking(sizes, z, prefs)
    m = z - 1 + sum(sizes)
    if isinstance(outcome, Collision):
        y = sizes[outcome.car - 1]
        assert outcome.first_empty + 1 <= outcome.blocked_at <= outcome.first_empty + y - 1
    elif isinstance(outcome, Overflow):
        y = sizes[outcome.car - 1]
        assert outcome.first_empty is None or outcome.first_empty + y - 1 > m


@st.composite
def no_spot_overflows(draw, max_n=4, max_y=3, max_z=4):
    """A (sizes, z, prefs, i) in which car i sees no empty spot at or after its preference.

    The cars before i fill disjoint blocks past the trailer, in a drawn left
    to right order with drawn free spots between them and none after the
    last block, so one block ends at the last spot.  Each of those cars
    prefers its block's first spot or a spot in the occupied run just
    before it, so it parks exactly there, and car i prefers a spot in the
    occupied run that ends at the last spot.
    """
    n = draw(st.integers(2, max_n))
    sizes = tuple(draw(st.lists(st.integers(1, max_y), min_size=n, max_size=n)))
    z = draw(st.integers(1, max_z))
    m = z - 1 + sum(sizes)
    i = draw(st.integers(2, n))
    order = draw(st.permutations(range(1, i)))
    free = sum(sizes[i - 1 :])
    gap_of = draw(st.lists(st.integers(0, i - 2), min_size=free, max_size=free))
    start, spot = {}, z
    for slot, car in enumerate(order):
        spot += gap_of.count(slot)
        start[car] = spot
        spot += sizes[car - 1]
    assert spot == m + 1
    occupied = [True] * z + [False] * (m + 1 - z)  # 1-based: the trailer, then empty spots

    def run_start(last: int) -> int:
        while last > 1 and occupied[last - 1]:
            last -= 1
        return last

    prefs = []
    for car in range(1, i):
        prefs.append(draw(st.integers(run_start(start[car]), start[car])))
        for k in range(start[car], start[car] + sizes[car - 1]):
            occupied[k] = True
    prefs.append(draw(st.integers(run_start(m), m)))
    prefs += draw(st.lists(st.integers(1, m), min_size=n - i, max_size=n - i))
    return sizes, z, tuple(prefs), i


@settings(max_examples=300)
@given(st.data())
def test_no_spot_overflow_is_monotone_in_preference(data):
    """Raising the preference cannot rescue a car that saw no empty spot."""
    sizes, z, prefs, i = data.draw(no_spot_overflows())
    outcome = simulate_parking(sizes, z, prefs)
    assert outcome == Overflow(car=i, first_empty=None)
    m = z - 1 + sum(sizes)
    bumped = data.draw(st.integers(prefs[i - 1], m))
    mutated = prefs[: i - 1] + (bumped,) + prefs[i:]
    assert simulate_parking(sizes, z, mutated) == outcome


def test_layout_spot_accessor_is_one_based():
    outcome = simulate_parking((2, 2, 1), 4, (5, 6, 2))
    layout = outcome.layout
    assert layout.spot(1) == TRAILER
    assert layout.spot(4) == 3
    assert layout.spot(8) == 2
    with pytest.raises(IndexError):
        layout.spot(9)
    with pytest.raises(IndexError):
        layout.spot(0)
    for k in (True, False, 1.0, "1"):
        with pytest.raises(TypeError, match="spot number must be an integer"):
            layout.spot(k)


def test_layout_validation_rejects_wrong_layouts():
    from parkseq.core import LotLayout

    good = simulate_parking((2,), 2, (1,)).layout
    validate_layout(good, CarSizeVector((2,)), 2)
    with pytest.raises(ValueError):  # trailer cell outside the trailer zone
        validate_layout(LotLayout((TRAILER, 1, 1)), CarSizeVector((2,)), 1)
    with pytest.raises(ValueError):  # car 1 split around car 2
        validate_layout(LotLayout((1, 2, 1)), CarSizeVector((2, 1)), 1)
    with pytest.raises(ValueError):  # empty cell in a finished layout
        validate_layout(LotLayout((TRAILER, None)), CarSizeVector((1,)), 2)
    with pytest.raises(ValueError):  # wrong lot length
        validate_layout(LotLayout((1, 1)), CarSizeVector((2,)), 2)
