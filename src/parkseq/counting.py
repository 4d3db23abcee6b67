"""Counting parking sequences: the closed-form product and a brute-force oracle.

Only those two and the oracle's budget live here; ground sets and their
splits are ``strehl``'s.  Neither imports the polynomial engine (``poly``,
``strehl``), so both stay independent checks of the routes built on it, the
decomposition recurrence included.  Everything runs on exact
arbitrary-precision integers; the product grows too fast for anything else.
"""

from __future__ import annotations

from collections import namedtuple
from math import comb
from typing import Iterable

from .core import SizesLike, _check_count, _check_lot, _check_z, _decimal, as_car_sizes

DEFAULT_BUDGET = 4 * 10**6


class EnumerationBudgetError(Exception):
    """Raised when the search might walk more row cells than the enumeration budget.

    ``total`` is the ``m**n`` tuples the search would account for; ``states``
    is the upper bound on its states, each charged for its row of ``m``
    spots, and ``states * m`` exceeded ``budget``.  The message gives a number
    of more than 40 digits as its digit count; the attributes stay exact.
    """

    def __init__(self, m: int, n: int, total: int, budget: int, states: int):
        super().__init__(
            f"enumerating {_decimal(m)}^{n} = {_decimal(total)} preference tuples needs up to"
            f" {_decimal(states)} search states of {_decimal(m)} spots each"
            f" ({_decimal(states * m)} row cells), past the budget of {_decimal(budget)}"
        )
        self.m = m
        self.n = n
        self.total = total
        self.states = states
        self.budget = budget

    def __reduce__(self):
        # rebuilt from its five values, so it pickles and copies like the other results
        return type(self), (self.m, self.n, self.total, self.budget, self.states)


class CountReport(namedtuple("_Counts", "enumerated formula match tuples_scanned")):
    """Two independently computed counts and whether they agree.

    ``enumerated`` is the independent route (brute force, or the
    decomposition sum); ``formula`` is the closed-form product;
    ``tuples_scanned`` is how many candidates the independent route accounted
    for: every one of the ``m**n`` preference tuples for brute force, even
    those a failed prefix decides together, and the number of splits for the
    recurrence.
    """

    __slots__ = ()

    def __new__(cls, enumerated: int, formula: int, match: bool, tuples_scanned: int):
        if match != (enumerated == formula):
            raise ValueError("match flag inconsistent with the two counts")
        return super().__new__(cls, enumerated, formula, match, tuples_scanned)

    @classmethod
    def _make(cls, fields: Iterable[object]) -> "CountReport":
        return cls(*fields)  # so that _replace is checked too

    @classmethod
    def compare(cls, enumerated: int, formula: int, tuples_scanned: int) -> "CountReport":
        return cls(enumerated, formula, enumerated == formula, tuples_scanned)


def count_by_formula(sizes: SizesLike, z: int) -> int:
    """Closed-form number of parking sequences for ``sizes`` behind a trailer.

    The product starts at ``z`` and multiplies, for each proper prefix of the
    size vector, the prefix sum plus the number of cars still to come plus z.
    The last car's size never enters.  The empty fleet counts 1 (empty
    product), not z: that is the value the decomposition recurrence needs.
    """
    cars = as_car_sizes(sizes)
    _check_z(z)
    n = cars.n
    if n == 0:
        return 1
    total = z
    prefix = 0
    for k in range(1, n):
        prefix += cars[k - 1]
        total *= z + prefix + n - k
    return total


def count_no_trailer(sizes: SizesLike) -> int:
    """Number of parking sequences with no trailer, as its own product.

    Identical to ``count_by_formula(sizes, 1)`` but computed from the
    trailer-free product directly, so the two can be checked against each
    other.
    """
    cars = as_car_sizes(sizes)
    n = cars.n
    total = 1
    prefix = 0
    for k in range(1, n):
        prefix += cars[k - 1]
        total *= prefix + n - k + 1
    return total


def _search(sizes: tuple[int, ...], z: int, m: int) -> tuple[int, int, int]:
    """Count parking sequences in one forward pass over the cars.

    Returns (parked, scanned, states).  What is left to count depends only on
    the car and the occupancy row, so the pass keeps ``level``, each row
    reachable before car ``k`` with the number of preference prefixes that
    reach it (the transfer-matrix method).  A row is an ``m``-bit int, bit
    ``j - 1`` set when spot ``j`` is taken.  Every preference that rolls
    forward to the same empty spot ``j`` leaves the same row, so a row hands
    its prefixes to one row per empty spot, weighted by the gap back to the
    previous empty spot.  The row is walked one run of empty spots ``a .. b``
    at a time: in the run the block fits at the starts ``a .. b - y + 1`` and
    nowhere else, the first weighted by the gap back to the previous run's
    last spot and each later one by 1.  Preferences past the last
    empty spot, and blocks that overflow or collide, fail together: they
    account for ``m**(cars still to come)`` tuples each without being
    expanded.  The last car's successes are summed run by run without
    building rows.  ``states`` counts the (car, row) states visited, and
    ``_state_bound`` bounds them.
    """
    n = len(sizes)
    if n == 0:
        return 1, 1, 0  # the empty tuple parks
    full = (1 << m) - 1
    level = {(1 << z - 1) - 1: 1}  # bit j - 1 is spot j
    parked = failed = states = 0
    for k, y in enumerate(sizes):
        states += len(level)
        block = (1 << y) - 1
        weight = m ** (n - k - 1)
        last = k == n - 1
        following: dict[int, int] = {}
        for row, ways in level.items():
            fitted = prev = 0  # fitted: preferences under which car k parks
            free = full & ~row
            while free:
                low = free & -free  # first spot a of a run of empty spots
                past = (free + low) & ~free  # the spot just past its last spot b
                free ^= past - low
                a = low.bit_length()
                b = past.bit_length() - 1
                fits = b - a - y + 2  # starts a .. b - y + 1
                if fits > 0:
                    fitted += a - prev + fits - 1
                    if not last:
                        share = ways * (a - prev)
                        put = block * low
                        for _ in range(fits):
                            child = row | put
                            following[child] = following.get(child, 0) + share
                            share = ways
                            put <<= 1
                prev = b
            if last:
                parked += ways * fitted
            failed += ways * (m - fitted) * weight
        level = following
    return parked, parked + failed, states


def _state_bound(sizes: tuple[int, ...]) -> int:
    """Upper bound on the (car, row) states ``_search`` visits.

    Before car k the free length L = sum(sizes) holds the first k cars,
    Y_k spots in all, so its row is one of C(L, Y_k) 0/1 strings; it is also
    those k blocks in one of M_k left-to-right orders of their sizes (a
    multinomial) with the L - Y_k empty spots spread over k + 1 gaps.  The
    bound sums the smaller of the two over k < n; the second is exact for
    equal sizes.  C(L, Y_k) is at least 2^r, r = min(Y_k, L - Y_k), so once
    2^r passes the block count the binomial, which on a fleet of large cars
    takes seconds, is not computed.
    """
    free = sum(sizes)
    bound = placed = 0
    orders = 1
    for k, y in enumerate(sizes):
        blocks = orders * comb(free - placed + k, k)
        rows = min(placed, free - placed)
        bound += blocks if rows >= blocks.bit_length() else min(blocks, comb(free, placed))
        orders = orders * (k + 1) // sizes[: k + 1].count(y)
        placed += y
    return bound


def count_by_enumeration(sizes: SizesLike, z: int, *, budget: int | None = DEFAULT_BUDGET) -> int:
    """Brute-force oracle: decide every preference tuple in ``[1, m]^n``.

    Applies the greedy rule to the real lot, one car at a time, and never
    consults the closed form.  Tuples that share a prefix share its
    simulation, and a prefix that fails decides all of its tuples at once, so
    the cost follows the parking prefixes rather than ``m**n``; every tuple is
    still accounted for.  Prefixes that leave the same occupancy row share
    their future too, so the cost is the number of (car, row) states reached,
    each walking the runs of empty spots in its row of ``m`` spots.  Refuses
    to start when an upper bound on those row cells exceeds ``budget`` (pass
    ``budget=None`` to lift the guard; see ``count_report``).
    """
    return count_report(sizes, z, budget=budget).enumerated


def count_report(sizes: SizesLike, z: int, *, budget: int | None = DEFAULT_BUDGET) -> CountReport:
    """Run the enumeration oracle and compare it with the closed form.

    Unless ``budget`` is None, a fleet is refused with an
    ``EnumerationBudgetError`` before the search starts when it might walk
    more than ``budget`` row cells: the bound on its states (``_state_bound``)
    times the ``m`` spots of the row that each state stores as its key and
    walks for its runs of empty spots.  Nothing else bounds the search.  A
    cell costs up to about 0.4 µs on fleets of unit cars, whose rows break
    into many short runs, and far less on long runs (0.001 µs for two cars of
    size 2000), so the default budget of 4 * 10**6 admits runs of up to about
    1.5 s.  A budget that is not an ``int`` >= 1, or is a ``bool``, is
    refused with a ``ValueError``; so, whatever the budget, is a lot of more
    than ``sys.maxsize`` spots, which no row can index.
    """
    cars = as_car_sizes(sizes)
    _check_z(z)
    m = z - 1 + cars.total
    n = cars.n
    _check_lot(m, "enumerate")
    if budget is not None:
        _check_count(budget, "budget")
        states = _state_bound(cars.sizes)
        if states * m > budget:
            raise EnumerationBudgetError(m, n, m**n, budget, states)
    parked, scanned, _ = _search(cars.sizes, z, m)
    return CountReport.compare(parked, count_by_formula(cars, z), scanned)
