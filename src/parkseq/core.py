"""Domain types and the deterministic parking simulator.

The lot is a row of ``z - 1 + sum(sizes)`` numbered spots (spot numbers are
1-based).  Spots ``1 .. z-1`` hold an immovable trailer; ``z = 1`` means no
trailer.  Cars arrive one at a time in index order; car ``i`` drives to its
preferred spot ``c_i``, rolls forward to the first empty spot ``j >= c_i``,
and parks there iff the whole block ``j .. j + y_i - 1`` exists and is empty.
A preference tuple under which every car parks is a parking sequence.

The brute-force oracle in `counting` applies the same rule on a bare
occupancy row; tests hold it to `simulate_parking`.
"""

from __future__ import annotations

import sys
from collections import namedtuple
from collections.abc import Sequence
from math import log10

TRAILER = 0
Cell = int | None  # None = empty, TRAILER = trailer block, i >= 1 = car i


def _is_int(value: object) -> bool:
    """The package's one integer rule: an ``int`` that is not a ``bool``."""
    return isinstance(value, int) and not isinstance(value, bool)


def _check_integer(value: object, name: object, key: object = None) -> None:
    """Refuse a value that is not an ``int``, or is a ``bool``, naming where it sat."""
    if not _is_int(value):
        where = name if key is None else f"{name}[{key!r}]"
        raise ValueError(f"{where} must be an integer, got {value!r}")


def _check_count(value: object, name: str) -> None:
    """The one check of a count (a budget, a trial count, a table bound): an ``int`` >= 1."""
    _check_integer(value, name)
    if value < 1:
        raise ValueError(f"{name} must be >= 1, got {value!r}")


class CarSizeVector(tuple):
    """Ordered car lengths, one positive integer per arriving car, as a tuple."""

    __slots__ = ()

    def __new__(cls, sizes: Sequence[int] = ()) -> "CarSizeVector":
        t = tuple(sizes)
        for y in t:
            if not _is_int(y) or y < 1:
                raise ValueError(f"car sizes must be integers >= 1, got {y!r}")
        return super().__new__(cls, t)

    def __repr__(self) -> str:
        return f"CarSizeVector(sizes={self.sizes!r})"

    @property
    def sizes(self) -> tuple[int, ...]:
        return tuple(self)

    @property
    def n(self) -> int:
        return len(self)

    @property
    def total(self) -> int:
        return sum(self)


SizesLike = CarSizeVector | Sequence[int]


class LotLayout(namedtuple("_LotLayout", "cells")):
    """Cell contents of the lot, one entry per spot (spot k is ``cells[k-1]``)."""

    __slots__ = ()

    def spot(self, k: int) -> Cell:
        """Content of 1-based spot ``k``; a ``bool`` or any other non-int is refused."""
        if not _is_int(k):
            raise TypeError(f"spot number must be an integer, got {k!r}")
        if not 1 <= k <= len(self.cells):
            raise IndexError(f"spot {k} outside lot 1..{len(self.cells)}")
        return self.cells[k - 1]

    def render(self) -> str:
        return " ".join(_cell_token(c) for c in self.cells)


def _cell_token(cell: Cell) -> str:
    if cell == TRAILER:
        return "T"
    if cell is None:
        return "."
    return f"C{cell}"


class Parked(namedtuple("_Parked", "layout")):
    """Every car parked; carries the final layout."""

    __slots__ = ()


class Collision(namedtuple("_Collision", "car first_empty blocked_at")):
    """The first empty spot was free but the car's block ran into an occupied spot."""

    __slots__ = ()


class Overflow(namedtuple("_Overflow", "car first_empty")):
    """The car's block would leave the lot, or no empty spot remains at or
    after its preference (``first_empty`` is None in that case)."""

    __slots__ = ()


ParkingOutcome = Parked | Collision | Overflow


def as_car_sizes(value: SizesLike) -> CarSizeVector:
    return value if isinstance(value, CarSizeVector) else CarSizeVector(value)


def _check_z(z: int) -> None:
    """The one check of the trailer parameter, shared by every entry point."""
    if not _is_int(z) or z < 1:
        raise ValueError(f"trailer parameter z must be an integer >= 1, got {z!r}")


def _decimal(v: int) -> str:
    """``v`` in decimal, or ``[d digits]`` when it has more than 40."""
    if v < 10**40:
        return str(v)
    d = int((v.bit_length() - 1) * log10(2)) + 1  # v has d or d + 1 digits
    return f"[{d + (v >= 10**d)} digits]"


def _check_lot(m: int, verb: str) -> None:
    """Refuse to ``verb`` a lot of more than ``sys.maxsize`` spots, which no row can index."""
    if m > sys.maxsize:
        raise ValueError(
            f"a lot of {_decimal(m)} spots is too long to {verb}"
            f" (a row holds at most {sys.maxsize} spots)"
        )


def simulate_parking(sizes: SizesLike, z: int, prefs: Sequence[int]) -> ParkingOutcome:
    """Park every car by the greedy rule and report how the attempt ended.

    Cars are processed in order 1..n.  Car ``i`` takes the minimal empty spot
    ``j >= c_i`` and parks in ``j .. j + y_i - 1`` iff all those spots exist
    and are empty.  The first failure is returned as ``Collision`` or
    ``Overflow``; malformed input raises ``ValueError`` instead.  A wrong
    number of preferences or a preference past the last spot is malformed
    input, not a failed parking attempt; so is a lot of more than
    ``sys.maxsize`` spots, which no row can index.
    """
    cars = as_car_sizes(sizes)
    _check_z(z)
    prefs = tuple(prefs)
    for c in prefs:
        if not _is_int(c) or c < 1:
            raise ValueError(f"preferred spots must be integers >= 1, got {c!r}")
    if len(prefs) != cars.n:
        raise ValueError(f"{len(prefs)} preferences given for {cars.n} cars")
    m = z - 1 + cars.total
    for i, c in enumerate(prefs, start=1):
        if c > m:
            raise ValueError(f"car {i} prefers spot {c} but the lot ends at spot {m}")
    _check_lot(m, "simulate")

    cells: list[Cell] = [None] * (m + 1)  # 1-based; cells[0] unused
    for k in range(1, z):
        cells[k] = TRAILER
    for i, (y, c) in enumerate(zip(cars, prefs), start=1):
        j = c
        while j <= m and cells[j] is not None:
            j += 1
        if j > m:
            return Overflow(car=i, first_empty=None)
        if j + y - 1 > m:
            return Overflow(car=i, first_empty=j)
        for k in range(j + 1, j + y):
            if cells[k] is not None:
                return Collision(car=i, first_empty=j, blocked_at=k)
        for k in range(j, j + y):
            cells[k] = i
    return Parked(LotLayout(tuple(cells[1:])))


def is_parking_sequence(sizes: SizesLike, z: int, prefs: Sequence[int]) -> bool:
    """True iff the attempt returns ``Parked``."""
    return isinstance(simulate_parking(sizes, z, prefs), Parked)
