"""Exact tools for parking sequences of variable-size cars behind a trailer.

Simulate the greedy parking rule, count the sequences by closed form and by
brute force, check the decomposition recurrence, and verify the convolution
identities behind the counting formula with an exact sparse polynomial
engine.

Simulating and counting need only ``core`` and ``counting``, which load with
the package.  The polynomial engine (``poly`` and ``strehl``) loads on the
first use of any of its names, and binds them all; ``parkseq.poly`` is
always the function ``poly``, never the submodule of that name.
"""

import sys as _sys
from types import ModuleType as _ModuleType

from .core import (
    TRAILER,
    CarSizeVector,
    Collision,
    LotLayout,
    Overflow,
    Parked,
    ParkingOutcome,
    is_parking_sequence,
    simulate_parking,
)
from .counting import (
    DEFAULT_BUDGET,
    CountReport,
    EnumerationBudgetError,
    count_by_enumeration,
    count_by_formula,
    count_no_trailer,
    count_report,
)
__version__ = "0.1.0"

__all__ = [
    "TRAILER",
    "CarSizeVector",
    "Collision",
    "LotLayout",
    "Overflow",
    "Parked",
    "ParkingOutcome",
    "is_parking_sequence",
    "simulate_parking",
    "DEFAULT_BUDGET",
    "CountReport",
    "EnumerationBudgetError",
    "IndexSet",
    "count_by_enumeration",
    "count_by_formula",
    "count_no_trailer",
    "count_report",
    "partitions_into_two",
    "ParameterAssignment",
    "SparsePolynomial",
    "Variable",
    "W",
    "Z",
    "monomial",
    "poly",
    "x_var",
    "y_var",
    "SYMBOLIC_BUDGET",
    "abel_rothe_specialize",
    "f_as_t_specialization",
    "identity_sides",
    "identity_value_sides",
    "random_identity_check",
    "s_poly",
    "s_value",
    "t_poly",
    "t_value",
    "verify_recurrence",
]

# the names that load with the polynomial engine, on first use
_ENGINE = frozenset(__all__) - set(globals())


def __getattr__(name: str) -> object:
    if name not in _ENGINE and name != "strehl":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    __import__(f"{__name__}.strehl")  # ``from . import strehl`` would ask this hook again
    for module in ("poly", "strehl"):
        engine = vars(_sys.modules[f"{__name__}.{module}"])
        globals().update((key, engine[key]) for key in _ENGINE if key in engine)
    return globals()[name]


def __dir__() -> list[str]:
    return sorted({*globals(), *_ENGINE, "strehl"})


class _Package(_ModuleType):
    """The package module: loading the submodule ``poly``, which the import
    system binds on its parent, leaves the function ``poly`` in place."""

    def __setattr__(self, name: str, value: object) -> None:
        if name != "poly" or not isinstance(value, _ModuleType):
            super().__setattr__(name, value)


_sys.modules[__name__].__class__ = _Package
