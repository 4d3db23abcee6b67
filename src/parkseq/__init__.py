"""Exact tools for parking sequences of variable-size cars behind a trailer.

Simulate the greedy parking rule, count the sequences by closed form and by
brute force, check the decomposition recurrence, and verify the convolution
identities behind the counting formula with an exact sparse polynomial
engine.
"""

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
from .poly import (
    ParameterAssignment,
    SparsePolynomial,
    Variable,
    W,
    Z,
    monomial,
    poly,
    x_var,
    y_var,
)
from .strehl import (
    SYMBOLIC_BUDGET,
    IndexSet,
    abel_rothe_specialize,
    f_as_t_specialization,
    identity_sides,
    identity_value_sides,
    partitions_into_two,
    random_identity_check,
    s_poly,
    s_value,
    t_poly,
    t_value,
    verify_recurrence,
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
