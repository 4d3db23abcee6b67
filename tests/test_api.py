"""The public names of the package, pinned so any change shows in a diff."""

import parkseq

PUBLIC_NAMES = [
    "CarSizeVector",
    "Collision",
    "CountReport",
    "DEFAULT_BUDGET",
    "EnumerationBudgetError",
    "IndexSet",
    "LotLayout",
    "Overflow",
    "ParameterAssignment",
    "Parked",
    "ParkingOutcome",
    "SYMBOLIC_BUDGET",
    "SparsePolynomial",
    "TRAILER",
    "Variable",
    "W",
    "Z",
    "abel_rothe_specialize",
    "count_by_enumeration",
    "count_by_formula",
    "count_no_trailer",
    "count_report",
    "f_as_t_specialization",
    "identity_sides",
    "identity_value_sides",
    "is_parking_sequence",
    "monomial",
    "partitions_into_two",
    "poly",
    "random_identity_check",
    "s_poly",
    "s_value",
    "simulate_parking",
    "t_poly",
    "t_value",
    "verify_recurrence",
    "x_var",
    "y_var",
]


def test_public_names_are_pinned():
    assert sorted(parkseq.__all__) == PUBLIC_NAMES

