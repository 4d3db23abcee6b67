"""End-to-end acceptance gate.

One test per exit criterion, each printing a PASS/FAIL line (run with ``-s``
or read the captured output).  Every comparison is exact integer or exact
canonical-polynomial equality; there are no tolerances to tune.
"""

from itertools import combinations, product

from parkseq.core import TRAILER, Parked, is_parking_sequence, simulate_parking
from parkseq.counting import count_by_enumeration, count_by_formula
from parkseq.strehl import (
    IndexSet,
    f_as_t_specialization,
    identity_sides,
    partitions_into_two,
    random_identity_check,
    verify_recurrence,
)


def _report(num: int, description: str, ok: bool, detail: str = "") -> None:
    print(f"{'PASS' if ok else 'FAIL'} criterion {num:2d}: {description}")
    assert ok, f"criterion {num} ({description}) failed {detail}"


def _holds(identity: str, A: IndexSet) -> bool:
    lhs, rhs = identity_sides(identity, A)
    return lhs == rhs


def _subsets(n: int, include_empty: bool = True):
    for k in range(0 if include_empty else 1, n + 1):
        yield from (IndexSet(c) for c in combinations(range(1, n + 1), k))


def test_criterion_1_worked_example_layout():
    outcome = simulate_parking((2, 2, 1), 4, (5, 6, 2))
    ok = (
        isinstance(outcome, Parked)
        and outcome.layout.cells == (TRAILER, TRAILER, TRAILER, 3, 1, 1, 2, 2)
    )
    _report(1, "worked example reproduces the exact layout", ok, f"got {outcome!r}")


def test_criterion_2_enumeration_matches_formula():
    bad = []
    for n in range(5):
        for sizes in product((1, 2, 3), repeat=n):
            for z in range(1, 5):
                if count_by_enumeration(sizes, z) != count_by_formula(sizes, z):
                    bad.append((sizes, z))
    _report(
        2,
        "oracle sweep n<=4, sizes in {1,2,3}, z<=4: enumeration == formula",
        not bad,
        f"mismatches: {bad[:5]}",
    )


def test_criterion_3_unit_sizes_reduce_to_classic_count():
    expected = [1, 1, 3, 16, 125, 1296, 16807, 262144]
    formula_ok = [count_by_formula((1,) * n, 1) for n in range(8)] == expected
    enum_ok = all(count_by_enumeration((1,) * n, 1) == expected[n] for n in range(6))
    _report(
        3,
        "all-1 sizes, z=1 give (n+1)^(n-1) for n<=7, enumeration confirms n<=5",
        formula_ok and enum_ok,
    )


def test_criterion_4_recurrence_sweep():
    bad = []
    for n in range(4):
        for sizes in product((1, 2, 3), repeat=n):
            for nxt in (1, 2, 3):
                for z in range(1, 5):
                    if not verify_recurrence(sizes, nxt, z).match:
                        bad.append((sizes, nxt, z))
    _report(
        4,
        "decomposition recurrence holds for n<=3, sizes<=3, next<=3, z<=4",
        not bad,
        f"mismatches: {bad[:5]}",
    )


def test_criterion_5_easy_identity_all_subsets_of_five():
    bad = [A for A in _subsets(5, include_empty=False) if not _holds("easy", A)]
    _report(5, "head-factor identity symbolic on every nonempty A in {1..5}", not bad, f"{bad}")


def test_criterion_6_sheffer_convolution():
    symbolic_bad = [A for A in _subsets(4) if not _holds("sheffer", A)]
    big = IndexSet.first(8)
    randomized_ok = random_identity_check("sheffer", big, trials=20, seed=42)
    surviving_mutants = [
        (left, right)
        for left, right in partitions_into_two(big)
        if random_identity_check("sheffer", big, trials=20, seed=42, omit=(left, right))
    ]
    _report(
        6,
        "sheffer convolution: symbolic on subsets of {1..4}, randomized on {1..8},"
        " and every dropped term is detected",
        not symbolic_bad and randomized_ok and not surviving_mutants,
        f"symbolic={symbolic_bad[:3]} randomized={randomized_ok}"
        f" mutants={surviving_mutants[:3]}",
    )


def test_criterion_7_binomial_convolution():
    bad = [A for A in _subsets(4) if not _holds("binomial", A)]
    _report(7, "binomial-type convolution symbolic on every A in {1..4}", not bad, f"{bad}")


def test_criterion_8_specialization_matches_formula():
    bad = []
    for n in range(6):
        for sizes in product((1, 2, 3), repeat=n):
            for z in range(1, 5):
                if f_as_t_specialization(sizes, z) != count_by_formula(sizes, z):
                    bad.append((sizes, z))
    _report(
        8,
        "polynomial specialization equals the closed form for n<=5, sizes<=3, z<=4",
        not bad,
        f"mismatches: {bad[:5]}",
    )


def test_criterion_9_permutation_sensitivity_witness():
    sizes, z = (2, 1), 1
    good, permuted = (1, 3), (3, 1)
    ok = (
        sorted(good) == sorted(permuted)
        and is_parking_sequence(sizes, z, good)
        and not is_parking_sequence(sizes, z, permuted)
    )
    _report(9, "a parking sequence exists whose permutation is not one", ok)


def test_criterion_10_last_size_does_not_change_the_count():
    bad = []
    for n in range(1, 4):
        for prefix in product((1, 2, 3), repeat=n - 1):
            for z in range(1, 5):
                counts = {count_by_enumeration(prefix + (y,), z) for y in (1, 2, 3)}
                if len(counts) != 1:
                    bad.append((prefix, z, counts))
    _report(
        10,
        "enumerated count is constant in the last car's size (n<=3)",
        not bad,
        f"mismatches: {bad[:5]}",
    )
