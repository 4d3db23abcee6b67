"""Counting routes: closed form vs enumeration oracle vs recurrence."""

import itertools
import re
import sys
from math import comb, factorial

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from parkseq import counting
from parkseq.core import is_parking_sequence
from parkseq.counting import (
    DEFAULT_BUDGET,
    CountReport,
    EnumerationBudgetError,
    count_by_enumeration,
    count_by_formula,
    count_no_trailer,
    count_report,
)
from parkseq.counting import _search, _state_bound
from parkseq.strehl import IndexSet, f_as_t_specialization, partitions_into_two, verify_recurrence

sizes_vectors = st.lists(st.integers(1, 3), max_size=4).map(tuple)


class TestFormula:
    def test_unit_sizes_z1_gives_classic_count(self):
        assert count_by_formula((1, 1, 1), 1) == 16  # (3+1)^(3-1)

    @pytest.mark.parametrize("z", [1, 2, 7])
    @pytest.mark.parametrize("y", [1, 3, 10])
    def test_single_car_counts_z(self, y, z):
        assert count_by_formula((y,), z) == z

    def test_worked_example_product(self):
        # 4 * 8 * 9, confirmed below against the full 8^3 enumeration
        assert count_by_formula((2, 2, 1), 4) == 288
        assert count_by_enumeration((2, 2, 1), 4) == 288

    @pytest.mark.parametrize("z", [1, 2, 3, 9])
    def test_no_cars_counts_one_not_z(self, z):
        assert count_by_formula((), z) == 1

    @given(st.lists(st.integers(1, 3), max_size=3).map(tuple), st.integers(1, 3), st.integers(1, 3), st.integers(1, 4))
    def test_last_size_never_enters(self, prefix, a, b, z):
        assert count_by_formula(prefix + (a,), z) == count_by_formula(prefix + (b,), z)

    def test_rejects_bad_z(self):
        with pytest.raises(ValueError):
            count_by_formula((1,), 0)


class TestNoTrailer:
    def test_unit_sizes_reproduce_classic_sequence(self):
        expected = [1, 1, 3, 16, 125, 1296]  # (n+1)^(n-1)
        for n, want in enumerate(expected):
            assert count_no_trailer((1,) * n) == want

    def test_single_car_is_one(self):
        assert count_no_trailer((5,)) == 1 == count_by_formula((5,), 1)

    def test_two_cars_match_enumeration(self):
        # 3-spot lot, 9 preference pairs, exactly 4 park
        assert count_no_trailer((2, 1)) == 4
        assert count_by_enumeration((2, 1), 1) == 4

    @given(sizes_vectors)
    def test_equals_formula_at_z1(self, sizes):
        assert count_no_trailer(sizes) == count_by_formula(sizes, 1)


class TestEnumeration:
    @pytest.mark.parametrize("z", [1, 2, 5])
    def test_empty_tuple_parks(self, z):
        assert count_by_enumeration((), z) == 1

    def test_unit_sizes_z1(self):
        assert count_by_enumeration((1, 1, 1), 1) == 16

    def test_scans_whole_preference_space(self):
        report = count_report((2, 1), 2)
        m = 2 - 1 + 3
        assert report.tuples_scanned == m**2
        assert report.match

    def test_budget_guard_reports_sizes(self):
        with pytest.raises(EnumerationBudgetError) as err:
            count_by_enumeration((2, 2, 1), 4, budget=63)
        assert err.value.m == 8
        assert err.value.n == 3
        assert err.value.total == 512
        assert err.value.states == 8
        assert err.value.budget == 63
        assert str(err.value) == (
            "enumerating 8^3 = 512 preference tuples needs up to 8 search states"
            " of 8 spots each (64 row cells), past the budget of 63"
        )

    def test_budget_error_formats_no_number_past_the_int_digit_limit(self, monkeypatch):
        monkeypatch.setattr(counting, "_search", _no_search)
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(4300)
        try:
            with pytest.raises(EnumerationBudgetError) as err:
                count_report((10**9,) * 500, 1)
            huge = EnumerationBudgetError(10**5000, 2, 10**10000, 7, 10**5000 - 1)
        finally:
            sys.set_int_max_str_digits(limit)
        m = 500 * 10**9
        assert (err.value.m, err.value.n, err.value.total) == (m, 500, m**500)
        assert str(err.value).startswith(
            f"enumerating {m}^500 = [5850 digits] preference tuples needs up to "
        )
        assert str(err.value).endswith(" row cells), past the budget of 4000000")
        assert str(huge) == (
            "enumerating [5001 digits]^2 = [10001 digits] preference tuples needs up to"
            " [5000 digits] search states of [5001 digits] spots each ([10000 digits] row cells),"
            " past the budget of 7"
        )

    def test_budget_none_lifts_guard(self):
        assert count_by_enumeration((2, 2, 1), 4, budget=None) == 288

    @pytest.mark.parametrize(
        "budget, message",
        [
            (True, "budget must be an integer, got True"),  # ran as a budget of 1
            (2.5, "budget must be an integer, got 2.5"),
            ("x", "budget must be an integer, got 'x'"),
            (0, "budget must be >= 1, got 0"),
            (-5, "budget must be >= 1, got -5"),
        ],
    )
    def test_a_budget_that_is_no_count_of_cells_is_refused(self, budget, message):
        """Refused before the search, as ``identity_sides`` refuses its budget."""
        for entry in (count_report, count_by_enumeration):
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                entry((2, 2, 1), 4, budget=budget)

    def test_long_fleet_is_refused_by_the_budget(self):
        with pytest.raises(EnumerationBudgetError) as err:
            count_report((1,) * 1200, 1)
        assert (err.value.m, err.value.n, err.value.total) == (1200, 1200, 1200**1200)
        assert str(err.value) == (
            "enumerating 1200^1200 = [3696 digits] preference tuples needs up to [362 digits]"
            " search states of 1200 spots each ([365 digits] row cells), past the budget of 4000000"
        )

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.integers(1, 3), max_size=4).map(tuple), st.integers(1, 4))
    def test_search_matches_literal_odometer(self, sizes, z):
        """The prefix-sharing search against one simulation per tuple."""
        m = z - 1 + sum(sizes)
        parked = sum(
            is_parking_sequence(sizes, z, prefs)
            for prefs in itertools.product(range(1, m + 1), repeat=len(sizes))
        )
        report = count_report(sizes, z, budget=None)
        assert report.enumerated == parked
        assert report.tuples_scanned == m ** len(sizes)

    @settings(max_examples=80, deadline=None)
    @given(st.lists(st.integers(1, 6), max_size=3).map(tuple), st.integers(1, 8))
    @example((3, 1, 2), 1)  # the last car meets runs shorter than its block
    @example((1, 4, 2), 2)  # a run ending at spot m, after a one-spot run
    @example((2, 6, 1), 8)  # the first run starts at z and must hold a block of 6
    def test_run_walk_matches_literal_odometer(self, sizes, z):
        """Larger cars and longer trailers than the odometer test above, so
        the row breaks into runs shorter than, equal to and longer than the
        block, on either side of a trailer of up to 7 spots."""
        m = z - 1 + sum(sizes)
        assert m ** len(sizes) <= 20_000
        parked = sum(
            is_parking_sequence(sizes, z, prefs)
            for prefs in itertools.product(range(1, m + 1), repeat=len(sizes))
        )
        report = count_report(sizes, z, budget=None)
        assert report.enumerated == parked
        assert report.tuples_scanned == m ** len(sizes)

    @pytest.mark.parametrize("budget", [None, DEFAULT_BUDGET])
    def test_a_lot_too_long_to_index_is_refused(self, monkeypatch, budget):
        monkeypatch.setattr(counting, "_search", _no_search)
        m = 10**20 + 1
        assert m > sys.maxsize
        with pytest.raises(ValueError) as err:
            count_report((1, 1), 10**20, budget=budget)
        assert str(err.value) == (
            f"a lot of {m} spots is too long to enumerate (a row holds at most {sys.maxsize} spots)"
        )

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.integers(1, 3), max_size=3).map(tuple), st.integers(1, 3))
    def test_oracle_agrees_with_formula(self, sizes, z):
        assert count_by_enumeration(sizes, z) == count_by_formula(sizes, z)

    @pytest.mark.parametrize("prefix,z", [((), 2), ((2,), 1), ((1, 3), 4)])
    def test_last_size_does_not_change_the_count(self, prefix, z):
        counts = {count_by_enumeration(prefix + (y,), z) for y in (1, 2, 3)}
        assert len(counts) == 1


def _no_search(*args):
    raise AssertionError("the search started")


class TestSearchStates:
    """The search keeps one answer per (car, occupancy row), and the budget
    guard bounds those states before the search starts."""

    @settings(max_examples=12, deadline=None)
    @given(
        st.lists(st.integers(1, 3), min_size=5, max_size=9)
        .map(tuple)
        .filter(lambda sizes: _state_bound(sizes) <= 10_000),  # each search about 0.1 s
        st.integers(1, 3),
    )
    def test_matches_formula_past_the_odometer(self, sizes, z):
        m = z - 1 + sum(sizes)
        report = count_report(sizes, z, budget=None)
        assert report.enumerated == count_by_formula(sizes, z)
        assert report.match
        assert report.tuples_scanned == m ** len(sizes)
        assert _search(sizes, z, m)[2] <= _state_bound(sizes)

    def test_states_never_exceed_the_bound(self):
        # every fleet of up to five cars; six would cost seconds, and longer
        # fleets are sampled above
        for n in range(6):
            for sizes in itertools.product((1, 2, 3), repeat=n):
                states = _search(sizes, 1, sum(sizes))[2]
                bound = _state_bound(sizes)
                assert states <= bound, sizes
                if len(set(sizes)) == 1:
                    assert states == bound, sizes  # exact for equal sizes

    def test_mixed_fleet_breaks_the_gap_count_alone(self):
        """Counting only the gaps around k blocks, sum of C(L - Y_k + k, k),
        assumes the blocks come in one order; mixed sizes reach more rows."""
        sizes = (3, 2, 1, 3, 3, 3)
        free = sum(sizes)
        gaps_only = sum(comb(free - sum(sizes[:k]) + k, k) for k in range(len(sizes)))
        assert gaps_only == 566
        assert _search(sizes, 1, free)[2] == 2625
        assert _state_bound(sizes) == 4441

    def test_over_budget_fleet_is_refused_before_the_search(self, monkeypatch):
        monkeypatch.setattr(counting, "_search", _no_search)
        with pytest.raises(EnumerationBudgetError) as err:
            count_report((1, 2, 3) * 4, 3)
        assert (err.value.m, err.value.n, err.value.total) == (26, 12, 26**12)
        assert err.value.states == 6_198_983
        assert err.value.budget == DEFAULT_BUDGET

    def test_large_cars_are_refused_without_their_full_binomial(self, monkeypatch):
        # C(2 * 10**6, 10**6) alone takes tens of seconds; the block count is smaller
        monkeypatch.setattr(counting, "_search", _no_search)
        with pytest.raises(EnumerationBudgetError) as err:
            count_report((10**6, 10**6), 1)
        assert err.value.states == 1 + (10**6 + 1)

    @pytest.mark.parametrize("size", [10**4, 50_000])
    def test_long_rows_are_charged_for_their_spots(self, monkeypatch, size):
        """Two big cars reach only size + 2 states, but each one stores and
        walks a row of m = 2 * size spots; the search would not finish."""
        monkeypatch.setattr(counting, "_search", _no_search)
        with pytest.raises(EnumerationBudgetError) as err:
            count_report((size, size), 1)
        assert err.value.states == size + 2
        assert err.value.states * err.value.m > DEFAULT_BUDGET

    def test_row_count_tightens_the_bound_at_the_default_budget(self, monkeypatch):
        """Mixed fleets have many block orders M_k; capping them by the C(L, Y_k)
        rows admits this fleet, which the block count alone would refuse."""
        sizes = (1, 1, 1, 1, 2, 3, 3, 2, 3)
        m = sum(sizes)
        blocks_only = 0
        for k in range(len(sizes)):
            orders = factorial(k)
            for y in set(sizes[:k]):
                orders //= factorial(sizes[:k].count(y))
            blocks_only += orders * comb(m - sum(sizes[:k]) + k, k)
        assert _state_bound(sizes) * m == 795_056 <= DEFAULT_BUDGET < blocks_only * m

        class Started(Exception):
            pass

        def started(*args):
            raise Started

        monkeypatch.setattr(counting, "_search", started)
        with pytest.raises(Started):
            count_report(sizes, 1)

    def test_ten_unit_cars_run_at_the_default_budget(self):
        report = count_report((1,) * 10, 1)
        assert report.enumerated == count_by_formula((1,) * 10, 1) == 11**9
        assert report.tuples_scanned == 10**10
        assert _search((1,) * 10, 1, 10)[2] == _state_bound((1,) * 10) == 2**10 - 1

    @pytest.mark.parametrize(
        "sizes, z, states",
        [((100000,), 1, 1), ((2000, 2000), 1, 2002), ((2000, 2000), 3, 2002), ((5, 1, 5), 40, 44)],
    )
    def test_long_rows(self, sizes, z, states):
        """Rows of up to 100,000 spots, walked one run at a time, in milliseconds."""
        m = z - 1 + sum(sizes)
        assert _search(sizes, z, m) == (
            count_by_formula(sizes, z),
            m ** len(sizes),
            states,
        )

    @given(st.lists(st.integers(1, 40), max_size=8))
    @example([1, 2, 3, 4, 5, 6, 7, 8])  # at the last car the row count is the smaller
    def test_state_bound_is_the_smaller_count_at_each_car(self, sizes):
        """Each car adds min(M_k * C(L - Y_k + k, k), C(L, Y_k)), written out with
        ``math.comb`` whichever of the two is smaller."""
        free = sum(sizes)
        expected = 0
        for k in range(len(sizes)):
            before = sizes[:k]
            orders = factorial(k)
            for y in set(before):
                orders //= factorial(before.count(y))
            placed = sum(before)
            expected += min(orders * comb(free - placed + k, k), comb(free, placed))
        assert _state_bound(tuple(sizes)) == expected

    @pytest.mark.parametrize(
        "sizes, states",
        [((10**6, 10**6), 1 + (10**6 + 1)), ((50_000, 50_000), 50_002), ((1,) * 1200, 2**1200 - 1)],
        ids=["two-cars-of-a-million", "two-cars-of-50000", "1200-unit-cars"],
    )
    def test_a_refusal_computes_no_binomial_of_a_huge_row(self, monkeypatch, sizes, states):
        """C(L, Y_k) is at least 2^min(Y_k, L - Y_k); once that passes the block
        count the binomial is left uncomputed, so no refusal waits for it."""
        def small_comb(n, k):
            if min(k, n - k) > 5000:
                raise AssertionError(f"C({n}, {k}) was computed")
            return comb(n, k)

        monkeypatch.setattr(counting, "comb", small_comb)
        monkeypatch.setattr(counting, "_search", _no_search)
        with pytest.raises(EnumerationBudgetError) as err:
            count_report(sizes, 1)
        assert err.value.states == states


class TestIndexSet:
    def test_validates_order_and_positivity(self):
        assert IndexSet((1, 4, 9)) == (1, 4, 9)
        with pytest.raises(ValueError):
            IndexSet((2, 1))
        with pytest.raises(ValueError):
            IndexSet((1, 1))
        with pytest.raises(ValueError):
            IndexSet((0, 1))

    def test_first(self):
        assert IndexSet.first(0) == ()
        assert IndexSet.first(3) == (1, 2, 3)


class TestPartitions:
    def test_singleton_order(self):
        assert list(partitions_into_two(IndexSet((1,)))) == [((), (1,)), ((1,), ())]

    def test_pair_count_and_membership(self):
        pairs = list(partitions_into_two(IndexSet((1, 2))))
        assert len(pairs) == 4
        assert (IndexSet((2,)), IndexSet((1,))) in pairs

    def test_three_elements_give_eight_pairs(self):
        assert len(list(partitions_into_two(IndexSet((1, 2, 3))))) == 8

    @given(st.sets(st.integers(1, 12), max_size=6))
    def test_pairs_are_disjoint_and_cover(self, elems):
        ground = IndexSet(sorted(elems))
        pairs = list(partitions_into_two(ground))
        assert len(pairs) == 2 ** len(ground)
        assert len(set(pairs)) == len(pairs)
        for left, right in pairs:
            assert set(left) & set(right) == set()
            assert set(left) | set(right) == set(ground)

    @given(st.sets(st.integers(1, 40), max_size=7))
    def test_pairs_match_a_validated_literal_construction(self, elems):
        """Same IndexSet pairs, in the same order, as building each side
        through the validating constructor, bit b of the mask putting the
        b-th smallest member on the left."""
        ground = IndexSet(sorted(elems))
        expected = [
            (
                IndexSet([e for b, e in enumerate(ground) if mask >> b & 1]),
                IndexSet([e for b, e in enumerate(ground) if not mask >> b & 1]),
            )
            for mask in range(1 << len(ground))
        ]
        pairs = list(partitions_into_two(ground))
        assert pairs == expected
        assert all(type(side) is IndexSet for pair in pairs for side in pair)

    def test_size_guard_raises_eagerly(self):
        with pytest.raises(ValueError):
            partitions_into_two(IndexSet(range(1, 40)))


class TestRecurrence:
    @pytest.mark.parametrize("z", [1, 2, 5])
    @pytest.mark.parametrize("next_size", [1, 3])
    def test_base_case_single_term(self, next_size, z):
        report = verify_recurrence((), next_size, z)
        assert report.formula == z
        assert report.enumerated == z
        assert report.tuples_scanned == 1
        assert report.match

    def test_three_unit_cars(self):
        report = verify_recurrence((1, 1), 1, 1)
        assert report.formula == 16
        assert report.enumerated == 16
        assert report.tuples_scanned == 4

    def test_worked_example_sizes(self):
        report = verify_recurrence((2, 2), 1, 4)
        assert report.formula == 288
        assert report.enumerated == 288

    def test_sweep_small(self):
        for n in range(3):
            for sizes in itertools.product((1, 2, 3), repeat=n):
                for nxt in (1, 2, 3):
                    for z in (1, 2, 3, 4):
                        assert verify_recurrence(sizes, nxt, z).match, (sizes, nxt, z)

    def test_rejects_bad_next_size(self):
        with pytest.raises(ValueError):
            verify_recurrence((1,), 0, 1)

    def test_more_cars_than_the_partition_limit_are_refused(self):
        message = "refusing to stream 2^31 decompositions (limit 2^30)"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            verify_recurrence((1,) * 31, 1, 1)

    @settings(max_examples=150, deadline=None)
    @given(
        st.lists(st.integers(1, 3), max_size=6).map(tuple),
        st.integers(1, 3),
        st.integers(1, 4),
    )
    def test_matches_a_literal_sum_over_splits(self, sizes, next_size, z):
        """The right side written out: (z + sum of L's sizes) * F(L, z) * F(R, 1)
        over every split, each block's sizes picked by index in original order."""
        rhs = 0
        for left, right in partitions_into_two(range(1, len(sizes) + 1)):
            left_sizes = tuple(sizes[i - 1] for i in left)
            right_sizes = tuple(sizes[i - 1] for i in right)
            rhs += (
                (z + sum(left_sizes))
                * count_by_formula(left_sizes, z)
                * count_by_formula(right_sizes, 1)
            )
        report = verify_recurrence(sizes, next_size, z)
        assert report.enumerated == rhs
        assert report.formula == count_by_formula(sizes + (next_size,), z)
        assert report.match
        assert report.tuples_scanned == 2 ** len(sizes)


def test_count_report_flag_must_be_consistent():
    CountReport(3, 3, True, 9)
    with pytest.raises(ValueError):
        CountReport(3, 4, True, 9)
    assert not CountReport.compare(3, 4, 9).match


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(1, 3), max_size=4).map(tuple), st.integers(1, 4))
def test_every_count_route_agrees(sizes, z):
    """Closed form, trailer-free product, brute force, recurrence and the
    specialization of t, all on the same instance."""
    formula = count_by_formula(sizes, z)
    if z == 1:
        assert count_no_trailer(sizes) == formula
    assert count_by_enumeration(sizes, z) == formula
    if sizes:
        report = verify_recurrence(sizes[:-1], sizes[-1], z)
        assert report.enumerated == report.formula == formula
    assert f_as_t_specialization(sizes, z) == formula
