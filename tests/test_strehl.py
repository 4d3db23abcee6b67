"""The two polynomial families, their identities, and the counting specializations."""

import hashlib
import importlib
import math
import random
import re
import tracemalloc
from collections import Counter
from itertools import combinations, product

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from parkseq.counting import count_by_formula
from parkseq import strehl
from parkseq.poly import (
    ParameterAssignment,
    SparsePolynomial,
    W,
    Z,
    _sum_of_products,
    poly,
    x_var,
    y_var,
)
from parkseq.strehl import (
    PARTITION_LIMIT,
    IndexSet,
    _forms,
    _product,
    _symbols,
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
)


def holds(identity, A, **kwargs):
    """Whether the two symbolic sides of ``identity`` over A are equal."""
    lhs, rhs = identity_sides(identity, A, **kwargs)
    return lhs == rhs


def subsets(n, include_empty=True):
    for k in range(0 if include_empty else 1, n + 1):
        yield from (IndexSet(c) for c in combinations(range(1, n + 1), k))


class TestFamilies:
    def test_empty_set_gives_one(self):
        assert t_poly(()) == 1
        assert s_poly(()) == 1

    def test_singleton(self):
        assert t_poly((1,)) == poly(Z)
        assert s_poly((1,)) == poly(Z) + poly(y_var(1))
        assert t_poly((7,)) == poly(Z)

    def test_pair_expansions(self):
        assert t_poly((1, 2)) == poly(Z) * (poly(Z) + y_var(1) + x_var(1, 2))
        expected_t = SparsePolynomial.from_terms(
            [({Z: 2}, 1), ({Z: 1, y_var(1): 1}, 1), ({Z: 1, x_var(1, 2): 1}, 1)]
        )
        assert t_poly((1, 2)) == expected_t
        assert s_poly((1, 2)) == (poly(Z) + y_var(1) + x_var(1, 2)) * (
            poly(Z) + y_var(1) + y_var(2)
        )

    def test_alternate_main_variable(self):
        assert t_poly((1,), zvar=W) == poly(W)
        assert s_poly((1, 2), zvar=W) == s_poly((1, 2)).substitute({Z: W})

    def test_pair_with_unit_x_parameter(self):
        specialized = t_poly((1, 2)).substitute({x_var(1, 2): poly(1)})
        assert specialized == poly(Z) * poly(Z) + poly(y_var(1)) * poly(Z) + poly(Z)

    def test_degree_in_main_variable_is_set_size(self):
        for A in subsets(4):
            if A:
                assert max(dict(mono).get(Z, 0) for mono in t_poly(A).terms) == len(A)
                assert max(dict(mono).get(Z, 0) for mono in s_poly(A).terms) == len(A)

    def test_label_shift_covariance(self):
        """The families only see relative order: renaming indices downward
        onto {1..k} maps one family member to the other exactly."""
        for A in (IndexSet((2, 5)), IndexSet((3, 4, 7)), IndexSet((2, 5, 9, 11))):
            pos = {a: k for k, a in enumerate(A, start=1)}
            rules = {y_var(a): poly(y_var(pos[a])) for a in A}
            for i in A:
                for j in A:
                    if i < j:
                        rules[x_var(i, j)] = poly(x_var(pos[i], pos[j]))
            target = IndexSet.first(len(A))
            assert t_poly(A).substitute(rules) == t_poly(target)
            assert s_poly(A).substitute(rules) == s_poly(target)


labels = st.one_of(st.integers(1, 12), st.integers(1, 10**6))


@st.composite
def relabel_cases(draw):
    """An increasing set of up to 4 labels with gaps, and a main variable, z or w."""
    return IndexSet(sorted(draw(st.sets(labels, max_size=4)))), draw(st.sampled_from((Z, W)))


class TestRelabelledExpansion:
    """Members are expanded once per size and relabelled onto the ground set."""

    @settings(max_examples=80, deadline=None)
    @given(relabel_cases())
    def test_matches_direct_expansion_on_the_set(self, case):
        A, zvar = case
        for family, member in (("t", t_poly), ("s", s_poly)):
            direct = poly(_product(A, family, poly(zvar), *_symbols(A)))
            assert member(A, zvar) == direct
            assert str(member(A, zvar)) == str(direct)

    @pytest.mark.parametrize("member", [t_poly, s_poly])
    @pytest.mark.parametrize(
        "zvar", [y_var(1), x_var(1, 2), True, (0, 0, 0)], ids=["y1", "x1_2", "True", "tuple"]
    )
    def test_a_main_variable_other_than_z_or_w_is_refused(self, member, zvar):
        """Only the Variables z and w keep the relabelled ring in order; the
        plain tuple (0, 0, 0) equals Z but is no Variable."""
        with pytest.raises(ValueError, match="zvar"):
            member((1, 2), zvar)

    def test_a_set_of_one_size_is_multiplied_out_once(self, monkeypatch):
        """A sheffer check on a 6-set multiplies out each size once per
        (family, main variable), and a second 6-set multiplies out nothing."""
        made = Counter()

        def counted(A, family, at, y, x):
            made[family, at] += 1
            return _product(A, family, at, y, x)

        strehl._expand.cache_clear()
        strehl._sides.cache_clear()
        monkeypatch.setattr(strehl, "_product", counted)
        assert holds("sheffer", (2, 3, 5, 8, 13, 21), budget=6)
        assert made[("s", poly(Z))] == made[("t", poly(Z))] == 7
        assert made[("s", poly(Z) + poly(W))] == 1 and len(made) == 3
        made.clear()
        assert holds("sheffer", (1, 4, 6, 7, 9, 30), budget=6)
        assert not made


IDENTITIES = ("easy", "sheffer", "binomial")


@st.composite
def shifted_sets(draw):
    """An increasing set of up to 4 labels in 2..40, so none starts at 1."""
    return IndexSet(sorted(draw(st.sets(st.integers(2, 40), max_size=4))))


def sides_over(identity, A):
    """Both sides of ``identity`` summed over A itself, without the per-size sides."""
    z = poly(Z)
    if identity == "easy":
        head = _forms(A, z, *_symbols(A))[-1]
        return head * t_poly(A), z * s_poly(A)
    family, expand = ("s", s_poly) if identity == "sheffer" else ("t", t_poly)
    pairs = [(expand(left), t_poly(right, zvar=W)) for left, right in partitions_into_two(A)]
    return poly(_product(A, family, z + poly(W), *_symbols(A))), _sum_of_products(pairs)


class TestSidesPerSize:
    """Both sides of an identity are built once per size and relabelled onto A."""

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from(IDENTITIES), shifted_sets())
    def test_relabelled_sides_match_the_sums_over_the_set(self, identity, A):
        assume(A or identity != "easy")
        want = sides_over(identity, A)
        strehl._sides.cache_clear()
        for got in (identity_sides(identity, A), identity_sides(identity, A)):  # cold, warm
            assert got == want
            assert [str(side) for side in got] == [str(side) for side in want]

    def test_a_second_set_of_a_seen_size_builds_no_side(self, monkeypatch):
        calls = Counter()

        def counted(name):
            original = getattr(strehl, name)

            def call(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)

            return call

        for name in ("partitions_into_two", "_sum_of_products", "t_poly", "s_poly"):
            monkeypatch.setattr(strehl, name, counted(name))
        strehl._sides.cache_clear()
        for identity in IDENTITIES:
            identity_sides(identity, (2, 5, 7, 9))
        assert calls["partitions_into_two"] == calls["_sum_of_products"] == 2
        calls.clear()
        for identity in IDENTITIES:
            assert holds(identity, (1, 3, 4, 8))
        assert not calls

    def test_equal_sides_share_one_term_map(self):
        for identity in IDENTITIES:
            lhs, rhs = identity_sides(identity, (3, 6, 10))
            assert lhs._terms is rhs._terms and lhs._template is rhs._template

    def test_equal_sides_are_one_polynomial(self):
        """With cold caches and warm ones, an identity that holds gives one
        relabelled polynomial for both sides."""
        strehl._sides.cache_clear()
        strehl._expand.cache_clear()
        for A in ((3, 6, 10), (1, 2, 5, 8), (1, 2, 3, 4)):
            for identity in IDENTITIES:
                for lhs, rhs in (identity_sides(identity, A), identity_sides(identity, A)):
                    assert lhs is rhs
                    assert lhs._ring[-1] == (3, A[-2], A[-1])  # relabelled onto A

    def test_sides_that_differ_are_two_polynomials(self, monkeypatch):
        """A right side that differs from the left is relabelled on its own."""
        monkeypatch.setattr(strehl, "partitions_into_two", lambda A: [*partitions_into_two(A)][1:])
        strehl._sides.cache_clear()
        try:
            for identity in ("sheffer", "binomial"):
                for A in ((1, 2, 3), (4, 9, 12), (4, 9, 12)):  # cold, warm
                    lhs, rhs = identity_sides(identity, A)
                    assert lhs is not rhs and lhs != rhs
                    assert str(lhs) != str(rhs) and lhs.terms != rhs.terms
        finally:
            strehl._sides.cache_clear()

    def test_a_broken_identity_shows_on_every_set(self, monkeypatch):
        """A right side that differs from the left is kept as summed, so a
        second set of the size, built from the cache, shows it too."""
        monkeypatch.setattr(strehl, "partitions_into_two", lambda A: [*partitions_into_two(A)][1:])
        strehl._sides.cache_clear()
        try:
            for A in ((1, 2, 3), (4, 9, 12)):
                lhs, rhs = identity_sides("sheffer", A)
                assert lhs == sides_over("sheffer", IndexSet(A))[0]
                assert lhs != rhs and lhs._terms is not rhs._terms
        finally:
            strehl._sides.cache_clear()

    @settings(max_examples=30, deadline=None)
    @given(st.sampled_from(IDENTITIES), shifted_sets())
    @example("easy", IndexSet((3, 8, 11, 12, 40)))  # 16 ring variables: {10} to {15}
    @example("sheffer", IndexSet((2, 5, 7, 9, 10)))
    @example("binomial", IndexSet((1, 6, 13, 14, 27)))
    def test_sides_print_as_a_rebuilt_copy_does(self, identity, A):
        """With cold caches and warm ones, a side prints as a rebuilt copy does,
        which shares no template cell with it and builds its own text; the
        side's cell, filled by the first print, holds a slot per ring variable."""
        assume(A or identity != "easy")
        strehl._sides.cache_clear()
        strehl._expand.cache_clear()
        for sides in (identity_sides(identity, A), identity_sides(identity, A)):  # cold, warm
            for side in sides:
                copy = SparsePolynomial(side.terms)
                assert str(side) == str(copy)
                assert all(f"{{{i}}}" in side._template[0] for i in range(len(side._ring)))
                assert copy._template is not side._template

    def test_a_cached_side_prints_without_decoding(self, monkeypatch):
        """A second set of a size already printed prints from the shared template alone."""
        pinned = {
            "easy": "z*y9*y12 + z*y9*x9_12 + z*y9^2 + z*y12*x9_12 + 2*z^2*y9 + z^2*y12"
            " + z^2*x9_12 + z^3",
            "sheffer": "2*z*w + 2*z*y9 + z*y12 + z*x9_12 + z^2 + 2*w*y9 + w*y12 + w*x9_12"
            " + w^2 + y9*y12 + y9*x9_12 + y9^2 + y12*x9_12",
            "binomial": "2*z*w + z*y9 + z*x9_12 + z^2 + w*y9 + w*x9_12 + w^2",
        }
        for identity in IDENTITIES:
            for side in identity_sides(identity, (1, 2)):
                str(side)
        for member in (t_poly, s_poly):
            str(member((1, 2)))
        poly_module = importlib.import_module("parkseq.poly")

        def refuse(*args):
            raise AssertionError("a cached side was decoded to be printed")

        monkeypatch.setattr(poly_module._Pieces, "__missing__", refuse)
        monkeypatch.setattr(poly_module, "_template_of", refuse)
        for identity, text in pinned.items():
            assert [str(side) for side in identity_sides(identity, (9, 12))] == [text, text]
        assert str(t_poly((9, 12))) == "z*y9 + z*x9_12 + z^2"
        assert str(s_poly((9, 12))) == (
            "2*z*y9 + z*y12 + z*x9_12 + z^2 + y9*y12 + y9*x9_12 + y9^2 + y12*x9_12"
        )

    def test_sides_compare_without_printing(self, monkeypatch):
        """Cold sides are built, relabelled and compared with no template built."""
        poly_module = importlib.import_module("parkseq.poly")

        def refuse(*args):
            raise AssertionError("a template was built with nothing printed")

        monkeypatch.setattr(poly_module, "_template_of", refuse)
        strehl._sides.cache_clear()
        strehl._expand.cache_clear()
        for identity in IDENTITIES:
            assert holds(identity, (2, 5, 7, 9))


class TestEasyIdentity:
    def test_holds_on_small_sets(self):
        assert holds("easy", (1,))
        assert holds("easy", (1, 2))
        assert holds("easy", (1, 2, 3))
        assert holds("easy", (2, 5, 9))

    def test_sides_are_the_expected_products(self):
        lhs, rhs = identity_sides("easy", (1,))
        assert lhs == (poly(Z) + y_var(1)) * poly(Z)
        assert rhs == poly(Z) * (poly(Z) + y_var(1))

    def test_empty_set_rejected(self):
        with pytest.raises(ValueError):
            identity_sides("easy", ())

    def test_budget_guard(self):
        """A 7-set is refused before anything is expanded."""
        A = tuple(range(1, 8))
        with pytest.raises(ValueError, match="use random_identity_check instead"):
            identity_sides("easy", A)
        assert holds("easy", (1, 2, 3), budget=3)
        with pytest.raises(ValueError, match="budget 2"):
            identity_sides("easy", (1, 2, 3), budget=2)


@pytest.mark.parametrize(
    "identity,digest",
    [
        ("easy", "d10de194f079de57c770730f79f02dfe3cd9792916c14b8b8de4433a1e782875"),
        ("sheffer", "09ceead8355791ebb685a5ba2f725e1d9805833fc4b59921d44295d8234c386c"),
        ("binomial", "b2a0d1d5fa2114b920482ef0ad86e57226f489034e4d1da25fe99744bbcf0210"),
    ],
)
def test_rendered_sides_are_pinned(identity, digest):
    """sha256 of ``str`` of both sides on {2, 5, 7, 9}, recorded while
    variables were still dataclasses; the CLI digests hash these bytes."""
    for side in identity_sides(identity, (2, 5, 7, 9)):
        assert hashlib.sha256(str(side).encode()).hexdigest() == digest


class TestShefferConvolution:
    def test_empty_and_singleton(self):
        assert holds("sheffer", ())
        assert holds("sheffer", (1,))
        lhs, rhs = identity_sides("sheffer", (1,))
        assert lhs == poly(Z) + poly(W) + poly(y_var(1))
        assert rhs == poly(W) + (poly(Z) + poly(y_var(1)))

    def test_pair_and_triples(self):
        assert holds("sheffer", (1, 2))
        assert holds("sheffer", (1, 2, 3))
        assert holds("sheffer", (2, 5, 9))

    def test_budget_guard(self):
        with pytest.raises(ValueError):
            identity_sides("sheffer", (1, 2, 3, 4, 5, 6))

    def test_ambient_sum_reading_fails_already_on_a_pair(self):
        """Taking the partial sums relative to the ambient set instead of
        each sub-ground-set breaks the identity on {1, 2}."""
        A = IndexSet((1, 2))

        def ambient_form(a, zvar):
            form = poly(zvar)
            for j in A:
                form = form + (poly(y_var(j)) if j <= a else poly(x_var(a, j)))
            return form

        def ambient_s(members, zvar):
            acc = poly(1)
            for a in members:
                acc = acc * ambient_form(a, zvar)
            return acc

        def ambient_t(members, zvar):
            if not members:
                return poly(1)
            acc = poly(zvar)
            for a in members[:-1]:
                acc = acc * ambient_form(a, zvar)
            return acc

        lhs = s_poly(A).substitute({Z: poly(Z) + poly(W)})
        rhs = poly(0)
        for left, right in partitions_into_two(A):
            rhs = rhs + ambient_s(left, Z) * ambient_t(right, W)
        assert lhs != rhs


class TestBinomialConvolution:
    def test_small_sets(self):
        assert holds("binomial", ())
        assert holds("binomial", (1,))
        assert holds("binomial", (1, 2))
        assert holds("binomial", (1, 2, 3, 4))

    def test_singleton_sides(self):
        lhs, rhs = identity_sides("binomial", (1,))
        assert lhs == poly(Z) + poly(W)
        assert rhs == poly(Z) + poly(W)

    def test_budget_guard(self):
        with pytest.raises(ValueError):
            identity_sides("binomial", tuple(range(1, 8)))


class TestNumericValues:
    def test_match_symbolic_evaluation(self):
        rng = random.Random(17)
        for A in subsets(3):
            for _ in range(3):
                assignment = ParameterAssignment.random_for(A, rng, low=-50, high=50)
                assert s_value(A, assignment, assignment.z_val) == s_poly(A).evaluate(assignment)
                assert t_value(A, assignment, assignment.z_val) == t_poly(A).evaluate(assignment)
                at = assignment.z_val + assignment.w_val
                shifted = s_poly(A).substitute({Z: poly(Z) + poly(W)})
                assert s_value(A, assignment, at) == shifted.evaluate(assignment)

    def test_a_generator_gives_the_same_values_as_a_tuple(self):
        A = IndexSet.first(5)
        assignment = ParameterAssignment.random_for(A, random.Random(3))
        for value in (s_value, t_value):
            assert value(iter(A), assignment, 7) == value(tuple(A), assignment, 7) != 0

    def test_empty_products(self):
        assignment = ParameterAssignment(z_val=9, w_val=4)
        assert s_value((), assignment, 9) == 1
        assert t_value((), assignment, 9) == 1


class TestRandomizedCheck:
    @pytest.mark.parametrize("identity", ["easy", "sheffer", "binomial"])
    @pytest.mark.parametrize("seed", [0, 1, 42])
    def test_empty_set_is_trivially_true(self, identity, seed):
        if identity == "easy":
            with pytest.raises(ValueError, match="head-factor identity needs a nonempty ground set"):
                random_identity_check(identity, (), seed=seed)
        else:
            assert random_identity_check(identity, (), seed=seed)

    def test_every_entry_point_refuses_easy_on_the_empty_set(self):
        message = "^the head-factor identity needs a nonempty ground set$"
        for check in (
            lambda: identity_sides("easy", ()),
            lambda: identity_value_sides("easy", (), ParameterAssignment()),
            lambda: random_identity_check("easy", ()),
        ):
            with pytest.raises(ValueError, match=message):
                check()

    @pytest.mark.parametrize("identity", ["sheffer", "binomial"])
    def test_the_empty_set_takes_the_general_route(self, identity, monkeypatch):
        """Each trial on the empty set evaluates both sides, 1 = 1 at every point."""
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return identity_value_sides(*args, **kwargs)

        monkeypatch.setattr(strehl, "identity_value_sides", counted)
        assert random_identity_check(identity, (), trials=7, seed=5)
        assert len(calls) == 7
        assignment = ParameterAssignment.random_for((), random.Random(5))
        assert identity_value_sides(identity, (), assignment) == (1, 1)

    @pytest.mark.parametrize("identity", ["easy", "sheffer", "binomial"])
    def test_holds_on_midsize_sets(self, identity):
        assert random_identity_check(identity, IndexSet.first(6), trials=10, seed=3)

    def test_large_sheffer_instance(self):
        assert random_identity_check("sheffer", IndexSet.first(8), trials=20, seed=42)

    def test_dropping_a_term_is_detected(self):
        A = IndexSet.first(3)
        for left, right in partitions_into_two(A):
            assert not random_identity_check("sheffer", A, trials=5, seed=11, omit=(left, right))
            assert not random_identity_check("binomial", A, trials=5, seed=11, omit=(left, right))

    def test_omit_is_deterministic_per_seed(self):
        first = random_identity_check("sheffer", (1, 2), trials=2, seed=9, omit=((), (1, 2)))
        second = random_identity_check("sheffer", (1, 2), trials=2, seed=9, omit=((), (1, 2)))
        assert first == second is False

    def test_input_validation(self):
        with pytest.raises(ValueError):
            random_identity_check("sheffer", (1,), trials=0)
        with pytest.raises(ValueError):
            random_identity_check("nonsense", (1,))
        with pytest.raises(ValueError):
            identity_value_sides("easy", (), ParameterAssignment())


@st.composite
def value_instances(draw):
    """An identity, a ground set of up to 7 arbitrary labels, an assignment
    with negative values allowed, and for a convolution maybe one split to omit."""
    identity = draw(st.sampled_from(["easy", "sheffer", "binomial"]))
    A = sorted(draw(st.sets(st.integers(1, 40), min_size=1 if identity == "easy" else 0, max_size=7)))
    values = st.integers(-(10**6), 10**6)
    assignment = ParameterAssignment(
        z_val=draw(values),
        w_val=draw(values),
        y_vals={j: draw(values) for j in A},
        x_vals={pair: draw(values) for pair in combinations(A, 2)},
    )
    omit = None
    if identity != "easy" and draw(st.booleans()):
        mask = draw(st.integers(0, 2 ** len(A) - 1))
        omit = (
            tuple(a for b, a in enumerate(A) if mask >> b & 1),
            tuple(a for b, a in enumerate(A) if not mask >> b & 1),
        )
    return identity, A, assignment, omit


def literal_sides(identity, A, assignment, omit=None):
    """Both sides of an identity from the definition written out here, one split at a time."""
    z, w = assignment.z_val, assignment.w_val
    y, x = assignment.y_vals, assignment.x_vals

    def form(S, a, at):
        return at + sum(y[j] for j in S if j <= a) + sum(x[a, j] for j in S if j > a)

    def s_lit(S, at):
        return math.prod(form(S, a, at) for a in S)

    def t_lit(S, at):
        return at * math.prod(form(S, a, at) for a in S[:-1]) if S else 1

    if identity == "easy":
        return (z + sum(y.values())) * t_lit(A, z), z * s_lit(A, z)
    family = s_lit if identity == "sheffer" else t_lit
    rhs = sum(
        family(left, z) * t_lit(right, w)
        for left, right in partitions_into_two(A)
        if (left, right) != omit
    )
    return family(A, z + w), rhs


class TestSplitSearch:
    @settings(max_examples=150, deadline=None)
    @given(value_instances())
    def test_sides_match_a_literal_sum_over_splits(self, instance):
        """Both sides against the definition written out here, one split at a time."""
        identity, A, assignment, omit = instance
        want = literal_sides(identity, A, assignment, omit)
        assert identity_value_sides(identity, A, assignment, omit=omit) == want

    @pytest.mark.parametrize("block", [2, 3])
    def test_sums_across_many_blocks_match_the_literal_sum(self, monkeypatch, block):
        """With a block of 2 or 3 members, sets of up to 9 span up to 128 blocks;
        values from -3..3 make zero forms common."""
        monkeypatch.setattr("parkseq.strehl._BLOCK", block)
        rng = random.Random(block)
        for n in range(10):
            A = IndexSet(sorted(rng.sample(range(1, 20), n)))
            for _ in range(4):
                assignment = ParameterAssignment.random_for(A, rng, low=-3, high=3)
                mask = rng.getrandbits(n)
                omit = (
                    tuple(a for b, a in enumerate(A) if mask >> b & 1),
                    tuple(a for b, a in enumerate(A) if not mask >> b & 1),
                )
                for identity in ("sheffer", "binomial"):
                    for dropped in (None, omit):
                        want = literal_sides(identity, A, assignment, dropped)
                        got = identity_value_sides(identity, A, assignment, omit=dropped)
                        assert got == want, (identity, A, assignment, dropped)

    def test_a_large_set_holds_lists_of_one_block_only(self):
        """The lists stay at one block's size: a 14-member set peaks under 1 MB
        of new allocations, where lists over all 2^14 splits would take 3 MB."""
        assignment = ParameterAssignment.random_for(range(1, 15), random.Random(14))
        tracemalloc.start()
        try:
            lhs, rhs = identity_value_sides("sheffer", range(1, 15), assignment)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert lhs == rhs
        assert peak < 2**20

    # Worked out by hand on A = {2, 5}: member 2's form is at + y2 + x25 and
    # member 5's is at + y2 + y5, so with a = z + y2 the sheffer sides are
    # (a + x25 + w)(a + y5 + w) and (a + x25)(a + y5) + (z + y2)w + (z + y5)w
    # + w(w + y2 + x25), the binomial ones (z + w)(z + w + y2 + x25) and
    # z(z + y2 + x25) + zw + zw + w(w + y2 + x25).
    @pytest.mark.parametrize(
        "identity,A,z,w,y,x,sides",
        [
            ("sheffer", (), 3, 5, {}, {}, (1, 1)),
            ("binomial", (), 3, 5, {}, {}, (1, 1)),
            ("sheffer", (4,), 3, 5, {4: 2}, {}, (10, 10)),
            ("binomial", (4,), 3, 5, {4: 2}, {}, (8, 8)),
            ("sheffer", (2, 5), 3, 5, {2: 2, 5: 7}, {(2, 5): -4}, (102, 12 + 25 + 50 + 15)),
            ("binomial", (2, 5), 3, 5, {2: 2, 5: 7}, {(2, 5): -4}, (48, 3 + 15 + 15 + 15)),
            # z + y2 + y5 = 0: the left side {2, 5} has a zero form at z, the
            # maximum's, which a t computed as s divided by it would need
            ("sheffer", (2, 5), 3, 5, {2: 2, 5: -5}, {(2, 5): -4}, (30, 0 + 25 - 10 + 15)),
            ("binomial", (2, 5), 3, 5, {2: 2, 5: -5}, {(2, 5): -4}, (48, 3 + 15 + 15 + 15)),
            # member 2's form is zero at z for the left side {2, 5}
            ("sheffer", (2, 5), 3, 5, {2: 2, 5: 7}, {(2, 5): -5}, (85, 0 + 25 + 50 + 10)),
            ("sheffer", (2, 5), 0, 5, {2: 2, 5: 7}, {(2, 5): -4}, (42, -18 + 10 + 35 + 15)),
            ("binomial", (2, 5), 0, 5, {2: 2, 5: 7}, {(2, 5): -4}, (15, 0 + 0 + 0 + 15)),
            ("sheffer", (2, 5), 3, 0, {2: 2, 5: 7}, {(2, 5): -4}, (12, 12 + 0 + 0 + 0)),
            ("binomial", (2, 5), 3, 0, {2: 2, 5: 7}, {(2, 5): -4}, (3, 3 + 0 + 0 + 0)),
        ],
    )
    def test_small_sets_give_the_values_worked_out_by_hand(self, identity, A, z, w, y, x, sides):
        assignment = ParameterAssignment(z_val=z, w_val=w, y_vals=y, x_vals=x)
        assert identity_value_sides(identity, A, assignment) == sides

    @pytest.mark.parametrize(
        "identity,omit",
        [
            ("sheffer", ((2, 1), (3,))),  # a reordered side
            ("binomial", ((1,), (3, 2))),
            ("sheffer", ((1,), (3,))),  # a missing member
            ("binomial", ((1, 2), (2, 3))),  # a member on both sides
            ("sheffer", ((1, 2, 3, 4), ())),  # a member outside A
            ("binomial", ((1,), (2,), (3,))),  # three sides
            ("easy", ((1, 2), (3,))),  # easy sums over no splits
        ],
    )
    def test_omit_that_names_no_split_is_refused(self, identity, omit):
        assignment = ParameterAssignment.random_for((1, 2, 3), random.Random(5))
        with pytest.raises(ValueError, match="omit"):
            identity_value_sides(identity, (1, 2, 3), assignment, omit=omit)
        with pytest.raises(ValueError, match="omit"):
            random_identity_check(identity, (1, 2, 3), trials=1, omit=omit)

    @pytest.mark.parametrize("identity", ["sheffer", "binomial"])
    def test_more_members_than_the_partition_limit_are_refused(self, identity):
        """Refused before any work: the empty assignment would fail on its first read."""
        k = PARTITION_LIMIT + 1
        message = f"refusing to stream 2^{k} decompositions (limit 2^{PARTITION_LIMIT})"
        with pytest.raises(ValueError, match=re.escape(message)):
            identity_value_sides(identity, range(1, k + 1), ParameterAssignment())

    @pytest.mark.parametrize("identity", ["sheffer", "binomial"])
    def test_every_identity_entry_point_refuses_past_the_limit_before_any_work(
        self, identity, monkeypatch
    ):
        """No point is drawn and no side is built: the limit is checked first,
        before the budget, the trial count and the seed."""

        def fail(*args, **kwargs):
            raise AssertionError("work began before the split limit was checked")

        monkeypatch.setattr(ParameterAssignment, "random_for", fail)
        monkeypatch.setattr(strehl, "_sides", fail)
        k = PARTITION_LIMIT + 1
        message = f"refusing to stream 2^{k} decompositions (limit 2^{PARTITION_LIMIT})"
        whole, A = f"^{re.escape(message)}$", range(1, k + 1)
        with pytest.raises(ValueError, match=whole):
            random_identity_check(identity, A, trials=1)
        with pytest.raises(ValueError, match=whole):
            random_identity_check(identity, A, trials=0, seed=1.5)
        with pytest.raises(ValueError, match=whole):
            identity_sides(identity, A)


class TestCountingSpecialization:
    def test_spec_values(self):
        assert f_as_t_specialization((), 9) == 1
        assert f_as_t_specialization((1, 1, 1), 1) == 16
        assert f_as_t_specialization((2, 2, 1), 4) == 288

    def test_agrees_with_closed_form_on_small_sweep(self):
        for n in range(4):
            for sizes in product((1, 2, 3), repeat=n):
                for z in (1, 2, 3, 4):
                    assert f_as_t_specialization(sizes, z) == count_by_formula(sizes, z)

    def test_rejects_bad_z(self):
        with pytest.raises(ValueError):
            f_as_t_specialization((1,), 0)

    def test_evaluating_the_expansion_gives_the_count(self):
        """The engine's own route: expand t over {1..n}, then evaluate it."""
        for n in range(5):
            A = IndexSet.first(n)
            expanded = t_poly(A)
            for sizes in product((1, 2, 3), repeat=n):
                for z in (1, 2, 3, 4):
                    assignment = ParameterAssignment(
                        z_val=z,
                        y_vals=dict(zip(A, sizes)),
                        x_vals={pair: 1 for pair in combinations(A, 2)},
                    )
                    assert expanded.evaluate(assignment) == count_by_formula(sizes, z)

    def test_thirty_cars(self):
        sizes = (1, 2, 3) * 10
        assert f_as_t_specialization(sizes, 3) == count_by_formula(sizes, 3)


class TestAbelRothe:
    def test_zero_parameters_collapse_to_power(self):
        for n in range(5):
            assert abel_rothe_specialize(IndexSet.first(n), "t", 0, 0) == poly(Z) ** n

    def test_pair(self):
        assert abel_rothe_specialize((1, 2), "t", 5, 7) == poly(Z) * (poly(Z) + 12)
        assert abel_rothe_specialize((1, 2), "s", 5, 7) == (poly(Z) + 12) * (poly(Z) + 14)

    def test_triple_unit_parameters(self):
        assert abel_rothe_specialize((1, 2, 3), "t", 1, 1) == poly(Z) * (poly(Z) + 3) ** 2

    @pytest.mark.parametrize("xi,eta", [(0, 0), (1, 1), (2, 5), (-3, 4)])
    def test_closed_form_up_to_six(self, xi, eta):
        for n in range(1, 7):
            expected = poly(Z)
            for a in range(1, n):
                expected = expected * (poly(Z) + a * eta + (n - a) * xi)
            assert abel_rothe_specialize(IndexSet.first(n), "t", xi, eta) == expected

    def test_result_is_univariate_in_main_variable(self):
        p = abel_rothe_specialize((1, 2, 3), "t", 2, 3)
        assert {v for mono in p.terms for v, _ in mono} <= {Z}

    def test_which_is_validated(self):
        with pytest.raises(ValueError):
            abel_rothe_specialize((1,), "q", 0, 0)

    @pytest.mark.parametrize("xi,eta", [(0, 0), (1, 1), (2, 5), (-3, 4)])
    def test_substituting_into_the_expansion_agrees(self, xi, eta):
        """The engine's own route: expand the member, then substitute constants."""
        for A in subsets(4):
            rules = {y_var(j): poly(eta) for j in A}
            rules.update({x_var(i, j): poly(xi) for i, j in combinations(A, 2)})
            for which, expanded in (("t", t_poly(A)), ("s", s_poly(A))):
                assert expanded.substitute(rules) == abel_rothe_specialize(A, which, xi, eta)

    def test_twelve_members(self):
        n, xi, eta = 12, 3, -2
        forms = [poly(Z) + a * eta + (n - a) * xi for a in range(1, n + 1)]
        A = IndexSet.first(n)
        assert abel_rothe_specialize(A, "t", xi, eta) == math.prod(forms[:-1], start=poly(Z))
        assert abel_rothe_specialize(A, "s", xi, eta) == math.prod(forms, start=poly(1))


class TestSympyOracle:
    """Expansions against sympy, from the definition written out here."""

    @pytest.mark.parametrize("A", list(subsets(4)), ids=str)
    def test_expansions_match_term_by_term(self, A):
        sympy = pytest.importorskip("sympy")
        z = sympy.Symbol("z")
        y = {j: sympy.Symbol(f"y{j}") for j in A}
        x = {(i, j): sympy.Symbol(f"x{i}_{j}") for i, j in combinations(A, 2)}

        def form(a):
            return z + sum(y[j] for j in A if j <= a) + sum(x[a, j] for j in A if j > a)

        s_expr = sympy.Mul(*[form(a) for a in A])
        t_expr = z * sympy.Mul(*[form(a) for a in A if a != max(A)]) if A else sympy.Integer(1)
        gens = [z, *y.values(), *x.values()]
        names = [str(g) for g in gens]
        for expr, ours in ((t_expr, t_poly(A)), (s_expr, s_poly(A))):
            want = {e: int(c) for e, c in sympy.Poly(sympy.expand(expr), *gens).as_dict().items()}
            got = {}
            for mono, coeff in ours.terms.items():
                powers = {str(v): e for v, e in mono}
                got[tuple(powers.get(name, 0) for name in names)] = coeff
            assert got == want
