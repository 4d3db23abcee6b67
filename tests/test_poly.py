"""Sparse polynomial engine: canonical form, ring laws, substitution, evaluation."""

import copy
import importlib
import operator
import pickle
import random
import re

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from parkseq.poly import (
    ParameterAssignment,
    SparsePolynomial,
    Variable,
    W,
    Z,
    _sum_of_products,
    monomial,
    poly,
    x_var,
    y_var,
)

VARS = [Z, W, y_var(1), y_var(2), x_var(1, 2)]

powers = st.dictionaries(st.sampled_from(VARS), st.integers(1, 2), max_size=3)
polys = st.builds(
    SparsePolynomial.from_terms,
    st.lists(st.tuples(powers, st.integers(-4, 4)), max_size=4),
)

POINT = {Z: 3, W: -2, y_var(1): 5, y_var(2): -7, x_var(1, 2): 11}


def test_variable_total_order():
    assert Z < W < y_var(1) < y_var(2) < y_var(10) < x_var(1, 2) < x_var(1, 3) < x_var(2, 3)


def test_variable_constructors_validate_indices():
    with pytest.raises(ValueError):
        y_var(0)
    with pytest.raises(ValueError):
        x_var(2, 2)
    with pytest.raises(ValueError):
        x_var(0, 1)


def test_variable_rendering():
    assert str(Z) == "z"
    assert str(W) == "w"
    assert str(y_var(3)) == "y3"
    assert str(x_var(1, 12)) == "x1_12"


def test_monomial_canonicalization():
    assert monomial({Z: 0}) == ()
    assert monomial([(Z, 1), (Z, 2)]) == ((Z, 3),)
    assert monomial({y_var(2): 1, Z: 2}) == ((Z, 2), (y_var(2), 1))
    with pytest.raises(ValueError):
        monomial({Z: -1})


def test_zero_coefficients_never_stored():
    p = SparsePolynomial.from_terms([({Z: 1}, 2), ({Z: 1}, -2)])
    assert p.is_zero()
    assert p.terms == {}
    assert (poly(Z) - poly(Z)).is_zero()


@pytest.mark.parametrize(
    "build",
    [
        lambda: SparsePolynomial({((Z, 1),): 1.5}),
        lambda: SparsePolynomial.from_terms([({Z: 1}, 1.5)]),
    ],
    ids=["init", "from_terms"],
)
def test_float_coefficients_are_refused(build):
    with pytest.raises(ValueError, match=r"^coefficients must be integers, got 1\.5$"):
        build()


def test_additive_and_multiplicative_identities():
    p = (poly(Z) + 2) * poly(y_var(1))
    assert p + 0 == p
    assert 0 + p == p
    assert p * 1 == p
    assert 1 * p == p
    assert (p * 0).is_zero()


def test_two_factor_expansion_matches_hand_computation():
    product = (poly(Z) + y_var(1)) * (poly(Z) + y_var(2))
    expected = SparsePolynomial.from_terms(
        [
            ({Z: 2}, 1),
            ({Z: 1, y_var(1): 1}, 1),
            ({Z: 1, y_var(2): 1}, 1),
            ({y_var(1): 1, y_var(2): 1}, 1),
        ]
    )
    assert product == expected
    assert str(product) == "z*y1 + z*y2 + z^2 + y1*y2"


def test_sum_builtin_works():
    total = sum(poly(y_var(j)) for j in (1, 2, 3))
    assert total == poly(y_var(1)) + poly(y_var(2)) + poly(y_var(3))


def test_integer_comparison_and_coercion():
    assert poly(5) == 5
    assert poly(0) == 0
    assert poly(Z) != 1
    with pytest.raises(TypeError):
        poly("z")


def test_pow():
    p = poly(Z) + 1
    assert p**0 == 1
    assert p**3 == p * p * p
    for exponent in (-1, True, False):  # the exponents monomial() refuses too
        with pytest.raises(ValueError, match=f"got {exponent!r}$"):
            p**exponent


def degree(p, var=None):
    """Total degree of ``p``, or its degree in ``var``; -1 for the zero polynomial."""
    if var is None:
        return max((sum(e for _, e in mono) for mono in p.terms), default=-1)
    return max((dict(mono).get(var, 0) for mono in p.terms), default=-1)


def variables(p):
    return {v for mono in p.terms for v, _ in mono}


def test_degree():
    assert degree(poly(0)) == -1
    assert degree(poly(7)) == 0
    q = (poly(Z) + y_var(1)) * (poly(Z) + y_var(1)) * poly(W)
    assert degree(q) == 3
    assert degree(q, Z) == 2
    assert degree(q, W) == 1
    assert degree(q, y_var(2)) == 0


def test_variables_listing():
    q = poly(Z) * poly(x_var(2, 5)) + poly(y_var(1))
    assert variables(q) == {Z, x_var(2, 5), y_var(1)}


def test_substitute_square_shift():
    sq = poly(Z) * poly(Z)
    shifted = sq.substitute({Z: poly(Z) + poly(W)})
    expected = SparsePolynomial.from_terms([({Z: 2}, 1), ({Z: 1, W: 1}, 2), ({W: 2}, 1)])
    assert shifted == expected


def test_substitute_is_simultaneous():
    p = poly(y_var(1)) * poly(y_var(2))
    renamed = p.substitute({y_var(1): y_var(2), y_var(2): y_var(3)})
    assert renamed == poly(y_var(2)) * poly(y_var(3))


def test_substitute_empty_rules_is_identity():
    p = (poly(Z) + 3) * poly(y_var(1))
    assert p.substitute({}) == p


def test_substitute_accepts_ints_and_variables():
    p = poly(Z) + poly(y_var(1))
    assert p.substitute({y_var(1): 4}) == poly(Z) + 4
    assert p.substitute({y_var(1): W}) == poly(Z) + poly(W)


def test_evaluate_with_mapping():
    p = (poly(Z) + y_var(1)) * (poly(Z) - 2)
    assert p.evaluate(POINT) == (3 + 5) * (3 - 2)
    with pytest.raises(ValueError):
        p.evaluate({Z: 3})


def test_evaluate_with_assignment():
    assignment = ParameterAssignment(z_val=3, w_val=-2, y_vals={1: 5}, x_vals={(1, 2): 11})
    p = poly(Z) * poly(W) + poly(x_var(1, 2)) - poly(y_var(1))
    assert p.evaluate(assignment) == 3 * (-2) + 11 - 5
    with pytest.raises(ValueError):
        poly(y_var(9)).evaluate(assignment)


@pytest.mark.parametrize("value", [1.5, 2.0, True, False, "3", None])
def test_evaluate_with_mapping_refuses_non_integers(value):
    p = poly(Z) + poly(W)
    message = f"w must be an integer, got {value!r}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        p.evaluate({Z: 1, W: value})


@pytest.mark.parametrize(
    "kwargs,where,value",
    [
        ({"z_val": 1.5}, "z_val", 1.5),
        ({"w_val": True}, "w_val", True),
        ({"y_vals": {1: 2, 3: 2.0}}, "y_vals[3]", 2.0),
        ({"x_vals": {(1, 2): False}}, "x_vals[(1, 2)]", False),
        ({"z_val": None}, "z_val", None),
    ],
)
def test_assignment_refuses_non_integers(kwargs, where, value):
    message = f"{where} must be an integer, got {value!r}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        ParameterAssignment(**kwargs)


def test_bool_is_not_a_polynomial_constant():
    p = poly(Z) + 1
    with pytest.raises(TypeError):
        poly(True)
    for op in (operator.add, operator.sub, operator.mul):
        with pytest.raises(TypeError):
            op(p, True)
        with pytest.raises(TypeError):
            op(False, p)
    assert (p == True) is False  # noqa: E712
    assert (poly(1) == True) is False  # noqa: E712
    assert p * 2 == 2 * p == poly(Z) * 2 + 2


@given(polys, polys)
def test_addition_commutes(a, b):
    assert a + b == b + a


@given(polys, polys)
def test_multiplication_commutes(a, b):
    assert a * b == b * a


@given(polys, polys, polys)
def test_associativity(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)


@given(polys, polys, polys)
def test_distributivity(a, b, c):
    assert a * (b + c) == a * b + a * c


@given(polys, polys)
def test_operations_commute_with_evaluation(a, b):
    assert (a + b).evaluate(POINT) == a.evaluate(POINT) + b.evaluate(POINT)
    assert (a * b).evaluate(POINT) == a.evaluate(POINT) * b.evaluate(POINT)
    assert (a - b).evaluate(POINT) == a.evaluate(POINT) - b.evaluate(POINT)


@given(polys)
def test_substitution_then_evaluation_agrees(p):
    rules = {Z: poly(W) + 2, y_var(1): poly(x_var(1, 2))}
    image_point = dict(POINT)
    image_point[Z] = POINT[W] + 2
    image_point[y_var(1)] = POINT[x_var(1, 2)]
    assert p.substitute(rules).evaluate(POINT) == p.evaluate(image_point)


@given(polys, polys)
def test_equal_polynomials_hash_equal(a, b):
    if a == b:
        assert hash(a) == hash(b)
    assert hash(a) == hash(SparsePolynomial(a.terms))


@pytest.mark.parametrize(
    "p,value",
    [
        (poly(5), 5),
        (poly(Z) + 2 - poly(Z) - 2, 0),
        (poly(Z), Z),
        (poly(x_var(1, 2)) * (poly(W) + 1) - poly(x_var(1, 2)) * poly(W), x_var(1, 2)),
    ],
)
def test_a_constant_or_a_variable_hashes_as_the_value_it_equals(p, value):
    assert p == value and hash(p) == hash(value)
    assert len({p, value}) == 1 and {value: "seen"}[p] == "seen"


def test_random_assignment_is_seed_deterministic():
    first = ParameterAssignment.random_for((1, 3, 4), random.Random(5))
    second = ParameterAssignment.random_for((1, 3, 4), random.Random(5))
    assert first == second
    assert set(first.y_vals) == {1, 3, 4}
    assert set(first.x_vals) == {(1, 3), (1, 4), (3, 4)}
    for value in (first.z_val, first.w_val, *first.y_vals.values(), *first.x_vals.values()):
        assert -(10**6) <= value <= 10**6


NAMED_VARS = [
    Z,
    W,
    *(y_var(j) for j in (1, 2, 9, 10, 12)),
    *(x_var(i, j) for i, j in ((1, 2), (1, 10), (2, 3), (9, 12))),
]
wide_polys = st.builds(
    SparsePolynomial.from_terms,
    st.lists(
        st.tuples(
            st.dictionaries(st.sampled_from(NAMED_VARS), st.integers(1, 12), max_size=5),
            st.integers(-(10**12), 10**12),
        ),
        max_size=12,
    ),
)


def _literal_render(terms):
    """The canonical text written out from the term map alone: monomials in
    increasing order of their ((family, a, b), exponent) lists, signed."""

    def name(v):
        return ("z", "w", f"y{v.a}", f"x{v.a}_{v.b}")[v.family]

    def key(mono):
        return [((v.family, v.a, v.b), e) for v, e in mono]

    pieces = []
    for mono in sorted(terms, key=key):
        coeff = terms[mono]
        body = "*".join(name(v) if e == 1 else f"{name(v)}^{e}" for v, e in mono)
        if not body:
            text = str(abs(coeff))
        elif abs(coeff) == 1:
            text = body
        else:
            text = f"{abs(coeff)}*{body}"
        pieces.append(("-" if coeff < 0 else "+", text))
    if not pieces:
        return "0"
    first_sign, first = pieces[0]
    return ("-" if first_sign == "-" else "") + first + "".join(f" {s} {t}" for s, t in pieces[1:])


@given(wide_polys, wide_polys)
def test_rendering_matches_a_literal_renderer(a, b):
    for p in (a, b, a * b, a - b):
        assert str(p) == _literal_render(p.terms)


def test_a_repeat_str_of_an_unrelabelled_product_reuses_its_template(monkeypatch):
    """Every polynomial is made with an empty template cell; its first ``str``
    fills the cell, which a later relabelled copy shares."""
    poly_module = importlib.import_module("parkseq.poly")
    builds = []
    build = poly_module._template_of

    def counted(p):
        builds.append(p)
        return build(p)

    monkeypatch.setattr(poly_module, "_template_of", counted)
    p = (poly(Z) + y_var(2)) * (poly(x_var(1, 2)) - 3)
    text = "-3*z + z*x1_2 - 3*y2 + y2*x1_2"
    assert [str(p), str(p)] == [text, text]
    assert len(builds) == 1
    copy = poly_module._relabelled(p, (1, 3))  # shares the filled cell
    assert str(copy) == "-3*z + z*x1_3 - 3*y3 + y3*x1_3"
    assert len(builds) == 1


def test_terms_is_a_fresh_dict_on_every_call():
    """``terms`` copies the polynomial's decoded map, so a caller's edit reaches
    neither a later ``terms`` nor the values the polynomial folds."""
    p = (poly(Z) + y_var(2)) * (poly(x_var(1, 2)) - 3)
    original = p.terms
    first = p.terms
    first[((Z, 1),)] = 99
    del first[((y_var(2), 1), (x_var(1, 2), 1))]
    second = p.terms
    assert second == original and second is not first
    assert p.evaluate(POINT) == -3 * 3 + 3 * 11 - 3 * (-7) + (-7) * 11
    assert str(p) == "-3*z + z*x1_2 - 3*y2 + y2*x1_2"


def test_a_repeat_render_of_one_polynomial_decodes_nothing(monkeypatch):
    """The first ``terms``, ``evaluate`` or ``substitute`` decodes the term map once,
    and the first ``str`` builds the template once; after that, ``terms``, ``str``,
    ``evaluate`` and ``substitute`` of the same polynomial call ``_halves`` no more."""
    poly_module = importlib.import_module("parkseq.poly")
    calls = []
    halves = poly_module._halves

    def counted(*args):
        calls.append(args)
        return halves(*args)

    monkeypatch.setattr(poly_module, "_halves", counted)
    p = (poly(Z) + y_var(1) + x_var(1, 2)) * (poly(W) - y_var(2)) ** 2
    want = p.evaluate(POINT)
    assert len(calls) == 1  # the term map, decoded for the fold
    terms, shifted = p.terms, p.substitute({Z: poly(Z) + 1})
    assert len(calls) == 1  # both read the kept map
    text = str(p)
    assert len(calls) == 2  # the template
    for _ in range(2):
        assert p.terms == terms and str(p) == text and p.evaluate(POINT) == want
        assert p.substitute({Z: poly(Z) + 1}) == shifted
    assert len(calls) == 2


def test_len_counts_the_terms_without_decoding(monkeypatch):
    poly_module = importlib.import_module("parkseq.poly")
    halves = poly_module._halves
    samples = [
        poly(0),
        poly(7),
        poly(Z) + y_var(1),
        (poly(Z) + y_var(1) + x_var(1, 2)) * (poly(W) - y_var(2)) ** 2,
    ]

    def refuse(*args):
        raise AssertionError("len decoded the term map")

    monkeypatch.setattr(poly_module, "_halves", refuse)
    counts = [len(p) for p in samples]
    monkeypatch.setattr(poly_module, "_halves", halves)
    assert counts == [len(p.terms) for p in samples]
    assert counts[0] == 0 and counts[1] == 1


@pytest.mark.parametrize(
    "duplicate",
    [lambda p: pickle.loads(pickle.dumps(p)), copy.copy, copy.deepcopy],
    ids=["pickle", "copy", "deepcopy"],
)
def test_a_rendered_polynomial_copies_with_its_memos(duplicate):
    """After ``str`` and ``terms`` have filled both memos, a pickled or copied
    polynomial is equal to the source and renders the same."""
    p = (poly(Z) + y_var(2)) * (poly(x_var(1, 2)) - 2) ** 2
    text, terms = str(p), p.terms
    q = duplicate(p)
    assert q == p and hash(q) == hash(p)
    assert str(q) == text and q.terms == terms and q.evaluate(POINT) == p.evaluate(POINT)


class TestVariableContract:
    def test_equal_variables_built_apart_hash_and_compare_equal(self):
        for first, second in ((y_var(3), y_var(3)), (x_var(2, 7), x_var(2, 7)), (Z, Variable(0))):
            assert first == second
            assert hash(first) == hash(second)
            assert not first < second and not second < first
        assert {x_var(1, 2): 1}[x_var(1, 2)] == 1

    @pytest.mark.parametrize(
        "fields, message",
        [
            ((2, 3, 9), "y takes one index, got (3, 9)"),  # would print y3, as y_var(3) does
            ((0, 5), "z takes no indices, got (5, 0)"),  # would print z but differ from Z
            ((1, 0, 2), "w takes no indices, got (0, 2)"),
            ((True,), "family must be 0 (z), 1 (w), 2 (y) or 3 (x), got True"),
            ((7,), "family must be 0 (z), 1 (w), 2 (y) or 3 (x), got 7"),
            ((2, 0), "y index must be an integer >= 1, got 0"),
            ((2, True), "y index must be an integer >= 1, got True"),
            ((3, 2, 1), "x indices must be integers with 0 < i < j, got (2, 1)"),
            ((3, 1, 2.0), "x indices must be integers with 0 < i < j, got (1, 2.0)"),
            ((0, 0.0), "z takes no indices, got (0.0, 0)"),
        ],
    )
    def test_fields_the_renderer_cannot_tell_apart_are_refused(self, fields, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            Variable(*fields)

    def test_replace_and_make_are_checked(self):
        assert x_var(1, 2)._replace(b=9) == x_var(1, 9)
        assert Variable._make((2, 4, 0)) == y_var(4)
        with pytest.raises(ValueError, match="x indices"):
            x_var(1, 2)._replace(a=5)
        with pytest.raises(ValueError, match="z takes no indices"):
            Z._replace(a=1)
        with pytest.raises(ValueError, match="y index"):
            Variable._make((2, 0, 0))

    def test_term_keys_hold_variables(self):
        p = (poly(Z) + y_var(1) + x_var(1, 2)) * (poly(W) + y_var(2)) * 3
        for mono in p.terms:
            for v, e in mono:
                assert isinstance(v, Variable)
                assert isinstance(e, int) and e >= 1

    def test_monomial_rejects_a_plain_tuple_key(self):
        with pytest.raises(ValueError):
            monomial({(0, 0, 0): 1})
        with pytest.raises(ValueError):
            monomial([((2, 1, 0), 1)])

    def test_arithmetic_goes_through_polynomials(self):
        assert Z + poly(W) == poly(Z) + poly(W)
        assert y_var(1) * poly(W) == poly(y_var(1)) * poly(W)
        for tuple_arithmetic in (lambda: 2 * Z, lambda: Z * 2, lambda: Z + (1,), lambda: Z + 1):
            with pytest.raises(TypeError):
                tuple_arithmetic()

    def test_degree_and_variables_take_variables_built_apart(self):
        q = (poly(Z) + y_var(4)) * (poly(Z) + y_var(4)) * poly(x_var(2, 4))
        assert degree(q, Variable(0)) == 2
        assert degree(q, y_var(4)) == 2
        assert degree(q, x_var(2, 4)) == 1
        assert degree(q, x_var(1, 4)) == 0
        assert variables(q) == {Variable(0), y_var(4), x_var(2, 4)}
        assert all(isinstance(v, Variable) for v in variables(q))


def test_exponents_are_not_bounded():
    """Exponents of any size are held exactly; none is refused for its size."""
    assert str(poly(Z) ** 2**20) == "z^1048576"
    assert poly(Z) ** 40000 * poly(Z) ** 40000 == poly(Z) ** 80000
    assert (poly(Z) ** 127 * poly(Z)).terms == {((Z, 128),): 1}
    big = poly(W) ** 300 * poly(y_var(2)) ** 5
    assert (big - big * 1 + poly(Z) ** 3).terms == {((Z, 3),): 1}
    assert big * poly(W) ** 40000 == SparsePolynomial.from_terms([({W: 40300, y_var(2): 5}, 1)])


def test_cancellation_drops_the_variables_no_term_uses():
    p = poly(Z) * poly(y_var(1)) + poly(Z) - poly(Z) * poly(y_var(1))
    for q in (poly(Z), SparsePolynomial.from_terms([({Z: 1}, 1)])):
        assert p == q
        assert hash(p) == hash(q)
        assert p.terms == q.terms == {((Z, 1),): 1}
        assert str(p) == str(q) == "z"
    y = poly(y_var(1))
    assert (poly(Z) + y) * (poly(Z) - y) + y**2 == poly(Z) ** 2


# Fourteen variables from all four families, in ring order; more than three
# rings' worth of four-field chunks, so sets drawn from them cross chunk and
# run boundaries in every way.
REFERENCE_VARS = [
    Z,
    W,
    *(y_var(j) for j in (1, 2, 5, 9, 12)),
    *(x_var(i, j) for i, j in ((1, 2), (1, 9), (2, 5), (2, 12), (5, 9), (5, 12), (9, 12))),
]
REFERENCE_POINT = dict(zip(REFERENCE_VARS, (3, -2, 5, -7, 2, 11, -1, 4, -3, 6, 1, -5, 2, 7)))


def _ref_canonical(terms):
    return {mono: c for mono, c in terms.items() if c}


def _ref_add(a, b):
    out = dict(a)
    for mono, c in b.items():
        out[mono] = out.get(mono, 0) + c
    return _ref_canonical(out)


def _ref_mul(a, b):
    out = {}
    for mono_a, ca in a.items():
        for mono_b, cb in b.items():
            powers = dict(mono_a)
            for v, e in mono_b:
                powers[v] = powers.get(v, 0) + e
            mono = tuple(sorted(powers.items()))
            out[mono] = out.get(mono, 0) + ca * cb
    return _ref_canonical(out)


def _ref_evaluate(terms, point):
    total = 0
    for mono, c in terms.items():
        for v, e in mono:
            c *= point[v] ** e
        total += c
    return total


def _ref_substitute(terms, images):
    """Each variable with an image replaced by it, all at once, on tuple-keyed maps."""
    out = {}
    for mono, c in terms.items():
        term = {(): c}
        for v, e in mono:
            for _ in range(e):
                term = _ref_mul(term, images.get(v, {((v, 1),): 1}))
        out = _ref_add(out, term)
    return out


# An int, a variable that has a rule of its own, and a polynomial.
REFERENCE_RULES = {Z: W, W: poly(y_var(12)) - poly(x_var(1, 9)), y_var(2): -2}
REFERENCE_IMAGES = {
    Z: {((W, 1),): 1},
    W: {((y_var(12), 1),): 1, ((x_var(1, 9), 1),): -1},
    y_var(2): {(): -2},
}


@st.composite
def _related_pairs(draw):
    """Two term maps over variable sets that are disjoint, interleaved, nested or overlapping."""
    pool = draw(st.lists(st.sampled_from(REFERENCE_VARS), min_size=2, max_size=14, unique=True))
    pool.sort()
    relation = draw(st.sampled_from(["disjoint", "interleaved", "nested", "overlapping"]))
    if relation == "disjoint":
        cut = draw(st.integers(1, len(pool) - 1))
        sides = "a" * cut + "b" * (len(pool) - cut)
    elif relation == "interleaved":
        sides = "ab" * len(pool)
    else:  # "+" marks a variable both sets hold
        labels = "a+" if relation == "nested" else "ab+"
        sides = draw(st.text(labels, min_size=len(pool), max_size=len(pool)))
    sets = tuple(
        [v for v, side in zip(pool, sides) if side in (mine, "+")] or pool[:1] for mine in "ab"
    )
    if draw(st.booleans()):
        sets = sets[::-1]

    def terms(variables):
        entries = draw(st.lists(
            st.tuples(
                st.dictionaries(
                    st.sampled_from(variables), st.integers(1, 40), max_size=len(variables)
                ),
                st.integers(-6, 6).filter(bool),
            ),
            max_size=5,
        ))
        out = {}
        for powers, c in entries:
            mono = tuple(sorted(powers.items()))
            out[mono] = out.get(mono, 0) + c
        return _ref_canonical(out)

    return terms(sets[0]), terms(sets[1])


def _literal_layout(ref):
    """The ring and width of the canonical polynomial of the term map ``ref``, worked out
    by hand: the sorted variables of its terms, and the narrowest of 8, 16, 32, ... bits
    that keeps its largest exponent's top bit clear."""
    ring = tuple(sorted({v for mono in ref for v, _ in mono}))
    top = max((e for mono in ref for _, e in mono), default=0)
    bits = 8
    while top >= 1 << (bits - 1):
        bits *= 2
    return ring, bits


@given(_related_pairs())
# an insertion before a shared variable
@example(({((Z, 1), (W, 1)): 1}, {((W, 1), (y_var(1), 1)): 1}))
# a constant polynomial against one at width 16
@example(({(): 3}, {((Z, 2), (y_var(1), 200)): -1, ((x_var(1, 2), 1),): 1}))
# interleaved rings, one at width 16 and one at width 8
@example((
    {((Z, 1), (y_var(1), 130)): 2, ((x_var(1, 2), 1),): 1},
    {((W, 3), (y_var(2), 1)): 1, ((x_var(1, 9), 5),): -4},
))
def test_arithmetic_matches_a_literal_dict_of_tuples_reference(pair):
    ref_a, ref_b = pair
    a, b = SparsePolynomial(ref_a), SparsePolynomial(ref_b)
    square = _ref_mul(_ref_mul(ref_a, ref_b), _ref_mul(ref_a, ref_b))  # exponents past 127
    results = [
        (a, ref_a),
        (a + b, _ref_add(ref_a, ref_b)),
        (a - b, _ref_add(ref_a, {m: -c for m, c in ref_b.items()})),
        (a * b, _ref_mul(ref_a, ref_b)),
        ((a * b) * (a * b), square),
        ((a * b) * a, _ref_mul(_ref_mul(ref_a, ref_b), ref_a)),  # one factor past 63
        (a * b - b * a + a, ref_a),  # cancellation back to a's ring
        (a * 3 + b, _ref_add({m: 3 * c for m, c in ref_a.items()}, ref_b)),
    ]
    for p, ref in results:
        rebuilt = SparsePolynomial(ref)
        assert p.terms == ref and (p._ring, p._bits) == _literal_layout(ref)
        assert str(p) == _literal_render(ref)
        assert p.evaluate(REFERENCE_POINT) == _ref_evaluate(ref, REFERENCE_POINT)
        assert p == rebuilt and hash(p) == hash(rebuilt)
    assert (a == b) is (ref_a == ref_b)
    assert (a + b == b + a) and (a * b == b * a)
    for p, ref in ((a, ref_a), (b, ref_b)):
        got, expected = p.substitute(REFERENCE_RULES), _ref_substitute(ref, REFERENCE_IMAGES)
        assert got.terms == expected and got == SparsePolynomial(expected)


SUM_VARS = [Z, W, y_var(1), y_var(5), x_var(1, 5), x_var(2, 3)]
sum_operands = st.one_of(
    st.integers(-2, 2).map(poly),  # zero and constants
    st.builds(
        SparsePolynomial.from_terms,
        st.lists(
            st.tuples(
                st.dictionaries(
                    st.sampled_from(SUM_VARS),
                    st.sampled_from([1, 2, 63, 64, 100, 130]),
                    max_size=3,
                ),
                st.integers(-2, 2),
            ),
            max_size=4,
        ),
    ),
)


def _built(*entries):
    """A polynomial built through ``_packed``, which shares no code with the product kernel."""
    return SparsePolynomial.from_terms(entries)


@given(st.lists(st.tuples(sum_operands, sum_operands), max_size=6))
# every product cancels
@example([(poly(y_var(1)), poly(Z)), (poly(Z), -poly(y_var(1)))])
# x_{1,5} cancels out of the sum, and y_1 reaches 200, past 127
@example([
    (_built(({y_var(1): 100}, 1)), _built(({y_var(1): 100}, 1), ({x_var(1, 5): 1}, 1))),
    (poly(x_var(1, 5)), _built(({y_var(1): 100}, -1))),
    (poly(3), poly(W)),
])
# a factor of two fields at width 8 laid out at width 16
@example([(_built(({y_var(1): 130}, 1)), _built(({Z: 1, W: 1}, 1), ({W: 2}, -1)))])
def test_sum_of_products_matches_the_literal_sum(pairs):
    """One term map for the whole sum equals the literal sum of the literal
    products, down to the canonical ring and width.

    ``*`` itself goes through ``_sum_of_products``, so the expected value
    comes from the dict-of-tuples reference, the ring and width from the
    layout worked out by hand, and the hash from the reference rebuilt
    through the constructor."""
    ref = {}
    for a, b in pairs:
        ref = _ref_add(ref, _ref_mul(a.terms, b.terms))
    got, rebuilt = _sum_of_products(pairs), SparsePolynomial(ref)
    assert got.terms == ref and str(got) == _literal_render(ref)
    assert (got._ring, got._bits) == _literal_layout(ref)
    assert got == rebuilt and hash(got) == hash(rebuilt)


def test_scalar_products_and_negation_go_through_the_one_kernel(monkeypatch):
    """``p * 3``, ``3 * p``, ``p * 0``, ``-p`` and ``p - q`` each call ``_sum_of_products``,
    and each gives the literal reference's terms, ring and width."""
    poly_module = importlib.import_module("parkseq.poly")
    p = _built(({Z: 1, y_var(1): 130}, 2), ({x_var(1, 2): 1}, -1), ({}, 5))  # width 16
    q = _built(({y_var(2): 1}, 7), ({x_var(1, 2): 1}, -1))
    ref_p, ref_q = p.terms, q.terms
    calls = []
    kernel = poly_module._sum_of_products

    def counted(pairs):
        calls.append(pairs)
        return kernel(pairs)

    monkeypatch.setattr(poly_module, "_sum_of_products", counted)
    cases = [
        (lambda: p * 3, {m: 3 * c for m, c in ref_p.items()}),
        (lambda: 3 * p, {m: 3 * c for m, c in ref_p.items()}),
        (lambda: p * 0, {}),
        (lambda: -p, {m: -c for m, c in ref_p.items()}),
        (lambda: p - q, _ref_add(ref_p, {m: -c for m, c in ref_q.items()})),
    ]
    for make, ref in cases:
        calls.clear()
        got = make()
        assert calls
        assert got.terms == ref and (got._ring, got._bits) == _literal_layout(ref)
        assert str(got) == _literal_render(ref) and got == SparsePolynomial(ref)


def test_an_assignment_keeps_copies_of_its_maps():
    """Editing the maps an assignment was built from, after it is built, changes
    neither the assignment nor a value it gives."""
    y, x = {1: 2, 2: 3}, {(1, 2): 1}
    assignment = ParameterAssignment(1, 0, y, x)
    p = poly(y_var(1)) + y_var(2) + x_var(1, 2)
    y[1], x[(1, 2)] = True, 1.5
    y[3] = 4
    assert assignment == (1, 0, {1: 2, 2: 3}, {(1, 2): 1})
    assert p.evaluate(assignment) == 6
    assert assignment.y_vals is not y and assignment.x_vals is not x


EDITS = {
    "item assignment": lambda m, key: m.__setitem__(key, 1.5),
    "del": lambda m, key: m.__delitem__(key),
    "update": lambda m, key: m.update({key: 1.5}),
    "pop": lambda m, key: m.pop(key),
    "clear": lambda m, key: m.clear(),
    "setdefault": lambda m, key: m.setdefault(key, 1.5),
}


@pytest.mark.parametrize("edit", EDITS.values(), ids=EDITS)
def test_an_assignment_refuses_edits_of_its_own_maps(edit):
    """The maps an assignment hands out are read-only, so no edit skips the
    integer check: t over {1, 2} at z = 1, y = (2, 3), x_{1,2} = 1 stays 4."""
    assignment = ParameterAssignment(1, 0, {1: 2, 2: 3}, {(1, 2): 1})
    t = poly(Z) * (poly(Z) + y_var(1) + x_var(1, 2))
    assert t.evaluate(assignment) == 4
    for values, key in ((assignment.y_vals, 1), (assignment.x_vals, (1, 2))):
        with pytest.raises((TypeError, AttributeError)):
            edit(values, key)
    assert assignment == (1, 0, {1: 2, 2: 3}, {(1, 2): 1})
    assert t.evaluate(assignment) == 4


@pytest.mark.parametrize(
    "field, value, where, bad",
    [
        ("z_val", True, "z_val", True),
        ("y_vals", {1: 1.5}, "y_vals[1]", 1.5),
        ("x_vals", {(1, 2): False}, "x_vals[(1, 2)]", False),
    ],
    ids=["z_val", "y_vals", "x_vals"],
)
def test_an_assignment_replace_is_checked_too(field, value, where, bad):
    assignment = ParameterAssignment(1, 0, {1: 2}, {(1, 2): 1})
    assert assignment._replace(z_val=5) == (5, 0, {1: 2}, {(1, 2): 1})
    message = f"{where} must be an integer, got {bad!r}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        assignment._replace(**{field: value})
