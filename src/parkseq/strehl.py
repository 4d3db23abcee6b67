"""Two families of multi-parameter polynomials and their convolution identities.

For a finite index set A, each member a of A has one linear form

    z + (sum of y_j over j in A with j <= a) + (sum of x_{a,j} over j in A with j > a).

The Sheffer-type family s_A is the product of the forms over every member of
A; the binomial-type family t_A is the main variable times the product over
every member except the maximum, and 1 on the empty set.  ``_join`` is the
one place the forms are written: it adds one member to a set, growing every
earlier form by one x term and giving the new member its form.  ``_forms``
folds it over A and ``_product`` multiplies the result, so expansion, exact
values, the head factor and the specializations all multiply forms built by
it, specialized before anything is expanded.  Setting all x and all y parameters to constants
collapses both families to the classical Abel--Rothe polynomials.

Three identities connect the families:

* ``easy``      — h_A(z) * t_A(z)  ==  z * s_A(z), where the head factor
  h_A = z + (sum of y_j over A) is the last factor of s_A
* ``sheffer``   — s_A(z+w)  ==  sum over splits L, R of A of s_L(z) * t_R(w)
* ``binomial``  — t_A(z+w)  ==  sum over splits B, C of A of t_B(z) * t_C(w)

All sums inside s_L and t_R are taken relative to the sub-ground-set (L, R),
not to A; with A-relative sums the sheffer identity already fails on {1, 2}.
Each identity can be checked symbolically (canonical expansion, small sets)
or probabilistically (exact big-integer evaluation at seeded random points).
The exact right side of a convolution comes from a depth-first search over
the members of A in increasing order.  x is read once, one column per
member, and each member joins the left or the right side through ``_join``,
so splits that share a prefix share its forms and no (a, b) key is built per
form.  The last member joins inside the leaf pair, which multiplies out both
splits it completes: a split costs O(|A|) beyond its two products, and the
search holds O(|A|^2) values.

At the parking point (A = {1..n}, all x = 1, y_j the j-th car size) t_A(z)
is F(sizes, z), the closed-form parking count, and z * s_L(z) * t_R(1) is
the recurrence term (z + sum of L's sizes) * F(L, z) * F(R, 1), so
``verify_recurrence`` sums z times the sheffer right side at w = 1.
"""

from __future__ import annotations

import math
import random
from functools import lru_cache
from itertools import combinations
from operator import add
from typing import Iterable, Iterator, Literal, Mapping

from .core import SizesLike, _check_z, as_car_sizes
from .counting import (
    CountReport,
    IndexSet,
    _as_index_set,
    _check_partition_count,
    count_by_formula,
    partitions_into_two,
)
from .poly import (
    ParameterAssignment,
    SparsePolynomial,
    Variable,
    W,
    Z,
    _check_integer,
    poly,
    x_var,
    y_var,
)

SYMBOLIC_BUDGET = 5
IdentityName = Literal["easy", "sheffer", "binomial"]
_IDENTITIES = ("easy", "sheffer", "binomial")


def _join(forms: list, places: Iterable[int], col: list, lower) -> list:
    """The forms of a side after a member b, larger than all of its members, joins it.

    ``forms[k]`` is the linear form of the member at position ``places[k]``
    of the ground set A, and ``col`` is b's column of x,
    ``col[p] = x[A[p], b]``: every form already there gains its member's x
    term, and ``lower``, the main variable plus the y's of the side's members
    and of b, becomes b's own form.  Ints and polynomials work alike.
    """
    return [*map(add, forms, map(col.__getitem__, places)), lower]


def _columns(A: tuple, x: Mapping) -> list:
    """x read by column: ``cols[i][p] = x[A[p], A[i]]`` for every p < i."""
    return [[x[a, b] for a in A[:i]] for i, b in enumerate(A)]


def _family(family: str, at, forms: list):
    """The ``family`` ("t" or "s") member with these forms, multiplied out.

    s multiplies every form; t multiplies ``at`` and every form but the
    maximum's, and is 1 on the empty set.
    """
    if family == "s":
        return math.prod(forms)
    return math.prod(forms[:-1], start=at) if forms else 1


def _forms(A: Iterable[int], at, y: Mapping, x: Mapping) -> list:
    """The linear forms of the members of A, in increasing order.

    Member a's form is ``at + sum(y[j] for j <= a) + sum(x[a, j] for j > a)``
    with j running over A, grown one member at a time by ``_join``.
    """
    A = tuple(A)
    forms, lower = [], at
    for i, col in enumerate(_columns(A, x)):
        lower += y[A[i]]
        forms = _join(forms, range(i), col, lower)
    return forms


def _product(A: Iterable[int], family: str, at, y: Mapping, x: Mapping):
    """The ``family`` ("t" or "s") member over A, as the product of its factors.

    ``at`` stands in for the main variable, ``y[j]`` for y_j and ``x[a, j]``
    for x_{a,j}.
    """
    return _family(family, at, _forms(A, at, y, x))


def _symbols(A: IndexSet) -> tuple[dict, dict]:
    """The y and x parameters over A as polynomials, keyed as ``_product`` reads them."""
    return (
        {j: poly(y_var(j)) for j in A},
        {(a, j): poly(x_var(a, j)) for a, j in combinations(A, 2)},
    )


@lru_cache(maxsize=None)
def _expand(A: IndexSet, family: str, zvar: Variable) -> SparsePolynomial:
    return poly(_product(A, family, poly(zvar), *_symbols(A)))


def t_poly(A: IndexSet | Iterable[int], zvar: Variable = Z) -> SparsePolynomial:
    """Binomial-type family member over A, expanded and canonical.

    ``zvar`` times the product of the linear forms over every member of A
    except the maximum; 1 on the empty set.
    """
    return _expand(_as_index_set(A), "t", zvar)


def s_poly(A: IndexSet | Iterable[int], zvar: Variable = Z) -> SparsePolynomial:
    """Sheffer-type family member over A: the full product of linear forms."""
    return _expand(_as_index_set(A), "s", zvar)


def _check_identity(identity: str, A: IndexSet) -> None:
    if identity == "easy":
        if not A:
            raise ValueError("the head-factor identity needs a nonempty ground set")
    elif identity not in _IDENTITIES:
        raise ValueError(f"unknown identity {identity!r}, expected one of {_IDENTITIES}")


def identity_sides(
    identity: IdentityName,
    A: IndexSet | Iterable[int],
    *,
    budget: int = SYMBOLIC_BUDGET,
) -> tuple[SparsePolynomial, SparsePolynomial]:
    """Symbolic left and right sides of one identity over ground set A.

    Every identity expands family members whose term counts grow
    exponentially in |A|, and the convolutions also enumerate ``2**|A|``
    decompositions, so all three carry a size guard; pass a larger
    ``budget`` to lift it deliberately.
    """
    A = _as_index_set(A)
    _check_identity(identity, A)
    _check_integer(budget, "budget")
    if len(A) > budget:
        raise ValueError(
            f"|A| = {len(A)} exceeds the symbolic expansion budget {budget};"
            " use random_identity_check instead"
        )
    z = poly(Z)
    if identity == "easy":
        head = _forms(A, z, *_symbols(A))[-1]
        return head * t_poly(A), z * s_poly(A)
    family, expand = ("s", s_poly) if identity == "sheffer" else ("t", t_poly)
    lhs = poly(_product(A, family, z + poly(W), *_symbols(A)))
    rhs = poly(0)
    for left, right in partitions_into_two(A):
        rhs = rhs + expand(left) * t_poly(right, zvar=W)
    return lhs, rhs


def check_easy_identity(A: IndexSet | Iterable[int], *, budget: int = SYMBOLIC_BUDGET) -> bool:
    """Head-factor identity: true iff both sides expand to the same polynomial."""
    lhs, rhs = identity_sides("easy", A, budget=budget)
    return lhs == rhs


def check_sheffer_convolution(
    A: IndexSet | Iterable[int], *, budget: int = SYMBOLIC_BUDGET
) -> bool:
    """Sheffer-type convolution over all ordered splits of A, symbolically."""
    lhs, rhs = identity_sides("sheffer", A, budget=budget)
    return lhs == rhs


def check_binomial_convolution(
    A: IndexSet | Iterable[int], *, budget: int = SYMBOLIC_BUDGET
) -> bool:
    """Binomial-type convolution over all ordered splits of A, symbolically."""
    lhs, rhs = identity_sides("binomial", A, budget=budget)
    return lhs == rhs


def s_value(A: Iterable[int], assignment: ParameterAssignment, at: int) -> int:
    """Exact value of the Sheffer-type product at integer arguments.

    ``at`` stands in for the main variable; the integer factors are
    multiplied without any symbolic expansion, giving the same number as
    ``s_poly(A).evaluate(...)``.
    """
    return _product(A, "s", at, assignment.y_vals, assignment.x_vals)


def t_value(A: Iterable[int], assignment: ParameterAssignment, at: int) -> int:
    """Exact value of the binomial-type product at integer arguments."""
    return _product(A, "t", at, assignment.y_vals, assignment.x_vals)


def _split_sum(A: IndexSet, family: str, z: int, w: int, y: Mapping, x: Mapping) -> int:
    """Sum of ``family``_L(z) * t_R(w) over every split (L, R) of A.

    A depth-first search over the members of A in increasing order: each one
    joins the left side (main variable z) or the right side (w) through
    ``_join``, so splits that share a prefix share its forms.  x is read once,
    by column; each side travels as its forms, its ``lower`` and the
    positions of its members, and the last member joins inside the leaf
    pair, which multiplies out both of its splits.  The search holds four
    sides per level, O(|A|^2) values.
    """
    if not A:
        return 1
    cols, ys, last = _columns(A, x), [y[b] for b in A], len(A) - 1

    def grow(i, left, lplaces, llower, right, rplaces, rlower) -> int:
        col, lnext, rnext = cols[i], llower + ys[i], rlower + ys[i]
        joined_left = _join(left, lplaces, col, lnext)
        joined_right = _join(right, rplaces, col, rnext)
        if i == last:  # the leaf pair: A[i] joins the left side, or the right
            on_left = _family(family, z, joined_left) * _family("t", w, right)
            return on_left + _family(family, z, left) * _family("t", w, joined_right)
        return grow(i + 1, joined_left, (*lplaces, i), lnext, right, rplaces, rlower) + grow(
            i + 1, left, lplaces, llower, joined_right, (*rplaces, i), rnext
        )

    return grow(0, [], (), z, [], (), w)


def _omitted_split(identity: str, A: IndexSet, omit) -> tuple[tuple, tuple] | None:
    """``omit`` as a pair of tuples, refused if it names no split of A or comes with easy."""
    if omit is None:
        return None
    if identity == "easy":
        raise ValueError(f"omit names a split of a convolution sum; easy has none, got omit={omit!r}")
    sides = tuple(tuple(side) for side in omit)
    members = [j for side in sides for j in side]
    if (
        len(sides) != 2
        or len(members) != len(A)
        or set(members) != set(A)
        or any(a >= b for side in sides for a, b in zip(side, side[1:]))
    ):
        raise ValueError(
            f"omit must name one split of A = {tuple(A)}: two strictly increasing,"
            f" disjoint sides whose union is A, got omit={omit!r}"
        )
    return sides


def identity_value_sides(
    identity: IdentityName,
    A: IndexSet | Iterable[int],
    assignment: ParameterAssignment,
    *,
    omit: tuple[Iterable[int], Iterable[int]] | None = None,
) -> tuple[int, int]:
    """Exact integer left and right sides of an identity at one assignment.

    A convolution's right side is summed by ``_split_sum``, a depth-first
    search that builds the forms of splits with a common prefix once and
    multiplies out the last member's two splits together; a set of more
    than ``PARTITION_LIMIT`` members is refused before any work.

    ``omit`` drops a single (left, right) decomposition from a convolution
    sum; dropping any term must break the identity, which is how the
    randomized check is shown to have teeth.  It must name one split of A,
    both sides strictly increasing, and is refused for ``easy``.
    """
    A = _as_index_set(A)
    _check_identity(identity, A)
    omit = _omitted_split(identity, A, omit)
    z, w, y, x = assignment.z_val, assignment.w_val, assignment.y_vals, assignment.x_vals
    if identity == "easy":
        forms = _forms(A, z, y, x)
        return forms[-1] * _family("t", z, forms), z * math.prod(forms)
    _check_partition_count(len(A))
    family = "s" if identity == "sheffer" else "t"
    rhs = _split_sum(A, family, z, w, y, x)
    if omit is not None:  # taking its term back out equals leaving the split out
        left, right = omit
        rhs -= _product(left, family, z, y, x) * _product(right, "t", w, y, x)
    return _product(A, family, z + w, y, x), rhs


def _trial_sides(
    identity: str, A: IndexSet, trials: int, seed: int, omit=None
) -> Iterator[tuple[int, int]]:
    """The exact ``(lhs, rhs)`` of each trial, at points drawn from ``seed``.

    The one place the trials are seeded: trial k evaluates the k-th
    assignment drawn from ``random.Random(seed)``.  On the empty ground set
    every identity is 1 = 1, yielded once.
    """
    if not A:
        yield 1, 1
        return
    rng = random.Random(seed)
    for _ in range(trials):
        yield identity_value_sides(identity, A, ParameterAssignment.random_for(A, rng), omit=omit)


def random_identity_check(
    identity: IdentityName,
    A: IndexSet | Iterable[int],
    trials: int = 20,
    seed: int = 0,
    *,
    omit: tuple[Iterable[int], Iterable[int]] | None = None,
) -> bool:
    """Probabilistic identity check by exact evaluation at random points.

    Draws ``trials`` assignments with values uniform in [-10^6, 10^6] from a
    generator seeded with ``seed`` and compares both sides exactly; any
    disagreement ends the check.  A convolution's right side comes from
    ``identity_value_sides``' split search, which walks all 2^|A| splits
    but builds the forms of a common prefix once, so a split costs O(|A|)
    additions beyond its two products.  The difference of the two sides has
    total degree <= |A| + 1 and every variable is uniform over the
    2*10^6 + 1 integers drawn, so by the Schwartz--Zippel lemma a false
    identity passes one trial with probability <= (|A| + 1) / (2*10^6 + 1),
    and ``trials`` independent trials with at most that bound raised to the
    power ``trials``.  On the empty ground set every identity degenerates to
    1 = 1 and the answer is True for any seed.
    """
    A = _as_index_set(A)
    if identity not in _IDENTITIES:
        raise ValueError(f"unknown identity {identity!r}, expected one of {_IDENTITIES}")
    _check_integer(trials, "trials")
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials!r}")
    _check_integer(seed, "seed")
    omit = _omitted_split(identity, A, omit)
    return all(lhs == rhs for lhs, rhs in _trial_sides(identity, A, trials, seed, omit))


def _parking_point(sizes: tuple[int, ...]) -> tuple[IndexSet, dict, dict]:
    """The parking point ``(A, y, x)``: A = {1..n}, y_j the j-th car size, every x 1."""
    A = IndexSet.first(len(sizes))
    return A, dict(zip(A, sizes)), dict.fromkeys(combinations(A, 2), 1)


def f_as_t_specialization(sizes: SizesLike, z_val: int) -> int:
    """Parking-sequence count obtained from the binomial-type family.

    Specializes the factors of t over {1..n} at the parking point (every x
    parameter 1, every y_j the j-th car size, the main variable ``z_val``)
    and multiplies them exactly.  Must agree with the closed-form product
    for every input.
    """
    cars = as_car_sizes(sizes)
    _check_z(z_val)
    A, y, x = _parking_point(cars.sizes)
    return _product(A, "t", z_val, y, x)


def verify_recurrence(sizes: SizesLike, next_size: int, z: int) -> CountReport:
    """Check the decomposition recurrence for appending one more car.

    The left side is the closed form F for ``sizes`` extended by
    ``next_size``; the right side sums (z + sum of L's sizes) * F(L, z) *
    F(R, 1) over every ordered split (L, R) of the car indices, as z times
    the sheffer right side at the parking point and w = 1, by the split
    search.  ``tuples_scanned`` is the number of splits, 2**n.
    """
    cars = as_car_sizes(sizes)
    _check_z(z)
    if not isinstance(next_size, int) or isinstance(next_size, bool) or next_size < 1:
        raise ValueError(f"next car size must be an integer >= 1, got {next_size!r}")
    _check_partition_count(cars.n)
    A, y, x = _parking_point(cars.sizes)
    rhs = z * _split_sum(A, "s", z, 1, y, x)
    lhs = count_by_formula(cars.sizes + (next_size,), z)
    return CountReport.compare(rhs, lhs, 1 << cars.n)


def abel_rothe_specialize(
    A: IndexSet | Iterable[int],
    which: Literal["t", "s"],
    xi: int,
    eta: int,
) -> SparsePolynomial:
    """Collapse a family member to a univariate polynomial in the main variable.

    Every x parameter becomes the constant ``xi`` and every y parameter the
    constant ``eta`` in each factor before the univariate factors are
    multiplied; the result is the classical Abel--Rothe shape.  For the
    binomial-type family over {1..n} it equals
    ``z * prod_{a=1}^{n-1} (z + a*eta + (n-a)*xi)``.
    """
    A = _as_index_set(A)
    if which not in ("t", "s"):
        raise ValueError(f"which must be 't' or 's', got {which!r}")
    _check_integer(xi, "xi")
    _check_integer(eta, "eta")
    y = dict.fromkeys(A, eta)
    x = dict.fromkeys(combinations(A, 2), xi)
    return poly(_product(A, which, poly(Z), y, x))
