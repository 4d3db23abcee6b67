"""Two families of multi-parameter polynomials and their convolution identities.

Ground sets (``IndexSet``), their splits and ``PARTITION_LIMIT`` live here,
and ``_check_identity`` alone decides which ground sets an identity accepts.
For a finite index set A, each member a of A has one linear form

    z + (sum of y_j over j in A with j <= a) + (sum of x_{a,j} over j in A with j > a).

The Sheffer-type family s_A is the product of the forms over every member of
A; the binomial-type family t_A is the main variable times the product over
every member except the maximum, and 1 on the empty set.  ``_forms`` writes
the forms of a set, adding its members one at a time: every earlier form
gains one x term and the new member gets its form.  ``_product`` multiplies
the result, so expansion, exact values and the specializations multiply
forms built by it, specialized before anything is expanded; the head factor
is written from its definition, so a fault in ``_forms`` breaks ``easy``.
Setting all x and y parameters to constants collapses both families to the
classical Abel--Rothe polynomials.

Three identities connect the families:

* ``easy``      — h_A(z) * t_A(z)  ==  z * s_A(z), where the head factor
  h_A = z + (sum of y_j over A) is the last factor of s_A
* ``sheffer``   — s_A(z+w)  ==  sum over splits L, R of A of s_L(z) * t_R(w)
* ``binomial``  — t_A(z+w)  ==  sum over splits B, C of A of t_B(z) * t_C(w)

All sums inside s_L and t_R are taken relative to the sub-ground-set (L, R),
not to A; with A-relative sums the sheffer identity already fails on {1, 2}.
Each identity can be checked symbolically (canonical expansion, small sets)
or probabilistically (exact big-integer evaluation at seeded random points).
A member depends on A only through the order of its labels: over an
increasing k-set A it is the member over {1..k} with y_j renamed y_{A[j]}
and x_{i,j} renamed x_{A[i],A[j]}.  So ``_expand`` multiplies out each
member once per size and family, at z, and ``t_poly`` and ``s_poly``
relabel it onto A with ``poly._relabelled``, putting z or w in for z; the
relabelled member shares the term map of the one over {1..k}.
``identity_sides`` does the same with whole sides: ``_sides`` builds both
over {1..k} once per identity and size, the left side of a convolution
multiplied out at z + w and the right side adding
its 2^k split products into one term map (``poly._sum_of_products``).  A
right side equal to the left is the left side itself, and it stays one
polynomial when relabelled, so the two sides decode and print once.
Printing, and what the relabelled copies of a side share for it, is
``poly``'s.
The exact right side of a convolution is the top coefficient of a subset
convolution, summed by a blocked subset transform: the splits of the (at
most ``_BLOCK``) smallest members of A are laid out as lists indexed by
bitmask, one pair of lists per split of the other members, so list
operations in C do the work of each split.  A split costs O(|A|) products
and sums, and the lists hold 2^``_BLOCK`` values at most, whatever |A| is.

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
from operator import add, mul
from typing import Iterable, Iterator, Literal, Mapping

from .core import SizesLike, _check_count, _check_integer, _check_z, _is_int, as_car_sizes
from .counting import CountReport, count_by_formula
from .poly import (
    ParameterAssignment,
    SparsePolynomial,
    Variable,
    W,
    Z,
    _relabelled,
    _sum_of_products,
    poly,
    x_var,
    y_var,
)

SYMBOLIC_BUDGET = 5
PARTITION_LIMIT = 30  # the most members whose 2^k splits are summed
_BLOCK = 10  # _split_sum lists one value per subset of A's _BLOCK smallest members
IdentityName = Literal["easy", "sheffer", "binomial"]
_IDENTITIES = ("easy", "sheffer", "binomial")


class IndexSet(tuple):
    """Strictly increasing tuple of positive integers: a ground set.

    The families and their convolutions read a member's place among the
    labels, so a ground set keeps its members in increasing order, and so
    do both sides of each of its splits.
    """

    __slots__ = ()

    def __new__(cls, elems: Iterable[int] = ()) -> "IndexSet":
        t = tuple(elems)
        for e in t:
            if not _is_int(e) or e < 1:
                raise ValueError(f"index sets hold integers >= 1, got {e!r}")
        for a, b in zip(t, t[1:]):
            if a >= b:
                raise ValueError(f"index set must be strictly increasing, got {t}")
        return super().__new__(cls, t)

    @classmethod
    def first(cls, n: int) -> "IndexSet":
        """The set {1, ..., n}."""
        return cls(range(1, n + 1))


def _as_index_set(A: IndexSet | Iterable[int]) -> IndexSet:
    return A if isinstance(A, IndexSet) else IndexSet(A)


def partitions_into_two(ground: IndexSet | Iterable[int]) -> Iterator[tuple[IndexSet, IndexSet]]:
    """Every ordered pair (left, right) of disjoint sets covering ``ground``.

    Yields exactly ``2**len(ground)`` pairs, in ascending order of the left
    set's characteristic bitmask (bit b set means the b-th smallest element
    belongs to the left set).
    """
    g = _as_index_set(ground)
    _check_partition_count(len(g))
    return _partition_stream(g)


def _check_partition_count(k: int) -> None:
    """Refuse to sum over the ``2**k`` splits of a ground set past ``PARTITION_LIMIT``."""
    if k > PARTITION_LIMIT:
        raise ValueError(f"refusing to stream 2^{k} decompositions (limit 2^{PARTITION_LIMIT})")


def _partition_stream(g: IndexSet) -> Iterator[tuple[IndexSet, IndexSet]]:
    for mask in range(1 << len(g)):
        left = IndexSet(e for b, e in enumerate(g) if mask >> b & 1)
        right = IndexSet(e for b, e in enumerate(g) if not mask >> b & 1)
        yield left, right


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
    with j running over A.  The forms grow one member b at a time: every
    earlier form gains its x term with b, read once, and b's own form is the
    main variable plus the y's so far.  Ints and polynomials work alike.
    """
    A = tuple(A)
    forms, lower = [], at
    for i, b in enumerate(A):
        lower += y[b]
        forms = [*map(add, forms, [x[a, b] for a in A[:i]]), lower]
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
def _expand(k: int, family: str) -> SparsePolynomial:
    """The ``family`` member over {1..k}, multiplied out."""
    A = IndexSet.first(k)
    return poly(_product(A, family, poly(Z), *_symbols(A)))


def _member(A: IndexSet, family: str, zvar: Variable) -> SparsePolynomial:
    """The ``family`` member over A with ``zvar``, z or w, for the main variable:
    the member over {1..|A|}, relabelled."""
    if not isinstance(zvar, Variable) or zvar not in (Z, W):
        raise ValueError(f"zvar must be the Variable Z or W, got {zvar!r}")
    return _relabelled(_expand(len(A), family), A, zvar)


def t_poly(A: IndexSet | Iterable[int], zvar: Variable = Z) -> SparsePolynomial:
    """Binomial-type family member over A, expanded and canonical.

    ``zvar`` times the product of the linear forms over every member of A
    except the maximum; 1 on the empty set.  The member is multiplied out
    once per size, over {1..|A|} at z, and ``poly._relabelled`` relabels
    it onto A with ``zvar`` for z, sharing its term map.  ``zvar`` is the
    Variable ``Z`` or ``W``; anything else is refused with a ``ValueError``.
    """
    return _member(_as_index_set(A), "t", zvar)


def s_poly(A: IndexSet | Iterable[int], zvar: Variable = Z) -> SparsePolynomial:
    """Sheffer-type family member over A: the full product of linear forms.

    Multiplied out once per size and relabelled onto A by
    ``poly._relabelled``, sharing its term map, as in ``t_poly``.
    """
    return _member(_as_index_set(A), "s", zvar)


def _check_identity(identity: str, A: IndexSet) -> None:
    """The one check of the ground sets an identity accepts: refuses an unknown identity,
    ``easy`` on the empty set and a convolution on more than ``PARTITION_LIMIT`` members."""
    if identity == "easy":
        if not A:
            raise ValueError("the head-factor identity needs a nonempty ground set")
    elif identity in _IDENTITIES:
        _check_partition_count(len(A))
    else:
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
    ``budget`` to lift it deliberately.  Both sides are built once per
    identity and size, over {1..|A|} (``_sides``), and ``poly._relabelled``
    relabels them onto A, sharing their term maps.  Equal sides are one
    polynomial, relabelled once, so ``lhs is rhs``; the polynomial is
    immutable, and it keeps the text and term map it renders, so the second
    side costs nothing.
    """
    A = _as_index_set(A)
    _check_identity(identity, A)
    _check_integer(budget, "budget")
    if len(A) > budget:
        raise ValueError(
            f"|A| = {len(A)} exceeds the symbolic expansion budget {budget};"
            " use random_identity_check instead"
        )
    lhs, rhs = _sides(identity, len(A))
    left = _relabelled(lhs, A)
    return left, left if rhs is lhs else _relabelled(rhs, A)


@lru_cache(maxsize=None)
def _sides(identity: str, k: int) -> tuple[SparsePolynomial, SparsePolynomial]:
    """Both sides of ``identity`` over {1..k}, as summed.

    The left side of a convolution is multiplied out at z + w here, once per
    size.  A right side equal to the left is the left side itself, which
    ``identity_sides`` relabels once; a right side that differs is kept as summed.
    """
    A = IndexSet.first(k)
    z = poly(Z)
    if identity == "easy":
        head = sum(_symbols(A)[0].values(), z)  # z + the sum of y_j over A
        lhs, rhs = head * t_poly(A), z * s_poly(A)
    else:
        family, expand = ("s", s_poly) if identity == "sheffer" else ("t", t_poly)
        pairs = ((expand(left), t_poly(right, zvar=W)) for left, right in partitions_into_two(A))
        lhs, rhs = poly(_product(A, family, z + poly(W), *_symbols(A))), _sum_of_products(pairs)
    return lhs, lhs if rhs == lhs else rhs


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

    A blocked subset transform.  The k = min(|A|, ``_BLOCK``) smallest
    members of A form the block, and bit p of a block index l stands for
    ``A[p]``.  For each subset h of the other members, one list holds the
    left side over h + l and one the right side over the rest of A, for
    every l; the right side of l sits at index 2^k - 1 - l, so one ``map``
    over the left list and the reversed right one sums the 2^k splits that
    put h on the left.  Nothing is divided, so zero forms are safe, and the
    lists hold 2^k values for any |A|.
    """
    low, high = A[:_BLOCK], A[_BLOCK:]
    sums = [0]  # sums[l]: the y's of the members in l
    for a in low:
        sums += [s + y[a] for s in sums]
    # Member p sits at the indices (2u + 1) * 2^p + v for v < 2^p and
    # u < 2^(k - p - 1), where its form is a term fixed by the side plus
    # sums[v] plus above[u], its x's with the members above it that u picks.
    members = []
    for p, a in enumerate(low):
        above = [0]
        for b in low[p + 1 :]:
            above += [s + x[a, b] for s in above]
        members.append((a, 1 << p, above))

    def values(family: str, at: int, h: list) -> list:
        """``family`` at ``at`` over h + l, for every block index l."""
        vals = [1] * len(sums) if family == "s" else [at] * len(sums)
        top = family == "t" and not h  # then t drops the form of l's top member
        if h:
            forms = _forms(h, at, y, x)  # a member of h gains sums[l] in h + l
            if family == "t":
                del forms[-1]  # the maximum's, h's last member
            for form in forms:
                vals = [v * (form + s) for v, s in zip(vals, sums)]
        elif top:
            vals[0] = 1  # t is 1 on the empty set
        # Each form goes in by one slice per v or one per u, whichever are
        # fewer; with ``top`` set, u = 0 is left out: there p is l's top member.
        for a, half, above in members:
            fixed = at + y[a]
            for b in h:
                fixed += x[a, b]
            if half < len(above):
                step = 2 * half
                start, rows = (half + step, above[1:]) if top else (half, above)
                for v in range(half):
                    c, at_v = fixed + sums[v], slice(start + v, None, step)
                    vals[at_v] = [e * (c + r) for e, r in zip(vals[at_v], rows)]
            else:
                for u in range(top, len(above)):
                    c, at_u = fixed + above[u], slice((2 * u + 1) * half, (2 * u + 2) * half)
                    vals[at_u] = [e * (c + s) for e, s in zip(vals[at_u], sums)]
        return vals

    total = 0
    for mask in range(1 << len(high)):
        h, rest = [], []
        for i, b in enumerate(high):
            (h if mask >> i & 1 else rest).append(b)
        total += sum(map(mul, values(family, z, h), reversed(values("t", w, rest))))
    return total


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

    A convolution's right side is summed by ``_split_sum``, a blocked
    subset transform whose lists of at most 2^``_BLOCK`` values multiply
    out the splits of A's smallest members together; ``_check_identity``
    refuses a set of more than ``PARTITION_LIMIT`` members before any work.

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
        return (z + sum(y[j] for j in A)) * _family("t", z, forms), z * math.prod(forms)
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
    assignment drawn from ``random.Random(seed)``.
    """
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
    ``identity_value_sides``' blocked subset transform, which sums all
    2^|A| splits at O(|A|) products and sums each, done by list operations
    in C rather than one interpreter step per split, so a trial on |A| + 1
    members costs about two on |A|.  The difference of the two sides has
    total degree <= |A| + 1 and every variable is uniform over the
    2*10^6 + 1 integers drawn, so by the Schwartz--Zippel lemma a false
    identity passes one trial with probability <= (|A| + 1) / (2*10^6 + 1),
    and ``trials`` independent trials with at most that bound raised to the
    power ``trials``.  As in every entry point, ``_check_identity`` refuses
    ``easy`` on the empty set and a convolution past ``PARTITION_LIMIT``
    members before any point is drawn; on the empty set both convolutions
    are 1 = 1 at every point.
    """
    A = _as_index_set(A)
    _check_identity(identity, A)
    _check_count(trials, "trials")
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
    the sheffer right side at the parking point and w = 1, by the blocked
    subset transform of ``_split_sum``.  ``tuples_scanned`` is the number of
    splits, 2**n.
    """
    cars = as_car_sizes(sizes)
    _check_z(z)
    if not _is_int(next_size) or next_size < 1:
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
