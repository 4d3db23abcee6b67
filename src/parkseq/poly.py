"""Exact sparse multivariate polynomial arithmetic over the integers.

Variables come in four families: the main indeterminate ``z``, its
convolution partner ``w``, one ``y_j`` per positive index j, and one
``x_{i,j}`` per index pair i < j.  A variable is a named tuple
``(family, a, b)`` with families numbered z = 0, w = 1, y = 2, x = 3, so
tuple order is the total order z < w < y_1 < y_2 < ... < x_{1,2} < x_{1,3}
< ... .  A monomial, as callers see it, is a tuple of (variable, exponent)
pairs sorted by variable.

Inside, a polynomial holds the sorted tuple of the variables its terms use,
its *ring*, and a dict from packed monomials to nonzero integer
coefficients.  A packed monomial is one int with a field per ring variable,
the first variable in the most significant field, holding its exponent, so
the product of two monomials over one ring is the sum of their ints.  Every
field has the same width: the narrowest of 8, 16, 32, ... bits that keeps
each field's top bit clear, so the sum of two exponents never carries into
the next field.  Operands over different rings or widths are first laid out
over the union of their rings, at the widest width, by moving whole runs of
adjacent fields.  Every product, alone or in a sum, goes through one kernel,
``_sum_of_products``, and ``_trimmed`` alone decides whether a result of
``+`` or ``*`` must be re-packed.  The representation is canonical: no zero
coefficient is stored, the ring holds exactly the variables some term uses
(cancellation drops the others) and the width is the narrowest that fits,
so equality of polynomials is equality of ring, width and term map.  ``str``
lists the terms in increasing order of their (variable, exponent) tuples,
and ``terms`` is the map keyed by those tuples.  ``str`` fills in a print
template, the text with ``{i}`` for the name of the i-th ring variable, by
one ``format`` over the ring's names.  ``_template_of`` alone builds it,
with ``_printed_order`` the one sort.  Every polynomial's ``_template`` is
a one-element list, the cell, its own unless ``_relabelled`` hands it its
source's: relabelling indices onto increasing labels keeps every key and
its printed place, so the first ``str`` of a source or any copy fills the
cell for all of them.  A polynomial keeps what it renders: its text, from
the first ``str``, and its decoded term map, from the first ``terms``,
``evaluate`` or ``substitute``, so a repeat of any of them decodes and
formats nothing.
The memos live on the polynomial and go with it; ``poly`` keeps no memo of
its own.  One encoder, ``_packed``, packs monomials, for the two
constructors and ``_trimmed``; one decoder, ``_decoded`` over the memoized
pieces of ``_Pieces``, unpacks them, for ``_keyed_terms``,
``_template_of`` and ``_trimmed``.  ``terms`` copies the map of
``_keyed_terms``, and ``evaluate`` and ``substitute`` both fold it in
``_folded``.  There is no floating point anywhere in this module.
"""

from __future__ import annotations

import random
from bisect import bisect_left
from collections import namedtuple
from functools import reduce
from math import prod
from operator import or_
from types import MappingProxyType
from typing import Callable, Iterable, Mapping

from .core import _check_integer, _is_int

_FAM_Z = 0
_FAM_W = 1
_FAM_Y = 2
_FAM_X = 3

_BITS = 8  # the narrowest field width; wider exponents double it as often as needed
_LEAF = 4  # fields that ``terms`` and ``str`` decode together, once per value


class Variable(namedtuple("_Variable", "family a b", defaults=(0, 0))):
    """One indeterminate; ordering is (family, first index, second index).

    Being a tuple, it equals the plain tuple ``(family, a, b)``, but only a
    ``Variable`` is accepted as a monomial key.  The fields are checked, so
    no two variables render alike: the family is 0 (z), 1 (w), 2 (y) or
    3 (x); z and w take no indices, y one index >= 1 and x two indices
    0 < i < j.  Anything else, a ``bool`` included, is refused with a
    ``ValueError``, by ``_replace`` too.
    """

    __slots__ = ()

    def __new__(cls, family: int, a: int = 0, b: int = 0) -> "Variable":
        if not _is_int(family) or not _FAM_Z <= family <= _FAM_X:
            raise ValueError(f"family must be 0 (z), 1 (w), 2 (y) or 3 (x), got {family!r}")
        if family == _FAM_X:
            if not (_is_int(a) and _is_int(b) and 0 < a < b):
                raise ValueError(f"x indices must be integers with 0 < i < j, got ({a!r}, {b!r})")
        elif family == _FAM_Y:
            if not _is_int(a) or a < 1:
                raise ValueError(f"y index must be an integer >= 1, got {a!r}")
            if not _is_int(b) or b:
                raise ValueError(f"y takes one index, got ({a!r}, {b!r})")
        elif not (_is_int(a) and _is_int(b)) or a or b:
            raise ValueError(f"{'zw'[family]} takes no indices, got ({a!r}, {b!r})")
        return super().__new__(cls, family, a, b)

    @classmethod
    def _make(cls, fields: Iterable[int]) -> "Variable":
        return cls(*fields)  # so that _replace is checked too

    def __repr__(self) -> str:
        if self.family == _FAM_Z:
            return "z"
        if self.family == _FAM_W:
            return "w"
        if self.family == _FAM_Y:
            return f"y{self.a}"
        return f"x{self.a}_{self.b}"

    __str__ = __repr__

    def __add__(self, other: object):
        # arithmetic goes through polynomials, never tuple concatenation or repetition
        return NotImplemented

    __radd__ = __mul__ = __rmul__ = __add__


Z = Variable(_FAM_Z)
W = Variable(_FAM_W)


def y_var(j: int) -> Variable:
    """The size parameter attached to index j."""
    return Variable(_FAM_Y, j)


def x_var(i: int, j: int) -> Variable:
    """The pair parameter attached to indices i < j."""
    return Variable(_FAM_X, i, j)


# A monomial is a tuple of (Variable, exponent) pairs, sorted by variable,
# every exponent >= 1.  The empty tuple is the constant monomial.
Monomial = tuple[tuple[Variable, int], ...]
Ring = tuple[Variable, ...]


def monomial(powers: Mapping[Variable, int] | Iterable[tuple[Variable, int]]) -> Monomial:
    """Canonical monomial from a variable -> exponent mapping.

    Zero exponents are dropped, duplicates merged; negative exponents are
    rejected.
    """
    merged: dict[Variable, int] = {}
    items = powers.items() if isinstance(powers, Mapping) else powers
    for v, e in items:
        if not isinstance(v, Variable):
            raise ValueError(f"monomial keys must be Variables, got {v!r}")
        if not _is_int(e) or e < 0:
            raise ValueError(f"exponent of {v} must be an integer >= 0, got {e!r}")
        merged[v] = merged.get(v, 0) + e
    return tuple(sorted((v, e) for v, e in merged.items() if e))


def _canonical_terms(entries: Iterable[tuple[object, int]]) -> dict[Monomial, int]:
    """Canonical term map of (powers, coefficient) pairs.

    Refuses non-integer coefficients, canonicalizes each monomial, merges
    duplicates and drops the terms that cancel to zero.
    """
    out: dict[Monomial, int] = {}
    for powers, coeff in entries:
        if not _is_int(coeff):
            raise ValueError(f"coefficients must be integers, got {coeff!r}")
        mono = monomial(powers)
        merged = out.get(mono, 0) + coeff
        if merged:
            out[mono] = merged
        else:
            out.pop(mono, None)
    return out


def _width(top: int) -> int:
    """The narrowest field width that holds ``top``'s bit length with the top bit clear."""
    bits = _BITS
    while top >> (bits - 1):
        bits *= 2
    return bits


def _repunit(fields: int, bits: int) -> int:
    """A 1 in the lowest bit of each of ``fields`` fields of ``bits`` bits."""
    return ((1 << fields * bits) - 1) // ((1 << bits) - 1)


def _packed(terms: dict[Monomial, int]) -> tuple[Ring, int, dict[int, int]]:
    """Ring, width and packed term map of a canonical tuple-keyed term map."""
    ring = tuple(sorted({v for mono in terms for v, _ in mono}))
    bits = _width(max((e for mono in terms for _, e in mono), default=0))
    shift = {v: bits * i for i, v in enumerate(reversed(ring))}
    return ring, bits, {sum(e << shift[v] for v, e in mono): c for mono, c in terms.items()}


def _relaid(terms: dict[int, int], moves: list[tuple[int, int]]) -> dict[int, int]:
    """``terms`` with each key rebuilt as the sum of ``(key & mask) << shift`` over ``moves``.

    Every move is a run of fields that shift together; the masks cover
    every field of the keys.
    """
    if len(moves) == 1 and not moves[0][1]:  # one run that stays where it is
        return terms
    out = {}
    for k, c in terms.items():
        key = 0
        for mask, shift in moves:
            key |= (k & mask) << shift
        out[key] = c
    return out


def _moves(ring: Ring, bits: int, into: Ring, into_bits: int) -> list[tuple[int, int]]:
    """The moves that lay keys over ``ring`` at width ``bits`` out over ``into``, a sorted
    superset of it, at width ``into_bits`` >= ``bits``, in one pass.

    Each variable's field goes to the spot ``bisect`` finds for it in
    ``into``; adjacent fields that shift alike move together as one run.
    """
    moves: list[tuple[int, int]] = []
    top, mask = len(into) - 1, (1 << bits) - 1
    for low, v in enumerate(reversed(ring)):
        field, shift = mask << bits * low, into_bits * (top - bisect_left(into, v)) - bits * low
        if moves and moves[-1][1] == shift:
            moves[-1] = (moves[-1][0] | field, shift)
        else:
            moves.append((field, shift))
    return moves


def _laid_out(p: "SparsePolynomial", ring: Ring, bits: int) -> dict[int, int]:
    """``p``'s term map laid out over ``ring``, a superset of its ring, at width ``bits``."""
    if not p._ring or p._ring == ring and p._bits == bits:  # a constant's key is 0 anywhere
        return p._terms
    return _relaid(p._terms, _moves(p._ring, p._bits, ring, bits))


def _trimmed(ring: Ring, bits: int, terms: dict[int, int]) -> "SparsePolynomial":
    """The canonical polynomial of a term map of nonzero coefficients after ``+`` or ``*``.

    A result that uses every field, at a width that still fits its largest
    exponent, is kept as it is.  Any other is decoded and packed again by
    ``_packed``, which drops each field that is zero in every term and sets
    the width the exponents need: narrower after a cancellation, or wider
    when a product's exponent sets a field's top bit.
    """
    used = reduce(or_, terms, 0)  # each field as long as the field's largest exponent
    mask = (1 << bits) - 1
    fields = [used >> bits * i & mask for i in range(len(ring))]
    if all(fields) and _width(max(fields, default=0)) == bits:
        return SparsePolynomial._raw(ring, bits, terms)
    return SparsePolynomial._raw(*_packed(_decoded(terms.items(), _halves(ring, bits, tuple))))


class _Pieces(dict):
    """The piece of each value of a run of ring fields, worked out once per value.

    A value's piece is ``build`` of its (ring entry, exponent) pairs.  A run
    of more than ``_LEAF`` fields is split in two, and a value's piece is
    the concatenation of its halves' pieces, each memoized in turn.
    """

    __slots__ = ("ring", "bits", "build", "halves")

    def __init__(self, ring: tuple, bits: int, build: Callable):
        self.ring, self.bits, self.build = ring, bits, build
        self.halves = _halves(ring, bits, build) if len(ring) > _LEAF else None

    def __missing__(self, value: int):
        if self.halves is None:
            n, mask = len(self.ring), (1 << self.bits) - 1
            shifts = range(self.bits * (n - 1), -1, -self.bits)
            pairs = zip(self.ring, shifts)
            piece = self.build([(v, e) for v, shift in pairs if (e := value >> shift & mask)])
        else:
            high, shift, mask, low = self.halves
            piece = high[value >> shift] + low[value & mask]
        self[value] = piece
        return piece


def _halves(ring: tuple, bits: int, build: Callable) -> tuple[_Pieces, int, int, _Pieces]:
    """``(high, shift, mask, low)``: the pieces of the high fields of a packed monomial
    over ``ring`` (``key >> shift``) and of its low ones (``key & mask``), which
    ``_decoded`` joins."""
    half = len(ring) // 2
    shift = bits * (len(ring) - half)
    high, low = _Pieces(ring[:half], bits, build), _Pieces(ring[half:], bits, build)
    return high, shift, (1 << shift) - 1, low


def _decoded(pairs: Iterable[tuple[int, int]], pieces: tuple[_Pieces, int, int, _Pieces]) -> dict:
    """``{piece of k: value}`` for each (packed key k, value) pair, the pieces
    ``(high, shift, mask, low)`` from ``_halves``."""
    high, shift, mask, low = pieces
    return {high[k >> shift] + low[k & mask]: c for k, c in pairs}


def _factor_text(pairs: list[tuple[str, int]]) -> str:
    """``*name`` or ``*name^e`` for each (name, exponent) pair."""
    return "".join(f"*{name}" if e == 1 else f"*{name}^{e}" for name, e in pairs)


class SparsePolynomial:
    """Immutable exact polynomial; supports ``+ - *`` with ints and peers."""

    # ``_text`` and ``_keyed`` memoize ``str`` and ``_keyed_terms``; None until filled
    __slots__ = ("_ring", "_bits", "_terms", "_template", "_text", "_keyed")

    def __init__(self, terms: Mapping[Monomial, int] | None = None):
        self._ring, self._bits, self._terms = _packed(_canonical_terms((terms or {}).items()))
        self._template = [None]
        self._text = self._keyed = None

    @classmethod
    def _raw(
        cls, ring: Ring, bits: int, terms: dict[int, int], template: list | None = None
    ) -> "SparsePolynomial":
        """Internal fast path: ring, width and terms ready.  The polynomial gets a new
        template cell unless it is handed one (see ``_relabelled``); none is shared by default."""
        p = cls.__new__(cls)
        p._ring, p._bits, p._terms = ring, bits, terms
        p._template = [None] if template is None else template
        p._text = p._keyed = None
        return p

    @classmethod
    def from_terms(
        cls, entries: Iterable[tuple[Mapping[Variable, int], int]]
    ) -> "SparsePolynomial":
        """Build from (powers mapping, coefficient) pairs, merging duplicates."""
        return cls._raw(*_packed(_canonical_terms(entries)))

    @property
    def terms(self) -> dict[Monomial, int]:
        """The canonical term map, keyed by (variable, exponent) tuples: a fresh copy of
        the polynomial's decoded map, so a caller's edit changes no polynomial."""
        return dict(_keyed_terms(self))

    def is_zero(self) -> bool:
        return not self._terms

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __len__(self) -> int:
        """The number of terms, counted without decoding them."""
        return len(self._terms)

    def __eq__(self, other: object) -> bool:
        q = _coerce(other)
        if q is None:
            return NotImplemented
        if self is q:
            return True
        return self._ring == q._ring and self._bits == q._bits and self._terms == q._terms

    def __hash__(self) -> int:
        # a constant or a bare variable hashes as the int or the Variable it equals
        if not self._ring:
            return hash(self._terms.get(0, 0))
        if len(self._ring) == 1 and self._terms == {1: 1}:
            return hash(self._ring[0])
        return hash((self._ring, self._bits, frozenset(self._terms.items())))

    def __add__(self, other: "PolyLike") -> "SparsePolynomial":
        q = _coerce(other)
        if q is None:
            return NotImplemented
        if not self._terms:
            return q
        if not q._terms:
            return self
        bits = max(self._bits, q._bits)
        ring = self._ring if self._ring == q._ring else tuple(sorted({*self._ring, *q._ring}))
        a, b = _laid_out(self, ring, bits), _laid_out(q, ring, bits)
        if len(a) < len(b):
            a, b = b, a
        out = dict(a)
        get = out.get
        for k, c in b.items():
            out[k] = get(k, 0) + c
        if 0 in out.values():
            return _trimmed(ring, bits, {k: c for k, c in out.items() if c})
        return SparsePolynomial._raw(ring, bits, out)

    __radd__ = __add__

    def __neg__(self) -> "SparsePolynomial":
        return self * -1

    def __sub__(self, other: "PolyLike") -> "SparsePolynomial":
        q = _coerce(other)
        if q is None:
            return NotImplemented
        return self + (-q)

    def __rsub__(self, other: "PolyLike") -> "SparsePolynomial":
        q = _coerce(other)
        if q is None:
            return NotImplemented
        return q + (-self)

    def __mul__(self, other: "PolyLike") -> "SparsePolynomial":
        q = _coerce(other)
        if q is None:
            return NotImplemented
        return _sum_of_products(((self, q),))

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> "SparsePolynomial":
        if not _is_int(exponent) or exponent < 0:
            raise ValueError(f"exponent must be an integer >= 0, got {exponent!r}")
        result = poly(1)
        base = self
        e = exponent
        while e:
            if e & 1:
                result = result * base
            e >>= 1
            if e:
                base = base * base
        return result

    def evaluate(self, values: "ParameterAssignment | Mapping[Variable, int]") -> int:
        """Exact integer value at a point; every present variable needs a value."""
        if isinstance(values, ParameterAssignment):
            lookup = values.value_of
        else:
            def lookup(v: Variable) -> int:
                try:
                    value = values[v]
                except KeyError:
                    raise ValueError(f"no value assigned to {v}") from None
                _check_integer(value, v)
                return value

        return _folded(self, {v: lookup(v) for v in self._ring})

    def substitute(self, rules: Mapping[Variable, "PolyLike"]) -> "SparsePolynomial":
        """Simultaneous substitution: each original variable is replaced once.

        Variables without a rule stay themselves.  Rule targets may be
        integers, variables, or polynomials; the result is fully expanded.
        """
        if not rules:
            return self
        images = {v: poly(target) for v, target in rules.items()}
        return poly(_folded(self, {v: images.get(v, poly(v)) for v in self._ring}))

    def __str__(self) -> str:
        if self._text is None:
            cell = self._template
            if cell[0] is None:
                cell[0] = _template_of(self)
            self._text = cell[0].format(*map(str, self._ring))
        return self._text

    def __repr__(self) -> str:
        return f"SparsePolynomial({self})"


_ZERO = SparsePolynomial._raw((), _BITS, {})

PolyLike = SparsePolynomial | Variable | int


def _sum_of_products(
    pairs: Iterable[tuple[SparsePolynomial, SparsePolynomial]]
) -> SparsePolynomial:
    """``sum(a * b for a, b in pairs)``, accumulated in one term map.

    The one product kernel: ``*`` is this sum over one pair.  Each factor
    is laid out once over the union of all the factors' rings, at the
    widest of their widths, every product of two terms is added into one
    dict, and ``_trimmed`` makes the sum canonical once.  Each factor's
    exponents keep their field's top bit clear, so a product's exponent
    fits its field without a carry, though it may set the top bit;
    ``_trimmed`` then widens the result.
    """
    pairs = [(a, b) for a, b in pairs if a._terms and b._terms]
    ring = tuple(sorted({v for pair in pairs for p in pair for v in p._ring}))
    bits = max((p._bits for pair in pairs for p in pair), default=_BITS)
    out: dict[int, int] = {}
    get = out.get
    for a, b in pairs:
        a, b = _laid_out(a, ring, bits), _laid_out(b, ring, bits)
        if len(a) > len(b):
            a, b = b, a
        for ka, ca in a.items():
            for kb, cb in b.items():
                k = ka + kb
                out[k] = get(k, 0) + ca * cb
    if 0 in out.values():
        out = {k: c for k, c in out.items() if c}
    return _trimmed(ring, bits, out)


def _keyed_terms(p: SparsePolynomial) -> dict[Monomial, int]:
    """``p``'s term map keyed by (variable, exponent) tuples, decoded on the first call
    and kept on ``p``; callers must not change it."""
    if p._keyed is None:
        p._keyed = _decoded(p._terms.items(), _halves(p._ring, p._bits, tuple))
    return p._keyed


def _folded(p: SparsePolynomial, point: Mapping[Variable, object]) -> int | SparsePolynomial:
    """``p`` with ``point[v]`` put in for every variable v at once: ``evaluate`` passes ints,
    ``substitute`` polynomials."""
    return sum(c * prod([point[v] ** e for v, e in mono]) for mono, c in _keyed_terms(p).items())


def _relabelled(p: SparsePolynomial, labels: tuple, zvar: Variable = Z) -> SparsePolynomial:
    """``p``, a polynomial over the indices {1..len(labels)}, relabelled onto ``labels``,
    with ``zvar`` put in for z.

    y_j becomes y_{labels[j-1]} and x_{i,j} becomes x_{labels[i-1],labels[j-1]};
    w stays.  The labels must increase, and ``zvar`` must be z or w (w only
    when ``p`` holds none).  Then the relabelled ring keeps its order and
    every field stays in its place, so the copy shares ``p``'s packed term
    map as it is, and every term keeps its printed place, so it shares
    ``p``'s template cell too: the first ``str`` of ``p`` or of any of its
    copies fills it for the rest.  Its names may differ, so the copy gets
    fresh memos: its text and its decoded map are its own.  The relabelled
    variables are valid, so they are built without ``Variable``'s check.
    """
    index = (0, *labels)  # index 0 keeps z, w and a y's second index as they are
    new = tuple.__new__
    ring = tuple(
        zvar if family == _FAM_Z else new(Variable, (family, index[a], index[b]))
        for family, a, b in p._ring
    )
    return SparsePolynomial._raw(ring, p._bits, p._terms, p._template)


def _printed_order(p: SparsePolynomial) -> list[int]:
    """The keys of ``p``'s term map, the map's own ints, in the order ``str`` prints them.

    That is increasing order of the terms' (variable, exponent) tuples, and
    sorting by ``key | gaps`` gives it: ``gaps`` sets the top bit of each
    zero field above the last nonzero one, so a variable that a monomial
    skips sorts after every power of it, and one past its last variable
    sorts before every power of it.
    """
    bits = p._bits
    top = _repunit(len(p._ring), bits) << (bits - 1)  # the top bit of every field
    below = top - (top >> (bits - 1))  # every other bit of every field

    def sort_key(k: int) -> int:
        # ``nonzero`` holds the top bit of each nonzero field, and
        # ``-(nonzero & -nonzero)`` every bit from the last one's up
        nonzero = (k + below) & top
        return k | ((top ^ nonzero) & -(nonzero & -nonzero))

    return sorted(p._terms, key=sort_key)


def _template_of(p: SparsePolynomial) -> str:
    """``p``'s text with the name ``{i}`` for the i-th ring variable, for ``format`` to fill in.

    The terms go in printed order, each key's factors from the pieces of
    ``_halves`` over the slots, so one template serves every copy that
    shares the cell.  ``format`` would misread any other brace, so the text
    with every name left out must hold none.
    """
    slots = tuple(f"{{{i}}}" for i in range(len(p._ring)))
    terms, parts = p._terms, []
    pieces = _halves(slots, p._bits, _factor_text)
    printed = _decoded(((k, terms[k]) for k in _printed_order(p)), pieces)
    for factors, coeff in printed.items():  # factors: "*{0}*{2}^2", or ""
        sign = " - " if coeff < 0 else " + "
        unit = factors and abs(coeff) == 1  # then the coefficient is left out
        parts.append(sign + factors[1:] if unit else f"{sign}{abs(coeff)}{factors}")
    out = "".join(parts)
    template = ("-" if out[1] == "-" else "") + out[3:] if out else "0"
    blank = template.format(*[""] * len(slots))
    assert "{" not in blank and "}" not in blank, "printed text holds a brace"
    return template


def _coerce(value: object) -> SparsePolynomial | None:
    if isinstance(value, SparsePolynomial):
        return value
    if isinstance(value, Variable):
        return SparsePolynomial._raw((value,), _BITS, {1: 1})
    if _is_int(value):
        return SparsePolynomial._raw((), _BITS, {0: value}) if value else _ZERO
    return None


def poly(value: PolyLike) -> SparsePolynomial:
    """Coerce an int, a variable, or a polynomial to a polynomial; ``bool`` is refused."""
    p = _coerce(value)
    if p is None:
        raise TypeError(f"cannot treat {value!r} as a polynomial")
    return p


class ParameterAssignment(namedtuple("_Values", "z_val w_val y_vals x_vals")):
    """Integer values for every variable a polynomial may mention; omitted maps start empty.

    Every value must be an ``int`` and not a ``bool``; anything else is
    refused with a ``ValueError`` naming its field, by ``_replace`` too.
    The assignment keeps read-only copies of the maps it is given and checks
    those, so no edit of the caller's maps or of its own changes it.
    """

    __slots__ = ()

    def __new__(cls, z_val: int = 0, w_val: int = 0, y_vals: Mapping[int, int] | None = None,
                x_vals: Mapping[tuple[int, int], int] | None = None) -> "ParameterAssignment":
        y_vals, x_vals = (MappingProxyType(dict(m or {})) for m in (y_vals, x_vals))
        _check_integer(z_val, "z_val")
        _check_integer(w_val, "w_val")
        for field, values in (("y_vals", y_vals), ("x_vals", x_vals)):
            for key, value in values.items():
                _check_integer(value, field, key)
        return super().__new__(cls, z_val, w_val, y_vals, x_vals)

    @classmethod
    def _make(cls, fields: Iterable[object]) -> "ParameterAssignment":
        return cls(*fields)  # so that _replace is checked too

    def __getnewargs__(self) -> tuple:  # the maps as dicts, so that it pickles and copies
        return self.z_val, self.w_val, dict(self.y_vals), dict(self.x_vals)

    def __repr__(self) -> str:
        z, w, y, x = self.__getnewargs__()
        return f"{type(self).__name__}(z_val={z!r}, w_val={w!r}, y_vals={y!r}, x_vals={x!r})"

    def value_of(self, v: Variable) -> int:
        try:
            if v.family == _FAM_Z:
                return self.z_val
            if v.family == _FAM_W:
                return self.w_val
            if v.family == _FAM_Y:
                return self.y_vals[v.a]
            return self.x_vals[(v.a, v.b)]
        except KeyError:
            raise ValueError(f"assignment has no value for {v}") from None

    @classmethod
    def random_for(
        cls,
        ground: Iterable[int],
        rng: random.Random,
        low: int = -(10**6),
        high: int = 10**6,
    ) -> "ParameterAssignment":
        """Uniform integer values for z, w, every y_j with j in ``ground``,
        and every x_{i,j} with i < j in ``ground``.

        The draw order is fixed (z, w, y ascending, x in lexicographic pair
        order), so equal seeds give equal assignments.
        """
        members = tuple(ground)
        z_val = rng.randint(low, high)
        w_val = rng.randint(low, high)
        y_vals = {j: rng.randint(low, high) for j in members}
        x_vals = {
            (i, j): rng.randint(low, high) for i in members for j in members if i < j
        }
        return cls(z_val, w_val, y_vals, x_vals)
