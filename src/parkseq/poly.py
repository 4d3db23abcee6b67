"""Exact sparse multivariate polynomial arithmetic over the integers.

Variables come in four families: the main indeterminate ``z``, its
convolution partner ``w``, one ``y_j`` per positive index j, and one
``x_{i,j}`` per index pair i < j.  A variable is a named tuple
``(family, a, b)`` with families numbered z = 0, w = 1, y = 2, x = 3, so
tuple order is the total order z < w < y_1 < y_2 < ... < x_{1,2} < x_{1,3}
< ... and hashing, equality and ordering run in the interpreter's tuple code,
not in Python.  A monomial is a tuple of (variable, exponent) pairs sorted
by variable, and a polynomial is a dict from monomials to nonzero integer
coefficients.  The representation is canonical: no zero coefficient and no
zero exponent is ever stored, so equality of polynomials is plain equality
of term maps, and ``str`` lists the terms in increasing monomial order.
There is no floating point anywhere in this module.
"""

from __future__ import annotations

import random
from collections import namedtuple
from typing import Iterable, Mapping, NamedTuple, Union

_FAM_Z = 0
_FAM_W = 1
_FAM_Y = 2
_FAM_X = 3


class Variable(NamedTuple):
    """One indeterminate; ordering is (family, first index, second index).

    Being a tuple, it equals the plain tuple ``(family, a, b)``, but only a
    ``Variable`` is accepted as a monomial key.
    """

    family: int
    a: int = 0
    b: int = 0

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
    if not isinstance(j, int) or isinstance(j, bool) or j < 1:
        raise ValueError(f"y index must be an integer >= 1, got {j!r}")
    return Variable(_FAM_Y, j)


def x_var(i: int, j: int) -> Variable:
    """The pair parameter attached to indices i < j."""
    if not all(isinstance(k, int) and not isinstance(k, bool) for k in (i, j)) or not 0 < i < j:
        raise ValueError(f"x indices must be integers with 0 < i < j, got ({i!r}, {j!r})")
    return Variable(_FAM_X, i, j)


# A monomial is a tuple of (Variable, exponent) pairs, sorted by variable,
# every exponent >= 1.  The empty tuple is the constant monomial.
Monomial = tuple[tuple[Variable, int], ...]


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
        if not isinstance(e, int) or isinstance(e, bool) or e < 0:
            raise ValueError(f"exponent of {v} must be an integer >= 0, got {e!r}")
        merged[v] = merged.get(v, 0) + e
    return tuple(sorted((v, e) for v, e in merged.items() if e))


def _mono_mul(a: Monomial, b: Monomial) -> Monomial:
    if not a:
        return b
    if not b:
        return a
    merged = dict(a)
    for v, _ in b:
        if v in merged:
            break
    else:  # no shared variable, as in every s_L(z) * t_R(w): only an ordering is left
        return tuple(sorted(a + b))
    for v, e in b:
        merged[v] = merged.get(v, 0) + e
    return tuple(sorted(merged.items()))


def _canonical_terms(entries: Iterable[tuple[object, int]]) -> dict[Monomial, int]:
    """Canonical term map of (powers, coefficient) pairs.

    Refuses non-integer coefficients, canonicalizes each monomial, merges
    duplicates and drops the terms that cancel to zero.
    """
    out: dict[Monomial, int] = {}
    for powers, coeff in entries:
        if not isinstance(coeff, int) or isinstance(coeff, bool):
            raise ValueError(f"coefficients must be integers, got {coeff!r}")
        mono = monomial(powers)
        merged = out.get(mono, 0) + coeff
        if merged:
            out[mono] = merged
        else:
            out.pop(mono, None)
    return out


class _PowerText(dict):
    """``name`` or ``name^e`` for each (variable, exponent) pair, rendered once."""

    def __missing__(self, pair: tuple[Variable, int]) -> str:
        v, e = pair
        text = self[pair] = str(v) if e == 1 else f"{v}^{e}"
        return text


_POWER_TEXT = _PowerText()


class SparsePolynomial:
    """Immutable exact polynomial; supports ``+ - *`` with ints and peers."""

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[Monomial, int] | None = None):
        self._terms = _canonical_terms((terms or {}).items())

    @classmethod
    def _raw(cls, terms: dict[Monomial, int]) -> "SparsePolynomial":
        # internal fast path: terms already canonical
        p = cls.__new__(cls)
        p._terms = terms
        return p

    @classmethod
    def from_terms(
        cls, entries: Iterable[tuple[Mapping[Variable, int], int]]
    ) -> "SparsePolynomial":
        """Build from (powers mapping, coefficient) pairs, merging duplicates."""
        return cls._raw(_canonical_terms(entries))

    @property
    def terms(self) -> dict[Monomial, int]:
        """Copy of the canonical term map."""
        return dict(self._terms)

    def is_zero(self) -> bool:
        return not self._terms

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __eq__(self, other: object) -> bool:
        q = _coerce(other)
        if q is None:
            return NotImplemented
        return self._terms == q._terms

    def __hash__(self) -> int:
        return hash(frozenset(self._terms.items()))

    def __add__(self, other: "PolyLike") -> "SparsePolynomial":
        q = _coerce(other)
        if q is None:
            return NotImplemented
        if not self._terms:
            return q
        if not q._terms:
            return self
        out = dict(self._terms)
        for mono, coeff in q._terms.items():
            merged = out.get(mono, 0) + coeff
            if merged:
                out[mono] = merged
            else:
                del out[mono]
        return SparsePolynomial._raw(out)

    __radd__ = __add__

    def __neg__(self) -> "SparsePolynomial":
        return SparsePolynomial._raw({m: -c for m, c in self._terms.items()})

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
        if isinstance(other, int) and not isinstance(other, bool):
            if other == 0:
                return SparsePolynomial._raw({})
            return SparsePolynomial._raw({m: c * other for m, c in self._terms.items()})
        q = _coerce(other)
        if q is None:
            return NotImplemented
        out: dict[Monomial, int] = {}
        for mono_a, coeff_a in self._terms.items():
            for mono_b, coeff_b in q._terms.items():
                mono = _mono_mul(mono_a, mono_b)
                merged = out.get(mono, 0) + coeff_a * coeff_b
                if merged:
                    out[mono] = merged
                else:
                    del out[mono]
        return SparsePolynomial._raw(out)

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> "SparsePolynomial":
        if not isinstance(exponent, int) or isinstance(exponent, bool) or exponent < 0:
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
            mapping = values

            def lookup(v: Variable) -> int:
                try:
                    value = mapping[v]
                except KeyError:
                    raise ValueError(f"no value assigned to {v}") from None
                _check_integer(value, v)
                return value

        total = 0
        for mono, coeff in self._terms.items():
            term = coeff
            for v, e in mono:
                term *= lookup(v) ** e
            total += term
        return total

    def substitute(
        self, rules: Mapping[Variable, "PolyLike"]
    ) -> "SparsePolynomial":
        """Simultaneous substitution: each original variable is replaced once.

        Variables without a rule stay themselves.  Rule targets may be
        integers, variables, or polynomials; the result is fully expanded.
        """
        if not rules:
            return self
        images = {v: poly(target) for v, target in rules.items()}
        result = SparsePolynomial._raw({})
        for mono, coeff in self._terms.items():
            term = poly(coeff)
            for v, e in mono:
                base = images.get(v)
                if base is None:
                    term = term * SparsePolynomial._raw({((v, e),): 1})
                else:
                    term = term * base**e
            result = result + term
        return result

    def __str__(self) -> str:
        if not self._terms:
            return "0"
        chunks = []
        for mono in sorted(self._terms):
            coeff = self._terms[mono]
            body = "*".join(map(_POWER_TEXT.__getitem__, mono))
            if not body:
                text = str(abs(coeff))
            elif abs(coeff) == 1:
                text = body
            else:
                text = f"{abs(coeff)}*{body}"
            chunks.append(("-" if coeff < 0 else "+", text))
        sign, text = chunks[0]
        out = ("-" if sign == "-" else "") + text
        for sign, text in chunks[1:]:
            out += f" {sign} {text}"
        return out

    def __repr__(self) -> str:
        return f"SparsePolynomial({self})"


PolyLike = Union[SparsePolynomial, Variable, int]


def _coerce(value: object) -> SparsePolynomial | None:
    if isinstance(value, SparsePolynomial):
        return value
    if isinstance(value, Variable):
        return SparsePolynomial._raw({((value, 1),): 1})
    if isinstance(value, int) and not isinstance(value, bool):
        return SparsePolynomial._raw({(): value} if value else {})
    return None


def poly(value: PolyLike) -> SparsePolynomial:
    """Coerce an int, a variable, or a polynomial to a polynomial; ``bool`` is refused."""
    p = _coerce(value)
    if p is None:
        raise TypeError(f"cannot treat {value!r} as a polynomial")
    return p


def _check_integer(value: object, name: object, key: object = None) -> None:
    """Refuse a value that is not an ``int``, or is a ``bool``, naming where it sat."""
    if not isinstance(value, int) or isinstance(value, bool):
        where = name if key is None else f"{name}[{key!r}]"
        raise ValueError(f"{where} must be an integer, got {value!r}")


class ParameterAssignment(namedtuple("_Values", "z_val w_val y_vals x_vals")):
    """Integer values for every variable a polynomial may mention; omitted maps start empty.

    Every value must be an ``int`` and not a ``bool``; anything else is
    refused with a ``ValueError`` naming its field.
    """

    __slots__ = ()

    def __new__(cls, z_val: int = 0, w_val: int = 0, y_vals: Mapping[int, int] | None = None,
                x_vals: Mapping[tuple[int, int], int] | None = None) -> "ParameterAssignment":
        y_vals = {} if y_vals is None else y_vals
        x_vals = {} if x_vals is None else x_vals
        _check_integer(z_val, "z_val")
        _check_integer(w_val, "w_val")
        for field, values in (("y_vals", y_vals), ("x_vals", x_vals)):
            for key, value in values.items():
                _check_integer(value, field, key)
        return super().__new__(cls, z_val, w_val, y_vals, x_vals)

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
