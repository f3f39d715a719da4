"""Sparse exterior algebra on n anticommuting generators, exact coefficients.

Monomials are subsets of {1..n} stored as bitmasks: generator i sits on bit
i-1, so v{1,3} on n=4 is 0b0101.  An element is a dict mask -> coefficient
with zero coefficients never stored.  The product of two basis monomials is

    v_J * v_K = 0                       if J and K share an index,
    v_J * v_K = (-1)^inv(J,K) v_{J|K}   otherwise,

where inv(J,K) counts pairs j in J, k in K with j > k (the transpositions
needed to merge the two ascending index lists).

Monomials are totally ordered: v_I > v_J when, reading supports in
decreasing order, the first differing position of I holds the smaller
index, or I is a proper prefix of J read that way.  Equivalently (proved
by a top-set-bit argument, pinned by an exhaustive test): v_I > v_J iff
mask(I) < mask(J) as integers, i.e. reverse colex on supports.  Echelon
code elsewhere exploits the mask form; `compare_monomials` follows the
sequence definition.

Every element carries its coefficient field in .field.  The public
constructor reads it off the coefficients (an int counts as a rational);
every element built inside the package is given the field it already has,
so ops never look at a coefficient to learn a field.  A zero element mixes
with elements over any field and takes any scalar.  Rational coefficients
stay ints until a division (fields._inverse) makes a Fraction.

Masks are built in two places: _indices_mask reads an index list for
mask_of_indices and monomial, and _level_masks lists the masks whose size
lies in a set of levels, for every grade, parity and level family.
"""

from __future__ import annotations

from .fields import QQ, _check_field, _inverse, field_of

__all__ = [
    "AmbientMismatch",
    "Monomial",
    "GrassmannElement",
    "sign_of_masks",
    "compare_monomials",
    "monomial",
    "generator",
    "unit",
    "zero",
    "mask_of_indices",
    "indices_of_mask",
]

MAX_N = 16


class AmbientMismatch(ValueError):
    """Two operands live in exterior algebras with different n."""


def _check_int(x, what, lo, hi=None):
    """x, if it is an int in lo..hi (no upper end when hi is None); a bool,
    any other type or a value out of range is refused with ValueError."""
    if type(x) is not int or x < lo or (hi is not None and x > hi):
        bounds = ">= %d" % lo if hi is None else "in %d..%d" % (lo, hi)
        raise ValueError("%s must be an int %s, got %r" % (what, bounds, x))
    return x


def _check_n(n):
    _check_int(n, "number of generators", 1, MAX_N)


def _indices_mask(n, indices):
    """(mask, parity of the inversions) of an index list; an index that
    repeats or leaves 1..n is refused with ValueError."""
    mask = inv = 0
    for i in indices:
        bit = 1 << (_check_int(i, "generator index", 1, n) - 1)
        if mask & bit:
            raise ValueError("generator index %d repeated" % i)
        inv += (mask >> i).bit_count()  # earlier indices above i
        mask |= bit
    return mask, inv & 1


def _level_masks(n, sizes) -> list:
    """The masks below 2^n whose size (bit count) lies in sizes, ascending."""
    sizes = set(sizes)
    return [m for m in range(1 << n) if m.bit_count() in sizes]


def mask_of_indices(n: int, indices) -> int:
    """it is an error for an index to repeat or to leave 1..n."""
    return _indices_mask(n, indices)[0]


def indices_of_mask(mask: int) -> tuple:
    out = []
    i = 1
    while mask:
        if mask & 1:
            out.append(i)
        mask >>= 1
        i += 1
    return tuple(out)


def sign_of_masks(j_mask: int, k_mask: int) -> int:
    """Sign of v_J * v_K: 0 on overlap, else (-1)^#{(j,k): j in J, k in K, j > k}.

    Bit i of s is the parity of the bits of K below i (a prefix XOR over
    the MAX_N = 16 positions), so the pairs with j > k number (J & s) mod 2."""
    if j_mask & k_mask:
        return 0
    s = k_mask << 1
    s ^= s << 1
    s ^= s << 2
    s ^= s << 4
    s ^= s << 8
    return -1 if (j_mask & s).bit_count() & 1 else 1


class Monomial:
    """One basis monomial v_J inside a fixed ambient algebra."""

    __slots__ = ("n", "mask")

    def __init__(self, n: int, mask: int):
        _check_n(n)
        self.n = n
        self.mask = _check_int(mask, "mask", 0, (1 << n) - 1)

    @classmethod
    def from_indices(cls, n: int, indices):
        return cls(n, mask_of_indices(n, indices))

    @property
    def degree(self) -> int:
        return self.mask.bit_count()

    def indices(self) -> tuple:
        return indices_of_mask(self.mask)

    def descending_indices(self) -> tuple:
        """The order key: support read from the largest index down."""
        return tuple(reversed(indices_of_mask(self.mask)))

    def __eq__(self, other):
        return isinstance(other, Monomial) and other.n == self.n and other.mask == self.mask

    def __hash__(self):
        return hash((self.n, self.mask))

    # comparisons follow the monomial order (unit is the largest), not mask value
    def __lt__(self, other):
        return compare_monomials(self, other) < 0

    def __le__(self, other):
        return compare_monomials(self, other) <= 0

    def __gt__(self, other):
        return compare_monomials(self, other) > 0

    def __ge__(self, other):
        return compare_monomials(self, other) >= 0

    def __repr__(self):
        if self.mask == 0:
            return "1"
        return "v{%s}" % ",".join(str(i) for i in self.indices())


def compare_monomials(a: Monomial, b: Monomial) -> int:
    """-1, 0 or +1 as a is below, equal to or above b in the monomial order.

    Supports are read in decreasing order; at the first difference the
    smaller index wins, and a proper prefix beats its extensions.
    """
    if not isinstance(a, Monomial) or not isinstance(b, Monomial):
        raise TypeError("compare_monomials expects Monomial operands")
    if a.n != b.n:
        raise AmbientMismatch("monomials from n=%d and n=%d" % (a.n, b.n))
    ka, kb = a.descending_indices(), b.descending_indices()
    for x, y in zip(ka, kb):
        if x != y:
            return 1 if x < y else -1
    if len(ka) == len(kb):
        return 0
    return 1 if len(ka) < len(kb) else -1


def _scalar(c, field, terms=True):
    """c as a scalar of field: an int acts on every field, any other scalar
    must lie in field.  An element with no terms takes any scalar."""
    if type(c) is int:
        return field.coerce(c)
    if terms and field_of(c) is not field:
        raise AmbientMismatch("scalar %r outside the field %s" % (c, field.name))
    return c


def _mul_terms(a: dict, b: dict) -> dict:
    """Terms of the product of two elements' terms."""
    acc = {}
    for mj, cj in a.items():
        for mk, ck in b.items():
            if mj & mk:
                continue
            s = sign_of_masks(mj, mk)
            u = mj | mk
            add = cj * ck if s > 0 else -(cj * ck)
            cur = acc.get(u)
            if cur is None:
                acc[u] = add
            else:
                cur = cur + add
                if cur:
                    acc[u] = cur
                else:
                    del acc[u]
    return acc


def _element(n: int, field, terms: dict):
    """Element on canonical terms: masks below 2^n, nonzero, all in field."""
    x = object.__new__(GrassmannElement)
    x.n = n
    x.field = field
    x.terms = terms
    return x


class GrassmannElement:
    """Immutable sparse element; do not mutate .terms after construction."""

    __slots__ = ("n", "field", "terms")

    def __init__(self, n: int, terms=None):
        """The field is read off the coefficients (QQ when there are none)."""
        _check_n(n)
        self.n = n
        clean = {}
        top = 1 << n
        field = None
        for mask, c in (terms or {}).items():
            if type(mask) is not int or not 0 <= mask < top:
                raise ValueError("term mask %r out of range for n=%d" % (mask, n))
            f = field_of(c)
            if field is None:
                field = f
            elif f is not field:
                raise AmbientMismatch("coefficients over different fields: %s and %s" % (field.name, f.name))
            if c:
                clean[mask] = c
        self.field = QQ if field is None else field
        self.terms = clean

    # -- inspection ---------------------------------------------------

    def __bool__(self):
        return bool(self.terms)

    def is_zero(self) -> bool:
        return not self.terms

    def support(self) -> list:
        """Term masks in decreasing monomial order (ascending mask)."""
        return sorted(self.terms)

    def monomials(self) -> list:
        return [Monomial(self.n, m) for m in self.support()]

    def coefficient(self, mono):
        # default 0 as a plain int so it compares true against any field zero
        mask = mono.mask if isinstance(mono, Monomial) else mono
        return self.terms.get(mask, 0)

    def degrees(self) -> set:
        return {m.bit_count() for m in self.terms}

    def is_homogeneous(self) -> bool:
        return len(self.degrees()) <= 1

    # -- linear structure ---------------------------------------------

    def _check_same(self, other):
        """The field of a result from self and other; a zero operand mixes with any."""
        if self.n != other.n:
            raise AmbientMismatch("elements from n=%d and n=%d" % (self.n, other.n))
        if not self.terms:
            return other.field
        if other.terms and other.field is not self.field:
            raise AmbientMismatch("elements over different fields: %s and %s" % (self.field.name, other.field.name))
        return self.field

    def __add__(self, other):
        if not isinstance(other, GrassmannElement):
            return NotImplemented
        field = self._check_same(other)
        acc = dict(self.terms)
        for m, c in other.terms.items():
            s = acc.get(m)
            if s is None:
                acc[m] = c
            else:
                s = s + c
                if s:
                    acc[m] = s
                else:
                    del acc[m]
        return _element(self.n, field, acc)

    def __neg__(self):
        return _element(self.n, self.field, {m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        if not isinstance(other, GrassmannElement):
            return NotImplemented
        return self.__add__(-other)

    def scale(self, c):
        c = _scalar(c, self.field, self.terms)
        if not c:
            return _element(self.n, self.field, {})
        return _element(self.n, self.field, {m: c * x for m, x in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, GrassmannElement):
            field = self._check_same(other)
            return _element(self.n, field, _mul_terms(self.terms, other.terms))
        try:
            return self.scale(other)
        except TypeError:
            return NotImplemented

    def __rmul__(self, other):
        # scalars commute past everything here, coefficients are central
        try:
            return self.scale(other)
        except TypeError:
            return NotImplemented

    def __truediv__(self, c):
        c = _scalar(c, self.field, self.terms)
        if not c:
            raise ZeroDivisionError("division of an element by zero")
        ic = _inverse(c)
        return _element(self.n, self.field, {m: ic * x for m, x in self.terms.items()})

    def __eq__(self, other):
        """Equal terms in the same E(n) over the same field; zero elements
        are equal over any fields, as a zero vector mixes with any field."""
        return (
            isinstance(other, GrassmannElement)
            and other.n == self.n
            and other.terms == self.terms
            and (not self.terms or other.field is self.field)
        )

    def __hash__(self):
        return hash((self.n, frozenset(self.terms.items())))

    # -- grading ------------------------------------------------------

    def grade_component(self, k: int):
        _check_int(k, "degree", 0, self.n)
        return _element(self.n, self.field, {m: c for m, c in self.terms.items() if m.bit_count() == k})

    def even_part(self):
        return _element(self.n, self.field, {m: c for m, c in self.terms.items() if not m.bit_count() & 1})

    def odd_part(self):
        return _element(self.n, self.field, {m: c for m, c in self.terms.items() if m.bit_count() & 1})

    def is_even(self) -> bool:
        return all(not m.bit_count() & 1 for m in self.terms)

    def is_odd(self) -> bool:
        return all(m.bit_count() & 1 for m in self.terms)

    def min_degree(self) -> int:
        if not self.terms:
            raise ValueError("the zero element has no minimal degree part")
        return min(m.bit_count() for m in self.terms)

    def min_part(self):
        """Homogeneous component of lowest degree; undefined on zero."""
        d = self.min_degree()
        return self.grade_component(d)

    # -- substitution and initial data ---------------------------------

    def substitute_zero(self, i: int):
        """Set generator i to zero: drop every term whose support contains i.

        This is an algebra endomorphism; its square equals itself and its
        kernel (multiples of the killed generator) squares to zero.
        """
        bit = 1 << (_check_int(i, "generator index", 1, self.n) - 1)
        return _element(self.n, self.field, {m: c for m, c in self.terms.items() if not m & bit})

    def initial_monomial(self) -> Monomial:
        """Largest monomial of the support (smallest mask); undefined on zero."""
        if not self.terms:
            raise ValueError("the zero element has no initial monomial")
        return Monomial(self.n, min(self.terms))

    def initial_term(self):
        """coefficient * initial monomial; the zero element maps to zero."""
        if not self.terms:
            return self
        m = min(self.terms)
        return _element(self.n, self.field, {m: self.terms[m]})

    def __repr__(self):
        from .text import print_element

        return print_element(self)


def monomial(n: int, indices, coeff=1, field=QQ):
    """coeff * v_{indices}, coeff taken by the rule of scale; unordered
    indices pick up the permutation sign."""
    _check_n(n)
    mask, odd = _indices_mask(n, indices)
    c = _scalar(coeff, _check_field(field))
    if odd:
        c = -c
    return _element(n, field, {mask: c} if c else {})


def generator(n: int, i: int, field=QQ):
    return monomial(n, (i,), 1, field)


def unit(n: int, field=QQ):
    _check_n(n)
    return _element(n, field, {0: _check_field(field).one})


def zero(n: int) -> GrassmannElement:
    return GrassmannElement(n)
