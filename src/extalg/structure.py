"""Subalgebra structure: commutativity tests, maximal commutative subalgebras,
algebra maps from generator images, and the graded radical invariant.

Each predicate is one statement about one product span, taken with the
algebra's generators: a subspace is an ideal when multiplying by the degree-1
generators keeps it, and an E_even-submodule when multiplying by the degree-2
monomials (which generate E_even) keeps it.  The even part is central and odd
elements anticommute, so x*y - y*x = 2*x_odd*y_odd; as 2 is invertible, a
subspace is commutative when the odd parts of its basis vectors span a
square-zero space.  A subspace containing E_even holds each member's even
part, so it is E_even plus its odd part, which its basis vectors' odd parts
span.  It is a maximal commutative subalgebra precisely when that odd part
squares to zero and equals its own orthogonal space under the skew pairing
(stability under E_even follows).  That criterion is what
is_maximal_commutative checks.

An algebra map of E(n) fixed by odd generator images is bijective exactly
when its linear part, the images' degree-1 parts, has rank n: the images'
other terms have degree >= 3, so the map keeps the filtration by degree and
on the associated graded algebra it is the exterior power of its linear
part.  is_bijective reads that n-row rank and multiplies out no monomial.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from itertools import combinations

from .core import AmbientMismatch, GrassmannElement, _check_int, _check_n, _element, _fold, _level_masks, _star_masks, unit
from .fields import QQ
from .setfamilies import odd_upper_levels, star
from .subspace import (
    Subspace,
    _field_of,
    _from_rows,
    _space,
    even_space,
    grade_space,
    hilbert_series,
    monomial_space,
    perp,
    product_span,
    span,
)

__all__ = [
    "is_subalgebra",
    "is_commutative",
    "is_square_zero",
    "is_e0_submodule",
    "is_left_ideal",
    "is_right_ideal",
    "assemble",
    "is_maximal_commutative",
    "max_commutative_dim",
    "canonical_max_commutative",
    "upper_levels_commutative",
    "StructureReport",
    "analyze",
    "plucker_defects",
    "AlgebraHom",
    "hom_from_images",
    "graded_radical",
    "radical_quotient_dim",
]


def _odd_parts(a: Subspace) -> Subspace:
    """Span of the basis vectors' odd parts: a's odd part if a contains E_even."""
    return _space(a.n, a.field, [{m: c for m, c in b.terms.items() if m.bit_count() & 1} for b in a.basis])


def is_subalgebra(a: Subspace) -> bool:
    """Closed under products (unit not required)."""
    return a.contains_space(product_span(a, a))


def is_commutative(a: Subspace) -> bool:
    """x*y - y*x = 2*x_odd*y_odd, so the odd parts must square to zero."""
    return is_square_zero(_odd_parts(a))


def is_square_zero(d: Subspace) -> bool:
    """Every product of two members vanishes (the span of products is zero)."""
    return product_span(d, d).is_zero()


def is_e0_submodule(d: Subspace) -> bool:
    # degree 2 generates E_even; the level is empty when n = 1
    return d.contains_space(product_span(monomial_space(d.n, _level_masks(d.n, (2,)), d.field), d))


def is_left_ideal(x: Subspace) -> bool:
    return x.contains_space(product_span(grade_space(x.n, 1, x.field), x))


def is_right_ideal(x: Subspace) -> bool:
    return x.contains_space(product_span(x, grade_space(x.n, 1, x.field)))


def assemble(d: Subspace) -> Subspace:
    """E_even + E_even*D + D, where E_even*D holds D (E_even holds the unit);
    commutative subalgebra whenever D is an odd subspace with square zero."""
    for b in d.basis:
        if not b.is_odd():
            raise ValueError("assemble expects a subspace of the odd part")
    e0 = even_space(d.n, d.field)
    return e0.sum(product_span(e0, d))


def _commutative_and_maximal(a: Subspace, has_even: bool) -> tuple:
    """(is_commutative(a), is_maximal_commutative(a)) from one odd part and
    its square; has_even says whether a contains E_even."""
    d = _odd_parts(a)
    commutative = is_square_zero(d)
    # d is stable under E_even whenever d*d = 0 and d = perp(d): for even e
    # and x, w in d, (e*x)*w = e*(x*w) = 0, so e*x lies in perp(d) = d.
    return commutative, commutative and has_even and perp(d) == d


def is_maximal_commutative(a: Subspace) -> bool:
    """Maximal commutative subalgebra test via the odd-part criterion."""
    return a.contains_space(even_space(a.n, a.field)) and _commutative_and_maximal(a, True)[1]


def max_commutative_dim(n: int) -> int:
    """Dimension of the largest commutative subalgebra on n generators.

    For odd n the paper sums 2^(n-1), C(n, m) over odd m > n/2, and
    C(n-1, (n-3)/2) if n = 3 mod 4.  Pascal's rule C(n, m) = C(n-1, m-1) +
    C(n-1, m) turns the odd-m sum into half of 2^(n-1) + C(n-1, (n-1)/2) if
    n = 1 mod 4, and of 2^(n-1) - C(n-1, (n-1)/2) if n = 3 mod 4, where once
    more it gives C(n-1, (n-3)/2) - C(n-1, (n-1)/2)/2 = C(n-2, (n+1)/2)."""
    _check_int(n, "n", 1)
    if n % 2 == 0:
        return 3 * 2 ** (n - 2)
    if n % 4 == 1:
        return (3 * 2 ** (n - 1) + math.comb(n - 1, (n - 1) // 2)) // 2
    return 3 * 2 ** (n - 2) + math.comb(n - 2, (n + 1) // 2)


def canonical_max_commutative(n: int, l: int = 1, field=QQ) -> Subspace:
    """A commutative subalgebra of the maximal dimension.

    Even n: the even part plus every monomial through the point l.
    Odd n: upper_levels_commutative, the even part plus the odd levels
    above n/2, and for n = 4k+3 the star of (2k+1)-sets through l."""
    _check_n(n)
    if n % 2:
        return upper_levels_commutative(n, l, field)
    return monomial_space(n, _level_masks(n, range(0, n + 1, 2)) + _star_masks(n, l), field)


def upper_levels_commutative(n: int, l: int = 1, field=QQ) -> Subspace:
    """The homogeneous companion family: even part, odd levels above n/2,
    plus a star level when n is 2 mod 4 or 3 mod 4.  For odd n this is
    canonical_max_commutative; for even n it is a maximal commutative
    subalgebra of the same dimension built from whole levels."""
    _check_n(n)
    _check_int(l, "star element", 1, n)
    masks = set(_level_masks(n, range(0, n + 1, 2)))
    masks.update(odd_upper_levels(n).masks)
    if n % 4 in (2, 3):
        masks.update(star(n, 2 * ((n - 2) // 4) + 1, l).masks)
    return monomial_space(n, masks, field)


@dataclass
class StructureReport:
    n: int
    field: str
    dim: int
    square_dim: int
    subalgebra: bool
    commutative: bool
    square_zero: bool
    e0_submodule: bool
    maximal_commutative: bool
    graded: bool
    monomial: bool
    grade_dims: tuple | None

    def to_dict(self) -> dict:
        grade_dims = list(self.grade_dims) if self.grade_dims is not None else None
        return {**asdict(self), "grade_dims": grade_dims}


def analyze(a: Subspace) -> StructureReport:
    try:
        grade_dims = hilbert_series(a)
    except ValueError:  # a is not graded
        grade_dims = None
    sq = product_span(a, a)
    has_even = a.contains_space(even_space(a.n, a.field))
    subalgebra = a.contains_space(sq)
    commutative, maximal = _commutative_and_maximal(a, has_even)
    return StructureReport(
        n=a.n,
        field=a.field.name,
        dim=a.dim,
        square_dim=sq.dim,
        subalgebra=subalgebra,
        commutative=commutative,
        square_zero=sq.is_zero(),
        # E_even in a and a*a in a give E_even*a in a, with no product span
        e0_submodule=(has_even and subalgebra) or is_e0_submodule(a),
        maximal_commutative=maximal,
        graded=grade_dims is not None,
        monomial=a.is_monomial(),
        grade_dims=grade_dims,
    )


def plucker_defects(x: GrassmannElement) -> list:
    """Quadratic defects of a degree-2 element over all 4-subsets.

    All of them vanish exactly when x*x = 0, which for degree 2 means x is
    a product of two degree-1 elements."""
    if x.is_zero() or x.degrees() != {2}:
        raise ValueError("defects are defined for nonzero homogeneous degree-2 elements")

    def c(i, j):
        return x.coefficient((1 << (i - 1)) | (1 << (j - 1)))

    out = []
    for i, j, k, l in combinations(range(1, x.n + 1), 4):
        out.append(((i, j, k, l), c(i, j) * c(k, l) - c(i, k) * c(j, l) + c(i, l) * c(j, k)))
    return out


class AlgebraHom:
    """Algebra map fixed by generator images u_1..u_m (odd, anticommuting).

    It is bijective exactly when m = n and the images' degree-1 parts have
    rank n: each image is its degree-1 part plus terms of degree >= 3, so on
    the associated graded algebra the map is the exterior power of that
    linear part."""

    def __init__(self, images, field=None):
        images = tuple(images)
        if not images:
            raise ValueError("at least one generator image is required")
        n_target = getattr(images[0], "n", None)  # _field_of refuses a non-element
        self.field = _field_of(images, n_target, field)
        if not all(u.is_odd() for u in images):
            raise ValueError("generator images must lie in the odd part")
        self.n_source = len(images)
        self.n_target = n_target
        self.images = images
        self._cache = {0: unit(n_target, self.field)}

    def _image_of_mask(self, mask):
        hit = self._cache.get(mask)
        if hit is None:
            top = mask.bit_length() - 1
            hit = self._image_of_mask(mask ^ (1 << top)) * self.images[top]
            self._cache[mask] = hit
        return hit

    def apply(self, x: GrassmannElement) -> GrassmannElement:
        """Image of an element of E(n_source) over the map's field."""
        _field_of((x,), self.n_source, self.field)
        acc = {}
        for mask, c in x.terms.items():
            _fold(acc, self._image_of_mask(mask).terms, c)
        return _element(self.n_target, self.field, acc)

    def apply_space(self, a: Subspace) -> Subspace:
        """Image of a subspace of E(n_source); refuses what apply refuses, and
        a subspace of another n even when it is zero."""
        if not isinstance(a, Subspace):
            raise TypeError("expected a Subspace, got %r" % (a,))
        if a.n != self.n_source:
            raise AmbientMismatch("subspace from n=%d for a map from n=%d" % (a.n, self.n_source))
        return span([self.apply(b) for b in a.basis], n=self.n_target, field=self.field)

    def is_bijective(self) -> bool:
        if self.n_source != self.n_target:
            return False
        linear = [{m: c for m, c in u.terms.items() if m.bit_count() == 1} for u in self.images]
        return _space(self.n_target, self.field, linear).dim == self.n_source


def hom_from_images(images, field=None) -> AlgebraHom:
    return AlgebraHom(images, field)


def graded_radical(a: Subspace) -> Subspace:
    """Positive-degree part of a graded unital subalgebra: its radical."""
    if not a.contains(unit(a.n, a.field)):
        raise ValueError("the radical shortcut needs a unital subalgebra")
    if not a.is_graded():
        raise ValueError("the radical shortcut needs a graded subalgebra")
    return _from_rows(a.n, a.field, {p: r for p, r in a._pivots.items() if p})


def radical_quotient_dim(a: Subspace) -> int:
    """dim(rad / rad^2); invariant under algebra isomorphism."""
    rad = graded_radical(a)
    rad2 = product_span(rad, rad)
    if not rad.contains_space(rad2):
        raise ValueError("not closed under products, no radical to speak of")
    return rad.dim - rad2.dim
