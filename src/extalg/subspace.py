"""Subspaces of the exterior algebra in canonical reduced echelon form.

A Subspace stores a reduced echelon basis with respect to the monomial
order: each basis vector is monic on its pivot (its largest monomial,
which is its smallest mask), pivots are strictly increasing as masks
along the basis list, and no pivot appears in any other basis vector.
The representation is unique per subspace, so equality is basis equality
and the spanned initial monomials can be read straight off the pivots.

The generator splitting map sends D to ker(s_i|_D) + im(s_i|_D) where
s_i substitutes 0 for generator i.  Composing the n splits monomializes
any subspace; the resulting monomial supports depend on the order in
which the generators are processed.

A split is one echelon of D's basis on lifted keys: every mask holding the
generator is moved above 2^n, so the rows pivoted there span the kernel and
the other rows, cut below 2^n, span the image.  min_degree_space lifts by
degree; both cut rows to their pivot's block (_from_blocks), no second echelon.
The kernels of the pairing and of the intersection of two spaces come from
one routine, _kernel: the map's (image, source) pairs are stacked with the
source keys shifted above every image key, one echelon of the stack is
taken, and the source parts of the rows with a zero image part span the
kernel.  Those rows are reduced echelon as they come, so perp and intersect
use them without a second echelon.

product_span follows two rules for the products of one-term vectors, which
are all a monomial algebra has: their unions come from shifted ANDs over a
2^n-bit set of masks, and they never enter the echelon; the multiplied
products are echelonized without the union keys and the unions join the
rows afterwards.

Rows are term dicts {key: coefficient} throughout this module; elements are
built only for a Subspace's basis, and they are given the subspace's field.
span() and Subspace() are the checked boundary, and _field_of is its one rule
for a list of vectors: each is an element of the same E(n), and each nonzero
one lies over the one field.  span, Subspace.reduce, skew_form and
structure.AlgebraHom (its images and apply's argument) apply it.
Subspace(n, field, basis) takes the span of its basis and refuses any basis
that is not that span's: the reduced echelon basis is unique, so this one
comparison refuses a zero vector, pivots out of order, a pivot that is not
monic and a pivot inside another vector.  Every subspace built inside
the package goes through _from_rows, which takes reduced echelon rows
{pivot: row} and checks nothing, as core._element does for elements.
_echelon consumes the dicts it is given (reduces them in place and keeps
some as rows), so every caller passes fresh dicts; span() and Subspace.sum
copy the terms of their input elements at the boundary.

_echelon reduces each incoming dict by the rows so far until its smallest
key is a new pivot, then back-substitutes row by row, by descending pivot:
each row clears only its own keys that are other rows' pivots.  Those rows
have larger pivots and are already reduced, so they bring in only keys that
are no pivot, and one pass per row is enough.  The work is the rows' length,
so a monomial space costs one lookup per row, not one per pair of rows.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import chain, compress, count, product

from .core import (
    AmbientMismatch,
    GrassmannElement,
    _check_int,
    _check_n,
    _element,
    _level_masks,
    _mul_terms,
    mask_of_indices,
    sign_of_masks,
)
from .fields import QQ, _check_field, _inverse
from .setfamilies import SetFamily, star

__all__ = [
    "Subspace",
    "span",
    "zero_space",
    "monomial_space",
    "full_space",
    "grade_space",
    "even_space",
    "odd_space",
    "star_space",
    "family_space",
    "product_span",
    "split_generator",
    "monomialize",
    "initial_span",
    "monomial_family",
    "monomial_supports",
    "min_degree_space",
    "skew_form",
    "perp",
    "hilbert_series",
]


def _eliminate(d: dict, p, row: dict):
    """d -= d[p] * row in place, for a row monic on its pivot p.  d[p] - d[p]*1
    is zero, so d[p] is dropped without arithmetic; a one-term row costs none."""
    c = d.pop(p)
    for m, x in row.items():
        if m == p:
            continue
        cur = d.get(m)
        if cur is None:
            d[m] = -(c * x)
        else:
            v = cur - c * x
            if v:
                d[m] = v
            else:
                del d[m]


def _reduce(d: dict, rows: dict):
    """Reduce d in place by {pivot: row}; return its first non-pivot key."""
    while d:
        p = min(d)
        row = rows.get(p)
        if row is None:
            return p
        _eliminate(d, p, row)
    return None


def _echelon(dicts):
    """Reduced echelon rows from term dicts, which it consumes: the dicts are
    reduced in place and may become rows. Returns {pivot: row}.

    The forward pass leaves each row's pivot as its smallest key.  The
    back-substitution then takes the rows by descending pivot and clears from
    each row only its own keys that are other rows' pivots.  The rows with a
    larger pivot are already reduced, so eliminating with one adds only keys
    above p that are no pivot: one pass per row is enough, and the cost is
    the rows' length, not a scan of every earlier row per pivot."""
    rows = {}
    for d in dicts:
        p = _reduce(d, rows)
        if p is not None:
            c = d[p]
            if c != 1:
                ic = _inverse(c)
                d = {m: ic * x for m, x in d.items()}
            rows[p] = d
    for p in sorted(rows, reverse=True):
        rp = rows[p]
        for m in [m for m in rp if m != p and m in rows]:
            _eliminate(rp, m, rows[m])
    return rows


def _kernel(pairs, top):
    """{pivot: row} of source parts spanning the kernel of source -> image.
    Image keys lie below top, so the rows with pivot >= top have a zero image
    part; every key of such a row is >= top, so lowered by top they are
    reduced echelon rows of their own."""
    rows = _echelon({**img, **{top + m: c for m, c in src.items()}} for img, src in pairs)
    return {p - top: {m - top: c for m, c in row.items()} for p, row in rows.items() if p >= top}


def _field_of(vectors, n, field=None):
    """The rule for a list of vectors of E(n): field (or the first nonzero
    vector's, or QQ).  Refuses a non-element (TypeError), a field that is not
    QQ or a PrimeField, and a vector of another n or a nonzero vector over
    another field (AmbientMismatch).  A zero vector mixes with any field."""
    if field is not None:
        _check_field(field)
    for v in vectors:
        if not isinstance(v, GrassmannElement):
            raise TypeError("expected GrassmannElement vectors, got %r" % (v,))
        if v.n != n:
            raise AmbientMismatch("vector from n=%d among vectors of n=%s" % (v.n, n))
        if v.terms:
            if field is None:
                field = v.field
            elif v.field is not field:
                raise AmbientMismatch("vector %r outside the field %s" % (v, field.name))
    return QQ if field is None else field


def _space(n, field, dicts) -> "Subspace":
    """The Subspace over field spanned by term dicts."""
    return _from_rows(n, field, _echelon(dicts))


def _from_rows(n, field, rows) -> "Subspace":
    """The Subspace over field on reduced echelon rows {pivot: row}, which it
    keeps as its _pivots; checks nothing."""
    s = object.__new__(Subspace)
    s.n = n
    s.field = field
    # a list, not a generator: tuple(<genexpr>) over-allocates while it grows
    s.basis = tuple([_element(n, field, rows[p]) for p in sorted(rows)])
    s._pivots = rows
    return s


class Subspace:
    """Use span() to build one; instances are immutable."""

    __slots__ = ("n", "field", "basis", "_pivots")

    def __init__(self, n, field, basis):
        """basis must be a reduced echelon basis over field (see the module
        docstring).  A vector from another n or field is refused with
        AmbientMismatch, any other basis with ValueError: the reduced echelon
        basis of a span is unique, so it must be the span's own."""
        basis = tuple(basis)
        s = span(basis, n, _check_field(field))
        if s.basis != basis:
            raise ValueError("basis is not the reduced echelon basis of its span over %s" % field.name)
        self.n = n
        self.field = field
        self.basis = s.basis
        self._pivots = s._pivots

    @property
    def dim(self) -> int:
        return len(self.basis)

    def is_zero(self) -> bool:
        return not self.basis

    def pivot_masks(self) -> tuple:
        return tuple(sorted(self._pivots))

    def reduce(self, x: GrassmannElement) -> GrassmannElement:
        """Residue of x modulo this subspace (zero iff x belongs to it)."""
        _field_of((x,), self.n, self.field)
        d = dict(x.terms)
        _reduce(d, self._pivots)
        return _element(self.n, self.field, d)

    def contains(self, x: GrassmannElement) -> bool:
        return not self.reduce(x).terms

    def contains_space(self, other: "Subspace") -> bool:
        """other lies in this subspace; refuses what sum and intersect refuse."""
        self._check_compatible(other)
        rows = self._pivots
        return all(_reduce(dict(b.terms), rows) is None for b in other.basis)

    def sum(self, other: "Subspace") -> "Subspace":
        self._check_compatible(other)
        return _space(self.n, self.field, [dict(b.terms) for b in self.basis + other.basis])

    def intersect(self, other: "Subspace") -> "Subspace":
        self._check_compatible(other)
        pairs = [(a.terms, a.terms) for a in self.basis] + [(b.terms, {}) for b in other.basis]
        return _from_rows(self.n, self.field, _kernel(pairs, 1 << self.n))

    def _check_compatible(self, other):
        if not isinstance(other, Subspace):
            raise TypeError("expected a Subspace")
        if other.n != self.n:
            raise AmbientMismatch("subspaces from n=%d and n=%d" % (self.n, other.n))
        if other.field is not self.field:
            raise AmbientMismatch(
                "subspaces over different fields: %s vs %s" % (self.field.name, other.field.name)
            )

    def is_monomial(self) -> bool:
        return all(len(b.terms) == 1 for b in self.basis)

    def is_graded(self) -> bool:
        return all(b.is_homogeneous() for b in self.basis)

    def __eq__(self, other):
        return (
            isinstance(other, Subspace)
            and other.n == self.n
            and other.field is self.field
            and other.basis == self.basis
        )

    def __hash__(self):
        return hash((self.n, self.field, self.basis))

    def __repr__(self):
        return "span<n=%d, dim=%d>[%s]" % (self.n, self.dim, "; ".join(repr(b) for b in self.basis))


def span(vectors, n=None, field=None) -> Subspace:
    """The subspace of E(n) over field spanned by vectors; n defaults to the
    first vector's, field as in _field_of."""
    vectors = list(vectors)
    if n is None:
        if not vectors:
            raise ValueError("span of no vectors needs an explicit n")
        n = getattr(vectors[0], "n", None)  # _field_of refuses a non-element
    field = _field_of(vectors, n, field)
    _check_n(n)
    return _space(n, field, [dict(v.terms) for v in vectors])


def zero_space(n: int, field=QQ) -> Subspace:
    _check_n(n)
    return _from_rows(n, _check_field(field), {})


def monomial_space(n: int, masks, field=QQ) -> Subspace:
    return _from_rows(n, _check_field(field), {m: {m: field.one} for m in SetFamily(n, masks)})


def full_space(n: int, field=QQ) -> Subspace:
    return monomial_space(n, range(1 << n), field)


def grade_space(n: int, k: int, field=QQ) -> Subspace:
    _check_int(k, "degree", 0, n)
    return monomial_space(n, _level_masks(n, (k,)), field)


def even_space(n: int, field=QQ) -> Subspace:
    return monomial_space(n, _level_masks(n, range(0, n + 1, 2)), field)


def odd_space(n: int, field=QQ) -> Subspace:
    return monomial_space(n, _level_masks(n, range(1, n + 1, 2)), field)


def star_space(n: int, k: int, l: int, field=QQ) -> Subspace:
    """Monomials of degree k whose support contains the index l."""
    return family_space(star(n, k, l), field)


def family_space(fam: SetFamily, field=QQ) -> Subspace:
    """Monomial subspace spanned by the family's member sets."""
    return monomial_space(fam.n, fam.masks, field)


def _shared(terms: dict) -> int:
    """Mask of the indices that every term contains (0 if a term is the unit)."""
    c = -1
    for m in terms:
        c &= m
    return c


def _by_length(space):
    """(shared indices, terms) of the basis vectors: the one-term ones, then the rest."""
    one, many = [], []
    for x in space.basis:
        (one if len(x.terms) == 1 else many).append((_shared(x.terms), x.terms))
    return one, many


@lru_cache(maxsize=None)
def _without(n):
    """without[i]: the 2^n-bit set (bit m stands for mask m) of the masks that
    lack index i + 1.  Its pattern repeats every 2^(i+1) bits, lower half set."""
    full = (1 << (1 << n)) - 1
    return tuple(full // ((1 << (2 << i)) - 1) * ((1 << (1 << i)) - 1) for i in range(n))


_BITS = bytes.maketrans(b"01", b"\0\1")


def _unions(n, a1, b1):
    """Ascending masks cx | cy over the disjoint pairs of masks cx in a1, cy in b1.

    b1 becomes one 2^n-bit set B.  The masks disjoint from cx are the AND of
    without[i] over the indices i of cx; those in B, shifted up by cx, are the
    unions, since cy + cx = cy | cx for disjoint masks.  Reading the bits off
    through one binary string keeps the extraction linear in 2^n."""
    without = _without(n)
    seen = bytearray((1 << n) + 7 >> 3)
    for cy in b1:
        seen[cy >> 3] |= 1 << (cy & 7)
    b = int.from_bytes(seen, "little")
    out = 0
    for cx in a1:
        d, c = b, cx
        while c:
            low = c & -c
            d &= without[low.bit_length() - 1]
            c ^= low
        out |= d << cx
    return list(compress(count(), bin(out)[:1:-1].encode().translate(_BITS)))


def product_span(a: Subspace, b: Subspace) -> Subspace:
    """Span of all pairwise products of basis vectors (hence of a*b images).

    A pair x, y is skipped when the indices shared by all terms of x meet
    those shared by all terms of y: then every term product repeats an index
    and x*y = 0.  For monomial spaces this skips exactly the zero products.

    A pair of one-term vectors c*v_I, d*v_J with I and J disjoint has the
    product +-cd*v_{I|J}, nonzero in any field, so it adds only the monomial
    v_{I|J}.  Two rules keep these unions cheap:
    - they come from shifted ANDs over a 2^n-bit set (_unions), never from a
      loop over the pairs;
    - they never enter the echelon.  Each union key is popped from every
      multiplied product, only the rest is echelonized, and each union joins
      the rows as {u: 1}.  The two sets of rows share no key, so together
      they are already in reduced echelon form.
    Only pairs holding a vector of two or more terms are multiplied.  The
    reduced echelon basis of a span is unique, so the order in which rows
    enter does not change the result."""
    a._check_compatible(b)
    n, field = a.n, a.field
    a1, am = _by_length(a)
    b1, bm = _by_length(b)
    unions = _unions(n, [cx for cx, _ in a1], [cy for cy, _ in b1])
    pairs = chain(product(am, b1 + bm), product(a1, bm))
    products = (_mul_terms(tx, ty) for (cx, tx), (cy, ty) in pairs if not cx & cy)
    if unions and (am or bm):
        keys = set(unions)
        products = ({m: c for m, c in d.items() if m not in keys} for d in products)
    rows = _echelon(products)
    for u in unions:
        rows[u] = {u: field.one}
    return _from_rows(n, field, rows)


def _from_blocks(n, field, rows) -> Subspace:
    """The Subspace on echelon rows keyed (block(m) << n) | m, each cut to its
    pivot's block.  The block is a function of m, so lowering keys to masks is
    one-to-one and keeps the order in a block: the cut rows are monic on
    distinct pivots that no other cut row holds, reduced echelon as they come."""
    low = (1 << n) - 1
    return _from_rows(n, field, {p & low: {k & low: c for k, c in row.items() if k >> n == p >> n} for p, row in rows.items()})


def split_generator(d: Subspace, i: int) -> Subspace:
    """ker(s_i|_D) + im(s_i|_D) for the substitution s_i killing generator i.

    One echelon of D's basis in blocks (_from_blocks): block 1 holds the
    masks with i, block 0 the others.  The rows pivoted in block 1 span the
    kernel and the others the image, so no second echelon runs.  The
    dimension is kept; that is asserted."""
    top = 1 << d.n
    bit = 1 << (_check_int(i, "generator index", 1, d.n) - 1)
    rows = _echelon({m | top if m & bit else m: c for m, c in b.terms.items()} for b in d.basis)
    out = _from_blocks(d.n, d.field, rows)
    if out.dim != d.dim:
        raise AssertionError("generator split changed dimension (%d -> %d)" % (d.dim, out.dim))
    return out


def _check_order(n, order):
    if order is None:
        return list(range(1, n + 1))
    order = list(order)
    if mask_of_indices(n, order) != (1 << n) - 1:
        raise ValueError("order must be a permutation of 1..%d, got %r" % (n, order))
    return order


def monomialize(d: Subspace, order=None) -> Subspace:
    """Apply every generator split once, composition written left to right:
    the last entry of order acts first, order[0] acts last."""
    order = _check_order(d.n, order)
    for i in reversed(order):
        d = split_generator(d, i)
    return d


def initial_span(d: Subspace) -> Subspace:
    """Span of the initial monomials of all members: read the pivots."""
    return monomial_space(d.n, d.pivot_masks(), d.field)


def monomial_family(m: Subspace) -> SetFamily:
    """Supports of the basis of a monomial subspace."""
    if not m.is_monomial():
        raise AssertionError("split chain left a non-monomial basis: %r" % (m,))
    return SetFamily(m.n, m.pivot_masks())


def monomial_supports(d: Subspace, order=None) -> SetFamily:
    """Supports of the monomial basis that the full split chain produces."""
    return monomial_family(monomialize(d, order))


def min_degree_space(a: Subspace) -> Subspace:
    """Span of the lowest-degree homogeneous parts of all members.

    One echelon in blocks (_from_blocks), the degree as the block, pivots
    degree first: the cut rows are the rows' lowest-degree parts, independent
    as their pivots differ; row by row they span the lot."""
    n = a.n
    rows = _echelon({(m.bit_count() << n) | m: c for m, c in b.terms.items()} for b in a.basis)
    return _from_blocks(n, a.field, rows)


def skew_form(a: GrassmannElement, b: GrassmannElement) -> GrassmannElement:
    """Pairing of odd elements: the top-degree component of a*b for even n,
    the degree n-1 component for odd n.  Skew-symmetric either way."""
    _field_of((a, b), getattr(a, "n", None))  # refuses a non-element
    if not a.is_odd() or not b.is_odd():
        raise ValueError("the pairing is defined on odd elements only")
    p = a * b
    k = a.n if a.n % 2 == 0 else a.n - 1
    return p.grade_component(k)


def perp(d: Subspace) -> Subspace:
    """All odd x with skew_form(x, w) = 0 for every w in d (d must be odd)."""
    for b in d.basis:
        if not b.is_odd():
            raise ValueError("perp is defined for subspaces of the odd part only")
    n = d.n
    full = (1 << n) - 1
    # cols[j] holds skew_form(v_j, b_k) at key (k << n) | t for its term v_t.
    # v_j * v_s reaches the pairing degree only when j is the rest of {1..n}
    # minus s (n even), or that rest minus one index (n odd).
    cols = {j: {} for j in _level_masks(n, range(1, n + 1, 2))}
    for k, b in enumerate(d.basis):
        for s, c in b.terms.items():
            rest = full ^ s
            for miss in (0,) if n % 2 == 0 else [1 << i for i in range(n) if rest >> i & 1]:
                j = rest ^ miss
                cols[j][(k << n) | (full ^ miss)] = c if sign_of_masks(j, s) > 0 else -c
    return _from_rows(n, d.field, _kernel([(col, {j: d.field.one}) for j, col in cols.items()], d.dim << n))


def hilbert_series(a: Subspace) -> tuple:
    """Dimensions of the graded pieces; only graded subspaces have one."""
    if not a.is_graded():
        raise ValueError("subspace is not graded, no dimension series")
    out = [0] * (a.n + 1)
    for b in a.basis:
        out[next(iter(b.terms)).bit_count()] += 1
    return tuple(out)
