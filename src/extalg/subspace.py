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

Kernels (of a split, of the pairing, and the intersection of two spaces)
all come from one routine: the map's (image, source) pairs are stacked with
the source keys shifted above every image key, one echelon of the stack is
taken, and the source parts of the rows with a zero image part span the
kernel.
"""

from __future__ import annotations

from .core import AmbientMismatch, GrassmannElement, _same_field
from .fields import QQ, PrimeField, FpElement
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


def _submul(d: dict, c, row: dict):
    """d -= c * row in place; c nonzero."""
    for m, x in row.items():
        cur = d.get(m)
        if cur is None:
            d[m] = -(c * x)
        else:
            v = cur - c * x
            if v:
                d[m] = v
            else:
                del d[m]


def _echelon(dicts, keyfn=None):
    """Reduced echelon rows from term dicts. Returns {pivot: row}."""
    rows = {}
    for d0 in dicts:
        d = dict(d0)
        while d:
            p = min(d, key=keyfn) if keyfn else min(d)
            row = rows.get(p)
            if row is None:
                c = d[p]
                if c != 1:
                    ic = 1 / c
                    d = {m: ic * x for m, x in d.items()}
                rows[p] = d
                break
            _submul(d, d[p], row)
    pivots = sorted(rows, key=keyfn) if keyfn else sorted(rows)
    for i in range(len(pivots) - 1, -1, -1):
        p = pivots[i]
        rp = rows[p]
        for q in pivots[:i]:
            rq = rows[q]
            c = rq.get(p)
            if c:
                _submul(rq, c, rp)
    return rows


def _kernel(pairs, top):
    """Source parts spanning the vectors of span{(image, source)} whose
    image part is zero.  Image keys lie below top; source keys move up to
    top + key, so in one echelon of the stacked rows exactly the rows with
    pivot >= top have a zero image part, and they span that kernel
    (Zassenhaus)."""
    rows = _echelon({**img, **{top + m: c for m, c in src.items()}} for img, src in pairs)
    return [{m - top: c for m, c in row.items()} for p, row in rows.items() if p >= top]


def _field_of(vectors, field):
    if field is not None:
        return field
    for v in vectors:
        for c in v.terms.values():
            if isinstance(c, FpElement):
                return PrimeField(c.p)
            return QQ
    return QQ


class Subspace:
    """Use span() to build one; instances are immutable."""

    __slots__ = ("n", "field", "basis", "_pivots")

    def __init__(self, n, field, basis):
        self.n = n
        self.field = field
        self.basis = tuple(basis)
        for b in self.basis:
            for c in b.terms.values():
                if not _same_field(c, field.zero):
                    raise AmbientMismatch("coefficient %r outside the field %s" % (c, field.name))
        self._pivots = {min(b.terms): b.terms for b in self.basis}

    @property
    def dim(self) -> int:
        return len(self.basis)

    def is_zero(self) -> bool:
        return not self.basis

    def pivot_masks(self) -> tuple:
        return tuple(sorted(self._pivots))

    def reduce(self, x: GrassmannElement) -> GrassmannElement:
        """Residue of x modulo this subspace (zero iff x belongs to it)."""
        if x.n != self.n:
            raise AmbientMismatch("element from n=%d reduced in n=%d" % (x.n, self.n))
        # an element holds one field, so one coefficient tells it; zero has none
        if x.terms and not _same_field(next(iter(x.terms.values())), self.field.zero):
            raise AmbientMismatch("element over another field reduced in %s" % self.field.name)
        d = dict(x.terms)
        while d:
            p = min(d)
            row = self._pivots.get(p)
            if row is None:
                break
            _submul(d, d[p], row)
        return GrassmannElement(self.n, d, _canonical=True)

    def contains(self, x: GrassmannElement) -> bool:
        return not self.reduce(x).terms

    def contains_space(self, other: "Subspace") -> bool:
        return all(self.contains(b) for b in other.basis)

    def sum(self, other: "Subspace") -> "Subspace":
        self._check_compatible(other)
        return span(list(self.basis) + list(other.basis), n=self.n, field=self.field)

    def intersect(self, other: "Subspace") -> "Subspace":
        self._check_compatible(other)
        pairs = [(a.terms, a.terms) for a in self.basis] + [(b.terms, {}) for b in other.basis]
        cut = _kernel(pairs, 1 << self.n)
        return span([GrassmannElement(self.n, t, _canonical=True) for t in cut], n=self.n, field=self.field)

    def _check_compatible(self, other):
        if not isinstance(other, Subspace):
            raise TypeError("expected a Subspace")
        if other.n != self.n:
            raise AmbientMismatch("subspaces from n=%d and n=%d" % (self.n, other.n))
        if other.field != self.field:
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
            and other.field == self.field
            and other.basis == self.basis
        )

    def __hash__(self):
        return hash((self.n, self.field, self.basis))

    def __repr__(self):
        return "span<n=%d, dim=%d>[%s]" % (self.n, self.dim, "; ".join(repr(b) for b in self.basis))


def span(vectors, n=None, field=None) -> Subspace:
    vectors = list(vectors)
    for v in vectors:
        if not isinstance(v, GrassmannElement):
            raise TypeError("span expects GrassmannElement vectors, got %r" % (v,))
        if n is None:
            n = v.n
        elif v.n != n:
            raise AmbientMismatch("vector from n=%d in span over n=%d" % (v.n, n))
    if n is None:
        raise ValueError("span of no vectors needs an explicit n")
    field = _field_of(vectors, field)
    rows = _echelon([v.terms for v in vectors])
    basis = [
        GrassmannElement(n, rows[p], _canonical=True) for p in sorted(rows)
    ]
    return Subspace(n, field, basis)


def zero_space(n: int, field=QQ) -> Subspace:
    return Subspace(n, field, ())


def monomial_space(n: int, masks, field=QQ) -> Subspace:
    basis = [GrassmannElement(n, {m: field.one}) for m in sorted(set(masks))]
    return Subspace(n, field, basis)


def full_space(n: int, field=QQ) -> Subspace:
    return monomial_space(n, range(1 << n), field)


def grade_space(n: int, k: int, field=QQ) -> Subspace:
    if not 0 <= k <= n:
        raise ValueError("degree %r outside 0..%d" % (k, n))
    return monomial_space(n, (m for m in range(1 << n) if m.bit_count() == k), field)


def even_space(n: int, field=QQ) -> Subspace:
    return monomial_space(n, (m for m in range(1 << n) if not m.bit_count() & 1), field)


def odd_space(n: int, field=QQ) -> Subspace:
    return monomial_space(n, (m for m in range(1 << n) if m.bit_count() & 1), field)


def star_space(n: int, k: int, l: int, field=QQ) -> Subspace:
    """Monomials of degree k whose support contains the index l."""
    return family_space(star(n, k, l), field)


def family_space(fam: SetFamily, field=QQ) -> Subspace:
    """Monomial subspace spanned by the family's member sets."""
    return monomial_space(fam.n, fam.masks, field)


def product_span(a: Subspace, b: Subspace) -> Subspace:
    """Span of all pairwise products of basis vectors (hence of a*b images)."""
    a._check_compatible(b)
    prods = [x * y for x in a.basis for y in b.basis]
    return span(prods, n=a.n, field=a.field)


def split_generator(d: Subspace, i: int) -> Subspace:
    """ker(s_i|_D) + im(s_i|_D) for the substitution s_i killing generator i.

    The two pieces meet trivially (kernel terms all contain i, image terms
    never do), so the dimension is preserved; that is asserted."""
    if not isinstance(i, int) or not 1 <= i <= d.n:
        raise ValueError("generator index %r outside 1..%d" % (i, d.n))
    imgs = [b.substitute_zero(i) for b in d.basis]
    ker = _kernel([(im.terms, b.terms) for im, b in zip(imgs, d.basis)], 1 << d.n)
    vecs = [GrassmannElement(d.n, t, _canonical=True) for t in ker]
    vecs.extend(im for im in imgs if im.terms)
    out = span(vecs, n=d.n, field=d.field)
    if out.dim != d.dim:
        raise AssertionError("generator split changed dimension (%d -> %d)" % (d.dim, out.dim))
    return out


def _check_order(n, order):
    if order is None:
        return list(range(1, n + 1))
    order = list(order)
    if sorted(order) != list(range(1, n + 1)):
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

    Echelonizing with degree-then-mask pivoting makes the rows' lowest
    parts independent, so taking them row by row spans the whole thing."""
    keyfn = lambda m: (m.bit_count(), m)
    rows = _echelon([b.terms for b in a.basis], keyfn)
    mins = []
    for p in sorted(rows, key=keyfn):
        row = rows[p]
        lo = min(m.bit_count() for m in row)
        mins.append(
            GrassmannElement(a.n, {m: c for m, c in row.items() if m.bit_count() == lo}, _canonical=True)
        )
    return span(mins, n=a.n, field=a.field)


def skew_form(a: GrassmannElement, b: GrassmannElement) -> GrassmannElement:
    """Pairing of odd elements: the top-degree component of a*b for even n,
    the degree n-1 component for odd n.  Skew-symmetric either way."""
    if a.n != b.n:
        raise AmbientMismatch("elements from n=%d and n=%d" % (a.n, b.n))
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
    odd_masks = [m for m in range(1 << n) if m.bit_count() & 1]
    pairs = []
    for j in odd_masks:
        vj = GrassmannElement(n, {j: d.field.one})
        col = {}
        for k, b in enumerate(d.basis):
            for t, c in skew_form(vj, b).terms.items():
                col[(k << n) | t] = c
        pairs.append((col, {j: d.field.one}))
    ker = _kernel(pairs, d.dim << n)
    return span([GrassmannElement(n, t, _canonical=True) for t in ker], n=n, field=d.field)


def hilbert_series(a: Subspace) -> tuple:
    """Dimensions of the graded pieces; only graded subspaces have one."""
    if not a.is_graded():
        raise ValueError("subspace is not graded, no dimension series")
    out = [0] * (a.n + 1)
    for b in a.basis:
        out[next(iter(b.terms)).bit_count()] += 1
    return tuple(out)
