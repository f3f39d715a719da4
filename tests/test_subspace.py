import random
from itertools import product

import pytest

from extalg.core import AmbientMismatch, GrassmannElement, Monomial, generator, monomial, unit, zero
from extalg.fields import QQ, PrimeField, field_of
from extalg.setfamilies import SetFamily, odd_upper_levels
from extalg.structure import canonical_max_commutative
from extalg.subspace import (
    Subspace,
    even_space,
    family_space,
    full_space,
    grade_space,
    hilbert_series,
    initial_span,
    min_degree_space,
    monomial_family,
    monomial_space,
    monomial_supports,
    monomialize,
    odd_space,
    perp,
    product_span,
    skew_form,
    span,
    split_generator,
    star_space,
    zero_space,
)
from extalg.text import parse_element, print_element


def elem(s, n, field=QQ):
    return parse_element(s, n, field)


def rand_elem(rng, n, field=QQ, masks=None, max_terms=4):
    pool = list(masks) if masks is not None else list(range(1 << n))
    out = {}
    for _ in range(rng.randint(1, max_terms)):
        c = 0
        while c == 0:
            c = rng.randint(-4, 4)
        out[pool[rng.randrange(len(pool))]] = field.coerce(c)
    return GrassmannElement(n, out)


def rand_space(rng, n, max_dim=5, field=QQ, masks=None):
    vecs = [rand_elem(rng, n, field, masks) for _ in range(rng.randint(1, max_dim))]
    return span(vecs, n=n, field=field)


def all_space_elements(s):
    """Every element of a subspace over a prime field, zero included."""
    p = s.field.characteristic
    for coeffs in product(range(p), repeat=s.dim):
        acc = zero(s.n)
        for c, b in zip(coeffs, s.basis):
            if c:
                acc = acc + b.scale(s.field.coerce(c))
        yield acc


def test_span_canonical_basis():
    s = span([elem("v{1}+v{2}", 2), elem("v{2}", 2)])
    assert s.dim == 2
    assert s.basis == (elem("v{1}", 2), elem("v{2}", 2))
    assert s.pivot_masks() == (0b01, 0b10)


def test_span_drops_dependents_and_zeros():
    s = span([elem("v{1}", 3), elem("2*v{1}", 3), zero(3), elem("v{1}-v{2}", 3)])
    assert s.dim == 2


def test_span_equality_is_canonical():
    a = span([elem("v{1}+v{2}", 2), elem("v{1}-v{2}", 2)])
    b = span([elem("v{1}", 2), elem("v{2}", 2)])
    assert a == b and hash(a) == hash(b)


def test_pivots_strictly_ascend_and_rows_are_reduced():
    rng = random.Random(5)
    for _ in range(40):
        n = rng.randint(2, 6)
        s = rand_space(rng, n)
        pivots = s.pivot_masks()
        assert list(pivots) == sorted(pivots)
        for i, row in enumerate(s.basis):
            assert row.coefficient(pivots[i]) == s.field.one
            for j, other in enumerate(pivots):
                if j != i:
                    assert not row.coefficient(other)


def test_reduce_and_contains():
    s = span([elem("v{1}+v{2}", 2)])
    assert s.contains(elem("2*v{1}+2*v{2}", 2))
    assert not s.contains(elem("v{1}", 2))
    r = s.reduce(elem("v{1}", 2))
    assert not r.is_zero()
    assert s.reduce(elem("v{1}+v{2}", 2)).is_zero()


def test_sum_intersect_dimension_identity():
    rng = random.Random(11)
    for _ in range(50):
        n = rng.randint(2, 5)
        a = rand_space(rng, n)
        b = rand_space(rng, n)
        u = a.sum(b)
        i = a.intersect(b)
        assert a.dim + b.dim == u.dim + i.dim
        assert u.contains_space(a) and u.contains_space(b)
        assert a.contains_space(i) and b.contains_space(i)


def test_ambient_and_field_mismatch():
    with pytest.raises(AmbientMismatch):
        span([elem("v{1}", 2)]).sum(span([elem("v{1}", 3)]))
    f = PrimeField(3)
    with pytest.raises(AmbientMismatch):
        span([elem("v{1}", 2)]).intersect(span([elem("v{1}", 2, f)], n=2, field=f))
    with pytest.raises(TypeError, match="expected a Subspace"):
        span([elem("v{1}", 2)]).sum(3)
    with pytest.raises(ValueError, match="explicit n"):
        span([])


def test_standard_spaces():
    assert full_space(3).dim == 8
    assert even_space(3).dim == 4
    assert odd_space(3).dim == 4
    assert grade_space(4, 2).dim == 6
    assert star_space(4, 3, 1).dim == 3
    assert zero_space(5).is_zero()
    assert monomial_space(3, [0b101, 0b010]).dim == 2
    assert even_space(3).sum(odd_space(3)) == full_space(3)
    assert even_space(3).intersect(odd_space(3)).is_zero()


def test_is_monomial_and_graded():
    assert monomial_space(3, [0b011, 0b100]).is_monomial()
    assert not span([elem("v{1}+v{2}", 2)]).is_monomial()
    assert span([elem("v{1}+v{2}", 2)]).is_graded()
    assert not span([elem("v{1}+v{2,3}", 3)]).is_graded()
    assert hilbert_series(grade_space(4, 2)) == (0, 0, 6, 0, 0)
    with pytest.raises(ValueError):
        hilbert_series(span([elem("v{1}+v{2,3}", 3)]))


def test_split_generator_basics():
    d = span([elem("v{1}+v{2}", 2)])
    assert split_generator(d, 1) == monomial_space(2, [0b10])
    assert split_generator(d, 2) == monomial_space(2, [0b01])
    with pytest.raises(ValueError):
        split_generator(d, 3)


def test_split_preserves_dim_and_is_idempotent():
    rng = random.Random(23)
    for _ in range(60):
        n = rng.randint(2, 6)
        d = rand_space(rng, n)
        i = rng.randint(1, n)
        g = split_generator(d, i)
        assert g.dim == d.dim
        assert split_generator(g, i) == g


def test_split_fixes_monomial_spaces():
    rng = random.Random(31)
    for _ in range(30):
        n = rng.randint(2, 6)
        masks = rng.sample(range(1 << n), rng.randint(1, min(6, 1 << n)))
        m = monomial_space(n, masks)
        i = rng.randint(1, n)
        assert split_generator(m, i) == m


def test_monomialize_order_dependence():
    d = span([elem("v{1}+v{2}", 2)])
    assert monomialize(d, [1, 2]) == monomial_space(2, [0b01])
    assert monomialize(d, [2, 1]) == monomial_space(2, [0b10])
    assert monomialize(d) == initial_span(d)


def test_monomialize_equals_initial_span_random():
    rng = random.Random(41)
    for _ in range(80):
        n = rng.randint(2, 6)
        d = rand_space(rng, n)
        m = monomialize(d)
        assert m.dim == d.dim
        assert m.is_monomial()
        assert m == initial_span(d)


def test_initial_span_brute_force_oracle_gf3():
    """Enumerate every element of small gf:3 subspaces and collect initial
    monomials directly; the span read off pivots must match exactly."""
    f = PrimeField(3)
    rng = random.Random(59)
    for _ in range(12):
        n = rng.randint(2, 4)
        d = rand_space(rng, n, max_dim=3, field=f)
        seen = set()
        for x in all_space_elements(d):
            if not x.is_zero():
                seen.add(x.initial_monomial().mask)
        assert seen == set(initial_span(d).pivot_masks())
        assert len(seen) == d.dim


def test_order_validation():
    d = span([elem("v{1}", 3)])
    with pytest.raises(ValueError):
        monomialize(d, [1, 2])
    with pytest.raises(ValueError):
        monomialize(d, [1, 2, 2])
    with pytest.raises(ValueError):
        monomialize(d, [0, 1, 2])


def test_monomial_supports():
    d = span([elem("v{1,2,3}+v{4,5,6}", 6), elem("v{1,2,4}+v{3,5,6}", 6)])
    assert monomial_supports(d).to_sets() == [[1, 2, 3], [1, 2, 4]]
    assert monomial_supports(d, [1, 2, 6, 4, 5, 3]).to_sets() == [[1, 2, 4], [4, 5, 6]]


def test_monomial_family_needs_a_monomial_basis():
    assert monomial_family(monomial_space(4, [0b0011, 0b0100])).to_sets() == [[1, 2], [3]]
    with pytest.raises(AssertionError):
        monomial_family(span([elem("v{1}+v{2}", 2)]))


def test_product_span():
    a = span([elem("v{1}", 3), elem("v{2}", 3)])
    assert product_span(a, a) == monomial_space(3, [0b011])
    e = full_space(2)
    assert product_span(e, e) == e
    assert product_span(a, zero_space(3)).is_zero()


def test_min_degree_space():
    a = span([elem("v{1}+v{2,3}", 3), elem("v{1,2,3}", 3)])
    m = min_degree_space(a)
    assert m == span([elem("v{1}", 3), elem("v{1,2,3}", 3)])
    assert m.dim == a.dim
    g = grade_space(4, 2)
    assert min_degree_space(g) == g


def test_min_degree_space_mixed_rows():
    a = span([elem("v{1}+v{1,2,3}", 3), elem("v{2}+v{1,2,3}", 3)])
    m = min_degree_space(a)
    assert m == span([elem("v{1}", 3), elem("v{2}", 3)])


def test_skew_form_values():
    a = elem("v{1}", 2)
    b = elem("v{2}", 2)
    assert skew_form(a, b) == elem("v{1,2}", 2)
    assert skew_form(b, a) == elem("-v{1,2}", 2)
    x = elem("v{1}", 3)
    y = elem("v{2,3}+v{1,2,3}", 3)
    with pytest.raises(ValueError):
        skew_form(x, y)


def test_skew_form_refuses_what_is_not_an_element():
    for a, b in ((generator(2, 1), 3), (3, generator(2, 1)), (generator(2, 1), "v{2}")):
        with pytest.raises(TypeError):
            skew_form(a, b)
    with pytest.raises(AmbientMismatch):
        skew_form(generator(2, 1), generator(3, 1))
    with pytest.raises(AmbientMismatch):
        skew_form(generator(2, 1), generator(2, 2, PrimeField(5)))


def test_skew_form_grade_by_parity():
    # even ambient: the pairing lands in the top grade
    s = skew_form(elem("v{1}", 4), elem("v{2,3,4}", 4))
    assert s == elem("v{1,2,3,4}", 4)
    # odd ambient: it lands one grade below the top
    t = skew_form(elem("v{1}", 5), elem("v{2,3,4}", 5))
    assert t == elem("v{1,2,3,4}", 5)
    u = skew_form(elem("v{1}", 5), elem("v{3,4,5}", 5))
    assert u == elem("v{1,3,4,5}", 5)


def test_skew_form_is_skew():
    rng = random.Random(61)
    for n in (2, 3, 4, 5):
        odd_masks = [m for m in range(1 << n) if m.bit_count() & 1]
        for _ in range(20):
            a = rand_elem(rng, n, masks=odd_masks)
            b = rand_elem(rng, n, masks=odd_masks)
            assert skew_form(a, b) == -skew_form(b, a)


def test_perp_examples():
    for n in (2, 4):
        assert perp(odd_space(n)).is_zero()
        assert perp(zero_space(n)) == odd_space(n)
    d = star_space(4, 1, 1).sum(star_space(4, 3, 1))  # odd monomials containing 1
    assert perp(d) == d
    with pytest.raises(ValueError, match="odd part only"):
        perp(span([elem("v{1}+v{1,2}", 2)]))


def test_perp_brute_force_oracle_gf3():
    """Check perp membership against exhaustive enumeration of the odd part."""
    f = PrimeField(3)
    n = 4
    rng = random.Random(67)
    odd_masks = [m for m in range(1 << n) if m.bit_count() & 1]
    for _ in range(4):
        d = rand_space(rng, n, max_dim=2, field=f, masks=odd_masks)
        p = perp(d)
        count = 0
        for u in all_space_elements(odd_space(n, f)):
            orthogonal = all(skew_form(u, b).is_zero() for b in d.basis)
            assert orthogonal == p.contains(u)
            count += orthogonal
        assert count == f.characteristic ** p.dim


def test_perp_dimension_formula_even_n():
    rng = random.Random(71)
    for n in (2, 4):
        odd_masks = [m for m in range(1 << n) if m.bit_count() & 1]
        for _ in range(10):
            d = rand_space(rng, n, max_dim=3, masks=odd_masks)
            assert perp(d).dim == 2 ** (n - 1) - d.dim
            assert perp(perp(d)) == d


def test_family_space():
    from extalg.setfamilies import SetFamily

    fam = SetFamily.from_sets(3, [[1], [1, 2, 3]])
    s = family_space(fam)
    assert s.dim == 2 and s.is_monomial()
    assert s.pivot_masks() == (0b001, 0b111)


def test_gf5_lane_matches_rational_behavior():
    f = PrimeField(5)
    rng = random.Random(73)
    for _ in range(20):
        n = rng.randint(2, 5)
        d = rand_space(rng, n, max_dim=4, field=f)
        m = monomialize(d)
        assert m.dim == d.dim and m.is_monomial() and m == initial_span(d)


def test_subspace_repr():
    s = span([elem("v{1}+v{2}", 2)])
    assert "v{1}+v{2}" in repr(s)


def test_intersect_brute_force_oracle_gf3():
    """The intersection's elements are exactly the common elements."""
    f = PrimeField(3)
    n = 3
    rng = random.Random(101)
    for _ in range(6):
        a = rand_space(rng, n, max_dim=4, field=f)
        b = rand_space(rng, n, max_dim=4, field=f)
        common = set(all_space_elements(a)) & set(all_space_elements(b))
        assert set(all_space_elements(a.intersect(b))) == common


def test_split_generator_brute_force_oracle_gf3():
    """split_generator(d, i) is ker(s_i|d) (+) s_i(d), element by element."""
    f = PrimeField(3)
    n = 4
    rng = random.Random(103)
    for _ in range(6):
        d = rand_space(rng, n, max_dim=3, field=f)
        i = rng.randint(1, n)
        members = list(all_space_elements(d))
        ker = {x for x in members if x.substitute_zero(i).is_zero()}
        img = {x.substitute_zero(i) for x in members}
        s = split_generator(d, i)
        elements = list(all_space_elements(s))
        assert len(elements) == len(ker) * len(img)
        for e in elements:
            assert e.substitute_zero(i) in img
            assert e - e.substitute_zero(i) in ker


def test_span_checks_an_explicit_n():
    for bad in (True, 0, 17, 2.0, -1):
        with pytest.raises(ValueError):
            span([], n=bad)
        with pytest.raises(ValueError):
            span([], n=bad, field=PrimeField(3))
    with pytest.raises(AmbientMismatch):
        span([generator(2, 1)], n=3)
    for bad in ([3], [generator(2, 1), "v{1}"], [Monomial(2, 1)]):
        with pytest.raises(TypeError):
            span(bad)
    assert span([], n=16).n == 16 and span([zero(2)], n=2).is_zero()


def test_span_refuses_coefficients_outside_its_field():
    with pytest.raises(AmbientMismatch):
        span([elem("v{1}+v{2}", 2)], field=PrimeField(5))
    with pytest.raises(AmbientMismatch):
        span([elem("v{1}", 2, PrimeField(3))], field=PrimeField(5))
    with pytest.raises(AmbientMismatch):
        Subspace(2, QQ, [elem("v{1}", 2, PrimeField(5))])
    with pytest.raises(AmbientMismatch):
        span([elem("v{1}", 2, PrimeField(5)), elem("v{1}+v{2}", 2)])  # the supports meet
    assert span([elem("v{1}", 2, PrimeField(5))]).field == PrimeField(5)


def test_reduce_refuses_elements_over_another_field():
    f = PrimeField(5)
    s = span([generator(2, 1, f)])
    with pytest.raises(AmbientMismatch):
        s.contains(generator(2, 2))  # disjoint from the basis support
    with pytest.raises(AmbientMismatch):
        s.contains(generator(2, 1))  # meets the pivot of the basis
    with pytest.raises(AmbientMismatch):
        s.reduce(generator(2, 1, PrimeField(3)))
    with pytest.raises(AmbientMismatch):
        span([generator(2, 1)]).contains(generator(2, 2, f))
    with pytest.raises(AmbientMismatch):
        s.reduce(generator(3, 1, f))
    with pytest.raises(TypeError):
        s.reduce(3)
    assert s.reduce(zero(2)).is_zero() and span([generator(2, 1)]).contains(zero(2))
    assert s.contains(generator(2, 1, f).scale(3)) and not s.contains(generator(2, 2, f))


# perp reads the pairing off the basis terms, and min_degree_space pivots on
# keys with the degree above the mask; these are the direct routes they replace.

def perp_by_skew_form(d):
    """Kernel of x -> (skew_form(x, b))_b over the odd monomials x."""
    from extalg.subspace import _kernel

    n, one = d.n, d.field.one
    pairs = []
    for j in range(1 << n):
        if j.bit_count() & 1:
            col = {}
            for k, b in enumerate(d.basis):
                for t, c in skew_form(GrassmannElement(n, {j: one}), b).terms.items():
                    col[(k << n) | t] = c
            pairs.append((col, {j: one}))
    return span([GrassmannElement(n, t) for t in _kernel(pairs, d.dim << n).values()], n=n, field=d.field)


def min_degree_by_forward_echelon(a):
    """Forward elimination pivoting on the (degree, mask) order: the rows'
    leading keys differ, so their lowest-degree parts span those of a."""
    order = lambda m: (m.bit_count(), m)
    rows = {}
    for b in a.basis:
        d = dict(b.terms)
        while d:
            p = min(d, key=order)
            if p not in rows:
                rows[p] = d
                break
            r = rows[p]
            c = d[p] / r[p]
            for m, x in r.items():
                v = d[m] - c * x if m in d else -(c * x)
                if v:
                    d[m] = v
                else:
                    del d[m]
    lows = [GrassmannElement(a.n, {m: c for m, c in row.items() if m.bit_count() == p.bit_count()})
            for p, row in rows.items()]
    return span(lows, n=a.n, field=a.field)


@pytest.mark.parametrize("field", [QQ, PrimeField(3)], ids=["QQ", "GF3"])
def test_perp_matches_the_skew_form_kernel(field):
    rng = random.Random(107)
    for n in range(1, 8):
        odd_masks = [m for m in range(1 << n) if m.bit_count() & 1]
        spaces = [zero_space(n, field), odd_space(n, field)]
        spaces += [rand_space(rng, n, max_dim=6, field=field, masks=odd_masks) for _ in range(8)]
        # n = 1 has one odd monomial; from n = 3 on some basis vector is a sum
        assert n < 3 or any(len(b.terms) > 1 for d in spaces for b in d.basis)
        for d in spaces:
            assert perp(d) == perp_by_skew_form(d)


@pytest.mark.parametrize("field", [QQ, PrimeField(3)], ids=["QQ", "GF3"])
def test_min_degree_space_matches_a_degree_then_mask_echelon(field):
    rng = random.Random(109)
    for n in range(1, 8):
        for _ in range(8):
            a = rand_space(rng, n, max_dim=6, field=field)
            assert min_degree_space(a) == min_degree_by_forward_echelon(a)


# product_span skips a pair when the indices shared by all terms of x meet
# those shared by all terms of y; the oracle multiplies every pair.

def product_span_all_pairs(a, b):
    return span([x * y for x in a.basis for y in b.basis], n=a.n, field=a.field)


def shared_indices(x):
    c = -1
    for m in x.terms:
        c &= m
    return c


@pytest.mark.parametrize("field", [QQ, PrimeField(3)], ids=["QQ", "GF3"])
def test_product_span_matches_all_pairs(field):
    rng = random.Random(113)
    skipped_sums = 0
    for n in range(1, 8):
        spaces = [zero_space(n, field)]
        # every term through index i, so some sums share an index
        for i in range(n):
            through_i = [m for m in range(1 << n) if m >> i & 1]
            spaces.append(rand_space(rng, n, max_dim=4, field=field, masks=through_i))
        # a unit term: shares no index with anything
        spaces.append(span([rand_elem(rng, n, field) + unit(n, field), rand_elem(rng, n, field)], n=n, field=field))
        spaces += [rand_space(rng, n, max_dim=5, field=field) for _ in range(3)]
        for a in spaces:
            for b in spaces:
                assert product_span(a, b) == product_span_all_pairs(a, b)
                skipped_sums += sum(1 for x in a.basis for y in b.basis
                                    if shared_indices(x) & shared_indices(y) and len(x.terms) > 1)
    # the skip rule fires on sums, not only on monomials
    assert skipped_sums > 0


def odd_intersecting_family(rng, n, most=10):
    """Up to `most` odd sets that pairwise meet, drawn greedily in random order."""
    odd = [m for m in range(1 << n) if m.bit_count() & 1]
    rng.shuffle(odd)
    fam = []
    for m in odd:
        if len(fam) < most and all(m & f for f in fam):
            fam.append(m)
    return SetFamily(n, fam)


def mixed_space(rng, n, field):
    """Monomials on a few masks plus a two-term vector on two other masks."""
    masks = rng.sample(range(1 << n), min(1 << n, 6))
    sum_masks, mono_masks = masks[:2], masks[2:]
    one, two = field.one, field.coerce(2)
    vecs = [GrassmannElement(n, {m: one}) for m in mono_masks]
    vecs.append(GrassmannElement(n, {sum_masks[0]: one, sum_masks[1]: two}))
    return span(vecs, n=n, field=field)


@pytest.mark.parametrize("field", [QQ, PrimeField(3)], ids=["QQ", "GF3"])
def test_product_span_mask_path_matches_all_pairs(field):
    # product_span adds the union of two disjoint one-term vectors as a
    # monomial and multiplies only pairs holding a longer vector
    rng = random.Random(137)
    union_pairs = multiplied_pairs = 0
    for n in range(1, 8):
        spaces = [family_space(odd_intersecting_family(rng, n), field) for _ in range(2)]
        spaces += [grade_space(n, 1, field), grade_space(n, rng.randint(0, n), field)]
        if n >= 2:
            spaces.append(grade_space(n, 2, field))
            mixed = mixed_space(rng, n, field)
            assert {len(x.terms) > 1 for x in mixed.basis} == {False, True}
            spaces.append(mixed)
        spaces.append(span([unit(n, field), rand_elem(rng, n, field), rand_elem(rng, n, field)], n=n, field=field))
        for a in spaces:
            for b in spaces:
                assert product_span(a, b) == product_span_all_pairs(a, b)
                for x in a.basis:
                    for y in b.basis:
                        if not shared_indices(x) & shared_indices(y):
                            if len(x.terms) == len(y.terms) == 1:
                                union_pairs += 1
                            else:
                                multiplied_pairs += 1
    assert union_pairs > 0 and multiplied_pairs > 0


def unions_by_loop(a_masks, b_masks):
    """Masks I | J over every disjoint pair, by a plain loop."""
    return {x | y for x in a_masks for y in b_masks if not x & y}


@pytest.mark.parametrize("n", range(8, 17))
def test_product_span_of_monomial_spaces_matches_its_mask_sets(n):
    # product_span finds these unions by shifted ANDs over a 2^n-bit set; the
    # expected sets are closed forms, and a loop over disjoint pairs for n <= 12
    def level(k):
        return {m for m in range(1 << n) if m.bit_count() == k}

    upper = family_space(odd_upper_levels(n))
    canon = canonical_max_commutative(n)
    star3 = star_space(n, 3, 1)
    cases = [
        (grade_space(n, 2), grade_space(n, 3), level(5)),
        (grade_space(n, 1), grade_space(n, n // 2), level(n // 2 + 1)),
        (grade_space(n, 0), grade_space(n, n), level(n)),
        (grade_space(n, n), grade_space(n, 1), set()),
        (star3, grade_space(n, 2), {m for m in level(5) if m & 1}),
        (star3, star3, set()),
        (upper, upper, set()),
        (upper, grade_space(n, 1), {m for m in range(1 << n) if m.bit_count() % 2 == 0 and 2 * m.bit_count() > n + 2}),
        # a subalgebra holding the unit is its own square
        (canon, canon, set(canon.pivot_masks())),
    ]
    for a, b, want in cases:
        got = product_span(a, b)
        assert got.is_monomial() and got.field is QQ
        assert got.pivot_masks() == tuple(sorted(want))
        if n <= 12:
            assert unions_by_loop(a.pivot_masks(), b.pivot_masks()) == want


@pytest.mark.parametrize("field", [QQ, PrimeField(3)], ids=["QQ", "GF3"])
@pytest.mark.parametrize("n", [8, 9])
def test_product_span_matches_all_pairs_on_mixed_spaces(n, field):
    # unions are popped from the multiplied products and join the rows after
    # the echelon; the oracle echelonizes every product
    rng = random.Random(151 + n)
    level1 = [1 << i for i in range(n)]
    level2 = [m for m in range(1 << n) if m.bit_count() == 2]
    low = [m for m in range(1 << n) if 2 <= m.bit_count() <= 3]
    stripped = 0
    for _ in range(3):
        monos = level1 + rng.sample(level2, 10) + rng.sample(range(1 << n), 6)
        vecs = [GrassmannElement(n, {m: field.one}) for m in monos]
        vecs += [rand_elem(rng, n, field, masks=low, max_terms=3) for _ in range(4)]
        vecs += [rand_elem(rng, n, field) for _ in range(2)]
        a = span(vecs, n=n, field=field)
        b = span(vecs[::2], n=n, field=field)
        for x, y in [(a, a), (a, b), (b, a)]:
            assert {len(v.terms) > 1 for v in x.basis} == {False, True}
            assert product_span(x, y) == product_span_all_pairs(x, y)
            keys = unions_by_loop([min(v.terms) for v in x.basis if len(v.terms) == 1],
                                  [min(v.terms) for v in y.basis if len(v.terms) == 1])
            stripped += sum(bool(keys & (u * v).terms.keys()) for u in x.basis for v in y.basis
                            if len(u.terms) > 1 or len(v.terms) > 1)
    # products do carry union keys, so the pop path runs
    assert stripped > 0


def test_subspace_refuses_a_basis_out_of_reduced_echelon_form():
    q, g3 = QQ, PrimeField(3)
    with pytest.raises(AmbientMismatch):
        Subspace(2, q, [generator(3, 1) + generator(3, 2), generator(3, 2)])
    with pytest.raises(AmbientMismatch):
        Subspace(2, q, [generator(2, 1), generator(3, 2)])
    bad = [
        (q, [zero(3)]),  # a zero vector
        (q, [elem("v{1}", 3), zero(3)]),
        (q, [elem("2*v{1}", 3)]),  # not monic on its pivot
        (g3, [elem("2*v{1}+v{2}", 3, g3)]),
        (q, [elem("v{2}", 3), elem("v{1}", 3)]),  # pivots not strictly increasing
        (q, [elem("v{1}+v{3}", 3), elem("v{1}", 3)]),
        (q, [elem("v{1}+v{2}", 3), elem("v{2}", 3)]),  # a pivot in another vector
        (q, [elem("v{1}+v{3}", 3), elem("v{2}+v{3}", 3), elem("v{3}", 3)]),
    ]
    for field, basis in bad:
        with pytest.raises(ValueError):
            Subspace(3, field, basis)
    with pytest.raises(ValueError):
        Subspace(True, q, [])
    # a reduced echelon basis is accepted as it stands
    rng = random.Random(139)
    for field in (q, g3):
        for n in range(1, 6):
            s = rand_space(rng, n, field=field)
            assert Subspace(n, field, s.basis) == s
            assert Subspace(n, field, list(s.basis)).pivot_masks() == s.pivot_masks()


def test_zero_space_checks_n():
    for bad in (True, 99, 0, 2.0):
        with pytest.raises(ValueError):
            zero_space(bad)
    assert zero_space(16).n == 16 and zero_space(1, PrimeField(3)).field == PrimeField(3)


def test_subspace_operations_leave_their_inputs_alone():
    for field in (QQ, PrimeField(3)):
        one, two = field.one, field.coerce(2)
        n = 4
        # v2 and v3 reduce against v1 on its pivot 0b0001, and v4's pivot
        # 0b0110 sits in v1 and v3, so back-substitution rewrites them
        vs = [GrassmannElement(n, t) for t in (
            {0b0001: one, 0b0110: two, 0b1000: one},
            {0b0001: two, 0b0011: one},
            {0b0001: one, 0b0110: one, 0b1100: two},
            {0b0110: one, 0b1010: one},
        )]
        a = span(vs[:2], n=n, field=field)
        b = span(vs[2:], n=n, field=field)
        owned = vs + list(a.basis) + list(b.basis)
        before = [dict(x.terms) for x in owned]
        span(vs, n=n, field=field)
        span(vs[::-1], n=n, field=field)
        a.sum(b)
        b.sum(a)
        a.intersect(b)
        split_generator(a.sum(b), 1)
        split_generator(b, 2)
        product_span(a, b)
        product_span(b, b)
        assert [x.terms for x in owned] == before


# Every element carries its field: each result of an element op or a subspace
# op must carry its operands' field, and every coefficient must lie in it.

def assert_over(x, field):
    assert x.field == field and all(field_of(c) == field for c in x.terms.values())


def nonzero_elem(rng, n, field):
    """rand_elem, drawn again when every coefficient vanished in the field."""
    while True:
        x = rand_elem(rng, n, field)
        if x:
            return x


@pytest.mark.parametrize("field", [QQ, PrimeField(3), PrimeField(7)], ids=["QQ", "GF3", "GF7"])
def test_every_result_carries_its_operands_field(field):
    rng = random.Random(127)
    two = field.coerce(2)
    for n in range(1, 6):
        odd_masks = [m for m in range(1 << n) if m.bit_count() & 1]
        for _ in range(6):
            x, y, z = nonzero_elem(rng, n, field), rand_elem(rng, n, field), zero(n)
            results = [x + y, x - y, x * y, x - x, -x, x.scale(two), x.scale(3), x.scale(0), 2 * x, x * two,
                       x / two, x / 2, x.even_part(), x.odd_part(), x.initial_term(),
                       parse_element(print_element(x), n, field)]
            results += [x.grade_component(k) for k in range(n + 1)]
            results += [x.substitute_zero(i) for i in range(1, n + 1)]
            # a zero operand mixes with any field, and the result keeps x's
            results += [z + x, x + z, z - x, x - z, z * x, x * z]
            for r in results:
                assert_over(r, field)
            assert z.scale(two).is_zero() and (z / two).is_zero()

            a, b = rand_space(rng, n, field=field), rand_space(rng, n, field=field)
            d = rand_space(rng, n, field=field, masks=odd_masks)
            spaces = [span([z, x, y]), span([z], n=n, field=field), a.sum(b), a.intersect(b),
                      product_span(a, b), perp(d), min_degree_space(a), initial_span(a)]
            spaces += [split_generator(a, i) for i in range(1, n + 1)]
            for s in spaces:
                assert s.field == field
                for v in s.basis:
                    assert_over(v, field)
            assert_over(a.reduce(x), field)
            assert_over(a.reduce(z), field)


# split_generator takes one echelon on lifted keys, and intersect and perp use
# the kernel rows as they come; these are the routes with a second echelon.

def split_by_two_echelons(d, i):
    """ker(s_i|d) from the stacked (image, source) rows, then one more
    echelon of the kernel and the images."""
    from extalg.subspace import _kernel, _space

    bit = 1 << (i - 1)
    imgs = [{m: c for m, c in b.terms.items() if not m & bit} for b in d.basis]
    ker = _kernel([(im, b.terms) for im, b in zip(imgs, d.basis)], 1 << d.n)
    return _space(d.n, d.field, list(ker.values()) + [im for im in imgs if im])


def re_echelon(s):
    from extalg.subspace import _space

    return _space(s.n, s.field, [dict(b.terms) for b in s.basis])


def assert_same_basis(s, t):
    assert s.n == t.n and s.field == t.field
    assert s.basis == t.basis
    assert [print_element(b) for b in s.basis] == [print_element(b) for b in t.basis]


def differential_spaces(rng, n, field):
    """zero, full, monomial and seeded random subspaces of E(n) over field."""
    from extalg.verify import random_element, random_subspace

    masks = range(1 << n)
    spaces = [zero_space(n, field), full_space(n, field), even_space(n, field), grade_space(n, n // 2, field)]
    spaces += [monomial_space(n, rng.sample(masks, rng.randint(1, min(8, 1 << n))), field) for _ in range(3)]
    spaces += [random_subspace(rng, n, max_dim=min(10, 1 << n), field=field) for _ in range(4)]
    dense = [random_element(rng, n, field=field, max_terms=1 << n) for _ in range(rng.randint(1, 6))]
    return spaces + [span(dense, n=n, field=field)]


DIFFERENTIAL_FIELDS = [QQ, PrimeField(3), PrimeField(10007)]


@pytest.mark.parametrize("field", DIFFERENTIAL_FIELDS, ids=["QQ", "GF3", "GF10007"])
def test_split_generator_matches_the_two_echelon_route(field):
    from extalg.verify import random_element

    rng = random.Random(131)
    for n in range(1, 8):
        spaces = differential_spaces(rng, n, field)
        # the inputs hold sums, with and without terms on every index
        assert n < 2 or any(len(b.terms) > 1 for d in spaces for b in d.basis)
        for d in spaces:
            for i in range(1, n + 1):
                assert_same_basis(split_generator(d, i), split_by_two_echelons(d, i))
        # D with a kernel and an image on generator 1: x * v_1 and x with v_1 substituted
        x = random_element(rng, n, field=field, max_terms=1 << n)
        d = span([x * generator(n, 1, field), x.substitute_zero(1)], n=n, field=field)
        assert_same_basis(split_generator(d, 1), split_by_two_echelons(d, 1))


@pytest.mark.parametrize("field", DIFFERENTIAL_FIELDS, ids=["QQ", "GF3", "GF10007"])
def test_intersect_and_perp_rows_need_no_second_echelon(field):
    from extalg.verify import random_subspace

    rng = random.Random(137)
    for n in range(1, 8):
        spaces = differential_spaces(rng, n, field)
        for a, b in zip(spaces, spaces[1:] + spaces[:1]):
            s = a.intersect(b)
            assert_same_basis(s, re_echelon(s))
            assert s.dim == a.dim + b.dim - a.sum(b).dim
        odd_masks = [m for m in range(1 << n) if m.bit_count() & 1]
        odd = [zero_space(n, field), odd_space(n, field)]
        odd += [random_subspace(rng, n, max_dim=6, field=field, masks=odd_masks) for _ in range(4)]
        for d in odd:
            p = perp(d)
            assert_same_basis(p, re_echelon(p))


# split_generator and min_degree_space cut their echelon rows to the pivot's
# block in one helper; these are the two cuts it replaced, the second one
# followed by another echelon.

def split_by_its_own_cut(d, i):
    """The rows of one echelon on lifted keys, each kept on its pivot's side of 2^n."""
    from extalg.subspace import _echelon

    top, bit = 1 << d.n, 1 << (i - 1)
    rows = _echelon({m | top if m & bit else m: c for m, c in b.terms.items()} for b in d.basis)
    cut = {p % top: {m % top: c for m, c in row.items() if (m < top) == (p < top)} for p, row in rows.items()}
    return Subspace(d.n, d.field, [GrassmannElement(d.n, cut[p]) for p in sorted(cut)])


def min_degree_by_cut_then_echelon(a):
    """The lowest-degree parts of the degree-first echelon rows, echelonized again."""
    from extalg.subspace import _echelon, _space

    n, low = a.n, (1 << a.n) - 1
    rows = _echelon({(m.bit_count() << n) | m: c for m, c in b.terms.items()} for b in a.basis)
    return _space(n, a.field, [{k & low: c for k, c in row.items() if k >> n == p >> n} for p, row in rows.items()])


def assert_pivots_are_the_basis(s):
    assert s._pivots == {min(b.terms): b.terms for b in s.basis}
    assert all(s._pivots[min(b.terms)] is b.terms for b in s.basis)


@pytest.mark.parametrize("field", DIFFERENTIAL_FIELDS, ids=["QQ", "GF3", "GF10007"])
def test_block_cut_matches_the_cuts_it_replaced(field):
    rng = random.Random(139)
    for n in range(1, 8):
        spaces = differential_spaces(rng, n, field)
        # the inputs mix degrees inside a basis vector, as min_degree_space needs
        assert n < 2 or any(len(b.degrees()) > 1 for d in spaces for b in d.basis)
        for d in spaces:
            for i in range(1, n + 1):
                s = split_generator(d, i)
                assert_same_basis(s, split_by_its_own_cut(d, i))
                assert_pivots_are_the_basis(s)
            m = min_degree_space(d)
            assert_same_basis(m, min_degree_by_cut_then_echelon(d))
            assert_pivots_are_the_basis(m)
            assert m.is_graded() and m.field is field


def test_subspaces_keep_their_rows_as_pivots():
    from extalg.structure import graded_radical, upper_levels_commutative

    rng = random.Random(149)
    for field in DIFFERENTIAL_FIELDS:
        a, b = rand_space(rng, 4, field=field), rand_space(rng, 4, field=field)
        for s in (zero_space(4, field), monomial_space(4, [3, 5, 0], field), full_space(3, field), a, b,
                  a.sum(b), a.intersect(b), product_span(a, b), Subspace(4, field, a.basis),
                  graded_radical(upper_levels_commutative(4, field=field))):
            assert_pivots_are_the_basis(s)
            assert s.field is field


# _echelon back-substitutes row by row, by descending pivot; this is the
# column scan it replaced, where each pivot is looked up in every earlier row.

def echelon_by_column_scan(dicts):
    from extalg.fields import _inverse
    from extalg.subspace import _eliminate, _reduce

    rows = {}
    for d in dicts:
        p = _reduce(d, rows)
        if p is not None:
            c = d[p]
            if c != 1:
                ic = _inverse(c)
                d = {m: ic * x for m, x in d.items()}
            rows[p] = d
    pivots = sorted(rows)
    for i in range(len(pivots) - 1, -1, -1):
        p = pivots[i]
        for q in pivots[:i]:
            if p in rows[q]:
                _eliminate(rows[q], p, rows[p])
    return rows


def echelon_inputs(rng, n, field):
    """Lists of term dicts: monomial, dense, dependent and repeated, seeded
    random_subspace bases in another basis, and split_generator's lifted keys."""
    from extalg.verify import random_element, random_subspace

    masks = range(1 << n)
    coeffs = [field.coerce(c) for c in (-2, -1, 1, 2)]
    inputs = [[{m: rng.choice(coeffs)} for m in rng.choices(masks, k=rng.randint(1, 2 << n))] for _ in range(2)]
    dense = [random_element(rng, n, field=field, max_terms=1 << n) for _ in range(rng.randint(1, 8))]
    inputs.append([x.terms for x in dense])
    inputs.append([x.terms for x in dense + [dense[0] + dense[-1], dense[0].scale(2), dense[-1]]])
    top = 1 << n
    for _ in range(3):
        s = random_subspace(rng, n, max_dim=min(12, 1 << n), field=field)
        b = s.basis
        inputs.append([(x + y).terms for x, y in zip(b, b[1:] + b[:1])] + [x.terms for x in b])
        for i in range(1, n + 1):
            bit = 1 << (i - 1)
            inputs.append([{m | top if m & bit else m: c for m, c in x.terms.items()} for x in s.basis])
    return inputs


@pytest.mark.parametrize("field", DIFFERENTIAL_FIELDS, ids=["QQ", "GF3", "GF10007"])
def test_echelon_matches_the_column_scan(field):
    from extalg.subspace import _echelon

    rng = random.Random(151)
    reduced = 0
    for n in range(1, 8):
        for dicts in echelon_inputs(rng, n, field):
            got = _echelon([dict(d) for d in dicts])
            want = echelon_by_column_scan([dict(d) for d in dicts])
            assert got == want
            assert all(min(row) == p and row[p] == 1 for p, row in got.items())
            reduced += any(len(row) > 1 for row in got.values())
    # most of the 133 inputs leave rows of two or more terms
    assert reduced > 100


def test_contains_space_refuses_what_sum_refuses():
    a = span([elem("v{1}+v{2}", 2)])
    assert a.contains_space(zero_space(2)) and a.contains_space(a)
    assert not a.contains_space(span([elem("v{1}", 2)]))
    with pytest.raises(AmbientMismatch):
        a.contains_space(zero_space(3))
    with pytest.raises(AmbientMismatch):
        a.contains_space(span([elem("v{1}", 2, PrimeField(3))], n=2, field=PrimeField(3)))
    with pytest.raises(AmbientMismatch):
        a.contains_space(zero_space(2, PrimeField(3)))
    with pytest.raises(TypeError, match="expected a Subspace"):
        a.contains_space(elem("v{1}+v{2}", 2))
    with pytest.raises(TypeError, match="expected a Subspace"):
        a.contains_space([elem("v{1}+v{2}", 2)])
