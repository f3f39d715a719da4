import math
import random

import pytest

from extalg.core import AmbientMismatch, GrassmannElement, Monomial, generator, indices_of_mask, monomial, unit, zero
from extalg.fields import QQ, PrimeField
from extalg.setfamilies import SetFamily, max_odd_intersecting, odd_upper_levels
from extalg.structure import (
    analyze,
    assemble,
    canonical_max_commutative,
    graded_radical,
    hom_from_images,
    is_commutative,
    is_e0_submodule,
    is_left_ideal,
    is_maximal_commutative,
    is_right_ideal,
    is_square_zero,
    is_subalgebra,
    max_commutative_dim,
    plucker_defects,
    radical_quotient_dim,
    upper_levels_commutative,
)
from extalg.subspace import (
    even_space,
    family_space,
    full_space,
    grade_space,
    monomial_space,
    odd_space,
    perp,
    product_span,
    span,
    star_space,
    zero_space,
)
from extalg.text import parse_element
from extalg.verify import random_intersecting_odd_family, random_shear, random_subspace


def elem(s, n):
    return parse_element(s, n)


def test_basic_predicates():
    assert is_subalgebra(even_space(4))
    assert is_commutative(even_space(4))
    assert is_subalgebra(full_space(3))
    assert not is_commutative(full_space(3))
    assert is_square_zero(grade_space(4, 3))
    assert not is_square_zero(grade_space(4, 2))
    assert is_subalgebra(span([elem("v{1,2}+v{3,4}", 4), elem("v{1,2,3,4}", 4)]))


def test_not_subalgebra():
    assert not is_subalgebra(span([elem("v{1,2}", 4), elem("v{3,4}", 4)]))


def test_ideals():
    x = span([elem("v{1}", 3)])
    left = product_span(full_space(3), x)
    assert is_left_ideal(left)
    two_sided = product_span(full_space(3), x).sum(product_span(x, full_space(3)))
    assert is_left_ideal(two_sided) and is_right_ideal(two_sided)
    assert not is_left_ideal(x)


def test_e0_submodule():
    assert is_e0_submodule(star_space(4, 1, 1).sum(star_space(4, 3, 1)))
    assert not is_e0_submodule(span([elem("v{1}", 3)]))


def test_square_zero_iff_intersecting_family():
    good = family_space(SetFamily.from_sets(4, [[1], [1, 2, 3]]))
    bad = family_space(SetFamily.from_sets(4, [[1], [2, 3, 4]]))
    assert is_square_zero(good)
    assert not is_square_zero(bad)


def test_assemble_upper_levels_n5():
    d = family_space(odd_upper_levels(5))
    a = assemble(d)
    assert a.dim == 27
    assert is_maximal_commutative(a)
    assert a == even_space(5).sum(d)


def test_assemble_rejects_even_input():
    with pytest.raises(ValueError):
        assemble(span([elem("v{1,2}", 3)]))


def test_assemble_closes_under_e0():
    d = span([elem("v{1}", 4)])
    a = assemble(d)
    assert is_subalgebra(a) and is_commutative(a)
    assert a.contains(elem("v{1,2,3}", 4))


def test_max_commutative_dim_table():
    got = [max_commutative_dim(n) for n in range(1, 9)]
    assert got == [2, 3, 6, 12, 27, 48, 101, 192]
    with pytest.raises(ValueError):
        max_commutative_dim(0)


def test_max_commutative_dim_refuses_bools_but_not_large_n():
    for bad in (True, False, 0, -3, 2.0, "4"):
        with pytest.raises(ValueError):
            max_commutative_dim(bad)
    # the closed formula needs no search, so n is not capped at 16
    assert max_commutative_dim(18) == 3 * 2 ** 16
    assert max_commutative_dim(17) > 2 ** 16


def test_max_commutative_dim_equals_the_papers_sum():
    # the paper's sum over odd levels, which the closed form replaces
    def paper_sum(n):
        if n % 2 == 0:
            return 3 * 2 ** (n - 2)
        if n % 4 == 1:
            k = (n - 1) // 4
            return 2 ** (n - 1) + sum(math.comb(n, 2 * j + 1) for j in range(k, 2 * k + 1))
        k = (n - 3) // 4
        return 2 ** (n - 1) + math.comb(n - 1, 2 * k) + sum(math.comb(n, 2 * j + 3) for j in range(k, 2 * k + 1))

    for n in range(1, 1001):
        assert max_commutative_dim(n) == paper_sum(n), n


def test_dim_formula_against_search_oracle():
    for n in range(1, 7):
        res = max_odd_intersecting(n)
        assert max_commutative_dim(n) == 2 ** (n - 1) + res.size


def test_canonical_algebras():
    for n in range(1, 7):
        a = canonical_max_commutative(n)
        assert a.dim == max_commutative_dim(n)
        assert is_maximal_commutative(a)
    with pytest.raises(ValueError):
        canonical_max_commutative(3, l=4)


@pytest.mark.parametrize("n", [0, 17, 40, True, "4"])
def test_canonical_builders_refuse_n_before_listing_masks(n):
    # n = 40 would list 2^40 masks before any later check ran
    for build in (canonical_max_commutative, upper_levels_commutative):
        with pytest.raises(ValueError, match="number of generators"):
            build(n)


def test_canonical_algebra_is_maximal_at_n15():
    # a scale guard: back-substitution that scans every earlier row per
    # pivot takes this from a fraction of a second to tens of seconds
    from extalg.structure import _odd_parts

    a = canonical_max_commutative(15)
    assert is_maximal_commutative(a)
    d = _odd_parts(a)
    assert perp(d) == d


def test_canonical_even_n_structure():
    a = canonical_max_commutative(4, l=2)
    assert a.dim == 12
    d = a.intersect(odd_space(4))
    assert d.dim == 4
    assert perp(d) == d
    assert all(m & 0b0010 for m in d.pivot_masks())


def test_maximality_rejections():
    assert not is_maximal_commutative(even_space(2))
    assert not is_maximal_commutative(full_space(2))
    small = even_space(4).sum(span([elem("v{1,2,3}", 4)]))
    assert is_commutative(small) and is_subalgebra(small)
    assert not is_maximal_commutative(small)
    assert not is_maximal_commutative(span([elem("v{1}", 2)]))


def test_upper_levels_companion():
    b4 = upper_levels_commutative(4)
    assert b4.dim == 12 and is_maximal_commutative(b4)
    b6 = upper_levels_commutative(6)
    assert b6.dim == 48 and is_maximal_commutative(b6)
    assert canonical_max_commutative(4) != b4


def test_radical_invariant():
    assert radical_quotient_dim(canonical_max_commutative(4)) == 7
    assert radical_quotient_dim(upper_levels_commutative(4)) == 10
    assert radical_quotient_dim(canonical_max_commutative(6)) == 16
    assert radical_quotient_dim(upper_levels_commutative(6)) == (
        math.comb(6, 2) + math.comb(5, 2) + math.comb(5, 5)
    )
    with pytest.raises(ValueError, match="not closed under products"):
        radical_quotient_dim(span([unit(2), generator(2, 1), generator(2, 2)]))


def test_graded_radical():
    a = canonical_max_commutative(4)
    r = graded_radical(a)
    assert r.dim == a.dim - 1
    assert not r.contains(unit(4))
    assert r == span([b for b in a.basis if b.min_degree() > 0], n=4)
    assert r.pivot_masks() == a.pivot_masks()[1:]
    with pytest.raises(ValueError):
        graded_radical(span([elem("v{1}+v{2,3}", 3), elem("1", 3)]))
    with pytest.raises(ValueError):
        graded_radical(grade_space(3, 1))  # no unit


def test_plucker_witness():
    x = elem("v{1,2}+v{3,4}", 4)
    defects = dict(plucker_defects(x))
    assert set(defects) == {(1, 2, 3, 4)}
    assert defects[(1, 2, 3, 4)] == 1
    assert not (x * x).is_zero()


def test_plucker_flat_cases():
    y = elem("v{1,2}+v{1,3}", 4)  # v1*(v2+v3)
    assert all(not v for _, v in plucker_defects(y))
    assert (y * y).is_zero()
    rng = random.Random(3)
    lin = [0b0001, 0b0010, 0b0100, 0b1000]
    for _ in range(50):
        a = sum((generator(4, i + 1).scale(rng.randint(-3, 3)) for i in range(4)), monomial(4, (), 0))
        b = sum((generator(4, i + 1).scale(rng.randint(-3, 3)) for i in range(4)), monomial(4, (), 0))
        y = a * b
        if y.is_zero():
            continue
        assert all(not v for _, v in plucker_defects(y))
        assert (y * y).is_zero()


def test_plucker_equivalence_exhaustive_gf3():
    """Over gf:3 at n=4, walk every degree-2 element: defects all vanish
    exactly when the square does."""
    from itertools import product as iproduct

    f = PrimeField(3)
    deg2 = [m for m in range(16) if m.bit_count() == 2]
    from extalg.core import GrassmannElement

    count_flat = 0
    for coeffs in iproduct(range(3), repeat=6):
        if not any(coeffs):
            continue
        x = GrassmannElement(4, {m: f.coerce(c) for m, c in zip(deg2, coeffs) if c})
        flat = all(not v for _, v in plucker_defects(x))
        assert flat == (x * x).is_zero()
        count_flat += flat
    assert count_flat > 0


def test_plucker_validation():
    with pytest.raises(ValueError):
        plucker_defects(elem("v{1}", 3))
    with pytest.raises(ValueError):
        plucker_defects(elem("v{1,2}+v{3}", 3))
    with pytest.raises(ValueError):
        plucker_defects(elem("0", 3))


def test_hom_validation():
    with pytest.raises(ValueError):
        hom_from_images([elem("v{1,2}", 3)])
    with pytest.raises(ValueError):
        hom_from_images([elem("1", 2)])
    with pytest.raises(ValueError):
        hom_from_images([])
    with pytest.raises(AmbientMismatch):
        hom_from_images([elem("v{1}", 2), elem("v{1}", 3)])
    for bad in ([3], [elem("v{1}", 2), "v{2}"]):
        with pytest.raises(TypeError):
            hom_from_images(bad)


def test_hom_apply_refuses_what_is_not_an_element_of_its_source():
    f = PrimeField(5)
    h = hom_from_images([generator(2, 1), generator(2, 2)])
    for bad in (3, "v{1}", Monomial(2, 1)):
        with pytest.raises(TypeError):
            h.apply(bad)
    with pytest.raises(AmbientMismatch):
        h.apply(generator(3, 1))
    with pytest.raises(AmbientMismatch):
        h.apply(generator(2, 1, f))
    with pytest.raises(AmbientMismatch):
        hom_from_images([generator(2, 1, f)]).apply(generator(1, 1))
    # a zero element lies over every field
    assert h.apply(zero(2)).is_zero() and hom_from_images([generator(2, 1, f)]).apply(zero(1)).is_zero()


def test_hom_is_multiplicative():
    h = hom_from_images([elem("v{2}", 3), elem("v{1}+v{1,2,3}", 3), elem("v{3}", 3)])
    rng = random.Random(17)
    for _ in range(30):
        masks_a = rng.sample(range(8), rng.randint(1, 3))
        masks_b = rng.sample(range(8), rng.randint(1, 3))
        from extalg.core import GrassmannElement

        a = GrassmannElement(3, {m: QQ.coerce(rng.randint(1, 4)) for m in masks_a})
        b = GrassmannElement(3, {m: QQ.coerce(rng.randint(1, 4)) for m in masks_b})
        assert h.apply(a * b) == h.apply(a) * h.apply(b)
        assert h.apply(a + b) == h.apply(a) + h.apply(b)
    assert h.apply(unit(3)) == unit(3)


def test_hom_bijectivity():
    swap = hom_from_images([elem("v{2}", 2), elem("v{1}", 2)])
    assert swap.is_bijective()
    collapse = hom_from_images([elem("v{1}", 2), elem("v{1}", 2)])
    assert not collapse.is_bijective()
    shear = hom_from_images([elem("v{1}+v{2,3,4}", 4), elem("v{2}", 4), elem("v{3}", 4), elem("v{4}", 4)])
    assert shear.is_bijective()


def test_hom_between_different_ambients():
    h = hom_from_images([elem("v{1,2,3}", 3)])  # maps E(1) into E(3)
    assert h.apply(generator(1, 1)) == elem("v{1,2,3}", 3)
    assert not h.is_bijective()


def test_hom_image_of_maximal_is_maximal():
    shear = hom_from_images([elem("v{1}+v{2,3,4}", 4), elem("v{2}", 4), elem("v{3}", 4), elem("v{4}", 4)])
    img = shear.apply_space(canonical_max_commutative(4))
    assert img.dim == 12
    assert is_maximal_commutative(img)
    assert not img.is_graded()


def test_analyze_report():
    rep = analyze(canonical_max_commutative(4))
    d = rep.to_dict()
    assert d["dim"] == 12
    assert d["maximal_commutative"] is True
    assert d["subalgebra"] is True and d["commutative"] is True
    assert d["graded"] is True and d["monomial"] is True
    assert d["grade_dims"] == [1, 1, 6, 3, 1]
    assert d["field"] == "rational"
    rep2 = analyze(span([elem("v{1,2}+v{3,4}", 4), elem("v{1,2,3,4}", 4)]))
    d2 = rep2.to_dict()
    assert d2["subalgebra"] is True
    assert d2["square_dim"] == 1
    assert d2["graded"] is True and d2["monomial"] is False


def test_gf3_canonical_maximal():
    f = PrimeField(3)
    a = canonical_max_commutative(4, field=f)
    assert a.dim == 12
    assert is_maximal_commutative(a)


def test_hom_infers_the_field_of_its_images():
    f = PrimeField(5)
    h = hom_from_images([parse_element("v{2}", 2, f), parse_element("2*v{1}", 2, f)])
    assert h.field == f
    assert h.apply_space(full_space(2, f)) == full_space(2, f)
    assert hom_from_images([elem("v{1}", 2)]).field == QQ


def test_hom_refuses_images_outside_its_field():
    f = PrimeField(5)
    with pytest.raises(AmbientMismatch):
        hom_from_images([elem("v{1}", 2), elem("v{2}", 2)], field=f)
    with pytest.raises(AmbientMismatch):
        hom_from_images([parse_element("v{1}", 2, f), elem("v{2}", 2)])
    with pytest.raises(AmbientMismatch):
        hom_from_images([elem("v{1}", 2), parse_element("v{2}", 2, PrimeField(3))], field=QQ)
    # a zero image lies over every field
    h = hom_from_images([zero(2), parse_element("v{1}", 2, f)])
    assert h.field == f and not h.is_bijective()


def test_hom_apply_space_refuses_what_is_not_a_subspace_of_its_source():
    f = PrimeField(5)
    h = hom_from_images([generator(2, 1), generator(2, 2)])
    for bad in (3, generator(2, 1), [generator(2, 1)], "v{1}"):
        with pytest.raises(TypeError):
            h.apply_space(bad)
    for bad in (full_space(3), zero_space(3), zero_space(1, f)):
        with pytest.raises(AmbientMismatch):
            h.apply_space(bad)
    with pytest.raises(AmbientMismatch):
        h.apply_space(full_space(2, f))
    # a zero subspace lies over every field, like a zero element
    assert h.apply_space(zero_space(2, f)) == zero_space(2)
    into = hom_from_images([elem("v{1,2,3}", 3)])  # E(1) into E(3)
    assert into.apply_space(full_space(1)) == span([unit(3), elem("v{1,2,3}", 3)])
    with pytest.raises(AmbientMismatch):
        into.apply_space(zero_space(3))


def oracle_bijective(h):
    """The map is onto E(n) when the images of all 2^n monomials span it."""
    if h.n_source != h.n_target:
        return False
    vecs = []
    for mask in range(1 << h.n_source):
        x = unit(h.n_target, h.field)
        for i in indices_of_mask(mask):
            x = x * h.images[i - 1]
        vecs.append(x)
    return span(vecs, n=h.n_target, field=h.field).dim == 1 << h.n_source


def bijectivity_sample():
    """Seeded maps over QQ, GF(3) and GF(5): sparse small linear parts, odd
    corrections of degree >= 3, and now and then m != n generators."""
    rng = random.Random(2027)
    out = []
    for t in range(2400):
        field = (QQ, PrimeField(3), PrimeField(5))[t % 3]
        n = rng.randint(1, 5)
        m = n if rng.random() < 0.9 else rng.randint(1, 5)
        odd_hi = [mask for mask in range(1 << n) if mask.bit_count() in (3, 5)]
        images = []
        for _ in range(m):
            terms = {1 << j: field.coerce(rng.randint(-1, 2)) for j in range(n) if rng.random() < 0.5}
            for mask in rng.sample(odd_hi, min(len(odd_hi), rng.randint(1, 2))):
                terms[mask] = field.coerce(rng.randint(-2, 2))
            images.append(GrassmannElement(n, {k: c for k, c in terms.items() if c}))
        out.append(hom_from_images(images, field=field))
    return out


def test_is_bijective_matches_the_monomial_image_route():
    seen = {True: 0, False: 0}
    unequal = corrected = 0
    for h in bijectivity_sample():
        expected = oracle_bijective(h)
        assert h.is_bijective() is expected, [str(u) for u in h.images]
        seen[expected] += 1
        unequal += h.n_source != h.n_target
        corrected += any(m.bit_count() >= 3 for u in h.images for m in u.terms)
    assert seen[True] >= 200 and seen[False] >= 200, seen
    assert unequal >= 100 and corrected >= 1000, (unequal, corrected)


@pytest.mark.parametrize("field", [QQ, PrimeField(10007)], ids=lambda f: f.name)
def test_random_shears_are_bijective_up_to_n16(field):
    rng = random.Random("shear-bijective")
    for n in range(1, 17):
        assert random_shear(rng, n, field).is_bijective()


def test_equal_linear_parts_make_an_n16_map_singular():
    # the cubic corrections differ, but the linear part has rank 15
    images = [elem("v{1}+v{2,3,4}", 16), elem("v{1}+v{5,6,7}", 16)]
    images += [generator(16, i) for i in range(3, 17)]
    assert not hom_from_images(images).is_bijective()
    images[1] = elem("v{2}+v{5,6,7}", 16)
    assert hom_from_images(images).is_bijective()


# The predicates multiply by the algebra's generators and read the odd part off
# the basis; these are the direct definitions they replace.

def oracle_subalgebra(a):
    return all(a.contains(x * y) for x in a.basis for y in a.basis)


def oracle_commutative(a):
    return all(x * y == y * x for x in a.basis for y in a.basis)


def oracle_e0_submodule(d):
    return d.contains_space(product_span(even_space(d.n, d.field), d))


def oracle_left_ideal(x):
    return x.contains_space(product_span(full_space(x.n, x.field), x))


def oracle_right_ideal(x):
    return x.contains_space(product_span(x, full_space(x.n, x.field)))


def oracle_maximal_commutative(a):
    e0 = even_space(a.n, a.field)
    if not a.contains_space(e0):
        return False
    d = a.intersect(odd_space(a.n, a.field))
    if a.dim != e0.dim + d.dim:
        return False
    return is_square_zero(d) and oracle_e0_submodule(d) and perp(d) == d


PAIRS = [
    (is_subalgebra, oracle_subalgebra),
    (is_commutative, oracle_commutative),
    (is_e0_submodule, oracle_e0_submodule),
    (is_left_ideal, oracle_left_ideal),
    (is_right_ideal, oracle_right_ideal),
    (is_maximal_commutative, oracle_maximal_commutative),
]


def differential_sample():
    """Seeded random subspaces, assembled families, one-sided ideals and
    spaces around E_even, for n <= 5 over QQ and GF(3)."""
    rng = random.Random(20240)
    out = []
    for field in (QQ, PrimeField(3)):
        for n in range(1, 6):
            out.extend(random_subspace(rng, n, max_dim=4, field=field) for _ in range(4))
            for _ in range(2):
                d = family_space(random_intersecting_odd_family(rng, n, max_size=4), field)
                out.append(assemble(d))
                x = random_subspace(rng, n, max_dim=2, field=field)
                out.append(product_span(full_space(n, field), x))
                out.append(product_span(x, full_space(n, field)))
                out.append(even_space(n, field).sum(random_subspace(rng, n, max_dim=2, field=field)))
            out.append(canonical_max_commutative(n, field=field))
            out.append(random_shear(rng, n, field).apply_space(canonical_max_commutative(n, field=field)))
    return out


def test_predicates_match_their_definitions():
    seen = {fn.__name__: set() for fn, _ in PAIRS}
    for a in differential_sample():
        for fn, oracle in PAIRS:
            got = fn(a)
            assert got == oracle(a), (fn.__name__, a)
            seen[fn.__name__].add(got)
    assert all(v == {True, False} for v in seen.values()), seen


def test_analyze_fields_match_their_predicates():
    a = span([elem("v{1}", 3), elem("v{2}", 3)])
    rep = analyze(a)
    assert rep.subalgebra is False and rep.commutative is False
    for b in [a] + differential_sample()[::7]:
        rep = analyze(b)
        assert rep.square_dim == product_span(b, b).dim
        assert rep.subalgebra == is_subalgebra(b) == oracle_subalgebra(b)
        assert rep.commutative == is_commutative(b) == oracle_commutative(b)
        assert rep.square_zero == is_square_zero(b)
        assert rep.e0_submodule == is_e0_submodule(b) == oracle_e0_submodule(b)
        assert rep.maximal_commutative == is_maximal_commutative(b) == oracle_maximal_commutative(b)


def e0_inference_sample():
    """The monomial maximal algebras at n <= 8, their shears, E_even plus odd
    vectors, random subspaces and one odd line, over QQ and GF(10007)."""
    rng = random.Random("e0-inference")
    out = []
    for field in (QQ, PrimeField(10007)):
        for n in range(1, 9):
            c = canonical_max_commutative(n, field=field)
            out += [c, upper_levels_commutative(n, field=field)]
            out.append(assemble(star_space(n, 2 * ((n - 1) // 4) + 1, 1, field)))
            if n <= 6:
                out.append(random_shear(rng, n, field).apply_space(c))
            odd = [e for e in odd_space(n, field).basis if e.degrees() != {1}]
            out.append(even_space(n, field).sum(span(rng.sample(odd, min(2, len(odd))), n=n, field=field)))
            out.append(random_subspace(rng, n, max_dim=4, field=field))
            out.append(span([generator(n, 1, field)]))
    return out


def test_analyze_infers_e0_stability_only_for_subalgebras_holding_e_even():
    # analyze reports e0_submodule without a product span when a holds E_even
    # and is a subalgebra; everywhere else it must agree with the predicate
    seen = set()
    for a in e0_inference_sample():
        got = analyze(a).e0_submodule
        assert got == is_e0_submodule(a), a
        seen.add((a.contains_space(even_space(a.n, a.field)), is_subalgebra(a), got))
    # the inference's two premises apart, each without E_even-stability
    assert {(True, True, True), (True, False, False), (False, True, False), (False, False, False)} <= seen


def test_analyze_on_one_generator():
    # n = 1 has no degree-2 monomials: E_even is spanned by the unit alone
    for field in (QQ, PrimeField(3)):
        whole = full_space(1, field)
        rep = analyze(whole)
        assert rep.dim == max_commutative_dim(1) == 2
        assert rep.subalgebra and rep.commutative and rep.e0_submodule and rep.maximal_commutative
        v = span([generator(1, 1, field)])
        rep = analyze(v)
        assert rep.square_zero and rep.e0_submodule and not rep.maximal_commutative
        assert is_left_ideal(v) and is_right_ideal(v)
        for b in (whole, v, even_space(1, field)):
            for fn, oracle in PAIRS:
                assert fn(b) == oracle(b), (fn.__name__, b)


def test_odd_canonical_is_the_upper_levels_family():
    for n in (1, 3, 5, 7):
        for l in range(1, n + 1):
            a = canonical_max_commutative(n, l)
            assert a == upper_levels_commutative(n, l)
            masks = [m for m in range(1 << n) if m.bit_count() % 2 == 0 or 2 * m.bit_count() > n]
            if n % 4 == 3:
                masks += [m for m in range(1 << n) if m >> (l - 1) & 1 and m.bit_count() == (n - 1) // 2]
            assert a == monomial_space(n, masks)
            assert a.dim == max_commutative_dim(n)
