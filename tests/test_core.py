import random
from fractions import Fraction
from itertools import combinations

import pytest

from extalg.core import (
    AmbientMismatch,
    GrassmannElement,
    Monomial,
    _element,
    compare_monomials,
    generator,
    monomial,
    sign_of_masks,
    unit,
    zero,
)
from extalg.fields import QQ, FpElement, PrimeField


def naive_monomial_product(idx_a, idx_b):
    """Sign oracle: concatenate index lists and bubble-sort, counting swaps."""
    if set(idx_a) & set(idx_b):
        return 0, ()
    seq = list(idx_a) + list(idx_b)
    swaps = 0
    for i in range(len(seq)):
        for j in range(len(seq) - 1 - i):
            if seq[j] > seq[j + 1]:
                seq[j], seq[j + 1] = seq[j + 1], seq[j]
                swaps += 1
    return (-1) ** swaps, tuple(seq)


def test_generator_relations():
    n = 4
    for i in range(1, n + 1):
        vi = generator(n, i)
        assert (vi * vi).is_zero()
        for j in range(1, n + 1):
            if i != j:
                assert generator(n, i) * generator(n, j) == -(generator(n, j) * generator(n, i))


def test_product_against_swap_counting_oracle():
    n = 6
    idx_sets = [s for r in range(n + 1) for s in combinations(range(1, n + 1), r)]
    rng = random.Random(7)
    for _ in range(300):
        a = rng.choice(idx_sets)
        b = rng.choice(idx_sets)
        got = monomial(n, a) * monomial(n, b)
        sign, merged = naive_monomial_product(a, b)
        if sign == 0:
            assert got.is_zero()
        else:
            assert got == monomial(n, merged, sign)


def inversion_sign(j_mask, k_mask):
    """(-1)^#{(j, k): j in J, k in K, j > k}, counted over the index lists."""
    js = [i for i in range(16) if j_mask >> i & 1]
    ks = [i for i in range(16) if k_mask >> i & 1]
    return -1 if sum(1 for j in js for k in ks if j > k) & 1 else 1


def test_sign_of_masks_matches_an_inversion_count():
    # every pair of masks for n <= 8, overlapping ones included
    for j in range(1 << 8):
        for k in range(1 << 8):
            assert sign_of_masks(j, k) == (0 if j & k else inversion_sign(j, k))
    # seeded disjoint pairs at n = 16, the largest n: the parity reaches bit 15
    rng = random.Random(131)
    for _ in range(100_000):
        j = rng.getrandbits(16)
        k = rng.getrandbits(16) & ~j
        assert sign_of_masks(j, k) == inversion_sign(j, k)


def test_monomial_unordered_indices_sign():
    assert monomial(3, (2, 1)) == monomial(3, (1, 2), -1)
    assert monomial(3, (3, 1, 2)) == monomial(3, (1, 2, 3))
    assert monomial(3, (3, 2, 1)) == monomial(3, (1, 2, 3), -1)


def test_monomial_validation():
    with pytest.raises(ValueError):
        monomial(3, (1, 1))
    with pytest.raises(ValueError):
        monomial(3, (0,))
    with pytest.raises(ValueError):
        monomial(3, (4,))


def test_unit_is_neutral():
    x = monomial(3, (1, 3), 5) + monomial(3, (2,), -2)
    assert unit(3) * x == x
    assert x * unit(3) == x


def test_coefficient_arithmetic():
    x = monomial(2, (1,), Fraction(1, 2))
    y = monomial(2, (1,), Fraction(1, 3))
    assert (x + y).coefficient(0b01) == Fraction(5, 6)
    assert (x - x).is_zero()
    assert (x / 2).coefficient(0b01) == Fraction(1, 4)
    assert (3 * x).coefficient(0b01) == Fraction(3, 2)


def test_division_makes_the_only_fractions():
    x = 2 * generator(2, 1)
    assert type(x.coefficient(0b01)) is int
    half = (x / 4).coefficient(0b01)
    assert type(half) is Fraction and half == Fraction(1, 2)
    assert type((x / -1).coefficient(0b01)) is int and (x / -1).coefficient(0b01) == -2
    assert x / 2 == generator(2, 1)


def test_floats_rejected():
    with pytest.raises(TypeError):
        monomial(2, (1,), 0.5)
    with pytest.raises(TypeError):
        GrassmannElement(2, {1: 0.5})
    with pytest.raises(TypeError):
        monomial(2, (1,)).scale(0.5)


def test_ambient_mismatch():
    with pytest.raises(AmbientMismatch):
        generator(2, 1) + generator(3, 1)
    with pytest.raises(AmbientMismatch):
        generator(2, 1) * generator(3, 1)


def test_grade_decomposition():
    x = unit(4) + generator(4, 2) + monomial(4, (1, 3)) + monomial(4, (1, 2, 3))
    assert x.grade_component(0) == unit(4)
    assert x.grade_component(2) == monomial(4, (1, 3))
    assert x.grade_component(4).is_zero()
    assert x.even_part() == unit(4) + monomial(4, (1, 3))
    assert x.odd_part() == generator(4, 2) + monomial(4, (1, 2, 3))
    assert x.even_part() + x.odd_part() == x
    assert x.degrees() == {0, 1, 2, 3}
    assert not x.is_homogeneous()
    assert monomial(4, (1, 3)).is_homogeneous()


def test_min_degree():
    x = monomial(4, (1, 2)) + monomial(4, (1, 2, 3, 4))
    assert x.min_degree() == 2
    assert x.min_part() == monomial(4, (1, 2))
    with pytest.raises(ValueError):
        zero(4).min_degree()


def test_substitute_zero():
    x = generator(3, 1) + monomial(3, (1, 2)) + monomial(3, (2, 3))
    assert x.substitute_zero(1) == monomial(3, (2, 3))
    assert x.substitute_zero(2) == generator(3, 1)
    assert x.substitute_zero(3) == generator(3, 1) + monomial(3, (1, 2))
    y = generator(3, 2)
    assert (x * y).substitute_zero(1) == x.substitute_zero(1) * y.substitute_zero(1)


def test_initial_monomial_and_term():
    x = monomial(3, (2,), 4) + monomial(3, (1, 2, 3), -1)
    assert x.initial_monomial() == Monomial(3, 0b010)
    assert x.initial_term() == monomial(3, (2,), 4)
    assert zero(3).initial_term().is_zero()
    with pytest.raises(ValueError):
        zero(3).initial_monomial()
    assert (unit(3) + generator(3, 1)).initial_monomial().mask == 0


def test_initial_term_of_product():
    x = generator(3, 1) + monomial(3, (2, 3))
    y = generator(3, 2) + monomial(3, (1, 3))
    assert x.initial_term() == generator(3, 1)
    assert (x * y).initial_term() == monomial(3, (1, 2))


def test_order_matches_ascending_masks():
    for n in range(1, 7):
        monos = [Monomial(n, m) for m in range(1 << n)]
        in_order = sorted(monos, reverse=True)
        assert [m.mask for m in in_order] == list(range(1 << n))


def test_order_definition_spot_checks():
    # larger monomial = earlier first difference in descending index sequences
    assert Monomial(3, 0b001) > Monomial(3, 0b010)  # v1 beats v2
    assert Monomial(3, 0b001) > Monomial(3, 0b011)  # v1 beats v12 (prefix)
    assert Monomial(3, 0b011) > Monomial(3, 0b100)  # v12 beats v3
    assert Monomial(3, 0b100) > Monomial(3, 0b111)  # v3 beats v123 (prefix)
    assert Monomial(3, 0) > Monomial(3, 0b001)  # the unit beats everything
    assert compare_monomials(Monomial(2, 1), Monomial(2, 1)) == 0


def test_order_total_and_antisymmetric():
    n = 5
    monos = [Monomial(n, m) for m in range(1 << n)]
    for a in monos:
        for b in monos:
            c = compare_monomials(a, b)
            assert c == -compare_monomials(b, a)
            assert (c == 0) == (a.mask == b.mask)


def test_monomial_descending_indices():
    m = Monomial(5, 0b10110)
    assert m.indices() == (2, 3, 5)
    assert m.descending_indices() == (5, 3, 2)
    assert m.degree == 3
    assert Monomial.from_indices(5, (5, 2, 3)) == m


def test_element_equality_and_hash():
    x = generator(3, 1) + monomial(3, (2, 3))
    y = monomial(3, (2, 3)) + generator(3, 1)
    assert x == y and hash(x) == hash(y)
    assert x != x.scale(2)
    assert len({x, y}) == 1


def test_element_equality_respects_the_field_except_at_zero():
    f = PrimeField(5)
    x, y = generator(2, 1, f), generator(2, 1)
    assert x != y and y != x  # x + y raises AmbientMismatch, so they are not equal
    with pytest.raises(AmbientMismatch):
        x + y
    assert x == generator(2, 1, PrimeField(5))
    assert zero(2) == x.scale(0) and x.scale(0) == zero(2) and hash(zero(2)) == hash(x.scale(0))
    assert x.scale(0) != zero(3)


def test_prime_field_elements():
    f = PrimeField(5)
    x = monomial(3, (1,), 2, field=f) + monomial(3, (2, 3), 4, field=f)
    y = monomial(3, (2,), 3, field=f)
    p = x * y
    assert p.coefficient(0b011) == f.coerce(6)
    assert (x + x + x + x + x).is_zero()


def test_repr_is_readable():
    assert "v{1,2}" in repr(monomial(3, (1, 2)))
    assert repr(Monomial(3, 0b011)) == "v{1,2}"


def test_support_sorted():
    x = monomial(4, (1, 2, 3)) + generator(4, 4) + unit(4)
    assert x.support() == [0, 0b0111, 0b1000]


def test_scalar_multiplication():
    x = generator(2, 1)
    assert x.scale(Fraction(1, 2)) + x.scale(Fraction(1, 2)) == x
    assert 2 * x == x + x
    assert -x == x.scale(-1)


def test_add_refuses_mixed_fields_even_on_disjoint_supports():
    from extalg.fields import PrimeField

    q = generator(2, 1)
    g5 = generator(2, 2, PrimeField(5))
    g7 = generator(2, 2, PrimeField(7))
    for a, b in ((q, g5), (g5, q), (g5, g7)):
        with pytest.raises(AmbientMismatch):
            a + b
        with pytest.raises(AmbientMismatch):
            a - b
    # the zero element carries no field
    assert zero(2) + g5 == g5 and g5 - zero(2) == g5 and zero(2) + q == q


def test_prime_field_elements_scale_and_divide_by_ints():
    from extalg.fields import PrimeField

    f = PrimeField(5)
    x = monomial(2, (1,), 3, f)
    assert x.scale(2) == monomial(2, (1,), 1, f)
    assert x * 2 == 2 * x == monomial(2, (1,), 1, f)
    assert x / 2 == monomial(2, (1,), 4, f)
    assert x / f.coerce(3) == generator(2, 1, f)
    with pytest.raises(ZeroDivisionError):
        x / 5
    assert x.scale(5).is_zero()
    assert x * 5 == 5 * x == zero(2)
    assert (x * 7).terms == {0b01: f.coerce(1)}


def test_constructor_refuses_mixed_fields():
    # an int coefficient is a rational, so it cannot sit beside a GF(5) one
    with pytest.raises(AmbientMismatch):
        GrassmannElement(2, {1: FpElement(5, 1), 2: 3})
    with pytest.raises(AmbientMismatch):
        GrassmannElement(2, {1: FpElement(5, 1), 2: FpElement(3, 1)})
    with pytest.raises(AmbientMismatch):
        GrassmannElement(2, {1: Fraction(1, 2), 2: FpElement(5, 1)})
    x = GrassmannElement(2, {1: FpElement(5, 1), 2: FpElement(5, 3)})
    assert x == GrassmannElement(2, {1: PrimeField(5).one, 2: PrimeField(5).coerce(3)})
    assert GrassmannElement(2, {1: 1, 2: Fraction(1, 2)}).coefficient(2) == Fraction(1, 2)


def test_products_follow_the_field_rule():
    q1, q2 = generator(2, 1), generator(2, 2)
    g5 = generator(2, 1, PrimeField(5))
    g7 = generator(2, 2, PrimeField(7))
    # disjoint supports, overlapping supports, two prime fields
    for a, b in ((g5, q2), (q2, g5), (g5, q1), (q1, g5), (g5, g7), (g7, g5)):
        with pytest.raises(AmbientMismatch):
            a * b
    # the zero element carries no field
    assert zero(2) * g5 == g5 * zero(2) == zero(2)
    assert g5 * generator(2, 2, PrimeField(5)) == monomial(2, (1, 2), 1, PrimeField(5))


def test_n_must_be_an_int_and_not_a_bool():
    from extalg.setfamilies import max_odd_intersecting

    for make in (lambda: GrassmannElement(True, {}), lambda: zero(True), lambda: Monomial(True, 0),
                 lambda: max_odd_intersecting(True)):
        with pytest.raises(ValueError):
            make()


def test_scalars_from_another_field_are_refused():
    g5, q = generator(2, 1, PrimeField(5)), generator(2, 1)
    half, one5, one7 = Fraction(1, 2), PrimeField(5).one, PrimeField(7).one
    for op in (lambda: g5.scale(half), lambda: g5 * half, lambda: half * g5, lambda: g5 / half,
               lambda: q.scale(one5), lambda: q * one5, lambda: one5 * q, lambda: q / one5,
               lambda: g5 * one7, lambda: g5 / one7):
        with pytest.raises(AmbientMismatch):
            op()
    # ints act on every field, a scalar of the element's own field is fine,
    # and the zero element carries no field
    assert g5.scale(PrimeField(5).coerce(2)) == g5 * 2 == monomial(2, (1,), 2, PrimeField(5))
    assert q / half == monomial(2, (1,), 2) and q.scale(half) == half * q
    assert zero(2).scale(one5) == zero(2) / one7 == zero(2)


def test_monomial_takes_its_coefficient_by_the_rule_of_scale():
    f5 = PrimeField(5)
    # (coefficient, field) pairs that scale refuses: monomial refuses them too
    for c, field in ((Fraction(1, 2), f5), (FpElement(5, 1), QQ), (FpElement(7, 1), f5)):
        with pytest.raises(AmbientMismatch):
            generator(2, 1, field).scale(c)
        with pytest.raises(AmbientMismatch):
            monomial(2, (1,), c, field)
    # ints act on every field, and a scalar of the field is taken as it is
    assert monomial(2, (2, 1), 7, f5) == generator(2, 1, f5).scale(7) * generator(2, 2, f5) * -1
    assert monomial(2, (1,), FpElement(5, 3), f5) == generator(2, 1, f5).scale(FpElement(5, 3))
    assert monomial(2, (1,), Fraction(1, 2)) == generator(2, 1).scale(Fraction(1, 2))
    assert monomial(2, (1,), FpElement(5, 5), f5).is_zero() and monomial(2, (1,), 0, f5).field is f5
    for bad in (0.5, True, "1"):
        with pytest.raises(TypeError):
            monomial(2, (1,), bad)


# One integer rule: a generator index, degree, star point, mask or search
# budget must be an int, never a bool, or the call refuses it with ValueError.

def _integer_rule_calls():
    from extalg.core import mask_of_indices
    from extalg.setfamilies import SetFamily, ekr_max, max_odd_intersecting, star, two_level_max
    from extalg.structure import canonical_max_commutative, upper_levels_commutative
    from extalg.subspace import grade_space, monomialize, span, split_generator

    d = span([generator(3, 1) + generator(3, 2)])
    x = generator(3, 1) + monomial(3, (2, 3))
    # name -> (call, an int it accepts)
    calls = {
        "mask_of_indices": (lambda v: mask_of_indices(3, [v]), 1),
        "monomial": (lambda v: monomial(3, (v,)), 1),
        "substitute_zero": (lambda v: x.substitute_zero(v), 1),
        "split_generator": (lambda v: split_generator(d, v), 1),
        "monomialize": (lambda v: monomialize(d, [v, 2, 3]), 1),
        "grade_component": (lambda v: x.grade_component(v), 1),
        "grade_space": (lambda v: grade_space(3, v), 1),
        "star-k": (lambda v: star(4, v, 1), 1),
        "ekr_max": (lambda v: ekr_max(4, v), 1),
        "two_level_max": (lambda v: two_level_max(7, v), 1),
        "star-l": (lambda v: star(4, 2, v), 1),
        "canonical_max_commutative": (lambda v: canonical_max_commutative(4, v), 1),
        "upper_levels_commutative": (lambda v: upper_levels_commutative(5, v), 1),
        "Monomial": (lambda v: Monomial(3, v), 1),
        "GrassmannElement": (lambda v: GrassmannElement(3, {v: 1}), 1),
        "SetFamily": (lambda v: SetFamily(3, [v]), 1),
        "budget": (lambda v: max_odd_intersecting(3, budget=v), 64),
    }
    return [pytest.param(call, bad, good, id="%s-%r" % (name, bad))
            for name, (call, good) in calls.items() for bad in (True, 1.0, 1.5)]


@pytest.mark.parametrize("call, bad, good", _integer_rule_calls())
def test_integer_arguments_refuse_bools_and_non_ints(call, bad, good):
    with pytest.raises(ValueError):
        call(bad)
    call(good)


def test_constructor_refuses_terms_that_are_not_a_dict():
    for bad in ([(1, 2)], 0, [], "", (), 1.5, "v{1}"):
        with pytest.raises(TypeError):
            GrassmannElement(3, bad)
    assert GrassmannElement(3) == GrassmannElement(3, None) == GrassmannElement(3, {}) == zero(3)
    assert GrassmannElement(3, None).field is QQ


def sum_per_element(a, b):
    """a + b as __add__ summed it before the one fold: a copy of a's terms,
    then b's terms one at a time, under the field rule of _check_same."""
    field = a._check_same(b)
    acc = dict(a.terms)
    for m, c in b.terms.items():
        s = acc.get(m)
        if s is None:
            acc[m] = c
        else:
            s = s + c
            if s:
                acc[m] = s
            else:
                del acc[m]
    return _element(a.n, field, acc)


def same_element(x, y):
    """Equal terms in the same order and the same field, zero results included."""
    return x.n == y.n and x.field is y.field and list(x.terms.items()) == list(y.terms.items())


@pytest.mark.parametrize("field", [QQ, PrimeField(3), PrimeField(10007)], ids=lambda f: f.name)
def test_difference_and_sum_match_the_element_sums_they_replace(field):
    from extalg.verify import random_element

    rng = random.Random("fold-" + field.name)
    other = PrimeField(5) if field is not PrimeField(5) else QQ
    zeros = (zero(3), monomial(3, (1,), 0, other), monomial(3, (1,), 0, field))
    cancelled = 0
    for _ in range(300):
        a = random_element(rng, 3, field, max_terms=6)
        b = random_element(rng, 3, field, max_terms=6)
        if field is QQ:
            a, b = a / rng.randint(1, 3), b / rng.randint(1, 3)  # Fractions beside ints
        if rng.random() < 0.3:
            b = b + a  # shares a's masks, so a - b cancels some
        pairs = [(a, b), (b, a), (a, a)] + [(z, a) for z in zeros] + [(a, z) for z in zeros]
        for x, y in pairs:
            assert same_element(x - y, sum_per_element(x, -y)), (x, y)
            assert same_element(x + y, sum_per_element(x, y)), (x, y)
        cancelled += any(m in b.terms and m not in (a - b).terms for m in a.terms)
    assert cancelled > 30
    # two zero operands: the field is the second's, as _check_same says
    for z1 in zeros:
        for z2 in zeros:
            assert same_element(z1 - z2, sum_per_element(z1, -z2)) and (z1 - z2).field is z2.field
