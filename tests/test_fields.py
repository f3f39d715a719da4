import copy
import pickle
from fractions import Fraction

import pytest

from extalg.fields import QQ, FpElement, PrimeField, Rationals, _inverse, field_by_name, field_of


def test_rational_coerce():
    assert QQ.coerce(3) == Fraction(3)
    assert QQ.coerce(Fraction(2, 5)) == Fraction(2, 5)
    assert QQ.from_ratio(3, 4) == Fraction(3, 4)
    assert QQ.one == 1 and QQ.zero == 0
    assert QQ.name == "rational"
    assert QQ.characteristic == 0


def test_rational_rejects_floats():
    with pytest.raises(TypeError):
        QQ.coerce(0.5)


def test_rationals_stay_ints_until_a_division():
    assert type(QQ.coerce(3)) is int and type(QQ.from_ratio(-4)) is int
    assert type(QQ.zero) is int and type(QQ.one) is int
    assert type(QQ.from_ratio(3, 4)) is Fraction
    with pytest.raises(TypeError):
        QQ.coerce(True)
    assert _inverse(3) == Fraction(1, 3) and type(_inverse(3)) is Fraction
    assert _inverse(-1) == -1 and type(_inverse(-1)) is int and _inverse(1) == 1
    assert _inverse(Fraction(-2, 3)) == Fraction(-3, 2)
    assert _inverse(FpElement(7, 3)) == FpElement(7, 5)


def test_prime_field_basics():
    f = PrimeField(7)
    a, b = f.coerce(3), f.coerce(5)
    assert a + b == f.coerce(1)
    assert a - b == f.coerce(-2) == f.coerce(5)
    assert a * b == f.coerce(15)
    assert (a / b) * b == a
    assert -a == f.coerce(4)
    assert f.coerce(10) == 3
    assert bool(f.coerce(7)) is False
    assert str(f.coerce(9)) == "2"
    assert f.name == "gf:7"
    assert f.characteristic == 7


def test_prime_field_int_mixing():
    f = PrimeField(5)
    a = f.coerce(2)
    assert a + 1 == f.coerce(3)
    assert 1 + a == f.coerce(3)
    assert 3 * a == f.coerce(1)
    assert a / 2 == f.one
    assert 2 / a == f.one


def test_prime_field_division_by_zero():
    f = PrimeField(5)
    with pytest.raises(ZeroDivisionError):
        f.coerce(1) / f.coerce(5)
    with pytest.raises(ZeroDivisionError):
        f.from_ratio(1, 10)


def test_prime_field_validation():
    for bad in (1, 4, 6, 9, 15, 0, -3):
        with pytest.raises(ValueError):
            PrimeField(bad)
    with pytest.raises(ValueError):
        PrimeField(2)
    assert PrimeField(3).name == "gf:3"


def test_is_prime_matches_trial_division_below_10_5():
    from extalg.fields import _is_prime

    small = [d for d in range(2, 317) if all(d % e for e in range(2, d))]
    by_trial = [p for p in range(2, 10**5) if all(p % d for d in small if d * d <= p)]
    assert [p for p in range(10**5) if _is_prime(p)] == by_trial


def test_is_prime_refuses_pseudoprimes():
    from extalg.fields import _is_prime

    carmichael = [561, 1105, 1729, 2465, 2821, 6601, 8911, 41041, 62745, 825265, 321197185, 5394826801]
    # strong pseudoprimes to bases 2; 2..7; 2..37, the first twelve primes
    strong = [2047, 3215031751, 318665857834031151167461]
    for q in carmichael + strong:
        assert not _is_prime(q)
    for q in (10**14 + 31, 2**61 - 1, 10**24 + 7):
        assert _is_prime(q)
    assert not _is_prime(2**61 + 1) and not _is_prime((2**61 - 1) * (2**31 - 1))


def test_prime_field_orders_are_checked_at_once():
    from extalg.fields import _PRIME_BOUND

    assert PrimeField(2**61 - 1).p == 2**61 - 1
    assert field_by_name("gf:%d" % (10**14 + 31)).p == 10**14 + 31
    # beyond the bound where the test is exact, every order is refused
    for p in (_PRIME_BOUND, 2**127 - 1, 10**29 + 1):
        with pytest.raises(ValueError, match="prime number below"):
            PrimeField(p)
    with pytest.raises(ValueError):
        field_by_name("gf:%d" % (10**29 + 1))


def test_mismatched_moduli_rejected():
    a = FpElement(3, 1)
    b = FpElement(5, 1)
    with pytest.raises(TypeError):
        a + b


def test_field_by_name():
    assert field_by_name("rational") is QQ
    assert field_by_name("gf:11").characteristic == 11
    with pytest.raises(ValueError):
        field_by_name("gf:2")
    with pytest.raises(ValueError):
        field_by_name("real")
    with pytest.raises(ValueError):
        field_by_name("gf:abc")
    # str.isdigit and int() also take other scripts' digits and superscripts
    for tag in ("gf:\u0667", "gf:\u00b3", "gf:1\u0661"):
        with pytest.raises(ValueError, match="malformed field tag"):
            field_by_name(tag)
    for tag in (5, None, 7.0, ["rational"], b"rational"):
        with pytest.raises(ValueError):
            field_by_name(tag)


def test_fp_hash_matches_eq():
    f = PrimeField(7)
    assert hash(f.coerce(9)) == hash(f.coerce(2))
    assert len({f.coerce(1), f.coerce(8), f.coerce(15)}) == 1


def test_fp_int_equality_agrees_with_hash():
    a = FpElement(5, 6)
    assert a == 1 and hash(a) == hash(1)
    assert a != 6 and a != -4
    for p in (3, 5, 7):
        for r in range(-2 * p, 2 * p):
            x = FpElement(p, r)
            for k in range(-2 * p, 2 * p):
                if x == k:
                    assert hash(x) == hash(k)


def test_a_field_argument_must_be_a_field():
    from extalg.core import generator, monomial, unit
    from extalg.structure import canonical_max_commutative, hom_from_images
    from extalg.subspace import Subspace, monomial_space, span, zero_space
    from extalg.text import parse_element

    def g(f):  # a generator over f, or over QQ when f is not a field
        return generator(2, 1, f if isinstance(f, PrimeField) else QQ)

    calls = {
        "span": lambda f: span([], n=2, field=f),
        "hom_from_images": lambda f: hom_from_images([g(f)], field=f),
        "zero_space": lambda f: zero_space(2, field=f),
        "Subspace": lambda f: Subspace(2, f, [g(f)]),
        "monomial_space": lambda f: monomial_space(2, [1], field=f),
        "monomial": lambda f: monomial(2, [2, 1], 3, field=f),
        "generator": lambda f: generator(2, 1, field=f),
        "unit": lambda f: unit(2, field=f),
        "parse_element": lambda f: parse_element("v{1}", 2, f),
        "canonical_max_commutative": lambda f: canonical_max_commutative(4, field=f),
    }
    for name, call in calls.items():
        for good in (QQ, PrimeField(5)):
            assert call(good).field == good, name
        # span and hom_from_images read the field off their vectors when given None
        for bad in ("QQ", "rational", "x", 3) + (() if name in ("span", "hom_from_images") else (None,)):
            with pytest.raises(TypeError):
                call(bad)


def test_one_descriptor_per_field():
    assert Rationals() is QQ
    for p in (3, 5, 7, 10007):
        f = PrimeField(p)
        assert PrimeField(p) is f
        assert field_of(FpElement(p, 2)) is f and field_of(f.one) is f
        assert field_by_name("gf:%d" % p) is f
    assert PrimeField(5) is not PrimeField(7)
    assert field_of(3) is QQ and field_of(Fraction(1, 2)) is QQ
    for f in (QQ, PrimeField(5), PrimeField(10007)):
        assert pickle.loads(pickle.dumps(f)) is f
        assert copy.copy(f) is f and copy.deepcopy(f) is f
        assert copy.deepcopy([f, {"f": f}]) == [f, {"f": f}]
    # a refused order is refused on every call, with nothing kept
    for bad in (4, 2, 3.0, True, "5"):
        for _ in range(2):
            with pytest.raises(ValueError):
                PrimeField(bad)


def test_fields_built_apart_give_equal_elements_and_subspaces():
    from extalg.core import AmbientMismatch, generator
    from extalg.subspace import span
    from extalg.text import parse_element

    x = parse_element("2*v{1}+v{1,2}", 2, PrimeField(5))
    y = parse_element("2*v{1}+v{1,2}", 2, field_by_name("gf:5"))
    assert x == y and hash(x) == hash(y)
    a = span([x, generator(2, 2, PrimeField(5))])
    b = span([y, generator(2, 2, pickle.loads(pickle.dumps(PrimeField(5))))])
    assert a == b and hash(a) == hash(b)
    assert pickle.loads(pickle.dumps(a)) == a and copy.deepcopy(a).field is PrimeField(5)
    g7 = generator(2, 1, PrimeField(7))
    with pytest.raises(AmbientMismatch):
        x + g7
    with pytest.raises(AmbientMismatch):
        span([x, g7])
    with pytest.raises(AmbientMismatch):
        a.sum(span([g7]))
    assert x != parse_element("2*v{1}+v{1,2}", 2, PrimeField(7))
