from fractions import Fraction

import pytest

from extalg.fields import QQ, FpElement, PrimeField, field_by_name


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
