"""Exact coefficient fields: rationals and prime fields of odd characteristic.

Every coefficient in this package is an int or a fractions.Fraction (both
rational) or an FpElement.  A rational stays a plain int while it is
integral; a Fraction appears only when a division makes one, and the one
place a coefficient is inverted is _inverse (FpElement divides on its own).
Ints and Fractions go through the same operators, and equal values compare
and hash alike, so which of the two holds a value never changes a result.
Field descriptors (Rationals, PrimeField) carry the conversion and parsing
logic; arithmetic lives on the scalars themselves.  There is one descriptor
per field (Rationals() is QQ, PrimeField(p) is PrimeField(p), through pickle
and copy too), so fields compare by identity.  Every element records its
field, and field_of is the one place a field is read off a single scalar.
Characteristic 2 is rejected everywhere, 2 must be invertible here.
"""

from __future__ import annotations

from fractions import Fraction

__all__ = ["QQ", "Rationals", "PrimeField", "FpElement", "field_by_name", "field_of"]


class Rationals:
    """Descriptor for the rational field: coefficients are ints while they
    are integral, Fractions once a division makes one.  Rationals() is QQ."""

    name = "rational"
    characteristic = 0
    zero = 0
    one = 1

    def __new__(cls):
        return QQ

    def coerce(self, value):
        # the exact type test first: isinstance(value, Fraction) is an ABC check
        if type(value) is int:
            return value
        if isinstance(value, Fraction):
            return value
        if isinstance(value, int) and not isinstance(value, bool):
            return int(value)
        raise TypeError("cannot coerce %r into the rational field" % (value,))

    def from_ratio(self, num: int, den: int = 1):
        return num if den == 1 else Fraction(num, den)

    def __reduce__(self):
        return (Rationals, ())

    def __repr__(self):
        return "QQ"


QQ = object.__new__(Rationals)


# The strong probable-prime test to the first 13 prime bases is exact below
# this bound, the least number that passes it without being prime
# (Sorenson and Webster, 2015).  The first 12 bases are fooled already by
# 318665857834031151167461 = 399165290221 * 798330580441.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_PRIME_BOUND = 3317044064679887385961981


def _is_prime(p: int) -> bool:
    """Deterministic Miller-Rabin, exact for p < _PRIME_BOUND."""
    if p < 2:
        return False
    for a in _MR_BASES:
        if p % a == 0:
            return p == a
    d = p - 1
    s = (d & -d).bit_length() - 1  # p - 1 = d * 2^s with d odd
    d >>= s
    for a in _MR_BASES:
        x = pow(a, d, p)
        if x == 1 or x == p - 1:
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


class FpElement:
    """One residue modulo an odd prime. Supports +-*/ with its own kind and ints."""

    __slots__ = ("p", "r")

    def __init__(self, p: int, r: int):
        self.p = p
        self.r = r % p

    def _lift(self, other):
        if isinstance(other, FpElement):
            if other.p != self.p:
                raise TypeError("mixed prime fields: p=%d vs p=%d" % (self.p, other.p))
            return other
        if isinstance(other, int) and not isinstance(other, bool):
            return FpElement(self.p, other)
        return None

    def __add__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return FpElement(self.p, self.r + o.r)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return FpElement(self.p, self.r - o.r)

    def __rsub__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return FpElement(self.p, o.r - self.r)

    def __mul__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return FpElement(self.p, self.r * o.r)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        if o.r == 0:
            raise ZeroDivisionError("division by zero in GF(%d)" % self.p)
        return FpElement(self.p, self.r * pow(o.r, -1, self.p))

    def __rtruediv__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return o.__truediv__(self)

    def __neg__(self):
        return FpElement(self.p, -self.r)

    def __eq__(self, other):
        if isinstance(other, FpElement):
            return self.p == other.p and self.r == other.r
        # an int is equal only to the residue it names canonically, so that
        # equal values hash alike
        if isinstance(other, int) and not isinstance(other, bool):
            return self.r == other
        return NotImplemented

    def __hash__(self):
        return hash(self.r)

    def __bool__(self):
        return self.r != 0

    def __repr__(self):
        return "FpElement(%d, %d)" % (self.p, self.r)

    def __str__(self):
        return str(self.r)


class PrimeField:
    """Descriptor for GF(p), p an odd prime (p = 2 is rejected); one per p."""

    _by_p = {}

    def __new__(cls, p: int):
        field = cls._by_p.get(p) if type(p) is int else None
        if field is None:
            if type(p) is not int or not (p < _PRIME_BOUND and _is_prime(p)):
                raise ValueError("field order must be a prime number below %d, got %r" % (_PRIME_BOUND, p))
            if p == 2:
                raise ValueError("characteristic 2 is not supported (2 must be invertible)")
            field = cls._by_p[p] = object.__new__(cls)
            field.p = field.characteristic = p
            field.zero = FpElement(p, 0)
            field.one = FpElement(p, 1)
        return field

    @property
    def name(self) -> str:
        return "gf:%d" % self.p

    def coerce(self, value):
        if isinstance(value, FpElement):
            if value.p != self.p:
                raise TypeError("element of GF(%d) used in GF(%d)" % (value.p, self.p))
            return value
        if isinstance(value, int) and not isinstance(value, bool):
            return FpElement(self.p, value)
        if isinstance(value, Fraction):
            return self.from_ratio(value.numerator, value.denominator)
        raise TypeError("cannot coerce %r into GF(%d)" % (value, self.p))

    def from_ratio(self, num: int, den: int = 1):
        if den % self.p == 0:
            raise ZeroDivisionError("denominator %d vanishes in GF(%d)" % (den, self.p))
        return FpElement(self.p, num * pow(den % self.p, -1, self.p))

    def __reduce__(self):
        return (PrimeField, (self.p,))

    def __repr__(self):
        return "PrimeField(%d)" % self.p


def field_by_name(name: str):
    """Parse a field tag: "rational" or "gf:p" with p an odd prime written in
    ASCII digits."""
    if not isinstance(name, str):
        raise ValueError("field tag must be a string, got %r" % (name,))
    if name == "rational":
        return QQ
    if name.startswith("gf:"):
        body = name[3:]
        if not (body.isascii() and body.isdigit()):
            raise ValueError("malformed field tag %r" % name)
        return PrimeField(int(body))
    raise ValueError("unknown field tag %r (expected 'rational' or 'gf:p')" % name)


def _check_field(field):
    """field itself when it is QQ or a PrimeField; anything else is refused."""
    if not isinstance(field, (Rationals, PrimeField)):
        raise TypeError("expected a field (QQ or a PrimeField), got %r" % (field,))
    return field


def _inverse(c):
    """1 / c for a nonzero coefficient: a Fraction for an int other than +-1,
    so that int / int never makes a float.  The only coefficient division
    outside FpElement."""
    if type(c) is int:
        return c if c == 1 or c == -1 else Fraction(1, c)
    return 1 / c


def field_of(c):
    """The field of one coefficient: QQ for a Fraction or an int (never a
    bool), GF(p) for an FpElement.  There is one descriptor per p, so the
    fields read off coefficients compare by identity."""
    t = type(c)
    if t is Fraction or t is int or isinstance(c, Fraction):
        return QQ
    if t is FpElement:
        return PrimeField(c.p)
    if isinstance(c, float):
        raise TypeError("floating point coefficients are not allowed; use Fraction")
    raise TypeError("unsupported coefficient %r" % (c,))
