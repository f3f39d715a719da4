"""Text form of elements and JSON subspace documents.

Element grammar (whitespace allowed between tokens):

    expr     := ['+'|'-'] term (('+'|'-') term)*
    term     := coeff ['*'] monomial | coeff | monomial
    coeff    := int ['/' posint]
    monomial := 'v' '{' idx (',' idx)* '}' | '1'

int, posint and idx are runs of one or more ASCII digits 0-9; other
scripts' digits are refused.  Indices inside v{...} may come in any order;
they are normalized to increasing order and the permutation sign is folded
into the coefficient.  A repeated index is an error, not zero.
parse_expression extends the grammar with '*' products and parentheses for
the command line calculator; documents only ever use the strict element
grammar.  Every rejected text raises ParseError at the offending token,
a number too long for int() included.  parse_element reads a bare monic
monomial in print_element's own form, v{i1,...,ik} with 1 <= i1 < ... <
ik <= n and no spaces or leading zeros, with one regular-expression match
and no tokenizer; every other text, such a match out of order or range
included, takes the token parser.  The parser's rules return term dicts
(mask -> coefficient): a sum folds each signed term into one dict with
core._fold, a product multiplies dicts with core._mul_terms, and one
element is built per expression, so a k-term sum reads in O(k).

A subspace document is a JSON object {"n": int, "field": "rational"|"gf:p",
"basis": [element strings]}.
"""

from __future__ import annotations

import re

from .core import GrassmannElement, _check_n, _element, _fold, _mul_terms, indices_of_mask
from .fields import QQ, _check_field, field_by_name

__all__ = [
    "ParseError",
    "parse_element",
    "parse_expression",
    "print_element",
    "read_subspace",
    "write_subspace",
]


class ParseError(ValueError):
    """Rejected input text. kind is one of syntax, range, duplicate,
    zero-denominator; pos is a 0-based character offset."""

    def __init__(self, kind: str, pos: int, message: str):
        super().__init__("parse error at position %d: %s" % (pos, message))
        self.kind = kind
        self.pos = pos


_DIGITS = frozenset("0123456789")
_PUNCT = frozenset("+-*/{},()v")


def _tokenize(text: str):
    toks = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch in _DIGITS:
            j = i + 1
            while j < len(text) and text[j] in _DIGITS:
                j += 1
            toks.append(("num", text[i:j], i))
            i = j
        elif ch in _PUNCT:
            toks.append((ch, ch, i))
            i += 1
        elif ch.isspace():
            i += 1
        else:
            raise ParseError("syntax", i, "unexpected character %r" % ch)
    toks.append(("end", "", len(text)))
    return toks


def _term(mask, c) -> dict:
    """One term's dict; a zero coefficient gives no term."""
    return {mask: c} if c else {}


class _Parser:
    def __init__(self, text: str, n: int, field):
        _check_n(n)
        self.n = n
        self.field = _check_field(field)
        self.toks = _tokenize(text)
        self.i = 0

    def peek(self):
        return self.toks[self.i]

    def take(self, kind=None, msg=None):
        """The next token; one of another kind than kind is a syntax error."""
        t = self.toks[self.i]
        if kind is not None and t[0] != kind:
            raise ParseError("syntax", t[2], msg)
        if t[0] != "end":
            self.i += 1
        return t

    def number(self, msg):
        """(value, pos) of the next token, which must be a number."""
        _, digits, pos = self.take("num", msg)
        try:
            return int(digits), pos
        except ValueError:  # more digits than int() converts
            raise ParseError("syntax", pos, "number too long") from None

    # coeff := int ['/' posint]   (sign handled by the caller)
    def coeff(self):
        num, _ = self.number("expected a number")
        if self.peek()[0] != "/":
            return self.field.from_ratio(num)
        self.take()
        den, pos = self.number("expected a denominator after '/'")
        try:
            return self.field.from_ratio(num, den)
        except ZeroDivisionError:
            raise ParseError("zero-denominator", pos, "denominator %d is zero in %s" % (den, self.field.name)) from None

    # c * v{idx (',' idx)*}, indices sorted and the permutation sign folded into c
    def monomial(self, c, msg=None):
        self.take("v", msg)
        self.take("{", "expected '{' after v")
        seen = 0
        inv = 0
        while True:
            idx, pos = self.number("expected a generator index")
            if not 1 <= idx <= self.n:
                raise ParseError("range", pos, "index %d outside 1..%d" % (idx, self.n))
            bit = 1 << (idx - 1)
            if seen & bit:
                raise ParseError("duplicate", pos, "index %d repeated" % idx)
            inv += (seen >> idx).bit_count()
            seen |= bit
            if self.peek()[0] == "}":
                self.take()
                return _term(seen, -c if inv & 1 else c)
            self.take(",", "expected ',' or '}' in index list")

    def term_strict(self):
        if self.peek()[0] != "num":
            return self.monomial(self.field.one, "expected a term")
        c = self.coeff()
        kind = self.peek()[0]
        if kind == "*":
            self.take()
            if self.peek()[:2] == ("num", "1"):
                self.take()
                return _term(0, c)
            return self.monomial(c, "expected a monomial after '*'")
        if kind == "v":
            return self.monomial(c)
        return _term(0, c)

    def sum(self, term_fn):
        """Every term folded into one dict, so a k-term sum costs O(k)."""
        op = self.take()[0] if self.peek()[0] in "+-" else "+"
        acc = {}
        while True:
            _fold(acc, term_fn(), -1 if op == "-" else 1)
            if self.peek()[0] not in "+-":
                return acc
            op = self.take()[0]

    # calculator grammar: factors chained by '*' or juxtaposition, parens
    def factor(self):
        kind = self.peek()[0]
        if kind == "(":
            self.take()
            inner = self.sum(self.term_calc)
            self.take(")", "expected ')'")
            return inner
        if kind == "num":
            return _term(0, self.coeff())
        return self.monomial(self.field.one, "expected a factor")

    def term_calc(self):
        acc = self.factor()
        while True:
            kind = self.peek()[0]
            if kind == "*":
                self.take()
            elif kind not in ("num", "v", "("):
                return acc
            acc = _mul_terms(acc, self.factor())

    def finish(self, value):
        self.take("end", "trailing input")
        return value


# print_element's form of a monic monomial; indices of at most two digits
# cover MAX_N = 16, and one with a leading zero takes the token parser
_MONIC = re.compile(r"v\{([1-9][0-9]?(?:,[1-9][0-9]?)*)\}")


def parse_element(text: str, n: int, field=QQ) -> GrassmannElement:
    """Strict element grammar; result is canonical (sorted, zero-free)."""
    _check_n(n)
    field = _check_field(field)
    return _element(n, field, _parse_terms(text, n, field))


def _parse_terms(text, n, field) -> dict:
    """parse_element's canonical term dict, for an n and field it has checked."""
    m = _MONIC.fullmatch(text) if isinstance(text, str) else None
    if m:
        mask = prev = 0
        for idx in map(int, m[1].split(",")):
            if idx <= prev:
                break
            mask |= 1 << (idx - 1)
            prev = idx
        else:
            if prev <= n:
                return {mask: field.one}
    # anything else, and an unsorted, repeated or out-of-range monomial,
    # goes through the tokenizer, which says what is wrong and where
    p = _Parser(text, n, field)
    return p.finish(p.sum(p.term_strict))


def parse_expression(text: str, n: int, field=QQ) -> GrassmannElement:
    """Element grammar plus '*' products and parentheses (CLI calculator)."""
    p = _Parser(text, n, field)
    try:
        return _element(p.n, p.field, p.finish(p.sum(p.term_calc)))
    except RecursionError:
        raise ParseError("syntax", p.peek()[2], "expression nested too deeply") from None


def print_element(x: GrassmannElement) -> str:
    """Canonical text: terms in decreasing monomial order, '+'/'-' joins,
    coefficient 1 elided except on the unit monomial."""
    if not x.terms:
        return "0"
    out = []
    first = True
    for mask in sorted(x.terms):
        c = x.terms[mask]
        if x.field.characteristic == 0 and c < 0:
            sign = "-"
            mag = -c
        else:
            sign = "+"
            mag = c
        if mask == 0:
            body = str(mag)
        elif mag == 1:
            body = _mono_str(mask)
        else:
            body = "%s*%s" % (mag, _mono_str(mask))
        if first:
            out.append(body if sign == "+" else "-" + body)
            first = False
        else:
            out.append(sign + body)
    return "".join(out)


def _mono_str(mask: int) -> str:
    return "v{%s}" % ",".join(map(str, indices_of_mask(mask)))


def read_subspace(doc: dict):
    """Build a Subspace from a document dict (already JSON-decoded)."""
    from .subspace import _space

    if not isinstance(doc, dict):
        raise ValueError("subspace document must be a JSON object")
    extra = set(doc) - {"n", "field", "basis"}
    if extra:
        raise ValueError("unknown document keys: %s" % ", ".join(sorted(extra)))
    for key in ("n", "field", "basis"):
        if key not in doc:
            raise ValueError("document is missing %r" % key)
    n = doc["n"]
    _check_n(n)
    field = field_by_name(doc["field"])
    basis = doc["basis"]
    if not isinstance(basis, list) or not all(isinstance(s, str) for s in basis):
        raise ValueError("document basis must be a list of strings")
    rows = []
    for k, s in enumerate(basis):
        try:
            rows.append(_parse_terms(s, n, field))
        except ParseError as e:
            raise ValueError("basis[%d]: %s" % (k, e)) from e
    return _space(n, field, rows)


def write_subspace(space) -> dict:
    """Canonical document for a subspace; read_subspace inverts it."""
    return {
        "n": space.n,
        "field": space.field.name,
        "basis": [print_element(b) for b in space.basis],
    }
