"""Text form of elements and JSON subspace documents.

Element grammar (whitespace allowed between tokens):

    expr     := ['+'|'-'] term (('+'|'-') term)*
    term     := coeff ['*'] monomial | coeff | monomial
    coeff    := int ['/' posint]
    monomial := 'v' '{' idx (',' idx)* '}' | '1'

Indices inside v{...} may come in any order; they are normalized to
increasing order and the permutation sign is folded into the coefficient.
A repeated index is an error, not zero.  parse_expression extends the
grammar with '*' products and parentheses for the command line calculator;
documents only ever use the strict element grammar.

A subspace document is a JSON object {"n": int, "field": "rational"|"gf:p",
"basis": [element strings]}.
"""

from __future__ import annotations

from .core import GrassmannElement, _check_n, _element, indices_of_mask
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


_PUNCT = set("+-*/{},()")


def _tokenize(text: str):
    toks = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch.isdigit():
            j = i
            while j < len(text) and text[j].isdigit():
                j += 1
            toks.append(("num", text[i:j], i))
            i = j
            continue
        if ch == "v":
            toks.append(("v", ch, i))
            i += 1
            continue
        if ch in _PUNCT:
            toks.append((ch, ch, i))
            i += 1
            continue
        raise ParseError("syntax", i, "unexpected character %r" % ch)
    toks.append(("end", "", len(text)))
    return toks


class _Parser:
    def __init__(self, text: str, n: int, field):
        _check_n(n)
        self.n = n
        self.field = _check_field(field)
        self.toks = _tokenize(text)
        self.i = 0

    def peek(self):
        return self.toks[self.i]

    def take(self):
        t = self.toks[self.i]
        if t[0] != "end":
            self.i += 1
        return t

    def fail(self, kind, pos, msg):
        raise ParseError(kind, pos, msg)

    # coeff := int ['/' posint]   (sign handled by the caller)
    def coeff(self):
        kind, val, pos = self.take()
        assert kind == "num"
        num = int(val)
        if self.peek()[0] == "/":
            self.take()
            dk, dv, dp = self.peek()
            if dk != "num":
                self.fail("syntax", dp, "expected a denominator after '/'")
            self.take()
            den = int(dv)
            if den == 0:
                self.fail("zero-denominator", dp, "zero denominator")
            try:
                return self.field.from_ratio(num, den)
            except ZeroDivisionError:
                self.fail("zero-denominator", dp, "denominator %d vanishes in %s" % (den, self.field.name))
        return self.field.from_ratio(num)

    # monomial := 'v' '{' idx (',' idx)* '}'    ('1' is handled by the caller)
    def braced_monomial(self):
        kind, _, vpos = self.take()
        assert kind == "v"
        if self.peek()[0] != "{":
            self.fail("syntax", self.peek()[2], "expected '{' after v")
        self.take()
        seen = 0
        inv = 0
        while True:
            ik, iv, ipos = self.peek()
            if ik == "}" and seen == 0:
                self.fail("syntax", ipos, "empty index list")
            if ik != "num":
                self.fail("syntax", ipos, "expected a generator index")
            self.take()
            idx = int(iv)
            if not 1 <= idx <= self.n:
                self.fail("range", ipos, "index %d outside 1..%d" % (idx, self.n))
            bit = 1 << (idx - 1)
            if seen & bit:
                self.fail("duplicate", ipos, "index %d repeated" % idx)
            inv += (seen >> idx).bit_count()
            seen |= bit
            nk, _, npos = self.peek()
            if nk == ",":
                self.take()
                continue
            if nk == "}":
                self.take()
                return seen, (-1 if inv & 1 else 1)
            self.fail("syntax", npos, "expected ',' or '}' in index list")

    def term_strict(self):
        kind, val, pos = self.peek()
        if kind == "num":
            c = self.coeff()
            nk = self.peek()[0]
            if nk == "*":
                self.take()
                mk, mv, mpos = self.peek()
                if mk == "v":
                    mask, s = self.braced_monomial()
                    return self._term(mask, s, c)
                if mk == "num" and mv == "1":
                    self.take()
                    return self._term(0, 1, c)
                self.fail("syntax", mpos, "expected a monomial after '*'")
            if nk == "v":
                mask, s = self.braced_monomial()
                return self._term(mask, s, c)
            return self._term(0, 1, c)
        if kind == "v":
            mask, s = self.braced_monomial()
            return self._term(mask, s, self.field.one)
        self.fail("syntax", pos, "expected a term")

    def _term(self, mask, s, c):
        if s < 0:
            c = -c
        return _element(self.n, self.field, {mask: c} if c else {})

    def sum(self, term_fn):
        sign = 1
        k, _, _ = self.peek()
        if k in "+-":
            self.take()
            sign = -1 if k == "-" else 1
        acc = term_fn()
        if sign < 0:
            acc = -acc
        while True:
            k, _, pos = self.peek()
            if k not in "+-":
                return acc
            self.take()
            t = term_fn()
            acc = acc - t if k == "-" else acc + t
        # not reached

    # calculator grammar: factors chained by '*' or juxtaposition, parens
    def factor(self):
        kind, val, pos = self.peek()
        if kind == "(":
            self.take()
            inner = self.sum(self.term_calc)
            ck, _, cpos = self.peek()
            if ck != ")":
                self.fail("syntax", cpos, "expected ')'")
            self.take()
            return inner
        if kind == "num":
            c = self.coeff()
            return self._term(0, 1, c)
        if kind == "v":
            mask, s = self.braced_monomial()
            return self._term(mask, s, self.field.one)
        self.fail("syntax", pos, "expected a factor")

    def term_calc(self):
        acc = self.factor()
        while True:
            kind = self.peek()[0]
            if kind == "*":
                self.take()
                acc = acc * self.factor()
            elif kind in ("num", "v", "("):
                acc = acc * self.factor()
            else:
                return acc

    def finish(self, value):
        k, _, pos = self.peek()
        if k != "end":
            self.fail("syntax", pos, "trailing input")
        return value


def parse_element(text: str, n: int, field=QQ) -> GrassmannElement:
    """Strict element grammar; result is canonical (sorted, zero-free)."""
    p = _Parser(text, n, field)
    return p.finish(p.sum(p.term_strict))


def parse_expression(text: str, n: int, field=QQ) -> GrassmannElement:
    """Element grammar plus '*' products and parentheses (CLI calculator)."""
    p = _Parser(text, n, field)
    try:
        return p.finish(p.sum(p.term_calc))
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
    from .subspace import span

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
    vectors = []
    for k, s in enumerate(basis):
        try:
            vectors.append(parse_element(s, n, field))
        except ParseError as e:
            raise ValueError("basis[%d]: %s" % (k, e)) from e
    return span(vectors, n=n, field=field)


def write_subspace(space) -> dict:
    """Canonical document for a subspace; read_subspace inverts it."""
    return {
        "n": space.n,
        "field": space.field.name,
        "basis": [print_element(b) for b in space.basis],
    }
