import hashlib
import random
import sys
from fractions import Fraction

import pytest

from extalg.core import _element, generator, monomial, unit, zero
from extalg.fields import QQ, PrimeField
from extalg import text as text_module
from extalg.text import (
    ParseError,
    parse_element,
    parse_expression,
    print_element,
    read_subspace,
    write_subspace,
)
from extalg.subspace import span


def test_parse_basic_forms():
    assert parse_element("v{1}", 3) == generator(3, 1)
    assert parse_element("3*v{1,2}", 3) == monomial(3, (1, 2), 3)
    assert parse_element("3v{1,2}", 3) == monomial(3, (1, 2), 3)
    assert parse_element("1", 3) == unit(3)
    assert parse_element("-2", 3) == unit(3).scale(-2)
    assert parse_element("0", 3) == zero(3)
    assert parse_element(" v{1} + v{2} ", 3) == generator(3, 1) + generator(3, 2)
    assert parse_element("-v{1}+2*v{2}-v{1,2,3}", 3) == (
        generator(3, 1).scale(-1) + generator(3, 2).scale(2) + monomial(3, (1, 2, 3), -1)
    )


def test_parse_fractions():
    assert parse_element("1/2*v{1}", 2) == generator(2, 1).scale(Fraction(1, 2))
    assert parse_element("-3/4v{1,2}", 2) == monomial(2, (1, 2), Fraction(-3, 4))
    assert parse_element("1/2", 2) == unit(2).scale(Fraction(1, 2))


def test_parse_unordered_indices_fold_sign():
    assert parse_element("v{2,1}", 2) == monomial(2, (1, 2), -1)
    assert parse_element("v{3,1,2}", 3) == monomial(3, (1, 2, 3))


def test_parse_like_terms_combine():
    assert parse_element("v{1}+v{1}", 2) == generator(2, 1).scale(2)
    assert parse_element("v{1}-v{1}", 2).is_zero()
    assert parse_element("v{1,2}+v{2,1}", 2).is_zero()


def test_parse_error_kinds_and_positions():
    with pytest.raises(ParseError) as e:
        parse_element("v{}", 2)
    assert e.value.kind == "syntax"
    with pytest.raises(ParseError) as e:
        parse_element("v{1,,2}", 3)
    assert e.value.kind == "syntax" and e.value.pos == 4
    with pytest.raises(ParseError) as e:
        parse_element("v{0}", 2)
    assert e.value.kind == "range"
    with pytest.raises(ParseError) as e:
        parse_element("v{3}", 2)
    assert e.value.kind == "range" and e.value.pos == 2
    with pytest.raises(ParseError) as e:
        parse_element("v{1,1}", 2)
    assert e.value.kind == "duplicate"
    with pytest.raises(ParseError) as e:
        parse_element("1/0", 2)
    assert e.value.kind == "zero-denominator"
    with pytest.raises(ParseError) as e:
        parse_element("", 2)
    assert e.value.kind == "syntax"
    with pytest.raises(ParseError) as e:
        parse_element("v{1} v{2}", 2)
    assert e.value.kind == "syntax"
    with pytest.raises(ParseError):
        parse_element("+", 2)
    with pytest.raises(ParseError):
        parse_element("2/-3", 2)
    with pytest.raises(ParseError, match="unexpected character '#'"):
        parse_element("v{1}#", 2)
    with pytest.raises(ParseError, match="expected '{' after v"):
        parse_element("v1", 2)
    with pytest.raises(ParseError, match="expected ',' or '}'"):
        parse_element("v{1 2}", 2)


def test_parse_refuses_non_ascii_digits():
    # str.isdigit and int() take these; the grammar's int is ASCII digits only
    for text, pos in (("v{\u00b2}", 2), ("\u00b2", 0), ("3/\u00b2", 2), ("v{\u0661}", 2), ("\u0661*v{1}", 0)):
        for parse in (parse_element, parse_expression):
            with pytest.raises(ParseError) as e:
                parse(text, 2)
            assert (e.value.kind, e.value.pos) == ("syntax", pos), text


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"), reason="int() has no digit limit")
def test_parse_refuses_a_number_int_cannot_convert():
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        for text, pos in (("1" * 5000, 0), ("v{" + "1" * 5000 + "}", 2), ("1/" + "1" * 5000, 2)):
            for parse in (parse_element, parse_expression):
                with pytest.raises(ParseError) as e:
                    parse(text, 2)
                assert (e.value.kind, e.value.pos) == ("syntax", pos), text[:4]
    finally:
        sys.set_int_max_str_digits(limit)


def test_parse_error_message_carries_position():
    with pytest.raises(ParseError) as e:
        parse_element("v{9}", 3)
    assert "position 2" in str(e.value)


def test_parse_mod_p_denominator():
    f5 = PrimeField(5)
    assert parse_element("1/2*v{1}", 2, f5) == monomial(2, (1,), 3, field=f5)
    with pytest.raises(ParseError) as e:
        parse_element("1/5*v{1}", 2, f5)
    assert e.value.kind == "zero-denominator"


def test_strict_grammar_rejects_products_and_parens():
    with pytest.raises(ParseError):
        parse_element("v{1}*v{2}", 2)
    with pytest.raises(ParseError):
        parse_element("(v{1})", 2)


def test_expression_calculator():
    assert parse_expression("v{1}*v{2}", 2) == monomial(2, (1, 2))
    assert parse_expression("(v{1}+v{2,3})*(v{1}+v{2,3})", 3) == monomial(3, (1, 2, 3), 2)
    assert parse_expression("2*(v{1}+v{2})", 2) == (generator(2, 1) + generator(2, 2)).scale(2)
    assert parse_expression("v{1}*v{1}", 2).is_zero()
    assert parse_expression("-(v{1}-v{2})*v{2}", 2) == monomial(2, (1, 2), -1)
    assert parse_expression("1/2*v{1}*v{2}+1/2*v{2}*v{1}", 2).is_zero()
    with pytest.raises(ParseError):
        parse_expression("(v{1}", 2)
    with pytest.raises(ParseError):
        parse_expression("v{1}**v{2}", 2)
    assert parse_expression("(" * 50 + "v{1}" + ")" * 50, 2) == generator(2, 1)
    with pytest.raises(ParseError) as e:  # deeper than the recursion limit
        parse_expression("(" * 5_000 + "v{1}" + ")" * 5_000, 2)
    assert e.value.kind == "syntax" and "nested too deeply" in str(e.value)


def test_print_canonical_form():
    assert print_element(zero(3)) == "0"
    assert print_element(unit(3)) == "1"
    assert print_element(unit(3).scale(-2)) == "-2"
    assert print_element(generator(3, 1)) == "v{1}"
    assert print_element(generator(3, 1).scale(-1)) == "-v{1}"
    assert print_element(monomial(3, (1, 2), Fraction(1, 2))) == "1/2*v{1,2}"
    x = monomial(3, (1, 2, 3), -1) + generator(3, 2).scale(2)
    assert print_element(x) == "2*v{2}-v{1,2,3}"
    y = unit(3) + generator(3, 3)
    assert print_element(y) == "1+v{3}"


def test_negative_int_coefficients_print_with_a_split_sign_and_parse_back():
    x = unit(3).scale(-3) + generator(3, 1) + generator(3, 2).scale(-3) + monomial(3, (1, 3), -1)
    assert all(type(c) is int for c in x.terms.values())
    assert print_element(x) == "-3+v{1}-3*v{2}-v{1,3}"
    assert parse_element(print_element(x), 3) == x
    for text in ("-3", "-3+v{1}", "v{1}-2*v{2}", "-v{1}-5*v{1,2}"):
        assert print_element(parse_element(text, 2)) == text


def test_print_orders_terms_by_monomial_order():
    x = monomial(4, (1, 2, 3, 4)) + generator(4, 1) + monomial(4, (2, 3))
    s = print_element(x)
    assert s.index("v{1}") < s.index("v{2,3}") < s.index("v{1,2,3,4}")


def test_roundtrip_fuzz():
    from extalg.core import GrassmannElement

    rng = random.Random(99)
    for _ in range(300):
        n = rng.randint(1, 6)
        terms = {}
        for _ in range(rng.randint(1, 5)):
            num = 0
            while num == 0:
                num = rng.randint(-9, 9)
            terms[rng.randrange(1 << n)] = Fraction(num, rng.randint(1, 9))
        x = GrassmannElement(n, {m: QQ.coerce(c) for m, c in terms.items()})
        assert parse_element(print_element(x), n) == x


def test_documents_roundtrip():
    s = span([parse_element("v{1}+v{2,3}", 3), parse_element("v{2}", 3)])
    doc = write_subspace(s)
    assert doc == {"n": 3, "field": "rational", "basis": ["v{1}+v{2,3}", "v{2}"]}
    assert read_subspace(doc) == s
    assert write_subspace(read_subspace(doc)) == doc


def test_documents_gf_field():
    f = PrimeField(3)
    s = span([monomial(2, (1,), 2, field=f)], n=2, field=f)
    doc = write_subspace(s)
    assert doc["field"] == "gf:3"
    assert read_subspace(doc) == s


def test_document_validation():
    with pytest.raises(ValueError):
        read_subspace({"n": 3, "basis": []})
    with pytest.raises(ValueError):
        read_subspace({"n": 3, "field": "rational", "basis": [], "extra": 1})
    with pytest.raises(ValueError):
        read_subspace({"n": 0, "field": "rational", "basis": []})
    with pytest.raises(ValueError):
        read_subspace({"n": 17, "field": "rational", "basis": []})
    with pytest.raises(ValueError):
        read_subspace({"n": 3, "field": "gf:2", "basis": []})
    with pytest.raises(ValueError):
        read_subspace({"n": 3, "field": "rational", "basis": "v{1}"})
    with pytest.raises(ValueError):
        read_subspace({"n": 3, "field": "rational", "basis": [7]})
    with pytest.raises(ValueError) as e:
        read_subspace({"n": 3, "field": "rational", "basis": ["v{1}", "v{4}"]})
    assert "basis[1]" in str(e.value)
    for tag in (5, None, 3.5, ["rational"], {"gf": 5}):
        with pytest.raises(ValueError, match="field tag must be a string"):
            read_subspace({"n": 3, "field": tag, "basis": ["v{1}"]})


def test_read_subspace_matches_the_span_of_parsed_elements():
    # read_subspace checks n and the field once and echelons the term dicts
    # itself; it must give the span of parse_element's elements
    rng = random.Random(26)
    pieces = ["v{%d}", "v{1,%d}", "v{%d,1}", "-v{%d}", "2*v{%d}+v{1}", "3/5*v{%d}", "0", "1"]
    for field in (QQ, PrimeField(7)):
        for n in (2, 5, 9):
            basis = [rng.choice(pieces).replace("%d", str(rng.randint(2, n))) for _ in range(12)]
            basis += basis[:3]  # repeated strings are dependent rows
            s = read_subspace({"n": n, "field": field.name, "basis": basis})
            assert s == span([parse_element(b, n, field) for b in basis], n=n, field=field)


def test_sums_are_read_without_an_element_per_term(monkeypatch):
    """The parser folds every term into one term dict, so neither grammar
    adds, subtracts or negates elements; signs, fractions, unsorted indices
    and repeated masks that cancel all go through the fold."""
    from extalg.core import GrassmannElement

    def refuse(*args):
        raise AssertionError("an element was built per term")

    for name in ("__add__", "__sub__", "__neg__"):
        monkeypatch.setattr(GrassmannElement, name, refuse)
    f5 = PrimeField(5)
    for text, field, printed in (
        ("-v{1}+2*v{2,1}-3/2*v{1,2}+v{3}-v{3} + 1", QQ, "1-v{1}-7/2*v{1,2}"),
        ("3*v{1}-v{2}+2*v{1}+v{2,1}+v{1,2} - 4", f5, "1+4*v{2}"),
        ("- 1/2 + v{3,2,1} - 2/4 v{1}", f5, "2+2*v{1}+4*v{1,2,3}"),
        ("-v{3} + v{3}", QQ, "0"),
    ):
        assert print_element(parse_element(text, 3, field)) == printed, text
        assert print_element(parse_expression(text, 3, field)) == printed, text
    for text, field, printed in (
        ("(v{1}+v{2})*(v{1}-v{2}) - 2*v{3}*v{1} + v{1,3}", QQ, "-2*v{1,2}+3*v{1,3}"),
        ("-(v{1}+2)(v{2}-3) + 6", f5, "2+3*v{1}+3*v{2}+4*v{1,2}"),
    ):
        assert print_element(parse_expression(text, 3, field)) == printed, text
    for field in (QQ, f5):
        doc = {"n": 3, "field": field.name, "basis": ["v{1}+v{2}-v{2,1}+v{1,2}", "2*v{2} - v{1} + v{1}", "v{3}-v{3}"]}
        assert write_subspace(read_subspace(doc))["basis"] == ["v{1}+2*v{1,2}", "v{2}"]


def test_document_empty_basis_is_zero_space():
    s = read_subspace({"n": 4, "field": "rational", "basis": []})
    assert s.dim == 0 and s.n == 4


# tokens and pieces the outcome pin draws its strings from
_PIN_ALPHABET = list("v{},+-*/()0123") + [" ", "v{", ",1", ",2", "v{1}", "v{2,1}", "v{1,1}", "v{3,1,2}", "3/4", "10", "5"]


def _outcome(parse, text, n, field):
    try:
        return print_element(parse(text, n, field))
    except ParseError as e:
        return "%s@%d" % (e.kind, e.pos)


def test_parser_outcomes_are_pinned():
    """Both grammars on 20,000 seeded short strings: the printed element, or
    the refusal's kind and position, hashed.  Any change to the parser must
    keep every one of these outcomes."""
    rng = random.Random("parser-outcome-pin")
    fields = (QQ, PrimeField(5))
    h = hashlib.sha256()
    for _ in range(20_000):
        text = "".join(rng.choice(_PIN_ALPHABET) for _ in range(rng.randint(0, 12)))
        n = rng.randint(1, 3)
        field = rng.choice(fields)
        for parse in (parse_element, parse_expression):
            h.update(("%s|%s\n" % (text, _outcome(parse, text, n, field))).encode())
    assert h.hexdigest() == "5d875fa7fb3154cdc95513816b268f3ee47ac8058d3271278443ea6c013ec959"


def _token_parse(text, n, field):
    p = text_module._Parser(text, n, field)
    return _element(p.n, p.field, p.finish(p.sum(p.term_strict)))


def _monomial_texts(rng, n):
    """Strings around print_element's bare monomial v{i1,...,ik}: in form,
    out of order, repeated, out of range, and near misses of the form."""
    idx = sorted(rng.sample(range(1, n + 1), rng.randint(1, n)))
    body = ",".join(map(str, idx))
    out = ["v{%s}" % body, "1*v{%s}" % body, "v{%s}" % body.replace(",", ", "), " v{%s}" % body,
           "v{%s }" % body, "v{0%s}" % body, "v{%s,}" % body, "v{}", "v{\u0661}", "v{%d}" % rng.randint(100, 999),
           "v{%d}" % rng.choice([0, n + 1, 17, 99]), "v{%s,%d}" % (body, rng.randint(n + 1, 99))]
    if len(idx) > 1:
        out += ["v{%s}" % ",".join(map(str, idx[::-1])), "v{%s}" % ",".join(map(str, idx[1:] + idx[:1]))]
    out.append("v{%s,%d}" % (body, rng.choice(idx)))
    return out


def test_monomial_fast_path_matches_the_token_parser():
    rng = random.Random("monomial-fast-path")
    seen = set()
    for field in (QQ, PrimeField(10007)):
        for n in range(1, 17):
            for _ in range(6):
                for text in _monomial_texts(rng, n):
                    got = _outcome(parse_element, text, n, field)
                    assert got == _outcome(_token_parse, text, n, field), (text, n, field)
                    seen.add(got.split("@")[0] if "@" in got else "element")
    assert seen == {"element", "syntax", "range", "duplicate"}


def _refusal(parse, *args):
    with pytest.raises(Exception) as e:
        parse(*args)
    return type(e.value), str(e.value)


def test_monomial_fast_path_keeps_the_refusals_of_other_arguments():
    # a non-string text, and a bad n or field ahead of a text in the fast form
    for args in ((5, 3, QQ), (None, 3, QQ), (b"v{1}", 3, QQ), (["v{1}"], 3, QQ),
                 ("v{1}", 0, QQ), ("v{1}", 17, QQ), ("v{1}", True, QQ), ("v{1}", 3, "rational"), (5, 0, QQ)):
        assert _refusal(parse_element, *args) == _refusal(_token_parse, *args), args


def test_documents_of_monomials_skip_the_tokenizer(monkeypatch):
    def refuse(text):
        raise AssertionError("tokenized %r" % text)

    doc = write_subspace(span([monomial(16, (1, 2, 16)), monomial(16, (3,)), monomial(16, (2, 5, 9, 10, 11))]))
    monkeypatch.setattr(text_module, "_tokenize", refuse)
    assert write_subspace(read_subspace(doc)) == doc
    with pytest.raises(AssertionError):
        parse_element("v{2,1}", 2)
