from fractions import Fraction

import pytest

from ncsym.classical import (
    SymElement,
    format_sym,
    parse_sym,
    sym_convert,
    sym_from_json,
    sym_to_json,
)
from ncsym.combination import ParseError
from ncsym.elements import (
    NCSymElement,
    convert,
    format_ncsym,
    ncsym_from_json,
    ncsym_to_json,
    parse_ncsym,
)
from ncsym.intpartitions import IntPartition
from ncsym.macmahon import (
    MultiPolynomial,
    Truncation,
    mm_complete,
    parse_multipolynomial,
    schur_tableau_sum,
)
from ncsym.rsk import Biword
from ncsym.setpartitions import SetPartition
from ncsym.tableaux import DottedTableau
from ncsym.words import WordPolynomial, expand, parse_word_polynomial

P = SetPartition.parse


def test_parse_basic_terms():
    f = parse_ncsym("3/2*h[1,3/2,4] - m[1,2,3]")
    # mixed bases collapse into the monomial basis
    assert f.basis == "m"
    want = convert(NCSymElement("h", {P("13/24"): Fraction(3, 2)}), "m") - NCSymElement(
        "m", {P("123"): 1}
    )
    assert f == want


def test_parse_single_basis_stays_put():
    f = parse_ncsym("2*p[1,2/3] + p[1/2/3]")
    assert f.basis == "p"
    assert f.terms == {P("12/3"): Fraction(2), P("1/2/3"): Fraction(1)}


def test_parsed_integral_coefficients_stay_int():
    f = parse_ncsym("2*m[1,2] - m[1/2] + 4/2*m[1,2,3] - 1/3*m[1/2/3]")
    assert f.terms == {P("12"): 2, P("1/2"): -1, P("123"): 2, P("1/2/3"): Fraction(-1, 3)}
    assert [type(f.terms[P(k)]) for k in ("12", "1/2", "123", "1/2/3")] == [int] * 3 + [Fraction]
    g = parse_sym("3*h[2,1] - 6/3*h[1] + 5/2*h[3]")
    types = {mu.parts: type(c) for mu, c in g.terms.items()}
    assert types == {(2, 1): int, (1,): int, (3,): Fraction}
    poly = parse_multipolynomial("2*x1' - x2'' + 6/2*x1'^2 + 1/2", Truncation(2, 2, 2))
    types = {mono: type(c) for mono, c in poly.terms.items()}
    assert types == {(((1, 1), 1),): int, (((2, 2), 1),): int, (((1, 1), 2),): int, (): Fraction}
    assert poly.terms[(((1, 1), 2),)] == 3 and poly.terms[()] == Fraction(1, 2)


def test_parsed_word_coefficients_stay_int():
    words = parse_word_polynomial("2 x1 x2\n-3 x2 x1\n4/2 x1 x1\n1/2 x2 x2", 2).terms
    assert words == {(1, 2): 2, (2, 1): -3, (1, 1): 2, (2, 2): Fraction(1, 2)}
    assert {w: type(c) for w, c in words.items()} == {
        (1, 2): int, (2, 1): int, (1, 1): int, (2, 2): Fraction
    }


def test_parse_compact_and_empty_forms():
    assert parse_ncsym("m[13/24]") == NCSymElement("m", {P("13/24"): 1})
    assert parse_ncsym("m[]") == NCSymElement.unit()
    assert parse_ncsym("-m[1]") == NCSymElement("m", {P("1"): -1})


def test_parse_cancellation_gives_zero():
    f = parse_ncsym("m[1,2] - m[1,2]")
    assert f.is_zero()


def test_parse_errors_carry_positions():
    with pytest.raises(ParseError) as err:
        parse_ncsym("m[1,2] + + m[1]")
    assert err.value.position == 9
    with pytest.raises(ParseError):
        parse_ncsym("q[1,2]")
    with pytest.raises(ParseError):
        parse_ncsym("m[1,2")
    with pytest.raises(ParseError):
        parse_ncsym("3 m[1]")
    with pytest.raises(ParseError):
        parse_ncsym("")
    with pytest.raises(ParseError):
        parse_ncsym("m[1,3]")  # not a partition of {1,2}
    multi = lambda text: parse_multipolynomial(text, Truncation(2, 2, 2))
    for parse, text, position in [
        (parse_ncsym, "+m[1]", 0),
        (parse_ncsym, "m[1] m[1]", 5),
        (parse_ncsym, "m(1)", 1),
        (parse_ncsym, "1/*m[1]", 2),
        (multi, "x1' 2", 4),
        (multi, "x1", 2),
        (multi, "+", 1),
        (multi, "x'", 1),
    ]:
        with pytest.raises(ParseError) as err:
            parse(text)
        assert err.value.position == position, text


def test_print_parse_roundtrip_ncsym():
    f = NCSymElement(
        "h", {P("13/24"): Fraction(3, 2), P("1/2/3/4"): Fraction(-1), P("1"): Fraction(7)}
    )
    assert parse_ncsym(format_ncsym(f)) == f
    assert parse_ncsym(str(NCSymElement("m"))) == NCSymElement("m")


def test_print_parse_roundtrip_sym():
    f = SymElement("s", {IntPartition((2, 1)): Fraction(-5, 3), IntPartition(()): 2})
    assert parse_sym(format_sym(f)) == f
    g = parse_sym("2*m[3] + h[1,1]")
    assert g.basis == "m"
    assert g == sym_convert(SymElement("h", {IntPartition((1, 1)): 1}), "m") + SymElement(
        "m", {IntPartition((3,)): 2}
    )


def test_set_and_int_partition_text_roundtrip():
    for text in ["", "1", "1,3/2,4", "1,2,3,4", "1/2/3/4"]:
        assert str(P(text)) == str(SetPartition.parse(str(P(text))))
    for parts in [(), (3, 1), (2, 2, 1)]:
        lam = IntPartition(parts)
        assert IntPartition.parse(str(lam)) == lam


def test_json_roundtrip():
    f = NCSymElement("h", {P("13/24"): Fraction(3, 2)})
    assert ncsym_from_json(ncsym_to_json(f)) == f
    assert parse_ncsym(ncsym_to_json(f)) == f  # JSON detected by leading brace
    g = SymElement("e", {IntPartition((2, 1)): Fraction(-2)})
    assert sym_from_json(sym_to_json(g)) == g
    obj = ncsym_to_json(f)
    assert '"basis": "h"' in obj and '"coeff": "3/2"' in obj


def test_json_refuses_float_coefficients():
    text = '{"basis": "m", "terms": [{"blocks": [[1], [2]], "coeff": 0.1}]}'
    with pytest.raises(TypeError, match="inexact"):
        ncsym_from_json(text)
    exact = text.replace("0.1", '"1/10"')
    assert ncsym_from_json(exact) == NCSymElement("m", {P("1/2"): Fraction(1, 10)})
    text = '{"basis": "m", "terms": [{"parts": [2, 1], "coeff": 0.1}]}'
    with pytest.raises(TypeError, match="inexact"):
        sym_from_json(text)
    exact = text.replace("0.1", '"1/10"')
    assert sym_from_json(exact) == SymElement("m", {IntPartition((2, 1)): Fraction(1, 10)})


def test_word_polynomial_text_roundtrip():
    f = NCSymElement("p", {P("12"): Fraction(2, 3)})
    poly = expand(f, 2)
    again = parse_word_polynomial(poly.to_text(), poly.k)
    assert again == poly
    unit = WordPolynomial(1, {(): Fraction(5)})
    assert parse_word_polynomial(unit.to_text(), 1) == unit


def test_multipolynomial_text_roundtrip():
    tr = Truncation(2, 3, 3)
    poly = schur_tableau_sum(IntPartition((2, 1)), (2, 1), tr)
    text = poly.to_text()
    assert parse_multipolynomial(text, tr) == poly
    h = mm_complete((1, 1), Truncation(2, 1, 2))
    assert parse_multipolynomial(h.to_text(), Truncation(2, 1, 2)) == h
    assert parse_multipolynomial("0", tr).is_zero()
    constant = MultiPolynomial(tr, {(): Fraction(3, 2)})
    assert parse_multipolynomial(constant.to_text(), tr) == constant


def test_biword_and_tableau_text_roundtrip():
    bw = Biword.parse("1' 2'' 2'\n2' 1' 3''")
    assert Biword.parse(str(bw)) == bw
    tab = DottedTableau([[(1, 2), (1, 1), (3, 1)], [(2, 1), (2, 2)], [(3, 2)]])
    assert DottedTableau.parse(str(tab)) == tab


def test_display_order_matches_term_sorting():
    f = NCSymElement("m", {P("1234"): 1, P("13/24"): 1, P("1/2/3/4"): 1})
    assert (
        format_ncsym(f) == "m[1/2/3/4] + m[1,3/2,4] + m[1,2,3,4]"
    )  # finer types print first
    g = NCSymElement("m", {P("12"): 1, P("1"): 1})
    assert format_ncsym(g) == "m[1] + m[1,2]"  # grouped by degree first
