"""The shared sparse-combination core: boundary checks and the trusted path.

Closed operations build their results without re-validating them, so every
result here is checked against the public constructor: rebuilding it from its
tag and terms must give the same element, with no zero coefficient stored.
"""
import json
import re
from decimal import Decimal
from fractions import Fraction
from itertools import permutations

import pytest
from hypothesis import given, settings, strategies as st

from ncsym.classical import (
    SYM_BASES,
    SymElement,
    format_sym,
    omega_commutative,
    parse_sym,
    sym_convert,
    sym_from_json,
    sym_to_json,
)
from ncsym.combination import exact
from ncsym.elements import (
    NC_BASES,
    NCSymElement,
    convert,
    format_ncsym,
    lift,
    multiply,
    ncsym_from_json,
    ncsym_to_json,
    omega,
    parse_ncsym,
    place_act,
    project,
    schur_ncsym,
)
from ncsym.intpartitions import IntPartition, int_partitions, weak_compositions
from ncsym.macmahon import (
    MultiPolynomial,
    Truncation,
    VectorPartition,
    jacobi_trudi,
    mm_complete,
    mm_elementary,
    mm_monomial,
    mm_multiplicative,
    mm_power,
    parse_multipolynomial,
    phi_collect,
    phi_from_set_partition,
    schur_tableau_sum,
)
from ncsym.setpartitions import SetPartition, set_partitions
from ncsym.verify import oracle_product
from ncsym.words import WordPolynomial, collect, expand, expand_position_action


def assert_canonical(r):
    """r is what the validating constructor would build from its own data."""
    assert type(r)(r.tag, r.terms) == r
    assert 0 not in r.terms.values()
    assert all(type(c) in (int, Fraction) for c in r.terms.values())


def test_noncommutative_closed_operations_are_canonical():
    symbols = [(pi, b) for n in range(5) for pi in set_partitions(n) for b in NC_BASES]
    for pi, b in symbols:
        f = NCSymElement(b, {pi: 1})
        n = pi.n
        perm = tuple(range(n, 0, -1))
        words = expand(f, max(n, 1))
        results = [convert(f, t) for t in NC_BASES] + [
            omega(f),
            project(f),
            lift(project(f)),
            place_act(perm, f),
            words,
            collect(words, n),
            expand_position_action(perm, words),
            f + f,
            f - f,
            -f,
            Fraction(2, 3) * f,
            f.homogeneous_component(n),
        ]
        results += [
            multiply(f, NCSymElement(b, {sigma: 1}))
            for sigma, c in symbols
            if c == b and n + sigma.n <= 4
        ]
        for r in results:
            assert_canonical(r)


def test_commutative_closed_operations_are_canonical():
    for n in range(5):
        for lam in int_partitions(n):
            for b in SYM_BASES:
                g = SymElement(b, {lam: 1})
                for r in [sym_convert(g, t) for t in SYM_BASES]:
                    assert_canonical(r)
                assert_canonical(omega_commutative(g))
                assert_canonical(lift(g))
                assert_canonical(g.homogeneous_component(n))


def test_macmahon_closed_operations_are_canonical():
    for m in range(1, 5):
        tr = Truncation(2, m, m)
        for lam in int_partitions(m):
            for vec in weak_compositions(m, 2):
                assert_canonical(jacobi_trudi(lam, vec, "h", tr))
                assert_canonical(jacobi_trudi(lam, vec, "e", tr))
                assert_canonical(schur_tableau_sum(lam, vec, tr))
        assert_canonical(schur_ncsym(IntPartition((m,))))
    for n in (1, 2, 3):
        tr = Truncation(n, n, n)
        for pi in set_partitions(n):
            vp = phi_from_set_partition(pi)
            assert_canonical(mm_monomial(vp, tr))
            for basis in ("p", "e", "h"):
                poly = mm_multiplicative(basis, vp, tr)
                assert_canonical(poly)
                assert_canonical(phi_collect(poly))
    tr = Truncation(2, 3, 4)
    x = mm_power((1, 0), tr)
    y = mm_complete((1, 1), tr)
    z = mm_elementary((0, 2), tr)
    for r in (x, y, z, x + y, x * y, y * z, (x + z) * y * x, x - x):
        assert_canonical(r)
    assert_canonical((y * y).extract_multidegree((2, 2)))
    assert_canonical(mm_monomial(VectorPartition([(2, 1), (3, 0)]), Truncation(2, 2, 6)))


def test_make_adds_equal_keys_and_drops_zero_sums_in_any_order():
    a, b, c = (SetPartition.parse(t) for t in ("1", "1/2", "12"))
    pairs = [(a, 1), (b, 2), (a, -1), (c, Fraction(1, 2)), (b, 1), (c, Fraction(1, 2))]
    for order in permutations(pairs):
        r = NCSymElement._make("m", order)
        assert r.terms == {b: 3, c: 1}
        assert_canonical(r)
    assert NCSymElement._make("m", [(a, 1), (a, -1)]).terms == {}


def test_closed_operations_on_colliding_multi_term_input():
    P = SetPartition.parse
    # three terms over degrees 2 and 4: the degree-4 expansions overlap and cancel
    f = NCSymElement("m", {P("1/2"): 1, P("12/34"): 2, P("13/2/4"): Fraction(-1, 3)})
    for b in NC_BASES:
        there = convert(f, b)
        assert_canonical(there)
        assert convert(there, "m") == f
        assert convert(convert(there, "p"), b) == there
    # two-term factors whose products meet at one key with opposite signs
    one, two = P("1"), P("1/2")
    for b in ("p", "e", "h"):
        fb = NCSymElement(b, {one: 1, two: 1})
        gb = NCSymElement(b, {two: 1, one: -1})
        r = multiply(fb, gb)
        assert r == NCSymElement(b, {two: -1, P("1/2/3/4"): 1})
        assert convert(r, "m") == oracle_product(fb, gb)
    fm = NCSymElement("m", {one: 1, P("12"): 1})
    gm = NCSymElement("m", {one: 1, P("12"): -1})
    r = multiply(fm, gm)  # m[1,2,3] comes from both cross terms and cancels
    assert P("123") not in r.terms and P("1/2") in r.terms
    assert r == oracle_product(fm, gm)
    for r in (multiply(fb, gb), r, multiply(f, convert(f, "h"))):
        assert_canonical(r)
    # a commutative element of two degrees converts in one pass per direction
    lam = IntPartition
    g = SymElement("h", {lam((2, 1)): 2, lam((1, 1, 1)): -1, lam((4,)): 3})
    for t in SYM_BASES:
        there = sym_convert(g, t)
        assert_canonical(there)
        assert sym_convert(there, "h") == g
        for n in (3, 4):
            assert there.homogeneous_component(n) == sym_convert(g.homogeneous_component(n), t)


def test_bool_coefficients_are_refused():
    with pytest.raises(TypeError, match="bool"):
        exact(True)
    with pytest.raises(TypeError, match="bool"):
        NCSymElement("m", {SetPartition.parse("1"): False})


def test_coefficients_that_are_no_number_are_refused():
    pi = SetPartition.parse("1")
    f = NCSymElement("m", {pi: 1})
    for call, shown in (
        (lambda: NCSymElement("m", {pi: [1]}), "[1]"),
        (lambda: exact(None), "None"),
        (lambda: f * f, "<NCSymElement m[1]>"),
    ):
        with pytest.raises(TypeError, match=re.escape(f"coefficient {shown} is not a number")):
            call()
    assert NCSymElement("m", {pi: Decimal("1.5")}).terms == {pi: Fraction(3, 2)}


def test_adding_or_subtracting_another_class_is_a_type_error():
    f = NCSymElement("m", {SetPartition.parse("1"): 1})
    g = SymElement("m", {IntPartition((1,)): 1})
    for call in (lambda: f + g, lambda: f - g, lambda: g - f):
        with pytest.raises(TypeError, match="unsupported operand"):
            call()


def test_keys_of_the_wrong_type_are_refused():
    cases = [
        (NCSymElement, "1/2", "key '1/2' is not a SetPartition"),
        (NCSymElement, IntPartition((1,)), "is not a SetPartition"),
        (SymElement, (2, 1), "key (2, 1) is not an IntPartition"),
        (SymElement, SetPartition.parse("1"), "is not an IntPartition"),
    ]
    for cls, key, message in cases:
        with pytest.raises(TypeError, match=re.escape(message)):
            cls("m", {key: 1})


def test_integral_coefficients_stay_int():
    f = convert(NCSymElement("h", {SetPartition.parse("13/24"): 1}), "m")
    assert {type(c) for c in f.terms.values()} == {int}
    g = NCSymElement("m", {pi: Fraction(c) for pi, c in f.terms.items()})
    assert f == g and hash(f) == hash(g)
    lifted = lift(SymElement("s", {IntPartition((2, 1)): 6}))
    assert lifted == schur_ncsym(IntPartition((2, 1)))
    assert {type(c) for c in lifted.terms.values()} == {int}
    shares = lift(SymElement("m", {IntPartition((2, 1)): 1, IntPartition((3,)): 2})).terms
    third = Fraction(1, 3)  # 2! 1! / 3! of m[2,1] on each of its three set partitions
    expected = {"12/3": third, "13/2": third, "1/23": third, "123": 2}
    assert shares == {SetPartition.parse(text): c for text, c in expected.items()}
    assert type(shares[SetPartition.parse("123")]) is int


coefficients = st.fractions(min_value=-5, max_value=5, max_denominator=7).filter(bool)


@st.composite
def ncsym_elements(draw):
    keys = draw(
        st.lists(
            st.sampled_from([pi for n in range(5) for pi in set_partitions(n)]),
            min_size=1,
            max_size=4,
            unique=True,
        )
    )
    return NCSymElement(
        draw(st.sampled_from(NC_BASES)), {pi: draw(coefficients) for pi in keys}
    )


@st.composite
def sym_elements(draw):
    keys = draw(
        st.lists(
            st.sampled_from([lam for n in range(6) for lam in int_partitions(n)]),
            min_size=1,
            max_size=4,
            unique=True,
        )
    )
    return SymElement(
        draw(st.sampled_from(SYM_BASES)), {lam: draw(coefficients) for lam in keys}
    )


TRUNC = Truncation(2, 3, 4)
VARIABLES = [(i, j) for i in range(1, 4) for j in range(1, 3)]


@st.composite
def multipolynomials(draw):
    terms = {}
    for _ in range(draw(st.integers(min_value=0, max_value=4))):
        exps = draw(st.lists(st.integers(0, 2), min_size=6, max_size=6))
        if sum(exps) <= TRUNC.degree:
            mono = tuple((var, e) for var, e in zip(VARIABLES, exps) if e)
            terms[mono] = draw(coefficients)
    return MultiPolynomial(TRUNC, terms)


@given(ncsym_elements(), st.booleans())
@settings(deadline=None, max_examples=60)
def test_ncsym_text_and_json_roundtrip(f, strict):
    assert parse_ncsym(format_ncsym(f, strict)) == f
    assert ncsym_from_json(ncsym_to_json(f, strict)) == f


@given(sym_elements(), st.booleans())
@settings(deadline=None, max_examples=60)
def test_sym_text_and_json_roundtrip(f, strict):
    assert parse_sym(format_sym(f, strict)) == f
    assert sym_from_json(sym_to_json(f, strict)) == f


@given(multipolynomials(), st.booleans())
@settings(deadline=None, max_examples=60)
def test_multipolynomial_text_roundtrip(P, strict):
    assert parse_multipolynomial(P.to_text(strict), TRUNC) == P


# one mixed-degree value per class, with negative and fractional coefficients
SP, IP = SetPartition.parse, IntPartition
DISPLAY_CASES = [
    (
        NCSymElement("h", {SP("1,3/2,4"): Fraction(3, 2), SP("1/2"): -1, SP("1,2,3"): 1,
                           SP("1"): 5, SP("1,2/3,4"): Fraction(-2, 7), SP(""): Fraction(-1, 3)}),
        "-1/3*h[] + 5*h[1] - h[1/2] + h[1,2,3] - 2/7*h[1,2/3,4] + 3/2*h[1,3/2,4]",
        lambda v: SetPartition(v),
    ),
    (
        SymElement("s", {IP((2, 1)): Fraction(-1, 2), IP((3,)): 1, IP((1,)): -4,
                         IP((2, 2)): Fraction(5, 3), IP((3, 1)): -1}),
        "-4*s[1] - 1/2*s[2,1] + s[3] + 5/3*s[2,2] - s[3,1]",
        lambda v: IntPartition(v),
    ),
    (
        MultiPolynomial(TRUNC, {(): Fraction(3, 2), (((1, 1), 2),): -1, (((2, 1), 1),): 1,
                                (((1, 1), 1), ((2, 2), 1)): Fraction(-5, 3),
                                (((1, 2), 1),): Fraction(1, 4)}),
        "3/2 + 1/4*x1'' + x2' - 5/3*x1' x2'' - x1'^2",
        lambda v: tuple(((i, j), e) for i, j, e in v),
    ),
    (
        WordPolynomial(2, {(): 5, (1,): Fraction(-1, 2), (2, 1): 1, (1, 2, 2): Fraction(-7, 3),
                           (2,): -1}),
        "5 1\n-1/2 x1\n-1 x2\n1 x2 x1\n-7/3 x1 x2 x2",
        tuple,
    ),
]
ALIASES = {
    NCSymElement: (format_ncsym, ncsym_to_json),
    SymElement: (format_sym, sym_to_json),
}


def _signed_terms(x):
    """The terms of x.to_text() in order, each with its sign."""
    text = x.to_text()
    if isinstance(x, WordPolynomial):
        return text.split("\n")
    first, *rest = re.split(r" ([+-]) ", text)
    return [first] + [("-" if sign == "-" else "") + t for sign, t in zip(rest[::2], rest[1::2])]


@pytest.mark.parametrize(
    "x, text, decode", DISPLAY_CASES, ids=[type(case[0]).__name__ for case in DISPLAY_CASES]
)
def test_text_and_json_share_one_display_order(x, text, decode):
    assert x.to_text() == str(x) == text
    for strict in (False, True):
        for alias, method in zip(ALIASES.get(type(x), ()), (x.to_text, x.to_json)):
            assert alias(x, strict) == method(strict)
    payload = json.loads(x.to_json())
    field = {NCSymElement: "blocks", SymElement: "parts", MultiPolynomial: "monomial",
             WordPolynomial: "word"}[type(x)]
    rows = [(decode(row[field]), Fraction(row["coeff"])) for row in payload["terms"]]
    assert {key: c for key, c in rows} == x.terms
    assert [type(x)(x.tag, {key: c}).to_text() for key, c in rows] == _signed_terms(x)
