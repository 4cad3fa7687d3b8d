"""Basis changes on integer numerators against the Fraction route they replaced.

The reference functions below are the earlier production code: every cached
symbol expansion entry was its own ``Fraction(c, scale)``, ``convert`` did one
Fraction multiply and add per entry, ``inner`` took f to m and g to h, and the
commutative layer kept its counts and inverse columns as Fractions and paired
m against h.  The production code must give equal results, in canonical form
(int or Fraction coefficients, no zeros), on every input up to the sizes below.
"""
import itertools
import random
from fractions import Fraction
from functools import lru_cache
from math import factorial

import pytest

from ncsym.classical import (
    SYM_BASES,
    SymElement,
    _basis_m_coeffs,
    _m_inverse,
    sym_convert,
    sym_inner,
)
from ncsym.elements import NC_BASES, NCSymElement, _symbol_expansion, convert, inner
from ncsym.intpartitions import int_partitions, kostka
from ncsym.setpartitions import set_partitions
from ncsym.verify import _row_reduce

from test_combination import assert_canonical

MIXED = (Fraction(-2, 3), Fraction(5, 7), Fraction(3, 4))


def reference_expansion(basis, target, pi):
    """The earlier cache entry: ((sigma, coefficient), ...), one Fraction per
    entry over the symbol's scale.  The sums themselves are checked against
    the lattice tables in test_elements."""
    keys, nums, den = _symbol_expansion(basis, target, pi)
    return tuple((s, c if den == 1 else Fraction(c, den)) for s, c in zip(keys, nums))


def reference_convert(f, target):
    if target == f.basis:
        return NCSymElement._make(f.basis, f.terms.items())
    expansions = ((c, reference_expansion(f.basis, target, pi)) for pi, c in f.terms.items())
    return NCSymElement._make(target, ((s, c * q) for c, exp in expansions for s, q in exp))


def reference_pair_m_h(fm, gh):
    """<f, g> from f in m and g in h."""
    total = Fraction(0)
    for pi, c in fm.terms.items():
        other = gh.terms.get(pi)
        if other is not None:
            total += factorial(pi.n) * c * other
    return total


@lru_cache(maxsize=None)
def reference_matrix_count(basis, rows, cols):
    """Matrices with these row and column sums whose rows take 0/1 entries (e), any
    entries (h) or one nonzero entry (p), filled row by row: the coefficient of m_cols
    in basis_rows, which production reads off the Kostka numbers for e and h."""
    if not rows:
        return 1
    r = rows[0]
    entries = {"e": (0, 1), "h": range(r + 1), "p": (0, r)}[basis]
    total = 0
    for row in itertools.product(*([x for x in entries if x <= c] for c in cols)):
        if sum(row) == r:
            left = sorted((c - x for c, x in zip(cols, row) if c > x), reverse=True)
            total += reference_matrix_count(basis, rows[1:], tuple(left))
    return total


@lru_cache(maxsize=None)
def reference_basis_m_coeffs(basis, lam):
    if basis == "m":
        return ((lam, Fraction(1)),)
    count = lambda mu: reference_matrix_count(basis, lam.parts, mu.parts)
    coeffs = ((mu, kostka(lam, mu) if basis == "s" else count(mu)) for mu in int_partitions(lam.n))
    return tuple((mu, Fraction(c)) for mu, c in coeffs if c)


@lru_cache(maxsize=None)
def reference_m_inverse(basis, n):
    ps = int_partitions(n)
    columns = [dict(reference_basis_m_coeffs(basis, lam)) for lam in ps]
    aug = [[col.get(mu, 0) for col in columns] + [Fraction(mu == nu) for nu in ps] for mu in ps]
    assert _row_reduce(aug, len(ps)) == len(ps)
    inverse = zip(*(row[len(ps):] for row in aug))
    return {mu: tuple((lam, v) for lam, v in zip(ps, col) if v) for mu, col in zip(ps, inverse)}


def reference_sym_convert(f, target):
    if target == f.basis:
        return SymElement._make(f.basis, f.terms.items())
    in_m = (
        (mu, c * q)
        for lam, c in f.terms.items()
        for mu, q in reference_basis_m_coeffs(f.basis, lam)
    )
    fm = SymElement._make("m", in_m)
    if target == "m":
        return fm
    back = (
        (lam, c * v)
        for mu, c in fm.terms.items()
        for lam, v in reference_m_inverse(target, mu.n)[mu]
    )
    return SymElement._make(target, back)


def reference_sym_inner(f, g):
    fm, gh = reference_sym_convert(f, "m"), reference_sym_convert(g, "h")
    return sum((c * gh.terms.get(lam, 0) for lam, c in fm.terms.items()), Fraction(0))


PAIRS = [(b, t) for b in NC_BASES for t in NC_BASES if b != t]


def assert_same(got, want):
    assert got == want
    assert_canonical(got)


@pytest.mark.parametrize("n", range(7))
def test_convert_matches_fraction_route_on_every_symbol(n):
    for pi in set_partitions(n):
        for b, t in PAIRS:
            f = NCSymElement(b, {pi: 1})
            assert_same(convert(f, t), reference_convert(f, t))


def mixed_elements(basis):
    """Multi-term and inhomogeneous elements with mixed denominators, and
    elements whose conversions cancel: an m symbol written in another basis."""
    out = []
    for n in range(1, 6):
        sym = set_partitions(n)
        picks = (sym[0], sym[len(sym) // 2], sym[-1])
        out.append(NCSymElement(basis, dict(zip(picks, MIXED))))
        low = set_partitions(n - 1)[-1]
        out.append(NCSymElement(basis, {picks[1]: MIXED[0], low: MIXED[1], sym[-1]: 7}))
        back = convert(NCSymElement("m", {picks[1]: MIXED[2]}), basis)
        out.append(back + NCSymElement(basis, {picks[0]: MIXED[1]}))
        out.append(back + NCSymElement(basis, {low: MIXED[0]}))
    return out


@pytest.mark.parametrize("basis", NC_BASES)
def test_convert_matches_fraction_route_on_mixed_elements(basis):
    for f in mixed_elements(basis):
        for t in NC_BASES:
            assert_same(convert(f, t), reference_convert(f, t))


@pytest.mark.parametrize("n", range(6))
def test_inner_matches_the_two_sided_route_on_every_symbol_pair(n):
    symbols = {(b, pi): NCSymElement(b, {pi: 1}) for b in NC_BASES for pi in set_partitions(n)}
    in_m = {key: reference_convert(f, "m") for key, f in symbols.items()}
    in_h = {key: reference_convert(f, "h") for key, f in symbols.items()}
    for kf, kg in itertools.product(symbols, repeat=2):
        got = inner(symbols[kf], symbols[kg])
        assert got == reference_pair_m_h(in_m[kf], in_h[kg]), (kf, kg)
        assert type(got) is Fraction


def test_inner_matches_the_two_sided_route_on_mixed_elements():
    elements = [f for b in NC_BASES for f in mixed_elements(b)]
    in_m = [reference_convert(f, "m") for f in elements]
    in_h = [reference_convert(f, "h") for f in elements]
    for i, j in itertools.product(range(len(elements)), repeat=2):
        assert inner(elements[i], elements[j]) == reference_pair_m_h(in_m[i], in_h[j])


def canonical_sum(elements):
    """key -> the sum of the elements' coefficients, zeros dropped, an int when integral."""
    total = {}
    for g in elements:
        for key, c in g.terms.items():
            total[key] = total.get(key, Fraction(0)) + c
    return {key: c.numerator if c.denominator == 1 else c for key, c in total.items() if c}


def test_multi_term_conversions_and_pairings_are_sums_over_single_symbols():
    """The summing pass against the one-symbol path: seeded 1-5-term elements of
    each degree n <= 6 in every basis, for all 12 ordered pairs."""
    rng = random.Random(2002)
    for n in range(7):
        pool = set_partitions(n)

        def element(basis, size):
            picks = rng.sample(pool, min(size, len(pool)))
            coeffs = (Fraction(rng.randint(-9, 9) or 1, rng.randint(1, 4)) for _ in picks)
            return NCSymElement(basis, dict(zip(picks, coeffs)))

        for b, t in PAIRS:
            for size in range(1, 6):
                f, g = element(b, size), element(t, size)
                got = convert(f, t).terms
                singles = (convert(NCSymElement(b, {pi: c}), t) for pi, c in f.terms.items())
                want = canonical_sum(singles)
                assert got == want, (f, t)
                assert [type(got[key]) for key in want] == list(map(type, want.values())), (f, t)
                pairings = (
                    c * d * inner(NCSymElement(b, {pi: 1}), NCSymElement(t, {sigma: 1}))
                    for pi, c in f.terms.items()
                    for sigma, d in g.terms.items()
                )
                value = inner(f, g)
                assert value == sum(pairings, Fraction(0)) and type(value) is Fraction, (f, g)


def sym_symbols(n):
    return [SymElement(b, {lam: 1}) for b in SYM_BASES for lam in int_partitions(n)]


@pytest.mark.parametrize("n", range(7))
def test_sym_convert_matches_fraction_route_on_every_symbol(n):
    for f in sym_symbols(n):
        for t in SYM_BASES:
            assert_same(sym_convert(f, t), reference_sym_convert(f, t))


def sym_mixed_elements():
    out = []
    for b in SYM_BASES:
        for n in range(1, 6):
            ps = int_partitions(n)
            low = int_partitions(n - 1)[0]
            out.append(SymElement(b, {ps[0]: MIXED[0], ps[-1]: MIXED[1], low: MIXED[2]}))
            back = sym_convert(SymElement("m", {ps[-1]: MIXED[2]}), b)
            out.append(back + SymElement(b, {low: 1}))
    return out


def test_sym_convert_and_sym_inner_match_fraction_route_on_mixed_elements():
    elements = sym_mixed_elements()
    for f in elements:
        for t in SYM_BASES:
            assert_same(sym_convert(f, t), reference_sym_convert(f, t))
    for f, g in itertools.product(elements, repeat=2):
        assert sym_inner(f, g) == reference_sym_inner(f, g)


@pytest.mark.parametrize("n", range(6))
def test_sym_inner_matches_the_two_sided_route_on_every_symbol_pair(n):
    for f, g in itertools.product(sym_symbols(n), repeat=2):
        got = sym_inner(f, g)
        assert got == reference_sym_inner(f, g), (f, g)
        assert type(got) is Fraction


def test_forward_columns_match_the_matrix_counts_to_degree_9():
    # e and h come from the Kostka numbers, p from its own count: each against the full count
    for n in range(10):
        for b, lam in itertools.product("peh", int_partitions(n)):
            want = tuple((mu, int(c)) for mu, c in reference_basis_m_coeffs(b, lam))
            got = _basis_m_coeffs(b, lam)
            assert got == want and all(type(c) is int for _, c in got), (b, lam)


def test_commutative_tables_hold_integer_numerators():
    for b in SYM_BASES:
        for n in range(7):
            for lam in int_partitions(n):
                assert all(type(c) is int for _, c in _basis_m_coeffs(b, lam))
            for pairs, den in _m_inverse(b, n).values():
                assert all(type(v) is int and v for _, v in (*pairs, (None, den)))
