import itertools
from fractions import Fraction
from math import comb, factorial, perm, prod

import pytest
from hypothesis import given, settings, strategies as st

import ncsym.elements
from ncsym.classical import SymElement
from ncsym.elements import (
    NCSymElement,
    _every_partition,
    _join_leaves,
    _matchings,
    _merges,
    _symbol_expansion,
    convert,
    inner,
    lift,
    multiply,
    omega,
    place_act,
    project,
    schur_ncsym,
)
from ncsym.intpartitions import IntPartition, int_partitions, kostka
from ncsym.macmahon import MultiPolynomial, Truncation
from ncsym.setpartitions import (
    SetPartition,
    growth_strings,
    join_walk,
    mobius_bottom,
    partitions_of_type,
    set_partitions,
)
from ncsym.verify import _expansion_by_lattice_tables, _pairs_up_to, lattice, oracle_product
from ncsym.words import WordPolynomial, equal

P = SetPartition.parse
BASES = ("m", "p", "e", "h")


def elem(basis, text, coeff=1):
    return NCSymElement(basis, {P(text): Fraction(coeff)})


# random small elements for the property tests
coefficients = st.fractions(
    min_value=-4, max_value=4, max_denominator=6
).filter(lambda c: c != 0)


@st.composite
def elements(draw, basis=None, max_n=4):
    if basis is None:
        basis = draw(st.sampled_from(BASES))
    n = draw(st.integers(min_value=1, max_value=max_n))
    pool = set_partitions(n)
    picks = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=3))
    terms = {}
    for pi in picks:
        terms[pi] = terms.get(pi, Fraction(0)) + draw(coefficients)
    return NCSymElement(basis, terms)


def test_convert_power_sum_paper_display():
    assert convert(elem("p", "13/24"), "m") == NCSymElement(
        "m", {P("13/24"): 1, P("1234"): 1}
    )


def test_convert_elementary_paper_display():
    want = {"12/34": 1, "14/23": 1, "12/3/4": 1, "14/2/3": 1,
            "1/23/4": 1, "1/2/34": 1, "1/2/3/4": 1}
    assert convert(elem("e", "13/24"), "m") == NCSymElement(
        "m", {P(k): Fraction(v) for k, v in want.items()}
    )


def test_convert_complete_paper_display():
    want = {"1/2/3/4": 1, "12/3/4": 1, "13/2/4": 2, "14/2/3": 1, "1/23/4": 1,
            "1/24/3": 2, "1/2/34": 1, "12/34": 1, "13/24": 4, "14/23": 1,
            "123/4": 2, "124/3": 2, "134/2": 2, "1/234": 2, "1234": 4}
    assert convert(elem("h", "13/24"), "m") == NCSymElement(
        "m", {P(k): Fraction(v) for k, v in want.items()}
    )


def test_convert_top_monomial_to_power_sum():
    assert convert(elem("m", "1234"), "p") == elem("p", "1234")


@pytest.mark.parametrize("n", range(5))
def test_roundtrips_all_basis_pairs(n, verify_all):
    for b1, b2 in itertools.permutations(BASES, 2):
        assert verify_all.checks[f"roundtrip.n{n}.{b1}->{b2}->{b1}"] == (True, "")


def test_route_independence_through_p(verify_all):
    for n in range(1, 5):
        assert verify_all.checks[f"roundtrip.n{n}.double_sum_matches_route_via_p"] == (True, "")


@given(elements())
@settings(deadline=None, max_examples=40)
def test_convert_roundtrip_random(f):
    for target in BASES:
        assert convert(convert(f, target), f.basis) == f


def test_omega_swaps_e_and_h():
    assert omega(elem("e", "13/24")) == elem("h", "13/24")
    assert omega(elem("h", "12/3")) == elem("e", "12/3")


def test_omega_power_sum_eigenvector():
    assert omega(elem("p", "13/24")) == elem("p", "13/24")
    assert omega(elem("p", "12/3")) == elem("p", "12/3", -1)


@given(elements())
@settings(deadline=None, max_examples=40)
def test_omega_is_an_involution(f):
    assert omega(omega(f)) == f


def test_omega_on_m_matches_the_route_through_p():
    # the closed form sign(pi) * sum of lam(pi, tau)! m_tau against m -> p -> omega -> m
    for n in range(7):
        for pi in set_partitions(n):
            for c in (1, Fraction(-3, 2), Fraction(1, 6)):
                f = NCSymElement("m", {pi: c})
                got, want = omega(f), convert(omega(convert(f, "p")), "m")
                assert got == want, (pi, c)
                types = [{k: type(v) for k, v in g.terms.items()} for g in (got, want)]
                assert types[0] == types[1], (pi, c)


def _block_factorials(r):
    return prod(factorial(r.count(v)) for v in set(r))


def test_upper_interval_routes_match_the_sums_over_the_blocks():
    """m->p and omega on m against the sums over [pi, top] they replaced, built from
    the partitions r of pi's blocks: sigma merges them by r, mu(pi, sigma) = mu(bottom, r)
    and lam(pi, sigma)! is the product of the factorials of r's block sizes."""
    blocks = {}  # l -> the partitions r of l blocks, mu(bottom, r) and r's block factorials
    for a in range(8):
        rs = growth_strings(a)
        blocks[a] = rs, list(map(mobius_bottom, rs)), list(map(_block_factorials, rs))
    for n in range(8):
        for pi in set_partitions(n):
            rs, mus, lams = blocks[pi.length]
            sigmas = [SetPartition._from_rgs(tuple([r[x] for x in pi.rgs])) for r in rs]
            keys, nums, den = _symbol_expansion("m", "p", pi)
            assert (list(keys), list(nums), den) == (sigmas, mus, 1), pi
            assert all(type(v) is int for v in nums) and type(den) is int, pi
            for c in (1, -3, Fraction(3, 2)):
                want = [c * pi.sign * lam for lam in lams]
                want = [v.numerator if v.denominator == 1 else v for v in want]
                got = omega(NCSymElement("m", {pi: c})).terms
                assert list(got.items()) == list(zip(sigmas, want)), (pi, c)
                assert list(map(type, got.values())) == list(map(type, want)), (pi, c)


def test_one_block_expansions_carry_mobius_and_block_factorials():
    """e->p and h->m of the one-block partition, which m->p and omega on m read:
    mobius_bottom and the block-size factorials of every growth string, in order."""
    for a in range(9):
        strings = growth_strings(a)
        keys, mus, den = _symbol_expansion("e", "p", SetPartition.top(a))
        assert [k.rgs for k in keys] == strings and den == 1, a
        assert mus == tuple(map(mobius_bottom, strings)), a
        keys, lams, den = _symbol_expansion("h", "m", SetPartition.top(a))
        assert [k.rgs for k in keys] == strings and den == 1, a
        assert lams == tuple(map(_block_factorials, strings)), a


def test_project_paper_images():
    assert project(elem("m", "13/24")) == SymElement("m", {IntPartition((2, 2)): 2})
    assert project(elem("e", "13/24")) == SymElement("e", {IntPartition((2, 2)): 4})
    assert project(elem("p", "13/24")) == SymElement("p", {IntPartition((2, 2)): 1})
    assert project(elem("h", "12/3")) == SymElement("h", {IntPartition((2, 1)): 2})


def test_lift_examples():
    lifted = lift(SymElement("m", {IntPartition((2, 2)): 1}))
    assert lifted == NCSymElement(
        "m",
        {P("12/34"): Fraction(1, 6), P("13/24"): Fraction(1, 6), P("14/23"): Fraction(1, 6)},
    )
    assert lift(SymElement("m", {IntPartition((3,)): 1})) == elem("m", "123")


@pytest.mark.parametrize("n", range(7))
def test_project_lift_identity(n, verify_all):
    assert verify_all.checks[f"projection.n{n}.project_after_lift_is_identity"] == (True, "")


def test_inner_examples():
    assert inner(elem("m", "13/24"), elem("h", "13/24")) == 24
    assert inner(elem("h", "12"), elem("h", "1/2")) == 2
    assert inner(elem("p", "12"), elem("p", "12")) == 2


def test_inner_cross_degree_is_zero():
    f = elem("m", "12")
    g = elem("h", "123")
    assert inner(f, g) == 0
    mixed = NCSymElement("h", {P("12"): 1, P("123"): 1})
    assert inner(f, mixed) == inner(f, elem("h", "12"))


@given(elements(max_n=3), elements(max_n=3))
@settings(deadline=None, max_examples=30)
def test_inner_is_symmetric(f, g):
    assert inner(f, g) == inner(g, f)


def test_place_act_examples():
    pi = P("13/24")
    f = elem("m", "13/24")
    assert place_act((1, 2, 3, 4), f) == f
    assert place_act((2, 1, 3, 4), f) == NCSymElement("m", {pi.act((2, 1, 3, 4)): 1})
    with pytest.raises(ValueError):
        place_act((1, 2), NCSymElement("m", {P("1"): 1, P("12"): 1}))
    zero = NCSymElement("h")
    assert place_act((2, 1), zero) == place_act((), zero) == zero
    with pytest.raises(ValueError, match=r"not a permutation of 1\.\.1: \(5,\)"):
        place_act((5,), zero)  # zero takes any permutation, and only a permutation


def test_place_act_refuses_non_int_entries():
    f = elem("m", "13/2")
    for perm, bad in (((True, 2, 3), True), ((1.0, 2.0, 3.0), 1.0)):
        with pytest.raises(ValueError, match=f"permutation entries must be ints, got {bad!r}"):
            place_act(perm, f)


def test_place_action_is_a_group_action():
    n = 3
    f = NCSymElement("h", {P("13/2"): Fraction(2), P("123"): Fraction(1, 3)})
    for g in itertools.permutations(range(1, n + 1)):
        for h in itertools.permutations(range(1, n + 1)):
            gh = tuple(g[h[i - 1] - 1] for i in range(1, n + 1))
            assert place_act(g, place_act(h, f)) == place_act(gh, f)


def test_multiply_examples():
    p1 = elem("p", "1")
    assert convert(multiply(p1, p1), "m") == convert(elem("p", "1/2"), "m")
    m1 = elem("m", "1")
    assert multiply(m1, m1) == NCSymElement("m", {P("1/2"): 1, P("12"): 1})
    unit = NCSymElement.unit()
    f = NCSymElement("h", {P("12"): Fraction(3, 2)})
    assert multiply(unit, f) == convert(f, "m")
    assert convert(multiply(f, unit), "m") == convert(f, "m")


def test_multiply_power_sums_concatenate(verify_all):
    assert verify_all.checks["product.power_sums_concatenate_with_shift"] == (True, "")


def test_multiply_distributes_over_sums():
    f = NCSymElement("m", {P("1"): 1, P("12"): 2})
    g = NCSymElement("m", {P("1"): Fraction(1, 2)})
    lhs = multiply(f, g)
    rhs = multiply(NCSymElement("m", {P("1"): 1}), g) + multiply(
        NCSymElement("m", {P("12"): 2}), g
    )
    assert lhs == rhs


def test_merges_match_block_assembly_to_degree_6(verify_all):
    assert verify_all.checks["reference.merges_match_block_assembly"] == (True, "")


def test_slash_and_merges_build_canonical_growth_strings_to_degree_7():
    for n1 in range(8):
        for n2 in range(8 - n1):
            for pi in set_partitions(n1):
                for sigma in set_partitions(n2):
                    slash = multiply(NCSymElement("p", {pi: 1}), NCSymElement("p", {sigma: 1}))
                    for r in itertools.chain(slash.terms, _merges(pi, sigma)):
                        assert SetPartition.from_labels(r.rgs).rgs == r.rgs, (pi, sigma)


def test_merges_to_total_degree_8_are_exactly_the_rhos_meeting_the_two_tops_in_the_slash():
    # sum over r of C(k, r) l!/(l - r)! merges, none repeated, each meeting the
    # two tops in pi | sigma: exactly the set the monomial rule sums over
    pairs = merges = 0
    for n1 in range(9):
        for n2 in range(9 - n1):
            tops = SetPartition.from_labels([0] * n1 + [1] * n2)
            for pi in set_partitions(n1):
                for sigma in set_partitions(n2):
                    rhos = list(_merges(pi, sigma))
                    ell, k = pi.length, sigma.length
                    assert len(rhos) == sum(comb(k, r) * perm(ell, r) for r in range(min(ell, k) + 1))
                    assert len(set(rhos)) == len(rhos), (pi, sigma)
                    slash = _slash(pi, sigma)
                    assert all(rho.meet(tops) is slash for rho in rhos), (pi, sigma)
                    pairs, merges = pairs + 1, merges + len(rhos)
    assert (pairs, merges) == (14924, 46113)


def test_matchings_table_cache_stays_within_its_maxsize():
    _matchings.cache_clear()
    size = _matchings.cache_info().maxsize
    assert size is not None
    for ell in range(size + 10):  # k = 0 keys cost one one-entry table each
        _matchings(ell, 0)
    assert _matchings.cache_info().currsize == size


def _slash(pi, sigma):
    """pi | sigma: sigma's blocks shifted past pi's ground set."""
    return SetPartition(list(pi.blocks) + [tuple(e + pi.n for e in b) for b in sigma.blocks])


def test_multiply_matches_monomial_rule_for_every_basis_pair_up_to_degree_4(verify_all):
    assert verify_all.checks["reference.product_matches_the_monomial_rule"] == (True, "")


def test_multiply_same_basis_p_e_h_symbols_is_one_slash_term():
    a, b = Fraction(-2, 3), Fraction(5, 7)
    for pi, sigma in _pairs_up_to(4):
        for basis in ("p", "e", "h"):
            got = multiply(NCSymElement(basis, {pi: a}), NCSymElement(basis, {sigma: b}))
            assert got == NCSymElement(basis, {_slash(pi, sigma): a * b}), (basis, pi, sigma)


def test_multiply_matches_word_oracle_up_to_degree_4(verify_all):
    # every basis, every pair of set partitions of total degree <= 4, the empty
    # partition included; the reference check states the count of those pairs
    assert verify_all.checks["product.closed_form_matches_word_oracle"] == (True, "")


def test_multiply_mixed_and_inhomogeneous_match_word_oracle():
    f = NCSymElement("e", {P("13/2"): Fraction(-2, 3)})
    g = NCSymElement("p", {P("1/2"): Fraction(5, 7)})
    assert convert(multiply(f, g), "m") == oracle_product(f, g)
    f = NCSymElement("h", {SetPartition(): Fraction(1, 2), P("1"): 3, P("12"): Fraction(-1, 4)})
    g = NCSymElement("h", {P("1"): Fraction(2, 5), P("1/2"): Fraction(7, 3)})
    got = multiply(f, g)
    assert convert(got, "m") == oracle_product(f, g)
    assert got.degrees() == [1, 2, 3, 4]


def test_inexact_coefficients_are_refused():
    with pytest.raises(TypeError, match="inexact"):
        NCSymElement("m", {P("1/2"): 0.1})
    with pytest.raises(TypeError, match="inexact"):
        NCSymElement("m", {P("1/2"): 1j})
    with pytest.raises(TypeError, match="inexact"):
        0.5 * elem("m", "1/2")
    with pytest.raises(TypeError, match="inexact"):
        SymElement("m", {IntPartition((2, 1)): 0.1})
    with pytest.raises(TypeError, match="inexact"):
        0.5 * SymElement("m", {IntPartition((2, 1)): 1})
    with pytest.raises(TypeError, match="inexact"):
        WordPolynomial(2, {(1, 2): 0.1})
    with pytest.raises(TypeError, match="inexact"):
        MultiPolynomial(Truncation(1, 2, 2), {(((1, 1), 1),): 0.1})
    assert NCSymElement("m", {P("1/2"): "3/4"}).terms == {P("1/2"): Fraction(3, 4)}


def test_type_sum_of_h_lifts_commutative_h(verify_all):
    # the sum of h over one type equals the lift of n!/type-multiplicities * h
    for n in range(1, 5):
        assert verify_all.checks[f"projection.n{n}.type_sum_of_h_is_lifted_h"] == (True, "")


def test_lift_is_isometry_on_basis_pairs(verify_all):
    for n in range(1, 5):
        assert verify_all.checks[f"projection.n{n}.lift_is_isometry"] == (True, "")


def test_oracle_agrees_with_convert():
    for n in range(1, 4):
        for pi in set_partitions(n):
            for b in BASES:
                f = NCSymElement(b, {pi: 1})
                assert equal(f, convert(f, "m"))


def test_wrong_element_class_is_a_type_error_naming_the_class():
    f = elem("m", "1/2")
    sym = SymElement("m", {IntPartition((1,)): 1})
    calls = [
        (lambda: convert(sym, "p"), "expected NCSymElement, got SymElement"),
        (lambda: omega(3), "expected NCSymElement, got int"),
        (lambda: project(sym), "expected NCSymElement, got SymElement"),
        (lambda: lift(f), "expected SymElement, got NCSymElement"),
        (lambda: inner(f, sym), "expected NCSymElement, got SymElement"),
        (lambda: inner(None, f), "expected NCSymElement, got NoneType"),
        (lambda: place_act((2, 1), P("1/2")), "expected NCSymElement, got SetPartition"),
        (lambda: multiply(f, 3), "expected NCSymElement, got int"),
    ]
    for call, message in calls:
        with pytest.raises(TypeError, match=message):
            call()


def test_element_arithmetic_and_errors():
    f = elem("m", "12")
    g = elem("m", "1/2")
    assert (f + g) - f == g
    assert (2 * f).terms[P("12")] == 2
    assert (f - f).is_zero()
    with pytest.raises(ValueError):
        f + elem("p", "12")
    with pytest.raises(ValueError):
        NCSymElement("q", {})
    with pytest.raises(ValueError):
        convert(f, "s")


def test_symbol_expansion_matches_lattice_tables():
    # the interval enumerators against sums over the full lattice tables
    for n in range(7):
        for pi in set_partitions(n):
            for b in BASES:
                for t in BASES:
                    want = _expansion_by_lattice_tables(b, t, pi)
                    keys, nums, den = _symbol_expansion(b, t, pi)
                    assert all(type(v) is int for v in (*nums, den)), (b, t, pi)
                    got = tuple((key, Fraction(v, den)) for key, v in zip(keys, nums, strict=True))
                    assert got == want, (b, t, pi)


def test_lift_and_schur_match_lattice_grouping():
    for n in range(7):
        elements = set_partitions(n)
        for lam in int_partitions(n):
            of_type = [pi for pi in elements if pi.type == lam]
            assert partitions_of_type(lam) == tuple(of_type)
            scale = Fraction(lam.fact_parts(), factorial(n))
            assert lift(SymElement("m", {lam: 1})) == NCSymElement(
                "m", {pi: scale for pi in of_type}
            )
            want = {
                pi: pi.type.fact_parts() * kostka(lam, pi.type)
                for pi in elements
                if kostka(lam, pi.type)
            }
            assert schur_ncsym(lam) == NCSymElement("m", want)


def test_degree_7_round_trips():
    f = NCSymElement("m", {SetPartition.bottom(7): 1})
    for b in ("p", "e"):
        assert convert(convert(f, b), "m") == f


def test_basis_changes_build_no_lattice():
    before = lattice.cache_info()
    bottom = SetPartition.bottom(6)
    for b in BASES:
        for t in BASES:
            _symbol_expansion.__wrapped__(b, t, bottom)
    convert(NCSymElement("m", {bottom: 1}), "e")
    for lam in int_partitions(6):
        partitions_of_type.__wrapped__(lam)
        lift(SymElement("m", {lam: 1}))
        schur_ncsym(lam)
    assert lattice.cache_info() == before


def test_monomial_to_e_and_h_match_route_via_p_at_degree_7():
    # the join walk against m -> p -> target, one pi per type
    for lam in int_partitions(7):
        f = NCSymElement("m", {partitions_of_type(lam)[0]: 1})
        for t in ("e", "h"):
            assert convert(f, t) == convert(convert(f, "p"), t), (lam, t)


def test_monomial_to_e_and_h_walk_the_join_once(monkeypatch):
    # one join walk serves both targets, and each matches the route through p
    walks = []

    def counted(rgs):
        walks.append(rgs)
        return join_walk(rgs)

    monkeypatch.setattr(ncsym.elements, "join_walk", counted)
    _symbol_expansion.cache_clear()
    _join_leaves.cache_clear()
    f = elem("m", "13/24")
    e, h = convert(f, "e"), convert(f, "h")
    assert walks == [P("13/24").rgs]
    assert (e, h) == (convert(convert(f, "p"), "e"), convert(convert(f, "p"), "h"))


def test_h_to_m_and_m_to_h_share_one_key_tuple_per_degree():
    # both sum over every partition of [n], so every expansion of one degree holds one tuple
    _symbol_expansion.cache_clear()
    for n in range(6):
        pool = set_partitions(n)
        keys = _symbol_expansion("h", "m", pool[0])[0]
        assert keys == tuple(pool)
        for pi, sigma in itertools.product(pool, repeat=2):
            assert _symbol_expansion("h", "m", pi)[0] is _symbol_expansion("m", "h", sigma)[0]
    size = _every_partition.cache_info().maxsize
    assert size is not None
    _every_partition.cache_clear()
    for n in range(size + 1):  # one degree past the budget; degree 9 stays unbuilt for others
        _every_partition(n)
    assert _every_partition.cache_info().currsize == size


def test_bottom_monomial_is_top_elementary_to_degree_9():
    for n in range(10):
        f = NCSymElement("m", {SetPartition.bottom(n): 1})
        assert convert(f, "e") == NCSymElement("e", {SetPartition.top(n): 1}), n


def test_monomial_to_e_and_h_matrices_are_symmetric():
    # [h_tau] m_pi = <m_pi, m_tau> / n!; the e sum is symmetric in pi and tau as well
    for n in range(6):
        for t in ("e", "h"):
            rows = {pi: convert(NCSymElement("m", {pi: 1}), t).terms for pi in set_partitions(n)}
            for pi, row in rows.items():
                for tau, col in rows.items():
                    assert row.get(tau, 0) == col.get(pi, 0), (t, pi, tau)
