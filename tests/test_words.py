import itertools
import re
from fractions import Fraction

import pytest

from ncsym.elements import NCSymElement, convert
from ncsym.setpartitions import SetPartition, set_partitions
from ncsym.verify import _expand_by_lattice_tables, lattice
from ncsym.words import (
    NotSymmetricError,
    WordPolynomial,
    collect,
    equal,
    expand,
    expand_position_action,
    kernel,
    parse_word_polynomial,
)

P = SetPartition.parse


def elem(basis, text, coeff=1):
    return NCSymElement(basis, {P(text): Fraction(coeff)})


def test_kernel_examples():
    assert kernel((1, 2, 1, 2)) == P("13/24")
    assert kernel((1, 1, 1)) == P("123")
    assert kernel((3, 1, 2)) == P("1/2/3")
    assert kernel(()) == SetPartition()


def test_kernel_matches_grouping_by_letter():
    """kernel against the earlier route: group positions by letter, validate."""
    for length in range(6):
        for word in itertools.product((1, 2, 3), repeat=length):
            groups: dict[int, list[int]] = {}
            for pos, letter in enumerate(word, start=1):
                groups.setdefault(letter, []).append(pos)
            want = SetPartition(groups.values())
            got = kernel(word)
            assert (got.n, got.blocks, got.rgs, hash(got)) == (
                want.n,
                want.blocks,
                want.rgs,
                hash(want),
            )


def test_expand_monomial_example():
    got = expand(elem("m", "13/24"), 2)
    assert got.terms == {
        (1, 2, 1, 2): Fraction(1),
        (2, 1, 2, 1): Fraction(1),
    }


def test_expand_power_sum_one_variable():
    got = expand(elem("p", "13/24"), 1)
    assert got.terms == {(1, 1, 1, 1): Fraction(1)}


def test_expand_h_coefficient():
    got = expand(elem("h", "13/24"), 2)
    assert got.terms[(1, 1, 2, 2)] == 1
    # words constant on {1,3} and on {2,4} meet the index in itself: weight (2!)^2
    assert got.terms[(1, 2, 1, 2)] == 4


def test_expand_h_by_counting_block_orderings(verify_all):
    # independent route: count (word, per-block linear order) pairs directly
    for n in (1, 2, 3):
        assert verify_all.checks[f"oracle.n{n}.h_matches_linear_order_count"] == (True, "")


def test_expand_degree_zero_and_bad_k():
    unit = NCSymElement.unit()
    assert expand(unit, 3).terms == {(): Fraction(1)}
    with pytest.raises(ValueError):
        expand(unit, 0)


def test_word_oracle_refuses_non_int_sizes_and_letters():
    f = elem("m", "1/2")
    for k in (True, 2.5, 2.0, "2", None):
        with pytest.raises(ValueError, match=re.escape(f"got {k!r}")):
            expand(f, k)
        with pytest.raises(ValueError, match=re.escape(f"got {k!r}")):
            WordPolynomial(k, {(1,): 1})
    for letter in (1.0, True, 0, 3):
        with pytest.raises(ValueError, match=re.escape(f"letter {letter!r} in ({letter!r},)")):
            WordPolynomial(2, {(letter,): 1})
    with pytest.raises(ValueError, match="bad word token 'y1'"):
        parse_word_polynomial("1 y1", 2)
    assert WordPolynomial(2, {(1, 2): 1}).terms == {(1, 2): 1}


@pytest.mark.parametrize("n", range(5))
def test_collect_inverts_expand_on_monomials(n):
    for pi in set_partitions(n):
        f = elem("m", str(pi))
        assert collect(expand(f, max(n, 1)), n) == f


def test_collect_power_sum_example():
    got = collect(expand(elem("p", "13/24"), 4), 4)
    assert got == NCSymElement("m", {P("13/24"): 1, P("1234"): 1})


def test_collect_rejects_asymmetric_input():
    bad = WordPolynomial(2, {(1, 2): Fraction(1)})  # (2,1) sibling missing
    with pytest.raises(NotSymmetricError) as err:
        collect(bad, 2)
    assert set(err.value.witness) == {(1, 2), (2, 1)}
    with pytest.raises(ValueError):
        collect(WordPolynomial(1, {(1, 1): Fraction(1)}), 2)  # k < n
    with pytest.raises(ValueError, match=re.escape("word (1, 2, 3) exceeds stated degree 2")):
        collect(WordPolynomial(3, {(1, 2, 3): 1}), 2)


def test_collect_refuses_a_bad_degree_before_the_symmetry_check():
    asymmetric = WordPolynomial(2, {(1,): Fraction(1)})  # x2 missing
    for n in (True, 1.5, -1, "1"):
        with pytest.raises(ValueError, match=re.escape(f"n must be a nonnegative int, got {n!r}")):
            collect(asymmetric, n)
    with pytest.raises(NotSymmetricError):
        collect(asymmetric, 1)


def test_equal_examples():
    f = elem("p", "13/24")
    g = NCSymElement("m", {P("13/24"): 1, P("1234"): 1})
    assert equal(f, g)
    assert equal(f, f)
    assert not equal(elem("e", "12"), elem("h", "12"))


def test_position_action_examples():
    poly = WordPolynomial(2, {(1, 2, 1, 2): Fraction(1)})
    assert expand_position_action((1, 2, 3, 4), poly) == poly
    moved = expand_position_action((2, 1, 3, 4), poly)
    assert moved.terms == {(2, 1, 1, 2): Fraction(1)}
    with pytest.raises(ValueError):
        expand_position_action((1, 2, 3), poly)
    with pytest.raises(ValueError, match="permutation entries must be ints, got 1.0"):
        expand_position_action((1.0, 2, 3, 4), poly)


def test_faithfulness_distinguishes_monomials():
    n = 4
    seen = {}
    for pi in set_partitions(n):
        exp = frozenset(expand(elem("m", str(pi)), n).terms.items())
        assert exp not in seen.values()
        seen[pi] = exp


@pytest.mark.parametrize("basis", ["m", "p", "e", "h"])
def test_expansion_agrees_with_basis_change(basis):
    for n in (1, 2, 3):
        for pi in set_partitions(n):
            f = elem(basis, str(pi))
            assert expand(f, n) == expand(convert(f, "m"), n)


def test_word_polynomial_arithmetic():
    a = WordPolynomial(2, {(1,): Fraction(1)})
    b = WordPolynomial(2, {(2,): Fraction(3, 2)})
    assert (a + b).terms == {(1,): Fraction(1), (2,): Fraction(3, 2)}
    assert (a - a).is_zero()
    assert (a * b).terms == {(1, 2): Fraction(3, 2)}
    assert (2 * a).terms == {(1,): Fraction(2)}
    assert (b * Fraction(2, 3)).terms == {(2,): 1}
    with pytest.raises(ValueError):
        WordPolynomial(1, {(2,): Fraction(1)})


def test_word_polynomial_text_skips_blank_and_zero_lines():
    zero = WordPolynomial(2)
    assert zero.to_text() == "0"
    assert parse_word_polynomial(zero.to_text(), 2) == zero
    f = parse_word_polynomial("\n  \n3/2 x1 x2\n0\n-1 1\n\n", 2)
    assert f.terms == {(1, 2): Fraction(3, 2), (): -1}
    assert parse_word_polynomial(f.to_text(), 2) == f


@pytest.mark.parametrize("basis", ["m", "p", "e", "h"])
def test_expand_matches_lattice_table_expansion(basis, verify_all):
    assert verify_all.checks[f"reference.expand_{basis}_matches_lattice_tables"] == (True, "")


def test_expand_builds_no_lattice():
    before = lattice.cache_info()
    assert expand(elem("m", "1/2/3/4/5/6"), 1).is_zero()
    for basis in "peh":
        assert not expand(elem(basis, "1,2/3,4/5,6"), 2).is_zero()
    assert lattice.cache_info() == before


def test_expand_m_walks_only_its_own_kernel():
    assert expand(elem("m", "1/2/3/4/5/6/7/8/9/10"), 1).is_zero()
    partitions = {n: set_partitions(n) for n in range(1, 7)}
    cases = 0
    for n, elements in partitions.items():
        for pi in elements:
            f = NCSymElement("m", {pi: -2})
            for k in range(1, n + 1):
                assert expand(f, k) == _expand_by_lattice_tables(f, k), (pi, k)
                cases += 1
    assert cases == sum(n * count for n, count in enumerate((1, 2, 5, 15, 52, 203), 1))
