import itertools
import re
from fractions import Fraction

import pytest

from ncsym.elements import NCSymElement, convert, schur_ncsym
from ncsym.intpartitions import IntPartition, int_partitions
from ncsym.macmahon import (
    MultiPolynomial,
    Truncation,
    TruncationError,
    VectorPartition,
    _jt_determinant,
    _layout,
    _letter_vectors,
    _mm_generator,
    _unpack,
    cauchy_check,
    jacobi_trudi,
    mm_complete,
    mm_elementary,
    mm_monomial,
    mm_multiplicative,
    mm_power,
    monomial,
    phi_collect,
    phi_from_set_partition,
    phi_to_set_partition,
    schur_tableau_sum,
    weak_compositions,
)
from ncsym.setpartitions import SetPartition, set_partitions
from ncsym.tableaux import DottedTableau, dot_swap_involution, dotted_tableaux
from ncsym.verify import _jt_by_permutation_expansion

IP = IntPartition


def mono(*factors):
    """factors as (subscript, dots, exponent)."""
    return tuple(sorted(((i, j), e) for i, j, e in factors))


def test_mm_monomial_display():
    got = mm_monomial(VectorPartition([(2, 1), (3, 0)]), Truncation(2, 2, 6))
    want = {
        mono((1, 1, 2), (1, 2, 1), (2, 1, 3)): Fraction(1),
        mono((1, 1, 3), (2, 1, 2), (2, 2, 1)): Fraction(1),
    }
    assert got.terms == want


def test_mm_monomial_single_part():
    got = mm_monomial(VectorPartition([(1, 0)]), Truncation(2, 1, 1))
    assert got.terms == {mono((1, 1, 1)): Fraction(1)}


def test_mm_monomial_repeated_parts_have_coefficient_one():
    got = mm_monomial(VectorPartition([(1, 0), (1, 0)]), Truncation(2, 3, 2))
    assert set(got.terms.values()) == {Fraction(1)}
    assert len(got.terms) == 3  # choose 2 subscripts among 3


def test_mm_elementary_examples():
    got = mm_elementary((1, 1), Truncation(2, 2, 2))
    assert got.terms == {
        mono((1, 1, 1), (2, 2, 1)): Fraction(1),
        mono((1, 2, 1), (2, 1, 1)): Fraction(1),
    }
    tr = Truncation(2, 3, 3)
    assert mm_complete((1, 0), tr) == mm_elementary((1, 0), tr)


def test_mm_complete_examples():
    got = mm_complete((1, 1), Truncation(2, 1, 2))
    assert got.terms == {mono((1, 1, 1), (1, 2, 1)): Fraction(2)}
    with pytest.raises(TruncationError):
        mm_complete((2, 2), Truncation(2, 2, 3))


def test_generators_match_their_separate_walks_to_degree_5(verify_all):
    assert verify_all.checks["reference.generators_match_their_separate_walks"] == (True, "")


def test_mm_complete_does_not_depend_on_the_cap():
    for t in ((2, 1), (1, 1, 1), (3, 0)):
        for variables in (1, 2, 3):
            at_t = mm_complete(t, Truncation(len(t), variables, sum(t)))
            cached = _letter_vectors.cache_info().currsize, _mm_generator.cache_info().currsize
            for cap in range(sum(t) + 1, sum(t) + 4):
                tr = Truncation(len(t), variables, cap)
                got = mm_complete(t, tr)
                assert got.trunc == tr and got.terms == at_t.terms
                now = _letter_vectors.cache_info().currsize, _mm_generator.cache_info().currsize
                assert now == cached, (t, cap)


def test_mm_power_is_single_part_monomial():
    tr = Truncation(2, 3, 4)
    assert mm_power((2, 1), tr) == mm_monomial(VectorPartition([(2, 1)]), tr)


def test_phi_examples():
    vp = VectorPartition([(1, 0, 1, 0), (0, 1, 0, 1)])
    assert phi_to_set_partition(vp) == SetPartition.parse("13/24")
    singletons = VectorPartition([(1, 0, 0), (0, 1, 0), (0, 0, 1)])
    assert phi_to_set_partition(singletons) == SetPartition.parse("1/2/3")
    for pi in set_partitions(4):
        assert phi_to_set_partition(phi_from_set_partition(pi)) == pi
    with pytest.raises(ValueError):
        phi_to_set_partition(VectorPartition([(1, 1), (1, 0)]))
    with pytest.raises(ValueError, match="does not have all-ones multidegree"):
        phi_collect(mm_power((2,), Truncation(1, 1, 2)))


@pytest.mark.parametrize("n", [1, 2, 3])
def test_phi_carries_all_bases(n):
    # the vector-space isomorphism matches basis symbols on both sides
    tr = Truncation(n, n, n)
    for pi in set_partitions(n):
        vp = phi_from_set_partition(pi)
        assert phi_collect(mm_monomial(vp, tr)) == NCSymElement("m", {pi: 1})
        for basis in ("p", "e", "h"):
            got = phi_collect(mm_multiplicative(basis, vp, tr))
            assert got == convert(NCSymElement(basis, {pi: 1}), "m")


def test_schur_tableau_sum_paper_coefficient():
    S = schur_tableau_sum(IP((3, 1)), (2, 2), Truncation(2, 4, 4))
    assert S.coefficient(mono((1, 1, 2), (1, 2, 1), (2, 2, 1))) == 3


def test_schur_tableau_sum_small_cases():
    got = schur_tableau_sum(IP((1,)), (1,), Truncation(1, 3, 1))
    assert got.terms == {
        mono((1, 1, 1)): Fraction(1),
        mono((2, 1, 1)): Fraction(1),
        mono((3, 1, 1)): Fraction(1),
    }
    got = schur_tableau_sum(IP((1, 1)), (2, 0), Truncation(2, 2, 2))
    assert got.terms == {mono((1, 1, 1), (2, 1, 1)): Fraction(1)}


def test_schur_tableau_sum_validation():
    with pytest.raises(ValueError):
        schur_tableau_sum(IP((2,)), (1,), Truncation(1, 2, 2))
    with pytest.raises(TruncationError):
        schur_tableau_sum(IP((3,)), (3, 0), Truncation(2, 3, 2))


def test_dotted_tableau_invariants():
    with pytest.raises(ValueError):
        DottedTableau([[(2, 1), (1, 1)]])  # row decreasing
    with pytest.raises(ValueError):
        DottedTableau([[(1, 1)], [(1, 2)]])  # column not strict
    with pytest.raises(ValueError):
        DottedTableau([[(1, 1)], [(1, 1), (2, 1)]])  # shape not a partition
    t = DottedTableau([[(1, 2), (1, 1)], [(2, 1)]])
    assert t.shape == IP((2, 1))
    assert t.multidegree(2) == (2, 1)
    assert t.undotted() == ((1, 1), (2,))


def test_dot_swap_involution_examples():
    t = DottedTableau([[(3, 1), (4, 2)]])
    assert dot_swap_involution(t, 1) == t  # no entries valued 1 or 2
    single = DottedTableau([[(1, 1)]])
    assert dot_swap_involution(single, 1) == DottedTableau([[(2, 1)]])
    # a paired column trades dot classes
    paired = DottedTableau([[(1, 1)], [(2, 2)]])
    assert dot_swap_involution(paired, 1) == DottedTableau([[(1, 2)], [(2, 1)]])
    # a free run reverses its value counts, dots staying in order
    run = DottedTableau([[(1, 1), (1, 2), (2, 1)]])
    assert dot_swap_involution(run, 1) == DottedTableau([[(1, 1), (2, 1), (2, 2)]])
    for bad in (0, True, 1.5, "1"):  # True once wrote the entry (True, 1); 1.5 changed nothing
        with pytest.raises(ValueError, match=re.escape(f"positive int, got {bad!r}")):
            dot_swap_involution(run, bad)


@pytest.mark.parametrize("size", [1, 2, 3, 4])
def test_dot_swap_is_involution_and_trades_counts(size, verify_all):
    # the check walks every size up to 4 and holds each image to the tableau
    # constructor; the shapes are pinned by the column-scan reference
    assert verify_all.checks["schur.dot_swap_involution"] == (True, "")


def test_subscript_swap_fixes_tableau_sums():
    k = 3
    tr = Truncation(2, k, 3)
    for lam in int_partitions(3):
        for vec in weak_compositions(3, 2):
            S = schur_tableau_sum(lam, vec, tr)
            for a in (1, 2):
                swapped = {}
                for m, c in S.terms.items():
                    key = tuple(
                        sorted(
                            ((a + 1 if i == a else (a if i == a + 1 else i), j), e)
                            for (i, j), e in m
                        )
                    )
                    swapped[key] = swapped.get(key, Fraction(0)) + c
                assert swapped == S.terms


def test_schur_ncsym_examples():
    assert schur_ncsym(IP((2,))) == NCSymElement(
        "m", {SetPartition.parse("12"): 2, SetPartition.parse("1/2"): 1}
    )
    assert schur_ncsym(IP((1,))) == NCSymElement("m", {SetPartition.parse("1"): 1})


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_schur_ncsym_properties(n, verify_all):
    for prop in (
        "monomial_expansion_matches_tableaux",
        "linear_independence",
        "projection_and_lift",
        "pairing_is_scaled_delta",
    ):
        assert verify_all.checks[f"schur.n{n}.{prop}"] == (True, "")


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_jacobi_trudi_matches_tableaux(m, verify_all):
    for variant in ("h_determinant", "e_determinant_gives_conjugate"):
        assert verify_all.checks[f"jacobi_trudi.m{m}.{variant}"] == (True, "")


def test_jacobi_trudi_matches_permutation_expansion_to_size_5(verify_all):
    name = "reference.jacobi_trudi_matches_the_permutation_expansion"
    assert verify_all.checks[name] == (True, "")


def test_jacobi_trudi_slice_does_not_depend_on_the_cap():
    lam, vec = IP((3, 2)), (3, 2)
    for variant in ("h", "e"):
        at_n = jacobi_trudi(lam, vec, variant, Truncation(2, 3, 5))
        cached = _jt_determinant.cache_info().currsize, _mm_generator.cache_info().currsize
        for cap in (6, 8):
            wider = Truncation(2, 3, cap)
            above_n = jacobi_trudi(lam, vec, variant, wider)
            assert above_n.trunc == wider
            assert above_n.terms == at_n.terms
            now = _jt_determinant.cache_info().currsize, _mm_generator.cache_info().currsize
            assert now == cached, (variant, cap)
        reference = _jt_by_permutation_expansion(lam, variant, wider).extract_multidegree(vec)
        assert above_n == reference, variant


def test_jacobi_trudi_single_alphabet_is_classical():
    m = 3
    tr = Truncation(1, m, m)
    got = jacobi_trudi(IP((2, 1)), (m,), "h", tr)
    assert got == schur_tableau_sum(IP((2, 1)), (m,), tr)
    # s_(2,1) = m_(2,1) + 2 m_(1,1,1) in three variables
    want = {
        mono((1, 1, 2), (2, 1, 1)): Fraction(1),
        mono((1, 1, 2), (3, 1, 1)): Fraction(1),
        mono((2, 1, 2), (1, 1, 1)): Fraction(1),
        mono((2, 1, 2), (3, 1, 1)): Fraction(1),
        mono((3, 1, 2), (1, 1, 1)): Fraction(1),
        mono((3, 1, 2), (2, 1, 1)): Fraction(1),
        mono((1, 1, 1), (2, 1, 1), (3, 1, 1)): Fraction(2),
    }
    assert got.terms == want


def test_jacobi_trudi_validation():
    with pytest.raises(ValueError):
        jacobi_trudi(IP((2,)), (1,), "h", Truncation(1, 2, 2))
    with pytest.raises(ValueError):
        jacobi_trudi(IP((2,)), (2,), "x", Truncation(1, 2, 2))


def test_jacobi_trudi_of_a_shape_that_cannot_fit_is_zero_up_front():
    """More rows than variables (h), or a first row longer than the variables
    (e, whose determinant counts tableaux of the conjugate): no column-strict
    filling exists, so the answer is 0 and no determinant is expanded."""
    tr = Truncation(2, 3, 6)
    for lam, variant in ((IP((2, 2, 1, 1)), "h"), (IP((4, 2)), "e")):
        before = _jt_determinant.cache_info()
        got = jacobi_trudi(lam, (3, 3), variant, tr)
        assert (got.trunc, got.terms) == (tr, {}), variant
        assert _jt_determinant.cache_info() == before, variant
        shape = lam if variant == "h" else lam.conjugate()
        assert schur_tableau_sum(shape, (3, 3), tr) == got, variant


def test_mm_multiplicative_refuses_a_multidegree_past_the_cap():
    vp, tr = VectorPartition([(1,), (1,)]), Truncation(1, 2, 1)
    with pytest.raises(TruncationError):
        mm_monomial(vp, tr)
    for basis in ("p", "e", "h"):
        with pytest.raises(TruncationError):
            mm_multiplicative(basis, vp, tr)


def test_generators_refuse_a_wrong_dimension_or_basis():
    tr = Truncation(1, 2, 2)
    with pytest.raises(ValueError, match="vector dimension 2 does not match 1 alphabets"):
        mm_elementary((1, 0), tr)
    with pytest.raises(ValueError, match="no multiplicative basis 'm'"):
        mm_multiplicative("m", VectorPartition([(1,)]), tr)


@pytest.mark.parametrize(
    "build",
    [
        pytest.param(lambda: SetPartition([[1.5], [2]]), id="set-partition-float"),
        pytest.param(lambda: SetPartition([[True], [2]]), id="set-partition-bool"),
        pytest.param(lambda: IP((2.7, 1)), id="int-partition-float"),
        pytest.param(lambda: IP(("2", 1)), id="int-partition-str"),
        pytest.param(lambda: IP((True,)), id="int-partition-bool"),
        pytest.param(lambda: VectorPartition([(1.9, 1)]), id="vector-partition-float"),
        pytest.param(lambda: VectorPartition([(False, True)]), id="vector-partition-bool"),
        pytest.param(lambda: mm_power((1.9,), Truncation(1, 2, 3)), id="mm-power-float"),
        pytest.param(lambda: mm_elementary(("1", 1), Truncation(2, 2, 2)), id="mm-elementary-str"),
        pytest.param(lambda: mm_complete((True, 0), Truncation(2, 2, 2)), id="mm-complete-bool"),
        pytest.param(
            lambda: jacobi_trudi(IP((2, 1)), (2.9, 1.0), "h", Truncation(2, 2, 3)),
            id="jacobi-trudi-float",
        ),
        pytest.param(
            lambda: list(dotted_tableaux(IP((2, 1)), 2, 2, (2.0, 1.0))), id="tableaux-vec-float"
        ),
        pytest.param(
            lambda: list(dotted_tableaux(IP((2, 1)), 2, 2, (True, 2))), id="tableaux-vec-bool"
        ),
        pytest.param(lambda: list(dotted_tableaux(IP((1,)), True, 1)), id="tableaux-max-bool"),
        pytest.param(lambda: list(dotted_tableaux(IP((1,)), 2.5, 1)), id="tableaux-max-float"),
        pytest.param(lambda: list(dotted_tableaux(IP((1,)), 2, 1.0)), id="tableaux-classes-float"),
        pytest.param(lambda: list(dotted_tableaux(IP(()), -3, -1)), id="tableaux-negative"),
        pytest.param(lambda: list(dotted_tableaux(IP((1,)), -3, 1)), id="tableaux-max-negative"),
        pytest.param(lambda: list(dotted_tableaux(IP((1,)), 2, -1)), id="tableaux-classes-below-0"),
    ],
)
def test_non_integer_entries_are_refused(build):
    with pytest.raises(ValueError, match="int"):
        build()


@pytest.mark.parametrize(
    "build",
    [
        pytest.param(lambda: mm_complete((1,), Truncation(1, 2.5, 3)), id="complete-variables"),
        pytest.param(lambda: mm_elementary((1,), Truncation(1, True, 1)), id="elementary-bool"),
        pytest.param(lambda: mm_power((1,), Truncation(True, 2, 3)), id="power-alphabets"),
        pytest.param(
            lambda: mm_monomial(VectorPartition([(1,)]), Truncation(1, 2, 3.0)), id="monomial-cap"
        ),
        pytest.param(
            lambda: mm_multiplicative("h", VectorPartition([(1,)]), Truncation(1, 2, False)),
            id="multiplicative-cap-bool",
        ),
        pytest.param(
            lambda: schur_tableau_sum(IP((2, 1)), (2, 1), Truncation(2, 2.5, 3)), id="schur-float"
        ),
        pytest.param(
            lambda: jacobi_trudi(IP((2, 1)), (2, 1), "e", Truncation(2, 2.5, 3)), id="jt-float"
        ),
        pytest.param(
            lambda: schur_tableau_sum(IP(()), (), Truncation(0, 1, -1)), id="schur-negative-cap"
        ),
        pytest.param(lambda: mm_power((), Truncation(-1, 1, 2)), id="power-negative-alphabets"),
        pytest.param(
            lambda: cauchy_check(Truncation(1, 2.5, 2), Truncation(1, 1, 2), 2), id="cauchy-x"
        ),
        pytest.param(
            lambda: cauchy_check(Truncation(1, 1, 2), Truncation(True, 1, 2), 2), id="cauchy-y"
        ),
        pytest.param(
            lambda: cauchy_check(Truncation(-1, 1, 2), Truncation(1, 1, 2), 2),
            id="cauchy-negative",
        ),
        pytest.param(
            lambda: MultiPolynomial(Truncation(1, 2.5, True), {(((1, 1), 1),): 1}),
            id="polynomial-constructor",
        ),
        pytest.param(lambda: MultiPolynomial.one(Truncation(1, 2.5, 3)), id="polynomial-one"),
    ],
)
def test_truncation_fields_must_be_nonnegative_ints(build):
    with pytest.raises(ValueError, match="truncation fields must be"):
        build()


def test_cauchy_check_refuses_a_degree_past_a_cap_or_not_an_int():
    with pytest.raises(TruncationError, match="exceeds cap 1"):
        cauchy_check(Truncation(1, 1, 2), Truncation(1, 1, 1), 2)
    with pytest.raises(ValueError, match="at least one variable"):
        cauchy_check(Truncation(1, 0, 2), Truncation(1, 1, 2), 2)
    for degree in (-1, 1.5, True):
        with pytest.raises(ValueError, match="degree must be a nonnegative int"):
            cauchy_check(Truncation(1, 1, 2), Truncation(1, 1, 2), degree)


def test_vector_partition_parse_and_str():
    vp = VectorPartition.parse("{[1,0],[0,1]}")
    assert vp.parts == ((1, 0), (0, 1))
    assert str(vp) == "{[1,0],[0,1]}"
    # whitespace around the brackets and commas is allowed, as in every other reader
    for text in ("{[1,0] , [0,1]}", "{ [1,0], [0,1] }"):
        assert VectorPartition.parse(text) == vp
        assert hash(VectorPartition.parse(text)) == hash(vp)
    # only what str writes: no stray or doubled brackets
    for text in ("[[[1,0]]]", "[1,0]]"):
        with pytest.raises(ValueError, match="cannot parse vector partition"):
            VectorPartition.parse(text)
    assert VectorPartition.parse("{[1,0]}") != vp
    assert VectorPartition.parse("{[1,0]}") != ((1, 0),)
    empty = VectorPartition((), dimension=2)
    assert VectorPartition.parse("{}", 2) == VectorPartition.parse("", 2) == empty
    assert str(empty) == "{}" and empty.degree() == 0
    assert vp.multidegree() == (1, 1)
    assert vp.degree() == 2
    with pytest.raises(ValueError):
        VectorPartition([(0, 0)])
    with pytest.raises(ValueError):
        VectorPartition([(1,), (1, 0)])
    with pytest.raises(ValueError, match="dimension required"):
        VectorPartition([])
    with pytest.raises(ValueError, match="do not match the stated dimension"):
        VectorPartition([(1,)], dimension=2)
    with pytest.raises(ValueError, match="cannot parse vector partition"):
        VectorPartition.parse("1,2")


def test_multipolynomial_truncation_rules():
    tr = Truncation(1, 2, 2)
    x1 = MultiPolynomial(tr, {mono((1, 1, 1)): Fraction(1)})
    x2 = MultiPolynomial(tr, {mono((2, 1, 1)): Fraction(1)})
    prod = x1 * x2
    assert prod.terms == {mono((1, 1, 1), (2, 1, 1)): Fraction(1)}
    assert (prod * x1).is_zero()  # degree 3 falls off the cap
    with pytest.raises(TruncationError):
        MultiPolynomial(tr, {mono((1, 1, 3)): Fraction(1)})
    with pytest.raises(TruncationError):
        MultiPolynomial(tr, {mono((3, 1, 1)): Fraction(1)})
    # a multidegree to extract is checked like every other one
    assert prod.extract_multidegree((2,)) == prod
    with pytest.raises(ValueError, match="multidegree dimension 2 does not match 1 alphabets"):
        prod.extract_multidegree((1, 1))
    with pytest.raises(TruncationError, match="degree 3 exceeds cap 2"):
        prod.extract_multidegree((3,))


def test_repeated_variable_exponents_add_up():
    tr = Truncation(1, 2, 2)
    x = MultiPolynomial(tr, {mono((1, 1, 1)): 1})
    repeated = (((1, 1), 1), ((1, 1), 1))
    square = MultiPolynomial(tr, {repeated: 1})
    assert square == x * x
    assert str(square) == "x1'^2"
    assert (x * x).coefficient(repeated) == 1


def test_monomial_is_the_one_normal_form():
    raw = [((2, 1), 1), ((1, 2), 0), ((1, 1), 2), ((2, 1), 3)]
    assert monomial(raw) == (((1, 1), 2), ((2, 1), 4))
    assert monomial([]) == ()
    tr = Truncation(2, 2, 6)
    P = MultiPolynomial(tr, [(raw, 1), (list(reversed(raw)), 2)])
    assert P.terms == {monomial(raw): 3}
    assert P.coefficient(raw) == 3
    for bad in ((((1, 1), -1),), (((1, 1), 0.5),), (((1.0, 1), 1),), (((1, True), 1),)):
        with pytest.raises(ValueError, match="need ints"):
            MultiPolynomial(tr, {bad: 1})


def test_power_sum_of_the_zero_vector_is_one():
    tr = Truncation(2, 2, 3)
    assert mm_power((0, 0), tr) == MultiPolynomial.one(tr)


def test_negative_vectors_and_empty_truncations_are_refused():
    tr = Truncation(2, 2, 3)
    for call in (
        lambda: schur_tableau_sum(IP((2, 1)), (-1, 4), tr),
        lambda: jacobi_trudi(IP((2, 1)), (4, -1), "h", tr),
        lambda: mm_power((-1, 2), tr),
        lambda: list(dotted_tableaux(IP((2, 1)), 2, 2, (-1, 4))),
        lambda: list(dotted_tableaux(IP(()), 2, 2, (-1, 1))),
    ):
        with pytest.raises(ValueError, match="nonnegative"):
            call()
    for variables in (0, -2):
        empty = Truncation(2, variables, 3)
        for call in (
            lambda: schur_tableau_sum(IP((2, 1)), (2, 1), empty),
            lambda: jacobi_trudi(IP((2, 1)), (2, 1), "e", empty),
            lambda: mm_elementary((1, 0), empty),
            lambda: mm_monomial(VectorPartition([(1, 0)]), empty),
        ):
            with pytest.raises(ValueError, match="at least one variable"):
                call()
    # the empty shape still has the empty tableau as its one filling
    assert schur_tableau_sum(IP(()), (), Truncation(0, 1, 0)) == MultiPolynomial.one(
        Truncation(0, 1, 0)
    )


def test_packed_kernels_match_the_tableau_enumeration_to_size_5(verify_all):
    assert verify_all.checks["reference.packed_kernels_match_the_cell_walk"] == (True, "")


def monomials_up_to(trunc):
    """Every monomial of the truncation, by exponent vectors over its variables."""
    keys = [(i, j) for i in range(1, trunc.variables + 1) for j in range(1, trunc.alphabets + 1)]
    for exps in itertools.product(range(trunc.degree + 1), repeat=len(keys)):
        if sum(exps) <= trunc.degree:
            yield tuple((key, e) for key, e in zip(keys, exps) if e)


@pytest.mark.parametrize("cap", [1, 3, 4, 7, 8])  # the edges of the field widths 1, 2, 3 and 4
def test_layout_round_trips_every_monomial(cap):
    tr = Truncation(2, 2, cap)
    layout = unit, top, width = _layout(*tr)
    assert width == cap.bit_length() and top == 4 * width
    codes = set()
    for mono in monomials_up_to(tr):
        code = sum(unit[key] * e for key, e in mono)
        assert code >> top == sum(e for _, e in mono)
        assert _unpack(code, layout) == mono
        codes.add(code)
    assert len(codes) == len(list(monomials_up_to(tr)))


@pytest.mark.parametrize("cap", [1, 3, 4, 7, 8])
def test_products_on_the_cap_are_kept_and_past_it_dropped(cap):
    tr = Truncation(2, 2, cap)
    x, y = (1, 1), (2, 1)  # the variables of the lowest field and of the third
    power = lambda key, e: MultiPolynomial(tr, {((key, e),) if e else (): 1})
    for a in range(cap + 1):
        for b in range(cap + 1):
            got = power(x, a) * power(x, b)  # past the cap, the field of x overflows
            want = {((x, a + b),) if a + b else (): 1} if a + b <= cap else {}
            assert got.terms == want, (a, b)
    left = MultiPolynomial(tr, {((x, 1),): 1, (): 1})
    right = MultiPolynomial(tr, {((x, cap),): 2, ((y, cap - 1),): 3} if cap > 1 else {((x, 1),): 2})
    want = dict(right.terms)
    if cap > 1:
        want[((x, 1), (y, cap - 1))] = 3  # on the cap; x times x^cap is past it
    assert (left * right).terms == want


def test_public_operations_keep_monomial_tuples_as_keys():
    tr = Truncation(2, 3, 4)
    lam, vec = IP((2, 1)), (2, 1)
    results = [
        schur_tableau_sum(lam, vec, tr),
        jacobi_trudi(lam, vec, "h", tr),
        jacobi_trudi(lam, vec, "e", tr),
        mm_power((1, 1), tr),
        mm_elementary((1, 1), tr),
        mm_complete((2, 1), tr),
        mm_monomial(VectorPartition([(1, 0), (1, 1)]), tr),
        mm_multiplicative("h", VectorPartition([(1, 0), (1, 1)]), tr),
        mm_power((1, 0), tr) * mm_complete((1, 1), tr),
        jacobi_trudi(lam, vec, "h", tr) - schur_tableau_sum(IP((3,)), vec, tr),
        3 * mm_elementary((2, 0), tr).extract_multidegree((2, 0)),
    ]
    for poly in results:
        assert poly.terms
        for key in poly.terms:
            assert type(key) is tuple and key == monomial(key), key
            assert all(type(k) is tuple and type(e) is int for k, e in key), key
