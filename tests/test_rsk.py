import itertools
import re
import time

import pytest

from ncsym.intpartitions import int_partitions
from ncsym import macmahon
from ncsym.macmahon import Truncation, _tableau_sum as tableau_sum, cauchy_check
from ncsym.rsk import Biword, rsk_forward, rsk_inverse
from ncsym.tableaux import DottedEntry, DottedTableau, dot_swap_involution, dotted_tableaux
from ncsym.verify import _all_biwords

E = DottedEntry


def test_worked_example():
    bw = Biword.parse("1' 2' 2'' 2' 3'' 4'\n2' 1'' 3'' 3' 2'' 1'")
    T, U = rsk_forward(bw)
    assert T == DottedTableau([[(1, 2), (1, 1), (3, 1)], [(2, 1), (2, 2)], [(3, 2)]])
    # recording dots come verbatim from the top row, so the last cell is 4'
    assert U == DottedTableau([[(1, 1), (2, 2), (2, 1)], [(2, 1), (3, 2)], [(4, 1)]])
    assert rsk_inverse(T, U) == bw


def test_empty_and_single_column():
    empty = Biword()
    T, U = rsk_forward(empty)
    assert T.size == 0 and U.size == 0
    assert rsk_inverse(T, U) == empty
    bw = Biword([(E(1, 2), E(3, 1))])
    T, U = rsk_forward(bw)
    assert T == DottedTableau([[(3, 1)]])
    assert U == DottedTableau([[(1, 2)]])


def test_biword_validation_and_text_forms():
    with pytest.raises(ValueError):
        Biword([(E(2, 1), E(1, 1)), (E(1, 1), E(1, 1))])  # tops decrease
    with pytest.raises(ValueError):
        Biword([(E(1, 1), E(2, 1)), (E(1, 1), E(1, 1))])  # bottoms decrease on a tie
    bw = Biword.parse("1' 1''\n1'' 2'")
    assert str(bw) == "1' 1''\n1'' 2'"
    assert Biword.parse(str(bw)) == bw
    assert len(bw) == 2 and len(Biword()) == 0
    assert {bw, Biword.parse(str(bw)), Biword()} == {bw, Biword()}  # equal biwords hash alike
    T, U = rsk_forward(bw)
    assert {T, DottedTableau.parse(str(T)), U} == {T, U}  # and so do equal tableaux
    with pytest.raises(ValueError):
        Biword.parse("1'\n")  # rows of unequal length
    with pytest.raises(ValueError):
        Biword.parse("1x\n2'")


def test_entries_must_be_positive_ints():
    bad = [(1.5, 1), (0, 0), (1, True), (True, 1), (1.7, 1), (2, 0), ("1", 1)]
    for entry in bad:
        with pytest.raises(ValueError, match=re.escape(repr(entry))):
            Biword([(entry, (2, 1))])
        with pytest.raises(ValueError, match=re.escape(repr(entry))):
            Biword([((1, 1), entry)])
        with pytest.raises(ValueError, match=re.escape(repr(entry))):
            DottedTableau([[entry]])
    for entry in [1, None, "11", (1,), (1, 1, 1), [1], {1: 1, 2: 1}]:
        with pytest.raises(ValueError, match="bad entry"):
            DottedTableau([[entry]])
        with pytest.raises(ValueError, match="bad entry"):
            Biword([(entry, (2, 1))])
    with pytest.raises(ValueError, match="bad entry 1:"):
        Biword([(1, 1)])
    for column in [((1, 1),), ((1, 1), (1, 1), (1, 1)), 1]:
        with pytest.raises(ValueError, match="bad column"):
            Biword([column])
    # a parsed entry is refused as the (value, dots) pair, not as a DottedEntry repr
    with pytest.raises(ValueError, match=re.escape("bad entry (0, 1):")):
        DottedTableau.parse("0'")
    with pytest.raises(ValueError, match=re.escape("bad entry (0, 1):")):
        Biword.parse("1'\n0'")
    with pytest.raises(ValueError, match=re.escape("bad entry (0, 1):")):
        DottedTableau([[[0, 1]]])
    with pytest.raises(ValueError):
        rsk_forward(Biword([((1.5, 1), (2, 1))]))
    assert str(DottedTableau([[(1, 2)]])) == "1''"


def test_multidegree_preserved():
    bw = Biword.parse("1' 1'' 2'\n1'' 2' 1'")
    T, U = rsk_forward(bw)
    bottom, top = bw.multidegree(2)
    assert T.multidegree(2) == bottom
    assert U.multidegree(2) == top


def test_multidegree_refuses_a_class_beyond_the_count():
    bw = Biword.parse("1'''\n1'")
    with pytest.raises(ValueError, match=re.escape("entry 1''' beyond 2 dot classes")):
        bw.multidegree(2)
    assert Biword.parse("1'\n1'''").multidegree(3) == ((0, 0, 1), (1, 0, 0))
    with pytest.raises(ValueError, match=re.escape("entry 2'' beyond 1 dot classes")):
        DottedTableau.parse("1' 2''").multidegree(1)


def test_tie_dot_orders_stay_distinct():
    a = Biword([(E(1, 1), E(1, 1)), (E(1, 1), E(1, 2))])
    b = Biword([(E(1, 1), E(1, 2)), (E(1, 1), E(1, 1))])
    assert rsk_forward(a) != rsk_forward(b)
    assert rsk_inverse(*rsk_forward(a)) == a
    assert rsk_inverse(*rsk_forward(b)) == b


def test_exhaustive_small_roundtrip(verify_all):
    # every biword of length <= 4 over values <= 3 and two dot classes
    for name in (
        "forward_shape_and_multidegree",
        "inverse_after_forward_is_identity",
        "undotting_commutes_with_insertion",
    ):
        assert verify_all.checks[f"rsk.{name}"] == (True, "")


def test_exhaustive_pairs_roundtrip(verify_all):
    # every pair of same-shape dotted tableaux of size <= 4 over values <= 3
    assert verify_all.checks["rsk.forward_after_inverse_is_identity"] == (True, "")


def test_inverse_validation():
    T = DottedTableau([[(1, 1)]])
    U = DottedTableau([[(1, 1), (1, 1)]])
    with pytest.raises(ValueError):
        rsk_inverse(T, U)


def test_cauchy_small():
    assert cauchy_check(Truncation(1, 1, 0), Truncation(1, 1, 0), 0).ok
    report = cauchy_check(Truncation(1, 1, 1), Truncation(1, 1, 1), 1)
    assert report.ok
    report = cauchy_check(Truncation(2, 2, 2), Truncation(2, 2, 2), 2)
    assert report.ok, report.mismatches[:3]


def test_cauchy_walks_each_shape_once_when_x_and_y_share_alphabets_and_variables(monkeypatch):
    walked = []

    def counting_sum(lam, vec_m, trunc):
        walked.append((lam, trunc))
        return tableau_sum(lam, vec_m, trunc)

    monkeypatch.setattr(macmahon, "_tableau_sum", counting_sum)
    shapes = sum(len(int_partitions(m)) for m in range(4))
    assert cauchy_check(Truncation(2, 2, 3), Truncation(2, 2, 5), 3).ok
    assert len(walked) == shapes
    walked.clear()
    assert cauchy_check(Truncation(2, 2, 3), Truncation(1, 2, 3), 3).ok
    assert len(walked) == 2 * shapes


def test_cauchy_reports_degree():
    report = cauchy_check(Truncation(1, 2, 2), Truncation(1, 1, 2), 2)
    assert report.degree == 2
    assert report.ok


def test_cauchy_asymmetric_truncations():
    start = time.perf_counter()
    for degree in range(4):
        for ax, kx, ay, ky in itertools.product((1, 2), repeat=4):
            if (ax, kx) == (ay, ky):
                continue
            report = cauchy_check(Truncation(ax, kx, degree), Truncation(ay, ky, degree), degree)
            assert report.ok, ((ax, kx), (ay, ky), degree, report.mismatches[:3])
            assert report.degree == degree
    assert time.perf_counter() - start < 1.0


def refusal(call):
    with pytest.raises(ValueError) as info:
        call()
    return str(info.value)


def test_boundary_refusals_name_the_fault():
    decreasing = "(DottedEntry(value=2, dots=1), DottedEntry(value=1, dots=1))"
    tableau_cases = [
        ([[]], None, "empty row in tableau"),
        ([[(1, 1)], [(2, 1), (3, 1)]], "1'\n2' 3'", "row lengths must weakly decrease: [1, 2]"),
        ([[(2, 1), (1, 1)]], "2' 1'", f"row not weakly increasing in value: {decreasing}"),
        ([[(1, 1), (2, 1)], [(2, 2), (2, 1)]], "1' 2'\n2'' 2'",
         "column 2 not strictly increasing in value"),
    ]
    for rows, text, message in tableau_cases:
        assert refusal(lambda: DottedTableau(rows)) == message
        if text is not None:
            assert refusal(lambda: DottedTableau.parse(text)) == message
    unsorted = "columns not sorted on values: [(2, 1), (1, 1)]"
    assert refusal(lambda: Biword([((2, 1), (1, 1)), ((1, 1), (1, 1))])) == unsorted
    assert refusal(lambda: Biword.parse("2' 1'\n1' 1'")) == unsorted
    tie = "columns not sorted on values: [(1, 2), (1, 1)]"
    assert refusal(lambda: Biword.parse("1' 1'\n2' 1'")) == tie
    assert refusal(lambda: Biword.parse("1' 2'\n1'")) == "rows of unequal length"
    two_lines = "a biword needs exactly two lines (top row, bottom row)"
    for text in ("1'", "1'\n", "1'\n2'\n3'"):
        assert refusal(lambda: Biword.parse(text)) == two_lines


def assert_canonical_tableau(tab):
    """Built as the validating constructor would build it from the same rows."""
    rebuilt = DottedTableau(tab.rows)
    assert (rebuilt.rows, rebuilt.shape) == (tab.rows, tab.shape)
    assert type(tab.rows) is tuple and all(type(row) is tuple for row in tab.rows)
    assert all(type(e) is DottedEntry for e in tab.entries())


def assert_canonical_biword(bw):
    assert Biword(bw.columns).columns == bw.columns
    assert type(bw.columns) is tuple
    assert all(
        type(col) is tuple and [type(e) for e in col] == [DottedEntry] * 2
        for col in bw.columns
    )


def test_computed_tableaux_and_biwords_are_canonical():
    for total in range(5):
        for shape in int_partitions(total):
            for tab in dotted_tableaux(shape, 3, 2):
                assert_canonical_tableau(tab)
                for i in (1, 2):
                    assert_canonical_tableau(dot_swap_involution(tab, i))
    for bw in _all_biwords(3, 3, 2):
        for tab in rsk_forward(bw):
            assert_canonical_tableau(tab)
    for total in range(4):
        for shape in int_partitions(total):
            tableaux = list(dotted_tableaux(shape, 3, 2))
            for T in tableaux:
                for U in tableaux:
                    assert_canonical_biword(rsk_inverse(T, U))


def test_whitespace_only_lines_are_blank():
    bw = Biword.parse("1' 2''\n2' 1'")
    for text in ("\n1' 2''\n2' 1'\n", "  \n1' 2''\n \t\n2' 1'\n  \n"):
        assert Biword.parse(text) == bw
    assert Biword.parse(" \n\n") == Biword()
    assert DottedTableau.parse(" \n1' 2''\n  \n2'\n") == DottedTableau([[(1, 1), (2, 2)], [(2, 1)]])


def test_cauchy_reports_each_mismatch_decoded_and_sorted(monkeypatch):
    def doubled(lam, vec_m, trunc):  # a wrong tableau side: twice each degree-1 sum
        return tableau_sum(lam, vec_m, trunc) * (2 if lam.n == 1 else 1)

    monkeypatch.setattr(macmahon, "_tableau_sum", doubled)
    report = cauchy_check(Truncation(1, 2, 1), Truncation(1, 2, 1), 1)
    assert not report.ok and report.degree == 1
    assert report.mismatches == [
        f"x:[{x}] y:[{y}]: tableau side 4, product side 1"
        for x in ("x1'", "x2'")
        for y in ("x1'", "x2'")
    ]
