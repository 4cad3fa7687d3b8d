"""The dotted layer's value walks against the object walks they replaced.

Each test runs one check of ``ncsym.verify``'s reference suite, which holds
the routes: row insertion by a linear scan per bump, inverse insertion by a
``max`` scan over the row ends, the cell-by-cell tableau walk and the
dot-swap involution by a column scan.  Rows, shapes, columns and entry types
must agree, in the same order, on every input up to the check's size.
"""
import pytest

from ncsym.rsk import Biword
from ncsym.verify import _all_biwords, reference_failures


def test_rsk_forward_matches_the_linear_scan():
    assert not reference_failures("reference.rsk_forward_matches_the_linear_scan")


def test_rsk_inverse_matches_the_max_scan():
    assert not reference_failures("reference.rsk_inverse_matches_the_max_scan")


@pytest.mark.parametrize("n", range(6))
def test_dotted_tableaux_match_the_cell_walk(n):
    assert not reference_failures(f"reference.n{n}.dotted_tableaux_match_the_cell_walk")


@pytest.mark.parametrize("n", range(5))
def test_tableau_sums_match_the_enumeration(n):
    assert not reference_failures(f"reference.n{n}.tableau_sums_match_the_cell_walk")


def test_all_biwords_are_sorted_and_complete():
    for bw in _all_biwords(3, 3, 2):
        assert Biword(bw.columns) == bw
    assert sum(1 for _ in _all_biwords(4, 3, 2)) == 138037


def test_dot_swap_matches_the_column_scan():
    assert not reference_failures("reference.dot_swap_matches_the_column_scan")
