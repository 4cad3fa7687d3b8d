"""The dotted layer's value walks against the object walks they replaced.

Each test reads one check of ``ncsym.verify``'s reference suite from the
session's one ``verify all`` run (the ``verify_all`` fixture).  The suite holds
the routes: row insertion by a linear scan per bump, inverse insertion by a
``max`` scan over the row ends, the cell-by-cell tableau walk and the
dot-swap involution by a column scan.  Rows, shapes, columns and entry types
must agree, in the same order, on every input up to the check's size.
"""
import pytest

from ncsym.rsk import Biword
from ncsym.verify import _all_biwords


def test_rsk_forward_matches_the_linear_scan(verify_all):
    assert verify_all.checks["reference.rsk_forward_matches_the_linear_scan"] == (True, "")


def test_rsk_inverse_matches_the_max_scan(verify_all):
    assert verify_all.checks["reference.rsk_inverse_matches_the_max_scan"] == (True, "")


@pytest.mark.parametrize("n", range(6))
def test_dotted_tableaux_match_the_cell_walk(n, verify_all):
    assert verify_all.checks[f"reference.n{n}.dotted_tableaux_match_the_cell_walk"] == (True, "")


@pytest.mark.parametrize("n", range(5))
def test_tableau_sums_match_the_enumeration(n, verify_all):
    assert verify_all.checks[f"reference.n{n}.tableau_sums_match_the_cell_walk"] == (True, "")


def test_all_biwords_are_sorted_and_complete():
    for bw in _all_biwords(3, 3, 2):
        assert Biword(bw.columns) == bw
    assert sum(1 for _ in _all_biwords(4, 3, 2)) == 138037


def test_dot_swap_matches_the_column_scan(verify_all):
    assert verify_all.checks["reference.dot_swap_matches_the_column_scan"] == (True, "")
