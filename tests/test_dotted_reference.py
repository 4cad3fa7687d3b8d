"""The dotted layer's value walks against the object walks they replaced.

The reference functions below are the earlier production code: row insertion
by a linear scan per bump, inverse insertion by a ``max`` scan over the row
ends for every removed cell, the cell-by-cell tableau walk that builds a
tableau at every leaf, and the dot-swap involution that scans every row of
every column for its pairs.  The production code must give the same rows,
shapes, columns and entry types, in the same order, on every input up to the
sizes below.
"""
import itertools

import pytest

from ncsym.intpartitions import IntPartition, int_partitions, weak_compositions
from ncsym.macmahon import (
    MultiPolynomial,
    Truncation,
    _tableau_sum,
    monomial,
    schur_tableau_sum,
)
from ncsym.rsk import Biword, rsk_forward, rsk_inverse
from ncsym.tableaux import DottedEntry, dot_swap_involution, dotted_tableaux
from ncsym.verify import _all_biwords


def reference_insert(rows, entry):
    """Row-insert by value; returns the row that grew."""
    for r, row in enumerate(rows):
        spot = next((c for c, e in enumerate(row) if e.value > entry.value), None)
        if spot is None:
            row.append(entry)
            return r
        entry, row[spot] = row[spot], entry
    rows.append([entry])
    return len(rows) - 1


def reference_rsk_forward(columns):
    """Insertion and recording rows of a biword's columns."""
    insertion, recording = [], []
    for top, bottom in columns:
        r = reference_insert(insertion, bottom)
        if r == len(recording):
            recording.append([])
        recording[r].append(top)
    return tuple(map(tuple, insertion)), tuple(map(tuple, recording))


def reference_rsk_inverse(tab_rows, rec_rows):
    """The biword columns of a same-shape pair of tableau rows."""
    insertion = [list(row) for row in tab_rows]
    recording = [list(row) for row in rec_rows]
    columns = []
    for _ in range(sum(map(len, tab_rows))):
        r = max(range(len(recording)), key=lambda r: (recording[r][-1].value, len(recording[r])))
        top = recording[r].pop()
        carry = insertion[r].pop()
        if not recording[r]:
            recording.pop()
            insertion.pop()
        for above in range(r - 1, -1, -1):
            row = insertion[above]
            spot = max(c for c, e in enumerate(row) if e.value < carry.value)
            carry, row[spot] = row[spot], carry
        columns.append((top, carry))
    return tuple(reversed(columns))


def reference_dotted_tableaux(lengths, max_value, classes, multidegree=None):
    """The rows of every filling, walked cell by cell."""
    budget = list(multidegree) if multidegree is not None else None
    rows = [[] for _ in lengths]

    def rec(r, c):
        if r == len(lengths):
            yield tuple(map(tuple, rows))
            return
        nr, nc = (r, c + 1) if c + 1 < lengths[r] else (r + 1, 0)
        lo = rows[r][c - 1].value if c > 0 else 1
        if r > 0:
            lo = max(lo, rows[r - 1][c].value + 1)
        for v in range(lo, max_value + 1):
            for cls in range(1, classes + 1):
                if budget is not None:
                    if budget[cls - 1] == 0:
                        continue
                    budget[cls - 1] -= 1
                rows[r].append(DottedEntry(v, cls))
                yield from rec(nr, nc)
                rows[r].pop()
                if budget is not None:
                    budget[cls - 1] += 1

    yield from rec(0, 0)


def reference_dot_swap(tab_rows, i):
    """The dot-swap involution's rows: a column holding an i and an i+1 trades
    their dot classes, and each row's free run of i's and (i+1)'s is rewritten."""
    rows = [list(row) for row in tab_rows]
    width = len(rows[0]) if rows else 0
    paired = set()
    for c in range(width):
        hit_i = hit_i1 = None
        for r in range(len(rows)):
            if c < len(rows[r]):
                if rows[r][c].value == i:
                    hit_i = r
                elif rows[r][c].value == i + 1:
                    hit_i1 = r
        if hit_i is not None and hit_i1 is not None:
            a, b = rows[hit_i][c], rows[hit_i1][c]
            rows[hit_i][c] = DottedEntry(i, b.dots)
            rows[hit_i1][c] = DottedEntry(i + 1, a.dots)
            paired.add((hit_i, c))
            paired.add((hit_i1, c))
    for r, row in enumerate(rows):
        free_i = [c for c, e in enumerate(row) if e.value == i and (r, c) not in paired]
        free_i1 = [c for c, e in enumerate(row) if e.value == i + 1 and (r, c) not in paired]
        new_entries = [DottedEntry(i, row[c].dots) for c in free_i1]
        new_entries += [DottedEntry(i + 1, row[c].dots) for c in free_i]
        for c, e in zip(free_i + free_i1, new_entries):
            row[c] = e
    return tuple(map(tuple, rows))


def assert_tableau(tab, rows):
    assert tab.rows == rows
    assert all(type(row) is tuple for row in tab.rows)
    assert all(type(e) is DottedEntry for e in tab.entries())
    assert tab.shape == IntPartition(map(len, rows))
    assert tab.shape.parts == tuple(map(len, rows)) and tab.shape.n == len(list(tab.entries()))


def test_rsk_forward_matches_the_linear_scan():
    for bw in _all_biwords(3, 3, 2):
        T, U = rsk_forward(bw)
        ins, rec = reference_rsk_forward(bw.columns)
        assert_tableau(T, ins)
        assert_tableau(U, rec)


def test_rsk_inverse_matches_the_max_scan():
    for bw in _all_biwords(3, 3, 2):
        back = rsk_inverse(*rsk_forward(bw))
        assert back.columns == reference_rsk_inverse(*reference_rsk_forward(bw.columns))
        assert all(type(e) is DottedEntry for col in back.columns for e in col)
    for total in range(4):
        for shape in int_partitions(total):
            tableaux = list(dotted_tableaux(shape, 3, 2))
            for T, U in itertools.product(tableaux, repeat=2):
                back = rsk_inverse(T, U)
                assert type(back) is Biword and type(back.columns) is tuple
                assert back.columns == reference_rsk_inverse(T.rows, U.rows)


@pytest.mark.parametrize("n", range(6))
def test_dotted_tableaux_match_the_cell_walk(n):
    for shape in int_partitions(n):
        for max_value, classes in itertools.product(range(4), (1, 2)):
            for vec in [None, *weak_compositions(n, classes)]:
                got = list(dotted_tableaux(shape, max_value, classes, vec))
                expected = list(reference_dotted_tableaux(shape.parts, max_value, classes, vec))
                assert len(got) == len(expected)
                for tab, rows in zip(got, expected):
                    assert_tableau(tab, rows)
                    assert tab.shape == shape


def enumerated_sum(shape, trunc, vec=None):
    """The tableau generating function summed over the reference enumeration."""
    terms = {}
    for rows in reference_dotted_tableaux(shape.parts, trunc.variables, trunc.alphabets, vec):
        mono = monomial(((e.value, e.dots), 1) for row in rows for e in row)
        terms[mono] = terms.get(mono, 0) + 1
    return MultiPolynomial(trunc, terms)


@pytest.mark.parametrize("n", range(5))
def test_tableau_sums_match_the_enumeration(n):
    for shape in int_partitions(n):
        for alphabets, variables in itertools.product((1, 2), (1, 2, 3)):
            trunc = Truncation(alphabets, variables, n)
            every = _tableau_sum(shape, None, trunc)
            assert every.terms == enumerated_sum(shape, trunc).terms
            assert every.trunc == trunc
            # the keys are plain ((value, dots), exponent) tuples, as monomial() makes them
            assert all(type(var) is tuple for mono in every.terms for var, _ in mono)
            for vec in weak_compositions(n, alphabets):
                got = schur_tableau_sum(shape, vec, trunc)
                assert got.terms == enumerated_sum(shape, trunc, vec).terms
                assert got.trunc == trunc


def test_all_biwords_are_sorted_and_complete():
    for bw in _all_biwords(3, 3, 2):
        assert Biword(bw.columns) == bw
    assert sum(1 for _ in _all_biwords(4, 3, 2)) == 138037


def test_dot_swap_matches_the_column_scan():
    cases = 0
    for n in range(6):
        for shape in int_partitions(n):
            for tab in dotted_tableaux(shape, 4, 2):
                for i in (1, 2, 3):
                    image = dot_swap_involution(tab, i)
                    assert image.rows == reference_dot_swap(tab.rows, i)
                    assert image.shape == shape
                    cases += 1
    assert cases == 31803
