"""Row insertion for biwords over the dotted alphabet, and the Cauchy check.

Insertion compares values only and bumps the leftmost entry strictly greater,
so equal values never bump; each displaced entry keeps its own dot class.
A row is just its list of entries; their values weakly increase, so bisection
keyed on the value finds the spot.
The recording tableau receives the top entry of the biword column verbatim.
"""
from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections import Counter
from dataclasses import dataclass, field
from itertools import product
from operator import attrgetter
from typing import Iterable

from .intpartitions import IntPartition, _expect, int_partitions
from .macmahon import Truncation, format_monomial
from .macmahon import _check_truncation, _layout, _packed, _tableau_sum, _times, _unpack
from .tableaux import DottedEntry, DottedTableau, _entry, class_counts, parse_entry

_value = attrgetter("value")


class Biword:
    """Two rows of dotted letters, columns weakly lex-sorted on values only.

    The top row takes precedence in the ordering; equal value columns may
    carry any dot pattern and all of them are distinct biwords.
    """

    __slots__ = ("columns",)

    def __new__(cls, columns: Iterable[tuple] = ()):
        """Check outside input, then build through ``_make``."""
        checked = []
        for col in columns:
            if not (isinstance(col, (tuple, list)) and len(col) == 2):
                raise ValueError(f"bad column {col!r}: a (top, bottom) pair of entries")
            checked.append((_entry(col[0]), _entry(col[1])))
        columns = tuple(checked)
        values = [(t.value, b.value) for t, b in columns]
        if any(values[i] > values[i + 1] for i in range(len(values) - 1)):
            raise ValueError(f"columns not sorted on values: {values}")
        return cls._make(columns)

    @classmethod
    def _make(cls, columns: Iterable[tuple[DottedEntry, DottedEntry]]) -> "Biword":
        """The biword with these (top, bottom) columns, which must already be
        sorted on values; nothing is checked."""
        self = object.__new__(cls)
        self.columns = tuple(columns)
        return self

    @classmethod
    def parse(cls, text: str) -> "Biword":
        """Top row, then bottom row; blank or whitespace-only lines are skipped."""
        lines = [line.split() for line in text.splitlines() if line.strip()]
        if not lines:
            return cls()
        if len(lines) != 2:
            raise ValueError("a biword needs exactly two lines (top row, bottom row)")
        top, bottom = ([parse_entry(tok) for tok in line] for line in lines)
        if len(top) != len(bottom):
            raise ValueError("rows of unequal length")
        return cls(zip(top, bottom))

    @property
    def top(self) -> tuple[DottedEntry, ...]:
        return tuple(t for t, _ in self.columns)

    @property
    def bottom(self) -> tuple[DottedEntry, ...]:
        return tuple(b for _, b in self.columns)

    def multidegree(self, classes: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """Dot-class counts of the bottom row, then of the top row."""
        return class_counts(self.bottom, classes), class_counts(self.top, classes)

    def __len__(self) -> int:
        return len(self.columns)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Biword) and self.columns == other.columns

    def __hash__(self) -> int:
        return hash(self.columns)

    def __str__(self) -> str:
        return (
            " ".join(str(t) for t, _ in self.columns)
            + "\n"
            + " ".join(str(b) for _, b in self.columns)
        )

    def __repr__(self) -> str:
        return f"<Biword of length {len(self.columns)}>"


def rsk_forward(biword: Biword) -> tuple[DottedTableau, DottedTableau]:
    """Insert the bottom row, record the top row; dots ride along unchanged."""
    _expect(Biword, biword)
    rows: list[tuple[list, list]] = []  # insertion row, recording row
    for top, entry in biword.columns:
        for row, recorded in rows:
            spot = bisect_right(row, entry.value, key=_value)
            if spot == len(row):
                break
            entry, row[spot] = row[spot], entry
        else:
            row, recorded = [], []
            rows.append((row, recorded))
        row.append(entry)
        recorded.append(top)
    insertion, recording = zip(*rows) if rows else ((), ())
    shape = IntPartition._make(tuple(map(len, insertion)))
    return DottedTableau._make(insertion, shape), DottedTableau._make(recording, shape)


def rsk_inverse(tab: DottedTableau, rec: DottedTableau) -> Biword:
    """Reverse the insertion; errors if the pair is not a same-shape tableau pair."""
    _expect(DottedTableau, tab, rec)
    if tab.shape != rec.shape:
        raise ValueError(f"shapes differ: {tab.shape} vs {rec.shape}")
    insertion = [list(row) for row in tab.rows]
    # reverse recording order: equal values are recorded left to right
    cells = sorted(
        ((e.value, c, r) for r, row in enumerate(rec.rows) for c, e in enumerate(row)),
        reverse=True,
    )
    columns: list[tuple[DottedEntry, DottedEntry]] = []
    for _, c, r in cells:
        carry = insertion[r].pop()
        for above in range(r - 1, -1, -1):
            row = insertion[above]
            spot = bisect_left(row, carry.value, key=_value) - 1  # rightmost smaller value
            carry, row[spot] = row[spot], carry
        columns.append((rec.rows[r][c], carry))
    return Biword._make(reversed(columns))


@dataclass
class CauchyReport:
    """Outcome of comparing the tableau pairing sum with the product side."""

    ok: bool
    degree: int
    mismatches: list[str] = field(default_factory=list)


def cauchy_check(x_trunc: Truncation, y_trunc: Truncation, degree: int) -> CauchyReport:
    """Compare, degree by degree, the two sides of the pairing identity.

    Left side: over each x-degree m <= degree, the sum over shapes of the
    tableau generating function in the x variables times the one in the y
    variables.  Right side: the product over subscript pairs (i, j) of the
    geometric series in z_ij = sum_{k,l} x_i^(k) y_j^(l), up to z_ij^degree.

    Both sides are packed polynomials in one joint truncation: x keeps its
    alphabets 1..a, y moves to a+1..a+b, each alphabet has as many subscripts
    as the larger of the two, and the cap is 2 * degree.  That cap cuts
    exactly at x-degree <= degree, because every term on either side has
    equal x- and y-degree: each tableau pair has one shape, each z_ij one x
    and one y variable.  The caps of x_trunc and y_trunc must reach degree.
    """
    if type(degree) is not int or degree < 0:
        raise ValueError(f"degree must be a nonnegative int, got {degree!r}")
    _check_truncation(x_trunc, degree)
    _check_truncation(y_trunc, degree)
    a = x_trunc.alphabets
    joint = Truncation(
        a + y_trunc.alphabets, max(x_trunc.variables, y_trunc.variables), 2 * degree
    )

    layout = unit, top, _ = _layout(*joint)
    lhs: Counter = Counter()  # both sides keep packed codes; only mismatches are decoded
    walk_y = x_trunc[:2] != y_trunc[:2]  # a shape's sum depends only on alphabets and variables
    for m in range(degree + 1):
        for lam in int_partitions(m):
            fx = _tableau_sum(lam, None, x_trunc).terms
            fy = _tableau_sum(lam, None, y_trunc).terms if walk_y else fx
            lhs.update(_times(_packed(fx, unit), _packed(fy, unit, a), top, joint.degree))

    rhs = {0: 1}
    for i in range(1, x_trunc.variables + 1):
        for j in range(1, y_trunc.variables + 1):
            pairs = product(range(1, a + 1), range(a + 1, joint.alphabets + 1))
            z = {unit[i, k] + unit[j, l]: 1 for k, l in pairs}  # each x_i^(k) y_j^(l)
            series = power = {0: 1}
            for _ in range(degree):  # z has degree 2: at degree 0 it is outside the cap
                power = _times(power, z, top, joint.degree)
                series = {**series, **power}  # the powers have distinct degrees
            rhs = _times(rhs, series, top, joint.degree)

    def split(mono):
        """The x part, and the y part moved back to alphabets 1..b, of a joint monomial."""
        x = tuple(((i, j), e) for (i, j), e in mono if j <= a)
        return x, tuple(((i, j - a), e) for (i, j), e in mono if j > a)

    differ = (code for code in lhs.keys() | rhs.keys() if lhs[code] != rhs.get(code, 0))
    mismatches = [
        f"x:[{format_monomial(x)}] y:[{format_monomial(y)}]: "
        f"tableau side {lhs[code]}, product side {rhs.get(code, 0)}"
        for (x, y), code in sorted((split(_unpack(code, layout)), code) for code in differ)
    ]
    return CauchyReport(not mismatches, degree, mismatches)
