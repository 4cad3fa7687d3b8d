"""Row insertion for biwords over the dotted alphabet.

Insertion compares values only and bumps the leftmost entry strictly greater,
so equal values never bump; each displaced entry keeps its own dot class.
A row is just its list of entries; their values weakly increase, so bisection
keyed on the value finds the spot.
The recording tableau receives the top entry of the biword column verbatim.
"""
from __future__ import annotations

from bisect import bisect_left, bisect_right
from operator import attrgetter
from typing import Iterable

from .intpartitions import IntPartition, _expect
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
        _expect(str, text)
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
