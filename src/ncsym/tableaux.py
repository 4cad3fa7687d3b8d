"""Dotted Young tableaux: fillings by (value, dot-class) pairs.

Entries compare by value only; rows weakly increase and columns strictly
increase in value, so any dot pattern may sit on a run of equal values in a
row.  Dot classes are rendered as prime marks: 2' is value 2 in class 1,
1'' is value 1 in class 2.
"""
from __future__ import annotations

import re
from itertools import accumulate
from typing import Iterable, Iterator, NamedTuple, Sequence

from .intpartitions import IntPartition, _expect


_PRIME = "'"


class DottedEntry(NamedTuple):
    value: int
    dots: int

    def __str__(self) -> str:
        return str(self.value) + _PRIME * self.dots


_ENTRY_RE = re.compile(r"^([0-9]+)('+)$")  # ASCII digits only: \d takes any script's


def _entry(pair) -> DottedEntry:
    """A (value, dot class) pair as an entry; both must be ints >= 1, bools refused.

    Only a DottedEntry (the common case, tested first) or a 2-item tuple or list is unpacked."""
    if type(pair) is DottedEntry or isinstance(pair, (tuple, list)) and len(pair) == 2:
        value, dots = pair
        if type(value) is int and type(dots) is int and value >= 1 and dots >= 1:
            return pair if type(pair) is DottedEntry else DottedEntry(value, dots)
        pair = (value, dots)
    raise ValueError(f"bad entry {pair!r}: value and dot class must be ints >= 1")


def class_counts(entries: Iterable[DottedEntry], classes: int) -> tuple[int, ...]:
    """Count of entries in each dot class 1..classes."""
    counts = [0] * classes
    for e in entries:
        if e.dots > classes:
            raise ValueError(f"entry {e} beyond {classes} dot classes")
        counts[e.dots - 1] += 1
    return tuple(counts)


def parse_entry(token: str) -> DottedEntry:
    m = _ENTRY_RE.match(token.strip())
    if not m:
        raise ValueError(f"cannot parse dotted entry {token!r}")
    return DottedEntry(int(m.group(1)), len(m.group(2)))


class DottedTableau:
    """An immutable filling of a Young shape by dotted entries."""

    __slots__ = ("rows", "shape")

    def __new__(cls, rows: Iterable[Iterable] = ()):
        """Check outside input, then build through ``_make``."""
        rows = tuple(tuple(_entry(e) for e in row) for row in rows)
        lengths = [len(r) for r in rows]
        if any(l == 0 for l in lengths):
            raise ValueError("empty row in tableau")
        if any(lengths[i] < lengths[i + 1] for i in range(len(lengths) - 1)):
            raise ValueError(f"row lengths must weakly decrease: {lengths}")
        for row in rows:
            if any(row[i].value > row[i + 1].value for i in range(len(row) - 1)):
                raise ValueError(f"row not weakly increasing in value: {row}")
        for r in range(1, len(rows)):
            for c in range(len(rows[r])):
                if rows[r - 1][c].value >= rows[r][c].value:
                    raise ValueError(
                        f"column {c + 1} not strictly increasing in value"
                    )
        return cls._make(rows)

    @classmethod
    def _make(cls, rows: Iterable[Iterable], shape: IntPartition | None = None) -> "DottedTableau":
        """The tableau with these rows of entries, which must already form one,
        of ``shape`` when it is given; nothing is checked."""
        self = object.__new__(cls)
        self.rows = tuple(map(tuple, rows))
        self.shape = IntPartition._make(tuple(map(len, self.rows))) if shape is None else shape
        return self

    @classmethod
    def parse(cls, text: str) -> "DottedTableau":
        _expect(str, text)
        rows = []
        for line in text.splitlines():
            line = line.strip()
            if not line:
                continue
            rows.append([parse_entry(tok) for tok in line.split()])
        return cls(rows)

    @property
    def size(self) -> int:
        return self.shape.n

    def entries(self) -> Iterator[DottedEntry]:
        for row in self.rows:
            yield from row

    def multidegree(self, classes: int) -> tuple[int, ...]:
        """Count of entries in each dot class 1..classes."""
        return class_counts(self.entries(), classes)

    def undotted(self) -> tuple[tuple[int, ...], ...]:
        return tuple(tuple(e.value for e in row) for row in self.rows)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, DottedTableau) and self.rows == other.rows

    def __hash__(self) -> int:
        return hash(self.rows)

    def __str__(self) -> str:
        return "\n".join(" ".join(str(e) for e in row) for row in self.rows)

    def __repr__(self) -> str:
        return f"<DottedTableau {self.undotted()}>"


def _fillings(lengths: Sequence[int], max_value: int, classes: int, budget, entry) -> Iterator:
    """The fillings ``dotted_tableaux`` walks, budget[c - 1] entries in class c
    (any number when budget is None), each as one flat row-order list of
    ``entry(value, class)``; the list is reused, so read it before the next."""
    n = sum(lengths)
    # per cell: its left and upper neighbours (n if none: values[n] is 0), its largest value
    near, top = [], []
    for r, length in enumerate(lengths):
        for c in range(length):
            near.append((len(top) - 1 if c else n, len(top) - lengths[r - 1] if r else n))
            top.append(max_value - sum(1 for below in lengths[r + 1 :] if below > c))
    table = [[entry(v, d) for d in range(classes + 1)] for v in range(max_value + 1)]
    counts = list(budget) if budget is not None else [n] * classes
    cells: list = [None] * n
    values = [0] * (n + 1)
    last = n - 1

    def rec(k: int) -> Iterator[list]:
        left, up = near[k]
        for v in range(max(values[left], values[up] + 1), top[k] + 1):
            values[k], row = v, table[v]
            for d in range(1, classes + 1):
                if counts[d - 1]:
                    cells[k] = row[d]
                    if k == last:
                        yield cells
                    else:
                        counts[d - 1] -= 1
                        yield from rec(k + 1)
                        counts[d - 1] += 1

    return rec(0) if n else iter([cells])


def dotted_tableaux(
    shape: IntPartition,
    max_value: int,
    classes: int,
    multidegree: Sequence[int] | None = None,
) -> Iterator[DottedTableau]:
    """All fillings of the shape with values <= max_value, optionally with a
    prescribed per-class entry count.  The arguments are checked on the call."""
    _expect(IntPartition, shape)
    budget = tuple(multidegree) if multidegree is not None else None
    counts = (max_value, classes, *(budget or ()))
    if not all(type(v) is int and v >= 0 for v in counts) or (  # no bools
        budget is not None and (len(budget) != classes or sum(budget) != shape.n)
    ):
        raise ValueError(
            f"need nonnegative int max_value and classes, got {max_value!r} and {classes!r}, and"
            f" a multidegree of {classes} nonnegative ints summing to {shape.n}, got {budget!r}"
        )
    spans = list(zip(shape.parts, accumulate(shape.parts)))
    return (
        DottedTableau._make([cells[end - length : end] for length, end in spans], shape)
        for cells in _fillings(shape.parts, max_value, classes, budget, DottedEntry)
    )


def dot_swap_involution(tab: DottedTableau, i: int) -> DottedTableau:
    """Exchange, per dot class, the counts of value i and value i+1.

    Values strictly increase down a column, so an i and an i+1 share a column
    only in adjacent rows: such a pair keeps its values and trades dot
    classes.  The remaining (free) i's and (i+1)'s in a row form one
    contiguous run; flipping each free entry on its own would break the weak
    row order, so the run of r free i's followed by s free (i+1)'s becomes s
    i's followed by r (i+1)'s, the dot sequences moving across unchanged.
    """
    _expect(DottedTableau, tab)
    if type(i) is not int or i < 1:  # a bool or a float is no value
        raise ValueError(f"value must be a positive int, got {i!r}")
    rows, out = tab.rows, []
    for r, row in enumerate(rows):
        above, below = rows[r - 1] if r else (), rows[r + 1] if r + 1 < len(rows) else ()
        new, free = list(row), []
        for c, e in enumerate(row):
            if e.value == i and c < len(below) and below[c].value == i + 1:
                new[c] = DottedEntry(i, below[c].dots)
            elif e.value == i + 1 and above and above[c].value == i:
                new[c] = DottedEntry(i + 1, above[c].dots)
            elif e.value in (i, i + 1):
                free.append(c)
        run = [row[c] for c in free]
        k = sum(e.value == i for e in run)  # the free i's, which come first
        for c, e in zip(free, run[k:] + run[:k]):  # the (i+1)'s, then the i's, values flipped
            new[c] = DottedEntry(2 * i + 1 - e.value, e.dots)
        out.append(new)
    return DottedTableau._make(out, tab.shape)
