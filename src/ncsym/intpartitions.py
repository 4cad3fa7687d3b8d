"""Integer partitions with factorial statistics, dominance order and Kostka numbers.

There is one object per partition: every route, copies and pickles too, ends
in the trusted builder ``IntPartition._make``, which builds only for parts it
has not seen, so equality and hashing are ``object``'s, by identity, and run
in C.  All values are immutable and all operations are pure.
"""
from __future__ import annotations

from functools import lru_cache
from itertools import product
from math import factorial
from typing import Iterable, Iterator


def _check_size(n) -> None:
    """Refuse a size that is a bool, not an int, or negative."""
    if type(n) is not int or n < 0:
        raise ValueError(f"n must be a nonnegative int, got {n!r}")


def ascii_int(text: str) -> int:
    """The int that text writes in ASCII digits, with an optional leading "-" and
    surrounding whitespace.  Unlike int(), it refuses any other script's digits,
    a "+" and a "_", so every reader takes the integers it prints, and only those."""
    s = text.strip()
    digits = s[1:] if s.startswith("-") else s
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError(f"not an integer in ASCII digits: {text!r}")
    return int(s)


def _expect(cls: type, *args) -> None:
    """Refuse an argument of the wrong class with a TypeError naming cls."""
    for x in args:
        if not isinstance(x, cls):
            raise TypeError(f"expected {cls.__name__}, got {type(x).__name__}")


# parts -> their one IntPartition; filled by IntPartition._make only
_INTERNED: dict[tuple[int, ...], "IntPartition"] = {}


class IntPartition:
    """Weakly decreasing positive integers, one object per value; () is the partition of 0."""

    __slots__ = ("parts", "_n")

    def __new__(cls, parts: Iterable[int] = ()):
        """Check outside input, then build through ``_make``."""
        parts = tuple(parts)
        if not all(type(p) is int and p > 0 for p in parts):  # a bool is no part
            raise ValueError(f"parts must be positive integers: {parts!r}")
        return cls._make(tuple(sorted(parts, reverse=True)))

    @classmethod
    def _make(cls, parts: tuple[int, ...]) -> "IntPartition":
        """These parts, a tuple of positive ints in weakly decreasing order; nothing is checked."""
        self = _INTERNED.get(parts)
        if self is None:
            self = object.__new__(cls)
            self.parts, self._n = parts, sum(parts)
            # built first, then stored in one step: threads racing here get one object
            self = _INTERNED.setdefault(parts, self)
        return self

    def __reduce__(self):
        """Copies and pickles rebuild through the table, so they are this object."""
        return IntPartition._make, (self.parts,)

    @classmethod
    def parse(cls, text: str) -> "IntPartition":
        _expect(str, text)
        s = text.strip()
        for opener, closer in (("(", ")"), ("[", "]")):
            if s.startswith(opener) and s.endswith(closer):
                s = s[1:-1].strip()
                break
        if not s:
            return cls()
        try:
            return cls(ascii_int(tok) for tok in s.split(","))
        except ValueError:
            raise ValueError(f"cannot parse integer partition from {text!r}") from None

    @property
    def n(self) -> int:
        return self._n

    @property
    def length(self) -> int:
        return len(self.parts)

    def multiplicities(self) -> dict[int, int]:
        """Multiplicity m_i of each part value i."""
        mult: dict[int, int] = {}
        for p in self.parts:
            mult[p] = mult.get(p, 0) + 1
        return mult

    def fact_parts(self) -> int:
        """Product of the factorials of the parts."""
        out = 1
        for p in self.parts:
            out *= factorial(p)
        return out

    def fact_mults(self) -> int:
        """Product of the factorials of the part multiplicities."""
        out = 1
        for m in self.multiplicities().values():
            out *= factorial(m)
        return out

    def count_of_type(self) -> int:
        """Number of set partitions of [n] whose block sizes give this partition."""
        return factorial(self._n) // (self.fact_parts() * self.fact_mults())

    def dominates(self, other: "IntPartition") -> bool:
        """Prefix-sum dominance; both partitions must have the same size."""
        if not isinstance(other, IntPartition):
            raise TypeError(f"dominance needs an IntPartition, got {other!r}")
        if self._n != other._n:
            raise ValueError(f"dominance needs equal sizes: {self} vs {other}")
        acc_self = acc_other = 0
        for i in range(max(len(self.parts), len(other.parts))):
            acc_self += self.parts[i] if i < len(self.parts) else 0
            acc_other += other.parts[i] if i < len(other.parts) else 0
            if acc_self < acc_other:
                return False
        return True

    def conjugate(self) -> "IntPartition":
        return IntPartition._make(
            tuple(sum(1 for p in self.parts if p > i) for i in range(max(self.parts, default=0)))
        )

    def __lt__(self, other: "IntPartition") -> bool:
        if not isinstance(other, IntPartition):
            return NotImplemented
        return (self._n, self.parts) < (other._n, other.parts)

    def __le__(self, other: "IntPartition") -> bool:
        if not isinstance(other, IntPartition):
            return NotImplemented
        return self is other or self < other

    def __iter__(self):
        return iter(self.parts)

    def __len__(self) -> int:
        return len(self.parts)

    def __str__(self) -> str:
        return "(" + ",".join(str(p) for p in self.parts) + ")"

    def __repr__(self) -> str:
        return f"IntPartition({self.parts!r})"


def weak_compositions(total: int, parts: int) -> Iterator[tuple[int, ...]]:
    """All tuples of `parts` nonnegative integers summing to total, in lexicographic order."""
    _check_size(total)
    _check_size(parts)
    return _weak_compositions(total, parts)


def _weak_compositions(total: int, parts: int) -> Iterator[tuple[int, ...]]:
    if parts == 0:
        if total == 0:
            yield ()
        return
    for first in range(total + 1):
        for rest in _weak_compositions(total - first, parts - 1):
            yield (first,) + rest


@lru_cache(maxsize=None)
def _partition_tuples(n: int, max_part: int) -> tuple[tuple[int, ...], ...]:
    if n == 0:
        return ((),)
    out = []
    for first in range(min(n, max_part), 0, -1):
        for rest in _partition_tuples(n - first, first):
            out.append((first,) + rest)
    return tuple(out)


def int_partitions(n: int) -> list[IntPartition]:
    """All partitions of n in descending lexicographic order, (n) first."""
    _check_size(n)
    return list(map(IntPartition._make, _partition_tuples(n, n)))


def kostka(lam: IntPartition, mu: IntPartition) -> int:
    """Number of semistandard Young tableaux of shape lam and content mu."""
    if not (isinstance(lam, IntPartition) and isinstance(mu, IntPartition)):
        raise TypeError(f"kostka needs IntPartitions, got {lam!r} and {mu!r}")
    if lam.n != mu.n:
        raise ValueError(f"shape and content must have equal size: {lam} vs {mu}")
    return _kostka(lam.parts, mu.parts)


@lru_cache(maxsize=None)
def _kostka(shape: tuple[int, ...], content: tuple[int, ...]) -> int:
    """The cells holding the largest value form a horizontal strip of
    content[-1] cells: remove it (row i keeps between shape[i + 1] and
    shape[i] cells) and count the tableaux of the rest."""
    if not content:
        return 1  # shape and content have equal sizes, so the shape is empty
    below, size = shape[1:] + (0,), sum(shape) - content[-1]
    total = 0
    for rest in product(*(range(b, s + 1) for s, b in zip(shape, below))):
        if sum(rest) == size:
            total += _kostka(tuple(r for r in rest if r), content[:-1])
    return total
