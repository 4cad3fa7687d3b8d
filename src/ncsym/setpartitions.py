"""Set partitions of {1..n} and the refinement lattice.

A partition is stored canonically: elements ascending inside each block,
blocks ordered by their minima.  Equality, hashing and the deterministic
enumeration order all go through the restricted growth string.  Values are
immutable and every operation is pure.
"""
from __future__ import annotations

from functools import lru_cache
from math import factorial
from typing import Iterable, Sequence

from .intpartitions import IntPartition


class GroundSetError(ValueError):
    """Two partitions live on different ground sets."""


class SetPartition:
    """A partition of {1..n} into disjoint nonempty blocks."""

    __slots__ = ("n", "blocks", "rgs", "_hash")

    def __init__(self, blocks: Iterable[Iterable[int]] = ()):
        blks = tuple(tuple(sorted(int(e) for e in b)) for b in blocks)
        if any(not b for b in blks):
            raise ValueError("blocks must be nonempty")
        elements = sorted(e for b in blks for e in b)
        n = len(elements)
        if elements != list(range(1, n + 1)):
            raise ValueError(f"blocks must partition {{1..{n}}}: {blks!r}")
        self.n = n
        self.blocks = tuple(sorted(blks, key=lambda b: b[0]))
        labels = [0] * n
        for idx, block in enumerate(self.blocks):
            for e in block:
                labels[e - 1] = idx
        # blocks are sorted by minimum, so labels form a restricted growth string
        self.rgs = tuple(labels)
        self._hash = hash((n, self.rgs))

    @classmethod
    def from_labels(cls, labels: Sequence[int]) -> "SetPartition":
        """Build from any block labelling of positions 1..n."""
        groups: dict[int, list[int]] = {}
        for pos, lab in enumerate(labels, start=1):
            groups.setdefault(lab, []).append(pos)
        return cls(groups.values())

    @classmethod
    def bottom(cls, n: int) -> "SetPartition":
        return cls([i] for i in range(1, n + 1))

    @classmethod
    def top(cls, n: int) -> "SetPartition":
        return cls([range(1, n + 1)]) if n else cls()

    @classmethod
    def parse(cls, text: str) -> "SetPartition":
        """Parse "1,3/2,4"; the compact digit form "13/24" is accepted for n <= 9."""
        s = text.strip()
        if not s:
            return cls()
        block_texts = s.split("/")
        if "," in s:
            try:
                return cls([int(tok) for tok in bt.split(",")] for bt in block_texts)
            except ValueError:
                raise ValueError(f"cannot parse set partition from {text!r}") from None
        if not all(bt.strip().isdigit() for bt in block_texts):
            raise ValueError(f"cannot parse set partition from {text!r}")
        return cls([int(ch) for ch in bt.strip()] for bt in block_texts)

    @property
    def length(self) -> int:
        return len(self.blocks)

    @property
    def rank(self) -> int:
        return self.n - len(self.blocks)

    @property
    def type(self) -> IntPartition:
        return IntPartition(len(b) for b in self.blocks)

    @property
    def sign(self) -> int:
        """Sign of any permutation obtained by turning each block into a cycle."""
        return -1 if (self.n - len(self.blocks)) % 2 else 1

    def _check_ground(self, other: "SetPartition") -> None:
        if self.n != other.n:
            raise GroundSetError(
                f"partitions of different ground sets: n={self.n} vs n={other.n}"
            )

    def leq(self, other: "SetPartition") -> bool:
        """Refinement order: every block of self lies inside a block of other."""
        self._check_ground(other)
        for block in self.blocks:
            lab = other.rgs[block[0] - 1]
            if any(other.rgs[e - 1] != lab for e in block):
                return False
        return True

    def meet(self, other: "SetPartition") -> "SetPartition":
        """Greatest lower bound: nonempty pairwise intersections of blocks."""
        self._check_ground(other)
        return SetPartition.from_labels(
            [(self.rgs[i], other.rgs[i]) for i in range(self.n)]
        )

    def join(self, other: "SetPartition") -> "SetPartition":
        """Least upper bound: components of the union of both block relations."""
        self._check_ground(other)
        parent = list(range(self.n))

        def find(x: int) -> int:
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for part in (self, other):
            for block in part.blocks:
                root = find(block[0] - 1)
                for e in block[1:]:
                    parent[find(e - 1)] = root
        return SetPartition.from_labels([find(i) for i in range(self.n)])

    def interval_type(self, other: "SetPartition") -> IntPartition:
        """Block counts of self inside each block of other, sorted decreasingly."""
        self._check_ground(other)
        if not self.leq(other):
            raise ValueError(f"{self} is not a refinement of {other}")
        counts = [0] * len(other.blocks)
        for block in self.blocks:
            counts[other.rgs[block[0] - 1]] += 1
        return IntPartition(counts)

    def act(self, perm: Sequence[int]) -> "SetPartition":
        """Relabel elements through a permutation of {1..n} (perm[i-1] = image of i)."""
        if sorted(perm) != list(range(1, self.n + 1)):
            raise ValueError(f"not a permutation of 1..{self.n}: {tuple(perm)!r}")
        return SetPartition(tuple(perm[e - 1] for e in b) for b in self.blocks)

    def sort_key(self) -> tuple:
        """Deterministic display order: degree, then type, then growth string."""
        return (self.n, self.type.parts, self.rgs)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, SetPartition)
            and self.n == other.n
            and self.rgs == other.rgs
        )

    def __hash__(self) -> int:
        return self._hash

    def __str__(self) -> str:
        return "/".join(",".join(str(e) for e in b) for b in self.blocks)

    def __repr__(self) -> str:
        return f"SetPartition.parse({str(self)!r})"


def set_partitions(n: int) -> list[SetPartition]:
    """All partitions of [n], sorted by restricted growth string."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    if n == 0:
        return [SetPartition()]
    out: list[SetPartition] = []
    labels = [0] * n

    def rec(i: int, mx: int) -> None:
        if i == n:
            out.append(SetPartition.from_labels(labels))
            return
        for v in range(mx + 2):
            labels[i] = v
            rec(i + 1, max(mx, v))

    rec(1, 0)
    return out


def bell_number(n: int) -> int:
    """Number of set partitions of [n], by the Bell triangle."""
    row = [1]
    for _ in range(n):
        nxt = [row[-1]]
        for v in row:
            nxt.append(nxt[-1] + v)
        row = nxt
    return row[0]


def mobius(sigma: SetPartition, pi: SetPartition) -> int:
    """Mobius function of the refinement lattice, 0 when sigma is not below pi.

    On an interval it is the product over interval-type parts a of
    (-1)^(a-1) * (a-1)!.
    """
    sigma._check_ground(pi)
    if not sigma.leq(pi):
        return 0
    value = 1
    for a in sigma.interval_type(pi).parts:
        value *= (-1) ** (a - 1) * factorial(a - 1)
    return value


class PartitionLattice:
    """Precomputed order, meet, join and Mobius tables for all of one degree."""

    def __init__(self, n: int):
        self.n = n
        self.elements = set_partitions(n)
        size = len(self.elements)
        self.size = size
        self.index = {p: i for i, p in enumerate(self.elements)}
        self.zero = self.index[SetPartition.bottom(n)]
        self.one = self.index[SetPartition.top(n)]

        self.leq_sets = [set() for _ in range(size)]  # i -> indices above i
        self.above: list[tuple[int, ...]] = []
        self.below: list[list[int]] = [[] for _ in range(size)]
        self.meet = [[0] * size for _ in range(size)]
        self.join = [[0] * size for _ in range(size)]
        for i, p in enumerate(self.elements):
            ups = []
            for j, q in enumerate(self.elements):
                if p.leq(q):
                    ups.append(j)
                    self.leq_sets[i].add(j)
                    self.below[j].append(i)
                if j < i:
                    continue
                mij = self.index[p.meet(q)]
                jij = self.index[p.join(q)]
                self.meet[i][j] = self.meet[j][i] = mij
                self.join[i][j] = self.join[j][i] = jij
            self.above.append(tuple(ups))

        self.type_fact = [p.type.fact_parts() for p in self.elements]
        self.signs = [p.sign for p in self.elements]
        self._mu: dict[tuple[int, int], int] = {}
        for i in range(size):
            for j in self.above[i]:
                self._mu[(i, j)] = mobius(self.elements[i], self.elements[j])
        self.mu0 = [self._mu[(self.zero, j)] for j in range(size)]
        self.abs_mu0 = [abs(v) for v in self.mu0]

        self.by_type: dict[IntPartition, tuple[int, ...]] = {}
        for i, p in enumerate(self.elements):
            self.by_type.setdefault(p.type, ())
        for i, p in enumerate(self.elements):
            self.by_type[p.type] += (i,)

    def leq_idx(self, i: int, j: int) -> bool:
        return j in self.leq_sets[i]

    def mu(self, i: int, j: int) -> int:
        return self._mu.get((i, j), 0)

    def interval_fact(self, i: int, j: int) -> int:
        """Factorial statistic of the interval type from element i up to j."""
        return self.elements[i].interval_type(self.elements[j]).fact_parts()


@lru_cache(maxsize=None)
def lattice(n: int) -> PartitionLattice:
    return PartitionLattice(n)
