"""Set partitions of {1..n}: the refinement order, meets, joins, the Mobius
function and the interval walks behind every change of basis.

A partition is a value whose identity is its restricted growth string: the
block of each element, blocks numbered by their minima.  There is one object
per string: every route, copies and pickles too, ends in the trusted builder
``SetPartition._from_rgs``, which builds only for a string it has not seen,
so equality and hashing are ``object``'s, by identity, and run in C.
Everything reads the string; ``blocks`` (elements ascending, blocks ordered
by minima) is built from it on each use.  Values are
immutable; operations are pure.
"""
from __future__ import annotations

from bisect import insort
from collections import Counter
from functools import lru_cache
from itertools import compress, product
from math import factorial, prod
from typing import Callable, Iterable, Sequence

from .intpartitions import IntPartition, _check_size, _expect, ascii_int


class GroundSetError(ValueError):
    """Two partitions live on different ground sets."""


def check_permutation(perm: Sequence[int], n: int) -> None:
    """Refuse anything but a permutation of 1..n; a bool or a float is no entry."""
    for e in perm:
        if type(e) is not int:
            raise ValueError(f"permutation entries must be ints, got {e!r}")
    if sorted(perm) != list(range(1, n + 1)):
        raise ValueError(f"not a permutation of 1..{n}: {tuple(perm)!r}")


# growth string -> its one SetPartition; filled by SetPartition._from_rgs only
_INTERNED: dict[tuple[int, ...], "SetPartition"] = {}


class SetPartition:
    """A partition of {1..n} into disjoint nonempty blocks; one object per value."""

    __slots__ = ("n", "length", "rgs")

    def __new__(cls, blocks: Iterable[Iterable[int]] = ()):
        """Check outside input, then build through ``from_labels``."""
        blks = [tuple(b) for b in blocks]
        if not all(blks):
            raise ValueError("blocks must be nonempty")
        n = sum(map(len, blks))
        labels = [None] * n
        for idx, block in enumerate(blks):
            for e in block:
                if type(e) is not int:  # a bool or a float is no block entry
                    raise ValueError(f"block entries must be ints, got {e!r}")
                if not 0 < e <= n or labels[e - 1] is not None:
                    blks = tuple(tuple(sorted(b)) for b in blks)
                    raise ValueError(f"blocks must partition {{1..{n}}}: {blks!r}")
                labels[e - 1] = idx
        return cls.from_labels(labels)

    @classmethod
    def _from_rgs(cls, rgs: tuple[int, ...]) -> "SetPartition":
        """The partition with this growth string, a tuple already canonical; nothing is checked."""
        self = _INTERNED.get(rgs)
        if self is None:
            self = object.__new__(cls)
            self.n = len(rgs)
            self.length = max(rgs) + 1 if rgs else 0  # the number of blocks
            self.rgs = rgs
            # built first, then stored in one step: threads racing here get one object
            self = _INTERNED.setdefault(rgs, self)
        return self

    def __reduce__(self):
        """Copies and pickles rebuild through the table, so they are this object."""
        return SetPartition._from_rgs, (self.rgs,)

    @classmethod
    def from_labels(cls, labels: Iterable) -> "SetPartition":
        """Positions 1..n in classes of equal label, relabelled by first occurrence; unchecked."""
        first: dict = {}
        return cls._from_rgs(tuple([first.setdefault(label, len(first)) for label in labels]))

    @classmethod
    def bottom(cls, n: int) -> "SetPartition":
        _check_size(n)
        return cls._from_rgs(tuple(range(n)))

    @classmethod
    def top(cls, n: int) -> "SetPartition":
        _check_size(n)
        return cls._from_rgs((0,) * n)

    @classmethod
    def parse(cls, text: str) -> "SetPartition":
        """Parse "1,3/2,4".  Comma-free text of at most 9 digits is the compact
        form "13/24", one digit per element; longer comma-free text, such as
        "1/2/.../10", has one element per block."""
        _expect(str, text)
        s = text.strip()
        if not s:
            return cls()
        block_texts = s.split("/")
        if "," in s:
            try:
                return cls([ascii_int(tok) for tok in bt.split(",")] for bt in block_texts)
            except ValueError:
                raise ValueError(f"cannot parse set partition from {text!r}") from None
        digits = [bt.strip() for bt in block_texts]
        if not all(d.isascii() and d.isdigit() for d in digits):
            raise ValueError(f"cannot parse set partition from {text!r}")
        if sum(map(len, digits)) <= 9:
            return cls([int(ch) for ch in d] for d in digits)
        return cls([int(d)] for d in digits)

    @property
    def blocks(self) -> tuple[tuple[int, ...], ...]:
        """The blocks, each ascending, ordered by their minima; built on each use,
        since a partition lives as long as the intern table."""
        return tuple(map(tuple, self._block_lists()))

    def _block_lists(self) -> list[list[int]]:
        blocks: list[list[int]] = [[] for _ in range(self.length)]
        for pos, v in enumerate(self.rgs, start=1):
            blocks[v].append(pos)
        return blocks

    @property
    def rank(self) -> int:
        return self.n - self.length

    @property
    def type(self) -> IntPartition:
        sizes = map(self.rgs.count, range(self.length))
        return IntPartition._make(tuple(sorted(sizes, reverse=True)))

    @property
    def sign(self) -> int:
        """Sign of any permutation obtained by turning each block into a cycle."""
        return -1 if (self.n - self.length) % 2 else 1

    def _check_ground(self, other: "SetPartition") -> None:
        if not isinstance(other, SetPartition):
            raise TypeError(f"expected a SetPartition, got {other!r}")
        if self.n != other.n:
            raise GroundSetError(
                f"partitions of different ground sets: n={self.n} vs n={other.n}"
            )

    def _outer(self, other: "SetPartition") -> dict[int, int] | None:
        """Block of self -> the block of other holding it, in one pass over both
        growth strings; None at the first block of self that meets two of other."""
        self._check_ground(other)
        outer: dict[int, int] = {}
        for a, b in zip(self.rgs, other.rgs):
            if outer.setdefault(a, b) != b:
                return None
        return outer

    def leq(self, other: "SetPartition") -> bool:
        """Refinement order: every block of self lies inside a block of other."""
        return self._outer(other) is not None

    def meet(self, other: "SetPartition") -> "SetPartition":
        """Greatest lower bound: nonempty pairwise intersections of blocks."""
        self._check_ground(other)
        return SetPartition.from_labels(zip(self.rgs, other.rgs))

    def join(self, other: "SetPartition") -> "SetPartition":
        """Least upper bound: a union-find over self's blocks, which merges the
        blocks of self that meet one block of other."""
        self._check_ground(other)
        parent = list(range(self.length))

        def find(x: int) -> int:
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        first: dict[int, int] = {}  # block of other -> the block of self holding its first element
        for a, b in zip(self.rgs, other.rgs):
            r = first.setdefault(b, a)
            if r != a:
                parent[find(a)] = find(r)
        return SetPartition.from_labels([find(a) for a in self.rgs])

    def interval_type(self, other: "SetPartition") -> IntPartition:
        """Block counts of self inside each block of other, sorted decreasingly."""
        outer = self._outer(other)
        if outer is None:
            raise ValueError(f"{self} is not a refinement of {other}")
        return IntPartition._make(tuple(sorted(Counter(outer.values()).values(), reverse=True)))

    def act(self, perm: Sequence[int]) -> "SetPartition":
        """Relabel elements through a permutation of {1..n} (perm[i-1] = image of i)."""
        check_permutation(perm, self.n)
        source = sorted(range(self.n), key=perm.__getitem__)  # position perm[e] takes e's label
        return SetPartition.from_labels([self.rgs[e] for e in source])

    def sort_key(self) -> tuple:
        """Deterministic display order: degree, then type, then growth string."""
        return (self.n, self.type.parts, self.rgs)

    def __str__(self) -> str:
        return "/".join(",".join(map(str, b)) for b in self._block_lists())

    def __repr__(self) -> str:
        return f"SetPartition.parse({str(self)!r})"


def growth_strings(n: int, sizes: Iterable[int] | None = None) -> list[tuple[int, ...]]:
    """Every restricted growth string of length n, ascending; given block sizes
    summing to n, only those of that type.  An element joins a block with room
    left or opens one while a size is unused; the block takes that size, so
    every branch ends in an output (Knuth, TAOCP 4A 7.2.1.5)."""
    _check_size(n)
    unused = Counter(sizes) if sizes is not None else {n: n}  # size -> blocks still to open
    out: list[tuple[int, ...]] = []
    rgs, room = [0] * n, []  # room[v]: elements block v can still take

    def walk(i: int) -> None:
        if i == n:
            out.append(tuple(rgs))
            return
        for v, r in enumerate(room):
            if r:
                rgs[i], room[v] = v, r - 1
                walk(i + 1)
                room[v] = r
        rgs[i] = len(room)
        for s in [s for s, c in unused.items() if c]:
            unused[s] -= 1
            room.append(s - 1)
            walk(i + 1)
            room.pop()
            unused[s] += 1

    walk(0)
    out.sort()  # a typed walk opens blocks by size, not in string order
    return out


def set_partitions(n: int) -> list[SetPartition]:
    """All partitions of [n], sorted by restricted growth string."""
    return list(map(SetPartition._from_rgs, growth_strings(n)))


def bell_number(n: int) -> int:
    """Number of set partitions of [n], by the Bell triangle."""
    _check_size(n)
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
    if not isinstance(sigma, SetPartition):  # _outer checks pi and the ground sets
        raise TypeError(f"expected a SetPartition, got {sigma!r}")
    outer = sigma._outer(pi)
    return 0 if outer is None else prod(map(mobius_bottom_top, Counter(outer.values()).values()))


def mobius_bottom_top(a: int) -> int:
    """mu(bottom, top) in the partition lattice of [a]."""
    return (-1) ** (a - 1) * factorial(a - 1) if a else 1


def mobius_bottom(rgs: Sequence[int]) -> int:
    """mu(bottom, sigma) for sigma given by its growth string."""
    return prod(mobius_bottom_top(rgs.count(v)) for v in range(max(rgs, default=-1) + 1))


# The enumerators below return (growth string, integer) pairs, the strings canonical and
# strictly ascending for _from_rgs as they are: integers alone over all of [n], strings if all 1.
Pairs = list[tuple[tuple[int, ...], int]]


def lower_sums(rgs: Sequence[int], weight: Callable[[int, int], int]) -> Pairs:
    """(growth string of tau, the product over the blocks B of sigma of weight(blocks
    of tau in B, mu(bottom, tau restricted to B))) for every tau <= sigma, taus
    ascending, sigma given by its growth string.  One walk over positions: each
    element joins a block of tau inside its block of sigma or opens one; joining a
    block of size c multiplies mu by -c, and B is weighed at its last element."""
    n = len(rgs)
    last = {v: i for i, v in enumerate(rgs)}  # block of sigma -> its last position
    inside: list[list[int]] = [[] for _ in last]  # blocks of tau inside each block of sigma
    mus = [1] * len(last)  # mu(bottom, tau restricted to each block of sigma) so far
    tau, sizes = [0] * n, []  # sizes[t]: the elements in block t of tau
    out: Pairs = []

    def walk(i: int, w: int) -> None:
        if i == n:
            out.append((tuple(tau), w))
            return
        b = rgs[i]
        mu, blocks, closes = mus[b], inside[b], last[b] == i
        for t in blocks:  # i joins block t of tau
            c = sizes[t]
            tau[i], sizes[t], mus[b] = t, c + 1, -c * mu
            walk(i + 1, w * weight(len(blocks), mus[b]) if closes else w)
            sizes[t] = c
        tau[i], mus[b] = len(sizes), mu  # i opens a block of tau
        blocks.append(len(sizes))
        sizes.append(1)
        walk(i + 1, w * weight(len(blocks), mu) if closes else w)
        sizes.pop()
        blocks.pop()

    walk(0, 1)
    return out


def meet_walk(rgs: Sequence[int]) -> list[int]:
    """lam(sigma meet pi)! for every sigma of pi's degree, ascending, pi given by its
    growth string.  One backtracking walk keeps the size of each block intersection:
    an element placed where c others lie multiplies the weight by c + 1."""
    n, ell = len(rgs), max(rgs, default=-1) + 1
    counts, out = [], []  # counts[v][b]: |block v of sigma meet block b of pi|

    def walk(i: int, weight: int) -> None:
        if i == n:
            out.append(weight)
            return
        b = rgs[i]
        for row in counts:  # i joins a block of sigma; each call leaves counts as it was
            c = row[b]
            row[b] = c + 1
            walk(i + 1, weight * (c + 1))
            row[b] = c
        counts.append([int(b == x) for x in range(ell)])  # i opens a block of sigma
        walk(i + 1, weight)
        counts.pop()

    walk(0, 1)
    return out


def meet_bottom_walk(rgs: Sequence[int]) -> list[tuple[int, ...]]:
    """The growth strings of the sigma meeting pi in the bottom, ascending, pi given by
    its growth string: an element joins only the blocks of sigma that miss its block of pi."""
    sigma, met, out = [0] * len(rgs), [], []  # met[v]: the blocks of pi block v meets, as bits

    def walk(i: int) -> None:
        if i == len(rgs):
            out.append(tuple(sigma))
            return
        bit = 1 << rgs[i]
        for v, mask in enumerate(met):  # i joins a block of sigma
            if not mask & bit:
                sigma[i], met[v] = v, mask | bit
                walk(i + 1)
                met[v] = mask
        sigma[i] = len(met)  # i opens a block of sigma
        met.append(bit)
        walk(i + 1)
        met.pop()

    walk(0)
    return out


def join_walk(rgs: Sequence[int]) -> tuple[list, list, list]:
    """(growth strings, signed, unsigned) over the taus of pi's degree, taus ascending,
    pi given by its growth string: the numerators over (n-1)! of the sum over
    sigma >= pi join tau of mu(pi, sigma) mu(tau, sigma) / mu(bottom, sigma), and of
    the same sum over |mu(bottom, sigma)|.  Only a tau with a nonzero signed numerator
    keeps its string and that numerator; ``unsigned`` holds every tau's, zeros included.
    One walk keeps pi join tau as a union-find over pi's blocks; each root's code
    (a*B + b)*B + c counts its blocks of pi and of tau and its elements, B = n + 1, so
    merged codes add and sorted codes key both sums, read at each leaf from one table."""
    n, base = len(rgs), len(rgs) + 1
    parent = list(range(max(rgs, default=-1) + 1))
    code = [base * base + rgs.count(v) for v in parent]
    codes = sorted(code)
    tau, owner = [0] * n, []  # owner[v]: pi's block holding the first element of tau's block v
    taus, signed, unsigned = [], [], []  # one string per nonzero signed leaf

    def find(x: int) -> int:
        while parent[x] != x:
            x = parent[x]
        return x

    def add(r: int, d: int) -> None:
        codes.remove(code[r])
        code[r] += d
        insort(codes, code[r])

    def walk(i: int) -> None:
        if i == n:
            s, u = _join_weight(tuple(codes), base)
            if s:
                taus.append(tuple(tau))
                signed.append(s)
            unsigned.append(u)
            return
        r = find(rgs[i])
        for v, o in enumerate(owner):  # i joins block v of tau
            tau[i], s = v, find(o)
            if s != r:  # which merges s's component into r's
                codes.remove(code[s])
                parent[s] = r
                add(r, code[s])
            walk(i + 1)
            if s != r:
                add(r, -code[s])
                parent[s] = s
                insort(codes, code[s])
        tau[i] = len(owner)  # i opens a block of tau
        owner.append(rgs[i])
        add(r, base)
        walk(i + 1)
        add(r, -base)
        owner.pop()

    walk(0)
    return taus, signed, unsigned


@lru_cache(maxsize=None)
def _join_weight(codes: tuple[int, ...], base: int) -> tuple[int, int]:
    """(base - 2)! times the sum over the partitions s of the blocks coded in ``codes``
    (see ``join_walk``) of the product over S in s of mu(sum a) mu(sum b) / mu(sum c),
    then of the same product over |mu(sum c)|: two integers, as each product of
    (c_S - 1)! divides (base - 2)!."""
    if not codes:
        return (factorial(max(base - 2, 0)),) * 2
    signed = unsigned = 0
    for picked in product((False, True), repeat=len(codes) - 1):  # blocks joining the first
        block = codes[0] + sum(compress(codes[1:], picked))
        a, b, c = block // base**2, block // base % base, block % base
        rest = _join_weight(tuple(x for x, p in zip(codes[1:], picked) if not p), base)
        mu_ab, mu_c = mobius_bottom_top(a) * mobius_bottom_top(b), mobius_bottom_top(c)
        signed += mu_ab * rest[0] // mu_c
        unsigned += mu_ab * rest[1] // abs(mu_c)
    return signed, unsigned


@lru_cache(maxsize=None)
def partitions_of_type(lam: IntPartition) -> tuple[SetPartition, ...]:
    """Every set partition of type lam, sorted by restricted growth string."""
    if not isinstance(lam, IntPartition):
        raise TypeError(f"expected an IntPartition, got {lam!r}")
    return tuple(map(SetPartition._from_rgs, growth_strings(lam.n, lam.parts)))
