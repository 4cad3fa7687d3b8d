"""Helpers shared by the workloads: seeded input generation.

Each workload draws its inputs from two streams.  The design stream is the
same for every seed: it fixes the structure of each request (operation,
basis, degree, the block sizes of each set partition, shapes, truncations).
The seed stream fills the structure in: which set partition of the given
block sizes, the coefficients, permutations, biword letters, and the order of
requests in a block.  Relabelling a set partition is a symmetry of the
lattice, so two seeds ask for the same amount of work on different inputs;
that keeps run-to-run figures steady without fixing the inputs.

Inputs are built from the benchmark's own draws, never from the order in
which the library enumerates objects, so a seed keeps naming the same inputs
when the library's enumeration code changes.
"""
from __future__ import annotations

import random
import statistics
from fractions import Fraction
from math import comb, factorial


def design_stream(workload: str) -> random.Random:
    """The same stream for every seed; string seeds hash alike in every process."""
    return random.Random(f"{workload}/design")


def seed_stream(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}/seed/{seed}")


def spread(rng: random.Random, values, count: int) -> list:
    """`count` draws that use each value equally often, in a seeded order.

    Stratifying blocks this way keeps the cost of every block alike, which is
    what makes run-to-run figures steady.
    """
    seq = [values[i % len(values)] for i in range(count)]
    rng.shuffle(seq)
    return seq


def coefficient(rng: random.Random) -> Fraction:
    """A small nonzero rational: numerator 1..9 with a sign, denominator 1..4."""
    return Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 4))


def random_rgs(rng: random.Random, n: int) -> tuple[int, ...]:
    """A restricted growth string of length n (a set partition of [n])."""
    labels = [0] * n
    top = 0
    for i in range(1, n):
        labels[i] = rng.randint(0, top + 1)
        top = max(top, labels[i])
    return tuple(labels)


def block_sizes(design: random.Random, n: int) -> tuple[int, ...]:
    """The block sizes of a set partition of [n] drawn from the design stream."""
    labels = random_rgs(design, n)
    return tuple(sorted((labels.count(b) for b in set(labels)), reverse=True))


def blocks_of_sizes(rng: random.Random, sizes: tuple[int, ...]) -> list[list[int]]:
    """A uniformly random set partition of [sum(sizes)] with these block sizes."""
    elements = list(range(1, sum(sizes) + 1))
    rng.shuffle(elements)
    out, start = [], 0
    for size in sizes:
        out.append(elements[start:start + size])
        start += size
    return out


def all_rgs(n: int) -> list[tuple[int, ...]]:
    """Every restricted growth string of length n >= 1."""
    out = [(0,)]
    for _ in range(n - 1):
        out = [r + (v,) for r in out for v in range(max(r) + 2)]
    return out


def int_partition_parts(n: int, largest: int | None = None) -> list[tuple[int, ...]]:
    """All partitions of n as weakly decreasing tuples, in a fixed order."""
    largest = n if largest is None else largest
    if n == 0:
        return [()]
    out = []
    for first in range(min(n, largest), 0, -1):
        for rest in int_partition_parts(n - first, first):
            out.append((first,) + rest)
    return out


def random_composition(rng: random.Random, total: int, parts: int) -> tuple[int, ...]:
    """A weak composition of `total` into `parts` entries."""
    cuts = sorted(rng.randint(0, total) for _ in range(parts - 1))
    bounds = [0] + cuts + [total]
    return tuple(bounds[i + 1] - bounds[i] for i in range(parts))


def multinomial(vec) -> int:
    out = factorial(sum(vec))
    for v in vec:
        out //= factorial(v)
    return out


def ssyt_count(parts: tuple[int, ...], max_value: int) -> int:
    """Semistandard tableaux of the shape with entries <= max_value (hook-content)."""
    conj = [sum(1 for p in parts if p > c) for c in range(parts[0])] if parts else []
    num = den = 1
    for r, length in enumerate(parts):
        for c in range(length):
            num *= max_value + c - r
            den *= (length - c - 1) + (conj[c] - r - 1) + 1
    return num // den


def complete_count(t: tuple[int, ...], variables: int) -> int:
    """Sum of the coefficients of the complete MacMahon function h_t in k variables."""
    total = sum(t)
    return comb(variables - 1 + total, total) * multinomial(t)


def elementary_count(t: tuple[int, ...], variables: int) -> int:
    """Number of monomials of the elementary MacMahon function e_t in k variables."""
    return comb(variables, sum(t)) * multinomial(t)


def quantile(values: list[float], q: float) -> float:
    """Quantile by the inclusive method, as `statistics.quantiles` computes it."""
    if len(values) == 1:
        return values[0]
    cuts = statistics.quantiles(values, n=100, method="inclusive")
    return cuts[round(q * 100) - 1]
