"""Exact Gauss-Jordan elimination over the rationals for small dense systems.

One row reduction serves every caller: solving a square system, the rank of
a matrix, and (with the identity appended) a whole inverse in one sweep.
"""
from __future__ import annotations

from fractions import Fraction


def _row_reduce(rows: list[list[Fraction]], ncols: int) -> int:
    """Bring the first ncols columns of rows to reduced echelon form, in place,
    carrying any further columns along; returns the rank of those columns."""
    rank = 0
    for col in range(ncols):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = 1 / rows[rank][col]
        rows[rank] = [v * inv for v in rows[rank]]
        for r in range(len(rows)):
            if r != rank and rows[r][col]:
                factor = rows[r][col]
                rows[r] = [a - factor * b for a, b in zip(rows[r], rows[rank])]
        rank += 1
        if rank == len(rows):
            break
    return rank


def exact_solve(matrix: list[list[Fraction]], rhs: list[Fraction]) -> list[Fraction]:
    """Solve M x = rhs for square invertible M; raises on singular input."""
    size = len(matrix)
    aug = [[Fraction(v) for v in row] + [Fraction(rhs[r])] for r, row in enumerate(matrix)]
    if _row_reduce(aug, size) < size:
        raise ValueError("singular matrix")
    return [row[size] for row in aug]


def matrix_rank(matrix: list[list[Fraction]]) -> int:
    """Rank over the rationals by row reduction."""
    rows = [[Fraction(v) for v in row] for row in matrix]
    return _row_reduce(rows, len(rows[0]) if rows else 0)
