"""A minimal layer of ordinary (commuting-variable) symmetric functions.

Only what the noncommuting side needs: the m, p, e, h, s bases indexed by
integer partitions, conversions between them, the standard inner product
<m_lam, h_mu> = delta, and the e/h-swapping involution.  Coefficients are
exact rationals throughout; conversions expand in as many variables as the
degree, which is faithful for that degree.
"""
from __future__ import annotations

import itertools
from fractions import Fraction
from functools import lru_cache

from .combination import Combination, format_terms
from .intpartitions import IntPartition, int_partitions, kostka, weak_compositions
from .linalg import exact_solve

SYM_BASES = ("m", "p", "e", "h", "s")


class SymElement(Combination):
    """Linear combination of one basis, sparse over integer partitions."""

    __slots__ = ()
    basis = Combination.tag  # the tag under its public name

    @staticmethod
    def _check_tag(basis) -> None:
        if basis not in SYM_BASES:
            raise ValueError(f"unknown basis {basis!r}")

    @staticmethod
    def _check_key(basis, lam) -> IntPartition:
        if not isinstance(lam, IntPartition):
            raise TypeError(f"key {lam!r} is not an IntPartition")
        return lam

    def degrees(self) -> list[int]:
        return sorted({lam.n for lam in self.terms})

    def degree(self) -> int:
        return max((lam.n for lam in self.terms), default=0)

    def homogeneous_component(self, n: int) -> "SymElement":
        return self._make(
            self.basis, {lam: c for lam, c in self.terms.items() if lam.n == n}
        )

    def __str__(self) -> str:
        return format_sym(self)


def format_sym(f: SymElement, strict_rationals: bool = False) -> str:
    return format_terms(
        (
            (f.terms[lam], f"{f.basis}[{','.join(str(p) for p in lam.parts)}]")
            for lam in sorted(f.terms, key=lambda t: (t.n, t.parts))
        ),
        strict_rationals,
    )


def _poly_mul(a: dict, b: dict) -> dict:
    out: dict = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            key = tuple(x + y for x, y in zip(ea, eb))
            out[key] = out.get(key, 0) + ca * cb
    return out


def _generator_poly(basis: str, r: int, k: int) -> dict:
    """Degree-r generator (p_r, e_r or h_r) as exponent-vector -> coefficient."""
    one = (0,) * k
    if r == 0:
        return {one: 1}
    out: dict = {}
    if basis == "p":
        for i in range(k):
            exps = list(one)
            exps[i] = r
            out[tuple(exps)] = 1
    elif basis == "e":
        for support in itertools.combinations(range(k), r):
            exps = list(one)
            for i in support:
                exps[i] = 1
            out[tuple(exps)] = 1
    elif basis == "h":
        for exps in weak_compositions(r, k):
            out[exps] = 1
    else:
        raise ValueError(f"no polynomial generator for basis {basis!r}")
    return out


@lru_cache(maxsize=None)
def _basis_m_coeffs(basis: str, lam: IntPartition) -> tuple:
    """Expansion of basis_lam into monomial symmetric functions of the same degree."""
    n = lam.n
    if basis == "m":
        return ((lam, Fraction(1)),)
    if basis == "s":
        out = []
        for mu in int_partitions(n):
            coeff = kostka(lam, mu)
            if coeff:
                out.append((mu, Fraction(coeff)))
        return tuple(out)
    k = max(n, 1)
    poly = {(0,) * k: 1}
    for part in lam.parts:
        poly = _poly_mul(poly, _generator_poly(basis, part, k))
    out = []
    for mu in int_partitions(n):
        exps = tuple(mu.parts) + (0,) * (k - mu.length)
        coeff = poly.get(exps, 0)
        if coeff:
            out.append((mu, Fraction(coeff)))
    return tuple(out)


def _to_m_dict(f: SymElement) -> dict[IntPartition, Fraction]:
    out: dict[IntPartition, Fraction] = {}
    for lam, c in f.terms.items():
        for mu, q in _basis_m_coeffs(f.basis, lam):
            out[mu] = out.get(mu, Fraction(0)) + c * q
    return {mu: c for mu, c in out.items() if c}


@lru_cache(maxsize=None)
def _m_inverse(basis: str, n: int) -> dict[IntPartition, tuple]:
    """Each m_mu of degree n in the given basis, as mu -> ((lam, coeff), ...):
    the columns of the inverse of the matrix whose column lam is basis_lam in m."""
    ps = int_partitions(n)
    pos = {lam: i for i, lam in enumerate(ps)}
    matrix = [[0] * len(ps) for _ in ps]
    for c, lam in enumerate(ps):
        for mu, q in _basis_m_coeffs(basis, lam):
            matrix[pos[mu]][c] = q
    out = {}
    for c, mu in enumerate(ps):
        column = exact_solve(matrix, [int(r == c) for r in range(len(ps))])
        out[mu] = tuple((lam, v) for lam, v in zip(ps, column) if v)
    return out


def _from_m_dict(
    basis: str, n: int, coeffs: dict[IntPartition, Fraction]
) -> dict[IntPartition, Fraction]:
    if basis == "m":
        return dict(coeffs)
    inverse = _m_inverse(basis, n)
    out: dict[IntPartition, Fraction] = {}
    for mu, c in coeffs.items():
        for lam, v in inverse[mu]:
            out[lam] = out.get(lam, 0) + c * v
    return {lam: v for lam, v in out.items() if v}


def sym_convert(f: SymElement, target: str) -> SymElement:
    """Re-express an element in another basis, exactly."""
    if target not in SYM_BASES:
        raise ValueError(f"unknown basis {target!r}")
    if target == f.basis:
        return SymElement._make(f.basis, f.terms)
    out: dict[IntPartition, Fraction] = {}
    for n in f.degrees():
        part = _to_m_dict(f.homogeneous_component(n))
        for lam, c in _from_m_dict(target, n, part).items():
            out[lam] = out.get(lam, 0) + c
    return SymElement._make(target, out)


def sym_inner(f: SymElement, g: SymElement) -> Fraction:
    """Bilinear extension of <m_lam, h_mu> = delta_{lam,mu}."""
    total = Fraction(0)
    g_degrees = set(g.degrees())
    for n in f.degrees():
        if n not in g_degrees:
            continue
        a = _to_m_dict(f.homogeneous_component(n))
        b = _from_m_dict("h", n, _to_m_dict(g.homogeneous_component(n)))
        for lam, c in a.items():
            total += c * b.get(lam, Fraction(0))
    return total


def omega_commutative(f: SymElement) -> SymElement:
    """The involution swapping e and h, applied in whatever basis f uses."""
    if f.basis == "e":
        return SymElement._make("h", f.terms)
    if f.basis == "h":
        return SymElement._make("e", f.terms)
    if f.basis == "p":
        return SymElement._make(
            "p",
            {lam: c * (-1) ** (lam.n - lam.length) for lam, c in f.terms.items()},
        )
    swapped = omega_commutative(sym_convert(f, "e"))
    return sym_convert(swapped, f.basis)
