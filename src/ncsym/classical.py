"""A minimal layer of ordinary (commuting-variable) symmetric functions.

Only what the noncommuting side needs: the m, p, e, h, s bases indexed by
integer partitions, conversions between them, the standard inner product
<m_lam, h_mu> = delta, and the e/h-swapping involution.  Coefficients are
exact rationals throughout.  Every conversion goes through m: p_lam counts the
matrices with row sums lam and one nonzero entry per row (Macdonald I.6), and s, h
and e read the Kostka numbers K = M(s, m), as M(h, m) = K^T K and M(e, m) = K^T J K
for J conjugation.  Back from m, p and s are one back substitution each, being
triangular against m, and m in h or e is the same Gram sum over m in s.
"""
from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import prod

from .combination import BasisElement, _from_json, _json_list, _over_one_denominator, _parse_element
from .intpartitions import IntPartition, _expect, _kostka, int_partitions

SYM_BASES = ("m", "p", "e", "h", "s")
_DUAL = {"m": "h", "h": "m", "p": "p", "s": "s"}  # b_lam pairs only with _DUAL[b]_lam


class SymElement(BasisElement):
    """Linear combination of one basis, sparse over integer partitions."""

    __slots__ = ()
    BASES, KEY = SYM_BASES, IntPartition
    _order = staticmethod(lambda lam: (lam.n, lam.parts))
    _field = "parts"
    _encode = staticmethod(lambda lam: list(lam.parts))
    _decode = staticmethod(lambda v: IntPartition(_json_list(v)))

    def _show(self, lam: IntPartition) -> str:
        return f"{self.tag}[{','.join(str(p) for p in lam.parts)}]"


format_sym = SymElement.to_text
sym_to_json = SymElement.to_json


def parse_sym(text: str) -> SymElement:
    """Parse an expression over the m/p/e/h/s bases indexed by integer partitions, or JSON."""
    return _parse_element(text, SymElement, sym_convert)


def sym_from_json(data) -> SymElement:
    return _from_json(data, SymElement)


@lru_cache(maxsize=None)
def _matrix_count(rows: tuple, cols: tuple) -> int:
    """Matrices with these row and column sums and one nonzero entry per row: the
    coefficient of m_cols in p_rows.  The first row puts its sum in one column;
    the remaining column sums stay sorted, so permuted states share one memo entry."""
    if not rows:
        return 1  # row and column sums have equal totals, so no column is left
    r, total = rows[0], 0
    for j, c in enumerate(cols):
        if c >= r:
            left = sorted((x for x in cols[:j] + (c - r,) + cols[j + 1 :] if x), reverse=True)
            total += _matrix_count(rows[1:], tuple(left))
    return total


@lru_cache(maxsize=None)
def _basis_m_coeffs(basis: str, lam: IntPartition) -> tuple:
    """Expansion of basis_lam into monomial symmetric functions, by integer counts:
    p by ``_matrix_count``, s by the Kostka numbers K, and h_lam and e_lam as the sums
    of K[nu][lam] s_nu and of K[nu'][lam] s_nu."""
    if basis == "m":
        return ((lam, 1),)
    rows, ps = lam.parts, int_partitions(lam.n)  # each mu has lam's size: no checks to repeat
    if basis in ("p", "s"):
        count = _matrix_count if basis == "p" else _kostka
        return tuple((mu, c) for mu in ps if (c := count(rows, mu.parts)))
    flip = IntPartition.conjugate if basis == "e" else (lambda nu: nu)
    s_nu = [(nu.parts, k) for nu in ps if (k := _kostka(flip(nu).parts, rows))]
    coeffs = ((mu, sum(k * _kostka(nu, mu.parts) for nu, k in s_nu)) for mu in ps)
    return tuple((mu, c) for mu, c in coeffs if c)


def _triangular_inverse(basis: str, ps: list[IntPartition]) -> dict[IntPartition, dict]:
    """m_lam in the basis for each lam of ps, by back substitution: basis_lam must be a
    nonzero multiple of m_lam plus m_nu for nu earlier in ps only."""
    inverse: dict[IntPartition, dict] = {}
    for lam in ps:
        col = dict(_basis_m_coeffs(basis, lam))
        diag, row = col.pop(lam), {lam: 1}
        for nu, c in col.items():
            for key, v in inverse[nu].items():
                row[key] = row.get(key, 0) - c * v
        inverse[lam] = row if diag == 1 else {key: Fraction(v, diag) for key, v in row.items()}
    return inverse


@lru_cache(maxsize=None)
def _m_inverse(basis: str, n: int) -> dict[IntPartition, tuple]:
    """Each m_mu of degree n in the basis, as mu -> (((lam, numerator), ...), denominator).
    p_lam is prod m_i(lam)! m_lam plus coarser m_nu, listed first by int_partitions, and
    s_lam is m_lam plus finer m_nu, listed last.  With k = m in s, the coefficient of h_nu
    in m_mu is sum_lam k[mu][lam] k[nu][lam], and of e_nu the same with k[nu][lam']."""
    ps = int_partitions(n)
    if basis in ("e", "h"):
        k = {mu: dict(pairs) for mu, (pairs, _) in _m_inverse("s", n).items()}
        flip = {lam: lam if basis == "h" else lam.conjugate() for lam in ps}
        gram = lambda mu, nu: sum(v * k[nu].get(flip[lam], 0) for lam, v in k[mu].items())
        inverse = {mu: {nu: gram(mu, nu) for nu in ps} for mu in ps}
    else:
        inverse = _triangular_inverse(basis, ps[::-1] if basis == "s" else ps)
    cols = ([(v, ((lam, 1),), 1) for lam in ps if (v := inverse[mu].get(lam))] for mu in ps)
    return {mu: (tuple(p.items()), d) for mu, (p, d) in zip(ps, map(_over_one_denominator, cols))}


def sym_convert(f: SymElement, target: str) -> SymElement:
    """Re-express an element in another basis, exactly."""
    _expect(SymElement, f)
    SymElement._check_tag(target)
    if target == f.basis:
        return SymElement._make(f.basis, f.terms.items())
    in_m = ((c, _basis_m_coeffs(f.basis, lam), 1) for lam, c in f.terms.items())
    in_m, den = _over_one_denominator(in_m)
    if target == "m":
        return SymElement._make_distinct("m", in_m, den)
    inverse = ((v, *_m_inverse(target, mu.n)[mu]) for mu, v in in_m.items() if v)
    out, back = _over_one_denominator(inverse)  # integer numerators over den * back
    return SymElement._make_distinct(target, out, den * back)


def sym_inner(f: SymElement, g: SymElement) -> Fraction:
    """Bilinear extension of <m_lam, h_mu> = delta_{lam,mu}; grades pair to zero.

    Only g changes basis, into the dual of f's: m with h, s with s, p with p
    (weight z_lam); an e factor goes through omega or trades places, as in ``inner``.
    """
    _expect(SymElement, f, g)
    if f.basis == "e":
        f, g = (omega_commutative(f), omega_commutative(g)) if g.basis == "e" else (g, f)
    dual = sym_convert(g, _DUAL[f.basis]).terms
    z = (lambda lam: prod(lam.parts) * lam.fact_mults()) if f.basis == "p" else (lambda lam: 1)
    return sum((c * z(lam) * dual[lam] for lam, c in f.terms.items() if lam in dual), Fraction(0))


def omega_commutative(f: SymElement) -> SymElement:
    """The involution swapping e and h, applied in whatever basis f uses."""
    _expect(SymElement, f)
    if f.basis in ("e", "h"):
        return SymElement._make("h" if f.basis == "e" else "e", f.terms.items())
    if f.basis == "p":
        return SymElement._make(
            "p", ((lam, c * (-1) ** (lam.n - lam.length)) for lam, c in f.terms.items())
        )
    swapped = omega_commutative(sym_convert(f, "e"))
    return sym_convert(swapped, f.basis)
