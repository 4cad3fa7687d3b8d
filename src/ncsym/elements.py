"""Elements of the algebra of symmetric functions in noncommuting variables.

An element is a sparse rational linear combination of basis symbols b_pi,
one basis tag among m/p/e/h, with set partitions of possibly several sizes
(the element is a finite sum of homogeneous components).  Basis changes sum
over the interval below a partition or every partition with its meet or join
with it, on growth strings with Mobius numbers in closed form, and read the
interval above pi, the partitions of its blocks, off one-block expansions; no
lattice tables are built.  Coefficients are exact rationals, never floats.
"""
from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import combinations, permutations
from math import factorial
from operator import itemgetter
from typing import Sequence

from .classical import SymElement, sym_convert
from .combination import (
    BasisElement, _from_json, _json_list, _over_one_denominator, _parse_element, _quotient
)
from .intpartitions import IntPartition, _expect
from .setpartitions import (
    SetPartition,
    check_permutation,
    join_walk,
    lower_sums,
    meet_bottom_walk,
    meet_walk,
    mobius_bottom,
    mobius_bottom_top,
    partitions_of_type,
    set_partitions,
)

NC_BASES = ("m", "p", "e", "h")
_DUAL = {"m": "h", "h": "m", "p": "p"}  # b_pi pairs only with _DUAL[b]_pi


class NCSymElement(BasisElement):
    """Sparse rational combination of one basis, indexed by set partitions."""

    __slots__ = ()
    BASES, KEY = NC_BASES, SetPartition
    _order = staticmethod(SetPartition.sort_key)  # degree, type, growth string
    _field = "blocks"
    _encode = staticmethod(lambda pi: [list(b) for b in pi.blocks])
    _decode = staticmethod(lambda v: SetPartition(map(_json_list, _json_list(v, list))))

    def _show(self, pi: SetPartition) -> str:
        return f"{self.tag}[{pi}]"

    @classmethod
    def unit(cls, basis: str = "m") -> "NCSymElement":
        """The empty-partition symbol, the multiplicative identity."""
        return cls(basis, {SetPartition(): 1})

    def is_homogeneous(self) -> bool:
        return len(self.degrees()) <= 1


format_ncsym = NCSymElement.to_text
ncsym_to_json = NCSymElement.to_json


def parse_ncsym(text: str) -> NCSymElement:
    """Parse an expression over the m/p/e/h bases indexed by set partitions, or JSON."""
    return _parse_element(text, NCSymElement, convert)


def ncsym_from_json(data) -> NCSymElement:
    return _from_json(data, NCSymElement)


@lru_cache(maxsize=None)
def _symbol_expansion(basis: str, target: str, pi: SetPartition) -> tuple:
    """Expansion of basis_pi in the target basis as (sigmas, integer numerators,
    one denominator).

    The twelve ordered pairs share six walks per pi, each a direct summation
    formula; the verification suites check that alternative routes agree.  e->m,
    h->m, e->p, p->e and e->h each walk the interval below pi or every sigma with
    its meet statistic; one join walk gives m->e and m->h; h->m and m->h share one
    key tuple.  m->p relabels e->p of the one-block partition of degree l(pi) through
    pi's blocks: sigma >= pi merges them by a partition r, and mu(pi, sigma) = mu(bottom, r).
    The other four are read off a sibling in one pass and share its keys: p->m is
    m->p with every numerator 1, h->p is e->p with |mu|, p->h is p->e over
    |mu(bottom, pi)|, and h->e is e->h.  The sums run on growth strings without
    lattice tables; ``verify`` keeps the same sums over the tables as the reference.
    """
    if basis == target:
        return (pi,), (1,), 1
    pair, make = (basis, target), SetPartition._from_rgs
    if pair == ("p", "m"):
        keys = _symbol_expansion("m", "p", pi)[0]
        return keys, (1,) * len(keys), 1
    if pair == ("h", "p"):
        keys, nums, scale = _symbol_expansion("e", "p", pi)
        return keys, tuple(map(abs, nums)), scale
    if pair == ("p", "h"):
        keys, nums, scale = _symbol_expansion("p", "e", pi)
        return keys, nums, abs(scale)
    if pair == ("h", "e"):
        return _symbol_expansion("e", "h", pi)
    if pair == ("h", "m"):
        return _every_partition(pi.n), tuple(meet_walk(pi.rgs)), 1
    if pair == ("e", "m"):  # every numerator is 1
        keys = tuple(map(make, meet_bottom_walk(pi.rgs)))
        return keys, (1,) * len(keys), 1
    if pair == ("m", "p"):  # r runs over the partitions of pi's blocks, ascending
        rs, mus, _ = _symbol_expansion("e", "p", make((0,) * pi.length))
        return tuple([make(tuple([r.rgs[x] for x in pi.rgs])) for r in rs]), mus, 1
    if pair in (("m", "e"), ("m", "h")):  # e keeps the taus with a nonzero signed numerator
        taus, signed, unsigned = _join_leaves(pi)
        keys = tuple(map(make, taus)) if target == "e" else _every_partition(pi.n)
        return keys, tuple(signed if target == "e" else unsigned), factorial(max(pi.n - 1, 0))

    scale = 1  # the numerators below are the coefficients times scale
    if pair == ("e", "p"):
        pairs = lower_sums(pi.rgs, lambda _, mu: mu)
    elif pair == ("p", "e"):
        scale = mobius_bottom(pi.rgs)
        pairs = lower_sums(pi.rgs, lambda k, _: mobius_bottom_top(k))
    else:  # e->h, the last pair: sign(tau) * lam(tau, pi)!, sign(tau) that of mu(bottom, tau)
        pairs = lower_sums(pi.rgs, lambda k, mu: factorial(k) if mu > 0 else -factorial(k))
    keys, nums = zip(*pairs)  # growth strings, canonical and ascending
    return tuple(map(make, keys)), nums, scale


# the keys of h->m and m->h; bounded, since each partition outlives it in the intern table
_every_partition = lru_cache(maxsize=8)(lambda n: tuple(set_partitions(n)))


@lru_cache(maxsize=1)  # the last pi's walk: a session converts one symbol to e and to h in turn
def _join_leaves(pi: SetPartition) -> tuple:
    """One join walk for pi, as ``join_walk`` returns it."""
    return join_walk(pi.rgs)


def _numerators(f: NCSymElement, target: str) -> tuple[dict, int]:
    """f in the target basis as sigma -> integer numerator over one denominator."""
    expansions = ((c, _symbol_expansion(f.basis, target, pi)) for pi, c in f.terms.items())
    return _over_one_denominator((c, zip(keys, nums), den) for c, (keys, nums, den) in expansions)


def convert(f: NCSymElement, target: str) -> NCSymElement:
    """Re-express an element in another of the m/p/e/h bases, exactly."""
    _expect(NCSymElement, f)
    NCSymElement._check_tag(target)
    if target == f.basis:
        return NCSymElement._make(f.basis, f.terms.items())
    if len(f.terms) == 1:  # one symbol: its expansion's keys are distinct, so nothing is summed
        ((pi, c),) = f.terms.items()
        keys, nums, den = _symbol_expansion(f.basis, target, pi)
        a = c.numerator
        terms = dict(zip(keys, nums if a == 1 else map(a.__mul__, nums)))
        return NCSymElement._make_distinct(target, terms, den * c.denominator)
    return NCSymElement._make_distinct(target, *_numerators(f, target))


def omega(f: NCSymElement) -> NCSymElement:
    """The involution with omega(e_pi) = h_pi; p_pi is an eigenvector of sign(pi),
    and m_pi goes to sign(pi) * sum over tau >= pi of lam(pi, tau)! m_tau: tau merges
    pi's blocks by a partition r, m->p's keys, and lam(pi, tau)! is h->m's numerator
    of r under the one-block partition of degree l(pi), in the same order."""
    _expect(NCSymElement, f)
    if f.basis in ("e", "h"):
        return NCSymElement._make("h" if f.basis == "e" else "e", f.terms.items())
    if f.basis == "p":
        return NCSymElement._make("p", ((pi, c * pi.sign) for pi, c in f.terms.items()))
    make, expansions = SetPartition._from_rgs, []
    for pi, c in f.terms.items():
        lams = _symbol_expansion("h", "m", make((0,) * pi.length))[1]
        expansions.append((c * pi.sign, zip(_symbol_expansion("m", "p", pi)[0], lams), 1))
    return NCSymElement._make_distinct("m", *_over_one_denominator(expansions))


def project(f: NCSymElement) -> SymElement:
    """Let the variables commute; lands in the same-letter commutative basis.

    m_pi picks up the multiplicity factorial of its type, e_pi and h_pi the
    part factorial, and p_pi projects with coefficient 1.
    """
    _expect(NCSymElement, f)
    types = ((pi.type, c) for pi, c in f.terms.items())
    if f.basis == "p":
        return SymElement._make("p", types)
    weight = IntPartition.fact_mults if f.basis == "m" else IntPartition.fact_parts
    return SymElement._make(f.basis, ((lam, c * weight(lam)) for lam, c in types))


def lift(f: SymElement) -> NCSymElement:
    """Right inverse of projection: spread each m_lam over its set partitions."""
    _expect(SymElement, f)
    # one share per type, kept int when integral, as convert keeps its coefficients
    shares = (
        (lam, _quotient(c.numerator * lam.fact_parts(), c.denominator * factorial(lam.n)))
        for lam, c in sym_convert(f, "m").terms.items()
    )
    return NCSymElement._make("m", ((pi, s) for lam, s in shares for pi in partitions_of_type(lam)))


def schur_ncsym(lam: IntPartition) -> NCSymElement:
    """Noncommuting Schur analogue: the lift of n! s_lam, so every m_sigma of
    type mu has coefficient mu! times the Kostka number K_{lam,mu}."""
    _expect(IntPartition, lam)
    return lift(SymElement._make("s", ((lam, factorial(lam.n)),)))


def inner(f: NCSymElement, g: NCSymElement) -> Fraction:
    """Bilinear form with <m_pi, h_sigma> = n! delta; grades pair to zero.

    Only g changes basis, into the dual of f's: m with h (weight n!), p with p
    (weight n!/|mu(bottom, pi)|).  An e factor trades places with g, or when
    both are e, omega relabels both as h: the form is symmetric, omega an isometry.
    """
    _expect(NCSymElement, f, g)
    if f.basis == "e":
        f, g = (omega(f), omega(g)) if g.basis == "e" else (g, f)
    dual, den = _numerators(g, _DUAL[f.basis])  # integer numerators over den
    mu = (lambda pi: abs(mobius_bottom(pi.rgs))) if f.basis == "p" else (lambda pi: 1)
    pairing = (c * (factorial(p.n) // mu(p)) * dual[p] for p, c in f.terms.items() if p in dual)
    return Fraction(sum(pairing), den)


def place_act(perm: Sequence[int], f: NCSymElement) -> NCSymElement:
    """Permute monomial positions; on basis symbols this relabels the index."""
    _expect(NCSymElement, f)
    if not f.is_homogeneous():
        raise ValueError("place action needs a homogeneous element")
    check_permutation(perm, f.degree() if f.terms else len(perm))  # zero takes any permutation
    return NCSymElement._make(f.basis, ((pi.act(perm), c) for pi, c in f.terms.items()))


def multiply(f: NCSymElement, g: NCSymElement) -> NCSymElement:
    """Product in the ambient free algebra, in the factors' shared basis, else m.

    Factors in different bases both go to m: converting one into the other's
    basis can turn a one-term symbol into a sum over every partition below it.
    In p, e and h each pair of terms gives the one term b_{pi|sigma}, sigma's
    blocks shifted past pi's ground set (slash rule).  In m each pair
    multiplies by the monomial rule m_pi * m_sigma = sum of m_rho over the rho
    with rho meet (top | top) = pi | sigma: the rho obtained from pi | sigma by
    merging some blocks of pi one-to-one into blocks of the shifted sigma.
    """
    _expect(NCSymElement, f, g)
    if f.basis != g.basis:
        f, g = convert(f, "m"), convert(g, "m")
    if f.basis == "m" and len(f.terms) == len(g.terms) == 1:  # one pair: its rho are distinct
        ((pi, a),), ((sigma, b),) = f.terms.items(), g.terms.items()
        return NCSymElement._make_distinct("m", dict.fromkeys(_merges(pi, sigma), a * b))
    pairs = []
    for pi, a in f.terms.items():
        ell = pi.length
        for sigma, b in g.terms.items():
            ab = a * b
            if f.basis == "m":
                pairs.extend((rho, ab) for rho in _merges(pi, sigma))
            else:
                rho = SetPartition._from_rgs(pi.rgs + tuple([v + ell for v in sigma.rgs]))
                pairs.append((rho, ab))
    return NCSymElement._make(f.basis, pairs)


@lru_cache(maxsize=256)  # one small table per pair of block counts, rebuilt in microseconds
def _matchings(ell: int, k: int) -> tuple:
    """The partial injective matchings of k blocks into ell, in ``_merges``' order.

    One (r, fresh, slot) per r and each r blocks chosen, in ``combinations``
    order: block j reads slot[j] of fresh + targets, where fresh numbers the
    k - r unmatched blocks ell, ell + 1, ... in order and targets are the
    blocks of pi that the chosen ones merge into.
    """
    table = []
    for r in range(min(ell, k) + 1):
        fresh = tuple(range(ell, ell + k - r))
        for chosen in combinations(range(k), r):
            order = [j for j in range(k) if j not in chosen] + list(chosen)  # slot -> block
            table.append((r, fresh, tuple(sorted(range(k), key=order.__getitem__))))  # its inverse
    return tuple(table)


def _merges(pi: SetPartition, sigma: SetPartition):
    """Every rho with rho meet (top | top) = pi | sigma, each exactly once.

    A rho is a partial injective matching of sigma's blocks (shifted by pi.n)
    into pi's blocks; matched blocks merge, the rest stay apart, numbered ell, ell + 1, ...
    Each rho is one gather of sigma's labels from fresh + targets.
    """
    ell, head, make = pi.length, pi.rgs, SetPartition._from_rgs
    for r, fresh, slot in _matchings(ell, sigma.length):
        idx = [slot[v] for v in sigma.rgs]
        # itemgetter gives a scalar for one index and fails on none, so those take a slice
        start = idx[0] if idx else 0
        pick = itemgetter(*idx) if len(idx) > 1 else itemgetter(slice(start, start + len(idx)))
        for targets in permutations(range(ell), r):
            yield make(head + pick(fresh + targets))
