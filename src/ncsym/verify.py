"""Named verification suites: every identity the library promises, checked
exhaustively at desk scale with exact arithmetic.

Every check has one shape: a suite yields (check name, cases), where each
case is (label, production view, reference view), and ``run`` alone compares
the views and turns each check into the JSON record {"name", "ok", "detail"}.
The label is a tuple of the case's inputs, joined into text only when the case
fails.  One pass may serve several checks: then the name is a tuple of names
and each side of a case holds one view per name.  A size cap can lower (never
raise) the default ranges, so ``run(["all"], max_n=4)`` is a fast smoke pass
while the defaults reproduce the full acceptance sizes.

This module is the one home of the reference routes: the partition lattice
and every route a fast path replaced.  No production module imports it.  The
``reference`` suite holds each fast path to its route.
"""
from __future__ import annotations

import itertools
from collections import Counter
from fractions import Fraction
from functools import lru_cache, partial
from math import factorial, prod
from typing import Callable, Iterable, Iterator

from .classical import SymElement, omega_commutative, sym_convert, sym_inner
from .classical import _basis_m_coeffs, _m_inverse
from .combination import _over_one_denominator
from .elements import NCSymElement, convert, inner, lift, multiply, omega, place_act, project
from .elements import _merges, schur_ncsym
from .intpartitions import IntPartition, int_partitions, kostka, weak_compositions
from .macmahon import (
    MultiPolynomial,
    Truncation,
    _tableau_sum,
    cauchy_check,
    jacobi_trudi,
    mm_complete,
    mm_elementary,
    monomial,
    phi_collect,
    schur_tableau_sum,
)
from .rsk import Biword, rsk_forward, rsk_inverse
from .setpartitions import SetPartition, mobius, set_partitions
from .tableaux import DottedEntry, DottedTableau, dot_swap_involution, dotted_tableaux
from .words import WordPolynomial, collect, expand, expand_position_action, kernel


Case = tuple[tuple, object, object]  # (label, production view, reference view)
Checks = Iterator[tuple[str | tuple[str, ...], Iterable[Case]]]  # what a suite yields

_BASES = ("m", "p", "e", "h")


def _cap(default: int, max_n: int | None) -> int:
    return default if max_n is None else min(default, max_n)


def _basis_elem(basis: str, pi: SetPartition) -> NCSymElement:
    return NCSymElement(basis, {pi: Fraction(1)})


# ---------------------------------------------------------------------------
# reference implementations used only for cross-checking


class PartitionLattice:
    """The refinement order of one degree, the reference the closed forms are
    checked against: the partitions above and below each one, in growth-string
    order, and the Mobius function on the comparable pairs, so (a, b) in mu
    exactly when a <= b."""

    def __init__(self, n: int):
        self.n = n
        self.elements = set_partitions(n)
        self.above: dict[SetPartition, list[SetPartition]] = {p: [] for p in self.elements}
        self.below: dict[SetPartition, list[SetPartition]] = {p: [] for p in self.elements}
        self.mu: dict[tuple[SetPartition, SetPartition], int] = {}
        for p in self.elements:
            for q in self.elements:
                if p.leq(q):
                    self.above[p].append(q)
                    self.below[q].append(p)
                    self.mu[p, q] = mobius(p, q)


@lru_cache(maxsize=None)
def lattice(n: int) -> PartitionLattice:
    return PartitionLattice(n)


def _row_reduce(rows: list[list[Fraction]], ncols: int) -> int:
    """Bring the first ncols columns of rows to reduced echelon form over the
    rationals, in place, carrying any further columns along; returns the rank
    of those columns."""
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


def matrix_rank(matrix: list[list[Fraction]]) -> int:
    """Rank over the rationals by row reduction."""
    rows = [[Fraction(v) for v in row] for row in matrix]
    return _row_reduce(rows, len(rows[0]) if rows else 0)


def _mobius_recursive(lat) -> dict[tuple[SetPartition, SetPartition], int]:
    """Mobius numbers on every interval from the defining recursion."""
    table: dict[tuple[SetPartition, SetPartition], int] = {}
    for a in lat.elements:
        for b in sorted(lat.above[a], key=lambda b: len(lat.below[b])):
            total = 0  # over a <= c < b, each sorted before b: fewer partitions lie below c
            for c in lat.above[a]:
                if c is not b and (c, b) in lat.mu:
                    total += table[a, c]
            table[a, b] = 1 if a is b else -total
    return table


def _expansion_by_lattice_tables(basis: str, target: str, pi: SetPartition) -> tuple:
    """basis_pi in the target basis as ((sigma, coeff), ...), summed over the
    order and Mobius tables of lattice(n), with meets and types read off the
    partitions."""
    lat = lattice(pi.n)
    bottom, pair = SetPartition.bottom(pi.n), (basis, target)
    # mu(bottom, s), taken as |mu(bottom, s)| by the pairs with m or p
    mu0 = (lambda s: lat.mu[bottom, s]) if "e" in pair else (lambda s: abs(lat.mu[bottom, s]))
    if basis == target:
        terms = [(pi, 1)]
    elif pair == ("p", "m"):
        terms = [(s, 1) for s in lat.above[pi]]
    elif pair == ("m", "p"):
        terms = [(s, lat.mu[pi, s]) for s in lat.above[pi]]
    elif pair == ("e", "m"):
        terms = [(s, 1) for s in lat.elements if pi.meet(s) is bottom]
    elif pair == ("h", "m"):
        terms = [(s, pi.meet(s).type.fact_parts()) for s in lat.elements]
    elif basis == "m":  # to e or h: over sigma above pi, then tau below sigma
        terms = [
            (t, Fraction(lat.mu[pi, s], mu0(s)) * lat.mu[t, s])
            for s in lat.above[pi]
            for t in lat.below[s]
        ]
    elif target == "p":  # from e or h
        terms = [(s, mu0(s)) for s in lat.below[pi]]
    elif basis == "p":  # to e or h
        terms = [(s, Fraction(lat.mu[s, pi], mu0(pi))) for s in lat.below[pi]]
    else:  # e -> h and h -> e
        terms = [(s, s.sign * s.interval_type(pi).fact_parts()) for s in lat.below[pi]]
    acc: dict[SetPartition, Fraction] = {}
    for s, c in terms:
        acc[s] = acc.get(s, 0) + c
    return tuple((s, c) for s, c in sorted(acc.items(), key=lambda sc: sc[0].rgs) if c)


def _rsk_by_linear_scan(columns, value=lambda e: e.value):
    """Insertion and recording rows of a biword's (top, bottom) columns: each
    bottom entry bumps, row by row, the first entry of larger value found by a
    linear scan."""
    insertion: list[list] = []
    recording: list[list] = []
    for top, entry in columns:
        for r, row in enumerate(insertion):
            spot = next((c for c, e in enumerate(row) if value(e) > value(entry)), None)
            if spot is None:
                row.append(entry)
                break
            entry, row[spot] = row[spot], entry
        else:
            r = len(insertion)
            insertion.append([entry])
        if r == len(recording):
            recording.append([])
        recording[r].append(top)
    return tuple(map(tuple, insertion)), tuple(map(tuple, recording))


def _rsk_inverse_by_max_scan(tab_rows, rec_rows):
    """The biword columns of a same-shape pair of tableau rows: each step removes
    the recording cell found by a max scan over the row ends."""
    insertion = [list(row) for row in tab_rows]
    recording = [list(row) for row in rec_rows]
    columns = []
    for _ in range(sum(map(len, tab_rows))):
        r = max(range(len(recording)), key=lambda r: (recording[r][-1].value, len(recording[r])))
        top = recording[r].pop()
        carry = insertion[r].pop()
        if not recording[r]:
            recording.pop()
            insertion.pop()
        for above in range(r - 1, -1, -1):
            row = insertion[above]
            spot = max(c for c, e in enumerate(row) if e.value < carry.value)
            carry, row[spot] = row[spot], carry
        columns.append((top, carry))
    return tuple(reversed(columns))


def _tableaux_by_cell_walk(lengths, max_value, classes, multidegree=None):
    """The rows of every dotted filling of the row lengths, walked cell by cell."""
    # entries left in each class; without a multidegree, as many as there are cells
    budget = list(multidegree) if multidegree is not None else [sum(lengths)] * classes
    rows: list[list[DottedEntry]] = [[] for _ in lengths]

    def rec(r, c):
        if r == len(lengths):
            yield tuple(map(tuple, rows))
            return
        nr, nc = (r, c + 1) if c + 1 < lengths[r] else (r + 1, 0)
        lo = max(rows[r][c - 1].value if c else 1, rows[r - 1][c].value + 1 if r else 1)
        for v in range(lo, max_value + 1):
            for cls in range(1, classes + 1):
                if budget[cls - 1]:
                    budget[cls - 1] -= 1
                    rows[r].append(DottedEntry(v, cls))
                    yield from rec(nr, nc)
                    rows[r].pop()
                    budget[cls - 1] += 1

    yield from rec(0, 0)


def _tableau_sum_by_cell_walk(shape, trunc, vec=None) -> dict:
    """The tableau generating function, monomial -> count, summed over the cell walk."""
    fillings = _tableaux_by_cell_walk(shape.parts, trunc.variables, trunc.alphabets, vec)
    monomials = (monomial(((e.value, e.dots), 1) for row in rows for e in row) for rows in fillings)
    return dict(Counter(monomials))


def _dot_swap_by_column_scan(tab_rows, i):
    """The dot-swap involution's rows: a column holding an i and an i+1 trades
    their dot classes, and each row's free run of i's and (i+1)'s is rewritten."""
    rows = [list(row) for row in tab_rows]
    width = len(rows[0]) if rows else 0
    paired = set()
    for c in range(width):
        hits = {row[c].value: r for r, row in enumerate(rows) if c < len(row)}
        if i in hits and i + 1 in hits:
            r, r1 = hits[i], hits[i + 1]
            a, b = rows[r][c], rows[r1][c]
            rows[r][c], rows[r1][c] = DottedEntry(i, b.dots), DottedEntry(i + 1, a.dots)
            paired |= {(r, c), (r1, c)}
    for r, row in enumerate(rows):
        free_i = [c for c, e in enumerate(row) if e.value == i and (r, c) not in paired]
        free_i1 = [c for c, e in enumerate(row) if e.value == i + 1 and (r, c) not in paired]
        new_entries = [DottedEntry(i, row[c].dots) for c in free_i1]
        new_entries += [DottedEntry(i + 1, row[c].dots) for c in free_i]
        for c, e in zip(free_i + free_i1, new_entries):
            row[c] = e
    return tuple(map(tuple, rows))


def _elementary_by_subscripts(t, trunc) -> dict:
    """mm_elementary's terms by a walk over the subscripts, each taking one
    letter of some alphabet or none."""
    terms = {}

    def rec(i, remaining, chosen):
        if not any(remaining):
            terms[tuple(((s, j), 1) for s, j in chosen)] = 1
            return
        if i > trunc.variables or sum(remaining) > trunc.variables - i + 1:
            return
        rec(i + 1, remaining, chosen)
        for j in range(1, trunc.alphabets + 1):
            if remaining[j - 1]:
                nxt = list(remaining)
                nxt[j - 1] -= 1
                rec(i + 1, tuple(nxt), chosen + [(i, j)])

    rec(1, tuple(t), [])
    return terms


def _complete_by_subscripts(t, trunc) -> dict:
    """mm_complete's terms by a walk over the subscripts, each taking any vector
    of letters, weighted by its multinomial coefficient."""
    terms = {}
    multinomial = lambda vec: factorial(sum(vec)) // prod(map(factorial, vec))

    def rec(i, remaining, chosen, coeff):
        if not any(remaining):
            mono = monomial(((s, j), v) for s, vec in chosen for j, v in enumerate(vec, 1))
            terms[mono] = terms.get(mono, 0) + coeff
            return
        if i > trunc.variables:
            return
        for vec in itertools.product(*(range(r + 1) for r in remaining)):
            if any(vec):
                rest = tuple(r - v for r, v in zip(remaining, vec))
                rec(i + 1, rest, chosen + [(i, vec)], coeff * multinomial(vec))
            else:
                rec(i + 1, remaining, chosen, coeff)

    rec(1, tuple(t), [], 1)
    return terms


def _jt_by_permutation_expansion(lam, variant, trunc) -> MultiPolynomial:
    """The whole Jacobi-Trudi determinant, every multidegree in every entry,
    expanded over the permutations."""
    generator = {"h": mm_complete, "e": mm_elementary}[variant]
    size = lam.length

    def entry(degree: int):  # None below degree 0, 1 at degree 0
        if degree <= 0:
            return MultiPolynomial.one(trunc) if degree == 0 else None
        pieces = (generator(t, trunc) for t in weak_compositions(degree, trunc.alphabets))
        return sum(pieces, MultiPolynomial(trunc))

    entries = [[entry(lam.parts[i] - i + j) for j in range(size)] for i in range(size)]
    det = MultiPolynomial(trunc)
    for perm in itertools.permutations(range(size)):
        if any(entries[i][perm[i]] is None for i in range(size)):
            continue
        inversions = sum(perm[a] > perm[b] for a, b in itertools.combinations(range(size), 2))
        term = MultiPolynomial.one(trunc)
        for i in range(size):
            term = term * entries[i][perm[i]]
        det = det + (-1) ** inversions * term
    return det


def _merges_by_block_assembly(pi, sigma):
    """Every rho with rho meet (top | top) = pi | sigma: sigma's shifted blocks
    glued onto pi's and rebuilt through the checking constructor."""
    right = [tuple(e + pi.n for e in b) for b in sigma.blocks]
    for r in range(min(len(pi.blocks), len(right)) + 1):
        for chosen in itertools.combinations(range(len(right)), r):
            rest = [b for j, b in enumerate(right) if j not in chosen]
            for targets in itertools.permutations(range(len(pi.blocks)), r):
                blocks = list(pi.blocks)
                for i, j in zip(targets, chosen):
                    blocks[i] += right[j]
                yield SetPartition(blocks + rest)


def _product_by_monomial_rule(f: NCSymElement, g: NCSymElement) -> NCSymElement:
    """The product in m: both factors converted to m, their merges summed, each
    merge assembled from blocks, so the check shares no code with ``_merges``."""
    fm, gm = convert(f, "m"), convert(g, "m")
    out: dict[SetPartition, Fraction] = {}
    for pi, a in fm.terms.items():
        for sigma, b in gm.terms.items():
            for rho in _merges_by_block_assembly(pi, sigma):
                out[rho] = out.get(rho, 0) + a * b
    return NCSymElement("m", out)


def oracle_product(f: NCSymElement, g: NCSymElement) -> NCSymElement:
    """The product by brute force: the word expansions multiplied, collected into m."""
    total = f.degree() + g.degree()
    k = max(total, 1)
    return collect(expand(f, k) * expand(g, k), total)


def _pairs_up_to(total: int):
    """Every pair of set partitions of total degree at most total, the empty one included."""
    for t in range(total + 1):
        for n in range(t + 1):
            for pi in set_partitions(n):
                for sigma in set_partitions(t - n):
                    yield pi, sigma


def _expand_by_lattice_tables(f: NCSymElement, k: int) -> WordPolynomial:
    """The word expansion in k letters: each basis symbol in m by the lattice
    tables, each m_sigma as the words of kernel sigma, one per injective
    labelling of its blocks."""
    out: dict[tuple[int, ...], Fraction] = {}
    for pi, c in f.terms.items():
        for sigma, coeff in _expansion_by_lattice_tables(f.basis, "m", pi):
            for letters in itertools.permutations(range(1, k + 1), sigma.length):
                word = tuple(letters[lab] for lab in sigma.rgs)
                out[word] = out.get(word, 0) + c * coeff
    return WordPolynomial(k, out)


def _m_coeffs_by_polynomial_expansion(basis: str, lam: IntPartition) -> tuple:
    """The classical p/e/h_lam in m as ((mu, coeff), ...): the generators
    multiplied out in n variables, the coefficient of x^mu read off."""
    k = max(lam.n, 1)
    poly = {(0,) * k: 1}
    for r in lam.parts:
        if basis == "p":
            gen = [tuple(r * (i == j) for j in range(k)) for i in range(k)]
        elif basis == "e":
            subsets = itertools.combinations(range(k), r)
            gen = [tuple(int(j in s) for j in range(k)) for s in subsets]
        else:
            gen = [v for v in itertools.product(range(r + 1), repeat=k) if sum(v) == r]
        out: dict[tuple[int, ...], int] = {}
        for exps, c in poly.items():
            for g in gen:
                key = tuple(a + b for a, b in zip(exps, g))
                out[key] = out.get(key, 0) + c
        poly = out
    coeffs = ((mu, poly.get(mu.parts + (0,) * (k - mu.length), 0)) for mu in int_partitions(lam.n))
    return tuple((mu, c) for mu, c in coeffs if c)


def _m_inverse_by_gauss_jordan(basis: str, n: int) -> tuple[int, dict]:
    """The rank of the degree-n matrix whose column lam is basis_lam in m, and
    each m_mu in the basis as ``_m_inverse`` gives it: one row reduction of
    [matrix | identity], its right half read off as columns over one denominator."""
    ps = int_partitions(n)
    columns = [{mu: Fraction(c) for mu, c in _basis_m_coeffs(basis, lam)} for lam in ps]
    aug = [[col.get(mu, 0) for col in columns] + [Fraction(mu == nu) for nu in ps] for mu in ps]
    rank = _row_reduce(aug, len(ps))
    inverse = zip(*(row[len(ps):] for row in aug))  # column mu: m_mu in the basis
    cols = ([(v, ((lam, 1),), 1) for lam, v in zip(ps, col) if v] for col in inverse)
    solved = zip(ps, map(_over_one_denominator, cols))
    return rank, {mu: (tuple(p.items()), d) for mu, (p, d) in solved}


def _kostka_by_enumeration(lam: IntPartition, mu: IntPartition) -> int:
    """Semistandard fillings of shape lam and content mu, filled cell by cell,
    rows weakly and columns strictly increasing."""
    if lam.n == 0:
        return 1
    shape = lam.parts
    remaining = list(mu.parts) + [0]
    values = len(mu.parts)
    rows = [[0] * r for r in shape]

    def fill(r, c):
        if r == len(shape):
            return 1
        nr, nc = (r, c + 1) if c + 1 < shape[r] else (r + 1, 0)
        lo = max(rows[r][c - 1] if c else 1, rows[r - 1][c] + 1 if r else 1)
        total = 0
        for v in range(lo, values + 1):
            if remaining[v - 1] == 0:
                continue
            remaining[v - 1] -= 1
            rows[r][c] = v
            total += fill(nr, nc)
            remaining[v - 1] += 1
        rows[r][c] = 0
        return total

    return fill(0, 0)


def _all_biwords(max_len: int, max_value: int, classes: int):
    """Every biword with the stated bounds; ties carry all dot patterns.

    The value pairs come out of ``combinations_with_replacement`` of a sorted
    list, so the columns are sorted by construction and skip the check.  Each
    value pair offers its columns in every pair of dot classes, one entry
    object per (value, class)."""
    dots = list(itertools.product(range(1, classes + 1), repeat=2))
    dotted = [
        [(DottedEntry(t, a), DottedEntry(b, c)) for a, c in dots]
        for t in range(1, max_value + 1)
        for b in range(1, max_value + 1)
    ]
    for length in range(max_len + 1):
        for values in itertools.combinations_with_replacement(dotted, length):
            for columns in itertools.product(*values):
                yield Biword._make(columns)


def _h_expansion_by_linear_orders(pi: SetPartition, k: int):
    """Count (function, block-ordering) pairs directly, word by word."""
    return {
        word: prod(factorial(len(block)) for block in kernel(word).meet(pi).blocks)
        for word in itertools.product(range(1, k + 1), repeat=pi.n)
    }


# ---------------------------------------------------------------------------
# suites


def suite_examples(max_n: int | None = None) -> Checks:
    """Reproduce the worked examples exactly."""
    pi = SetPartition.parse("13/24")

    expected_p = {"13/24": 1, "1234": 1}
    expected_e = {
        "12/34": 1, "14/23": 1, "12/3/4": 1, "14/2/3": 1,
        "1/23/4": 1, "1/2/34": 1, "1/2/3/4": 1,
    }
    expected_h = {
        "1/2/3/4": 1, "12/3/4": 1, "13/2/4": 2, "14/2/3": 1, "1/23/4": 1,
        "1/24/3": 2, "1/2/34": 1, "12/34": 1, "13/24": 4, "14/23": 1,
        "123/4": 2, "124/3": 2, "134/2": 2, "1/234": 2, "1234": 4,
    }
    for basis, expected in (("p", expected_p), ("e", expected_e), ("h", expected_h)):
        got = convert(_basis_elem(basis, pi), "m").terms
        want = {SetPartition.parse(k): Fraction(v) for k, v in expected.items()}
        label = "got", len(got), "terms, mismatch"
        yield f"examples.{basis}_13/24_monomial_expansion", [(label, got, want)]

    value = inner(_basis_elem("m", pi), _basis_elem("h", pi))
    yield "examples.inner_m_h_13/24_is_24", [(("got", value), value, 24)]

    def bottom_top(top):
        for n in range(1, top + 1):
            got = mobius(SetPartition.bottom(n), SetPartition.top(n))
            want = (-1) ** (n - 1) * factorial(n - 1)
            yield (f"n={n}:", got, "!=", want), got, want

    yield "examples.mobius_bottom_top_formula", bottom_top(_cap(6, max_n))

    S = schur_tableau_sum(IntPartition((3, 1)), (2, 2), Truncation(2, 4, 4))
    coeff = S.coefficient((((1, 1), 2), ((1, 2), 1), ((2, 2), 1)))
    yield "examples.macmahon_schur_31_22_coefficient_3", [(("got", coeff), coeff, 3)]

    biword = Biword.parse("1' 2' 2'' 2' 3'' 4'\n2' 1'' 3'' 3' 2'' 1'")
    T, U = rsk_forward(biword)
    want_T = DottedTableau([[(1, 2), (1, 1), (3, 1)], [(2, 1), (2, 2)], [(3, 2)]])
    # the recording dots come verbatim from the biword's top row
    want_U = DottedTableau([[(1, 1), (2, 2), (2, 1)], [(2, 1), (3, 2)], [(4, 1)]])
    yield "examples.rsk_insertion_tableau", [(("got", T), T, want_T)]
    yield "examples.rsk_recording_tableau", [(("got", U), U, want_U)]


def suite_roundtrip(max_n: int | None = None) -> Checks:
    """Every ordered pair of bases converts there and back to the identity."""
    for n in range(_cap(5, max_n) + 1):
        elems = set_partitions(n)
        for b1, b2 in itertools.permutations(_BASES, 2):
            route = f"{b1}->{b2}->{b1}"
            yield f"roundtrip.n{n}.{route}", (
                ((route, "at", pi), convert(convert(f, b2), b1), f)
                for pi in elems
                for f in [_basis_elem(b1, pi)]
            )
        # production's join walk for m -> e and m -> h against the route through p
        yield f"roundtrip.n{n}.double_sum_matches_route_via_p", (
            ((f, "->", target), convert(f, target), convert(convert(f, "p"), target))
            for pi in elems
            for f in [_basis_elem("m", pi)]
            for target in ("e", "h")
        )
        yield f"roundtrip.n{n}.convert_matches_lattice_tables", (
            (
                (f, "->", b2),
                convert(f, b2),
                NCSymElement(b2, _expansion_by_lattice_tables(b1, b2, pi)),
            )
            for pi in elems
            for b1 in _BASES
            for f in [_basis_elem(b1, pi)]
            for b2 in _BASES
        )


def suite_oracle(max_n: int | None = None) -> Checks:
    """All nine basis-change formulas hold as exact word-polynomial identities.

    Each formula is read from the table reference ``_expansion_by_lattice_tables``,
    the one that ``roundtrip.n{n}.convert_matches_lattice_tables`` holds the
    production conversions to, so the oracle certifies that reference.
    """
    identities = {
        "p_as_sum_of_m_above": ("p", "m"),
        "e_as_sum_of_m_meeting_bottom": ("e", "m"),
        "h_as_meet_factorial_sum_of_m": ("h", "m"),
        "e_as_mobius_sum_of_p": ("e", "p"),
        "h_as_abs_mobius_sum_of_p": ("h", "p"),
        "p_as_mobius_sum_of_e": ("p", "e"),
        "p_as_mobius_sum_of_h": ("p", "h"),
        "e_as_signed_interval_sum_of_h": ("e", "h"),
        "h_as_signed_interval_sum_of_e": ("h", "e"),
    }
    for n in range(1, _cap(4, max_n) + 1):
        elems = set_partitions(n)
        k = n
        exp = {(b, pi): expand(_basis_elem(b, pi), k) for b in _BASES for pi in elems}

        def by_table(basis, target, pi):
            """basis_pi as the table's combination of the target symbols' expansions."""
            terms = _expansion_by_lattice_tables(basis, target, pi)
            return sum((c * exp[target, sigma] for sigma, c in terms), 0 * exp[target, pi])

        for identity, (basis, target) in identities.items():
            yield f"oracle.n{n}.{identity}", (
                ((pi,), exp[basis, pi], by_table(basis, target, pi)) for pi in elems
            )

        if n <= 3:
            yield f"oracle.n{n}.h_matches_linear_order_count", (
                ((pi,), exp["h", pi].terms, {w: Fraction(c) for w, c in counts.items() if c})
                for pi in elems
                for counts in [_h_expansion_by_linear_orders(pi, k)]
            )

        yield f"oracle.n{n}.kernel_constant_on_m_expansion", (
            ((pi,), {kernel(w) for w in exp["m", pi].terms}, {pi}) for pi in elems
        )

        yield f"oracle.n{n}.place_action_commutes_with_expansion", (
            (("g =", g, f), expand(place_act(g, f), k), expand_position_action(g, exp[b, pi]))
            for g in itertools.permutations(range(1, n + 1))
            for pi in elems
            for b in _BASES
            for f in [_basis_elem(b, pi)]
        )


def suite_mobius(max_n: int | None = None) -> Checks:
    """Product-formula Mobius versus the recursion, plus the summation laws."""
    for n in range(_cap(5, max_n) + 1):
        lat = lattice(n)
        recursive = _mobius_recursive(lat)
        yield f"mobius.n{n}.product_equals_recursive", (
            ((a, b), lat.mu.get((a, b), 0), recursive.get((a, b), 0))
            for a, b in itertools.product(lat.elements, repeat=2)
        )
        yield f"mobius.n{n}.interval_sums_are_delta", (
            ((a, b), sum(lat.mu[a, t] for t in lat.above[a] if (t, b) in lat.mu), int(a is b))
            for a in lat.elements
            for b in lat.above[a]
        )

    for n in range(_cap(6, max_n) + 1):
        lat = lattice(n)
        bottom = SetPartition.bottom(n)
        yield f"mobius.n{n}.abs_sum_below_is_type_factorial", (
            ((b,), sum(abs(lat.mu[bottom, a]) for a in lat.below[b]), b.type.fact_parts())
            for b in lat.elements
        )
        yield f"mobius.n{n}.sign_carries_mobius_sign", (
            ((b,), lat.mu[bottom, b], b.sign * abs(lat.mu[bottom, b])) for b in lat.elements
        )


def suite_omega(max_n: int | None = None) -> Checks:
    """The e/h involution: order two, power-sum eigenvectors, projection."""
    for n in range(_cap(5, max_n) + 1):
        elems = set_partitions(n)
        basis_elems = [_basis_elem(b, pi) for b in _BASES for pi in elems]
        yield f"omega.n{n}.involution", (((f,), omega(omega(f)), f) for f in basis_elems)
        yield f"omega.n{n}.power_sum_eigenvectors", (
            ((f,), omega(f), pi.sign * f) for pi in elems for f in [_basis_elem("p", pi)]
        )
        yield f"omega.n{n}.commutes_with_projection", (
            (
                (f,),
                sym_convert(project(omega(f)), "m"),
                sym_convert(omega_commutative(project(f)), "m"),
            )
            for f in basis_elems
        )
        yield f"omega.n{n}.schur_conjugation", (
            ((lam,), convert(omega(schur_ncsym(lam)), "m"), schur_ncsym(lam.conjugate()))
            for lam in int_partitions(n)
        )


def suite_inner(max_n: int | None = None) -> Checks:
    """All ten closed forms of the bilinear pairing, plus its axioms."""
    for n in range(1, _cap(4, max_n) + 1):
        lat = lattice(n)
        nf = factorial(n)
        elems = lat.elements
        bottom = SetPartition.bottom(n)

        def zeta(a: SetPartition, b: SetPartition) -> int:
            return 1 if (a, b) in lat.mu else 0

        def abs_mu_bottom(a: SetPartition) -> int:
            return abs(lat.mu[bottom, a])

        def pairs(*bases):
            """(a, b, b1_a, b2_b) for each (b1, b2) of bases and each pair (a, b)."""
            for b1, b2 in bases:
                for a, b in itertools.product(elems, repeat=2):
                    yield a, b, _basis_elem(b1, a), _basis_elem(b2, b)

        closed_forms = {
            ("e", "e"): lambda a, b: nf * a.meet(b).type.fact_parts(),
            ("e", "h"): lambda a, b: nf * (1 if a.meet(b) is bottom else 0),
            ("e", "p"): lambda a, b: b.sign * nf * zeta(b, a),
            ("e", "m"): lambda a, b: (
                b.sign * nf * b.interval_type(a).fact_parts() if zeta(b, a) else 0
            ),
            ("h", "h"): lambda a, b: nf * a.meet(b).type.fact_parts(),
            ("h", "p"): lambda a, b: nf * zeta(b, a),
            ("h", "m"): lambda a, b: nf * (1 if a is b else 0),
            ("p", "p"): lambda a, b: Fraction(nf * (1 if a is b else 0), abs_mu_bottom(a)),
            ("p", "m"): lambda a, b: Fraction(nf * lat.mu.get((b, a), 0), abs_mu_bottom(a)),
            ("m", "m"): lambda a, b: nf
            * sum(
                Fraction(lat.mu[a, t] * lat.mu[b, t], abs_mu_bottom(t))
                for t in lat.above[a.join(b)]
            ),
        }
        for (b1, b2), formula in closed_forms.items():
            yield f"inner.n{n}.closed_form_{b1}{b2}", (
                ((f, g), inner(f, g), formula(a, b)) for a, b, f, g in pairs((b1, b2))
            )

        yield f"inner.n{n}.symmetry", (
            ((f, g), inner(f, g), inner(g, f))
            for _, _, f, g in pairs(("m", "h"), ("p", "e"), ("e", "h"), ("m", "p"))
        )

        def gram():
            """<p_a, p_b>: positive and nf / |mu(bottom, a)| on the diagonal, 0 off it."""
            for a, b, f, g in pairs(("p", "p")):
                got = inner(f, g)
                if a is b:
                    yield (a,), (got > 0, got), (True, Fraction(nf, abs_mu_bottom(a)))
                else:
                    yield (a, b), got, 0

        yield f"inner.n{n}.power_sum_gram_diagonal_positive", gram()

        yield f"inner.n{n}.place_action_invariance", (
            (("g =", g, f1, f2), inner(place_act(g, f1), place_act(g, f2)), inner(f1, f2))
            for g in itertools.permutations(range(1, n + 1))
            for _, _, f1, f2 in pairs(("m", "h"), ("p", "e"))
        )


def suite_projection(max_n: int | None = None) -> Checks:
    """Projection images, lifting as a right inverse, and the isometry."""

    def images(n):
        for pi in set_partitions(n):
            lam = pi.type
            want = {
                "m": SymElement("m", {lam: lam.fact_mults()}),
                "p": SymElement("p", {lam: 1}),
                "e": SymElement("e", {lam: lam.fact_parts()}),
                "h": SymElement("h", {lam: lam.fact_parts()}),
            }
            for b, image in want.items():
                f = _basis_elem(b, pi)
                yield (f,), project(f), image

    for n in range(_cap(5, max_n) + 1):
        yield f"projection.n{n}.basis_images", images(n)

    for n in range(_cap(6, max_n) + 1):
        yield f"projection.n{n}.project_after_lift_is_identity", (
            ((lam,), project(lift(f)), f)
            for lam in int_partitions(n)
            for f in [SymElement("m", {lam: 1})]
        )

    for n in range(_cap(5, max_n) + 1):
        basis_elems = [SymElement("m", {lam: 1}) for lam in int_partitions(n)]
        basis_elems += [SymElement("h", {lam: 1}) for lam in int_partitions(n)]
        yield f"projection.n{n}.lift_is_isometry", (
            ((f, g), sym_inner(f, g), inner(lift(f), lift(g)))
            for f in basis_elems
            for g in basis_elems
        )
        yield f"projection.n{n}.type_sum_of_h_is_lifted_h", (
            (
                (mu,),
                convert(
                    sum(
                        (_basis_elem("h", pi) for pi in set_partitions(n) if pi.type == mu),
                        NCSymElement("h"),
                    ),
                    "m",
                ),
                lift(SymElement("h", {mu: Fraction(factorial(n), mu.fact_mults())})),
            )
            for mu in int_partitions(n)
        )


def suite_schur(max_n: int | None = None) -> Checks:
    """The noncommuting Schur family: expansion, rank, projection, pairing."""
    for n in range(1, _cap(5, max_n) + 1):
        shapes = int_partitions(n)
        tr = Truncation(n, n, n)
        yield f"schur.n{n}.monomial_expansion_matches_tableaux", (
            ((lam,), schur_ncsym(lam), phi_collect(schur_tableau_sum(lam, (1,) * n, tr)))
            for lam in shapes
        )

        elems = set_partitions(n)
        rank = matrix_rank([[schur_ncsym(lam).terms.get(pi, 0) for pi in elems] for lam in shapes])
        yield f"schur.n{n}.linear_independence", [
            (("rank", rank, "of", len(shapes)), rank, len(shapes))
        ]

        def by_kostka(lam):
            """S_lam by its definition: mu! K_{lam,mu} on each m_sigma of type mu."""
            weights = ((pi, pi.type.fact_parts() * kostka(lam, pi.type)) for pi in elems)
            return NCSymElement("m", {pi: c for pi, c in weights if c})

        # schur_ncsym is the lift of n! s_lam, so its reference is the Kostka grouping
        yield f"schur.n{n}.projection_and_lift", (
            ((lam,), (sym_convert(project(S), "m"), lift(s)), (sym_convert(s, "m"), by_kostka(lam)))
            for lam in shapes
            for S, s in [(schur_ncsym(lam), SymElement("s", {lam: factorial(n)}))]
        )

        yield f"schur.n{n}.pairing_is_scaled_delta", (
            (
                (lam, mu),
                inner(schur_ncsym(lam), schur_ncsym(mu)),
                factorial(n) ** 2 if lam == mu else 0,
            )
            for lam in shapes
            for mu in shapes
        )

    def subscript_swaps(top, k=4):
        """The tableau sum of each shape and vector, and its image under each swap."""
        for m in range(1, top + 1):
            tr = Truncation(2, k, m)
            for lam in int_partitions(m):
                for vec in weak_compositions(m, 2):
                    S = schur_tableau_sum(lam, vec, tr)
                    for a in range(1, k):
                        swap = {a: a + 1, a + 1: a}
                        swapped = {
                            monomial(((swap.get(i, i), j), e) for (i, j), e in mono): c
                            for mono, c in S.terms.items()
                        }
                        yield (lam, vec, "swap", a), swapped, S.terms

    # symmetry of the tableau generating function under subscript swaps
    yield "schur.tableau_sum_symmetric_under_subscript_swaps", subscript_swaps(_cap(4, max_n))

    def dot_swaps(top):
        """Each swap's image: a tableau of the same shape, sent back by the swap,
        with the counts of i and i+1 traded in each dot class."""
        for total in range(1, top + 1):
            for shape in int_partitions(total):
                for tab in dotted_tableaux(shape, 3, 2):
                    for i in (1, 2):
                        image = dot_swap_involution(tab, i)
                        try:  # the swap builds its image unchecked; the constructor checks it
                            valid = DottedTableau(image.rows).shape == image.shape == tab.shape
                        except ValueError:
                            valid = False
                        yield (shape, "i =", i, "not a tableau of its shape"), valid, True
                        if not valid:
                            continue
                        back = dot_swap_involution(image, i)
                        yield (shape, "i =", i, "not an involution"), back, tab
                        if back != tab:
                            continue
                        before, after = Counter(tab.entries()), Counter(image.entries())
                        got = [(after[i + 1, d], after[i, d]) for d in (1, 2)]
                        want = [(before[i, d], before[i + 1, d]) for d in (1, 2)]
                        yield (shape, "i =", i, "counts"), got, want

    # the dot-swap involution behind that symmetry, exhaustively on small shapes
    yield "schur.dot_swap_involution", dot_swaps(_cap(4, max_n))


def suite_jacobi_trudi(max_n: int | None = None) -> Checks:
    """Both determinants against tableau sums; one alphabet recovers the classics."""

    def single_alphabet(m):
        tr1 = Truncation(1, m, m)
        for lam in int_partitions(m):
            det = jacobi_trudi(lam, (m,), "h", tr1)
            yield (lam, "vs tableaux"), det, schur_tableau_sum(lam, (m,), tr1)
            # classical expansion through Kostka numbers in the same variables
            expected = [
                (monomial(((i + 1, 1), e) for i, e in enumerate(arrangement)), coeff)
                for mu, coeff in _basis_m_coeffs("s", lam)
                for arrangement in set(
                    itertools.permutations(tuple(mu.parts) + (0,) * (m - mu.length))
                )
            ]
            yield (lam, "vs classical"), det, MultiPolynomial(tr1, expected)

    for m in range(1, _cap(5, max_n) + 1):
        tr = Truncation(2, m, m)
        # one pass serves both determinants: a case holds the h view, then the e view
        both = (
            f"jacobi_trudi.m{m}.h_determinant",
            f"jacobi_trudi.m{m}.e_determinant_gives_conjugate",
        )
        yield both, (
            (
                (lam, vec),
                (jacobi_trudi(lam, vec, "h", tr), jacobi_trudi(lam, vec, "e", tr)),
                (schur_tableau_sum(lam, vec, tr), schur_tableau_sum(lam.conjugate(), vec, tr)),
            )
            for lam in int_partitions(m)
            for vec in weak_compositions(m, 2)
        )
        yield f"jacobi_trudi.m{m}.single_alphabet_reduces_to_classical", single_alphabet(m)


def suite_rsk(max_n: int | None = None) -> Checks:
    """Exhaustive bijectivity on small biwords plus the pairing identity."""
    max_len = _cap(4, max_n)
    classes = 2
    max_value = 3

    def biwords():
        """Each biword's (shape and multidegrees, round trip, undotted rows) views.
        Every dotting of a value sequence shares the sequence's undotted scan, so
        each of the 715 sequences at full size is scanned once."""
        scans: dict[tuple, tuple] = {}  # value sequence -> undotted insertion and recording rows
        for bw in _all_biwords(max_len, max_value, classes):
            T, U = rsk_forward(bw)
            values = tuple((t.value, b.value) for t, b in bw.columns)
            scan = scans.get(values)
            if scan is None:
                scan = scans[values] = _rsk_by_linear_scan(values, value=lambda v: v)
            shape = T.shape, T.multidegree(classes), U.multidegree(classes)
            got = shape, rsk_inverse(T, U), (T.undotted(), U.undotted())
            yield (bw.columns,), got, ((U.shape, *bw.multidegree(classes)), bw, scan)

    yield (
        "rsk.forward_shape_and_multidegree",
        "rsk.inverse_after_forward_is_identity",
        "rsk.undotting_commutes_with_insertion",
    ), biwords()

    def pairs():
        for total in range(max_len + 1):
            for shape in int_partitions(total):
                tableaux = list(dotted_tableaux(shape, max_value, classes))
                for T, U in itertools.product(tableaux, repeat=2):
                    yield (shape,), rsk_forward(rsk_inverse(T, U)), (T, U)

    yield "rsk.forward_after_inverse_is_identity", pairs()

    d = _cap(3, max_n)
    report = cauchy_check(Truncation(2, 2, d), Truncation(2, 2, d), d)
    # the report lists the monomials whose two sides differ: each is a failing case
    yield f"rsk.cauchy_identity_degree_{d}", [((line,), line, "") for line in report.mismatches]


def suite_product(max_n: int | None = None) -> Checks:
    """The multiplication examples, the shifted-concatenation observation and
    the closed-form product against the word oracle."""
    one = SetPartition.parse("1")
    p1 = _basis_elem("p", one)
    m1 = _basis_elem("m", one)
    got = convert(multiply(p1, p1), "m")
    want = convert(_basis_elem("p", SetPartition.parse("1/2")), "m")
    yield "product.p1_times_p1", [((got,), got, want)]
    got = multiply(m1, m1)
    want = NCSymElement(
        "m", {SetPartition.parse("1/2"): 1, SetPartition.parse("12"): 1}
    )
    yield "product.m1_times_m1", [((got,), got, want)]
    unit = NCSymElement.unit()
    f = NCSymElement("m", {SetPartition.parse("13/24"): Fraction(3, 2)})
    both = multiply(unit, f), multiply(f, unit)
    yield "product.unit_is_neutral", [(("unit failed",), both, (f, f))]

    cap = _cap(2, max_n)
    yield "product.power_sums_concatenate_with_shift", (
        (
            (pi, "|", sg),
            convert(multiply(_basis_elem("p", pi), _basis_elem("p", sg)), "m"),
            convert(_basis_elem("p", SetPartition([*pi.blocks, *shifted])), "m"),
        )
        for n1 in range(1, cap + 1)
        for n2 in range(1, cap + 1)
        for pi in set_partitions(n1)
        for sg in set_partitions(n2)
        for shifted in [[tuple(e + n1 for e in block) for block in sg.blocks]]
    )

    yield "product.closed_form_matches_word_oracle", (
        ((f, "*", g), convert(multiply(f, g), "m"), oracle_product(f, g))
        for pi, sg in _pairs_up_to(_cap(4, max_n))
        for basis in _BASES
        for f, g in [(_basis_elem(basis, pi), _basis_elem(basis, sg))]
    )


# ---------------------------------------------------------------------------
# the reference suite: each fast path against the independent route it replaced.
# A case generator takes a size and yields that check's cases.


def _tableau_view(rows, shape):
    """What a tableau shows: its rows, the classes of its rows and entries, its shape."""
    classes = {type(r) for r in rows}, {type(e) for r in rows for e in r}
    return rows, classes, shape, shape.parts, shape.n


def _biword_view(cls, columns):
    """What a biword shows: its class, its columns, their class and their entries' classes."""
    return cls, type(columns), columns, {type(e) for col in columns for e in col}


def _kostka_cases(n: int):
    for lam, mu in itertools.product(int_partitions(n), repeat=2):
        yield (lam, mu), kostka(lam, mu), _kostka_by_enumeration(lam, mu)


def _sym_cases(basis: str, n: int):
    for lam in int_partitions(n):
        yield (lam,), _basis_m_coeffs(basis, lam), _m_coeffs_by_polynomial_expansion(basis, lam)


def _inverse_cases(size: int):
    for n, basis in itertools.product(range(size + 1), ("p", "e", "h", "s")):
        got = len(int_partitions(n)), list(_m_inverse(basis, n).items())  # it assumes full rank
        rank, want = _m_inverse_by_gauss_jordan(basis, n)
        yield (basis, "n =", n), got, (rank, list(want.items()))


def _merges_cases(size: int):
    for pi, sigma in _pairs_up_to(size):
        got = [(r.n, r.blocks, r.rgs, hash(r)) for r in _merges(pi, sigma)]
        want = [(r.n, r.blocks, r.rgs, hash(r)) for r in _merges_by_block_assembly(pi, sigma)]
        yield (pi, "|", sigma), got, want


def _product_cases(size: int):
    a, b = Fraction(-2, 3), Fraction(5, 7)
    for pi, sigma in _pairs_up_to(size):
        for left, right in itertools.product(_BASES, repeat=2):
            f, g = NCSymElement(left, {pi: a}), NCSymElement(right, {sigma: b})
            got = multiply(f, g)
            want = left if left == right else "m", _product_by_monomial_rule(f, g)
            yield (f, "*", g), (got.basis, convert(got, "m")), want
    P = SetPartition.parse  # then a mixed pair, and sums over several degrees
    e = NCSymElement("e", {P("13/2"): Fraction(-2, 3)})
    p = NCSymElement("p", {P("1/2"): Fraction(5, 7)})
    h1 = NCSymElement("h", {P(""): Fraction(1, 2), P("1"): 3, P("12"): Fraction(-1, 4)})
    h2 = NCSymElement("h", {P("1"): Fraction(2, 5), P("1/2"): Fraction(7, 3)})
    for f, g in ((e, p), (h1, h2)):
        yield (f, "*", g), convert(multiply(f, g), "m"), _product_by_monomial_rule(f, g)


def _expand_cases(basis: str, size: int):
    for n in range(size + 1):
        for pi in set_partitions(n):
            f = NCSymElement(basis, {pi: Fraction(3, 2)})
            for k in {1, max(n, 1)}:
                yield (f, "k =", k), expand(f, k), _expand_by_lattice_tables(f, k)


def _generator_cases(size: int):
    for alphabets, variables in itertools.product((1, 2, 3), (1, 2, 3, 4)):
        tr = Truncation(alphabets, variables, size)
        for degree in range(size + 1):  # degree 0 is the zero vector
            for t in weak_compositions(degree, alphabets):
                got = mm_elementary(t, tr).terms, mm_complete(t, tr).terms
                want = _elementary_by_subscripts(t, tr), _complete_by_subscripts(t, tr)
                yield (t, tr), got, want


def _jacobi_trudi_cases(size: int):
    for n in range(size + 1):
        for lam, variant in itertools.product(int_partitions(n), ("h", "e")):
            for alphabets in (1, 2, 3) if n <= 4 else (1, 2):
                for variables in (1, 2, 3):
                    tr = Truncation(alphabets, variables, n)
                    whole = _jt_by_permutation_expansion(lam, variant, tr)
                    for vec in weak_compositions(n, alphabets):
                        got = jacobi_trudi(lam, vec, variant, tr)
                        yield (lam, vec, variant, tr), got, whole.extract_multidegree(vec)


def _packed_kernel_cases(size: int):
    for n in range(size + 1):
        for lam in int_partitions(n):
            for alphabets, variables in itertools.product((1, 2, 3), repeat=2):
                tr = Truncation(alphabets, variables, n)
                for vec in weak_compositions(n, alphabets):
                    got = (
                        schur_tableau_sum(lam, vec, tr).terms,
                        jacobi_trudi(lam, vec, "h", tr).terms,
                        jacobi_trudi(lam.conjugate(), vec, "e", tr).terms,
                    )
                    yield (lam, vec, tr), got, (_tableau_sum_by_cell_walk(lam, tr, vec),) * 3


def _dotted_tableaux_cases(n: int):
    for shape in int_partitions(n):
        for max_value, classes in itertools.product(range(4), (1, 2)):
            for vec in [None, *weak_compositions(n, classes)]:
                tableaux = dotted_tableaux(shape, max_value, classes, vec)
                got = [_tableau_view(t.rows, t.shape) for t in tableaux]
                want = [
                    _tableau_view(rows, shape)
                    for rows in _tableaux_by_cell_walk(shape.parts, max_value, classes, vec)
                ]
                yield (shape, max_value, classes, vec), got, want


def _tableau_sum_cases(n: int):
    # the keys are plain ((value, dots), exponent) tuples, as monomial() makes them
    keys = lambda terms: {type(var) for mono in terms for var, _ in mono}
    for shape in int_partitions(n):
        for alphabets, variables in itertools.product((1, 2), (1, 2, 3)):
            trunc = Truncation(alphabets, variables, n)
            every, want = _tableau_sum(shape, None, trunc), _tableau_sum_by_cell_walk(shape, trunc)
            got = every.trunc, every.terms, keys(every.terms)
            yield (shape, trunc), got, (trunc, want, keys(want))
            for vec in weak_compositions(n, alphabets):
                got = schur_tableau_sum(shape, vec, trunc)
                want = _tableau_sum_by_cell_walk(shape, trunc, vec)
                yield (shape, vec, trunc), (got.trunc, got.terms), (trunc, want)


def _dot_swap_cases(size: int):
    for n in range(size + 1):
        for shape in int_partitions(n):
            for tab in dotted_tableaux(shape, 4, 2):
                for i in (1, 2, 3):
                    image = dot_swap_involution(tab, i)
                    want = _dot_swap_by_column_scan(tab.rows, i), shape
                    yield (tab, "i =", i), (image.rows, image.shape), want


def _rsk_forward_cases(size: int):
    for bw in _all_biwords(size, 3, 2):
        T, U = rsk_forward(bw)
        ins, rec = _rsk_by_linear_scan(bw.columns)
        got = _tableau_view(T.rows, T.shape), _tableau_view(U.rows, U.shape)
        shape = IntPartition(map(len, ins))
        yield (bw,), got, (_tableau_view(ins, shape), _tableau_view(rec, shape))


def _rsk_inverse_cases(size: int):
    for total in range(size + 1):
        for shape in int_partitions(total):
            tableaux = list(dotted_tableaux(shape, 3, 2))
            for T, U in itertools.product(tableaux, repeat=2):
                back = rsk_inverse(T, U)
                want = _rsk_inverse_by_max_scan(T.rows, U.rows)
                got = _biword_view(type(back), back.columns)
                yield (T, U), got, _biword_view(Biword, want)


# (name, default size, case generator, case count at the default size or None).
# A name with {n} is one check per degree n up to the size; any other is one
# check over every size up to it.
_REFERENCE: list[tuple[str, int, Callable, int | None]] = [
    ("n{n}.kostka_matches_enumeration", 8, _kostka_cases, None),
    *(
        (f"n{{n}}.classical_{b}_matches_polynomial_expansion", 6, partial(_sym_cases, b), None)
        for b in ("p", "e", "h")
    ),
    ("merges_match_block_assembly", 6, _merges_cases, None),
    ("product_matches_the_monomial_rule", 4, _product_cases, 66 * 16 + 2),
    *(
        (f"expand_{b}_matches_lattice_tables", 4, partial(_expand_cases, b), None)
        for b in _BASES
    ),
    ("generators_match_their_separate_walks", 5, _generator_cases, 4 * (6 + 21 + 56)),
    ("jacobi_trudi_matches_the_permutation_expansion", 5, _jacobi_trudi_cases, 1368),
    ("packed_kernels_match_the_cell_walk", 5, _packed_kernel_cases, 1125),
    ("n{n}.dotted_tableaux_match_the_cell_walk", 5, _dotted_tableaux_cases, None),
    ("n{n}.tableau_sums_match_the_cell_walk", 4, _tableau_sum_cases, None),
    ("dot_swap_matches_the_column_scan", 5, _dot_swap_cases, 31803),
    ("rsk_forward_matches_the_linear_scan", 3, _rsk_forward_cases, None),
    ("rsk_inverse_matches_the_max_scan", 3, _rsk_inverse_cases, None),
    ("classical_inverses_match_gauss_jordan", 8, _inverse_cases, None),
]



def _counted(cases: Iterable[Case], count: int) -> Iterator[Case]:
    """The cases, then one more that holds their number to the stated count."""
    seen = 0
    for seen, case in enumerate(cases, 1):
        yield case
    yield (seen, "cases, expected", count), seen, count


def suite_reference(max_n: int | None = None) -> Checks:
    """Each fast path against the independent route it replaced: Kostka numbers,
    classical expansions, merges, products, word expansions, the MacMahon
    generators and determinants, tableau walks, the dot swap, RSK, and the
    commutative inverses from m against Gauss–Jordan row reduction."""
    for name, size, cases, count in _REFERENCE:
        top = _cap(size, max_n)
        if "{n}" in name:
            for n in range(top + 1):
                yield f"reference.{name.format(n=n)}", cases(n)
        elif count is None or top < size:
            yield f"reference.{name}", cases(top)
        else:
            yield f"reference.{name}", _counted(cases(top), count)


SUITES = {
    "examples": suite_examples,
    "roundtrip": suite_roundtrip,
    "oracle": suite_oracle,
    "mobius": suite_mobius,
    "omega": suite_omega,
    "inner": suite_inner,
    "projection": suite_projection,
    "schur": suite_schur,
    "jacobi-trudi": suite_jacobi_trudi,
    "rsk": suite_rsk,
    "product": suite_product,
    "reference": suite_reference,
}


def _failures(check: str | tuple[str, ...], cases: Iterable[Case]) -> list[tuple[str, list[str]]]:
    """Each name of the check with the labels, joined, of its cases whose production
    and reference views differ.  A check of one name has one view on each side of a
    case; a tuple of names has a tuple of views on each side, one per name."""
    if isinstance(check, str):
        return [(check, [" ".join(map(str, label)) for label, got, want in cases if got != want])]
    fails: list[list[str]] = [[] for _ in check]
    for label, got, want in cases:
        for fail, g, w in zip(fails, got, want, strict=True):
            if g != w:
                fail.append(" ".join(map(str, label)))
    return list(zip(check, fails))


def run(names: list[str], max_n: int | None = None) -> list[dict]:
    """Run the named suites ("all" expands to every suite) and return one
    {"name", "ok", "detail"} record per check: a check passes when none of its
    cases fails, and its detail is the first three failing labels ("" when it
    passes).  Each stream of cases runs out before its suite goes on."""
    if max_n is not None and (type(max_n) is not int or max_n < 1):  # 0 would check nothing
        raise ValueError(f"max_n must be an int >= 1, got {max_n!r}")
    for name in names:
        if name != "all" and name not in SUITES:
            raise ValueError(f"unknown suite {name!r}; choose from {', '.join([*SUITES, 'all'])}")
    suites = [SUITES[s] for name in names for s in (SUITES if name == "all" else [name])]
    return [
        {"name": name, "ok": not failures, "detail": "; ".join(failures[:3])}
        for suite in suites
        for check, cases in suite(max_n)
        for name, failures in _failures(check, cases)
    ]
