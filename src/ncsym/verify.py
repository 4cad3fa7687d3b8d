"""Named verification suites: every identity the library promises, checked
exhaustively at desk scale with exact arithmetic.

Each suite yields (check name, failures) pairs, and ``run`` alone turns them
into CheckResults.  A size cap can lower (never raise) the default ranges, so
``run(["all"], max_n=4)`` is a fast smoke pass while the defaults reproduce
the full acceptance sizes.
"""
from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from math import factorial
from typing import Iterator

from .classical import SymElement, omega_commutative, sym_convert, sym_inner
from .elements import NCSymElement, convert, inner, lift, multiply, omega, place_act, project
from .intpartitions import IntPartition, int_partitions, weak_compositions
from .macmahon import (
    MultiPolynomial,
    Truncation,
    jacobi_trudi,
    monomial,
    phi_collect,
    schur_ncsym,
    schur_tableau_sum,
)
from .rsk import Biword, cauchy_check, rsk_forward, rsk_inverse
from .setpartitions import SetPartition, lattice, mobius, set_partitions
from .tableaux import DottedEntry, DottedTableau, dotted_tableaux
from .words import expand, expand_position_action, kernel, oracle_product


@dataclass
class CheckResult:
    name: str
    ok: bool
    detail: str = ""


Checks = Iterator[tuple[str, list[str]]]  # what a suite yields: (check name, failures)


def _cap(default: int, max_n: int | None) -> int:
    return default if max_n is None else min(default, max_n)


def _basis_elem(basis: str, pi: SetPartition) -> NCSymElement:
    return NCSymElement(basis, {pi: Fraction(1)})


# ---------------------------------------------------------------------------
# reference implementations used only for cross-checking


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


def _classical_insertion(bottom: list[int], top: list[int]):
    """Plain integer RSK used as the reference for the undotting check."""
    ins: list[list[int]] = []
    rec: list[list[int]] = []
    for t, b in zip(top, bottom):
        r = 0
        entry = b
        while True:
            if r == len(ins):
                ins.append([entry])
                break
            row = ins[r]
            spot = next((c for c, v in enumerate(row) if v > entry), None)
            if spot is None:
                row.append(entry)
                break
            entry, row[spot] = row[spot], entry
            r += 1
        if r == len(rec):
            rec.append([])
        rec[r].append(t)
    return tuple(tuple(r) for r in ins), tuple(tuple(r) for r in rec)


def _all_biwords(max_len: int, max_value: int, classes: int):
    """Every biword with the stated bounds; ties carry all dot patterns.

    The value pairs come out of ``combinations_with_replacement`` of a sorted
    list, so the columns are sorted by construction and skip the check."""
    value_pairs = [
        (t, b) for t in range(1, max_value + 1) for b in range(1, max_value + 1)
    ]
    for length in range(max_len + 1):
        for values in itertools.combinations_with_replacement(value_pairs, length):
            for dotting in itertools.product(
                range(1, classes + 1), repeat=2 * length
            ):
                yield Biword._make(
                    (
                        (DottedEntry(t, dotting[2 * i]), DottedEntry(b, dotting[2 * i + 1]))
                        for i, (t, b) in enumerate(values)
                    )
                )


def _h_expansion_by_linear_orders(pi: SetPartition, k: int):
    """Count (function, block-ordering) pairs directly, word by word."""
    n = pi.n
    counts: dict[tuple[int, ...], int] = {}
    for word in itertools.product(range(1, k + 1), repeat=n):
        meet = kernel(word).meet(pi)
        orderings = 1
        for block in meet.blocks:
            orderings *= factorial(len(block))
        counts[word] = orderings
    return counts


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
        yield f"examples.{basis}_13/24_monomial_expansion", (
            [] if got == want else [f"got {len(got)} terms, mismatch"]
        )

    value = inner(_basis_elem("m", pi), _basis_elem("h", pi))
    yield "examples.inner_m_h_13/24_is_24", [] if value == 24 else [f"got {value}"]

    fails = []
    for n in range(1, _cap(6, max_n) + 1):
        got = mobius(SetPartition.bottom(n), SetPartition.top(n))
        want = (-1) ** (n - 1) * factorial(n - 1)
        if got != want:
            fails.append(f"n={n}: {got} != {want}")
    yield "examples.mobius_bottom_top_formula", fails

    S = schur_tableau_sum(IntPartition((3, 1)), (2, 2), Truncation(2, 4, 4))
    coeff = S.coefficient((((1, 1), 2), ((1, 2), 1), ((2, 2), 1)))
    yield "examples.macmahon_schur_31_22_coefficient_3", [] if coeff == 3 else [f"got {coeff}"]

    biword = Biword.parse("1' 2' 2'' 2' 3'' 4'\n2' 1'' 3'' 3' 2'' 1'")
    T, U = rsk_forward(biword)
    want_T = DottedTableau([[(1, 2), (1, 1), (3, 1)], [(2, 1), (2, 2)], [(3, 2)]])
    # the recording dots come verbatim from the biword's top row
    want_U = DottedTableau([[(1, 1), (2, 2), (2, 1)], [(2, 1), (3, 2)], [(4, 1)]])
    yield "examples.rsk_insertion_tableau", [] if T == want_T else [f"got\n{T}"]
    yield "examples.rsk_recording_tableau", [] if U == want_U else [f"got\n{U}"]


def suite_roundtrip(max_n: int | None = None) -> Checks:
    """Every ordered pair of bases converts there and back to the identity."""
    bases = ("m", "p", "e", "h")
    for n in range(_cap(5, max_n) + 1):
        elems = set_partitions(n)
        for b1 in bases:
            for b2 in bases:
                if b1 == b2:
                    continue
                fails = []
                for pi in elems:
                    f = _basis_elem(b1, pi)
                    if convert(convert(f, b2), b1) != f:
                        fails.append(f"{b1}->{b2}->{b1} at {pi}")
                yield f"roundtrip.n{n}.{b1}->{b2}->{b1}", fails
        # production's join walk for m -> e and m -> h against the route through p
        fails = []
        for pi in elems:
            f = _basis_elem("m", pi)
            for target in ("e", "h"):
                direct = convert(f, target)
                routed = convert(convert(f, "p"), target)
                if direct != routed:
                    fails.append(f"m->{target} vs m->p->{target} at {pi}")
        yield f"roundtrip.n{n}.double_sum_matches_route_via_p", fails
        fails = []
        for pi in elems:
            for b1 in bases:
                for b2 in bases:
                    want = NCSymElement(b2, _expansion_by_lattice_tables(b1, b2, pi))
                    if convert(_basis_elem(b1, pi), b2) != want:
                        fails.append(f"{b1}->{b2} at {pi}")
        yield f"roundtrip.n{n}.convert_matches_lattice_tables", fails


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
        exp = {
            (b, pi): expand(_basis_elem(b, pi), k) for b in ("m", "p", "e", "h") for pi in elems
        }
        for label, (basis, target) in identities.items():
            fails = []
            for pi in elems:
                rhs = 0 * exp[(target, pi)]
                for sigma, c in _expansion_by_lattice_tables(basis, target, pi):
                    rhs = rhs + c * exp[(target, sigma)]
                if exp[(basis, pi)] != rhs:
                    fails.append(str(pi))
            yield f"oracle.n{n}.{label}", fails

        if n <= 3:
            fails = []
            for pi in elems:
                counts = _h_expansion_by_linear_orders(pi, k)
                if exp[("h", pi)].terms != {w: Fraction(c) for w, c in counts.items() if c}:
                    fails.append(str(pi))
            yield f"oracle.n{n}.h_matches_linear_order_count", fails

        fails = []
        for pi in elems:
            if {kernel(w) for w in exp[("m", pi)].terms} != {pi}:
                fails.append(str(pi))
        yield f"oracle.n{n}.kernel_constant_on_m_expansion", fails

        fails = []
        for g in itertools.permutations(range(1, n + 1)):
            for pi in elems:
                for b in ("m", "p", "e", "h"):
                    lhs = expand(place_act(g, _basis_elem(b, pi)), k)
                    if lhs != expand_position_action(g, exp[(b, pi)]):
                        fails.append(f"g={g} {b}_{pi}")
        yield f"oracle.n{n}.place_action_commutes_with_expansion", fails


def suite_mobius(max_n: int | None = None) -> Checks:
    """Product-formula Mobius versus the recursion, plus the summation laws."""
    for n in range(_cap(5, max_n) + 1):
        lat = lattice(n)
        recursive = _mobius_recursive(lat)
        fails = []
        for a, b in itertools.product(lat.elements, repeat=2):
            if lat.mu.get((a, b), 0) != recursive.get((a, b), 0):
                fails.append(f"({a},{b})")
        yield f"mobius.n{n}.product_equals_recursive", fails

        fails = []
        for a in lat.elements:
            for b in lat.above[a]:
                total = sum(lat.mu[a, t] for t in lat.above[a] if (t, b) in lat.mu)
                if total != (1 if a is b else 0):
                    fails.append(f"({a},{b})")
        yield f"mobius.n{n}.interval_sums_are_delta", fails

    for n in range(_cap(6, max_n) + 1):
        lat = lattice(n)
        bottom = SetPartition.bottom(n)
        fails = []
        for b in lat.elements:
            total = sum(abs(lat.mu[bottom, a]) for a in lat.below[b])
            if total != b.type.fact_parts():
                fails.append(str(b))
        yield f"mobius.n{n}.abs_sum_below_is_type_factorial", fails

        fails = []
        for b in lat.elements:
            if lat.mu[bottom, b] != b.sign * abs(lat.mu[bottom, b]):
                fails.append(str(b))
        yield f"mobius.n{n}.sign_carries_mobius_sign", fails


def suite_omega(max_n: int | None = None) -> Checks:
    """The e/h involution: order two, power-sum eigenvectors, projection."""
    for n in range(_cap(5, max_n) + 1):
        elems = set_partitions(n)
        fails = []
        for b in ("m", "p", "e", "h"):
            for pi in elems:
                f = _basis_elem(b, pi)
                if omega(omega(f)) != f:
                    fails.append(f"{b}_{pi}")
        yield f"omega.n{n}.involution", fails

        fails = []
        for pi in elems:
            f = _basis_elem("p", pi)
            if omega(f) != pi.sign * f:
                fails.append(str(pi))
        yield f"omega.n{n}.power_sum_eigenvectors", fails

        fails = []
        for b in ("m", "p", "e", "h"):
            for pi in elems:
                f = _basis_elem(b, pi)
                lhs = sym_convert(project(omega(f)), "m")
                rhs = sym_convert(omega_commutative(project(f)), "m")
                if lhs != rhs:
                    fails.append(f"{b}_{pi}")
        yield f"omega.n{n}.commutes_with_projection", fails

        fails = []
        for lam in int_partitions(n):
            lhs = convert(omega(schur_ncsym(lam)), "m")
            if lhs != schur_ncsym(lam.conjugate()):
                fails.append(str(lam))
        yield f"omega.n{n}.schur_conjugation", fails


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
            fails = []
            for a, b in itertools.product(elems, repeat=2):
                got = inner(_basis_elem(b1, a), _basis_elem(b2, b))
                if got != formula(a, b):
                    fails.append(f"<{b1}_{a},{b2}_{b}>")
            yield f"inner.n{n}.closed_form_{b1}{b2}", fails

        fails = []
        for b1, b2 in (("m", "h"), ("p", "e"), ("e", "h"), ("m", "p")):
            for a, b in itertools.product(elems, repeat=2):
                f = _basis_elem(b1, a)
                g = _basis_elem(b2, b)
                if inner(f, g) != inner(g, f):
                    fails.append(f"<{b1}_{a},{b2}_{b}>")
        yield f"inner.n{n}.symmetry", fails

        fails = []
        for a, b in itertools.product(elems, repeat=2):
            got = inner(_basis_elem("p", a), _basis_elem("p", b))
            if a is b:
                if got <= 0 or got != Fraction(nf, abs_mu_bottom(a)):
                    fails.append(str(a))
            elif got != 0:
                fails.append(f"({a},{b})")
        yield f"inner.n{n}.power_sum_gram_diagonal_positive", fails

        fails = []
        for g in itertools.permutations(range(1, n + 1)):
            for b1, b2 in (("m", "h"), ("p", "e")):
                for a, b in itertools.product(elems, repeat=2):
                    f1 = _basis_elem(b1, a)
                    f2 = _basis_elem(b2, b)
                    if inner(place_act(g, f1), place_act(g, f2)) != inner(f1, f2):
                        fails.append(f"g={g} <{b1}_{a},{b2}_{b}>")
        yield f"inner.n{n}.place_action_invariance", fails


def suite_projection(max_n: int | None = None) -> Checks:
    """Projection images, lifting as a right inverse, and the isometry."""
    for n in range(_cap(5, max_n) + 1):
        fails = []
        for pi in set_partitions(n):
            lam = pi.type
            images = {
                "m": SymElement("m", {lam: lam.fact_mults()}),
                "p": SymElement("p", {lam: 1}),
                "e": SymElement("e", {lam: lam.fact_parts()}),
                "h": SymElement("h", {lam: lam.fact_parts()}),
            }
            for b, want in images.items():
                if project(_basis_elem(b, pi)) != want:
                    fails.append(f"{b}_{pi}")
        yield f"projection.n{n}.basis_images", fails

    for n in range(_cap(6, max_n) + 1):
        fails = []
        for lam in int_partitions(n):
            f = SymElement("m", {lam: 1})
            if project(lift(f)) != f:
                fails.append(str(lam))
        yield f"projection.n{n}.project_after_lift_is_identity", fails

    for n in range(_cap(5, max_n) + 1):
        fails = []
        basis_elems = [SymElement("m", {lam: 1}) for lam in int_partitions(n)]
        basis_elems += [SymElement("h", {lam: 1}) for lam in int_partitions(n)]
        for f in basis_elems:
            for g in basis_elems:
                if sym_inner(f, g) != inner(lift(f), lift(g)):
                    fails.append(f"<{f},{g}>")
        yield f"projection.n{n}.lift_is_isometry", fails

        fails = []
        for mu in int_partitions(n):
            total = NCSymElement("h")
            for pi in set_partitions(n):
                if pi.type == mu:
                    total = total + _basis_elem("h", pi)
            target = lift(SymElement("h", {mu: Fraction(factorial(n), mu.fact_mults())}))
            if convert(total, "m") != target:
                fails.append(str(mu))
        yield f"projection.n{n}.type_sum_of_h_is_lifted_h", fails


def suite_schur(max_n: int | None = None) -> Checks:
    """The noncommuting Schur family: expansion, rank, projection, pairing."""
    from .linalg import matrix_rank

    for n in range(1, _cap(5, max_n) + 1):
        shapes = int_partitions(n)
        fails = []
        for lam in shapes:
            tr = Truncation(n, n, n)
            via_phi = phi_collect(schur_tableau_sum(lam, (1,) * n, tr))
            if schur_ncsym(lam) != via_phi:
                fails.append(str(lam))
        yield f"schur.n{n}.monomial_expansion_matches_tableaux", fails

        elems = set_partitions(n)
        matrix = []
        for lam in shapes:
            S = schur_ncsym(lam)
            matrix.append([S.terms.get(pi, Fraction(0)) for pi in elems])
        rank = matrix_rank(matrix)
        yield f"schur.n{n}.linear_independence", (
            [] if rank == len(shapes) else [f"rank {rank} of {len(shapes)}"]
        )

        fails = []
        for lam in shapes:
            S = schur_ncsym(lam)
            want = SymElement("s", {lam: factorial(n)})
            if sym_convert(project(S), "m") != sym_convert(want, "m"):
                fails.append(f"projection at {lam}")
            if lift(want) != S:
                fails.append(f"lift at {lam}")
        yield f"schur.n{n}.projection_and_lift", fails

        fails = []
        for lam in shapes:
            for mu in shapes:
                got = inner(schur_ncsym(lam), schur_ncsym(mu))
                want = factorial(n) ** 2 if lam == mu else 0
                if got != want:
                    fails.append(f"<{lam},{mu}>")
        yield f"schur.n{n}.pairing_is_scaled_delta", fails

    # symmetry of the tableau generating function under subscript swaps
    cap = _cap(4, max_n)
    fails = []
    k = 4
    for m in range(1, cap + 1):
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
                    if swapped != S.terms:
                        fails.append(f"{lam} {vec} swap {a}")
    yield "schur.tableau_sum_symmetric_under_subscript_swaps", fails

    # the dot-swap involution behind that symmetry, exhaustively on small shapes
    from .tableaux import dot_swap_involution

    fails = []
    for total in range(1, _cap(4, max_n) + 1):
        for shape in int_partitions(total):
            for tab in dotted_tableaux(shape, 3, 2):
                for i in (1, 2):
                    image = dot_swap_involution(tab, i)
                    if dot_swap_involution(image, i) != tab:
                        fails.append(f"{shape} i={i} not an involution")
                        continue
                    before, after = Counter(tab.entries()), Counter(image.entries())
                    for d in (1, 2):
                        if before[i, d] != after[i + 1, d] or before[i + 1, d] != after[i, d]:
                            fails.append(f"{shape} i={i} counts")
    yield "schur.dot_swap_involution", fails


def suite_jacobi_trudi(max_n: int | None = None) -> Checks:
    """Both determinants against tableau sums; one alphabet recovers the classics."""
    for m in range(1, _cap(5, max_n) + 1):
        tr = Truncation(2, m, m)
        fails_h: list[str] = []
        fails_e: list[str] = []
        for lam in int_partitions(m):
            for vec in weak_compositions(m, 2):
                if jacobi_trudi(lam, vec, "h", tr) != schur_tableau_sum(lam, vec, tr):
                    fails_h.append(f"{lam} {vec}")
                if jacobi_trudi(lam, vec, "e", tr) != schur_tableau_sum(
                    lam.conjugate(), vec, tr
                ):
                    fails_e.append(f"{lam} {vec}")
        yield f"jacobi_trudi.m{m}.h_determinant", fails_h
        yield f"jacobi_trudi.m{m}.e_determinant_gives_conjugate", fails_e

        tr1 = Truncation(1, m, m)
        fails = []
        for lam in int_partitions(m):
            det = jacobi_trudi(lam, (m,), "h", tr1)
            if det != schur_tableau_sum(lam, (m,), tr1):
                fails.append(f"{lam} vs tableaux")
            # classical expansion through Kostka numbers in the same variables
            from .classical import _basis_m_coeffs  # type: ignore[attr-defined]
            expected = [
                (monomial(((i + 1, 1), e) for i, e in enumerate(arrangement)), coeff)
                for mu, coeff in _basis_m_coeffs("s", lam)
                for arrangement in set(
                    itertools.permutations(tuple(mu.parts) + (0,) * (m - mu.length))
                )
            ]
            if det != MultiPolynomial(tr1, expected):
                fails.append(f"{lam} vs classical")
        yield f"jacobi_trudi.m{m}.single_alphabet_reduces_to_classical", fails


def suite_rsk(max_n: int | None = None) -> Checks:
    """Exhaustive bijectivity on small biwords plus the pairing identity."""
    max_len = _cap(4, max_n)
    classes = 2
    max_value = 3

    fails_shape: list[str] = []
    fails_round: list[str] = []
    fails_undot: list[str] = []
    for bw in _all_biwords(max_len, max_value, classes):
        T, U = rsk_forward(bw)
        if T.shape != U.shape:
            fails_shape.append(str(bw.columns))
        bottom_deg, top_deg = bw.multidegree(classes)
        if T.multidegree(classes) != bottom_deg or U.multidegree(classes) != top_deg:
            fails_shape.append(f"multidegree {bw.columns}")
        if rsk_inverse(T, U) != bw:
            fails_round.append(str(bw.columns))
        ins, rec = _classical_insertion(
            [b.value for b in bw.bottom], [t.value for t in bw.top]
        )
        if T.undotted() != ins or U.undotted() != rec:
            fails_undot.append(str(bw.columns))
    yield "rsk.forward_shape_and_multidegree", fails_shape
    yield "rsk.inverse_after_forward_is_identity", fails_round
    yield "rsk.undotting_commutes_with_insertion", fails_undot

    fails = []
    for total in range(max_len + 1):
        for shape in int_partitions(total):
            tableaux = list(dotted_tableaux(shape, max_value, classes))
            for T in tableaux:
                for U in tableaux:
                    bw = rsk_inverse(T, U)
                    if rsk_forward(bw) != (T, U):
                        fails.append(f"{shape}")
    yield "rsk.forward_after_inverse_is_identity", fails

    d = _cap(3, max_n)
    report = cauchy_check(Truncation(2, 2, d), Truncation(2, 2, d), d)
    yield f"rsk.cauchy_identity_degree_{d}", report.mismatches


def suite_product(max_n: int | None = None) -> Checks:
    """The multiplication examples, the shifted-concatenation observation and
    the closed-form product against the word oracle."""
    one = SetPartition.parse("1")
    p1 = _basis_elem("p", one)
    m1 = _basis_elem("m", one)
    got = convert(multiply(p1, p1), "m")
    want = convert(_basis_elem("p", SetPartition.parse("1/2")), "m")
    yield "product.p1_times_p1", [] if got == want else [str(got)]
    got = multiply(m1, m1)
    want = NCSymElement(
        "m", {SetPartition.parse("1/2"): 1, SetPartition.parse("12"): 1}
    )
    yield "product.m1_times_m1", [] if got == want else [str(got)]
    unit = NCSymElement.unit()
    f = NCSymElement("m", {SetPartition.parse("13/24"): Fraction(3, 2)})
    yield "product.unit_is_neutral", (
        [] if multiply(unit, f) == f and multiply(f, unit) == f else ["unit failed"]
    )

    fails = []
    cap = _cap(2, max_n)
    for n1 in range(1, cap + 1):
        for n2 in range(1, cap + 1):
            for pi in set_partitions(n1):
                for sg in set_partitions(n2):
                    shifted = [
                        tuple(e + n1 for e in block) for block in sg.blocks
                    ]
                    concat = SetPartition(list(pi.blocks) + shifted)
                    got = convert(multiply(_basis_elem("p", pi), _basis_elem("p", sg)), "m")
                    if got != convert(_basis_elem("p", concat), "m"):
                        fails.append(f"{pi} | {sg}")
    yield "product.power_sums_concatenate_with_shift", fails

    fails = []
    cap = _cap(4, max_n)
    for n1 in range(cap + 1):
        for n2 in range(cap - n1 + 1):
            for pi in set_partitions(n1):
                for sg in set_partitions(n2):
                    for basis in ("m", "p", "e", "h"):
                        f, g = _basis_elem(basis, pi), _basis_elem(basis, sg)
                        if convert(multiply(f, g), "m") != oracle_product(f, g):
                            fails.append(f"{basis}[{pi}] * {basis}[{sg}]")
    yield "product.closed_form_matches_word_oracle", fails


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
}


def run(names: list[str], max_n: int | None = None) -> list[CheckResult]:
    """Run the named suites ("all" expands to every suite) and collect results;
    a check passes when it has no failures, and its detail is the first three."""
    if max_n is not None and (type(max_n) is not int or max_n < 1):  # 0 would check nothing
        raise ValueError(f"max_n must be an int >= 1, got {max_n!r}")
    expanded: list[str] = []
    for name in names:
        if name == "all":
            expanded.extend(SUITES)
        elif name in SUITES:
            expanded.append(name)
        else:
            raise ValueError(
                f"unknown suite {name!r}; choose from {', '.join([*SUITES, 'all'])}"
            )
    results = []
    for name in expanded:
        for check, failures in SUITES[name](max_n):
            results.append(CheckResult(check, not failures, "; ".join(failures[:3])))
    return results
