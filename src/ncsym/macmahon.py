"""MacMahon symmetric functions over several dotted alphabets.

Polynomials live in a truncated ring: ``alphabets`` commuting alphabets
(dot classes), ``variables`` subscripts per alphabet, and a total-degree cap.
A monomial is a sorted tuple of ((subscript, alphabet), exponent) pairs with
positive exponents and no variable repeated; ``monomial()`` is the one
function that brings (variable, exponent) pairs into that form, and
``MultiPolynomial`` runs every key given to its constructor through it.
``.terms``, parsing and printing keep these tuples; inside the kernels a monomial
is one int packed by ``_layout``, so a product is one integer addition.
The degree-n slice of multidegree [1,...,1] maps onto words in noncommuting
variables by reading, for each alphabet in order, the subscript it uses.
A shape's tableau sum is the complete generator with each term x^A scaled by
the Kostka number K(lam, content(A)), content(A) being A's row sums sorted.
The Jacobi-Trudi determinant in h of a shape, or in e of its conjugate, is that
tableau sum (Macdonald I.3), so ``jacobi_trudi`` reads it off the same groups.
``cauchy_check`` compares the two sides of the pairing (Cauchy-type) identity
as packed codes, so the packed layout is known to this module alone.
"""
from __future__ import annotations

import re
from collections import Counter
from fractions import Fraction
from functools import lru_cache
from itertools import chain, permutations, product
from math import comb
from typing import Iterable, NamedTuple, Sequence

from .combination import Combination, ParseError, _Scanner
from .intpartitions import (
    IntPartition, _expect, _kostka, ascii_int, int_partitions, weak_compositions
)
from .setpartitions import SetPartition

Monomial = tuple[tuple[tuple[int, int], int], ...]


class TruncationError(ValueError):
    """A computation does not fit inside the stated truncation."""


class Truncation(NamedTuple):
    alphabets: int
    variables: int
    degree: int


def monomial(pairs: Iterable[tuple[tuple[int, int], int]]) -> Monomial:
    """Add up the exponents of a repeated variable, drop zeros and sort."""
    exps: dict[tuple[int, int], int] = {}
    for key, e in pairs:
        exps[key] = exps.get(key, 0) + e
    return tuple(sorted((key, e) for key, e in exps.items() if e))


@lru_cache(maxsize=256)  # one small dict per truncation, rebuilt in microseconds
def _layout(alphabets: int, variables: int, degree: int) -> tuple[dict, int, int]:
    """(unit, top, width): unit[i, j] is the code of x_i^(j), one field of the cap's
    bit width per variable in sorted (i, j) order, and the total degree above them
    all, at bit ``top``.  Codes add as monomials multiply; no field overflows while
    the total is within the cap, and a carry only raises it: ``code >> top <= cap``.
    """
    width = degree.bit_length()
    keys = [(i, j) for i in range(1, variables + 1) for j in range(1, alphabets + 1)]
    top = width * len(keys)
    return {key: 1 << k * width | 1 << top for k, key in enumerate(keys)}, top, width


def _unpack(code: int, layout: tuple) -> Monomial:
    """The sorted monomial of a code within the cap of its layout."""
    unit, _, width = layout
    mask, out = (1 << width) - 1, []
    for key in unit:  # the variable fields, lowest first; the total above them is not read
        if code & mask:
            out.append((key, code & mask))
        code >>= width
    return tuple(out)


def _packed(terms: dict, unit: dict, shift: int = 0) -> dict:
    """Monomial-keyed terms keyed by their codes, alphabet j moved to j + shift."""
    return {sum(unit[i, j + shift] * e for (i, j), e in mono): c for mono, c in terms.items()}


def _times(a: dict, b: dict, top: int, cap: int) -> dict:
    """The product of two packed polynomials, terms past the cap dropped."""
    out: dict = {}
    for ma, ca in a.items():
        for mb, cb in b.items():
            m = ma + mb
            if m >> top <= cap:
                out[m] = out.get(m, 0) + ca * cb
    return {m: c for m, c in out.items() if c}


def mono_degree(mono: Monomial) -> int:
    return sum(e for _, e in mono)


def mono_multidegree(mono: Monomial, alphabets: int) -> tuple[int, ...]:
    out = [0] * alphabets
    for (_, alphabet), e in mono:
        out[alphabet - 1] += e
    return tuple(out)


def format_monomial(mono: Monomial) -> str:
    return " ".join(f"x{i}{chr(39) * j}" + (f"^{e}" if e > 1 else "") for (i, j), e in mono) or "1"


def parse_multipolynomial(text: str, trunc: Truncation) -> MultiPolynomial:
    """Parse the dotted-monomial text form, e.g. "x1'^2 x1'' + 2*x2''^3"."""
    _expect(str, text)
    sc = _Scanner(text)
    terms = []
    first = True
    while not sc.at_end():
        sc.skip_ws()
        sign = 1
        if sc.peek() in "+-":
            sign = -1 if sc.take() == "-" else 1
        elif not first:
            raise ParseError("expected '+' or '-' between terms", sc.pos)
        sc.skip_ws()
        coeff = 1
        explicit_coeff = False
        if sc.peek().isdigit():
            coeff = sc.rational()
            explicit_coeff = True
            sc.skip_ws()
            if sc.peek() == "*":
                sc.take()
                sc.skip_ws()
        factors = []
        while sc.peek() == "x":
            sc.take()
            subscript = sc.integer()
            dots = 0
            while sc.peek() == "'":
                sc.take()
                dots += 1
            if dots == 0:
                raise ParseError("dotted variable needs at least one prime", sc.pos)
            power = 1
            if sc.peek() == "^":
                sc.take()
                power = sc.integer()
            factors.append(((subscript, dots), power))
            sc.skip_ws()
        if not factors and not explicit_coeff:
            raise ParseError("expected a term", sc.pos)
        terms.append((factors, sign * coeff))  # the constructor normalizes and adds up
        first = False
    return MultiPolynomial(trunc, terms)


class MultiPolynomial(Combination):
    """Sparse rational polynomial inside a fixed truncation."""

    __slots__ = ()
    trunc = Combination.tag  # the tag under its public name
    _order = staticmethod(lambda mono: (mono_degree(mono), mono))
    _field = "monomial"
    _encode = staticmethod(lambda mono: [[i, j, e] for (i, j), e in mono])

    def _show(self, mono: Monomial) -> str:
        return format_monomial(mono) if mono else ""  # a constant prints as its coefficient

    def _header(self) -> dict:
        return self.trunc._asdict()

    @staticmethod
    def _check_tag(trunc) -> None:
        _check_truncation(trunc)

    @staticmethod
    def _check_key(trunc: Truncation, mono) -> Monomial:
        mono = monomial((tuple(k), e) for k, e in mono)
        for (i, j), e in mono:
            if not all(type(v) is int for v in (i, j, e)) or e < 0:
                raise ValueError(f"x{i!r}^({j!r}) to the power {e!r}: need ints, power >= 0")
            if not (1 <= i <= trunc.variables and 1 <= j <= trunc.alphabets):
                raise TruncationError(f"variable x{i}^({j}) outside truncation {trunc}")
        if mono_degree(mono) > trunc.degree:
            raise TruncationError(
                f"monomial of degree {mono_degree(mono)} exceeds cap {trunc.degree}"
            )
        return mono

    @classmethod
    def one(cls, trunc: Truncation) -> "MultiPolynomial":
        return cls(trunc, {(): 1})

    def __mul__(self, other):
        if not isinstance(other, MultiPolynomial):
            return super().__mul__(other)
        self._require_same_tag(other)
        layout = unit, top, _ = _layout(*self.trunc)
        left, right = _packed(self.terms, unit), _packed(other.terms, unit)
        product = _times(left, right, top, self.trunc.degree)
        return self._make(self.trunc, ((_unpack(m, layout), c) for m, c in product.items()))

    def extract_multidegree(self, vec: Sequence[int]) -> "MultiPolynomial":
        vec, k = _check_vector(vec, self.trunc, "multidegree"), self.trunc.alphabets
        return self._make(
            self.trunc, ((m, c) for m, c in self.terms.items() if mono_multidegree(m, k) == vec)
        )

    def coefficient(self, mono: Monomial) -> Fraction:
        return self.terms.get(monomial(mono), 0)

    def __repr__(self) -> str:
        return f"<MultiPolynomial {self.trunc}, {len(self.terms)} terms>"


_VECTOR = re.compile(r"\[([^][]*)\]")  # one bracketed vector, its entries captured
_VECTORS = re.compile(r"\[[^][]*\](\s*,\s*\[[^][]*\])*")


class VectorPartition:
    """Multiset of nonzero nonnegative-integer vectors of one dimension."""

    __slots__ = ("parts", "dimension")

    def __init__(self, parts: Iterable[Sequence[int]] = (), dimension: int | None = None):
        cleaned = [tuple(p) for p in parts]
        if not all(type(v) is int and v >= 0 for p in cleaned for v in p):
            raise ValueError(f"vector entries must be nonnegative ints: {cleaned!r}")
        if any(not any(p) for p in cleaned):
            raise ValueError("zero vector is not a valid part")
        dims = {len(p) for p in cleaned}
        if len(dims) > 1:
            raise ValueError(f"parts of mixed dimension: {cleaned!r}")
        if dimension is None:
            if not dims:
                raise ValueError("dimension required for an empty vector partition")
            dimension = dims.pop()
        elif dims and dims.pop() != dimension:
            raise ValueError("parts do not match the stated dimension")
        self.dimension = dimension
        self.parts = tuple(sorted(cleaned, reverse=True))

    @classmethod
    def parse(cls, text: str, dimension: int | None = None) -> "VectorPartition":
        """Read what ``str`` writes, "{[1,0],[0,1]}"; whitespace may go around each vector."""
        _expect(str, text)
        s = text.strip()
        if s.startswith("{") and s.endswith("}"):
            s = s[1:-1].strip()
        if not s:
            return cls((), dimension)
        if not _VECTORS.fullmatch(s):
            raise ValueError(f"cannot parse vector partition from {text!r}")
        chunks = _VECTOR.findall(s)
        return cls((tuple(map(ascii_int, chunk.split(","))) for chunk in chunks), dimension)

    def multidegree(self) -> tuple[int, ...]:
        return tuple(map(sum, zip((0,) * self.dimension, *self.parts)))

    def degree(self) -> int:
        return sum(self.multidegree())

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, VectorPartition)
            and self.dimension == other.dimension
            and self.parts == other.parts
        )

    def __hash__(self) -> int:
        return hash((self.dimension, self.parts))

    def __str__(self) -> str:
        return "{" + ",".join("[" + ",".join(str(v) for v in p) + "]" for p in self.parts) + "}"

    def __repr__(self) -> str:
        return f"VectorPartition({self.parts!r})"


def _check_truncation(trunc: Truncation, degree: int = 0) -> None:
    """A Truncation of nonnegative int fields (a bool is none), at least one
    variable per alphabet, and a cap that reaches degree."""
    _expect(Truncation, trunc)
    if not all(type(v) is int for v in trunc) or trunc.alphabets < 0 or trunc.degree < 0:
        raise ValueError(f"truncation fields must be nonnegative ints: {trunc!r}")
    if trunc.variables < 1:
        raise ValueError(f"need at least one variable per alphabet, got {trunc.variables}")
    if degree > trunc.degree:
        raise TruncationError(f"degree {degree} exceeds cap {trunc.degree}")


def _check_vector(t: Sequence[int], trunc: Truncation, name: str = "vector") -> tuple[int, ...]:
    """One nonnegative int entry per alphabet of a checked truncation, within its cap."""
    t = tuple(t)
    if not all(type(v) is int and v >= 0 for v in t):  # a bool is no entry
        raise ValueError(f"{name} entries must be nonnegative ints: {list(t)}")
    _check_truncation(trunc, sum(t))
    if len(t) != trunc.alphabets:
        raise ValueError(f"{name} dimension {len(t)} does not match {trunc.alphabets} alphabets")
    return t


def _check_shape(lam: IntPartition, vec_m: Sequence[int], trunc: Truncation) -> tuple[int, ...]:
    """The multidegree of a shape's tableaux, checked as a vector and against the size."""
    _expect(IntPartition, lam)
    vec_m = _check_vector(vec_m, trunc, "multidegree")
    if lam.n != sum(vec_m):
        raise ValueError(f"shape size {lam.n} and multidegree sum {sum(vec_m)} differ")
    return vec_m


def mm_monomial(vec_lambda: VectorPartition, trunc: Truncation) -> MultiPolynomial:
    """Sum of the distinct monomials whose multiexponent is the given multiset."""
    _expect(VectorPartition, vec_lambda)
    _check_vector(vec_lambda.multidegree(), trunc)
    parts = vec_lambda.parts
    monos = (
        monomial(((i, j), v) for i, part in zip(subscripts, parts) for j, v in enumerate(part, 1))
        for subscripts in permutations(range(1, trunc.variables + 1), len(parts))
    )
    return MultiPolynomial._make(trunc, dict.fromkeys(monos, 1).items())  # repeats coincide


def mm_power(t: Sequence[int], trunc: Truncation) -> MultiPolynomial:
    """Power sum of one vector degree: the single-part monomial function."""
    t = _check_vector(t, trunc)
    if not any(t):
        return MultiPolynomial.one(trunc)
    return mm_monomial(VectorPartition([t]), trunc)


@lru_cache(maxsize=256)  # one table per (multidegree, subscripts, letters per subscript)
def _content_groups(t: tuple[int, ...], variables: int, most: int) -> dict:
    """The coefficient of the auxiliary degree t in prod_i sum_v x_i^v q^v, over vectors v
    of at most ``most`` letters, as content -> [(monomial, coefficient)], a content being
    the subscripts' nonzero letter counts, decreasing; it is homogeneous, so no cap changes
    it, and a monomial has one content, so the monomials of all groups are distinct.  Each
    subscript takes a vector v up to what t still needs, counted by its orderings, and a node
    steps straight to each later subscript with a nonzero v, so each monomial is built sorted."""
    groups: dict = {}

    def rec(first: int, left: tuple[int, ...], size: int, mono: Monomial, coeff: int, counts):
        if not size:
            groups.setdefault(tuple(sorted(counts, reverse=True)), []).append((mono, coeff))
            return
        for i in range(first, variables + 1):
            room = most * (variables - i)  # what the subscripts after i can hold
            if size > room + most:
                break
            for letters, rest, orderings, k in _letter_vectors(left, most):
                if size - k <= room:
                    mono_i = mono + tuple([((i, j), x) for j, x in letters])
                    rec(i + 1, rest, size - k, mono_i, coeff * orderings, counts + (k,))

    rec(1, t, sum(t), (), 1, ())
    return groups


@lru_cache(maxsize=None)
def _letter_vectors(left: tuple[int, ...], most: int) -> tuple:
    """Each nonzero vector v up to ``left`` with at most ``most`` letters, as its
    (alphabet, count) pairs, left - v, the number of orderings of v and |v|."""
    out = [((), (), 1, 0)]  # one alphabet at a time, the count never passing most
    for j, r in enumerate(left, 1):
        out = [
            (letters + ((j, x),) if x else letters, rest + (r - x,), ways * comb(k + x, x), k + x)
            for letters, rest, ways, k in out
            for x in range(min(r, most - k) + 1)
        ]
    return tuple(vector for vector in out if vector[3])


def mm_elementary(t: Sequence[int], trunc: Truncation) -> MultiPolynomial:
    """Coefficient of the auxiliary degree t in prod_i (1 + sum_j x_i^(j) q_j):
    each subscript takes one letter or none."""
    t = _check_vector(t, trunc)
    groups = _content_groups(t, trunc.variables, 1).values()
    return MultiPolynomial._make_distinct(trunc, dict(chain.from_iterable(groups)))


def mm_complete(t: Sequence[int], trunc: Truncation) -> MultiPolynomial:
    """Coefficient of the auxiliary degree t in prod_i 1/(1 - sum_j x_i^(j) q_j):
    each subscript takes any number of letters (|t| bounds them all)."""
    t = _check_vector(t, trunc)
    groups = _content_groups(t, trunc.variables, sum(t)).values()
    return MultiPolynomial._make_distinct(trunc, dict(chain.from_iterable(groups)))


_MM_GENERATORS = {"p": mm_power, "e": mm_elementary, "h": mm_complete}


def mm_multiplicative(
    basis: str, vec_lambda: VectorPartition, trunc: Truncation
) -> MultiPolynomial:
    """Product extension b_{veclambda} = prod_i b_{lambda^i} for p, e, h."""
    if basis not in _MM_GENERATORS:
        raise ValueError(f"no multiplicative basis {basis!r}")
    _expect(VectorPartition, vec_lambda)
    _check_vector(vec_lambda.multidegree(), trunc)
    out = MultiPolynomial.one(trunc)
    for part in vec_lambda.parts:
        out = out * _MM_GENERATORS[basis](part, trunc)
    return out


def phi_to_set_partition(vec_lambda: VectorPartition) -> SetPartition:
    """Characteristic vectors summing to all-ones become blocks (their supports)."""
    _expect(VectorPartition, vec_lambda)
    n = vec_lambda.dimension
    if vec_lambda.multidegree() != (1,) * n:
        raise ValueError(
            f"multidegree {vec_lambda.multidegree()} is not all-ones; "
            "parts must be disjoint characteristic vectors"
        )
    return SetPartition(
        tuple(j + 1 for j, v in enumerate(part) if v) for part in vec_lambda.parts
    )


def phi_from_set_partition(pi: SetPartition) -> VectorPartition:
    _expect(SetPartition, pi)
    return VectorPartition(
        (tuple(1 if j in block else 0 for j in range(1, pi.n + 1)) for block in pi.blocks),
        dimension=pi.n,
    )


def phi_collect(P: MultiPolynomial) -> NCSymElement:
    """Map an all-ones-multidegree polynomial onto noncommuting words and collect.

    Alphabet positions become word positions: the subscript used by alphabet j
    becomes the j-th letter.
    """
    from .words import WordPolynomial, collect  # the one function that reaches NCSym

    _expect(MultiPolynomial, P)
    n = P.trunc.alphabets
    ones = (1,) * n
    words = []
    for mono, c in P.terms.items():
        if mono_multidegree(mono, n) != ones:
            raise ValueError(
                f"monomial {format_monomial(mono)} does not have all-ones multidegree"
            )
        letters = [0] * n
        for (i, j), e in mono:
            letters[j - 1] = i
        words.append((tuple(letters), c))
    return collect(WordPolynomial._make(P.trunc.variables, words), n)


def schur_tableau_sum(
    lam: IntPartition, vec_m: Sequence[int], trunc: Truncation
) -> MultiPolynomial:
    """Generating function of dotted tableaux of the shape and multidegree.

    Each tableau contributes the product of x_value^(dots) over its entries.
    """
    return _tableau_sum(lam, _check_shape(lam, vec_m, trunc), trunc)


def _tableau_sum(lam: IntPartition, vec_m: tuple | None, trunc: Truncation) -> MultiPolynomial:
    """``schur_tableau_sum`` unchecked, and over every multidegree when vec_m is None.
    By value a dotted tableau is semistandard with free dots, so x^A has coefficient
    K(lam, content(A)) times the multinomials of A's rows, its coefficient in the
    complete generator; a value fills a horizontal strip, at most lam_1 cells.  A
    monomial has one multidegree and one content, so no two terms share a key; and a
    shape with more rows than subscripts has no column-strict filling, so it is 0
    before any group is read."""
    if lam.length > trunc.variables:
        return MultiPolynomial._make_distinct(trunc, {})
    most = max(lam.parts, default=0)
    slices = (vec_m,) if vec_m is not None else weak_compositions(lam.n, trunc.alphabets)
    terms = {
        mono: k * c
        for t in slices
        for mu, group in _content_groups(t, trunc.variables, most).items()
        if (k := _kostka(lam.parts, mu))
        for mono, c in group
    }
    return MultiPolynomial._make_distinct(trunc, terms)


def jacobi_trudi(
    lam: IntPartition,
    vec_m: Sequence[int],
    variant: str,
    trunc: Truncation,
) -> MultiPolynomial:
    """The vec_m slice of the determinant of complete (h) or elementary (e) sums.

    Entry (i, j) is the sum of the generators gen(t) over the vectors t of
    degree lam_i - i + j.  The h determinant is the tableau generating function
    of the shape itself, the e determinant that of the conjugate shape
    (Macdonald I.3), so the slice is read off ``_tableau_sum``; the literal
    determinant stays in ``verify`` as the reference.
    """
    if variant not in ("h", "e"):
        raise ValueError(f"variant must be 'h' or 'e', got {variant!r}")
    vec_m = _check_shape(lam, vec_m, trunc)
    return _tableau_sum(lam if variant == "h" else lam.conjugate(), vec_m, trunc)


class CauchyReport(NamedTuple):
    """Outcome of comparing the tableau pairing sum with the product side."""

    ok: bool
    degree: int
    mismatches: list[str]


def cauchy_check(x_trunc: Truncation, y_trunc: Truncation, degree: int) -> CauchyReport:
    """Compare, degree by degree, the two sides of the pairing identity.

    Left side: over each x-degree m <= degree, the sum over shapes lam of the
    tableau generating function in the x variables times the one in the y
    variables, each K(lam, mu) times the complete generator's terms of content mu,
    over mu.  Right side: the product over subscript pairs (i, j) of the
    geometric series in z_ij = sum_{k,l} x_i^(k) y_j^(l), up to z_ij^degree.

    Both sides are packed polynomials in one joint truncation: x keeps its
    alphabets 1..a, y moves to a+1..a+b, each alphabet has as many subscripts
    as the larger of the two, and the cap is 2 * degree.  That cap cuts
    exactly at x-degree <= degree, because every term on either side has
    equal x- and y-degree: each tableau pair has one shape, each z_ij one x
    and one y variable.  The caps of x_trunc and y_trunc must reach degree.
    """
    if type(degree) is not int or degree < 0:
        raise ValueError(f"degree must be a nonnegative int, got {degree!r}")
    _check_truncation(x_trunc, degree)
    _check_truncation(y_trunc, degree)
    a = x_trunc.alphabets
    joint = Truncation(
        a + y_trunc.alphabets, max(x_trunc.variables, y_trunc.variables), 2 * degree
    )

    layout = unit, top, _ = _layout(*joint)
    lhs: Counter = Counter()  # both sides keep packed codes; only mismatches are decoded
    walk_y = x_trunc[:2] != y_trunc[:2]  # a shape's sum depends only on alphabets and variables
    for m in range(degree + 1):
        for lam in int_partitions(m):
            fx = _tableau_sum(lam, None, x_trunc).terms
            fy = _tableau_sum(lam, None, y_trunc).terms if walk_y else fx
            lhs.update(_times(_packed(fx, unit), _packed(fy, unit, a), top, joint.degree))

    rhs = {0: 1}
    for i in range(1, x_trunc.variables + 1):
        for j in range(1, y_trunc.variables + 1):
            pairs = product(range(1, a + 1), range(a + 1, joint.alphabets + 1))
            z = {unit[i, k] + unit[j, l]: 1 for k, l in pairs}  # each x_i^(k) y_j^(l)
            series = power = {0: 1}
            for _ in range(degree):  # z has degree 2: at degree 0 it is outside the cap
                power = _times(power, z, top, joint.degree)
                series = {**series, **power}  # the powers have distinct degrees
            rhs = _times(rhs, series, top, joint.degree)

    def split(mono):
        """The x part, and the y part moved back to alphabets 1..b, of a joint monomial."""
        x = tuple(((i, j), e) for (i, j), e in mono if j <= a)
        return x, tuple(((i, j - a), e) for (i, j), e in mono if j > a)

    differ = (code for code in lhs.keys() | rhs.keys() if lhs[code] != rhs.get(code, 0))
    mismatches = [
        f"x:[{format_monomial(x)}] y:[{format_monomial(y)}]: "
        f"tableau side {lhs[code]}, product side {rhs.get(code, 0)}"
        for (x, y), code in sorted((split(_unpack(code, layout)), code) for code in differ)
    ]
    return CauchyReport(not mismatches, degree, mismatches)
