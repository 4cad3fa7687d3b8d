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
``cauchy_check`` compares the two sides of the pairing (Cauchy-type) identity
as packed codes, so the packed layout is known to this module alone.
"""
from __future__ import annotations

import re
from collections import Counter
from fractions import Fraction
from functools import lru_cache
from itertools import permutations, product
from math import factorial
from operator import add, le
from typing import Iterable, NamedTuple, Sequence

from .combination import Combination, ParseError, _Scanner
from .intpartitions import IntPartition, _expect, ascii_int, int_partitions, weak_compositions
from .setpartitions import SetPartition
from .tableaux import _fillings

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


@lru_cache(maxsize=None)
def _mm_generator(t: tuple[int, ...], variables: int, most: int) -> MultiPolynomial:
    """Coefficient of the auxiliary degree t in prod_i sum_v x_i^v q^v, over vectors v
    of at most ``most`` alphabet letters, at cap |t|: it is homogeneous, so no cap changes it.

    Subscripts 1, 2, ... each take such a vector up to what t still needs,
    the zero vector included, and v counts with its number of orderings.
    Each monomial comes from one choice of vectors, so it is built sorted.
    """
    terms: list[tuple[Monomial, int]] = []

    def rec(i: int, left: tuple[int, ...], mono: Monomial, coeff: int):
        if not any(left):
            terms.append((mono, coeff))
        elif sum(left) <= most * (variables - i + 1):
            for letters, rest, orderings in _letter_vectors(left, most):
                rec(i + 1, rest, mono + tuple(((i, j), x) for j, x in letters), coeff * orderings)

    rec(1, t, (), 1)
    return MultiPolynomial._make(Truncation(len(t), variables, sum(t)), terms)


@lru_cache(maxsize=None)
def _letter_vectors(left: tuple[int, ...], most: int) -> tuple:
    """Each vector v up to ``left`` with at most ``most`` letters, as its
    (alphabet, count) pairs, left - v and the number of orderings of v."""
    out = []
    for v in product(*(range(min(r, most) + 1) for r in left)):
        if sum(v) <= most:
            orderings = factorial(sum(v))
            for x in v:
                orderings //= factorial(x)
            letters = tuple((j, x) for j, x in enumerate(v, 1) if x)
            out.append((letters, tuple(r - x for r, x in zip(left, v)), orderings))
    return tuple(out)


def mm_elementary(t: Sequence[int], trunc: Truncation) -> MultiPolynomial:
    """Coefficient of the auxiliary degree t in prod_i (1 + sum_j x_i^(j) q_j):
    each subscript takes one letter or none."""
    t = _check_vector(t, trunc)
    return MultiPolynomial._make(trunc, _mm_generator(t, trunc.variables, 1).terms.items())


def mm_complete(t: Sequence[int], trunc: Truncation) -> MultiPolynomial:
    """Coefficient of the auxiliary degree t in prod_i 1/(1 - sum_j x_i^(j) q_j):
    each subscript takes any number of letters (|t| bounds them all)."""
    t = _check_vector(t, trunc)
    return MultiPolynomial._make(trunc, _mm_generator(t, trunc.variables, sum(t)).terms.items())


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
    """``schur_tableau_sum`` unchecked, and over every multidegree when vec_m
    is None: one walk over the fillings, building no tableau.  A filling's
    code is the sum of its cells' codes, and each distinct one is decoded once."""
    layout = unit, _, _ = _layout(*trunc)
    cell = lambda *v: unit.get(v, 0)  # value 0 and class 0 are in the walk's table too
    counts = Counter(map(sum, _fillings(lam.parts, trunc.variables, trunc.alphabets, vec_m, cell)))
    return MultiPolynomial._make(trunc, ((_unpack(m, layout), c) for m, c in counts.items()))


@lru_cache(maxsize=None)
def _jt_determinant(
    lam: IntPartition, variant: str, variables: int, vec_m: tuple[int, ...]
) -> MultiPolynomial:
    """The vec_m slice of the generator determinant at cap |vec_m|, one row at a time.

    A state is (columns used, multidegree so far) and holds the signed sum of
    the products over every way of reaching it, so the permutations share
    their prefixes.  A complete state has degree |vec_m|, and a multidegree
    that stays under vec_m with that sum is vec_m itself, so no product passes
    the cap and the states' terms stay packed until the end.
    """
    size, k, trunc = lam.length, len(vec_m), Truncation(len(vec_m), variables, sum(vec_m))
    layout = unit, _, _ = _layout(*trunc)

    def pieces(degree: int) -> list:  # the pieces gen(t) of one entry that fit under vec_m
        return [
            (t, _packed(_mm_generator(t, variables, degree if variant == "h" else 1).terms, unit))
            for t in (weak_compositions(degree, k) if degree >= 0 else ())  # below 0: none
            if all(map(le, t, vec_m))
        ]

    rows = [[pieces(lam.parts[i] - i + j) for j in range(size)] for i in range(size)]
    states = {(0, (0,) * k): {0: 1}}
    for row in reversed(rows):  # the longest row last, where vec_m leaves one t per state
        sums: dict = {}
        for (used, deg), terms in states.items():
            for j, entry in enumerate(row):
                if used >> j & 1:
                    continue
                sign = -1 if bin(used % (1 << j)).count("1") % 2 else 1  # inversions below
                for t, piece in entry:
                    d = tuple(map(add, deg, t))
                    if all(map(le, d, vec_m)):
                        acc = sums.setdefault((used | 1 << j, d), {})
                        for ma, ca in terms.items():
                            ca *= sign
                            for mb, cb in piece.items():
                                m = ma + mb
                                acc[m] = acc.get(m, 0) + ca * cb
        states = {key: {m: c for m, c in acc.items() if c} for key, acc in sums.items()}
    terms = ((_unpack(m, layout), c) for acc in states.values() for m, c in acc.items())
    return MultiPolynomial._make(trunc, terms)


def jacobi_trudi(
    lam: IntPartition,
    vec_m: Sequence[int],
    variant: str,
    trunc: Truncation,
) -> MultiPolynomial:
    """The vec_m slice of the determinant of complete (h) or elementary (e) sums.

    Entry (i, j) sums the generator gen(t) over the vectors t of degree
    lam_i - i + j; negative degree gives 0 and degree zero gives 1.  Only the
    slice is computed: a piece with t above vec_m in some alphabet is dropped,
    and so is a partial product whose multidegree leaves vec_m.  This is
    exact, since multidegrees add under multiplication and never shrink.
    The h variant produces the tableau generating function of the shape
    itself, the e variant that of the conjugate shape.
    """
    if variant not in ("h", "e"):
        raise ValueError(f"variant must be 'h' or 'e', got {variant!r}")
    vec_m = _check_shape(lam, vec_m, trunc)
    if (lam if variant == "h" else lam.conjugate()).length > trunc.variables:
        return MultiPolynomial._make(trunc, ())  # a column outgrows the subscripts: no tableau
    terms = _jt_determinant(lam, variant, trunc.variables, vec_m).terms
    return MultiPolynomial._make(trunc, terms.items())  # the slice's terms, under the caller's cap


class CauchyReport(NamedTuple):
    """Outcome of comparing the tableau pairing sum with the product side."""

    ok: bool
    degree: int
    mismatches: list[str]


def cauchy_check(x_trunc: Truncation, y_trunc: Truncation, degree: int) -> CauchyReport:
    """Compare, degree by degree, the two sides of the pairing identity.

    Left side: over each x-degree m <= degree, the sum over shapes of the
    tableau generating function in the x variables times the one in the y
    variables.  Right side: the product over subscript pairs (i, j) of the
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
