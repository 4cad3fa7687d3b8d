"""Brute-force ground truth: truncated expansions into noncommuting words.

A word is a tuple of variable indices.  Expanding a basis symbol of degree n
with k variables enumerates the words grouped by their kernel set partition,
so every identity of homogeneous degree n can be decided exactly at k = n.
"""
from __future__ import annotations

from fractions import Fraction
from itertools import permutations
from typing import Sequence

from .combination import Combination, exact, format_rational
from .elements import NCSymElement
from .intpartitions import _check_size, _expect, ascii_int
from .setpartitions import SetPartition, check_permutation, set_partitions

Word = tuple[int, ...]


class NotSymmetricError(ValueError):
    """A word polynomial gives unequal coefficients to words of equal kernel."""

    def __init__(self, word_a: Word, word_b: Word, coeff_a, coeff_b):
        self.witness = (word_a, word_b)
        super().__init__(
            f"not symmetric: words {format_word(word_a)!r} and "
            f"{format_word(word_b)!r} share a kernel but have coefficients "
            f"{coeff_a} and {coeff_b}"
        )


def kernel(word: Sequence[int]) -> SetPartition:
    """Positions carrying equal letters fall in the same block."""
    return SetPartition.from_labels(word)


def format_word(word: Word) -> str:
    return " ".join(f"x{i}" for i in word)


class WordPolynomial(Combination):
    """Finite rational combination of words over variables 1..k."""

    __slots__ = ()
    k = Combination.tag  # the tag under its public name
    _order = staticmethod(lambda w: (len(w), w))
    _field = "word"
    _encode = list

    def _header(self) -> dict:
        return {"variables": self.k}

    @staticmethod
    def _check_tag(k) -> None:
        if type(k) is not int or k < 1:  # a bool or a float is no variable count
            raise ValueError(f"need an int number of variables >= 1, got {k!r}")

    @staticmethod
    def _check_key(k, word) -> Word:
        word = tuple(word)
        for letter in word:
            if type(letter) is not int or not 1 <= letter <= k:
                raise ValueError(f"letter {letter!r} in {word!r} is not an int in 1..{k}")
        return word

    def __mul__(self, other):
        if not isinstance(other, WordPolynomial):
            return super().__mul__(other)
        self._require_same_tag(other)
        return self._make(
            self.k,
            ((wa + wb, ca * cb) for wa, ca in self.terms.items() for wb, cb in other.terms.items()),
        )

    def to_text(self, strict: bool = False) -> str:
        """One term per line: coefficient, then the word (or "1" for the empty word)."""
        if not self.terms:
            return "0"
        return "\n".join(
            f"{format_rational(self.terms[word], strict)} {format_word(word) if word else '1'}"
            for word in sorted(self.terms, key=self._order)
        )

    def __repr__(self) -> str:
        return f"<WordPolynomial k={self.k}, {len(self.terms)} terms>"


def parse_word_polynomial(text: str, k: int) -> WordPolynomial:
    _expect(str, text)
    terms = []
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line == "0":
            continue
        toks = line.split()
        letters = []
        for tok in toks[1:]:
            if tok == "1" and len(toks) == 2:
                break
            if not tok.startswith("x"):
                raise ValueError(f"bad word token {tok!r}")
            letters.append(ascii_int(tok[1:]))
        terms.append((tuple(letters), exact(toks[0])))
    return WordPolynomial(k, terms)  # the constructor adds up repeated words


def _words_with_kernel(sigma: SetPartition, k: int):
    """All words over 1..k whose kernel is exactly sigma."""
    for letters in permutations(range(1, k + 1), sigma.length):
        yield tuple(letters[lab] for lab in sigma.rgs)


def expand(f: NCSymElement, k: int) -> WordPolynomial:
    """Truncate to k variables, exactly.

    The coefficient of a word depends only on its kernel sigma: it is c for
    the m term at sigma = pi, c on every sigma above pi for p, c on every
    sigma meeting pi in the bottom for e, and c times the part factorial of
    sigma meet pi for h.  An m term walks only its own kernel; the other
    bases walk every set partition of n, so this oracle shares no interval
    enumerator with the closed forms it checks.
    """
    _expect(NCSymElement, f)
    WordPolynomial._check_tag(k)
    kernels = (
        (sigma, c * _kernel_weight(f.basis, pi, sigma))
        for pi, c in f.terms.items()
        for sigma in ((pi,) if f.basis == "m" else set_partitions(pi.n))
        if sigma.length <= k
    )
    return WordPolynomial._make(
        k, ((word, c) for sigma, c in kernels if c for word in _words_with_kernel(sigma, k))
    )


def _kernel_weight(basis: str, pi: SetPartition, sigma: SetPartition) -> int:
    """The coefficient of each word of kernel sigma in basis_pi."""
    if basis == "m":
        return int(sigma == pi)
    if basis == "p":
        return int(pi.leq(sigma))
    if basis == "e":
        return int(pi.meet(sigma).rank == 0)  # the meet is the bottom
    return pi.meet(sigma).type.fact_parts()


def collect(P: WordPolynomial, n: int) -> NCSymElement:
    """Invert expand on symmetric input, grouping words by kernel.

    Requires k >= n so that degree-n kernels are all visible; words of equal
    kernel must agree, otherwise a witness pair is reported.
    """
    _expect(WordPolynomial, P)
    _check_size(n)
    if P.k < n:
        raise ValueError(f"need at least {n} variables to collect degree {n}")
    seen: dict[SetPartition, Word] = {}
    for word in P.terms:
        if len(word) > n:
            raise ValueError(f"word {word!r} exceeds stated degree {n}")
        seen.setdefault(kernel(word), word)
    for kern, witness in seen.items():
        reference = P.terms[witness]
        for word in _words_with_kernel(kern, P.k):
            coeff = P.terms.get(word, Fraction(0))
            if coeff != reference:
                raise NotSymmetricError(witness, word, reference, coeff)
    return NCSymElement._make("m", ((kern, P.terms[w]) for kern, w in seen.items()))


def equal(f: NCSymElement, g: NCSymElement) -> bool:
    """Decide equality in the algebra by expanding both at the joint degree."""
    k = max(f.degree(), g.degree(), 1)
    return expand(f, k) == expand(g, k)


def expand_position_action(perm: Sequence[int], P: WordPolynomial) -> WordPolynomial:
    """Permute the positions of every word; kernels transform by relabelling."""
    _expect(WordPolynomial, P)
    n = len(perm)
    check_permutation(perm, n)
    for word in P.terms:
        if len(word) != n:
            raise ValueError(f"word length {len(word)} does not match the permutation")
    source = sorted(range(n), key=lambda pos: perm[pos])  # position i takes word[source[i]]
    return WordPolynomial._make(
        P.k, ((tuple(word[pos] for pos in source), c) for word, c in P.terms.items())
    )
