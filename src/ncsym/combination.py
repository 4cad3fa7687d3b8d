"""Exact sparse linear combinations, the one core of every element class.

An element is a tag (a basis letter, a variable count or a truncation) and a
dict of terms from keys (set partitions, integer partitions, words, monomials)
to nonzero exact rationals.  The public constructor validates the tag, every
key and every coefficient, then builds through ``_make``.  ``_make`` is the
one accumulator of (key, coefficient) pairs: it adds up equal keys, drops zero
sums and trusts the keys.
Coefficients are ``int`` or ``Fraction``: both are exact, and equal values
compare and hash alike.  A change of basis instead adds integer numerators over
one common denominator into one dict (``_over_one_denominator``); ``_make_distinct``
drops its zero sums while they are still integers and divides each distinct sum
once, so keys with equal coefficients share one quotient.  Where the keys are
distinct already (a one-symbol change of basis, a one-pair monomial product),
the dict is built in one pass and goes to ``_make_distinct`` alone.
The one text writer and the one JSON writer live here too: each walks the
terms in the subclass's display order.  ``BasisElement`` is the shared body
of the two element layers.  Beside the writers sit the parts that every reader
shares: ``ParseError``, the scanner, the term grammar and the one JSON reader.
"""
from __future__ import annotations

import json
from fractions import Fraction
from itertools import chain
from math import lcm
from numbers import Number
from typing import Iterable, Mapping

from .intpartitions import _expect, ascii_int


def exact(c):
    """A coefficient as an exact rational; floats, complex numbers and bools are refused.
    ``int`` and ``Fraction`` pass unchanged, other numbers go through ``Fraction``, and
    text, read here alone, is ASCII ``p`` or ``p/q`` with q >= 1, an ``int`` when integral."""
    if type(c) is int or isinstance(c, Fraction):
        return c
    if isinstance(c, bool):
        raise TypeError(f"coefficient {c!r} is a bool, not a number")
    if isinstance(c, (float, complex)):
        raise TypeError(f"inexact coefficient {c!r}: give an int, a Fraction or a 'p/q' string")
    if not isinstance(c, str):
        if not isinstance(c, Number):
            raise TypeError(f"coefficient {c!r} is not a number")
        return Fraction(c)
    num, slash, den = c.partition("/")
    num, den = ascii_int(num), ascii_int(den) if slash else 1
    if den < 1:
        raise ValueError(f"coefficient {c!r}: the denominator must be at least 1")
    return _quotient(num, den)


def _quotient(num: int, den: int):
    """num / den for a positive den: an ``int`` when integral, else a ``Fraction``."""
    return Fraction(num, den) if num % den else num // den


def _over_one_denominator(expansions: Iterable[tuple]) -> tuple[dict, int]:
    """(sums, D) for items (c, pairs, den), each c times (key, integer) pairs over den: key ->
    its integers scaled over D, the lcm of the c.denominator * den, added up in one pass."""
    expansions = [(c.numerator, c.denominator * den, pairs) for c, pairs, den in expansions]
    common, out = lcm(*(den for _, den, _ in expansions)), {}
    get = out.get
    for a, den, pairs in expansions:
        a *= common // den
        for key, v in pairs:
            out[key] = get(key, 0) + a * v
    return out, common


class Combination:
    """Finite rational combination of keys under one tag.

    A subclass supplies ``_check_tag`` and ``_check_key`` for its public
    constructor; a polynomial class adds its own algebra product.  For output
    it supplies ``_order`` (the display sort key of a key), ``_show`` (the
    text of a term's body), ``_field`` and ``_encode`` (the JSON name and
    value of a key), and ``_header`` when its JSON header is not the basis.
    A class that ``_from_json`` reads adds ``_decode``, the inverse of ``_encode``.
    """

    __slots__ = ("tag", "terms")

    def __new__(cls, tag, terms=()):
        """Check a mapping or (key, coefficient) pairs, then build through ``_make``."""
        cls._check_tag(tag)
        if isinstance(terms, Mapping):
            terms = terms.items()
        return cls._make(tag, ((cls._check_key(tag, key), exact(c)) for key, c in terms))

    @classmethod
    def _make(cls, tag, pairs: Iterable[tuple]):
        """The one accumulator: adds up the coefficients of equal keys and
        drops the zero sums.  Keys and coefficients are trusted."""
        out: dict = {}
        for key, c in pairs:
            if key in out:
                out[key] += c
            else:
                out[key] = c
        self = object.__new__(cls)
        self.tag = tag
        self.terms = out if all(out.values()) else {key: c for key, c in out.items() if c}
        return self

    @classmethod
    def _make_distinct(cls, tag, terms: dict, den: int = 1):
        """Build from a dict whose keys are already distinct, so nothing is summed;
        the dict is kept when no value is zero.  With ``den`` the values are integer
        numerators: the zeros go first, then each distinct value is divided by den
        once and the keys that share it share the quotient."""
        if not all(terms.values()):
            terms = {key: c for key, c in terms.items() if c}
        if den != 1:
            quotient = {c: _quotient(c, den) for c in set(terms.values())}
            terms = dict(zip(terms, map(quotient.__getitem__, terms.values())))
        self = object.__new__(cls)
        self.tag = tag
        self.terms = terms
        return self

    @staticmethod
    def _check_tag(tag) -> None:
        raise NotImplementedError

    @staticmethod
    def _check_key(tag, key):
        """The key in canonical form; raises if it does not belong under tag."""
        raise NotImplementedError

    def _require_same_tag(self, other: "Combination") -> None:
        if self.tag != other.tag:
            raise ValueError(
                f"cannot combine {type(self).__name__}s over "
                f"{self.tag!r} and {other.tag!r}"
            )

    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        self._require_same_tag(other)
        return self._make(self.tag, chain(self.terms.items(), other.terms.items()))

    def __sub__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self + -other

    def __neg__(self):
        return self._make(self.tag, ((key, -c) for key, c in self.terms.items()))

    def __mul__(self, scalar):
        c = exact(scalar)
        return self._make(self.tag, ((key, c * v) for key, v in self.terms.items()))

    __rmul__ = __mul__

    def __eq__(self, other: object) -> bool:
        return (
            type(other) is type(self)
            and self.tag == other.tag
            and self.terms == other.terms
        )

    def __hash__(self) -> int:
        return hash((self.tag, frozenset(self.terms.items())))

    def _header(self) -> dict:
        return {"basis": self.tag}

    def to_text(self, strict: bool = False) -> str:
        """The terms in display order, as "a*x + y - b*z"; see ``format_terms``."""
        terms, show = self.terms, self._show
        return format_terms(((terms[k], show(k)) for k in sorted(terms, key=self._order)), strict)

    def to_json(self, strict: bool = False) -> str:
        """The header's fields, then "terms" in display order, each coefficient a string."""
        terms, field, encode = self.terms, self._field, self._encode
        rows = [
            {field: encode(k), "coeff": format_rational(terms[k], strict)}
            for k in sorted(terms, key=self._order)
        ]
        return json.dumps({**self._header(), "terms": rows})

    def __str__(self) -> str:
        return self.to_text()

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self}>"


class BasisElement(Combination):
    """The one body of the two element layers: a combination in one named basis,
    keyed by partitions of any degree.  A subclass names its ``BASES`` and its
    key class ``KEY``, whose values carry their degree as ``n``."""

    __slots__ = ()
    basis = Combination.tag  # the tag under its public name

    @classmethod
    def _check_tag(cls, basis) -> None:
        if basis not in cls.BASES:
            raise ValueError(f"unknown basis {basis!r}")

    @classmethod
    def _check_key(cls, basis, key):
        if not isinstance(key, cls.KEY):
            name = cls.KEY.__name__
            raise TypeError(f"key {key!r} is not {'an' if name[0] in 'AEIOU' else 'a'} {name}")
        return key

    def degrees(self) -> list[int]:
        return sorted({key.n for key in self.terms})

    def degree(self) -> int:
        return max((key.n for key in self.terms), default=0)

    def homogeneous_component(self, n: int):
        return self._make(self.tag, ((key, c) for key, c in self.terms.items() if key.n == n))


def format_rational(c, strict: bool = False) -> str:
    """``p/q``, or a bare integer unless ``strict``."""
    if c.denominator == 1 and not strict:
        return str(c.numerator)
    return f"{c.numerator}/{c.denominator}"


def format_terms(terms: Iterable[tuple], strict: bool = False) -> str:
    """Join (coefficient, body) pairs as "a*x + y - b*z"; "0" when there are none.

    A coefficient of magnitude 1 is left off unless ``strict``; an empty body
    is a constant term and prints as its coefficient alone.
    """
    out = ""
    for c, body in terms:
        mag = abs(c)
        if not body:
            text = format_rational(mag, strict)
        elif mag == 1 and not strict:
            text = body
        else:
            text = f"{format_rational(mag, strict)}*{body}"
        if out:
            out += f" {'-' if c < 0 else '+'} {text}"
        else:
            out = f"-{text}" if c < 0 else text
    return out or "0"


class ParseError(ValueError):
    """Malformed input text; carries the offending position."""

    def __init__(self, message: str, position: int):
        self.position = position
        super().__init__(f"{message} (at position {position})")


class _Scanner:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def skip_ws(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def take(self) -> str:
        ch = self.peek()
        self.pos += 1
        return ch

    def at_end(self) -> bool:
        self.skip_ws()
        return self.pos >= len(self.text)

    def integer(self) -> int:
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        try:  # the scan takes any script's digits; the integer must be ASCII
            return ascii_int(self.text[start : self.pos])
        except ValueError:
            raise ParseError("expected an integer", start) from None

    def rational(self) -> int | Fraction:
        num = self.integer()
        self.skip_ws()
        if self.peek() == "/":
            self.take()
            den = self.integer()
            if not den:
                raise ParseError("zero denominator", self.pos)
            return _quotient(num, den)
        return num


def _parse_terms(text: str, bases: tuple[str, ...], index_parser):
    """Each basis letter's (index, coefficient) pairs, in the order of the text, read by
    the grammar  expr := [sign] term ((+|-) term)*,  term := [int[/int] *] letter[index],
    with each index read by ``index_parser``."""
    sc = _Scanner(text)
    collected: dict[str, list] = {}
    first = True
    while not sc.at_end():
        sc.skip_ws()
        sign = 1
        if sc.peek() in "+-":
            if first and sc.peek() == "+":
                raise ParseError("unexpected leading '+'", sc.pos)
            sign = -1 if sc.take() == "-" else 1
        elif not first:
            raise ParseError("expected '+' or '-' between terms", sc.pos)
        sc.skip_ws()
        coeff = 1
        if sc.peek().isdigit():
            coeff = sc.rational()
            sc.skip_ws()
            if sc.peek() != "*":
                raise ParseError("expected '*' after a coefficient", sc.pos)
            sc.take()
            sc.skip_ws()
        letter = sc.peek()
        if letter not in bases:
            raise ParseError(
                f"expected a basis letter among {''.join(bases)!r}", sc.pos
            )
        sc.take()
        sc.skip_ws()
        if sc.peek() != "[":
            raise ParseError("expected '[' after the basis letter", sc.pos)
        open_pos = sc.pos
        sc.take()
        close = sc.text.find("]", sc.pos)
        if close < 0:
            raise ParseError("unclosed '['", open_pos)
        inner = sc.text[sc.pos : close]
        sc.pos = close + 1
        try:
            index = index_parser(inner)
        except ValueError as exc:
            raise ParseError(str(exc), open_pos + 1) from None
        collected.setdefault(letter, []).append((index, sign * coeff))
        first = False
    if first:
        raise ParseError("empty expression", 0)
    return collected


def _parse_element(text: str, cls, to_m):
    """One expression (or JSON object) in the BasisElement subclass cls, over
    its ``BASES`` and read by its ``KEY.parse``; a mixed sum comes back in m."""
    _expect(str, text)
    stripped = text.strip()
    if stripped.startswith("{"):
        return _from_json(stripped, cls)
    if stripped == "0":
        return cls("m")
    collected = _parse_terms(text, cls.BASES, cls.KEY.parse)
    parts = [cls(b, terms) for b, terms in collected.items()]
    parts = [p for p in parts if not p.is_zero()]
    if len(parts) == 1:
        return parts[0]
    return cls._make("m", chain.from_iterable(to_m(p, "m").terms.items() for p in parts))


def _json_list(value, item=int) -> list:
    """A JSON list whose items all have the type ``item``; a bool is no int."""
    if not (isinstance(value, list) and all(type(v) is item for v in value)):
        raise ValueError(f"expected a list of {item.__name__}s, got {json.dumps(value)}")
    return value


def _from_json(data, cls):
    """Read {"basis": b, "terms": [{cls._field: ..., "coeff": c}, ...]} into cls.

    ``data`` is JSON text or an already decoded object.  A malformed shape,
    an unknown basis, a bad key, a null, list or object coefficient or a
    coefficient string that is no rational is a ParseError naming the term
    and the field, and so is text nested too deeply to decode; a float or bool
    coefficient is a TypeError from ``exact``.
    """
    if isinstance(data, str):
        try:
            data = json.loads(data)
        except json.JSONDecodeError as exc:
            raise ParseError(f"invalid JSON: {exc.msg}", exc.pos) from None
        except RecursionError:
            raise ParseError("invalid JSON: nested too deeply", 0) from None
    if not isinstance(data, dict) or "basis" not in data:
        raise ParseError('expected a JSON object with "basis" and "terms"', 0)
    if not isinstance(data.get("terms"), list):
        raise ParseError('"terms" must be a list of terms', 0)
    try:
        cls._check_tag(data["basis"])
    except ValueError as exc:
        raise ParseError(f'bad "basis": {exc}', 0) from None
    field, pairs = cls._field, []
    for number, entry in enumerate(data["terms"], start=1):
        if not isinstance(entry, dict) or field not in entry or "coeff" not in entry:
            raise ParseError(f'term {number} needs "{field}" and "coeff"', 0)
        try:
            key = cls._decode(entry[field])
        except (TypeError, ValueError) as exc:
            raise ParseError(f'term {number}: bad "{field}": {exc}', 0) from None
        if entry["coeff"] is None or isinstance(entry["coeff"], (list, dict)):
            raise ParseError(f'term {number}: bad "coeff": not a number or a "p/q" string', 0)
        try:
            pairs.append((key, exact(entry["coeff"])))
        except ValueError as exc:
            raise ParseError(f'term {number}: bad "coeff": {exc}', 0) from None
    return cls(data["basis"], pairs)
