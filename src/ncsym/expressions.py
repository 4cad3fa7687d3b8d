"""Parsing of element expressions and JSON readers for the CLI and files.

Expression grammar, shared by the noncommuting and commutative layers:

    expr   := [sign] term ((+|-) term)*
    term   := [rational *] basis_letter '[' index ']'
    rational := int [/ int]

The index is a set partition ("1,3/2,4", compact "13/24" for n <= 9) on the
noncommuting side and an integer partition ("2,1") on the commutative side.
Mixing basis letters in one expression is allowed; the mixed sum is returned
in the monomial basis.
"""
from __future__ import annotations

import json
from fractions import Fraction
from itertools import chain

from .classical import SYM_BASES, SymElement, sym_convert
from .combination import exact
from .elements import NC_BASES, NCSymElement, convert
from .intpartitions import IntPartition, ascii_int
from .setpartitions import SetPartition


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
            return Fraction(num, den) if num % den else num // den
        return num


def _parse_terms(text: str, bases: tuple[str, ...], index_parser):
    """Each basis letter's (index, coefficient) pairs, in the order of the text."""
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


def _from_json(data, cls, index):
    """Read {"basis": b, "terms": [{cls._field: ..., "coeff": c}, ...]} into cls.

    ``data`` is JSON text or an already decoded object.  A malformed shape,
    an unknown basis, a bad index, a null, list or object coefficient or a
    coefficient string that is no rational is a ParseError naming the term
    and the field; a float or bool coefficient is a TypeError from ``exact``.
    """
    if isinstance(data, str):
        try:
            data = json.loads(data)
        except json.JSONDecodeError as exc:
            raise ParseError(f"invalid JSON: {exc.msg}", exc.pos) from None
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
            key = index(entry[field])
        except (TypeError, ValueError) as exc:
            raise ParseError(f'term {number}: bad "{field}": {exc}', 0) from None
        if entry["coeff"] is None or isinstance(entry["coeff"], (list, dict)):
            raise ParseError(f'term {number}: bad "coeff": not a number or a "p/q" string', 0)
        try:
            pairs.append((key, exact(entry["coeff"])))
        except ValueError as exc:
            raise ParseError(f'term {number}: bad "coeff": {exc}', 0) from None
    return cls(data["basis"], pairs)


def _parse_element(text: str, cls, bases, parse_index, from_json, to_m):
    """One expression (or JSON object) in cls; a mixed sum comes back in m."""
    stripped = text.strip()
    if stripped.startswith("{"):
        return from_json(stripped)
    if stripped == "0":
        return cls("m")
    collected = _parse_terms(text, bases, parse_index)
    parts = [cls(b, terms) for b, terms in collected.items()]
    parts = [p for p in parts if not p.is_zero()]
    if len(parts) == 1:
        return parts[0]
    return cls._make("m", chain.from_iterable(to_m(p, "m").terms.items() for p in parts))


def parse_ncsym(text: str) -> NCSymElement:
    """Parse an expression over the m/p/e/h bases indexed by set partitions."""
    return _parse_element(
        text, NCSymElement, NC_BASES, SetPartition.parse, ncsym_from_json, convert
    )


def parse_sym(text: str) -> SymElement:
    """Parse an expression over the m/p/e/h/s bases indexed by integer partitions."""
    return _parse_element(
        text, SymElement, SYM_BASES, IntPartition.parse, sym_from_json, sym_convert
    )


def _json_list(value, item=int) -> list:
    """A JSON list whose items all have the type ``item``; a bool is no int."""
    if not (isinstance(value, list) and all(type(v) is item for v in value)):
        raise ValueError(f"expected a list of {item.__name__}s, got {json.dumps(value)}")
    return value


def ncsym_from_json(data) -> NCSymElement:
    return _from_json(
        data, NCSymElement, lambda v: SetPartition(map(_json_list, _json_list(v, list)))
    )


def sym_from_json(data) -> SymElement:
    return _from_json(data, SymElement, lambda v: IntPartition(_json_list(v)))


# the JSON writers are the element classes' own
ncsym_to_json = NCSymElement.to_json
sym_to_json = SymElement.to_json


def parse_multipolynomial(text: str, trunc) -> MultiPolynomial:
    """Parse the dotted-monomial text form, e.g. "x1'^2 x1'' + 2*x2''^3"."""
    from .macmahon import MultiPolynomial

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
