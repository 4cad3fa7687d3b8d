"""Parsing of element expressions and JSON codecs for the CLI and files.

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

from .classical import SYM_BASES, SymElement, sym_convert
from .combination import format_rational
from .elements import NC_BASES, NCSymElement, convert
from .intpartitions import IntPartition
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
        if self.pos == start:
            raise ParseError("expected an integer", start)
        return int(self.text[start : self.pos])

    def rational(self) -> Fraction:
        num = self.integer()
        self.skip_ws()
        if self.peek() == "/":
            self.take()
            return Fraction(num, self.integer())
        return Fraction(num)


def _parse_terms(text: str, bases: tuple[str, ...], index_parser):
    """Collect (basis, index, coefficient) triples from one expression."""
    sc = _Scanner(text)
    collected: dict[str, dict] = {}
    first = True
    while not sc.at_end():
        sc.skip_ws()
        sign = Fraction(1)
        if sc.peek() in "+-":
            if first and sc.peek() == "+":
                raise ParseError("unexpected leading '+'", sc.pos)
            sign = Fraction(-1) if sc.take() == "-" else Fraction(1)
        elif not first:
            raise ParseError("expected '+' or '-' between terms", sc.pos)
        sc.skip_ws()
        coeff = Fraction(1)
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
        bucket = collected.setdefault(letter, {})
        bucket[index] = bucket.get(index, Fraction(0)) + sign * coeff
        first = False
    if first:
        raise ParseError("empty expression", 0)
    return collected


def parse_ncsym(text: str) -> NCSymElement:
    """Parse an expression over the m/p/e/h bases indexed by set partitions."""
    stripped = text.strip()
    if stripped.startswith("{"):
        return ncsym_from_json(stripped)
    if stripped == "0":
        return NCSymElement("m")
    collected = _parse_terms(text, NC_BASES, SetPartition.parse)
    parts = [NCSymElement(b, terms) for b, terms in collected.items()]
    parts = [p for p in parts if not p.is_zero()]
    if not parts:
        return NCSymElement("m")
    if len(parts) == 1:
        return parts[0]
    total = NCSymElement("m")
    for p in parts:
        total = total + convert(p, "m")
    return total


def parse_sym(text: str) -> SymElement:
    """Parse an expression over the m/p/e/h/s bases indexed by integer partitions."""
    stripped = text.strip()
    if stripped.startswith("{"):
        return sym_from_json(stripped)
    if stripped == "0":
        return SymElement("m")
    collected = _parse_terms(text, SYM_BASES, IntPartition.parse)
    parts = [SymElement(b, terms) for b, terms in collected.items()]
    parts = [p for p in parts if not p.is_zero()]
    if not parts:
        return SymElement("m")
    if len(parts) == 1:
        return parts[0]
    total = SymElement("m")
    for p in parts:
        total = total + sym_convert(p, "m")
    return total


def ncsym_to_json(f: NCSymElement) -> str:
    return json.dumps(
        {
            "basis": f.basis,
            "terms": [
                {"blocks": [list(b) for b in pi.blocks], "coeff": format_rational(c)}
                for pi, c in sorted(
                    f.terms.items(), key=lambda kv: kv[0].sort_key()
                )
            ],
        }
    )


def ncsym_from_json(data) -> NCSymElement:
    obj = json.loads(data) if isinstance(data, str) else data
    return NCSymElement(
        obj["basis"],
        [(SetPartition(entry["blocks"]), entry["coeff"]) for entry in obj["terms"]],
    )


def sym_to_json(f: SymElement) -> str:
    return json.dumps(
        {
            "basis": f.basis,
            "terms": [
                {"parts": list(lam.parts), "coeff": format_rational(c)}
                for lam, c in sorted(
                    f.terms.items(), key=lambda kv: (kv[0].n, kv[0].parts)
                )
            ],
        }
    )


def sym_from_json(data) -> SymElement:
    obj = json.loads(data) if isinstance(data, str) else data
    return SymElement(
        obj["basis"],
        [(IntPartition(entry["parts"]), entry["coeff"]) for entry in obj["terms"]],
    )


def word_polynomial_to_json(P) -> str:
    return json.dumps(
        {
            "variables": P.k,
            "terms": [
                {"word": list(w), "coeff": format_rational(c)}
                for w, c in sorted(P.terms.items(), key=lambda kv: (len(kv[0]), kv[0]))
            ],
        }
    )


def multipolynomial_to_json(P) -> str:
    from .macmahon import mono_degree

    return json.dumps(
        {
            "alphabets": P.trunc.alphabets,
            "variables": P.trunc.variables,
            "degree": P.trunc.degree,
            "terms": [
                {
                    "monomial": [[i, j, e] for (i, j), e in mono],
                    "coeff": format_rational(c),
                }
                for mono, c in sorted(
                    P.terms.items(), key=lambda kv: (mono_degree(kv[0]), kv[0])
                )
            ],
        }
    )


def parse_multipolynomial(text: str, trunc) -> "object":
    """Parse the dotted-monomial text form, e.g. "x1'^2 x1'' + 2*x2''^3"."""
    from .macmahon import MultiPolynomial

    sc = _Scanner(text)
    terms: dict[tuple, Fraction] = {}
    first = True
    while not sc.at_end():
        sc.skip_ws()
        sign = Fraction(1)
        if sc.peek() in "+-":
            sign = Fraction(-1) if sc.take() == "-" else Fraction(1)
        elif not first:
            raise ParseError("expected '+' or '-' between terms", sc.pos)
        sc.skip_ws()
        coeff = Fraction(1)
        explicit_coeff = False
        if sc.peek().isdigit():
            coeff = sc.rational()
            explicit_coeff = True
            sc.skip_ws()
            if sc.peek() == "*":
                sc.take()
                sc.skip_ws()
        exps: dict[tuple[int, int], int] = {}
        saw_factor = False
        while sc.peek() == "x":
            saw_factor = True
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
            key = (subscript, dots)
            exps[key] = exps.get(key, 0) + power
            sc.skip_ws()
        if not saw_factor and not explicit_coeff:
            raise ParseError("expected a term", sc.pos)
        mono = tuple(sorted(exps.items()))
        terms[mono] = terms.get(mono, Fraction(0)) + sign * coeff
        first = False
    return MultiPolynomial(trunc, terms)
