"""Command-line front end.

Exit codes: 0 success, 1 usage error, 2 parse error, 3 semantic error,
4 verification failure.  Rationals print as ``p/q``; integer values drop the
``/1`` unless ``--strict-rationals`` is given.
"""
from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from .classical import format_sym
from .combination import format_rational
from .elements import NCSymElement, convert, format_ncsym, inner, lift, omega, project
from .expressions import (
    ParseError,
    multipolynomial_to_json,
    ncsym_to_json,
    parse_ncsym,
    parse_sym,
    sym_to_json,
    word_polynomial_to_json,
)
from .intpartitions import IntPartition
from .macmahon import (
    Truncation,
    TruncationError,
    format_multipolynomial,
    jacobi_trudi,
    parse_vector,
    schur_ncsym,
    schur_tableau_sum,
)
from .rsk import Biword, rsk_forward, rsk_inverse
from .setpartitions import GroundSetError, SetPartition, bell_number, lattice, mobius
from .tableaux import DottedTableau
from .words import NotSymmetricError, expand, format_word_polynomial
from . import verify as verify_module

USAGE_ERROR, PARSE_ERROR, SEMANTIC_ERROR, VERIFY_ERROR = 1, 2, 3, 4


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # argparse would exit(2); usage errors are 1
        raise _UsageError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="ncsym",
        description="Symmetric functions in noncommuting variables, exactly.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_format(p):
        p.add_argument("--format", choices=("text", "json"), default="text")
        p.add_argument(
            "--strict-rationals",
            action="store_true",
            help="print integers as p/1 instead of bare integers",
        )

    p = sub.add_parser("convert", help="change the basis of an element")
    p.add_argument("expr")
    p.add_argument("--to", required=True, choices=("m", "p", "e", "h"))
    add_format(p)

    p = sub.add_parser("mobius", help="Mobius function between two set partitions")
    p.add_argument("sigma")
    p.add_argument("pi")
    add_format(p)

    p = sub.add_parser("lattice", help="tables over the whole partition lattice")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--table", choices=("mobius", "meet", "join"), required=True)
    add_format(p)

    p = sub.add_parser("inner", help="inner product of two elements")
    p.add_argument("expr1")
    p.add_argument("expr2")
    add_format(p)

    p = sub.add_parser("omega", help="apply the e/h involution")
    p.add_argument("expr")
    add_format(p)

    p = sub.add_parser("project", help="let the variables commute")
    p.add_argument("expr")
    add_format(p)

    p = sub.add_parser("lift", help="lift a commutative element")
    p.add_argument("expr")
    add_format(p)

    p = sub.add_parser("schur", help="Schur analogue of an integer partition")
    p.add_argument("shape")
    p.add_argument("--vec", help="multidegree vector, e.g. [2,2]")
    p.add_argument("--expand", type=int, metavar="K", help="variables per alphabet")
    add_format(p)

    p = sub.add_parser("jacobi-trudi", help="determinant form of a Schur function")
    p.add_argument("shape")
    p.add_argument("--vec", required=True)
    p.add_argument("--variant", choices=("h", "e"), default="h")
    p.add_argument("--vars", type=int, metavar="K", help="variables per alphabet")
    add_format(p)

    p = sub.add_parser("rsk", help="row insertion of a biword file, or its inverse")
    p.add_argument("path")
    p.add_argument(
        "--inverse",
        action="store_true",
        help="the file holds two tableaux separated by a blank line",
    )
    add_format(p)

    p = sub.add_parser("expand", help="truncated word expansion of an element")
    p.add_argument("expr")
    p.add_argument("--vars", type=int, required=True)
    add_format(p)

    p = sub.add_parser("verify", help="run a verification suite")
    p.add_argument("suite", help=f"one of: {', '.join([*verify_module.SUITES, 'all'])}")
    p.add_argument("--max-n", type=int, default=None)
    add_format(p)

    return parser


def _print_rational(value: Fraction, args) -> None:
    if args.format == "json":
        print(json.dumps({"value": format_rational(value, args.strict_rationals)}))
    else:
        print(format_rational(value, args.strict_rationals))


def _print_ncsym(f: NCSymElement, args) -> None:
    if args.format == "json":
        print(ncsym_to_json(f))
    else:
        print(format_ncsym(f, args.strict_rationals))


def _cmd_convert(args) -> int:
    _print_ncsym(convert(parse_ncsym(args.expr), args.to), args)
    return 0


def _cmd_mobius(args) -> int:
    value = mobius(SetPartition.parse(args.sigma), SetPartition.parse(args.pi))
    _print_rational(Fraction(value), args)
    return 0


def _cmd_lattice(args) -> int:
    if args.n < 0:
        raise ValueError("--n must be nonnegative")
    if args.n > 7:  # lattice(7) takes minutes to build
        size = bell_number(args.n)
        raise ValueError(
            f"--n {args.n}: B_{args.n} = {size} partitions, a {size} x {size} table; n <= 7"
        )
    lat = lattice(args.n)
    labels = [str(p) if p.blocks else "()" for p in lat.elements]
    if args.table == "mobius":
        cells = [[str(lat.mu(i, j)) for j in range(lat.size)] for i in range(lat.size)]
    else:
        table = lat.meet if args.table == "meet" else lat.join
        cells = [
            [labels[table[i][j]] for j in range(lat.size)] for i in range(lat.size)
        ]
    if args.format == "json":
        print(json.dumps({"n": args.n, "table": args.table, "elements": labels, "rows": cells}))
    else:
        print("\t".join(["*"] + labels))
        for label, row in zip(labels, cells):
            print("\t".join([label] + row))
    return 0


def _cmd_inner(args) -> int:
    _print_rational(inner(parse_ncsym(args.expr1), parse_ncsym(args.expr2)), args)
    return 0


def _cmd_omega(args) -> int:
    _print_ncsym(omega(parse_ncsym(args.expr)), args)
    return 0


def _cmd_project(args) -> int:
    image = project(parse_ncsym(args.expr))
    if args.format == "json":
        print(sym_to_json(image))
    else:
        print(format_sym(image, args.strict_rationals))
    return 0


def _cmd_lift(args) -> int:
    _print_ncsym(lift(parse_sym(args.expr)), args)
    return 0


def _cmd_schur(args) -> int:
    shape = IntPartition.parse(args.shape)
    if args.vec is not None:
        vec = parse_vector(args.vec)
        k = args.expand if args.expand is not None else max(shape.n, 1)
        trunc = Truncation(len(vec), k, shape.n)
        poly = schur_tableau_sum(shape, vec, trunc)
        if args.format == "json":
            print(multipolynomial_to_json(poly))
        else:
            print(format_multipolynomial(poly, args.strict_rationals))
        return 0
    element = schur_ncsym(shape)
    if args.expand is not None:
        poly = expand(element, args.expand)
        if args.format == "json":
            print(word_polynomial_to_json(poly))
        else:
            print(format_word_polynomial(poly))
        return 0
    _print_ncsym(element, args)
    return 0


def _cmd_jacobi_trudi(args) -> int:
    shape = IntPartition.parse(args.shape)
    vec = parse_vector(args.vec)
    k = args.vars if args.vars is not None else max(shape.n, 1)
    trunc = Truncation(len(vec), k, shape.n)
    poly = jacobi_trudi(shape, vec, args.variant, trunc)
    if args.format == "json":
        print(multipolynomial_to_json(poly))
    else:
        print(format_multipolynomial(poly, args.strict_rationals))
    return 0


def _cmd_rsk(args) -> int:
    with open(args.path, encoding="utf-8") as handle:
        text = handle.read()
    if args.inverse:
        chunks = [c for c in text.split("\n\n") if c.strip()]
        if len(chunks) != 2:
            raise ValueError("expected two tableaux separated by a blank line")
        biword = rsk_inverse(DottedTableau.parse(chunks[0]), DottedTableau.parse(chunks[1]))
        if args.format == "json":
            print(
                json.dumps(
                    {
                        "top": [[e.value, e.dots] for e in biword.top],
                        "bottom": [[e.value, e.dots] for e in biword.bottom],
                    }
                )
            )
        else:
            print(biword)
        return 0
    insertion, recording = rsk_forward(Biword.parse(text))
    if args.format == "json":
        print(
            json.dumps(
                {
                    "insertion": [[[e.value, e.dots] for e in row] for row in insertion.rows],
                    "recording": [[[e.value, e.dots] for e in row] for row in recording.rows],
                }
            )
        )
    else:
        print(insertion)
        print()
        print(recording)
    return 0


def _cmd_expand(args) -> int:
    poly = expand(parse_ncsym(args.expr), args.vars)
    if args.format == "json":
        print(word_polynomial_to_json(poly))
    else:
        print(format_word_polynomial(poly))
    return 0


def _cmd_verify(args) -> int:
    results = verify_module.run([args.suite], args.max_n)
    ok = all(r.ok for r in results)
    if args.format == "json":
        print(
            json.dumps(
                [{"name": r.name, "ok": r.ok, "detail": r.detail} for r in results]
            )
        )
    else:
        for r in results:
            line = f"{'PASS' if r.ok else 'FAIL'} {r.name}"
            if not r.ok and r.detail:
                line += f": {r.detail}"
            print(line)
        passed = sum(1 for r in results if r.ok)
        print(f"{passed}/{len(results)} checks passed")
    return 0 if ok else VERIFY_ERROR


_COMMANDS = {
    "convert": _cmd_convert,
    "mobius": _cmd_mobius,
    "lattice": _cmd_lattice,
    "inner": _cmd_inner,
    "omega": _cmd_omega,
    "project": _cmd_project,
    "lift": _cmd_lift,
    "schur": _cmd_schur,
    "jacobi-trudi": _cmd_jacobi_trudi,
    "rsk": _cmd_rsk,
    "expand": _cmd_expand,
    "verify": _cmd_verify,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except SystemExit as exc:  # --help and friends
        return int(exc.code or 0)
    try:
        return _COMMANDS[args.command](args)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return PARSE_ERROR
    except (GroundSetError, TruncationError, NotSymmetricError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return SEMANTIC_ERROR
    except (ValueError, TypeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return SEMANTIC_ERROR


if __name__ == "__main__":
    raise SystemExit(main())
