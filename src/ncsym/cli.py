"""Command-line front end.

Exit codes: 0 success, 1 usage error, 2 parse error, 3 semantic error,
4 verification failure.  Rationals print as ``p/q``; integer values drop the
``/1`` unless ``--strict-rationals`` is given.
"""
from __future__ import annotations

import argparse
import json
import re
import sys
from fractions import Fraction
from functools import partial

# The namespace is lazy: a name loads its home submodule on first use, so each
# command loads only the layers it calls, and mobius and lattice never load the
# element layers.
import ncsym
from ncsym.intpartitions import ascii_int  # every command loads this layer anyway

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
    output = argparse.ArgumentParser(add_help=False)  # the output flags every command takes
    output.add_argument("--format", choices=("text", "json"), default="text")
    output.add_argument(
        "--strict-rationals",
        action="store_true",
        help="print integers as p/1 instead of bare integers",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    command = partial(sub.add_parser, parents=[output])

    p = command("convert", help="change the basis of an element")
    p.add_argument("expr")
    p.add_argument("--to", required=True, choices=("m", "p", "e", "h"))

    p = command("mobius", help="Mobius function between two set partitions")
    p.add_argument("sigma")
    p.add_argument("pi")

    p = command("lattice", help="tables over the whole partition lattice")
    p.add_argument("--n", type=ascii_int, required=True)
    p.add_argument("--table", choices=("mobius", "meet", "join"), required=True)

    p = command("inner", help="inner product of two elements")
    p.add_argument("expr1")
    p.add_argument("expr2")

    p = command("multiply", help="product of two elements, in their shared basis, else m")
    p.add_argument("expr1")
    p.add_argument("expr2")

    p = command("omega", help="apply the e/h involution")
    p.add_argument("expr")

    p = command("project", help="let the variables commute")
    p.add_argument("expr")

    p = command("lift", help="lift a commutative element")
    p.add_argument("expr")

    p = command("schur", help="Schur analogue of an integer partition")
    p.add_argument("shape")
    p.add_argument("--vec", help="multidegree vector, e.g. [2,2]")
    p.add_argument("--expand", type=ascii_int, metavar="K", help="variables per alphabet")

    p = command("jacobi-trudi", help="determinant form of a Schur function")
    p.add_argument("shape")
    p.add_argument("--vec", required=True)
    p.add_argument("--variant", choices=("h", "e"), default="h")
    p.add_argument("--vars", type=ascii_int, metavar="K", help="variables per alphabet")

    p = command("rsk", help="row insertion of a biword file, or its inverse")
    p.add_argument("path")
    p.add_argument(
        "--inverse",
        action="store_true",
        help="the file holds two tableaux separated by a blank line",
    )

    p = command("expand", help="truncated word expansion of an element")
    p.add_argument("expr")
    p.add_argument("--vars", type=ascii_int, required=True)

    p = command("verify", help="run a verification suite")
    p.add_argument("suite", help="a suite name or all; an unknown name lists the suites")
    p.add_argument("--max-n", type=ascii_int, default=None)

    return parser


def _emit(value, args) -> int:
    """Print what a command computed, in the chosen format; return the exit code.
    A table command hands over (JSON payload, text lines printed one by one, code)."""
    if isinstance(value, tuple):
        payload, lines, code = value
        for line in [json.dumps(payload)] if args.format == "json" else lines:
            print(line)
        return code
    strict = args.strict_rationals
    if isinstance(value, (int, Fraction)):  # elements and polynomials print themselves
        from .combination import format_rational

        text = format_rational(value, strict)
        print(json.dumps({"value": text}) if args.format == "json" else text)
    else:
        print(value.to_json(strict) if args.format == "json" else value.to_text(strict))
    return 0


def _read(reader, text: str, what: str):
    """An argument or file read by its reader; a malformed one is a parse error."""
    try:
        return reader(text)
    except ValueError as exc:  # only a failed read loads ParseError's module, combination
        raise ncsym.ParseError(f"bad {what}: {exc}", 0) from None


def _vector(text: str) -> tuple[int, ...]:
    """A --vec argument, "[2,1]" or "2,1"."""
    s = text.strip()
    s = (s[1:-1] if s.startswith("[") and s.endswith("]") else s).strip()
    return tuple(map(ascii_int, s.split(","))) if s else ()


def _truncation(
    shape: ncsym.IntPartition, vec: tuple[int, ...], k: int | None
) -> ncsym.Truncation:
    """One alphabet per vector entry, k variables each (default the degree)."""
    return ncsym.Truncation(len(vec), k if k is not None else max(shape.n, 1), shape.n)


def _schur(args):
    shape = _read(ncsym.IntPartition.parse, args.shape, "shape")
    if args.vec is not None:  # only the tableau sum loads the MacMahon layer
        vec = _read(_vector, args.vec, "--vec")
        return ncsym.schur_tableau_sum(shape, vec, _truncation(shape, vec, args.expand))
    element = ncsym.schur_ncsym(shape)
    return element if args.expand is None else ncsym.expand(element, args.expand)


def _jacobi_trudi(args) -> ncsym.MultiPolynomial:
    shape = _read(ncsym.IntPartition.parse, args.shape, "shape")
    vec = _read(_vector, args.vec, "--vec")
    return ncsym.jacobi_trudi(shape, vec, args.variant, _truncation(shape, vec, args.vars))


def _lattice(args) -> tuple:
    if args.n < 0:
        raise ValueError("--n must be nonnegative")
    if args.n > 7:  # n = 8 would print 4140^2 = 17M cells, 22x the output of n = 7
        size = ncsym.bell_number(args.n)
        raise ValueError(
            f"--n {args.n}: B_{args.n} = {size} partitions, a {size} x {size} table; n <= 7"
        )
    elements = ncsym.set_partitions(args.n)
    labels = [str(p) or "()" for p in elements]
    if args.table == "mobius":  # mu is an int: strict adds the "/1" of format_rational
        den = "/1" if args.strict_rationals else ""
        shown = {}  # one string per mu value, shared by every cell that holds it
        mus = ((ncsym.mobius(p, q) for q in elements) for p in elements)
        cells = [[shown.get(mu) or shown.setdefault(mu, f"{mu}{den}") for mu in row] for row in mus]
    else:  # a meet or join is a partition of the same degree, so it has a label
        op = ncsym.SetPartition.meet if args.table == "meet" else ncsym.SetPartition.join
        label_of = dict(zip(elements, labels))
        cells = [[label_of[op(p, q)] for q in elements] for p in elements]
    payload = {"n": args.n, "table": args.table, "elements": labels, "rows": cells}
    # the header, then one row per partition, each joined only as it prints
    rows = ("\t".join([label] + row) for label, row in zip(["*"] + labels, [labels] + cells))
    return payload, rows, 0


def _tableau_pair(text: str) -> tuple[ncsym.DottedTableau, ncsym.DottedTableau]:
    """The two tableaux of an ``rsk --inverse`` file, split at blank or whitespace-only lines."""
    chunks = [c for c in re.split(r"\n\s*\n", text) if c.strip()]
    if len(chunks) != 2:
        raise ValueError("expected two tableaux separated by a blank line")
    return ncsym.DottedTableau.parse(chunks[0]), ncsym.DottedTableau.parse(chunks[1])


def _rsk(args) -> tuple:
    with open(args.path, encoding="utf-8") as handle:
        text = handle.read()
    if args.inverse:
        biword = ncsym.rsk_inverse(*_read(_tableau_pair, text, f"file {args.path}"))
        payload, shown = {"top": biword.top, "bottom": biword.bottom}, str(biword)
    else:
        biword = _read(ncsym.Biword.parse, text, f"file {args.path}")
        insertion, recording = ncsym.rsk_forward(biword)
        payload = {"insertion": insertion.rows, "recording": recording.rows}
        shown = f"{insertion}\n\n{recording}"
    # entries are (value, dots) named tuples, so JSON writes them as [value, dots]
    return payload, [shown], 0


def _verify(args) -> tuple:
    from .verify import run

    records = run([args.suite], args.max_n)  # a passing check's detail is ""
    lines = [
        f"{'PASS' if r['ok'] else 'FAIL'} {r['name']}" + (f": {r['detail']}" if r["detail"] else "")
        for r in records
    ]
    passed = sum(r["ok"] for r in records)
    lines.append(f"{passed}/{len(records)} checks passed")
    return records, lines, 0 if passed == len(records) else VERIFY_ERROR


# Each command maps parsed arguments to what it computed, and main hands that
# to _emit: an element, a polynomial or a rational, or a table command's triple.
_COMMANDS = {
    "convert": lambda a: ncsym.convert(ncsym.parse_ncsym(a.expr), a.to),
    "mobius": lambda a: ncsym.mobius(
        *(_read(ncsym.SetPartition.parse, t, "set partition") for t in (a.sigma, a.pi))
    ),
    "lattice": _lattice,
    "inner": lambda a: ncsym.inner(ncsym.parse_ncsym(a.expr1), ncsym.parse_ncsym(a.expr2)),
    "multiply": lambda a: ncsym.multiply(ncsym.parse_ncsym(a.expr1), ncsym.parse_ncsym(a.expr2)),
    "omega": lambda a: ncsym.omega(ncsym.parse_ncsym(a.expr)),
    "project": lambda a: ncsym.project(ncsym.parse_ncsym(a.expr)),
    "lift": lambda a: ncsym.lift(ncsym.parse_sym(a.expr)),
    "schur": _schur,
    "jacobi-trudi": _jacobi_trudi,
    "rsk": _rsk,
    "expand": lambda a: ncsym.expand(ncsym.parse_ncsym(a.expr), a.vars),
    "verify": _verify,
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
        return _emit(_COMMANDS[args.command](args), args)
    # ParseError, GroundSetError, TruncationError and NotSymmetricError are ValueErrors too
    except (ValueError, TypeError, OSError) as exc:  # a failure loads combination alone
        if isinstance(exc, ncsym.ParseError):
            print(f"parse error: {exc}", file=sys.stderr)
            return PARSE_ERROR
        print(f"error: {exc}", file=sys.stderr)
        return SEMANTIC_ERROR


if __name__ == "__main__":
    raise SystemExit(main())
