"""basis-session: a library session doing basis arithmetic at degrees 3-6.

Why: this is how the library is used interactively: basis changes, the
involution, the inner product, projection and lifting, the place action and
the text codec, on small elements.  Set-up converts every basis symbol of
every degree once for all 12 ordered basis pairs (and touches each commutative
change-of-basis matrix), because a session pays that first touch once; the
timed blocks then stress the sparse-combination arithmetic of `elements` and
`classical` with every symbol expansion already cached.

Shape: each block of 24 requests holds one `convert` per ordered pair of
m/p/e/h, two `omega`, two `inner`, one each of `project`, `lift`,
`place_act`, `parse_ncsym` and `format_ncsym`, two `sym_convert` and one
`sym_inner` on projections.  Degrees 3, 4, 5, 6 and term counts 1-4 are
spread evenly over the block; coefficients are +-(1..9)/(1..4).  The design
fixes each request's operation, bases, degree and the block sizes of every
term; the seed draws the set partitions, coefficients, permutations and the
order of each block.  The pool has 15 blocks (360 distinct requests), cycled,
so after one pass every request repeats an earlier key; every
symbol-expansion key the timed loop uses was already touched in set-up.
"""
from __future__ import annotations

from ncsym import (
    SYM_BASES,
    IntPartition,
    NCSymElement,
    SetPartition,
    SymElement,
    convert,
    format_ncsym,
    inner,
    lift,
    omega,
    parse_ncsym,
    place_act,
    project,
    set_partitions,
    sym_convert,
    sym_inner,
)
from ncsym.words import equal

from common import (
    block_sizes,
    blocks_of_sizes,
    coefficient,
    design_stream,
    int_partition_parts,
    seed_stream,
    spread,
)

from . import Request, Workload

PAIRS = [(b, t) for b in "mpeh" for t in "mpeh" if b != t]
OTHER_OPS = (
    "omega",
    "omega",
    "inner",
    "inner",
    "project",
    "lift",
    "place_act",
    "parse_ncsym",
    "format_ncsym",
    "sym_convert",
    "sym_convert",
    "sym_inner",
)
POOL_BLOCKS = 15
ORACLE_EVERY = 12  # words-oracle check on every 12th key at degree <= 5


def element(design, rng, basis: str, n: int, size: int) -> NCSymElement:
    """`size` terms; block sizes from the design, labels and coefficients seeded."""
    shapes = [block_sizes(design, n) for _ in range(size)]
    return NCSymElement(
        basis, {SetPartition(blocks_of_sizes(rng, s)): coefficient(rng) for s in shapes}
    )


def sym_element(design, rng, n: int) -> SymElement:
    shapes = int_partition_parts(n)
    basis = design.choice(SYM_BASES)
    lams = [IntPartition(design.choice(shapes)) for _ in range(2)]
    return SymElement(basis, {lam: coefficient(rng) for lam in lams})


def _terms(result) -> int:
    return len(result.terms)


class BasisSession(Workload):
    name = "basis-session"
    cold_lattices = (5, 6)

    def __init__(self, seed: int, small: bool = False):
        self.degrees = (3, 4) if small else (3, 4, 5, 6)
        design, rng = design_stream(self.name), seed_stream(self.name, seed)
        self.blocks = []
        key = 0
        for _ in range(1 if small else POOL_BLOCKS):
            block = self._block(design, rng)
            self.blocks.append([Request(key + i, op, args) for i, (op, args) in enumerate(block)])
            key += len(block)

    def _block(self, design, rng) -> list[tuple[str, tuple]]:
        ops = [("convert", pair) for pair in PAIRS] + [(op, None) for op in OTHER_OPS]
        degrees = spread(design, self.degrees, len(ops))
        sizes = spread(design, (1, 2, 3, 4), len(ops))
        out = []
        for (op, pair), n, size in zip(ops, degrees, sizes):
            basis = pair[0] if pair else design.choice("mpeh")
            f = element(design, rng, basis, n, size)
            if op == "convert":
                args = (f, pair[1])
            elif op == "inner":
                args = (f, element(design, rng, design.choice("mpeh"), n, size))
            elif op == "lift":
                args = (sym_element(design, rng, n),)
            elif op == "place_act":
                perm = list(range(1, n + 1))
                rng.shuffle(perm)
                args = (tuple(perm), f)
            elif op == "parse_ncsym":
                args = (format_ncsym(f), f)
            elif op == "sym_convert":
                image = project(f)
                args = (image, design.choice([b for b in SYM_BASES if b != image.basis]))
            elif op == "sym_inner":
                g = element(design, rng, design.choice("mpeh"), n, size)
                args = (project(f), project(g))
            else:
                args = (f,)
            out.append((op, args))
        rng.shuffle(out)
        return out

    def calls(self) -> dict:
        return {
            "convert": ("elements.convert", convert, _terms),
            "convert_cold": ("elements.convert.cold", convert, _terms),
            "omega": ("elements.omega", omega, _terms),
            "inner": ("elements.inner", inner, None),
            "project": ("elements.project", project, _terms),
            "lift": ("elements.lift", lift, _terms),
            "place_act": ("elements.place_act", place_act, _terms),
            "parse_ncsym": ("expressions.parse_ncsym", parse_ncsym, _terms),
            "format_ncsym": ("expressions.format", format_ncsym, None),
            "sym_convert": ("classical.sym_convert", sym_convert, _terms),
            "sym_convert_cold": ("classical.sym_convert.cold", sym_convert, _terms),
            "sym_inner": ("classical.sym_inner", sym_inner, None),
        }

    def setup(self, api) -> None:
        for n in self.degrees:
            for pi in set_partitions(n):
                for b, t in PAIRS:
                    api["convert_cold"](NCSymElement(b, {pi: 1}), t)
            every_shape = SymElement("m", {IntPartition(p): 1 for p in int_partition_parts(n)})
            for b in SYM_BASES:
                api["sym_convert_cold"](every_shape, b)

    def execute(self, api, req):
        if req.op == "parse_ncsym":
            return api["parse_ncsym"](req.args[0])
        return api[req.op](*req.args)

    def check(self, req, out) -> bool:
        op, a = req.op, req.args
        if op == "convert":
            f, target = a
            ok = out.basis == target and convert(out, f.basis) == f
            if ok and f.degree() <= 5 and req.key % ORACLE_EVERY == 0:
                ok = equal(out, f)
            return ok
        if op == "omega":
            ok = _in_m(omega(out)) == _in_m(a[0])
            if ok and a[0].degree() <= 5 and req.key % ORACLE_EVERY == 0:
                ok = equal(omega(out), a[0])
            return ok
        if op == "inner":
            return out == inner(a[1], a[0])
        if op == "project":
            return _sym_in_m(out) == _sym_in_m(project(convert(a[0], "m")))
        if op == "lift":
            return _sym_in_m(project(out)) == _sym_in_m(a[0])
        if op == "place_act":
            perm, f = a
            inverse = [0] * len(perm)
            for i, image in enumerate(perm, start=1):
                inverse[image - 1] = i
            return place_act(inverse, out) == f
        if op == "parse_ncsym":
            return _in_m(out) == _in_m(a[1])
        if op == "format_ncsym":
            return _in_m(parse_ncsym(out)) == _in_m(a[0])
        if op == "sym_convert":
            return out.basis == a[1] and _sym_in_m(out) == _sym_in_m(a[0])
        if op == "sym_inner":
            return out == sym_inner(a[1], a[0])
        raise ValueError(f"unknown op {op!r}")


def _in_m(f: NCSymElement) -> dict:
    return convert(f, "m").terms


def _sym_in_m(f: SymElement) -> dict:
    return sym_convert(f, "m").terms
