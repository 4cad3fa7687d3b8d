"""cli-cold: one fresh `python -m ncsym.cli` process per request.

Why: the command line is how the paper's computations are run end to end, and
every process pays interpreter start, `import ncsym` and the cold lattice
build of its degree.  A faster lattice or import shows here as user-visible
latency.

Shape: each block of 13 commands has `convert` at degrees 5, 5 and 6,
`inner` and `omega` at degree 5, `lift`, `project`, `schur` and `mobius` at
degree 6, `jacobi-trudi` on a shape of size 3-4 with 1-2 alphabets and
`--vars` 2-3, `rsk` on a generated biword file of length 6-12, `expand` of a
degree-3 element with `--vars` 3-4, and `lattice --n` 3-4.  The design fixes
the bases, targets, block sizes, shapes and options of each command; every
block has that design, and the seed draws the set partitions, coefficients
and biword letters.  The pool has 2 blocks, cycled.  Peak RSS is that of the
largest command process.
"""
from __future__ import annotations

import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

from ncsym import (
    Biword,
    DottedTableau,
    IntPartition,
    SetPartition,
    Truncation,
    convert,
    format_ncsym,
    inner,
    jacobi_trudi,
    lift,
    mobius,
    omega,
    parse_multipolynomial,
    parse_ncsym,
    parse_sym,
    project,
    rsk_forward,
    schur_ncsym,
    sym_convert,
)
from ncsym.classical import format_sym
from ncsym.words import expand, parse_word_polynomial

from common import (
    all_rgs,
    block_sizes,
    blocks_of_sizes,
    design_stream,
    int_partition_parts,
    random_composition,
    seed_stream,
)
from . import Request, Workload
from .basis_session import element, sym_element

POOL_BLOCKS = 2
IMPORT_PROBES = 5
TIMEOUT_S = 120


class CliCold(Workload):
    name = "cli-cold"
    spawns = True

    def __init__(self, seed: int, small: bool = False):
        self.small = small
        self.root = Path.cwd()
        self.out_dir = self.root / "perfbench" / "out"
        self.seed = seed
        self.files: dict[Path, str] = {}
        rng = seed_stream(self.name, seed)
        self.blocks = []
        key = 0
        for b in range(1 if small else POOL_BLOCKS):
            # every block has the same design and its own seeded inputs
            block = self._block(design_stream(self.name), rng, b)
            rng.shuffle(block)
            self.blocks.append(
                [Request(key + i, op, (pos, opts)) for i, (op, pos, opts) in enumerate(block)]
            )
            key += len(block)

    def _deg(self, n: int) -> int:
        return min(n, 4) if self.small else n

    def _block(self, design, rng, index: int) -> list:
        """(command, positional arguments, options) for one block."""
        out = []
        # Commands fall in three cost clusters: about 0.2 s (degree <= 4 or no
        # lattice build: mobius, project, rsk, expand, lattice), 0.26-0.32 s
        # (degree 5, jacobi-trudi) and 1.1 s (a degree-6 lattice build).  Five,
        # five and three per block put the median and the p90 inside a
        # cluster, so neither jumps between clusters from run to run.
        for n in (5, 5, 6):
            f = element(design, rng, design.choice("mpeh"), self._deg(n), design.randint(1, 3))
            target = design.choice([b for b in "mpeh" if b != f.basis])
            out.append(("convert", (format_ncsym(f),), ("--to", target)))
        n = self._deg(5)
        f = element(design, rng, design.choice("pe"), n, design.randint(1, 3))
        g = element(design, rng, design.choice("mh"), n, design.randint(1, 3))
        out.append(("inner", (format_ncsym(f), format_ncsym(g)), ()))
        f = element(design, rng, design.choice("mp"), n, design.randint(1, 3))
        out.append(("omega", (format_ncsym(f),), ()))
        n = self._deg(6)
        out.append(("lift", (format_sym(sym_element(design, rng, n)),), ()))
        f = element(design, rng, design.choice("mpeh"), n, design.randint(1, 3))
        out.append(("project", (format_ncsym(f),), ()))
        shape = design.choice(int_partition_parts(n))
        out.append(("schur", (",".join(map(str, shape)),), ()))
        sigma = SetPartition(blocks_of_sizes(rng, block_sizes(design, n)))
        pi = SetPartition(blocks_of_sizes(rng, block_sizes(design, n)))
        out.append(("mobius", (str(sigma), str(pi)), ()))
        shape = design.choice(int_partition_parts(design.choice((3,) if self.small else (3, 4))))
        vec = random_composition(design, sum(shape), design.randint(1, 2))
        if rng.random() < 0.5:  # swapping the alphabets is a symmetry
            vec = vec[::-1]
        options = (
            "--vec", "[" + ",".join(map(str, vec)) + "]",
            "--variant", design.choice("he"),
            "--vars", str(design.randint(2, 3)),
        )
        out.append(("jacobi-trudi", (",".join(map(str, shape)),), options))
        columns = sorted(
            (
                ((rng.randint(1, 4), rng.randint(1, 2)), (rng.randint(1, 4), rng.randint(1, 2)))
                for _ in range(design.randint(6, 12))
            ),
            key=lambda col: (col[0][0], col[1][0]),
        )
        size = "small" if self.small else "full"
        path = self.out_dir / f"cli-cold-{self.seed}-{size}-{index}.biword"
        self.files[path] = str(Biword(columns)) + "\n"
        out.append(("rsk", (str(path.relative_to(self.root)),), ()))
        f = element(design, rng, design.choice("mpeh"), 3, design.randint(1, 3))
        out.append(("expand", (format_ncsym(f),), ("--vars", str(design.randint(3, 4)))))
        table = design.choice(("mobius", "meet", "join"))
        out.append(("lattice", (), ("--n", str(design.randint(3, 4)), "--table", table)))
        return out

    def describe(self) -> list[str]:
        files = [f"{path.name}: {text}" for path, text in self.files.items()]
        return super().describe() + files

    def calls(self) -> dict:
        return {
            **{
                cmd: (f"cli.{cmd}", self._spawn, None)
                for cmd in (
                    "convert", "inner", "omega", "lift", "project", "schur", "mobius",
                    "jacobi-trudi", "rsk", "expand", "lattice",
                )
            },
            "import": ("cli.import", self._spawn, None),
        }

    def _spawn(self, argv: list[str]):
        env = dict(os.environ, PYTHONPATH=str(self.root / "src"))
        proc = subprocess.run(
            [sys.executable, *argv],
            cwd=self.root,
            env=env,
            capture_output=True,
            text=True,
            timeout=TIMEOUT_S,
        )
        return proc.returncode, proc.stdout

    def setup(self, api) -> None:
        self.out_dir.mkdir(parents=True, exist_ok=True)
        for path, text in self.files.items():
            path.write_text(text, encoding="utf-8")

    def execute(self, api, req):
        # "--" keeps an expression with a leading minus sign positional
        positional, options = req.args
        tail = ["--", *positional] if positional else []
        return api[req.op](["-m", "ncsym.cli", req.op, *options, *tail])

    def after_phase(self, api) -> None:
        for _ in range(IMPORT_PROBES):
            api["import"](["-c", "import ncsym"])

    def check(self, req, out) -> bool:
        code, stdout = out
        if code != 0:
            return False
        op, (a, opt) = req.op, req.args
        if op in ("convert", "omega", "lift", "schur"):
            if op == "convert":
                expected = convert(parse_ncsym(a[0]), opt[1])
            elif op == "omega":
                expected = omega(parse_ncsym(a[0]))
            elif op == "lift":
                expected = lift(parse_sym(a[0]))
            else:
                expected = schur_ncsym(IntPartition.parse(a[0]))
            return convert(parse_ncsym(stdout), "m") == convert(expected, "m")
        if op == "inner":
            return Fraction(stdout.strip()) == inner(parse_ncsym(a[0]), parse_ncsym(a[1]))
        if op == "mobius":
            expected = mobius(SetPartition.parse(a[0]), SetPartition.parse(a[1]))
            return Fraction(stdout.strip()) == expected
        if op == "project":
            got = sym_convert(parse_sym(stdout), "m")
            return got == sym_convert(project(parse_ncsym(a[0])), "m")
        if op == "jacobi-trudi":
            shape = IntPartition.parse(a[0])
            vec = tuple(int(v) for v in opt[1].strip("[]").split(","))
            trunc = Truncation(len(vec), int(opt[5]), shape.n)
            expected = jacobi_trudi(shape, vec, opt[3], trunc)
            return parse_multipolynomial(stdout, trunc).terms == expected.terms
        if op == "rsk":
            chunks = [c for c in stdout.split("\n\n") if c.strip()]
            tab, rec = rsk_forward(Biword.parse(self.files[self.root / a[0]]))
            return len(chunks) == 2 and (
                DottedTableau.parse(chunks[0]) == tab and DottedTableau.parse(chunks[1]) == rec
            )
        if op == "expand":
            k = int(opt[1])
            return parse_word_polynomial(stdout, k) == expand(parse_ncsym(a[0]), k)
        if op == "lattice":
            return _lattice_table_ok(stdout, int(opt[1]), opt[3])
        raise ValueError(op)


def _lattice_table_ok(stdout: str, n: int, table: str) -> bool:
    """Every cell against the pairwise operation on the row and column labels."""
    lines = stdout.rstrip("\n").split("\n")
    labels = lines[0].split("\t")[1:]
    parts = [SetPartition.parse(label) for label in labels]
    if set(parts) != {SetPartition.from_labels(r) for r in all_rgs(n)}:
        return False
    if len(lines) != len(parts) + 1:
        return False
    for row_text, sigma in zip(lines[1:], parts):
        cells = row_text.split("\t")[1:]
        for cell, pi in zip(cells, parts):
            if table == "mobius":
                ok = int(cell) == mobius(sigma, pi)
            elif table == "meet":
                ok = SetPartition.parse(cell) == sigma.meet(pi)
            else:
                ok = SetPartition.parse(cell) == sigma.join(pi)
            if not ok:
                return False
    return True
