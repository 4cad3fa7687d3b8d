"""macmahon-rsk: MacMahon functions, dotted tableaux and dotted RSK.

Why: these are the suites where per-operation construction and validation of
`MultiPolynomial`, `DottedTableau` and `Biword` dominate, so a change to
`macmahon`, `tableaux` or `rsk` shows here.  The workload never calls
`setpartitions`, `elements` or `words`, so changes there should leave it
alone.

Shape: each block of 40 requests has 12 `jacobi_trudi` (6 h, 6 e), 6
`schur_tableau_sum`, 6 generators (2 each of `mm_power`, `mm_elementary`,
`mm_complete`), 4 `dotted_tableaux` enumerations, 11 RSK round trips
(`rsk_forward` then `rsk_inverse`) on dotted biwords of length 6-24 and one
`cauchy_check` at degree <= 3.  Shapes have size 3-5; a truncation has 1 or 2
alphabets and 2-4 variables (2 alphabets with 3 variables only up to size 4).
Half of the `jacobi_trudi` requests repeat a (shape, variant, truncation) key
from a hot set of 8 keys, so they hit the determinant cache after
their first use; the other half get a degree cap never used before in the
process, so they always miss it.  The design fixes shapes, variants,
truncations, vector degrees (up to swapping the two alphabets) and biword
lengths; the seed draws the `jacobi_trudi` vector degrees, the biword letters
and the order of each block.  The pool has 40 blocks, cycled.
"""
from __future__ import annotations

from itertools import count

from ncsym import (
    Biword,
    IntPartition,
    Truncation,
    cauchy_check,
    dotted_tableaux,
    jacobi_trudi,
    mm_complete,
    mm_elementary,
    mm_power,
    rsk_forward,
    rsk_inverse,
    schur_tableau_sum,
)

from common import (
    complete_count,
    design_stream,
    elementary_count,
    int_partition_parts,
    multinomial,
    random_composition,
    seed_stream,
    ssyt_count,
)

from . import Request, Workload

SIZES = (3, 4, 5)
TRUNCATIONS = ((1, 2), (1, 3), (1, 4), (2, 2), (2, 3))  # (alphabets, variables)
HOT_KEYS = 8
POOL_BLOCKS = 40
OPS = (
    ("jt", 12), ("sts", 6), ("mm_power", 2), ("mm_elementary", 2),
    ("mm_complete", 2), ("tableaux", 4), ("rsk", 11), ("cauchy", 1),
)
GENERATORS = {"mm_power": mm_power, "mm_elementary": mm_elementary, "mm_complete": mm_complete}


def _terms(result) -> int:
    return len(result.terms)


def count_tableaux(shape, max_value, classes, vec) -> int:
    return sum(1 for _ in dotted_tableaux(shape, max_value, classes, vec))


class MacmahonRsk(Workload):
    name = "macmahon-rsk"

    def __init__(self, seed: int, small: bool = False):
        self.sizes = (3,) if small else SIZES
        design, rng = design_stream(self.name), seed_stream(self.name, seed)
        self.hot = [self._jt_key(design) for _ in range(HOT_KEYS)]
        self.fresh_caps = count(1)
        self.blocks = []
        key = 0
        for _ in range(1 if small else POOL_BLOCKS):
            block = [self._request(design, rng, op, i) for op, n in OPS for i in range(n)]
            rng.shuffle(block)
            self.blocks.append([Request(key + i, op, args) for i, (op, args) in enumerate(block)])
            key += len(block)

    def _shape_and_trunc(self, design):
        n = design.choice(self.sizes)
        shape = IntPartition(design.choice(int_partition_parts(n)))
        choices = [t for t in TRUNCATIONS if n <= 4 or t != (2, 3)]
        alphabets, variables = design.choice(choices)
        return shape, alphabets, variables

    def _jt_key(self, design):
        shape, alphabets, variables = self._shape_and_trunc(design)
        return shape, design.choice("he"), alphabets, variables

    @staticmethod
    def _vector(design, rng, total: int, alphabets: int) -> tuple[int, ...]:
        # swapping the two alphabets is a symmetry, so the seed may do it freely
        vec = random_composition(design, total, alphabets)
        return vec[::-1] if rng.random() < 0.5 else vec

    def _request(self, design, rng, op: str, i: int):
        if op == "jt":
            hot = i % 2 == 0
            shape, variant, alphabets, variables = (
                design.choice(self.hot) if hot else self._jt_key(design)
            )
            vec = random_composition(rng, shape.n, alphabets)
            return op, (shape, vec, variant, alphabets, variables, hot)
        if op in ("sts", "tableaux"):
            shape, alphabets, variables = self._shape_and_trunc(design)
            vec = self._vector(design, rng, shape.n, alphabets)
            return op, (shape, vec, Truncation(alphabets, variables, shape.n))
        if op in GENERATORS:
            alphabets, variables = design.choice(TRUNCATIONS)
            total = design.randint(1, max(self.sizes))
            vec = self._vector(design, rng, total, alphabets)
            return op, (vec, Truncation(alphabets, variables, total))
        if op == "rsk":
            length = design.randint(6, 24)
            columns = sorted(
                (
                    ((rng.randint(1, 4), rng.randint(1, 2)), (rng.randint(1, 4), rng.randint(1, 2)))
                    for _ in range(length)
                ),
                key=lambda col: (col[0][0], col[1][0]),
            )
            return op, (Biword(columns),)
        if op == "cauchy":
            degree = design.randint(1, 3)
            x = Truncation(design.randint(1, 2), design.randint(1, 2), degree)
            y = Truncation(design.randint(1, 2), design.randint(1, 2), degree)
            return op, (x, y, degree)
        raise ValueError(op)

    def calls(self) -> dict:
        return {
            "jacobi_trudi": ("macmahon.jacobi_trudi", jacobi_trudi, _terms),
            "schur_tableau_sum": ("macmahon.schur_tableau_sum", schur_tableau_sum, _terms),
            **{
                name: ("macmahon.mm_generator", fn, _terms)
                for name, fn in GENERATORS.items()
            },
            "count_tableaux": ("tableaux.dotted_tableaux", count_tableaux, lambda r: r),
            "rsk_forward": ("rsk.rsk_forward", rsk_forward, None),
            "rsk_inverse": ("rsk.rsk_inverse", rsk_inverse, None),
            "cauchy_check": ("rsk.cauchy_check", cauchy_check, None),
        }

    def execute(self, api, req):
        op, a = req.op, req.args
        if op == "jt":
            shape, vec, variant, alphabets, variables, hot = a
            cap = shape.n if hot else shape.n + next(self.fresh_caps)
            return api["jacobi_trudi"](shape, vec, variant, Truncation(alphabets, variables, cap))
        if op == "sts":
            return api["schur_tableau_sum"](*a)
        if op in GENERATORS:
            return api[op](*a)
        if op == "tableaux":
            shape, vec, trunc = a
            return api["count_tableaux"](shape, trunc.variables, trunc.alphabets, vec)
        if op == "rsk":
            tab, rec = api["rsk_forward"](a[0])
            return tab, rec, api["rsk_inverse"](tab, rec)
        if op == "cauchy":
            return api["cauchy_check"](*a)
        raise ValueError(op)

    def same(self, a, b) -> bool:
        # fresh jacobi_trudi keys differ in the degree cap only, so compare terms
        if hasattr(a, "terms") and hasattr(b, "terms"):
            return a.terms == b.terms
        if hasattr(a, "ok"):
            return a.ok == b.ok and a.mismatches == b.mismatches
        return a == b

    def check(self, req, out) -> bool:
        op, a = req.op, req.args
        if op == "jt":
            shape, vec, variant, alphabets, variables, _ = a
            tableau_shape = shape if variant == "h" else shape.conjugate()
            expected = schur_tableau_sum(tableau_shape, vec, out.trunc)
            return out.terms == expected.terms
        if op == "sts":
            shape, vec, trunc = a
            return out.terms == jacobi_trudi(shape, vec, "h", trunc).terms
        if op == "mm_power":
            vec, trunc = a
            expected = {
                tuple(((i, j), v) for j, v in enumerate(vec, start=1) if v): 1
                for i in range(1, trunc.variables + 1)
            }
            return out.terms == expected
        if op in ("mm_elementary", "mm_complete"):
            vec, trunc = a
            for mono in out.terms:
                degree = [0] * trunc.alphabets
                for (_, alphabet), e in mono:
                    degree[alphabet - 1] += e
                if tuple(degree) != vec:
                    return False
            if op == "mm_elementary":
                squarefree = all(e == 1 for mono in out.terms for _, e in mono)
                subscripts_once = all(
                    len({i for (i, _), _ in mono}) == len(mono) for mono in out.terms
                )
                return (
                    squarefree
                    and subscripts_once
                    and set(out.terms.values()) <= {1}
                    and len(out.terms) == elementary_count(vec, trunc.variables)
                )
            return sum(out.terms.values()) == complete_count(vec, trunc.variables)
        if op == "tableaux":
            shape, vec, trunc = a
            return out == ssyt_count(shape.parts, trunc.variables) * multinomial(vec)
        if op == "rsk":
            tab, rec, back = out
            return back == a[0] and tab.shape == rec.shape and tab.size == len(a[0])
        if op == "cauchy":
            return out.ok and out.degree == a[2]
        raise ValueError(op)
