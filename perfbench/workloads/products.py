"""products: `multiply` of basis-symbol pairs, total degree 4-6.

Why: `multiply` goes through the word oracle (`words.expand` of both factors,
the word product, `words.collect`), which does nearly all of the work here;
`basis-session` and `macmahon-rsk` never call it, so a change to products
should move this workload and leave those two alone.

Shape: each block of 40 requests multiplies single symbols b_pi * b_sigma of
one basis: 11 cheap m and p products of degree 4-5, 16 h products of degree 4
(2+2), one m and one p product of degree 6 and two e products of degree 5,
7 h products of degree 5 (4+1), and one e (2+4) and one h (3+3) product of
degree 6.  The design fixes the block sizes of pi and sigma for each slot;
every block of the pool has that design and its own seeded set partitions.
The pool has 4 blocks (160 distinct products), cycled.
The two degree-6 e and h products cost more than the rest of their block,
so the block is the unit of time: the loop only stops after a whole block.
"""
from __future__ import annotations

from ncsym import NCSymElement, SetPartition, convert, multiply
from ncsym.words import collect, expand

from common import block_sizes, blocks_of_sizes, design_stream, seed_stream

from . import Request, Workload

# (basis, left degree, right degree, count) per block.  The latency quantiles
# land inside wide clusters of requests that cost alike (h products of degree
# 4 around the median, of degree 5 around the 90th percentile), so they do
# not jump between clusters from run to run.
CELLS = (
    ("m", 2, 2, 3), ("p", 1, 3, 3), ("m", 3, 2, 3), ("p", 2, 3, 2),
    ("h", 2, 2, 16),
    ("p", 3, 3, 1), ("m", 3, 3, 1), ("e", 2, 3, 2),
    ("h", 4, 1, 7),
    ("e", 2, 4, 1), ("h", 3, 3, 1),
)
SMALL_CELLS = (("e", 2, 2, 1), ("h", 2, 2, 1), ("m", 2, 2, 1), ("p", 1, 3, 1))
POOL_BLOCKS = 4


def symbol(rng, basis: str, sizes: tuple[int, ...]) -> NCSymElement:
    return NCSymElement(basis, {SetPartition(blocks_of_sizes(rng, sizes)): 1})


def slash(pi: SetPartition, sigma: SetPartition) -> SetPartition:
    """pi | sigma: sigma's blocks shifted past pi's ground set."""
    return SetPartition(pi.blocks + tuple(tuple(e + pi.n for e in b) for b in sigma.blocks))


def _terms(result) -> int:
    return len(result.terms)


class Products(Workload):
    name = "products"

    def __init__(self, seed: int, small: bool = False):
        design, rng = design_stream(self.name), seed_stream(self.name, seed)
        shapes = []  # (basis, block sizes of the left factor, of the right factor)
        for basis, left, right, count in SMALL_CELLS if small else CELLS:
            for _ in range(count):
                shapes.append((basis, block_sizes(design, left), block_sizes(design, right)))
        self.blocks = []
        key = 0
        for _ in range(1 if small else POOL_BLOCKS):
            pairs = [(symbol(rng, b, left), symbol(rng, b, right)) for b, left, right in shapes]
            rng.shuffle(pairs)
            self.blocks.append([Request(key + i, "multiply", p) for i, p in enumerate(pairs)])
            key += len(pairs)
        self.factor_degrees = sorted(
            {f.degree() for block in self.blocks for r in block for f in r.args}
        )

    def calls(self) -> dict:
        return {
            "multiply": ("elements.multiply", multiply, _terms),
            "multiply_cold": ("elements.multiply.cold", multiply, _terms),
            "expand": ("words.expand", expand, _terms),
            "product": ("words.product", lambda a, b: a * b, _terms),
            "collect": ("words.collect", collect, _terms),
        }

    def setup(self, api) -> None:
        # first touch of every factor degree, as a session pays it once
        one = NCSymElement("m", {SetPartition.bottom(1): 1})
        for n in self.factor_degrees:
            api["multiply_cold"](one, NCSymElement("m", {SetPartition.bottom(n): 1}))

    def execute(self, api, req):
        return api["multiply"](*req.args)

    def split(self, api, req) -> None:
        """Re-run the oracle's three steps on the pair to split `multiply`."""
        f, g = req.args
        k = f.degree() + g.degree()
        words = api["product"](api["expand"](f, k), api["expand"](g, k))
        api["collect"](words, k)

    def check(self, req, out) -> bool:
        """Compare in m with the slash rule p_pi * p_sigma = p_{pi|sigma}."""
        f, g = (convert(x, "p") for x in req.args)
        terms: dict = {}
        for pi, a in f.terms.items():
            for sigma, b in g.terms.items():
                key = slash(pi, sigma)
                terms[key] = terms.get(key, 0) + a * b
        expected = convert(NCSymElement("p", terms), "m")
        return convert(out, "m") == expected
