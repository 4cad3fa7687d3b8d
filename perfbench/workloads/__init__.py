"""The benchmark's workloads, by name.

Each workload builds a pool of request blocks.  Every block has the same mix
of operations; the design stream fixes each request's structure and the seed
fills in the concrete inputs and their order (see common.py).  The timed loop
runs whole blocks, and a block's requests are run back to back by one
closed-loop client.  A pool is cycled, so a request key may repeat; repeats
must give the same result as the first run.

Interface of a workload class:

    W(seed, small=False)     build `blocks` (small: the cheap sizes only)
    clock()                  CPU seconds so far, the clock of every timing
    api(tracer)              callables for its ncsym calls, spanned if traced
    setup(api)               first-touch work a session pays once
    execute(api, req)        one request; returns its output
    same(a, b)               outputs of one key agree
    check(req, out)          `out` is right, by an independent route
    split(api, req)          traced extra calls for one request, off the clock
    after_phase(api)         traced probes after the timed loop
"""
from __future__ import annotations

import resource
from time import process_time, thread_time
from typing import NamedTuple


class Request(NamedTuple):
    key: int
    op: str
    args: tuple


def _children_cpu() -> float:
    """CPU seconds of the child processes reaped so far."""
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


class Workload:
    name = ""
    # True: requests run in child processes, so their CPU time and peak RSS
    # are the children's
    spawns = False
    # degrees n whose cold `lattice(n)` build a traced run times first
    cold_lattices: tuple[int, ...] = ()

    @classmethod
    def clock(cls) -> float:
        """CPU seconds spent on requests so far, the clock of every timing.

        The serving thread's CPU time, plus that of reaped children when the
        workload spawns.  Unlike wall time it leaves out the time the
        machine's hypervisor gives the CPU to another guest (steal time).
        """
        return thread_time() + (_children_cpu() if cls.spawns else 0.0)

    @classmethod
    def setup_clock(cls) -> float:
        """CPU seconds of this process since it started (and of its children)."""
        return process_time() + (_children_cpu() if cls.spawns else 0.0)

    def calls(self) -> dict:
        """name -> (span name, function, size of its result or None)"""
        raise NotImplementedError

    def api(self, tracer=None) -> dict:
        """The callables of `calls`, each wrapped in a span when traced."""
        return {
            name: tracer.wrap(span, fn, out) if tracer else fn
            for name, (span, fn, out) in self.calls().items()
        }

    def setup(self, api) -> None:
        pass

    def same(self, a, b) -> bool:
        return a == b

    def split(self, api, req) -> None:
        pass

    def after_phase(self, api) -> None:
        pass

    def describe(self) -> list[str]:
        """The generated inputs as text, to compare two constructions."""
        return [
            f"{r.key} {r.op} " + " | ".join(str(a) for a in r.args)
            for block in self.blocks
            for r in block
        ]


def registry() -> dict:
    from .basis_session import BasisSession
    from .cli_cold import CliCold
    from .macmahon_rsk import MacmahonRsk
    from .products import Products

    return {w.name: w for w in (BasisSession, Products, MacmahonRsk, CliCold)}
