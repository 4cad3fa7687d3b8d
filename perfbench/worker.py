"""One workload in a fresh interpreter: set-up, timed blocks, checks.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S --trace 0|1
                                [--setup-only] [--small]

Run from the repository root; `run.py` starts it.  Once set-up is done it
prints `READY <CPU seconds of the process so far>`, then runs whole request
blocks back to back until S wall seconds have passed, checks every distinct
request's result off the clock, and prints one JSON line.  Every time is read
from the workload's CPU clock (`Workload.clock`).  Between requests, every
REFERENCE_EVERY_S, it also times a fixed reference loop, so that `run.py` can
scale the figures to one machine speed.

With --trace 1 odd-numbered blocks run through spanned calls and even ones
through plain calls, so the difference in throughput between the two is the
tracing overhead.  Only the workload's own calls are spanned: a layer it never
calls reports 0.
"""
from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter, thread_time

ROOT = Path.cwd()
sys.path.insert(0, str(ROOT / "src"))

from common import quantile  # noqa: E402
from metrics import layer_value, spec  # noqa: E402
from spans import Tracer  # noqa: E402
from workloads import registry  # noqa: E402

MAX_REPORTED_FAILURES = 5
REFERENCE_EVERY_S = 0.2  # wall seconds between two timings of the reference loop


class Raised:
    def __init__(self, exc: Exception):
        self.text = f"{type(exc).__name__}: {exc}"


class Ledger:
    """Per request key: the request, its first result, runs, bad runs."""

    def __init__(self, wl) -> None:
        self.wl = wl
        self.keys: dict[int, list] = {}
        self.reported = 0

    def record(self, req, out) -> None:
        entry = self.keys.setdefault(req.key, [req, None, 0, 0])
        entry[2] += 1
        if isinstance(out, Raised):
            entry[3] += 1
            self.report(req, out.text)
        elif entry[1] is None:
            entry[1] = out
        elif not self.wl.same(entry[1], out):
            entry[3] += 1
            self.report(req, "result differs from the first run of this key")

    def report(self, req, why: str) -> None:
        if self.reported < MAX_REPORTED_FAILURES:
            print(f"{self.wl.name} request {req.key} {req.op}: {why}", file=sys.stderr)
        self.reported += 1

    def settle(self) -> tuple[int, int]:
        """Check each key's first result; a key that fails fails every run of it."""
        attempted = failed = 0
        for req, first, runs, bad in self.keys.values():
            attempted += runs
            ok = False
            if first is not None:
                try:
                    ok = bool(self.wl.check(req, first))
                except Exception as exc:  # a check that raises is a failed check
                    self.report(req, f"check raised {type(exc).__name__}: {exc}")
                if not ok:
                    self.report(req, "check failed")
            failed += bad if ok else runs
        return attempted, failed


def peak_rss_kb(wl) -> int:
    who = resource.RUSAGE_CHILDREN if wl.spawns else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss


def reference() -> float:
    """CPU seconds of a fixed pure-Python loop: the machine's speed right now."""
    start = thread_time()
    total = 0
    for i in range(20_000):
        total += i * i % 7
    return thread_time() - start


def run_one(wl, api, req, tracer: Tracer | None, request_id: str):
    if tracer is not None:
        tracer.request = request_id
        root = tracer.begin("request")
    start = wl.clock()
    try:
        out = wl.execute(api, req)
    except Exception as exc:  # the request boundary: count it and go on
        out = Raised(exc)
    took = wl.clock() - start
    if tracer is not None:
        tracer.end(root)
    return out, took


def timed_loop(wl, seconds: float, plain, traced, tracer: Tracer | None) -> dict:
    ledger = Ledger(wl)
    latencies: list[float] = []
    references: list[float] = []
    block_time = [0.0, 0.0]  # CPU seconds of requests in untraced, traced blocks
    block_requests = [0, 0]
    rss_kb = None
    started = perf_counter()
    next_reference = started
    i = 0
    while perf_counter() - started < seconds or (traced is not None and i < 2):
        block = wl.blocks[i % len(wl.blocks)]
        spanned = traced is not None and i % 2 == 1
        api = traced if spanned else plain
        outs = []
        for req in block:
            out, took = run_one(wl, api, req, tracer if spanned else None, f"{i}:{req.key}")
            latencies.append(took)
            block_time[spanned] += took
            outs.append(out)
            if perf_counter() >= next_reference:  # between requests, off their clock
                references.append(reference())
                next_reference = perf_counter() + REFERENCE_EVERY_S
        block_requests[spanned] += len(block)
        for req, out in zip(block, outs):
            ledger.record(req, out)
            if spanned:
                tracer.request = f"{i}:{req.key}"
                wl.split(traced, req)
        i += 1
        if i == len(wl.blocks):
            rss_kb = peak_rss_kb(wl)  # after one pass over the pool: fixed work
    if rss_kb is None:
        rss_kb = peak_rss_kb(wl)
    return {
        "ledger": ledger,
        "latencies": latencies,
        "blocks": i,
        "seconds": perf_counter() - started,
        "cpu_seconds": sum(block_time),
        "references": references,
        "rate": [n / t if t else 0.0 for n, t in zip(block_requests, block_time)],
        "rss_kb": rss_kb,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--small", action="store_true")
    args = parser.parse_args(argv)

    workloads = registry()
    if args.workload not in workloads:
        parser.error(f"unknown workload {args.workload!r}")
    cls = workloads[args.workload]
    tracer = Tracer(cls.clock) if args.trace else None
    if tracer is not None:
        from ncsym import lattice

        for n in cls.cold_lattices:  # timed before anything else touches them
            tracer.request = "lattice"
            tracer.wrap(f"setpartitions.lattice.n{n}", lattice)(n)

    wl = cls(args.seed, small=args.small)
    plain = wl.api()
    traced = wl.api(tracer) if tracer is not None else None
    if tracer is not None:
        tracer.request = "setup"
    wl.setup(traced if traced is not None else plain)
    print(f"READY {wl.setup_clock()!r}", flush=True)
    if args.setup_only:
        return 0

    phase = timed_loop(wl, args.seconds, plain, traced, tracer)
    ledger: Ledger = phase["ledger"]
    latencies = phase["latencies"]
    p90 = quantile(latencies, 0.9)
    result = {
        "requests": len(latencies),
        "distinct": len(ledger.keys),
        "blocks": phase["blocks"],
        "seconds": phase["seconds"],
        "cpu_seconds": phase["cpu_seconds"],
        "latency_p50_ms": quantile(latencies, 0.5) * 1e3,
        "latency_p90_ms": p90 * 1e3,
        "beyond_p90": sum(1 for t in latencies if t > p90),
        "reference_s": statistics.median(phase["references"]),
        "reference_samples": len(phase["references"]),
        "throughput_ops_s": phase["rate"][0],
        "peak_rss_mb": phase["rss_kb"] / 1024,
    }
    started = perf_counter()
    attempted, failed = ledger.settle()
    result["check_s"] = perf_counter() - started
    if tracer is not None:
        tracer.request = "probe"
        wl.after_phase(traced)
        overhead = phase["rate"][1] - phase["rate"][0]
        result["throughput_traced_ops_s"] = phase["rate"][1]
        layers = tracer.layers()
        result["layers"] = {
            m["name"]: layer_value(m["name"], layers, overhead) for m in spec()["per_layer"]
        }
        out_dir = ROOT / "perfbench" / "out"
        out_dir.mkdir(parents=True, exist_ok=True)
        spans_path = out_dir / f"spans-{wl.name}-seed{args.seed}.jsonl"
        tracer.dump(spans_path)
        result["spans_file"] = str(spans_path.relative_to(ROOT))
        result["spans"] = len(tracer.spans)
    result["attempted"] = attempted
    result["failed"] = failed
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
