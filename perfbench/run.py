"""Run one benchmark workload against ./src and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  Workloads: basis-session, products,
macmahon-rsk, cli-cold (see perfbench/README.md).  Every workload runs in
fresh interpreters (`worker.py`), because the library's caches are
process-wide and would otherwise warm one workload for the next.  Set-up is
timed in fresh processes: each worker reports the CPU seconds it spent from
its start to its `READY` line.  `setup_s` is the median of 3 to 9 samples
(more when set-up is short, so that about SETUP_BUDGET_S of it is measured).
The middle process goes on to the timed loop; the others stop after set-up,
half of them before it and half after.  Every time is scaled to the speed at
which the worker's reference loop takes REFERENCE_S (see README.md).  The last line of standard output is one JSON object with `correct`,
`attempted`, `failed` and `metrics`: the end-to-end metrics with --trace 0,
the per-layer ones with --trace 1.
"""
from __future__ import annotations

import argparse
import json
import os
import select
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from metrics import spec  # noqa: E402

WORKLOADS = ("basis-session", "products", "macmahon-rsk", "cli-cold")
SETUP_SAMPLES = (3, 9)  # fewest, most
SETUP_BUDGET_S = 2.0
DEADLINE_S = 170  # the whole run, set-up samples included
# CPU seconds of the worker's reference loop at the speed figures are scaled to
REFERENCE_S = 2e-3
# how a time in each unit scales with the CPU seconds it took
SCALED_UNITS = {"s": 1, "ms": 1, "us": 1, "1/s": -1}


class BenchError(Exception):
    pass


def _spawn(args, setup_only: bool) -> subprocess.Popen:
    argv = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
    ]
    if setup_only:
        argv.append("--setup-only")
    env = dict(os.environ, PYTHONPATH=str(Path.cwd() / "src"))
    return subprocess.Popen(argv, stdout=subprocess.PIPE, text=True, env=env)


def _remaining(deadline: float) -> float:
    left = deadline - time.monotonic()
    if left <= 0:
        raise BenchError(f"run exceeded {DEADLINE_S} s")
    return left


def _await_ready(proc: subprocess.Popen, deadline: float) -> float:
    """The CPU seconds the worker reports for its set-up."""
    ready, _, _ = select.select([proc.stdout], [], [], _remaining(deadline))
    line = proc.stdout.readline() if ready else ""
    word, _, seconds = line.strip().partition(" ")
    if word != "READY":
        raise BenchError(f"worker did not finish set-up (got {line.strip()!r})")
    return float(seconds)


def _sample(args, deadline: float, setup_only: bool) -> tuple[float, str]:
    """(set-up seconds, standard output) of one worker process."""
    proc = _spawn(args, setup_only)
    try:
        setup = _await_ready(proc, deadline)
        out, _ = proc.communicate(timeout=_remaining(deadline))
        if proc.returncode != 0:
            raise BenchError(f"worker exited with code {proc.returncode}")
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    return setup, out


def run(args) -> dict:
    deadline = time.monotonic() + DEADLINE_S
    if args.trace:  # the traced run reports no set-up time: one process
        setups = []
        after = 0
    else:
        # set-up samples on both sides of the timed loop, so that the median
        # does not rest on one stretch of the machine's speed
        first, _ = _sample(args, deadline, setup_only=True)
        fewest, most = SETUP_SAMPLES
        wanted = max(fewest, min(most, int(SETUP_BUDGET_S / first) + 1))
        setups = [first]
        while len(setups) < (wanted - 1) // 2:
            setups.append(_sample(args, deadline, setup_only=True)[0])
        after = wanted - 1 - len(setups)
    setup, out = _sample(args, deadline, setup_only=False)
    setups.append(setup)
    for _ in range(after):
        setups.append(_sample(args, deadline, setup_only=True)[0])
    result = json.loads(out.strip().splitlines()[-1])
    result["setup_s"] = statistics.median(setups)
    result["setup_samples"] = setups
    return result


def report(args, result: dict, table: dict) -> dict:
    """Print the summary; the result line's dict, with the metrics of `table`."""
    attempted, failed = result["attempted"], result["failed"]
    print(
        f"{args.workload} seed={args.seed} trace={args.trace}: {result['requests']} requests "
        f"({result['distinct']} distinct) in {result['blocks']} blocks, "
        f"{result['seconds']:.2f} s of wall time, {result['cpu_seconds']:.2f} s of CPU time in requests"
    )
    scale = REFERENCE_S / result["reference_s"]
    print(
        f"  reference loop: median {result['reference_s'] * 1e3:.4f} ms of "
        f"{result['reference_samples']} timings; times are scaled by {scale:.4f}"
    )
    print(
        f"  fail_ratio {failed / attempted:.6f} ({failed} of {attempted} attempts failed; "
        f"checks took {result['check_s']:.2f} s)"
    )
    if args.trace:
        values = result["layers"]
        rows = table["per_layer"]
        print(f"  spans: {result['spans']} written to {result['spans_file']}")
        print(
            f"  tracing overhead: {values['trace.overhead_ops_s']:+.3f} ops/s "
            f"(traced blocks {result['throughput_traced_ops_s']:.3f} ops/s, "
            f"untraced blocks {result['throughput_ops_s']:.3f} ops/s)"
        )
    else:
        values = {
            "setup_s": result["setup_s"],
            "latency_p50_ms": result["latency_p50_ms"],
            "latency_p90_ms": result["latency_p90_ms"],
            "throughput_ops_s": result["throughput_ops_s"],
            "ok_ratio": (attempted - failed) / attempted,
            "peak_rss_mb": result["peak_rss_mb"],
        }
        rows = table["end_to_end"]
        samples = ", ".join(f"{s:.3f}" for s in result["setup_samples"])
        print(f"  setup samples (s): {samples}")
        print(
            f"  latency samples: {result['requests']}, "
            f"{result['beyond_p90']} beyond the p90"
        )
    metrics = {}
    for row in rows:
        name, unit = row["name"], row["unit"]
        power = SCALED_UNITS.get(unit, 0)
        value = values[name] * scale**power
        metrics[name] = {"value": value, "unit": unit}
        unscaled = f" (unscaled {values[name]})" if power else ""
        print(f"  {name} = {value} {unit}{unscaled}")
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (Path.cwd() / "src" / "ncsym" / "__init__.py").is_file():
        print("error: run from the repository root; ./src/ncsym is missing", file=sys.stderr)
        return 2
    try:
        table = spec()
        result = run(args)
    except (BenchError, OSError, subprocess.TimeoutExpired, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(report(args, result, table)))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
