"""The benchmark's metrics: their table, and per-layer values from spans.

Names, units and bounds live only in BENCHMARK.json.  A per-layer name is
`<span>.<stat>`: `elements.convert.busy_s` is the self time of every
`elements.convert` span.  A last part that is not a statistic of its own
qualifies the span: `elements.convert.cold_busy_s` is `busy_s` of the
`elements.convert.cold` spans, and `setpartitions.lattice.n5_s` the summed
duration (`s`) of the `setpartitions.lattice.n5` spans.
"""
from __future__ import annotations

import json
import statistics
from pathlib import Path


def spec() -> dict:
    """BENCHMARK.json of the checkout the benchmark runs in."""
    return json.loads((Path.cwd() / "BENCHMARK.json").read_text(encoding="utf-8"))


def _stat(row: dict, stat: str):
    """One statistic of a span name's row, or None if `stat` is not one."""
    durations = row["durations"]
    median = statistics.median(durations) if durations else 0.0
    if stat.endswith("_out"):  # terms_out, words_out, tableaux_out: result sizes
        return row["out"]
    return {
        "calls": row["calls"],
        "busy_s": row["busy_s"],
        "s": sum(durations),
        "p50_us": median * 1e6,
        "p50_ms": median * 1e3,
    }.get(stat)


def _row(layers: dict, span: str) -> dict:
    return layers.get(span, {"calls": 0, "busy_s": 0.0, "durations": [], "out": 0})


def layer_value(name: str, layers: dict[str, dict], overhead_ops_s: float) -> float:
    """The per-layer metric `name` from the tracer's per-span-name table."""
    if name == "trace.overhead_ops_s":
        return overhead_ops_s
    if name == "words.useful_ratio":  # result terms per word of the product
        words = _row(layers, "words.product")["out"]
        return _row(layers, "words.collect")["out"] / words if words else 0.0
    span, _, stat = name.rpartition(".")
    value = _stat(_row(layers, span), stat)
    if value is None:
        qualifier, _, stat = stat.partition("_")
        value = _stat(_row(layers, f"{span}.{qualifier}"), stat)
    if value is None:
        raise ValueError(f"no statistic for per-layer metric {name!r}")
    return value
