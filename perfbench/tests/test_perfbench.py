"""Tests of the benchmark itself.  From the repository root:

    python3 -m pytest perfbench/tests -q
"""
from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
BENCH = ROOT / "perfbench"
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

from workloads import registry  # noqa: E402

from ncsym import MultiPolynomial, NCSymElement, format_ncsym, parse_ncsym  # noqa: E402

NAMES = ("basis-session", "products", "macmahon-rsk", "cli-cold")


@pytest.fixture(autouse=True)
def _at_root(monkeypatch):
    monkeypatch.chdir(ROOT)


def _worker(*args: str) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "worker.py"), *args],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    assert lines[0].startswith("READY ")
    return json.loads(lines[-1])


def _bump_one(terms: dict) -> dict:
    key = min(terms, key=str)
    return {**terms, key: terms[key] + 1}


@pytest.mark.parametrize("name", NAMES)
def test_a_seed_fixes_the_inputs(name):
    cls = registry()[name]
    assert cls(7).describe() == cls(7).describe()
    assert cls(7).describe() != cls(8).describe()


def _first_nonzero(wl, op):
    """The first request of the operation with a nonzero result, and the result."""
    for block in wl.blocks:
        for req in block:
            if req.op == op:
                out = wl.execute(wl.api(), req)
                if out.terms:
                    return req, out
    raise AssertionError(f"no {op} request with a nonzero result")


def test_checker_flags_an_altered_ncsym_coefficient():
    for name, op in (("basis-session", "convert"), ("products", "multiply")):
        wl = registry()[name](5, small=True)
        req, out = _first_nonzero(wl, op)
        assert wl.check(req, out)
        assert not wl.check(req, NCSymElement(out.basis, _bump_one(out.terms)))


def test_checker_flags_an_altered_jacobi_trudi_coefficient():
    wl = registry()["macmahon-rsk"](5, small=True)
    req, out = _first_nonzero(wl, "jt")
    assert wl.check(req, out)
    assert not wl.check(req, MultiPolynomial(out.trunc, _bump_one(out.terms)))


def test_checker_flags_an_altered_cli_coefficient():
    wl = registry()["cli-cold"](5, small=True)
    req = next(r for r in wl.blocks[0] if r.op == "convert")
    code, stdout = wl.execute(wl.api(), req)
    assert wl.check(req, (code, stdout))
    shown = parse_ncsym(stdout)
    altered = format_ncsym(NCSymElement(shown.basis, _bump_one(shown.terms)))
    assert not wl.check(req, (code, altered))
    assert not wl.check(req, (1, stdout))


@pytest.mark.parametrize("name", NAMES)
def test_smoke_run_has_no_failures(name):
    result = _worker("--workload", name, "--seed", "3", "--seconds", "0.2", "--small")
    assert result["attempted"] > 0
    assert result["failed"] == 0


def test_traced_smoke_run_reports_every_layer():
    result = _worker(
        "--workload", "macmahon-rsk", "--seed", "3", "--seconds", "0.2", "--small", "--trace", "1"
    )
    assert result["failed"] == 0
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(result["layers"]) == {m["name"] for m in spec["per_layer"]}
    assert result["layers"]["macmahon.jacobi_trudi.calls"] > 0
    assert result["layers"]["elements.convert.calls"] == 0  # not its layer
    assert (ROOT / result["spans_file"]).is_file()


def test_run_refuses_a_directory_without_the_library(tmp_path):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "products", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
