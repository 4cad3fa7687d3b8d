"""One full-size ``ncsym verify all`` per test session.

Every test that asserts a verify check reads the ``verify_all`` fixture, so
each check runs once, at its default size and through the CLI.
"""
import io
import json
from contextlib import redirect_stdout
from typing import NamedTuple

import pytest

from ncsym.cli import main


class VerifyRun(NamedTuple):
    code: int  # the exit code of `ncsym verify all`
    checks: dict  # check name -> (ok, detail)


@pytest.fixture(scope="session")
def verify_all() -> VerifyRun:
    out = io.StringIO()
    with redirect_stdout(out):
        code = main(["verify", "all", "--format", "json"])
    records = json.loads(out.getvalue())
    checks = {r["name"]: (r["ok"], r["detail"]) for r in records}
    assert len(checks) == len(records), "two checks share a name"
    return VerifyRun(code, checks)
