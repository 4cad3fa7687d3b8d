"""Acceptance suite: every promised identity at its full stated size.

Each criterion asserts its own suite's checks from the session's one
full-size ``ncsym verify all`` (the ``verify_all`` fixture) and prints one
PASS/FAIL line (visible under ``pytest -s``).  All comparisons are exact;
there are no tolerances anywhere.
"""
import hashlib
from collections import Counter

from ncsym.cli import main
from ncsym.verify import SUITES

# suite -> its number of checks at the default sizes
COUNTS = {
    "examples": 8,
    "roundtrip": 84,
    "oracle": 47,
    "mobius": 26,
    "omega": 24,
    "inner": 52,
    "projection": 25,
    "schur": 22,
    "jacobi-trudi": 15,
    "rsk": 5,
    "product": 5,
    "reference": 54,
}
# a check's suite is the first dotted field of its name, with - read as _
_SUITE_OF = {suite.replace("-", "_"): suite for suite in SUITES}


def _suite(check: str) -> str:
    return _SUITE_OF[check.split(".")[0]]


def _check_criterion(verify_all, number, label, suite):
    results = {name: r for name, r in verify_all.checks.items() if _suite(name) == suite}
    failures = {name: detail for name, (ok, detail) in results.items() if not ok}
    status = "PASS" if not failures else "FAIL"
    print(f"ACCEPTANCE {number:02d} {label}: {status} ({len(results)} checks)")
    for name, detail in failures.items():
        print(f"    FAIL {name}: {detail}")
    assert not failures
    assert len(results) == COUNTS[suite]


def test_criterion_01_worked_examples(verify_all):
    _check_criterion(verify_all, 1, "worked examples reproduce exactly", "examples")


def test_criterion_02_change_of_basis_roundtrips(verify_all):
    _check_criterion(verify_all, 2, "basis round trips up to degree 5", "roundtrip")


def test_criterion_03_oracle_equivalence(verify_all):
    _check_criterion(verify_all, 3, "word-expansion oracle equivalence up to degree 4", "oracle")


def test_criterion_04_mobius_consistency(verify_all):
    _check_criterion(verify_all, 4, "Mobius product/recursion and summation laws", "mobius")


def test_criterion_05_omega_suite(verify_all):
    _check_criterion(verify_all, 5, "involution suite up to degree 5", "omega")


def test_criterion_06_inner_product_suite(verify_all):
    _check_criterion(
        verify_all, 6, "inner-product closed forms and axioms at degree <= 4", "inner"
    )


def test_criterion_07_projection_and_lifting(verify_all):
    _check_criterion(verify_all, 7, "projection images, lifting, isometry", "projection")


def test_criterion_08_schur_suite(verify_all):
    _check_criterion(verify_all, 8, "Schur expansion, rank, projection, pairing", "schur")


def test_criterion_09_jacobi_trudi(verify_all):
    _check_criterion(
        verify_all, 9, "both determinants against tableau sums up to degree 5", "jacobi-trudi"
    )


def test_criterion_10_rsk_and_cauchy(verify_all):
    _check_criterion(verify_all, 10, "dotted insertion bijection and pairing identity", "rsk")


def test_criterion_11_cli_golden_and_verify(capsys, verify_all):
    cases = [
        (["convert", "p[1,3/2,4]", "--to", "m"], "m[1,3/2,4] + m[1,2,3,4]\n"),
        (["mobius", "1/2/3/4", "1,2,3,4"], "-6\n"),
        (["inner", "m[1,3/2,4]", "h[1,3/2,4]"], "24\n"),
    ]
    for argv, expected in cases:
        code = main(argv)
        out = capsys.readouterr().out
        assert code == 0 and out == expected, argv

    # every check of every suite, at full size: each name maps to one suite
    assert Counter(map(_suite, verify_all.checks)) == COUNTS
    assert sum(ok for ok, _ in verify_all.checks.values()) == len(verify_all.checks) == 367
    assert verify_all.code == 0
    with capsys.disabled():
        print("ACCEPTANCE 11 CLI golden outputs and `verify all`: PASS")


def test_multiplication_examples(verify_all):
    # supplementary: the closed-form product, checked against the word oracle
    _check_criterion(verify_all, 12, "closed-form products against the word oracle", "product")


def test_check_names_keep_their_order(verify_all):
    # the 367 check names in run order, joined by newlines; a change to how verify
    # runs its checks keeps every name and the order they come in
    names = "\n".join(verify_all.checks).encode()
    assert hashlib.md5(names).hexdigest() == "2874b64b582370a3e84e5c1a0ede72fa"
