"""Acceptance suite: every promised identity at its full stated size.

Each criterion prints one PASS/FAIL line (visible under ``pytest -s`` or in
the CLI via ``ncsym verify all``).  All comparisons are exact; there are no
tolerances anywhere.
"""
import pytest

from ncsym import verify
from ncsym.cli import main


def _run_criterion(number, label, suites, max_n=None):
    results = verify.run(suites, max_n)
    failures = [r for r in results if not r.ok]
    status = "PASS" if not failures else "FAIL"
    print(f"ACCEPTANCE {number:02d} {label}: {status} ({len(results)} checks)")
    for r in failures:
        print(f"    FAIL {r.name}: {r.detail}")
    assert not failures


def test_criterion_01_worked_examples():
    _run_criterion(1, "worked examples reproduce exactly", ["examples"])


def test_criterion_02_change_of_basis_roundtrips():
    _run_criterion(2, "basis round trips up to degree 5", ["roundtrip"])


def test_criterion_03_oracle_equivalence():
    _run_criterion(3, "word-expansion oracle equivalence up to degree 4", ["oracle"])


def test_criterion_04_mobius_consistency():
    _run_criterion(4, "Mobius product/recursion and summation laws", ["mobius"])


def test_criterion_05_omega_suite():
    _run_criterion(5, "involution suite up to degree 5", ["omega"])


def test_criterion_06_inner_product_suite():
    _run_criterion(6, "inner-product closed forms and axioms at degree <= 4", ["inner"])


def test_criterion_07_projection_and_lifting():
    _run_criterion(7, "projection images, lifting, isometry", ["projection"])


def test_criterion_08_schur_suite():
    _run_criterion(8, "Schur expansion, rank, projection, pairing", ["schur"])


def test_criterion_09_jacobi_trudi():
    _run_criterion(9, "both determinants against tableau sums up to degree 5", ["jacobi-trudi"])


def test_criterion_10_rsk_and_cauchy():
    _run_criterion(10, "dotted insertion bijection and pairing identity", ["rsk"])


def test_criterion_11_cli_golden_and_verify(capsys):
    cases = [
        (["convert", "p[1,3/2,4]", "--to", "m"], "m[1,3/2,4] + m[1,2,3,4]\n"),
        (["mobius", "1/2/3/4", "1,2,3,4"], "-6\n"),
        (["inner", "m[1,3/2,4]", "h[1,3/2,4]"], "24\n"),
    ]
    for argv, expected in cases:
        code = main(argv)
        out = capsys.readouterr().out
        assert code == 0 and out == expected, argv

    code = main(["verify", "all", "--max-n", "4"])
    out = capsys.readouterr().out
    assert "FAIL" not in out
    assert code == 0
    with capsys.disabled():
        print("ACCEPTANCE 11 CLI golden outputs and `verify all --max-n 4`: PASS")


def test_multiplication_examples():
    # supplementary: the closed-form product, checked against the word oracle
    _run_criterion(12, "closed-form products against the word oracle", ["product"])
