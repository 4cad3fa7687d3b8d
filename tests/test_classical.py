from fractions import Fraction

import pytest

from ncsym.classical import (
    SymElement,
    _basis_m_coeffs,
    _m_inverse,
    omega_commutative,
    sym_convert,
    sym_inner,
)
from ncsym.intpartitions import IntPartition, int_partitions

IP = IntPartition


def one(basis, parts, coeff=1):
    return SymElement(basis, {IP(parts): Fraction(coeff)})


def test_schur_to_monomial_by_kostka():
    assert sym_convert(one("s", (2,)), "m") == SymElement(
        "m", {IP((2,)): 1, IP((1, 1)): 1}
    )
    got = sym_convert(one("s", (2, 1)), "m")
    assert got == SymElement("m", {IP((2, 1)): 1, IP((1, 1, 1)): 2})


def test_monomial_is_fixed():
    f = one("m", (3, 1), Fraction(5, 3))
    assert sym_convert(f, "m") == f


def test_complete_to_monomial():
    assert sym_convert(one("h", (2,)), "m") == SymElement(
        "m", {IP((2,)): 1, IP((1, 1)): 1}
    )
    assert sym_convert(one("e", (2,)), "m") == one("m", (1, 1))
    assert sym_convert(one("p", (2,)), "m") == one("m", (2,))


@pytest.mark.parametrize("basis", ["p", "e", "h", "s"])
@pytest.mark.parametrize("n", range(6))
def test_conversion_roundtrip(basis, n):
    for lam in int_partitions(n):
        f = one(basis, lam.parts)
        assert sym_convert(sym_convert(f, "m"), basis) == f


@pytest.mark.parametrize("basis", ["p", "e", "h", "s"])
def test_conversion_from_m_matches_exact_solve(basis):
    # the forward matrix times the cached inverse is the identity: each m_mu in the
    # basis, expanded back into m through _basis_m_coeffs, is m_mu alone.  The
    # product reads no solve, so it shares no solver with _m_inverse.
    for n in range(7):
        inverse = _m_inverse(basis, n)
        assert list(inverse) == int_partitions(n)
        for mu, (pairs, den) in inverse.items():
            back = {}
            for lam, num in pairs:
                for nu, c in _basis_m_coeffs(basis, lam):
                    back[nu] = back.get(nu, 0) + Fraction(num * c, den)
            assert {nu: c for nu, c in back.items() if c} == {mu: 1}, (basis, mu)
            want = SymElement(basis, {lam: Fraction(num, den) for lam, num in pairs})
            assert sym_convert(one("m", mu.parts), basis) == want


@pytest.mark.parametrize("basis", ["p", "e", "h"])
@pytest.mark.parametrize("n", range(7))
def test_m_coefficients_match_polynomial_expansion(basis, n, verify_all):
    name = f"reference.n{n}.classical_{basis}_matches_polynomial_expansion"
    assert verify_all.checks[name] == (True, "")


def test_m_inverses_match_gauss_jordan_to_degree_8(verify_all):
    # p, e, h and s: keys, order, numerators and denominators of every column
    assert verify_all.checks["reference.classical_inverses_match_gauss_jordan"] == (True, "")


def test_inner_examples():
    assert sym_inner(one("m", (2, 1)), one("h", (2, 1))) == 1
    assert sym_inner(one("m", (2,)), one("h", (1, 1))) == 0


@pytest.mark.parametrize("n", range(1, 5))
def test_schur_orthonormality(n):
    for lam in int_partitions(n):
        for mu in int_partitions(n):
            want = 1 if lam == mu else 0
            assert sym_inner(one("s", lam.parts), one("s", mu.parts)) == want


def test_power_sums_are_orthogonal():
    # <p_lam, p_mu> = delta * z_lam, the classical normalization
    from math import factorial

    for n in range(1, 5):
        for lam in int_partitions(n):
            for mu in int_partitions(n):
                value = sym_inner(one("p", lam.parts), one("p", mu.parts))
                if lam != mu:
                    assert value == 0
                else:
                    z = 1
                    for part, mult in lam.multiplicities().items():
                        z *= part**mult * factorial(mult)
                    assert value == z


def test_omega_swaps_e_h_and_signs_p():
    assert omega_commutative(one("e", (2, 1))) == one("h", (2, 1))
    assert omega_commutative(one("h", (2, 1))) == one("e", (2, 1))
    assert omega_commutative(one("p", (2, 1))) == one("p", (2, 1), -1)


@pytest.mark.parametrize("basis", ["m", "p", "e", "h", "s"])
def test_omega_is_involution(basis):
    for n in range(5):
        for lam in int_partitions(n):
            f = one(basis, lam.parts)
            assert omega_commutative(omega_commutative(f)) == f


@pytest.mark.parametrize("n", range(1, 5))
def test_omega_conjugates_schur(n):
    for lam in int_partitions(n):
        got = sym_convert(omega_commutative(one("s", lam.parts)), "m")
        want = sym_convert(one("s", lam.conjugate().parts), "m")
        assert got == want


def test_degree_zero():
    unit = one("m", ())
    assert sym_inner(unit, one("h", ())) == 1
    assert omega_commutative(unit) == unit


def test_mixed_degree_elements():
    f = SymElement("h", {IP((2,)): 1, IP((1,)): 1})
    g = sym_convert(f, "m")
    assert g == SymElement("m", {IP((2,)): 1, IP((1, 1)): 1, IP((1,)): 1})
    assert sym_convert(g, "h") == f
