"""The package namespace: its public names, where they live, and what fails."""
import doctest
import json
import os
import subprocess
import sys
from importlib import import_module
from pathlib import Path

import pytest

import ncsym

SRC = Path(__file__).resolve().parents[1] / "src"
# every public name with its home submodule
HOMES = {
    "classical": "SYM_BASES SymElement format_sym omega_commutative parse_sym sym_convert"
    " sym_from_json sym_inner sym_to_json",
    "combination": "ParseError",
    "elements": "NC_BASES NCSymElement convert format_ncsym inner lift multiply ncsym_from_json"
    " ncsym_to_json omega parse_ncsym place_act project schur_ncsym",
    "intpartitions": "IntPartition int_partitions kostka weak_compositions",
    "macmahon": "CauchyReport MultiPolynomial Truncation TruncationError VectorPartition"
    " cauchy_check jacobi_trudi mm_complete mm_elementary mm_monomial mm_multiplicative"
    " mm_power parse_multipolynomial phi_collect phi_from_set_partition phi_to_set_partition"
    " schur_tableau_sum",
    "rsk": "Biword rsk_forward rsk_inverse",
    "setpartitions": "GroundSetError SetPartition bell_number mobius set_partitions",
    "tableaux": "DottedEntry DottedTableau dot_swap_involution dotted_tableaux",
    "verify": "PartitionLattice lattice",
    "words": "NotSymmetricError WordPolynomial collect equal expand expand_position_action kernel",
}
PUBLIC = [(name, module) for module, names in HOMES.items() for name in names.split()]


def test_all_lists_the_public_names_and_no_submodule():
    assert ncsym.__all__ == sorted(name for name, _ in PUBLIC)
    assert len(ncsym.__all__) == 66
    assert not set(ncsym.__all__) & set(HOMES)
    assert set(ncsym.__all__) <= set(dir(ncsym))
    assert ncsym.__version__ == "0.1.0"


@pytest.mark.parametrize("name, module", PUBLIC)
def test_each_name_is_its_home_module_object(name, module):
    assert getattr(ncsym, name) is getattr(import_module(f"ncsym.{module}"), name)


def test_star_import_binds_every_name():
    namespace = {}
    exec("from ncsym import *", namespace)
    assert all(namespace[name] is getattr(ncsym, name) for name in ncsym.__all__)


def test_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="module 'ncsym' has no attribute 'no_such_name'"):
        ncsym.no_such_name
    with pytest.raises(ImportError):
        exec("from ncsym import no_such_name", {})


def _modules_after(*imports: str) -> set[str]:
    """The modules a fresh interpreter holds after these imports."""
    probe = f"import json, sys, {', '.join(imports)}; print(json.dumps(sorted(sys.modules)))"
    proc = subprocess.run(
        [sys.executable, "-c", probe],
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        capture_output=True, text=True, check=True, timeout=120,
    )
    return set(json.loads(proc.stdout))


def test_readme_session_runs_as_a_doctest():
    result = doctest.testfile(str(SRC.parent / "README.md"), module_relative=False)
    assert (result.failed, result.attempted) == (0, 15)


def test_macmahon_loads_no_ncsym_layer():
    """Only phi_collect reaches NCSym, inside its body; importing the module
    loads neither elements nor words."""
    loaded = _modules_after("ncsym.macmahon")
    assert "ncsym.macmahon" in loaded
    assert not loaded & {"ncsym.elements", "ncsym.words"}


def test_no_production_module_loads_verify():
    """The reference routes live in verify alone: importing every other module,
    the CLI included, loads none of them."""
    stems = {path.stem for path in (SRC / "ncsym").glob("*.py")} - {"__init__", "verify"}
    production = sorted(f"ncsym.{stem}" for stem in stems)
    loaded = _modules_after(*production)
    assert set(production) <= loaded and "ncsym.cli" in loaded
    assert "ncsym.verify" not in loaded


# public function -> a call with an argument of the wrong class, and the TypeError it raises
WRONG_CLASS = {
    "schur_ncsym": (lambda: ncsym.schur_ncsym((2, 1)), "expected IntPartition, got tuple"),
    "schur_tableau_sum": (
        lambda: ncsym.schur_tableau_sum((2, 1), (3,), ncsym.Truncation(1, 2, 3)),
        "expected IntPartition, got tuple",
    ),
    "jacobi_trudi": (
        lambda: ncsym.jacobi_trudi((2, 1), (3,), "h", ncsym.Truncation(1, 2, 3)),
        "expected IntPartition, got tuple",
    ),
    "expand": (
        lambda: ncsym.expand(ncsym.SymElement("m"), 2),
        "expected NCSymElement, got SymElement",
    ),
    "equal": (
        lambda: ncsym.equal(ncsym.NCSymElement("m"), ncsym.SymElement("m")),
        "expected NCSymElement, got SymElement",
    ),
    "collect": (
        lambda: ncsym.collect(ncsym.NCSymElement("m"), 1),
        "expected WordPolynomial, got NCSymElement",
    ),
    "expand_position_action": (
        lambda: ncsym.expand_position_action((1,), ncsym.NCSymElement("m")),
        "expected WordPolynomial, got NCSymElement",
    ),
    "phi_collect": (
        lambda: ncsym.phi_collect(ncsym.NCSymElement("m")),
        "expected MultiPolynomial, got NCSymElement",
    ),
    "phi_from_set_partition": (
        lambda: ncsym.phi_from_set_partition((1, 2)),
        "expected SetPartition, got tuple",
    ),
    "rsk_inverse": (
        lambda: ncsym.rsk_inverse(ncsym.DottedTableau([[(1, 1)]]), "x"),
        "expected DottedTableau, got str",
    ),
    "rsk_forward": (lambda: ncsym.rsk_forward("x"), "expected Biword, got str"),
    "sym_convert": (
        lambda: ncsym.sym_convert(ncsym.parse_ncsym("m[1/2]"), "p"),
        "expected SymElement, got NCSymElement",
    ),
    "sym_inner": (
        lambda: ncsym.sym_inner(ncsym.parse_ncsym("m[1/2]"), ncsym.parse_sym("m[2,1]")),
        "expected SymElement, got NCSymElement",
    ),
    "omega_commutative": (
        lambda: ncsym.omega_commutative(ncsym.parse_ncsym("m[1/2]")),
        "expected SymElement, got NCSymElement",
    ),
    # a plain tuple in place of a Truncation
    "MultiPolynomial": (lambda: ncsym.MultiPolynomial((1, 2, 2)), "expected Truncation, got tuple"),
    "mm_power": (lambda: ncsym.mm_power((1, 0), (2, 2, 2)), "expected Truncation, got tuple"),
    "mm_elementary": (
        lambda: ncsym.mm_elementary((1, 0), (2, 2, 2)),
        "expected Truncation, got tuple",
    ),
    "mm_complete": (lambda: ncsym.mm_complete((1, 0), (2, 2, 2)), "expected Truncation, got tuple"),
    "schur_tableau_sum.trunc": (
        lambda: ncsym.schur_tableau_sum(ncsym.IntPartition((2, 1)), (3,), (1, 2, 3)),
        "expected Truncation, got tuple",
    ),
    "jacobi_trudi.trunc": (
        lambda: ncsym.jacobi_trudi(ncsym.IntPartition((2, 1)), (3,), "h", (1, 2, 3)),
        "expected Truncation, got tuple",
    ),
    "cauchy_check": (
        lambda: ncsym.cauchy_check((2, 2, 3), ncsym.Truncation(2, 2, 3), 3),
        "expected Truncation, got tuple",
    ),
    # a tuple in place of a VectorPartition
    "mm_monomial": (
        lambda: ncsym.mm_monomial(((1, 0),), ncsym.Truncation(2, 2, 2)),
        "expected VectorPartition, got tuple",
    ),
    "mm_multiplicative": (
        lambda: ncsym.mm_multiplicative("p", ((1, 0),), ncsym.Truncation(2, 2, 2)),
        "expected VectorPartition, got tuple",
    ),
    "phi_to_set_partition": (
        lambda: ncsym.phi_to_set_partition(((1, 0), (0, 1))),
        "expected VectorPartition, got tuple",
    ),
    # checked on the call, before any tableau is asked for
    "dotted_tableaux": (
        lambda: ncsym.dotted_tableaux((2, 1), 2, 1),
        "expected IntPartition, got tuple",
    ),
    "dot_swap_involution": (
        lambda: ncsym.dot_swap_involution("x", 1),
        "expected DottedTableau, got str",
    ),
    # every text reader refuses what is not text
    "parse_ncsym": (lambda: ncsym.parse_ncsym(None), "expected str, got NoneType"),
    "parse_sym": (lambda: ncsym.parse_sym(3), "expected str, got int"),
    "parse_multipolynomial": (
        lambda: ncsym.parse_multipolynomial(b"x1'", ncsym.Truncation(1, 1, 1)),
        "expected str, got bytes",
    ),
    "parse_word_polynomial": (
        lambda: import_module("ncsym.words").parse_word_polynomial(None, 2),
        "expected str, got NoneType",
    ),
    "SetPartition.parse": (lambda: ncsym.SetPartition.parse(None), "expected str, got NoneType"),
    "IntPartition.parse": (lambda: ncsym.IntPartition.parse(3), "expected str, got int"),
    "VectorPartition.parse": (
        lambda: ncsym.VectorPartition.parse(None, 2),
        "expected str, got NoneType",
    ),
    "Biword.parse": (lambda: ncsym.Biword.parse(3), "expected str, got int"),
    "DottedTableau.parse": (lambda: ncsym.DottedTableau.parse(None), "expected str, got NoneType"),
}


@pytest.mark.parametrize("name", WRONG_CLASS)
def test_a_wrong_class_argument_is_a_type_error(name):
    """Not an AttributeError from deep inside: the class is checked at the boundary."""
    call, message = WRONG_CLASS[name]
    with pytest.raises(TypeError) as err:
        call()
    assert str(err.value) == message
