"""Exact computer algebra for symmetric functions in noncommuting variables.

The package namespace is lazy: ``import ncsym`` loads no submodule, and a
public name imports its home submodule on first access (PEP 562).
"""

from importlib import import_module

# home submodule -> the public names it defines
_PUBLIC = {
    "classical": (
        "SYM_BASES SymElement format_sym omega_commutative parse_sym sym_convert sym_from_json"
        " sym_inner sym_to_json"
    ),
    "combination": "ParseError",
    "elements": (
        "NC_BASES NCSymElement convert format_ncsym inner lift multiply ncsym_from_json"
        " ncsym_to_json omega parse_ncsym place_act project schur_ncsym"
    ),
    "intpartitions": "IntPartition int_partitions kostka weak_compositions",
    "macmahon": (
        "CauchyReport MultiPolynomial Truncation TruncationError VectorPartition cauchy_check"
        " jacobi_trudi mm_complete mm_elementary mm_monomial mm_multiplicative mm_power"
        " parse_multipolynomial phi_collect phi_from_set_partition phi_to_set_partition"
        " schur_tableau_sum"
    ),
    "rsk": "Biword rsk_forward rsk_inverse",
    "setpartitions": "GroundSetError SetPartition bell_number mobius set_partitions",
    "tableaux": "DottedEntry DottedTableau dot_swap_involution dotted_tableaux",
    "verify": "PartitionLattice lattice",  # the reference lattice, kept under its public names
    "words": "NotSymmetricError WordPolynomial collect equal expand expand_position_action kernel",
}
_HOME = {name: module for module, names in _PUBLIC.items() for name in names.split()}

__version__ = "0.1.0"

__all__ = sorted(_HOME)


def __getattr__(name: str):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{_HOME[name]}", __name__), name)
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
