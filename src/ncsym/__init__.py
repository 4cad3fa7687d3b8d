"""Exact computer algebra for symmetric functions in noncommuting variables."""

from .classical import (
    SYM_BASES,
    SymElement,
    format_sym,
    omega_commutative,
    sym_convert,
    sym_inner,
)
from .elements import (
    NC_BASES,
    NCSymElement,
    convert,
    format_ncsym,
    inner,
    lift,
    multiply,
    omega,
    place_act,
    project,
)
from .expressions import (
    ParseError,
    ncsym_from_json,
    ncsym_to_json,
    parse_multipolynomial,
    parse_ncsym,
    parse_sym,
    sym_from_json,
    sym_to_json,
)
from .intpartitions import IntPartition, int_partitions, kostka, weak_compositions
from .macmahon import (
    MultiPolynomial,
    Truncation,
    TruncationError,
    VectorPartition,
    jacobi_trudi,
    mm_complete,
    mm_elementary,
    mm_monomial,
    mm_multiplicative,
    mm_power,
    phi_collect,
    phi_from_set_partition,
    phi_to_set_partition,
    schur_ncsym,
    schur_tableau_sum,
)
from .rsk import Biword, CauchyReport, cauchy_check, rsk_forward, rsk_inverse
from .setpartitions import (
    GroundSetError,
    PartitionLattice,
    SetPartition,
    bell_number,
    lattice,
    mobius,
    set_partitions,
)
from .tableaux import DottedEntry, DottedTableau, dot_swap_involution, dotted_tableaux
from .words import (
    NotSymmetricError,
    WordPolynomial,
    collect,
    equal,
    expand,
    expand_position_action,
    kernel,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
