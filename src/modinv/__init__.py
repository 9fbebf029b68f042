"""Exact modular data, commutant enumeration and classification of modular
invariant coupling matrices for finite fusion rings."""

from .cyclo import Cyclotomic, root_of_unity
from .fusion import (
    FusionRing,
    builtin_cyclic,
    builtin_so_level1,
    builtin_su2,
    make_ring,
    validate,
)
from .modular import ModularData, compute_modular_data, verify_statistics_axioms
from .commutant import (
    CommutantBasis,
    CouplingMatrix,
    Pool,
    SearchBudgetExceeded,
    commutant_basis,
    enumerate_invariants,
    twist_sparsity,
    verify_invariant,
)
from .classify import (
    BranchingData,
    Classification,
    ExtendedModularData,
    GlobalIndices,
    classify_all,
    extended_modular_data,
    factorize_type_one,
    find_block_bijection,
    find_parents,
    global_indices,
)

__version__ = "0.1.0"
