"""Exact toolkit for finite unimodular matrix groups acting on lattices.

Decides when the necessary conditions for a Cohen-Macaulay multiplicative
invariant ring fail, and verifies explicit orbit-sum decompositions of
invariant algebras, all in exact integer arithmetic.
"""

from .catalog import (
    DEFAULT_BUILTINS,
    GroupDefinition,
    builtin,
    parse_group_definition,
    parse_group_file,
    serialize_group_definition,
)
from .errors import (
    CapExceeded,
    GeneratorMismatch,
    InfiniteGroup,
    InfiniteOrderElement,
    InvalidGenerator,
    NotInvariant,
    NotIsotropy,
    ParityViolation,
    ParseError,
    TheoremViolation,
    UnknownBuiltin,
    UnknownPreset,
    ValidationError,
)
from .groups import (
    DEFAULT_CAP,
    FiniteMatrixGroup,
    GLattice,
    Subgroup,
    abelianization,
    are_conjugate_subgroups,
    close,
    commutator_subgroup,
    element_order_histogram,
    full_subgroup,
    intersect_subgroups,
    is_perfect,
    subgroup_generated,
    trivial_subgroup,
)
from .intlinalg import (
    IntMatrix,
    QuotientInvariants,
    SmithDecomposition,
    hnf,
    hnf_basis,
    induced_on_quotient,
    kernel_lattice,
    lattice_quotient_invariants,
    rank,
    snf,
    unimodular_inverse,
)
from .isotropy import (
    FpfConstraintReport,
    IsotropyCatalog,
    IsotropyClass,
    check_fpf_constraints,
    enumerate_isotropy_groups,
    fixed_lattice,
    is_fixed_point_free,
    isotropy_group_of,
    minimal_nontrivial_isotropy,
    recognize_binary_icosahedral,
    witness_vector,
)
from .obstruction import (
    INCONCLUSIVE,
    OBSTRUCTED,
    TRIVIALLY_CM,
    IsotropyConditionRow,
    ObstructionReport,
    ReductionInfo,
    check_necessary_conditions,
    copies_verdict,
    direct_sum_copies,
    effective_reduction,
    rationally_isomorphic,
)
from .orbit_algebra import (
    DecompositionCertificate,
    DecompositionFailure,
    DecompositionResult,
    LaurentElement,
    act,
    alternating_d,
    elementary_symmetric,
    express_in_orbit_basis,
    is_invariant,
    orbit_representative,
    orbit_sum,
    verify_free_decomposition,
)
from .reflections import bireflection_subgroup, moved_rank, moved_rank_subgroup

__version__ = "0.1.0"
