"""quantred: exact residue calculus for circle-equivariant fixed-point data.

Given the fixed components of a rank-one Hamiltonian group action together
with their localization data, this package computes

* the invariant section count (a holomorphic fixed-point sum, evaluated as
  minus the residues at infinity of the Weyl-weighted character forms), and
* the reduced-space count (the residue at t = 1 plus orbifold corrections
  at the other wall roots of unity),

entirely in exact arithmetic over Q and cyclotomic fields, and checks that
the two agree with each other and with a brute-force character expansion.
"""

from .catalog import UnknownCatalogError, catalog, catalog_names, is_parametric
from .cohomology import (
    CohomologyClass,
    PresentationMismatch,
    RingPresentation,
    todd_coefficients,
)
from .exactnum import (
    Cyclotomic,
    NotRationalError,
    cyclotomic_polynomial,
    phi_degree,
    rational_part,
    root_of_unity,
    root_order,
)
from .fixedpoint import (
    Finding,
    FixedComponent,
    GroupKind,
    InvalidInstanceError,
    ProblemInstance,
    SchemaError,
    has_errors,
    hypotheses_hold,
    instance_from_dict,
    instance_to_dict,
    load_instance,
    tensor_power,
    validate,
    wall_set,
)
from .laurent import (
    Chart,
    ChartMismatch,
    RingSeries,
    TruncationError,
    form_residue,
    outer_expansion,
)
from .lefschetz import (
    NonIntegerResultError,
    WeylFactor,
    character_from_chart,
    component_form,
    residue_of_h,
    rr_invariant,
)
from .oracle import (
    CharacterPolynomial,
    StabilizationError,
    SymmetryError,
    automatic_degree_bound,
    character_polynomial,
    invariant_multiplicity,
)
from .reduction import (
    ReducedRR,
    Report,
    reduced_rr,
    residue_table,
    root_label,
    verify_quantization,
)

__version__ = "0.1.0"
