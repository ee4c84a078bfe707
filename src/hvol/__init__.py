"""hvol: exact normalized-volume computations on cone singularities.

The package evaluates the scale-invariant functional A(v)^n * vol(v) on
monomial and toric valuations of desk-scale cone singularities, minimizes it
over the Reeb cone, and verifies the volume calculus identities (profiles,
interpolation derivatives, stability gaps) that certify the minimizers.
"""

from .exactgeom import (
    Halfspace,
    PolyCone,
    Polytope,
    RVector,
    centroid,
    cut_cone,
    dual_cone,
    polytope_volume,
    vertex_enumerate,
)
from .valuation import (
    MonomialValuation,
    ValuationReport,
    lattice_count_oracle,
    log_adjusted_discrepancy,
    log_discrepancy_hypersurface,
    log_discrepancy_toric,
    normalized_volume,
    nvol_report,
    valuation_volume_hypersurface,
    valuation_volume_toric,
    volume_gradient_toric,
)
from .singularities import (
    PolarizedConeData,
    ToricConeSingularity,
    ToricLogFanoReport,
    WeightedHomogeneousHypersurface,
    affine_space,
    akm_singularity,
    canonical_weights,
    cone_invariants,
    conifold,
    cyclic_quotient_cone,
    fano_index_check,
    toric_log_fano,
)
from .molien import (
    DimensionSeries,
    FiniteGroupAction,
    GroupElement,
    check_free_in_codim1,
    cyclic_group,
    binary_dihedral_group,
    invariant_dimension_series,
    pair_identity_check,
    quotient_min_nvol,
    quotient_volume,
)
from .reeb import (
    MinimizeResult,
    hvol_lower,
    link_volume_from_nvol,
    minimize_nvol,
    minimize_nvol_multistart,
    normalize_reeb,
    rescaling_law_check,
    ricci_bound_transfer,
)
from .filtration import (
    PhiSurface,
    VolumeProfile,
    interpolation_derivative_forms,
    interpolation_volume,
    liu_bound_check,
    nvol_lower_bound_check,
    profile_dimension_check,
    profile_from_model,
    section_volume,
    stability_gap,
    tail_volume,
    volume_from_profile,
)

__version__ = "0.1.0"
