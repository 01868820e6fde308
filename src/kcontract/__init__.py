"""kcontract: matrix compounds, matrix measures and k-contraction certificates.

The flow of a k-contracting system shrinks the volume of k-dimensional
parallelotopes exponentially.  This package computes the compound matrices
and logarithmic norms behind the sufficient conditions, certifies
k-contraction for single systems and their series / skew-symmetric
interconnections, and validates certificates empirically by integrating
variational flows and tracking parallelotope volumes.
"""

from .certificates import (
    CertificateReport,
    ConditionRecord,
    certify_exp_input,
    certify_k_contraction,
    certify_series,
    certify_skew_feedback,
    lift_diagonal_scaling,
    series_conjugated_compound_measure,
    series_norm_data,
    worst_case_compound_measure,
)
from .compounds import (
    BlockDecomposition,
    CompoundMatrix,
    add_compound,
    add_compound_interval,
    block_diag_add_decompose,
    block_diag_mult_decompose,
    kron_product,
    kron_sum,
    mult_compound,
)
from .dynamics import (
    ConvergenceSummary,
    IntegrationError,
    TrajectoryRecord,
    VolumeFit,
    detect_equilibrium_convergence,
    fit_exponential_rate,
    gram_volume,
    integrate,
    integrate_many,
    parallelotope_volume,
    variational_flow,
    volume_growth_rate,
)
from .indexing import (
    BlockPermutation,
    DimensionGuardError,
    build_permutation,
)
from .measures import (
    L1,
    L2,
    LINF,
    HierarchicNormSpec,
    MeasureKind,
    compound_measure,
    hierarchic_measure_bounds,
    hierarchic_operator_norm_upper,
    induced_norm,
    interval_measure_upper,
    matrix_measure,
    parse_kind,
)
from .systems import (
    STANDARD_INITIAL_CONDITIONS,
    THOMAS_D,
    Box,
    EntryBounds,
    FeedbackModel,
    SeriesModel,
    SystemModel,
    invariant_box,
    lti,
    lti_series,
    lti_series_zeta,
    remark2,
    thomas,
    thomas_controlled,
    thomas_controller_gain,
    thomas_perturbed,
    thomas_perturbed_field,
)

__version__ = "0.1.0"
