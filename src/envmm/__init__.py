"""Worst-case quadratic projection over covariance-dominated ensembles."""

from .covariance import (
    BlockCovariance,
    dense_subset_check,
    loewner_dominates,
    loewner_order,
    order_spectrum,
    push_forward,
)
from .cost_minimizer import (
    CostSplit,
    HSOperator,
    NoMinimizer,
    NormalEquationSystem,
    SolutionSet,
    assemble_normal_equations,
    coercivity_margin,
    cost,
    cost_decomposed,
    cost_difference_bound,
    gram_spectrum,
    residual_norm,
    solution_set,
    solve_coercive,
    solve_pseudoinverse,
    system_cost,
)
from .envelope import (
    ClosureReport,
    EnvelopeReport,
    closure_regression,
    fit_baseline,
    is_member,
    sample_dominated,
    verify_extremal,
)
from .errors import (
    BadConfig,
    BadGrid,
    BadTruncation,
    DegenerateSpec,
    EmbeddingNotPSD,
    EnvmmError,
    NotCoercive,
    ShapeMismatch,
    WrongDimension,
)
from .measure_ensemble import (
    BaselineEnsemble,
    BaselineSpec,
    MeasureSpace,
    SourceEnsemble,
    cross_moment,
    ensemble_distance,
    ensemble_from_csv,
    ensemble_norm,
    ensemble_to_csv,
    second_moment,
)
from .representation import (
    EllipticConfig,
    ObservedEnsemble,
    RepresentationOperator,
    apply,
    build_elliptic_representation,
    green_apply,
    green_functional,
    truncation_residual,
)
from .stationary import (
    CovarianceSequence,
    LTIModel,
    OracleReport,
    SpectralDensity,
    WienerSymbol,
    circulant_matrix,
    circulant_oracle,
    lti_blocks,
    spectral_density,
    spectral_margins,
    wiener_symbol,
    wss_envelope_order,
    wss_envelope_test,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
