"""Worst-case quadratic projection over covariance-dominated ensembles."""

from .covariance import (
    BlockCovariance,
    dense_subset_check,
    loewner_dominates,
    order_spectrum,
    push_forward,
)
from .cost_minimizer import (
    CostSplit,
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
    solve_pseudoinverse,
    system_cost,
)
from .envelope import (
    EnvelopeReport,
    fit_baseline,
    is_member,
    sample_dominated,
    verify_extremal,
)
from .errors import (
    BadConfig,
    BadGrid,
    DegenerateSpec,
    EnvmmError,
    ShapeMismatch,
)
from .measure_ensemble import (
    MeasureSpace,
    SourceEnsemble,
    cross_moment,
    ensemble_distance,
    ensemble_norm,
    second_moment,
)
from .representation import (
    EllipticConfig,
    ObservedEnsemble,
    RepresentationOperator,
    apply,
    build_elliptic_representation,
    green_apply,
    truncation_residual,
)
from .stationary import (
    CovarianceSequence,
    OracleReport,
    circulant_matrix,
    circulant_oracle,
    spectral_density,
    wiener_symbol,
    wss_envelope_test,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
