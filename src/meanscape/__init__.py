"""meanscape: algebra, geometry and iteration theory of two-variable means."""

from .core import (
    ALL_REALS,
    AxiomReport,
    BracketError,
    ConvergenceError,
    DEFAULT_SEED,
    DomainError,
    Interval,
    InvalidMeanError,
    MeanFunction,
    NumericalError,
    POSITIVE_REALS,
    default_window,
    make_arithmetic,
    make_geometric,
    make_harmonic,
    sample_pairs,
    verify_axioms,
)
from .algebra import (
    AsymmetricFunction,
    OrderRelation,
    WeightFunction,
    classify_vs_arithmetic,
    compare_normal,
    group_inverse,
    group_symmetry,
    make_normal_mean,
    phi,
    phi_inverse,
    random_normal_mean,
    star,
)
from .metric import (
    BorderDiagnostic,
    DistanceEstimate,
    border_diagnostic,
    distance,
    distance_gh_certificate,
    distance_to_arithmetic,
    distance_via_phi,
    golden_section_max,
)
from .middle import (
    CompoundMean,
    IterationTrace,
    TraceStep,
    agm_fixed_point_check,
    coincidence_probe,
    compound,
    compound_trace,
    counterexample_check,
    functional_symmetric,
    functional_symmetric_mean,
    m_arithmetic,
    make_agm,
    sigma_closed_form,
)
from .expressions import (
    ExpressionError,
    EvaluationError,
    expr_to_mean,
    expr_to_weight,
    format_expression,
    mean_from_source,
    parse_mean_expr,
    parse_weight_expr,
    weight_from_source,
)

__version__ = "0.1.0"


def __getattr__(name: str):
    # loaded on first use: ``python -m meanscape.cli`` warns if the package imported it
    if name == "cli_run":
        from .cli import cli_run
        return cli_run
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
