"""Exact hypothesis tests on the mean of the super-resolution Gaussian
process: grid-less knot certificates, Kac-Rice and randomized-grid tests,
Karhunen-Loeve variance estimators, a continuation path over complex
measures, and the Monte-Carlo harness behind the calibration figures.
"""

from .errors import (
    DegenerateProcess,
    NonPositiveDenominator,
    NotAMaximum,
    OutOfRange,
    SchemaError,
    SrknotsError,
)
from .knots import (
    KnotCertificate,
    compute_certificate,
    first_knot,
    hessian_and_alphas,
    second_knot,
)
from .lars import LarsKnot, LarsOptions, LarsPath, export_csv, lars_residual, lars_run
from .mc import (
    AlternativeSpec,
    EcdfTable,
    ExperimentConfig,
    ExperimentTable,
    ecdf_multi,
    emit_csv,
    emit_svg,
    empirical_level,
    ks_uniform,
    reproduce_figure,
    run_experiment,
)
from .model import (
    AtomicMeasure,
    ModelContext,
    Observation,
    TorusPoint,
    kernel_gamma,
    load_observation,
    save_observation,
    synthesize,
    z_eval,
)
from .numerics import RngStream
from .stats import (
    TestReport,
    grid_knots,
    grid_spacing_test,
    grid_test_known,
    grid_test_unknown,
    h_bar_closed,
    lambda2_bar,
    rice_known,
    rice_unknown,
    spacing_statistic,
    voronoi_sample,
)
from .variance import VarianceEstimate, sigma_hat_cond, sigma_hat_grid

__version__ = "0.1.0"

__all__ = [
    "AlternativeSpec",
    "AtomicMeasure",
    "DegenerateProcess",
    "EcdfTable",
    "ExperimentConfig",
    "ExperimentTable",
    "KnotCertificate",
    "LarsKnot",
    "LarsOptions",
    "LarsPath",
    "ModelContext",
    "NonPositiveDenominator",
    "NotAMaximum",
    "Observation",
    "OutOfRange",
    "RngStream",
    "SchemaError",
    "SrknotsError",
    "TestReport",
    "TorusPoint",
    "VarianceEstimate",
    "compute_certificate",
    "ecdf_multi",
    "emit_csv",
    "emit_svg",
    "empirical_level",
    "export_csv",
    "first_knot",
    "grid_knots",
    "grid_spacing_test",
    "grid_test_known",
    "grid_test_unknown",
    "h_bar_closed",
    "hessian_and_alphas",
    "kernel_gamma",
    "ks_uniform",
    "lambda2_bar",
    "lars_residual",
    "lars_run",
    "load_observation",
    "reproduce_figure",
    "rice_known",
    "rice_unknown",
    "run_experiment",
    "save_observation",
    "second_knot",
    "sigma_hat_cond",
    "sigma_hat_grid",
    "spacing_statistic",
    "synthesize",
    "voronoi_sample",
    "z_eval",
]
