"""Cutoff times, mixing times and Monte Carlo verification for multivariate
geometric Brownian motion with commuting or first-order non-commuting
coefficient matrices."""

from .commutative_cutoff import (
    cutoff_time_commutative,
    cutoff_time_from_rate,
    drift_evaluator,
    drift_mean_square,
    effective_drift,
    mean_square_commutative,
    profile_limit,
)
from .cubic_solver import (
    CubicCoefficients,
    CutoffSchedule,
    cardano_unique_real,
    correction_root,
    solve_log_cubic,
)
from .errors import ToolkitError
from .hypothesis_checks import HypothesisReport, check_hypotheses, check_pair
from .linalg_core import (
    commutator,
    expm_stack,
    simultaneous_diagonalize,
)
from .mixing import MixingTimeResult, mixing_ratio_check, mixing_time
from .noncommutative_cutoff import (
    ModeDecomposition,
    cutoff_schedule_first_order,
    example35_check,
    mean_square_first_order,
    mode_decomposition,
    select_dominant_mode,
    synthetic_mode_decomposition,
)
from .simulate import (
    BrownianPath,
    MCEstimate,
    estimate_mean_square,
    estimate_mean_squares,
    euler_maruyama,
    exact_mean_square,
    magnus_exponent,
    sample_exact_first_order,
    sample_gaussian_pair,
    sample_gaussian_pairs,
)
from .spectral_asymptotics import SpectralAsymptotics, extract_asymptotics, is_hurwitz
from .system import GBMSystem

__all__ = [
    "BrownianPath",
    "CubicCoefficients",
    "CutoffSchedule",
    "GBMSystem",
    "HypothesisReport",
    "MCEstimate",
    "MixingTimeResult",
    "ModeDecomposition",
    "SpectralAsymptotics",
    "ToolkitError",
    "cardano_unique_real",
    "check_hypotheses",
    "check_pair",
    "commutator",
    "correction_root",
    "cutoff_schedule_first_order",
    "cutoff_time_commutative",
    "cutoff_time_from_rate",
    "drift_evaluator",
    "drift_mean_square",
    "effective_drift",
    "estimate_mean_square",
    "estimate_mean_squares",
    "euler_maruyama",
    "exact_mean_square",
    "example35_check",
    "expm_stack",
    "extract_asymptotics",
    "is_hurwitz",
    "magnus_exponent",
    "mean_square_commutative",
    "mean_square_first_order",
    "mixing_ratio_check",
    "mixing_time",
    "mode_decomposition",
    "profile_limit",
    "sample_exact_first_order",
    "sample_gaussian_pair",
    "sample_gaussian_pairs",
    "select_dominant_mode",
    "solve_log_cubic",
    "simultaneous_diagonalize",
    "synthetic_mode_decomposition",
]

__version__ = "0.1.0"
