"""Cutoff times, mixing times and Monte Carlo verification for multivariate
geometric Brownian motion with commuting or first-order non-commuting
coefficient matrices."""

from .commutative_cutoff import (
    cutoff_time_commutative,
    cutoff_time_from_rate,
    drift_mean_square,
    effective_drift,
    mean_square_commutative,
    profile_limit,
)
from .cubic_solver import CubicCoefficients, cardano_unique_real, correction_root, solve_log_cubic
from .errors import ToolkitError
from .hypothesis_checks import HypothesisReport, check_hypotheses, check_pair, nilpotence_diagnostic
from .linalg_core import (
    EigDecomposition,
    commutator,
    is_hurwitz,
    matrix_exp,
    sym_eig,
    simultaneous_diagonalize,
)
from .mixing import MixingTimeResult, mixing_ratio_check, mixing_time
from .noncommutative_cutoff import (
    CutoffSchedule,
    ModeDecomposition,
    cutoff_schedule_first_order,
    example35_check,
    gamma_matrices,
    mean_square_first_order,
    mode_decomposition,
    select_dominant_mode,
    synthetic_from_dict,
    synthetic_mode_decomposition,
)
from .simulate import (
    BrownianPath,
    MCEstimate,
    estimate_mean_square,
    euler_maruyama,
    magnus_exponent,
    sample_exact_first_order,
    sample_gaussian_pair,
    sample_gaussian_pairs,
)
from .spectral_asymptotics import SpectralAsymptotics, extract_asymptotics
from .system import GBMSystem

__all__ = [
    "BrownianPath",
    "CubicCoefficients",
    "CutoffSchedule",
    "EigDecomposition",
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
    "drift_mean_square",
    "effective_drift",
    "estimate_mean_square",
    "euler_maruyama",
    "example35_check",
    "extract_asymptotics",
    "gamma_matrices",
    "is_hurwitz",
    "magnus_exponent",
    "matrix_exp",
    "mean_square_commutative",
    "mean_square_first_order",
    "mixing_ratio_check",
    "mixing_time",
    "mode_decomposition",
    "nilpotence_diagnostic",
    "profile_limit",
    "sample_exact_first_order",
    "sample_gaussian_pair",
    "sample_gaussian_pairs",
    "select_dominant_mode",
    "solve_log_cubic",
    "sym_eig",
    "simultaneous_diagonalize",
    "synthetic_from_dict",
    "synthetic_mode_decomposition",
]

__version__ = "0.1.0"
