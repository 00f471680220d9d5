"""Estimation in multivariate regression with measurement errors under linear
restrictions: corrected and restricted estimators, their joint asymptotic laws,
asymptotic risk comparisons, and a Monte Carlo verification harness."""

from .asymptotics import (AsymptoticLaw, PopulationModel,
                          closed_form_score_cov, estimate_score_cov, joint_law,
                          law_inputs, limit_map, mean_shift,
                          named_weight_limit, population)
from .config import RunConfig, load_config, parse_config
from .estimators import Attenuation, build_kx, estimate_all, lse, restricted
from .linalg import (AffineTransform, MatrixNormal, eig_extremes, kron, rvec,
                     sample_matrix_normal, transform_cov_block, unrvec, vec)
from .model import (Dataset, DesignRule, ModelConfig, Restriction, generate,
                    make_restricted_b)
from .montecarlo import (EmpiricalSummary, SimulationPlan, affine_limit_suite,
                         compare_law, run_plan)
from .risk import (ADRReport, DriftFreeReport, adr_from_law, adr_restricted,
                   adr_unrestricted, bias_form, dominance_report,
                   efficiency_curve)

__version__ = "0.1.0"

__all__ = [
    "ADRReport", "AffineTransform", "AsymptoticLaw", "Attenuation",
    "Dataset", "DesignRule", "DriftFreeReport", "EmpiricalSummary",
    "MatrixNormal", "ModelConfig", "PopulationModel", "Restriction",
    "RunConfig", "SimulationPlan", "adr_from_law",
    "adr_restricted", "adr_unrestricted", "affine_limit_suite", "bias_form",
    "build_kx", "closed_form_score_cov", "compare_law",
    "dominance_report", "efficiency_curve", "eig_extremes",
    "estimate_all", "estimate_score_cov", "generate", "joint_law", "kron",
    "law_inputs", "limit_map", "load_config", "lse", "make_restricted_b", "mean_shift",
    "named_weight_limit", "parse_config",
    "population", "restricted", "run_plan", "rvec", "sample_matrix_normal",
    "transform_cov_block", "unrvec", "vec",
]
