"""Estimation in multivariate regression with measurement errors under linear
restrictions: corrected and restricted estimators, their joint asymptotic laws,
asymptotic risk comparisons, and a Monte Carlo verification harness.

The package exports the names of README's quick start; everything else is
imported from its module, e.g. ``from eivreg.montecarlo import run_plan``."""

from .asymptotics import (closed_form_score_cov, joint_law, law_inputs,
                          named_weight_limit, population)
from .config import load_config
from .estimators import estimate_all
from .model import generate, make_restricted_b
from .risk import adr_restricted, dominance_report

__version__ = "0.1.0"

__all__ = [
    "adr_restricted", "closed_form_score_cov", "dominance_report",
    "estimate_all", "generate", "joint_law", "law_inputs", "load_config",
    "make_restricted_b", "named_weight_limit", "population",
]
