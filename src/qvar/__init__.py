"""Credit-risk VaR engine on an embedded statevector simulator.

Builds uncertainty models with one or several systemic risk factors, turns
them into threshold-comparison circuits, estimates cumulative loss
probabilities either exactly or through iterative amplitude estimation, and
verifies everything against classical enumeration and Monte Carlo oracles.
"""

from .circuit import Gate, marginal_probability, zero_state
from .estimation import IqaeConfig, IqaeResult, clopper_pearson, iqae
from .gaussian import FactorGrid, std_normal_cdf, std_normal_pdf, std_normal_ppf
from .objective import comparator, weighted_sum_register
from .resources import ResourceReport, estimate_resources
from .risk import (BisectionProbe, LossDistribution, VarResult, cdf_estimator,
                   exact_loss_distribution, expected_loss, joint_grid, model_distribution,
                   monte_carlo_distribution, var_bisection)
from .uncertainty import Asset, ModelCircuit, Portfolio, build_model, model_table

__version__ = "0.1.0"

__all__ = [
    "Asset", "BisectionProbe", "FactorGrid", "Gate", "IqaeConfig",
    "IqaeResult", "LossDistribution", "ModelCircuit",
    "Portfolio", "ResourceReport", "VarResult",
    "build_model", "cdf_estimator", "clopper_pearson", "comparator",
    "estimate_resources",
    "exact_loss_distribution", "expected_loss", "iqae", "joint_grid",
    "marginal_probability", "model_distribution", "model_table", "monte_carlo_distribution",
    "std_normal_cdf", "std_normal_pdf", "std_normal_ppf",
    "var_bisection", "weighted_sum_register", "zero_state",
]
