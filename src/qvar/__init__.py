"""Credit-risk VaR engine on an embedded statevector simulator.

Builds uncertainty models with one or several systemic risk factors, turns
them into threshold-comparison circuits, estimates cumulative loss
probabilities either exactly or through iterative amplitude estimation, and
verifies everything against classical enumeration and Monte Carlo oracles.
"""

from .circuit import (Circuit, Gate, Statevector, apply, inverse,
                      marginal_probability, probabilities, zero_state)
from .estimation import (IqaeConfig, IqaeResult, clopper_pearson,
                         exact_amplitude, grover_operator, iqae)
from .gaussian import (FactorGrid, conditional_pd, discretize_normal,
                       std_normal_cdf, std_normal_pdf, std_normal_ppf)
from .objective import build_a_circuit, comparator, weighted_sum_register
from .resources import ResourceReport, estimate_resources
from .risk import (BisectionProbe, EstimationFailure, LossDistribution,
                   VarResult, cdf_estimator, exact_loss_distribution,
                   expected_loss, model_distribution, monte_carlo_distribution,
                   total_variation_distance, var_bisection)
from .uncertainty import Asset, ModelCircuit, Portfolio, build_model, model_table

__version__ = "0.1.0"

__all__ = [
    "Asset", "BisectionProbe", "Circuit", "EstimationFailure", "FactorGrid",
    "Gate", "IqaeConfig",
    "IqaeResult", "LossDistribution", "ModelCircuit",
    "Portfolio", "ResourceReport", "Statevector", "VarResult", "apply",
    "build_a_circuit", "build_model", "cdf_estimator", "clopper_pearson",
    "comparator", "conditional_pd",
    "discretize_normal", "estimate_resources",
    "exact_amplitude", "exact_loss_distribution", "expected_loss",
    "grover_operator", "inverse", "iqae",
    "marginal_probability", "model_distribution", "model_table", "monte_carlo_distribution",
    "probabilities", "std_normal_cdf",
    "std_normal_pdf", "std_normal_ppf", "total_variation_distance",
    "var_bisection", "weighted_sum_register", "zero_state",
]
