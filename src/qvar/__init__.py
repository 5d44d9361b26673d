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
from .objective import (ObjectiveCircuit, build_a_circuit, comparator, n_sum_qubits,
                        weighted_sum_register)
from .resources import ResourceReport, estimate_resources
from .risk import (BisectionProbe, EstimationFailure, LossDistribution,
                   VarResult, cdf_estimator, economic_capital, exact_loss_distribution,
                   expected_loss, model_distribution, monte_carlo_distribution,
                   total_variation_distance, var_bisection)
from .uncertainty import (Asset, ModelCircuit, Portfolio, build_model, fit_linear_rotation,
                          model_table, probability_loader)

__version__ = "0.1.0"

__all__ = [
    "Asset", "BisectionProbe", "Circuit", "EstimationFailure", "FactorGrid",
    "Gate", "IqaeConfig",
    "IqaeResult", "LossDistribution", "ModelCircuit", "ObjectiveCircuit",
    "Portfolio", "ResourceReport", "Statevector", "VarResult", "apply",
    "build_a_circuit", "build_model", "cdf_estimator", "clopper_pearson",
    "comparator", "conditional_pd",
    "discretize_normal", "economic_capital", "estimate_resources",
    "exact_amplitude", "exact_loss_distribution", "expected_loss",
    "fit_linear_rotation", "grover_operator", "inverse", "iqae",
    "marginal_probability", "model_distribution", "model_table", "monte_carlo_distribution",
    "n_sum_qubits", "probabilities", "probability_loader", "std_normal_cdf",
    "std_normal_pdf", "std_normal_ppf", "total_variation_distance",
    "var_bisection", "weighted_sum_register", "zero_state",
]
