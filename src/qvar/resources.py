"""Closed-form qubit accounting for the pipeline variants.

Two widths are reported.  width_paper_layout follows the published register
accounting, where the flexible comparator consumes one amplitude-function
ancilla per asset (hence the 2K term); width_built is what the circuits in
this package actually allocate, which is never larger because the
enumeration-based comparator needs no ancillas.  Both come from model_layout and
objective_qubit, which check the model and the mode (no count reads the encoding),
and no rule is repeated here; gate counts live beside their builders (comparator_gates).
"""

from __future__ import annotations

from dataclasses import dataclass

from .objective import objective_qubit
from .uncertainty import Portfolio, model_layout


@dataclass
class ResourceReport:
    variant: str
    mode: str
    width_paper_layout: int
    width_built: int
    rotation_count: int
    comparator_pattern_count: int
    sum_register_width: int | None = None


def estimate_resources(portfolio: Portfolio, grids, variant: str, encoding: str,
                       mode: str) -> ResourceReport:
    """Qubit/gate accounting for one pipeline configuration.

    rotation_count is the number of controlled linear-rotation blocks of the
    scalable (linear) encoding: K*R for the multi-rotation variant, K for the
    single-rotation one.  comparator_pattern_count is the worst-case number
    of comparison patterns (2**K direct patterns for s_free, 2**n_S sum-value
    patterns for the legacy mode).  sum_register_width is weighted_sum's loss
    register, else single_rotation's index sum.  The variant is reported as given.
    """
    model, plan = model_layout(portfolio, grids, variant, encoding)
    width_built = objective_qubit(portfolio, model, mode) + 1
    n_s = width_built - 1 - model.n_qubits      # weighted_sum's loss register
    k = portfolio.k
    return ResourceReport(
        variant=variant,
        mode=mode,
        # s_free's published layout spends one amplitude-function ancilla per asset.
        width_paper_layout=width_built + k if mode == "s_free" else width_built,
        width_built=width_built,
        rotation_count=k if plan else k * portfolio.r,
        comparator_pattern_count=2 ** k if mode == "s_free" else 2 ** n_s,
        sum_register_width=n_s or len(model.ancilla_qubits) or None,
    )
