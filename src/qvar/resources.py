"""Closed-form qubit and gate accounting for the pipeline variants.

Two widths are reported.  width_paper_layout follows the published register
accounting, where the flexible comparator consumes one amplitude-function
ancilla per asset (hence the 2K term); width_built is what the circuits in
this package actually allocate, which is never larger because the
enumeration-based comparator needs no ancillas.
"""

from __future__ import annotations

from dataclasses import dataclass

from .objective import MODES, weighted_sum_register
from .uncertainty import (VARIANTS, Portfolio, check_shared_alphas, check_single_factor,
                          index_sum_plan)


@dataclass
class ResourceReport:
    variant: str
    mode: str
    width_paper_layout: int
    width_built: int
    rotation_count: int
    comparator_pattern_count: int
    sum_register_width: int | None = None


def model_gates(portfolio: Portfolio, grids: list, variant: str,
                encoding: str) -> tuple[int, int]:
    """build_model's (gates, control entries), unbuilt: upper bounds, as builders skip
    zero angles.  Factor loaders take sum(2**q - 1) gates; then exact encoding adds
    K*M rotations with sum(q) controls each, linear encoding K*(1 + sum(q)) rotations,
    and single_rotation an index adder, K*(1 + n_sum) rotations and the adder's inverse."""
    qs = [g.n_z for g in grids]
    k, total = portfolio.k, sum(qs)
    gates = sum(2 ** q - 1 for q in qs)
    controls = sum((q - 2) * 2 ** q + 2 for q in qs)    # 2**d loader gates with d controls
    if variant == "single_rotation":
        plan = index_sum_plan(grids, portfolio.assets[0].alphas)
        # Bit j of a factor register increments the sum's top n_sum - j qubits.
        incs = [plan.n_sum - j for q, n in zip(qs, plan.n_points)
                for j in range(min(q, plan.n_sum)) if 1 << j <= n - 1]
        gates += 2 * sum(incs) + k * (1 + plan.n_sum)
        controls += sum(m * (m + 1) for m in incs) + k * plan.n_sum
    elif encoding == "exact":
        gates += k * 2 ** total
        controls += k * 2 ** total * total
    else:
        gates += k * (1 + total)
        controls += k * total
    return gates, controls


def comparator_gates(portfolio: Portfolio, mode: str) -> tuple[int, int]:
    """The comparator's (gates, control entries) at its largest threshold, unbuilt:
    s_free's 2**K pattern-controlled X gates with K controls each; weighted_sum's at
    most 2**n_s flips with n_s controls each, between its adder and un-adder."""
    k = portfolio.k
    if mode == "s_free":
        return 2 ** k, k * 2 ** k
    lgds, n_s = weighted_sum_register(portfolio)
    # Bit j of an LGD increments the register's top n_s - j qubits under one control.
    incs = [n_s - j for lgd in lgds for j in range(n_s) if lgd >> j & 1]
    return 2 ** n_s + 2 * sum(incs), n_s * 2 ** n_s + sum(m * (m + 1) for m in incs)


def estimate_resources(portfolio: Portfolio, grids, variant: str = "multi_rotation",
                       mode: str = "s_free") -> ResourceReport:
    """Qubit/gate accounting for one pipeline configuration.

    rotation_count is the number of controlled linear-rotation blocks of the
    scalable (linear) encoding: K*R for the multi-rotation variant, K for the
    single-rotation one.  comparator_pattern_count is the worst-case number
    of comparison patterns (2**K direct patterns for s_free, 2**n_S sum-value
    patterns for the legacy mode).  single_factor is the R = 1 case of the
    multi-rotation variant and is reported as multi_rotation.
    """
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}")
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}")
    grids = list(grids)
    if len(grids) != portfolio.r:
        raise ValueError(f"expected {portfolio.r} grids, got {len(grids)}")
    k = portfolio.k

    # build_model's width, unbuilt: the factor registers, single_rotation's index sum
    # and the assets, once the variant's factor or weight rule holds.
    sum_width = None
    if variant == "single_factor":
        check_single_factor(portfolio)
    elif variant == "single_rotation":
        check_shared_alphas(portfolio, portfolio.assets[0].alphas)
        sum_width = index_sum_plan(grids, portfolio.assets[0].alphas).n_sum
    base = sum(g.n_z for g in grids) + k + (sum_width or 0)
    variant = "multi_rotation" if variant == "single_factor" else variant
    rotation_count = k if variant == "single_rotation" else k * portfolio.r

    if mode == "s_free":
        width_paper = base + k + 1          # one amplitude-function ancilla per asset
        width_built = base + 1
        patterns = 2 ** k
    else:
        _, n_s = weighted_sum_register(portfolio)
        width_paper = base + n_s + 1
        width_built = base + n_s + 1        # the built adder needs no carries
        patterns = 2 ** n_s
        sum_width = n_s                     # the loss register, not the index adder

    return ResourceReport(
        variant=variant,
        mode=mode,
        width_paper_layout=width_paper,
        width_built=width_built,
        rotation_count=rotation_count,
        comparator_pattern_count=patterns,
        sum_register_width=sum_width,
    )
