"""Comparison operator turning an uncertainty model into the estimation circuit.

The A register is [model][sum register, weighted_sum only][objective]: the
objective is its top qubit, so objective_qubit + 1 is the A circuit's width.
comparator(portfolio, model, mode, threshold, above) is the one place a
comparator is wired onto a built model's asset qubits: the gates that flip the
objective for losses in (above, threshold], so compare can step one state from
threshold to threshold.  comparator_gates counts its gates unbuilt.  One
threshold's whole A circuit, the model's gates then its comparator, is the test
oracle tests/oracles.build_a_circuit.
Two modes build the "total loss <= x" flag:

* s_free: reads the asset qubits directly; every default pattern whose loss
  stays within the threshold flips the objective through one pattern-
  controlled X.  Losses come from the portfolio's loss table at build time,
  so LGD values may be arbitrary nonnegative reals.
* weighted_sum: the legacy construction; accumulates integer LGDs into a sum
  register, compares the register against the threshold, then uncomputes it
  by the adder's gates reversed: every adder gate is an X, its own inverse.
  Kept as the integer-only reference the s_free mode is checked against.
"""

from __future__ import annotations

import math

import numpy as np

from . import arith
from .circuit import Gate
from .uncertainty import ModelCircuit, Portfolio

MODES = ("s_free", "weighted_sum")


def weighted_sum_register(portfolio: Portfolio) -> tuple[list[int], int]:
    """Integer LGDs and loss-register width of the weighted_sum mode: the bit length of
    the LGDs' sum, at least 1, as index_sum_plan sizes its sum register.

    Raises ValueError naming the first asset whose LGD is not an integer.
    """
    lgds = []
    for k, asset in enumerate(portfolio.assets):
        if float(asset.lgd) != int(asset.lgd):
            raise ValueError(
                f"asset {k} has non-integer LGD {asset.lgd}; the weighted_sum mode "
                f"only supports integer losses (use s_free instead)")
        lgds.append(int(asset.lgd))
    return lgds, max(1, sum(lgds).bit_length())


def objective_qubit(portfolio: Portfolio, model: ModelCircuit, mode: str) -> int:
    """Index of the objective qubit, the top of the A register (objective + 1 wide),
    on a built or a model_layout model: the one check of the mode."""
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}")
    width = model.n_qubits
    return width if mode == "s_free" else width + weighted_sum_register(portfolio)[1]


def comparator_gates(portfolio: Portfolio, mode: str) -> tuple[int, int]:
    """The comparator's (gates, control entries) at its largest threshold, unbuilt:
    s_free's 2**K pattern-controlled X gates with K controls each; weighted_sum's at
    most 2**n_s flips with n_s controls each, between its adder and un-adder."""
    k = portfolio.k
    if mode == "s_free":
        return 2 ** k, k * 2 ** k
    lgds, n_s = weighted_sum_register(portfolio)
    gates, controls = arith.weighted_sum_size(lgds, n_s)
    return 2 ** n_s + gates, n_s * 2 ** n_s + controls


def comparator(portfolio: Portfolio, model: ModelCircuit, mode: str, threshold: float,
               above: float = -math.inf) -> list[Gate]:
    """The comparator gates that flip the objective for every loss in (above, threshold],
    on a built model's A register.

    s_free: one pattern-controlled X per default pattern whose loss lies in that
    range, in product order.  weighted_sum: the integer loss adder into the sum
    register, one X per register value in (floor(above), floor(threshold)], then
    the adder reversed.  Every gate is an X, so applying the increments of ascending
    thresholds in turn gives the same amplitudes, bit for bit, as the last
    threshold's comparator from above = -inf.
    """
    objective = objective_qubit(portfolio, model, mode)   # refuses a bad mode or LGD
    if not math.isfinite(threshold):
        raise ValueError("threshold must be finite")
    if mode == "s_free":
        k, losses, order = portfolio.k, portfolio.pattern_losses, portfolio.loss_order
        pairs = [((q, 0), (q, 1)) for q in model.asset_qubits]   # shared by every gate
        lo, hi = losses.searchsorted([above, threshold], "right", sorter=order)
        return [Gate("x", objective,
                     controls=tuple(pair[i >> (k - 1 - j) & 1] for j, pair in enumerate(pairs)))
                for i in np.sort(order[lo:hi]).tolist()]
    # No carry ancillas: the adder works through multi-controlled increments.
    lgds, n_s = weighted_sum_register(portfolio)
    sum_qubits = range(objective - n_s, objective)
    adder = arith.weighted_sum_gates(model.asset_qubits, lgds, sum_qubits)
    first = math.floor(max(above, -1.0)) + 1          # register values are nonnegative
    last = min(math.floor(threshold), 2 ** n_s - 1)
    flips = [Gate("x", objective,
                  controls=tuple((q, value >> j & 1) for j, q in enumerate(sum_qubits)))
             for value in range(first, last + 1)]
    return adder + flips + adder[::-1]
