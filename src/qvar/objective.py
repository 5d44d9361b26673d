"""Comparison operator turning an uncertainty model into the estimation circuit.

The A register is [model][sum register, weighted_sum only][objective].
comparators(portfolio, model, mode) is the one place a comparator is wired onto
a built model's asset qubits, and comparator_gates counts its gates unbuilt;
build_a_circuit is the model's gates, then one threshold's comparator gates.
Two modes build the "total loss <= x" flag:

* s_free: reads the asset qubits directly; every default pattern whose loss
  stays within the threshold flips the objective through one pattern-
  controlled X.  Losses come from the portfolio's loss table at build time,
  so LGD values may be arbitrary nonnegative reals.
* weighted_sum: the legacy construction; accumulates integer LGDs into a sum
  register, compares the register against the threshold, then uncomputes.
  Kept as the integer-only reference the s_free mode is checked against.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from . import arith
from .circuit import Circuit
from .uncertainty import ModelCircuit, Portfolio, build_model

MODES = ("s_free", "weighted_sum")


@dataclass(eq=False)
class ObjectiveCircuit:
    """Full estimation operator with its flag qubit and threshold."""

    circuit: Circuit
    objective_qubit: int
    mode: str
    threshold: float


def n_sum_qubits(lgds) -> int:
    """Width of the legacy loss register: floor(log2(sum LGD)) + 1."""
    lgds = [int(v) for v in lgds]
    if not lgds or any(v < 0 for v in lgds):
        raise ValueError("need a nonempty list of nonnegative integers")
    total = sum(lgds)
    if total < 1:
        raise ValueError("sum of LGDs must be at least 1")
    return int(math.floor(math.log2(total))) + 1


def weighted_sum_register(portfolio: Portfolio) -> tuple[list[int], int]:
    """Integer LGDs and loss-register width of the weighted_sum mode.

    Raises ValueError naming the first asset whose LGD is not an integer.
    """
    lgds = []
    for k, asset in enumerate(portfolio.assets):
        if float(asset.lgd) != int(asset.lgd):
            raise ValueError(
                f"asset {k} has non-integer LGD {asset.lgd}; the weighted_sum mode "
                f"only supports integer losses (use s_free instead)")
        lgds.append(int(asset.lgd))
    return lgds, n_sum_qubits(lgds) if sum(lgds) > 0 else 1


def build_s_free_comparator(portfolio: Portfolio, threshold: float, objective: int,
                            asset_qubits, n_qubits: int) -> Circuit:
    """Pattern-enumeration comparator on the asset qubits: one pattern-controlled X
    on the objective per default pattern whose loss is within the threshold (at
    most 2**K gates)."""
    if not math.isfinite(threshold):
        raise ValueError("threshold must be finite")
    circ = Circuit(n_qubits)
    pairs = [((q, 0), (q, 1)) for q in asset_qubits]    # one of each, shared by every gate
    for pattern, loss in zip(itertools.product((0, 1), repeat=portfolio.k),
                             portfolio.pattern_losses()):
        if loss <= threshold:
            circ.x(objective, controls=tuple(pair[bit] for pair, bit in zip(pairs, pattern)))
    return circ


def build_weighted_sum(portfolio: Portfolio, threshold: float, objective: int,
                       asset_qubits, sum_qubits, n_qubits: int) -> Circuit:
    """Legacy comparator: integer loss adder into sum_qubits, threshold flip, un-adder.

    The adder works through multi-controlled increments, so no carry ancillas
    are allocated.
    """
    if not math.isfinite(threshold):
        raise ValueError("threshold must be finite")
    lgds, _ = weighted_sum_register(portfolio)
    circ = Circuit(n_qubits)

    adder = arith.weighted_sum_gates(asset_qubits, lgds, sum_qubits)
    circ.extend(adder)
    limit = min(int(math.floor(threshold)), 2 ** len(sum_qubits) - 1)
    for value in range(0, limit + 1):
        pattern = tuple((q, (value >> j) & 1) for j, q in enumerate(sum_qubits))
        circ.x(objective, controls=pattern)
    circ.extend(g.adjoint() for g in reversed(adder))
    return circ


def objective_qubit(portfolio: Portfolio, model: ModelCircuit, mode: str) -> int:
    """Index of the objective qubit, the top of the A register (objective + 1 wide),
    on a built or a model_layout model: the one check of the mode."""
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}")
    width = model.circuit.n_qubits
    return width if mode == "s_free" else width + weighted_sum_register(portfolio)[1]


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


def comparators(portfolio: Portfolio, model: ModelCircuit,
                mode: str) -> Callable[[float], ObjectiveCircuit]:
    """The comparators of one run's thresholds on a built model, threshold -> ObjectiveCircuit.

    Each circuit spans the whole A register but holds only the comparator gates,
    so one simulation of the model can serve every threshold.  s_free builds its
    2**K pattern-controlled X gates once, in product order; each threshold's
    circuit holds those whose pattern loses at most the threshold, which is the
    gate list build_s_free_comparator builds.  weighted_sum builds each
    threshold's comparator.
    """
    objective = objective_qubit(portfolio, model, mode)   # refuses a bad mode or LGD now
    n_qubits = objective + 1
    if mode == "weighted_sum":
        sum_qubits = list(range(model.circuit.n_qubits, objective))
        return lambda threshold: ObjectiveCircuit(
            build_weighted_sum(portfolio, threshold, objective, model.asset_qubits,
                               sum_qubits, n_qubits), objective, mode, threshold)
    losses = portfolio.pattern_losses()
    # Every pattern loses at most the largest loss, so this holds all 2**K gates.
    gates = build_s_free_comparator(portfolio, float(losses.max()), objective,
                                    model.asset_qubits, n_qubits).gates

    def comparator(threshold: float) -> ObjectiveCircuit:
        if not math.isfinite(threshold):
            raise ValueError("threshold must be finite")
        within = [gates[i] for i in np.flatnonzero(losses <= threshold)]
        return ObjectiveCircuit(Circuit(n_qubits, within), objective, mode, threshold)
    return comparator


def build_a_circuit(portfolio: Portfolio, grids, threshold: float, *,
                    variant: str = "multi_rotation", encoding: str = "exact",
                    mode: str = "s_free") -> ObjectiveCircuit:
    """Build the complete estimation operator for one threshold: model, then comparator."""
    model = build_model(portfolio, grids, variant, encoding)
    comparator = comparators(portfolio, model, mode)(threshold)
    return ObjectiveCircuit(
        Circuit(comparator.circuit.n_qubits, model.circuit.gates + comparator.circuit.gates),
        comparator.objective_qubit, mode, threshold)
