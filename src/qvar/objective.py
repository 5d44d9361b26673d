"""Comparison operator turning an uncertainty model into the estimation circuit.

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
                            asset_qubits=None, n_qubits=None) -> Circuit:
    """Pattern-enumeration comparator on the asset qubits.

    By default the K asset qubits are taken to sit immediately below the
    objective qubit.  Gate count equals the number of default patterns whose
    loss is within the threshold (worst case 2**K).
    """
    if not math.isfinite(threshold):
        raise ValueError("threshold must be finite")
    k = portfolio.k
    if asset_qubits is None:
        asset_qubits = list(range(objective - k, objective))
    if n_qubits is None:
        n_qubits = objective + 1
    circ = Circuit(n_qubits)
    for pattern, loss in zip(itertools.product((0, 1), repeat=k), portfolio.pattern_losses()):
        if loss <= threshold:
            circ.x(objective, controls=tuple(zip(asset_qubits, pattern)))
    return circ


def build_weighted_sum(portfolio: Portfolio, objective: int, threshold: float,
                       asset_qubits=None, sum_qubits=None, n_qubits=None) -> Circuit:
    """Legacy comparator: integer loss adder, threshold flip, un-adder.

    Layout default: [... assets][sum register][objective].  The adder works
    through multi-controlled increments, so no carry ancillas are allocated.
    """
    if not math.isfinite(threshold):
        raise ValueError("threshold must be finite")
    lgds, n_s = weighted_sum_register(portfolio)
    k = portfolio.k
    if sum_qubits is None:
        sum_qubits = list(range(objective - n_s, objective))
    if asset_qubits is None:
        asset_qubits = list(range(objective - n_s - k, objective - n_s))
    if n_qubits is None:
        n_qubits = objective + 1
    circ = Circuit(n_qubits)

    adder = arith.weighted_sum_gates(asset_qubits, lgds, sum_qubits)
    circ.extend(adder)
    limit = min(int(math.floor(threshold)), 2 ** n_s - 1)
    for value in range(0, limit + 1):
        pattern = tuple((q, (value >> j) & 1) for j, q in enumerate(sum_qubits))
        circ.x(objective, controls=pattern)
    circ.extend(g.adjoint() for g in reversed(adder))
    return circ


def assemble_a(model: ModelCircuit, comparator: Circuit, objective: int,
               threshold: float = float("nan"), mode: str = "s_free") -> ObjectiveCircuit:
    """Concatenate an uncertainty model and a comparator into one operator."""
    n = comparator.n_qubits
    if model.circuit.n_qubits > n or objective >= n:
        raise ValueError(
            f"comparator spans {n} qubits; model needs {model.circuit.n_qubits} "
            f"and the objective sits at {objective}")
    circ = Circuit(n)
    circ.extend(model.circuit.gates)
    circ.extend(comparator.gates)
    return ObjectiveCircuit(circ, objective, mode, threshold)


def objective_qubit(portfolio: Portfolio, model: ModelCircuit, mode: str) -> int:
    """Index of the objective qubit, the top of the A register (objective + 1 wide).

    Register order is [model][sum register, weighted_sum only][objective].
    """
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}")
    width = model.circuit.n_qubits
    return width if mode == "s_free" else width + weighted_sum_register(portfolio)[1]


def build_comparator(portfolio: Portfolio, model: ModelCircuit, threshold: float,
                     mode: str) -> ObjectiveCircuit:
    """The comparator of one threshold, wired onto a built model's asset qubits.

    Its circuit spans the whole A register but holds only the comparator
    gates, so one simulation of the model can serve every threshold.
    """
    objective = objective_qubit(portfolio, model, mode)
    if mode == "s_free":
        comparator = build_s_free_comparator(
            portfolio, threshold, objective,
            asset_qubits=model.asset_qubits, n_qubits=objective + 1)
    else:
        comparator = build_weighted_sum(
            portfolio, objective, threshold,
            asset_qubits=model.asset_qubits,
            sum_qubits=list(range(model.circuit.n_qubits, objective)),
            n_qubits=objective + 1)
    return ObjectiveCircuit(comparator, objective, mode, threshold)


def comparators(portfolio: Portfolio, model: ModelCircuit,
                mode: str) -> Callable[[float], ObjectiveCircuit]:
    """build_comparator for the thresholds of one run, threshold -> ObjectiveCircuit.

    s_free builds its 2**K pattern-controlled X gates once, in product order; each
    threshold's circuit holds those whose pattern loses at most the threshold,
    which is the gate list build_comparator builds.  weighted_sum builds each
    threshold's comparator.
    """
    objective = objective_qubit(portfolio, model, mode)   # refuses a bad mode or LGD now
    if mode == "weighted_sum":
        return lambda threshold: build_comparator(portfolio, model, threshold, mode)
    losses = portfolio.pattern_losses()
    # Every pattern loses at most the largest loss, so this holds all 2**K gates.
    gates = build_s_free_comparator(portfolio, float(losses.max()), objective,
                                    asset_qubits=model.asset_qubits,
                                    n_qubits=objective + 1).gates

    def comparator(threshold: float) -> ObjectiveCircuit:
        if not math.isfinite(threshold):
            raise ValueError("threshold must be finite")
        within = [gates[i] for i in np.flatnonzero(losses <= threshold)]
        return ObjectiveCircuit(Circuit(objective + 1, within), objective, mode, threshold)
    return comparator


def build_a_circuit(portfolio: Portfolio, grids, threshold: float, *,
                    variant: str = "multi_rotation", encoding: str = "exact",
                    mode: str = "s_free") -> ObjectiveCircuit:
    """Build the complete estimation operator for one threshold: model, then comparator.

    Asset qubits sit at the top of the model block (see objective_qubit).
    """
    model = build_model(portfolio, grids, variant, encoding)
    comparator = build_comparator(portfolio, model, threshold, mode)
    return assemble_a(model, comparator.circuit, comparator.objective_qubit, threshold, mode)
