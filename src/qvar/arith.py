"""Reversible integer arithmetic built from multi-controlled gates.

The adders here work entirely through control patterns, so no carry ancillas
are needed: an increment of a w-qubit register costs w multi-controlled X
gates with up to w controls.  That trades depth for width, which is the right
trade at desk-verification scale.
"""

from __future__ import annotations

from .circuit import Gate


def increment_gates(register, controls=()) -> list[Gate]:
    """Add 1 (mod 2**len(register)) to a little-endian register.

    `register` lists qubit indices from least to most significant; the whole
    operation can carry an extra control pattern.
    """
    register = list(register)
    base = tuple(controls)
    gates = []
    for i in reversed(range(len(register))):
        ctrl = base + tuple((register[j], 1) for j in range(i))
        gates.append(Gate("x", register[i], controls=ctrl))
    return gates


def add_constant_gates(register, value: int, controls=()) -> list[Gate]:
    """Add a nonnegative classical constant (mod 2**len(register)) under a control pattern."""
    register = list(register)
    value &= (1 << len(register)) - 1
    gates = []
    for j in range(len(register)):
        if (value >> j) & 1:
            gates.extend(increment_gates(register[j:], controls))
    return gates


def weighted_sum_size(weights, width: int) -> tuple[int, int]:
    """(gates, control entries) of weighted_sum_gates and its inverse, unbuilt: bit j of a
    weight is an increment of the top width - j qubits, m gates with m(m + 1) / 2 controls."""
    incs = [width - j for weight in weights for j in range(width) if int(weight) >> j & 1]
    return 2 * sum(incs), sum(m * (m + 1) for m in incs)


def weighted_sum_gates(inputs, weights, sum_register) -> list[Gate]:
    """Accumulate sum_k weights[k] * inputs[k] into a little-endian register.

    Each input is a single qubit holding a 0/1 value, with one nonnegative integer
    weight each: weighted_sum_register's LGDs, which it checks, or the index adder's
    powers of two.
    """
    gates = []
    for qubit, weight in zip(inputs, weights):
        if weight:
            gates.extend(add_constant_gates(sum_register, weight, controls=((qubit, 1),)))
    return gates
