"""The reversible adder, built from multi-controlled X gates.

It works entirely through control patterns, so no carry ancillas are needed:
an increment of a w-qubit register costs w multi-controlled X gates with up to
w controls, trading depth for width, the right trade at desk-verification
scale.  Every gate is an X, its own inverse, so the adder reversed undoes it.
_increments is the one list of what a weighted sum adds, which
weighted_sum_gates builds and weighted_sum_size counts.
"""

from __future__ import annotations

from .circuit import Gate


def _increments(weights, width: int) -> list[tuple[int, int]]:
    """(input, j) for each set bit j of each weight masked to width bits: inputs in
    turn, bits ascending."""
    return [(k, j) for k, weight in enumerate(weights) for j in range(width)
            if int(weight) >> j & 1]


def weighted_sum_size(weights, width: int) -> tuple[int, int]:
    """(gates, control entries) of weighted_sum_gates and its inverse, unbuilt: an
    increment of m qubits is m gates with m(m + 1) / 2 controls."""
    incs = [width - j for _, j in _increments(weights, width)]
    return 2 * sum(incs), sum(m * (m + 1) for m in incs)


def weighted_sum_gates(inputs, weights, sum_register) -> list[Gate]:
    """Accumulate sum_k weights[k] * inputs[k] (mod 2**width) into a little-endian register.

    Each input is a single qubit holding a 0/1 value, with one nonnegative integer
    weight each: weighted_sum_register's LGDs, which it checks, or the index adder's
    powers of two.  An increment of the register's top qubits flips each, most
    significant first, under its input and every lower qubit of the increment at 1.
    """
    inputs, register = list(inputs), list(sum_register)
    gates = []
    for k, j in _increments(weights, len(register)):
        for i in reversed(range(j, len(register))):
            ctrl = ((inputs[k], 1),) + tuple((q, 1) for q in register[j:i])
            gates.append(Gate("x", register[i], controls=ctrl))
    return gates
