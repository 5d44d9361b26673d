"""Gates and the dense statevector simulator that runs them.

Conventions, fixed across the package:

* little-endian qubit ordering: qubit q corresponds to bit q of the basis
  state index, so |..q1 q0> maps to index q0 + 2*q1 + ...
* gates carry an explicit control pattern as (qubit, polarity) pairs;
  polarity 0 means the gate fires when that control qubit is |0>, which lets
  builders match arbitrary bit patterns without X sandwiches.
* an ry may carry a register instead, listed most significant qubit first, with one
  angle per register value: a uniformly controlled rotation (Mottonen et al.,
  quant-ph/0407010), the pattern-controlled RYs of its nonzero angles in one gate.
* a state is a plain C-contiguous float64 vector of 2**n_qubits amplitudes: every gate
  is real, and the kernel reads no dtype, so a complex state evolves to the same real
  parts.  The target scale is desk verification (roughly 20 qubits and below).
* a circuit is a plain list of gates with no width of its own: it runs on any state
  wide enough for its highest qubit, so a model's gates run unchanged on the wider
  state of its estimation circuit.

The simulator views the amplitudes as an array of shape (2,)*n, with qubit q
on axis n-1-q so that the flat order stays little-endian.  A gate fixes each
control axis to its polarity and its target axis to 0 and to 1 by basic
indexing, and updates the two resulting views of the state in place; a register
gate's angles broadcast over its register's axes in that update.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

GATE_KINDS = ("x", "z", "ry")


@dataclass(frozen=True)
class Gate:
    """One gate: kind in {x, z, ry}, a target, and an optional control pattern; an ry
    with a register holds a tuple theta, whose entry v rotates the target where the
    register, read most significant qubit first, holds v."""

    kind: str
    target: int
    theta: float | tuple[float, ...] | None = None
    controls: tuple[tuple[int, int], ...] = ()
    register: tuple[int, ...] | None = None

    def __post_init__(self):
        if self.kind not in GATE_KINDS:
            raise ValueError(f"unknown gate kind {self.kind!r}")
        if self.register is not None and (self.kind != "ry" or not isinstance(self.theta, tuple)
                                          or len(self.theta) != 2 ** len(self.register)):
            raise ValueError("a register gate is an ry with one angle per register value")
        if self.kind == "ry":
            angles = (self.theta,) if self.register is None else self.theta
            if not all(isinstance(t, numbers.Real) and math.isfinite(t) for t in angles):
                raise ValueError("ry gate needs a finite angle, or a register and a tuple of them")
        elif self.theta is not None:
            raise ValueError(f"{self.kind} gate takes no angle")
        if self.target < 0:
            raise ValueError("negative target index")
        seen = {self.target}
        for ctrl, pol in self.controls + tuple((q, 0) for q in self.register or ()):
            if ctrl < 0:
                raise ValueError("negative control index")
            if pol not in (0, 1):
                raise ValueError("control polarity must be 0 or 1")
            if ctrl in seen:
                raise ValueError("gate target/control indices must be distinct")
            seen.add(ctrl)

    @property
    def max_index(self) -> int:
        return max([self.target, *(c for c, _ in self.controls), *(self.register or ())])


def zero_state(n_qubits: int) -> np.ndarray:
    """|0...0> on n_qubits, as a float64 vector."""
    if n_qubits < 1:
        raise ValueError("need at least one qubit")
    state = np.zeros(2 ** n_qubits)
    state[0] = 1.0
    return state


def evolve(gates: list[Gate], state: np.ndarray) -> None:
    """The one gate kernel: run every gate of the list in order on the state, in place.
    The state gives the width, and the list is read once before the run, so a gate past
    that width is refused before any amplitude moves."""
    n = state.size.bit_length() - 1
    if state.shape != (2 ** n,) or not state.flags.c_contiguous:    # else reshape copies
        raise ValueError(f"the kernel evolves a C-contiguous vector of 2**n amplitudes, "
                         f"not one of shape {state.shape}")
    widest = max((gate.max_index for gate in gates), default=-1)
    if widest >= n:
        raise ValueError(f"a gate touches qubit {widest}, but the state has {n} qubits")
    tensor = state.reshape((2,) * n)
    for gate in gates:
        # The trailing Ellipsis keeps a fully fixed index a 0-d view, not a copy.
        index = [slice(None)] * n + [Ellipsis]
        for ctrl, pol in gate.controls:
            index[n - 1 - ctrl] = pol
        axis = n - 1 - gate.target
        index[axis] = 1
        a1 = tensor[tuple(index)]
        if gate.kind == "z":
            a1[...] = -a1       # numpy 2.4 negates a float64 view of stride 64 B wrongly in place
            continue
        index[axis] = 0
        a0 = tensor[tuple(index)]
        if gate.kind == "x":
            old0 = a0.copy()
            a0[...] = a1
            a1[...] = old0
        else:  # ry
            if gate.register is None:
                c, s, on = math.cos(0.5 * gate.theta), math.sin(0.5 * gate.theta), True
            else:
                # The register's axes last, in its order, so its angles broadcast over the rest.
                free = [n - 1 - i for i, k in enumerate(index[:n]) if isinstance(k, slice)]
                moved = [free.index(q) for q in gate.register], range(-len(gate.register), 0)
                a0, a1 = np.moveaxis(a0, *moved), np.moveaxis(a1, *moved)
                shape, half = (2,) * len(gate.register), np.multiply(gate.theta, 0.5)
                c = np.fromiter(map(math.cos, half), float, half.size).reshape(shape)
                s = np.fromiter(map(math.sin, half), float, half.size).reshape(shape)
                on = (half != 0.0).reshape(shape)
            # In place, so at most three half-state temporaries live at once.
            new0 = c * a0
            new0 -= s * a1
            new1 = s * a0
            new1 += c * a1
            np.copyto(a0, new0, where=on)
            np.copyto(a1, new1, where=on)


def marginal_probability(state: np.ndarray, qubit: int, outcome: int) -> float:
    """Probability that measuring `qubit` yields `outcome`."""
    n = state.size.bit_length() - 1
    if state.shape != (2 ** n,) or not 0 <= qubit < n or outcome not in (0, 1):
        raise ValueError(f"no outcome {outcome!r} of qubit {qubit} in a state shaped {state.shape}")
    # Copied out in index order so the pairwise sum matches a flat selection.
    half = state.reshape(-1, 2, 2 ** qubit)[:, outcome, :]
    return float(np.sum(np.abs(np.ascontiguousarray(half).ravel()) ** 2))
