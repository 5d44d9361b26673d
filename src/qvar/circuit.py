"""Minimal gate-level circuit representation and dense statevector simulator.

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

The simulator views the amplitudes as an array of shape (2,)*n, with qubit q
on axis n-1-q so that the flat order stays little-endian.  A gate fixes each
control axis to its polarity and its target axis to 0 and to 1 by basic
indexing, and updates the two resulting views of the state in place; a register
gate's angles broadcast over its register's axes in that update.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field

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


@dataclass(eq=False)
class Circuit:
    """Ordered gate list over a fixed number of qubits.

    Circuits are treated as immutable once built; the builder methods below
    are only meant for construction.
    """

    n_qubits: int
    gates: list[Gate] = field(default_factory=list)

    def __post_init__(self):
        if self.n_qubits < 1:
            raise ValueError("circuit needs at least one qubit")
        for gate in self.gates:
            self._check(gate)

    def _check(self, gate: Gate):
        if gate.max_index >= self.n_qubits:
            raise ValueError(
                f"gate touches qubit {gate.max_index} but circuit has {self.n_qubits} qubits")

    def append(self, gate: Gate) -> "Circuit":
        self._check(gate)
        self.gates.append(gate)
        return self

    def extend(self, gates) -> "Circuit":
        for gate in gates:
            self.append(gate)
        return self

    def x(self, target: int, controls=()) -> "Circuit":
        return self.append(Gate("x", target, controls=tuple(controls)))


def zero_state(n_qubits: int) -> np.ndarray:
    """|0...0> on n_qubits, as a float64 vector."""
    if n_qubits < 1:
        raise ValueError("need at least one qubit")
    state = np.zeros(2 ** n_qubits)
    state[0] = 1.0
    return state


def evolve(circuit: Circuit, state: np.ndarray) -> None:
    """The one gate kernel: run every gate in order on the state, in place."""
    n = circuit.n_qubits
    if state.shape != (2 ** n,) or not state.flags.c_contiguous:    # else reshape copies
        raise ValueError(f"a {n}-qubit circuit evolves a C-contiguous vector of {2 ** n} "
                         f"amplitudes, not one of shape {state.shape}")
    tensor = state.reshape((2,) * n)
    for gate in circuit.gates:
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
