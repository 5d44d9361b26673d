"""Minimal gate-level circuit representation and dense statevector simulator.

Conventions, fixed across the package:

* little-endian qubit ordering: qubit q corresponds to bit q of the basis
  state index, so |..q1 q0> maps to index q0 + 2*q1 + ...
* gates carry an explicit control pattern as (qubit, polarity) pairs;
  polarity 0 means the gate fires when that control qubit is |0>, which lets
  builders match arbitrary bit patterns without X sandwiches.
* statevectors are dense complex vectors of length 2**n_qubits; the target
  scale is desk verification (roughly 20 qubits and below).

The simulator views the amplitudes as an array of shape (2,)*n, with qubit q
on axis n-1-q so that the flat order stays little-endian.  A gate fixes each
control axis to its polarity and its target axis to 0 and to 1 by basic
indexing, and updates the two resulting views of the state in place.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

GATE_KINDS = ("x", "z", "ry")


@dataclass(frozen=True)
class Gate:
    """One gate: kind in {x, z, ry}, a target, and an optional control pattern."""

    kind: str
    target: int
    theta: float | None = None
    controls: tuple[tuple[int, int], ...] = ()

    def __post_init__(self):
        if self.kind not in GATE_KINDS:
            raise ValueError(f"unknown gate kind {self.kind!r}")
        if self.kind == "ry":
            if self.theta is None or not math.isfinite(self.theta):
                raise ValueError("ry gate needs a finite angle")
        elif self.theta is not None:
            raise ValueError(f"{self.kind} gate takes no angle")
        if self.target < 0:
            raise ValueError("negative target index")
        seen = {self.target}
        for ctrl, pol in self.controls:
            if ctrl < 0:
                raise ValueError("negative control index")
            if pol not in (0, 1):
                raise ValueError("control polarity must be 0 or 1")
            if ctrl in seen:
                raise ValueError("gate target/control indices must be distinct")
            seen.add(ctrl)

    def adjoint(self) -> "Gate":
        if self.kind == "ry":
            return Gate("ry", self.target, -self.theta, self.controls)
        return self

    @property
    def max_index(self) -> int:
        return max([self.target] + [c for c, _ in self.controls])


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

    def z(self, target: int, controls=()) -> "Circuit":
        return self.append(Gate("z", target, controls=tuple(controls)))

    def ry(self, theta: float, target: int, controls=()) -> "Circuit":
        return self.append(Gate("ry", target, float(theta), tuple(controls)))

    @property
    def n_gates(self) -> int:
        return len(self.gates)

    def dump(self) -> str:
        """Debug text form, one gate per line, stable for golden tests."""
        lines = []
        for gate in self.gates:
            head = f"ry({gate.theta:+.15e})" if gate.kind == "ry" else gate.kind
            ctrl = " ".join(f"q{c}={p}" for c, p in gate.controls)
            lines.append(f"{head} q{gate.target}" + (f" | {ctrl}" if ctrl else ""))
        return "\n".join(lines)


def inverse(circuit: Circuit) -> Circuit:
    """Adjoint circuit: reversed gate order, each gate replaced by its adjoint."""
    return Circuit(circuit.n_qubits, [g.adjoint() for g in reversed(circuit.gates)])


@dataclass(eq=False)
class Statevector:
    """Dense amplitude vector in little-endian qubit order."""

    amplitudes: np.ndarray

    def __post_init__(self):
        self.amplitudes = np.asarray(self.amplitudes, dtype=complex)
        n = self.amplitudes.size
        if n < 2 or (n & (n - 1)) != 0:
            raise ValueError("statevector length must be a power of two >= 2")

    @property
    def n_qubits(self) -> int:
        return self.amplitudes.size.bit_length() - 1

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))


def zero_state(n_qubits: int) -> Statevector:
    """|0...0> on n_qubits."""
    if n_qubits < 1:
        raise ValueError("need at least one qubit")
    amps = np.zeros(2 ** n_qubits, dtype=complex)
    amps[0] = 1.0
    return Statevector(amps)


def apply(circuit: Circuit, state: Statevector) -> Statevector:
    """Run every gate in order on a copy of the state."""
    if state.n_qubits != circuit.n_qubits:
        raise ValueError(
            f"state has {state.n_qubits} qubits, circuit expects {circuit.n_qubits}")
    amps = state.amplitudes.copy()
    n = circuit.n_qubits
    tensor = amps.reshape((2,) * n)
    for gate in circuit.gates:
        # The trailing Ellipsis keeps a fully fixed index a 0-d view, not a copy.
        index = [slice(None)] * n + [Ellipsis]
        for ctrl, pol in gate.controls:
            index[n - 1 - ctrl] = pol
        axis = n - 1 - gate.target
        index[axis] = 1
        a1 = tensor[tuple(index)]
        if gate.kind == "z":
            np.negative(a1, out=a1)
            continue
        index[axis] = 0
        a0 = tensor[tuple(index)]
        if gate.kind == "x":
            old0 = a0.copy()
            a0[...] = a1
            a1[...] = old0
        else:  # ry
            c = math.cos(0.5 * gate.theta)
            s = math.sin(0.5 * gate.theta)
            a0[...], a1[...] = c * a0 - s * a1, s * a0 + c * a1
    return Statevector(amps)


def marginal_probability(state: Statevector, qubit: int, outcome: int) -> float:
    """Probability that measuring `qubit` yields `outcome`."""
    if not 0 <= qubit < state.n_qubits:
        raise ValueError(f"qubit {qubit} out of range for {state.n_qubits}-qubit state")
    if outcome not in (0, 1):
        raise ValueError("outcome must be 0 or 1")
    # Copied out in index order so the pairwise sum matches a flat selection.
    half = state.amplitudes.reshape(-1, 2, 2 ** qubit)[:, outcome, :]
    return float(np.sum(np.abs(np.ascontiguousarray(half).ravel()) ** 2))


def probabilities(state: Statevector, qubits=None) -> np.ndarray:
    """Measurement distribution, optionally marginalized onto `qubits`.

    When `qubits` is given, bit j of the returned index corresponds to the
    j-th entry of `qubits`.
    """
    probs = np.abs(state.amplitudes) ** 2
    if qubits is None:
        return probs
    qubits = list(qubits)
    if len(set(qubits)) != len(qubits):
        raise ValueError("duplicate qubit in marginal request")
    for q in qubits:
        if not 0 <= q < state.n_qubits:
            raise ValueError(f"qubit {q} out of range")
    index = np.arange(probs.size)
    keys = np.zeros(probs.size, dtype=np.int64)
    for j, q in enumerate(qubits):
        keys |= (((index >> q) & 1) << j)
    out = np.zeros(2 ** len(qubits))
    np.add.at(out, keys, probs)
    return out


def sample(state: Statevector, qubit: int, shots: int, seed: int) -> dict[int, int]:
    """Measure one qubit `shots` times; deterministic for a given seed.

    Uses numpy's PCG64 generator, which is stable across platforms, and draws
    the number of ones as a single binomial variate.
    """
    if shots < 1:
        raise ValueError("shots must be >= 1")
    p1 = min(max(marginal_probability(state, qubit, 1), 0.0), 1.0)
    rng = np.random.default_rng(seed)
    ones = int(rng.binomial(shots, p1))
    return {0: shots - ones, 1: ones}
