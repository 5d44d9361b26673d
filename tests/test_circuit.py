"""Simulator tests: gate semantics, control polarities, inversion, sampling."""

import math

import numpy as np
import pytest

from qvar.circuit import (Circuit, Gate, Statevector, apply, inverse,
                          marginal_probability, probabilities, sample,
                          zero_state)
from qvar.estimation import grover_operator
from qvar.objective import ObjectiveCircuit


def reference_apply(circuit, state):
    """Mask-based simulator kept as the oracle for the axis-sliced kernel.

    Selects amplitudes with boolean masks over the flat basis index, so it
    shares no indexing logic with `apply`; its arithmetic is the same, so the
    two must agree bit for bit.
    """
    amps = state.amplitudes.copy()
    index = np.arange(amps.size)
    for gate in circuit.gates:
        mask = None
        for ctrl, pol in gate.controls:
            cond = ((index >> ctrl) & 1) == pol
            mask = cond if mask is None else (mask & cond)
        tbit = (index >> gate.target) & 1
        if gate.kind == "z":
            sel = tbit == 1 if mask is None else (mask & (tbit == 1))
            amps[sel] = -amps[sel]
            continue
        sel0 = tbit == 0 if mask is None else (mask & (tbit == 0))
        i0 = index[sel0]
        i1 = i0 | (1 << gate.target)
        a0 = amps[i0]
        a1 = amps[i1]
        if gate.kind == "x":
            amps[i0] = a1
            amps[i1] = a0
        else:
            c = math.cos(0.5 * gate.theta)
            s = math.sin(0.5 * gate.theta)
            amps[i0] = c * a0 - s * a1
            amps[i1] = s * a0 + c * a1
    return Statevector(amps)


def random_circuit(rng, n, n_gates=12):
    circ = Circuit(n)
    for _ in range(n_gates):
        kind = rng.choice(["x", "z", "ry"])
        t = int(rng.integers(n))
        others = [q for q in range(n) if q != t]
        n_ctrl = int(rng.integers(0, len(others) + 1))
        picked = rng.choice(others, n_ctrl, replace=False) if n_ctrl else []
        ctrls = tuple((int(q), int(rng.integers(2))) for q in picked)
        if kind == "ry":
            circ.ry(float(rng.uniform(-3, 3)), t, ctrls)
        elif kind == "x":
            circ.x(t, ctrls)
        else:
            circ.z(t, ctrls)
    return circ


def random_state(rng, n):
    amps = rng.normal(size=2 ** n) + 1j * rng.normal(size=2 ** n)
    return Statevector(amps / np.linalg.norm(amps))


class TestGates:
    def test_x_flips_zero(self):
        circ = Circuit(1).x(0)
        state = apply(circ, zero_state(1))
        assert abs(state.amplitudes[1] - 1.0) < 1e-15
        assert marginal_probability(state, 0, 1) == pytest.approx(1.0)

    def test_ry_loads_probability(self):
        theta = 2 * math.asin(math.sqrt(0.3))
        state = apply(Circuit(1).ry(theta, 0), zero_state(1))
        assert marginal_probability(state, 0, 1) == pytest.approx(0.3, abs=1e-12)

    def test_control_on_zero_fires_from_ground_state(self):
        theta = 2 * math.asin(math.sqrt(0.7))
        circ = Circuit(2).ry(theta, 1, [(0, 0)])
        state = apply(circ, zero_state(2))
        assert marginal_probability(state, 1, 1) == pytest.approx(0.7, abs=1e-12)
        # same rotation with control-on-one does nothing to |00>
        circ1 = Circuit(2).ry(theta, 1, [(0, 1)])
        state1 = apply(circ1, zero_state(2))
        assert marginal_probability(state1, 1, 1) == 0.0

    def test_z_phase(self):
        state = apply(Circuit(1).x(0).z(0), zero_state(1))
        assert state.amplitudes[1] == pytest.approx(-1.0)

    def test_multi_control_identity_off_pattern(self):
        # exhaustive over basis states for a few widths
        rng = np.random.default_rng(3)
        for n in (2, 3, 4, 5, 6):
            t = int(rng.integers(n))
            ctrls = tuple((q, int(rng.integers(2))) for q in range(n) if q != t)
            circ = Circuit(n)
            circ.x(t, ctrls)
            for basis in range(2 ** n):
                amps = np.zeros(2 ** n, dtype=complex)
                amps[basis] = 1.0
                out = apply(circ, Statevector(amps)).amplitudes
                matches = all(((basis >> q) & 1) == pol for q, pol in ctrls)
                if matches:
                    assert abs(out[basis ^ (1 << t)] - 1.0) < 1e-15
                else:
                    assert abs(out[basis] - 1.0) < 1e-15

    def test_gate_validation(self):
        with pytest.raises(ValueError):
            Gate("h", 0)
        with pytest.raises(ValueError):
            Gate("ry", 0, float("nan"))
        with pytest.raises(ValueError):
            Gate("x", 0, controls=((0, 1),))
        with pytest.raises(ValueError):
            Gate("x", 0, controls=((1, 2),))
        with pytest.raises(ValueError):
            Circuit(1).x(1)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            apply(Circuit(2).x(0), zero_state(3))


class TestKernelOracle:
    """The axis-sliced kernel against the mask reference, byte for byte."""

    def assert_same(self, circ, state):
        got = apply(circ, state).amplitudes
        want = reference_apply(circ, state).amplitudes
        assert got.tobytes() == want.tobytes()

    def test_random_circuits(self):
        rng = np.random.default_rng(2024)
        for _ in range(150):
            n = int(rng.integers(1, 11))
            circ = random_circuit(rng, n, n_gates=60)
            self.assert_same(circ, random_state(rng, n))

    def test_single_qubit_gates(self):
        # zero_state also checks the sign of zeros: z must negate, not scale
        rng = np.random.default_rng(5)
        for circ in (Circuit(1).z(0), Circuit(1).x(0), Circuit(1).ry(0.7, 0),
                     Circuit(1).x(0).z(0)):
            self.assert_same(circ, random_state(rng, 1))
            self.assert_same(circ, zero_state(1))

    def test_every_other_axis_fixed(self):
        # controls on all other qubits leave 0-d views of the target axis
        rng = np.random.default_rng(6)
        for n in (2, 3, 5):
            for t in range(n):
                for pattern in range(2 ** (n - 1)):
                    others = [q for q in range(n) if q != t]
                    ctrls = [(q, (pattern >> j) & 1) for j, q in enumerate(others)]
                    circ = Circuit(n).z(t, ctrls).x(t, ctrls).ry(-1.3, t, ctrls)
                    self.assert_same(circ, random_state(rng, n))

    def test_polarity_zero_controls(self):
        rng = np.random.default_rng(9)
        circ = Circuit(4)
        circ.ry(0.4, 0, [(1, 0)]).x(2, [(0, 0), (3, 0)]).z(3, [(1, 0), (2, 1)])
        circ.ry(2.1, 1, [(0, 0), (2, 0), (3, 0)])
        self.assert_same(circ, random_state(rng, 4))

    def test_grover_operator(self):
        # Q holds the n-1-controlled z that reflects about |0...0>
        rng = np.random.default_rng(10)
        for n in (2, 4, 7):
            a = random_circuit(rng, n, n_gates=25)
            q = grover_operator(ObjectiveCircuit(a, n - 1, "s_free", 0.0))
            self.assert_same(q, random_state(rng, n))

    def test_marginal_matches_flat_selection(self):
        rng = np.random.default_rng(12)
        for _ in range(60):
            n = int(rng.integers(1, 13))
            state = random_state(rng, n)
            index = np.arange(2 ** n)
            for q in range(n):
                for outcome in (0, 1):
                    sel = ((index >> q) & 1) == outcome
                    want = float(np.sum(np.abs(state.amplitudes[sel]) ** 2))
                    assert marginal_probability(state, q, outcome) == want


class TestInverse:
    def test_round_trip_on_random_states(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            n = int(rng.integers(1, 5))
            circ = random_circuit(rng, n)
            state = random_state(rng, n)
            back = apply(inverse(circ), apply(circ, state))
            assert np.abs(back.amplitudes - state.amplitudes).max() < 1e-10

    def test_involution(self):
        rng = np.random.default_rng(8)
        for _ in range(5):
            n = int(rng.integers(1, 4))
            circ = random_circuit(rng, n)
            state = random_state(rng, n)
            a = apply(inverse(inverse(circ)), state)
            b = apply(circ, state)
            assert np.abs(a.amplitudes - b.amplitudes).max() < 1e-10

    def test_single_ry(self):
        theta = 1.234
        circ = Circuit(1).ry(theta, 0)
        state = apply(inverse(circ), apply(circ, zero_state(1)))
        assert abs(state.amplitudes[0] - 1.0) < 1e-12


class TestNormAndMarginals:
    def test_norm_preserved(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            n = int(rng.integers(1, 6))
            circ = random_circuit(rng, n, n_gates=20)
            state = apply(circ, random_state(rng, n))
            assert abs(state.norm() - 1.0) < 1e-10

    def test_marginal_trivial_cases(self):
        assert marginal_probability(zero_state(2), 0, 1) == 0.0
        theta = 2 * math.asin(math.sqrt(0.3))
        state = apply(Circuit(1).ry(theta, 0), zero_state(1))
        p0 = marginal_probability(state, 0, 0)
        p1 = marginal_probability(state, 0, 1)
        assert p0 + p1 == pytest.approx(1.0, abs=1e-12)

    def test_marginal_errors(self):
        with pytest.raises(ValueError):
            marginal_probability(zero_state(2), 2, 1)
        with pytest.raises(ValueError):
            marginal_probability(zero_state(2), 0, 2)

    def test_joint_probabilities_helper(self):
        circ = Circuit(3).x(0).ry(2 * math.asin(math.sqrt(0.4)), 2)
        state = apply(circ, zero_state(3))
        joint = probabilities(state, [0, 2])
        # bit 0 of the result indexes qubit 0 (always 1), bit 1 indexes qubit 2
        assert joint[0b01] == pytest.approx(0.6, abs=1e-12)
        assert joint[0b11] == pytest.approx(0.4, abs=1e-12)
        assert joint.sum() == pytest.approx(1.0)


class TestSampling:
    def test_deterministic_given_seed(self):
        theta = 2 * math.asin(math.sqrt(0.3))
        state = apply(Circuit(1).ry(theta, 0), zero_state(1))
        counts1 = sample(state, 0, 1000, seed=5)
        counts2 = sample(state, 0, 1000, seed=5)
        assert counts1 == counts2
        assert counts1[0] + counts1[1] == 1000

    def test_certain_outcome(self):
        state = apply(Circuit(1).x(0), zero_state(1))
        counts = sample(state, 0, 500, seed=1)
        assert counts == {0: 0, 1: 500}

    def test_binomial_concentration_pinned(self):
        # one-off concentration check: 4.4 sigma tolerance at p = 0.3
        theta = 2 * math.asin(math.sqrt(0.3))
        state = apply(Circuit(1).ry(theta, 0), zero_state(1))
        counts = sample(state, 0, 10 ** 6, seed=12345)
        assert abs(counts[1] / 10 ** 6 - 0.3) < 0.002

    def test_shot_validation(self):
        with pytest.raises(ValueError):
            sample(zero_state(1), 0, 0, seed=0)


class TestDump:
    def test_golden_text(self):
        circ = Circuit(3)
        circ.x(0)
        circ.ry(0.5, 2, [(0, 1), (1, 0)])
        circ.z(1)
        assert circ.dump() == "\n".join([
            "x q0",
            "ry(+5.000000000000000e-01) q2 | q0=1 q1=0",
            "z q1",
        ])
        assert circ.n_gates == 3
