"""Simulator tests: gate semantics, control polarities, inversion, marginals."""

import math

import numpy as np
import pytest

from qvar.circuit import Gate, evolve, marginal_probability, zero_state
from qvar.gaussian import FactorGrid
from qvar.objective import objective_qubit
from qvar.uncertainty import Asset, Portfolio, build_model

from oracles import adjoint, apply, dump, expand, grover_operator, inverse, probabilities


def reference_apply(gates, state):
    """Mask-based simulator kept as the oracle for the axis-sliced kernel.

    Selects amplitudes with boolean masks over the flat basis index, so it
    shares no indexing logic with `evolve`; its arithmetic is the same, so the
    two must agree bit for bit.
    """
    amps = np.array(state)
    index = np.arange(amps.size)
    for gate in gates:
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
    return amps


def random_circuit(rng, n, n_gates=12):
    circ = []
    for _ in range(n_gates):
        kind = rng.choice(["x", "z", "ry"])
        t = int(rng.integers(n))
        others = [q for q in range(n) if q != t]
        n_ctrl = int(rng.integers(0, len(others) + 1))
        picked = rng.choice(others, n_ctrl, replace=False) if n_ctrl else []
        ctrls = tuple((int(q), int(rng.integers(2))) for q in picked)
        if kind == "ry":
            circ.append(Gate("ry", t, float(rng.uniform(-3, 3)), ctrls))
        elif kind == "x":
            circ.append(Gate("x", t, controls=ctrls))
        else:
            circ.append(Gate("z", t, controls=ctrls))
    return circ


def random_register_gate(rng, n):
    """A register RY on a random target, register and control pattern of n qubits, with
    some angles +0 and some -0."""
    qubits = [int(q) for q in rng.permutation(n)]
    m = int(rng.integers(0, n))
    register = tuple(qubits[1:1 + m])
    controls = tuple((q, int(rng.integers(2)))
                     for q in qubits[1 + m:1 + m + int(rng.integers(0, n - m))])
    theta = rng.uniform(-3, 3, 2 ** m) * (rng.random(2 ** m) < 0.7)
    theta[rng.random(2 ** m) < 0.2] = -0.0
    return Gate("ry", qubits[0], tuple(theta.tolist()), controls, register)


def random_state(rng, n):
    amps = rng.normal(size=2 ** n) + 1j * rng.normal(size=2 ** n)
    return amps / np.linalg.norm(amps)


class TestGates:
    def test_x_flips_zero(self):
        state = apply([Gate("x", 0)], zero_state(1))
        assert abs(state[1] - 1.0) < 1e-15
        assert marginal_probability(state, 0, 1) == pytest.approx(1.0)

    def test_ry_loads_probability(self):
        theta = 2 * math.asin(math.sqrt(0.3))
        state = apply([Gate("ry", 0, theta)], zero_state(1))
        assert marginal_probability(state, 0, 1) == pytest.approx(0.3, abs=1e-12)

    def test_control_on_zero_fires_from_ground_state(self):
        theta = 2 * math.asin(math.sqrt(0.7))
        state = apply([Gate("ry", 1, theta, ((0, 0),))], zero_state(2))
        assert marginal_probability(state, 1, 1) == pytest.approx(0.7, abs=1e-12)
        # same rotation with control-on-one does nothing to |00>
        state1 = apply([Gate("ry", 1, theta, ((0, 1),))], zero_state(2))
        assert marginal_probability(state1, 1, 1) == 0.0

    def test_z_phase(self):
        state = apply([Gate("x", 0), Gate("z", 0)], zero_state(1))
        assert state[1] == pytest.approx(-1.0)

    def test_multi_control_identity_off_pattern(self):
        # exhaustive over basis states for a few widths
        rng = np.random.default_rng(3)
        for n in (2, 3, 4, 5, 6):
            t = int(rng.integers(n))
            ctrls = tuple((q, int(rng.integers(2))) for q in range(n) if q != t)
            circ = [Gate("x", t, controls=ctrls)]
            for basis in range(2 ** n):
                amps = np.zeros(2 ** n)
                amps[basis] = 1.0
                out = apply(circ, amps)
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
        for kind, theta, register in (("ry", (0.1, 0.2), (1, 2)), ("ry", 0.1, (1,)),
                                      ("ry", (0.1, math.inf), (1,)), ("x", (0.1, 0.2), (1,)),
                                      ("ry", (0.1, 0.2), (0,)), ("ry", (0.1, 0.2), (-1,)),
                                      ("ry", (0.1, 0.2), None)):
            with pytest.raises(ValueError):
                Gate(kind, 0, theta, register=register)

    def test_dimension_mismatch(self):
        # The state gives the width: a gate past it, as target, control or register qubit,
        # is refused before the gates ahead of it move an amplitude.
        rng = np.random.default_rng(36)
        for bad in (Gate("x", 3), Gate("z", 0, controls=((3, 1),)), Gate("ry", 1, 0.4, ((4, 0),)),
                    Gate("ry", 0, (0.1, 0.2), register=(3,))):
            state = random_state(rng, 3)
            before = state.tobytes()
            with pytest.raises(ValueError, match=f"touches qubit {bad.max_index}, but the "
                                                 f"state has 3 qubits"):
                evolve(random_circuit(rng, 3) + [bad], state)
            assert state.tobytes() == before

    def test_state_is_a_contiguous_vector_of_2_to_the_n(self):
        assert zero_state(3).dtype == np.float64 and zero_state(3).flags.c_contiguous
        circ = [Gate("x", 0)]
        for wrong in (np.zeros(3), np.zeros((2, 2)), np.zeros(0)):
            with pytest.raises(ValueError, match="vector of 2\\*\\*n amplitudes"):
                evolve(circ, wrong)
        with pytest.raises(ValueError, match="the state has 0 qubits"):
            evolve(circ, np.ones(1))
        # A state wider than the gates reach evolves: x on qubit 0 of 3 swaps neighbours.
        wide = np.arange(8.0)
        evolve(circ, wide)
        assert wide.tolist() == [1, 0, 3, 2, 5, 4, 7, 6]
        for wrong in (np.zeros(3), np.zeros((2, 2)), np.zeros(1)):
            with pytest.raises(ValueError, match="in a state shaped"):
                marginal_probability(wrong, 0, 1)
        # A strided view would be reshaped into a copy, and the gates would miss it.
        strided = np.zeros(8)[::2]
        with pytest.raises(ValueError, match="contiguous"):
            evolve(circ, strided)
        assert not strided.any()


class TestKernelOracle:
    """The axis-sliced kernel against the mask reference, byte for byte."""

    def assert_same(self, circ, state):
        got = apply(circ, state)
        want = reference_apply(circ, state)
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
        for circ in ([Gate("z", 0)], [Gate("x", 0)], [Gate("ry", 0, 0.7)],
                     [Gate("x", 0), Gate("z", 0)]):
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
                    ctrls = tuple(ctrls)
                    circ = [Gate("z", t, controls=ctrls), Gate("x", t, controls=ctrls),
                            Gate("ry", t, -1.3, ctrls)]
                    self.assert_same(circ, random_state(rng, n))

    def test_polarity_zero_controls(self):
        rng = np.random.default_rng(9)
        circ = [Gate("ry", 0, 0.4, ((1, 0),)), Gate("x", 2, controls=((0, 0), (3, 0))),
                Gate("z", 3, controls=((1, 0), (2, 1))),
                Gate("ry", 1, 2.1, ((0, 0), (2, 0), (3, 0)))]
        self.assert_same(circ, random_state(rng, 4))

    def test_grover_operator(self):
        # Q holds the n-1-controlled z that reflects about |0...0>
        rng = np.random.default_rng(10)
        for n in (2, 4, 7):
            a = random_circuit(rng, n, n_gates=25)
            q = grover_operator(a, n)
            self.assert_same(q, random_state(rng, n))

    @pytest.mark.parametrize("variant, encoding, mode", [
        ("multi_rotation", "exact", "s_free"), ("multi_rotation", "linear", "weighted_sum"),
        ("single_rotation", "linear", "weighted_sum")])
    def test_model_gates_on_a_wider_state(self, variant, encoding, mode):
        # A model's gates run unchanged on its A circuit's wider state, and on one wider
        # still, as compare runs them: bit for bit the reference on their expansion.
        rng = np.random.default_rng(len(variant) + len(encoding) + len(mode))
        for k in (1, 3):
            alphas = tuple(float(a) for a in rng.uniform(0.1, 0.5, 2))
            pf = Portfolio([Asset(float(rng.integers(1, 5)), float(rng.uniform(0.05, 0.3)),
                                  float(rng.uniform(0.05, 0.3)), alphas) for _ in range(k)])
            model = build_model(pf, [FactorGrid(2), FactorGrid(1)], variant, encoding)
            width = objective_qubit(pf, model, mode) + 1
            assert model.n_qubits < width
            for n in (width, width + 2):
                state = random_state(rng, n)
                got = apply(model.gates, state)
                want = reference_apply(expand(model.gates), state)
                assert np.array_equal(got.view(np.uint64), want.view(np.uint64))

    def test_register_gate_is_its_expansion(self):
        # Bit for bit, signed zeros included, against its pattern-controlled RYs applied
        # one by one: a zero angle, +0 or -0, touches no amplitude, as the RY it stands
        # for is never emitted.  The adjoint's negated angles hold the same.
        rng = np.random.default_rng(14)
        for _ in range(80):
            n = int(rng.integers(1, 8))
            gate = random_register_gate(rng, n)
            state = random_state(rng, n)
            for part in (state.real, state.imag):
                signed = rng.random(state.size) < 0.3
                part[signed] = np.copysign(0.0, rng.uniform(-1, 1, signed.sum()))
            for g in (gate, adjoint(gate)):
                got = apply([g], state)
                one_by_one = apply(expand([g]), state)
                masked = reference_apply(expand([g]), state)
                assert np.array_equal(got.view(np.uint64), one_by_one.view(np.uint64))
                assert np.array_equal(got.view(np.uint64), masked.view(np.uint64))

    def test_marginal_matches_flat_selection(self):
        rng = np.random.default_rng(12)
        for _ in range(60):
            n = int(rng.integers(1, 13))
            state = random_state(rng, n)
            index = np.arange(2 ** n)
            for q in range(n):
                for outcome in (0, 1):
                    sel = ((index >> q) & 1) == outcome
                    want = float(np.sum(np.abs(state[sel]) ** 2))
                    assert marginal_probability(state, q, outcome) == want


class TestRealStates:
    def test_a_real_state_evolves_as_its_complex_copy(self):
        # Every gate is real: a complex copy's imaginary parts stay 0, and its real part is
        # the float64 state's (== lets +-0 agree), so every marginal reads the same bits.
        rng = np.random.default_rng(33)
        for _ in range(150):
            n = int(rng.integers(1, 9))
            gates = random_circuit(rng, n, n_gates=40)
            gates += [random_register_gate(rng, n) for _ in range(int(rng.integers(0, 8)))]
            circ = [gates[i] for i in rng.permutation(len(gates))]
            real = rng.normal(size=2 ** n)
            real[rng.random(real.size) < 0.1] = -0.0
            got, want = apply(circ, real), apply(circ, real.astype(complex))
            assert got.dtype == np.float64
            assert np.array_equal(got, want.real) and not want.imag.any()
            for q in range(n):
                for outcome in (0, 1):
                    assert (marginal_probability(got, q, outcome)
                            == marginal_probability(want, q, outcome))


    def test_z_negates_a_view_whose_stride_is_8_amplitudes(self):
        # Amplitudes 1 and 9: numpy 2.4's in-place negative would read 1 and 2 instead.
        state = np.arange(16.0)
        evolve([Gate("z", 0, controls=((1, 0), (2, 0)))], state)
        assert state.tolist() == [-v if v in (1, 9) else v for v in range(16)]


class TestInverse:
    def test_round_trip_on_random_states(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            n = int(rng.integers(1, 5))
            circ = random_circuit(rng, n)
            state = random_state(rng, n)
            back = apply(inverse(circ), apply(circ, state))
            assert np.abs(back - state).max() < 1e-10

    def test_involution(self):
        rng = np.random.default_rng(8)
        for _ in range(5):
            n = int(rng.integers(1, 4))
            circ = random_circuit(rng, n)
            state = random_state(rng, n)
            a = apply(inverse(inverse(circ)), state)
            b = apply(circ, state)
            assert np.abs(a - b).max() < 1e-10

    def test_single_ry(self):
        theta = 1.234
        circ = [Gate("ry", 0, theta)]
        state = apply(inverse(circ), apply(circ, zero_state(1)))
        assert abs(state[0] - 1.0) < 1e-12


class TestNormAndMarginals:
    def test_norm_preserved(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            n = int(rng.integers(1, 6))
            circ = random_circuit(rng, n, n_gates=20)
            state = apply(circ, random_state(rng, n))
            assert abs(np.linalg.norm(state) - 1.0) < 1e-10

    def test_marginal_trivial_cases(self):
        assert marginal_probability(zero_state(2), 0, 1) == 0.0
        theta = 2 * math.asin(math.sqrt(0.3))
        state = apply([Gate("ry", 0, theta)], zero_state(1))
        p0 = marginal_probability(state, 0, 0)
        p1 = marginal_probability(state, 0, 1)
        assert p0 + p1 == pytest.approx(1.0, abs=1e-12)

    def test_marginal_errors(self):
        with pytest.raises(ValueError):
            marginal_probability(zero_state(2), 2, 1)
        with pytest.raises(ValueError):
            marginal_probability(zero_state(2), 0, 2)

    def test_joint_probabilities_helper(self):
        circ = [Gate("x", 0), Gate("ry", 2, 2 * math.asin(math.sqrt(0.4)))]
        state = apply(circ, zero_state(3))
        joint = probabilities(state, [0, 2])
        # bit 0 of the result indexes qubit 0 (always 1), bit 1 indexes qubit 2
        assert joint[0b01] == pytest.approx(0.6, abs=1e-12)
        assert joint[0b11] == pytest.approx(0.4, abs=1e-12)
        assert joint.sum() == pytest.approx(1.0)


class TestDump:
    def test_golden_text(self):
        circ = [Gate("x", 0), Gate("ry", 2, 0.5, ((0, 1), (1, 0))), Gate("z", 1)]
        assert dump(circ) == "\n".join([
            "x q0",
            "ry(+5.000000000000000e-01) q2 | q0=1 q1=0",
            "z q1",
        ])

    def test_register_gate_text(self):
        # One line per nonzero angle, in the register's value order: register[0], here
        # q0, is the most significant bit.
        circ = [Gate("ry", 1, (0.5, 0.0, -0.25, 1.0), register=(0, 2))]
        assert dump(circ) == "\n".join([
            "ry(+5.000000000000000e-01) q1 | q0=0 q2=0",
            "ry(-2.500000000000000e-01) q1 | q0=1 q2=0",
            "ry(+1.000000000000000e+00) q1 | q0=1 q2=1",
        ])
