"""The reversible adder against the integer sum it stands for."""

import numpy as np

from qvar.arith import weighted_sum_gates, weighted_sum_size

from oracles import apply


def random_adders(rng, count):
    """(n_qubits, inputs, weights, register, adder) draws: weights with bits past the
    register's width and zeros among them, inputs and register on shuffled qubits with
    a spare qubit the adder must not touch."""
    for _ in range(count):
        width, n_in = int(rng.integers(1, 9)), int(rng.integers(1, 4))
        weights = [int(w) for w in rng.integers(0, 2 ** (width + 1), n_in)]
        weights[int(rng.integers(n_in))] *= int(rng.integers(2))
        qubits = [int(q) for q in rng.permutation(n_in + width + 1)]
        inputs, register = qubits[:n_in], qubits[n_in:-1]
        yield (len(qubits), inputs, weights, register,
               weighted_sum_gates(inputs, weights, register))


def bits(index, qubits):
    """The values the qubits hold in the basis states `index`, the first least significant."""
    return sum((index >> q & 1) << j for j, q in enumerate(qubits))


class TestWeightedSum:
    def test_adds_the_weighted_sum_to_every_basis_state(self):
        # Every gate is an X, so the adder permutes basis states: amplitudes labelled by
        # their index show where each basis state goes in one run.
        rng = np.random.default_rng(28)
        for n, inputs, weights, register, adder in random_adders(rng, 60):
            assert all(g.kind == "x" and g.theta is None for g in adder)
            labels = apply(adder, np.arange(2.0 ** n))
            index = np.arange(2 ** n)
            sent = np.empty_like(index)
            sent[labels.astype(int)] = index
            total = sum(w * (index >> q & 1) for q, w in zip(inputs, weights))
            want = (bits(index, register) + total) % 2 ** len(register)
            assert np.array_equal(bits(sent, register), want)
            others = [q for q in range(n) if q not in register]
            assert np.array_equal(bits(sent, others), bits(index, others))

    def test_reversed_adder_restores_the_state_bit_for_bit(self):
        rng = np.random.default_rng(29)
        for n, _, _, _, adder in random_adders(rng, 60):
            state = rng.normal(size=2 ** n) + 1j * rng.normal(size=2 ** n)
            there = apply(adder, state)
            back = apply(adder[::-1], there)
            assert back.tobytes() == state.tobytes()

    def test_size_counts_the_adder_and_its_inverse(self):
        rng = np.random.default_rng(30)
        for _, _, weights, register, adder in random_adders(rng, 200):
            controls = sum(len(g.controls) for g in adder)
            assert weighted_sum_size(weights, len(register)) == (2 * len(adder), 2 * controls)
