"""Amplitude-estimation tests: exact readout, Grover operator, iterative QAE."""

import math

import numpy as np
import pytest
from scipy import stats

from qvar.circuit import Circuit, apply, marginal_probability, zero_state
from qvar.estimation import (IqaeConfig, clopper_pearson, exact_amplitude,
                             grover_operator, iqae)
from qvar.gaussian import discretize_normal
from qvar.objective import ObjectiveCircuit, build_a_circuit
from qvar.uncertainty import Asset, Portfolio


def bernoulli_circuit(a):
    """Single-qubit operator with P(objective = 1) = a."""
    circ = Circuit(1)
    circ.ry(2 * math.asin(math.sqrt(a)), 0)
    return ObjectiveCircuit(circ, 0, "s_free", 0.0)


def random_objective(rng, n):
    circ = Circuit(n)
    for _ in range(8):
        t = int(rng.integers(n))
        circ.ry(float(rng.uniform(0.2, 2.9)), t)
        if n > 1:
            other = int(rng.choice([q for q in range(n) if q != t]))
            circ.ry(float(rng.uniform(-2, 2)), t, ((other, int(rng.integers(2))),))
    return ObjectiveCircuit(circ, n - 1, "s_free", 0.0)


class TestExactAmplitude:
    def test_bernoulli(self):
        assert exact_amplitude(bernoulli_circuit(0.3)) == pytest.approx(0.3, abs=1e-12)

    def test_idle_objective(self):
        assert exact_amplitude(ObjectiveCircuit(Circuit(2).x(0), 1, "s_free", 0.0)) == 0.0

    def test_invariant_under_appended_identities(self):
        a_circ = bernoulli_circuit(0.42)
        base = exact_amplitude(a_circ)
        padded = Circuit(1, list(a_circ.circuit.gates))
        padded.ry(0.0, 0)
        padded.x(0)
        padded.x(0)
        assert abs(exact_amplitude(ObjectiveCircuit(padded, 0, "s_free", 0.0)) - base) < 1e-12


class TestGroverOperator:
    def test_quarter_amplitude_single_step(self):
        # a = 1/4 means theta = pi/6; one Grover step amplifies to sin^2(pi/2) = 1
        a_circ = bernoulli_circuit(0.25)
        state = apply(a_circ.circuit, zero_state(1))
        state = apply(grover_operator(a_circ), state)
        assert marginal_probability(state, 0, 1) == pytest.approx(1.0, abs=1e-12)

    def test_zero_amplitude_stays_zero(self):
        a_circ = ObjectiveCircuit(Circuit(2).x(0), 1, "s_free", 0.0)
        state = apply(a_circ.circuit, zero_state(2))
        q = grover_operator(a_circ)
        for _ in range(4):
            state = apply(q, state)
            assert marginal_probability(state, 1, 1) < 1e-12

    def test_rotation_identity_random_circuits(self):
        rng = np.random.default_rng(23)
        for _ in range(10):
            n = int(rng.integers(1, 4))
            a_circ = random_objective(rng, n)
            a = exact_amplitude(a_circ)
            theta = math.asin(math.sqrt(a))
            q = grover_operator(a_circ)
            state = apply(a_circ.circuit, zero_state(n))
            for k in range(9):
                want = math.sin((2 * k + 1) * theta) ** 2
                got = marginal_probability(state, a_circ.objective_qubit, 1)
                assert abs(got - want) < 1e-9
                state = apply(q, state)

    def test_rotation_identity_full_pipeline(self):
        pf = Portfolio([Asset(1000.5, 0.15, 0.10, (0.35, 0.20)),
                        Asset(2000.5, 0.25, 0.05, (0.10, 0.25))])
        grids = [discretize_normal(2), discretize_normal(2)]
        a_circ = build_a_circuit(pf, grids, 1500.0, encoding="exact")
        a = exact_amplitude(a_circ)
        theta = math.asin(math.sqrt(a))
        q = grover_operator(a_circ)
        state = apply(a_circ.circuit, zero_state(a_circ.circuit.n_qubits))
        for k in range(5):
            want = math.sin((2 * k + 1) * theta) ** 2
            assert abs(marginal_probability(state, a_circ.objective_qubit, 1) - want) < 1e-9
            state = apply(q, state)


class TestClopperPearson:
    def test_edge_cases(self):
        lo, hi = clopper_pearson(0, 100, 0.05)
        assert lo == 0.0 and 0 < hi < 0.1
        lo, hi = clopper_pearson(100, 100, 0.05)
        assert hi == 1.0 and 0.9 < lo < 1.0

    def test_coverage_against_binomial(self):
        # interval must contain the true p at least 1 - alpha of the time
        rng = np.random.default_rng(29)
        p, n, alpha = 0.37, 60, 0.1
        hits = 0
        trials = 400
        for _ in range(trials):
            ones = rng.binomial(n, p)
            lo, hi = clopper_pearson(ones, n, alpha)
            hits += lo <= p <= hi
        # binomial(400, >=0.9) with 3 sigma slack
        assert hits / trials >= 0.9 - 3 * math.sqrt(0.9 * 0.1 / trials)

    def test_validation(self):
        with pytest.raises(ValueError):
            clopper_pearson(5, 4, 0.05)

    @pytest.mark.parametrize("shots", [1, 100, 3000])
    @pytest.mark.parametrize("alpha", [1e-6, 0.01, 0.3])
    def test_matches_beta_quantiles(self, shots, alpha):
        for ones in sorted({0, 1, shots // 2, shots - 1, shots}):
            lo = 0.0 if ones == 0 else stats.beta.ppf(alpha / 2, ones, shots - ones + 1)
            hi = 1.0 if ones == shots else stats.beta.ppf(1 - alpha / 2, ones + 1, shots - ones)
            assert clopper_pearson(ones, shots, alpha) == (lo, hi)


class TestIqae:
    def test_config_validation(self):
        with pytest.raises(ValueError):
            IqaeConfig(epsilon=0.6, confidence=0.9)
        with pytest.raises(ValueError):
            IqaeConfig(epsilon=0.01, confidence=1.0)
        with pytest.raises(ValueError):
            IqaeConfig(epsilon=0.01, confidence=0.9, shots_per_round=0)

    def test_zero_amplitude(self):
        res = iqae(ObjectiveCircuit(Circuit(2).x(0), 1, "s_free", 0.0),
                   IqaeConfig(epsilon=0.01, confidence=0.95, seed=3))
        assert res.converged
        assert res.ci_low == 0.0
        assert res.estimate <= 0.01

    def test_full_amplitude(self):
        res = iqae(ObjectiveCircuit(Circuit(1).x(0), 0, "s_free", 0.0),
                   IqaeConfig(epsilon=0.01, confidence=0.95, seed=3))
        assert res.converged
        assert res.ci_high == pytest.approx(1.0)
        assert abs(res.estimate - 1.0) <= 0.01

    def test_interval_contains_estimate_and_respects_width(self):
        res = iqae(bernoulli_circuit(0.3), IqaeConfig(epsilon=0.005, confidence=0.95, seed=11))
        assert res.converged
        assert res.ci_low <= res.estimate <= res.ci_high
        assert res.ci_high - res.ci_low <= 2 * 0.005

    def test_coverage_over_seeds(self):
        # empirical coverage >= confidence - 3 binomial sigmas
        a_true = 0.3
        a_circ = bernoulli_circuit(a_true)
        confidence, epsilon, runs = 0.9, 0.01, 120
        estimate_hits = 0
        interval_hits = 0
        for seed in range(runs):
            res = iqae(a_circ, IqaeConfig(epsilon=epsilon, confidence=confidence, seed=seed))
            estimate_hits += abs(res.estimate - a_true) <= epsilon
            interval_hits += res.ci_low <= a_true <= res.ci_high
        floor = confidence - 3 * math.sqrt(confidence * (1 - confidence) / runs)
        assert estimate_hits / runs >= floor
        assert interval_hits / runs >= floor

    def test_samples_grow_as_epsilon_tightens(self):
        a_circ = bernoulli_circuit(0.3)
        samples = []
        for eps in (0.01, 0.005, 0.002):
            res = iqae(a_circ, IqaeConfig(epsilon=eps, confidence=0.99, seed=42))
            assert res.converged
            samples.append(res.quantum_samples)
        assert samples[0] <= samples[1] <= samples[2]

    def test_deterministic_given_seed(self):
        a_circ = bernoulli_circuit(0.52)
        cfg = IqaeConfig(epsilon=0.004, confidence=0.95, seed=77)
        r1 = iqae(a_circ, cfg)
        r2 = iqae(a_circ, cfg)
        assert (r1.estimate, r1.ci_low, r1.ci_high, r1.rounds, r1.quantum_samples) == \
               (r2.estimate, r2.ci_low, r2.ci_high, r2.rounds, r2.quantum_samples)

    def test_max_rounds_failure_is_a_value(self):
        res = iqae(bernoulli_circuit(0.5),
                   IqaeConfig(epsilon=0.001, confidence=0.99, shots_per_round=2, max_rounds=3, seed=0))
        assert not res.converged
        assert res.rounds == 3
        assert res.ci_high - res.ci_low > 2 * 0.001
        assert 0.0 <= res.ci_low <= res.estimate <= res.ci_high <= 1.0

    def test_powers_nondecreasing(self):
        res = iqae(bernoulli_circuit(0.3), IqaeConfig(epsilon=0.002, confidence=0.99, seed=4))
        assert all(a <= b for a, b in zip(res.powers, res.powers[1:]))
        assert res.quantum_samples == sum(
            100 * (2 * k + 1) for k in res.powers)
