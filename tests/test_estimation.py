"""Amplitude-estimation tests: exact readout, Grover operator, iterative QAE."""

import math
from dataclasses import replace

import numpy as np
import pytest
from scipy import special, stats

from qvar.circuit import Gate, marginal_probability, zero_state
from qvar.cli import _CHUNK_ROWS
from qvar.estimation import (IqaeConfig, IqaeResult, _find_next_k, clopper_pearson, iqae,
                             iqae_rows)
from qvar.gaussian import FactorGrid
from qvar.risk import exact_loss_distribution
from qvar.uncertainty import Asset, Portfolio

from oracles import apply, build_a_circuit, exact_amplitude, grover_operator

# An A operator here is (gates, n_qubits), as build_a_circuit returns it: the objective
# is its top qubit.


def bernoulli_circuit(a):
    """Single-qubit operator with P(objective = 1) = a."""
    return [Gate("ry", 0, 2 * math.asin(math.sqrt(a)))], 1


def bernoulli_amplitude(a):
    return exact_amplitude(*bernoulli_circuit(a))


class PowerStates:
    """Statevectors of Q^k A|0>, extended by applying the Grover circuit."""

    def __init__(self, a_circuit):
        gates, n = a_circuit
        self._grover = grover_operator(gates, n)
        self._state = apply(gates, zero_state(n))
        self._k = 0
        self._objective = n - 1

    def probability(self, k):
        assert k >= self._k, "powers must be nondecreasing"
        while self._k < k:
            self._state = apply(self._grover, self._state)
            self._k += 1
        return min(max(marginal_probability(self._state, self._objective, 1), 0.0), 1.0)


def reference_iqae(a_circuit, cfg):
    """Iterative QAE drawing each round from the simulated Grover power state.

    This is the gate-level form of qvar.estimation.iqae, which draws from the
    closed-form law instead; the two must agree result for result.
    """
    rng = np.random.default_rng(cfg.seed)
    states = PowerStates(a_circuit)
    t_bound = max(1, int(math.floor(math.log2(math.pi / (4 * cfg.epsilon)))) + 1)
    alpha_round = (1.0 - cfg.confidence) / t_bound
    t_lo, t_hi = 0.0, 0.25
    a_lo, a_hi = 0.0, 1.0
    k, upper = 0, True
    acc_ones = acc_shots = 0
    rounds = samples = 0
    powers = []
    while a_hi - a_lo > 2 * cfg.epsilon and rounds < cfg.max_rounds:
        rounds += 1
        k_next, upper = _find_next_k(k, upper, t_lo, t_hi)
        if k_next != k:
            k = k_next
            acc_ones = acc_shots = 0
        powers.append(k)
        ones = int(rng.binomial(cfg.shots_per_round, states.probability(k)))
        acc_ones += ones
        acc_shots += cfg.shots_per_round
        samples += cfg.shots_per_round * (2 * k + 1)
        m_lo, m_hi = clopper_pearson(acc_ones, acc_shots, alpha_round)
        if upper:
            f_lo = math.acos(1.0 - 2.0 * m_lo) / (2.0 * math.pi)
            f_hi = math.acos(1.0 - 2.0 * m_hi) / (2.0 * math.pi)
        else:
            f_lo = 1.0 - math.acos(1.0 - 2.0 * m_hi) / (2.0 * math.pi)
            f_hi = 1.0 - math.acos(1.0 - 2.0 * m_lo) / (2.0 * math.pi)
        scaling = 4 * k + 2
        t_lo = max(t_lo, (int(scaling * t_lo) + f_lo) / scaling)
        t_hi = min(t_hi, (int(scaling * t_hi) + f_hi) / scaling)
        if t_hi < t_lo:
            t_lo = t_hi = 0.5 * (t_lo + t_hi)
        a_lo = math.sin(2.0 * math.pi * t_lo) ** 2
        a_hi = math.sin(2.0 * math.pi * t_hi) ** 2
    return IqaeResult(estimate=0.5 * (a_lo + a_hi), ci_low=a_lo, ci_high=a_hi,
                      rounds=rounds, quantum_samples=samples,
                      converged=a_hi - a_lo <= 2 * cfg.epsilon, powers=tuple(powers))


def random_objective(rng, n):
    circ = []
    for _ in range(8):
        t = int(rng.integers(n))
        circ.append(Gate("ry", t, float(rng.uniform(0.2, 2.9))))
        if n > 1:
            other = int(rng.choice([q for q in range(n) if q != t]))
            circ.append(Gate("ry", t, float(rng.uniform(-2, 2)), ((other, int(rng.integers(2))),)))
    return circ


class TestExactAmplitude:
    def test_bernoulli(self):
        assert exact_amplitude(*bernoulli_circuit(0.3)) == pytest.approx(0.3, abs=1e-12)

    def test_idle_objective(self):
        assert exact_amplitude([Gate("x", 0)], 2) == 0.0

    def test_invariant_under_appended_identities(self):
        gates, n = bernoulli_circuit(0.42)
        base = exact_amplitude(gates, n)
        padded = gates + [Gate("ry", 0, 0.0), Gate("x", 0), Gate("x", 0)]
        assert abs(exact_amplitude(padded, n) - base) < 1e-12


class TestGroverOperator:
    def test_quarter_amplitude_single_step(self):
        # a = 1/4 means theta = pi/6; one Grover step amplifies to sin^2(pi/2) = 1
        gates, n = bernoulli_circuit(0.25)
        state = apply(gates, zero_state(n))
        state = apply(grover_operator(gates, n), state)
        assert marginal_probability(state, 0, 1) == pytest.approx(1.0, abs=1e-12)

    def test_zero_amplitude_stays_zero(self):
        a_circ = [Gate("x", 0)]
        state = apply(a_circ, zero_state(2))
        q = grover_operator(a_circ, 2)
        for _ in range(4):
            state = apply(q, state)
            assert marginal_probability(state, 1, 1) < 1e-12

    def test_rotation_identity_random_circuits(self):
        rng = np.random.default_rng(23)
        for _ in range(10):
            n = int(rng.integers(1, 4))
            a_circ = random_objective(rng, n)
            a = exact_amplitude(a_circ, n)
            theta = math.asin(math.sqrt(a))
            q = grover_operator(a_circ, n)
            state = apply(a_circ, zero_state(n))
            for k in range(9):
                want = math.sin((2 * k + 1) * theta) ** 2
                got = marginal_probability(state, n - 1, 1)
                assert abs(got - want) < 1e-9
                state = apply(q, state)

    def test_rotation_identity_full_pipeline(self):
        pf = Portfolio([Asset(1000.5, 0.15, 0.10, (0.35, 0.20)),
                        Asset(2000.5, 0.25, 0.05, (0.10, 0.25))])
        grids = [FactorGrid(2), FactorGrid(2)]
        a_circ, n = build_a_circuit(pf, grids, 1500.0, encoding="exact")
        a = exact_amplitude(a_circ, n)
        theta = math.asin(math.sqrt(a))
        q = grover_operator(a_circ, n)
        state = apply(a_circ, zero_state(n))
        for k in range(5):
            want = math.sin((2 * k + 1) * theta) ** 2
            assert abs(marginal_probability(state, n - 1, 1) - want) < 1e-9
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

    @pytest.mark.parametrize("ones, shots", [(5, 4), (-1, 4), (0, 0), ([0, 5], [4, 4]),
                                             ([0, -1], [4, 4]), ([1, 0], [4, 0])])
    def test_validation(self, ones, shots):
        with pytest.raises(ValueError):
            clopper_pearson(ones, shots, 0.05)

    @pytest.mark.parametrize("shots", [1, 100, 3000])
    @pytest.mark.parametrize("alpha", [1e-6, 0.01, 0.3])
    def test_matches_beta_quantiles(self, shots, alpha):
        for ones in sorted({0, 1, shots // 2, shots - 1, shots}):
            lo = 0.0 if ones == 0 else stats.beta.ppf(alpha / 2, ones, shots - ones + 1)
            hi = 1.0 if ones == shots else stats.beta.ppf(1 - alpha / 2, ones + 1, shots - ones)
            assert clopper_pearson(ones, shots, alpha) == (lo, hi)

    @pytest.mark.parametrize("shots", [1, 100, 300])
    @pytest.mark.parametrize("alpha", [1e-4, 0.05, 0.3])
    def test_one_call_is_the_two_call_form(self, shots, alpha):
        # Both bounds from one betaincinv call, for one count or for a list of them, are
        # the doubles of one call per bound.
        want = []
        for ones in range(shots + 1):
            lo = 0.0 if ones == 0 else float(special.betaincinv(ones, shots - ones + 1, alpha / 2))
            hi = (1.0 if ones == shots
                  else float(special.betaincinv(ones + 1, shots - ones, 1 - alpha / 2)))
            got = clopper_pearson(ones, shots, alpha)
            assert got == (lo, hi) and all(type(b) is float for b in got)
            want.append(got)
        lo, hi = clopper_pearson(list(range(shots + 1)), [shots] * (shots + 1), alpha)
        assert list(zip(lo, hi)) == want


class TestIqae:
    def test_config_validation(self):
        with pytest.raises(ValueError):
            IqaeConfig(epsilon=0.6, confidence=0.9)
        with pytest.raises(ValueError):
            IqaeConfig(epsilon=0.01, confidence=1.0)
        with pytest.raises(ValueError):
            IqaeConfig(epsilon=0.01, confidence=0.9, shots_per_round=0)

    def test_zero_amplitude(self):
        res = iqae(exact_amplitude([Gate("x", 0)], 2),
                   IqaeConfig(epsilon=0.01, confidence=0.95, seed=3))
        assert res.converged
        assert res.ci_low == 0.0
        assert res.estimate <= 0.01

    def test_full_amplitude(self):
        res = iqae(exact_amplitude([Gate("x", 0)], 1),
                   IqaeConfig(epsilon=0.01, confidence=0.95, seed=3))
        assert res.converged
        assert res.ci_high == pytest.approx(1.0)
        assert abs(res.estimate - 1.0) <= 0.01

    def test_interval_contains_estimate_and_respects_width(self):
        res = iqae(bernoulli_amplitude(0.3), IqaeConfig(epsilon=0.005, confidence=0.95, seed=11))
        assert res.converged
        assert res.ci_low <= res.estimate <= res.ci_high
        assert res.ci_high - res.ci_low <= 2 * 0.005

    def test_coverage_over_seeds(self):
        # empirical coverage >= confidence - 3 binomial sigmas
        a_true = 0.3
        amplitude = bernoulli_amplitude(a_true)
        confidence, epsilon, runs = 0.9, 0.01, 120
        estimate_hits = 0
        interval_hits = 0
        for seed in range(runs):
            res = iqae(amplitude, IqaeConfig(epsilon=epsilon, confidence=confidence, seed=seed))
            estimate_hits += abs(res.estimate - a_true) <= epsilon
            interval_hits += res.ci_low <= a_true <= res.ci_high
        floor = confidence - 3 * math.sqrt(confidence * (1 - confidence) / runs)
        assert estimate_hits / runs >= floor
        assert interval_hits / runs >= floor

    def test_samples_grow_as_epsilon_tightens(self):
        amplitude = bernoulli_amplitude(0.3)
        samples = []
        for eps in (0.01, 0.005, 0.002):
            res = iqae(amplitude, IqaeConfig(epsilon=eps, confidence=0.99, seed=42))
            assert res.converged
            samples.append(res.quantum_samples)
        assert samples[0] <= samples[1] <= samples[2]

    def test_samples_scale_as_one_over_epsilon(self):
        # IQAE's quantum advantage: its samples grow as 1/eps (Grinko et al., npj Quantum
        # Inf. 7, 52, 2021), where the normal-approximation classical count
        # z**2 a (1 - a) / eps**2 grows as 1/eps**2.  400 seeded amplitudes, eps halved
        # five times; measured: slope 1.01, and the ratio to the classical count falls
        # from 0.54 to 0.017.  The band is not to be widened.
        amplitudes = np.random.default_rng(16).uniform(0.01, 0.99, 400)
        z = stats.norm.ppf(1 - 0.01 / 2)
        epsilons = 0.02 / 2.0 ** np.arange(6)
        medians, ratios = [], []
        for eps in epsilons:
            runs = [iqae(a, IqaeConfig(epsilon=eps, confidence=0.99, seed=seed))
                    for seed, a in enumerate(amplitudes)]
            assert all(r.converged and abs(r.estimate - a) <= eps
                       for r, a in zip(runs, amplitudes))
            medians.append(np.median([r.quantum_samples for r in runs]))
            ratios.append(medians[-1] / np.median(z * z * amplitudes * (1 - amplitudes) / eps ** 2))
        slope = np.polyfit(np.log(1 / epsilons), np.log(medians), 1)[0]
        assert 0.9 <= slope <= 1.2
        assert all(b < a for a, b in zip(ratios, ratios[1:]))

    def test_deterministic_given_seed(self):
        amplitude = bernoulli_amplitude(0.52)
        cfg = IqaeConfig(epsilon=0.004, confidence=0.95, seed=77)
        r1 = iqae(amplitude, cfg)
        r2 = iqae(amplitude, cfg)
        assert (r1.estimate, r1.ci_low, r1.ci_high, r1.rounds, r1.quantum_samples) == \
               (r2.estimate, r2.ci_low, r2.ci_high, r2.rounds, r2.quantum_samples)

    def test_max_rounds_failure_is_a_value(self):
        res = iqae(bernoulli_amplitude(0.5),
                   IqaeConfig(epsilon=0.001, confidence=0.99, shots_per_round=2, max_rounds=3, seed=0))
        assert not res.converged
        assert res.rounds == 3
        assert res.ci_high - res.ci_low > 2 * 0.001
        assert 0.0 <= res.ci_low <= res.estimate <= res.ci_high <= 1.0

    def test_powers_nondecreasing(self):
        res = iqae(bernoulli_amplitude(0.3), IqaeConfig(epsilon=0.002, confidence=0.99, seed=4))
        assert all(a <= b for a, b in zip(res.powers, res.powers[1:]))
        assert res.quantum_samples == sum(
            100 * (2 * k + 1) for k in res.powers)

    @pytest.mark.parametrize("amplitude", [1.0000000000000002, 1.0000000000000004, -0.0, -1e-17])
    def test_readout_rounding_past_the_ends(self, amplitude):
        # statevector readouts can land an ulp outside [0, 1]
        res = iqae(amplitude, IqaeConfig(epsilon=0.01, confidence=0.95, seed=5))
        assert res.converged
        assert abs(res.estimate - min(max(amplitude, 0.0), 1.0)) <= 0.01


def uniform_rows(n, seed=38):
    return np.random.default_rng(seed).uniform(0.0, 1.0, n).tolist()


class TestIqaeRows:
    """iqae_rows runs its rows in lockstep, one clopper_pearson call a round, and each
    row is the one-row run seeded cfg.seed + its index."""

    @pytest.mark.parametrize("amplitudes, settings", [
        # readouts at and an ulp past the ends, and a signed zero
        ([0.0, 1.0, 1.0 + 2.0 ** -52, -0.0, 1e-17, 0.5, 0.25], {}),
        (uniform_rows(40), {"shots_per_round": 1}),
        (uniform_rows(40), {"max_rounds": 1}),            # no row converges
        (uniform_rows(40), {"confidence": 0.5}),
        (uniform_rows(40), {"confidence": 1 - 1e-12}),
        (uniform_rows(_CHUNK_ROWS - 1), {}),              # compare's chunk sizes, and past them
        (uniform_rows(_CHUNK_ROWS), {}),
        (uniform_rows(_CHUNK_ROWS + 1), {}),
        (uniform_rows(2 * _CHUNK_ROWS + 1), {}),
    ], ids=["edges", "one_shot", "one_round", "confidence_half", "confidence_near_one",
            "chunk_less_one", "chunk", "chunk_plus_one", "two_chunks_plus_one"])
    def test_rows_are_the_one_row_runs(self, amplitudes, settings):
        cfg = IqaeConfig(**{"epsilon": 0.01, "confidence": 0.99, "seed": 11, **settings})
        rows = iqae_rows(amplitudes, cfg)
        alone = [iqae(a, replace(cfg, seed=cfg.seed + i)) for i, a in enumerate(amplitudes)]
        assert list(map(repr, rows)) == list(map(repr, alone))    # repr tells -0.0 from 0.0
        if settings.get("max_rounds") == 1:
            assert not any(r.converged for r in rows)


class TestClosedFormMatchesGroverCircuit:
    """iqae on the closed-form law gives the same results as simulating Q^k."""

    def check(self, a_circ, epsilon, confidence, seeds=range(20)):
        amplitude = exact_amplitude(*a_circ)
        for seed in seeds:
            cfg = IqaeConfig(epsilon=epsilon, confidence=confidence, seed=seed)
            assert iqae(amplitude, cfg) == reference_iqae(a_circ, cfg)

    def test_two_asset_circuit(self):
        pf = Portfolio([Asset(1000.5, 0.15, 0.10, (0.35, 0.20)),
                        Asset(2000.5, 0.25, 0.05, (0.10, 0.25))])
        grids = [FactorGrid(2), FactorGrid(2)]
        self.check(build_a_circuit(pf, grids, 1500.0, encoding="exact"), 0.002, 0.99)

    def test_random_four_asset_linear_circuit(self):
        rng = np.random.default_rng(41)
        pf = Portfolio([Asset(round(float(rng.uniform(500, 3000)), 1),
                              float(rng.uniform(0.02, 0.3)), float(rng.uniform(0.05, 0.3)),
                              tuple(rng.uniform(0.1, 0.5, 2))) for _ in range(4)])
        grids = [FactorGrid(2), FactorGrid(2)]
        support = exact_loss_distribution(pf, grids).losses
        x = float(support[support.size // 2])
        self.check(build_a_circuit(pf, grids, x, encoding="linear"), 0.002, 0.99)
