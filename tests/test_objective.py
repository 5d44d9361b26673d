"""Comparator and full-operator tests.

Frozen expected amplitudes come from the independent mpmath enumeration of
the two-asset example run before the build.
"""

import hashlib
import itertools
import math
from collections import Counter

import numpy as np
import pytest
from scipy import stats

from qvar.gaussian import FactorGrid
from qvar.objective import MODES, comparator, objective_qubit, weighted_sum_register
from qvar.uncertainty import Asset, Portfolio, build_model

from oracles import apply, build_a_circuit, distribution, dump, exact_amplitude, expand

ASSETS = [
    Asset(1000.5, 0.15, 0.10, (0.35, 0.20)),
    Asset(2000.5, 0.25, 0.05, (0.10, 0.25)),
]
# oracle cdf of the two-asset example on its support
ORACLE_CDF = {
    0.0: 0.6500424380360375,
    1000.5: 0.7550617778729617,
    2000.5: 0.9652513075681205,
    3001.0: 1.0,
}


def table_inputs():
    return Portfolio(ASSETS), [FactorGrid(2), FactorGrid(2)]


class TestWeightedSumRegister:
    """The loss register holds every integer loss sum t in max(1, t.bit_length()) qubits,
    the single-rotation sum register's rule."""

    @staticmethod
    def width(*lgds):
        return weighted_sum_register(Portfolio([Asset(v, 0.1, 0.1, (0.3,)) for v in lgds]))[1]

    def test_examples(self):
        assert self.width(1, 2) == 2
        assert self.width(3, 4) == 3
        assert self.width(1) == 1
        assert self.width(1, 2, 4) == 3

    def test_zero_sum_keeps_one_qubit(self):
        assert self.width(0, 0) == 1
        assert self.width(0) == 1

    def test_equals_the_float_log_rule_below_2_16(self):
        for t in range(1, 2 ** 16):
            assert self.width(t) == math.floor(math.log2(t)) + 1

    def test_holds_2_49_minus_1_in_49_qubits(self):
        # The first t where floor(log2(t)) + 1 gives 50, as log2 rounds up to 49.0.
        assert self.width(2 ** 49 - 1) == 49


class TestSFreeComparator:
    def test_pattern_counts(self):
        pf, grids = table_inputs()
        model = build_model(pf, grids, "multi_rotation", "exact")

        def n_gates(x):
            return len(comparator(pf, model, "s_free", x))
        # 1000.5 <= 1500 < 2000.5: only {} and {asset 0} qualify
        assert n_gates(1500.0) == 2
        # everything qualifies at the total loss
        assert n_gates(3001.0) == 4
        # only the empty pattern at zero
        assert n_gates(0.0) == 1
        # nothing below zero
        assert n_gates(-1.0) == 0

    def test_gate_count_equals_qualifying_patterns(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            k = int(rng.integers(1, 5))
            lgds = rng.uniform(0, 10, k)
            assets = [Asset(float(l), 0.2, 0.1, (1.0,)) for l in lgds]
            pf = Portfolio(assets)
            x = float(rng.uniform(-1, lgds.sum() + 1))
            model = build_model(pf, [FactorGrid(1)], "multi_rotation", "exact")
            comp = comparator(pf, model, "s_free", x)
            qualifying = sum(
                1 for pattern in itertools.product((0, 1), repeat=k)
                if np.dot(lgds, pattern) <= x)
            assert len(comp) == qualifying <= 2 ** k

    def test_increments_and_cdf_match_masks_over_the_loss_table(self):
        # The increments come from the loss table's sorted order, the cdf from a prefix of
        # the support: each must be the mask's patterns, in product order, and its sum.
        rng = np.random.default_rng(35)
        # ULP_PAIRS' LGDs (tests/test_cli.py) sum equal losses an ulp apart; zero and
        # repeated LGDs tie patterns.
        lgd_sets = [[1076.3, 1974.6, 721.9, 1798.2]]
        for _ in range(30):
            k = int(rng.integers(1, 9))
            lgd_sets.append([float(rng.choice([0.0, 2.5, round(rng.uniform(500, 3000), 1)]))
                             for _ in range(k)])
        for lgds in lgd_sets:
            pf = Portfolio([Asset(lgd, 0.2, 0.1, (0.3,)) for lgd in lgds])
            model = build_model(pf, [FactorGrid(1)], "multi_rotation", "linear")
            losses = pf.pattern_losses
            dist = distribution(losses, rng.dirichlet(np.ones(losses.size)))
            support = dist.losses
            # Below the support, on and between its points, and above it, ascending.
            xs = sorted([support[0] - 1.0, *support, *(support[:-1] + np.diff(support) / 2),
                         *np.nextafter(support, np.inf), support[-1] + 1e6])
            above = -math.inf
            for x in map(float, xs):
                step = comparator(pf, model, "s_free", x, above)
                patterns = [int("".join(str(pol) for _, pol in g.controls), 2)
                            for g in step]
                assert patterns == np.flatnonzero((losses > above) & (losses <= x)).tolist()
                assert dist.cdf(x) == float(dist.probs[dist.losses <= x].sum())
                above = x

    def test_non_finite_threshold_rejected(self):
        pf, grids = table_inputs()
        with pytest.raises(ValueError):
            comparator(pf, build_model(pf, grids, "multi_rotation", "exact"), "s_free",
                       float("nan"))


class TestWeightedSum:
    def integer_portfolio(self):
        return Portfolio([Asset(1, 0.15, 0.10, (0.35, 0.20)),
                          Asset(2, 0.25, 0.05, (0.10, 0.25))])

    def test_non_integer_lgd_rejected_by_name(self):
        pf, grids = table_inputs()
        with pytest.raises(ValueError, match="asset 0"):
            build_a_circuit(pf, grids, 1500.0, mode="weighted_sum")

    def test_matches_s_free_at_every_integer_threshold(self):
        pf = self.integer_portfolio()
        grids = [FactorGrid(2), FactorGrid(2)]
        for x in (-1.0, 0.0, 1.0, 2.0, 3.0, 10.0):
            a_free = exact_amplitude(*build_a_circuit(pf, grids, x, mode="s_free"))
            a_sum = exact_amplitude(*build_a_circuit(pf, grids, x, mode="weighted_sum"))
            assert abs(a_free - a_sum) < 1e-10

    def test_all_zero_lgds_accept_everything(self):
        pf = Portfolio([Asset(0, 0.2, 0.1, (1.0,)), Asset(0, 0.3, 0.1, (1.0,))])
        grids = [FactorGrid(1)]
        for x in (0.0, 1.0):
            a = exact_amplitude(*build_a_circuit(pf, grids, x, mode="weighted_sum"))
            assert a == pytest.approx(1.0, abs=1e-12)

    def test_randomized_equivalence(self):
        rng = np.random.default_rng(17)
        for _ in range(6):
            k = int(rng.integers(1, 4))
            assets = [Asset(int(rng.integers(0, 5)), float(rng.uniform(0.1, 0.5)),
                            float(rng.uniform(0, 0.4)), (1.0,)) for _ in range(k)]
            pf = Portfolio(assets)
            grids = [FactorGrid(1)]
            total = sum(a.lgd for a in assets)
            for x in range(-1, int(total) + 2):
                a_free = exact_amplitude(*build_a_circuit(pf, grids, float(x), mode="s_free"))
                a_sum = exact_amplitude(*build_a_circuit(pf, grids, float(x),
                                                         mode="weighted_sum"))
                assert abs(a_free - a_sum) < 1e-10


class TestComparators:
    """Ascending thresholds' increments, applied in turn, are each threshold's whole
    comparator, amplitude for amplitude."""

    @staticmethod
    def portfolio(rng, k, mode):
        return Portfolio([
            Asset(float(rng.integers(0, 7)) if mode == "weighted_sum"
                  else round(float(rng.uniform(0, 3000)), 1),
                  float(rng.uniform(0.02, 0.3)), float(rng.uniform(0.05, 0.3)),
                  tuple(float(a) for a in rng.uniform(0.1, 0.5, 2)))
            for _ in range(k)])

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("variant, encoding", [("multi_rotation", "exact"),
                                                   ("multi_rotation", "linear"),
                                                   ("single_rotation", "linear")])
    def test_increments_step_to_the_comparator(self, mode, variant, encoding):
        rng = np.random.default_rng(len(mode) + len(variant) + len(encoding))
        for k in (1, 3, 6):
            pf = self.portfolio(rng, k, mode)
            if variant == "single_rotation":
                pf = Portfolio([Asset(a.lgd, a.p0, a.rho, pf.assets[0].alphas)
                                for a in pf.assets])
            model = build_model(pf, [FactorGrid(2), FactorGrid(1)],
                                variant, encoding)
            # [model][loss register, weighted_sum only][objective]
            width = model.n_qubits
            objective = width + (weighted_sum_register(pf)[1] if mode == "weighted_sum" else 0)
            start = (rng.normal(size=2 ** (objective + 1))
                     + 1j * rng.normal(size=2 ** (objective + 1)))
            support = np.unique(pf.pattern_losses)
            # Below the support, on and between its points, and above it, ascending.
            thresholds = sorted([support[0] - 1.0, *support,
                                 *(support[:-1] + np.diff(support) / 2),
                                 support[-1] + 0.5, support[-1] + 1e6])
            state, above, stepped = start, -math.inf, Counter()
            for x in map(float, thresholds):
                step = comparator(pf, model, mode, x, above)
                whole = comparator(pf, model, mode, x)
                assert all(g.max_index <= objective for g in step + whole)
                state = apply(step, state)
                assert np.array_equal(state, apply(whole, start))
                if mode == "s_free":
                    stepped.update(step)
                    assert stepped == Counter(whole)
                above = x

    @pytest.mark.parametrize("mode", MODES)
    def test_above_at_or_past_threshold_adds_no_flip(self, mode):
        pf = self.portfolio(np.random.default_rng(5), 4, mode)
        model = build_model(pf, [FactorGrid(1)] * 2, "multi_rotation", "exact")
        objective = objective_qubit(pf, model, mode)
        for x in np.unique(pf.pattern_losses):
            for above in (x, x + 0.5, x + 1e6):
                comp = comparator(pf, model, mode, float(x), float(above))
                assert not any(g.target == objective for g in comp)

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("seed, variant, encoding, r", [
        (0, "multi_rotation", "exact", 2), (1, "single_rotation", "linear", 2),
        (2, "multi_rotation", "exact", 1)])
    def test_top_qubit_is_the_objective(self, seed, variant, encoding, r, mode):
        # No wrapper carries the objective: every comparator and A circuit puts it on
        # top, at objective_qubit, and only its flips target it.
        rng = np.random.default_rng([seed, MODES.index(mode)])
        for k in (1, 3):
            pf = self.portfolio(rng, k, mode)
            pf = Portfolio([Asset(a.lgd, a.p0, a.rho, pf.assets[0].alphas[:r]) for a in pf.assets])
            grids = [FactorGrid(2), FactorGrid(1)][:r]
            model = build_model(pf, grids, variant, encoding)
            objective = objective_qubit(pf, model, mode)
            x = float(pf.pattern_losses.max())
            comp = comparator(pf, model, mode, x)
            a, width = build_a_circuit(pf, grids, x, variant=variant, encoding=encoding,
                                       mode=mode)
            assert a == model.gates + comp
            assert width == max(g.max_index for g in a) + 1 == objective + 1
            flips = [g for g in comp if g.target == objective]
            assert flips and all(g.kind == "x" for g in flips)
            assert not any(g.target == objective for g in model.gates)

    @pytest.mark.parametrize("mode", MODES)
    def test_non_finite_threshold_rejected(self, mode):
        pf = self.portfolio(np.random.default_rng(4), 3, mode)
        model = build_model(pf, [FactorGrid(1)] * 2, "multi_rotation", "exact")
        for x in (float("nan"), float("inf"), float("-inf")):
            with pytest.raises(ValueError, match="threshold must be finite"):
                comparator(pf, model, mode, x)


class TestAssembleA:
    def test_table_amplitude_at_1500(self):
        pf, grids = table_inputs()
        model = build_model(pf, grids, "multi_rotation", "exact")
        comp = comparator(pf, model, "s_free", 1500.0)
        a_circ = model.gates + comp     # objective 6, on top
        assert abs(exact_amplitude(a_circ, 7) - ORACLE_CDF[1000.5]) < 1e-9

    def test_amplitudes_on_support_match_oracle(self):
        pf, grids = table_inputs()
        for x, want in ORACLE_CDF.items():
            a_circ = build_a_circuit(pf, grids, x, encoding="exact")
            assert abs(exact_amplitude(*a_circ) - want) < 1e-9

    def test_empty_acceptance_set(self):
        pf, grids = table_inputs()
        assert exact_amplitude(*build_a_circuit(pf, grids, -1.0, encoding="exact")) == 0.0

    def test_single_asset_below_lgd(self):
        pf = Portfolio([Asset(10.0, 0.3, 0.0, (1.0,))])
        grids = [FactorGrid(2)]
        a_circ = build_a_circuit(pf, grids, 9.999, encoding="exact")
        assert exact_amplitude(*a_circ) == pytest.approx(0.7, abs=1e-12)

    def test_monotone_in_threshold(self):
        pf, grids = table_inputs()
        amps = [exact_amplitude(*build_a_circuit(pf, grids, x, encoding="exact"))
                for x in (-1.0, 0.0, 500.0, 1000.5, 2000.5, 3001.0, 5000.0)]
        assert all(a <= b + 1e-15 for a, b in zip(amps, amps[1:]))

    def test_unknown_variant_and_mode(self):
        pf, grids = table_inputs()
        with pytest.raises(ValueError):
            build_a_circuit(pf, grids, 0.0, variant="nope")
        with pytest.raises(ValueError):
            build_a_circuit(pf, grids, 0.0, mode="nope")


class TestACircuitPin:
    """build_a_circuit's gates, objective qubit and width, pinned bit for bit over seeded
    portfolios x variants x encodings x thresholds below, on, between and above the support.

    Each seed walks the six rows the digests were pinned over, each as the (variant,
    encoding, factors) that builds its model, factors None being 1 + seed % 2: the third
    row asked single_rotation for the exact encoding, which always built its linear one,
    and the last two are multi_rotation on one factor, once named single_factor."""

    ROWS = [("multi_rotation", "exact", None), ("multi_rotation", "linear", None),
            ("single_rotation", "linear", None), ("single_rotation", "linear", None),
            ("multi_rotation", "exact", 1), ("multi_rotation", "linear", 1)]

    DIGESTS = {
        "s_free": "3e16aa8b5a91cd3ac30c725f209ce96a5ba867cf70117ec52b418412f66a52dc",
        "weighted_sum": "70d37bb7d80be12c5f24cdad8373b6286001477f570bb3b4bb83388a19f54f6d",
    }

    @pytest.mark.parametrize("mode", MODES)
    def test_digest(self, mode):
        digest = hashlib.sha256()
        for seed, (variant, encoding, r) in itertools.product(range(12), self.ROWS):
            rng = np.random.default_rng(seed)
            r = r or 1 + seed % 2
            shared = tuple(float(a) for a in rng.uniform(0.1, 0.5, r))
            pf = Portfolio([Asset(int(rng.integers(0, 9)) if mode == "weighted_sum"
                                  else round(float(rng.uniform(0, 3000)), 1),
                                  float(rng.uniform(0.02, 0.3)), float(rng.uniform(0.05, 0.3)),
                                  shared if variant == "single_rotation"
                                  else tuple(float(a) for a in rng.uniform(0.1, 0.5, r)))
                            for _ in range(1 + seed % 4)])
            grids = [FactorGrid(int(n)) for n in rng.integers(1, 3, r)]
            support = np.unique(pf.pattern_losses)
            for x in map(float, [support[0] - 1.0, *support,
                                 *(support[:-1] + np.diff(support) / 2), support[-1] + 1e6]):
                a, n = build_a_circuit(pf, grids, x, variant=variant, encoding=encoding,
                                       mode=mode)
                # The objective is the top qubit.
                digest.update(f"{n} {n - 1} {mode} {x!r}\n{dump(a)}\n".encode())
                # dump prints 16 digits; the hex angles pin every bit.
                digest.update(" ".join(g.theta.hex() for g in expand(a)
                                       if g.kind == "ry").encode())
        assert digest.hexdigest() == self.DIGESTS[mode]
