"""Uncertainty-model builders against classical enumeration oracles.

The oracles below use scipy.stats directly so they stay independent of the
package's own normal kernels.
"""

import hashlib
import itertools
import math

import numpy as np
import pytest
from scipy import stats

import qvar.gaussian
from qvar.circuit import Gate, marginal_probability, zero_state
from qvar.gaussian import FactorGrid
from qvar.resources import estimate_resources
from qvar.risk import LossDistribution, exact_loss_distribution
from qvar.uncertainty import (ENCODINGS, VARIANTS, Asset, Portfolio, _secants, build_model,
                              default_angle, index_sum_plan, loader_gates, model_layout,
                              model_table, support_map)

from oracles import apply, conditional_pd, expand, probabilities

# the running two-asset, two-factor example
ASSETS = [
    Asset(1000.5, 0.15, 0.10, (0.35, 0.20)),
    Asset(2000.5, 0.25, 0.05, (0.10, 0.25)),
]
# frozen from the independent mpmath enumeration
FIT_SLOPE_A0_F0 = -0.1481694174481145
FIT_OFFSET_A0_F0 = 0.9977270138281787


def oracle_pd(asset, z):
    y = float(np.dot(asset.alphas, z))
    return stats.norm.cdf(
        (stats.norm.ppf(asset.p0) - math.sqrt(asset.rho) * y) / math.sqrt(1 - asset.rho))


def oracle_joint(portfolio, grids):
    """Joint distribution over (factor bits..., asset bits...) by enumeration."""
    n_factor = sum(g.n_z for g in grids)
    out = np.zeros(2 ** (n_factor + portfolio.k))
    for combo in itertools.product(*(range(g.size) for g in grids)):
        pz = np.prod([g.probs[i] for g, i in zip(grids, combo)])
        z = [g.values[i] for g, i in zip(grids, combo)]
        pds = [oracle_pd(a, z) for a in portfolio.assets]
        fbits = 0
        shift = 0
        for i, g in zip(combo, grids):
            fbits |= i << shift
            shift += g.n_z
        for pattern in itertools.product((0, 1), repeat=portfolio.k):
            weight = pz * np.prod([p if b else 1 - p for p, b in zip(pds, pattern)])
            abits = sum(b << j for j, b in enumerate(pattern))
            out[fbits | (abits << n_factor)] += weight
    return out


def reference_loader_gates(probs, qubits):
    """The factor loader spelled out node by node: one pattern-controlled RY per node with
    a nonzero angle, found depth first, controls in ascending qubit order."""
    qubits = list(qubits)
    gates = []

    def descend(level, lo, hi, controls, mass):
        if mass <= 0.0:
            return
        mid = (lo + hi) // 2
        mass1 = float(probs[mid:hi].sum())
        theta = default_angle(mass1 / mass)
        if theta != 0.0:
            gates.append(Gate("ry", qubits[level], theta, tuple(sorted(controls))))
        if level == 0:
            return
        descend(level - 1, lo, mid, controls + [(qubits[level], 0)], mass - mass1)
        descend(level - 1, mid, hi, controls + [(qubits[level], 1)], mass1)

    descend(len(qubits) - 1, 0, probs.size, [], float(probs.sum()))
    # Level by level, top first: within a level depth first visits the nodes in value order.
    return sorted(gates, key=lambda g: -g.target)


def loaded_state(probs):
    """The state loader_gates prepare on a register of their own, from |0...0>."""
    n = len(probs).bit_length() - 1
    return apply(loader_gates(probs, range(n)), zero_state(n))


def secant(asset, f, grids):
    """(slope, offset) of one asset's endpoint secant along factor f."""
    lows, slopes, _ = _secants(Portfolio([asset]).obligors, grids)
    return slopes[f, 0], lows[f, 0]


def model_joint(model):
    state = apply(model.gates, zero_state(model.n_qubits))
    order = [q for reg in model.factor_qubits for q in reg] + model.asset_qubits
    return probabilities(state, order)


class TestLoader:
    def test_matches_arbitrary_vectors(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            m = int(rng.integers(1, 5))
            probs = rng.uniform(0, 1, 2 ** m)
            probs[rng.random(2 ** m) < 0.25] = 0.0
            if probs.sum() == 0:
                probs[0] = 1.0
            probs /= probs.sum()
            state = loaded_state(probs)
            assert np.abs(np.abs(state) ** 2 - probs).max() < 1e-12

    def test_grid_marginals(self):
        grid = FactorGrid(3, 2.5)
        state = loaded_state(grid.probs)
        assert np.abs(np.abs(state) ** 2 - grid.probs).max() < 1e-10

    @staticmethod
    def loader_inputs(rng, m):
        """One vector of 2**m entries from each family the loader must keep the bits of:
        uniform, 70 % zeros, masses down to subnormal and zero, a FactorGrid's at a bound
        from 1 to 37.5, and three points of masses 1, 1e-17 and 1e-300."""
        size = 2 ** m
        sparse = rng.uniform(0, 1, size) * (rng.random(size) < 0.3)
        sparse[int(rng.integers(size))] += 0.1
        points = np.zeros(size)
        points[rng.permutation(size)[:3]] = [1.0, 1e-17, 1e-300][:size]
        return [rng.uniform(0, 1, size), sparse, np.exp(-800 * rng.uniform(0, 1, size)),
                FactorGrid(m, float(rng.uniform(1, 37.5))).probs, points]

    def test_one_register_gate_per_level_expands_to_the_per_node_gates(self):
        # Zero entries leave zero angles and zero-mass subtrees; a level of zero angles
        # emits no gate.  The register is the qubits above the level's, top first.  Each
        # angle keeps the per-node recursion's bits: == alone takes -0.0 for 0.0.
        def bits(gates):
            return np.array([g.theta for g in gates], dtype=float).view(np.uint64).tolist()

        rng = np.random.default_rng(3)
        cases = [(m, probs) for m in range(1, 13)
                 for probs in self.loader_inputs(rng, m)] + [(16, FactorGrid(16).probs)]
        for m, probs in cases:
            qubits = range(2, 2 + m)
            gates = loader_gates(probs, qubits)
            assert len(gates) <= m and all(
                g.register == tuple(range(1 + m, g.target, -1)) for g in gates)
            got, want = expand(gates), reference_loader_gates(probs, qubits)
            assert got == want and bits(got) == bits(want)


class TestMultiRotationExact:
    def test_table_joint_matches_oracle(self):
        pf = Portfolio(ASSETS)
        grids = [FactorGrid(2), FactorGrid(2)]
        model = build_model(pf, grids, "multi_rotation", "exact")
        assert model.n_qubits == 6          # 4 factor qubits + 2 assets
        assert np.abs(model_joint(model) - oracle_joint(pf, grids)).max() < 1e-9

    def test_grid_register_marginals_equal_grid_probs(self):
        pf = Portfolio(ASSETS)
        grids = [FactorGrid(2), FactorGrid(2, 2.0)]
        model = build_model(pf, grids, "multi_rotation", "exact")
        state = apply(model.gates, zero_state(model.n_qubits))
        for grid, reg in zip(grids, model.factor_qubits):
            marg = probabilities(state, list(reg))
            assert np.abs(marg - grid.probs).max() < 1e-10

    def test_zero_rho_single_asset(self):
        pf = Portfolio([Asset(10.0, 0.3, 0.0, (1.0,))])
        for encoding in ("exact", "linear"):
            model = build_model(pf, [FactorGrid(2)], "multi_rotation", encoding)
            state = apply(model.gates, zero_state(model.n_qubits))
            assert marginal_probability(state, model.asset_qubits[0], 1) == pytest.approx(0.3, abs=1e-12)

    def test_single_factor_table_asset(self):
        # first example asset as a single-factor problem with unit weight
        pf = Portfolio([Asset(1000.5, 0.15, 0.10, (1.0,))])
        grid = FactorGrid(2)
        model = build_model(pf, [grid], "multi_rotation", "exact")
        assert np.abs(model_joint(model) - oracle_joint(pf, [grid])).max() < 1e-9

    def test_single_factor_is_an_unknown_variant(self):
        # multi_rotation on one factor is the single-factor model, and no other name
        # builds it: the builders and the resource count refuse the old one alike.
        pf, grids = Portfolio([Asset(1000.5, 0.15, 0.10, (1.0,))]), [FactorGrid(2)]
        for call, mode in ((build_model, ()), (model_table, ()), (estimate_resources, ("s_free",))):
            with pytest.raises(ValueError, match="^unknown variant 'single_factor'$"):
                call(pf, grids, "single_factor", "linear", *mode)

    def test_all_zero_weights_marginal(self):
        shared = (0.0, 0.0)
        pf = Portfolio([Asset(1.0, 0.15, 0.10, shared), Asset(2.0, 0.25, 0.05, shared)])
        grids = [FactorGrid(2), FactorGrid(2)]
        model = build_model(pf, grids, "multi_rotation", "exact")
        state = apply(model.gates, zero_state(model.n_qubits))
        for asset, q in zip(pf.assets, model.asset_qubits):
            want = stats.norm.cdf(stats.norm.ppf(asset.p0) / math.sqrt(1 - asset.rho))
            assert marginal_probability(state, q, 1) == pytest.approx(want, abs=1e-12)

    def test_width_grows_by_nz_per_factor(self):
        for r in (1, 2, 3):
            assets = [Asset(1.0, 0.2, 0.1, tuple([0.3] * r))]
            grids = [FactorGrid(2) for _ in range(r)]
            model = build_model(Portfolio(assets), grids, "multi_rotation", "linear")
            assert model.n_qubits == 2 * r + 1

    def test_randomized_joint_property(self):
        rng = np.random.default_rng(5)
        for _ in range(8):
            r = int(rng.integers(1, 3))
            k = int(rng.integers(1, 4))
            grids = [FactorGrid(int(rng.integers(1, 3)), float(rng.uniform(1.5, 4.0)))
                     for _ in range(r)]
            assets = [Asset(float(rng.uniform(0, 50)), float(rng.uniform(0.05, 0.6)),
                            float(rng.uniform(0.0, 0.5)),
                            tuple(rng.uniform(-0.5, 0.8, r)))
                      for _ in range(k)]
            pf = Portfolio(assets)
            model = build_model(pf, grids, "multi_rotation", "exact")
            assert model.n_qubits <= 12
            assert np.abs(model_joint(model) - oracle_joint(pf, grids)).max() < 1e-9

    def test_grid_count_mismatch(self):
        with pytest.raises(ValueError):
            build_model(Portfolio(ASSETS), [FactorGrid(2)], "multi_rotation", "exact")

    def test_conditional_defaults_per_joint_state(self):
        # P(asset k = 1 | factor registers in joint state i) equals the model PD
        pf = Portfolio(ASSETS)
        grids = [FactorGrid(2), FactorGrid(2)]
        model = build_model(pf, grids, "multi_rotation", "exact")
        state = apply(model.gates, zero_state(model.n_qubits))
        for k, asset in enumerate(pf.assets):
            order = [q for reg in model.factor_qubits for q in reg] + [model.asset_qubits[k]]
            joint = probabilities(state, order)
            for i1 in range(4):
                for i2 in range(4):
                    fbits = i1 | (i2 << 2)
                    p_joint = joint[fbits] + joint[fbits | (1 << 4)]
                    conditional = joint[fbits | (1 << 4)] / p_joint
                    want = oracle_pd(asset, (grids[0].values[i1], grids[1].values[i2]))
                    assert abs(conditional - want) < 1e-9

    @staticmethod
    def reference_exact_gates(portfolio, grids):
        """The exact encoding's gates as built with one conditional_pd call per cell."""
        starts = [sum(g.n_z for g in grids[:r]) for r in range(len(grids) + 1)]
        gates = [g for grid, s in zip(grids, starts)
                 for g in reference_loader_gates(grid.probs, range(s, s + grid.n_z))]
        for k_idx, asset in enumerate(portfolio.assets):
            for combo in itertools.product(*(range(g.size) for g in grids)):
                z = [g.values[i] for g, i in zip(grids, combo)]
                theta = default_angle(conditional_pd(asset.p0, asset.rho, asset.alphas, z))
                controls = tuple((s + j, (idx >> j) & 1)
                                 for idx, grid, s in zip(combo, grids, starts)
                                 for j in range(grid.n_z))
                gates.append(Gate("ry", starts[-1] + k_idx, theta, controls))
        return gates

    @pytest.mark.parametrize("qubits", [(4, 4), (1, 3), (2, 1, 2), (5,)])
    def test_one_quantile_per_asset_and_the_per_cell_gates(self, monkeypatch, qubits):
        rng = np.random.default_rng(sum(qubits))
        pf = Portfolio([Asset(float(rng.uniform(500, 3000)), float(rng.uniform(0.02, 0.3)),
                              float(rng.uniform(0.05, 0.3)),
                              tuple(float(a) for a in rng.uniform(-0.5, 0.5, len(qubits))))
                        for _ in range(4)])
        grids = [FactorGrid(q) for q in qubits]
        want = self.reference_exact_gates(pf, grids)
        ppf = qvar.gaussian.std_normal_ppf
        calls = []
        monkeypatch.setattr(qvar.gaussian, "std_normal_ppf",
                            lambda p: calls.append(p) or ppf(p))
        got = build_model(pf, grids, "multi_rotation", "exact").gates
        assert calls == [[a.p0 for a in pf.assets]]
        assert len(got) == sum(g.n_z for g in grids) + pf.k
        assert expand(got) == want


class TestOneQuantilePerAsset:
    """The linear and single-rotation builders evaluate F^-1(p0) once per asset, in one
    call for all assets as the exact encoding does (TestMultiRotationExact), and emit
    the gates they did with one conditional_pd call per angle."""

    # SHA-256 of each model's expanded gates, every angle in hex: the gates built with one
    # conditional_pd call per angle, each loader's level by level, as TestLoader's per-node
    # reference orders them.
    CASES = [
        ("multi_rotation", "linear", (2, 3),
         "d6bc817695e81f4031634717355a59099b94186cd40b70153de9b7f2611ec724"),
        ("multi_rotation", "linear", (5,),
         "b15743341d75e14ef4dd23ce92fbe61e7a2842b129c6de9dbd2346dc5eb2d1fb"),
        ("multi_rotation", "linear", (3,),
         "6e04fa167d31472af59cf2ec94a0464bf7b11929b84a80eca4d4891133a57e44"),
        ("single_rotation", "linear", (2, 3),
         "e435d1dbc16c033e863599891168719c9bebf429153da628d6659de1a017bb6d"),
        ("single_rotation", "linear", (4, 1, 2),
         "6f38bef99368e47a8eb71ca30e01189ad2410b5d5d83ae91258538170eddc52d"),
    ]

    @pytest.mark.parametrize("case", range(len(CASES)))
    def test_quantile_calls_and_gates(self, monkeypatch, case):
        variant, encoding, qubits, digest = self.CASES[case]
        rng = np.random.default_rng(41 + case)
        shared = tuple(float(a) for a in rng.uniform(-0.5, 0.5, len(qubits)))
        pf = Portfolio([Asset(float(rng.uniform(500, 3000)), float(rng.uniform(0.02, 0.3)),
                              float(rng.uniform(0.05, 0.3)), shared) for _ in range(5)])
        grids = [FactorGrid(q) for q in qubits]
        ppf = qvar.gaussian.std_normal_ppf
        calls = []
        monkeypatch.setattr(qvar.gaussian, "std_normal_ppf",
                            lambda p: calls.append(p) or ppf(p))
        gates = build_model(pf, grids, variant, encoding).gates
        assert calls == [[a.p0 for a in pf.assets]]
        text = "\n".join(f"{g.kind} {g.target} {g.theta.hex() if g.theta is not None else None} "
                         f"{g.controls}" for g in expand(gates))
        assert hashlib.sha256(text.encode()).hexdigest() == digest


class TestOneTablePerModel:
    """build_model and model_table evaluate a model's PDs in one conditional_pd_table call:
    one F call for all of its points and one F^-1 call for all assets' p0."""

    @pytest.mark.parametrize("variant, encoding", [("multi_rotation", "exact"),
                                                   ("multi_rotation", "linear"),
                                                   ("single_rotation", "linear")])
    @pytest.mark.parametrize("build", [build_model, model_table])
    def test_one_cdf_call(self, monkeypatch, build, variant, encoding):
        rng = np.random.default_rng(61)
        shared = tuple(float(a) for a in rng.uniform(-0.5, 0.5, 2))
        pf = Portfolio([Asset(float(rng.uniform(500, 3000)), float(rng.uniform(0.02, 0.3)),
                              float(rng.uniform(0.05, 0.3)), shared) for _ in range(3)])
        cdf, ppf = qvar.gaussian.std_normal_cdf, qvar.gaussian.std_normal_ppf
        cdf_calls, ppf_calls = [], []
        monkeypatch.setattr(qvar.gaussian, "std_normal_cdf",
                            lambda x: cdf_calls.append(x) or cdf(x))
        monkeypatch.setattr(qvar.gaussian, "std_normal_ppf",
                            lambda p: ppf_calls.append(p) or ppf(p))
        build(pf, [FactorGrid(2), FactorGrid(3)], variant, encoding)
        assert len(cdf_calls) == 1
        assert ppf_calls == [[a.p0 for a in pf.assets]]


class TestLinearEncoding:
    def test_fit_reproduces_endpoints(self):
        grids = [FactorGrid(2), FactorGrid(3, 2.0)]
        for asset in ASSETS:
            for f, grid in enumerate(grids):
                slope, offset = secant(asset, f, grids)
                mids = [0.0] * len(grids)     # each grid's center
                for i in (0, grid.size - 1):
                    z = list(mids)
                    z[f] = grid.values[i]
                    true_theta = 2 * math.asin(math.sqrt(oracle_pd(asset, z)))
                    assert abs(slope * i + offset - true_theta) < 1e-12

    def test_fit_frozen_value(self):
        grids = [FactorGrid(2), FactorGrid(2)]
        slope, offset = secant(ASSETS[0], 0, grids)
        assert abs(slope - FIT_SLOPE_A0_F0) < 1e-12
        assert abs(offset - FIT_OFFSET_A0_F0) < 1e-12

    def test_constant_angle_for_zero_rho(self):
        asset = Asset(5.0, 0.2, 0.0, (0.4, 0.1))
        grids = [FactorGrid(2), FactorGrid(2)]
        slope, offset = secant(asset, 0, grids)
        assert slope == pytest.approx(0.0, abs=1e-14)
        assert offset == pytest.approx(2 * math.asin(math.sqrt(0.2)), abs=1e-12)

    def test_linear_equals_exact_at_zero_rho(self):
        shared_kwargs = dict(p0=0.25, rho=0.0)
        pf = Portfolio([Asset(1.0, alphas=(0.35, 0.2), **shared_kwargs),
                        Asset(2.0, alphas=(0.1, 0.25), **shared_kwargs)])
        grids = [FactorGrid(2), FactorGrid(2)]
        exact = model_joint(build_model(pf, grids, "multi_rotation", "exact"))
        linear = model_joint(build_model(pf, grids, "multi_rotation", "linear"))
        assert np.abs(exact - linear).max() < 1e-12

    def test_linear_converges_to_exact_as_rho_vanishes(self):
        grids = [FactorGrid(2), FactorGrid(2)]
        for rho in (1e-12, 1e-13):
            pf = Portfolio([Asset(1.0, 0.15, rho, (0.35, 0.2)),
                            Asset(2.0, 0.25, rho, (0.1, 0.25))])
            exact = model_joint(build_model(pf, grids, "multi_rotation", "exact"))
            linear = model_joint(build_model(pf, grids, "multi_rotation", "linear"))
            assert np.abs(exact - linear).max() < 1e-10

    def test_rotation_block_count(self):
        # linear encoding: one affine block per (asset, factor) pair
        pf = Portfolio(ASSETS)
        grids = [FactorGrid(2), FactorGrid(2)]
        model = build_model(pf, grids, "multi_rotation", "linear")
        ry_on_assets = [g for g in model.gates
                        if g.kind == "ry" and g.target in model.asset_qubits]
        # per asset: 1 offset rotation + n_z controlled per factor
        assert len(ry_on_assets) == 2 * (1 + 2 + 2)


class TestSingleRotation:
    SHARED = (0.35, 0.20)

    def portfolio(self):
        return Portfolio([Asset(1000.5, 0.15, 0.10, self.SHARED),
                          Asset(2000.5, 0.25, 0.05, self.SHARED)])

    def test_heterogeneous_alphas_rejected(self):
        grids = [FactorGrid(2), FactorGrid(2)]
        with pytest.raises(ValueError, match="asset 1"):
            build_model(Portfolio(ASSETS), grids, "single_rotation", "linear")

    def test_marginals_match_sum_grid_oracle(self):
        pf = self.portfolio()
        grids = [FactorGrid(2), FactorGrid(2)]
        model = build_model(pf, grids, "single_rotation", "linear")
        plan = index_sum_plan(grids, self.SHARED)

        # classical convolution over the induced sum grid: factor r's values start at
        # its base and step by delta, so sum register value s stands for y(s)
        bases = [-0.5 * plan.delta * (n_r - 1) for n_r in plan.n_points]
        s_max = sum(n_r - 1 for n_r in plan.n_points)

        def y_of_sum(s):
            return plan.delta * s + sum(bases)

        per_factor = []
        for grid, alpha, n_r, base in zip(grids, self.SHARED, plan.n_points, bases):
            values = base + plan.delta * np.arange(n_r)
            dens = stats.norm.pdf(values / abs(alpha))
            per_factor.append(dens / dens.sum())
        sum_probs = np.zeros(s_max + 1)
        for combo in itertools.product(*(range(n) for n in plan.n_points)):
            sum_probs[sum(combo)] += np.prod([per_factor[r][i] for r, i in enumerate(combo)])

        y_lo = y_of_sum(0)
        y_hi = y_of_sum(s_max)
        state = apply(model.gates, zero_state(model.n_qubits))
        for asset, q in zip(pf.assets, model.asset_qubits):
            def theta_at(y):
                pd = stats.norm.cdf(
                    (stats.norm.ppf(asset.p0) - math.sqrt(asset.rho) * y) / math.sqrt(1 - asset.rho))
                return 2 * math.asin(math.sqrt(pd))
            slope = (theta_at(y_hi) - theta_at(y_lo)) / s_max
            offset = theta_at(y_lo)
            want = sum(p * math.sin(0.5 * (offset + slope * s)) ** 2
                       for s, p in enumerate(sum_probs))
            assert marginal_probability(state, q, 1) == pytest.approx(want, abs=1e-10)

    def test_sum_register_uncomputed(self):
        pf = self.portfolio()
        grids = [FactorGrid(2), FactorGrid(2)]
        model = build_model(pf, grids, "single_rotation", "linear")
        state = apply(model.gates, zero_state(model.n_qubits))
        assert probabilities(state, model.ancilla_qubits)[0] == pytest.approx(1.0, abs=1e-10)

    def test_reduces_to_single_factor_linear_at_r1(self):
        pf = Portfolio([Asset(7.0, 0.2, 0.1, (1.0,)), Asset(3.0, 0.3, 0.2, (1.0,))])
        grid = FactorGrid(2)
        single = build_model(pf, [grid], "single_rotation", "linear")
        linear = build_model(pf, [grid], "multi_rotation", "linear")
        s_state = apply(single.gates, zero_state(single.n_qubits))
        l_state = apply(linear.gates, zero_state(linear.n_qubits))
        s_joint = probabilities(s_state, list(single.factor_qubits[0]) + single.asset_qubits)
        l_joint = probabilities(l_state, list(linear.factor_qubits[0]) + linear.asset_qubits)
        assert np.abs(s_joint - l_joint).max() < 1e-9

    def test_one_rotation_block_per_asset(self):
        # controlled rotations on each asset touch only the sum register, and
        # their count does not grow with the number of factors
        def controlled_ry_count(r):
            shared = tuple([0.3] * r)
            assets = [Asset(1.0, 0.2, 0.1, shared), Asset(2.0, 0.25, 0.05, shared)]
            grids = [FactorGrid(1) for _ in range(r)]
            model = build_model(Portfolio(assets), grids, "single_rotation", "linear")
            counts = []
            for q in model.asset_qubits:
                gates = [g for g in model.gates if g.kind == "ry" and g.target == q]
                assert all(set(c for c, _ in g.controls) <= set(model.ancilla_qubits)
                           for g in gates)
                counts.append(len(gates))
            return counts, model

        counts2, model2 = controlled_ry_count(2)
        counts3, model3 = controlled_ry_count(3)
        n_sum2 = len(model2.ancilla_qubits)
        n_sum3 = len(model3.ancilla_qubits)
        assert counts2 == [1 + n_sum2] * 2
        assert counts3 == [1 + n_sum3] * 2

    def test_zero_weight_factor(self):
        shared = (0.4, 0.0)
        pf = Portfolio([Asset(1.0, 0.2, 0.1, shared)])
        grids = [FactorGrid(2), FactorGrid(2)]
        model = build_model(pf, grids, "single_rotation", "linear")
        plan = index_sum_plan(grids, shared)
        assert plan.n_points[1] == 1
        state = apply(model.gates, zero_state(model.n_qubits))
        assert abs(np.linalg.norm(state) - 1) < 1e-10


class TestOneModelPerPair:
    """Each (variant, encoding) that build_model accepts names its own model: no pair is
    another's alias, and every other pair, single_factor's old name among them, is
    refused by the builder and the table alike."""

    ACCEPTED = [("multi_rotation", "exact"), ("multi_rotation", "linear"),
                ("single_rotation", "linear")]

    @pytest.mark.parametrize("r", [1, 2])
    def test_no_two_accepted_pairs_build_one_model(self, r):
        shared = (0.35, 0.2)[:r]
        pf = Portfolio([Asset(1000.5, 0.15, 0.10, shared), Asset(2000.5, 0.25, 0.05, shared)])
        grids = [FactorGrid(2), FactorGrid(3)][:r]
        models = set()
        for pair in itertools.product((*VARIANTS, "single_factor"), ENCODINGS):
            if pair not in self.ACCEPTED:
                for build in (build_model, model_table):
                    with pytest.raises(ValueError):
                        build(pf, grids, *pair)
                continue
            gates = expand(build_model(pf, grids, *pair).gates)
            # Angles in hex, so two models differ by a bit at least.
            models.add(tuple((g.kind, g.target, g.theta.hex() if g.theta is not None else None,
                              g.controls) for g in gates))
        assert len(models) == len(self.ACCEPTED)


class TestValidation:
    def test_asset_validation(self):
        # Asset owns the obligor's rules; conditional_pd_table evaluates only checked ones.
        with pytest.raises(ValueError):
            Asset(-1.0, 0.2, 0.1, (1.0,))
        for p0 in (0.0, 1.0):
            with pytest.raises(ValueError, match="p0 must lie strictly inside"):
                Asset(1.0, p0, 0.1, (1.0,))
        for rho in (1.0, -0.1):
            with pytest.raises(ValueError, match="rho must lie in"):
                Asset(1.0, 0.2, rho, (1.0,))
        with pytest.raises(ValueError, match="at least one factor weight"):
            Asset(1.0, 0.2, 0.1, ())

    def test_portfolio_refuses_lgds_summing_past_the_largest_float(self):
        for lgds in ([1e308, 1e308], [10 ** 400], [1.0, math.inf]):
            with pytest.raises(ValueError, match="the LGDs sum to inf, past the largest float"):
                Portfolio([Asset(lgd, 0.1, 0.1, (0.3,)) for lgd in lgds])
        # The largest float itself is a loss the table can hold.
        pf = Portfolio([Asset(lgd, 0.1, 0.1, (0.3,)) for lgd in (1.7e308, 0.0, 0.07e308)])
        assert pf.pattern_losses[-1] == 1.7e308 + 0.07e308 <= np.finfo(float).max

    def test_loss_table_is_built_once_and_read_only(self):
        pf = Portfolio([Asset(lgd, 0.1, 0.1, (0.3,)) for lgd in (1000.5, 250.0, 3.0)])
        losses = pf.pattern_losses
        assert pf.pattern_losses is losses
        with pytest.raises(ValueError, match="read-only"):
            losses[0] = 1.0
        with pytest.raises(ValueError, match="read-only"):
            losses += 1.0
        assert losses.tolist() == [0.0, 3.0, 250.0, 253.0, 1000.5, 1003.5, 1250.5, 1253.5]
        # The one sort and the support map built on it are cached and read-only too.
        order, (support, index) = pf.loss_order, pf.support
        assert pf.loss_order is order and pf.support[0] is support and pf.support[1] is index
        for array in (order, support, index):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 1
        assert support.tolist() == losses.tolist() and index.tolist() == list(range(8))

    def test_portfolio_requires_uniform_factor_count(self):
        with pytest.raises(ValueError, match="asset 1"):
            Portfolio([Asset(1.0, 0.2, 0.1, (1.0,)), Asset(1.0, 0.2, 0.1, (1.0, 0.5))])

    def test_one_grid_per_factor(self):
        # model_layout owns the weights' match to the grids, for the model builders and
        # for the enumeration oracle alike.
        pf = Portfolio(ASSETS)
        for grids in ([FactorGrid(2)], [FactorGrid(2)] * 3):
            message = f"portfolio has 2 factors but {len(grids)} grids were given"
            with pytest.raises(ValueError, match=message):
                model_layout(pf, grids, "multi_rotation", "exact")
            with pytest.raises(ValueError, match=message):
                build_model(pf, grids, "multi_rotation", "exact")
            with pytest.raises(ValueError, match=message):
                exact_loss_distribution(pf, grids)


class TestLossTable:
    def test_pattern_losses_are_their_definition(self):
        # Bit for bit the plain loop: each itertools.product pattern (asset 0 most
        # significant) summed asset by asset from 0.0, an LGD where the asset defaults.
        rng = np.random.default_rng(36)
        for k in [*range(1, 11), *rng.integers(1, 11, 20)]:
            lgds = [float(rng.choice([0.0, rng.integers(1, 9), round(rng.uniform(0, 3000), 1)]))
                    for _ in range(k)]
            pf = Portfolio([Asset(lgd, 0.2, 0.1, (0.3,)) for lgd in lgds])
            expected = []
            for pattern in itertools.product((0, 1), repeat=k):
                loss = 0.0
                for lgd, bit in zip(lgds, pattern):
                    loss += lgd if bit else 0.0
                expected.append(loss)
            assert pf.pattern_losses.tobytes() == np.array(expected).tobytes(), lgds


class TestSupportMap:
    """support_map, the one support rule, and the distributions it maps: each
    probability summed in input order by one bincount."""

    @staticmethod
    def mapped(losses, probs, order):
        support, index = support_map(np.asarray(losses, dtype=float), order)
        return support, index, np.bincount(index, weights=probs)

    @staticmethod
    def ties_reversed(losses):
        """A sorting permutation that puts tied losses in descending input order."""
        return losses.size - 1 - np.argsort(losses[::-1], kind="stable")

    def test_aggregates(self):
        losses = np.array([1.0, 0.0, 1.0])
        support, index, probs = self.mapped(losses, [0.25, 0.5, 0.25], np.argsort(losses))
        assert support.tolist() == [0.0, 1.0] and index.tolist() == [1, 0, 1]
        assert probs.tolist() == [0.5, 0.5]

    def test_merges_an_ulp_cluster_at_its_largest(self):
        low = 0.0 + 1076.3 + 721.9                   # 1798.1999999999998
        high = np.nextafter(1798.2, np.inf)
        assert low < 1798.2 < high
        losses = np.array([1798.2, 0.0, high, low])
        support, index, probs = self.mapped(losses, [0.25, 0.5, 0.125, 0.125],
                                            np.argsort(losses))
        assert support.tolist() == [0.0, high] and index.tolist() == [1, 0, 1, 1]
        assert probs.tolist() == [0.5, 0.5]
        assert LossDistribution(support, probs).cdf(high) == 1.0

    def test_keeps_points_past_the_tolerance(self):
        top = 1e6
        step = 2e-12 * top                           # twice the merge tolerance
        losses = [0.0, 5.0, 5.0 + step, 5.0 + 2 * step, top]
        order = np.arange(5)[::-1]
        support, index, probs = self.mapped(losses[::-1], [0.2] * 5, order)
        assert support.tolist() == losses and index.tolist() == [4, 3, 2, 1, 0]
        assert probs.tolist() == [0.2] * 5

    def test_every_sorting_permutation_gives_the_same_bytes(self):
        # ULP_PAIRS' LGDs (tests/test_cli.py) put 1798.2 an ulp from 1076.3 + 721.9;
        # the zero and repeated LGDs tie patterns exactly.
        pf = Portfolio([Asset(lgd, 0.2, 0.1, (0.3,))
                        for lgd in (1076.3, 1974.6, 721.9, 1798.2, 0.0, 2.5, 2.5)])
        losses = pf.pattern_losses
        probs = np.random.default_rng(36).dirichlet(np.ones(losses.size))
        orders = [np.argsort(losses, kind="stable"), np.argsort(losses),
                  self.ties_reversed(losses)]
        assert not np.array_equal(orders[0], orders[2])
        for order in orders:
            assert np.all(np.diff(losses[order]) >= 0)
        stable = self.mapped(losses, probs, orders[0])
        assert np.unique(losses).size > stable[0].size     # the ulp cluster merged
        for order in orders[1:]:
            got = self.mapped(losses, probs, order)
            assert all(a.tobytes() == b.tobytes() for a, b in zip(got, stable))
        assert all(a.tobytes() == b.tobytes() for a, b in zip(pf.support, stable[:2]))

    def test_tied_probabilities_sum_in_input_order(self):
        losses, probs = np.array([0.0, 5.0, 5.0, 5.0]), np.array([0.4, 0.1, 0.2, 0.3])
        # In sorted order with the ties reversed, the tie would sum to 0.6.
        order = self.ties_reversed(losses)
        assert order.tolist() == [0, 3, 2, 1] and float(probs[order][1:].sum()) == 0.6
        for order in (np.argsort(losses), order, np.argsort(losses, kind="stable")):
            assert self.mapped(losses, probs, order)[2].tolist() == [0.4, 0.6000000000000001]
