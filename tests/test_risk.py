"""Risk-measure tests: oracles, Monte Carlo, cdf paths and VaR bisection."""

import itertools
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

import qvar.risk as risk
from qvar.circuit import zero_state
from qvar.estimation import IqaeConfig, iqae
from qvar.gaussian import FactorGrid
from qvar.objective import objective_qubit
from qvar.risk import (LossDistribution, cdf_estimator, exact_loss_distribution, expected_loss,
                       joint_grid, model_distribution, monte_carlo_distribution, var_bisection)
from qvar.uncertainty import Asset, Portfolio, build_model

from oracles import (apply, build_a_circuit, conditional_pd, distribution, exact_amplitude,
                     quantile, total_variation_distance)

# frozen from the independent mpmath enumeration of the two-asset example
ORACLE_LOSSES = [0.0, 1000.5, 2000.5, 3001.0]
ORACLE_PROBS = [0.6500424380360375, 0.10501933983692423,
                0.2101895296951588, 0.03474869243187963]
ORACLE_EL = 629.8368296500785
ORACLE_VAR_95 = 2000.5
ORACLE_CDF_AT_VAR = 0.9652513075681205


def table_inputs():
    pf = Portfolio([Asset(1000.5, 0.15, 0.10, (0.35, 0.20)),
                    Asset(2000.5, 0.25, 0.05, (0.10, 0.25))])
    grids = [FactorGrid(2), FactorGrid(2)]
    return pf, grids


def exact_cdf(pf, grids, variant="multi_rotation", encoding="exact"):
    """The model distribution's cdf, off its angle table, as analyze reads it."""
    return model_distribution(pf, grids, variant, encoding).cdf


def model_state(model, n_qubits):
    """The model's gates run on |0> of n_qubits, its width or an A circuit's."""
    return apply(model.gates, zero_state(n_qubits))


def state_distribution(portfolio, model, state):
    """The oracle of the model distribution, off a model_state: each pattern of the
    model's top K (asset) qubits sums |amplitude|^2 over its first 2**width amplitudes."""
    n, k = model.n_qubits, portfolio.k
    probs = np.abs(state[:2 ** n]) ** 2
    # Axis i of the reshape is asset K-1-i; reversing the K axes gives product order.
    per_pattern = probs.reshape((2,) * k + (-1,)).sum(axis=-1).transpose().ravel()
    return distribution(portfolio.pattern_losses, per_pattern)


def bisect(pf, grids, alpha, kind, iqae_config=None):
    """VaR bisection with the classical ("classical") or model cdf."""
    dist = exact_loss_distribution(pf, grids)
    cdf = dist.cdf if kind == "classical" else exact_cdf(pf, grids)
    return var_bisection(dist, alpha, cdf_estimator(cdf, iqae_config))


def random_portfolio(rng, k, r, shared=False, integer=False):
    alphas = tuple(float(a) for a in rng.uniform(0.1, 0.5, r))
    return Portfolio([
        Asset(float(rng.integers(1, 7)) if integer else round(float(rng.uniform(500, 3000)), 1),
              float(rng.uniform(0.02, 0.3)), float(rng.uniform(0.05, 0.3)),
              alphas if shared else tuple(float(a) for a in rng.uniform(0.1, 0.5, r)))
        for _ in range(k)])


def thresholds(pf, grids):
    """Every support point, plus one threshold below and one above."""
    support = exact_loss_distribution(pf, grids).losses
    return [float(support[0]) - 1.0, *map(float, support), float(support[-1]) + 1.0]


def reference_exact_loss_distribution(portfolio, grids):
    """The pattern-by-pattern enumeration loop the blocked kernel replaced.

    Each pattern's loss is summed in Python, asset by asset.
    """
    idx = np.array(list(itertools.product(*(range(g.size) for g in grids))))
    z_joint = np.column_stack([g.values[idx[:, c]] for c, g in enumerate(grids)])
    pz = np.prod([g.probs[idx[:, c]] for c, g in enumerate(grids)], axis=0)
    pd = np.column_stack([
        conditional_pd(a.p0, a.rho, a.alphas, z_joint) for a in portfolio.assets])
    losses = []
    probs = []
    for pattern in itertools.product((0, 1), repeat=portfolio.k):
        bits = np.asarray(pattern)
        weight = np.prod(np.where(bits, pd, 1.0 - pd), axis=1)
        losses.append(sum(lgd * bit for lgd, bit in zip(portfolio.lgds, pattern)))
        probs.append(float(pz @ weight))
    return distribution(losses, probs)


def edge_portfolio(rng, k, r, *, p0=None, rho=None, lgd=None, alphas=None, decimals=1):
    """Random portfolio with signed weights; keyword values override every asset."""
    return Portfolio([
        Asset(round(float(rng.uniform(0, 3000)), decimals) if lgd is None else lgd,
              float(rng.uniform(0.01, 0.9)) if p0 is None else p0,
              float(rng.uniform(0.0, 0.9)) if rho is None else rho,
              tuple(float(a) for a in rng.uniform(-0.5, 0.5, r)) if alphas is None else alphas)
        for _ in range(k)])


def reference_monte_carlo_distribution(portfolio, grids, n_paths, seed):
    """The per-path Monte Carlo that gathering PDs from the factor grid replaced.

    Paths are counted per default pattern, each pattern's loss is summed in
    Python, asset by asset, and unseen patterns are dropped after merging.
    """
    rng = np.random.default_rng(seed)
    z = np.empty((n_paths, len(grids)))
    for col, grid in enumerate(grids):
        idx = rng.choice(grid.size, size=n_paths, p=grid.probs / grid.probs.sum())
        z[:, col] = grid.values[idx]
    pd = np.column_stack([
        conditional_pd(a.p0, a.rho, a.alphas, z) for a in portfolio.assets])
    defaults = rng.random((n_paths, portfolio.k)) < pd
    seen, counts = np.unique(defaults, axis=0, return_counts=True)
    per_pattern = dict(zip(map(tuple, seen.astype(int).tolist()), counts.tolist()))
    patterns = list(itertools.product((0, 1), repeat=portfolio.k))
    dist = distribution(
        [sum(lgd * bit for lgd, bit in zip(portfolio.lgds, p)) for p in patterns],
        [per_pattern.get(p, 0) / n_paths for p in patterns])
    keep = dist.probs > 0
    return LossDistribution(dist.losses[keep], dist.probs[keep])


def assert_same_bytes(pf, grids):
    got = exact_loss_distribution(pf, grids)
    want = reference_exact_loss_distribution(pf, grids)
    assert got.losses.tobytes() == want.losses.tobytes()
    assert got.probs.tobytes() == want.probs.tobytes()


class TestBlockedEnumeration:
    """The blocked kernel reproduces the pattern loop byte for byte."""

    @pytest.mark.parametrize("k", range(1, 15))
    def test_random_portfolios(self, k):
        rng = np.random.default_rng(100 + k)
        for _ in range(2 if k < 13 else 1):
            r = int(rng.integers(1, 4))
            grids = [FactorGrid(int(n)) for n in rng.integers(1, 4, r)]
            if k + sum(g.n_z for g in grids) > 18:
                grids = grids[:1]
            assert_same_bytes(edge_portfolio(rng, k, len(grids),
                                             decimals=int(rng.integers(0, 3))), grids)

    @pytest.mark.parametrize("k", [9, 10, 11, 12, 13, 14])
    def test_block_seams(self, k):
        # At M = 64 a block holds 2**11 patterns, 128 columns a row over 4 row levels:
        # one block up to K = 11, then 2, 4 and 8, so at K = 14 the running prefix
        # restarts from each of its 3 outer bits.
        rng = np.random.default_rng(200 + k)
        assert_same_bytes(edge_portfolio(rng, k, 2), [FactorGrid(3)] * 2)

    def test_wide_portfolio_shape(self):
        rng = np.random.default_rng(7)
        pf = random_portfolio(rng, 14, 2)
        assert_same_bytes(pf, [FactorGrid(3), FactorGrid(3)])

    def test_sixteen_assets(self):
        # 16 terms is where a BLAS dot starts its unrolled kernel; a loss taken
        # as `lgds @ bits` would round differently from the asset-by-asset sum.
        # At M = 2 the one block holds 4,096 columns a row and 4 row levels.
        rng = np.random.default_rng(16)
        assert_same_bytes(edge_portfolio(rng, 16, 1), [FactorGrid(1)])

    @pytest.mark.parametrize("options", [
        {"rho": 0.0},
        {"p0": 1e-12, "rho": 0.9, "alphas": (1.0, 1.0)},       # pd clipped at the tiny end
        {"p0": 1 - 1e-12, "rho": 0.9, "alphas": (1.0, 1.0)},   # and at the top
        {"lgd": 0.0},
        {"alphas": (0.0, 0.0)},
    ])
    def test_edge_inputs(self, options):
        rng = np.random.default_rng(31)
        grids = [FactorGrid(2), FactorGrid(3)]
        for k in (1, 6, 11):
            assert_same_bytes(edge_portfolio(rng, k, 2, **options), grids)

    def test_merged_zero_lgds(self):
        rng = np.random.default_rng(32)
        pf = edge_portfolio(rng, 10, 2)
        pf = Portfolio([replace(a, lgd=0.0) if i % 3 == 0 else a
                        for i, a in enumerate(pf.assets)])
        assert_same_bytes(pf, [FactorGrid(2), FactorGrid(2)])

    @pytest.mark.parametrize("k, n_z", [
        (4, [2, 2]),       # M = 16: one block, no outer bit, every pattern a column, no row level
        (5, [10]),         # M = 1,024: one block, 8 columns a row over 2 row levels
        (2, [18]),         # M past _BLOCK_ELEMENTS: a block is one pattern
        (8, [13]),         # M = 8,192 fills a row: no column beside another, and 16 blocks
                           # of 16 patterns restart the prefix from each of 4 outer bits
        (3, [17]),         # M = _BLOCK_ELEMENTS: a block is one pattern, read off the prefix
    ])
    def test_column_seams(self, k, n_z):
        rng = np.random.default_rng(400 + k)
        assert_same_bytes(edge_portfolio(rng, k, len(n_z)), [FactorGrid(n) for n in n_z])

    @pytest.mark.parametrize("k, n_z", [(14, [3, 3]), (8, [13]), (1, [20])])
    def test_blocks_allocate_nothing(self, k, n_z):
        # A call holds its block buffers, where a tree level runs, its tiled rows, q, its
        # prefix and a few arrays of 2**K floats.  A tree level written over its own input
        # would still give the same bytes, since numpy first copies an input that overlaps
        # the output, but that copy is up to half a block more.  At M = 2**20 no level
        # runs (tail 0), and two unread block buffers were 16 MiB of a 48 MiB peak.
        rng = np.random.default_rng(500 + k)
        pf, grids = edge_portfolio(rng, k, len(n_z)), [FactorGrid(n) for n in n_z]
        pd, pz = joint_grid(pf, grids)
        pf.support    # cached before the call, as every caller's loss table is
        m = pz.size
        tail = min(k, max(0, (risk._BLOCK_ELEMENTS // m).bit_length() - 1))
        cols = min(tail, max(0, (risk._ROW_ELEMENTS // m).bit_length() - 1))
        floats = ((2 * 2 ** tail * m if tail else 0) + 2 * (tail - cols) * 2 ** cols * m
                  + (3 * k - tail + 1) * m)
        tracemalloc.start()
        try:
            risk.mixture_distribution(pf, pd, pz)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * (floats + 4 * 2 ** k) + (64 << 10)

    @pytest.mark.parametrize("n", [1, 2, 3, 7, 14, 16, 23, 64, 512])
    def test_stacked_matmul_is_the_vector_dot(self, n):
        # The kernel relies on (rows[:, None, :] @ v[:, None]) running the same
        # dot as the loop's `v @ row`, also with the rows stacked as (n, w, 1, m)
        # columns, and conditional_pd_table's z @ alphas on (N, 1, R) points on
        # `row @ v`; a numpy/BLAS change there must fail here.
        rng = np.random.default_rng(n)
        rows = rng.random((300, n)) * rng.choice([1e-3, 1.0, 1e3], (300, n))
        vector = rng.random(n)
        want = np.array([vector @ row for row in rows]).tobytes()
        stacked = (rows[:, None, :] @ vector[:, None])[:, 0, 0]
        assert stacked.tobytes() == want
        for w in (1, 4, 15):
            columns = rows.reshape(-1, w, 1, n) @ vector[:, None]
            assert columns.ravel().tobytes() == want
        points = (rows[:, None, :] @ vector)[:, 0]
        assert points.tobytes() == np.array([row @ vector for row in rows]).tobytes()

    def test_aligned_buffers_start_on_a_64_byte_line(self):
        # Odd-sized arrays between the calls move where the heap puts the next one.
        # An empty array holds no line to start on.
        keep = []
        for shape in [(0,), (1,), (7,), (8,), (1000,), (3, 5), (2, 4096), (0, 2, 64), (7, 2, 1024)]:
            keep.append(np.empty(int(np.prod(shape)) % 13 + 1))
            buffer = risk._aligned(shape)
            assert buffer.size == 0 or buffer.ctypes.data % 64 == 0
            assert buffer.shape == shape and buffer.flags.c_contiguous
            buffer[...] = 1.0
            keep.append(buffer)


class TestGridMonteCarlo:
    """PDs gathered from the factor grid reproduce the per-path draws byte for byte."""

    @staticmethod
    def assert_same_draws(pf, grids, n_paths, seed):
        got = monte_carlo_distribution(pf, grids, joint_grid(pf, grids)[0], n_paths, seed)
        want = reference_monte_carlo_distribution(pf, grids, n_paths, seed)
        assert got.losses.tobytes() == want.losses.tobytes()
        assert got.probs.tobytes() == want.probs.tobytes()

    @pytest.mark.parametrize("k", range(1, 13))
    def test_random_portfolios(self, k):
        rng = np.random.default_rng(300 + k)
        for trial in range(3):
            r = int(rng.integers(1, 4))
            grids = [FactorGrid(int(n)) for n in rng.integers(1, 5, r)]
            n_paths = int(10 ** rng.uniform(0, np.log10(2e5)))
            self.assert_same_draws(edge_portfolio(rng, k, r), grids, n_paths, seed=k + trial)

    @pytest.mark.parametrize("n_paths", [1, 2, 3, 17, 4097, 200_000])
    def test_path_counts(self, n_paths):
        rng = np.random.default_rng(n_paths)
        grids = [FactorGrid(3), FactorGrid(2), FactorGrid(4)]
        self.assert_same_draws(edge_portfolio(rng, 5, 3), grids, n_paths, seed=n_paths)

    @pytest.mark.parametrize("k", [4, 14])
    def test_block_seams(self, k):
        # At 14 assets the 2**14-entry count array, not the buffer budget, sets the block.
        rng = np.random.default_rng(71)
        grids = [FactorGrid(2), FactorGrid(3)]
        pf = edge_portfolio(rng, k, 2)
        block = max(risk._BLOCK_ELEMENTS // (2 * k + 3), 2 ** k)    # paths per block
        for n_paths in (1, block - 1, block, block + 1, 3 * block + 7):
            self.assert_same_draws(pf, grids, n_paths, seed=n_paths)

    @pytest.mark.parametrize("qubits", [[1, 3], [2, 1, 2], [5], [6, 1]])
    def test_unequal_factor_grids(self, qubits):
        rng = np.random.default_rng(sum(qubits))
        grids = [FactorGrid(q) for q in qubits]
        for k in (1, 3, 7):
            self.assert_same_draws(edge_portfolio(rng, k, len(grids)), grids, 30_011, seed=k)

    @pytest.mark.parametrize("qubits", [[8], [10], [12], [10, 2]])
    def test_wide_factor_grids(self, qubits):
        # Here a sizeable share of draws falls in guide buckets that a cdf point
        # splits, and is searched.
        rng = np.random.default_rng(400 + sum(qubits))
        grids = [FactorGrid(q) for q in qubits]
        for k in (1, 4):
            self.assert_same_draws(edge_portfolio(rng, k, len(grids)), grids, 50_021, seed=k)

    def test_one_guide_table_per_distinct_grid(self, monkeypatch):
        # config_to_inputs gives factors of one shape one FactorGrid: its guide table is
        # built once, and the draws are those of separate grids.
        rng = np.random.default_rng(23)
        shared = FactorGrid(2)
        grids = [shared, FactorGrid(3), shared]
        made, guide_table = [], risk._guide_table
        monkeypatch.setattr(risk, "_guide_table", lambda cdf: made.append(1) or guide_table(cdf))
        self.assert_same_draws(edge_portfolio(rng, 4, 3), grids, 5003, seed=23)
        assert len(made) == 2

    @pytest.mark.parametrize("n_z", range(1, 13))
    def test_guide_table_is_searchsorted(self, n_z):
        probs = FactorGrid(n_z).probs
        cdf = np.cumsum(probs / probs.sum())
        cdf /= cdf[-1]
        guide = risk._guide_table(cdf)
        assert guide.size == risk._GUIDE_BUCKETS
        edges = np.arange(risk._GUIDE_BUCKETS + 1) / risk._GUIDE_BUCKETS
        # Every cdf point and bucket edge, and their neighbours, within [0, 1).
        points = np.concatenate([cdf, edges])
        u = np.concatenate([points, np.nextafter(points, -1.0), np.nextafter(points, 2.0)])
        u = u[(u >= 0.0) & (u < 1.0)]
        got = risk._guide_draw(cdf, guide, u, np.empty(u.size, np.intp),
                               np.empty(u.size, np.intp))
        assert got.tolist() == cdf.searchsorted(u, "right").tolist()
        # Searched are exactly the buckets with a cdf point strictly inside.
        scaled = cdf * risk._GUIDE_BUCKETS
        split = np.unique(np.floor(scaled[scaled != np.floor(scaled)]).astype(int))
        assert np.flatnonzero(guide < 0).tolist() == split.tolist()

    def test_memory_does_not_grow_with_paths(self):
        # The second case is 4 assets on one 10-qubit factor at 5e6 paths: its 1,024 grid
        # points split many guide buckets, so the searched draws run too.
        rng = np.random.default_rng(8)
        wide = Portfolio([Asset(1000.5, 0.15, 0.1, (0.35,)), Asset(2000.5, 0.25, 0.05, (0.1,)),
                          Asset(1500.0, 0.05, 0.2, (0.4,)), Asset(700.0, 0.3, 0.15, (0.25,))])
        for pf, grids, paths, seed in [
                (random_portfolio(rng, 4, 2), [FactorGrid(2), FactorGrid(2)], 10 ** 6, 8),
                (wide, [FactorGrid(10)], 5 * 10 ** 6, 11)]:
            tracemalloc.start()
            try:
                dist = monte_carlo_distribution(pf, grids, joint_grid(pf, grids)[0], paths,
                                                seed=seed)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 4 * 2 ** 20
            assert abs(dist.probs.sum() - 1.0) < 1e-12

    @pytest.mark.parametrize("options", [
        {"rho": 0.0},
        {"p0": 1e-12, "rho": 0.9, "alphas": (1.0, 1.0)},       # pd clipped at the tiny end
        {"p0": 1 - 1e-12, "rho": 0.9, "alphas": (1.0, 1.0)},   # and at the top
        {"lgd": 0.0},
        {"alphas": (0.0, 0.0)},
    ])
    def test_edge_inputs(self, options):
        rng = np.random.default_rng(33)
        grids = [FactorGrid(2), FactorGrid(3)]
        for k in (1, 6, 11):
            self.assert_same_draws(edge_portfolio(rng, k, 2, **options), grids, 50_000, seed=k)


class TestExactLossDistribution:
    def test_single_asset_uncorrelated(self):
        pf = Portfolio([Asset(100.0, 0.25, 0.0, (1.0,))])
        dist = exact_loss_distribution(pf, [FactorGrid(2)])
        assert np.allclose(dist.losses, [0.0, 100.0])
        assert np.allclose(dist.probs, [0.75, 0.25], atol=1e-12)

    def test_table_support(self):
        pf, grids = table_inputs()
        dist = exact_loss_distribution(pf, grids)
        assert np.allclose(dist.losses, ORACLE_LOSSES)

    def test_table_probability_vector(self):
        pf, grids = table_inputs()
        dist = exact_loss_distribution(pf, grids)
        assert np.abs(dist.probs - np.array(ORACLE_PROBS)).max() < 1e-12

    def test_budget_guard(self):
        pf = Portfolio([Asset(1.0, 0.2, 0.1, (0.5, 0.5, 0.5))])
        grids = [FactorGrid(8), FactorGrid(8), FactorGrid(8)]
        with pytest.raises(ValueError, match="budget"):
            exact_loss_distribution(pf, grids)

    def test_grid_count_checked(self):
        pf, _ = table_inputs()
        with pytest.raises(ValueError):
            exact_loss_distribution(pf, [FactorGrid(2)])


class TestMonteCarlo:
    def test_single_path_single_atom(self):
        pf, grids = table_inputs()
        dist = monte_carlo_distribution(pf, grids, joint_grid(pf, grids)[0], 1, seed=0)
        assert dist.losses.size == 1
        assert dist.probs[0] == 1.0

    def test_tv_distance_pinned_seed(self):
        pf, grids = table_inputs()
        pd = joint_grid(pf, grids)[0]
        mc = monte_carlo_distribution(pf, grids, pd, 10 ** 6, seed=20260810)
        exact = exact_loss_distribution(pf, grids)
        assert total_variation_distance(mc, exact) < 0.01

    def test_tv_shrinks_with_more_paths(self):
        pf, grids = table_inputs()
        exact = exact_loss_distribution(pf, grids)
        pd = joint_grid(pf, grids)[0]
        tv_small = total_variation_distance(
            monte_carlo_distribution(pf, grids, pd, 10 ** 4, seed=5), exact)
        tv_large = total_variation_distance(
            monte_carlo_distribution(pf, grids, pd, 10 ** 5, seed=5), exact)
        assert tv_large < tv_small

    def test_bernoulli_frequency(self):
        pf = Portfolio([Asset(1.0, 0.25, 0.0, (1.0,))])
        grids = [FactorGrid(2)]
        n = 10 ** 5
        dist = monte_carlo_distribution(pf, grids, joint_grid(pf, grids)[0], n, seed=99)
        freq = dist.probs[dist.losses == 1.0].sum()
        sigma = np.sqrt(0.25 * 0.75 / n)
        assert abs(freq - 0.25) < 3 * sigma

    @pytest.mark.parametrize("k", range(1, 13))
    def test_support_is_a_subset_of_the_enumeration(self, k):
        # Equal sums of 0.1-step LGDs land an ulp apart; Monte Carlo paths must
        # still land on the enumeration's support points, byte for byte.
        rng = np.random.default_rng(400 + k)
        pf = random_portfolio(rng, k, 2)
        grids = [FactorGrid(2), FactorGrid(1)]
        mc = monte_carlo_distribution(pf, grids, joint_grid(pf, grids)[0], 20_000, seed=k)
        support = exact_loss_distribution(pf, grids).losses
        assert set(mc.losses.view(np.int64)) <= set(support.view(np.int64))

    def test_deterministic(self):
        pf, grids = table_inputs()
        pd = joint_grid(pf, grids)[0]
        d1 = monte_carlo_distribution(pf, grids, pd, 1000, seed=4)
        d2 = monte_carlo_distribution(pf, grids, pd, 1000, seed=4)
        assert np.array_equal(d1.losses, d2.losses)
        assert np.array_equal(d1.probs, d2.probs)


class TestExpectedLoss:
    def test_simple(self):
        dist = LossDistribution(np.array([0.0, 100.0]), np.array([0.75, 0.25]))
        assert expected_loss(dist) == pytest.approx(25.0)

    def test_zero_lgds(self):
        pf = Portfolio([Asset(0.0, 0.2, 0.1, (1.0,))])
        dist = exact_loss_distribution(pf, [FactorGrid(2)])
        assert expected_loss(dist) == 0.0

    def test_table_value_and_identity(self):
        pf, grids = table_inputs()
        dist = exact_loss_distribution(pf, grids)
        el = expected_loss(dist)
        assert abs(el - ORACLE_EL) < 1e-9
        # sum_k LGD_k * unconditional PD_k computed from the same model
        import itertools
        el_identity = 0.0
        for asset in pf.assets:
            pd_uncond = 0.0
            for combo in itertools.product(range(4), repeat=2):
                pz = grids[0].probs[combo[0]] * grids[1].probs[combo[1]]
                z = (grids[0].values[combo[0]], grids[1].values[combo[1]])
                pd_uncond += pz * conditional_pd(asset.p0, asset.rho, asset.alphas, z)
            el_identity += asset.lgd * pd_uncond
        assert abs(el - el_identity) < 1e-9


class TestCdfPoint:
    """Single cdf values through each kind of cdf_estimator."""

    def test_saturation(self):
        pf, grids = table_inputs()
        cdf = cdf_estimator(exact_cdf(pf, grids))
        assert cdf(5000.0).estimate == pytest.approx(1.0, abs=1e-12)
        assert cdf(-0.5).estimate == 0.0

    def test_exact_vs_classical(self):
        pf, grids = table_inputs()
        exact = cdf_estimator(exact_cdf(pf, grids))
        classical = cdf_estimator(exact_loss_distribution(pf, grids).cdf)
        for x in (0.0, 1500.0, 2000.5):
            assert abs(exact(x).estimate - classical(x).estimate) < 1e-9

    def test_distribution_lookup_estimator(self):
        dist = LossDistribution(np.array([0.0, 1200.0]), np.array([0.25, 0.75]))
        probe = cdf_estimator(dist.cdf)(1500.0)
        assert probe.estimate == dist.cdf(1500.0) == 1.0
        assert probe.ci_low is None

    def test_iqae_estimator(self):
        pf, grids = table_inputs()
        cfg = IqaeConfig(epsilon=0.01, confidence=0.95, seed=13)
        got = cdf_estimator(exact_cdf(pf, grids), cfg)(1500.0).estimate
        exact = cdf_estimator(exact_cdf(pf, grids))(1500.0).estimate
        assert abs(got - exact) <= 0.01


class TestModelCdf:
    """The model's angle table reproduces its simulation and the per-threshold
    gate-level readout.

    The table's cdf mixes sin^2(angle / 2) over the cells where the readout
    sums 2**n masked amplitudes, so the two agree to rounding.
    """

    @pytest.mark.parametrize("seed, variant, encoding, r, shared", [
        (1, "multi_rotation", "exact", 2, False),
        (2, "multi_rotation", "linear", 2, False),
        (3, "multi_rotation", "exact", 1, False),
        (4, "multi_rotation", "linear", 1, False),
        (5, "single_rotation", "linear", 2, True),
    ])
    def test_equals_s_free_readout(self, seed, variant, encoding, r, shared):
        rng = np.random.default_rng(seed)
        for _ in range(12):
            pf = random_portfolio(rng, int(rng.integers(1, 5)), r, shared=shared)
            grids = [FactorGrid(int(rng.integers(1, 3))) for _ in range(r)]
            cdf = exact_cdf(pf, grids, variant, encoding)
            for x in thresholds(pf, grids):
                a_circ = build_a_circuit(pf, grids, x, variant=variant, encoding=encoding)
                assert abs(cdf(x) - exact_amplitude(*a_circ)) <= 1e-12

    @pytest.mark.parametrize("mode", ["s_free", "weighted_sum"])
    @pytest.mark.parametrize("seed, variant, encoding, r, shared", [
        (21, "multi_rotation", "exact", 2, False),
        (22, "multi_rotation", "linear", 2, False),
        (23, "multi_rotation", "exact", 1, False),
        (24, "multi_rotation", "linear", 1, False),
        (25, "single_rotation", "linear", 2, True),
        (26, "single_rotation", "linear", 2, True),
    ])
    def test_a_width_state_reads_as_model_width(self, seed, variant, encoding, r, shared,
                                                 mode):
        # The statevector oracle, at the model's width and at the mode's A width (as
        # compare simulates it), pins the angle table: one support, cdf within 1e-12.
        # 10 models per case, 120 in all.
        rng = np.random.default_rng(seed)
        for _ in range(10):
            pf = random_portfolio(rng, int(rng.integers(1, 5)), r, shared=shared,
                                  integer=mode == "weighted_sum")
            grids = [FactorGrid(int(rng.integers(1, 4))) for _ in range(r)]
            table = model_distribution(pf, grids, variant, encoding)
            model = build_model(pf, grids, variant, encoding)
            narrow = state_distribution(pf, model, model_state(model, model.n_qubits))
            wide = state_distribution(pf, model,
                                      model_state(model, objective_qubit(pf, model, mode) + 1))
            assert wide.probs.tobytes() == narrow.probs.tobytes()
            for oracle in (narrow, wide):
                assert oracle.losses.tobytes() == table.losses.tobytes()
                assert np.abs(np.cumsum(oracle.probs) - np.cumsum(table.probs)).max() <= 1e-12

    def test_weighted_sum_readout(self):
        rng = np.random.default_rng(19)
        for _ in range(8):
            r = int(rng.integers(1, 3))
            pf = random_portfolio(rng, int(rng.integers(1, 4)), r, integer=True)
            grids = [FactorGrid(int(rng.integers(1, 3))) for _ in range(r)]
            cdf = exact_cdf(pf, grids)
            for x in thresholds(pf, grids):
                a_circ = build_a_circuit(pf, grids, x, encoding="exact", mode="weighted_sum")
                assert abs(cdf(x) - exact_amplitude(*a_circ)) <= 1e-12

    def test_enumeration_budget_refuses_before_the_table(self, monkeypatch):
        # 20 assets on a 5-qubit factor: 2**25 states, over the enumeration's 1e7.
        def table(*args, **kwargs):
            raise AssertionError("the angle table was made past the budget")

        monkeypatch.setattr(risk, "model_table", table)
        pf = Portfolio([Asset(100.0, 0.1, 0.2, (0.3,))] * 20)
        with pytest.raises(ValueError, match=r"3\.36e\+7 states, over the budget of 1\.00e\+7; "
                                             "reduce risk_factors.qubits_per_factor or assets"):
            model_distribution(pf, [FactorGrid(5)], "multi_rotation", "exact")

    def test_iqae_probes_take_consecutive_seeds(self):
        pf, grids = table_inputs()
        cfg = IqaeConfig(epsilon=0.01, confidence=0.95, seed=30)
        cdf = exact_cdf(pf, grids)
        sampled = cdf_estimator(cdf, cfg)
        for i, x in enumerate((2000.5, 0.0, 2000.5)):
            res = iqae(cdf(x), replace(cfg, seed=30 + i))
            probe = sampled(x)
            assert (probe.estimate, probe.ci_low, probe.ci_high, probe.quantum_samples) == \
                   (res.estimate, res.ci_low, res.ci_high, res.quantum_samples)


class TestVarBisection:
    def test_single_atom_at_zero(self):
        pf = Portfolio([Asset(0.0, 0.2, 0.1, (1.0,))])
        grids = [FactorGrid(2)]
        for alpha in (0.05, 0.5, 0.99):
            res = bisect(pf, grids, alpha, "classical")
            assert res.var == 0.0

    def test_var_zero_when_cdf0_reaches_alpha(self):
        pf, grids = table_inputs()
        res = bisect(pf, grids, 0.5, "exact")
        assert res.var == 0.0
        assert res.cdf_at_var >= 0.5

    def test_table_var_at_95(self):
        pf, grids = table_inputs()
        res = bisect(pf, grids, 0.95, "exact")
        assert res.var == ORACLE_VAR_95
        assert abs(res.cdf_at_var - ORACLE_CDF_AT_VAR) < 1e-9
        assert abs(res.expected_loss - ORACLE_EL) < 1e-9
        assert res.economic_capital == res.var - res.expected_loss
        # the trace probed the predecessor and saw it below the level
        probed = {p.threshold: p.estimate for p in res.bisection_trace}
        assert probed[1000.5] < 0.95 <= probed[2000.5]

    def test_classical_matches_direct_quantile_over_alpha_grid(self):
        pf, grids = table_inputs()
        dist = exact_loss_distribution(pf, grids)
        for alpha in np.linspace(0.05, 0.99, 20):
            res = bisect(pf, grids, float(alpha), "classical")
            assert res.var == quantile(dist, float(alpha))

    def test_var_monotone_in_alpha(self):
        pf, grids = table_inputs()
        vars_ = [bisect(pf, grids, a, "exact").var
                 for a in (0.1, 0.5, 0.7, 0.9, 0.96, 0.99)]
        assert all(a <= b for a, b in zip(vars_, vars_[1:]))

    def test_iqae_estimator_trace_carries_intervals(self):
        pf, grids = table_inputs()
        cfg = IqaeConfig(epsilon=0.01, confidence=0.95, seed=21)
        res = bisect(pf, grids, 0.95, "iqae", iqae_config=cfg)
        assert res.var == ORACLE_VAR_95
        for probe in res.bisection_trace:
            assert probe.ci_low is not None and probe.ci_high is not None
            assert probe.ci_low <= probe.estimate <= probe.ci_high
            assert probe.quantum_samples > 0

    def test_top_point_is_certain_and_never_estimated(self):
        def plain_bisection(dist, alpha):
            lo, hi, seen = 0, dist.losses.size - 1, []
            while lo <= hi:
                mid = (lo + hi) // 2
                seen.append(float(dist.losses[mid]))
                if dist.cdf(dist.losses[mid]) >= alpha:
                    hi = mid - 1
                else:
                    lo = mid + 1
            return seen

        rng = np.random.default_rng(48)
        for _ in range(200):
            n = int(rng.integers(1, 40))
            dist = LossDistribution(np.cumsum(rng.uniform(0.5, 2.0, n)), rng.dirichlet(np.ones(n)))
            alpha = float(rng.choice([rng.uniform(0.01, 0.99), 0.9999999999999999]))
            calls = []

            def estimator(x):
                calls.append(x)
                return risk.BisectionProbe(threshold=x, estimate=dist.cdf(x))
            res = var_bisection(dist, alpha, estimator)
            probed = [p.threshold for p in res.bisection_trace]
            top = float(dist.losses[-1])
            assert probed == plain_bisection(dist, alpha)
            assert calls == [x for x in probed if x != top]
            if top in probed:
                assert res.bisection_trace[-1] == risk.BisectionProbe(threshold=top, estimate=1.0)
            assert res.var == min(p.threshold for p in res.bisection_trace if p.estimate >= alpha)

    def test_alpha_validated(self):
        pf, grids = table_inputs()
        dist = exact_loss_distribution(pf, grids)
        with pytest.raises(ValueError):
            var_bisection(dist, 1.0, cdf_estimator(dist.cdf))


class TestEconomicCapital:
    """var_bisection reports VaR minus expected loss as the economic capital."""

    @staticmethod
    def capital(losses, probs, alpha):
        dist = LossDistribution(np.array(losses), np.array(probs))
        return var_bisection(dist, alpha, cdf_estimator(dist.cdf)).economic_capital

    def test_examples(self):
        assert self.capital([0.0, 100.0], [0.75, 0.25], 0.9) == 75.0     # VaR 100, EL 25
        assert self.capital([7.0], [1.0], 0.5) == 0.0                      # VaR 7, EL 7
        assert self.capital([0.0, 20.0], [0.75, 0.25], 0.5) == -5.0        # degenerate, not clamped

    def test_table_value(self):
        pf, grids = table_inputs()
        res = bisect(pf, grids, 0.95, "exact")
        assert abs(res.economic_capital - (ORACLE_VAR_95 - ORACLE_EL)) < 1e-9


class TestLossDistribution:
    def test_validation(self):
        with pytest.raises(ValueError):
            LossDistribution(np.array([1.0, 0.5]), np.array([0.5, 0.5]))
        with pytest.raises(ValueError):
            LossDistribution(np.array([0.0, 1.0]), np.array([0.6, 0.6]))

    def test_cdf_and_quantile(self):
        dist = LossDistribution(np.array([0.0, 2.0, 5.0]), np.array([0.2, 0.5, 0.3]))
        assert dist.cdf(-1.0) == 0.0
        assert dist.cdf(2.0) == pytest.approx(0.7)
        assert quantile(dist, 0.7) == 2.0
        assert quantile(dist, 0.71) == 5.0
