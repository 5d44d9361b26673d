"""Normal-kernel and discretization tests.

High-precision reference values were computed independently with mpmath
(40 decimal digits) before the implementation existed and frozen here.  The
Cephes ports are pinned bit for bit to scipy.special, whose erfc and ndtri
they reproduce, and conditional_pd to its scipy-based form.
"""

import math
import warnings

import numpy as np
import pytest
from scipy import special, stats

import qvar.gaussian
from qvar.gaussian import (_MAXLOG, FactorGrid, conditional_pd_table, erfc_array, ndtri,
                           std_normal_cdf, std_normal_pdf, std_normal_ppf)

from oracles import conditional_pd

# mpmath oracles
CDF_AT_1 = 0.84134474606854294859
CDF_AT_M15 = 0.066807201268858066004
CDF_AT_23 = 0.98927588997832419461
PPF_975 = 1.9599639845400542355
PPF_15 = -1.0364333894937895797
COND_15_RHO01_Z0 = 0.13730741614191171281  # F(F^-1(0.15) / sqrt(0.9))


class TestCdf:
    def test_symmetry_point(self):
        assert std_normal_cdf(0.0) == 0.5

    def test_tail_limit(self):
        assert abs(std_normal_cdf(10.0) - 1.0) < 1e-15
        assert std_normal_cdf(-40.0) >= 0.0

    def test_frozen_values(self):
        assert abs(std_normal_cdf(1.0) - CDF_AT_1) < 1e-12
        assert abs(std_normal_cdf(-1.5) - CDF_AT_M15) < 1e-12
        assert abs(std_normal_cdf(2.3) - CDF_AT_23) < 1e-12

    def test_monotone_on_dense_sample(self):
        rng = np.random.default_rng(0)
        xs = np.sort(rng.uniform(-8, 8, 2000))
        vals = std_normal_cdf(xs)
        assert np.all(np.diff(vals) >= 0)
        assert np.all((vals >= 0) & (vals <= 1))

    def test_rejects_non_finite(self):
        for bad in (float("nan"), float("inf"), -float("inf")):
            with pytest.raises(ValueError):
                std_normal_cdf(bad)

    def test_vectorized(self):
        xs = np.array([-1.5, 0.0, 2.3])
        out = std_normal_cdf(xs)
        assert out.shape == (3,)
        assert abs(out[1] - 0.5) == 0.0


class TestPpf:
    def test_median(self):
        assert std_normal_ppf(0.5) == 0.0

    def test_frozen_values(self):
        assert abs(std_normal_ppf(0.975) - PPF_975) < 1e-9
        assert abs(std_normal_ppf(0.15) - PPF_15) < 1e-9

    def test_round_trip(self):
        for x in np.linspace(-5, 5, 41):
            assert abs(std_normal_ppf(std_normal_cdf(x)) - x) < 1e-9

    def test_self_consistency(self):
        for p in np.linspace(1e-6, 1 - 1e-6, 101):
            assert abs(std_normal_cdf(std_normal_ppf(p)) - p) < 1e-10

    def test_domain_errors(self):
        for bad in (0.0, 1.0, -0.1, 1.1, float("nan")):
            with pytest.raises(ValueError):
                std_normal_ppf(bad)


def reference_std_normal_ppf(p):
    """std_normal_ppf as it stood on scipy: ndtri seed, two guarded Newton steps."""
    arr = np.asarray(p, dtype=float)
    x = np.atleast_1d(np.asarray(special.ndtri(arr), dtype=float))
    target = np.atleast_1d(arr)
    for _ in range(2):
        density = np.exp(-0.5 * x * x) / np.sqrt(2.0 * np.pi)
        ok = density > 1e-20
        err = 0.5 * special.erfc(-x / np.sqrt(2.0)) - target
        step = np.zeros_like(x)
        step[ok] = np.clip(err[ok] / density[ok], -1.0, 1.0)
        x = x - step
    return float(x[0]) if arr.ndim == 0 else x


def reference_conditional_pd(p0, rho, alphas, z):
    """conditional_pd as it stood on scipy.special's erfc and ndtri."""
    combined = np.asarray(z, dtype=float) @ np.asarray(alphas, dtype=float)
    arg = (reference_std_normal_ppf(p0) - np.sqrt(rho) * combined) / np.sqrt(1.0 - rho)
    out = 0.5 * special.erfc(-np.asarray(arg) / np.sqrt(2.0))
    tiny, top = np.nextafter(0.0, 1.0), np.nextafter(1.0, 0.0)
    if np.ndim(out) == 0:
        return float(min(max(float(out), tiny), top))
    return np.clip(out, tiny, top)


def ulps(x, n):
    """x and its n nearest doubles on either side."""
    out = [x]
    for direction in (np.inf, -np.inf):
        y = x
        for _ in range(n):
            y = float(np.nextafter(y, direction))
            out.append(y)
    return out


def assert_same_bits(got, want):
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    assert got.shape == want.shape
    bad = got.view(np.int64) != want.view(np.int64)
    assert not bad.any(), (np.flatnonzero(bad)[:5], got[bad][:5], want[bad][:5])


class TestCephesKernels:
    # Branch edges: |x| = 1 and 8 pick the polynomial, sqrt(MAXLOG) ~ 26.64 is
    # where exp(-x^2) underflows, 27 where erfc_array stops evaluating.
    EDGES = [v for e in (1.0, 8.0, math.sqrt(_MAXLOG), 27.0) for s in (1.0, -1.0)
             for v in ulps(s * e, 3)] + [
        0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, -1e-310, 1e-200, 40.0, -40.0,
        1e300, -1e300, 0.5]

    def test_erfc_array_matches_scipy_on_dense_grid(self):
        xs = np.linspace(-40.0, 40.0, 800_001)
        assert_same_bits(erfc_array(xs), special.erfc(xs))

    def test_erfc_branch_edges(self):
        xs = np.array(self.EDGES)
        # A scalar F runs the array kernel on a 0-d input, near erfc's edges here.
        ys = [-x * math.sqrt(2.0) for x in self.EDGES]
        assert_same_bits([std_normal_cdf(y) for y in ys],
                         0.5 * special.erfc(-np.array(ys) / np.sqrt(2.0)))
        assert_same_bits(erfc_array(xs), special.erfc(xs))
        assert_same_bits(erfc_array(xs.reshape(2, -1)), special.erfc(xs).reshape(2, -1))

    def test_ndtri_matches_scipy_with_both_tails(self):
        exp_m2, exp_m32 = math.exp(-2.0), math.exp(-32.0)
        ps = np.concatenate([
            np.linspace(0.0, 1.0, 400_001)[1:-1],
            np.logspace(-300, -1, 3_000), 1.0 - np.logspace(-16, -1, 3_000),
            [v for e in (exp_m2, 1.0 - exp_m2, exp_m32, 1.0 - exp_m32, 0.5)
             for v in ulps(e, 3)],
            [5e-324, 2.2250738585072014e-308, 1e-300, float(np.nextafter(1.0, 0.0))]])
        assert_same_bits([ndtri(p) for p in ps.tolist()], special.ndtri(ps))

    def test_ppf_matches_the_scipy_seeded_form(self):
        rng = np.random.default_rng(11)
        ps = np.concatenate([rng.uniform(0.0, 1.0, 2_000), np.logspace(-300, -1, 200),
                             1.0 - np.logspace(-16, -1, 200)])
        ps = ps[(ps > 0.0) & (ps < 1.0)]
        assert_same_bits(std_normal_ppf(ps), reference_std_normal_ppf(ps))
        assert_same_bits([std_normal_ppf(p) for p in ps[:300].tolist()],
                         reference_std_normal_ppf(ps[:300]))


class TestConditionalPdBits:
    """conditional_pd on the Cephes ports returns the scipy form's bytes."""

    CASES = [(0.15, 0.1, (0.35, 0.2)), (1e-12, 0.9, (1.0, 0.5)), (1.0 - 1e-12, 0.9, (1.0, 0.5)),
             (0.5, 0.0, (0.3, -0.7)), (0.03, 0.45, (-0.2, 0.9))]
    # conditional_pd_table's obligors: each case's F^-1(p0), rho and alphas.
    OBLIGORS = [(std_normal_ppf(p0), rho, alphas) for p0, rho, alphas in CASES]

    @pytest.mark.parametrize("p0, rho, alphas", CASES)
    def test_scalar_one_d_and_table(self, p0, rho, alphas):
        rng = np.random.default_rng(int(p0 * 1e6) + int(rho * 100))
        z = np.concatenate([rng.uniform(-40.0, 40.0, (300, 2)), rng.normal(0.0, 1.0, (300, 2))])
        for row in z[::37]:
            got = conditional_pd(p0, rho, alphas, row)
            assert isinstance(got, float)
            assert_same_bits(got, reference_conditional_pd(p0, rho, alphas, row))
            assert_same_bits(conditional_pd(p0, rho, alphas, list(row)), got)
        assert_same_bits(conditional_pd(p0, rho, alphas, z),
                         reference_conditional_pd(p0, rho, alphas, z))
        assert_same_bits(conditional_pd(p0, rho, alphas, z.reshape(20, 30, 2)),
                         reference_conditional_pd(p0, rho, alphas, z).reshape(20, 30))

    def test_clip_edges_are_reached(self):
        z = np.array([[40.0, 40.0], [-40.0, -40.0]])
        assert conditional_pd(1e-12, 0.9, (1.0, 0.5), z)[0] == np.nextafter(0.0, 1.0)
        assert conditional_pd(1.0 - 1e-12, 0.9, (1.0, 0.5), z)[1] == np.nextafter(1.0, 0.0)

    def test_table_is_the_stacked_columns(self):
        rng = np.random.default_rng(5)
        z = rng.uniform(-5.0, 5.0, (64, 2))
        table = conditional_pd_table(self.OBLIGORS, z)
        assert table.shape == (64, len(self.CASES))
        assert_same_bits(table, np.column_stack(
            [reference_conditional_pd(*case, z) for case in self.CASES]))

    @pytest.mark.parametrize("shape", ["(N, R)", "(N, 1, R)"])
    def test_blocked_table_is_one_unblocked_call(self, monkeypatch, shape):
        # 3 full blocks of 1,024 rows and a ragged one of 77, in both shapes the
        # model code passes: every step after z @ alphas is elementwise.
        rng = np.random.default_rng(17)
        z = rng.uniform(-6.0, 6.0, (3 * 1024 + 77, 2))
        z = z if shape == "(N, R)" else z[:, None, :]
        unblocked = conditional_pd_table(self.OBLIGORS, z)
        cdf, ppf = qvar.gaussian.std_normal_cdf, qvar.gaussian.std_normal_ppf
        calls, quantile_calls = [], []
        monkeypatch.setattr(qvar.gaussian, "_PD_BLOCK_ROWS", 1024)
        monkeypatch.setattr(qvar.gaussian, "std_normal_cdf", lambda x: calls.append(1) or cdf(x))
        monkeypatch.setattr(qvar.gaussian, "std_normal_ppf",
                            lambda p: quantile_calls.append(p) or ppf(p))
        blocked = conditional_pd_table(self.OBLIGORS, z)
        assert len(calls) == 4 and blocked.shape == unblocked.shape
        # The table reads each obligor's F^-1(p0); it computes none (Portfolio.obligors does).
        assert quantile_calls == []
        assert blocked.tobytes() == unblocked.tobytes()


class TestFactorGrid:
    def test_two_point_grid(self):
        grid = FactorGrid(1, 1.0)
        assert np.allclose(grid.values, [-1.0, 1.0])
        assert np.allclose(grid.probs, [0.5, 0.5])

    def test_four_point_grid_matches_hand_normalized_density(self):
        grid = FactorGrid(2, 3.0)
        density = std_normal_pdf(np.array([-3.0, -1.0, 1.0, 3.0]))
        expected = density / density.sum()
        assert np.allclose(grid.probs, expected, atol=1e-15)
        # frozen from the mpmath run
        assert abs(grid.probs[1] - 0.4910068950189542) < 1e-12

    def test_symmetry_and_normalization(self):
        for n_z in (1, 2, 3, 4):
            grid = FactorGrid(n_z, 3.0)
            assert abs(grid.probs.sum() - 1.0) < 1e-12
            assert np.all(grid.probs >= 0)
            assert np.allclose(grid.probs, grid.probs[::-1], atol=1e-12)

    def test_affine_map(self):
        # A standard grid's points lie 2 * bound / (2**n_z - 1) apart, from -bound.
        grid = FactorGrid(3, 2.5)
        a_z = 2 * 2.5 / (2 ** 3 - 1)
        assert np.allclose(grid.values, -2.5 + a_z * np.arange(8))
        assert np.abs(np.diff(grid.values) - a_z).max() < 1e-15

    def test_degenerate_rejected(self):
        for n_z in (0, -1, 1.0, 2.5):
            with pytest.raises(ValueError, match="integer n_z"):
                FactorGrid(n_z)
        for bound in (0.0, -1.0, math.nan, math.inf):
            with pytest.raises(ValueError, match="finite bound"):
                FactorGrid(2, bound)

    # At 38 sigmas a 1-qubit grid's two densities are subnormal, but positive.
    SWEEP = [(n_z, bound) for n_z in range(1, 9) for bound in (0.1, 1.0, 2.5, 3.0, 7.3, 38.0)]

    @pytest.mark.parametrize("n_z, bound", SWEEP)
    def test_grid_invariants_enforced(self, n_z, bound):
        # Every derived grid has 2**n_z equally spaced points and probs summing to 1.
        grid = FactorGrid(n_z, bound)
        assert grid.values.shape == grid.probs.shape == (2 ** n_z,)
        steps = np.diff(grid.values)
        assert np.all(steps > 0)
        assert np.abs(steps - 2 * bound / (2 ** n_z - 1)).max() <= 1e-12 * steps[0]
        assert np.all(grid.probs >= 0) and abs(grid.probs.sum() - 1.0) <= 1e-12

    @pytest.mark.parametrize("n_z, bound", SWEEP)
    def test_values_run_from_minus_bound_to_bound(self, n_z, bound):
        # single_rotation's index-sum plan reads a grid's bound and its PDs are evaluated
        # at its values, so the two agree exactly.
        grid = FactorGrid(n_z, bound)
        assert grid.values[0] == -bound and grid.values[-1] == bound

    def test_arrays_computed_once_on_first_use(self):
        # A grid is its shape until its arrays are read, even one no float can count.
        grid = FactorGrid(30)
        assert grid.size == 2 ** 30 and "values" not in vars(grid) and "probs" not in vars(grid)
        assert FactorGrid(2000).size == 2 ** 2000
        grid = FactorGrid(3, 2.5)
        assert grid.probs is grid.probs and grid.values is grid.values

    @pytest.mark.parametrize("n_z, bound", [(1, 40.0), (3, 1e200), (2, 1e308), (1, 1e308)])
    def test_underflowing_density_refused(self, n_z, bound):
        # Every point's density would underflow to 0 and the probs would be NaN; the
        # shape alone refuses the grid, in floats, so no numpy warning precedes it.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError) as refused:
                FactorGrid(n_z, bound)
        message = str(refused.value)
        assert "risk_factors.bound_sigmas" in message
        assert "risk_factors.qubits_per_factor" in message

    @pytest.mark.parametrize("n_z", [1, 2, 3, 4])
    def test_underflow_refusal_matches_the_arrays(self, n_z):
        # Around the largest bound whose grid keeps a point of positive density, a grid
        # is refused exactly where its computed density would be 0 everywhere.
        def dead(bound):
            with np.errstate(all="ignore"):
                return std_normal_pdf(np.linspace(-bound, bound, 2 ** n_z)).sum() == 0.0
        lo, hi = 1.0, 1e4
        while math.nextafter(lo, hi) < hi:
            mid = 0.5 * (lo + hi)
            lo, hi = (lo, mid) if dead(mid) else (mid, hi)
        bound = lo
        for _ in range(20):
            bound = math.nextafter(bound, 0.0)
        seen = set()
        for _ in range(40):
            seen.add(dead(bound))
            if dead(bound):
                with pytest.raises(ValueError, match="density 0"):
                    FactorGrid(n_z, bound)
            else:
                assert FactorGrid(n_z, bound).probs.sum() == pytest.approx(1.0, abs=1e-12)
            bound = math.nextafter(bound, math.inf)
        assert seen == {False, True}


class TestConditionalPd:
    def test_rho_zero_returns_p0(self):
        for z in ([0.0], [3.0], [-2.5]):
            assert abs(conditional_pd(0.2, 0.0, (1.0,), z) - 0.2) < 1e-14

    def test_frozen_two_factor_value(self):
        got = conditional_pd(0.15, 0.1, (0.35, 0.2), (0.0, 0.0))
        assert abs(got - COND_15_RHO01_Z0) < 1e-12

    def test_monotone_decreasing_in_combination(self):
        vals = [conditional_pd(0.15, 0.3, (0.5, 0.5), (z, z)) for z in np.linspace(-3, 3, 13)]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_single_factor_matches_direct_formula(self):
        for z in np.linspace(-3, 3, 7):
            direct = stats.norm.cdf(
                (stats.norm.ppf(0.15) - math.sqrt(0.1) * z) / math.sqrt(0.9))
            got = conditional_pd(0.15, 0.1, (1.0,), (z,))
            assert abs(got - direct) < 1e-14

    def test_output_strictly_inside_unit_interval(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            p0 = rng.uniform(0.01, 0.99)
            rho = rng.uniform(0.0, 0.99)
            z = rng.uniform(-4, 4, 3)
            out = conditional_pd(p0, rho, (0.3, -0.2, 0.5), z)
            assert 0.0 < out < 1.0

    def test_vectorized_over_paths(self):
        z = np.array([[0.0, 0.0], [1.0, -1.0], [3.0, 3.0]])
        out = conditional_pd(0.25, 0.05, (0.1, 0.25), z)
        assert out.shape == (3,)
        assert abs(out[0] - conditional_pd(0.25, 0.05, (0.1, 0.25), (0.0, 0.0))) < 1e-15
