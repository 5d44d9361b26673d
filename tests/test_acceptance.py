"""Acceptance suite: one test per release criterion, one printed line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the pass/fail lines.
Expected values marked as oracle-derived were computed with an independent
mpmath/scipy enumeration script before the implementation existed.
"""

import itertools
import json
import math
import time

import numpy as np

from qvar.circuit import Gate, marginal_probability, zero_state
from qvar.cli import main
from qvar.estimation import IqaeConfig, iqae
from qvar.gaussian import FactorGrid
from qvar.objective import weighted_sum_register
from qvar.resources import estimate_resources
from qvar.risk import (cdf_estimator, exact_loss_distribution, joint_grid, model_distribution,
                       monte_carlo_distribution, var_bisection)
from qvar.uncertainty import Asset, Portfolio, _secants

from oracles import (apply, build_a_circuit, conditional_pd, exact_amplitude, grover_operator,
                     total_variation_distance)

ALPHA = 0.95
ORACLE_SUPPORT = [0.0, 1000.5, 2000.5, 3001.0]
ORACLE_CDF = [0.6500424380360375, 0.7550617778729617, 0.9652513075681205, 1.0]
ORACLE_VAR_95 = 2000.5


def two_asset_portfolio(lgds=(1000.5, 2000.5)):
    return Portfolio([Asset(lgds[0], 0.15, 0.10, (0.35, 0.20)),
                      Asset(lgds[1], 0.25, 0.05, (0.10, 0.25))])


def factor_grids():
    return [FactorGrid(2), FactorGrid(2)]


def report(number, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {number}: {detail}")
    assert ok, f"criterion {number}: {detail}"


def test_criterion_1_oracle_equivalence():
    start = time.perf_counter()
    pf, grids = two_asset_portfolio(), factor_grids()
    dist = exact_loss_distribution(pf, grids)
    worst = 0.0
    for x in dist.losses:
        amp = exact_amplitude(*build_a_circuit(pf, grids, float(x), encoding="exact"))
        worst = max(worst, abs(amp - dist.cdf(float(x))))
    elapsed = time.perf_counter() - start
    report(1, worst < 1e-9 and elapsed < 1.0,
           f"exact amplitude vs enumeration cdf, max |diff| = {worst:.2e} "
           f"(tol 1e-9), runtime {elapsed:.2f}s (< 1s)")


def test_criterion_2_var_reproduction():
    start = time.perf_counter()
    pf, grids = two_asset_portfolio(), factor_grids()
    dist = exact_loss_distribution(pf, grids)
    cdf = model_distribution(pf, grids, "multi_rotation", "exact").cdf
    res = var_bisection(dist, ALPHA, cdf_estimator(cdf))
    probed = {p.threshold: p.estimate for p in res.bisection_trace}
    predecessor_ok = probed.get(1000.5, 1.0) < ALPHA
    elapsed = time.perf_counter() - start
    ok = (res.var == ORACLE_VAR_95 and res.cdf_at_var >= ALPHA
          and predecessor_ok and elapsed < 1.0)
    report(2, ok,
           f"VaR(0.95) = {res.var} (oracle {ORACLE_VAR_95}), cdf_at_var = "
           f"{res.cdf_at_var:.6f} >= 0.95, predecessor cdf {probed.get(1000.5):.6f} < 0.95, "
           f"runtime {elapsed:.2f}s (< 1s)")


def test_criterion_3_iqae_contract_at_reference_settings():
    start = time.perf_counter()
    pf, grids = two_asset_portfolio(), factor_grids()
    a_circ = build_a_circuit(pf, grids, 1500.0, encoding="exact")
    truth = exact_amplitude(*a_circ)
    hits = 0
    samples = []
    for seed in range(100):
        res = iqae(truth, IqaeConfig(epsilon=0.002, confidence=0.99, seed=seed))
        hits += abs(res.estimate - truth) <= 0.002
        samples.append(res.quantum_samples)
    median = float(np.median(samples))
    elapsed = time.perf_counter() - start
    ok = hits >= 95 and 1e4 <= median <= 2e5 and elapsed < 600
    report(3, ok,
           f"{hits}/100 seeds within eps=0.002 (need >= 95), median quantum samples "
           f"{median:.0f} in [1e4, 2e5], runtime {elapsed:.1f}s (< 600s)")


def test_criterion_4_width_reproduction():
    rep = estimate_resources(two_asset_portfolio(), factor_grids(), "multi_rotation", "linear",
                             "s_free")
    widths = []
    for k in (2, 3, 4):
        assets = [Asset(100.0 + i, 0.2, 0.1, (0.35, 0.20)) for i in range(k)]
        widths.append(estimate_resources(Portfolio(assets), factor_grids(),
                                         "multi_rotation", "linear", "s_free").width_paper_layout)
    ok = rep.width_paper_layout == 9 and widths == [9, 11, 13]
    report(4, ok,
           f"width_paper_layout = {rep.width_paper_layout} (reference figure 9); "
           f"K = 2,3,4 gives widths {widths} (+2 per asset)")


def test_criterion_5_legacy_equivalence():
    pf = two_asset_portfolio(lgds=(1, 2))
    grids = factor_grids()
    worst = 0.0
    for x in (0.0, 1.0, 2.0, 3.0):
        a_free = exact_amplitude(*build_a_circuit(pf, grids, x, encoding="exact", mode="s_free"))
        a_sum = exact_amplitude(*build_a_circuit(pf, grids, x, encoding="exact",
                                                 mode="weighted_sum"))
        worst = max(worst, abs(a_free - a_sum))
    n_s = weighted_sum_register(pf)[1]
    ok = worst < 1e-10 and n_s == 2
    report(5, ok,
           f"integer portfolio: |s_free - weighted_sum| max = {worst:.2e} (tol 1e-10) "
           f"over all integer thresholds; loss register for LGDs [1,2]: {n_s} qubits")


def test_criterion_6_non_integer_rejection_and_acceptance():
    pf, grids = two_asset_portfolio(), factor_grids()
    rejected = False
    named = False
    try:
        build_a_circuit(pf, grids, 1500.0, mode="weighted_sum")
    except ValueError as exc:
        rejected = True
        named = "asset 0" in str(exc) and "1000.5" in str(exc)
    dist = exact_loss_distribution(pf, grids)
    s_free_ok = (dist.losses.size == 4 and 3001.0 in dist.losses
                 and exact_amplitude(*build_a_circuit(pf, grids, 3001.0, mode="s_free")) > 0.999)
    ok = rejected and named and s_free_ok
    report(6, ok,
           f"weighted_sum rejected LGD 1000.5 naming the asset ({rejected and named}); "
           f"s_free support {sorted(dist.losses.tolist())} includes 3001.0")


def test_criterion_7_grover_identity():
    rng = np.random.default_rng(314)
    worst = 0.0
    for _ in range(10):
        n = int(rng.integers(1, 4))
        circ = []
        for _ in range(8):
            t = int(rng.integers(n))
            circ.append(Gate("ry", t, float(rng.uniform(0.2, 2.9))))
            if n > 1:
                other = int(rng.choice([q for q in range(n) if q != t]))
                circ.append(Gate("ry", t, float(rng.uniform(-2, 2)),
                                 ((other, int(rng.integers(2))),)))
        a = exact_amplitude(circ, n)        # the objective is qubit n - 1, the top one
        theta = math.asin(math.sqrt(a))
        q = grover_operator(circ, n)
        state = apply(circ, zero_state(n))
        for k in range(9):
            want = math.sin((2 * k + 1) * theta) ** 2
            got = marginal_probability(state, n - 1, 1)
            worst = max(worst, abs(want - got))
            state = apply(q, state)
    report(7, worst < 1e-9,
           f"P(good) after Q^k A|0> vs sin^2((2k+1) arcsin sqrt(a)) for k <= 8, "
           f"max |diff| = {worst:.2e} (tol 1e-9)")


def test_criterion_8_monte_carlo_consistency():
    pf, grids = two_asset_portfolio(), factor_grids()
    mc = monte_carlo_distribution(pf, grids, joint_grid(pf, grids)[0], 10 ** 6, seed=20260810)
    exact = exact_loss_distribution(pf, grids)
    tv = total_variation_distance(mc, exact)
    report(8, tv < 0.01,
           f"total variation distance over 1e6 seeded paths = {tv:.5f} (tol 0.01)")


def test_criterion_9_linear_encoding_sanity():
    pf, grids = two_asset_portfolio(), factor_grids()
    worst_fit = 0.0
    for asset in pf.assets:
        for f, grid in enumerate(grids):
            lows, slopes, _ = _secants(Portfolio([asset]).obligors, grids)
            slope, offset = slopes[f, 0], lows[f, 0]
            mids = [0.0] * len(grids)         # each grid's center
            for i in (0, grid.size - 1):
                z = list(mids)
                z[f] = grid.values[i]
                true_theta = 2 * math.asin(math.sqrt(
                    conditional_pd(asset.p0, asset.rho, asset.alphas, z)))
                worst_fit = max(worst_fit, abs(slope * i + offset - true_theta))
    worst_amp = 0.0
    for rho in (0.0, 1e-12):
        pf_flat = Portfolio([Asset(1000.5, 0.15, rho, (0.35, 0.20)),
                             Asset(2000.5, 0.25, rho, (0.10, 0.25))])
        for x in (0.0, 1000.5, 2000.5):
            a_lin = exact_amplitude(*build_a_circuit(pf_flat, grids, x, encoding="linear"))
            a_ex = exact_amplitude(*build_a_circuit(pf_flat, grids, x, encoding="exact"))
            worst_amp = max(worst_amp, abs(a_lin - a_ex))
    ok = worst_fit < 1e-12 and worst_amp < 1e-10
    report(9, ok,
           f"secant fit reproduces the angle at both fit points to {worst_fit:.2e} "
           f"(tol 1e-12); rho -> 0 drives |linear - exact| to {worst_amp:.2e} (tol 1e-10)")


def test_criterion_10_determinism(tmp_path):
    config = {
        "risk_factors": {"count": 2, "qubits_per_factor": 2, "bound_sigmas": 3.0},
        "assets": [
            {"lgd": 1000.5, "p0": 0.15, "rho": 0.1, "alphas": [0.35, 0.2]},
            {"lgd": 2000.5, "p0": 0.25, "rho": 0.05, "alphas": [0.1, 0.25]},
        ],
        "analysis": {"alpha": 0.95, "epsilon": 0.002, "confidence": 0.99,
                     "seed": 7, "estimator": "iqae", "encoding": "exact"},
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
    code1 = main(["analyze", "--config", str(path), "--output", str(out1)])
    code2 = main(["analyze", "--config", str(path), "--output", str(out2)])
    identical = out1.read_bytes() == out2.read_bytes()
    ok = code1 == 0 and code2 == 0 and identical
    report(10, ok,
           f"two analyze runs with identical config+seed produced byte-identical "
           f"JSON ({identical}), var = {json.loads(out1.read_text())['results']['var']}")
