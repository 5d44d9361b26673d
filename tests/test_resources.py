"""Resource-accounting tests against the published width figures."""

import functools
import math

import numpy as np
import pytest

from qvar.gaussian import FactorGrid
from qvar.objective import MODES, comparator, comparator_gates
from qvar.resources import estimate_resources
from qvar.risk import check_budget, exact_loss_distribution, model_distribution
from qvar.uncertainty import ENCODINGS, Asset, Portfolio, build_model, model_table

from oracles import build_a_circuit


def two_asset_portfolio():
    return Portfolio([Asset(1000.5, 0.15, 0.10, (0.35, 0.20)),
                      Asset(2000.5, 0.25, 0.05, (0.10, 0.25))])


def grids(r=2, n_z=2):
    return [FactorGrid(n_z) for _ in range(r)]


class TestWidthAccounting:
    def test_reference_nine_qubits(self):
        report = estimate_resources(two_asset_portfolio(), grids(), "multi_rotation", "linear",
                                    "s_free")
        assert report.width_paper_layout == 9      # 4 factor + 2 asset + 2 ancilla + 1 objective
        assert report.width_built == 7
        assert report.sum_register_width is None

    def test_two_qubits_per_added_asset(self):
        widths = []
        for k in (2, 3, 4):
            assets = [Asset(10.0 + i, 0.2, 0.1, (0.35, 0.20)) for i in range(k)]
            report = estimate_resources(Portfolio(assets), grids(), "multi_rotation", "linear",
                                        "s_free")
            widths.append(report.width_paper_layout)
        assert widths == [9, 11, 13]

    def test_nz_qubits_per_added_factor(self):
        widths = []
        for r in (2, 3, 4):
            assets = [Asset(10.0, 0.2, 0.1, tuple([0.3] * r)),
                      Asset(20.0, 0.3, 0.1, tuple([0.2] * r))]
            report = estimate_resources(Portfolio(assets), grids(r), "multi_rotation", "linear",
                                        "s_free")
            widths.append(report.width_paper_layout)
        assert widths == [9, 11, 13]

    def test_legacy_sum_register(self):
        assets = [Asset(1, 0.2, 0.1, (1.0,)), Asset(2, 0.2, 0.1, (1.0,)),
                  Asset(4, 0.2, 0.1, (1.0,))]
        report = estimate_resources(Portfolio(assets), grids(1), "multi_rotation", "linear",
                                    "weighted_sum")
        assert report.sum_register_width == 3      # floor(log2(7)) + 1
        assert report.mode == "weighted_sum"
        # factors (2) + assets (3) + sum (3) + objective (1)
        assert report.width_paper_layout == 9
        assert report.width_built == report.width_paper_layout

    def test_built_never_wider_than_paper_layout(self):
        pf = two_asset_portfolio()
        for variant in ("multi_rotation", "single_rotation"):
            p = pf if variant == "multi_rotation" else Portfolio(
                [Asset(1000.5, 0.15, 0.10, (0.35, 0.20)),
                 Asset(2000.5, 0.25, 0.05, (0.35, 0.20))])
            report = estimate_resources(p, grids(), variant, "linear", "s_free")
            assert report.width_built <= report.width_paper_layout

    def test_single_rotation_reports_sum_register(self):
        shared = (0.35, 0.20)
        pf = Portfolio([Asset(1000.5, 0.15, 0.10, shared),
                        Asset(2000.5, 0.25, 0.05, shared)])
        report = estimate_resources(pf, grids(), "single_rotation", "linear", "s_free")
        assert report.sum_register_width is not None
        assert report.rotation_count == pf.k

    def test_weighted_sum_rejects_non_integers(self):
        with pytest.raises(ValueError):
            estimate_resources(two_asset_portfolio(), grids(), "multi_rotation", "linear",
                               "weighted_sum")


class TestGateAccounting:
    def test_rotation_count_scales_with_k_and_r(self):
        for k in (1, 2, 3):
            for r in (1, 2, 3):
                assets = [Asset(1.0, 0.2, 0.1, tuple([0.3] * r)) for _ in range(k)]
                report = estimate_resources(Portfolio(assets), grids(r), "multi_rotation",
                                            "linear", "s_free")
                assert report.rotation_count == k * r

    def test_single_rotation_count_independent_of_r(self):
        for r in (1, 2, 3):
            shared = tuple([0.3] * r)
            assets = [Asset(1.0, 0.2, 0.1, shared), Asset(2.0, 0.3, 0.1, shared)]
            report = estimate_resources(Portfolio(assets), grids(r), "single_rotation", "linear",
                                        "s_free")
            assert report.rotation_count == 2

    def test_measured_counts_within_worst_case(self):
        pf = two_asset_portfolio()
        g = grids()
        report = estimate_resources(pf, g, "multi_rotation", "exact", "s_free")

        built, width = build_a_circuit(pf, g, 1500.0, encoding="exact")
        assert width == report.width_built
        comparator_gates = [gate for gate in built
                            if gate.kind == "x" and gate.target == width - 1]
        assert len(comparator_gates) <= report.comparator_pattern_count

        model = build_model(pf, g, "multi_rotation", "linear")
        blocks = {(gate.target, tuple(sorted(c for c, _ in gate.controls)))
                  for gate in model.gates
                  if gate.kind == "ry" and gate.target in model.asset_qubits and gate.controls}
        # one controlled block per (asset, factor): factor register bits collapse
        per_factor_blocks = {(t, frozenset({0, 1} if min(cs) < 2 else {2, 3}))
                             for t, cs in blocks}
        assert len(per_factor_blocks) == report.rotation_count

    @pytest.mark.parametrize("variant, encoding, r", [
        ("multi_rotation", "exact", 1), ("multi_rotation", "exact", 2),
        ("multi_rotation", "linear", 2), ("multi_rotation", "linear", 1),
        ("single_rotation", "linear", 1), ("single_rotation", "linear", 2),
    ])
    def test_budget_angles_bound_the_built_model(self, variant, encoding, r):
        # check_budget prices sum(2**n_z) loader angles and K * M exact-encoding angles in
        # every encoding: equal in the exact encoding where no loader level is all zero.
        rng = np.random.default_rng(r)
        for _ in range(4):
            shared = tuple(rng.uniform(0.1, 0.5, r))
            pf = Portfolio([Asset(100.5, rng.uniform(0.02, 0.3), rng.uniform(0.05, 0.3),
                                  shared if variant == "single_rotation"
                                  else tuple(rng.uniform(0.1, 0.5, r)))
                            for _ in range(int(rng.integers(1, 5)))])
            g = [FactorGrid(int(n)) for n in rng.integers(1, 5, r)]
            gates = build_model(pf, g, variant, encoding).gates
            built = sum(len(gate.theta) for gate in gates if gate.register is not None)
            cells = math.prod(grid.size for grid in g)
            assert built <= sum(grid.size for grid in g) + pf.k * cells
            if encoding == "exact":
                assert built == sum(grid.size - 1 for grid in g) + pf.k * cells

    @pytest.mark.parametrize("mode", MODES)
    def test_comparator_gates_bound_the_built_comparator(self, mode):
        # Equal once the threshold passes every pattern and register value; an
        # upper bound at the largest loss, where weighted_sum flips sum(LGD) + 1 values.
        rng = np.random.default_rng(len(mode))
        for _ in range(6):
            pf = Portfolio([Asset(int(rng.integers(0, 40)), 0.1, 0.1, (0.3,))
                            for _ in range(int(rng.integers(1, 6)))])
            model = build_model(pf, grids(1, 1), "multi_rotation", "exact")
            counted = comparator_gates(pf, mode)
            for x in (float(pf.pattern_losses.max()), 2.0 ** 20):
                gates = comparator(pf, model, mode, x)
                built = (len(gates), sum(len(gate.controls) for gate in gates))
                if x == 2.0 ** 20:
                    assert counted == built
                else:
                    assert counted[0] >= built[0] and counted[1] >= built[1]

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            estimate_resources(two_asset_portfolio(), grids(), "bogus", "linear", "s_free")
        with pytest.raises(ValueError):
            estimate_resources(two_asset_portfolio(), grids(), "multi_rotation", "linear", "bogus")
        with pytest.raises(ValueError):
            estimate_resources(two_asset_portfolio(), grids(1), "multi_rotation", "linear",
                               "s_free")


class TestRuleParity:
    """estimate_resources and the gate counts follow the builders' rules: one width, and
    one refusal in the same words for every variant-rule violation."""

    @pytest.mark.parametrize("encoding", ENCODINGS)
    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("seed, variant, factors", [
        (0, "multi_rotation", None), (1, "single_rotation", None), (2, "multi_rotation", 1)])
    def test_width_built_is_the_built_width(self, seed, variant, factors, mode, encoding):
        # factors None draws one or two; single_rotation refuses the exact encoding, in the
        # accounting as in the build.
        rng = np.random.default_rng([seed, MODES.index(mode), ENCODINGS.index(encoding)])
        for _ in range(4):
            r = factors or int(rng.integers(1, 3))
            shared = variant == "single_rotation" or rng.random() < 0.5
            weights = tuple(rng.uniform(-0.5, 0.5, r))
            pf = Portfolio([Asset(int(rng.integers(0, 9)) if mode == "weighted_sum"
                                  else float(rng.uniform(0.0, 9.0)),
                                  rng.uniform(0.02, 0.3), rng.uniform(0.0, 0.3),
                                  weights if shared else tuple(rng.uniform(-0.5, 0.5, r)))
                            for _ in range(int(rng.integers(1, 5)))])
            g = [FactorGrid(int(n)) for n in rng.integers(1, 4, r)]
            build = functools.partial(build_a_circuit, pf, g, float(pf.pattern_losses.max()),
                                      variant=variant, encoding=encoding, mode=mode)
            estimate = functools.partial(estimate_resources, pf, g, variant, encoding, mode)
            if (variant, encoding) == ("single_rotation", "exact"):
                for call in (build, estimate):
                    with pytest.raises(ValueError, match="takes encoding 'linear' only"):
                        call()
                continue
            assert estimate().width_built == build()[1]

    @pytest.mark.parametrize("variant, r, n_grids, shared", [
        ("bogus", 2, 2, True),                      # an unknown variant
        ("single_factor", 1, 1, True),              # one-factor multi_rotation's old name
        ("multi_rotation", 2, 1, False),            # a grid short
        ("multi_rotation", 1, 2, True),             # a grid over
        ("single_rotation", 2, 3, True),            # a grid over
        ("single_rotation", 2, 2, False),           # weights that differ
    ])
    @pytest.mark.parametrize("encoding", ENCODINGS)
    def test_every_rule_refused_in_the_same_words(self, variant, r, n_grids, shared, encoding):
        weights = tuple([0.3] * r)
        pf = Portfolio([Asset(1000.5, 0.15, 0.1, weights),
                        Asset(2000.5, 0.25, 0.05, weights if shared else tuple([0.2] * r))])
        g = grids(n_grids)
        calls = [lambda: build_model(pf, g, variant, encoding),
                 lambda: model_table(pf, g, variant, encoding)]
        # The variant's rule comes before weighted_sum's refusal of these real LGDs.
        calls += [lambda mode=mode: estimate_resources(pf, g, variant, encoding, mode)
                  for mode in MODES]
        if n_grids != r:
            calls.append(lambda: exact_loss_distribution(pf, g))
        messages = set()
        for call in calls:
            with pytest.raises(ValueError) as refused:
                call()
            messages.add(str(refused.value))
        assert len(messages) == 1, messages

    @pytest.mark.parametrize("variant, r", [("multi_rotation", 2), ("multi_rotation", 1),
                                            ("single_rotation", 2)])
    def test_unknown_encoding_refused_by_every_variant(self, variant, r):
        pf = Portfolio([Asset(1000.5, 0.15, 0.1, (0.3,) * r), Asset(2000.5, 0.25, 0.05, (0.3,) * r)])
        g = grids(r)
        messages = set()
        calls = [lambda call=call: call(pf, g, variant, "bogus")
                 for call in (build_model, model_table, model_distribution)]
        calls += [lambda mode=mode: estimate_resources(pf, g, variant, "bogus", mode)
                  for mode in MODES]
        for call in calls:
            with pytest.raises(ValueError) as refused:
                call()
            messages.add(str(refused.value))
        assert messages == {"unknown encoding 'bogus'"}

    def test_single_rotation_exact_refused_in_the_same_words(self, monkeypatch):
        # model_layout owns the pair rule: every library function that names a model
        # refuses single_rotation with the exact encoding in its words, before any grid
        # computes its arrays.
        for name in ("values", "probs"):
            monkeypatch.setattr(FactorGrid, name, property(
                lambda grid, name=name: pytest.fail(f"a grid computed its {name}")))
        shared = (0.35, 0.2)
        pf = Portfolio([Asset(1000.5, 0.15, 0.1, shared), Asset(2000.5, 0.25, 0.05, shared)])
        g, model = grids(), ("single_rotation", "exact")
        calls = [lambda call=call: call(pf, g, *model)
                 for call in (build_model, model_table, model_distribution)]
        calls += [lambda mode=mode: estimate_resources(pf, g, *model, mode) for mode in MODES]
        calls += [lambda mode=mode: check_budget(pf, g, iqae=True, circuit=(*model, mode))
                  for mode in MODES]
        for call in calls:
            with pytest.raises(ValueError) as refused:
                call()
            assert str(refused.value) == (
                "the single_rotation variant takes encoding 'linear' only, got 'exact': "
                "its rotation is affine in the sum register")
