"""End-to-end CLI tests: config validation, output formats, determinism."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import qvar
from qvar.cli import ConfigError, load_config, main

TWO_ASSET = {
    "risk_factors": {"count": 2, "qubits_per_factor": 2, "bound_sigmas": 3.0},
    "assets": [
        {"lgd": 1000.5, "p0": 0.15, "rho": 0.1, "alphas": [0.35, 0.2]},
        {"lgd": 2000.5, "p0": 0.25, "rho": 0.05, "alphas": [0.1, 0.25]},
    ],
    "analysis": {
        "alpha": 0.95,
        "epsilon": 0.002,
        "confidence": 0.99,
        "seed": 7,
        "estimator": "exact",
        "encoding": "exact",
    },
}

# oracle values for the example portfolio
ORACLE_VAR_95 = 2000.5
ORACLE_LOSSES = ["0", "1000.5", "2000.5", "3001"]


def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


class TestConfigLoading:
    def test_defaults_filled(self, tmp_path):
        cfg = load_config(write_config(tmp_path, TWO_ASSET))
        assert cfg["analysis"]["shots_per_round"] == 100
        assert cfg["analysis"]["variant"] == "multi_rotation"
        assert cfg["analysis"]["mode"] == "s_free"
        assert cfg["risk_factors"]["qubits_per_factor"] == [2, 2]

    def test_schema_error_lists_paths(self, tmp_path):
        bad = json.loads(json.dumps(TWO_ASSET))
        bad["assets"][1]["p0"] = 1.5
        with pytest.raises(ConfigError, match=r"assets/1/p0"):
            load_config(write_config(tmp_path, bad))

    def test_alphas_length_names_asset(self, tmp_path):
        bad = json.loads(json.dumps(TWO_ASSET))
        bad["assets"][1]["alphas"] = [0.1]
        with pytest.raises(ConfigError, match=r"assets\[1\]\.alphas"):
            load_config(write_config(tmp_path, bad))

    def test_iqae_requires_epsilon(self, tmp_path):
        bad = json.loads(json.dumps(TWO_ASSET))
        del bad["analysis"]["epsilon"]
        bad["analysis"]["estimator"] = "iqae"
        with pytest.raises(ConfigError, match="epsilon"):
            load_config(write_config(tmp_path, bad))

    def test_overrides_apply(self, tmp_path):
        cfg = load_config(write_config(tmp_path, TWO_ASSET), {"seed": 3, "estimator": "classical"})
        assert cfg["analysis"]["seed"] == 3
        assert cfg["analysis"]["estimator"] == "classical"

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{nope")
        with pytest.raises(ConfigError, match="not valid JSON"):
            load_config(str(path))


class TestAnalyze:
    def test_exact_estimator_matches_oracle(self, tmp_path):
        config = write_config(tmp_path, TWO_ASSET)
        out = tmp_path / "report.json"
        assert main(["analyze", "--config", config, "--output", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["results"]["var"] == ORACLE_VAR_95
        assert report["results"]["cdf_at_var"] >= 0.95
        assert report["resources"]["width_paper_layout"] == 9
        assert report["config"]["analysis"]["seed"] == 7
        assert abs(report["results"]["economic_capital"]
                   - (report["results"]["var"] - report["results"]["expected_loss"])) == 0.0
        assert report["results"]["naive_expected_loss"] == pytest.approx(650.2)

    def test_byte_identical_reports(self, tmp_path):
        payload = json.loads(json.dumps(TWO_ASSET))
        payload["analysis"]["estimator"] = "iqae"
        config = write_config(tmp_path, payload)
        out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
        assert main(["analyze", "--config", config, "--output", str(out1)]) == 0
        assert main(["analyze", "--config", config, "--output", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_seed_override_changes_iqae_report(self, tmp_path):
        payload = json.loads(json.dumps(TWO_ASSET))
        payload["analysis"]["estimator"] = "iqae"
        config = write_config(tmp_path, payload)
        out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
        main(["analyze", "--config", config, "--output", str(out1), "--seed", "1"])
        main(["analyze", "--config", config, "--output", str(out2), "--seed", "2"])
        r1, r2 = json.loads(out1.read_text()), json.loads(out2.read_text())
        assert r1["config"]["analysis"]["seed"] == 1
        assert r1["results"]["var"] == r2["results"]["var"] == ORACLE_VAR_95
        assert r1["results"]["bisection_trace"] != r2["results"]["bisection_trace"]

    def test_schema_failure_exit_code(self, tmp_path, capsys):
        bad = json.loads(json.dumps(TWO_ASSET))
        bad["assets"][0]["alphas"] = [0.1, 0.2, 0.3]
        config = write_config(tmp_path, bad)
        assert main(["analyze", "--config", config]) == 2
        assert "assets[0].alphas" in capsys.readouterr().err

    def test_missing_config_file(self, capsys):
        assert main(["analyze", "--config", "/nonexistent/nope.json"]) == 2
        assert "error" in capsys.readouterr().err

    def test_weighted_sum_rejects_non_integer(self, tmp_path, capsys):
        config = write_config(tmp_path, TWO_ASSET)
        assert main(["analyze", "--config", config, "--mode", "weighted_sum"]) == 1
        assert "asset 0" in capsys.readouterr().err

    def test_unreachable_level_gives_partial_report(self, tmp_path, capsys):
        # probes are hopeless at these settings and never reach alpha = 0.95
        payload = json.loads(json.dumps(TWO_ASSET))
        payload["analysis"].update({"estimator": "iqae", "epsilon": 0.001,
                                    "shots_per_round": 1, "max_rounds": 2})
        config = write_config(tmp_path, payload)
        out = tmp_path / "partial.json"
        assert main(["analyze", "--config", config, "--output", str(out)]) == 1
        assert "target level" in capsys.readouterr().err
        report = json.loads(out.read_text())
        assert "error" in report
        assert report["results"]["bisection_trace"]
        assert "var" not in report["results"]

    def test_non_convergent_probe_flags_report(self, tmp_path, capsys):
        # alpha low enough that even wide-interval estimates clear it, so the
        # bisection completes while every probe reports non-convergence
        payload = json.loads(json.dumps(TWO_ASSET))
        payload["analysis"].update({"alpha": 0.05, "estimator": "iqae",
                                    "epsilon": 0.001, "shots_per_round": 1,
                                    "max_rounds": 2})
        config = write_config(tmp_path, payload)
        out = tmp_path / "flagged.json"
        assert main(["analyze", "--config", config, "--output", str(out)]) == 1
        assert "did not converge" in capsys.readouterr().err
        report = json.loads(out.read_text())
        assert report["results"]["estimation_failures"]
        assert report["results"]["var"] in (0.0, 1000.5, 2000.5, 3001.0)


class TestVariants:
    def test_single_rotation_through_cli(self, tmp_path):
        payload = json.loads(json.dumps(TWO_ASSET))
        for asset in payload["assets"]:
            asset["alphas"] = [0.35, 0.2]
        payload["analysis"]["variant"] = "single_rotation"
        config = write_config(tmp_path, payload)
        out = tmp_path / "report.json"
        assert main(["analyze", "--config", config, "--output", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["results"]["var"] in (0.0, 1000.5, 2000.5, 3001.0)
        assert report["resources"]["sum_register_width"] is not None

    def test_single_rotation_rejects_heterogeneous_alphas(self, tmp_path, capsys):
        config = write_config(tmp_path, TWO_ASSET)
        assert main(["analyze", "--config", config, "--variant", "single_rotation"]) == 1
        assert "asset 1" in capsys.readouterr().err

    def test_single_factor_requires_one_factor(self, tmp_path, capsys):
        config = write_config(tmp_path, TWO_ASSET)
        assert main(["analyze", "--config", config, "--variant", "single_factor"]) == 2
        assert "single_factor" in capsys.readouterr().err

    def test_single_factor_runs(self, tmp_path):
        payload = {
            "risk_factors": {"count": 1, "qubits_per_factor": 2},
            "assets": [{"lgd": 100.5, "p0": 0.2, "rho": 0.1, "alphas": [1.0]}],
            "analysis": {"alpha": 0.9, "estimator": "exact", "encoding": "exact",
                         "variant": "single_factor", "seed": 0},
        }
        config = write_config(tmp_path, payload)
        out = tmp_path / "report.json"
        assert main(["analyze", "--config", config, "--output", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["results"]["var"] in (0.0, 100.5)


class TestDistribution:
    def test_csv_contents(self, tmp_path):
        config = write_config(tmp_path, TWO_ASSET)
        out = tmp_path / "dist.csv"
        assert main(["distribution", "--config", config, "--output", str(out)]) == 0
        text = out.read_text()
        lines = text.strip().split("\n")
        assert lines[0] == "loss,probability,cdf"
        assert len(lines) == 5
        losses = [line.split(",")[0] for line in lines[1:]]
        assert losses == ORACLE_LOSSES
        cdf_final = float(lines[-1].split(",")[2])
        assert abs(cdf_final - 1.0) < 1e-9
        # cdf column is the running sum of the probability column
        run = 0.0
        for line in lines[1:]:
            _, prob, cdf = line.split(",")
            run += float(prob)
            assert abs(run - float(cdf)) < 1e-9
        assert "\r" not in text

    def test_probabilities_match_oracle(self, tmp_path):
        config = write_config(tmp_path, TWO_ASSET)
        out = tmp_path / "dist.csv"
        main(["distribution", "--config", config, "--output", str(out)])
        rows = out.read_text().strip().split("\n")[1:]
        probs = [float(r.split(",")[1]) for r in rows]
        expected = [0.6500424380360375, 0.10501933983692423,
                    0.2101895296951588, 0.03474869243187963]
        assert all(abs(p - e) < 1e-9 for p, e in zip(probs, expected))


class TestResources:
    def test_width_report(self, tmp_path):
        config = write_config(tmp_path, TWO_ASSET)
        out = tmp_path / "resources.json"
        assert main(["resources", "--config", config, "--output", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["resources"]["width_paper_layout"] == 9
        assert report["resources"]["width_built"] == 7

    def test_width_sweep_over_assets(self, tmp_path):
        widths = []
        for k in (2, 3, 4):
            payload = json.loads(json.dumps(TWO_ASSET))
            payload["assets"] = [
                {"lgd": 100.0 + i, "p0": 0.2, "rho": 0.1, "alphas": [0.35, 0.2]}
                for i in range(k)]
            config = write_config(tmp_path, payload, f"k{k}.json")
            out = tmp_path / f"res{k}.json"
            main(["resources", "--config", config, "--output", str(out)])
            widths.append(json.loads(out.read_text())["resources"]["width_paper_layout"])
        assert widths == [9, 11, 13]

    def test_legacy_includes_sum_register(self, tmp_path):
        payload = json.loads(json.dumps(TWO_ASSET))
        payload["assets"][0]["lgd"] = 1
        payload["assets"][1]["lgd"] = 2
        payload["analysis"]["mode"] = "weighted_sum"
        config = write_config(tmp_path, payload)
        out = tmp_path / "res.json"
        assert main(["resources", "--config", config, "--output", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["resources"]["sum_register_width"] == 2


class TestCompare:
    def test_consistency_table(self, tmp_path):
        payload = json.loads(json.dumps(TWO_ASSET))
        payload["analysis"]["mc_paths"] = 200_000
        config = write_config(tmp_path, payload)
        out = tmp_path / "compare.txt"
        assert main(["compare", "--config", config, "--output", str(out)]) == 0
        text = out.read_text()
        assert "threshold" in text and "iqae" in text
        # every support threshold appears and passes both tolerance columns
        body = [line for line in text.split("\n") if "True" in line or "False" in line]
        assert len(body) == 4
        assert all("False" not in line for line in body)

    def test_compare_requires_iqae_settings(self, tmp_path, capsys):
        payload = json.loads(json.dumps(TWO_ASSET))
        del payload["analysis"]["epsilon"]
        config = write_config(tmp_path, payload)
        assert main(["compare", "--config", config]) == 2
        assert "epsilon" in capsys.readouterr().err


def test_import_leaves_scipy_stats_unloaded():
    # scipy.stats roughly doubles start-up time and memory of the CLI
    code = "import sys, qvar.cli; print('scipy.stats' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=str(Path(qvar.__file__).parents[1]))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, env=env)
    assert out.stdout.strip() == "False"
