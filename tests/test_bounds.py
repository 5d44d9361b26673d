"""The bounds table (bounds.json) is well formed: each row uses only known fields, and its
config loads with the flags in its argv.  `python3 tests/bounds.py` measures the rows."""

import json
from pathlib import Path

import numpy as np
import pytest

import bounds
import golden
from qvar.cli import OVERRIDES, build_parser, load_config

TABLE = json.loads(bounds.TABLE.read_text(encoding="utf-8"))


@pytest.mark.parametrize("row", TABLE["rows"], ids=golden.label)
def test_row_is_well_formed(row, tmp_path):
    assert {"config", "argv", "exit", "why"} <= row.keys() <= bounds.FIELDS
    assert row["exit"] and all(isinstance(code, int) for code in row["exit"])
    assert all(row[key] > 0 for key in ("seconds", "rss_mb") if key in row)
    golden.write_config(row["config"], TABLE["configs"], tmp_path)
    path = str(tmp_path / golden.CONFIG)
    args = build_parser().parse_args([*row["argv"], "--config", path])
    load_config(path, {field: getattr(args, field) for field in OVERRIDES})


@pytest.mark.parametrize("k", [12, 14, 16])
def test_wide_compare_configs_are_the_generators(k, tmp_path):
    # The 12-, 14- and 16-asset configs, byte for byte as this generator writes them, so
    # the wide compare rows come from one portfolio family.
    rng = np.random.default_rng(12)
    assets = [{"lgd": round(float(rng.uniform(500, 3000)), 1),
               "p0": float(rng.uniform(0.02, 0.3)), "rho": float(rng.uniform(0.05, 0.3)),
               "alphas": [float(rng.uniform(0.1, 0.5))]} for _ in range(k)]
    with open(tmp_path / "generated.json", "w") as fh:
        json.dump({"risk_factors": {"count": 1, "qubits_per_factor": 2}, "assets": assets,
                   "analysis": {"alpha": 0.95, "epsilon": 0.01, "confidence": 0.99,
                                "mc_paths": 1000}}, fh)
    golden.write_config(f"assets_{k}", TABLE["configs"], tmp_path)
    assert (tmp_path / golden.CONFIG).read_bytes() == (tmp_path / "generated.json").read_bytes()


def test_a_child_sends_back_a_short_line(tmp_path, capsys):
    # The 16-asset row's distribution prints 54,030 losses.  Its child sends back their
    # line count, not the table, so the parent's RSS, which every later child starts
    # from, does not grow with a row's table.
    golden.write_config("assets_16", TABLE["configs"], tmp_path)
    argv = ["distribution", "--config", str(tmp_path / golden.CONFIG)]
    bounds.child(json.dumps({"argv": argv, "trace": False, "price": False}))
    line = capsys.readouterr().out
    got = json.loads(line)
    assert got["exit"] == 0 and got["table_lines"] == 1 + 54_030
    assert len(line) < 200


def test_a_relative_pythonpath_reaches_the_child(tmp_path, monkeypatch):
    # The tier-1 command's PYTHONPATH=src is relative to the repository root, and each
    # row's child runs in a temporary directory, which holds no src/: run_child makes
    # the entry absolute, so the child imports qvar (with qvar installed it would find
    # it either way).
    root = Path(bounds.__file__).resolve().parents[1]
    monkeypatch.chdir(root)
    monkeypatch.setenv("PYTHONPATH", "src")
    got = bounds.run_child(["resources", "--config", str(root / "configs" / "two_asset.json")],
                           cwd=str(tmp_path))
    assert got["exit"] == 0 and got["stderr"] == ""
