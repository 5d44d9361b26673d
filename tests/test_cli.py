"""End-to-end CLI tests: config validation, output formats, determinism."""

import copy
import decimal
import functools
import importlib.util
import json
import os
import re
import subprocess
import sys
import warnings
from dataclasses import replace
from pathlib import Path
from time import perf_counter

import numpy as np
import pytest

import qvar
import qvar.cli
import qvar.risk
import qvar.uncertainty
from qvar.circuit import evolve, marginal_probability, zero_state
from qvar.cli import (_CHUNK_ROWS, COMMANDS, CONFIG_SCHEMA, OVERRIDES, ConfigError, _dump_json,
                      _is_type, _schema_errors, config_to_inputs, iqae_config, load_config, main)
from qvar.estimation import iqae
from qvar.gaussian import FactorGrid, conditional_pd_table
from qvar.objective import MODES
from qvar.risk import _BYTES_PER_AMPLITUDE, exact_loss_distribution
from qvar.uncertainty import ENCODINGS, VARIANTS, Portfolio, model_table

import golden
from bounds import TABLE, run_child, traced
from oracles import build_a_circuit, exact_amplitude

CONFIGS = Path(__file__).parents[1] / "configs"


def _unreachable(*args, **kwargs):
    raise AssertionError("a grid computed its arrays past the budget")


def _no_grid_arrays(monkeypatch):
    """Fail the test if any FactorGrid computes or reads its values or probs."""
    for name in ("values", "probs"):
        monkeypatch.setattr(FactorGrid, name, property(_unreachable))


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

# verify_compare benchmark portfolio (perfbench/workloads.py, seed 303, op 27):
# 721.9 + 1076.3 and 1798.2, and 1974.6 + 1798.2 and 721.9 + 1076.3 + 1974.6,
# are equal losses that floating-point sums put an ulp apart.
ULP_PAIRS = {
    "risk_factors": {"count": 2, "qubits_per_factor": 2, "bound_sigmas": 3.0},
    "assets": [
        {"lgd": 1076.3, "p0": 0.2699315058682171, "rho": 0.11317737496585716,
         "alphas": [0.14139937321065257, 0.14651490232211437]},
        {"lgd": 1974.6, "p0": 0.04468540577007542, "rho": 0.08673509020228747,
         "alphas": [0.14837702836715658, 0.2547855572904385]},
        {"lgd": 721.9, "p0": 0.10570825584506767, "rho": 0.28723852503242253,
         "alphas": [0.45380884316350467, 0.3326176546096982]},
        {"lgd": 1798.2, "p0": 0.17382563777852827, "rho": 0.2008613311086943,
         "alphas": [0.4198192589742732, 0.38345001136514834]},
    ],
    "analysis": {"alpha": 0.95, "epsilon": 0.01, "confidence": 0.9999, "seed": 737789134,
                 "variant": "multi_rotation", "mode": "s_free"},
}


def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def traced_run(argv, price=False):
    """run_child's traced measurement of qvar.cli.main(argv) in a fresh process, as
    the installed `qvar` runs it, on the qvar imported here: exit, peak (tracemalloc's, in
    bytes) and, with price, the rerun's priced_exit and priced_stderr at peak - 1 bytes."""
    return run_child(argv, trace=True, price=price,
                     pythonpath=str(Path(qvar.__file__).parents[1]))


class Float(float):
    """A float subclass: _is_type takes it only where it is finite."""


class Integer(int):
    """An int subclass, which _is_type takes as an integer."""


def value_id(value) -> str:
    """A test id naming a value's class and, short of a 5,000-digit int, its repr."""
    big = isinstance(value, int) and abs(value).bit_length() > 64
    return type(value).__name__ + ("-big" if big else repr(value)[:24])


def set_field(cfg, field, value):
    """A copy of cfg with the value at a '/'-separated field path replaced."""
    cfg = copy.deepcopy(cfg)
    *parents, last = [int(p) if p.isdigit() else p for p in field.split("/")]
    node = cfg
    for key in parents:
        node = node[key]
    node[last] = value
    return cfg


def schema_nodes(value, schema, path=()):
    """(path, schema) of every value present in a config, root first."""
    yield path, schema
    if isinstance(value, list) and isinstance(schema.get("items"), dict):
        for idx, item in enumerate(value):
            yield from schema_nodes(item, schema["items"], path + (idx,))
    elif isinstance(value, dict) and "properties" in schema:
        for key, sub in schema["properties"].items():
            if key in value:
                yield from schema_nodes(value[key], sub, path + (key,))


def mutate(cfg, rng):
    """One random edit of a config: a wrong type, a value at or past a bound, a
    missing or unknown key, a bad enum or an empty array.  Integral floats in
    integer fields and non-finite numbers, which only jsonschema accepts, never
    appear."""
    nodes = list(schema_nodes(cfg, CONFIG_SCHEMA))
    path, schema = nodes[rng.integers(len(nodes))]
    parent, value = None, cfg
    for key in path:
        parent, value = value, value[key]
    pick = lambda options: options[rng.integers(len(options))]
    pool = ["x", None, True, 0.5, -3, 0, 5, [], [1], [0.5], {}, {"a": 1}]
    kinds = ["type"]
    bounds = [schema[k] for k in ("minimum", "exclusiveMinimum", "exclusiveMaximum") if k in schema]
    kinds += ["bound"] * bool(bounds) + ["enum"] * ("enum" in schema)
    kinds += ["empty"] * isinstance(value, list) + ["missing", "unknown"] * isinstance(value, dict)
    kind = pick(kinds)
    if kind == "missing" and value:
        del value[pick(sorted(value))]
        return cfg
    if kind == "unknown":
        value[pick(["extra", "bogus"])] = 1
        return cfg
    if kind == "bound":
        steps = [-1, 0, 1] if "integer" in schema["type"] else [-1, -0.25, 0, 0.25, 1]
        new = pick(bounds) + pick(steps)
    elif kind == "enum":
        new = pick(["nope", 7, *schema["enum"]])
    else:
        new = [] if kind == "empty" else copy.deepcopy(pick(pool))
    if parent is None:
        return new
    parent[path[-1]] = new
    return cfg


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

    def test_count_past_the_weights_refused_before_allocating(self, tmp_path, capsys):
        # A scalar qubits_per_factor becomes a list of `count` entries only once every
        # length has been checked: [2] * 10**13 would raise MemoryError first.
        payload = set_field(TWO_ASSET, "risk_factors/count", 10 ** 13)
        assert main(["resources", "--config", write_config(tmp_path, payload)]) == 2
        assert capsys.readouterr() == (
            "", "error: assets[0].alphas: expected 10000000000000 weights, got 2\n")

    def test_iqae_requires_epsilon(self, tmp_path):
        # The config loads: only iqae_config, where IQAE runs, needs the settings.
        bad = json.loads(json.dumps(TWO_ASSET))
        del bad["analysis"]["epsilon"]
        bad["analysis"]["estimator"] = "iqae"
        cfg = load_config(write_config(tmp_path, bad))
        with pytest.raises(ConfigError, match=r"^analysis\.epsilon: required where IQAE runs"):
            iqae_config(cfg["analysis"])

    def test_overrides_apply(self, tmp_path):
        cfg = load_config(write_config(tmp_path, TWO_ASSET), {"seed": 3, "estimator": "classical"})
        assert cfg["analysis"]["seed"] == 3
        assert cfg["analysis"]["estimator"] == "classical"

    def test_unknown_estimator_names_field(self, tmp_path):
        bad = json.loads(json.dumps(TWO_ASSET))
        bad["analysis"]["estimator"] = "nope"
        with pytest.raises(ConfigError, match=r"analysis/estimator: 'nope' is not one of"):
            load_config(write_config(tmp_path, bad))

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{nope")
        with pytest.raises(ConfigError, match="not valid JSON"):
            load_config(str(path))

    def test_integer_past_the_digit_limit_is_a_config_error(self, tmp_path, capsys):
        # Python parses no JSON integer of more than 4,300 digits: no config either.
        path = tmp_path / "config.json"
        path.write_text(json.dumps(TWO_ASSET).replace("1000.5", "1" * 5000))
        assert main(["distribution", "--config", str(path)]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.count("\n") == 1
        assert err.startswith(f"error: {path}: not valid JSON (Exceeds the limit (4300 digits)")

    def test_walker_agrees_with_jsonschema(self):
        # The walker against jsonschema as an oracle, on seeded mutants of the
        # repository configs: the same verdict and the same (path, message) pairs.
        jsonschema = pytest.importorskip("jsonschema")
        jsonschema.Draft202012Validator.check_schema(CONFIG_SCHEMA)
        oracle = jsonschema.Draft202012Validator(CONFIG_SCHEMA)
        bases = [json.loads((CONFIGS / name).read_text())
                 for name in ("two_asset.json", "two_asset_integer.json")] + [TWO_ASSET]
        rng = np.random.default_rng(2020)
        verdicts, messages = [], 0
        for trial in range(600):
            cfg = copy.deepcopy(bases[trial % len(bases)])
            for _ in range(rng.choice([1, 1, 2, 3])):
                cfg = mutate(cfg, rng)
            expected = sorted((tuple(e.absolute_path), e.message) for e in oracle.iter_errors(cfg))
            got = sorted(_schema_errors(copy.deepcopy(cfg), CONFIG_SCHEMA))
            assert got == expected, cfg
            verdicts.append(not got)
            messages += len(got)
        assert min(sum(verdicts), len(verdicts) - sum(verdicts)) >= 50
        assert messages >= 700

    @pytest.mark.parametrize("text", ["[]", '"config"', "3"])
    def test_non_object_config_names_the_root(self, tmp_path, capsys, text):
        path = tmp_path / "config.json"
        path.write_text(text)
        assert main(["analyze", "--config", str(path)]) == 2
        assert f"<root>: {json.loads(text)!r} is not of type 'object'" in capsys.readouterr().err

    @pytest.mark.parametrize("command, field, value", [
        ("analyze", "risk_factors/count", 2.0),
        ("analyze", "risk_factors/qubits_per_factor", 2.0),
        ("analyze", "risk_factors/qubits_per_factor/1", 2.0),
        ("analyze", "analysis/seed", 3.0),
        ("analyze", "analysis/shots_per_round", 100.0),
        ("analyze", "analysis/max_rounds", 64.0),
        ("compare", "analysis/mc_paths", 1000.0),
    ])
    def test_integer_fields_take_json_integers(self, tmp_path, capsys, command, field, value):
        # An integral float once passed the schema and crashed the run or left no path.
        listed = set_field(TWO_ASSET, "risk_factors/qubits_per_factor", [2, 2])
        bad = set_field(listed, field, value)
        assert main([command, "--config", write_config(tmp_path, bad)]) == 2
        assert f"{field}: {value!r} is not of type 'integer'" in capsys.readouterr().err

    @pytest.mark.parametrize("field, value", [
        ("assets/0/lgd", float("inf")),
        ("assets/0/lgd", float("nan")),
        ("assets/1/alphas/0", float("nan")),
        ("risk_factors/bound_sigmas", float("inf")),
        ("analysis/alpha", float("nan")),
        ("analysis/epsilon", float("-inf")),
    ])
    def test_non_finite_numbers_refused(self, tmp_path, capsys, field, value):
        # json reads NaN and Infinity; lgd Infinity once gave a report holding NaN.
        bad = set_field(TWO_ASSET, field, value)
        assert main(["analyze", "--config", write_config(tmp_path, bad)]) == 2
        assert f"{field}: {value!r} is not of type 'number'" in capsys.readouterr().err

    @pytest.mark.parametrize("value", [
        Float("inf"), Float("nan"), Float(0.5), Integer(1), np.float64("inf"), np.float64(0.5),
        np.int64(1), True, float("-inf"), 1, 0.5, "0.5", None], ids=value_id)
    @pytest.mark.parametrize("field", ["assets/0/lgd", "risk_factors/count"])
    def test_checker_tree_types_a_value_as_is_type_does(self, field, value):
        # The tree's class tests are a shortcut: whatever they pass, _is_type passes too,
        # so a float subclass holding inf is refused as the plain float is.
        name = "number" if field == "assets/0/lgd" else "integer"
        errors = _schema_errors(set_field(TWO_ASSET, field, value), CONFIG_SCHEMA)
        typed = [msg for path, msg in errors if "/".join(map(str, path)) == field
                 and msg.endswith(f"is not of type {name!r}")]
        assert typed == ([] if _is_type(value, name) else [f"{value!r} is not of type {name!r}"])

    @pytest.mark.parametrize("source", ["configs/two_asset.json", "assets_14"])
    def test_schema_compiles_once_at_import(self, tmp_path, monkeypatch, source):
        # load_config runs the checker tree built at import: with the compiler gone it
        # still checks and fills the schema's defaults, and refuses what it refused.
        if source == "assets_14":
            raw = json.loads(TABLE.read_text())["configs"][source]
            path = write_config(tmp_path, raw)
        else:
            path = str(CONFIGS.parent / source)
            raw = json.loads(Path(path).read_text())
        monkeypatch.setattr(qvar.cli, "_compile", _unreachable)
        cfg = load_config(path)
        for section, node in CONFIG_SCHEMA["properties"].items():
            for key, sub in node.get("properties", {}).items():
                if "default" in sub and key not in raw[section]:
                    assert cfg[section][key] == sub["default"], (section, key)
        assert len(cfg["assets"]) == len(raw["assets"])
        with pytest.raises(ConfigError, match=r"assets/0/p0: 1\.5 is greater than or equal to the"):
            load_config(write_config(tmp_path, set_field(raw, "assets/0/p0", 1.5), "bad.json"))


def random_payload(rng, depth=0):
    """A random JSON-able value: nested dicts, lists and tuples of str, int, float, bool
    and None leaves, empty containers among them."""
    kind = rng.integers(9 if depth < 4 else 5)
    if kind == 0:
        return "".join(map(chr, rng.integers(0, 0x2FF, rng.integers(0, 6))))
    if kind == 1:
        return int(rng.integers(-10 ** 6, 10 ** 6)) * int(rng.choice([1, 10 ** 12]))
    if kind == 2:
        return float(rng.standard_normal() * 10.0 ** rng.integers(-30, 30))
    if kind == 3:
        return bool(rng.integers(2))
    if kind == 4:
        return None
    items = [random_payload(rng, depth + 1) for _ in range(rng.integers(0, 5))]
    if kind == 5:
        return items
    if kind == 6:
        return tuple(items)
    return {"".join(map(chr, rng.integers(32, 0x17F, rng.integers(0, 5)))): item
            for item in items}


def dumps(payload) -> str:
    """json.dumps' report text, with int's digit limit lifted as _dump_json lifts it."""
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return json.dumps(payload, sort_keys=True, indent=2) + "\n"
    finally:
        sys.set_int_max_str_digits(limit)


class TestReportEncoder:
    def test_random_payloads_read_as_json_dumps(self):
        rng = np.random.default_rng(40)
        kinds = set()
        for _ in range(400):
            payload = {"payload": random_payload(rng)}
            assert _dump_json(payload) == dumps(payload), payload
            kinds.add(type(payload["payload"]))
        assert kinds == {str, int, float, bool, type(None), list, tuple, dict}

    @pytest.mark.parametrize("value", [
        float("nan"), float("inf"), float("-inf"), -0.0, 5e-324, 1e16, 1e-5, 0.1, 10 ** 5000,
        -(10 ** 5000), "caf\u00e9 \u2603 \U0001f600", "\x00\x1f\t\n\r\"\\/\x7f", "",
        [], (), {}, [[]], [{}], {"a": []}, {"a": {"b": {}}}, [[[()]]], [1, [], {}, (2,)],
        Float(0.25), Float("nan"), Integer(7), np.float64(0.1), np.float64("-inf")], ids=value_id)
    def test_fixed_cases_read_as_json_dumps(self, value):
        for payload in (value, {"x": value}, [value, {"y": [value]}]):
            assert _dump_json(payload) == dumps(payload)

    def test_key_order_and_escapes_are_json_dumps(self):
        payload = {"b": 1, "a": {"\u00e9": 2, "A": 3, "": 4}, "\n": [{"z": 0, "y": 1}]}
        assert _dump_json(payload) == dumps(payload)

    @pytest.mark.parametrize("value", [np.int64(1), {1, 2}, object(), b"bytes"], ids=value_id)
    def test_what_json_refuses_is_a_type_error(self, value):
        with pytest.raises(TypeError):
            json.dumps({"x": value}, sort_keys=True, indent=2)
        with pytest.raises(TypeError, match="is not JSON serializable"):
            _dump_json({"x": value})

    def test_digit_limit_restored_after_a_raise(self):
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(5000)
        try:
            assert _dump_json({"n": 10 ** 6000}).count("0") == 6000    # past the limit, lifted
            assert sys.get_int_max_str_digits() == 5000
            with pytest.raises(TypeError):
                _dump_json({"n": 10 ** 6000, "s": {1}})
            assert sys.get_int_max_str_digits() == 5000
        finally:
            sys.set_int_max_str_digits(limit)


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

    @pytest.mark.parametrize("encoding, el", [("linear", 638.8016880906326),
                                              ("exact", 629.8368296500787)])
    def test_report_comes_from_the_configured_model(self, tmp_path, encoding, el):
        # The linear model's own EL, not the exact-encoding enumeration's 629.84.
        out = tmp_path / "report.json"
        assert main(["analyze", "--config", str(CONFIGS / "two_asset.json"),
                     "--encoding", encoding, "--output", str(out)]) == 0
        results = json.loads(out.read_text())["results"]
        assert results["expected_loss"] == pytest.approx(el, rel=1e-14)
        assert results["economic_capital"] == results["var"] - results["expected_loss"]

    @pytest.mark.parametrize("estimator", ["exact", "iqae"])
    def test_model_estimators_never_enumerate(self, tmp_path, monkeypatch, estimator):
        # Nor build a gate or simulate: the model's distribution is its angle table's.
        def refused(*args, **kwargs):
            raise AssertionError("analyze enumerated the classical model, built or simulated")

        for name, module in list(sys.modules.items()):
            for fn in ("exact_loss_distribution", "joint_grid", "build_model", "evolve",
                       "zero_state"):
                if name.startswith("qvar") and hasattr(module, fn):
                    monkeypatch.setattr(module, fn, refused)
        config = write_config(tmp_path, TWO_ASSET)
        out = tmp_path / "report.json"
        assert main(["analyze", "--config", config, "--estimator", estimator,
                     "--output", str(out)]) == 0
        assert json.loads(out.read_text())["results"]["var"] == ORACLE_VAR_95

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

    @pytest.mark.parametrize("case", ["config is a directory", "output is a directory",
                                      "config is not UTF-8", "config is missing",
                                      "config nests past the recursion limit",
                                      "output directory is missing"])
    @pytest.mark.parametrize("command", ["analyze", "distribution", "resources", "compare"])
    def test_unreadable_or_unwritable_path_is_one_error_line(self, tmp_path, capsys, case,
                                                              command):
        config, output = write_config(tmp_path, TWO_ASSET), str(tmp_path / "report")
        if case == "config is a directory":
            config = str(tmp_path)
        elif case == "output is a directory":
            output = str(tmp_path)
        elif case == "config is not UTF-8":
            Path(config).write_bytes(json.dumps(TWO_ASSET).replace("0.95", "\"\xe9\"").encode("latin-1"))
        elif case == "config is missing":
            config = str(tmp_path / "absent.json")
        elif case == "config nests past the recursion limit":
            Path(config).write_text("[" * 100_000)
        else:
            output = str(tmp_path / "absent" / "report")
        assert main([command, "--config", config, "--output", output]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and "Traceback" not in err
        assert (config if "config" in case else output) in err

    def test_weighted_sum_rejects_non_integer(self, tmp_path, capsys):
        config = write_config(tmp_path, TWO_ASSET)
        assert main(["analyze", "--config", config, "--mode", "weighted_sum"]) == 1
        assert "asset 0" in capsys.readouterr().err

    def test_unreachable_level_reports_the_top_point(self, tmp_path, capsys):
        # sampled probes are hopeless at these settings and never reach alpha = 0.95,
        # so the VaR is the top support point, certain and never sampled
        payload = json.loads(json.dumps(TWO_ASSET))
        payload["analysis"].update({"estimator": "iqae", "epsilon": 0.001,
                                    "shots_per_round": 1, "max_rounds": 2})
        config = write_config(tmp_path, payload)
        out = tmp_path / "flagged.json"
        assert main(["analyze", "--config", config, "--output", str(out)]) == 1
        err = capsys.readouterr().err
        assert "did not converge" in err and "partial" not in err
        assert "the report was written and lists them under estimation_failures" in err
        results = json.loads(out.read_text())["results"]
        *sampled, top = results["bisection_trace"]
        assert (results["var"], results["cdf_at_var"]) == (3001.0, 1.0)
        assert top == {"threshold": 3001.0, "estimate": 1.0}
        assert [p["threshold"] for p in sampled] == [1000.5, 2000.5]
        assert all(p["estimate"] < 0.95 and p["converged"] is False for p in sampled)
        assert results["estimation_failures"] == [1000.5, 2000.5]

    @pytest.mark.parametrize("encoding", ["exact", "linear"])
    @pytest.mark.parametrize("estimator", ["exact", "iqae", "classical"])
    def test_level_one_ulp_below_one_is_the_top_point(self, tmp_path, capsys, estimator,
                                                      encoding):
        # The linear model's cdf ends 2 ulp below 1, and IQAE's estimate is the midpoint
        # of an interval capped at 1: neither reaches this level, the top point does.
        payload = {"risk_factors": {"count": 1, "qubits_per_factor": 2},
                   "assets": [{"lgd": 1000, "p0": 0.1, "rho": 0.1, "alphas": [0.3]}] * 2,
                   "analysis": {"alpha": 0.9999999999999999, "epsilon": 0.01,
                                "confidence": 0.95}}
        config = write_config(tmp_path, payload)
        assert main(["analyze", "--config", config, "--estimator", estimator,
                     "--encoding", encoding]) == 0
        results = json.loads(capsys.readouterr().out)["results"]
        assert (results["var"], results["cdf_at_var"]) == (2000.0, 1.0)
        assert results["bisection_trace"][-1] == {"threshold": 2000.0, "estimate": 1.0}

    def test_a_cdf_equal_to_alpha_reaches_it(self, tmp_path, capsys):
        # Two independent fair assets with LGDs 1 and 2: the classical cdf is 0.25,
        # 0.5, 0.75 and 1, so at alpha 0.25 the VaR is 0.0, whose cdf equals alpha; a
        # bisection that asked for cdf > alpha would report 1.0.  The exact estimator
        # reports 1.0 here, for its readouts at 0 and 1 round to 0.2499999999999999 and
        # 0.4999999999999999.
        payload = {"risk_factors": {"count": 1, "qubits_per_factor": 1},
                   "assets": [{"lgd": lgd, "p0": 0.5, "rho": 0.0, "alphas": [0.3]}
                              for lgd in (1, 2)],
                   "analysis": {"alpha": 0.25}}
        config = write_config(tmp_path, payload)
        reports = {}
        for estimator in ("classical", "exact"):
            assert main(["analyze", "--config", config, "--estimator", estimator]) == 0
            results = json.loads(capsys.readouterr().out)["results"]
            reports[estimator] = (results["var"], results["cdf_at_var"])
        assert reports == {"classical": (0.0, 0.25), "exact": (1.0, 0.4999999999999999)}

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
        payload["analysis"].update(variant="single_rotation", encoding="linear")
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

    def test_single_rotation_message_same_for_every_estimator(self, tmp_path, capsys):
        config = write_config(tmp_path, TWO_ASSET)
        errors = set()
        for estimator in ("classical", "exact", "iqae"):
            assert main(["analyze", "--config", config, "--variant", "single_rotation",
                         "--estimator", estimator]) == 1
            errors.add(capsys.readouterr().err)
        assert len(errors) == 1
        assert "asset 1 has weights" in errors.pop()

    @pytest.mark.parametrize("variant, encoding, error", [
        ("multi_rotation", "exact", None), ("multi_rotation", "linear", None),
        ("single_rotation", "linear", None),
        ("single_rotation", "exact", "the single_rotation variant takes encoding 'linear' only, "
                                     "got 'exact': its rotation is affine in the sum register"),
        ("single_factor", "linear", "{config}: schema violations: analysis/variant: "
                                    "'single_factor' is not one of "
                                    "['multi_rotation', 'single_rotation']"),
        ("multi_rotation", "bogus", "{config}: schema violations: analysis/encoding: "
                                    "'bogus' is not one of ['exact', 'linear']"),
    ], ids=lambda value: "runs" if value is None else "refused" if " " in value else value)
    def test_every_model_command_refuses_a_pair_that_is_no_model(self, tmp_path, capsys,
                                                                  monkeypatch, variant,
                                                                  encoding, error):
        # Every command that names a model, whatever it then computes, runs the accepted
        # (variant, encoding) pairs and refuses any other in one line, in the same words,
        # before any grid computes its arrays.  single_rotation's rotation is affine in
        # its sum register, so the exact encoding names no model of it.
        payload = copy.deepcopy(SHARED_ALPHAS_AT_2_5)
        payload["analysis"].update(epsilon=0.01, confidence=0.99)
        config = write_config(tmp_path, payload)
        for argv in (["analyze", "--estimator", "exact"], ["analyze", "--estimator", "iqae"],
                     ["analyze", "--estimator", "classical"], ["compare"], ["resources"]):
            with monkeypatch.context() as patched:
                if error:
                    _no_grid_arrays(patched)
                code = main([argv[0], "--config", config, *argv[1:], "--variant", variant,
                             "--encoding", encoding, "--output", os.devnull])
            out, err = capsys.readouterr()
            if error is None:
                assert (code, out, err) == (0, "", ""), argv
            else:
                assert out == "" and err == f"error: {error.format(config=config)}\n", argv
                assert code == (1 if variant in VARIANTS and encoding in ENCODINGS else 2)

    def test_classical_checks_variant_before_enumerating(self, tmp_path, capsys,
                                                         monkeypatch):
        def enumeration(*args, **kwargs):
            raise AssertionError("the enumeration ran before the variant check")

        monkeypatch.setattr(qvar.cli, "exact_loss_distribution", enumeration)
        config = write_config(tmp_path, TWO_ASSET)
        assert main(["analyze", "--config", config, "--variant", "single_rotation",
                     "--estimator", "classical"]) == 1
        assert "asset 1 has weights" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [["resources"], ["analyze", "--estimator", "exact"],
                                      ["compare"]])
    def test_single_rotation_factor_past_1023_qubits_refused(self, tmp_path, capsys,
                                                             monkeypatch, argv):
        # index_sum_plan steps each factor's range over its 2**n_z - 1 points in floats,
        # and no float holds 2**1024 - 1: a 1,024-qubit factor is refused in one line
        # naming the field.  At 1,023 the plan computes, and resources reports it while
        # analyze and compare refuse the budget; no grid computes its arrays either way.
        _no_grid_arrays(monkeypatch)
        payload = copy.deepcopy(SHARED_ALPHAS_AT_2_5)
        payload["analysis"].update(epsilon=0.01, confidence=0.99, variant="single_rotation")
        for qubits in (1023, 1024):
            payload["risk_factors"]["qubits_per_factor"] = [qubits, 3]
            config = write_config(tmp_path, payload)
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                code = main([*argv, "--config", config, "--output", os.devnull])
            err = capsys.readouterr().err
            if qubits == 1023 and argv == ["resources"]:
                assert (code, err) == (0, "")
            elif qubits == 1023:
                assert code == 1 and err.count("\n") == 1 and "over the budget" in err
            else:
                assert (code, err) == (1, "error: the single_rotation variant steps each "
                                          "factor's range over its 2**n_z - 1 points in "
                                          "floats, so it takes factors of at most 1023 "
                                          "qubits, got 1024; reduce "
                                          "risk_factors.qubits_per_factor\n")

    def test_statevector_budget_refused_before_allocating(self, tmp_path, capsys):
        # 8 factor qubits, an 8-qubit index sum and 10 assets: a 26-qubit model and a
        # 27-qubit A circuit, about 8.6 GB of state and readout, refused before compare
        # builds the model.  analyze enumerates its angle table, 2**18 states, instead.
        payload = {
            "risk_factors": {"count": 1, "qubits_per_factor": 8},
            "assets": [{"lgd": 100.5 * (i + 1), "p0": 0.1, "rho": 0.2, "alphas": [0.4]}
                       for i in range(10)],
            "analysis": {"alpha": 0.95, "epsilon": 0.01, "confidence": 0.99,
                         "estimator": "exact", "variant": "single_rotation"},
        }
        config = write_config(tmp_path, payload)
        code, peak = traced(lambda: main(["compare", "--config", config]))
        assert code == 1
        err = capsys.readouterr().err
        assert "27-qubit A circuit" in err and "risk_factors.qubits_per_factor" in err
        assert peak < 100 * 2 ** 20
        assert main(["analyze", "--config", config, "--output", str(tmp_path / "r.json")]) == 0

    @pytest.mark.parametrize("command, refused", [
        pytest.param("analyze", "enumeration would visit 3.36e+7 states",
                     id="analyze-25-qubit model"),
        ("compare", "26-qubit A circuit")])
    def test_model_over_budget_refused_before_building(self, tmp_path, capsys, command,
                                                        refused):
        # 13 assets on one 12-qubit factor: an exact-encoding model of 25 qubits
        # whose 13 x 4096 pattern-controlled rotations take tens of seconds to build,
        # and whose 2**25 states the enumeration refuses.
        payload = {
            "risk_factors": {"count": 1, "qubits_per_factor": 12},
            "assets": [{"lgd": 100.5 * (i + 1), "p0": 0.1, "rho": 0.2, "alphas": [0.4]}
                       for i in range(13)],
            "analysis": {"alpha": 0.95, "epsilon": 0.01, "confidence": 0.99,
                         "estimator": "exact", "encoding": "exact"},
        }
        config = write_config(tmp_path, payload)
        start = perf_counter()
        code, peak = traced(lambda: main([command, "--config", config]))
        elapsed = perf_counter() - start
        assert code == 1
        err = capsys.readouterr().err
        assert refused in err and "risk_factors.qubits_per_factor" in err
        assert elapsed < 1.0 and peak < 2 ** 20

    @pytest.mark.parametrize("qubits, encoding, command, refused", [
        (22, "exact", "compare", "angles and 4 gates, over the budget"),
        (22, "linear", "compare", "angles and 4 gates, over the budget"),
        (22, "linear", "analyze", "enumeration would visit 1.68e+7 states"),
    ], ids=["22-exact-compare", "22-linear-compare", "22-linear-analyze"])
    def test_gate_list_refused_before_building(self, tmp_path, capsys, monkeypatch, command,
                                               qubits, encoding, refused):
        # 2 assets on one 22-qubit factor: compare's 25-qubit A circuit, priced with the
        # 12.6M angles its model's register RYs would hold, is refused before the model is
        # built.  analyze builds no gate; it refuses the enumeration's 2**24 states.
        def build(*args, **kwargs):
            raise AssertionError("the model was built past the budget")

        monkeypatch.setattr(qvar.cli, "build_model", build)
        payload = {
            "risk_factors": {"count": 1, "qubits_per_factor": qubits},
            "assets": [{"lgd": 100.5 * (i + 1), "p0": 0.1, "rho": 0.2, "alphas": [0.4]}
                       for i in range(2)],
            "analysis": {"alpha": 0.95, "epsilon": 0.01, "confidence": 0.99,
                         "estimator": "exact", "encoding": encoding},
        }
        config = write_config(tmp_path, payload)
        start = perf_counter()
        code, peak = traced(lambda: main([command, "--config", config]))
        elapsed = perf_counter() - start
        assert code == 1
        err = capsys.readouterr().err
        assert refused in err and "risk_factors.qubits_per_factor" in err
        assert elapsed < 1.0 and peak < 200 * 2 ** 20

    @pytest.mark.parametrize("assets, code", [(5, 0), (6, 1)], ids=["23-qubit", "24-qubit"])
    def test_multi_rotation_width_limit(self, tmp_path, capsys, monkeypatch, assets, code):
        # Linear models on two 9-qubit factors: at 23 qubits analyze enumerates 2**23
        # states, within its budget of 1e7; at 24 it is refused before the angle table.
        tables = []
        monkeypatch.setattr(qvar.risk, "model_table",
                            lambda *args: tables.append(args) or model_table(*args))
        payload = {
            "risk_factors": {"count": 2, "qubits_per_factor": 9},
            "assets": [{"lgd": 1000.5 + 250 * i, "p0": 0.1, "rho": 0.2, "alphas": [0.3, 0.2]}
                       for i in range(assets)],
            "analysis": {"alpha": 0.95, "estimator": "exact", "encoding": "linear"},
        }
        config = write_config(tmp_path, payload)
        assert main(["analyze", "--config", config, "--output", str(tmp_path / "r.json")]) == code
        assert len(tables) == 1 - code
        if code:
            assert capsys.readouterr().err == (
                "error: enumeration would visit 1.68e+7 states, over the budget of 1.00e+7; "
                "reduce risk_factors.qubits_per_factor or assets\n")

    @pytest.mark.parametrize("estimator", ["classical", "exact"])
    def test_enumeration_count_fits_the_byte_budget(self, tmp_path, estimator):
        # 22 assets on one 1-qubit factor: 2**22 default patterns on 2 cells, 2**23 states,
        # the most the enumeration's count admits.  The count is a bound on time and
        # prices no byte, so the run's traced peak (230 MB) must fit the byte budget.
        payload = {
            "risk_factors": {"count": 1, "qubits_per_factor": 1},
            "assets": [{"lgd": 100.5 * (i + 1), "p0": 0.1, "rho": 0.2, "alphas": [0.4]}
                       for i in range(22)],
            "analysis": {"alpha": 0.95, "estimator": estimator},
        }
        assert 2 * 2 ** 22 <= qvar.risk._MAX_ENUMERATION < 2 * 2 ** 23
        got = traced_run(["analyze", "--config", write_config(tmp_path, payload),
                          "--output", str(tmp_path / "r.json")])
        assert got["exit"] == 0 and got["peak"] < qvar.risk.MAX_STATE_BYTES

    @pytest.mark.parametrize("command", ["analyze", "distribution"])
    def test_factor_grid_refused_before_its_arrays(self, tmp_path, capsys, monkeypatch,
                                                   command):
        # One 22-qubit factor against a 64 MiB budget: its 2**22 grid points, 16 B each
        # kept and 32 B more while its probs are computed, are refused before its arrays
        # take 172 MB.  The full budget refuses qubits_per_factor >= 25 by the same rule.
        monkeypatch.setattr(qvar.risk, "MAX_STATE_BYTES", 1 << 26)
        _no_grid_arrays(monkeypatch)
        payload = {
            "risk_factors": {"count": 1, "qubits_per_factor": 22},
            "assets": [{"lgd": 100.5, "p0": 0.1, "rho": 0.2, "alphas": [0.4]}],
            "analysis": {"alpha": 0.95, "estimator": "classical"},
        }
        config = write_config(tmp_path, payload)
        code, peak = traced(lambda: main([command, "--config", config]))
        assert code == 1
        err = capsys.readouterr().err
        assert "22-qubit factor grid" in err and "risk_factors.qubits_per_factor" in err
        assert peak < 100 * 2 ** 20

    @pytest.mark.parametrize("command", ["analyze", "distribution"])
    def test_enumeration_refused_before_grid_arrays(self, tmp_path, capsys, monkeypatch,
                                                    command):
        # 1 asset on one 23-qubit factor: its grid fits the budget, but the enumeration's
        # 2**24 states do not, and the count is checked before the grid's arrays take 328 MiB.
        _no_grid_arrays(monkeypatch)
        payload = {
            "risk_factors": {"count": 1, "qubits_per_factor": 23},
            "assets": [{"lgd": 100.5, "p0": 0.1, "rho": 0.2, "alphas": [0.4]}],
            "analysis": {"alpha": 0.95, "estimator": "classical"},
        }
        config = write_config(tmp_path, payload)
        code, peak = traced(lambda: main([command, "--config", config]))
        assert code == 1
        assert capsys.readouterr().err == (
            "error: enumeration would visit 1.68e+7 states, over the budget of 1.00e+7; "
            "reduce risk_factors.qubits_per_factor or assets\n")
        assert peak < 2 ** 20

    def test_analyze_checks_its_variant_before_the_budget(self, tmp_path, capsys, monkeypatch):
        # Two assets on two 12-qubit factors with their own weights: over the enumeration's
        # count (2**26 states) and invalid for single_rotation.  The variant's rule is
        # checked on the grids' shapes, before the budget and before any grid's arrays.
        _no_grid_arrays(monkeypatch)
        payload = {
            "risk_factors": {"count": 2, "qubits_per_factor": 12},
            "assets": [{"lgd": 100.5, "p0": 0.1, "rho": 0.2, "alphas": [0.4, 0.1]},
                       {"lgd": 200.5, "p0": 0.2, "rho": 0.1, "alphas": [0.3, 0.2]}],
            "analysis": {"alpha": 0.95, "estimator": "exact", "variant": "single_rotation"},
        }
        assert main(["analyze", "--config", write_config(tmp_path, payload)]) == 1
        assert capsys.readouterr().err == (
            "error: asset 1 has weights (0.3, 0.2), but the single-rotation variant requires "
            "the shared vector (0.4, 0.1)\n")

    @pytest.mark.parametrize("argv", [["analyze", "--estimator", "exact"],
                                      ["analyze", "--estimator", "classical"], ["compare"]])
    def test_pair_refused_before_the_budget(self, tmp_path, capsys, monkeypatch, argv):
        # Two assets on shared weights and two 12-qubit factors: over the enumeration's
        # count (2**26 states), and single_rotation with the exact encoding is no model.
        # The pair is checked first.
        _no_grid_arrays(monkeypatch)
        payload = {
            "risk_factors": {"count": 2, "qubits_per_factor": 12},
            "assets": [{"lgd": 100.5, "p0": 0.1, "rho": 0.2, "alphas": [0.4, 0.1]},
                       {"lgd": 200.5, "p0": 0.2, "rho": 0.1, "alphas": [0.4, 0.1]}],
            "analysis": {"alpha": 0.95, "epsilon": 0.01, "confidence": 0.99,
                         "variant": "single_rotation", "encoding": "exact"},
        }
        config = write_config(tmp_path, payload)
        assert main([argv[0], "--config", config, *argv[1:]]) == 1
        assert "takes encoding 'linear' only" in capsys.readouterr().err

    def test_budget_prices_the_grids_the_run_reads(self, tmp_path, monkeypatch):
        # The grids the budget is checked on, in exact_loss_distribution, are the ones the
        # enumeration then reads.
        priced, read = [], []
        monkeypatch.setattr(qvar.risk, "check_budget", lambda pf, grids, **run: priced.extend(grids))
        enumerate_ = qvar.cli.exact_loss_distribution
        monkeypatch.setattr(qvar.cli, "exact_loss_distribution",
                            lambda pf, grids: read.extend(grids) or enumerate_(pf, grids))
        payload = copy.deepcopy(TWO_ASSET)
        payload["risk_factors"] = {"count": 2, "qubits_per_factor": [2, 3], "bound_sigmas": 2.7}
        assert main(["distribution", "--config", write_config(tmp_path, payload),
                     "--output", str(tmp_path / "d.csv")]) == 0
        assert [(g.n_z, g.bound) for g in priced] == [(2, 2.7), (3, 2.7)]
        assert len(read) == 2 and all(g is h for g, h in zip(priced, read))

    THREE_20_QUBIT_FACTORS = {
        "risk_factors": {"count": 3, "qubits_per_factor": 20},
        "assets": [{"lgd": 100.5, "p0": 0.1, "rho": 0.2, "alphas": [0.4, 0.2, 0.1]}],
        "analysis": {"alpha": 0.95},
    }

    def test_distribution_refuses_summed_grids(self, tmp_path, capsys, monkeypatch):
        # Three 20-qubit factors against a 72 MiB budget: each grid alone fits, but all
        # three kept (48 MiB) and one computing its arrays (32 MiB) do not.  The grids'
        # bytes are checked before the enumeration's count.
        monkeypatch.setattr(qvar.risk, "MAX_STATE_BYTES", 72 << 20)
        _no_grid_arrays(monkeypatch)
        config = write_config(tmp_path, self.THREE_20_QUBIT_FACTORS)
        assert main(["distribution", "--config", config]) == 1
        assert capsys.readouterr().err == (
            "error: the 20-, 20-, 20-qubit factor grids would need about 8.39e+7 bytes, over "
            "the budget of 7.55e+7; reduce risk_factors.qubits_per_factor or assets\n")

    def test_resources_reads_shapes_alone(self, tmp_path, capsys, monkeypatch):
        # resources prices nothing and computes no grid's arrays: its report needs each
        # grid's n_z and range only, so three 20-qubit factors run without a byte of grid.
        _no_grid_arrays(monkeypatch)
        config = write_config(tmp_path, self.THREE_20_QUBIT_FACTORS)
        code, peak = traced(lambda: main(["resources", "--config", config]))
        assert code == 0
        report = json.loads(capsys.readouterr().out)["resources"]
        assert report["width_built"] == 3 * 20 + 1 + 1
        assert peak < 2 ** 20

    def test_single_factor_is_an_unknown_variant(self, tmp_path, capsys):
        # A one-factor multi_rotation config is the single-factor model; the old name is
        # refused on the command line and in a config alike, in one line.
        payload = copy.deepcopy(TWO_ASSET)
        payload["risk_factors"].update(count=1)
        for asset in payload["assets"]:
            asset["alphas"] = asset["alphas"][:1]
        config = write_config(tmp_path, payload)
        assert main(["analyze", "--config", config, "--variant", "single_factor"]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "analysis/variant: 'single_factor' is not one of" in err
        payload["analysis"]["variant"] = "single_factor"
        assert main(["analyze", "--config", write_config(tmp_path, payload)]) == 2
        assert capsys.readouterr().err == err

    def test_single_factor_runs(self, tmp_path):
        payload = {
            "risk_factors": {"count": 1, "qubits_per_factor": 2},
            "assets": [{"lgd": 100.5, "p0": 0.2, "rho": 0.1, "alphas": [1.0]}],
            "analysis": {"alpha": 0.9, "estimator": "exact", "encoding": "exact",
                         "variant": "multi_rotation", "seed": 0},
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

    def test_loss_register_holds_2_49_minus_1_in_49_qubits(self, tmp_path, capsys):
        # floor(log2(t)) + 1 reads 50 here; the register's integer rule needs 49.
        payload = {"risk_factors": {"count": 1, "qubits_per_factor": 1},
                   "assets": [{"lgd": 2 ** 49 - 1, "p0": 0.1, "rho": 0.1, "alphas": [0.3]}],
                   "analysis": {"alpha": 0.95, "mode": "weighted_sum"}}
        assert main(["resources", "--config", write_config(tmp_path, payload)]) == 0
        report = json.loads(capsys.readouterr().out)["resources"]
        assert (report["sum_register_width"], report["width_built"],
                report["comparator_pattern_count"]) == (49, 1 + 1 + 49 + 1, 2 ** 49)


class TestHugeSizes:
    """Counts past Python's 4,300-digit limit on int-to-str conversion get qvar's answer:
    resources prints them whole, and a budget refusal in three significant digits."""

    @staticmethod
    def _assets(tmp_path, k, qubits=1, count=1):
        return write_config(tmp_path, {
            "risk_factors": {"count": count, "qubits_per_factor": qubits},
            "assets": [{"lgd": 100.5, "p0": 0.1, "rho": 0.2, "alphas": [0.4] * count}] * k,
            "analysis": {"alpha": 0.95, "epsilon": 0.01, "confidence": 0.99}})

    @pytest.mark.parametrize("assets", [14_285, 20_000])
    def test_resources_prints_exact_pattern_counts(self, tmp_path, capsys, assets):
        # 2**14285 has 4,301 digits, one past the limit; 2**20000 has 6,021.
        assert main(["resources", "--config", self._assets(tmp_path, assets)]) == 0
        out, err = capsys.readouterr()
        digits = re.search(r'"comparator_pattern_count": (\d+),', out).group(1)
        with decimal.localcontext() as ctx:
            ctx.prec = len(digits) + 1
            assert decimal.Decimal(digits) == decimal.Decimal(2) ** assets
        assert err == ""

    @pytest.mark.parametrize("config, argv, refusal", [
        ((20_000,), ["analyze", "--estimator", "classical"],
         "enumeration would visit 7.96e+6020 states, over the budget of 1.00e+7"),
        ((14_285,), ["analyze", "--estimator", "exact"],
         "enumeration would visit 3.27e+4300 states, over the budget of 1.00e+7"),
        ((20_000,), ["compare"], "the 20002-qubit A circuit would need about 5.10e+6026 "
         "bytes with 4.00e+4 angles and 3.98e+6020 gates, over the budget of 1.07e+9"),
        ((1, 1023), ["analyze", "--estimator", "classical"],
         "the 1023-qubit factor grids would need about 4.31e+309 bytes, over the budget of "
         "1.07e+9"),
        ((1, 22, 17), ["distribution"], "the 17 factor grids, the widest of 22 qubits, would "
         "need about 1.28e+9 bytes, over the budget of 1.07e+9"),
        # 3,010,302 digits: converted whole, as Decimal(n) does, they would take minutes.
        ((1, 10 ** 7), ["compare"], "the 10000002-qubit A circuit would need about "
         "3.04e+3010302 bytes with 1.81e+3010300 angles and 2 gates, over the budget of 1.07e+9"),
        # A 2**n_z of 10**10 bits would hold 1.25 GB: the budget counts in Decimals there.
        ((1, 10 ** 10), ["compare"], "the 10000000002-qubit A circuit would need about "
         "1.47e+3010299959 bytes with 8.73e+3010299956 angles and 2 gates, over the budget of "
         "1.07e+9"),
    ], ids=["20000-classical", "14285-exact", "20000-compare", "1023-qubit", "17-factors",
            "10-million-qubit", "10-billion-qubit"])
    def test_budget_refusal_is_one_short_line(self, tmp_path, capsys, monkeypatch, config,
                                              argv, refusal):
        _no_grid_arrays(monkeypatch)
        assert main([argv[0], "--config", self._assets(tmp_path, *config), *argv[1:]]) == 1
        out, err = capsys.readouterr()
        assert out == "" and err == (f"error: {refusal}; reduce "
                                     f"risk_factors.qubits_per_factor or assets\n")
        assert len(err) < 200


class TestOverflowingLosses:
    @pytest.mark.parametrize("argv", [
        ["distribution"], ["analyze", "--estimator", "classical"],
        ["analyze", "--estimator", "exact"], ["resources"], ["compare"]])
    @pytest.mark.parametrize("lgds", [[1e308, 1e308], [10 ** 400]])
    def test_lgds_summing_past_the_largest_float_refused(self, tmp_path, capsys, argv, lgds):
        payload = copy.deepcopy(TWO_ASSET)
        payload["assets"] = [dict(payload["assets"][0], lgd=lgd) for lgd in lgds]
        config = write_config(tmp_path, payload)
        assert main([argv[0], "--config", config, *argv[1:]]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: the LGDs sum to inf") and err.count("\n") == 1


class TestUnderflowingGrid:
    @pytest.mark.parametrize("argv", [
        ["analyze", "--estimator", "classical"], ["analyze", "--estimator", "exact"],
        ["compare"]])
    @pytest.mark.parametrize("qubits, bound", [(1, 40), (3, 1e200)])
    def test_grid_of_zero_density_refused(self, tmp_path, capsys, argv, qubits, bound):
        # Every grid point's density underflows to 0, so its probs would be NaN, and so
        # every expected loss and gate angle: the grid's shape refuses it, in one line.
        payload = json.loads((CONFIGS / "two_asset.json").read_text())
        payload["risk_factors"].update(qubits_per_factor=qubits, bound_sigmas=bound)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert main([argv[0], "--config", write_config(tmp_path, payload), *argv[1:]]) == 1
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: ") and err.count("\n") == 1
        assert "risk_factors.bound_sigmas" in err and "risk_factors.qubits_per_factor" in err

    @pytest.mark.parametrize("argv", [
        ["analyze", "--estimator", "exact"], ["analyze", "--estimator", "iqae"], ["compare"]])
    def test_single_rotation_marginal_of_zero_density_refused(self, tmp_path, capsys, argv):
        # Shared weights (0.7, 0.1) at 38.9 sigmas: the common step leaves factor 1 two
        # points at +-38.9 sigmas of 0.1 * Z, whose densities underflow to 0, so its
        # marginal would be NaN: single_rotation refuses it, in one line.
        payload = json.loads((CONFIGS / "two_asset.json").read_text())
        payload["risk_factors"].update(qubits_per_factor=3, bound_sigmas=38.9)
        for asset in payload["assets"]:
            asset["alphas"] = [0.7, 0.1]
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert main([argv[0], "--config", write_config(tmp_path, payload), *argv[1:],
                         "--variant", "single_rotation", "--encoding", "linear"]) == 1
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: ") and err.count("\n") == 1
        assert "risk_factors.bound_sigmas" in err and "risk_factors.qubits_per_factor" in err


# Two assets on one shared weight vector, so single_rotation runs, on grids truncated at
# 2.5 rather than the default 3: the bound reaches the grid values, the linear secants and
# single_rotation's index-sum plan.
SHARED_ALPHAS_AT_2_5 = {
    "risk_factors": {"count": 2, "qubits_per_factor": [2, 3], "bound_sigmas": 2.5},
    "assets": [
        {"lgd": 1000.5, "p0": 0.15, "rho": 0.1, "alphas": [0.35, 0.2]},
        {"lgd": 2000.5, "p0": 0.25, "rho": 0.05, "alphas": [0.35, 0.2]},
    ],
    "analysis": {"alpha": 0.95},
}


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

    @pytest.mark.parametrize("seed, variant, encoding, mode, r", [
        (1, "multi_rotation", "exact", "s_free", 2),
        (2, "multi_rotation", "linear", "s_free", 2),
        (3, "multi_rotation", "exact", "s_free", 1),
        (4, "multi_rotation", "linear", "s_free", 1),
        (5, "single_rotation", "linear", "s_free", 2),
        (6, "multi_rotation", "exact", "weighted_sum", 2),
        (7, "multi_rotation", "linear", "weighted_sum", 1),
        (8, "single_rotation", "linear", "weighted_sum", 2),
    ])
    def test_exact_column_is_the_a_circuit_readout(self, tmp_path, monkeypatch,
                                                   seed, variant, encoding, mode, r):
        readouts = []

        def recorded(state, qubit, outcome):
            readouts.append(marginal_probability(state, qubit, outcome))
            return readouts[-1]

        monkeypatch.setattr(qvar.cli, "marginal_probability", recorded)
        rng = np.random.default_rng(seed)
        for trial in range(3):
            shared = [float(a) for a in rng.uniform(0.1, 0.5, r)]
            payload = {
                "risk_factors": {"count": r,
                                 "qubits_per_factor": [int(n) for n in rng.integers(1, 3, r)]},
                "assets": [{"lgd": int(rng.integers(1, 7)) if mode == "weighted_sum"
                            else round(float(rng.uniform(500, 3000)), 1),
                            "p0": float(rng.uniform(0.02, 0.3)),
                            "rho": float(rng.uniform(0.05, 0.3)),
                            "alphas": shared if variant == "single_rotation"
                            else [float(a) for a in rng.uniform(0.1, 0.5, r)]}
                           for _ in range(int(rng.integers(1, 5)))],
                "analysis": {"alpha": 0.95, "epsilon": 0.01, "confidence": 0.99,
                             "seed": trial, "mc_paths": 1000, "variant": variant,
                             "encoding": encoding, "mode": mode},
            }
            config = write_config(tmp_path, payload)
            out = tmp_path / "compare.txt"
            readouts.clear()
            assert main(["compare", "--config", config, "--output", str(out)]) in (0, 1)
            portfolio, grids = config_to_inputs(load_config(config))
            dist = exact_loss_distribution(portfolio, grids)
            oracle = [exact_amplitude(*build_a_circuit(portfolio, grids, float(x), variant=variant,
                                                      encoding=encoding, mode=mode))
                      for x in dist.losses]
            assert readouts == oracle
            # The printed exact and |e-c| columns are that readout, not another value.
            rows = [line.split()[2:4] for line in out.read_text().split("\n")[2:2 + len(oracle)]]
            assert rows == [[f"{e:.9f}", f"{abs(e - dist.cdf(float(x))):.2e}"]
                            for e, x in zip(oracle, dist.losses)]

    @pytest.mark.parametrize("config", ["two_asset.json", "two_asset_integer.json",
                                        "shared_alphas_at_2_5", "shared_alphas_at_2_5_iqae",
                                        "two_asset_subnormal"])
    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("variant, encoding", [("multi_rotation", "exact"),
                                                   ("multi_rotation", "linear"),
                                                   ("single_rotation", "linear")])
    def test_a_complex_state_prints_the_same_bytes(self, tmp_path, monkeypatch, config, mode,
                                                  variant, encoding):
        # Every gate is real, so a complex128 state's readout, and each IQAE draw from it,
        # is the float64 state's, bit for bit: the golden configs' compare bytes hold.
        monkeypatch.chdir(tmp_path)
        golden.write_config(config, golden.load_table()["configs"])
        argv = ["compare", "--variant", variant, "--encoding", encoding, "--mode", mode,
                "--config", golden.CONFIG]
        real, made = golden.run(argv), []
        monkeypatch.setattr(qvar.cli, "zero_state",
                            lambda n: made.append(n) or zero_state(n).astype(complex))
        assert golden.run(argv) == real
        assert bool(made) == bool(real[1])     # a state was made wherever a table printed

    @staticmethod
    def recorded_rows(monkeypatch):
        """Every lockstep call compare makes, as (readouts, results), in order."""
        calls, engine = [], qvar.cli.iqae_rows

        def recorded(amplitudes, cfg):
            calls.append((list(amplitudes), engine(amplitudes, cfg)))
            return calls[-1][1]

        monkeypatch.setattr(qvar.cli, "iqae_rows", recorded)
        return calls

    def check_one_row_runs(self, argv, calls, settings):
        calls.clear()
        assert main([*argv, "--output", os.devnull]) in (0, 1)
        readouts = [a for chunk, _ in calls for a in chunk]
        rows = [r for _, results in calls for r in results]
        assert [len(chunk) for chunk, _ in calls] == [
            min(_CHUNK_ROWS, len(rows) - start) for start in range(0, len(rows), _CHUNK_ROWS)]
        assert rows == [iqae(a, replace(settings, seed=settings.seed + i))
                        for i, a in enumerate(readouts)]
        return rows

    @pytest.mark.parametrize("seed", [1, 3])
    def test_iqae_column_is_the_one_row_runs(self, tmp_path, monkeypatch, seed):
        # compare estimates its thresholds in lockstep, _CHUNK_ROWS rows a call, threshold
        # i seeded settings.seed + i: each row is that one-row run.  On the benchmark's
        # verify_compare configs every row also converges, so perfbench's converged check,
        # which wraps qvar.estimation.iqae and no longer sees compare's rows, hides no
        # failure there.
        spec = importlib.util.spec_from_file_location(
            "perfbench_workloads", Path(__file__).parents[1] / "perfbench" / "workloads.py")
        workloads = importlib.util.module_from_spec(spec)
        monkeypatch.setitem(sys.modules, spec.name, workloads)    # for its dataclasses
        spec.loader.exec_module(workloads)
        ops, configs = workloads.generate("verify_compare", seed, Path(__file__).parents[1],
                                          tmp_path)
        calls = self.recorded_rows(monkeypatch)
        for op in ops:
            run_seed = int(op["argv"][op["argv"].index("--seed") + 1])
            settings = iqae_config(load_config(str(configs[op["config"]]), {"seed": run_seed})
                                   ["analysis"])
            rows = self.check_one_row_runs(op["argv"], calls, settings)
            assert len(rows) == 16 and all(r.converged for r in rows)

    def test_iqae_rows_across_chunks(self, tmp_path, monkeypatch):
        # The 12-asset bounds config prints 4,096 thresholds: four chunks, three seams.
        monkeypatch.chdir(tmp_path)
        golden.write_config("assets_12", json.loads(TABLE.read_text())["configs"])
        calls = self.recorded_rows(monkeypatch)
        settings = iqae_config(load_config(golden.CONFIG)["analysis"])
        rows = self.check_one_row_runs(["compare", "--config", golden.CONFIG], calls, settings)
        assert len(rows) == 4 * _CHUNK_ROWS

    def test_iqae_rows_are_held_one_chunk_at_a_time(self, tmp_path, monkeypatch):
        # Each lockstep row holds a generator, about 1.6 KB traced.  compare takes its
        # readouts, IQAE rows and lines one chunk at a time, so on the 12-asset bounds
        # config (four chunks) its traced peak was 2.7 MiB; with the whole support in one
        # call it was 6.2 MiB.  scipy is loaded first, as any earlier IQAE run loads it.
        from scipy import special  # noqa: F401
        monkeypatch.chdir(tmp_path)
        golden.write_config("assets_12", json.loads(TABLE.read_text())["configs"])
        code, peak = traced(lambda: main(["compare", "--config", golden.CONFIG,
                                          "--output", "out.txt"]))
        assert code in (0, 1)
        assert peak < (2 << 20) + 2048 * _CHUNK_ROWS

    def test_ulp_apart_losses_print_one_threshold(self, tmp_path):
        # Every distinct loss once, as integer tenths sum them; before losses
        # shared one support rule, 1798.2 and 3772.8 each printed twice.
        config = write_config(tmp_path, ULP_PAIRS)
        out = tmp_path / "compare.txt"
        assert main(["compare", "--config", config, "--output", str(out)]) == 0
        tenths = [round(a["lgd"] * 10) for a in ULP_PAIRS["assets"]]
        sums = sorted({sum(t for t, bit in zip(tenths, bits) if bit)
                       for bits in np.ndindex(*[2] * len(tenths))})
        lines = out.read_text().split("\n")
        printed = [line.split()[0] for line in lines[2:lines.index("")]]
        assert len(sums) == 14
        assert printed == [f"{s / 10:.6g}" for s in sums]

    def test_shared_state_budget_refused_before_allocating(self, tmp_path, capsys):
        # A 24-qubit single-rotation model (8 factor qubits, an 8-qubit index sum,
        # 8 assets) fits the budget, but with a 6-qubit loss register and the
        # objective compare's state would be 31 qubits, about 34 GB.
        payload = {
            "risk_factors": {"count": 1, "qubits_per_factor": 8},
            "assets": [{"lgd": i + 1, "p0": 0.1, "rho": 0.2, "alphas": [0.4]}
                       for i in range(8)],
            "analysis": {"alpha": 0.95, "epsilon": 0.01, "confidence": 0.99,
                         "variant": "single_rotation"},
        }
        config = write_config(tmp_path, payload)
        code, peak = traced(lambda: main(["compare", "--config", config,
                                          "--mode", "weighted_sum"]))
        assert code == 1
        err = capsys.readouterr().err
        assert "31-qubit A circuit" in err and "risk_factors.qubits_per_factor" in err
        assert peak < 100 * 2 ** 20

    @pytest.mark.parametrize("mode, lgds, width", [
        ("s_free", [100] * 12, 14),            # 2**12 pattern gates with 12 controls each
        ("weighted_sum", [2 ** 12 - 1], 15),   # 2**12 register values with 12 controls each
    ])
    def test_comparator_gates_refused_before_building(self, tmp_path, capsys, monkeypatch,
                                                      mode, lgds, width):
        # Against 4 MiB beside scipy the A circuit's state (1-2 MiB) and model gates fit,
        # but its comparator, about 4 MiB of gates, does not: compare stops first.
        monkeypatch.setattr(qvar.risk, "MAX_STATE_BYTES", (1 << 22) + qvar.risk._IQAE_BYTES)

        def unbuilt(*args, **kwargs):
            raise AssertionError("the model was built")

        monkeypatch.setattr(qvar.cli, "build_model", unbuilt)
        payload = {
            "risk_factors": {"count": 1, "qubits_per_factor": 1},
            "assets": [{"lgd": lgd, "p0": 0.1, "rho": 0.2, "alphas": [0.4]} for lgd in lgds],
            "analysis": {"alpha": 0.95, "epsilon": 0.01, "confidence": 0.99, "mode": mode},
        }
        config = write_config(tmp_path, payload)
        assert main(["compare", "--config", config]) == 1
        assert f"{width}-qubit A circuit" in capsys.readouterr().err

    @pytest.mark.parametrize("config, mode, flips", [
        ("two_asset.json", "s_free", 4),               # each of the 4 pattern gates once
        ("two_asset_integer.json", "weighted_sum", 4),  # register values 0..3 once each
    ])
    def test_one_model_build_and_one_simulation_per_threshold(self, tmp_path, monkeypatch,
                                                              config, mode, flips):
        builds, applies = [], []

        def simulated(gates, state):
            # The objective is the A register's top qubit, the state's; only comparators
            # flip it.
            objective = state.size.bit_length() - 2
            applies.append(sum(g.kind == "x" and g.target == objective for g in gates))
            evolve(gates, state)

        build_model = qvar.cli.build_model
        monkeypatch.setattr(qvar.cli, "build_model",
                            lambda *args: builds.append(1) or build_model(*args))
        for name, module in list(sys.modules.items()):
            if name.startswith("qvar") and getattr(module, "evolve", None) is evolve:
                monkeypatch.setattr(module, "evolve", simulated)
        payload = json.loads((CONFIGS / config).read_text())
        payload["analysis"]["mc_paths"] = 1000
        argv = ["compare", "--config", write_config(tmp_path, payload), "--mode", mode]
        assert main([*argv, "--output", str(tmp_path / "t.txt")]) == 0
        # The model's gates run once; each of the 4 support thresholds then runs only
        # the flips its losses add, on one running state: each flip runs once in all.
        assert (len(builds), len(applies), sum(applies)) == (1, 1 + len(ORACLE_LOSSES), flips)

    @pytest.mark.parametrize("qubits, shapes", [(2, 1), ([2, 3], 2)])
    @pytest.mark.parametrize("encoding", ENCODINGS)
    def test_each_table_once_per_run(self, tmp_path, monkeypatch, qubits, shapes, encoding):
        # One F^-1 call for the portfolio, one PD table for the model's points and one for
        # the joint grid, which the enumeration and the Monte Carlo share, one loss table,
        # one sort of it and one support map, which the enumeration, the Monte Carlo and
        # the comparator share, one budget check, then each distinct grid shape's values
        # and probs once, and one kernel call for the model and per threshold.
        calls = dict.fromkeys(["ppf", "table", "losses", "order", "support", "argsort",
                               "budget", "values", "probs", "kernel"], 0)

        def counted(key, fn):
            def wrapper(*args, **kwargs):
                calls[key] += 1
                return fn(*args, **kwargs)
            return wrapper

        def after_budget(key, fn):
            def wrapper(grid):
                assert calls["budget"] == 1, f"a grid computed its {key} before the budget"
                return counted(key, fn)(grid)
            return wrapper

        counters = {conditional_pd_table: "table", evolve: "kernel",
                    qvar.gaussian.std_normal_ppf: "ppf", qvar.risk.check_budget: "budget"}
        for name, module in list(sys.modules.items()):
            if name.startswith("qvar"):
                for attr, value in list(vars(module).items()):
                    if callable(value) and value in counters:
                        monkeypatch.setattr(module, attr, counted(counters[value], value))
        for key, name in (("losses", "pattern_losses"), ("order", "loss_order"),
                          ("support", "support")):
            table = functools.cached_property(counted(key, getattr(Portfolio, name).func))
            table.__set_name__(Portfolio, name)
            monkeypatch.setattr(Portfolio, name, table)
        monkeypatch.setattr(np, "argsort", counted("argsort", np.argsort))
        for name in ("values", "probs"):
            array = functools.cached_property(after_budget(name, getattr(FactorGrid, name).func))
            array.__set_name__(FactorGrid, name)
            monkeypatch.setattr(FactorGrid, name, array)
        payload = json.loads(json.dumps(TWO_ASSET))
        payload["risk_factors"]["qubits_per_factor"] = qubits
        payload["analysis"].update(encoding=encoding, mc_paths=1000)
        out = tmp_path / "t.txt"
        assert main(["compare", "--config", write_config(tmp_path, payload),
                     "--output", str(out)]) == 0
        rows = out.read_text().split("\n\n")[0].split("\n")[2:]
        assert len(rows) == 4       # the support points 0, 1000.5, 2000.5 and 3001
        assert calls == {"ppf": 1, "table": 2, "losses": 1, "order": 1, "support": 1,
                         "argsort": 1, "budget": 1, "values": shapes, "probs": shapes,
                         "kernel": 1 + 4}

    def test_monte_carlo_sigma_clips_a_readout_past_one(self, tmp_path):
        # One linear-encoded asset on a 1-qubit factor: the top threshold's
        # readout rounds to 1 + 2**-52, where sqrt(e * (1 - e)) is NaN.
        payload = {
            "risk_factors": {"count": 1, "qubits_per_factor": 1},
            "assets": [{"lgd": 4.0, "p0": 0.1, "rho": 0.05, "alphas": [0.1]}],
            "analysis": {"alpha": 0.95, "epsilon": 0.01, "confidence": 0.99,
                         "encoding": "linear", "mc_paths": 1000, "seed": 3},
        }
        config = write_config(tmp_path, payload)
        portfolio, grids = config_to_inputs(load_config(config))
        assert exact_amplitude(*build_a_circuit(portfolio, grids, 4.0, encoding="linear")) > 1.0
        out = tmp_path / "compare.txt"
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert main(["compare", "--config", config, "--output", str(out)]) == 0
        top = out.read_text().split("\n")[3].split()
        assert top[0] == "4" and top[2] == "1.000000000" and top[-1] == "True"

    @pytest.mark.parametrize("command, extra_qubits", [("analyze", 0), ("compare", 1)])
    def test_peak_memory_within_the_state_budget(self, tmp_path, command, extra_qubits):
        # 4 equal-LGD assets on two 7-qubit factors: an 18-qubit model whose
        # simulation, not its gate list or the enumeration, sets compare's peak;
        # analyze enumerates its angle table and simulates nothing.
        payload = {
            "risk_factors": {"count": 2, "qubits_per_factor": 7},
            "assets": [{"lgd": 1000.5, "p0": 0.1, "rho": 0.2, "alphas": [0.3, 0.2]}] * 4,
            "analysis": {"alpha": 0.95, "epsilon": 0.01, "confidence": 0.99,
                         "estimator": "exact", "encoding": "linear", "mc_paths": 100},
        }
        config = write_config(tmp_path, payload)
        code, peak = traced(lambda: main([command, "--config", config,
                                          "--output", str(tmp_path / "o")]))
        assert code == 0
        assert peak <= _BYTES_PER_AMPLITUDE * 2 ** (18 + extra_qubits)

    @staticmethod
    def _refused_one_byte_under_the_traced_peak(tmp_path, assets):
        """`assets` equal-LGD assets on one 1-qubit factor, compared in a fresh process, as
        `qvar compare` is, which loads scipy for IQAE: a budget one byte under that traced
        peak must refuse the run."""
        payload = {
            "risk_factors": {"count": 1, "qubits_per_factor": 1},
            "assets": [{"lgd": 1000.5, "p0": 0.1, "rho": 0.2, "alphas": [0.4]}] * assets,
            "analysis": {"alpha": 0.95, "epsilon": 0.01, "confidence": 0.99, "mc_paths": 1000},
        }
        argv = ["compare", "--config", write_config(tmp_path, payload),
                "--output", str(tmp_path / "out")]
        got = traced_run(argv, price=True)
        assert got["exit"] == 0
        assert got["priced_exit"] == 1
        assert f"{assets + 2}-qubit A circuit" in got["priced_stderr"]

    def test_s_free_budget_covers_the_traced_peak(self, tmp_path):
        # 16 assets: the budget prices 2**16 pattern gates of 16 controls each and three
        # 8-byte tables per pattern beside the state; compare holds one increment's gates,
        # loss table, masks and index array at a time, while scipy loads.
        self._refused_one_byte_under_the_traced_peak(tmp_path, 16)

    def test_scipy_import_is_priced(self, tmp_path):
        # 12 assets: the state, gates and tables come to about 5.3 MB, and scipy's import
        # takes the traced peak past 16 MB; the budget prices it as one fixed term.
        self._refused_one_byte_under_the_traced_peak(tmp_path, 12)

    def test_compare_requires_iqae_settings(self, tmp_path, capsys):
        payload = json.loads(json.dumps(TWO_ASSET))
        del payload["analysis"]["epsilon"]
        config = write_config(tmp_path, payload)
        assert main(["compare", "--config", config]) == 2
        assert "epsilon" in capsys.readouterr().err


class TestIqaeSettings:
    """epsilon and confidence are required only where IQAE runs, and checked first there."""

    ALPHA_ONLY = {**TWO_ASSET, "analysis": {"alpha": 0.95}}

    @pytest.mark.parametrize("argv", [["distribution"], ["resources"],
                                      ["analyze", "--estimator", "classical"],
                                      ["analyze", "--estimator", "exact"]])
    def test_alpha_only_config_runs_without_iqae(self, tmp_path, capsys, argv):
        config = write_config(tmp_path, self.ALPHA_ONLY)
        assert main([*argv, "--config", config]) == 0
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize("argv", [["analyze", "--estimator", "iqae"], ["compare"],
                                      ["compare", "--estimator", "classical"]])
    @pytest.mark.parametrize("missing", ["epsilon", "confidence"])
    def test_iqae_refused_before_the_inputs(self, tmp_path, capsys, monkeypatch, argv, missing):
        def refused(cfg):
            raise AssertionError("config_to_inputs ran before the IQAE settings were checked")
        monkeypatch.setattr(qvar.cli, "config_to_inputs", refused)
        payload = json.loads(json.dumps(TWO_ASSET))
        del payload["analysis"][missing]
        assert main([*argv, "--config", write_config(tmp_path, payload)]) == 2
        assert capsys.readouterr().err == (
            f"error: analysis.{missing}: required where IQAE runs "
            f"(analyze --estimator iqae, and compare)\n")


@pytest.mark.parametrize("module", ["scipy", "scipy.stats", "jsonschema"])
def test_import_leaves_module_unloaded(module):
    # scipy.special is about half the CLI's start-up time, and only IQAE's
    # Clopper-Pearson bound needs it; scipy.stats roughly doubles start-up time
    # and memory; jsonschema is no dependency, only the differential test's oracle.
    code = f"import sys, qvar.cli; print({module!r} in sys.modules)"
    env = dict(os.environ, PYTHONPATH=str(Path(qvar.__file__).parents[1]))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, env=env)
    assert out.stdout.strip() == "False"


@pytest.mark.parametrize("argv, loaded", [
    (["analyze", "--estimator", "classical"], False),
    (["analyze", "--estimator", "exact"], False),
    (["distribution"], False),
    (["resources"], False),
    (["analyze", "--estimator", "iqae"], True),
], ids=["analyze-classical", "analyze-exact", "distribution", "resources", "analyze-iqae"])
def test_scipy_is_loaded_only_by_iqae(tmp_path, argv, loaded):
    argv = argv + ["--config", str(CONFIGS / "two_asset.json"),
                   "--output", str(tmp_path / "out")]
    code = f"import sys, qvar.cli; print(qvar.cli.main({argv!r}), 'scipy' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=str(Path(qvar.__file__).parents[1]))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, env=env)
    assert out.stdout.split() == ["0", str(loaded)]


class TestParser:
    def test_overrides_take_the_schema_choices(self):
        analysis = CONFIG_SCHEMA["properties"]["analysis"]["properties"]
        for field, choices in OVERRIDES.items():
            assert list(choices) == analysis[field]["enum"]

    @pytest.mark.parametrize("field", OVERRIDES)
    def test_flag_values_pass_the_schema_alone(self, tmp_path, capsys, field):
        # argparse checks no value: a bad flag is merged into the config and refused by
        # the schema in one line, exit 2, in the words of the same value in the config.
        payload = copy.deepcopy(TWO_ASSET)
        for command in COMMANDS:
            config = write_config(tmp_path, TWO_ASSET)
            assert main([command, "--config", config, f"--{field}", "nope"]) == 2
            out, err = capsys.readouterr()
            assert out == "" and err == (
                f"error: {config}: schema violations: analysis/{field}: "
                f"'nope' is not one of {list(OVERRIDES[field])!r}\n")
            payload["analysis"][field] = "nope"
            assert main([command, "--config", write_config(tmp_path, payload)]) == 2
            assert capsys.readouterr() == (out, err)

    @pytest.mark.parametrize("value", ["abc", "1.5"])
    def test_seed_int_refuses_passes_the_schema_alone(self, tmp_path, capsys, value):
        # --seed is read as int() reads it, as argparse's type=int did; a value int()
        # refuses reaches the schema as given and is refused there, in one line.
        config = write_config(tmp_path, TWO_ASSET)
        assert main(["analyze", "--config", config, "--seed", value]) == 2
        assert capsys.readouterr() == ("", f"error: {config}: schema violations: "
                                           f"analysis/seed: {value!r} is not of type 'integer'\n")

    def test_help_lists_the_schema_values(self, capsys):
        with pytest.raises(SystemExit):
            main(["analyze", "--help"])
        usage = capsys.readouterr().out
        for field, choices in OVERRIDES.items():
            assert f"--{field} {{{','.join(choices)}}}" in usage

    def test_main_builds_one_parser(self, tmp_path):
        qvar.cli.build_parser.cache_clear()
        config = write_config(tmp_path, TWO_ASSET)
        for _ in range(2):
            assert main(["resources", "--config", config, "--output", str(tmp_path / "o")]) == 0
        assert qvar.cli.build_parser.cache_info().misses == 1

    @pytest.mark.parametrize("argv, code", [
        (["--help"], 0), (["compare", "--help"], 0), ([], 2), (["bogus"], 2),
        (["analyze", "--estimator", "exact"], 2)])
    @pytest.mark.parametrize("columns", ["40", "120"])
    def test_help_and_errors_unchanged(self, capsys, monkeypatch, argv, code, columns):
        # The cached parser, after serving a run, prints what a fresh one prints: help is
        # wrapped to the terminal's width when it is printed, not when the parser is built.
        monkeypatch.setenv("COLUMNS", columns)
        main(["resources", "--config", str(CONFIGS / "two_asset.json"), "--output", os.devnull])
        capsys.readouterr()
        printed = []
        for parser in (qvar.cli.build_parser(), qvar.cli.build_parser.__wrapped__()):
            with pytest.raises(SystemExit) as exit_:
                parser.parse_args(argv)
            printed.append((exit_.value.code, capsys.readouterr()))
        with pytest.raises(SystemExit) as exit_:
            main(argv)
        assert (exit_.value.code, capsys.readouterr()) == printed[0] == printed[1]
        assert exit_.value.code == code
