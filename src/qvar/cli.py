"""Command-line front end: config ingestion, analysis, CSV/JSON emission.

Subcommands:
  analyze       full VaR analysis, JSON report
  distribution  exact loss distribution as CSV (loss,probability,cdf)
  resources     qubit/gate accounting as JSON
  compare       consistency table across exact, classical, IQAE and MC paths

analyze takes VaR, cdf, expected loss and economic capital from one loss
distribution (see ESTIMATORS): the enumeration for "classical", else the
model_distribution of the model's angle table, with no gate or statevector,
read exactly or through IQAE.  compare simulates its model once, at the A
circuit's width, and steps that one state up the support in place: each threshold
applies only the comparator gates for the losses above the previous one, and the
objective's marginal is the readout, its exact column, that IQAE samples; one joint-grid
table gives the enumeration and Monte Carlo the rest.  Every other command runs check_budget
before any grid computes its arrays (distribution through exact_loss_distribution);
resources reads the grids' shapes alone, unpriced.

Configs are JSON documents; every run echoes the fully resolved config so
reports are self-describing, and all output is deterministic for a given
(config, seed) pair.  iqae_config checks epsilon and confidence only where IQAE
runs.  A bad config, or a path that cannot be read or written, exits 2.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from dataclasses import replace

import numpy as np

from .circuit import evolve, marginal_probability, zero_state
from .estimation import IqaeConfig, iqae_rows
from .gaussian import FactorGrid
from .objective import MODES, comparator, objective_qubit
from .resources import estimate_resources
from .risk import (cdf_estimator, check_budget, exact_loss_distribution, expected_loss, joint_grid,
                   mixture_distribution, model_distribution, monte_carlo_distribution,
                   var_bisection)
from .uncertainty import ENCODINGS, VARIANTS, Asset, Portfolio, build_model

ESTIMATORS = ("exact", "iqae", "classical")
# The analysis fields a flag overrides, with the values --help lists; the schema checks them.
OVERRIDES = {"estimator": ESTIMATORS, "variant": VARIANTS, "encoding": ENCODINGS, "mode": MODES}
_CHUNK_ROWS = 1024      # compare's thresholds per lockstep IQAE call; each row holds a generator

# Every config field's type, bounds and default, as a Draft 2020-12 JSON Schema.
CONFIG_SCHEMA = {
    "type": "object",
    "required": ["risk_factors", "assets", "analysis"],
    "additionalProperties": False,
    "properties": {
        "risk_factors": {
            "type": "object",
            "required": ["count", "qubits_per_factor"],
            "additionalProperties": False,
            "properties": {
                "count": {"type": "integer", "minimum": 1},
                "qubits_per_factor": {"type": ["integer", "array"], "minimum": 1, "minItems": 1,
                                      "items": {"type": "integer", "minimum": 1}},
                "bound_sigmas": {"type": "number", "exclusiveMinimum": 0, "default": 3.0},
            },
        },
        "assets": {
            "type": "array",
            "minItems": 1,
            "items": {
                "type": "object",
                "required": ["lgd", "p0", "rho", "alphas"],
                "additionalProperties": False,
                "properties": {
                    "lgd": {"type": "number", "minimum": 0},
                    "p0": {"type": "number", "exclusiveMinimum": 0, "exclusiveMaximum": 1},
                    "rho": {"type": "number", "minimum": 0, "exclusiveMaximum": 1},
                    "alphas": {"type": "array", "minItems": 1, "items": {"type": "number"}},
                },
            },
        },
        "analysis": {
            "type": "object",
            "required": ["alpha"],
            "additionalProperties": False,
            "properties": {
                "alpha": {"type": "number", "exclusiveMinimum": 0, "exclusiveMaximum": 1},
                "epsilon": {"type": "number", "exclusiveMinimum": 0, "exclusiveMaximum": 0.5},
                "confidence": {"type": "number", "exclusiveMinimum": 0, "exclusiveMaximum": 1},
                "shots_per_round": {"type": "integer", "minimum": 1, "default": 100},
                "max_rounds": {"type": "integer", "minimum": 1, "default": 64},
                "seed": {"type": "integer", "minimum": 0, "default": 0},
                "variant": {"enum": list(VARIANTS), "default": "multi_rotation"},
                "encoding": {"enum": list(ENCODINGS), "default": "linear"},
                "estimator": {"enum": list(ESTIMATORS), "default": "iqae"},
                "mode": {"enum": list(MODES), "default": "s_free"},
                "mc_paths": {"type": "integer", "minimum": 1, "default": 100_000},
            },
        },
    },
}

_JSON_TYPES = {"object": dict, "array": list, "string": str, "integer": int, "number": (int, float)}
_BOUNDS = (("minimum", lambda v, b: v < b, "is less than the minimum of"),
           ("exclusiveMinimum", lambda v, b: v <= b, "is less than or equal to the minimum of"),
           ("exclusiveMaximum", lambda v, b: v >= b, "is greater than or equal to the maximum of"))


class ConfigError(ValueError):
    """Invalid configuration, with a field-path diagnostic."""


def _is_type(value, name: str) -> bool:
    return (isinstance(value, _JSON_TYPES[name]) and not isinstance(value, bool)
            and (not isinstance(value, float) or math.isfinite(value)))


def _schema_errors(value, schema: dict, path=()) -> list[tuple[tuple, str]]:
    """(path, message) per way `value` breaks a CONFIG_SCHEMA node, in jsonschema's words but
    "integer" a JSON integer and "number" a finite one; fills in absent properties' defaults."""
    types = [schema["type"]] if isinstance(schema.get("type"), str) else schema.get("type", [])
    errors = []
    if types and not any(_is_type(value, t) for t in types):
        errors.append((path, f"{value!r} is not of type {', '.join(map(repr, types))}"))
    if "enum" in schema and value not in schema["enum"]:
        errors.append((path, f"{value!r} is not one of {schema['enum']!r}"))
    if _is_type(value, "number"):
        errors += [(path, f"{value!r} {text} {schema[key]!r}") for key, fails, text in _BOUNDS
                   if key in schema and fails(value, schema[key])]
    elif isinstance(value, list) and "items" in schema:
        if len(value) < schema.get("minItems", 0):
            errors.append((path, f"{value!r} should be non-empty"))
        for idx, item in enumerate(value):
            errors += _schema_errors(item, schema["items"], (*path, idx))
    elif isinstance(value, dict) and "properties" in schema:
        errors += [(path, f"{key!r} is a required property")
                   for key in schema["required"] if key not in value]
        extras = sorted(value.keys() - schema["properties"].keys())
        if extras and schema["additionalProperties"] is False:
            errors.append((path, "Additional properties are not allowed (%s %s unexpected)" % (
                ", ".join(map(repr, extras)), "was" if len(extras) == 1 else "were")))
        for key, sub in schema["properties"].items():
            if key in value or "default" in sub:
                errors += _schema_errors(value.setdefault(key, sub.get("default")), sub, (*path, key))
    return errors


def load_config(path: str, overrides=None) -> dict:
    """Read, validate and resolve a config file; returns the resolved dict.

    Command-line overrides are merged before schema validation so they obey
    the same constraints as config values.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            cfg = json.load(fh)
    except OSError as exc:                  # open's message names the path
        raise ConfigError(str(exc)) from exc
    # Not UTF-8, not JSON (both ValueErrors), an integer past Python's 4,300-digit limit,
    # or nested past the recursion limit: no config either way
    except (ValueError, RecursionError) as exc:
        raise ConfigError(f"{path}: not valid JSON ({exc})") from exc
    if isinstance(cfg, dict) and isinstance(cfg.get("analysis"), dict):
        cfg["analysis"].update({k: v for k, v in (overrides or {}).items() if v is not None})

    errors = sorted(_schema_errors(cfg, CONFIG_SCHEMA), key=lambda e: e[0])
    if errors:
        listing = "; ".join(f"{'/'.join(map(str, p)) or '<root>'}: {msg}" for p, msg in errors)
        raise ConfigError(f"{path}: schema violations: {listing}")

    factors = cfg["risk_factors"]
    r = factors["count"]
    qubits = factors["qubits_per_factor"]
    # Lengths first: a scalar qubits_per_factor becomes r entries once the weights match r.
    if isinstance(qubits, list) and len(qubits) != r:
        raise ConfigError(
            f"risk_factors.qubits_per_factor: expected {r} entries, got {len(qubits)}")
    for idx, asset in enumerate(cfg["assets"]):
        if len(asset["alphas"]) != r:
            raise ConfigError(
                f"assets[{idx}].alphas: expected {r} weights, got {len(asset['alphas'])}")
    if not isinstance(qubits, list):
        factors["qubits_per_factor"] = [qubits] * r
    return cfg


def config_to_inputs(cfg: dict) -> tuple[Portfolio, list[FactorGrid]]:
    """The portfolio and factor grids of a resolved config, one per distinct n_z, no arrays yet."""
    factors = cfg["risk_factors"]
    portfolio = Portfolio([Asset(lgd=a["lgd"], p0=a["p0"], rho=a["rho"], alphas=tuple(a["alphas"]))
                           for a in cfg["assets"]])
    qubits, bound = factors["qubits_per_factor"], factors["bound_sigmas"]
    shared = {n_z: FactorGrid(n_z, bound) for n_z in qubits}
    return portfolio, [shared[n_z] for n_z in qubits]


def iqae_config(analysis: dict) -> IqaeConfig:
    """The IQAE settings of a resolved config's analysis section, and the one check that
    epsilon and confidence, which have no default, are given where IQAE runs."""
    for key in ("epsilon", "confidence"):
        if key not in analysis:
            raise ConfigError(f"analysis.{key}: required where IQAE runs "
                              f"(analyze --estimator iqae, and compare)")
    return IqaeConfig(epsilon=analysis["epsilon"], confidence=analysis["confidence"],
                      shots_per_round=analysis["shots_per_round"],
                      max_rounds=analysis["max_rounds"], seed=analysis["seed"])


def _dump_json(payload: dict) -> str:
    # A report's counts are exact: 2**K patterns pass int's 4,300-digit str limit at
    # K = 14,285, so the limit is lifted while one report is written (Python 3.10 before
    # 3.10.7 has none).
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit:
        sys.set_int_max_str_digits(0)
    try:
        return json.dumps(payload, sort_keys=True, indent=2) + "\n"
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)


def _emit(text: str, output: str | None):
    if output is None:
        sys.stdout.write(text)
    else:
        with open(output, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)


def _probes(trace) -> list[dict]:
    return [{k: v for k, v in vars(p).items() if v is not None} for p in trace]


def cmd_analyze(cfg: dict, output: str | None) -> int:
    analysis = cfg["analysis"]
    variant, kind, encoding = analysis["variant"], analysis["estimator"], analysis["encoding"]
    settings = iqae_config(analysis) if kind == "iqae" else None
    portfolio, grids = config_to_inputs(cfg)
    # Checks the model's and mode's rules, then the budget, all before any grid's arrays.
    resources = vars(estimate_resources(portfolio, grids, variant, encoding, analysis["mode"]))
    check_budget(portfolio, grids, iqae=settings is not None)
    dist = (exact_loss_distribution(portfolio, grids) if kind == "classical"
            else model_distribution(portfolio, grids, variant, encoding))
    result = var_bisection(dist, analysis["alpha"], cdf_estimator(dist.cdf, settings))
    report = {
        "config": cfg,
        "results": {
            "var": result.var,
            "alpha": result.alpha,
            "cdf_at_var": result.cdf_at_var,
            "expected_loss": result.expected_loss,
            "naive_expected_loss": sum(a.lgd * a.p0 for a in portfolio.assets),
            "economic_capital": result.economic_capital,
            "estimator": kind,
            "bisection_trace": _probes(result.bisection_trace),
            "total_quantum_samples": sum(
                p.quantum_samples or 0 for p in result.bisection_trace) or None,
        },
        "resources": resources,
    }
    failed = [p for p in result.bisection_trace if p.converged is False]
    if failed:
        report["results"]["estimation_failures"] = [p.threshold for p in failed]
    _emit(_dump_json(report), output)
    if failed:
        print(f"error: estimation did not converge at thresholds "
              f"{[p.threshold for p in failed]}; the report was written and lists them "
              f"under estimation_failures", file=sys.stderr)
        return 1
    return 0


def cmd_distribution(cfg: dict, output: str | None) -> int:
    portfolio, grids = config_to_inputs(cfg)
    dist = exact_loss_distribution(portfolio, grids)
    lines = ["loss,probability,cdf"]
    cum = 0.0
    for loss, prob in zip(dist.losses, dist.probs):
        cum += prob
        lines.append(f"{loss:.12g},{prob:.12g},{cum:.12g}")
    _emit("\n".join(lines) + "\n", output)
    return 0


def cmd_resources(cfg: dict, output: str | None) -> int:
    analysis = cfg["analysis"]
    report = estimate_resources(*config_to_inputs(cfg), analysis["variant"], analysis["encoding"],
                                analysis["mode"])
    _emit(_dump_json({"config": cfg, "resources": vars(report)}), output)
    return 0


def cmd_compare(cfg: dict, output: str | None) -> int:
    analysis = cfg["analysis"]
    settings = iqae_config(analysis)
    variant, mode, encoding = analysis["variant"], analysis["mode"], analysis["encoding"]
    portfolio, grids = config_to_inputs(cfg)
    check_budget(portfolio, grids, iqae=True, circuit=(variant, encoding, mode))
    model = build_model(portfolio, grids, variant, encoding)    # before the joint grid's table
    pd, pz = joint_grid(portfolio, grids)
    dist = mixture_distribution(portfolio, pd, pz)
    objective = objective_qubit(portfolio, model, mode)
    # Model gates then comparator gates on one state as wide as the A circuit, as the test
    # oracle exact_amplitude (tests/oracles.py) runs a threshold's A circuit; every comparator
    # gate is an X, an exact swap, so the running state's readout is that oracle's, bit for bit.
    state = zero_state(objective + 1)
    evolve(model.gates, state)
    mc = monte_carlo_distribution(portfolio, grids, pd, analysis["mc_paths"], analysis["seed"])
    header = (f"{'threshold':>12}  {'classical':>12}  {'exact':>12}  {'|e-c|':>9}  "
              f"{'iqae':>12}  {'|q-e|':>9}  {'<=eps':>5}  {'mc':>12}  {'|m-e|':>9}  {'<=3sd':>5}")
    lines = [header, "-" * len(header)]
    ok = True
    losses, above = dist.losses.tolist(), -np.inf
    # Per chunk: its readouts, its IQAE rows in lockstep (row i seeded seed + i), its lines.
    for start in range(0, len(losses), _CHUNK_ROWS):
        chunk, readouts = losses[start:start + _CHUNK_ROWS], []
        for x in chunk:
            evolve(comparator(portfolio, model, mode, x, above), state)
            readouts.append(marginal_probability(state, objective, 1))   # the A circuit's readout
            above = x
        for x, exact, q in zip(chunk, readouts,
                               iqae_rows(readouts, replace(settings, seed=settings.seed + start))):
            classical, mc_val = dist.cdf(x), mc.cdf(x)
            p = min(max(exact, 0.0), 1.0)        # a readout of 1 can round past it
            sigma = max(np.sqrt(p * (1 - p) / analysis["mc_paths"]), 1e-12)
            q_ok = abs(q.estimate - exact) <= settings.epsilon
            mc_ok = abs(mc_val - exact) <= 3 * sigma
            ok = ok and q_ok
            lines.append(
                f"{x:>12.6g}  {classical:>12.9f}  {exact:>12.9f}  {abs(exact - classical):>9.2e}  "
                f"{q.estimate:>12.9f}  {abs(q.estimate - exact):>9.2e}  {str(q_ok):>5}  "
                f"{mc_val:>12.9f}  {abs(mc_val - exact):>9.2e}  {str(mc_ok):>5}")
    lines.append("")
    lines.append(f"expected loss (model): {expected_loss(dist):.12g}")
    lines.append(f"monte carlo paths: {analysis['mc_paths']}, seed: {analysis['seed']}")
    _emit("\n".join(lines) + "\n", output)
    return 0 if ok else 1


@functools.cache    # one argparse tree per process; parse_args leaves it as it was
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qvar",
        description="Credit-risk VaR engine on an embedded statevector simulator")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, helptext in (
            ("analyze", "run the VaR analysis and emit a JSON report"),
            ("distribution", "emit the exact loss distribution as CSV"),
            ("resources", "emit the qubit/gate accounting as JSON"),
            ("compare", "cross-check exact, classical, IQAE and Monte Carlo paths")):
        cmd = sub.add_parser(name, help=helptext)
        cmd.add_argument("--config", required=True, help="path to a JSON config")
        cmd.add_argument("--output", default=None, help="output path (default: stdout)")
        cmd.add_argument("--seed", default=None, help="override analysis.seed")
        for field, choices in OVERRIDES.items():
            cmd.add_argument(f"--{field}", metavar="{%s}" % ",".join(choices), default=None)
    return parser


COMMANDS = {
    "analyze": cmd_analyze,
    "distribution": cmd_distribution,
    "resources": cmd_resources,
    "compare": cmd_compare,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        seed = int(args.seed)
    except (TypeError, ValueError):     # no --seed, or one int() refuses: the schema says why
        seed = args.seed
    overrides = {"seed": seed, **{field: getattr(args, field) for field in OVERRIDES}}
    try:
        cfg = load_config(args.config, overrides)
        return COMMANDS[args.command](cfg, args.output)
    except (ConfigError, OSError) as exc:       # a config, or a path unread or unwritten
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
