"""Span tracing of `qvar` layers from outside the package.

`qvar` modules bind each other's functions with `from .x import y`, so one
function is looked up under several module globals.  `lookup_sites` finds
every such binding, and wrappers replace all of them, which is what makes a
wrapper see calls from every caller.
Spans are kept in memory and aggregated (or written out) after the run.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
from time import perf_counter


def _model_key(args: dict) -> tuple:
    """Identity of a model build: the objects and values it was built from."""
    key = []
    for value in args.values():
        if isinstance(value, (list, tuple)):
            key.append(tuple(id(v) for v in value))
        elif isinstance(value, (str, int, float)):
            key.append(value)
        else:
            key.append(id(value))
    return tuple(key)


def _apply_counts(args, result):
    circuit = args["circuit"]
    gates, n = circuit.n_gates, circuit.n_qubits
    amps = gates * 2 ** n
    # Computed, not measured: one read and one write of each complex128
    # amplitude per gate.
    return {"gates": gates, "amp_ops": amps, "bytes_computed": 32 * amps, "max_qubits": n}


def _iqae_counts(args, result):
    return {"rounds": result.rounds, "quantum_samples": result.quantum_samples,
            "grover_applications": max(result.powers, default=0),
            "converged": int(result.converged)}


def _loss_states(args, result):
    m = 1
    for grid in args["grids"]:
        m *= grid.size
    return {"states": m * 2 ** args["portfolio"].k}


# (span name, defining module, function, counters from (bound args, result)).
# Functions missing from the program are skipped, so the list may name code
# that a later version removes.
SPANS = (
    ("cli.load_config", "qvar.cli", "load_config", None),
    ("gaussian.discretize_normal", "qvar.gaussian", "discretize_normal", None),
    ("gaussian.conditional_pd", "qvar.gaussian", "conditional_pd", None),
    ("uncertainty.build", "qvar.uncertainty", "build_multi_rotation",
     lambda a, r: {"gates": r.circuit.n_gates, "distinct_models": _model_key(a)}),
    ("uncertainty.build", "qvar.uncertainty", "build_single_factor",
     lambda a, r: {"gates": r.circuit.n_gates, "distinct_models": _model_key(a)}),
    ("uncertainty.build", "qvar.uncertainty", "build_single_rotation",
     lambda a, r: {"gates": r.circuit.n_gates, "distinct_models": _model_key(a)}),
    ("objective.comparator", "qvar.objective", "build_s_free_comparator",
     lambda a, r: {"gates": r.n_gates}),
    ("objective.comparator", "qvar.objective", "build_weighted_sum",
     lambda a, r: {"gates": r.n_gates}),
    ("objective.build_a_circuit", "qvar.objective", "build_a_circuit", None),
    ("circuit.apply", "qvar.circuit", "apply", _apply_counts),
    ("circuit.marginal_probability", "qvar.circuit", "marginal_probability", None),
    ("estimation.iqae", "qvar.estimation", "iqae", _iqae_counts),
    ("estimation.clopper_pearson", "qvar.estimation", "clopper_pearson", None),
    ("estimation.exact_amplitude", "qvar.estimation", "exact_amplitude", None),
    ("estimation.grover_operator", "qvar.estimation", "grover_operator", None),
    ("risk.var_bisection", "qvar.risk", "var_bisection",
     lambda a, r: {"probes": len(r.bisection_trace)}),
    ("risk.exact_loss_distribution", "qvar.risk", "exact_loss_distribution", _loss_states),
    ("risk.monte_carlo_distribution", "qvar.risk", "monte_carlo_distribution",
     lambda a, r: {"paths": a["n_paths"]}),
    ("resources.estimate_resources", "qvar.resources", "estimate_resources", None),
)


def lookup_sites(module_name: str, name: str):
    """The function module_name.name and every (module, attr) of `qvar` bound
    to it; (None, []) when the function does not exist."""
    try:
        target = getattr(importlib.import_module(module_name), name)
    except (ImportError, AttributeError):
        return None, []
    sites = []
    for mod_name, module in list(sys.modules.items()):
        if module is None or not (mod_name == "qvar" or mod_name.startswith("qvar.")):
            continue
        sites.extend((module, attr) for attr, value in vars(module).items() if value is target)
    return target, sites


def rebind(module_name: str, name: str, make_wrapper) -> None:
    """Replace every `qvar` global bound to module_name.name with a wrapper."""
    target, sites = lookup_sites(module_name, name)
    if target is not None:
        wrapper = make_wrapper(target)
        for module, attr in sites:
            setattr(module, attr, wrapper)


class Tracer:
    """In-memory spans: [name, start, end, parent index, operation, counters].

    The wrappers are built once; install() and uninstall() swap them in and
    out at every lookup site.
    """

    def __init__(self):
        self.spans: list[list] = []
        self.sites: dict[str, list[str]] = {}
        self.op = -1
        self._stack: list[int] = []
        self._patches = []
        for span, module_name, name, counts in SPANS:
            target, sites = lookup_sites(module_name, name)
            if target is None:
                continue
            wrapper = self._wrap(span, target, counts)
            self._patches.extend((module, attr, target, wrapper) for module, attr in sites)
            self.sites.setdefault(span, []).extend(
                f"{module.__name__}.{attr}" for module, attr in sites)

    def install(self) -> None:
        for module, attr, _, wrapper in self._patches:
            setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, target, _ in self._patches:
            setattr(module, attr, target)

    def begin_op(self, op: int) -> None:
        self.op = op

    def span(self, name: str, fn, *args, **kwargs):
        """Call fn inside a span; a span directly inside one of the same name
        is folded into it (build_single_factor calls build_multi_rotation)."""
        stack = self._stack
        parent = stack[-1] if stack else -1
        if parent >= 0 and self.spans[parent][0] == name:
            return None, fn(*args, **kwargs)
        rec = [name, 0.0, 0.0, parent, self.op, None]
        stack.append(len(self.spans))
        self.spans.append(rec)
        rec[1] = perf_counter()
        try:
            return rec, fn(*args, **kwargs)
        finally:
            rec[2] = perf_counter()
            stack.pop()

    def _wrap(self, name: str, fn, counts):
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec, result = self.span(name, fn, *args, **kwargs)
            if counts is not None and rec is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                rec[5] = counts(bound.arguments, result)
            return result
        return traced

    def aggregate(self) -> dict:
        """Per span name: calls, total and self seconds, summed counters.

        Self time is a span's duration minus the durations of its children.
        Counters named max_* take the maximum; distinct_* count distinct
        (operation, key) pairs.
        """
        child = [0.0] * len(self.spans)
        for name, start, end, parent, op, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, dict] = {}
        distinct: dict[tuple, set] = {}
        for i, (name, start, end, parent, op, counters) in enumerate(self.spans):
            agg = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            agg["calls"] += 1
            agg["total_s"] += end - start
            agg["self_s"] += end - start - child[i]
            for key, value in (counters or {}).items():
                if key.startswith("distinct_"):
                    distinct.setdefault((name, key), set()).add((op, value))
                elif key.startswith("max_"):
                    agg[key] = max(agg.get(key, 0), value)
                else:
                    agg[key] = agg.get(key, 0) + value
        for (name, key), seen in distinct.items():
            out[name][key] = len(seen)
        return out

    def dump(self) -> dict:
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        return {"names": names,
                "fields": ["name", "start_s", "end_s", "parent", "op"],
                "spans": [[index[s[0]], round(s[1], 7), round(s[2], 7), s[3], s[4]]
                          for s in self.spans]}
