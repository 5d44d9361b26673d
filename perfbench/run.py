"""Benchmark of the qvar pipeline: time to VaR, oracle cost and layer split.

    python3 perfbench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

Run from the repository root.  For each workload it generates the inputs
from the seed, computes the reference answers with an independent oracle,
starts fresh interpreters to time set-up, then runs the workload's operations
through `qvar.cli.main` in one worker process, one at a time (a single client
in a closed loop), and checks every output.

--trace 0 measures the end-to-end metrics, timing a fixed reference kernel
between operations so that operation times can be given in units of it.
--trace 1 runs each operation of the pool twice, back to back, once untraced
and once with every layer's public functions wrapped in spans, and reports
the per-layer split.  Nothing in qvar waits on a queue or on I/O beyond its
output file (single thread, one client), so there is no "waited" metric.  The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}.  Full results go to
perfbench/out/.
"""

from __future__ import annotations

import os

# Pin native thread pools before numpy loads, here and in every child.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from importlib import metadata  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import oracle  # noqa: E402
from workloads import DESK_CONFIG, WORKLOADS, generate  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_SAMPLES = 7            # fresh interpreters per untraced run, median reported
CAP_S = 130.0                # no operation starts later than this into a run
TOL = 1e-9

END_TO_END = (("setup_s", "s"), ("op_p50_ref", "ref"), ("op_tail_ref", "ref"),
              ("peak_rss_mb", "MB"))
# op_p50_ref and op_tail_ref are operation times in units of the worker's
# reference kernel (worker.ReferenceKernel), timed right before and after
# each operation.  On a host shared with other tenants the speed of one
# fixed operation drifts by a third over tens of seconds, so the raw
# op_p50_s, op_tail_s and ops_per_s of two runs of the same code differ by
# more than any useful bound; the kernel slows with the operation, and the
# ratio stays within a few percent.  Untraced runs print the raw figures
# too, and quantum_samples_p50 and fail_ratio, but the JSON line leaves them
# out.  The last two are 0 on some workloads, so neither can carry a relative
# bound: the first is a per-layer metric of traced runs, the second travels
# as attempted/failed.

# Per-layer metrics: (metric, span, field, unit).  Fields are per-operation
# means over the traced pass unless the unit says otherwise.
LAYER_FIELDS = (
    ("cli.load_config.self_s", "cli.load_config", "self_s", "s/op"),
    ("cli.self_s", "cli", "self_s", "s/op"),
    ("gaussian.discretize_normal.self_s", "gaussian.discretize_normal", "self_s", "s/op"),
    ("gaussian.conditional_pd.calls", "gaussian.conditional_pd", "calls", "count/op"),
    ("gaussian.conditional_pd.self_s", "gaussian.conditional_pd", "self_s", "s/op"),
    ("uncertainty.build.calls", "uncertainty.build", "calls", "count/op"),
    ("uncertainty.build.self_s", "uncertainty.build", "self_s", "s/op"),
    ("uncertainty.build.gates", "uncertainty.build", "gates", "count/op"),
    ("objective.comparator.calls", "objective.comparator", "calls", "count/op"),
    ("objective.comparator.self_s", "objective.comparator", "self_s", "s/op"),
    ("objective.comparator.gates", "objective.comparator", "gates", "count/op"),
    ("objective.build_a_circuit.self_s", "objective.build_a_circuit", "self_s", "s/op"),
    ("circuit.apply.calls", "circuit.apply", "calls", "count/op"),
    ("circuit.apply.self_s", "circuit.apply", "self_s", "s/op"),
    ("circuit.apply.gates", "circuit.apply", "gates", "count/op"),
    ("circuit.apply.amp_ops", "circuit.apply", "amp_ops", "count/op"),
    ("circuit.apply.bytes_computed", "circuit.apply", "bytes_computed", "B/op"),
    ("circuit.marginal_probability.calls", "circuit.marginal_probability", "calls", "count/op"),
    ("circuit.marginal_probability.self_s", "circuit.marginal_probability", "self_s", "s/op"),
    ("estimation.iqae.calls", "estimation.iqae", "calls", "count/op"),
    ("estimation.iqae.self_s", "estimation.iqae", "self_s", "s/op"),
    ("estimation.iqae.rounds", "estimation.iqae", "rounds", "count/op"),
    ("estimation.iqae.grover_applications", "estimation.iqae", "grover_applications",
     "count/op"),
    ("estimation.iqae.quantum_samples", "estimation.iqae", "quantum_samples", "count/op"),
    ("estimation.clopper_pearson.calls", "estimation.clopper_pearson", "calls", "count/op"),
    ("estimation.clopper_pearson.self_s", "estimation.clopper_pearson", "self_s", "s/op"),
    ("estimation.exact_amplitude.calls", "estimation.exact_amplitude", "calls", "count/op"),
    ("estimation.exact_amplitude.self_s", "estimation.exact_amplitude", "self_s", "s/op"),
    ("estimation.grover_operator.self_s", "estimation.grover_operator", "self_s", "s/op"),
    ("risk.var_bisection.calls", "risk.var_bisection", "calls", "count/op"),
    ("risk.var_bisection.self_s", "risk.var_bisection", "self_s", "s/op"),
    ("risk.var_bisection.probes", "risk.var_bisection", "probes", "count/op"),
    ("risk.exact_loss_distribution.calls", "risk.exact_loss_distribution", "calls", "count/op"),
    ("risk.exact_loss_distribution.self_s", "risk.exact_loss_distribution", "self_s", "s/op"),
    ("risk.exact_loss_distribution.states", "risk.exact_loss_distribution", "states",
     "count/op"),
    ("risk.monte_carlo_distribution.calls", "risk.monte_carlo_distribution", "calls",
     "count/op"),
    ("risk.monte_carlo_distribution.self_s", "risk.monte_carlo_distribution", "self_s",
     "s/op"),
    ("risk.monte_carlo_distribution.paths", "risk.monte_carlo_distribution", "paths",
     "count/op"),
    ("resources.estimate_resources.self_s", "resources.estimate_resources", "self_s", "s/op"),
)


class BenchError(RuntimeError):
    """The benchmark itself could not run; no result is printed."""


# ---------------------------------------------------------------- checks ---

def check_analyze(text: str, ref: oracle.Reference) -> tuple[str | None, int]:
    """Failure reason (None when correct) and the report's quantum samples."""
    try:
        results = json.loads(text)["results"]
        var, el = float(results["var"]), float(results["expected_loss"])
        probes = results["bisection_trace"]
        samples = results.get("total_quantum_samples") or 0
    except (ValueError, KeyError, TypeError) as exc:
        return f"report does not parse ({exc!r})", 0
    if abs(var - ref.var) > TOL * max(1.0, abs(ref.var)):
        return f"VaR {var} differs from the reference {ref.var}", samples
    if abs(el - ref.expected_loss) > TOL * abs(ref.expected_loss):
        return f"expected loss {el!r} differs from the reference {ref.expected_loss!r}", samples
    if any(p.get("converged") is False for p in probes):
        return "an IQAE probe did not converge", samples
    return None, samples


def check_compare(text: str, ref: oracle.Reference) -> str | None:
    """Failure reason for a compare table, None when its classical column
    and expected loss match the reference."""
    lines = text.splitlines()
    try:
        end = lines.index("")
        rows = [line.split() for line in lines[2:end]]
        thresholds = [float(r[0]) for r in rows]
        classical = [float(r[1]) for r in rows]
        el_line = next(line for line in lines if line.startswith("expected loss (model):"))
        el = float(el_line.split(":")[1])
    except (ValueError, IndexError, StopIteration) as exc:
        return f"table does not parse ({exc!r})"
    want = [float(f"{x:.6g}") for x in ref.support]
    if thresholds != want:
        return f"thresholds {thresholds} differ from the reference support {want}"
    for x, want_cdf, c in zip(ref.support, ref.cdf, classical):
        if abs(c - want_cdf) > TOL:
            return f"classical cdf {c} at {x} differs from the reference {want_cdf}"
    if abs(el - ref.expected_loss) > TOL * abs(ref.expected_loss):
        return f"expected loss {el!r} differs from the reference {ref.expected_loss!r}"
    return None


# --------------------------------------------------------------- helpers ---

def tail(times: list[float]) -> tuple[float, float]:
    """Highest nearest-rank percentile with at least ten operations beyond it
    (the minimum when there are ten operations or fewer)."""
    ordered = sorted(times)
    rank = max(1, len(ordered) - 10)
    return ordered[rank - 1], 100.0 * rank / len(ordered)


def environment() -> dict:
    cpu = platform.processor() or "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "jsonschema": metadata.version("jsonschema"),
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
        else os.cpu_count(),
        "cpu": cpu,
        "git_commit": git_commit(),
        "threads": {v: os.environ[v] for v in THREAD_VARS},
    }


def git_commit() -> str | None:
    """HEAD of the checkout, read from .git; None outside a git work tree."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def start_worker(plan_path: Path, setup_only: bool) -> tuple[subprocess.Popen, float]:
    """Start a worker in a fresh interpreter; return it and its set-up time."""
    cmd = [sys.executable, str(HERE / "worker.py"), str(plan_path)]
    if setup_only:
        cmd.append("--setup-only")
    t0 = perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    line = proc.stdout.readline()
    setup = perf_counter() - t0
    if line.strip() != "ready":
        proc.kill()
        proc.wait()
        raise BenchError(f"worker failed during set-up (exit {proc.returncode})")
    return proc, setup


def finish(proc: subprocess.Popen, timeout: float) -> None:
    try:
        proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError("worker did not finish in time") from None
    if proc.returncode != 0:
        raise BenchError(f"worker exited with {proc.returncode}")


def read_json(path: Path) -> dict:
    try:
        return json.loads(path.read_text())
    except (OSError, ValueError):
        return {}


def write_json(path: Path, payload: dict) -> None:
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")
    os.replace(tmp, path)


# ------------------------------------------------------------- workloads ---

def judge(kind: str, records: list, outputs: dict, refs: list, ops: list) -> dict:
    """Check every operation; returns failures and per-pool quantum samples."""
    verdict: dict[int, str | None] = {}
    samples: dict[int, int] = {}
    for key, out in outputs.items():
        k = int(key)
        ref = refs[ops[k]["config"]]
        if kind == "analyze":
            verdict[k], samples[k] = check_analyze(out["text"], ref)
        else:
            verdict[k] = check_compare(out["text"], ref)
    failures = []
    for rec in records:
        k = rec["op"]
        reason = verdict.get(k)
        if rec["error"]:
            reason = "raised: " + rec["error"].strip().splitlines()[-1]
        elif rec["code"] != 0:
            reason = f"exit code {rec['code']}"
        elif rec["digest"] != outputs[str(k)]["digest"]:
            reason = "output bytes differ from an earlier run of the same operation"
        elif not rec["converged"]:
            reason = "an IQAE run did not converge"
        elif kind == "analyze" and rec["quantum_samples"] != samples.get(k, 0):
            reason = "report's quantum samples differ from the counted IQAE samples"
        if reason:
            failures.append({"op": k, "reason": reason})
    first = {}
    for rec in records:
        first.setdefault(rec["op"], rec["quantum_samples"])
    return {"failures": failures, "samples": first}


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    wl = WORKLOADS[name]
    OUT.mkdir(exist_ok=True)
    run_dir = OUT / f"run-{os.getpid()}-{name}"
    if run_dir.exists():
        shutil.rmtree(run_dir)
    run_dir.mkdir()
    try:
        return _run_workload(name, wl, seed, seconds, trace, run_dir)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


def _run_workload(name, wl, seed, seconds, trace, run_dir) -> dict:
    oracle.self_check(json.loads((ROOT / DESK_CONFIG).read_text()))
    ops, configs = generate(name, seed, ROOT, run_dir)
    refs = [oracle.reference(json.loads(p.read_text())) for p in configs]
    plan = {
        "src": str(ROOT / "src"), "configs": [str(p) for p in configs], "ops": ops,
        "seconds": seconds, "cap_s": CAP_S, "trace": trace, "run_dir": str(run_dir),
        "result_path": str(run_dir / "result.json"),
        "spans_path": str(OUT / f"spans-{name}.json"),
    }
    plan_path = run_dir / "plan.json"
    plan_path.write_text(json.dumps(plan))

    # Set-up is timed in fresh interpreters before and after the timed
    # phase, so that its median spans the run's changes in host speed.
    setups = []

    def time_setups(count: int) -> None:
        for _ in range(count):
            proc, setup = start_worker(plan_path, setup_only=True)
            finish(proc, 60)
            setups.append(setup)

    if not trace:
        time_setups(SETUP_SAMPLES // 2)
    proc, setup = start_worker(plan_path, setup_only=False)
    setups.append(setup)
    finish(proc, CAP_S + 40)
    if not trace:
        time_setups(SETUP_SAMPLES - 1 - SETUP_SAMPLES // 2)
    result = read_json(Path(plan["result_path"]))
    if not result:
        raise BenchError("worker wrote no result")

    outputs = result["outputs"]
    passes = ["untraced", "traced"] if trace else ["timed"]
    records = [rec for p in passes for rec in result[p]["records"]]
    verdict = judge(wl.command, records, outputs, refs, ops)
    complete = len(outputs) == len(ops)
    digest = hashlib.sha256("\n".join(
        outputs[str(k)]["digest"] for k in range(len(ops)) if str(k) in outputs
    ).encode()).hexdigest()
    problems = []
    notes = []
    if not complete:
        notes.append(f"only {len(outputs)} of {len(ops)} pool operations ran before the "
                     f"{CAP_S:.0f} s cap; digest and counts cover those")

    # The same inputs must give the same bytes in every run, traced or not,
    # and in every later version of the program that keeps its output format
    # (delete out/digests.json after an intended format change).
    digests_path = OUT / "digests.json"
    digests = read_json(digests_path)
    inputs = hashlib.sha256(json.dumps(
        [[p.read_text() for p in configs],
         [[a for a in op["argv"] if a != str(configs[op["config"]])] for op in ops]]).encode())
    key = f"{name} seed={seed} inputs={inputs.hexdigest()[:16]}"
    if complete:
        if digests.setdefault(key, digest) != digest:
            problems.append(f"output digest {digest} differs from an earlier run's "
                            f"{digests[key]}")
        write_json(digests_path, digests)

    pool_samples = [verdict["samples"][k] for k in sorted(verdict["samples"])]
    qs_p50 = statistics.median(pool_samples) if pool_samples else 0
    warnings_total = sum(r["warnings"] for r in records)
    summary = {
        "workload": name, "why": wl.why, "seed": seed, "trace": int(trace),
        "command": wl.command, "pool": len(ops), "digest": digest,
        "attempted": len(records), "failed": len(verdict["failures"]),
        "failures": verdict["failures"][:20], "problems": problems, "notes": notes,
        "runtime_warnings": warnings_total,
        "waits": "none: one process, one client, closed loop, no queue",
        "environment": environment(),
    }
    if trace:
        untraced, traced = result["untraced"]["records"], result["traced"]["records"]
        if ({r["op"]: r["quantum_samples"] for r in untraced}
                != {r["op"]: r["quantum_samples"] for r in traced}):
            problems.append("quantum samples differ between the untraced and traced runs")
        n = len(traced)
        layers = result["layers"]
        metrics = {}
        for metric, span, field, unit in LAYER_FIELDS:
            metrics[metric] = (layers.get(span, {}).get(field, 0) / n, unit)
        builds = layers.get("uncertainty.build", {})
        metrics["uncertainty.build.useful_ratio"] = (
            builds.get("distinct_models", 0) / builds["calls"] if builds else 0.0, "ratio")
        metrics["circuit.apply.max_qubits"] = (
            layers.get("circuit.apply", {}).get("max_qubits", 0), "count")
        iq = layers.get("estimation.iqae", {})
        metrics["estimation.iqae.converged_ratio"] = (
            iq.get("converged", 0) / iq["calls"] if iq else 0.0, "ratio")
        metrics["cli.runtime_warnings"] = (sum(r["warnings"] for r in traced) / n, "count/op")
        metrics["quantum_samples_p50"] = (qs_p50, "count")
        traced_s = [r["seconds"] for r in traced]
        metrics["trace.overhead_ratio"] = (
            statistics.median(traced_s) / statistics.median([r["seconds"] for r in untraced]),
            "ratio")
        op_time = sum(traced_s) / n
        summary["layer_share"] = {
            span: agg["self_s"] / n / op_time for span, agg in sorted(layers.items())}
        summary["layer_calls"] = {span: agg["calls"] for span, agg in sorted(layers.items())}
        summary["traced_op_mean_s"] = op_time
        summary["lookup_sites"] = result["sites"]
        summary["isolates"] = [
            {"span": span, "share": summary["layer_share"].get(span, 0.0), "at_least": share}
            for span, share in wl.isolates]
    else:
        times = [r["seconds"] for r in result["timed"]["records"]]
        kernel = result["timed"]["reference_s"]
        ratios = [t / (0.5 * (a + b)) for t, a, b in zip(times, kernel, kernel[1:])]
        tail_value, tail_pct = tail(times)
        metrics = {
            "setup_s": (statistics.median(setups), "s"),
            "op_p50_ref": (statistics.median(ratios), "ref"),
            "op_tail_ref": (tail(ratios)[0], "ref"),
            "reference_p50_s": (statistics.median(kernel), "s"),
            "op_p50_s": (statistics.median(times), "s"),
            "op_tail_s": (tail_value, "s"),
            "ops_per_s": (len(times) / result["timed"]["wall_s"], "1/s"),
            "peak_rss_mb": (result["peak_rss_kb"] / 1024.0, "MB"),
            "quantum_samples_p50": (qs_p50, "count"),
            "fail_ratio": (summary["failed"] / summary["attempted"], "ratio"),
        }
        summary["op_tail_percentile"] = tail_pct
        summary["setup_samples_s"] = setups
        summary["op_seconds"] = times
        summary["op_ref"] = ratios
        summary["reference_seconds"] = kernel
    summary["correct"] = summary["failed"] == 0 and not problems
    summary["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    write_json(OUT / f"results-{name}-seed{seed}-trace{int(trace)}.json", summary)
    return summary


# ----------------------------------------------------------------- report ---

def _fmt(value: float) -> str:
    if isinstance(value, int) or (float(value).is_integer() and abs(value) >= 1):
        return f"{value:.0f}"
    return f"{value:.6g}"


def print_summary(s: dict) -> None:
    print(f"== {s['workload']} (seed {s['seed']}, trace {s['trace']}): {s['why']}")
    print(f"   {s['attempted']} operations over a pool of {s['pool']}, "
          f"{s['failed']} failed; outputs checked against the reference oracle; "
          f"digest {s['digest'][:16]}")
    for name, m in s["metrics"].items():
        note = ""
        if name in ("op_tail_s", "op_tail_ref"):
            note = f"  (p{s['op_tail_percentile']:.1f} of {len(s['op_seconds'])} operations)"
        elif name == "reference_p50_s":
            note = f"  (reference kernel, {len(s['reference_seconds'])} runs)"
        elif name == "setup_s":
            note = f"  (median of {len(s['setup_samples_s'])} fresh interpreters)"
        elif name == "fail_ratio":
            note = f"  ({s['failed']}/{s['attempted']})"
        print(f"   {name:<40} {_fmt(m['value']):>14} {m['unit']}{note}")
    if s["trace"]:
        print("   self-time share of a traced operation:")
        for span, share in sorted(s["layer_share"].items(), key=lambda kv: -kv[1]):
            print(f"     {span:<38} {share:7.1%}  ({s['layer_calls'][span]} calls)")
        for iso in s["isolates"]:
            held = "holds" if iso["share"] >= iso["at_least"] else "does NOT hold"
            print(f"   isolation: {iso['span']} share {iso['share']:.1%} "
                  f">= {iso['at_least']:.0%} {held}")
    print(f"   runtime warnings during operations: {s['runtime_warnings']}; "
          f"waited: {s['waits']}")
    for f in s["failures"][:5]:
        print(f"   FAILED op {f['op']}: {f['reason']}")
    for p in s["problems"]:
        print(f"   PROBLEM: {p}")
    for n in s["notes"]:
        print(f"   note: {n}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "qvar" / "cli.py").is_file():
        print(f"error: no qvar source under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    try:
        summaries = [run_workload(n, args.seed, args.seconds, bool(args.trace))
                     for n in names]
    except (BenchError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for s in summaries:
        print_summary(s)
    keep = [m for m, _ in END_TO_END] if not args.trace else None
    metrics = {}
    for s in summaries:
        prefix = f"{s['workload']}." if len(summaries) > 1 else ""
        for name, m in s["metrics"].items():
            if keep is None or name in keep:
                metrics[prefix + name] = m
    line = {
        "correct": all(s["correct"] for s in summaries),
        "attempted": sum(s["attempted"] for s in summaries),
        "failed": sum(s["failed"] for s in summaries),
        "metrics": metrics,
    }
    bad = [name for name, m in metrics.items() if not math.isfinite(m["value"])]
    if bad:
        print(f"error: non-finite metrics {bad}", file=sys.stderr)
        return 1
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
