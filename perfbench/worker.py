"""One benchmark process: set up `qvar`, then run a pool of operations.

Started by run.py in a fresh interpreter, so its set-up time and peak memory
are those of a process that does nothing but drive `qvar.cli.main` in
process, one operation at a time (a single client in a closed loop).

    python3 worker.py PLAN.json [--setup-only]

It prints "ready" once `qvar.cli` is imported and every config is loaded, and
writes its records to the plan's result path.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import itertools
import json
import resource
import sys
import traceback
import warnings
from contextlib import redirect_stderr
from pathlib import Path
from time import perf_counter


def _sample_counter(log: list):
    """Wrap qvar's iqae to log (quantum_samples, converged) per call; no timing."""
    def make(fn):
        def counted(*args, **kwargs):
            result = fn(*args, **kwargs)
            log.append((result.quantum_samples, bool(result.converged)))
            return result
        counted.__wrapped__ = fn
        return counted
    return make


def run_op(main, ops, k: int, out_path: Path, samples: list, first: dict,
           tracer=None) -> dict:
    """Run pool entry k once and record its time, exit code and output digest.

    The first output of each pool entry is kept in `first`; a later run that
    produces other bytes is judged a failure of that operation.
    """
    argv = ops[k]["argv"] + ["--output", str(out_path)]
    if out_path.exists():
        out_path.unlink()
    del samples[:]
    error = None
    # Warnings are counted, not failures: compare's Monte Carlo column takes
    # sqrt(exact * (1 - exact)), which is NaN (RuntimeWarning) when the exact
    # readout rounds above 1, and its exit code ignores that column.
    with warnings.catch_warnings(record=True) as caught, redirect_stderr(io.StringIO()):
        warnings.simplefilter("always")
        t0 = perf_counter()
        try:
            if tracer is None:
                code = main(argv)
            else:
                code = tracer.span("cli", main, argv)[1]
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception:       # recorded as a failed operation
            code, error = -1, traceback.format_exc(limit=3)
        t1 = perf_counter()
    data = out_path.read_bytes() if out_path.exists() else b""
    digest = hashlib.sha256(data).hexdigest()
    if k not in first:
        first[k] = {"digest": digest, "text": data.decode("utf-8", "replace")}
    return {
        "op": k, "seconds": t1 - t0, "code": code, "digest": digest,
        "warnings": len(caught), "quantum_samples": sum(s for s, _ in samples),
        "converged": all(c for _, c in samples), "error": error,
    }


class ReferenceKernel:
    """A fixed piece of work shaped like qvar's inner loops, timed between
    operations to gauge how fast the host runs at that moment.

    A Python loop over 1024 default patterns of 10 assets, each a few numpy
    operations on 64-row arrays: the mix of interpreter and small-array work
    that the enumeration loop and the statevector gates both consist of.  It
    shares no code with qvar, so a change to qvar cannot change its time.
    """

    def __init__(self) -> None:
        import numpy as np
        rng = np.random.default_rng(0)
        self.np = np
        self.pd = rng.uniform(0.0, 1.0, (64, 10))
        self.pz = rng.uniform(0.0, 1.0, 64)
        self.lgd = rng.uniform(0.0, 1.0, 10)
        self.patterns = [np.asarray(p) for p in itertools.product((0, 1), repeat=10)]

    def seconds(self) -> float:
        np, pd, pz, lgd = self.np, self.pd, self.pz, self.lgd
        total = 0.0
        t0 = perf_counter()
        for bits in self.patterns:
            total += float(lgd @ bits) + float(pz @ np.prod(np.where(bits, pd, 1.0 - pd), axis=1))
        t1 = perf_counter()
        if not total > 0.0:
            raise RuntimeError("reference kernel computed a wrong sum")
        return t1 - t0


def run_timed(main, ops, out_path: Path, seconds: float, cap: float, samples: list,
              first: dict) -> dict:
    """Run the pool once in order, then keep cycling until `seconds` elapsed.

    The reference kernel runs before the first operation and after each one,
    so every operation is flanked by two timings of it.  No operation starts
    after `cap` seconds, even if the pool is unfinished, so a much slower
    program still ends in time.
    """
    kernel = ReferenceKernel()
    kernel.seconds()                    # warm-up
    records, reference = [], [kernel.seconds()]
    start = perf_counter()
    while True:
        now = perf_counter() - start
        if now >= cap or (len(records) >= len(ops) and now >= seconds):
            break
        records.append(run_op(main, ops, len(records) % len(ops), out_path, samples, first))
        reference.append(kernel.seconds())
    wall = perf_counter() - start - sum(reference[1:])
    return {"records": records, "reference_s": reference, "wall_s": wall}


def run_paired(main, ops, out_path: Path, cap: float, samples: list, first: dict,
               tracer) -> dict:
    """Run each pool entry untraced and traced back to back.

    Both runs of a pair see the same machine state, and alternating which
    goes first cancels any benefit of running second, so the ratio of the
    two medians is the tracing overhead.
    """
    passes = {"untraced": {"records": []}, "traced": {"records": []}}
    start = perf_counter()
    for k in range(len(ops)):
        if perf_counter() - start >= cap:
            break
        for traced in ((False, True) if k % 2 == 0 else (True, False)):
            if traced:
                tracer.begin_op(k)
                tracer.install()
            try:
                rec = run_op(main, ops, k, out_path, samples, first,
                             tracer if traced else None)
            finally:
                if traced:
                    tracer.uninstall()
            passes["traced" if traced else "untraced"]["records"].append(rec)
    return passes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("plan")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    plan = json.loads(Path(args.plan).read_text())

    sys.path.insert(0, plan["src"])
    from qvar import cli
    for path in plan["configs"]:
        cli.load_config(path)
    print("ready", flush=True)
    if args.setup_only:
        return 0

    from tracing import Tracer, rebind
    # compare does not print its quantum samples, and analyze's are checked
    # against this count; the counter adds one call per IQAE run, no timers.
    samples: list = []
    rebind("qvar.estimation", "iqae", _sample_counter(samples))
    out_path = Path(plan["run_dir"]) / "op.out"
    first: dict = {}
    result = {}
    if plan["trace"]:
        tracer = Tracer()
        result.update(run_paired(cli.main, plan["ops"], out_path, plan["cap_s"], samples,
                                 first, tracer))
        result["layers"] = tracer.aggregate()
        result["sites"] = tracer.sites
        Path(plan["spans_path"]).write_text(json.dumps(tracer.dump()))
    else:
        result["timed"] = run_timed(cli.main, plan["ops"], out_path, plan["seconds"],
                                    plan["cap_s"], samples, first)
    result["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    result["outputs"] = {str(k): v for k, v in first.items()}
    if out_path.exists():
        out_path.unlink()
    Path(plan["result_path"]).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
