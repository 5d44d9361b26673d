"""The bounds table: each row of bounds.json is one qvar command held to the time and
memory bounds that say how far qvar scales, checked in a fresh interpreter.

    PYTHONPATH=src python3 tests/bounds.py

It takes no flags.  It prints each row's measured values, and exits 1 listing every row
that is out of bounds.  Each row runs in a temporary directory, so each PYTHONPATH entry
is made absolute first; with qvar installed, none is needed.

A row names its config as golden.json's rows do (a file under configs/ or a key of the
table's "configs" map), its argv, and the exit codes it accepts.  Optional bounds:
  seconds        the child's timeout, start-up and imports included
  rss_mb         the child's own RSS high-water mark, ru_maxrss, strictly under it
  stderr_has     a text the command's stderr holds
  rows_per_loss  compare's table has one row per line of `distribution` on the config,
                 run in a second, untimed child
  priced         a budget one byte under the run's tracemalloc peak refuses the rerun,
                 so check_budget's priced bytes reach what the run holds
"why" says what the row guards.

This process imports neither qvar nor numpy: Linux starts a child at its parent's RSS
high-water mark, so a heavy parent would raise every child's ru_maxrss.  For the same
reason a child sends back the line count of its stdout's table, not the table.  The
child runs `child` below; tier-1 tests take their fresh-process measurements from
run_child too.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import tempfile
import time
from pathlib import Path

from golden import CONFIG, label, run, write_config

TABLE = Path(__file__).with_name("bounds.json")
FIELDS = {"config", "argv", "exit", "seconds", "rss_mb", "stderr_has", "rows_per_loss",
          "priced", "why"}


def traced(call):
    """(call(), tracemalloc's peak in bytes while it ran)."""
    import tracemalloc      # here, as subprocess below: 1 MB of RSS in a child that needs neither
    tracemalloc.start()
    try:
        return call(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def child(spec: str) -> None:
    """In the fresh interpreter: run one argv and print its measurement as one short
    JSON line."""
    import qvar.cli         # before the clock and the trace, as a step's script imported it
    import qvar.risk
    spec = json.loads(spec)
    start = time.perf_counter()
    if spec["trace"]:
        (code, out, err), peak = traced(lambda: run(spec["argv"]))
    else:
        code, out, err = run(spec["argv"])
    got = {"exit": code, "seconds": time.perf_counter() - start,
           "table_lines": len(out.split("\n\n")[0].splitlines()), "stderr": err,
           "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}
    if spec["trace"]:
        got["peak"] = peak
    if spec["price"]:
        qvar.risk.MAX_STATE_BYTES = peak - 1
        got["priced_exit"], _, got["priced_stderr"] = run(spec["argv"])
    print(json.dumps(got))


def run_child(argv: list[str], trace: bool = False, price: bool = False,
              timeout: float | None = None, cwd: str | None = None,
              pythonpath: str | None = None) -> dict:
    """The measurement of qvar.cli.main(argv) in a fresh interpreter, as `qvar` runs it:
    exit, seconds, table_lines (stdout's lines up to its first blank line), stderr and
    rss_mb; with trace, tracemalloc's peak; with price (which traces), the rerun's
    priced_exit and priced_stderr at a budget of peak - 1.  The child finds qvar on
    pythonpath, else on the inherited PYTHONPATH, each entry resolved against this
    process's working directory, since the child may run in another (cwd)."""
    import subprocess
    path = (pythonpath or os.environ.get("PYTHONPATH") or "").split(os.pathsep)
    path = [Path(__file__).resolve().parent, *(Path(entry).resolve() for entry in path if entry)]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(map(str, path)))
    spec = json.dumps({"argv": argv, "trace": trace or price, "price": price})
    done = subprocess.run([sys.executable, "-c", "import sys, bounds; bounds.child(sys.argv[1])",
                           spec], capture_output=True, text=True, timeout=timeout, cwd=cwd,
                          env=env, check=True)
    return json.loads(done.stdout)


def check_row(row: dict, configs: dict) -> tuple[str, list[str]]:
    """One row's measured values, and each bound it breaks."""
    import subprocess
    with tempfile.TemporaryDirectory() as workdir:
        write_config(row["config"], configs, workdir)
        argv = [*row["argv"], "--config", CONFIG]
        try:
            got = run_child(argv, price=row.get("priced", False), timeout=row.get("seconds"),
                            cwd=workdir)
        except subprocess.TimeoutExpired:
            return "killed", [f"not done within {row['seconds']} s"]
        except subprocess.CalledProcessError as exc:      # a traceback, or argparse's exit
            last = (exc.stderr.strip().splitlines() or [""])[-1]
            return "failed", [f"the child exited {exc.returncode}: {last}"]
        if row.get("rows_per_loss"):
            losses = run_child(["distribution", "--config", CONFIG], cwd=workdir)
    values = [f"exit {got['exit']}", f"{got['seconds']:.1f} s", f"RSS {got['rss_mb']:.1f} MB"]
    broken = []
    if got["exit"] not in row["exit"]:
        broken.append(f"exit {got['exit']}, not one of {row['exit']}")
    if "rss_mb" in row and not got["rss_mb"] < row["rss_mb"]:
        broken.append(f"RSS {got['rss_mb']:.1f} MB, not under {row['rss_mb']} MB")
    if "stderr_has" in row and row["stderr_has"] not in got["stderr"]:
        broken.append(f"stderr without {row['stderr_has']!r}: {got['stderr'].strip()!r}")
    if row.get("priced"):
        values.append(f"traced peak {got['peak'] / 2 ** 20:.1f} MiB, "
                      f"exit {got['priced_exit']} one byte under it")
        if got["priced_exit"] != 1:
            broken.append(f"exit {got['priced_exit']}, not 1, at a budget one byte under "
                          f"the traced peak")
    if row.get("rows_per_loss"):
        rows = got["table_lines"] - 2          # header and rule
        support = losses["table_lines"] - 1    # header
        values.append(f"{rows} rows for {support} losses")
        if rows != support:
            broken.append(f"{rows} table rows for {support} losses")
    return ", ".join(values), broken


def check() -> int:
    table = json.loads(TABLE.read_text(encoding="utf-8"))
    out = []
    for row in table["rows"]:
        values, broken = check_row(row, table["configs"])
        print(f"{label(row)}: {values}", flush=True)
        out += [f"{label(row)}: {reason}" for reason in broken]
    for line in out:
        print(f"out of bounds: {line}")
    print(f"{len(table['rows'])} rows, {len(out)} bounds broken", file=sys.stderr)
    return 1 if out else 0


if __name__ == "__main__":
    if sys.argv[1:]:
        sys.exit(f"usage: {sys.argv[0]}")
    sys.exit(check())
