"""The golden corpus: each row of golden.json is one qvar command, pinned by its exit code
and the SHA-256 of its stdout and of its stderr.

    PYTHONPATH=src python3 tests/golden.py            # check every row
    PYTHONPATH=src python3 tests/golden.py --write    # re-pin the table

The check exits 1 and lists each row that differs.  --write rewrites the table's pins and
prints each moved row: its config and argv, the pin, the old hash and the new one; a change
that moves bytes on purpose states the reason for each of them.  Needs only the standard
library and qvar.  tests/test_golden.py runs every row through the same run_row, and
tests/bounds.py resolves and labels its rows and runs each command as this table does.

A row names its config as a file under configs/, as a key of the table's "configs" map (an
inline payload, written as JSON, or a string written as it is), or as null for no file.
It runs in process through run, which calls qvar.cli.main with every RuntimeWarning an
error, from a working directory that holds nothing but that config, passed by the
relative name CONFIG: a refusal's stderr names the path, so it hashes the same on every
machine.  No row may reach argparse's own refusals, whose usage block wraps to the
terminal's width: there main raises SystemExit, and the row fails.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
import tempfile
import warnings
from pathlib import Path

TABLE = Path(__file__).with_name("golden.json")
CONFIGS = Path(__file__).parents[1] / "configs"
CONFIG = "config.json"
PINS = ("exit", "stdout", "stderr")


def load_table() -> dict:
    return json.loads(TABLE.read_text(encoding="utf-8"))


def label(row: dict) -> str:
    return f"{row['config']}: {' '.join(row['argv'])}"


def write_config(name: str | None, configs: dict, directory: str = ".") -> None:
    """Write the config a row names into directory as CONFIG; no file for None."""
    if name is not None:
        payload = configs[name] if name in configs else (CONFIGS / name).read_text(encoding="utf-8")
        text = payload if isinstance(payload, str) else json.dumps(payload)
        (Path(directory) / CONFIG).write_text(text, encoding="utf-8")


def run(argv: list[str]) -> tuple[int, str, str]:
    """qvar.cli.main(argv) in process, every RuntimeWarning an error: (exit, stdout, stderr)."""
    from qvar.cli import main
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(err):
        warnings.simplefilter("error", RuntimeWarning)
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def run_row(row: dict, configs: dict) -> dict:
    """The pins of one row, run in the current working directory."""
    import hashlib      # here: OpenSSL adds 3.5 MB to the RSS of each bounds.py child
    write_config(row["config"], configs)
    code, *streams = run([*row["argv"], "--config", CONFIG])
    return {"exit": code, **{key: hashlib.sha256(text.encode()).hexdigest()
                             for key, text in zip(PINS[1:], streams)}}


def dump_table(table: dict) -> str:
    """The table as golden.json holds it: one line per config and per row."""
    configs = ",\n    ".join(f"{json.dumps(name)}: {json.dumps(payload)}"
                             for name, payload in table["configs"].items())
    rows = ",\n    ".join(map(json.dumps, table["rows"]))
    return f'{{\n  "configs": {{\n    {configs}\n  }},\n  "rows": [\n    {rows}\n  ]\n}}\n'


def check(write: bool) -> int:
    table, home = load_table(), os.getcwd()
    moved = 0
    for row in table["rows"]:
        with tempfile.TemporaryDirectory() as workdir:
            os.chdir(workdir)
            try:
                pins = run_row(row, table["configs"])
            finally:
                os.chdir(home)
        changed = [key for key in PINS if row.get(key) != pins[key]]
        for key in changed:
            print(f"{label(row)}: {key} {str(row.get(key))[:8]} -> {str(pins[key])[:8]}")
        moved += bool(changed)
        row.update(pins)
    if write:
        TABLE.write_text(dump_table(table), encoding="utf-8")
    print(f"{len(table['rows'])} rows, {moved} {'moved' if write else 'differ'}", file=sys.stderr)
    return 0 if write or not moved else 1


if __name__ == "__main__":
    if sys.argv[1:] not in ([], ["--write"]):
        sys.exit(f"usage: {sys.argv[0]} [--write]")
    sys.exit(check(write=sys.argv[1:] == ["--write"]))
