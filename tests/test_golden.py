"""The golden corpus (golden.json): every pinned command keeps its exit code and its
stdout and stderr bytes.  Re-pin with `python3 tests/golden.py --write`."""

import pytest

import golden

TABLE = golden.load_table()


@pytest.mark.parametrize("row", TABLE["rows"], ids=golden.label)
def test_row_keeps_its_bytes(row, monkeypatch, tmp_path):
    monkeypatch.chdir(tmp_path)
    assert golden.run_row(row, TABLE["configs"]) == {key: row[key] for key in golden.PINS}
