"""Every ``BENCH_*.json`` record at the repository root parses and holds the
keys that all records share, so that a perf change's numbers can be read
the same way as the others'."""

import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
RECORDS = sorted(ROOT.glob("BENCH_*.json"))
KEYS = ("name", "change", "claim", "command", "method", "hardware", "run_seconds",
        "end_to_end", "trace")


def test_records_exist():
    assert RECORDS


@pytest.mark.parametrize("path", RECORDS, ids=lambda path: path.name)
def test_record_parses_and_holds_the_shared_keys(path):
    record = json.loads(path.read_text(encoding="utf-8"))
    assert isinstance(record, dict)
    missing = [key for key in KEYS if key not in record]
    assert not missing, f"{path.name} lacks {missing}"
