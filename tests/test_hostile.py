"""Hostile inputs: small fixed payloads that once reached steps whose cost
grows far faster than the payload.  Each runs through `cli.main` in process
and must give its exit code within a process-time bound."""
import io
import json
import sys
import time

import pytest

from ximod.cli import main

CASES = [
    # a P with no rows declares its cols freely; V = I_256 holds 2^16 entries
    ("snf-no-rows-256-cols", ["snf", "--json"],
     {"field": "q", "rows": 0, "cols": 256, "entries": []}, 0, 2.0),
    # V = I_cols would hold 10^18 entries: refused before any is built
    ("snf-no-rows-huge-cols", ["snf", "--json"],
     {"field": "q", "rows": 0, "cols": 10**9, "entries": []}, 2, 0.5),
    # 300 empty rows: U = I_300, whose determinant the self-check takes
    ("snf-empty-rows", ["snf", "--json"],
     {"field": "q", "rows": 300, "cols": 0, "entries": [[]] * 300}, 0, 2.0),
]


@pytest.mark.parametrize("argv, payload, code, seconds",
                         [case[1:] for case in CASES], ids=[case[0] for case in CASES])
def test_hostile_payload_exits_within_its_bound(monkeypatch, capsys, argv, payload, code, seconds):
    monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(payload)))
    start = time.process_time()
    got = main(argv)
    elapsed = time.process_time() - start
    capsys.readouterr()
    assert got == code
    assert elapsed < seconds, f"{elapsed:.2f} s"
