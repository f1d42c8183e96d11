"""Format freeze for the two durable journals: the budget WAL and the sweep checkpoint.

``tests/golden/`` holds bytes written by the ledger and checkpoint writers
before they moved onto :class:`repro.durable.journal.Journal`.  The same
calls must still write exactly those bytes, and the golden files must replay
to exactly the same accounts and rows.  Other readers depend on the bytes:
``perfbench/run.py`` reads the WAL fields ``kind``, ``request``, ``analyst``
and ``epsilon_hex``, and the CI chaos smoke greps the checkpoint for
``"kind": "case"``.
"""

from __future__ import annotations

import math
import shutil
from pathlib import Path

from repro.parallel.checkpoint import SweepCheckpoint
from repro.serve.ledger import BudgetLedger

GOLDEN = Path(__file__).resolve().parent / "golden"

SWEEP_FINGERPRINT = "f" * 40
CASE_FINGERPRINTS = ["a" * 40, "b" * 40, "c" * 40]
ROWS = {
    2: [{"variant": "kd-cell", "epsilon": 0.1, "nan": float("nan"), "inf": float("inf"),
         "ninf": float("-inf"), "neg": -0.0, "count": 7, "flag": True, "none": None}],
    0: [{"shape": "square", "median_rel_error_pct": 1.0 / 3.0},
        {"shape": "wide", "median_rel_error_pct": 12.5, "count": -3}],
}


def _write_wal(path: Path) -> BudgetLedger:
    ledger = BudgetLedger(path, default_cap=1.0)
    ledger.set_cap("alice", 0.5)
    ledger.charge("alice", 0.1, request_id=1)
    ledger.charge("bob", 0.2 / 3.0, request_id=2)
    ledger.charge("alice", 0.013, request_id=3)
    ledger.set_cap("bob", 2.0)
    ledger.charge("bob", 0.1 / 7.0)
    return ledger


def _same_rows(left, right) -> bool:
    """Row equality with floats compared bitwise (NaN equals NaN, -0.0 is not 0.0)."""
    def key(value):
        return ("f64", value.hex()) if isinstance(value, float) else (type(value).__name__, value)

    return [[(k, key(v)) for k, v in row.items()] for row in left] == \
        [[(k, key(v)) for k, v in row.items()] for row in right]


def test_wal_bytes_are_frozen(tmp_path: Path) -> None:
    wal = tmp_path / "wal.jsonl"
    _write_wal(wal).close()
    assert wal.read_bytes() == (GOLDEN / "budget_wal.jsonl").read_bytes()


def test_golden_wal_replays_to_the_writer_accounts(tmp_path: Path) -> None:
    live = _write_wal(tmp_path / "live.jsonl")
    wal = tmp_path / "golden.jsonl"
    shutil.copyfile(GOLDEN / "budget_wal.jsonl", wal)
    with BudgetLedger(wal, default_cap=1.0) as replayed:
        assert replayed.replayed_records == 6
        assert replayed.seq == live.seq == 6
        assert replayed.accounts() == live.accounts()
        assert replayed.spend_hex("alice") == (0.1 + 0.013).hex()
    live.close()


def test_checkpoint_bytes_are_frozen(tmp_path: Path) -> None:
    path = tmp_path / "ck.jsonl"
    with SweepCheckpoint(str(path), SWEEP_FINGERPRINT, CASE_FINGERPRINTS) as ck:
        for index, rows in ROWS.items():
            ck.record(index, rows)
    assert path.read_bytes() == (GOLDEN / "sweep_checkpoint.jsonl").read_bytes()


def test_golden_checkpoint_replays_to_the_recorded_rows(tmp_path: Path) -> None:
    path = tmp_path / "ck.jsonl"
    shutil.copyfile(GOLDEN / "sweep_checkpoint.jsonl", path)
    with SweepCheckpoint(str(path), SWEEP_FINGERPRINT, CASE_FINGERPRINTS) as ck:
        completed = ck.completed
    assert sorted(completed) == sorted(ROWS)
    for index, rows in ROWS.items():
        assert _same_rows(completed[index], rows), index
        assert [list(row) for row in completed[index]] == [list(row) for row in rows]
    assert math.copysign(1.0, completed[2][0]["neg"]) == -1.0
    assert path.read_bytes() == (GOLDEN / "sweep_checkpoint.jsonl").read_bytes()
