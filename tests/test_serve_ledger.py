"""Tests for the crash-safe budget ledger (:mod:`repro.serve.ledger`).

The contract under test is the one that makes the serving layer safe to
crash: a charge is durable before it is granted (charge-before-answer), a
failed WAL write spends nothing (fail closed), and a replayed ledger's
per-analyst spend is **bitwise identical** to the pre-crash total — including
after a hard ``SIGKILL`` mid-stream and after a torn final record.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
from pathlib import Path

import pytest

from repro.privacy.accountant import BUDGET_TOLERANCE
from repro.serve import BudgetExceeded, BudgetLedger, LedgerError

#: Charges with awkward binary expansions: exactly the values where a
#: decimal round-trip would drift and only the hex path stays bitwise.
EPSILONS = [0.1, 0.07, 0.013, 0.2 / 3.0, 0.0101, 0.04, 0.1 / 7.0]


def test_charge_accumulates_and_refuses(tmp_path: Path) -> None:
    ledger = BudgetLedger(tmp_path / "wal.jsonl", default_cap=0.3)
    remaining = ledger.charge("alice", 0.1)
    assert remaining == pytest.approx(0.2)
    ledger.charge("alice", 0.1)
    ledger.charge("alice", 0.1)
    with pytest.raises(BudgetExceeded) as excinfo:
        ledger.charge("alice", 0.1)
    assert excinfo.value.analyst == "alice"
    assert excinfo.value.requested == pytest.approx(0.1)
    assert excinfo.value.remaining <= BUDGET_TOLERANCE
    # The refusal wrote nothing: seq counts only the three grants.
    assert ledger.seq == 3
    assert not ledger.try_charge("alice", 0.1)
    # Other analysts are unaffected (independent accounts).
    assert ledger.try_charge("bob", 0.1)
    ledger.close()


def test_charge_rejects_bad_inputs(tmp_path: Path) -> None:
    with pytest.raises(ValueError):
        BudgetLedger(tmp_path / "wal.jsonl", default_cap=0.0)
    ledger = BudgetLedger(tmp_path / "wal.jsonl")
    for epsilon in (0.0, -0.5, float("nan"), float("inf")):
        with pytest.raises(ValueError):
            ledger.charge("alice", epsilon)
    for cap in (0.0, float("nan"), float("inf")):
        with pytest.raises(ValueError):
            ledger.set_cap("alice", cap)
    ledger.close()


def test_replay_is_bitwise_identical(tmp_path: Path) -> None:
    wal = tmp_path / "wal.jsonl"
    ledger = BudgetLedger(wal, default_cap=10.0)
    for i, epsilon in enumerate(EPSILONS):
        ledger.charge("alice" if i % 2 == 0 else "bob", epsilon, request_id=i + 1)
    before = {name: ledger.spend_hex(name) for name in ("alice", "bob")}
    before_accounts = ledger.accounts()
    seq = ledger.seq
    ledger.close()

    replayed = BudgetLedger(wal, default_cap=10.0)
    assert replayed.replayed_records == len(EPSILONS)
    assert replayed.seq == seq
    for name in ("alice", "bob"):
        assert replayed.spend_hex(name) == before[name]
    assert replayed.accounts() == before_accounts
    # The replayed ledger keeps serving: the next charge continues the seq.
    replayed.charge("alice", 0.01)
    assert replayed.seq == seq + 1
    replayed.close()


def test_torn_tail_is_truncated_and_survivable(tmp_path: Path) -> None:
    wal = tmp_path / "wal.jsonl"
    ledger = BudgetLedger(wal, default_cap=1.0)
    ledger.charge("alice", 0.1)
    ledger.charge("alice", 0.2)
    spend = ledger.spend_hex("alice")
    ledger.close()

    intact = wal.read_bytes()
    # A crash mid-append leaves a prefix of the next record with no newline.
    wal.write_bytes(intact + b'{"kind": "charge", "seq": 3, "analys')
    replayed = BudgetLedger(wal, default_cap=1.0)
    assert replayed.replayed_records == 2
    assert replayed.spend_hex("alice") == spend
    # The torn bytes are gone from disk, and the next append lands cleanly.
    assert wal.read_bytes() == intact
    replayed.charge("alice", 0.3)
    replayed.close()
    third = BudgetLedger(wal, default_cap=1.0)
    assert third.replayed_records == 3
    third.close()


def test_mid_file_corruption_raises(tmp_path: Path) -> None:
    wal = tmp_path / "wal.jsonl"
    ledger = BudgetLedger(wal, default_cap=1.0)
    ledger.charge("alice", 0.1)
    ledger.charge("alice", 0.1)
    ledger.close()
    lines = wal.read_bytes().splitlines(keepends=True)
    wal.write_bytes(lines[0] + b"NOT JSON AT ALL\n" + lines[1])
    with pytest.raises(LedgerError, match="corrupt record"):
        BudgetLedger(wal, default_cap=1.0)


def test_sequence_gap_raises(tmp_path: Path) -> None:
    wal = tmp_path / "wal.jsonl"
    ledger = BudgetLedger(wal, default_cap=1.0)
    ledger.charge("alice", 0.1)
    ledger.charge("alice", 0.1)
    ledger.charge("alice", 0.1)
    ledger.close()
    lines = wal.read_bytes().splitlines(keepends=True)
    wal.write_bytes(lines[0] + lines[2])  # drop the middle record
    with pytest.raises(LedgerError, match="sequence gap"):
        BudgetLedger(wal, default_cap=1.0)


#: A crash's partial last line, appended to every refused WAL below: replay
#: must refuse before it truncates anything.
TORN_TAIL = '{"analyst": "alice", "epsilon": 0.1, "epsil'


def _refused_wal(tmp_path: Path, mutate) -> Path:
    """A cap + two charges, rewritten through ``mutate(records)`` plus a torn tail."""
    wal = tmp_path / "wal.jsonl"
    ledger = BudgetLedger(wal, default_cap=1.0)
    ledger.set_cap("alice", 0.5)
    ledger.charge("alice", 0.1, request_id=1)
    ledger.charge("alice", 0.1, request_id=2)
    ledger.close()
    records = [json.loads(line) for line in wal.read_text().splitlines()]
    wal.write_text("".join(json.dumps(r, sort_keys=True) + "\n" for r in mutate(records))
                   + TORN_TAIL)
    return wal


def _drop(record: dict, key: str) -> dict:
    return {k: v for k, v in record.items() if k != key}


@pytest.mark.parametrize("mutate", [
    pytest.param(lambda r: [r[0], _drop(r[1], "seq"), r[2]], id="no-seq"),
    pytest.param(lambda r: [r[0], dict(r[1], seq="2"), r[2]], id="string-seq"),
    pytest.param(lambda r: [r[0], dict(r[1], seq=2.0), r[2]], id="float-seq"),
    pytest.param(lambda r: [r[0], _drop(r[1], "epsilon_hex"), r[2]], id="no-epsilon-hex"),
    pytest.param(lambda r: [_drop(r[0], "cap_hex"), r[1], r[2]], id="no-cap-hex"),
    pytest.param(lambda r: [r[0], _drop(r[1], "analyst"), r[2]], id="no-analyst"),
    pytest.param(lambda r: [r[0], dict(r[1], epsilon_hex="nan"), r[2]], id="nan-charge"),
])
def test_mid_file_corruption_raises_and_leaves_wal(tmp_path: Path, mutate) -> None:
    wal = _refused_wal(tmp_path, mutate)
    before = wal.read_bytes()
    with pytest.raises(LedgerError, match="corrupt record"):
        BudgetLedger(wal, default_cap=1.0)
    assert wal.read_bytes() == before


@pytest.mark.parametrize("mutate", [
    pytest.param(lambda r: [r[0], r[2]], id="gap"),
    pytest.param(lambda r: [r[0], r[1], r[1]], id="repeated-seq"),
    pytest.param(lambda r: r[1:], id="first-record-missing"),
])
def test_sequence_gap_raises_and_leaves_wal(tmp_path: Path, mutate) -> None:
    wal = _refused_wal(tmp_path, mutate)
    before = wal.read_bytes()
    with pytest.raises(LedgerError, match="sequence gap"):
        BudgetLedger(wal, default_cap=1.0)
    assert wal.read_bytes() == before


def test_set_cap_is_durable(tmp_path: Path) -> None:
    wal = tmp_path / "wal.jsonl"
    ledger = BudgetLedger(wal, default_cap=0.1)
    ledger.set_cap("alice", 2.5)
    ledger.charge("alice", 1.0)  # would exceed the default cap
    ledger.close()
    replayed = BudgetLedger(wal, default_cap=0.1)
    assert replayed.remaining("alice") == pytest.approx(1.5)
    assert replayed.accounts()["alice"]["cap"] == 2.5
    replayed.close()


def test_wal_io_error_fails_closed(tmp_path: Path) -> None:
    wal = tmp_path / "wal.jsonl"
    fail = {"on": False}

    def hook(record):
        if fail["on"]:
            raise OSError("injected wal-io-error")

    ledger = BudgetLedger(wal, default_cap=1.0, io_hook=hook)
    ledger.charge("alice", 0.25)
    size = wal.stat().st_size
    spend = ledger.spend_hex("alice")

    fail["on"] = True
    with pytest.raises(OSError):
        ledger.charge("alice", 0.25)
    # Fail closed: nothing durable, nothing spent, seq unmoved.
    assert wal.stat().st_size == size
    assert ledger.spend_hex("alice") == spend
    assert ledger.seq == 1

    fail["on"] = False  # the disk recovers; service resumes where it was
    ledger.charge("alice", 0.25)
    assert ledger.seq == 2
    ledger.close()
    replayed = BudgetLedger(wal, default_cap=1.0)
    assert replayed.replayed_records == 2
    replayed.close()


def test_wal_is_human_auditable_json_lines(tmp_path: Path) -> None:
    wal = tmp_path / "wal.jsonl"
    ledger = BudgetLedger(wal, default_cap=1.0)
    ledger.set_cap("alice", 0.5)
    ledger.charge("alice", 0.125, request_id=41)
    ledger.close()
    records = [json.loads(line) for line in wal.read_text().splitlines()]
    assert [record["kind"] for record in records] == ["cap", "charge"]
    assert records[0]["cap"] == 0.5
    assert records[1] == {
        "analyst": "alice", "epsilon": 0.125, "epsilon_hex": (0.125).hex(),
        "kind": "charge", "request": 41, "seq": 2,
    }


_SIGKILL_CHILD = """
import os, signal, sys
sys.path.insert(0, {src!r})
from repro.serve import BudgetLedger
ledger = BudgetLedger(sys.argv[1], default_cap=100.0)
for i in range(25):
    ledger.charge("alice", 0.1 / 7.0)
    ledger.charge("bob", 0.2 / 3.0)
    # Report the durable spend after every round; the parent trusts only
    # the last line that made it out before the kill.
    print(ledger.spend_hex("alice"), ledger.spend_hex("bob"), flush=True)
    if i == 17:
        os.kill(os.getpid(), signal.SIGKILL)
"""


def test_sigkill_mid_stream_replays_exact_spend(tmp_path: Path) -> None:
    """Hard-kill a charging process; the WAL replay matches its last report.

    This is the crash-safety acceptance test: no atexit hooks, no flush-on
    -close grace — ``SIGKILL`` at an arbitrary point in the charge stream,
    then a fresh process replays the WAL and lands on exactly the spend the
    victim had durably granted (bitwise, via ``float.hex``).
    """
    src = str(Path(__file__).resolve().parent.parent / "src")
    wal = tmp_path / "wal.jsonl"
    proc = subprocess.run(
        [sys.executable, "-c", _SIGKILL_CHILD.format(src=src), str(wal)],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == -signal.SIGKILL
    reports = proc.stdout.strip().splitlines()
    assert reports, "child died before any durable charge"
    last_alice, last_bob = reports[-1].split()

    replayed = BudgetLedger(wal, default_cap=100.0)
    # The kill can land between a charge's fsync and its stdout report; the
    # WAL may therefore be *ahead* of the last report (wasted budget), never
    # behind it (lost spend) — rebuild the reported state by record count.
    assert replayed.replayed_records >= 2 * len(reports)
    check = BudgetLedger(tmp_path / "check.jsonl", default_cap=100.0)
    for record in [
        json.loads(line) for line in wal.read_text().splitlines()
    ][: 2 * len(reports)]:
        check.charge(record["analyst"], float.fromhex(record["epsilon_hex"]))
    assert check.spend_hex("alice") == last_alice
    assert check.spend_hex("bob") == last_bob
    replayed.close()
    check.close()


def test_context_manager_and_unknown_analyst(tmp_path: Path) -> None:
    with BudgetLedger(tmp_path / "wal.jsonl", default_cap=0.75) as ledger:
        assert ledger.spend("nobody") == 0.0
        assert ledger.remaining("nobody") == 0.75
        assert ledger.accounts() == {}
