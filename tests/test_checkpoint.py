"""Tests for the crash-safe sweep layer: checkpoint journal + fault tolerance.

The load-bearing contracts:

* **bitwise resume** — a sweep journaled to a checkpoint and resumed (after a
  truncation, or after an actual SIGKILL of the process, tested end to end in
  a subprocess with hex-encoded floats) produces rows bitwise identical to an
  uninterrupted run;
* **refusal before guessing** — a corrupted journal (torn header, garbage
  record, sequence gap, foreign fingerprint, duplicate case) refuses to
  resume with a *distinct named error*; only a torn tail after a valid
  header is tolerated (truncate + resume);
* **fault-tolerant parity** — kill-worker / oom-worker / slow-case fault
  schedules, pool rebuilds, timeout retries and graceful degradation all
  leave ``workers=N`` rows bitwise equal to a healthy ``workers=1`` run.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import time

import numpy as np
import pytest

from repro.core.flatbuild import build_flat_structure
from repro.core.splits import QuadSplit
from repro.data import road_intersections
from repro.experiments import ExperimentScale, make_workloads
from repro.experiments.common import run_sweep
from repro.experiments.fig3 import quadtree_sweep_case
from repro.geometry import TIGER_DOMAIN
from repro.parallel.checkpoint import (
    CheckpointCorruptError,
    CheckpointError,
    CheckpointHeaderError,
    CheckpointMismatchError,
    CheckpointSequenceGapError,
    SweepCheckpoint,
    decode_rows,
    encode_rows,
)
from repro.queries import KD_QUERY_SHAPES

SCALE = ExperimentScale.smoke()


@pytest.fixture(scope="module")
def points():
    return road_intersections(n=2_500, rng=0)


@pytest.fixture(scope="module")
def workloads(points):
    return make_workloads(points, KD_QUERY_SHAPES[:1], SCALE, rng=1)


@pytest.fixture(scope="module")
def cases(points):
    structure = build_flat_structure(points, TIGER_DOMAIN, 4, QuadSplit(), 0.0)
    return [
        quadtree_sweep_case(points, TIGER_DOMAIN, 4, (0.1, 0.5), 1, variant, structure)
        for variant in ("quad-baseline", "quad-opt", "quad-geo", "quad-post")
    ]


@pytest.fixture(scope="module")
def reference(cases, workloads):
    return run_sweep(cases, workloads, rng=0)


def _journal(tmp_path, cases, workloads, name="ck.jsonl"):
    """A complete, healthy journal of the reference sweep."""
    path = tmp_path / name
    run_sweep(cases, workloads, rng=0, checkpoint=str(path))
    return path


# ----------------------------------------------------------------------
# Row codec: floats travel as hex, bitwise
# ----------------------------------------------------------------------
class TestRowCodec:
    def test_floats_roundtrip_bitwise(self):
        rows = [{"epsilon": 0.1, "err": 1.0 / 3.0, "neg": -0.0,
                 "inf": float("inf"), "nan": float("nan"),
                 "label": "x", "count": 7, "flag": True, "none": None}]
        # the encoded form is strict JSON (json.dumps default settings)
        encoded = json.loads(json.dumps(encode_rows(rows)))
        decoded = decode_rows(encoded)
        for key in ("epsilon", "err", "neg", "inf", "nan"):
            assert decoded[0][key].hex() == rows[0][key].hex(), key
        for key in ("label", "count", "flag", "none"):
            assert decoded[0][key] == rows[0][key]
        assert isinstance(decoded[0]["flag"], bool)
        # key insertion order survives, so resumed JSON output is byte-equal
        assert list(decoded[0]) == list(rows[0])

    def test_non_scalars_rejected(self):
        with pytest.raises(TypeError, match="scalars"):
            encode_rows([{"bad": np.arange(3)}])
        with pytest.raises(TypeError, match="scalars"):
            encode_rows([{"bad": [1, 2]}])

    def test_malformed_float_record_refused(self):
        with pytest.raises(CheckpointCorruptError):
            decode_rows([{"v": {"f64": "not-hex"}}])


# ----------------------------------------------------------------------
# Resume parity
# ----------------------------------------------------------------------
class TestCheckpointResume:
    def test_journal_then_full_replay_is_bitwise(self, cases, workloads, reference, tmp_path):
        path = _journal(tmp_path, cases, workloads)
        before = path.read_bytes()
        replayed = run_sweep(cases, workloads, rng=0, checkpoint=str(path))
        assert json.dumps(replayed) == json.dumps(reference)
        assert path.read_bytes() == before  # replay appends nothing

    def test_partial_journal_resumes_bitwise(self, cases, workloads, reference, tmp_path):
        path = _journal(tmp_path, cases, workloads)
        lines = path.read_bytes().splitlines(keepends=True)
        assert len(lines) == 1 + len(cases)
        path.write_bytes(b"".join(lines[:2]))  # header + first case only
        resumed = run_sweep(cases, workloads, rng=0, checkpoint=str(path))
        assert json.dumps(resumed) == json.dumps(reference)
        # the journal is complete again after the resume
        assert len(path.read_bytes().splitlines()) == 1 + len(cases)

    def test_parallel_resume_matches_sequential(self, cases, workloads, reference, tmp_path):
        path = _journal(tmp_path, cases, workloads)
        lines = path.read_bytes().splitlines(keepends=True)
        path.write_bytes(b"".join(lines[:3]))
        resumed = run_sweep(cases, workloads, rng=0, workers=2, checkpoint=str(path))
        assert json.dumps(resumed) == json.dumps(reference)

    def test_fresh_parallel_checkpoint_matches(self, cases, workloads, reference, tmp_path):
        path = tmp_path / "parallel.jsonl"
        rows = run_sweep(cases, workloads, rng=0, workers=2, checkpoint=str(path))
        assert json.dumps(rows) == json.dumps(reference)
        records = [json.loads(line) for line in path.read_text().splitlines()]
        assert records[0]["kind"] == "sweep"
        assert sorted(r["case"] for r in records[1:]) == list(range(len(cases)))

    def test_torn_tail_is_truncated_and_resumed(self, cases, workloads, reference, tmp_path):
        path = _journal(tmp_path, cases, workloads)
        lines = path.read_bytes().splitlines(keepends=True)
        torn = b"".join(lines[:2]) + lines[2][:-10]  # mid-append crash
        path.write_bytes(torn)
        resumed = run_sweep(cases, workloads, rng=0, checkpoint=str(path))
        assert json.dumps(resumed) == json.dumps(reference)

    def test_full_replay_starts_no_pool(self, cases, workloads, reference, tmp_path,
                                        monkeypatch):
        import repro.parallel.pool as pool_mod

        path = _journal(tmp_path, cases, workloads)

        def no_pool(*args, **kwargs):
            raise AssertionError("a fully journaled sweep must not start a pool")

        monkeypatch.setattr(pool_mod, "ProcessPoolExecutor", no_pool)
        replayed = run_sweep(cases, workloads, rng=0, workers=2, checkpoint=str(path))
        assert json.dumps(replayed) == json.dumps(reference)


# ----------------------------------------------------------------------
# Corruption refusal matrix: distinct named error per failure mode
# ----------------------------------------------------------------------
class TestCheckpointRefusal:
    @pytest.fixture()
    def journal(self, cases, workloads, tmp_path):
        return _journal(tmp_path, cases, workloads)

    def _resume(self, cases, workloads, path):
        return run_sweep(cases, workloads, rng=0, checkpoint=str(path))

    def test_torn_header_refuses(self, cases, workloads, journal):
        first = journal.read_bytes().splitlines(keepends=True)[0]
        journal.write_bytes(first[:-10])  # no newline: torn mid-header
        with pytest.raises(CheckpointHeaderError):
            self._resume(cases, workloads, journal)

    def test_garbage_header_refuses(self, cases, workloads, journal):
        rest = b"".join(journal.read_bytes().splitlines(keepends=True)[1:])
        journal.write_bytes(b"not json at all\n" + rest)
        with pytest.raises(CheckpointHeaderError):
            self._resume(cases, workloads, journal)

    def test_garbage_mid_file_refuses(self, cases, workloads, journal):
        lines = journal.read_bytes().splitlines(keepends=True)
        lines[2] = b'{"broken\n'
        journal.write_bytes(b"".join(lines))
        with pytest.raises(CheckpointCorruptError):
            self._resume(cases, workloads, journal)

    def test_sequence_gap_refuses(self, cases, workloads, journal):
        lines = journal.read_bytes().splitlines(keepends=True)
        del lines[2]  # a record vanished somewhere other than the tail
        journal.write_bytes(b"".join(lines))
        with pytest.raises(CheckpointSequenceGapError):
            self._resume(cases, workloads, journal)

    def test_foreign_sweep_fingerprint_refuses(self, cases, workloads, journal):
        # same grid, different seed: the journaled rows belong to other streams
        with pytest.raises(CheckpointMismatchError):
            run_sweep(cases, workloads, rng=1, checkpoint=str(journal))

    def test_case_count_mismatch_refuses(self, cases, workloads, journal):
        with pytest.raises(CheckpointMismatchError):
            run_sweep(cases[:2], workloads, rng=0, checkpoint=str(journal))

    def test_tampered_case_fingerprint_refuses(self, cases, workloads, journal):
        lines = journal.read_text().splitlines(keepends=True)
        record = json.loads(lines[1])
        record["fingerprint"] = "0" * 40
        lines[1] = json.dumps(record) + "\n"
        journal.write_text("".join(lines))
        with pytest.raises(CheckpointMismatchError):
            self._resume(cases, workloads, journal)

    def test_duplicate_case_refuses(self, cases, workloads, journal):
        lines = journal.read_text().splitlines(keepends=True)
        dup = json.loads(lines[1])
        dup["seq"] = len(lines) + 1
        journal.write_text("".join(lines) + json.dumps(dup) + "\n")
        with pytest.raises(CheckpointCorruptError):
            self._resume(cases, workloads, journal)

    def test_error_taxonomy_is_catchable(self):
        for err in (CheckpointHeaderError, CheckpointCorruptError,
                    CheckpointSequenceGapError, CheckpointMismatchError):
            assert issubclass(err, CheckpointError)
            assert issubclass(err, ValueError)

    def test_out_of_range_case_index_refuses(self, tmp_path):
        path = tmp_path / "ck.jsonl"
        ck = SweepCheckpoint(str(path), "f" * 40, ["a" * 40])
        ck.record(0, [{"x": 1.0}])
        ck.close()
        lines = path.read_text().splitlines(keepends=True)
        record = json.loads(lines[1])
        record["case"] = 5
        lines[1] = json.dumps(record) + "\n"
        path.write_text("".join(lines))
        with pytest.raises(CheckpointCorruptError):
            SweepCheckpoint(str(path), "f" * 40, ["a" * 40])


# ----------------------------------------------------------------------
# Worker fault tolerance: every recovery path preserves bitwise parity
# ----------------------------------------------------------------------
class TestFaultToleranceParity:
    def test_kill_worker_rebuild_parity(self, cases, workloads, reference):
        rows = run_sweep(cases, workloads, rng=0, workers=2, faults="kill-worker:2")
        assert json.dumps(rows) == json.dumps(reference)

    def test_oom_worker_inproc_fallback_parity(self, cases, workloads, reference):
        rows = run_sweep(cases, workloads, rng=0, workers=2, faults="oom-worker:2")
        assert json.dumps(rows) == json.dumps(reference)

    def test_slow_case_timeout_retry_parity(self, cases, workloads, reference):
        # every submission sleeps past the soft timeout: each case is retried
        # once, then falls back to in-process execution — rows unchanged
        rows = run_sweep(cases, workloads, rng=0, workers=2,
                         faults="slow-case:1:0.3", case_timeout=0.05)
        assert json.dumps(rows) == json.dumps(reference)

    def test_graceful_degradation_after_max_rebuilds(self, cases, workloads, reference):
        # every submission kills its worker; after max_rebuilds=1 the sweep
        # must degrade to in-process execution and still finish bit-exact
        rows = run_sweep(cases, workloads, rng=0, workers=2,
                         faults="kill-worker:1", max_rebuilds=1)
        assert json.dumps(rows) == json.dumps(reference)

    def test_kill_worker_with_checkpoint(self, cases, workloads, reference, tmp_path):
        path = tmp_path / "chaos.jsonl"
        rows = run_sweep(cases, workloads, rng=0, workers=2,
                         faults="kill-worker:3", checkpoint=str(path))
        assert json.dumps(rows) == json.dumps(reference)
        records = [json.loads(line) for line in path.read_text().splitlines()]
        assert sorted(r["case"] for r in records[1:]) == list(range(len(cases)))

    def test_faults_require_workers(self, cases, workloads):
        with pytest.raises(ValueError, match="workers > 1"):
            run_sweep(cases, workloads, rng=0, faults="kill-worker:2")

    def test_serving_fault_kinds_rejected(self, cases, workloads):
        with pytest.raises(ValueError, match="not sweep faults"):
            run_sweep(cases, workloads, rng=0, workers=2, faults="wal-io-error:2")


# ----------------------------------------------------------------------
# The end-to-end contract: SIGKILL mid-sweep, resume, hex-identical output
# ----------------------------------------------------------------------
_SWEEP_SCRIPT = """\
import json, sys
from repro.experiments.common import ExperimentScale
from repro.experiments.fig3 import run_fig3

ck, out = sys.argv[1], sys.argv[2]
rows = run_fig3(scale=ExperimentScale.smoke(), rng=0,
                checkpoint=None if ck == "-" else ck)
hexed = [[(k, v.hex() if isinstance(v, float) else v) for k, v in row.items()]
         for row in rows]
with open(out, "w") as handle:
    handle.write(json.dumps(hexed))
"""


class TestSigkillResume:
    def test_sigkill_resume_hex_identical(self, tmp_path):
        script = tmp_path / "sweep.py"
        script.write_text(_SWEEP_SCRIPT)
        ck = tmp_path / "ck.jsonl"
        out_ref = tmp_path / "ref.json"
        out_resumed = tmp_path / "resumed.json"
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (os.path.join(os.getcwd(), "src"), env.get("PYTHONPATH")) if p
        )

        # Uninterrupted reference (no checkpoint involved at all).
        subprocess.run([sys.executable, str(script), "-", str(out_ref)],
                       check=True, env=env, timeout=300)

        # Kill the journaled run as soon as its first case record lands.
        proc = subprocess.Popen([sys.executable, str(script), str(ck),
                                 str(out_resumed)], env=env)
        deadline = time.monotonic() + 300
        killed = False
        while time.monotonic() < deadline:
            if proc.poll() is not None:
                break
            if ck.exists() and b'"kind": "case"' in ck.read_bytes():
                proc.send_signal(signal.SIGKILL)
                killed = True
                break
            time.sleep(0.005)
        proc.wait(timeout=60)
        assert killed, "sweep finished before the harness could SIGKILL it"
        assert proc.returncode == -signal.SIGKILL
        assert not out_resumed.exists()
        journaled = ck.read_bytes().count(b'"kind": "case"')
        assert 1 <= journaled < 4, journaled  # genuinely interrupted mid-sweep

        # Resume: replay the journal, compute the rest, write the final rows.
        subprocess.run([sys.executable, str(script), str(ck),
                        str(out_resumed)], check=True, env=env, timeout=300)
        assert out_resumed.read_bytes() == out_ref.read_bytes()
