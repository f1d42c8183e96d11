"""Crash-safe sweep checkpoints: a journal of completed cases, replayable bitwise.

A paper-scale sweep is hours of compute whose unit of loss used to be the
whole run: one worker OOM, one SIGKILL, one power cut and every finished
case evaporated with the process.  This module gives :func:`repro.experiments.common.run_sweep`
a durable spine — a :class:`repro.durable.journal.Journal` of finished cases:

* **journal-on-completion** — the moment a case's rows are computed they are
  appended to the journal and ``fsync``\\ ed, before the sweep moves on.  A
  crash at any point therefore loses at most the cases still in flight;
* **bitwise replay** — every float in a journaled row travels as
  ``float.hex()`` (with a decimal rendering alongside for human audit), so a
  replayed row is bit-for-bit the row the original run computed.  Combined
  with the per-case ``SeedSequence.spawn`` contract (case ``i``'s stream
  depends only on the sweep seed and ``i``, never on what other cases drew),
  a resumed sweep — replayed cases from the journal, remaining cases
  recomputed on their own spawned streams — is **bitwise identical** to an
  uninterrupted run;
* **fingerprints, not faith** — the journal header records a fingerprint of
  the whole sweep (every case's label, row keys and spawned-stream key, plus
  the workload content hashes) and each case record carries its own case
  fingerprint.  A journal written by a *different* sweep (other seed, other
  grid, other workloads) refuses to resume — replaying it would silently
  splice foreign rows into the output;
* **torn-tail tolerance, nothing more** — a crash mid-append leaves a
  partial last line; once every complete line has validated, replay drops it
  and truncates the file back to the last complete record.  Any *other*
  malformation refuses to resume with a named error (below) and leaves the
  file untouched: a checkpoint must never guess which cases are done.

Named refusal errors
--------------------
=================================  =========================================
:class:`CheckpointHeaderError`     the sweep header record is missing, torn
                                   or not a header — e.g. the file was
                                   truncated from the front
:class:`CheckpointCorruptError`    a complete line is not a valid journal
                                   record (garbage, duplicate case, bad
                                   index)
:class:`CheckpointSequenceGapError` record ``seq`` numbers are not
                                   contiguous — records missing or reordered
:class:`CheckpointMismatchError`   a fingerprint disagrees: the journal
                                   belongs to a different sweep (seed, case
                                   grid or workloads changed)
=================================  =========================================

File format (one JSON object per line)::

    {"kind": "sweep", "seq": 1, "fingerprint": "<sha1>", "cases": N}
    {"kind": "case",  "seq": 2, "case": 3, "fingerprint": "<sha1>",
     "rows": [{"epsilon": {"f64": "0x1p-1", "approx": "0.5"}, ...}, ...]}
"""

from __future__ import annotations

from typing import Dict, List, Sequence

from ..durable.journal import Journal, JournalError
from ..obs import counter_add, trace_span

__all__ = [
    "CheckpointError",
    "CheckpointHeaderError",
    "CheckpointCorruptError",
    "CheckpointSequenceGapError",
    "CheckpointMismatchError",
    "SweepCheckpoint",
    "encode_rows",
    "decode_rows",
]


class CheckpointError(JournalError):
    """Base class: the checkpoint journal cannot be trusted for a resume."""


class CheckpointHeaderError(CheckpointError):
    """The sweep header record is missing, torn, or not a header record."""


class CheckpointCorruptError(CheckpointError):
    """A complete journal line is not a valid record (garbage bytes,
    duplicate or out-of-range case index, wrong record kind)."""


class CheckpointSequenceGapError(CheckpointError):
    """Record sequence numbers are not contiguous — records were lost or
    reordered somewhere other than the torn tail."""


class CheckpointMismatchError(CheckpointError):
    """The journal's fingerprints belong to a different sweep (different
    seed, case grid, workloads or case count)."""


# ----------------------------------------------------------------------
# Row codec: floats as hex, everything else as native JSON scalars
# ----------------------------------------------------------------------
def _encode_value(value):
    if isinstance(value, bool) or value is None or isinstance(value, (int, str)):
        return value
    if isinstance(value, float):
        # repr() of a NaN is not valid strict JSON, so the human-readable
        # rendering travels as a string; the hex field is the value of record.
        return {"f64": value.hex(), "approx": repr(value)}
    raise TypeError(
        f"sweep rows must contain only scalars (str/int/float/bool/None); "
        f"got {type(value).__name__}"
    )


def _decode_value(value):
    if isinstance(value, dict):
        try:
            return float.fromhex(value["f64"])
        except (KeyError, TypeError, ValueError) as exc:
            raise CheckpointCorruptError(f"malformed float record {value!r}") from exc
    return value


def encode_rows(rows: Sequence[Dict[str, object]]) -> List[Dict[str, object]]:
    """Journal form of a case's result rows: float values hex-encoded,
    key order preserved (rows replay in exactly their computed shape)."""
    return [{key: _encode_value(val) for key, val in row.items()} for row in rows]


def decode_rows(rows: Sequence[Dict[str, object]]) -> List[Dict[str, object]]:
    """Inverse of :func:`encode_rows`; bitwise-exact floats via ``fromhex``."""
    return [{key: _decode_value(val) for key, val in row.items()} for row in rows]


# ----------------------------------------------------------------------
class SweepCheckpoint:
    """The journal of one sweep: completed case rows, durable and replayable.

    Parameters
    ----------
    path:
        The journal file.  Created with a header record if missing or empty;
        replayed (and validated against the fingerprints) if present.
    sweep_fingerprint:
        Content hash of the whole sweep (cases + streams + workloads); must
        match an existing journal's header or the resume is refused.
    case_fingerprints:
        Per-case content hashes, indexed by case position; each replayed
        case record must match its slot.

    After construction, :attr:`completed` maps case index → decoded rows for
    every case already journaled; :meth:`record` appends (and fsyncs) a
    freshly finished case.  All floats round-trip bitwise via ``float.hex``.
    """

    def __init__(
        self,
        path: str,
        sweep_fingerprint: str,
        case_fingerprints: Sequence[str],
    ) -> None:
        self.path = str(path)
        self.sweep_fingerprint = str(sweep_fingerprint)
        self.case_fingerprints = [str(f) for f in case_fingerprints]
        self._completed: Dict[int, List[Dict[str, object]]] = {}
        with trace_span("checkpoint.open", path=self.path):
            self._journal = Journal(
                self.path,
                self._apply,
                header_error=CheckpointHeaderError,
                corrupt_error=CheckpointCorruptError,
                gap_error=CheckpointSequenceGapError,
            )
            if self._journal.seq == 0:
                self._journal.append(
                    {
                        "kind": "sweep",
                        "fingerprint": self.sweep_fingerprint,
                        "cases": len(self.case_fingerprints),
                    }
                )
        counter_add("checkpoint.cases_replayed", len(self._completed))

    # ------------------------------------------------------------------
    @property
    def completed(self) -> Dict[int, List[Dict[str, object]]]:
        """Case index → replayed rows for every case already journaled."""
        return dict(self._completed)

    @property
    def n_completed(self) -> int:
        return len(self._completed)

    # ------------------------------------------------------------------
    def _apply(self, record: Dict[str, object]) -> None:
        """Validate one replayed record against the fingerprints and keep its rows."""
        kind = record["kind"]
        if record["seq"] == 1:  # the journal has checked seq: this is the first record
            if kind != "sweep":
                raise CheckpointHeaderError(
                    f"checkpoint {self.path}: first record must be the sweep "
                    f"header, found kind {kind!r}"
                )
            if record.get("fingerprint") != self.sweep_fingerprint:
                raise CheckpointMismatchError(
                    f"checkpoint {self.path}: journal belongs to a different "
                    f"sweep (header fingerprint {record.get('fingerprint')!r} != "
                    f"expected {self.sweep_fingerprint!r}); refusing to splice "
                    f"its rows into this run"
                )
            if record.get("cases") != len(self.case_fingerprints):
                raise CheckpointMismatchError(
                    f"checkpoint {self.path}: journal covers "
                    f"{record.get('cases')} cases, this sweep has "
                    f"{len(self.case_fingerprints)}"
                )
            return
        if kind != "case":
            raise CheckpointCorruptError(
                f"checkpoint {self.path}: unknown record kind {kind!r}"
            )
        index = int(record["case"])
        if not 0 <= index < len(self.case_fingerprints):
            raise CheckpointCorruptError(
                f"checkpoint {self.path}: case index {index} out of range "
                f"[0, {len(self.case_fingerprints)})"
            )
        if index in self._completed:
            raise CheckpointCorruptError(
                f"checkpoint {self.path}: case {index} journaled twice"
            )
        if record.get("fingerprint") != self.case_fingerprints[index]:
            raise CheckpointMismatchError(
                f"checkpoint {self.path}: case {index} fingerprint "
                f"{record.get('fingerprint')!r} != expected "
                f"{self.case_fingerprints[index]!r} (different seed, stream or "
                f"case definition)"
            )
        rows = record.get("rows")
        if not isinstance(rows, list):
            raise CheckpointCorruptError(
                f"checkpoint {self.path}: case {index} record has no rows list"
            )
        self._completed[index] = decode_rows(rows)

    def record(self, case_index: int, rows: Sequence[Dict[str, object]]) -> None:
        """Journal one freshly completed case (append + fsync)."""
        index = int(case_index)
        if index in self._completed:
            return  # replayed earlier in this same resume; nothing to add
        self._journal.append(
            {
                "kind": "case",
                "case": index,
                "fingerprint": self.case_fingerprints[index],
                "rows": encode_rows(list(rows)),
            }
        )
        self._completed[index] = [dict(row) for row in rows]
        counter_add("checkpoint.cases_journaled")

    # ------------------------------------------------------------------
    def close(self) -> None:
        """Close the append handle (idempotent); the journal stays on disk."""
        self._journal.close()

    def __enter__(self) -> "SweepCheckpoint":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
