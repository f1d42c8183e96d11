"""The append-only journal behind every crash-safe file in the system.

The serving layer's budget WAL (:mod:`repro.serve.ledger`) and the sweep
checkpoint (:mod:`repro.parallel.checkpoint`) are both a :class:`Journal`:
one JSON object per line, each stamped with its ``kind`` and a ``seq`` that
counts 1, 2, 3, ... from the first line.

* **append** — one write + flush + ``fsync`` per record.  If any step fails
  the file is truncated back to its pre-write length before the error
  propagates, so the journal holds exactly the records that were granted and
  the next append never glues onto a half-written line;
* **replay** — every complete line must parse to an object with a string
  ``kind`` and the next integer ``seq``, and must pass the caller's
  ``apply``.  The first line that fails refuses the whole journal and leaves
  the file byte-identical for post-mortem inspection.  Only after every
  complete line has passed is a torn tail — a crash's partial last line,
  with no newline — truncated away.

Release records are evidence, so replay refuses rather than guesses.  Each
refusal names its kind through an error class the caller supplies (all
subclasses of :class:`JournalError`):

==========  ===============================================================
``header``  the journal needs a header record and its first line is torn
            or unparseable (only journals that pass ``header_error``)
``corrupt`` a complete line is not a record, has no integer ``seq``, or
            ``apply`` rejected it (``KeyError``, ``TypeError`` and
            ``ValueError`` from ``apply`` land here)
``gap``     ``seq`` skips or repeats a number — records lost or reordered
==========  ===============================================================
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Callable, Dict, Optional, Type, Union

from ..obs import counter_add

__all__ = ["Journal", "JournalError"]


class JournalError(ValueError):
    """Replay refused: the journal is not exactly what its appends wrote.

    Owners of a journal subclass it for their own error names; an error that
    ``apply`` raises as a :class:`JournalError` propagates unchanged.
    """


class Journal:
    """An append-only, fsync-per-record JSON-lines file.

    Parameters
    ----------
    path:
        The journal file.  Replayed if present; created on first append.
    apply:
        ``apply(record)`` folds one replayed record into the owner's state,
        in file order.  Anything it raises refuses the journal.
    corrupt_error, gap_error:
        The :class:`JournalError` subclasses raised for those refusals.
    header_error:
        When given, the first record is a header: a file whose first line is
        torn or unparseable is refused with this class instead of being
        truncated or reported as corrupt.
    sort_keys:
        Write each record with sorted keys (otherwise ``kind`` and ``seq``
        lead and the caller's key order follows).
    """

    def __init__(
        self,
        path: Union[str, Path],
        apply: Callable[[Dict[str, object]], None],
        *,
        corrupt_error: Type[JournalError],
        gap_error: Type[JournalError],
        header_error: Optional[Type[JournalError]] = None,
        sort_keys: bool = False,
    ) -> None:
        self.path = str(path)
        self._sort_keys = sort_keys
        self._seq = 0
        self._replay(apply, corrupt_error, gap_error, header_error)
        # Opened only after replay succeeded: a refused journal is never touched.
        self._handle = open(self.path, "ab")

    @property
    def seq(self) -> int:
        """Sequence number of the last durable record (0 when empty)."""
        return self._seq

    def _replay(self, apply, corrupt_error, gap_error, header_error) -> None:
        try:
            with open(self.path, "rb") as handle:
                raw = handle.read()
        except FileNotFoundError:
            return
        end = raw.rfind(b"\n") + 1  # bytes past the last newline are a torn tail
        if header_error is not None and end == 0 and raw:
            raise header_error(
                f"{self.path}: no complete header record (file truncated "
                f"mid-header?) — delete the file to start fresh"
            )
        offset = 0
        for line in raw[:end].split(b"\n")[:-1]:
            try:
                record = json.loads(line)
                if not isinstance(record, dict) or not isinstance(record.get("kind"), str):
                    raise ValueError("not a journal record")
            except ValueError as exc:
                error = header_error if header_error is not None and offset == 0 else corrupt_error
                raise error(f"{self.path}: corrupt record at byte {offset}: {exc}") from exc
            seq = record.get("seq")
            if type(seq) is not int:
                raise corrupt_error(
                    f"{self.path}: corrupt record at byte {offset}: seq {seq!r} is not an integer"
                )
            if seq != self._seq + 1:
                raise gap_error(
                    f"{self.path}: sequence gap (expected {self._seq + 1}, found "
                    f"{seq}) — records missing or reordered"
                )
            try:
                apply(record)
            except JournalError:
                raise
            except (KeyError, TypeError, ValueError) as exc:
                raise corrupt_error(
                    f"{self.path}: corrupt record at byte {offset}: {exc!r}"
                ) from exc
            self._seq = seq
            offset += len(line) + 1
        if end < len(raw):
            counter_add("journal.torn_tail_truncated")
            with open(self.path, "r+b") as handle:
                handle.truncate(end)
        counter_add("journal.records_replayed", self._seq)

    def append(self, record: Dict[str, object]) -> int:
        """Durably append ``record`` as the next ``seq``; returns that seq.

        On any failure the file is rolled back to its pre-write length and
        the error propagates: the record was never durable, so the caller
        must not act on it.
        """
        seq = self._seq + 1
        line = json.dumps({"kind": record["kind"], "seq": seq, **record},
                          sort_keys=self._sort_keys) + "\n"
        start = self._handle.tell()
        try:
            self._handle.write(line.encode("utf-8"))
            self._handle.flush()
            os.fsync(self._handle.fileno())
        except BaseException:
            try:
                self._handle.truncate(start)
                self._handle.seek(start)
            except OSError:  # pragma: no cover - disk gone entirely
                pass
            raise
        self._seq = seq
        counter_add("journal.records_appended")
        return seq

    def close(self) -> None:
        """Close the append handle (idempotent); the journal stays on disk."""
        if not self._handle.closed:
            self._handle.close()
