"""Crash-safe multi-tenant budget ledger: a WAL in front of analyst accounts.

For a differentially private query service the budget is a *correctness*
invariant, not bookkeeping: an analyst must never spend more than their ε cap
— not across threads, not across crashes, not across restarts.  The in-memory
half of that guarantee is :class:`repro.privacy.accountant.AnalystAccount`
(lock-protected charge-or-refuse); this module adds the durable half, a
**write-ahead log** kept as a :class:`repro.durable.journal.Journal`:

* **charge-before-answer** — a charge is appended to the WAL and ``fsync``\\ ed
  *before* the in-memory account moves and long before any query is answered.
  A crash between the fsync and the answer therefore *wastes* budget (the
  analyst paid for an answer they never received) but can never *under-count*
  it: on restart the replayed spend includes the charge.  Wasting is safe —
  the privacy guarantee only bounds spend from above;
* **fail-closed writes** — if the WAL cannot be written (disk error, injected
  ``wal-io-error`` fault) the journal rolls the file back byte-for-byte and
  the in-memory account is untouched: no durable record, no spend, no answer;
* **replay on startup** — accounts are rebuilt by summing the WAL's charges
  in file order.  Every ε travels as ``float.hex()`` alongside its decimal
  rendering, so a replayed spend is **bitwise identical** to the pre-crash
  in-memory total (same values, same summation order, IEEE-754 float64);
* **strict replay** — every complete record must carry the next ``seq``, a
  string ``analyst`` and a positive finite hex value; anything else raises
  :class:`LedgerError` and leaves the file untouched — a budget ledger must
  refuse to guess.  Only then is a torn tail (a crash *mid-append*) dropped,
  so the next append starts on a clean line.

Every ε and cap must be a positive finite number: a NaN spend would compare
false against every cap and grant everything after it.

The WAL is human-auditable: one key-sorted JSON object per line, ``kind`` of
``"cap"`` (sets an analyst's cap) or ``"charge"`` (spends ε), each stamped
with its ``seq``.
"""

from __future__ import annotations

import math
import threading
from pathlib import Path
from typing import Callable, Dict, Optional, Union

from ..durable.journal import Journal, JournalError
from ..obs import counter_add, trace_span
from ..privacy.accountant import BUDGET_TOLERANCE, AnalystAccount

__all__ = ["BudgetExceeded", "LedgerError", "BudgetLedger"]


class BudgetExceeded(Exception):
    """A charge was refused: it would push the analyst past their ε cap."""

    def __init__(self, analyst: str, requested: float, remaining: float) -> None:
        self.analyst = analyst
        self.requested = float(requested)
        self.remaining = float(remaining)
        super().__init__(
            f"analyst {analyst!r} requested epsilon {requested:.6g} with only "
            f"{remaining:.6g} remaining"
        )


class LedgerError(JournalError):
    """The WAL is corrupt in a way replay must not paper over."""


def _hex(value: float) -> str:
    return float(value).hex()


def _positive_finite(value: float, name: str) -> float:
    value = float(value)
    if not math.isfinite(value) or value <= 0:
        raise ValueError(f"{name} must be a positive finite number, got {value!r}")
    return value


class BudgetLedger:
    """Per-analyst ε accounts backed by an append-only, fsync-on-charge WAL.

    Parameters
    ----------
    path:
        The WAL file.  Created (with a ``cap`` record per later analyst) if
        missing; replayed if present.
    default_cap:
        The ε cap given to an analyst on their first charge (explicit
        :meth:`set_cap` records override it, and are themselves WAL-logged so
        they survive restarts).
    io_hook:
        Optional ``callable(record: dict)`` invoked with each record *before*
        it is appended; raising :class:`OSError` from it simulates a WAL
        write failure (the deterministic ``wal-io-error`` fault).  The charge
        then fails closed.

    All public methods are thread-safe: one ledger lock orders the
    check / append / fsync / commit sequence, so no interleaving of concurrent
    charges can exceed a cap or interleave bytes within the WAL.
    """

    def __init__(
        self,
        path: Union[str, Path],
        default_cap: float = 1.0,
        io_hook: Optional[Callable[[Dict[str, object]], None]] = None,
    ) -> None:
        self.path = str(path)
        self.default_cap = _positive_finite(default_cap, "default_cap")
        self.io_hook = io_hook
        self._lock = threading.RLock()
        self._accounts: Dict[str, AnalystAccount] = {}
        self._journal = Journal(self.path, self._apply, sort_keys=True,
                                corrupt_error=LedgerError, gap_error=LedgerError)
        self._replayed_records = self._journal.seq

    # ------------------------------------------------------------------
    def _apply(self, record: Dict[str, object]) -> None:
        """Fold one replayed record into the in-memory accounts.

        Charges are applied unconditionally — they were admitted under the
        cap rules when written, and replay must reproduce the exact durable
        history, not re-litigate it.  ε values come from the hex field so the
        rebuilt totals are bit-for-bit the pre-crash ones.
        """
        analyst, kind = record["analyst"], record["kind"]
        if not isinstance(analyst, str):
            raise TypeError(f"analyst must be a string, got {analyst!r}")
        if kind == "cap":
            self._set_cap(analyst, _positive_finite(float.fromhex(record["cap_hex"]), "cap"))
        elif kind == "charge":
            epsilon = _positive_finite(float.fromhex(record["epsilon_hex"]), "epsilon")
            account = self._account(analyst)
            # Direct state restore (not try_charge): same float additions in
            # the same order as the original grants.
            account.spent += epsilon
            account.charges += 1
        else:
            raise LedgerError(f"ledger {self.path}: unknown record kind {kind!r}")

    def _log(self, record: Dict[str, object]) -> None:
        if self.io_hook is not None:
            self.io_hook(record)
        self._journal.append(record)

    def _account(self, analyst: str) -> AnalystAccount:
        account = self._accounts.get(analyst)
        if account is None:
            account = AnalystAccount(analyst, cap=self.default_cap)
            self._accounts[analyst] = account
        return account

    def _set_cap(self, analyst: str, cap: float) -> None:
        account = self._accounts.get(analyst)
        if account is None:
            self._accounts[analyst] = AnalystAccount(analyst, cap=cap)
        else:
            account.cap = cap

    # ------------------------------------------------------------------
    # Public surface
    # ------------------------------------------------------------------
    def charge(self, analyst: str, epsilon: float, request_id: Optional[int] = None) -> float:
        """Charge ``epsilon`` against ``analyst``; returns the remaining budget.

        Ordering is the crash-safety contract: refusal check → WAL append →
        fsync → in-memory commit.  Raises :class:`BudgetExceeded` on refusal
        (nothing written, nothing spent), :class:`ValueError` for an ε that
        is not positive and finite, and propagates :class:`OSError` on a WAL
        write failure (rolled back, nothing spent).  Only a charge that is
        durable on disk is ever granted.
        """
        epsilon = _positive_finite(epsilon, "charge epsilon")
        analyst = str(analyst)
        with self._lock, trace_span("ledger.charge", analyst=analyst):
            account = self._account(analyst)
            if account.spent + epsilon > account.cap + BUDGET_TOLERANCE:
                counter_add("ledger.refusals")
                raise BudgetExceeded(analyst, epsilon, account.cap - account.spent)
            record: Dict[str, object] = {
                "kind": "charge",
                "analyst": analyst,
                "epsilon": epsilon,
                "epsilon_hex": _hex(epsilon),
            }
            if request_id is not None:
                record["request"] = int(request_id)
            self._log(record)  # may raise OSError: fail closed, spend nothing
            granted = account.try_charge(epsilon)
            assert granted, "pre-checked charge must be granted under the ledger lock"
            counter_add("ledger.charges")
            return account.cap - account.spent

    def try_charge(self, analyst: str, epsilon: float,
                   request_id: Optional[int] = None) -> bool:
        """:meth:`charge`, with refusal as ``False`` instead of an exception."""
        try:
            self.charge(analyst, epsilon, request_id=request_id)
            return True
        except BudgetExceeded:
            return False

    def set_cap(self, analyst: str, cap: float) -> None:
        """Set (and WAL-log) an analyst's ε cap; existing spend is kept."""
        cap = _positive_finite(cap, "cap")
        analyst = str(analyst)
        with self._lock:
            self._log({"kind": "cap", "analyst": analyst, "cap": cap, "cap_hex": _hex(cap)})
            self._set_cap(analyst, cap)

    # ------------------------------------------------------------------
    def spend(self, analyst: str) -> float:
        """Total ε charged to ``analyst`` so far (0.0 for unknown analysts)."""
        with self._lock:
            account = self._accounts.get(analyst)
            return account.spent if account is not None else 0.0

    def spend_hex(self, analyst: str) -> str:
        """The spend as ``float.hex()`` — the bitwise-comparable form."""
        return _hex(self.spend(analyst))

    def remaining(self, analyst: str) -> float:
        """Budget left for ``analyst`` (the full default cap if unknown)."""
        with self._lock:
            account = self._accounts.get(analyst)
            if account is None:
                return self.default_cap
            return account.cap - account.spent

    def accounts(self) -> Dict[str, Dict[str, object]]:
        """Per-analyst ``{spent, spent_hex, cap, remaining, charges}`` report."""
        with self._lock:
            out: Dict[str, Dict[str, object]] = {}
            for analyst, account in sorted(self._accounts.items()):
                snap: Dict[str, object] = dict(account.snapshot())
                snap["spent_hex"] = _hex(float(snap["spent"]))
                out[analyst] = snap
            return out

    @property
    def seq(self) -> int:
        """Sequence number of the last durable record."""
        with self._lock:
            return self._journal.seq

    @property
    def replayed_records(self) -> int:
        """How many records the constructor replayed from an existing WAL."""
        return self._replayed_records

    # ------------------------------------------------------------------
    def close(self) -> None:
        """Close the append handle (idempotent); the WAL stays on disk."""
        with self._lock:
            self._journal.close()

    def __enter__(self) -> "BudgetLedger":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
