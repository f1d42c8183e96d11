"""Multicore execution layer: process-parallel sweeps and sharded serving.

The rest of the library is single-core by design — every hot loop is a NumPy
kernel, so one release builds and one workload evaluates as fast as one core
allows.  This package scales *across* cores without touching those kernels:

* :mod:`repro.parallel.pool` — the one process pool: ``ResilientPool``
  ships the worker state as one pickle per start (so a task carries only its
  own small arguments), keeps finished results when a worker dies, rebuilds
  under one bounded exponential backoff, retries an overdue task once and
  runs whatever is left in the parent;
* :mod:`repro.parallel.sweep` — the executor behind
  ``run_sweep(..., workers=N)``: each case runs on its own spawned child RNG
  stream, so ``workers=N`` is bitwise identical to ``workers=1`` for every N,
  through every recovery path of the pool;
* :mod:`repro.parallel.checkpoint` — the crash-safe sweep journal, a
  :class:`repro.durable.journal.Journal` (the same primitive as the budget
  WAL) of completed cases, floats hex-encoded and fingerprint-guarded, so an
  interrupted ``run_sweep(..., checkpoint=path)`` resumes bitwise identical
  to an uninterrupted run;
* :mod:`repro.parallel.serve` — a sharded query server that fans chunks of a
  query batch across the pool over one compiled engine; an engine attached
  from a FLATPSD2 file reaches the workers as its path and file identity,
  and they map the same file;
* :mod:`repro.parallel.matching` — seeker-chunk fan-out for record
  matching's blocking evaluation: exact integer partials summed in the parent, so
  ``workers=N`` reproduces ``workers=1`` bitwise.

Everything here keeps a hard determinism contract: parallelism changes
*where* work runs, never *what* it computes.
"""

from .checkpoint import (
    CheckpointCorruptError,
    CheckpointError,
    CheckpointHeaderError,
    CheckpointMismatchError,
    CheckpointSequenceGapError,
    SweepCheckpoint,
)
from .matching import score_seeker_chunks
from .serve import ShardedQueryServer
from .sweep import resolve_workers, run_cases_parallel

__all__ = [
    "ShardedQueryServer",
    "resolve_workers",
    "run_cases_parallel",
    "score_seeker_chunks",
    "SweepCheckpoint",
    "CheckpointError",
    "CheckpointHeaderError",
    "CheckpointCorruptError",
    "CheckpointSequenceGapError",
    "CheckpointMismatchError",
]
