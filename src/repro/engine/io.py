"""Persistence for compiled PSD engines: the FLATPSD2 file.

The JSON release (:mod:`repro.core.serialization`) is the canonical published
artifact — human-inspectable, structure-validated, tool-friendly.  But a
query *server* should not pay JSON parsing plus tree reconstruction plus
compilation on every start.  A compiled engine is therefore saved once in the
uncompressed, page-aligned FLATPSD2 layout of :mod:`repro.engine.store`
(format v2): loading attaches the file with ``np.memmap`` in microseconds
regardless of size, the OS page cache holds the single physical copy shared
by every serving process, and counts may be stored in reduced precision
(float32 counts / int32 offsets).

The payload is only released information (rects, released counts, per-level
epsilons) — shipping an engine file is as privacy-safe as shipping the JSON.
"""

from __future__ import annotations

from pathlib import Path
from typing import Union

from ..obs import counter_add, gauge_max, trace_span
from .flat import FlatPSD
from .store import FORMAT_MAGIC, load_engine_mmap, save_engine_mmap

__all__ = ["save_engine", "load_engine", "is_engine_file"]


def is_engine_file(source: Union[str, Path]) -> bool:
    """Whether ``source`` starts with the FLATPSD2 magic bytes.

    ``False`` for anything else — a JSON release, an unreadable path — so
    ``repro query`` can fall back to the JSON loader, whose errors then name
    the file.
    """
    try:
        with open(source, "rb") as handle:
            return handle.read(len(FORMAT_MAGIC)) == FORMAT_MAGIC
    except OSError:
        return False


def save_engine(
    engine: FlatPSD,
    destination: Union[str, Path],
    format: str = "mmap",
    precision: str = "float64",
) -> None:
    """Write a compiled engine to the FLATPSD2 file ``destination``.

    ``format="mmap"`` (FLATPSD2) is the only format.  ``precision`` narrows
    count storage to float32 / int32 offsets before writing (see
    :func:`repro.engine.store.engine_with_precision`).
    """
    if format != "mmap":
        raise ValueError(f"unknown engine format {format!r} (the only format is 'mmap')")
    save_engine_mmap(engine, destination, precision=precision)


def load_engine(
    source: Union[str, Path],
    deep_validate: bool = False,
    verify: bool = False,
) -> FlatPSD:
    """Attach a FLATPSD2 engine file as read-only ``np.memmap`` views.

    Header, field-table and region bounds are always checked;
    ``deep_validate=True`` additionally runs the O(n) structural checks of
    :meth:`FlatPSD.validate` (which pages the whole file in, forfeiting the
    fast attach).

    ``verify=True`` checks every array's bytes against the header's
    per-region CRC32 and raises
    :class:`~repro.engine.store.EngineIntegrityError` naming the corrupted
    array.  ``repro serve`` verifies by default — a query server must never
    answer from silently rotten counts.

    Raises :class:`ValueError` for a file that is not FLATPSD2 (bad magic),
    an unknown version, missing or truncated arrays (reported by field name)
    or structural-invariant violations.
    """
    with trace_span("engine.load", verify=verify):
        engine = load_engine_mmap(source, deep_validate=deep_validate, verify=verify)
    if verify:
        counter_add("engine.verified_loads")
    counter_add("engine.loads")
    mapped = engine.mapped_nbytes()
    if mapped:
        gauge_max("engine.bytes_mapped", mapped)
    return engine
