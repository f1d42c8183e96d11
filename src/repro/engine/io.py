"""FLATPSD2: the release file, and its one writer and one reader.

A private spatial decomposition is published once and queried many times.
The published artifact is the compiled engine itself: ``repro build`` writes
it, ``repro query`` / ``repro serve`` / ``POST /admin/swap`` attach it, and
nothing has to be parsed, rebuilt or compiled before the first query.  The
nested JSON of :mod:`repro.core.serialization` stays as an import and export
form for inspection and for the golden files.

Every :class:`~repro.engine.flat.FlatPSD` array is written uncompressed at a
page-aligned offset, so the reader attaches the file with ``np.memmap`` and
the batch evaluator runs directly over the mapped (read-only) pages.
Opening an engine is a header parse plus a handful of ``mmap`` calls —
microseconds regardless of node count — and the OS page cache, not process
heaps, holds the one physical copy that every serving process shares.

An attached engine pickles as its path plus the file identity (device,
inode, size, modification time) that :func:`load_engine` recorded, about a
hundred bytes.  Unpickling it, in a pool worker say, attaches the same file
again without a CRC pass, and refuses with :class:`EngineIntegrityError` a
file replaced since: a process never answers from a release other than the
one its sender attached.  This module is the only one that knows how
FLATPSD2 bytes map to arrays.

File layout::

    bytes 0..7    magic  b"FLATPSD2"
    bytes 8..15   little-endian uint64: header length H
    bytes 16..16+H JSON header:
        meta    {format_version: 2, precision, height, fanout, name,
                 domain_name, release: {ols, metadata}}
        arrays  {field: {dtype, shape, offset, nbytes, crc32}}  (absolute offsets)
    ...zero padding...
    page-aligned array regions, one per FlatPSD field, in _V2_FIELDS order

``meta.release`` holds what the arrays do not: ``ols`` (does ``released``
hold OLS estimates, Section 5?) and the build ``metadata`` (split rule,
count budget, ε split).  The payload is only released information; the raw
noisy counts of an OLS release are not stored.

Precision contract
------------------
``precision="float64"`` stores every array in the engine's canonical dtypes;
a memmapped float64 engine answers **bitwise identically** to the in-memory
engine it was saved from (same values in, same float ops out).
``precision="float32"`` narrows the *count* payload only — ``released`` and
``count_epsilons`` to float32, ``child_start``/``child_end`` to int32 — while
all geometry (``lo``/``hi``/``area``/domain bounds) stays float64.  The
query-to-node decomposition (which nodes are full/partial, every uniformity
fraction, ``n(Q)``) is therefore *identical* across precisions; only the
count values are rounded once at store time, and the evaluator still
accumulates in float64 (see :mod:`repro.engine.batch`).  The added error is
bounded by per-count float32 rounding and, for Laplace-noised releases at
realistic epsilons, sits far below the noise floor — measured and gated by
``benchmarks/bench_memmap.py``.

Loading validates the header, the release block, the field table and region
bounds (a missing or malformed field is reported *by name*); the O(n)
structural validation of :meth:`FlatPSD.validate` is opt-in
(``deep_validate=True``) so attach stays sub-millisecond.
"""

from __future__ import annotations

import json
import os
import struct
import zlib
from dataclasses import replace
from pathlib import Path
from typing import Dict, Tuple, Union

import numpy as np

from ..obs import counter_add, gauge_max, trace_span
from .flat import FlatPSD, _freeze, level_variances

__all__ = [
    "FORMAT_MAGIC",
    "PAGE_SIZE",
    "PRECISIONS",
    "EngineIntegrityError",
    "engine_with_precision",
    "is_engine_file",
    "save_engine",
    "load_engine",
]


class EngineIntegrityError(ValueError):
    """A stored engine's bytes disagree with its recorded checksums.

    Raised by ``verify=True`` loads (:func:`load_engine`), which check every
    region against the per-field CRC32 in the header and name the corrupted
    array, so torn writes and bit rot are caught before a single query is
    answered from bad counts.
    """

#: Leading magic bytes of a format-v2 engine file.
FORMAT_MAGIC = b"FLATPSD2"

_FORMAT_VERSION = 2

#: Array regions start at multiples of this (a memory page), so mapped views
#: share pages cleanly across processes and never straddle the header.
PAGE_SIZE = 4096

#: Every FlatPSD array persisted in a v2 file, in on-disk order.  The derived
#: arrays (``area``, ``level_variance``) are stored too: a v2 load must be a
#: pure attach with no O(n) recomputation.
_V2_FIELDS = (
    "lo",
    "hi",
    "level",
    "released",
    "has_count",
    "is_leaf",
    "child_start",
    "child_end",
    "area",
    "count_epsilons",
    "level_variance",
    "domain_lo",
    "domain_hi",
)

#: On-disk dtype of every field, per precision.  Geometry is always float64;
#: float32 narrows only counts/epsilons (and node indices to int32).
_FIELD_DTYPES: Dict[str, Dict[str, str]] = {
    "float64": {
        "lo": "<f8", "hi": "<f8", "level": "<i4", "released": "<f8",
        "has_count": "|b1", "is_leaf": "|b1", "child_start": "<i8",
        "child_end": "<i8", "area": "<f8", "count_epsilons": "<f8",
        "level_variance": "<f8", "domain_lo": "<f8", "domain_hi": "<f8",
    },
    "float32": {
        "lo": "<f8", "hi": "<f8", "level": "<i4", "released": "<f4",
        "has_count": "|b1", "is_leaf": "|b1", "child_start": "<i4",
        "child_end": "<i4", "area": "<f8", "count_epsilons": "<f4",
        "level_variance": "<f8", "domain_lo": "<f8", "domain_hi": "<f8",
    },
}

PRECISIONS = tuple(sorted(_FIELD_DTYPES))


def _align(n: int) -> int:
    return -(-n // PAGE_SIZE) * PAGE_SIZE


def is_engine_file(source: Union[str, Path]) -> bool:
    """Whether ``source`` starts with the FLATPSD2 magic bytes (``False`` for
    a nested JSON release or an unreadable path)."""
    try:
        with open(source, "rb") as handle:
            return handle.read(len(FORMAT_MAGIC)) == FORMAT_MAGIC
    except OSError:
        return False


def engine_with_precision(engine: FlatPSD, precision: str) -> FlatPSD:
    """The same engine with its storage arrays cast to ``precision``.

    ``float32`` rounds ``released``/``count_epsilons`` to float32 and narrows
    ``child_start``/``child_end`` to int32 (``level_variance`` is recomputed
    from the *rounded* epsilons, so a loader deriving it from the stored file
    agrees bitwise); geometry stays float64 so the canonical decomposition of
    every query — and with it ``n(Q)`` — is unchanged.  ``float64`` upcasts
    back to the canonical dtypes.  The release block is kept.  Returns
    ``engine`` itself when nothing needs casting.
    """
    if precision not in _FIELD_DTYPES:
        raise ValueError(f"unknown precision {precision!r} (choose from {PRECISIONS})")
    if precision == engine.storage_precision and (
        engine.child_start.dtype == np.dtype(_FIELD_DTYPES[precision]["child_start"])
    ):
        return engine
    if precision == "float32" and engine.n_nodes > np.iinfo(np.int32).max:
        raise ValueError(
            f"engine has {engine.n_nodes} nodes; int32 child offsets cap "
            f"float32 storage at {np.iinfo(np.int32).max}"
        )
    spec = _FIELD_DTYPES[precision]
    eps = np.asarray(engine.count_epsilons, dtype=np.dtype(spec["count_epsilons"]))
    return replace(
        engine,
        released=_freeze(np.asarray(engine.released, dtype=np.dtype(spec["released"]))),
        count_epsilons=_freeze(eps),
        level_variance=_freeze(level_variances(eps)),
        child_start=_freeze(np.asarray(engine.child_start, dtype=np.dtype(spec["child_start"]))),
        child_end=_freeze(np.asarray(engine.child_end, dtype=np.dtype(spec["child_end"]))),
    )


def save_engine(
    engine: FlatPSD,
    destination: Union[str, Path],
    format: str = "mmap",
    precision: str = "float64",
) -> None:
    """Write ``engine`` to the FLATPSD2 file ``destination``.

    Every array lands uncompressed at a page-aligned offset recorded in the
    JSON header, next to the engine's release block.  ``format="mmap"``
    (FLATPSD2) is the only format; ``precision`` selects the storage dtypes
    (see :func:`engine_with_precision`).  A sibling temporary file replaces
    ``destination`` once written, so readers never see a torn file and an
    engine mapped from ``destination`` can be re-stored in place.
    """
    if format != "mmap":
        raise ValueError(f"unknown engine format {format!r} (the only format is 'mmap')")
    engine = engine_with_precision(engine, precision)
    spec = _FIELD_DTYPES[precision]
    arrays = {}
    for name in _V2_FIELDS:
        arr = np.ascontiguousarray(np.asarray(getattr(engine, name), dtype=np.dtype(spec[name])))
        arrays[name] = arr

    # Page-aligned offsets relative to the data region; the data region start
    # itself grows in page steps until the header (whose serialised length
    # depends on the absolute offsets) fits in front of it.
    rel = {}
    total = 0
    for name, arr in arrays.items():
        rel[name] = total
        total += _align(max(1, arr.nbytes))
    data_start = PAGE_SIZE
    while True:
        table = {
            name: {
                "dtype": arrays[name].dtype.str,
                "shape": list(arrays[name].shape),
                "offset": data_start + rel[name],
                "nbytes": int(arrays[name].nbytes),
                # Integrity stamp over the exact bytes written below; a
                # verify=True load recomputes it per region and names the
                # first field whose bytes disagree.
                "crc32": zlib.crc32(arrays[name].tobytes(order="C")) & 0xFFFFFFFF,
            }
            for name in _V2_FIELDS
        }
        meta = {
            "format_version": _FORMAT_VERSION,
            "precision": precision,
            "height": engine.height,
            "fanout": engine.fanout,
            "name": engine.name,
            "domain_name": engine.domain_name,
            "release": engine.release,
        }
        header = json.dumps({"meta": meta, "arrays": table}, sort_keys=True).encode("utf-8")
        if len(FORMAT_MAGIC) + 8 + len(header) <= data_start:
            break
        data_start += PAGE_SIZE

    partial = f"{destination}.partial"
    try:
        with open(partial, "wb") as handle:
            handle.write(FORMAT_MAGIC)
            handle.write(struct.pack("<Q", len(header)))
            handle.write(header)
            for name in _V2_FIELDS:
                handle.seek(data_start + rel[name])
                handle.write(arrays[name].tobytes(order="C"))
            # Extend the file to the last aligned slot so every region,
            # including a trailing one shorter than its slot, maps within
            # bounds.
            handle.truncate(data_start + total)
        os.replace(partial, destination)
    except BaseException:
        Path(partial).unlink(missing_ok=True)
        raise


def _parse_header(path: Path, handle, size: int):
    magic = handle.read(len(FORMAT_MAGIC))
    if magic != FORMAT_MAGIC:
        raise ValueError(f"{path}: not a FlatPSD v2 engine file (bad magic)")
    raw_len = handle.read(8)
    if len(raw_len) != 8:
        raise ValueError(f"{path}: truncated before the header length field")
    (header_len,) = struct.unpack("<Q", raw_len)
    if 16 + header_len > size:
        raise ValueError(
            f"{path}: truncated header (needs {16 + header_len} bytes, "
            f"file has {size})"
        )
    try:
        return json.loads(handle.read(header_len).decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ValueError(f"{path}: corrupt v2 header: {exc}")


def _file_identity(handle) -> Tuple[int, int, int, int]:
    """Device, inode, size and modification time of an open file: what tells
    the file attached from a path apart from one written there later."""
    st = os.fstat(handle.fileno())
    return (st.st_dev, st.st_ino, st.st_size, st.st_mtime_ns)


def _release_block(path: Path, meta: Dict[str, object]) -> Dict[str, object]:
    """The header's ``meta.release``, refused unless every field is well-formed."""
    if "release" not in meta:
        raise ValueError(f"{path}: header has no 'meta.release' block")
    release = meta["release"]
    if not isinstance(release, dict):
        raise ValueError(f"{path}: 'meta.release' must be an object, got {release!r}")
    if not isinstance(release.get("ols"), bool):
        raise ValueError(f"{path}: 'meta.release.ols' must be a bool, got {release.get('ols')!r}")
    if not isinstance(release.get("metadata"), dict):
        raise ValueError(f"{path}: 'meta.release.metadata' must be an object, "
                         f"got {release.get('metadata')!r}")
    return release


def load_engine(
    source: Union[str, Path],
    deep_validate: bool = False,
    verify: bool = False,
) -> FlatPSD:
    """Attach a FLATPSD2 file as memory-mapped read-only arrays.

    Zero-copy: the engine's fields are ``np.memmap`` views paged in on demand
    and shared with every process mapping the same file.  Header integrity,
    the release block, field presence, dtypes and region bounds are always
    checked, and a missing or malformed field is named;
    ``deep_validate=True`` adds the O(n) checks of :meth:`FlatPSD.validate`.

    ``verify=True`` recomputes every region's CRC32 against the header stamp
    and raises :class:`EngineIntegrityError` naming the first corrupted
    array.  It pages the whole file in once (an O(bytes) scan), so it is the
    default for long-lived consumers (``repro serve``, ``POST /admin/swap``)
    and opt-in for everything latency-sensitive.

    Raises :class:`ValueError` for a file that is not FLATPSD2 (bad magic),
    an unknown version, a missing or malformed release block, missing or
    truncated arrays, or structural-invariant violations.

    The engine records the file's path and identity, and pickles as them
    (see :func:`_reattach_engine`).
    """
    path = Path(source)
    with trace_span("engine.load", verify=verify):
        with open(path, "rb") as handle:
            engine = _attach(path, handle, _file_identity(handle), verify)
    if verify:
        counter_add("engine.verified_loads")
    counter_add("engine.loads")
    mapped = engine.mapped_nbytes()
    if mapped:
        gauge_max("engine.bytes_mapped", mapped)
    if deep_validate:
        engine.validate()
    return engine


def _reattach_engine(source_path: str, identity: Tuple[int, ...]) -> FlatPSD:
    """Unpickle an engine that :func:`load_engine` attached: attach the same
    file again, without a CRC pass.

    Raises :class:`EngineIntegrityError` when the file at ``source_path`` is
    no longer the one attached (another device, inode, size or modification
    time): a release rewritten in place or replaced by a rename would
    otherwise answer with other counts than the sender's engine.
    """
    path = Path(source_path)
    with open(path, "rb") as handle:
        now = _file_identity(handle)
        if now != identity:
            raise EngineIntegrityError(
                f"{path}: the release file was replaced after it was attached "
                f"(file identity {now} != {identity})"
            )
        return _attach(path, handle, now, verify=False)


def _attach(path: Path, handle, identity: Tuple[int, int, int, int], verify: bool) -> FlatPSD:
    """Map the FLATPSD2 file open as ``handle``, whose identity is ``identity``."""
    size = identity[2]
    header = _parse_header(path, handle, size)
    meta = header.get("meta") or {}
    version = meta.get("format_version")
    if version != _FORMAT_VERSION:
        raise ValueError(f"unsupported engine format version {version!r} (expected 2)")
    precision = meta.get("precision")
    if precision not in _FIELD_DTYPES:
        raise ValueError(f"{path}: unknown storage precision {precision!r}")
    release = _release_block(path, meta)
    spec = _FIELD_DTYPES[precision]
    table = header.get("arrays") or {}

    views: Dict[str, np.ndarray] = {}
    for name in _V2_FIELDS:
        entry = table.get(name)
        if entry is None:
            raise ValueError(f"{path}: engine file is missing array field {name!r}")
        dtype = np.dtype(str(entry["dtype"]))
        shape = tuple(int(v) for v in entry["shape"])
        offset = int(entry["offset"])
        nbytes = int(entry["nbytes"])
        if dtype != np.dtype(spec[name]):
            raise ValueError(
                f"{path}: field {name!r} stored as {dtype.str}, but precision "
                f"{precision!r} requires {spec[name]}"
            )
        expected = int(np.prod(shape, dtype=np.int64)) * dtype.itemsize
        if nbytes != expected:
            raise ValueError(
                f"{path}: field {name!r} advertises {nbytes} bytes but its "
                f"shape {shape} needs {expected}"
            )
        if offset < 0 or offset + nbytes > size:
            raise ValueError(
                f"{path}: field {name!r} is truncated: bytes "
                f"[{offset}, {offset + nbytes}) exceed the {size}-byte file"
            )
        if nbytes == 0:
            views[name] = _freeze(np.empty(shape, dtype=dtype))
        else:
            # mode="r" views are read-only; each field maps the open file
            # whose identity was taken, so the page cache holds one physical
            # copy system-wide.
            views[name] = np.memmap(handle, dtype=dtype, mode="r",
                                    offset=offset, shape=shape)
        if verify:
            recorded = entry.get("crc32")
            if recorded is None:
                raise EngineIntegrityError(
                    f"{path}: field {name!r} carries no crc32 stamp; "
                    f"re-save the engine to enable verified loads"
                )
            actual = zlib.crc32(np.ascontiguousarray(views[name]).tobytes()) & 0xFFFFFFFF
            if actual != int(recorded):
                raise EngineIntegrityError(
                    f"{path}: array {name!r} is corrupted (crc32 "
                    f"{actual:#010x} != recorded {int(recorded):#010x})"
                )

    # Cheap (O(1)-per-field) shape consistency so the evaluator can trust
    # the arrays without paging anything in.
    if views["lo"].ndim != 2 or views["lo"].shape != views["hi"].shape:
        raise ValueError(f"{path}: lo/hi must be matching (n_nodes, dims) arrays")
    n = views["lo"].shape[0]
    for name in ("level", "released", "has_count", "is_leaf",
                 "child_start", "child_end", "area"):
        if views[name].shape != (n,):
            raise ValueError(f"{path}: field {name!r} must have shape ({n},)")
    height = int(meta.get("height", -1))
    for name in ("count_epsilons", "level_variance"):
        if views[name].shape != (height + 1,):
            raise ValueError(
                f"{path}: field {name!r} must have height + 1 = {height + 1} entries"
            )

    engine = FlatPSD(
        height=height,
        fanout=int(meta.get("fanout", 0)),
        release=release,
        name=str(meta.get("name", "psd")),
        domain_name=str(meta.get("domain_name", "domain")),
        **views,
    )
    engine.source_path = str(path)
    engine.source_identity = identity
    return engine
