"""Shared-memory views of immutable arrays for cross-process execution.

A sweep case or a compiled engine is mostly a handful of large, immutable
NumPy arrays (the point dataset, BFS geometry arrays, an engine's count and
offset arrays) plus a thin shell of scalars.  Pickling those arrays into every
worker task would copy megabytes per task; instead the parent exports each
large array into a ``multiprocessing.shared_memory`` segment **once** and the
pickle stream carries only a tiny :class:`SharedArrayHandle`.  Every worker
attaches the same physical pages and reconstructs a *read-only* view.

The mechanics are a custom pickler pair:

* :func:`dumps_shared` pickles an arbitrary object graph, diverting every
  large ndarray (``nbytes >= arena.threshold``) through the
  :class:`SharedArena` via the pickler's ``persistent_id`` hook.  Repeated
  references to the same array object are exported once (identity dedupe),
  so e.g. twelve sweep cases sharing one points array cost one segment;
* :func:`loads_shared` restores the graph, resolving handles through
  ``persistent_load`` into shared views cached per segment name.

The parent owns the segments through the :class:`SharedArena` and unlinks
them once the worker pool has shut down; attached views are marked
non-writeable because everything shared this way is released, immutable
data — a worker must never be able to mutate another worker's inputs.

Arrays that are already file-backed need no segment at all.  A read-only
``np.memmap`` (a FLATPSD2 engine attached by :mod:`repro.engine.io`)
pickles as a :class:`MappedArrayHandle` — just the file path, offset, dtype
and shape — and every worker re-maps the same file region.  The OS page
cache is then the sharing mechanism: one physical copy of the engine's pages
serves the parent and all workers, with zero export copies and zero shared
segments.  File-backed diversion is checked *before* the size threshold, so
even small mapped arrays travel as handles (re-mapping is cheaper than
copying, and it keeps every worker on the same pages).
"""

from __future__ import annotations

import atexit
import io
import os
import pickle
import weakref
from dataclasses import dataclass
from multiprocessing import shared_memory
from typing import Dict, Tuple

import numpy as np

from ..obs import counter_add

__all__ = [
    "SHARE_THRESHOLD_BYTES",
    "SharedArrayHandle",
    "MappedArrayHandle",
    "SharedArena",
    "attach_array",
    "attach_mapped",
    "mapped_handle",
    "detach_all",
    "dumps_shared",
    "loads_shared",
]

#: Arrays at least this large are diverted into shared memory; smaller ones
#: ride the ordinary pickle stream (a segment + mmap per tiny array would
#: cost more than it saves).
SHARE_THRESHOLD_BYTES = 1 << 16


@dataclass(frozen=True)
class SharedArrayHandle:
    """A picklable pointer to one exported array: segment name, shape, dtype."""

    shm_name: str
    shape: Tuple[int, ...]
    dtype: str


@dataclass(frozen=True)
class MappedArrayHandle:
    """A picklable pointer to one file-backed array region.

    Carries everything ``np.memmap`` needs to re-attach the same bytes of the
    same file: path, byte offset, dtype and shape.  No shared-memory segment
    is involved — the receiving process maps the file read-only and the OS
    page cache deduplicates the physical pages across all attachers.
    """

    path: str
    offset: int
    shape: Tuple[int, ...]
    dtype: str


def mapped_handle(array: np.ndarray) -> "MappedArrayHandle | None":
    """The :class:`MappedArrayHandle` for ``array``, or None when ineligible.

    Eligible arrays are C-contiguous read-only ``np.memmap`` instances
    created directly by the ``np.memmap`` constructor.  Views *derived* from
    a memmap (slices, reshapes) are rejected: they inherit the ``offset``
    attribute of their parent without adjustment, so a handle built from one
    would map the wrong bytes.  Constructor-created memmaps are recognised by
    their ``base`` being the underlying ``mmap.mmap`` object rather than
    another ndarray.
    """
    if not isinstance(array, np.memmap):
        return None
    if isinstance(array.base, np.ndarray):
        return None  # a sliced/reshaped view; its .offset is the parent's
    filename = getattr(array, "filename", None)
    if not filename:
        return None
    if not array.flags["C_CONTIGUOUS"] or array.flags.writeable:
        return None
    return MappedArrayHandle(
        path=str(filename),
        offset=int(array.offset),
        shape=tuple(array.shape),
        dtype=array.dtype.str,
    )


class SharedArena:
    """Parent-side owner of the shared-memory segments of one parallel run.

    ``export`` copies an array into a fresh segment and returns its handle;
    exporting the *same object* again returns the existing handle.  The arena
    keeps both the segments and a reference to every exported array (so an
    ``id()`` can never be recycled onto a different array mid-run) until
    :meth:`close` releases everything.  Use as a context manager::

        with SharedArena() as arena:
            payload = dumps_shared(obj, arena)
            ...  # run the pool to completion
        # segments are closed and unlinked here
    """

    def __init__(self, threshold: int = SHARE_THRESHOLD_BYTES) -> None:
        self.threshold = int(threshold)
        self._segments: list = []
        self._handles: Dict[int, SharedArrayHandle] = {}
        self._keepalive: list = []
        # Segments are system-global names: if this process dies between
        # export and close (KeyboardInterrupt escaping the context manager,
        # an exception in a caller that never entered one), the /dev/shm
        # entries outlive it.  Every live arena therefore registers with a
        # process-wide atexit sweep that unlinks whatever is left.  The
        # owner pid makes the sweep fork-safe: a pool worker inherits the
        # parent's arena object but must never unlink the parent's live
        # segments on its own exit.
        self._owner_pid = os.getpid()
        _LIVE_ARENAS.add(self)

    # ------------------------------------------------------------------
    @property
    def n_segments(self) -> int:
        return len(self._segments)

    def nbytes(self) -> int:
        """Total bytes held in shared segments."""
        return sum(segment.size for segment in self._segments)

    def export(self, array: np.ndarray) -> SharedArrayHandle:
        """Copy ``array`` into shared memory (once per object) and return its handle."""
        handle = self._handles.get(id(array))
        if handle is not None:
            return handle
        contiguous = np.ascontiguousarray(array)
        segment = shared_memory.SharedMemory(create=True, size=max(1, contiguous.nbytes))
        view = None
        try:
            view = np.ndarray(contiguous.shape, dtype=contiguous.dtype, buffer=segment.buf)
            view[...] = contiguous
        except BaseException:
            # The segment exists in the system namespace the moment it is
            # created; if the copy into it fails the arena never learns the
            # name, so unlink here or the segment leaks until reboot.  The
            # view's buffer reference must be dropped before close().
            view = None  # noqa: F841
            segment.close()
            segment.unlink()
            raise
        handle = SharedArrayHandle(segment.name, tuple(contiguous.shape), contiguous.dtype.str)
        self._segments.append(segment)
        self._handles[id(array)] = handle
        self._keepalive.append(array)
        counter_add("shm.segments_exported")
        counter_add("shm.bytes_exported", segment.size)
        return handle

    def close(self, unlink: bool = True) -> None:
        """Release every segment (and by default unlink it from the system).

        Idempotent, and safe to call mid-failure: a still-referenced buffer
        (``BufferError``) does not stop the *name* from being unlinked, so the
        system-wide ``/dev/shm`` entry disappears even when a view leaked.

        In a forked child (``os.getpid()`` differs from the creating pid) the
        segments belong to the parent: local references are dropped but
        nothing is unlinked.
        """
        owns = os.getpid() == self._owner_pid
        for segment in self._segments:
            try:
                segment.close()
            except BufferError:  # a view is still alive; unlink the name anyway
                pass
            if unlink and owns:
                try:
                    segment.unlink()
                except FileNotFoundError:  # already unlinked (e.g. by a crashed twin)
                    pass
        self._segments.clear()
        self._handles.clear()
        self._keepalive.clear()

    def __enter__(self) -> "SharedArena":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


#: Every arena not yet closed, swept by :func:`_close_live_arenas` at process
#: exit so an interrupt mid-sweep cannot leave /dev/shm segments behind.
_LIVE_ARENAS: "weakref.WeakSet[SharedArena]" = weakref.WeakSet()


def _close_live_arenas() -> None:  # pragma: no cover - exercised via subprocess
    for arena in list(_LIVE_ARENAS):
        try:
            arena.close()
        except Exception:
            pass  # exit-time best effort; the resource tracker is the backstop


atexit.register(_close_live_arenas)


# ----------------------------------------------------------------------
# Attach side (workers, or the parent round-tripping its own payload)
# ----------------------------------------------------------------------
#: Per-process cache of attached segments: name -> (SharedMemory, view).
#: The SharedMemory object must stay referenced for as long as any view of
#: its buffer is alive, so the cache holds both together.
_ATTACHED: Dict[str, Tuple[shared_memory.SharedMemory, np.ndarray]] = {}


def _attach_untracked(name: str) -> shared_memory.SharedMemory:
    """Open a segment by name without registering it with the resource tracker.

    The parent arena owns segment lifetime.  An attaching process must stay
    out of the tracker entirely: with forked workers the tracker is shared
    with the parent, so a worker-side register/unregister pair would erase
    (or double) the parent's own registration and the tracker complains at
    unlink time.  Suppressing the register during attach (the Python 3.13
    ``track=False`` behaviour) sidesteps the whole dance.
    """
    try:  # pragma: no cover - tracker internals differ across platforms
        from multiprocessing import resource_tracker

        original = resource_tracker.register

        def quiet_register(name, rtype):
            if rtype != "shared_memory":
                original(name, rtype)

        resource_tracker.register = quiet_register
        try:
            return shared_memory.SharedMemory(name=name)
        finally:
            resource_tracker.register = original
    except ImportError:
        return shared_memory.SharedMemory(name=name)


def attach_array(handle: SharedArrayHandle) -> np.ndarray:
    """A read-only view of an exported array, attached (and cached) by name."""
    cached = _ATTACHED.get(handle.shm_name)
    if cached is not None:
        return cached[1]
    segment = _attach_untracked(handle.shm_name)
    view = np.ndarray(handle.shape, dtype=np.dtype(handle.dtype), buffer=segment.buf)
    view.setflags(write=False)
    _ATTACHED[handle.shm_name] = (segment, view)
    counter_add("shm.segments_attached")
    counter_add("shm.bytes_attached", view.nbytes)
    return view


#: Per-process cache of re-attached file mappings, keyed by the full handle.
#: Caching keeps repeated unpickles of the same engine (one per task batch)
#: from opening a fresh file descriptor and mapping each time.
_MAPPED: Dict[Tuple[str, int, Tuple[int, ...], str], np.ndarray] = {}


def attach_mapped(handle: MappedArrayHandle) -> np.ndarray:
    """A read-only ``np.memmap`` view of a file-backed array, cached per process."""
    key = (handle.path, handle.offset, handle.shape, handle.dtype)
    cached = _MAPPED.get(key)
    if cached is not None:
        return cached
    view = np.memmap(
        handle.path,
        dtype=np.dtype(handle.dtype),
        mode="r",
        offset=handle.offset,
        shape=handle.shape,
    )
    _MAPPED[key] = view
    counter_add("shm.segments_mapped")
    counter_add("shm.bytes_mapped", view.nbytes)
    return view


def detach_all() -> None:
    """Drop this process's attached views and close their mappings.

    Only safe once no views handed out by :func:`attach_array` are in use;
    workers normally skip this (their mappings die with the process) — it
    exists for the parent and for tests that round-trip payloads in-process.
    """
    for segment, _ in _ATTACHED.values():
        try:
            segment.close()
        except BufferError:  # a view is still alive; leave the mapping open
            pass
    _ATTACHED.clear()
    _MAPPED.clear()


# ----------------------------------------------------------------------
# The sharing pickler pair
# ----------------------------------------------------------------------
class _SharingPickler(pickle.Pickler):
    """Pickler that diverts large ndarrays into a :class:`SharedArena`."""

    def __init__(self, file, arena: SharedArena) -> None:
        super().__init__(file, protocol=pickle.HIGHEST_PROTOCOL)
        self._arena = arena

    def persistent_id(self, obj):
        if isinstance(obj, np.ndarray) and not obj.dtype.hasobject:
            # File-backed arrays ship as path references regardless of size:
            # re-mapping the file is strictly cheaper than copying it into a
            # segment, and keeps every process on the same physical pages.
            mapped = mapped_handle(obj)
            if mapped is not None:
                return mapped
            if obj.nbytes >= self._arena.threshold:
                return self._arena.export(obj)
        return None


class _AttachingUnpickler(pickle.Unpickler):
    """Unpickler resolving :class:`SharedArrayHandle` ids into shared views."""

    def persistent_load(self, pid):
        if isinstance(pid, SharedArrayHandle):
            return attach_array(pid)
        if isinstance(pid, MappedArrayHandle):
            return attach_mapped(pid)
        raise pickle.UnpicklingError(f"unknown persistent id {pid!r}")


def dumps_shared(obj, arena: SharedArena) -> bytes:
    """Pickle ``obj``, exporting its large arrays into ``arena``."""
    buffer = io.BytesIO()
    _SharingPickler(buffer, arena).dump(obj)
    return buffer.getvalue()


def loads_shared(data: bytes):
    """Unpickle a :func:`dumps_shared` payload, attaching its shared arrays."""
    return _AttachingUnpickler(io.BytesIO(data)).load()
