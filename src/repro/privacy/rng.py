"""Random-number-generator plumbing.

Every randomized component in the library (noise mechanisms, private medians,
sampling, data generators, query workloads) takes an explicit
``numpy.random.Generator`` so that experiments are reproducible end to end.
``ensure_rng`` is the single normalisation point: it accepts ``None``, an
integer seed, or an existing generator.

:class:`ReplayRng` is the multi-release build's bridge between two draw
orders: a sweep pre-draws every release's uniforms **release-major** (the
order a sequential loop of builds would consume them in), then replays them
into the level-stacked builder, which asks for each level's uniforms across
all releases at once.  Because every batched mechanism consumes its uniforms
through plain ``Generator.random`` calls of statically-known sizes (the draw
-order contract of :mod:`repro.privacy.median`), replaying re-ordered slices
of the same stream is enough to keep each release bitwise identical to its
sequential counterpart.
"""

from __future__ import annotations

from typing import Sequence, Union

import numpy as np

__all__ = ["RngLike", "ReplayRng", "ensure_rng", "spawn_generators"]


class ReplayRng(np.random.Generator):
    """A :class:`numpy.random.Generator` that replays pre-drawn uniforms.

    Constructed with an ordered list of uniform chunks; every ``random(n)``
    call pops the next chunk, which must have exactly ``n`` entries — a
    mismatch means the caller's draw layout diverged from the pre-draw plan,
    which would silently break release parity, so it fails loudly instead.
    Only ``random`` is served from the replay buffer; every other draw method
    is overridden to raise (see the loop below the class), because a
    non-uniform draw would silently consume the dummy bit generator and
    desynchronise the replay from the sequential reference.
    """

    def __init__(self, chunks: Sequence[np.ndarray]) -> None:
        # The backing bit generator is never consulted; it only satisfies the
        # Generator constructor so ``ensure_rng`` passes a replay through.
        super().__init__(np.random.PCG64(0))
        self._chunks = [np.asarray(c, dtype=float).ravel() for c in chunks]
        self._cursor = 0

    def random(self, size=None, dtype=np.float64, out=None):  # type: ignore[override]
        if out is not None:
            raise ValueError("ReplayRng.random does not support out=")
        if self._cursor >= len(self._chunks):
            raise RuntimeError("ReplayRng exhausted: more random() calls than pre-drawn chunks")
        chunk = self._chunks[self._cursor]
        n = 1 if size is None else int(np.prod(size))
        if chunk.size != n:
            raise RuntimeError(
                f"ReplayRng draw-layout mismatch: caller asked for {n} uniforms, "
                f"pre-drawn chunk {self._cursor} holds {chunk.size}"
            )
        self._cursor += 1
        if size is None:
            return float(chunk[0])
        return chunk.reshape(size)

    def exhausted(self) -> bool:
        """Whether every pre-drawn chunk has been consumed."""
        return self._cursor == len(self._chunks)


def _make_rejecting_draw(name: str):
    def rejecting(self, *args, **kwargs):
        raise RuntimeError(
            f"ReplayRng serves only random(); {name}() would draw from the dummy "
            "bit generator and silently break release parity"
        )
    rejecting.__name__ = name
    return rejecting


# Any non-uniform draw would consume the dummy bit generator instead of the
# pre-drawn stream; block every Generator draw method except random().
for _name in dir(np.random.Generator):
    if _name.startswith("_") or _name in ("random", "bit_generator", "spawn"):
        continue
    if callable(getattr(np.random.Generator, _name, None)):
        setattr(ReplayRng, _name, _make_rejecting_draw(_name))
del _name

RngLike = Union[None, int, np.random.Generator]


def ensure_rng(rng: RngLike = None) -> np.random.Generator:
    """Normalise ``rng`` into a :class:`numpy.random.Generator`.

    * ``None``  → a fresh, OS-seeded generator;
    * ``int``   → ``numpy.random.default_rng(seed)``;
    * ``Generator`` → returned unchanged.
    """
    if rng is None:
        return np.random.default_rng()
    if isinstance(rng, np.random.Generator):
        return rng
    if isinstance(rng, (int, np.integer)):
        return np.random.default_rng(int(rng))
    raise TypeError(f"rng must be None, an int seed, or a numpy Generator, got {type(rng)!r}")


def spawn_generators(rng: RngLike, count: int) -> list[np.random.Generator]:
    """``count`` child generators via the parent's ``SeedSequence.spawn``.

    This is the one per-case stream derivation of ``run_sweep``: one spawn
    per child, in order, off the parent generator's seed sequence.  It
    does not consume the parent's *draw* stream (only its spawn counter
    advances), and the children are exactly the ``SeedSequence`` spawn tree
    — so a result computed from child ``i`` is the same no matter where (or
    in what order) the children execute.
    """
    if count < 0:
        raise ValueError("count must be non-negative")
    base = ensure_rng(rng)
    if count == 0:
        return []
    try:
        return list(base.spawn(count))
    except AttributeError:  # numpy < 1.25: spawn straight off the seed sequence
        bitgen = base.bit_generator
        # the public BitGenerator.seed_seq accessor arrived together with
        # Generator.spawn; older releases expose only the private name
        seed_seq = getattr(bitgen, "seed_seq", None) or bitgen._seed_seq
        return [np.random.Generator(type(bitgen)(child)) for child in seed_seq.spawn(count)]
