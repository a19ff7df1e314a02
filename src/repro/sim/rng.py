"""Named, reproducible random-number substreams.

Every stochastic component (core speed jitter, workload think times,
hash functions) draws from its own named substream spawned from one root
seed, so adding a new random consumer never perturbs existing streams
and whole experiments replay bit-identically.

Per-item normals (core speed jitter) come from :class:`BufferedNormals`,
which draws them ahead in blocks.  A block of ``n`` array draws holds
exactly the values of ``n`` scalar draws, so buffering is invisible to
the timeline.  Each buffer has exactly one consumer: a core claims its
stream when it attaches, and a second claim raises, so every machine
names its own streams (``core{i}.jitter`` on the receiver,
``client{k}.core{i}.jitter`` on client machine ``k``).
"""

from __future__ import annotations

from typing import Dict, List

import numpy as np

#: normals drawn per refill: enough to amortise the numpy call, small
#: enough (a 512-float list is ~16 KB) to keep every stream's buffer cheap
NORMAL_BLOCK = 512


class BufferedNormals:
    """Standard normals from one generator, drawn ahead in blocks.

    ``buf`` holds the pending draws in *reverse* order, so the next one
    is ``buf.pop()``; hot paths pop it inline and call :meth:`refill`
    only when it is empty.  :meth:`refill` extends the same list object,
    so its consumer may keep a reference to ``buf`` across refills.  The
    generator must not be drawn from directly while a buffer is live:
    that would interleave differently from scalar draws.

    A fused run (:class:`~repro.cpu.core.Core`) reads its draws before
    popping them, which is only exact while it is the buffer's sole
    consumer.  :meth:`claim` makes that an invariant: the one core that
    attaches claims the buffer, and a second claim raises.
    """

    __slots__ = ("gen", "buf", "claimed")

    def __init__(self, gen: np.random.Generator):
        self.gen = gen
        self.buf: List[float] = []
        self.claimed = False

    def claim(self) -> None:
        """Take this buffer as its sole consumer; raise if it has one."""
        if self.claimed:
            raise ValueError("jitter stream already has a consumer; give each core its own")
        self.claimed = True

    def refill(self) -> float:
        """Draw the next block into ``buf`` and return its first value."""
        block = self.gen.standard_normal(NORMAL_BLOCK).tolist()
        block.reverse()
        buf = self.buf
        buf.extend(block)
        return buf.pop()

    def reserve(self, n: int) -> None:
        """Make at least ``n`` draws pending, so a consumer may read
        ``buf[-1]``, ``buf[-2]``, ... before popping them.  New blocks go
        *behind* the pending draws; the generator has no other reader, so
        drawing a block early changes no value."""
        buf = self.buf
        while len(buf) < n:
            block = self.gen.standard_normal(NORMAL_BLOCK).tolist()
            block.reverse()
            buf[:0] = block


class RngStreams:
    """Factory of independent :class:`numpy.random.Generator` substreams."""

    def __init__(self, seed: int = 0):
        self.seed = seed
        self._root = np.random.SeedSequence(seed)
        self._streams: Dict[str, np.random.Generator] = {}
        self._normals: Dict[str, BufferedNormals] = {}

    def stream(self, name: str) -> np.random.Generator:
        """Return the generator for ``name``, creating it deterministically.

        The substream is derived from ``(root_seed, name)`` only — the order
        in which streams are first requested does not matter.
        """
        gen = self._streams.get(name)
        if gen is None:
            # Derive per-name entropy from the name bytes so stream identity
            # is positional-order independent.
            name_key = [b for b in name.encode("utf-8")]
            seq = np.random.SeedSequence(
                entropy=self._root.entropy, spawn_key=tuple(name_key)
            )
            gen = np.random.default_rng(seq)
            self._streams[name] = gen
        return gen

    def normals(self, name: str) -> BufferedNormals:
        """The buffered normal source of stream ``name``, one per name.

        The same object comes back for the same name; only one consumer
        may :meth:`~BufferedNormals.claim` it.
        """
        src = self._normals.get(name)
        if src is None:
            src = self._normals[name] = BufferedNormals(self.stream(name))
        return src

    def __contains__(self, name: str) -> bool:
        return name in self._streams
