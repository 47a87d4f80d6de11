"""Shared-memory numpy plumbing for the process-parallel shard plane.

One :class:`SharedArrayGroup` packs a named set of numpy arrays into a
single ``multiprocessing.shared_memory`` segment: the coordinator
*creates* a group per shard (copying the resident arrays in once and
rebinding the shard to the shared views), worker processes *attach* by
descriptor and see the same physical pages — vertex ids, halt flags,
encoded values, CSR edges, and message buffers all cross the process
boundary without pickling a single element.

Only fixed-width dtypes can live in shared memory; every value codec
stores INTEGER or FLOAT columns, so every shard array qualifies.

Ownership contract: the creating process is the only one that ever
``unlink``\\ s a segment; attachers only ``close``.  Spawned worker
processes share the coordinator's ``resource_tracker`` (the tracker fd
travels in the spawn preparation data), so an attach registers the same
name in the same tracker the creator did — a set add, idempotent — and
the creator's ``unlink`` unregisters it exactly once.  (The bpo-39959
hazard — an attacher's *own* tracker unlinking segments it never owned
when that process exits — does not arise with a shared tracker.)
"""

from __future__ import annotations

import os
import threading
from dataclasses import dataclass
from multiprocessing import shared_memory

import numpy as np

__all__ = ["SharedArrayGroup", "GroupDescriptor", "new_segment_name"]

_NAME_LOCK = threading.Lock()
_NAME_COUNTER = 0


def new_segment_name(prefix: str) -> str:
    """A segment name unique across this process's lifetime (the pid
    keeps concurrent test processes on one machine apart)."""
    global _NAME_COUNTER
    with _NAME_LOCK:
        _NAME_COUNTER += 1
        return f"{prefix}_{os.getpid()}_{_NAME_COUNTER}"


def _align(offset: int, alignment: int = 16) -> int:
    return (offset + alignment - 1) // alignment * alignment


@dataclass(frozen=True)
class GroupDescriptor:
    """The picklable wire form of a :class:`SharedArrayGroup`: the
    segment name plus each array's ``(field, dtype, shape, offset)``."""

    name: str
    fields: tuple[tuple[str, str, tuple[int, ...], int], ...]

    def total_bytes(self) -> int:
        if not self.fields:
            return 1
        _, dtype, shape, offset = self.fields[-1]
        return max(1, offset + int(np.dtype(dtype).itemsize * int(np.prod(shape))))


class SharedArrayGroup:
    """A set of named numpy arrays packed into one shared segment.

    Create with :meth:`create` (coordinator side — copies data in,
    returns writable views) or :meth:`attach` (worker side — maps the
    same pages).  Views keep the group alive via ``.base`` chains, but
    explicit lifecycle is the contract: the creator calls :meth:`unlink`
    exactly once when the plane is closed, every attacher calls
    :meth:`close` when it drops the plane.
    """

    def __init__(
        self, shm: shared_memory.SharedMemory, descriptor: GroupDescriptor, owner: bool
    ) -> None:
        self.shm = shm
        self.descriptor = descriptor
        self.owner = owner
        self.arrays: dict[str, np.ndarray] = {}
        for field, dtype, shape, offset in descriptor.fields:
            self.arrays[field] = np.ndarray(
                shape, dtype=np.dtype(dtype), buffer=shm.buf, offset=offset
            )

    # ------------------------------------------------------------------
    @classmethod
    def create(cls, prefix: str, arrays: dict[str, np.ndarray]) -> "SharedArrayGroup":
        """Pack ``arrays`` (fixed-width dtypes only) into a fresh segment."""
        fields = []
        offset = 0
        for field, array in arrays.items():
            if array.dtype.hasobject:
                raise ValueError(
                    f"array {field!r} has object dtype; shared memory holds "
                    "fixed-width dtypes only"
                )
            offset = _align(offset)
            fields.append((field, array.dtype.str, tuple(array.shape), offset))
            offset += array.nbytes
        descriptor = GroupDescriptor(new_segment_name(prefix), tuple(fields))
        shm = shared_memory.SharedMemory(
            name=descriptor.name, create=True, size=max(1, offset)
        )
        group = cls(shm, descriptor, owner=True)
        for field, array in arrays.items():
            group.arrays[field][...] = array
        return group

    @classmethod
    def attach(cls, descriptor: GroupDescriptor) -> "SharedArrayGroup":
        """Map an existing segment created elsewhere (worker side)."""
        return cls(shared_memory.SharedMemory(name=descriptor.name), descriptor, owner=False)

    # ------------------------------------------------------------------
    def close(self) -> None:
        """Drop this process's mapping (safe to call repeatedly)."""
        self.arrays.clear()
        try:
            self.shm.close()
        except Exception:
            pass

    def unlink(self) -> None:
        """Destroy the segment (creator only; idempotent)."""
        self.close()
        if not self.owner:
            return
        self.owner = False
        try:
            self.shm.unlink()
        except FileNotFoundError:
            pass
