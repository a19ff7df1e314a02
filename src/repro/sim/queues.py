"""Fixed-size ring buffers.

:class:`RingBuffer` models a NIC descriptor ring: fixed capacity,
drop-on-full semantics, drop counting.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Generic, List, TypeVar

T = TypeVar("T")


class RingBuffer(Generic[T]):
    """NIC-style descriptor ring: fixed slots, tail-drop, drop counter."""

    __slots__ = ("name", "size", "_items", "drops", "total_enqueued")

    def __init__(self, name: str, size: int):
        if size <= 0:
            raise ValueError(f"ring size must be positive, got {size}")
        self.name = name
        self.size = size
        self._items: Deque[T] = deque()
        self.drops = 0
        self.total_enqueued = 0

    def __len__(self) -> int:
        return len(self._items)

    @property
    def full(self) -> bool:
        return len(self._items) >= self.size

    @property
    def empty(self) -> bool:
        return not self._items

    def push(self, item: T) -> bool:
        """Add a descriptor; returns False and counts a drop when full."""
        items = self._items
        if len(items) >= self.size:  # ``full``, without the property call
            self.drops += 1
            return False
        items.append(item)
        self.total_enqueued += 1
        return True

    def pop(self) -> T:
        """Remove and return the oldest descriptor."""
        return self._items.popleft()

    def pop_up_to(self, budget: int) -> List[T]:
        """Remove and return at most ``budget`` oldest descriptors."""
        n = min(budget, len(self._items))
        return [self._items.popleft() for _ in range(n)]

    def stats(self) -> dict:
        """Traffic snapshot (consumed by `repro prof`'s busiest-rings report)."""
        return {
            "name": self.name,
            "kind": "ring",
            "depth": len(self._items),
            "capacity": self.size,
            "puts": self.total_enqueued,
            "gets": self.total_enqueued - len(self._items),
            "drops": self.drops,
        }
