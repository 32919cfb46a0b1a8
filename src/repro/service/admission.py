"""Admission-control primitives: the priority-class queue.

The service used to hold pending work in one ``asyncio.Queue``; with
priority classes the pending set is a bank of per-class FIFOs drained
strictly highest-class-first.  :class:`PriorityClassQueue` keeps the
``asyncio.Queue`` surface the batch loop already speaks (``put_nowait`` /
``get`` / ``get_nowait`` / ``empty`` / ``qsize``).

The queue is single-consumer (the batch loop); producers may be any
number of ``submit`` coroutines on the same event loop.  Bounds are not
enforced here — admission control rejects before ``put_nowait`` — so the
deques can stay unbounded and putting never blocks.
"""

from __future__ import annotations

import asyncio
from collections import deque

from repro.service.request import PRIORITIES

__all__ = ["PriorityClassQueue"]


class PriorityClassQueue:
    """Multi-class FIFO: strict priority across classes, FIFO within.

    Items are ``(request, future)`` pairs; the class is read off
    ``request.priority``.  ``get()`` is cancellation-safe: an item is
    popped synchronously after the wakeup ``await``, so cancelling a
    waiting ``get()`` (``stop()`` does) never loses an item.
    """

    def __init__(self, classes: tuple[str, ...] = PRIORITIES) -> None:
        self._classes = tuple(classes)
        self._queues: dict[str, deque] = {c: deque() for c in self._classes}
        self._wakeup = asyncio.Event()
        self._size = 0

    def put_nowait(self, item) -> None:
        """Enqueue ``(request, future)`` at the tail of its class."""
        request = item[0]
        self._queues[request.priority].append(item)
        self._size += 1
        self._wakeup.set()

    def _pop(self):
        for name in self._classes:
            queue = self._queues[name]
            if queue:
                self._size -= 1
                return queue.popleft()
        return None

    def get_nowait(self):
        """Pop the head of the highest non-empty class; raises when empty."""
        item = self._pop()
        if item is None:
            raise asyncio.QueueEmpty
        return item

    async def get(self):
        """Pop the head of the highest non-empty class, waiting if empty."""
        while True:
            item = self._pop()
            if item is not None:
                return item
            self._wakeup.clear()
            await self._wakeup.wait()

    def empty(self) -> bool:
        return self._size == 0

    def qsize(self) -> int:
        return self._size

    def sizes(self) -> dict[str, int]:
        """Pending items per class (for snapshots)."""
        return {name: len(q) for name, q in self._queues.items()}
