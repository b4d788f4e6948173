"""Queued resources for the simulation kernel.

Two primitives cover everything the storage stacks need:

* :class:`Resource` — a counting semaphore with a FIFO wait queue.  Disks,
  CPUs, and the NFS client's bounded async-write pool are resources.
* :class:`Store` — an unbounded FIFO of items with blocking ``get``; used
  for message inboxes and request queues.

Both also keep the accounting the experiments need, so utilization
figures fall out of the same objects that provide the contention.  Every
:class:`Resource` carries one :class:`~repro.sim.stats.ResourceStats`
(``resource.stats``), its only accounting: busy time (the CPU
utilization of Tables 5-7 and 9/10), wait-time histograms, and the
queue-depth integral — the raw material for the queueing analytics in
:mod:`repro.obs.profile`.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, Generator, List, Optional

from .kernel import Event, SimulationError, Simulator
from .stats import ResourceStats

__all__ = ["Resource", "Store"]


class Resource:
    """A counting semaphore with FIFO queueing and utilization tracking."""

    __slots__ = ("sim", "capacity", "name", "available", "_waiters", "stats")

    def __init__(self, sim: Simulator, capacity: int = 1, name: str = ""):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.sim = sim
        self.capacity = capacity
        self.name = name
        self.available = capacity
        self._waiters: Deque[Event] = deque()
        self.stats = ResourceStats(self)

    @property
    def queue_length(self) -> int:
        return len(self._waiters)

    def acquire(self) -> Generator[Event, Any, None]:
        """Coroutine: block until a unit of capacity is held."""
        if self.available > 0 and not self._waiters:
            self.available -= 1
            self.stats.note_acquired(0.0)
        else:
            arrived = self.sim.now
            gate = self.sim.event()
            self.stats.note_enqueued()
            self._waiters.append(gate)
            yield gate
            self.stats.note_wait_done(self.sim.now - arrived)
        return None

    def release(self) -> None:
        """Return one unit of capacity; wakes the oldest waiter, if any."""
        waiters = self._waiters
        if not waiters and self.available >= self.capacity:
            raise SimulationError(
                "resource %r released more than acquired" % (self.name,)
            )
        self.stats.note_released()
        if waiters:
            waiters.popleft().trigger()
        else:
            self.available += 1

    def use(self, duration: float) -> Generator[Event, Any, None]:
        """Coroutine: acquire, hold for ``duration``, release.

        The acquire is inlined (same logic as :meth:`acquire`) so the
        per-charge hot path costs one generator, not two nested ones.
        """
        if self.available > 0 and not self._waiters:
            self.available -= 1
            self.stats.note_acquired(0.0)
        else:
            arrived = self.sim.now
            gate = Event(self.sim)
            self.stats.note_enqueued()
            self._waiters.append(gate)
            yield gate
            self.stats.note_wait_done(self.sim.now - arrived)
        try:
            yield self.sim.hold(duration)
        finally:
            self.release()
        return None


class Store:
    """An unbounded FIFO with blocking ``get`` (message inbox)."""

    __slots__ = ("sim", "name", "_items", "_getters", "total_put")

    def __init__(self, sim: Simulator, name: str = ""):
        self.sim = sim
        self.name = name
        self._items: Deque[Any] = deque()
        # Blocked getters park their Process directly (no gate Event):
        # put() hands the item straight to the oldest parked process.
        self._getters: Deque[Any] = deque()
        self.total_put = 0

    def __len__(self) -> int:
        return len(self._items)

    def put(self, item: Any) -> None:
        """Deposit ``item``; wakes the oldest blocked getter."""
        self.total_put += 1
        if self._getters:
            self.sim.unpark(self._getters.popleft(), item)
        else:
            self._items.append(item)

    def get(self) -> Generator[Any, Any, Any]:
        """Coroutine: return the oldest item, blocking while empty."""
        if self._items:
            return self._items.popleft()
        sim = self.sim
        self._getters.append(sim._active_process)
        item = yield sim.park()
        return item

    def get_nowait(self) -> Optional[Any]:
        """Return the oldest item or ``None`` without blocking."""
        if self._items:
            return self._items.popleft()
        return None

    def drain(self) -> List[Any]:
        """Remove and return all queued items."""
        items = list(self._items)
        self._items.clear()
        return items
