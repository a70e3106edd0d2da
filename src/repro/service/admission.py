"""Admission control: a bounded, priority-aware queue that sheds load.

The overload behaviour a mediator needs is *fail fast and say so*: once
the queue is full, accepting more work only grows latency for everyone,
so excess requests are rejected immediately with a typed
:class:`~repro.errors.ServiceOverloaded` carrying the observed queue
depth and a retry-after hint.  Admission is priority-aware -- when the
queue is full, a new request may *preempt* a queue slot from a strictly
lower-priority queued request (the newest one, which has waited least):
the evicted request is shed with the same typed error (``shed=True``),
so every submitted request is always accounted for -- served, rejected
at the door, or shed with an explicit error.  Nothing is silently
dropped.  The queue keeps no books: a refusal is the raised error, a
preemption the returned ticket, and the service counts both.

Dequeue order is strict priority, FIFO within a class.  All state lives
behind one lock + condition; :meth:`take` is the blocking worker side.
"""

from __future__ import annotations

import threading
from collections import deque
from typing import Deque, Dict, List, Optional

from repro.errors import ServiceOverloaded, ServiceStopped
from repro.service.request import PRIORITY_CLASSES, PRIORITY_NAMES, Ticket


class AdmissionQueue:
    """Bounded priority queue with load shedding and preemption."""

    def __init__(self, capacity: int) -> None:
        if capacity < 1:
            raise ValueError("queue capacity must be positive")
        self.capacity = capacity
        self._lock = threading.Lock()
        self._not_empty = threading.Condition(self._lock)
        self._queues: Dict[int, Deque[Ticket]] = {
            priority: deque() for priority in PRIORITY_CLASSES
        }
        self._closed = False

    # -------------------------------------------------------- inspection
    def depth(self) -> int:
        """How many requests are queued right now."""
        with self._lock:
            return self._depth_locked()

    def _depth_locked(self) -> int:
        return sum(len(queue) for queue in self._queues.values())

    # --------------------------------------------------------- admission
    def offer(
        self, ticket: Ticket, retry_after: Optional[float] = None
    ) -> Optional[Ticket]:
        """Admit a ticket, possibly preempting a lower-priority one.

        Returns the *evicted* ticket when admission preempted a queued
        strictly-lower-priority request (the caller must resolve it as
        shed), or ``None`` when the ticket was admitted without
        eviction.  Raises :class:`ServiceOverloaded` when the queue is
        full and holds no lower-priority victim, and
        :class:`ServiceStopped` when the queue is closed.
        """
        priority = ticket.request.priority
        with self._lock:
            if self._closed:
                raise ServiceStopped(
                    "service is draining: new requests are not accepted"
                )
            depth = self._depth_locked()
            evicted: Optional[Ticket] = None
            if depth >= self.capacity:
                # Preempt the newest queued request of the lowest
                # strictly-worse priority class, if any.
                for victim_class in reversed(PRIORITY_CLASSES):
                    if victim_class <= priority:
                        break
                    if self._queues[victim_class]:
                        evicted = self._queues[victim_class].pop()
                        break
                if evicted is None:
                    raise ServiceOverloaded(
                        f"admission queue full ({depth}/{self.capacity}) "
                        f"and no lower-priority request to preempt "
                        f"({PRIORITY_NAMES[priority]} arrival)",
                        queue_depth=depth,
                        retry_after=retry_after,
                    )
            self._queues[priority].append(ticket)
            self._not_empty.notify()
            return evicted

    # ------------------------------------------------------------ workers
    def take(self, timeout: Optional[float] = None) -> Optional[Ticket]:
        """Block for the next request: strict priority, FIFO within.

        Returns ``None`` when the queue is closed and empty (workers
        exit) or when ``timeout`` elapses without work.
        """
        with self._not_empty:
            while True:
                for priority in PRIORITY_CLASSES:
                    if self._queues[priority]:
                        return self._queues[priority].popleft()
                if self._closed:
                    return None
                if not self._not_empty.wait(timeout):
                    return None

    # ---------------------------------------------------------- lifecycle
    def close(self) -> None:
        """Stop accepting new work and wake every blocked worker."""
        with self._not_empty:
            self._closed = True
            self._not_empty.notify_all()

    def reopen(self) -> None:
        """Accept work again (service restart)."""
        with self._lock:
            self._closed = False

    def evict_all(self) -> List[Ticket]:
        """Remove and return every queued ticket (non-graceful stop)."""
        with self._lock:
            evicted: List[Ticket] = []
            for priority in PRIORITY_CLASSES:
                evicted.extend(self._queues[priority])
                self._queues[priority].clear()
            return evicted

    def __repr__(self) -> str:
        return f"AdmissionQueue({self.depth()}/{self.capacity} queued)"
