"""Discrete-event simulation kernel.

The kernel implements a classic event-calendar simulator with
generator-coroutine processes, similar in spirit to SimPy but small,
deterministic, and tailored to this project:

* A :class:`Simulator` owns the virtual clock and the event calendar.
* A :class:`Process` wraps a generator.  The generator ``yield``\\ s
  :class:`Event` objects to block on them, and uses ``yield from`` to call
  sub-coroutines (the return value of the inner generator propagates).
* Every stochastic decision in the wider library goes through an explicitly
  seeded ``random.Random``; the kernel itself is fully deterministic —
  simultaneous events fire in scheduling order.

Performance notes
-----------------
The calendar holds flat ``(when, seq, kind, target, payload)`` records
instead of closures: scheduling never allocates a lambda, and the
dispatch loop switches on the small integer ``kind`` directly.  ``seq``
is unique, so heap comparisons never reach ``kind`` — the firing order
is exactly the ``(when, seq)`` contract the experiments rely on.  All
per-event classes use ``__slots__``.

There is one dispatch loop, :meth:`Simulator._drain`; :meth:`~Simulator.run`,
:meth:`~Simulator.run_process` and :meth:`~Simulator.run_window` differ
only in the horizon and the ``stop`` event they hand it.  The loop pops
first and pushes the one record at or past the horizon back, rather than
peeking before every pop.  Instrumentation that must see every record
(the flight recorder, simsan's order check) registers a per-pop
observer in :attr:`Simulator.observers`; with none attached, the loop
pays one truthiness test per record.

Example
-------
>>> sim = Simulator()
>>> def hello(sim):
...     yield sim.timeout(2.5)
...     return sim.now
>>> proc = sim.spawn(hello(sim))
>>> sim.run()
>>> proc.value
2.5
"""

from __future__ import annotations

import math
from heapq import heappop, heappush
from typing import Any, Callable, Generator, Iterable, List, Optional, Tuple

__all__ = [
    "Event",
    "Timeout",
    "Process",
    "AnyOf",
    "AllOf",
    "Interrupt",
    "SimulationError",
    "Simulator",
]

# Calendar record kinds (index 2 of each record).  Ordered by hotness in
# the run-loop dispatch: event processing dominates, then one-argument
# calls (message delivery), then process resumes (one per spawn).
_KIND_EVENT = 0    # target: Event      -> target._process()
_KIND_CALL1 = 1    # target: callable   -> target(payload)
_KIND_RESUME = 2   # target: Process    -> target._resume(payload, None)
_KIND_THROW = 3    # target: Process    -> target._resume(None, payload)

# Sentinel yielded by Simulator.hold(): the resume record is already on
# the calendar, so Process._resume has nothing to subscribe to.
_HOLD = object()


class _Never:
    """The ``stop`` of runs that end only at their horizon."""

    __slots__ = ()
    triggered = False


_NEVER = _Never()


class SimulationError(RuntimeError):
    """Raised for kernel-level misuse (e.g. running a finished simulator)."""


class Interrupt(Exception):
    """Thrown into a process by :meth:`Process.interrupt`.

    The ``cause`` attribute carries the value passed to ``interrupt``.
    """

    def __init__(self, cause: Any = None):
        super().__init__(cause)
        self.cause = cause


class Event:
    """A one-shot occurrence that processes can wait on.

    An event is *triggered* at most once, either with a value
    (:meth:`trigger`) or with an exception (:meth:`fail`).  Processes that
    yield a triggered event resume immediately (on the next kernel step);
    processes that yield a pending event resume when it triggers.
    """

    __slots__ = ("sim", "triggered", "ok", "value", "_callbacks", "defused")

    def __init__(self, sim: "Simulator"):
        self.sim = sim
        self.triggered = False
        self.ok: Optional[bool] = None
        self.value: Any = None
        self._callbacks: List[Callable[["Event"], None]] = []
        # Set to True once a failure has been delivered to at least one
        # waiter (or defused explicitly); undelivered failures raise at the
        # end of the run so errors never pass silently.
        self.defused = False

    # -- triggering ---------------------------------------------------------

    def trigger(self, value: Any = None) -> "Event":
        """Mark the event successful and schedule its waiters."""
        if self.triggered:
            raise SimulationError("event already triggered")
        self.triggered = True
        self.ok = True
        self.value = value
        sim = self.sim
        sim._sequence = seq = sim._sequence + 1
        heappush(sim._calendar, (sim.now, seq, _KIND_EVENT, self, None))
        return self

    def fail(self, exc: BaseException) -> "Event":
        """Mark the event failed; waiters receive ``exc``."""
        if self.triggered:
            raise SimulationError("event already triggered")
        if not isinstance(exc, BaseException):
            raise TypeError("fail() requires an exception instance")
        self.triggered = True
        self.ok = False
        self.value = exc
        sim = self.sim
        sim._sequence = seq = sim._sequence + 1
        heappush(sim._calendar, (sim.now, seq, _KIND_EVENT, self, None))
        return self

    # -- waiting ------------------------------------------------------------

    def add_callback(self, callback: Callable[["Event"], None]) -> None:
        """Register ``callback(event)``; runs when the event is processed.

        If the event has already been processed the callback is scheduled
        for the current instant (as a flat calendar record — no closure is
        allocated for this late-waiter hot path).
        """
        if self._callbacks is None:  # already processed
            sim = self.sim
            sim._sequence = seq = sim._sequence + 1
            heappush(sim._calendar, (sim.now, seq, _KIND_CALL1, callback, self))
        else:
            self._callbacks.append(callback)

    def _process(self) -> None:
        callbacks = self._callbacks
        self._callbacks = None
        for callback in callbacks:
            callback(self)
        if self.ok is False and not self.defused:
            self.sim._unhandled.append(self)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "triggered" if self.triggered else "pending"
        return "<%s %s at t=%s>" % (type(self).__name__, state, self.sim.now)


class Timeout(Event):
    """An event that triggers ``delay`` time units after creation."""

    __slots__ = ("delay",)

    def __init__(self, sim: "Simulator", delay: float, value: Any = None):
        if delay < 0:
            raise ValueError("negative delay: %r" % (delay,))
        self.sim = sim
        self.triggered = True
        self.ok = True
        self.value = value
        self._callbacks = []
        self.defused = False
        self.delay = delay
        sim._sequence = seq = sim._sequence + 1
        heappush(sim._calendar, (sim.now + delay, seq, _KIND_EVENT, self, None))


class Process(Event):
    """A running coroutine; also an event that triggers on completion."""

    # ``trace_parent`` is not set by the kernel itself: spawners that fan
    # work out across processes (RAID, write-back) attach it so the tracer
    # can seed span parentage (see repro.obs.tracer).
    __slots__ = ("name", "_generator", "_waiting_on", "trace_parent")

    def __init__(self, sim: "Simulator", generator: Generator, name: str = ""):
        if not hasattr(generator, "send"):
            raise TypeError("Process requires a generator, got %r" % (generator,))
        super().__init__(sim)
        self.name = name or getattr(generator, "__name__", "process")
        self._generator = generator
        self._waiting_on: Optional[Event] = None
        sim._sequence = seq = sim._sequence + 1
        heappush(sim._calendar, (sim.now, seq, _KIND_RESUME, self, None))

    @property
    def is_alive(self) -> bool:
        return not self.triggered

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at the current instant."""
        if self.triggered:
            return
        sim = self.sim
        sim._sequence = seq = sim._sequence + 1
        heappush(sim._calendar,
                 (sim.now, seq, _KIND_THROW, self, Interrupt(cause)))

    # -- internal stepping ---------------------------------------------------

    def _resume(self, value: Any, exc: Optional[BaseException]) -> None:
        if self.triggered:
            return
        self._waiting_on = None
        # Expose the running process (observability: span parenting keys
        # off the process whose frame is currently executing).
        sim = self.sim
        previous = sim._active_process
        sim._active_process = self
        try:
            try:
                if exc is not None:
                    target = self._generator.throw(exc)
                else:
                    target = self._generator.send(value)
            except StopIteration as stop:
                self.trigger(stop.value)
                return
            except BaseException as error:
                self.fail(error)
                return
        finally:
            sim._active_process = previous
        if target is _HOLD:
            # hold() already pushed this process's resume record; there is
            # no event object to subscribe to.
            return
        if not isinstance(target, Event):
            self.fail(
                TypeError(
                    "process %r yielded %r; processes must yield Event "
                    "objects (use `yield from` for sub-coroutines)"
                    % (self.name, target)
                )
            )
            return
        self._waiting_on = target
        target.add_callback(self._on_event)

    def _on_event(self, event: Event) -> None:
        if self.triggered:
            return
        if event.ok:
            self._resume(event.value, None)
        else:
            event.defused = True
            self._resume(None, event.value)


class AnyOf(Event):
    """Triggers when the first of ``events`` triggers.

    The value is ``(event, value)`` for the first event to fire.  Failures
    of the winning event propagate; failures of losers are defused.
    """

    __slots__ = ("events",)

    def __init__(self, sim: "Simulator", events: Iterable[Event]):
        super().__init__(sim)
        self.events = list(events)
        if not self.events:
            raise ValueError("AnyOf requires at least one event")
        for event in self.events:
            event.add_callback(self._on_child)

    def _on_child(self, event: Event) -> None:
        if self.triggered:
            if event.ok is False:
                event.defused = True
            return
        if event.ok:
            self.trigger((event, event.value))
        else:
            event.defused = True
            self.fail(event.value)


class AllOf(Event):
    """Triggers when every one of ``events`` has triggered successfully.

    The value is the list of child values in construction order.  The first
    child failure fails the combinator.
    """

    __slots__ = ("events", "_pending")

    def __init__(self, sim: "Simulator", events: Iterable[Event]):
        super().__init__(sim)
        self.events = list(events)
        self._pending = len(self.events)
        if not self.events:
            self.trigger([])
            return
        for event in self.events:
            event.add_callback(self._on_child)

    def _on_child(self, event: Event) -> None:
        if self.triggered:
            if event.ok is False:
                event.defused = True
            return
        if event.ok is False:
            event.defused = True
            self.fail(event.value)
            return
        self._pending -= 1
        if self._pending == 0:
            self.trigger([child.value for child in self.events])


class Simulator:
    """The event calendar, virtual clock, and process spawner."""

    __slots__ = ("now", "_calendar", "_sequence", "_unhandled",
                 "_active_process", "observers")

    def __init__(self):
        self.now: float = 0.0
        self._calendar: List[Tuple[float, int, int, Any, Any]] = []
        self._sequence = 0
        self._unhandled: List[Event] = []
        self._active_process: Optional["Process"] = None
        # Per-pop observers: callables the dispatch loop hands every
        # popped record (the flight recorder's note_event, simsan's S403
        # order check).  They read and never schedule, so attaching one
        # leaves the event sequence unchanged.
        self.observers: Tuple[Callable[[Tuple[Any, ...]], None], ...] = ()

    # -- public API -----------------------------------------------------------

    def event(self) -> Event:
        """Create a fresh, untriggered event."""
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """Create an event that fires ``delay`` time units from now."""
        return Timeout(self, delay, value)

    def hold(self, delay: float) -> Any:
        """Sleep the *currently running* process for ``delay``; no Event.

        The allocation-free fast path for the innermost service delays
        (disk transfers, CPU charges): it pushes the process's resume
        record directly onto the calendar and returns a sentinel for the
        process to yield, skipping the Timeout object, its callback list,
        and the event-processing hop.  The record occupies the same
        ``(when, seq)`` slot a ``timeout(delay)`` created here would, so
        firing order is unchanged.

        Only valid ``yield``\\ ed immediately from code running inside a
        process; the returned sentinel is not an :class:`Event` and cannot
        be stored, combined with ``any_of``/``all_of``, or waited on by
        anyone else.
        """
        if delay < 0:
            raise ValueError("negative delay: %r" % (delay,))
        proc = self._active_process
        if proc is None:
            raise SimulationError("hold() outside a running process")
        self._sequence = seq = self._sequence + 1
        heappush(self._calendar,
                 (self.now + delay, seq, _KIND_RESUME, proc, None))
        return _HOLD

    def park(self) -> Any:
        """Suspend the *currently running* process with no Event.

        The counterpart of :meth:`hold` for wakeups another party
        delivers (queue hand-off): the caller stashes
        ``sim._active_process`` somewhere, yields the returned sentinel,
        and the other party later calls :meth:`unpark` with that process.
        The same caveats as :meth:`hold` apply.
        """
        if self._active_process is None:
            raise SimulationError("park() outside a running process")
        return _HOLD

    def unpark(self, proc: "Process", value: Any = None) -> None:
        """Resume a parked process at the current instant with ``value``.

        Occupies the same ``(when, seq)`` slot that triggering a wait
        event here would, so firing order matches the Event-based
        hand-off it replaces.
        """
        self._sequence = seq = self._sequence + 1
        heappush(self._calendar, (self.now, seq, _KIND_RESUME, proc, value))

    def spawn(self, generator: Generator, name: str = "") -> Process:
        """Start a new process from ``generator``."""
        return Process(self, generator, name=name)

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        """Return an event that fires when the first of ``events`` does."""
        return AnyOf(self, events)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        """Return an event that fires when every one of ``events`` has."""
        return AllOf(self, events)

    def peek(self) -> Optional[float]:
        """Return the ``when`` of the next calendar record, or ``None``.

        Sharded runs (:mod:`repro.sim.shard`) use this to compute the
        global minimum next-event time for the conservative
        synchronization window; it never pops or perturbs the calendar.
        """
        calendar = self._calendar
        if not calendar:
            return None
        return calendar[0][0]

    def schedule_at(self, when: float, call: Callable[[Any], None],
                    arg: Any) -> None:
        """Schedule ``call(arg)`` at the *absolute* time ``when``.

        The cross-shard injection path: an arrival time computed on the
        sending shard must land at exactly that float on the receiving
        shard.  Routing through a relative delay (``when - now``) can
        lose the low bits to float rounding, which would break the
        byte-identity contract between sharded and sequential runs.
        ``when`` must not lie in this simulator's past.
        """
        if when < self.now:
            raise SimulationError(
                "schedule_at(%r) is in the past (now=%r)" % (when, self.now))
        self._sequence = seq = self._sequence + 1
        heappush(self._calendar, (when, seq, _KIND_CALL1, call, arg))

    def run_window(self, horizon: float) -> int:
        """Process every record with ``when`` strictly below ``horizon``.

        The building block of conservative parallel runs: a shard may
        safely execute all events earlier than the synchronization
        horizon because no other shard can inject anything below it
        (cross-shard delivery takes at least the lookahead).  Unlike
        :meth:`run`'s inclusive ``until`` bound, the comparison here is
        strict — an event *on* the horizon belongs to the next window —
        and the clock is left at the last processed event, never
        advanced to the horizon (the next window's events may sort
        before it).  Returns the number of records dispatched, which
        the sharded driver aggregates into per-shard event rates.
        """
        return self._drain(horizon, _NEVER)

    def run(self, until: Optional[float] = None) -> None:
        """Run until the calendar empties or the clock reaches ``until``.

        ``until`` is inclusive: records stamped exactly ``until`` fire.
        Afterwards the clock reads ``until``, unless it was already
        later: a bound behind the clock never rewinds it.
        """
        if until is None:
            self._drain(math.inf, _NEVER)
        else:
            self._drain(math.nextafter(until, math.inf), _NEVER)
            if until > self.now:
                self.now = until

    def run_process(self, generator: Generator, name: str = "") -> Any:
        """Spawn ``generator``, run to completion, and return its value.

        This is the main entry point used by workloads: it drives the whole
        simulation until the given process finishes (background processes
        may continue afterwards via :meth:`run`).
        """
        proc = self.spawn(generator, name=name)
        self._drain(math.inf, proc)
        if not proc.triggered:
            raise SimulationError(
                "process %r deadlocked: calendar empty at t=%s" % (proc.name, self.now)
            )
        if proc.ok is False:
            proc.defused = True
            raise proc.value
        return proc.value

    # -- internal -------------------------------------------------------------

    def _drain(self, horizon: float, stop: Any) -> int:
        """The dispatch loop: fire records below ``horizon`` in order.

        Pops ``(when, seq)``-ordered records until the calendar empties,
        the next record lies at or beyond ``horizon`` (it is pushed back
        untouched), or ``stop.triggered`` turns true — checked before
        every pop, so the loop halts right after the record that
        finished ``stop``.  Each observer sees each popped record before
        the clock advances to it.  Returns the number of records
        dispatched.
        """
        calendar = self._calendar
        pop = heappop
        observers = self.observers
        count = 0
        while calendar and not stop.triggered:
            record = pop(calendar)
            when = record[0]
            if when >= horizon:
                heappush(calendar, record)
                break
            count += 1
            if observers:
                for observe in observers:
                    observe(record)
            if when > self.now:
                self.now = when
            kind = record[2]
            target = record[3]
            if kind == 0:
                target._process()
            elif kind == 1:
                target(record[4])
            elif kind == 2:
                target._resume(record[4], None)
            else:
                target._resume(None, record[4])
        self._raise_unhandled()
        return count

    def _schedule_call1(self, call: Callable[[Any], None], arg: Any,
                        delay: float = 0.0) -> None:
        """Schedule ``call(arg)`` without allocating a closure."""
        self._sequence = seq = self._sequence + 1
        heappush(self._calendar, (self.now + delay, seq, _KIND_CALL1, call, arg))

    def _schedule_event(self, event: Event, delay: float = 0.0) -> None:
        self._sequence = seq = self._sequence + 1
        heappush(self._calendar, (self.now + delay, seq, _KIND_EVENT, event, None))

    def _record_failure(self, event: Event) -> None:
        self._unhandled.append(event)

    def _raise_unhandled(self) -> None:
        if not self._unhandled:
            return
        # A failure recorded at processing time may have been handled
        # *afterwards* by a late waiter (Event.add_callback on an already-
        # processed event): the waiter defuses it, so it no longer counts
        # as unhandled.
        pending = [event for event in self._unhandled if not event.defused]
        self._unhandled = []
        if not pending:
            return
        event = pending[0]
        if isinstance(event.value, BaseException):
            raise event.value
        raise SimulationError("unhandled event failure: %r" % (event.value,))
