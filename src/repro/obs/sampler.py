"""The one probe sampler behind the tracer and the telemetry collector.

A *probe* is a zero-argument callable that reads existing accounting
state and returns a float.  Probes must never mutate what they read: a
probe that committed a busy-time accumulator would change the order of
float additions, and a sampled run would report different figures from
an unsampled one.  :class:`Sampler` runs one background simulator
process that reads every registered probe each ``interval`` simulated
seconds and hands the values to its owner's ``record`` callback.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Generator, List, Optional, Tuple

__all__ = ["Sampler"]

_KINDS = ("gauge", "cumulative", "rate")


class Sampler:
    """Samples registered probes every ``interval`` simulated seconds.

    A probe's ``kind`` is ``"gauge"`` (record ``fn()`` as-is, e.g. queue
    depth), ``"cumulative"`` (record the per-second rate of change of a
    growing total, clamped at 0 so a window reset cannot produce negative
    samples — utilization from busy-time integrals) or ``"rate"`` (the
    same arithmetic without the 0..1 meaning, e.g. link bytes/s).
    ``scale`` multiplies the recorded value; ``label`` is passed through
    untouched (the tracer's track, telemetry's series tag).

    Each tick calls ``record(now, name, label, value)`` once per probe in
    registration order, then ``tick(now)`` when given.  Probes may be
    registered before or after :meth:`start`: a rate baseline is seeded
    at registration, so a late probe joins the next tick with a correct
    delta.  The process spawns once sampling is started *and* a probe
    exists, so an idle sampler schedules nothing.
    """

    def __init__(self, sim: Any, interval: float, name: str,
                 record: Callable[[float, str, str, float], None],
                 tick: Optional[Callable[[float], None]] = None):
        if interval <= 0:
            raise ValueError("sampling interval must be positive")
        self.sim = sim
        self.interval = interval
        self.name = name
        self.probes: List[Tuple[str, Callable[[], float], str, str,
                                float]] = []
        self.process = None
        self._record = record
        self._tick = tick
        self._last: Dict[str, float] = {}
        self._started = False

    def add(self, name: str, fn: Callable[[], float], kind: str = "gauge",
            label: str = "", scale: float = 1.0) -> None:
        """Register probe ``name`` (see the class docstring for kinds)."""
        if kind not in _KINDS:
            raise ValueError("unknown probe kind %r" % (kind,))
        if any(probe[0] == name for probe in self.probes):
            raise ValueError("probe %r already registered" % (name,))
        self.probes.append((name, fn, kind, label, scale))
        if kind != "gauge":
            self._last[name] = fn()
        if self._started:
            self.start()

    def start(self) -> None:
        """Start sampling (idempotent; deferred until a probe exists)."""
        self._started = True
        if self.process is None and self.probes:
            self.process = self.sim.spawn(self._loop(), name=self.name)

    def _loop(self) -> Generator:
        sim = self.sim
        last = self._last
        record = self._record
        last_t = sim.now
        while True:
            yield sim.timeout(self.interval)
            now = sim.now
            dt = now - last_t
            last_t = now
            for name, fn, kind, label, scale in self.probes:
                value = fn()
                if kind != "gauge":
                    previous = last[name]
                    last[name] = value
                    value = max(0.0, value - previous) / dt
                record(now, name, label, value * scale)
            if self._tick is not None:
                self._tick(now)
