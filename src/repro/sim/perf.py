"""Kernel micro-benchmarks: tight synthetic loads on the hot paths.

Three storms exercise the three costs the kernel optimization targets —
calendar churn (:func:`event_storm`), process spawn/teardown
(:func:`spawn_storm`), and contended resource hand-off
(:func:`resource_storm`).  Each returns the number of calendar records it
dispatched, so a harness can report events/second.

A fourth, :func:`shard_storm`, exercises the *sharded* kernel
(:mod:`repro.sim.shard`): hub-and-clients groups exchanging
request/reply traffic across group boundaries, runnable on one flat
calendar (the reference) or partitioned over N shards with any
executor.  Its simulated outcome — completions, records dispatched, and
makespan — is engineered to be identical for every partitioning (every
client gets a distinct think-time offset, so no two events ever tie
across a shard boundary), which is what lets the scale CLI ``cmp`` a
sharded run's output against the sequential kernel's byte for byte.

They are deliberately *simulated-time* workloads measured in *wall-clock*
time: the simulation outcome is deterministic (same final ``sim.now``,
same event count, forever), so any wall-clock movement is pure
interpreter/kernel overhead.  Two consumers share them:

* ``benchmarks/perf_kernel.py`` — pytest-benchmark timings for humans;
* ``benchmarks/perf_smoke.py`` — the CI wall-clock gate, which times the
  storms plus the traced quick suite and fails on a big regression
  against the committed ``BENCH_perf.json``.
"""

from __future__ import annotations

import time
from typing import Any, Callable, Dict, Optional, Tuple

from .kernel import Simulator
from .resources import Resource, Store
from .shard import ShardedSimulator, default_parallel_executor

__all__ = ["event_storm", "spawn_storm", "resource_storm", "shard_storm",
           "run_shard_storm", "MICROBENCHES", "time_callable"]


def event_storm(events: int = 50_000) -> int:
    """One process sleeping ``events`` times: pure calendar churn."""
    sim = Simulator()

    def sleeper():
        for _ in range(events):
            yield sim.timeout(0.001)

    sim.run_process(sleeper(), name="sleeper")
    return events


def spawn_storm(processes: int = 5_000) -> int:
    """Spawn short-lived child processes and join each one."""
    sim = Simulator()

    def child():
        yield sim.timeout(0.001)
        return None

    def parent():
        for _ in range(processes):
            yield sim.spawn(child())

    sim.run_process(parent(), name="parent")
    return processes


def resource_storm(workers: int = 50, rounds: int = 200) -> int:
    """``workers`` processes fighting over a capacity-2 resource."""
    sim = Simulator()
    resource = Resource(sim, capacity=2, name="disk")

    def worker():
        for _ in range(rounds):
            yield from resource.use(0.001)

    for index in range(workers):
        sim.spawn(worker(), name="w%d" % index)
    sim.run()
    return workers * rounds


# -- the sharded storm --------------------------------------------------------
# Written once against a tiny "fabric" facade so the reference (one flat
# calendar) and the sharded run execute the *same actor code*: the only
# difference is where posts land.  _LocalFabric.post makes exactly the
# calendar record Shard.post's co-located fast path makes, which is why
# the two runs agree record for record.


class _LocalFabric:
    """All groups on one flat calendar: the sequential reference."""

    __slots__ = ("sim", "ports")

    def __init__(self, sim: Simulator):
        self.sim = sim
        self.ports: Dict[str, Callable[[Any], None]] = {}

    def sim_for(self, _group: int) -> Simulator:
        return self.sim

    def bind(self, _group: int, port: str,
             handler: Callable[[Any], None]) -> None:
        self.ports[port] = handler

    def post(self, _src: int, _dst: int, port: str, payload: Any,
             delay: float) -> None:
        self.sim._schedule_call1(self.ports[port], payload, delay)


class _ShardFabric:
    """Groups mapped round-robin onto the shards of a ShardedSimulator."""

    __slots__ = ("shards", "nshards")

    def __init__(self, sharded: ShardedSimulator):
        self.shards = sharded.shards
        self.nshards = len(sharded.shards)

    def shard_of(self, group: int) -> int:
        return group % self.nshards

    def sim_for(self, group: int) -> Simulator:
        return self.shards[self.shard_of(group)].sim

    def bind(self, group: int, port: str,
             handler: Callable[[Any], None]) -> None:
        self.shards[self.shard_of(group)].bind(port, handler)

    def post(self, src: int, dst: int, port: str, payload: Any,
             delay: float) -> None:
        # The hot path of every sharded storm and farm: index directly.
        nshards = self.nshards
        self.shards[src % nshards].post(dst % nshards, port, payload, delay)


def _storm_group(fabric, group: int, clients_per_group: int, requests: int,
                 groups: int, think: float, service: float, latency: float,
                 remote_every: int, sink: list):
    """Build one hub + its clients; return the client factories."""
    sim = fabric.sim_for(group)
    hub_box = Store(sim, name="hub%d" % group)
    fabric.bind(group, "hub%d" % group, hub_box.put)

    def hub():
        while True:
            src_group, src_index, seq = yield from hub_box.get()
            yield sim.hold(service)
            fabric.post(group, src_group,
                        "c%d.%d" % (src_group, src_index), seq, latency)

    sim.spawn(hub(), name="hub%d" % group)

    factories = []
    for index in range(clients_per_group):
        box = Store(sim, name="c%d.%d" % (group, index))
        fabric.bind(group, "c%d.%d" % (group, index), box.put)
        factories.append(_storm_client(
            fabric, sim, box, group, index, clients_per_group, groups,
            requests, think, latency, remote_every, sink))
    return factories


def _storm_client(fabric, sim, box, group, index, clients_per_group, groups,
                  requests, think, latency, remote_every, sink):
    # Every client gets its own think time: arrival instants across the
    # whole topology are pairwise distinct, so no equal-`when` tie ever
    # straddles a shard boundary and the outcome is partition-invariant.
    client_id = group * clients_per_group + index
    my_think = think * (1.0 + client_id * 7.3e-5)

    def client():
        completed = 0
        for seq in range(requests):
            yield sim.hold(my_think)
            if groups > 1 and seq % remote_every == 0:
                target = (group + 1) % groups
            else:
                target = group
            fabric.post(group, target, "hub%d" % target,
                        (group, index, seq), latency)
            yield from box.get()
            completed += 1
        sink.append((client_id, sim.now, completed))

    return client


def _dispatched(sim: Simulator) -> int:
    """Records actually fired: everything scheduled minus the leftovers."""
    return sim._sequence - len(sim._calendar)


def run_shard_storm(groups: int = 4, clients_per_group: int = 16,
                    requests: int = 25, nshards: int = 1,
                    executor: Optional[str] = None,
                    jobs: Optional[int] = None,
                    san: bool = False,
                    think: float = 0.002, service: float = 0.0004,
                    latency: float = 0.0005,
                    remote_every: int = 4) -> Dict[str, Any]:
    """Run the hub/client storm; return its metrics (and shard report).

    ``nshards=0`` runs the pure-sequential reference on one flat
    calendar; ``nshards>=1`` partitions the groups round-robin over
    that many shards (``executor`` defaults to the platform's parallel
    one).  The ``completed``/``records``/``makespan`` fields are
    identical for every value of ``nshards``/``executor``/``jobs`` —
    that invariance is the scale CLI's byte-identity contract — while
    ``report`` carries the partition-dependent synchronization stats
    (``None`` for the reference).
    """
    if executor is None:
        executor = default_parallel_executor()
    total_clients = groups * clients_per_group

    if nshards == 0:
        sim = Simulator()
        fabric = _LocalFabric(sim)
        sink: list = []
        for group in range(groups):
            for factory in _storm_group(
                    fabric, group, clients_per_group, requests, groups,
                    think, service, latency, remote_every, sink):
                sim.spawn(factory(), name="client")
        sim.run()
        finishes = sorted(sink)
        records = _dispatched(sim)
        report = None
    else:
        sharded = ShardedSimulator(nshards, latency, san=san,
                                   executor=executor, jobs=jobs)
        fabric = _ShardFabric(sharded)
        sinks = [[] for _ in range(nshards)]
        for group in range(groups):
            shard = sharded.shard(fabric.shard_of(group))
            group_sink = sinks[shard.id]
            for factory in _storm_group(
                    fabric, group, clients_per_group, requests, groups,
                    think, service, latency, remote_every, group_sink):
                shard.add_phase("storm", factory, name="client")
        for shard, group_sink in zip(sharded.shards, sinks):
            shard.set_collector(_storm_collector(shard, group_sink))
        sharded.run_phase("storm")
        collected = sharded.collect()
        sharded.close()
        if san and sharded.findings:
            from ..check.simsan import SanitizerError
            raise SanitizerError(sharded.findings)
        merged: list = []
        records = 0
        for _shard_id, (shard_sink, shard_records) in sorted(
                collected.items()):
            merged.extend(shard_sink)
            records += shard_records
        finishes = sorted(merged)
        report = sharded.report()

    return {
        "groups": groups,
        "clients": total_clients,
        "requests_per_client": requests,
        "completed": sum(entry[2] for entry in finishes),
        "records": records,
        "makespan": max(entry[1] for entry in finishes),
        "report": report,
    }


def _storm_collector(shard, sink):
    def collect():
        return (list(sink), _dispatched(shard.sim))
    return collect


def shard_storm(groups: int = 4, clients_per_group: int = 16,
                requests: int = 25, nshards: int = 2,
                executor: Optional[str] = None,
                jobs: Optional[int] = None) -> int:
    """Microbench entry point: run the storm, return records dispatched."""
    return run_shard_storm(groups=groups, clients_per_group=clients_per_group,
                           requests=requests, nshards=nshards,
                           executor=executor, jobs=jobs)["records"]


# name -> (callable, kwargs): the suite perf_smoke and perf_kernel share.
MICROBENCHES: Dict[str, Tuple[Callable[..., int], Dict[str, Any]]] = {
    "event_storm": (event_storm, {"events": 50_000}),
    "spawn_storm": (spawn_storm, {"processes": 5_000}),
    "resource_storm": (resource_storm, {"workers": 50, "rounds": 200}),
    # Sharded-kernel storms: same topology, two partitionings.  They use
    # the platform's parallel executor (fork on POSIX), so their
    # wall-clock tracks the real cost of windowed synchronization plus
    # whatever speedup the host's cores allow.
    "shard_storm_2": (shard_storm, {"groups": 8, "clients_per_group": 16,
                                    "requests": 25, "nshards": 2}),
    "shard_storm_4": (shard_storm, {"groups": 8, "clients_per_group": 16,
                                    "requests": 25, "nshards": 4}),
}


def time_callable(fn: Callable[..., Any], kwargs: Dict[str, Any],
                  repeat: int = 3) -> float:
    """Best-of-``repeat`` wall-clock seconds for one ``fn(**kwargs)`` call.

    Best-of (not mean) because scheduling noise only ever adds time; the
    minimum is the closest observable to the code's intrinsic cost.
    """
    best = float("inf")
    for _ in range(repeat):
        # Wall-clock on purpose: this harness measures *host* runtime of
        # the kernel, not simulated time.
        start = time.perf_counter()  # simlint: disable=D101 -- perf harness measures host runtime by design
        fn(**kwargs)
        best = min(best, time.perf_counter() - start)  # simlint: disable=D101 -- perf harness measures host runtime by design
    return best
