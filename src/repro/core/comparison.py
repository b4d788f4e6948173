"""The comparison harness: build a complete testbed for any stack kind.

:class:`StorageStack` assembles the whole simulated testbed of Figure 2 —
client host, server host, Gigabit link, RAID-5 array, and either

* ``"nfsv2" | "nfsv3" | "nfsv4"`` — ext3 at the *server*, exported over the
  chosen NFS generation (file-access protocol), or
* ``"iscsi"`` — ext3 at the *client* over an iSCSI initiator/target pair
  (block-access protocol), or
* ``"nfs-enhanced"`` — NFS v4 plus the Section-7 enhancements
  (strongly-consistent meta-data cache + directory delegation).

Whatever the kind, ``stack.client`` exposes the same syscall surface, so a
workload runs unmodified against every stack — the paper's methodology in
code.  Message/byte counting lives on the stack's transport; CPU accounting
on its two hosts.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Any, Generator, Optional

from ..client.host import Host
from ..fs.ext3 import Ext3Fs
from ..fs.vfs import Vfs
from ..iscsi.initiator import IscsiInitiator
from ..iscsi.target import IscsiTarget
from ..net.link import Link
from ..net.rpc import RetransmitPolicy, RpcPeer
from ..net.transport import DuplexTransport
from ..nfs.client import NfsClient
from ..nfs.server import NfsServer
from ..obs.proxy import TracedClient
from ..obs.tracer import Tracer
from ..sim import Simulator
from ..storage.raid import Raid5Volume
from .counters import CountersSnapshot, MessageCounters
from .params import NfsParams, TestbedParams

__all__ = ["StorageStack", "STACK_KINDS", "make_stack", "placement_shard"]

STACK_KINDS = ("nfsv2", "nfsv3", "nfsv4", "iscsi", "nfs-enhanced")


def placement_shard(shards: int, params: Optional[TestbedParams] = None,
                    san: bool = False):
    """Resolve a ``--shards`` cell parameter to a stack placement.

    ``0`` (the default everywhere) means "no placement": the stack
    builds its own flat :class:`~repro.sim.Simulator` exactly as
    always.  ``1`` builds a one-shard
    :class:`~repro.sim.shard.ShardedSimulator` (lookahead = the
    testbed's one-way link latency) and returns its shard — the run is
    byte-identical to the unplaced one, which CI enforces.  A single
    stack is one tightly coupled unit (client, link, server share one
    calendar), so more than one shard is rejected here: within-run
    parallelism comes from *multi-stack* topologies — see
    :class:`~repro.core.multiclient.SharedNfsTestbed` and
    ``repro scale``.
    """
    if not shards:
        return None
    if shards != 1:
        raise ValueError(
            "a single stack occupies exactly one shard (got shards=%d); "
            "multi-shard runs need a multi-stack topology — see "
            "SharedNfsTestbed(shards=...) or `repro scale`" % (shards,))
    from ..sim.shard import ShardedSimulator

    testbed = params if params is not None else TestbedParams()
    return ShardedSimulator(
        1, testbed.network.rtt / 2.0, san=san).shard(0)


def busy_probe(sim: Any, stats: Any, capacity: int):
    """Utilization probe over a resource's busy time, read without mutating.

    ``stats`` is a :class:`~repro.sim.stats.ResourceStats`.  Its busy-time
    integral is extended to ``now`` without committing it, because
    committing (``utilization()``) would add a split point, change the
    order of float additions, and make a sampled run report different
    busy times from an unsampled one.
    """
    def probe() -> float:
        return (stats.busy_time + stats._in_service
                * (sim.now - stats._busy_since)) / capacity
    return probe


def depth_probe(*resources: Any):
    """Waiting plus in-service requests, summed over ``resources``."""
    def probe() -> float:
        return float(sum(r.queue_length + (r.capacity - r.available)
                         for r in resources))
    return probe


def counter_probe(stats: Any, field: str):
    """The current value of a monotonically growing counter field."""
    def probe() -> float:
        return float(getattr(stats, field))
    return probe


class StorageStack:
    """A fully wired client/server testbed for one protocol stack."""

    def __init__(self, kind: str, params: Optional[TestbedParams] = None,
                 trace: bool = False, tracer: Optional[Tracer] = None,
                 fault_plan=None, san: bool = False,
                 telemetry: bool = False, heartbeat: bool = False,
                 recorder: bool = False, sim: Optional[Any] = None):
        if kind not in STACK_KINDS:
            raise ValueError("unknown stack kind %r; one of %s" % (kind, STACK_KINDS))
        self.kind = kind
        self.params = params if params is not None else TestbedParams()
        self.params = self._specialize_params(kind, self.params)

        # Placement: ``sim`` accepts a Simulator or a Shard
        # (repro.sim.shard) — the whole stack (both hosts, the link,
        # everything) is then built on that calendar.  A stack is a
        # tightly coupled unit; to parallelize *across* stacks, place
        # each one on its own shard.  In a multi-shard topology the
        # caller owns phase discipline: mount through a phase (see
        # SharedNfsTestbed) rather than run_process.
        if sim is not None:
            self.sim = getattr(sim, "sim", sim)  # unwrap a Shard
            if san:
                from ..check.simsan import CheckedSimulator
                if not isinstance(self.sim, CheckedSimulator):
                    raise ValueError(
                        "san=True needs a checking kernel: build the "
                        "placement on one (ShardedSimulator(..., san=True)) "
                        "or drop sim=")
        elif san:
            # Sanitizers (repro.check.simsan): built only on request, so
            # the default stack keeps the plain kernel and None hooks
            # everywhere.
            from ..check.simsan import CheckedSimulator
            self.sim = CheckedSimulator()
        else:
            self.sim = Simulator()
        # Observability: a recording Tracer when requested, else None
        # (every hook site guards, so the event sequence is untouched).
        if tracer is None and trace:
            tracer = Tracer(self.sim)
        self.tracer = tracer
        cpu = self.params.cpu
        self.client_host = Host(self.sim, cpu.client_cpus, "client")
        self.server_host = Host(self.sim, cpu.server_cpus, "server")
        self.link = Link(
            self.sim,
            rtt=self.params.network.rtt,
            bandwidth=self.params.network.bandwidth,
        )
        self.counters = MessageCounters()
        self.transport = DuplexTransport(
            self.sim,
            self.link,
            counters=self.counters,
            reliable=self.params.nfs.transport != "udp" or kind == "iscsi",
            name=kind,
            tracer=self.tracer,
        )
        self.raid = Raid5Volume(
            self.sim,
            raid_params=self.params.raid,
            disk_params=self.params.disk,
            cpu=self.server_host.cpu,
            parity_cpu_per_byte=cpu.raid_parity_per_byte,
            io_cpu=cpu.disk_io_issue,
            name="array",
            tracer=self.tracer,
        )
        if kind == "iscsi":
            self._build_iscsi()
        else:
            self._build_nfs()
        self.raw_client = self.client
        if self.tracer is not None:
            self.client = TracedClient(self.client, self.tracer)
            self._register_probes()
        # Streaming telemetry (repro.obs.telemetry): bounded-memory
        # rollups, built only on request.  Every probe is a pure read of
        # existing accounting state, so a telemetry-on run produces the
        # same measured outputs as a plain one.
        self.telemetry = None
        if telemetry:
            from ..obs.telemetry import Heartbeat, Telemetry
            hb = Heartbeat("stack:" + kind) if heartbeat else None
            self.telemetry = Telemetry(self.sim, heartbeat=hb)
            self.transport.telem = self.telemetry
            self._register_telemetry()
            self.telemetry.sampler.start()
        # Flight recorder (repro.obs.explain): a bounded ring of recent
        # kernel events and wire messages, built only on request.  It
        # observes and never schedules, so recorder-on runs keep the
        # exact same event sequence; simsan/telemetry findings dump its
        # context window as evidence.
        self.recorder = None
        if recorder:
            from ..obs.explain import FlightRecorder
            self.recorder = FlightRecorder(self.sim)
            self.sim.observers += (self.recorder.note_event,)
            self.transport.recorder = self.recorder
            if self.telemetry is not None:
                self.telemetry.recorder = self.recorder
        # Fault injection (repro.faults): built only for a non-empty plan,
        # so unfaulted stacks keep the exact pre-existing event sequence.
        self.fault_injector = None
        if fault_plan is not None and not fault_plan.is_empty:
            from ..faults.injector import FaultInjector
            self.fault_injector = FaultInjector(
                self.sim,
                fault_plan,
                transport=self.transport,
                link=self.link,
                raid=self.raid,
                nfs_server=self.server,
                initiator=self.initiator,
                tracer=self.tracer,
            )
            # MC/S: every connection of the session crosses the same
            # faulted wire, so reorder/loss/flap plans apply to the
            # extra transports too (the injector ctor only attached to
            # the leading one).
            for transport in self.mcs_transports:
                transport.fault = self.fault_injector
        self.sanitizer = None
        if san:
            from ..check.simsan import SimSan
            self.sanitizer = SimSan(self)
        self.mounted = False

    # -- construction ----------------------------------------------------------------

    @staticmethod
    def _specialize_params(kind: str, params: TestbedParams) -> TestbedParams:
        if kind == "iscsi":
            return params
        version_for_kind = {"nfsv2": 2, "nfsv3": 3, "nfsv4": 4}.get(kind)
        if version_for_kind is not None and params.nfs.version == version_for_kind:
            # The experimenter supplied a fully specified NfsParams for
            # this exact version: trust it verbatim.
            return params
        if kind == "nfsv2":
            nfs = NfsParams.for_version(2)
        elif kind == "nfsv3":
            nfs = NfsParams.for_version(3)
        elif kind == "nfsv4":
            nfs = NfsParams.for_version(4)
        else:  # nfs-enhanced: v4 plus the Section-7 machinery
            nfs = replace(
                NfsParams.for_version(4),
                consistent_metadata_cache=True,
                directory_delegation=True,
                writeback_delay=5.0,   # lazy like ext3's commit interval
                pages_per_flush_rpc=32,  # spatial write aggregation (§6.1)
            )
        # Carry over every field the experimenter explicitly changed from
        # the defaults (ablations twist rsize, validity windows, access
        # checks, ...); version-defining defaults stay otherwise.
        import dataclasses
        base = params.nfs
        reference = NfsParams()
        overrides = {}
        for field in dataclasses.fields(NfsParams):
            value = getattr(base, field.name)
            if value != getattr(reference, field.name):
                overrides[field.name] = value
        overrides.pop("version", None)
        nfs = replace(nfs, **overrides)
        return replace(params, nfs=nfs)

    def _build_iscsi(self) -> None:
        cpu = self.params.cpu
        iscsi = self.params.iscsi
        if iscsi.connections < 1:
            raise ValueError("iscsi connections must be >= 1 (got %d)"
                             % (iscsi.connections,))
        target_rpc = RpcPeer(
            self.sim,
            self.transport.server,
            self.transport.send_from_server,
            cpu=self.server_host.cpu,
            per_message_cpu=cpu.net_per_message,
            per_byte_cpu=cpu.copy_per_byte,
            name="iscsi.target.rpc",
            tracer=self.tracer,
            track="server",
        )
        self.target = IscsiTarget(
            self.sim, self.raid, target_rpc,
            cpu=self.server_host.cpu, cpu_params=cpu,
            tracer=self.tracer,
        )
        initiator_rpc = RpcPeer(
            self.sim,
            self.transport.client,
            self.transport.send_from_client,
            cpu=self.client_host.cpu,
            per_message_cpu=cpu.net_per_message,
            per_byte_cpu=cpu.copy_per_byte,
            name="iscsi.initiator.rpc",
            tracer=self.tracer,
            track="client",
        )
        # MC/S (repro.iscsi.mcs): extra TCP connections share the one
        # physical link (and the stack's message counters) but get their
        # own transport endpoints and RPC peers per side.  connections=1
        # builds nothing extra, keeping the original wiring (and every
        # committed output) byte-identical.
        self.session = None
        self.mcs_transports = []
        initiator_rpcs = [initiator_rpc]
        for conn in range(1, iscsi.connections):
            transport = DuplexTransport(
                self.sim,
                self.link,
                counters=self.counters,
                reliable=True,
                name="%s.mcs%d" % (self.kind, conn),
                tracer=self.tracer,
            )
            self.mcs_transports.append(transport)
            conn_target_rpc = RpcPeer(
                self.sim,
                transport.server,
                transport.send_from_server,
                cpu=self.server_host.cpu,
                per_message_cpu=cpu.net_per_message,
                per_byte_cpu=cpu.copy_per_byte,
                name="iscsi.target.rpc.c%d" % conn,
                tracer=self.tracer,
                track="server",
            )
            self.target.add_connection(conn_target_rpc)
            initiator_rpcs.append(RpcPeer(
                self.sim,
                transport.client,
                transport.send_from_client,
                cpu=self.client_host.cpu,
                per_message_cpu=cpu.net_per_message,
                per_byte_cpu=cpu.copy_per_byte,
                name="iscsi.initiator.rpc.c%d" % conn,
                tracer=self.tracer,
                track="client",
            ))
        if iscsi.connections > 1:
            from ..iscsi.mcs import McsSession
            self.session = McsSession(self.sim, initiator_rpcs,
                                      policy=iscsi.mcs_policy)
        self.initiator = IscsiInitiator(
            self.sim, initiator_rpc, nblocks=self.raid.nblocks,
            params=self.params.iscsi,
            cpu=self.client_host.cpu, cpu_params=cpu,
            tracer=self.tracer,
            session=self.session,
        )
        self.fs = Ext3Fs(
            self.sim,
            self.initiator,
            cache_bytes=self.params.cache.client_cache_bytes,
            params=self.params.ext3,
            cpu=self.client_host.cpu,
            cpu_params=cpu,
            max_coalesced_write=self.params.iscsi.max_coalesced_write,
            readahead_blocks=8,
            testbed=self.params,
            name="client-ext3",
            tracer=self.tracer,
            track="client",
        )
        self.client = Vfs(self.fs)
        self.server = None
        self.nfs_client = None

    def _build_nfs(self) -> None:
        cpu = self.params.cpu
        nfs = self.params.nfs
        self.fs = Ext3Fs(
            self.sim,
            self.raid,
            cache_bytes=self.params.cache.server_cache_bytes,
            params=self.params.ext3,
            cpu=self.server_host.cpu,
            cpu_params=cpu,
            readahead_blocks=8,
            testbed=self.params,
            name="server-ext3",
            tracer=self.tracer,
            track="server",
        )
        server_rpc = RpcPeer(
            self.sim,
            self.transport.server,
            self.transport.send_from_server,
            cpu=self.server_host.cpu,
            per_message_cpu=(
                cpu.net_per_message + cpu.rpc_layer + cpu.nfs_server_layer
            ),
            per_byte_cpu=cpu.copy_per_byte,
            name="nfsd.rpc",
            tracer=self.tracer,
            track="server",
        )
        self.server = NfsServer(
            self.sim, self.fs, server_rpc, params=nfs, cpu_params=cpu,
            tracer=self.tracer,
        )
        retransmit = RetransmitPolicy(
            timeout=nfs.rpc_timeout,
            backoff=nfs.rpc_timeout_backoff,
            max_retries=nfs.rpc_max_retries,
            reset_connection=nfs.transport == "tcp",
        )
        client_rpc = RpcPeer(
            self.sim,
            self.transport.client,
            self.transport.send_from_client,
            cpu=self.client_host.cpu,
            per_message_cpu=cpu.net_per_message + cpu.rpc_layer,
            per_byte_cpu=cpu.copy_per_byte,
            retransmit=retransmit,
            name="nfs.client.rpc",
            tracer=self.tracer,
            track="client",
        )
        self.nfs_client = NfsClient(
            self.sim,
            client_rpc,
            params=nfs,
            cache_params=self.params.cache,
            cpu_params=cpu,
            readahead_pages=4,
            tracer=self.tracer,
        )
        self.client = self.nfs_client
        self.target = None
        self.initiator = None
        self.session = None
        self.mcs_transports = []

    def _register_probes(self) -> None:
        """Attach the vmstat-style utilization probes and start sampling."""
        add = self.tracer.sampler.add
        for track, host in (("client", self.client_host),
                            ("server", self.server_host)):
            cpu = host.cpu
            add("cpu." + track,
                busy_probe(self.sim, cpu.stats, cpu.capacity),
                kind="cumulative", label=track)
        add("link.MBps", lambda: float(self.link.total_bytes),
            kind="rate", label="wire", scale=1e-6)
        add("disk.queue",
            depth_probe(*(disk.queue for disk in self.raid.disks)),
            kind="gauge", label="server")
        self.tracer.sampler.start()

    def _register_telemetry(self) -> None:
        """Register every tier of the testbed on the telemetry collector."""
        add = self.telemetry.sampler.add
        for side, host in (("client", self.client_host),
                           ("server", self.server_host)):
            cpu = host.cpu
            add(side + ".cpu.util",
                busy_probe(self.sim, cpu.stats, cpu.capacity),
                kind="cumulative", label="util")
        add("net.link.MBps", lambda: float(self.link.total_bytes),
            kind="rate", label="rate", scale=1e-6)
        add("client.inbox.depth",
            lambda: float(len(self.transport.client.inbox)),
            kind="gauge", label="queue")
        add("server.inbox.depth",
            lambda: float(len(self.transport.server.inbox)),
            kind="gauge", label="queue")
        for index, disk in enumerate(self.raid.disks):
            queue = disk.queue
            add("server.disk%02d.queue" % index, depth_probe(queue),
                kind="gauge", label="queue")
            add("server.disk%02d.util" % index,
                busy_probe(self.sim, queue.stats, queue.capacity),
                kind="cumulative", label="util")
        raid = self.raid
        add("server.raid.degraded_s",
            lambda: float(raid.degraded_reads + raid.degraded_writes
                          + raid.rebuild_writes),
            kind="cumulative", label="rate")
        caller, server_peer = self.rpc_peers()
        add("client.rpc.calls_s", counter_probe(caller, "calls_issued"),
            kind="cumulative", label="rate")
        add("server.rpc.served_s", counter_probe(server_peer, "calls_served"),
            kind="cumulative", label="rate")
        if self.kind == "iscsi":
            initiator = self.initiator
            add("client.iscsi.inflight",
                lambda: float(initiator.commands_issued
                              - initiator.commands_completed),
                kind="gauge", label="queue")
            caches = (("client", self.fs.cache.stats),)
            session = self.session
            if session is not None:
                # MC/S: per-connection PDU rates expose scheduler skew,
                # and the held gauge is the in-order completion buffer.
                for conn in range(session.nconnections):
                    add("client.iscsi.conn%02d.pdus_s" % conn,
                        lambda conn=conn: float(
                            session.pdus_by_connection[conn]),
                        kind="cumulative", label="rate")
                add("client.iscsi.held", lambda: float(session.held_now),
                    kind="gauge", label="queue")
        else:
            caches = (("server", self.fs.cache.stats),
                      ("client", self.nfs_client._pages.stats))
        for side, stats in caches:
            for field in ("hits", "misses"):
                add("%s.cache.%s_s" % (side, field),
                    counter_probe(stats, field),
                    kind="cumulative", label="rate")

    # -- lifecycle --------------------------------------------------------------------

    def mount(self) -> None:
        """Bring the stack online (runs the mount exchanges to completion)."""
        if self.mounted:
            return
        self.run(self.fs.mount())
        self.mounted = True

    def run(self, coroutine: Generator, name: str = "workload") -> Any:
        """Drive ``coroutine`` to completion on this stack's simulator."""
        return self.sim.run_process(coroutine, name=name)

    def quiesce(self) -> None:
        """Settle all asynchronous state (client write-back, journal, cache)."""
        self.run(self.client.quiesce(), name="quiesce")
        if self.kind != "iscsi":
            self.run(self.fs.quiesce(), name="server-quiesce")

    def drop_caches(self) -> None:
        """Empty every cache but keep open file descriptors valid."""
        self.run(self.client.drop_caches(), name="drop-caches")
        if self.kind != "iscsi":
            self.run(self.fs.quiesce(), name="server-quiesce")
            self.fs.drop_caches()
            self.run(self.fs.mount(), name="server-remount")

    def make_cold(self) -> None:
        """The paper's cold-cache protocol: quiesce, drop every cache."""
        self.quiesce()
        self.run(self.client.remount_cold(), name="cold")
        if self.kind != "iscsi":
            # Restarting the NFS server empties its buffer cache too.
            self.run(self.fs.remount_cold(), name="server-cold")

    # -- measurement ------------------------------------------------------------------

    def resources(self):
        """Every contended resource in the testbed, client to spindles.

        The list feeds the queueing analytics in :mod:`repro.obs.profile`
        (each entry carries a live
        :class:`~repro.sim.stats.ResourceStats` as ``.stats``): both host
        CPUs, then every disk queue of the RAID array.
        """
        out = [self.client_host.cpu, self.server_host.cpu]
        out.extend(disk.queue for disk in self.raid.disks)
        return out

    def rpc_peers(self):
        """Both RPC peers of the stack (caller and server side)."""
        if self.kind == "iscsi":
            return [self.initiator.rpc, self.target.rpc]
        return [self.nfs_client.rpc, self.server.rpc]

    def check(self, strict: bool = True):
        """Verify the runtime sanitizers (no-op unless built with san=True).

        Returns the finding list; with ``strict`` (the default) raises
        :class:`repro.check.simsan.SanitizerError` on any finding.
        """
        if self.sanitizer is None:
            return []
        return self.sanitizer.verify(strict=strict)

    def snapshot(self) -> CountersSnapshot:
        """Return an immutable copy of the current counter values."""
        return self.counters.snapshot()

    def delta(self, since: CountersSnapshot) -> CountersSnapshot:
        """Return the traffic accumulated since ``since`` was snapshotted."""
        return self.counters.delta(since)

    def set_rtt(self, rtt: float) -> None:
        """The NISTNet knob (Fig. 6)."""
        self.link.set_rtt(rtt)

    def reset_cpu_windows(self) -> None:
        """Start fresh CPU-utilization measurement windows on both hosts."""
        self.client_host.reset_utilization_window()
        self.server_host.reset_utilization_window()

    @property
    def now(self) -> float:
        return self.sim.now


def make_stack(kind: str, params: Optional[TestbedParams] = None,
               mounted: bool = True, trace: bool = False,
               fault_plan=None, san: bool = False,
               telemetry: bool = False,
               heartbeat: bool = False,
               recorder: bool = False,
               sim: Optional[Any] = None) -> StorageStack:
    """Build (and by default mount) a stack of the given kind.

    Pass ``trace=True`` to attach a recording :class:`repro.obs.Tracer`
    (exposed as ``stack.tracer``); untraced, ``stack.tracer`` is ``None``.
    Pass a non-empty :class:`repro.faults.FaultPlan` as ``fault_plan`` to
    arm fault injection; its event clock starts *after* the mount, so plan
    times are relative to the beginning of the workload.
    Pass ``san=True`` to run on a checking kernel with the runtime
    sanitizers attached (``stack.check()`` verifies at end of run); the
    checks observe only, so outputs stay bit-identical.
    Pass ``telemetry=True`` to attach the streaming telemetry collector
    (``stack.telemetry``, a :class:`repro.obs.telemetry.Telemetry`); its
    probes are pure reads, so measured outputs stay bit-identical too.
    ``heartbeat=True`` additionally prints progress lines to stderr.
    Pass ``recorder=True`` to attach a
    :class:`repro.obs.explain.FlightRecorder` (``stack.recorder``): a
    bounded ring of recent kernel events and messages that sanitizer and
    telemetry findings dump as evidence; also observe-only.
    Pass ``sim=`` (a :class:`~repro.sim.Simulator` or a
    :class:`~repro.sim.shard.Shard`) to place the stack on an existing
    calendar — the shard-placement API; with one shard the run is
    byte-identical to an unplaced stack.
    """
    stack = StorageStack(kind, params, trace=trace, fault_plan=fault_plan,
                         san=san, telemetry=telemetry, heartbeat=heartbeat,
                         recorder=recorder, sim=sim)
    if mounted:
        stack.mount()
    if stack.fault_injector is not None:
        stack.fault_injector.start()
    return stack
