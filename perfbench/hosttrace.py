"""Host-time spans around each layer's public entry points.

The traced run patches the public entry points of every layer of the
``repro`` package (listed in :data:`ENTRY_POINTS`) from outside, so the
package itself carries no instrumentation.  Each patched call is a span:
a plain call is timed as it runs; a call that returns a generator returns
a :class:`GenProxy` instead, which is timed only while the generator
runs.  A span's *self* time is its time minus the time of the spans
nested in it, so the self times of all spans tile the time spent inside
top-level spans exactly (in integer nanoseconds).

Spans are grouped by ``(context, layer)``: the harness sets
:attr:`HostTracer.context` to the stack or protocol a cell runs on, so a
workload's halves can be compared layer by layer.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from types import GeneratorType
from typing import Any, Callable, Dict, List, Optional, Tuple

# Where each layer's work should show end to end, and on which workloads
# it does the most and the least work.  The compare mode prints this
# next to a layer's delta, so a regression names what it should move.
LAYERS: Dict[str, Tuple[str, str, str]] = {
    "sim.kernel": ("cpu_s", "farm, oltp", "meta iscsi half"),
    "sim.resources": ("cpu_s", "oltp, stream", "meta iscsi half"),
    "sim.shard": ("wall_s", "farm", "all others (zero)"),
    "net.rpc": ("wall_s", "oltp, stream nfsv3", "meta iscsi half"),
    "net.transport": ("wall_s", "oltp, stream nfsv3", "meta iscsi half"),
    "nfs.client": ("wall_s", "oltp load phase, stream writes", "every iscsi half"),
    "nfs.server": ("wall_s", "oltp load phase, stream writes", "every iscsi half"),
    "iscsi.initiator": ("wall_s", "stream iscsi reads", "every nfsv3 half"),
    "iscsi.target": ("wall_s", "stream iscsi reads", "every nfsv3 half"),
    "fs.vfs": ("cpu_s", "meta", "farm (zero)"),
    "fs.ext3": ("cpu_s", "meta", "farm (zero)"),
    "cache.block_cache": ("cpu_s, peak_rss_mb", "meta, stream", "farm"),
    "storage.raid": ("wall_s", "stream", "farm"),
    "storage.disk": ("wall_s", "stream", "farm"),
    "core.comparison": ("setup_s", "all, briefly", "farm (zero)"),
    "workloads": ("wall_s", "stream", "all others (zero)"),
}

# The syscall surface shared by NfsClient and Vfs.
SYSCALLS = (
    "mkdir", "rmdir", "chdir", "readdir", "symlink", "readlink", "creat",
    "open", "close", "unlink", "link", "rename", "truncate", "chmod",
    "chown", "access", "stat", "utime", "read", "write", "pread", "pwrite",
    "lseek", "fstat", "fsync",
)

PUBLIC = None  # every public function defined on the class


def _run_phase(args: tuple, kwargs: dict) -> str:
    # StorageStack.run(self, coroutine, name="workload")
    name = args[2] if len(args) > 2 else kwargs.get("name", "workload")
    return "run:" + name


def _stream_phase(kind: str) -> Callable[[tuple, dict], str]:
    def phase(args: tuple, kwargs: dict) -> str:
        sequential = args[1] if len(args) > 1 else kwargs["sequential"]
        return "stream.%s_%s" % ("seq" if sequential else "rand", kind)
    return phase


def _fixed(name: str) -> Callable[[tuple, dict], str]:
    return lambda args, kwargs: name


# (module, attribute (class or function), methods, layer, counter, phase)
# ``counter`` names the exact call count (default ``<layer>.calls``);
# ``phase`` names the inclusive timer a call also feeds.
ENTRY_POINTS: List[Tuple[str, str, Any, str, Optional[str], Any]] = [
    ("repro.sim.kernel", "Simulator", ("run", "run_process", "run_window"),
     "sim.kernel", "sim.kernel.runs", None),
    ("repro.sim.kernel", "Simulator", ("spawn",),
     "sim.kernel", "sim.kernel.spawns", None),
    ("repro.sim.resources", "Resource", ("use", "acquire"),
     "sim.resources", None, None),
    ("repro.sim.shard", "ShardedSimulator", ("run_phase",),
     "sim.shard", None, None),
    ("repro.net.rpc", "RpcPeer", ("call",), "net.rpc", None, None),
    ("repro.net.transport", "DuplexTransport",
     ("send_from_client", "send_from_server"), "net.transport", None, None),
    ("repro.nfs.client", "NfsClient", SYSCALLS, "nfs.client", None, None),
    ("repro.nfs.server", "NfsServer", ("handle",), "nfs.server", None, None),
    ("repro.iscsi.initiator", "IscsiInitiator",
     ("read", "write", "synchronize_cache"), "iscsi.initiator", None, None),
    ("repro.iscsi.target", "IscsiTarget", ("handle",), "iscsi.target", None, None),
    ("repro.fs.vfs", "Vfs", SYSCALLS, "fs.vfs", None, None),
    ("repro.fs.ext3", "Ext3Fs", PUBLIC, "fs.ext3", None, None),
    ("repro.cache.block_cache", "BlockCache",
     ("read_range", "write_range", "flush", "write_through"),
     "cache.block_cache", None, None),
    ("repro.storage.raid", "Raid5Volume", ("read", "write"),
     "storage.raid", None, None),
    ("repro.storage.disk", "Disk", ("read", "write"), "storage.disk", None, None),
    ("repro.core.comparison", "StorageStack", ("run",),
     "core.comparison", None, _run_phase),
    ("repro.core.comparison", "StorageStack", ("quiesce",),
     "core.comparison", None, _fixed("core.quiesce")),
    ("repro.core.comparison", "StorageStack", ("make_cold",),
     "core.comparison", None, _fixed("core.make_cold")),
    ("repro.core.comparison", None, ("make_stack",),
     "core.comparison", None, _fixed("core.make_stack")),
    ("repro.workloads.seqrand", "SeqRandWorkload", ("run_read",),
     "workloads", None, _stream_phase("read")),
    ("repro.workloads.seqrand", "SeqRandWorkload", ("run_write",),
     "workloads", None, _stream_phase("write")),
]

# Objects whose exact work counters are read once each cell ends.
COUNTED = (("repro.sim.kernel", "Simulator"),
           ("repro.sim.shard", "ShardedSimulator"),
           ("repro.core.comparison", "StorageStack"))


class GenProxy:
    """Forwards a generator's protocol, timing only while it runs.

    ``__next__``, ``send``, ``throw`` and ``close`` each resume the
    wrapped generator inside one span slice; ``StopIteration`` and its
    value pass through unchanged, so ``yield from`` sees the generator's
    return value.  Other attributes (``__name__`` for process names)
    come from the generator.
    """

    __slots__ = ("_tracer", "_key", "_gen")

    def __init__(self, tracer: "HostTracer", key: Tuple[str, str], gen: Any):
        self._tracer = tracer
        self._key = key
        self._gen = gen

    def __iter__(self) -> "GenProxy":
        return self

    def __next__(self) -> Any:
        return self._tracer.span(self._key, self._gen.send, (None,))

    def send(self, value: Any) -> Any:
        return self._tracer.span(self._key, self._gen.send, (value,))

    def throw(self, *exc: Any) -> Any:
        return self._tracer.span(self._key, self._gen.throw, exc)

    def close(self) -> Any:
        return self._tracer.span(self._key, self._gen.close, ())

    def __getattr__(self, name: str) -> Any:
        return getattr(self._gen, name)


_NO_KWARGS: Dict[str, Any] = {}


class HostTracer:
    """Span accounting for one traced run."""

    def __init__(self, clock: Callable[[], int] = time.perf_counter_ns):
        self.clock = clock
        self.context = ""
        self.self_ns: Dict[Tuple[str, str], int] = {}
        self.counts: Dict[Tuple[str, str], int] = {}
        self.phase_ns: Dict[Tuple[str, str], int] = {}
        self.top_ns = 0           # time inside top-level spans
        self._open: List[List[int]] = []   # child time of each open span
        self._open_phases: set = set()
        self._patches: List[Tuple[Any, str, Any]] = []
        self._constructed: List[Any] = []

    # -- accounting -------------------------------------------------------

    def span(self, key: Tuple[str, str], fn: Callable, args: tuple,
             kwargs: Dict[str, Any] = _NO_KWARGS,
             phase: Optional[str] = None) -> Any:
        """Run ``fn(*args, **kwargs)`` as one span of ``key``."""
        stack = self._open
        frame = [0]
        stack.append(frame)
        if phase is not None:
            if phase in self._open_phases:
                phase = None      # inclusive: count the outermost call only
            else:
                self._open_phases.add(phase)
        start = self.clock()
        try:
            return fn(*args, **kwargs)
        finally:
            elapsed = self.clock() - start
            stack.pop()
            self.self_ns[key] = self.self_ns.get(key, 0) + elapsed - frame[0]
            if stack:
                stack[-1][0] += elapsed
            else:
                self.top_ns += elapsed
            if phase is not None:
                self._open_phases.discard(phase)
                pkey = (key[0], phase)
                self.phase_ns[pkey] = self.phase_ns.get(pkey, 0) + elapsed

    def count(self, name: str, amount: int = 1,
              context: Optional[str] = None) -> None:
        key = (self.context if context is None else context, name)
        self.counts[key] = self.counts.get(key, 0) + amount

    def wrap(self, fn: Callable, layer: str, counter: Optional[str] = None,
             phase: Optional[Callable[[tuple, dict], str]] = None) -> Callable:
        """``fn`` as a span of ``layer`` that also counts its calls."""
        tracer = self
        counter = counter or layer + ".calls"

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            tracer.count(counter)
            key = (tracer.context, layer)
            name = phase(args, kwargs) if phase is not None else None
            result = tracer.span(key, fn, args, kwargs, name)
            if type(result) is GeneratorType:
                return GenProxy(tracer, key, result)
            return result
        return traced

    # -- patching ---------------------------------------------------------

    def _patch(self, owner: Any, name: str, replacement: Any) -> None:
        self._patches.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, replacement)

    def install(self) -> None:
        """Patch every entry point in :data:`ENTRY_POINTS`."""
        # Load every module that imports ``make_stack`` before rebinding it.
        importlib.import_module("repro.workloads")
        for module_name, owner_name, names, layer, counter, phase in ENTRY_POINTS:
            module = importlib.import_module(module_name)
            owner = getattr(module, owner_name) if owner_name else module
            if names is PUBLIC:
                names = [n for n, v in vars(owner).items()
                         if not n.startswith("_") and inspect.isfunction(v)]
            for name in names:
                if name not in vars(owner):
                    continue   # not part of this class's surface
                original = vars(owner)[name]
                traced = self.wrap(original, layer, counter, phase)
                if owner_name is None:
                    # A module function: rebind it wherever it was imported.
                    for other in list(sys.modules.values()):
                        if (getattr(other, "__name__", "").startswith("repro")
                                and vars(other).get(name) is original):
                            self._patch(other, name, traced)
                else:
                    self._patch(owner, name, traced)
        for module_name, class_name in COUNTED:
            cls = getattr(importlib.import_module(module_name), class_name)
            self._patch(cls, "__init__", self._registering(cls.__init__))

    def _registering(self, init: Callable) -> Callable:
        tracer = self

        @functools.wraps(init)
        def registered(obj: Any, *args: Any, **kwargs: Any) -> None:
            init(obj, *args, **kwargs)
            tracer._constructed.append((tracer.context, obj))
        return registered

    def uninstall(self) -> None:
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)

    # -- exact work counters ----------------------------------------------

    def harvest(self) -> None:
        """Fold the counters of every object built since the last call.

        Called after each cell, so finished stacks are not kept alive.
        """
        from repro.core.comparison import StorageStack
        from repro.sim.kernel import Simulator
        from repro.sim.shard import ShardedSimulator

        for context, obj in self._constructed:
            if isinstance(obj, Simulator):
                # Every calendar record takes the next sequence number.
                self.count("sim.kernel.records", obj._sequence, context)
            elif isinstance(obj, ShardedSimulator):
                self.count("sim.shard.rounds", obj.rounds, context)
                self.count("sim.shard.cross_messages", obj.cross_messages, context)
            elif isinstance(obj, StorageStack):
                self.count("net.rpc.retransmissions",
                           obj.counters.retransmissions, context)
                stats = obj.fs.cache.stats
                self.count("cache.block_cache.hits", stats.hits, context)
                self.count("cache.block_cache.misses", stats.misses, context)
        self._constructed = []
