"""Command-line front end: regenerate any of the paper's artifacts.

Usage::

    python -m repro list
    python -m repro all [--jobs N] [--no-cache]
    python -m repro <artifact> [flags] [--jobs N]     # table2 ... sec7, quick
    python -m repro quick [--san] [--telemetry] [--shards 1]
    python -m repro scale [--clients 256] [--shards 1 4] [--reference]
    python -m repro scale --farm [--nclients 64 256 1024] [--servers 1 4]
    python -m repro scale --compare BASELINE.json CURRENT.json
    python -m repro faults <workload> [--stack KIND ...] [--plan P ...]
    python -m repro trace <workload> [--stack KIND] [--out FILE] [--tree]
    python -m repro bench [--suite quick] [--out FILE] [--jobs N]
    python -m repro bench --compare OLD.json NEW.json [--format text|json]
    python -m repro dash <workload> [--stack KIND ...] [--html FILE]
    python -m repro explain <workload> [--stack-a KIND] [--stack-b KIND]
    python -m repro explain <workload> --bench-a OLD.json --bench-b NEW.json
    python -m repro lint [paths ...] [--format text|json]

Every artifact is one row of :data:`SECTIONS`: its subcommand name(s),
a function returning pure experiment *cells* (one stack x workload x
parameter point), a renderer of the ``(cell, result)`` pairs, and its
flags with their defaults.  The artifact subparsers, ``repro all``, the
artifacts line of ``repro list`` and :func:`all_cells` are built from
that table; adding an artifact means adding one row.  The cells run on
the :class:`~repro.core.runner.ExperimentRunner`: ``--jobs N`` fans them
out over N worker processes and the merged output is byte-identical to
a serial run.  ``repro all`` prints every section at its defaults and
backs the cells with the on-disk result cache (``--no-cache`` disables
it).  Counts are checked at parse time: a zero or negative size is a
usage error (exit 2).

The tools are separate commands.  ``trace`` records and exports a run;
``bench`` runs the regression suites; ``lint`` runs simlint
(repro.check.simlint).  ``--san`` (quick, trace, bench, faults) attaches
the runtime sanitizers (repro.check.simsan) and ``--telemetry`` (quick,
bench, faults) the streaming collector (repro.obs.telemetry); both
report on stderr and leave stdout and ``BENCH_*.json`` byte-identical.
``dash`` renders the telemetry timelines as ASCII (or ``--html``).

``scale`` sweeps shard counts over a multi-client storm on the sharded
calendar (repro.sim.shard).  stdout prints only partition-invariant
metrics, so ``--shards 1`` output is byte-identical to ``--reference``;
wall-clock speedups go to ``BENCH_storm.json``.  ``scale --farm`` sweeps
the server farm (repro.sim.farm) over ``nclients`` x ``servers`` x
``connections`` x ``sharing`` and writes a schema-2 document of pure
simulated outcome (``scale --compare`` diffs two exactly).
``--shards 1`` on quick/table2/table3/table4 rebuilds each stack on a
one-shard placement; the output must stay byte-identical.

``explain`` (repro.obs.explain) runs one workload on two stacks, or
loads one case from two ``BENCH_*.json`` files, and attributes the
completion-time delta per layer, per op and per queue, as text, JSON or
HTML.  ``bench --compare`` appends the same report per regressed case.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import textwrap
from dataclasses import dataclass, field
from itertools import groupby
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from .core.comparison import STACK_KINDS, make_stack
from .core.runner import Cell, ExperimentRunner
from .obs.bench import SUITES as BENCH_SUITES
from .obs.bench import WORKLOADS as TRACE_WORKLOADS
from .workloads import BATCH_OPS, SYSCALL_OPS


def _print_table(headers, rows):
    widths = [max(len(str(headers[i])),
                  max((len(str(r[i])) for r in rows), default=0))
              for i in range(len(headers))]
    line = "  ".join(str(h).ljust(w) for h, w in zip(headers, widths))
    print(line)
    print("-" * len(line))
    for row in rows:
        print("  ".join(str(c).ljust(w) for c, w in zip(row, widths)))


def _cell(kind: str, /, **params: Any) -> Cell:
    """A cell with a canonical id derived from its kind and params."""
    spec = json.dumps(params, sort_keys=True, separators=(",", ":"))
    return Cell("%s?%s" % (kind, spec), kind, params)


def _runner(args) -> ExperimentRunner:
    """Build the runner an artifact subcommand asked for.

    Individual artifact commands parallelize with ``--jobs`` but never
    touch the cache; only ``repro all`` (and ``bench --cache``) uses the
    on-disk result cache.
    """
    return ExperimentRunner(jobs=getattr(args, "jobs", None),
                            use_cache=False)


def _count_type(minimum: int) -> Callable[[str], int]:
    """An argparse type for an integer of at least ``minimum``: a bad
    count is a usage error (exit 2), not a traceback from deep in a run."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(
                "invalid int value: %r" % text) from None
        if value < minimum:
            raise argparse.ArgumentTypeError(
                "must be >= %d (got %d)" % (minimum, value))
        return value
    return parse


_positive_int = _count_type(1)
_nonneg_int = _count_type(0)   # --depth, artifact --shards (0 = flat), --limit


def _one_of(choices: Sequence[str]) -> Callable[[str], str]:
    """An argparse type for one of ``choices``: an unknown name is a
    usage error (exit 2), not a traceback from inside a cell."""
    def parse(text: str) -> str:
        if text not in choices:
            raise argparse.ArgumentTypeError(
                "invalid choice: %r (choose from %s)"
                % (text, ", ".join(choices)))
        return text
    return parse


def _load_documents(command: str,
                    paths: Sequence[str]) -> Optional[List[Dict[str, Any]]]:
    """The JSON objects at ``paths``; None, after printing ``<command>:
    cannot read document: ...``, if one is missing or malformed."""
    from .obs.bench import load_bench

    documents = []
    for path in paths:
        try:
            documents.append(load_bench(path))
            if not isinstance(documents[-1], dict):
                raise ValueError("not a JSON object")
        except (OSError, ValueError) as exc:
            print("%s: cannot read document: %s: %s" % (command, path, exc),
                  file=sys.stderr)
            return None
    return documents


def iter_subcommands() -> List[str]:
    """Every registered CLI subcommand, sorted (the discoverability
    contract checked by ``tests/test_public_api.py``)."""
    parser = build_parser()
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            return sorted(action.choices)
    return []


def cmd_list(_args) -> int:
    print("stacks:     %s" % ", ".join(STACK_KINDS))
    print(textwrap.fill(
        " ".join(name for section in SECTIONS for name in section.names),
        width=72, initial_indent="artifacts:  ", subsequent_indent=" " * 12))
    print("tools:      trace (record/export a run)  "
          "bench (regression suites)")
    print("            faults (degraded-mode scenarios)  "
          "all (every artifact, parallel + cached)")
    print("            dash (streaming-telemetry dashboards)  "
          "lint (simulator-discipline linter)")
    print("            explain (differential diagnosis of two runs)")
    print("            scale (shard-count sweep -> BENCH_storm.json; "
          "--farm server-farm matrix -> BENCH_scale.json over "
          "nclients x servers x connections x sharing)")
    print("            --san arms the runtime sanitizers; "
          "--telemetry attaches streaming rollups")
    print("commands:   %s" % " ".join(iter_subcommands()))
    return 0


# -- artifact cells + renderers -----------------------------------------------
# Every artifact is (a) a list of pure runner cells and (b) a renderer
# that formats the merged results.  A renderer receives the
# ``(cell, result)`` pairs of its own cells list, in order, and reads any
# parameter it prints from the cells: the cells functions are the single
# source of truth for ids and sizes.

Pairs = List[Tuple[Cell, Any]]

SYSCALL_KINDS = ("nfsv2", "nfsv3", "nfsv4", "iscsi")
TABLE4_MODES = ("seq-read", "rand-read", "seq-write", "rand-write")
FIG3_BATCHES = (1, 4, 16, 64, 256, 1024)
FIG4_DEPTHS = tuple(range(0, 17, 4))
FIG5_SIZES = tuple(2 ** e for e in range(7, 17))
FIG6_RTTS = (0.010, 0.030, 0.050, 0.070, 0.090)
TRACE_LIMIT = 150_000


def _chunks(pairs: Pairs, size: int) -> List[Pairs]:
    """Consecutive runs of ``size`` pairs: one row or block of a table."""
    return [pairs[start:start + size] for start in range(0, len(pairs), size)]


def _by_mode(pairs: Pairs):
    """The pairs grouped by consecutive ``mode`` parameter."""
    for mode, group in groupby(pairs, key=lambda pair: pair[0].params["mode"]):
        yield mode, list(group)


def cells_quick(san: bool = False, telemetry: bool = False,
                shards: int = 0) -> List[Cell]:
    cells = []
    for kind in STACK_KINDS:
        params: Dict[str, Any] = {"kind": kind}
        if san:
            params["san"] = True
        if telemetry:
            params["telemetry"] = True
        if shards:
            # Conditional, like san/telemetry: the default cell ids (and
            # the cache keys behind BENCH_quick.json) stay unchanged.
            params["shards"] = shards
        cells.append(_cell("quick", **params))
    return cells


def render_quick(pairs: Pairs) -> None:
    for cell, record in pairs:
        print("%-14s msgs=%-5d bytes=%-8d t=%.2fms" % (
            cell.params["kind"], record["messages"], record["bytes"],
            record["now_s"] * 1000))


def cells_syscalls(depth: List[int], warm: bool,
                   shards: int = 0) -> List[Cell]:
    cells = []
    for each in depth:
        for kind in SYSCALL_KINDS:
            params: Dict[str, Any] = {"kind": kind, "depth": each,
                                      "warm": warm}
            if shards:
                params["shards"] = shards
            cells.append(_cell("syscall_table", **params))
    return cells


def render_syscalls(pairs: Pairs) -> None:
    for block in _chunks(pairs, len(SYSCALL_KINDS)):
        params = block[0][0].params
        print("\n%s cache, depth %d" % ("warm" if params["warm"] else "cold",
                                        params["depth"]))
        rows = [[op] + [record[op] for _cell, record in block]
                for op in SYSCALL_OPS]
        _print_table(["syscall", "v2", "v3", "v4", "iscsi"], rows)


def cells_table4(mb: int, shards: int = 0) -> List[Cell]:
    # One cell per stack covering all four modes: the workload's shuffle
    # RNG is shared across the modes, so they must run in one process.
    cells = []
    for kind in ("nfsv3", "iscsi"):
        params: Dict[str, Any] = {"kind": kind, "mb": mb}
        if shards:
            params["shards"] = shards
        cells.append(_cell("seqrand_table", **params))
    return cells


def render_table4(pairs: Pairs) -> None:
    rows = [[cell.params["kind"], mode,
             "%.2fs" % by_mode[mode]["completion_time"],
             by_mode[mode]["messages"],
             "%.1fMB" % (by_mode[mode]["bytes"] / 1e6)]
            for cell, by_mode in pairs for mode in TABLE4_MODES]
    print("%d MB streaming I/O" % pairs[0][0].params["mb"])
    _print_table(["stack", "mode", "time", "messages", "bytes"], rows)


def cells_table5(transactions: int, files: int) -> List[Cell]:
    return [_cell("postmark", kind=kind, files=files,
                  transactions=transactions)
            for kind in ("nfsv3", "nfs-enhanced", "iscsi")]


def render_table5(pairs: Pairs) -> None:
    rows = [[cell.params["kind"], "%.2fs" % record["completion_time"],
             record["messages"], "%.0f%%" % (record["server_cpu"] * 100),
             "%.0f%%" % (record["client_cpu"] * 100)]
            for cell, record in pairs]
    params = pairs[0][0].params
    print("PostMark: %d transactions, %d files"
          % (params["transactions"], params["files"]))
    _print_table(["stack", "time", "messages", "srv CPU", "cli CPU"], rows)


def cells_table6(transactions: int) -> List[Cell]:
    return [_cell("tpcc", kind=kind, transactions=transactions)
            for kind in ("nfsv3", "iscsi")]


def _normalized_rows(pairs: Pairs) -> List[List[Any]]:
    """Throughput relative to the first stack, messages, server CPU."""
    base = pairs[0][1]["throughput"]
    return [[cell.params["kind"],
             "%.2f" % (record["throughput"] / base),
             record["messages"],
             "%.0f%%" % (record["server_cpu"] * 100)]
            for cell, record in pairs]


def render_table6(pairs: Pairs) -> None:
    print("TPC-C-like OLTP: %d transactions"
          % pairs[0][0].params["transactions"])
    _print_table(["stack", "tpmC (norm)", "messages", "srv CPU"],
                 _normalized_rows(pairs))


def cells_table7(queries: int, mb: int) -> List[Cell]:
    return [_cell("tpch", kind=kind, queries=queries, mb=mb)
            for kind in ("nfsv3", "iscsi")]


def render_table7(pairs: Pairs) -> None:
    params = pairs[0][0].params
    print("TPC-H-like DSS: %d queries over %d MB"
          % (params["queries"], params["mb"]))
    _print_table(["stack", "QphH (norm)", "messages", "srv CPU"],
                 _normalized_rows(pairs))


def cells_table8(dirs: int) -> List[Cell]:
    return [_cell("kernel_tree", kind=kind, dirs=dirs)
            for kind in ("nfsv3", "iscsi")]


def render_table8(pairs: Pairs) -> None:
    rows = [[cell.params["kind"]]
            + ["%.2fs" % record[key] for key in (
                "tar_seconds", "ls_seconds", "make_seconds", "rm_seconds")]
            for cell, record in pairs]
    print("kernel-tree ops (%d files)" % pairs[-1][1]["total_files"])
    _print_table(["stack", "tar", "ls -lR", "make", "rm -rf"], rows)


def cells_tables910(transactions: int) -> List[Cell]:
    cells = []
    for kind in ("nfsv3", "iscsi"):
        cells.append(_cell("postmark", kind=kind, files=500,
                           transactions=transactions))
        cells.append(_cell("tpcc", kind=kind,
                           transactions=max(200, transactions // 8)))
        cells.append(_cell("tpch", kind=kind, queries=3, mb=96))
    return cells


def render_tables910(pairs: Pairs) -> None:
    # One row per stack from its (PostMark, TPC-C, TPC-H) cells.
    rows = [[block[0][0].params["kind"]]
            + ["%.0f%%/%.0f%%" % (record["server_cpu"] * 100,
                                  record["client_cpu"] * 100)
               for _cell, record in block]
            for block in _chunks(pairs, 3)]
    print("CPU utilization (server/client)")
    _print_table(["stack", "PostMark", "TPC-C", "TPC-H"], rows)


def cells_fig3(op: str) -> List[Cell]:
    return [_cell("batching", op=op, batch=batch) for batch in FIG3_BATCHES]


def render_fig3(pairs: Pairs) -> None:
    rows = [[cell.params["batch"], "%.2f" % value] for cell, value in pairs]
    _print_table(["batch", "msgs/op"], rows)


def cells_fig4(op: str) -> List[Cell]:
    cells = [_cell("depth_point", op=op, kind=kind, depth=depth, warm=False)
             for kind in ("nfsv3", "nfsv4", "iscsi")
             for depth in FIG4_DEPTHS]
    cells.extend(_cell("depth_point", op=op, kind="iscsi", depth=depth,
                       warm=True)
                 for depth in FIG4_DEPTHS)
    return cells


def render_fig4(pairs: Pairs) -> None:
    rows = []
    for block in _chunks(pairs, len(FIG4_DEPTHS)):
        params = block[0][0].params
        rows.append(["%s %s" % (params["kind"],
                                "warm" if params["warm"] else "cold")]
                    + [value for _cell, value in block])
    print("messages vs depth [%s]" % pairs[0][0].params["op"])
    _print_table(["series"] + ["d=%d" % d for d in FIG4_DEPTHS], rows)


def cells_fig5() -> List[Cell]:
    return [_cell("io_size_point", kind=kind, mode=mode, size=size)
            for mode in ("cold-read", "warm-read", "cold-write")
            for kind in SYSCALL_KINDS
            for size in FIG5_SIZES]


def render_fig5(pairs: Pairs) -> None:
    for mode, group in _by_mode(pairs):
        print("\n%s" % mode)
        rows = [[row[0][0].params["kind"]] + [value for _cell, value in row]
                for row in _chunks(group, len(FIG5_SIZES))]
        _print_table(["stack"] + [str(s) for s in FIG5_SIZES], rows)


def cells_fig6(mb: int) -> List[Cell]:
    return [_cell("seqrand", kind=kind, mode=mode, mb=mb, rtt=rtt)
            for mode in ("seq-read", "seq-write")
            for kind in ("nfsv3", "iscsi")
            for rtt in FIG6_RTTS]


def render_fig6(pairs: Pairs) -> None:
    for mode, group in _by_mode(pairs):
        print("\nsequential %ss of a %d MB file"
              % (mode[len("seq-"):], group[0][0].params["mb"]))
        rows = [[row[0][0].params["kind"]]
                + ["%.1fs" % record["completion_time"]
                   for _cell, record in row]
                for row in _chunks(group, len(FIG6_RTTS))]
        _print_table(["stack"] + ["%dms" % int(r * 1000) for r in FIG6_RTTS],
                     rows)


def cells_fig7() -> List[Cell]:
    return [_cell("sharing", profile=profile, limit=TRACE_LIMIT)
            for profile in ("eecs", "campus")]


def render_fig7(pairs: Pairs) -> None:
    from .traces import CAMPUS_PROFILE, EECS_PROFILE

    names = {"eecs": EECS_PROFILE.name, "campus": CAMPUS_PROFILE.name}
    for cell, points in pairs:
        print("\n%s trace" % names[cell.params["profile"]])
        rows = [["%.0f" % point["interval"]]
                + ["%.3f" % point[key] for key in (
                    "read_by_one", "read_by_multiple", "written_by_one",
                    "written_by_multiple", "read_write_shared")]
                for point in points]
        _print_table(["T", "r-by-1", "r-by-N", "w-by-1", "w-by-N", "rw"],
                     rows)


def cells_sec7() -> List[Cell]:
    return [_cell("metadata_cache", limit=TRACE_LIMIT)]


def render_sec7(pairs: Pairs) -> None:
    sweep = pairs[0][1]
    rows = [[int(size), sweep[size]["baseline_messages"],
             sweep[size]["consistent_messages"],
             "%.1f%%" % (sweep[size]["reduction"] * 100),
             "%.1e" % sweep[size]["callback_ratio"]]
            for size in sorted(sweep, key=int)]
    print("strongly-consistent meta-data cache (EECS-like trace)")
    _print_table(["cache", "baseline", "consistent", "reduction", "cb ratio"],
                 rows)


# -- the section registry -------------------------------------------------------------
# One row per paper artifact.  The artifact subparsers, the generic
# artifact command, `repro all` (and all_cells()) and the artifacts line
# of `repro list` are all built from SECTIONS, so adding an artifact
# means adding one row.


@dataclass(frozen=True)
class Arg:
    """One artifact flag; its default is also what ``repro all`` runs."""

    flag: str
    type: Callable[[str], Any]
    default: Any
    nargs: Optional[str] = None

    @property
    def dest(self) -> str:
        return self.flag.lstrip("-").replace("-", "_")


@dataclass(frozen=True)
class Section:
    """One artifact: its subcommand name(s), cells, renderer and flags.

    ``fixed`` keywords go to ``cells`` as they are (table2/table3 share
    one cells/render pair and differ only in ``warm``).  ``parents``
    names the shared flags beyond ``--jobs`` that the subcommand takes
    and forwards to ``cells``: ``san``, ``telemetry``, ``shards``.
    """

    names: Tuple[str, ...]
    cells: Callable[..., List[Cell]]
    render: Callable[[Pairs], None]
    args: Tuple[Arg, ...] = ()
    fixed: Dict[str, Any] = field(default_factory=dict)
    parents: Tuple[str, ...] = ()

    @property
    def heading(self) -> str:
        """The ``== heading ==`` line of ``repro all``."""
        return "/".join(self.names)

    def cells_for(self, args=None) -> List[Cell]:
        """The cells for parsed ``args``, or at every default (``repro all``)."""
        kwargs = dict(self.fixed)
        for arg in self.args:
            kwargs[arg.dest] = (arg.default if args is None
                                else getattr(args, arg.dest))
        if args is not None:
            kwargs.update((name, getattr(args, name)) for name in self.parents)
        return self.cells(**kwargs)


# Section order mirrors the paper; it is the order of `repro all`.
SECTIONS: Tuple[Section, ...] = (
    Section(("quick",), cells_quick, render_quick,
            parents=("san", "telemetry", "shards")),
    Section(("table2",), cells_syscalls, render_syscalls,
            (Arg("--depth", _nonneg_int, [0, 3], "+"),),
            fixed={"warm": False}, parents=("shards",)),
    Section(("table3",), cells_syscalls, render_syscalls,
            (Arg("--depth", _nonneg_int, [0], "+"),),
            fixed={"warm": True}, parents=("shards",)),
    Section(("table4",), cells_table4, render_table4,
            (Arg("--mb", _positive_int, 16),), parents=("shards",)),
    Section(("table5",), cells_table5, render_table5,
            (Arg("--transactions", _positive_int, 5000),
             Arg("--files", _positive_int, 1000))),
    Section(("table6",), cells_table6, render_table6,
            (Arg("--transactions", _positive_int, 1000),)),
    Section(("table7",), cells_table7, render_table7,
            (Arg("--queries", _positive_int, 4),
             Arg("--mb", _positive_int, 128))),
    Section(("table8",), cells_table8, render_table8,
            (Arg("--dirs", _positive_int, 12),)),
    Section(("table9", "table10"), cells_tables910, render_tables910,
            (Arg("--transactions", _positive_int, 4000),)),
    Section(("fig3",), cells_fig3, render_fig3,
            (Arg("--op", _one_of(BATCH_OPS), "mkdir"),)),
    Section(("fig4",), cells_fig4, render_fig4,
            (Arg("--op", _one_of(SYSCALL_OPS), "mkdir"),)),
    Section(("fig5",), cells_fig5, render_fig5),
    Section(("fig6",), cells_fig6, render_fig6,
            (Arg("--mb", _positive_int, 4),)),
    Section(("fig7",), cells_fig7, render_fig7),
    Section(("sec7",), cells_sec7, render_sec7),
)


def _pairs(cells: List[Cell], results: Dict[str, Any]) -> Pairs:
    return [(cell, results[cell.id]) for cell in cells]


def _telemetry_summary(runner: ExperimentRunner) -> None:
    """Status lines for a telemetry-carrying run — stderr only, so every
    stdout/JSON artifact stays byte-identical to a plain run."""
    snapshot = runner.telemetry
    if snapshot is None:
        return
    print("telemetry: %d series, %d samples, %d cells"
          % (len(snapshot["series"]), snapshot["samples"],
             len(runner.telemetry_by_cell)), file=sys.stderr)
    if snapshot["findings"]:
        for code, series, message in snapshot["findings"]:
            print("telemetry %s %s: %s" % (code, series, message),
                  file=sys.stderr)
    else:
        print("telemetry watchers: clean (queue growth, pegged "
              "utilization, progress stall)", file=sys.stderr)


def cmd_section(section: Section, args) -> int:
    """Run one artifact subcommand: its cells on the runner, then render."""
    runner = _runner(args)
    cells = section.cells_for(args)
    section.render(_pairs(cells, runner.run(cells)))
    if getattr(args, "san", False):
        # stderr, so the table on stdout stays bit-identical to a
        # non-sanitized run (the sanitizer contract).
        print("sanitizers: clean (deadlock, leaks, event order, "
              "message/reply/task conservation)", file=sys.stderr)
    if getattr(args, "telemetry", False):
        _telemetry_summary(runner)
    return 0


def all_cells() -> List[Cell]:
    """Every cell of every section, deduplicated, in section order."""
    cells: List[Cell] = []
    seen = set()
    for section in SECTIONS:
        for cell in section.cells_for():
            if cell.id not in seen:
                seen.add(cell.id)
                cells.append(cell)
    return cells


def cmd_all(args) -> int:
    # Heartbeats keep long --jobs runs from looking hung; they go to
    # stderr, so the artifact output on stdout is unchanged.
    runner = ExperimentRunner(jobs=args.jobs, use_cache=not args.no_cache,
                              heartbeat=True)
    results = runner.run(all_cells())
    for section in SECTIONS:
        print("\n== %s ==" % section.heading)
        section.render(_pairs(section.cells_for(), results))
    print("\n%d cells (%d cached, %d computed), jobs=%s"
          % (runner.cache_hits + runner.cache_misses, runner.cache_hits,
             runner.cache_misses, args.jobs or 1))
    return 0


# -- scale: the shard-sweep speedup harness ------------------------------------------


def cmd_scale(args) -> int:
    """Sweep shard counts over one multi-client storm; write BENCH_storm.json.

    stdout carries only the partition-invariant storm metrics
    (completed/records/makespan), certified by one pure ``scale_point``
    runner cell, so CI can ``cmp`` a ``--shards 1`` run against the
    ``--reference`` run (the flat, unsharded kernel) — that is the
    byte-identity contract.  The timed sweep reports to stderr and
    ``--out`` only, because wall-clock speedup depends on the host's
    core count; ``ideal_speedup`` and ``cross_fraction`` in the JSON
    are the machine-independent numbers.

    ``--farm`` switches to the server-farm sweep (:mod:`repro.sim.farm`)
    over ``nclients x servers x connections x sharing``; its stdout rows
    and its schema-2 document are pure simulated outcome under the same
    byte-identity contract (``--shards 1`` == ``--reference``, and the
    document diffs exactly across hosts via ``--compare``).
    """
    import os
    import time

    from .obs.bench import write_bench
    from .sim.perf import run_shard_storm
    from .sim.shard import default_parallel_executor

    if args.compare:
        from .obs.bench import compare_scale_documents

        documents = _load_documents("scale", args.compare)
        if documents is None:
            return 2
        baseline, current = documents
        problems = compare_scale_documents(baseline, current)
        for problem in problems:
            print("scale: %s" % problem)
        print("scale: %s"
              % ("documents diverged (%d problems)" % len(problems)
                 if problems else "documents identical"))
        return 1 if problems else 0
    if args.out is None:
        # Per-mode defaults: the committed BENCH_scale.json is the farm
        # matrix, so the storm (whose wall-clock figures are
        # host-dependent) must not clobber it by default.
        args.out = "BENCH_scale.json" if args.farm else "BENCH_storm.json"
    if args.farm:
        return _cmd_scale_farm(args)
    if args.clients % args.groups:
        print("scale: --clients must be a multiple of --groups",
              file=sys.stderr)
        return 2
    clients_per_group = args.clients // args.groups
    shard_counts = [1] if args.reference else list(args.shards)

    # The certified point: a pure runner cell (always sequential — its
    # metrics are the reference every timed run must reproduce exactly).
    nshards = 0 if args.reference else shard_counts[0]
    cell = _cell("scale_point", groups=args.groups,
                 clients_per_group=clients_per_group,
                 requests=args.requests, nshards=nshards)
    record = ExperimentRunner(jobs=None, use_cache=False).run([cell])[cell.id]
    print("shard storm: clients=%d groups=%d requests_per_client=%d"
          % (record["clients"], args.groups, args.requests))
    print("completed=%d records=%d makespan=%r"
          % (record["completed"], record["records"], record["makespan"]))
    if args.reference:
        return 0

    executor = args.executor or default_parallel_executor()
    points = []
    for count in shard_counts:
        runs = []
        for _ in range(args.repeat):
            start = time.perf_counter()  # simlint: disable=D101 -- measures host runtime of the harness, not sim time
            result = run_shard_storm(
                groups=args.groups, clients_per_group=clients_per_group,
                requests=args.requests, nshards=count,
                executor=executor, jobs=args.jobs)
            wall = time.perf_counter() - start  # simlint: disable=D101 -- measures host runtime of the harness, not sim time
            for key in ("completed", "records", "makespan"):
                if result[key] != record[key]:
                    print("scale: shards=%d %s=%r diverged from the "
                          "certified cell (%r)"
                          % (count, key, result[key], record[key]),
                          file=sys.stderr)
                    return 1
            runs.append((wall, result["report"]))
        best, report = min(runs, key=lambda run: run[0])
        points.append({
            "shards": count,
            "wall_s": best,
            "events_per_s": (record["records"] / best) if best else 0.0,
            "rounds": report["rounds"],
            "records_by_shard": report["records_by_shard"],
            "cross_messages": report["cross_messages"],
            "cross_fraction": report["cross_fraction"],
            "ideal_speedup": report["ideal_speedup"],
        })
    base = next((p["wall_s"] for p in points if p["shards"] == 1),
                points[0]["wall_s"])
    for point in points:
        point["speedup_vs_1"] = (base / point["wall_s"]
                                 if point["wall_s"] else 1.0)
        print("scale: shards=%d wall=%.3fs speedup=%.2fx ideal=%.2fx "
              "cross=%.3f rounds=%d"
              % (point["shards"], point["wall_s"], point["speedup_vs_1"],
                 point["ideal_speedup"], point["cross_fraction"],
                 point["rounds"]), file=sys.stderr)

    document = {
        "schema": 1,
        "config": {
            "clients": args.clients,
            "groups": args.groups,
            "clients_per_group": clients_per_group,
            "requests_per_client": args.requests,
            "executor": executor,
            "jobs": args.jobs,
            "repeat": args.repeat,
        },
        "metrics": {
            "completed": record["completed"],
            "records": record["records"],
            "makespan": record["makespan"],
        },
        "host": {"cpus": os.cpu_count()},
        "points": points,
        "note": "wall_s/speedup_vs_1 depend on host cpus; ideal_speedup "
                "and cross_fraction are machine-independent",
    }
    write_bench(document, args.out)
    print("scale: wrote %s (host cpus=%s)" % (args.out, os.cpu_count()),
          file=sys.stderr)
    return 0


def _cmd_scale_farm(args) -> int:
    """The ``repro scale --farm`` sweep: a grid of certified farm cells.

    Every point is one pure ``farm_point`` runner cell (sequential
    executor; ``nshards`` from ``--shards``/``--reference``), so the
    grid parallelizes over ``--jobs`` and caches under ``--cache``
    without touching the outcome.  stdout rows and the written document
    carry only machine-independent simulated figures.
    """
    from .obs.bench import SCALE_SCHEMA_VERSION, write_bench

    if not 0.0 <= args.sharing <= 1.0:
        print("scale: --sharing must be in [0, 1] (got %r)"
              % (args.sharing,), file=sys.stderr)
        return 2
    nshards = 0 if args.reference else args.shards[0]
    runner = ExperimentRunner(jobs=args.jobs, use_cache=args.cache)
    cells = []
    for protocol in args.protocol:
        for nservers in args.servers:
            for connections in args.connections:
                for nclients in args.nclients:
                    # Sharing is an NFS-only axis: iSCSI volumes are
                    # single-client by design (Section 2.3).
                    sharing = args.sharing if protocol == "nfs" else 0.0
                    cells.append(_cell(
                        "farm_point", protocol=protocol, nclients=nclients,
                        nservers=nservers, connections=connections,
                        sharing=sharing, requests=args.requests,
                        nshards=nshards))
    results = runner.run(cells)
    points = []
    for cell in cells:
        record = results[cell.id]
        print("farm %s: clients=%d servers=%d conn=%d sharing=%r "
              "completed=%d makespan=%r messages=%d throughput=%r"
              % (record["protocol"], record["clients"], record["servers"],
                 record["connections"], record["sharing"],
                 record["completed"], record["makespan"],
                 record["messages"], record["throughput"]))
        point = dict(record)
        point["id"] = "%s/s%d/x%d/n%d" % (
            record["protocol"], record["servers"], record["connections"],
            record["clients"])
        points.append(point)
    if args.reference:
        return 0
    document = {
        "schema": SCALE_SCHEMA_VERSION,
        "kind": "farm",
        "config": {
            "protocols": list(args.protocol),
            "nclients": list(args.nclients),
            "servers": list(args.servers),
            "connections": list(args.connections),
            "sharing": args.sharing,
            "requests_per_client": args.requests,
        },
        "points": points,
        "series": _farm_series(points),
        "note": "every field is deterministic simulated outcome; "
                "documents diff exactly across hosts via "
                "`repro scale --compare`",
    }
    write_bench(document, args.out)
    print("scale: wrote %s (%d farm points)" % (args.out, len(points)),
          file=sys.stderr)
    return 0


def _farm_series(points) -> dict:
    """Scaling laws per (protocol, servers, connections) series.

    ``efficiency`` is each point's per-client throughput relative to the
    smallest farm in its series; ``saturation_clients`` is the first
    farm size past the knee (efficiency < 0.5, i.e. adding clients has
    stopped adding proportional throughput); ``message_exponent`` is the
    least-squares slope of ln(messages) over ln(clients) — 1.0 means
    per-client message cost is flat, above it the protocol pays a
    growing coordination tax.
    """
    import math

    groups: dict = {}
    for point in points:
        key = "%s/s%d/x%d" % (point["protocol"], point["servers"],
                              point["connections"])
        groups.setdefault(key, []).append(point)
    series = {}
    for key, members in sorted(groups.items()):
        members = sorted(members, key=lambda point: point["clients"])
        base = members[0]
        per_client_base = base["throughput"] / base["clients"]
        efficiency = []
        saturation = None
        for point in members:
            relative = round((point["throughput"] / point["clients"])
                             / per_client_base, 6)
            efficiency.append([point["clients"], relative])
            if saturation is None and relative < 0.5:
                saturation = point["clients"]
        exponent = None
        if len(members) > 1:
            log_clients = [math.log(point["clients"]) for point in members]
            log_messages = [math.log(point["messages"]) for point in members]
            mean_x = sum(log_clients) / len(log_clients)
            mean_y = sum(log_messages) / len(log_messages)
            denominator = sum((x - mean_x) ** 2 for x in log_clients)
            if denominator:
                exponent = round(
                    sum((x - mean_x) * (y - mean_y)
                        for x, y in zip(log_clients, log_messages))
                    / denominator, 6)
        series[key] = {
            "efficiency": efficiency,
            "saturation_clients": saturation,
            "message_exponent": exponent,
        }
    return series


# -- trace: the simulated-Ethereal front end ------------------------------------------
# The workload drivers are shared with `repro bench` and live in
# repro.obs.bench (imported above as TRACE_WORKLOADS).


def _run_traced(kind: str, workload: str, san: bool = False):
    stack = make_stack(kind, trace=True, san=san)
    stack.run(TRACE_WORKLOADS[workload](stack.client))
    stack.quiesce()
    stack.check()
    return stack


def cmd_trace(args) -> int:
    from .obs import (format_op_summary, render_span_tree,
                      render_timeline_diff, write_chrome_trace,
                      write_packet_trace)

    stack = _run_traced(args.stack, args.workload, san=args.san)
    tracer = stack.tracer
    if args.diff:
        other = _run_traced(args.diff, args.workload, san=args.san)
        print(render_timeline_diff(tracer, args.stack,
                                   other.tracer, args.diff,
                                   limit=args.limit))
        print()
    if args.out:
        write_chrome_trace(tracer, args.out)
        print("chrome trace: %s (open in chrome://tracing or Perfetto)"
              % args.out)
    if args.jsonl:
        write_packet_trace(tracer, args.jsonl)
        print("packet trace: %s" % args.jsonl)
    if args.tree:
        print(render_span_tree(tracer))
        print()
    print("%s on %s: %d spans, %d messages, %.2f simulated ms" % (
        args.workload, args.stack, len(tracer.spans), len(tracer.messages),
        stack.now * 1000))
    print()
    print(format_op_summary(tracer))
    return 0


# -- faults: degraded-mode scenario tables --------------------------------------------


def _plan_param(plan: str) -> Any:
    """Resolve a CLI plan reference into a JSON-pure cell parameter.

    Preset names (and "none") pass through as strings — readable cell
    ids, stable cache keys.  A file path is loaded here so the cell
    itself stays a pure function of its JSON params.
    """
    from .faults import PRESETS, resolve_plan

    if plan == "none" or plan in PRESETS:
        return plan
    return resolve_plan(plan).to_spec()


def _fault_digest(record: Dict[str, Any]) -> str:
    """Compact message-fault summary for one scenario row."""
    faults = record.get("faults")
    if not faults:
        return "-"
    parts = ["%s=%d" % (name.split(".", 1)[1], count)
             for name, count in sorted(faults.get("counts", {}).items())
             if name.startswith("msg.")]
    return " ".join(parts) if parts else "-"


def _recovery_digest(record: Dict[str, Any]) -> str:
    """Compact recovery-machinery summary for one scenario row."""
    recovery = record.get("recovery", {})
    labels = (("server_restarts", "restart"), ("relogins", "relogin"),
              ("requeued_commands", "requeue"), ("degraded_reads", "deg-rd"),
              ("degraded_writes", "deg-wr"), ("rebuild_writes", "rebuild"))
    parts = ["%s=%d" % (label, recovery[key])
             for key, label in labels if recovery.get(key)]
    return " ".join(parts) if parts else "-"


def cmd_faults(args) -> int:
    stacks = tuple(args.stack)
    try:
        plans = [(plan, _plan_param(plan)) for plan
                 in ["none"] + [plan for plan in args.plan if plan != "none"]]
    except ValueError as exc:
        print("faults: %s" % exc, file=sys.stderr)
        return 2

    def scenario_cell(kind: str, spec: Any) -> Cell:
        params: Dict[str, Any] = dict(
            kind=kind, workload=args.workload, plan=spec, seed=args.seed)
        if args.san:
            params["san"] = True
        if args.telemetry:
            params["telemetry"] = True
        return _cell("faults_scenario", **params)

    labeled = [
        (kind, plan, scenario_cell(kind, spec))
        for kind in stacks
        for plan, spec in plans
    ]
    runner = _runner(args)
    results = runner.run([cell for _kind, _plan, cell in labeled])
    rows = []
    baseline: Dict[str, float] = {}
    for kind, plan, cell in labeled:
        record = results[cell.id]
        # Total simulated time (workload + quiesce): fault windows often
        # overlap the flush traffic, not just the foreground phase.
        elapsed = record["total_time_s"]
        if plan == "none":
            baseline[kind] = elapsed
        base = baseline.get(kind, 0.0)
        rows.append([
            kind, plan, "%.3fs" % elapsed,
            "%.2fx" % (elapsed / base) if base else "-",
            record["messages"], record["retransmissions"],
            _fault_digest(record), _recovery_digest(record),
        ])
    print("%s under fault plans (seed %d)" % (args.workload, args.seed))
    _print_table(
        ["stack", "plan", "time", "vs none", "messages", "retrans",
         "faults", "recovery"],
        rows)
    if args.san:
        # Report mode: a faulted run legitimately abandons exchanges, so
        # findings are informational here (stderr keeps the table clean).
        for kind, plan, cell in labeled:
            findings = results[cell.id].get("sanitizer") or []
            print("san %s/%s: %s" % (
                kind, plan,
                "clean" if not findings else "; ".join(
                    "[%s] %s" % (f["code"], f["message"])
                    for f in findings)), file=sys.stderr)
    if args.telemetry:
        _telemetry_summary(runner)
    return 0


# -- bench: the regression harness ----------------------------------------------------


def cmd_bench(args) -> int:
    from .obs import bench

    if args.compare:
        documents = _load_documents("bench", args.compare)
        if documents is None:
            return 2
        baseline, current = documents
        regressions, notes = bench.compare(
            baseline, current, tolerance=args.tolerance)
        if args.format == "json":
            # Machine-readable for CI annotations; same exit semantics.
            sys.stdout.write(bench.format_compare_json(regressions, notes))
        else:
            print(bench.format_compare(regressions, notes))
            _print_compare_explain(baseline, current, regressions)
        return 1 if regressions else 0
    runner = ExperimentRunner(jobs=args.jobs, use_cache=args.cache)
    result = bench.run_suite(args.suite, runner=runner, san=args.san,
                             telemetry=args.telemetry)
    rows = []
    for case in sorted(result["cases"]):
        record = result["cases"][case]
        rows.append([case, "%.3fs" % record["completion_time_s"],
                     record["messages"],
                     "%.1fMB" % (record["bytes"] / 1e6)])
    print("suite %r (schema %d)" % (args.suite, result["schema"]))
    _print_table(["case", "time", "messages", "bytes"], rows)
    out = args.out or ("BENCH_%s.json" % args.suite)
    bench.write_bench(result, out)
    print("\nwrote %s" % out)
    if args.telemetry:
        _telemetry_summary(runner)
    return 0


def _print_compare_explain(baseline: Dict[str, Any], current: Dict[str, Any],
                           regressions: List[Dict[str, Any]]) -> None:
    """Append one differential-diagnosis report per regressed case.

    Only cases present in both documents can be diffed (schema or
    presence regressions have nothing to attribute), and each case is
    explained once even if several metrics regressed on it.
    """
    from .obs.explain import explain_runs, format_explain, side_from_bench

    old_cases = baseline.get("cases", {})
    new_cases = current.get("cases", {})
    seen = set()
    for entry in regressions:
        case = entry["case"]
        if case in seen or case not in old_cases or case not in new_cases:
            continue
        seen.add(case)
        report = explain_runs(
            side_from_bench(old_cases[case], label="baseline:%s" % case),
            side_from_bench(new_cases[case], label="current:%s" % case))
        print()
        print(format_explain(report), end="")


# -- explain: the differential-diagnosis front end ------------------------------------


def cmd_explain(args) -> int:
    from .obs import explain as ex

    if bool(args.bench_a) != bool(args.bench_b):
        print("explain: --bench-a and --bench-b must be given together",
              file=sys.stderr)
        return 2
    if args.bench_a:
        # Offline mode: diff one case out of two recorded bench documents.
        import os

        paths = (args.bench_a, args.bench_b)
        documents = _load_documents("explain", paths)
        if documents is None:
            return 2
        sides = []
        for path, doc, stack in zip(paths, documents,
                                    (args.stack_a, args.stack_b)):
            case = "%s/%s" % (args.workload, stack)
            record = doc.get("cases", {}).get(case)
            if record is None:
                print("explain: case %r not in %s (cases: %s)"
                      % (case, path,
                         ", ".join(sorted(doc.get("cases", {}))) or "none"),
                      file=sys.stderr)
                return 2
            sides.append(ex.side_from_bench(
                record, label="%s:%s" % (os.path.basename(path), case)))
        report = ex.explain_runs(sides[0], sides[1], top=args.top)
    else:
        # Live mode: one runner cell runs both sides and diffs them.
        cell = _cell("explain_pair", workload=args.workload,
                     stack_a=args.stack_a, stack_b=args.stack_b,
                     telemetry=bool(args.telemetry), top=args.top)
        report = _runner(args).run([cell])[cell.id]
    if args.format == "json":
        text = ex.format_explain_json(report)
    elif args.format == "html":
        text = ex.render_explain_html(report)
    else:
        text = ex.format_explain(report)
    if args.out:
        with open(args.out, "w") as handle:
            handle.write(text)
        print("wrote %s" % args.out)
    else:
        sys.stdout.write(text)
    return 0


# -- dash: streaming-telemetry dashboards ---------------------------------------------


def cmd_dash(args) -> int:
    from .obs.dashboard import render_dashboard, write_html

    cells = [_cell("telemetry_run", kind=kind, workload=args.workload,
                   heartbeat=bool(args.heartbeat))
             for kind in args.stack]
    runner = _runner(args)
    runner.run(cells)
    sections: List[Tuple[str, Dict[str, Any]]] = []
    for cell in cells:
        title = "%s on %s" % (args.workload, cell.params["kind"])
        snapshot = runner.telemetry_by_cell[cell.id]
        sections.append((title, snapshot))
        print(render_dashboard(snapshot, title=title, width=args.width))
    if len(cells) > 1:
        # The runner's deterministic cross-cell aggregate: what a
        # fan-out over many clients/cells would report as one fleet.
        title = "%s merged across %d stacks" % (args.workload, len(cells))
        sections.append((title, runner.telemetry))
        print(render_dashboard(runner.telemetry, title=title,
                               width=args.width))
    if args.html:
        write_html(args.html, sections,
                   title="repro dash: %s" % args.workload)
        print("html dashboard: %s" % args.html)
    return 0


# -- lint: the simulator-discipline linter --------------------------------------------


def cmd_lint(args) -> int:
    from .check import simlint

    paths = args.paths
    if not paths:
        # Default: lint the installed package's own source tree.
        import os

        paths = [os.path.dirname(os.path.abspath(__file__))]

    if args.debt:
        suppressions = simlint.collect_suppressions(paths)
        print(simlint.format_debt(suppressions))
        # A suppression without a written reason, or naming a retired or
        # misspelt rule code, is debt that fails CI.
        return 1 if any(not s.reason or s.unknown_codes
                        for s in suppressions) else 0

    if args.fix:
        from .check import fixer

        fixed = fixer.fix_paths(paths)
        for path in sorted(fixed):
            print("fixed %s: %d rewrite%s"
                  % (path, fixed[path], "" if fixed[path] == 1 else "s"))
        if not fixed:
            print("nothing to fix")

    violations = simlint.lint_paths(paths)
    if args.format == "json":
        print(simlint.format_json(violations))
    elif args.format == "sarif":
        from .check import sarif

        print(sarif.format_sarif(violations))
    else:
        print(simlint.format_text(violations))
    return 1 if violations else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Regenerate artifacts from the FAST'04 NFS-vs-iSCSI paper.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # Shared by every artifact subcommand: process-pool fan-out.
    jobs_parent = argparse.ArgumentParser(add_help=False)
    jobs_parent.add_argument(
        "--jobs", type=_positive_int, default=None, metavar="N",
        help="run experiment cells on N worker processes "
             "(default: serial in-process; output is identical)")

    # Shared by every workload-running subcommand: runtime sanitizers.
    san_parent = argparse.ArgumentParser(add_help=False)
    san_parent.add_argument(
        "--san", action="store_true",
        help="run under the repro.check.simsan runtime sanitizers "
             "(deadlock/leak/order/conservation checks; observe-only, "
             "output stays byte-identical)")

    # Shared by quick/bench/faults: the streaming telemetry layer.
    telem_parent = argparse.ArgumentParser(add_help=False)
    telem_parent.add_argument(
        "--telemetry", action="store_true",
        help="attach the repro.obs.telemetry streaming collector "
             "(bounded-memory rollups + invariant watchers); summary on "
             "stderr, stdout/JSON output stays byte-identical)")

    # Shared by quick/table2/table3/table4: sharded-calendar placement.
    shards_parent = argparse.ArgumentParser(add_help=False)
    shards_parent.add_argument(
        "--shards", type=_nonneg_int, default=0, metavar="N",
        help="build each stack on an N-shard placement; N=1 is the "
             "byte-identity check against the flat kernel (a single "
             "stack is one shard — multi-shard sweeps live under "
             "'repro scale'; default: flat)")

    sub.add_parser("list").set_defaults(func=cmd_list)
    shared = {"san": san_parent, "telemetry": telem_parent,
              "shards": shards_parent}
    for section in SECTIONS:
        for name in section.names:
            artifact = sub.add_parser(
                name, parents=[jobs_parent] + [shared[parent] for parent
                                               in section.parents])
            for arg in section.args:
                artifact.add_argument(arg.flag, type=arg.type,
                                      nargs=arg.nargs, default=arg.default)
            artifact.set_defaults(func=functools.partial(cmd_section, section),
                                  **section.fixed)

    al = sub.add_parser(
        "all", parents=[jobs_parent],
        help="regenerate every table and figure (parallel, cached)",
    )
    al.add_argument("--no-cache", action="store_true",
                    help="recompute every cell, ignoring the result cache")
    al.set_defaults(func=cmd_all)

    from .sim.shard import EXECUTORS

    sc = sub.add_parser(
        "scale",
        help="sweep shard counts on the multi-client storm, or (--farm) "
             "sweep a protocol-aware server farm over nclients x servers "
             "x connections x sharing; write BENCH_scale.json",
        description="Two sweep families share this command. The default "
                    "storm sweeps shard counts over the hub/client "
                    "kernel benchmark and reports wall-clock speedup. "
                    "--farm instead sweeps the protocol-aware farm "
                    "(repro.sim.farm) over four axes: --nclients (farm "
                    "size, to 1k+ clients), --servers (pNFS-style "
                    "striped exports; server 0 is the metadata server), "
                    "--connections (MC/S-style concurrent channels per "
                    "client), and --sharing (fraction of NFS requests "
                    "hitting a shared file pool; ignored by iscsi, whose "
                    "volumes are single-client). Farm output is pure "
                    "simulated outcome, byte-comparable across hosts; "
                    "--compare OLD NEW diffs two farm documents exactly.")
    sc.add_argument("--clients", type=_positive_int, default=256,
                    help="total storm clients (default 256)")
    sc.add_argument("--groups", type=_positive_int, default=8,
                    help="hub groups to partition over shards (default 8)")
    sc.add_argument("--requests", type=_positive_int, default=20,
                    help="requests per client (default 20)")
    sc.add_argument("--shards", type=_positive_int, nargs="+", default=[1, 4],
                    metavar="N", help="shard counts to sweep (default: 1 4)")
    sc.add_argument("--executor", choices=EXECUTORS, default=None,
                    help="shard executor (default: fork on POSIX, "
                         "else thread)")
    sc.add_argument("--jobs", type=_positive_int, default=None, metavar="N",
                    help="executor workers (default: one per shard, "
                         "capped at the CPU count)")
    sc.add_argument("--repeat", type=_positive_int, default=3,
                    help="timed runs per point; best-of wall clock "
                         "(default 3)")
    sc.add_argument("--out", default=None,
                    help="result file (default BENCH_storm.json for the "
                         "kernel storm, BENCH_scale.json for --farm)")
    sc.add_argument("--reference", action="store_true",
                    help="run the flat (unsharded) reference kernel, print "
                         "the invariant metrics, and skip the timed sweep")
    sc.add_argument("--farm", action="store_true",
                    help="sweep the protocol-aware server farm instead of "
                         "the kernel storm (axes: --nclients --servers "
                         "--connections --sharing)")
    sc.add_argument("--protocol", nargs="+", choices=("nfs", "iscsi"),
                    default=["nfs", "iscsi"], metavar="PROTO",
                    help="farm protocols to sweep (default: nfs iscsi)")
    sc.add_argument("--nclients", type=_positive_int, nargs="+",
                    default=[64, 256, 1024], metavar="N",
                    help="farm sizes to sweep (default: 64 256 1024)")
    sc.add_argument("--servers", type=_positive_int, nargs="+",
                    default=[1, 4], metavar="M",
                    help="server counts; NFS stripes one namespace over "
                         "all M exports pNFS-style (default: 1 4)")
    sc.add_argument("--connections", type=_positive_int, nargs="+",
                    default=[1, 4], metavar="K",
                    help="concurrent channels per client, the MC/S axis "
                         "(default: 1 4)")
    sc.add_argument("--sharing", type=float, default=0.25,
                    help="fraction of NFS requests hitting the shared "
                         "file pool, in [0, 1] (default 0.25)")
    sc.add_argument("--cache", action="store_true",
                    help="reuse cached farm cells ($REPRO_CACHE_DIR)")
    sc.add_argument("--compare", nargs=2, metavar=("BASELINE", "CURRENT"),
                    help="exact-diff two farm scale documents and exit "
                         "(1 if they diverge)")
    sc.set_defaults(func=cmd_scale)

    fl = sub.add_parser(
        "faults", parents=[jobs_parent, san_parent, telem_parent],
        help="run a workload under fault plans and tabulate the "
             "degraded-mode cost (completion time, messages, recovery)",
    )
    fl.add_argument("workload", choices=sorted(TRACE_WORKLOADS))
    fl.add_argument("--stack", nargs="+", choices=STACK_KINDS,
                    default=["nfsv3", "iscsi"], metavar="KIND",
                    help="stack kinds to compare (default: nfsv3 iscsi)")
    fl.add_argument("--plan", nargs="+", default=["loss2"], metavar="PLAN",
                    help="fault plans: a preset name (see repro.faults."
                         "PRESETS, e.g. loss2 loss10 dup5 reorder10 flap "
                         "degrade slow-disk disk-fail crash) or a JSON "
                         "plan file; an unfaulted baseline always runs")
    fl.add_argument("--seed", type=int, default=0,
                    help="RNG seed for probabilistic faults (default 0)")
    fl.set_defaults(func=cmd_faults)

    tr = sub.add_parser(
        "trace", parents=[san_parent],
        help="run a workload with tracing on and export/inspect the trace",
    )
    tr.add_argument("workload", choices=sorted(TRACE_WORKLOADS))
    tr.add_argument("--stack", choices=STACK_KINDS, default="nfsv3")
    tr.add_argument("--out", metavar="FILE",
                    help="write a Chrome trace_event JSON file")
    tr.add_argument("--jsonl", metavar="FILE",
                    help="write the Ethereal-style packet trace (JSON lines)")
    tr.add_argument("--diff", metavar="KIND", choices=STACK_KINDS,
                    help="also run KIND and print a side-by-side "
                         "protocol timeline")
    tr.add_argument("--tree", action="store_true",
                    help="print the causal span tree")
    tr.add_argument("--limit", type=_nonneg_int, default=60,
                    help="max rows in --diff output (0 = all)")
    tr.set_defaults(func=cmd_trace)

    be = sub.add_parser(
        "bench", parents=[jobs_parent, san_parent, telem_parent],
        help="run a benchmark suite to BENCH_<suite>.json, or compare "
             "two result files for regressions",
    )
    be.add_argument("--suite", choices=sorted(BENCH_SUITES),
                    default="quick")
    be.add_argument("--out", metavar="FILE",
                    help="output path (default BENCH_<suite>.json)")
    be.add_argument("--compare", nargs=2, metavar=("OLD", "NEW"),
                    help="compare two BENCH_*.json files instead of "
                         "running; exits 1 on regression")
    be.add_argument("--tolerance", type=float, default=0.15,
                    help="allowed fractional completion-time growth "
                         "(default 0.15; message counts must be exact)")
    be.add_argument("--format", choices=["text", "json"], default="text",
                    help="--compare report format (default text; json is "
                         "the machine-readable form CI annotates from)")
    be.add_argument("--cache", action="store_true",
                    help="serve unchanged cases from the result cache "
                         "(off by default: bench is the regression gate)")
    be.set_defaults(func=cmd_bench)

    da = sub.add_parser(
        "dash", parents=[jobs_parent],
        help="run a workload with streaming telemetry and render per-tier "
             "utilization/queue-depth timeline dashboards (ASCII + "
             "optional self-contained HTML export)",
    )
    da.add_argument("workload", choices=sorted(TRACE_WORKLOADS))
    da.add_argument("--stack", nargs="+", choices=STACK_KINDS,
                    default=["nfsv3", "iscsi"], metavar="KIND",
                    help="stack kinds to dash (default: nfsv3 iscsi); "
                         "more than one adds a merged fleet section")
    da.add_argument("--html", metavar="FILE",
                    help="also write a self-contained HTML dashboard")
    da.add_argument("--width", type=_positive_int, default=48,
                    help="sparkline width in characters (default 48)")
    da.add_argument("--heartbeat", action="store_true",
                    help="print in-simulation heartbeat lines to stderr "
                         "while cells run")
    da.set_defaults(func=cmd_dash)

    exp = sub.add_parser(
        "explain", parents=[jobs_parent, telem_parent],
        help="differential diagnosis: run one workload on two stacks (or "
             "load one case from two BENCH_*.json files) and explain the "
             "completion-time delta — layer attribution, message drift, "
             "queueing deltas, ranked blame",
    )
    exp.add_argument("workload", choices=sorted(TRACE_WORKLOADS))
    exp.add_argument("--stack-a", choices=STACK_KINDS, default="nfsv3",
                     metavar="KIND",
                     help="side-A stack kind (default nfsv3)")
    exp.add_argument("--stack-b", choices=STACK_KINDS, default="iscsi",
                     metavar="KIND",
                     help="side-B stack kind (default iscsi)")
    exp.add_argument("--bench-a", metavar="FILE",
                     help="read side A from a recorded BENCH_*.json "
                          "instead of running (case <workload>/<stack-a>; "
                          "requires --bench-b)")
    exp.add_argument("--bench-b", metavar="FILE",
                     help="read side B from a recorded BENCH_*.json "
                          "(case <workload>/<stack-b>; requires --bench-a)")
    exp.add_argument("--top", type=_positive_int, default=8,
                     help="blame-list length (default 8)")
    exp.add_argument("--format", choices=["text", "json", "html"],
                     default="text",
                     help="report format (default text; json is stable and "
                          "byte-identical across reruns)")
    exp.add_argument("--out", metavar="FILE",
                     help="write the report to FILE instead of stdout")
    exp.set_defaults(func=cmd_explain)

    li = sub.add_parser(
        "lint",
        help="run simlint, the simulator-discipline linter, over source "
             "paths (default: the repro package itself); exits 1 on "
             "violations",
    )
    li.add_argument("paths", nargs="*", metavar="PATH",
                    help="files or directories to lint "
                         "(default: the installed repro package)")
    li.add_argument("--format", choices=["text", "json", "sarif"],
                    default="text",
                    help="report format (default text; sarif is a 2.1.0 "
                         "document for CI code-scanning annotations)")
    li.add_argument("--fix", action="store_true",
                    help="autofix the mechanical rules in place "
                         "(sorted() wraps, Random(0) seeds, hook guards) "
                         "before reporting what remains")
    li.add_argument("--debt", action="store_true",
                    help="report every `# simlint: disable` suppression "
                         "with its reason; exits 1 if any lacks one or "
                         "names an unknown rule code")
    li.set_defaults(func=cmd_lint)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        # A usage error (2, message already on stderr) or --help (0):
        # a return code, so in-process callers see what a shell would.
        return exc.code
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
