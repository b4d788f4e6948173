"""Host-performance benchmark of the NFS/iSCSI simulator.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload oltp --seed 11 --seconds 25 --trace 0

The benchmark measures *host* cost: what it takes this machine to
produce the paper's numbers.  Every *simulated* output is checked for
exact equality on every run.  Workloads (see ``cells.py`` and
``BENCHMARK.json``): ``oltp`` (TPC-C), ``stream`` (Table 4), ``meta``
(PostMark) and ``farm`` (the BENCH_scale.json matrix).

Each sample runs in a fresh ``worker.py`` process, one at a time, so its
memory and import cost are its own.

``--trace 0`` repeats the workload's cell set while ``--seconds`` last
(at least once) and reports the medians of ``wall_s``, ``cpu_s`` and
``peak_rss_mb``, the median ``setup_s`` of eleven set-up processes, and
``check_pass_frac``, the share of checked cells that reproduced their
reference outputs exactly.

``--trace 1`` runs the cell set once plainly and once with every layer's
entry points wrapped in spans (``hosttrace.py``), checks that both runs'
simulated outputs are identical and that the layers' self times tile the
traced time, and reports per-layer counts and self times.  It also writes
the traced result to ``.perfbench/trace-<workload>-seed<seed>.json``;
``perfbench/compare.py`` ranks the per-layer differences of two of them.

The last line of stdout is one JSON object: ``correct``, ``attempted``
and ``failed`` (cells) and ``metrics``.  Cells that raise or differ are
named on stderr and counted as failed; they do not stop the run.
"""
# simlint: disable-file=D101 -- the benchmark measures host time on purpose

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

from cells import DEFAULT_SEEDS, WORKLOADS, farm_points, farm_reference
from hosttrace import LAYERS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
REFERENCES = os.path.join(HERE, "references.json")
RESULTS = os.path.join(ROOT, ".perfbench")

SETUP_SAMPLES = 11
DEADLINE_S = 170.0   # a run must end within 180 s, set-up included

# Per-layer metrics: exact counts, host self time per layer, inclusive
# phase times, and the tracing cost itself.
COUNTS = (
    "sim.kernel.records", "sim.kernel.spawns", "sim.resources.calls",
    "sim.shard.rounds", "sim.shard.cross_messages", "net.rpc.calls",
    "net.rpc.retransmissions", "net.transport.calls", "nfs.client.calls",
    "nfs.server.calls", "iscsi.initiator.calls", "iscsi.target.calls",
    "fs.vfs.calls", "fs.ext3.calls", "cache.block_cache.calls",
    "storage.raid.calls", "storage.disk.calls",
)
# Inclusive timers: metric name -> span phase (see hosttrace.ENTRY_POINTS).
PHASES = {
    "core.make_stack_s": "core.make_stack",
    "core.quiesce_s": "core.quiesce",
    "core.make_cold_s": "core.make_cold",
    "oltp.load_s": "run:tpcc-setup",
    "oltp.txn_s": "run:tpcc",
    "meta.pool_s": "run:postmark-setup",
    "meta.txn_s": "run:postmark",
    "stream.seq_read_s": "stream.seq_read",
    "stream.rand_read_s": "stream.rand_read",
    "stream.seq_write_s": "stream.seq_write",
    "stream.rand_write_s": "stream.rand_write",
}
# Host time per workload half: "<workload>.<stack>_s".
HALVES = {"oltp": ("nfsv3", "iscsi"), "stream": ("nfsv3", "iscsi"),
          "meta": ("nfsv3", "iscsi"), "farm": ("nfs", "iscsi")}


def per_layer_names():
    """Every per-layer metric, as (name, unit, better)."""
    names = [(name, "count", "lower") for name in COUNTS]
    names.append(("cache.block_cache.hit_ratio", "ratio", "higher"))
    names += [(layer + ".self_s", "s", "lower") for layer in LAYERS]
    names += [(name, "s", "lower") for name in PHASES]
    names += [("%s.%s_s" % (workload, half), "s", "lower")
              for workload, halves in HALVES.items() for half in halves]
    names += [("trace.overhead", "ratio", "lower"),
              ("trace.unattributed_s", "s", "lower")]
    return names


class BenchError(Exception):
    """The benchmark cannot produce a result (no program, a crashed worker)."""


def run_worker(mode, workload, seed, timeout=None):
    """Run ``worker.py`` in a fresh process; return its JSON document."""
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    # A fixed string-hash seed keeps dict and set layouts, and so host
    # time, the same from process to process.
    env["PYTHONHASHSEED"] = "0"
    try:
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "worker.py"), mode,
             "--workload", workload, "--seed", str(seed)],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError("%s worker for %s exceeded %.0fs"
                         % (mode, workload, timeout)) from None
    if proc.returncode != 0:
        raise BenchError("%s worker for %s exited %d:\n%s"
                         % (mode, workload, proc.returncode, proc.stderr[-2000:]))
    return json.loads(proc.stdout.splitlines()[-1])


def build(timeout):
    """Byte-compile the package, so no sample pays for compiling it."""
    proc = subprocess.run(
        [sys.executable, "-m", "compileall", "-q", "src", "perfbench"],
        cwd=ROOT, capture_output=True, text=True, timeout=timeout)
    if proc.returncode != 0:
        raise BenchError("compileall failed:\n" + proc.stdout[-2000:])


def reference_outputs(workload, seed):
    """The recorded outputs of every cell, or None for an unrecorded seed."""
    if workload == "farm":
        return {point["id"]: farm_reference(point) for point in farm_points()}
    with open(REFERENCES) as handle:
        return json.load(handle).get(workload, {}).get(str(seed))


def check(doc, expected):
    """{cell: why} for every cell that raised, differs, or is missing."""
    failed = {name: "raised: " + error.strip().splitlines()[-1]
              for name, error in doc["errors"].items()}
    outputs = doc["outputs"]
    for name, want in expected.items():
        if name in failed:
            continue
        got = outputs.get(name)
        if got is None:
            failed[name] = "missing"
        elif got != want:
            fields = sorted(key for key in set(got) | set(want)
                            if got.get(key) != want.get(key))
            failed[name] = "differs in " + ", ".join(fields)
    for name in outputs:
        if name not in expected:
            failed[name] = "unexpected cell"
    return failed


def report_failures(label, failed):
    for name, why in sorted(failed.items()):
        print("perfbench: %s cell %s FAILED: %s" % (label, name, why),
              file=sys.stderr)


def end_to_end(args, deadline):
    """Repeat the cell set while ``--seconds`` last; report medians."""
    setups = [run_worker("setup", args.workload, args.seed,
                         deadline - time.monotonic())["setup_s"]
              for _ in range(SETUP_SAMPLES)]
    expected = reference_outputs(args.workload, args.seed)
    reps, attempted, failed = [], 0, 0
    start = time.monotonic()
    while True:
        doc = run_worker("plain", args.workload, args.seed,
                         deadline - time.monotonic())
        reps.append(doc)
        if expected is None:
            # An unrecorded seed: every sample must agree with the first.
            expected = dict(doc["outputs"])
        bad = check(doc, expected)
        report_failures("sample %d" % len(reps), bad)
        attempted += len(set(expected) | set(doc["errors"]))
        failed += len(bad)
        elapsed = time.monotonic() - start
        per_sample = elapsed / len(reps)
        if (elapsed + per_sample > args.seconds
                or time.monotonic() + per_sample > deadline):
            break

    def median(key):
        return statistics.median(rep[key] for rep in reps)

    print("perfbench: %s seed %d: %d samples, wall_s %s"
          % (args.workload, args.seed, len(reps),
             " ".join("%.3f" % rep["wall_s"] for rep in reps)), file=sys.stderr)
    metrics = {
        "wall_s": (median("wall_s"), "s"),
        "cpu_s": (median("cpu_s"), "s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (median("peak_rss_mb"), "MB"),
        "check_pass_frac": ((attempted - failed) / attempted, "ratio"),
    }
    return attempted, failed, metrics


def total(doc, section, name):
    """A traced counter or time summed over the workload's halves."""
    return sum(entries.get(name, 0) for entries in doc[section].values())


def layer_metrics(workload, traced, plain):
    """The per-layer metrics of one traced run (times in seconds)."""
    metrics = {name: (total(traced, "counts", name), "count") for name in COUNTS}
    hits = total(traced, "counts", "cache.block_cache.hits")
    lookups = hits + total(traced, "counts", "cache.block_cache.misses")
    metrics["cache.block_cache.hit_ratio"] = (hits / lookups if lookups else 0.0,
                                              "ratio")
    for layer in LAYERS:
        metrics[layer + ".self_s"] = (total(traced, "self_ns", layer) / 1e9, "s")
    for name, phase in PHASES.items():
        metrics[name] = (total(traced, "phase_ns", phase) / 1e9, "s")
    for name, halves in HALVES.items():
        for half in halves:
            value = traced["stack_ns"].get(half, 0) if name == workload else 0
            metrics["%s.%s_s" % (name, half)] = (value / 1e9, "s")
    metrics["trace.overhead"] = (traced["cpu_s"] / plain["cpu_s"], "ratio")
    metrics["trace.unattributed_s"] = (
        (traced["total_ns"] - traced["top_ns"]) / 1e9, "s")
    return metrics


def rationale(workload, traced):
    """The workload-choice claims of BENCHMARK.json, checked on this trace.

    Returns (claim, holds) pairs.  A claim that does not hold means the
    workload no longer stresses what it was chosen for; it is reported,
    not counted as a failed cell.
    """
    selfs, counts = traced["self_ns"], traced["counts"]
    if workload == "oltp":
        nfs_ns = traced["stack_ns"].get("nfsv3", 0)
        load_ns = traced["phase_ns"].get("nfsv3", {}).get("run:tpcc-setup", 0)
        return [("oltp.load_s is most of the nfsv3 half", 2 * load_ns > nfs_ns)]
    if workload == "meta":
        iscsi = selfs.get("iscsi", {})
        fs_cache = sum(iscsi.get(layer, 0)
                       for layer in ("fs.vfs", "fs.ext3", "cache.block_cache"))
        return [("iscsi half: fs.* + cache self time > sim.kernel self time",
                 fs_cache > iscsi.get("sim.kernel", 0))]
    if workload == "stream":
        return [("%s half calls storage.raid and storage.disk" % half,
                 all(counts.get(half, {}).get(name, 0) > 0
                     for name in ("storage.raid.calls", "storage.disk.calls")))
                for half in HALVES["stream"]]
    prefixes = ("fs.", "cache.", "nfs.", "iscsi.")
    return [("farm makes no fs, cache, nfs or iscsi calls",
             not any(value for entries in counts.values()
                     for name, value in entries.items()
                     if name.startswith(prefixes) and name.endswith(".calls")))]


def traced_run(args, deadline):
    """One plain and one traced sample; report the per-layer metrics."""
    plain = run_worker("plain", args.workload, args.seed,
                       deadline - time.monotonic())
    traced = run_worker("traced", args.workload, args.seed,
                        deadline - time.monotonic())
    # The plain sample must reproduce the references, and the traced
    # sample the plain one: tracing may not change a simulated output.
    expected = reference_outputs(args.workload, args.seed) or plain["outputs"]
    failed = 0
    for label, doc, want in (("plain", plain, expected),
                             ("traced", traced, plain["outputs"])):
        bad = check(doc, want)
        report_failures(label, bad)
        failed += len(bad)
    selfs = sum(value for entries in traced["self_ns"].values()
                for value in entries.values())
    if selfs != traced["top_ns"] or traced["top_ns"] > traced["total_ns"]:
        raise BenchError("layer self times (%d ns) do not tile the traced "
                         "spans (%d ns of %d ns)"
                         % (selfs, traced["top_ns"], traced["total_ns"]))
    metrics = layer_metrics(args.workload, traced, plain)
    claims = rationale(args.workload, traced)
    for claim, holds in claims:
        print("perfbench: rationale: %s: %s" % (claim, "holds" if holds else "NOT MET"),
              file=sys.stderr)
    for name, (value, unit) in sorted(metrics.items()):
        if value:
            print("perfbench:   %-32s %14.6g %s" % (name, value, unit), file=sys.stderr)
    traced["rationale"] = dict(claims)
    traced["plain_cpu_s"] = plain["cpu_s"]
    os.makedirs(RESULTS, exist_ok=True)
    path = os.path.join(RESULTS, "trace-%s-seed%d.json" % (args.workload, args.seed))
    with open(path, "w") as handle:
        json.dump(traced, handle, indent=1, sort_keys=True)
    attempted = 2 * len(set(expected) | set(plain["errors"]) | set(traced["errors"]))
    return attempted, failed, metrics


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="Host-performance benchmark of the NFS/iSCSI simulator.")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=None,
                        help="workload seed (default: the workload's own)")
    parser.add_argument("--seconds", type=float, default=25.0,
                        help="how long to keep repeating the cell set")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed is None:
        args.seed = DEFAULT_SEEDS.get(args.workload, 0)
    deadline = time.monotonic() + DEADLINE_S
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print("perfbench: no program to measure: %s/src/repro is missing" % ROOT,
              file=sys.stderr)
        return 2
    try:
        build(deadline - time.monotonic())
        if args.trace:
            attempted, failed, metrics = traced_run(args, deadline)
        else:
            attempted, failed, metrics = end_to_end(args, deadline)
    except (BenchError, OSError, ValueError, subprocess.TimeoutExpired) as exc:
        print("perfbench: %s" % exc, file=sys.stderr)
        return 1
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
