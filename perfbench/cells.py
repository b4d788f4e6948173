"""The benchmark's workloads: which simulations a run performs, and their outputs.

Each workload is a list of *cells*.  A cell is one simulated result that
the benchmark checks exactly: one TPC-C run, one Table-4 mode, one
PostMark run or one farm point.  Cells run one at a time, in a fixed
order, through the package's public workload APIs.

``FULL`` holds the sizes every benchmark run uses; ``TINY`` holds the
sizes of the smoke tests.
"""

from __future__ import annotations

import dataclasses
import json
import os
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

WORKLOADS = ("oltp", "stream", "meta", "farm")
STACKS = ("nfsv3", "iscsi")
STREAM_MODES = ("seq_read", "rand_read", "seq_write", "rand_write")

# Each workload's own default seed, the one `repro table6`, `table4` and
# `table5` use.  The farm has no RNG: every seed gives the committed
# BENCH_scale.json matrix.
DEFAULT_SEEDS = {"oltp": 11, "stream": 42, "meta": 7}

MB = 1024 * 1024

# Each sample runs the whole cell set, so a run of 25 s holds four to
# seven samples; the medians need that many.
FULL: Dict[str, Dict[str, Any]] = {
    # Table 6 scaled to a sixteenth: 8 x 6 MB tables against 2 + 3 MB of
    # caches keeps the database 9.6x the combined caches.
    "oltp": {"transactions": 250, "table_mb": 6, "ntables": 8,
             "client_cache_mb": 2, "server_cache_mb": 3},
    "stream": {"file_mb": 8},
    "meta": {"file_count": 500, "transactions": 2500},
    # Every farm of up to 256 clients, plus the 4-server 1024-client farms.
    "farm": {"max_clients": 256, "also": ("nfs/s4/x1/n1024", "iscsi/s4/x1/n1024")},
}

TINY: Dict[str, Dict[str, Any]] = {
    "oltp": {"transactions": 40, "table_mb": 1, "ntables": 2,
             "client_cache_mb": 1, "server_cache_mb": 1},
    "stream": {"file_mb": 1},
    "meta": {"file_count": 40, "transactions": 100},
    "farm": {"max_clients": 64, "also": ()},
}

# (name, stack, thunk): the thunk runs the simulation and returns its
# outputs as a JSON-ready dict.
Cell = Tuple[str, str, Callable[[], Dict[str, Any]]]


def repo_root() -> str:
    """The checkout this file belongs to (the parent of its directory)."""
    return os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def farm_points(size: Optional[Dict[str, Any]] = None) -> List[Dict[str, Any]]:
    """The committed BENCH_scale.json points a farm run covers, in order."""
    size = size or FULL["farm"]
    with open(os.path.join(repo_root(), "BENCH_scale.json")) as handle:
        points = json.load(handle)["points"]
    return [point for point in points
            if point["clients"] <= size["max_clients"] or point["id"] in size["also"]]


def setup_stacks(workload: str) -> List[Tuple[str, Any]]:
    """(kind, params) of the stacks a workload builds, for ``setup_s``."""
    if workload == "farm":
        return []
    params = None
    if workload == "oltp":
        params = _oltp_params(FULL["oltp"])
    return [(kind, params) for kind in STACKS]


def _oltp_params(size: Dict[str, Any]) -> Any:
    from repro.core.params import CacheParams, TestbedParams

    return TestbedParams(cache=CacheParams(
        client_cache_bytes=size["client_cache_mb"] * MB,
        server_cache_bytes=size["server_cache_mb"] * MB))


def _record(result: Any) -> Dict[str, Any]:
    return dataclasses.asdict(result)


def cells(workload: str, seed: int,
          size: Optional[Dict[str, Any]] = None) -> Iterator[Cell]:
    """Yield the workload's cells in run order.

    Cells are built lazily: a stream cell's thunk shares its stack's
    :class:`SeqRandWorkload`, whose shuffle RNG carries over from mode
    to mode, so the cells must run in the order yielded.
    """
    if size is None:
        size = FULL[workload]
    if workload == "oltp":
        from repro.workloads import TpccWorkload

        params = _oltp_params(size)
        for kind in STACKS:
            yield (kind, kind, lambda kind=kind: _record(TpccWorkload(
                kind, transactions=size["transactions"],
                table_mb=size["table_mb"], ntables=size["ntables"],
                params=params, seed=seed).run()))
    elif workload == "stream":
        from repro.workloads import SeqRandWorkload

        for kind in STACKS:
            runner = SeqRandWorkload(kind, file_mb=size["file_mb"], seed=seed)
            for mode in STREAM_MODES:
                sequential = mode.startswith("seq")
                run = runner.run_read if mode.endswith("read") else runner.run_write
                yield ("%s/%s" % (kind, mode), kind,
                       lambda run=run, sequential=sequential:
                       _record(run(sequential)))
    elif workload == "meta":
        from repro.workloads import PostMark

        for kind in STACKS:
            yield (kind, kind, lambda kind=kind: _record(PostMark(
                kind, file_count=size["file_count"],
                transactions=size["transactions"], seed=seed).run()))
    elif workload == "farm":
        for point in farm_points(size):
            yield (point["id"], point["protocol"],
                   lambda point=point: run_farm_point(point))
    else:
        raise ValueError("unknown workload %r; one of %s" % (workload, WORKLOADS))


def run_farm_point(point: Dict[str, Any]) -> Dict[str, Any]:
    """One BENCH_scale.json point, as ``repro scale --farm`` computes it.

    The shard ``report`` describes the partitioning, not the simulated
    outcome, so it is dropped, as the ``farm_point`` runner cell does.
    """
    from repro.sim.farm import run_farm

    result = run_farm(protocol=point["protocol"], nclients=point["clients"],
                      nservers=point["servers"],
                      connections=point["connections"],
                      sharing=point["sharing"],
                      requests=point["requests_per_client"],
                      nshards=1, executor="sequential")
    result.pop("report")
    return result


def farm_reference(point: Dict[str, Any]) -> Dict[str, Any]:
    """The committed output a farm cell must reproduce field by field."""
    return {key: value for key, value in point.items() if key != "id"}
