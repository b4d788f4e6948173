"""Record the reference outputs the benchmark checks every run against.

Usage, from the root of a checkout::

    python3 perfbench/record.py [--seeds 0-31] [--workloads oltp stream meta]

Runs each workload's cells once per seed (and once at the workload's own
default seed), each in a fresh ``worker.py plain`` process, and writes
their simulated outputs to ``perfbench/references.json``.  Re-record
only on a deliberate re-baseline of the simulation, and say so where the
re-baseline is recorded.  The farm needs no entry: its reference is the
committed ``BENCH_scale.json``.
"""

import argparse
import json
import os
import sys

from run import REFERENCES, run_worker
from cells import DEFAULT_SEEDS


def parse_seeds(text):
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", default="0-31", help="inclusive range, e.g. 0-31")
    parser.add_argument("--workloads", nargs="+", default=sorted(DEFAULT_SEEDS))
    args = parser.parse_args(argv)
    refs = {}
    if os.path.exists(REFERENCES):
        with open(REFERENCES) as handle:
            refs = json.load(handle)
    for workload in args.workloads:
        seeds = sorted(set(parse_seeds(args.seeds)) | {DEFAULT_SEEDS[workload]})
        table = refs.setdefault(workload, {})
        for seed in seeds:
            doc = run_worker("plain", workload, seed)
            if doc["errors"]:
                sys.exit("record: %s seed %d failed: %s"
                         % (workload, seed, sorted(doc["errors"])))
            table[str(seed)] = doc["outputs"]
            print("record: %s seed %d (%.1fs)" % (workload, seed, doc["wall_s"]),
                  file=sys.stderr)
            with open(REFERENCES, "w") as handle:
                json.dump(refs, handle, indent=1, sort_keys=True)
                handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
