"""Compare two traced benchmark results layer by layer.

Usage, from the root of a checkout::

    python3 perfbench/compare.py OLD NEW

OLD and NEW are traced results written by ``run.py --trace 1``
(``.perfbench/trace-<workload>-seed<seed>.json``) or directories of
them; directories are matched by file name.  For each workload and half
(stack or farm protocol) the report gives:

* the exact work counters.  The same code and seed repeat them exactly,
  so any difference is named an ALGORITHM CHANGE, apart from wall-clock
  noise;
* the self time of each layer, ranked by the size of its change, with
  the end-to-end metric the layer should move and the workloads where it
  does the most and the least work;
* whether the simulated outputs are identical.

Exits 1 if any exact counter or simulated output differs, else 0.
"""

import argparse
import json
import os
import sys

from hosttrace import LAYERS


def load_pairs(old, new):
    """[(label, old_doc, new_doc)] for two files or two directories."""
    if os.path.isdir(old) and os.path.isdir(new):
        names = sorted(set(os.listdir(old)) & set(os.listdir(new)))
        pairs = [(os.path.join(old, n), os.path.join(new, n))
                 for n in names if n.endswith(".json")]
    else:
        pairs = [(old, new)]
    docs = []
    for old_path, new_path in pairs:
        with open(old_path) as a, open(new_path) as b:
            old_doc, new_doc = json.load(a), json.load(b)
        docs.append(("%s seed %s" % (new_doc["workload"], new_doc["seed"]),
                     old_doc, new_doc))
    return docs


def counter_drift(old, new):
    """[(half, counter, old, new)] for every exact counter that moved."""
    drift = []
    for half in sorted(set(old["counts"]) | set(new["counts"])):
        a, b = old["counts"].get(half, {}), new["counts"].get(half, {})
        for name in sorted(set(a) | set(b)):
            if a.get(name, 0) != b.get(name, 0):
                drift.append((half, name, a.get(name, 0), b.get(name, 0)))
    return drift


def self_time_deltas(old, new):
    """[(half, layer, old_s, new_s)], largest absolute change first."""
    rows = []
    for half in sorted(set(old["self_ns"]) | set(new["self_ns"])):
        a, b = old["self_ns"].get(half, {}), new["self_ns"].get(half, {})
        for layer in sorted(set(a) | set(b)):
            rows.append((half, layer, a.get(layer, 0) / 1e9, b.get(layer, 0) / 1e9))
    rows.sort(key=lambda row: -abs(row[3] - row[2]))
    return rows


def report(label, old, new, out=sys.stdout):
    """Print one workload's comparison; return True if anything exact moved."""
    print("== %s ==" % label, file=out)
    print("traced wall %.3fs -> %.3fs, plain cpu %.3fs -> %.3fs"
          % (old["wall_s"], new["wall_s"], old["plain_cpu_s"], new["plain_cpu_s"]),
          file=out)
    drift = counter_drift(old, new)
    for half, name, a, b in drift:
        print("  ALGORITHM CHANGE %-6s %-30s %d -> %d (%+d)"
              % (half, name, a, b, b - a), file=out)
    if not drift:
        print("  exact counters: identical", file=out)
    outputs_moved = old["outputs"] != new["outputs"]
    print("  simulated outputs: %s"
          % ("DIFFER (a re-baseline)" if outputs_moved else "identical"), file=out)
    print("  self time by layer, largest change first:", file=out)
    for half, layer, a, b in self_time_deltas(old, new):
        moves, most, little = LAYERS.get(layer, ("?", "?", "?"))
        share = "%+.1f%%" % (100.0 * (b - a) / a) if a else "new"
        print("  %-6s %-18s %8.3fs -> %8.3fs %+8.3fs %7s  moves %s; most: %s; "
              "little: %s" % (half, layer, a, b, b - a, share, moves, most, little),
              file=out)
    return bool(drift) or outputs_moved


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("old")
    parser.add_argument("new")
    args = parser.parse_args(argv)
    moved = False
    for label, old, new in load_pairs(args.old, args.new):
        moved |= report(label, old, new)
    return 1 if moved else 0


if __name__ == "__main__":
    sys.exit(main())
