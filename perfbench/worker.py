"""One measured process of the benchmark; ``run.py`` starts one per sample.

Usage (from the root of a checkout, with ``src`` on ``PYTHONPATH``)::

    python3 perfbench/worker.py setup  --workload meta --seed 7
    python3 perfbench/worker.py plain  --workload meta --seed 7
    python3 perfbench/worker.py traced --workload meta --seed 7

``setup`` times importing ``repro`` and its workload APIs plus building and mounting one stack of
each kind the workload uses.  ``plain`` runs the workload's cells with
no instrumentation; ``traced`` runs them with every layer's entry points
patched (:mod:`hosttrace`).  Each prints one JSON object on stdout.
"""
# simlint: disable-file=D101 -- the benchmark measures host time on purpose

import argparse
import json
import resource
import sys
import time
import traceback

START_NS = time.perf_counter_ns()  # before anything of the package loads


def setup(workload):
    # Timed: importing the package and its workload APIs is part of set-up.
    import repro.sim.farm  # noqa: F401
    import repro.workloads  # noqa: F401
    from cells import setup_stacks
    from repro.core.comparison import make_stack

    for kind, params in setup_stacks(workload):
        make_stack(kind, params)
    return {"setup_s": (time.perf_counter_ns() - START_NS) / 1e9}


def run_cells(workload, seed, tracer=None, size=None):
    """Run every cell in order; one cell's failure does not stop the rest.

    Returns ``(outputs, errors, stack_ns)``: each cell's simulated
    outputs, the error text of each cell that raised, and the host time
    spent on each stack (or farm protocol).
    """
    from cells import cells

    outputs, errors, stack_ns = {}, {}, {}
    for name, stack, thunk in cells(workload, seed, size):
        if tracer is not None:
            tracer.context = stack
        start = time.perf_counter_ns()
        try:
            outputs[name] = thunk()
        except Exception:  # a failed cell is reported by name, not fatal
            errors[name] = traceback.format_exc(limit=8)
        stack_ns[stack] = stack_ns.get(stack, 0) + time.perf_counter_ns() - start
        if tracer is not None:
            tracer.harvest()
            tracer.context = ""
    return outputs, errors, stack_ns


def measure(workload, seed, traced, size=None):
    """Time the cell set; with ``traced``, also return the layer spans."""
    import repro.sim.farm  # noqa: F401
    import repro.workloads  # noqa: F401

    tracer = None
    if traced:
        from hosttrace import HostTracer

        tracer = HostTracer()
        tracer.install()
    cpu0 = time.process_time()
    wall0 = time.perf_counter_ns()
    try:
        outputs, errors, stack_ns = run_cells(workload, seed, tracer, size)
    finally:
        total_ns = time.perf_counter_ns() - wall0
        cpu_s = time.process_time() - cpu0
        if tracer is not None:
            tracer.uninstall()
    doc = {
        "workload": workload,
        "seed": seed,
        "wall_s": total_ns / 1e9,
        "cpu_s": cpu_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "outputs": outputs,
        "errors": errors,
        "stack_ns": stack_ns,
    }
    if tracer is not None:
        doc["total_ns"] = total_ns
        doc["top_ns"] = tracer.top_ns
        doc["self_ns"] = _nest(tracer.self_ns)
        doc["counts"] = _nest(tracer.counts)
        doc["phase_ns"] = _nest(tracer.phase_ns)
    return doc


def _nest(flat):
    """{(context, name): value} -> {context: {name: value}}."""
    nested = {}
    for (context, name), value in sorted(flat.items()):
        nested.setdefault(context, {})[name] = value
    return nested


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("mode", choices=("setup", "plain", "traced"))
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args(argv)
    if args.mode == "setup":
        doc = setup(args.workload)
    else:
        doc = measure(args.workload, args.seed, args.mode == "traced")
    json.dump(doc, sys.stdout, sort_keys=True)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
