"""repro.check: simlint rule fixtures and simsan injected-failure scenarios.

Each lint rule gets a positive fixture (flags), a negative fixture (does
not flag), and a suppression fixture.  Each sanitizer check gets an
injected scenario that makes it fire, plus the clean-run contract: a
sanitized run reports nothing and produces bit-identical results.
"""

from __future__ import annotations

import heapq
import os

import pytest

from repro.check import simlint
from repro.check.simlint import lint_source
from repro.check.simsan import (
    CheckedSimulator,
    Finding,
    SanitizerError,
)
from repro.core.comparison import make_stack
from repro.net.message import Message
from repro.obs import bench


def codes(source):
    return [v.code for v in lint_source(source)]


# ---------------------------------------------------------------- simlint: D


def test_d101_flags_wall_clock():
    assert codes("import time\nstart = time.perf_counter()\n") == ["D101"]
    assert codes("from datetime import datetime\nd = datetime.now()\n") \
        == ["D101"]


def test_d101_negative_sim_clock():
    assert codes("start = sim.now\n") == []


def test_d101_suppressed_on_line():
    src = ("import time\n"
           "t = time.time()  # simlint: disable=D101 -- host-side timing\n")
    assert codes(src) == []


def test_d102_flags_global_rng_and_unseeded_random():
    assert codes("import random\nx = random.random()\n") == ["D102"]
    assert codes("import random\nrandom.shuffle(items)\n") == ["D102"]
    assert codes("import random\nrng = random.Random()\n") == ["D102"]


def test_d102_negative_seeded_instance():
    src = ("import random\n"
           "rng = random.Random(7)\n"
           "x = rng.random()\n")
    assert codes(src) == []


def test_d102_file_wide_suppression():
    src = ("# simlint: disable-file=D102 -- test fixture wants OS entropy\n"
           "import random\n"
           "a = random.random()\n"
           "b = random.randint(0, 9)\n")
    assert codes(src) == []


def test_d103_flags_set_iteration():
    assert codes("for item in {1, 2, 3}:\n    use(item)\n") == ["D103"]
    assert codes("out = [f(x) for x in set(items)]\n") == ["D103"]
    # Order-preserving wrappers don't launder the set away.
    assert codes("for item in list(set(items)):\n    use(item)\n") \
        == ["D103"]


def test_d103_negative_sorted():
    assert codes("for item in sorted(set(items)):\n    use(item)\n") == []
    assert codes("for item in [1, 2, 3]:\n    use(item)\n") == []


def test_d103_flags_set_laundered_through_local():
    # The v1 false negative: the set hides behind an intermediate name.
    src = ("def go(items):\n"
           "    names = set(items)\n"
           "    for name in names:\n"
           "        use(name)\n")
    assert codes(src) == ["D103"]
    # ...including through an order-preserving copy of the local.
    src = ("def go(items):\n"
           "    names = set(items)\n"
           "    snapshot = list(names)\n"
           "    for name in snapshot:\n"
           "        use(name)\n")
    assert codes(src) == ["D103"]


def test_d103_flags_dict_views_on_dict_built_from_set():
    src = ("def go(items):\n"
           "    index = {name: 0 for name in set(items)}\n"
           "    for name in index.keys():\n"
           "        use(name)\n")
    assert codes(src) == ["D103", "D103"]  # the comprehension + the view
    src = ("def go(names):\n"
           "    index = dict.fromkeys(set(names))\n"
           "    for name in index:\n"
           "        use(name)\n")
    assert codes(src) == ["D103"]


def test_d103_laundering_negatives():
    # Reassignment to an ordered value clears the tracking.
    src = ("def go(items):\n"
           "    names = set(items)\n"
           "    names = sorted(names)\n"
           "    for name in names:\n"
           "        use(name)\n")
    assert codes(src) == []
    # A comprehension feeding an order-insensitive consumer is fine.
    assert codes("def go(s):\n"
                 "    findings = set(s)\n"
                 "    return sorted(list(f) for f in findings)\n") == []
    assert codes("def go(s):\n"
                 "    findings = set(s)\n"
                 "    return max(f for f in findings)\n") == []


def test_d103_laundering_suppressed():
    src = ("def go(items):\n"
           "    names = set(items)\n"
           "    for name in names:"
           "  # simlint: disable=D103 -- order-free side effect\n"
           "        use(name)\n")
    assert codes(src) == []


def test_d104_flags_float_equality_on_now():
    assert codes("if sim.now == deadline:\n    fire()\n") == ["D104"]
    assert codes("done = now != start\n") == ["D104"]


def test_d104_negative_ordering_comparisons():
    assert codes("if sim.now >= deadline:\n    fire()\n") == []
    assert codes("if count == 3:\n    fire()\n") == []


# ---------------------------------------------------------------- simlint: P


def test_p201_flags_non_generator_process():
    src = ("def worker():\n"
           "    return 1\n"
           "sim.spawn(worker())\n")
    assert codes(src) == ["P201"]


def test_p201_negative_generator_and_foreign_run():
    src = ("def worker():\n"
           "    yield sim.timeout(1)\n"
           "sim.spawn(worker())\n")
    assert codes(src) == []
    # `.run` on non-simulator receivers (ExperimentRunner etc.) is fine.
    src = ("def cell():\n"
           "    return 1\n"
           "runner.run(cell())\n")
    assert codes(src) == []


def test_p202_flags_unreleased_acquire():
    src = ("def proc():\n"
           "    yield from resource.acquire()\n"
           "    yield sim.timeout(1)\n")
    assert codes(src) == ["P202"]


def test_p202_negative_try_finally():
    src = ("def proc():\n"
           "    yield from resource.acquire()\n"
           "    try:\n"
           "        yield sim.timeout(1)\n"
           "    finally:\n"
           "        resource.release()\n")
    assert codes(src) == []


def test_p203_flags_dropped_sim_result():
    src = ("def proc():\n"
           "    sim.timeout(5)\n"
           "    yield sim.timeout(1)\n")
    assert codes(src) == ["P203"]


def test_p203_negative_yielded_or_bound():
    src = ("def proc():\n"
           "    yield sim.timeout(5)\n"
           "    evt = sim.event()\n"
           "    yield evt\n")
    assert codes(src) == []


# ---------------------------------------------------------------- simlint: O


def test_o301_flags_unguarded_tracer_hook():
    assert codes("tracer.instant('x', cat='y')\n") == ["O301"]
    assert codes("span = self.tracer.begin_span('op')\n") == ["O301"]


def test_o301_negative_guarded_and_end_span():
    src = ("if tracer.enabled:\n"
           "    tracer.instant('x', cat='y')\n")
    assert codes(src) == []
    # end_span(None) is the documented safe no-op; never flagged.
    assert codes("tracer.end_span(span)\n") == []


def test_o302_flags_unguarded_telemetry_hook():
    assert codes("self.telem.count('net.delivered')\n") == ["O302"]
    assert codes("telem.observe('queue.depth', 4.0)\n") == ["O302"]
    assert codes("self.telemetry.count('ops', 2.0)\n") == ["O302"]


def test_o302_negative_guarded():
    src = ("telem = self.telem\n"
           "if telem is not None:\n"
           "    telem.count('net.delivered')\n")
    assert codes(src) == []
    # Plain truthiness on a telem-ish name is also an accepted guard.
    src = ("if self.telemetry:\n"
           "    self.telemetry.observe('q', 1.0)\n")
    assert codes(src) == []
    # `count`/`observe` on non-telemetry receivers are not our hooks.
    assert codes("stats.count('x')\n") == []
    assert codes("n = items.count(3)\n") == []


def test_o302_suppressed():
    src = "self.telem.count('x')  # simlint: disable=O302\n"
    assert codes(src) == []


def test_o303_flags_unguarded_recorder_hook():
    assert codes("self.recorder.note_event(record)\n") == ["O303"]
    assert codes("recorder.note_message('c2s', msg)\n") == ["O303"]
    assert codes("self.recorder.dump('T501', 'telemetry', 'msg')\n") \
        == ["O303"]


def test_o303_negative_guarded_and_foreign_receivers():
    src = ("recorder = self.recorder\n"
           "if recorder is not None:\n"
           "    recorder.note_event(record)\n")
    assert codes(src) == []
    # Plain truthiness on a recorder-ish name is also an accepted guard.
    src = ("if self.recorder:\n"
           "    self.recorder.note_message('s2c', msg)\n")
    assert codes(src) == []
    # `dump` on non-recorder receivers (json etc.) is not our hook.
    assert codes("import json\njson.dump(doc, handle)\n") == []


def test_o303_suppressed():
    src = "self.recorder.dump('S403', 'simsan', 'x')  # simlint: disable=O303\n"
    assert codes(src) == []


# ------------------------------------------------------------ simlint: misc


def test_rule_catalog_and_hints():
    assert set(simlint.RULES) == {
        "D101", "D102", "D103", "D104", "P201", "P202", "P203",
        "O301", "O302", "O303", "S501", "S502", "S503",
        "M601", "M602", "M603",
    }
    violations = lint_source("import time\nt = time.time()\n")
    assert len(violations) == 1
    assert "sim.now" in violations[0].hint


def test_format_text_and_json():
    violations = lint_source("import time\nt = time.time()\n", path="x.py")
    text = simlint.format_text(violations)
    assert "x.py:2:" in text and "D101" in text
    assert text.endswith("simlint: 1 violation")
    assert simlint.format_text([]) == "simlint: clean"
    import json
    doc = json.loads(simlint.format_json(violations))
    assert doc["tool"] == "simlint"
    assert doc["violations"][0]["code"] == "D101"
    assert "D103" in doc["rules"]


def test_repo_tree_is_lint_clean():
    import repro

    package_dir = os.path.dirname(os.path.abspath(repro.__file__))
    assert simlint.lint_paths([package_dir]) == []


# ------------------------------------------------------------------- simsan


ALL_KINDS = ("nfsv2", "nfsv3", "nfsv4", "iscsi", "nfs-enhanced")


@pytest.mark.parametrize("kind", ["nfsv3", "iscsi"])
def test_clean_run_reports_nothing(kind):
    stack = make_stack(kind, san=True)
    stack.run(_tiny_workload(stack.client), name="tiny")
    stack.quiesce()
    assert stack.check() == []


def _tiny_workload(client):
    fd = yield from client.creat("/f")
    yield from client.write(fd, 8192)
    yield from client.fsync(fd)
    yield from client.close(fd)


@pytest.mark.parametrize("kind", ["nfsv3", "iscsi"])
def test_sanitized_run_is_bit_identical(kind):
    plain = bench.run_case("smoke", kind)
    sanitized = bench.run_case("smoke", kind, san=True)
    assert sanitized == plain


class _MiniStack:
    """The smallest object SimSan can wrap: a sim, a transport, no peers.

    Full stacks keep periodic daemons (write-back flush, server sync) on
    the calendar, so their calendar never empties and the S401 deadlock
    check — which requires a fully drained calendar — stays silent by
    design.  Deadlock scenarios therefore run on this bare harness.
    """

    kind = "mini"

    def __init__(self):
        from repro.net.link import Link
        from repro.net.transport import DuplexTransport

        self.sim = CheckedSimulator()
        self.transport = DuplexTransport(self.sim, Link(self.sim))
        self.initiator = None
        self.sanitizer = None

    def rpc_peers(self):
        return []

    def resources(self):
        return []


def test_s401_deadlock_detected():
    from repro.check.simsan import SimSan

    stack = _MiniStack()
    sim = stack.sim
    san = SimSan(stack)

    def waiter():
        yield sim.event()   # never triggered by anyone

    sim.spawn(waiter(), name="stuck")
    sim.run()
    findings = san.verify(strict=False)
    assert any(f.code == "S401" for f in findings)
    assert any("stuck" in f.message for f in findings)


def test_s401_parked_store_getter_is_not_a_deadlock():
    from repro.check.simsan import SimSan
    from repro.sim import Store

    stack = _MiniStack()
    sim = stack.sim
    san = SimSan(stack)
    store = Store(sim, name="inbox")

    def server():
        while True:
            item = yield from store.get()   # parks: an idle server
            del item

    sim.spawn(server(), name="server")
    sim.run()
    assert san.verify(strict=False) == []


def test_s402_resource_leak_detected():
    stack = make_stack("nfsv3", san=True)
    cpu = stack.client_host.cpu

    def leaker():
        yield from cpu.acquire()  # simlint: disable=P202 -- leak on purpose

    stack.sim.run_process(leaker(), name="leaker")
    findings = stack.check(strict=False)
    assert any(f.code == "S402" and "held" in f.message for f in findings)


def test_s403_event_order_violation_detected():
    stack = make_stack("nfsv3", san=True)
    stack.run(_tiny_workload(stack.client), name="tiny")
    assert stack.sim.now > 0
    # Corrupt the calendar: a record stamped before the current clock.
    heapq.heappush(stack.sim._calendar, (0.0, -1, 1, lambda _p: None, None))
    # Bounded run: the stack's periodic daemons never let the calendar
    # drain, so an unbounded run() would spin forever.
    stack.sim.run(until=stack.sim.now + 1.0)
    findings = stack.check(strict=False)
    assert any(f.code == "S403" for f in findings)


def test_s404_lost_message_detected():
    stack = make_stack("nfsv3", san=True)
    stack.transport.send_from_client(Message("NULL"))
    stack.sim.run(until=0.0)   # truncate before the delivery fires
    findings = stack.check(strict=False)
    assert any(f.code == "S404" and "in flight" in f.message
               for f in findings)


def test_s405_orphan_reply_detected():
    stack = make_stack("nfsv3", san=True)
    stack.run(_tiny_workload(stack.client), name="tiny")
    stack.quiesce()
    peer = stack.rpc_peers()[0]
    peer.san.note_orphan_reply(10 ** 9)   # an xid this peer never issued
    findings = stack.check(strict=False)
    assert any(f.code == "S405" and "never issued" in f.message
               for f in findings)


def test_s405_orphan_reply_to_issued_xid_is_legitimate():
    stack = make_stack("nfsv3", san=True)
    stack.run(_tiny_workload(stack.client), name="tiny")
    stack.quiesce()
    peer = stack.rpc_peers()[0]
    issued = next(iter(peer.san.xids_issued))
    peer.san.note_orphan_reply(issued)   # late reply to a retransmit
    assert stack.check() == []


def test_s406_iscsi_task_set_detected():
    stack = make_stack("iscsi", san=True)
    stack.run(_tiny_workload(stack.client), name="tiny")
    stack.quiesce()
    stack.initiator.commands_issued += 1   # one command "vanishes"
    findings = stack.check(strict=False)
    assert any(f.code == "S406" for f in findings)


def test_strict_check_raises_sanitizer_error():
    from repro.check.simsan import SimSan

    stack = _MiniStack()
    sim = stack.sim
    san = SimSan(stack)

    def waiter():
        yield sim.event()

    sim.spawn(waiter(), name="stuck")
    sim.run()
    with pytest.raises(SanitizerError) as excinfo:
        san.verify()
    assert any(f.code == "S401" for f in excinfo.value.findings)
    assert "S401" in str(excinfo.value)


def test_unsanitized_stack_check_is_noop():
    stack = make_stack("nfsv3")
    stack.run(_tiny_workload(stack.client), name="tiny")
    assert stack.sanitizer is None
    assert stack.check() == []


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_every_stack_kind_runs_sanitized(kind):
    stack = make_stack(kind, san=True)
    stack.run(_tiny_workload(stack.client), name="tiny")
    stack.quiesce()
    assert stack.check() == []


def test_checked_simulator_matches_plain_kernel():
    from repro.sim import Simulator

    def pinger(sim, log, tag):
        for step in range(5):
            yield sim.timeout(0.5)
            log.append((tag, step, sim.now))

    logs = []
    for sim_cls in (Simulator, CheckedSimulator):
        sim = sim_cls()
        log = []
        sim.spawn(pinger(sim, log, "a"), name="a")
        sim.spawn(pinger(sim, log, "b"), name="b")
        sim.run()
        logs.append(log)
    assert logs[0] == logs[1]


def test_finding_equality():
    assert Finding("S401", "x") == Finding("S401", "x")
    assert Finding("S401", "x") != Finding("S402", "x")


def test_checked_run_window_matches_plain_kernel():
    from repro.sim import Simulator

    def pinger(sim, log, tag):
        for step in range(6):
            yield sim.timeout(0.5)
            log.append((tag, step, sim.now))

    logs = []
    for sim_cls in (Simulator, CheckedSimulator):
        sim = sim_cls()
        log = []
        sim.spawn(pinger(sim, log, "a"), name="a")
        sim.spawn(pinger(sim, log, "b"), name="b")
        counts = [sim.run_window(horizon) for horizon in (1.1, 2.1, 9.9)]
        log.append(tuple(counts))
        logs.append(log)
    assert logs[0] == logs[1]
    checked = CheckedSimulator()
    assert checked.order_findings == []


def test_checked_run_window_flags_order_regression():
    """schedule_at below the already-dispatched frontier is an S403."""
    sim = CheckedSimulator()
    sim.schedule_at(1.0, lambda _p: None, None)
    sim.run_window(2.0)
    # Forge a record behind the frontier the checker already saw.
    sim._last_when = 5.0
    sim.schedule_at(3.0, lambda _p: None, None)
    sim.run_window(10.0)
    assert any(f.code == "S403" for f in sim.order_findings)
