"""Whole-program simlint: graph, dataflow, S5xx/M6xx rule fixtures.

Every new rule family gets a positive fixture (flags), a negative
fixture (does not flag), and a suppressed fixture, per the repo's lint
testing convention.  The cross-module cases build little package trees
on disk and run :func:`repro.check.simlint.lint_paths` over them, which
is the whole-program entry point the CLI uses.
"""

from __future__ import annotations

import os

from repro.check import simlint
from repro.check.graph import build_program, module_name_for
from repro.check.simlint import lint_source


def write_tree(root, files):
    paths = []
    for name, source in files.items():
        path = root / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(source)
        paths.append(str(path))
    return sorted(paths)


def codes_in_tree(root, files):
    write_tree(root, files)
    return [(os.path.basename(v.path), v.line, v.code)
            for v in simlint.lint_paths([str(root)])]


# ------------------------------------------------------------------- graph


def test_module_name_follows_package_layout(tmp_path):
    write_tree(tmp_path, {
        "pkg/__init__.py": "",
        "pkg/sub/__init__.py": "",
        "pkg/sub/mod.py": "x = 1\n",
        "loose.py": "y = 2\n",
    })
    assert module_name_for(str(tmp_path / "pkg/sub/mod.py")) == "pkg.sub.mod"
    assert module_name_for(str(tmp_path / "pkg/__init__.py")) == "pkg"
    assert module_name_for(str(tmp_path / "loose.py")) == "loose"


def test_graph_resolves_imports_and_self_methods(tmp_path):
    paths = write_tree(tmp_path, {
        "helper.py": "def util():\n    return 1\n",
        "user.py": ("from helper import util\n"
                    "class C:\n"
                    "    def m(self):\n"
                    "        return self.n() + util()\n"
                    "    def n(self):\n"
                    "        return 2\n"),
    })
    graph = build_program(paths)
    user = graph.modules["user"]
    util = graph.modules["helper"].functions["util"]
    assert graph.call_sites(util), "imported call should resolve"
    method = user.functions["C.n"]
    assert graph.call_sites(method), "self.method call should resolve"
    assert user.function_at(4).qualname == "C.m"


# --------------------------------------------- interprocedural D101/D102


_WALLCLOCK_HELPER = ("import time\n"
                     "\n"
                     "def stamp():\n"
                     "    return time.time()"
                     "  # simlint: disable=D101 -- host read is justified\n")


def test_d101_taint_through_helper_cross_module(tmp_path):
    found = codes_in_tree(tmp_path, {
        "helper.py": _WALLCLOCK_HELPER,
        "driver.py": ("from helper import stamp\n"
                      "\n"
                      "def go(sim):\n"
                      "    t = stamp()\n"
                      "    sim.schedule_at(t, None)\n"),
    })
    # The suppression on the read keeps the per-file D101 quiet, but the
    # value still must not feed the simulation: the flow is reported at
    # the sink.
    assert ("driver.py", 5, "D101") in found


def test_d101_taint_negative_value_never_reaches_sink(tmp_path):
    found = codes_in_tree(tmp_path, {
        "helper.py": _WALLCLOCK_HELPER,
        "driver.py": ("from helper import stamp\n"
                      "\n"
                      "def go(sim, log):\n"
                      "    t = stamp()\n"
                      "    log.append(t)\n"
                      "    sim.schedule_at(sim.now + 1.0, None)\n"),
    })
    assert [f for f in found if f[2] == "D101"] == []


def test_d101_taint_suppressed_at_sink(tmp_path):
    found = codes_in_tree(tmp_path, {
        "helper.py": _WALLCLOCK_HELPER,
        "driver.py": ("from helper import stamp\n"
                      "\n"
                      "def go(sim):\n"
                      "    t = stamp()\n"
                      "    sim.schedule_at(t, None)"
                      "  # simlint: disable=D101 -- replay capture\n"),
    })
    assert [f for f in found if f[2] == "D101"] == []


def test_d102_taint_through_helper_chain(tmp_path):
    # Two hops: jitter() -> wrap() -> sink; summaries must propagate
    # transitively, and an int() cast must not launder the taint.
    found = codes_in_tree(tmp_path, {
        "rng.py": ("import random\n"
                   "\n"
                   "def jitter():\n"
                   "    return random.random()"
                   "  # simlint: disable=D102 -- seeded elsewhere (not!)\n"
                   "\n"
                   "def wrap():\n"
                   "    return int(jitter() * 10)\n"),
        "driver.py": ("from rng import wrap\n"
                      "\n"
                      "def go(sim):\n"
                      "    sim.hold(wrap())\n"),
    })
    assert ("driver.py", 4, "D102") in found


def test_d102_taint_negative_seeded_helper(tmp_path):
    found = codes_in_tree(tmp_path, {
        "rng.py": ("import random\n"
                   "\n"
                   "def jitter(seed):\n"
                   "    return random.Random(seed).random()\n"),
        "driver.py": ("from rng import jitter\n"
                      "\n"
                      "def go(sim):\n"
                      "    sim.hold(jitter(7))\n"),
    })
    assert [f for f in found if f[2] == "D102"] == []


# ------------------------------------------------- O3xx guard inference


def test_o301_dropped_when_every_call_site_is_guarded(tmp_path):
    found = codes_in_tree(tmp_path, {
        "hooks.py": ("def emit(tracer, value):\n"
                     "    tracer.instant('v', value)\n"),
        "user.py": ("from hooks import emit\n"
                    "\n"
                    "def step(tracer, value):\n"
                    "    if tracer is not None:\n"
                    "        emit(tracer, value)\n"),
    })
    assert [f for f in found if f[2] == "O301"] == []


def test_o301_kept_when_one_call_site_is_unguarded(tmp_path):
    found = codes_in_tree(tmp_path, {
        "hooks.py": ("def emit(tracer, value):\n"
                     "    tracer.instant('v', value)\n"),
        "user.py": ("from hooks import emit\n"
                    "\n"
                    "def guarded(tracer, value):\n"
                    "    if tracer is not None:\n"
                    "        emit(tracer, value)\n"
                    "\n"
                    "def bare(tracer, value):\n"
                    "    emit(tracer, value)\n"),
    })
    assert ("hooks.py", 2, "O301") in found


def test_o302_guard_inference_cross_module(tmp_path):
    found = codes_in_tree(tmp_path, {
        "hooks.py": ("def push(telem, value):\n"
                     "    telem.observe('lat', value)\n"),
        "user.py": ("from hooks import push\n"
                    "\n"
                    "def step(telem, value):\n"
                    "    if telem is not None:\n"
                    "        push(telem, value)\n"),
    })
    assert [f for f in found if f[2] == "O301"] == []
    # The callers must guard the helper's own receiver kind: a tracer
    # guard does not cover a telemetry push.
    found = codes_in_tree(tmp_path / "other", {
        "hooks.py": ("def push(telem, value):\n"
                     "    telem.observe('lat', value)\n"),
        "user.py": ("from hooks import push\n"
                    "\n"
                    "def step(tracer, telem, value):\n"
                    "    if tracer is not None:\n"
                    "        push(telem, value)\n"),
    })
    assert ("hooks.py", 2, "O301") in found


def test_o303_guard_inference_keeps_unguarded_helper(tmp_path):
    found = codes_in_tree(tmp_path, {
        "hooks.py": ("def note(recorder, event):\n"
                     "    recorder.note_event(event)\n"),
    })
    # No call sites at all: the per-file finding must survive.
    assert ("hooks.py", 2, "O301") in found


# ----------------------------------------------------- S501 shard safety


def test_s501_flags_direct_cross_shard_mutation():
    src = ("def leak(shards, message):\n"
           "    shards[1].outbox.append(message)\n")
    assert [v.code for v in lint_source(src)] == ["S501"]
    src = ("def leak(self, when, fn):\n"
           "    self.shards[0].sim.schedule_at(when, fn)\n")
    assert [v.code for v in lint_source(src)] == ["S501"]


def test_s501_negative_reads_and_transport():
    # Reads of another shard's state and transport-mediated sends are
    # the sanctioned patterns.
    assert [v.code for v in lint_source(
        "def peek(shards):\n"
        "    return shards[1].sim.now\n")] == []
    assert [v.code for v in lint_source(
        "def send(transport, message, delay):\n"
        "    transport.send(message, delay)\n")] == []


def test_s501_exempt_inside_the_shard_kernel():
    src = ("def merge(self, message):\n"
           "    self.shards[0].inbox.append(message)\n")
    assert [v.code for v in lint_source(src, module="repro.sim.shard")] == []
    assert [v.code for v in lint_source(src, module="other.mod")] \
        == ["S501"]


def test_s501_suppressed():
    src = ("def bootstrap(shards, port):\n"
           "    shards[1].ports.update(port)"
           "  # simlint: disable=S501 -- setup before the run starts\n")
    assert [v.code for v in lint_source(src)] == []


# ------------------------------------------------- S502 lookahead safety


def test_s502_flags_literal_and_underived_delay():
    src = ("def send(shard, message):\n"
           "    shard.post(1, 'port', message, 0.25)\n")
    assert [v.code for v in lint_source(src)] == ["S502"]
    src = ("def send(shard, message, gap):\n"
           "    shard.post(1, 'port', message, gap)\n")
    assert [v.code for v in lint_source(src)] == ["S502"]


def test_s502_negative_delay_from_link_horizon():
    for expr in ("link.latency", "self.lookahead", "delay", "rtt / 2",
                 "max(delay, link.latency)"):
        src = ("def send(shard, message):\n"
               "    shard.post(1, 'port', message, %s)\n" % expr)
        assert [v.code for v in lint_source(src)] == [], expr
    # Non-shard receivers are not cross-shard posts.
    assert [v.code for v in lint_source(
        "def send(queue, message):\n"
        "    queue.post(1, 'port', message, 0.25)\n")] == []


def test_s502_suppressed():
    src = ("def send(shard, message):\n"
           "    shard.post(1, 'port', message, 0.0)"
           "  # simlint: disable=S502 -- same-shard loopback in a test\n")
    assert [v.code for v in lint_source(src)] == []


# ------------------------------------------------------ S503 merge keys


def test_s503_flags_inline_when_only_lambda():
    src = "pending.sort(key=lambda m: m.when)\n"
    assert [v.code for v in lint_source(src)] == ["S503"]


def test_s503_negative_full_triple_and_seq_keys():
    for key in ("lambda m: (m.when, m.src_shard, m.src_seq)",
                "lambda m: (m.when, m.seq)"):
        src = "pending.sort(key=%s)\n" % key
        assert [v.code for v in lint_source(src)] == [], key


def test_s503_suppressed():
    src = ("pending.sort(key=lambda m: m.when)"
           "  # simlint: disable=S503 -- single-source stream\n")
    assert [v.code for v in lint_source(src)] == []


def test_s503_named_key_cross_module_is_invisible_per_file(tmp_path):
    # The acceptance case: a per-file pass provably cannot flag
    # `key=by_when` when by_when lives in another module; the
    # whole-program pass can.
    driver = ("from keys import by_when\n"
              "\n"
              "def merge(pending):\n"
              "    pending.sort(key=by_when)\n")
    assert [v.code for v in lint_source(driver, "driver.py")] == []
    found = codes_in_tree(tmp_path, {
        "keys.py": "def by_when(m):\n    return m.when\n",
        "driver.py": driver,
    })
    assert ("driver.py", 4, "S503") in found


def test_s503_named_key_negative_with_tie_breakers(tmp_path):
    found = codes_in_tree(tmp_path, {
        "keys.py": ("def by_when(m):\n"
                    "    return (m.when, m.src_shard, m.src_seq)\n"),
        "driver.py": ("from keys import by_when\n"
                      "\n"
                      "def merge(pending):\n"
                      "    pending.sort(key=by_when)\n"),
    })
    assert [f for f in found if f[2] == "S503"] == []


# ------------------------------------------- M6xx protocol state-machines


_GOOD_MCS = """\
class McsSession:
    def __init__(self):
        self._cmdsn = 0
        self._next_done = 0

    def call(self):
        cmdsn = self._cmdsn
        self._cmdsn += 1
        yield self.channel.send(cmdsn)
        if cmdsn != self._next_done:
            gate = self.sim.event()
            yield gate
        self._release(cmdsn)

    def _release(self, cmdsn):
        self._next_done = max(self._next_done, cmdsn + 1)

    def reset(self):
        self._next_done = self._cmdsn
"""


def test_m601_conforming_session_is_clean():
    assert [v.code for v in lint_source(
        _GOOD_MCS, module="repro.iscsi.mcs")] == []
    # The spec only fires for its target module.
    broken = _GOOD_MCS.replace("self._cmdsn += 1", "self._cmdsn -= 1")
    assert [v.code for v in lint_source(broken, module="other")] == []


def test_m601_flags_nonmonotonic_cmdsn_and_cursor_rewind():
    broken = _GOOD_MCS.replace("self._cmdsn += 1", "self._cmdsn -= 1")
    assert "M601" in [v.code for v in lint_source(
        broken, module="repro.iscsi.mcs")]
    rewind = _GOOD_MCS.replace(
        "self._next_done = max(self._next_done, cmdsn + 1)",
        "self._next_done = cmdsn")
    assert "M601" in [v.code for v in lint_source(
        rewind, module="repro.iscsi.mcs")]


def test_m601_flags_allocation_after_first_yield():
    late = ("class McsSession:\n"
            "    def __init__(self):\n"
            "        self._cmdsn = 0\n"
            "        self._next_done = 0\n"
            "    def call(self):\n"
            "        yield self.channel.ready()\n"
            "        cmdsn = self._cmdsn\n"
            "        self._cmdsn += 1\n"
            "        if cmdsn != self._next_done:\n"
            "            yield self.sim.event()\n")
    assert "M601" in [v.code for v in lint_source(
        late, module="repro.iscsi.mcs")]


def test_m601_suppressed():
    broken = _GOOD_MCS.replace(
        "self._cmdsn += 1",
        "self._cmdsn -= 1  # simlint: disable=M601 -- fixture\n")
    assert [v.code for v in lint_source(
        broken, module="repro.iscsi.mcs") if v.code == "M601"] == []


_GOOD_PNFS = """\
class StripedNfsClient:
    def __init__(self, clients):
        self.clients = clients

    def _home(self, path):
        return 0

    def read(self, fd, n):
        home = self._route_fd(fd)
        yield self.clients[home].read(fd, n)

    def _route_fd(self, fd):
        return 0

    def mkdir(self, path):
        for client in self.clients:
            yield client.mkdir(path)
"""


def test_m602_conforming_router_is_clean():
    assert [v.code for v in lint_source(
        _GOOD_PNFS, module="repro.nfs.pnfs")] == []


def test_m602_flags_unrouted_striped_io():
    bad = _GOOD_PNFS.rstrip() + (
        "\n\n    def write(self, fd, data):\n"
        "        yield self.clients[0].write(fd, data)\n")
    violations = lint_source(bad, module="repro.nfs.pnfs")
    assert [v.code for v in violations] == ["M602"]
    assert "LAYOUTGET" in violations[0].message


def test_m602_suppressed():
    bad = _GOOD_PNFS.rstrip() + (
        "\n\n    def write(self, fd, data):\n"
        "        yield self.clients[0].write(fd, data)"
        "  # simlint: disable=M602 -- fixture\n")
    assert [v.code for v in lint_source(bad, module="repro.nfs.pnfs")] == []


_REPLAY_OPS = (("create", "CREATE", "FileExists"),
               ("mkdir", "MKDIR", "FileExists"),
               ("remove", "REMOVE", "FileNotFound"),
               ("rmdir", "RMDIR", "FileNotFound"),
               ("rename", "RENAME", "FileNotFound"))


def _replay_source(skip=None):
    parts = []
    for name, op, error in _REPLAY_OPS:
        if name == skip:
            continue
        parts.append(
            "def %s(self, path):\n"
            "    try:\n"
            "        yield self._call(p.%s, path)\n"
            "    except %s as error:\n"
            "        if not getattr(error, 'replayed', False):\n"
            "            raise\n" % (name, op, error))
    return "\n\n".join(parts)


def test_m603_full_replay_table_is_clean():
    assert [v.code for v in lint_source(
        _replay_source(), module="repro.nfs.client")] == []


def test_m603_flags_missing_table_row():
    violations = lint_source(_replay_source(skip="rename"),
                             module="repro.nfs.client")
    assert [v.code for v in violations] == ["M603"]
    assert "RENAME" in violations[0].message


def test_m603_suppressed_file_wide():
    src = ("# simlint: disable-file=M603 -- partial client fixture\n"
           + _replay_source(skip="rename"))
    assert [v.code for v in lint_source(src, module="repro.nfs.client")] \
        == []


def test_m6xx_specs_hold_on_the_real_modules():
    import repro

    package_dir = os.path.dirname(os.path.abspath(repro.__file__))
    for rel, module in (("iscsi/mcs.py", "repro.iscsi.mcs"),
                        ("nfs/pnfs.py", "repro.nfs.pnfs"),
                        ("nfs/client.py", "repro.nfs.client")):
        path = os.path.join(package_dir, rel)
        with open(path, encoding="utf-8") as handle:
            source = handle.read()
        machine = [v for v in lint_source(source, path, module=module)
                   if v.code.startswith("M6")]
        assert machine == [], "spec regressed on %s" % rel


# ---------------------------------------------------------- whole tree


def test_repo_tests_and_benchmarks_are_lint_clean():
    # The src tree gate lives in test_check.py; this extends the clean
    # contract to the test and benchmark trees (the CI lint surface).
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    paths = [os.path.join(root, "tests"), os.path.join(root, "benchmarks")]
    assert simlint.lint_paths([p for p in paths if os.path.isdir(p)]) == []


def test_lint_paths_is_deterministic_across_reruns(tmp_path):
    write_tree(tmp_path, {
        "helper.py": _WALLCLOCK_HELPER,
        "driver.py": ("from helper import stamp\n"
                      "\n"
                      "def go(sim):\n"
                      "    sim.schedule_at(stamp(), None)\n"),
    })
    first = simlint.lint_paths([str(tmp_path)])
    second = simlint.lint_paths([str(tmp_path)])
    assert first == second
    assert simlint.format_json(first) == simlint.format_json(second)
