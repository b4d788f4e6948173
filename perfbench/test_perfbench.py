"""Tests of the benchmark itself: the span proxy, the checks, tiny runs.

Run from the root of a checkout::

    PYTHONPATH=src python -m pytest perfbench -q
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

import cells
import run
import worker
from hosttrace import GenProxy, HostTracer


class FakeClock:
    def __init__(self):
        self.now = 0

    def __call__(self):
        return self.now


def test_proxy_forwards_send_and_return_value():
    def echo():
        first = yield 1
        second = yield first * 2
        return second + 1

    proxy = HostTracer().wrap(echo, "L")()
    assert isinstance(proxy, GenProxy)
    assert next(proxy) == 1
    assert proxy.send(5) == 10
    with pytest.raises(StopIteration) as stop:
        proxy.send(7)
    assert stop.value.value == 8


def test_proxy_forwards_throw_and_close():
    closed = []

    def catcher():
        try:
            yield "ready"
        except ValueError as exc:
            yield "caught " + str(exc)
        try:
            yield "again"
        finally:
            closed.append(True)

    tracer = HostTracer()
    proxy = tracer.wrap(catcher, "L")()
    assert next(proxy) == "ready"
    assert proxy.throw(ValueError("boom")) == "caught boom"
    assert next(proxy) == "again"
    proxy.close()
    assert closed == [True]
    uncaught = tracer.wrap(catcher, "L")()
    next(uncaught)
    with pytest.raises(KeyError):
        uncaught.throw(KeyError("x"))
    assert tracer._open == []


def test_yield_from_sees_the_return_value():
    def inner():
        got = yield "ping"
        return "inner saw %s" % got

    tracer = HostTracer()
    traced_inner = tracer.wrap(inner, "L")

    def outer():
        result = yield from traced_inner()
        return result

    gen = outer()
    assert next(gen) == "ping"
    with pytest.raises(StopIteration) as stop:
        gen.send("pong")
    assert stop.value.value == "inner saw pong"
    assert tracer.counts == {("", "L.calls"): 1}


def test_nested_self_times_tile_the_top_level_span():
    clock = FakeClock()
    tracer = HostTracer(clock)

    def leaf():
        clock.now += 5
        yield "a"
        clock.now += 5
        return "leaf done"

    traced_leaf = tracer.wrap(leaf, "leaf")

    def middle():
        clock.now += 10
        value = yield from traced_leaf()
        clock.now += 1
        return value

    traced_middle = tracer.wrap(middle, "middle")

    def outer():
        clock.now += 100
        gen = traced_middle()
        assert next(gen) == "a"
        clock.now += 1000   # the generator is suspended: outer's own time
        with pytest.raises(StopIteration) as stop:
            gen.send(None)
        return stop.value.value

    assert tracer.wrap(outer, "outer")() == "leaf done"
    assert tracer.self_ns == {("", "leaf"): 10, ("", "middle"): 11,
                              ("", "outer"): 1100}
    assert tracer.top_ns == 1121 == sum(tracer.self_ns.values())


def test_phase_counts_only_the_outermost_call():
    clock = FakeClock()
    tracer = HostTracer(clock)

    def work(depth):
        clock.now += 3
        if depth:
            traced(depth - 1)

    traced = tracer.wrap(work, "L", phase=lambda args, kwargs: "p")
    traced(2)
    assert tracer.phase_ns == {("", "p"): 9}
    assert tracer.self_ns == {("", "L"): 9}


def test_check_names_raised_differing_missing_and_extra_cells():
    doc = {"outputs": {"a": {"x": 1, "y": 2}, "b": {"x": 1}, "extra": {}},
           "errors": {"c": "Traceback ...\nValueError: bad\n"}}
    expected = {"a": {"x": 1, "y": 3}, "b": {"x": 1}, "c": {}, "d": {}}
    assert run.check(doc, expected) == {
        "a": "differs in y", "c": "raised: ValueError: bad",
        "d": "missing", "extra": "unexpected cell"}


@pytest.mark.parametrize("workload", cells.WORKLOADS)
def test_tiny_run_is_identical_traced_and_tiles(workload):
    plain = worker.measure(workload, 3, False, cells.TINY[workload])
    traced = worker.measure(workload, 3, True, cells.TINY[workload])
    assert plain["errors"] == traced["errors"] == {}
    assert plain["outputs"] and traced["outputs"] == plain["outputs"]
    selfs = sum(value for entries in traced["self_ns"].values()
                for value in entries.values())
    assert selfs == traced["top_ns"] <= traced["total_ns"]
    metrics = run.layer_metrics(workload, traced, plain)
    assert sorted(metrics) == sorted(name for name, _, _ in run.per_layer_names())
    assert metrics["sim.kernel.records"][0] > 0
    if workload == "farm":
        assert run.rationale(workload, traced) == [
            ("farm makes no fs, cache, nfs or iscsi calls", True)]
        expected = {point["id"]: cells.farm_reference(point)
                    for point in cells.farm_points(cells.TINY["farm"])}
        assert run.check(plain, expected) == {}
    else:
        assert metrics["storage.disk.calls"][0] > 0


def test_references_cover_each_default_seed():
    with open(run.REFERENCES) as handle:
        refs = json.load(handle)
    for workload, seed in cells.DEFAULT_SEEDS.items():
        names = [name for name, _, _ in cells.cells(workload, seed)]
        assert sorted(refs[workload][str(seed)]) == sorted(names)


def test_benchmark_json_lists_every_metric():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    assert [w["name"] for w in spec["workloads"]] == list(cells.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == \
        run.per_layer_names()
    assert {m["name"] for m in spec["end_to_end"]} == {
        "wall_s", "cpu_s", "setup_s", "peak_rss_mb", "check_pass_frac"}


def test_run_fails_without_the_program(tmp_path):
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "meta", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_compare_names_counter_drift_as_algorithm_change(capsys):
    import compare

    docs = []
    for _ in range(2):
        doc = worker.measure("meta", 3, True, cells.TINY["meta"])
        doc["plain_cpu_s"] = doc["cpu_s"]
        docs.append(doc)
    assert compare.report("meta", docs[0], docs[1]) is False
    assert "exact counters: identical" in capsys.readouterr().out
    docs[1]["counts"]["iscsi"]["fs.ext3.calls"] += 1
    assert compare.report("meta", docs[0], docs[1]) is True
    assert "ALGORITHM CHANGE iscsi  fs.ext3.calls" in capsys.readouterr().out
