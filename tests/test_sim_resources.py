"""Unit and property tests for Resource/Store and their ResourceStats."""
# simlint: disable-file=P202 -- tests deliberately leak an acquire to assert the leak is observable

import pytest
from hypothesis import given, settings, strategies as st

from repro.sim import Resource, SimulationError, Simulator, Store


def _contended_run(sim, capacity=1, holds=(2.0, 3.0, 1.0)):
    """Spawn one worker per hold on a fresh capacity-N resource."""
    res = Resource(sim, capacity=capacity)

    def worker(hold):
        yield from res.use(hold)

    for hold in holds:
        sim.spawn(worker(hold))
    sim.run()
    return res


def test_resource_serializes_capacity_one(sim):
    res = Resource(sim, capacity=1)
    done = []

    def worker(tag, hold):
        yield from res.use(hold)
        done.append((tag, sim.now))

    sim.spawn(worker("a", 2.0))
    sim.spawn(worker("b", 3.0))
    sim.run()
    assert done == [("a", 2.0), ("b", 5.0)]


def test_resource_parallel_capacity_two(sim):
    res = Resource(sim, capacity=2)
    done = []

    def worker(tag):
        yield from res.use(2.0)
        done.append((tag, sim.now))

    for tag in "abc":
        sim.spawn(worker(tag))
    sim.run()
    assert done == [("a", 2.0), ("b", 2.0), ("c", 4.0)]


def test_resource_fifo_ordering(sim):
    res = Resource(sim, capacity=1)
    order = []

    def worker(tag):
        yield from res.acquire()
        order.append(tag)
        yield sim.timeout(1)
        res.release()

    for tag in "abcd":
        sim.spawn(worker(tag))
    sim.run()
    assert order == list("abcd")


def test_release_without_acquire_rejected(sim):
    res = Resource(sim, capacity=1)
    with pytest.raises(SimulationError):
        res.release()


def test_utilization_full(sim):
    res = Resource(sim, capacity=1)

    def worker():
        yield from res.use(10.0)

    sim.run_process(worker())
    assert res.stats.utilization() == pytest.approx(1.0)


def test_utilization_half(sim):
    res = Resource(sim, capacity=2)

    def worker():
        yield from res.use(10.0)

    sim.run_process(worker())
    assert res.stats.utilization() == pytest.approx(0.5)


def test_utilization_window_reset(sim):
    res = Resource(sim, capacity=1)

    def worker():
        yield from res.use(4.0)
        res.stats.reset_window()
        yield sim.timeout(6.0)

    sim.run_process(worker())
    assert res.stats.utilization() == pytest.approx(0.0)


def test_store_fifo(sim):
    store = Store(sim)
    store.put(1)
    store.put(2)

    def getter():
        a = yield from store.get()
        b = yield from store.get()
        return (a, b)

    assert sim.run_process(getter()) == (1, 2)


def test_store_blocks_until_put(sim):
    store = Store(sim)

    def getter():
        item = yield from store.get()
        return (item, sim.now)

    def putter():
        yield sim.timeout(3)
        store.put("x")

    sim.spawn(putter())
    assert sim.run_process(getter()) == ("x", 3)


def test_store_get_nowait_and_drain(sim):
    store = Store(sim)
    assert store.get_nowait() is None
    store.put(1)
    store.put(2)
    assert store.get_nowait() == 1
    assert store.drain() == [2]
    assert len(store) == 0


# ------------------------------------------------------------- ResourceStats

def test_stats_counts_waits_on_contended_resource(sim):
    # Three holds of 2/3/1 s on capacity 1: b waits 2 s, c waits 5 s.
    res = _contended_run(sim)
    stats = res.stats
    assert stats.acquisitions == 3
    assert stats.contended == 2
    assert stats.total_wait == pytest.approx(7.0)
    assert stats.max_wait == pytest.approx(5.0)
    assert stats.mean_wait() == pytest.approx(7.0 / 3)
    assert stats.wait_hist.count == 2  # only the contended acquires


def test_stats_uncontended_resource_records_no_waits(sim):
    res = _contended_run(sim, capacity=4)
    stats = res.stats
    assert stats.acquisitions == 3
    assert stats.contended == 0
    assert stats.total_wait == 0.0
    assert stats.wait_hist.count == 0
    assert stats.littles_law_residual() == 0.0


def test_stats_busy_time_matches_sum_of_holds(sim):
    # Holds of 2/3/1 s back to back on capacity 1: busy for all 6 s.
    res = _contended_run(sim)
    assert res.stats.busy_time == pytest.approx(6.0, abs=1e-12)
    assert res.stats.elapsed == pytest.approx(6.0, abs=1e-12)
    assert res.stats.utilization() == pytest.approx(1.0, abs=1e-12)


def test_stats_busy_time_not_split_at_enqueue(sim):
    # One holder is in service from 0 to 0.9 s; a waiter arrives at 0.2 s
    # and holds 0.3 s once served.  Cutting the first busy period at the
    # arrival gives a different float sum, so busy time must be
    # integrated between acquires and releases only: those are the cuts
    # the published CPU utilizations were summed over.
    arrival, first, second = 0.2, 0.9, 0.3
    end = first + second
    unsplit = first + (end - first)
    assert arrival + (first - arrival) + (end - first) != unsplit
    res = Resource(sim, capacity=1)

    def holder():
        yield from res.use(first)

    def waiter():
        yield sim.timeout(arrival)
        yield from res.use(second)

    sim.spawn(holder())
    sim.spawn(waiter())
    sim.run()
    assert res.stats.contended == 1
    assert res.stats.busy_time == unsplit


def test_stats_queue_integral_equals_total_wait_when_drained(sim):
    # Little's law as an identity: queue empty at both window edges, so
    # integral(queue dt) == sum(waits) exactly.
    res = _contended_run(sim, holds=(2.0, 3.0, 1.0, 0.5))
    stats = res.stats
    assert stats.littles_law_residual() < 1e-9
    assert stats.mean_queue_length() == pytest.approx(
        stats.total_wait / stats.elapsed)
    assert stats.arrival_rate() == pytest.approx(
        stats.acquisitions / stats.elapsed)


def test_stats_reset_window_restarts_accounting(sim):
    res = Resource(sim, capacity=1)

    def worker():
        yield from res.use(4.0)
        res.stats.reset_window()
        yield sim.timeout(6.0)

    sim.run_process(worker())
    stats = res.stats
    assert stats.acquisitions == 0
    assert stats.busy_time == 0.0
    assert stats.utilization() == pytest.approx(0.0)
    assert stats.elapsed == pytest.approx(6.0)


def test_stats_utilization_tracks_capacity(sim):
    res = Resource(sim, capacity=2)

    def worker():
        yield from res.use(10.0)

    sim.run_process(worker())
    assert res.stats.utilization() == pytest.approx(0.5)
    assert res.stats.busy_time == pytest.approx(10.0)


def test_stats_as_dict_is_json_ready(sim):
    import json

    res = _contended_run(sim)
    payload = res.stats.as_dict()
    assert json.loads(json.dumps(payload)) == payload
    assert payload["capacity"] == 1
    assert payload["acquisitions"] == 3
    assert payload["contended"] == 2
    assert payload["wait_s"] == pytest.approx(7.0)
    assert 0.0 <= payload["utilization"] <= 1.0


@settings(max_examples=30, deadline=None)
@given(holds=st.lists(st.floats(min_value=0.01, max_value=5.0),
                      min_size=1, max_size=12),
       capacity=st.integers(min_value=1, max_value=4))
def test_stats_littles_law_property(holds, capacity):
    """Over a run that starts and ends with an empty queue, the
    queue-depth integral equals the summed waits (Little's law), and
    busy time is the sum of the holds."""
    sim = Simulator()
    res = Resource(sim, capacity=capacity)

    def worker(hold):
        yield from res.use(hold)

    for hold in holds:
        sim.spawn(worker(hold))
    sim.run()
    stats = res.stats
    assert stats.acquisitions == len(holds)
    assert stats.littles_law_residual() < 1e-9
    assert stats.busy_time == pytest.approx(sum(holds))


@settings(max_examples=30, deadline=None)
@given(holds=st.lists(st.floats(min_value=0.01, max_value=5.0),
                      min_size=1, max_size=12),
       capacity=st.integers(min_value=1, max_value=4))
def test_resource_conservation_property(holds, capacity):
    """Total busy time equals the sum of holds; makespan is bounded by
    the serial and ideal-parallel extremes."""
    sim = Simulator()
    res = Resource(sim, capacity=capacity)

    def worker(hold):
        yield from res.use(hold)

    for hold in holds:
        sim.spawn(worker(hold))
    sim.run()
    total = sum(holds)
    assert res.stats.busy_time == pytest.approx(total)
    assert sim.now <= total + 1e-9
    assert sim.now >= total / capacity - 1e-9
    assert res.available == capacity
