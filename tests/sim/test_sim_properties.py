"""Property-based tests for the simulation kernel."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.core import Simulator


@given(
    delays=st.lists(
        st.floats(min_value=0.0, max_value=100.0, allow_nan=False),
        min_size=1, max_size=100,
    )
)
@settings(max_examples=100, deadline=None)
def test_events_fire_in_nondecreasing_time_order(delays):
    sim = Simulator()
    fired = []
    for delay in delays:
        sim.call_after(delay, lambda d=delay: fired.append(sim.now))
    sim.run()
    assert fired == sorted(fired)
    assert len(fired) == len(delays)


@given(
    delays=st.lists(
        st.floats(min_value=0.0, max_value=50.0, allow_nan=False),
        min_size=1, max_size=60,
    ),
    cancel_mask=st.lists(st.booleans(), min_size=1, max_size=60),
)
@settings(max_examples=100, deadline=None)
def test_cancelled_events_never_fire(delays, cancel_mask):
    sim = Simulator()
    fired = []
    handles = []
    for i, delay in enumerate(delays):
        handles.append(sim.call_after(delay, fired.append, i))
    cancelled = set()
    for i, (handle, cancel) in enumerate(zip(handles, cancel_mask)):
        if cancel:
            handle.cancel()
            cancelled.add(i)
    sim.run()
    assert set(fired) == set(range(len(delays))) - cancelled


@given(
    same_time_count=st.integers(min_value=2, max_value=50),
    at=st.floats(min_value=0.0, max_value=10.0, allow_nan=False),
)
@settings(max_examples=50, deadline=None)
def test_simultaneous_events_fire_in_scheduling_order(same_time_count, at):
    sim = Simulator()
    fired = []
    for i in range(same_time_count):
        sim.call_at(at, fired.append, i)
    sim.run()
    assert fired == list(range(same_time_count))


@given(
    cut=st.floats(min_value=0.0, max_value=100.0, allow_nan=False),
    delays=st.lists(
        st.floats(min_value=0.0, max_value=100.0, allow_nan=False),
        min_size=1, max_size=50,
    ),
)
@settings(max_examples=100, deadline=None)
def test_run_until_partitions_events_exactly(cut, delays):
    sim = Simulator()
    early, late = [], []
    for delay in delays:
        sim.call_after(
            delay,
            lambda d=delay: (early if d <= cut else late).append(d),
        )
    sim.run_until(cut)
    assert len(early) == sum(1 for d in delays if d <= cut)
    assert late == []
    sim.run()
    assert len(late) == sum(1 for d in delays if d > cut)


@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=30, deadline=None)
def test_named_streams_disjoint_from_each_other(seed):
    sim = Simulator(seed=seed)
    a = [sim.rng("alpha").random() for _ in range(5)]
    b = [sim.rng("beta").random() for _ in range(5)]
    assert a != b  # astronomically unlikely to collide


# ----------------------------------------------------------------------
# Batch-window tick arithmetic (the data-plane fast path)
# ----------------------------------------------------------------------

@given(
    start=st.floats(min_value=0.0, max_value=1e6, allow_nan=False),
    rate=st.floats(min_value=0.1, max_value=240.0, allow_nan=False),
    count=st.integers(min_value=1, max_value=200),
)
@settings(max_examples=200, deadline=None)
def test_batch_ticks_match_timer_chain_bit_for_bit(start, rate, count):
    """Every precomputed tick equals the float the slow path's
    back-to-back ``call_after(1/rate)`` chain produces — the conformance
    guarantee rests on this."""
    from repro.server.streamer import batch_ticks

    ticks = batch_ticks(start, rate, count)
    assert len(ticks) == count
    assert ticks[0] == start
    delta = 1.0 / rate
    t = start
    for tick in ticks:
        assert tick == t  # bit-identical, not approximately equal
        t = t + delta


@given(
    start=st.floats(min_value=0.0, max_value=1e6, allow_nan=False),
    rate=st.floats(min_value=0.1, max_value=240.0, allow_nan=False),
    count=st.integers(min_value=2, max_value=200),
)
@settings(max_examples=200, deadline=None)
def test_batch_ticks_strictly_increasing_and_in_window(start, rate, count):
    """Ticks never run backwards (frames stay in order) and never land
    before the window opened (no past-due sends)."""
    from repro.server.streamer import batch_ticks

    ticks = batch_ticks(start, rate, count)
    assert all(b > a for a, b in zip(ticks, ticks[1:]))
    assert all(t >= start for t in ticks)


@given(
    start=st.floats(min_value=0.0, max_value=1e5, allow_nan=False),
    rate_a=st.floats(min_value=1.0, max_value=120.0, allow_nan=False),
    rate_b=st.floats(min_value=1.0, max_value=120.0, allow_nan=False),
    count_a=st.integers(min_value=1, max_value=50),
    count_b=st.integers(min_value=1, max_value=50),
)
@settings(max_examples=100, deadline=None)
def test_batch_ticks_never_cross_a_rate_change(
    start, rate_a, rate_b, count_a, count_b
):
    """A window recomputed at a rate change continues the old chain
    exactly: the first tick of the new window is one old-rate delta past
    the last old tick, and no new tick lands inside the old window."""
    from repro.server.streamer import batch_ticks

    first = batch_ticks(start, rate_a, count_a)
    boundary = first[-1] + 1.0 / rate_a
    second = batch_ticks(boundary, rate_b, count_b)
    assert second[0] == boundary
    assert all(t > first[-1] for t in second)


# ----------------------------------------------------------------------
# pending_count: O(1) incremental counter vs O(n) reference scan
# ----------------------------------------------------------------------

@given(
    ops=st.lists(
        st.tuples(
            st.sampled_from(["schedule", "cancel", "run_some", "reschedule"]),
            st.floats(min_value=0.0, max_value=10.0, allow_nan=False),
        ),
        min_size=1, max_size=200,
    )
)
@settings(max_examples=100, deadline=None)
def test_pending_count_agrees_with_scan_under_churn(ops):
    """The incrementally maintained count matches the reference scan
    after any interleaving of scheduling, cancellation (including double
    cancels), partial runs and handle recycling."""
    sim = Simulator()
    handles = []
    fired = []

    def fire(i):
        fired.append(i)

    for i, (op, value) in enumerate(ops):
        if op == "schedule":
            handles.append(sim.call_after(value, fire, i))
        elif op == "cancel" and handles:
            handle = handles[i % len(handles)]
            handle.cancel()
            handle.cancel()  # idempotent
        elif op == "run_some":
            sim.run(max_events=3)
        elif op == "reschedule" and handles:
            handle = handles[i % len(handles)]
            # Only recycle handles that are out of the queue: fired
            # (popped before their callback ran) or cancelled-and-popped.
            if handle.cancelled and all(e[2] is not handle for e in sim._queue):
                sim.reschedule(handle, sim.now + value)
        assert sim.pending_count() == sim._pending_count_scan()
    sim.run()
    assert sim.pending_count() == sim._pending_count_scan() == 0
