"""The kernel against a reference model.

The reference keeps every queued event in a plain list sorted by
``(time, seq)`` and fires the head.  Random sequences of scheduling,
cancellation, recycling of fired handles and bounded ``run_until``
slices must give the kernel and the reference the same firing order,
the same clock after each slice and an exact live-event count.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.core import Simulator

DELAYS = st.sampled_from([0.0, 0.0, 0.25, 0.5, 1.0, 2.5])

OPS = st.lists(
    st.one_of(
        st.tuples(st.just("call_at"), DELAYS),
        st.tuples(st.just("call_soon"), st.just(0.0)),
        st.tuples(st.just("cancel"), st.integers(0, 10_000)),
        st.tuples(st.just("reschedule"), st.tuples(st.integers(0, 10_000), DELAYS)),
        st.tuples(
            st.just("run_until"),
            st.tuples(DELAYS, st.one_of(st.none(), st.integers(0, 4))),
        ),
    ),
    min_size=1,
    max_size=120,
)


class Reference:
    """Sorted-list model of the kernel's queue and clock."""

    def __init__(self):
        self.now = 0.0
        self.seq = 0
        self.queue = []  # [time, seq, token], kept sorted
        self.cancelled = set()  # tokens whose queued entry is cancelled
        self.state = {}  # token -> "queued" | "fired" | "dead"
        self.fired = []

    def push(self, time, token):
        self.queue.append((time, self.seq, token))
        self.queue.sort()
        self.seq += 1
        self.state[token] = "queued"

    def cancel(self, token):
        if self.state[token] == "queued":
            self.cancelled.add(token)
        # A cancelled handle keeps no callback: it never fires again.
        self.state[token] = "dead"

    def run_until(self, time, max_events):
        count = 0
        exhausted = False
        while True:
            if max_events is not None and count >= max_events:
                exhausted = True
                break
            while self.queue and self.queue[0][2] in self.cancelled:
                self.cancelled.discard(self.queue.pop(0)[2])
            if not self.queue or self.queue[0][0] > time:
                break
            at, _, token = self.queue.pop(0)
            self.now = at
            self.state[token] = "fired"
            self.fired.append(token)
            count += 1
        if not exhausted:
            self.now = max(self.now, time)

    def live(self):
        return sum(1 for entry in self.queue if entry[2] not in self.cancelled)


@given(OPS)
@settings(max_examples=150, deadline=None)
def test_kernel_matches_sorted_list_reference(ops):
    sim = Simulator()
    ref = Reference()
    handles = []
    fired = []

    for op, value in ops:
        if op in ("call_at", "call_soon"):
            token = len(handles)
            if op == "call_at":
                handle = sim.call_at(sim.now + value, fired.append, token)
            else:
                handle = sim.call_soon(fired.append, token)
            handles.append(handle)
            ref.push(ref.now + value, token)
        elif op == "cancel" and handles:
            token = value % len(handles)
            handles[token].cancel()
            ref.cancel(token)
        elif op == "reschedule" and handles:
            index, delay = value
            token = index % len(handles)
            # Only handles that fired (and were not cancelled since) are
            # out of the queue with their callback intact.
            if ref.state[token] == "fired":
                assert sim.reschedule(handles[token], sim.now + delay) is handles[token]
                ref.push(ref.now + delay, token)
        elif op == "run_until":
            delay, max_events = value
            target = sim.now + delay
            ran = sim.run_until(target, max_events=max_events)
            before = len(ref.fired)
            ref.run_until(target, max_events)
            assert ran == len(ref.fired) - before
            assert sim.now == ref.now
        assert fired == ref.fired
        assert sim.pending_count() == sim._pending_count_scan() == ref.live()
        expected_next = next(
            (t for t, _, tok in ref.queue if tok not in ref.cancelled), None
        )
        assert sim.next_event_time() == expected_next

    sim.run()
    ref.run_until(float("inf"), None)
    assert fired == ref.fired
    assert sim.pending_count() == sim._pending_count_scan() == 0
