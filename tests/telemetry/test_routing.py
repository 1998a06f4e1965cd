"""Kind-routed delivery on the telemetry bus.

Two guards:

* a *reference model*: random sequences of ``subscribe``, ``close``,
  ``emit`` and firehose-style emissions (``skip`` asked first, the
  emission only counted when nothing takes the kind) must deliver the
  same ordered ``(subscriber, kind, time, fields)`` records as a linear
  ``startswith`` scan over the open subscriptions, with the same
  ``emitted`` count after every step;
* a *behavioural* one, in the style of ``test_overhead.py``: with the
  QoE/SLO observers and the flight recorder attached, no firehose
  payload is ever built — ``_callback_name`` raising must not stop the
  run — and once a subscriber does take ``sim.fire`` it sees exactly
  the events the kernel ran, under the tracer's names.
"""

import dataclasses

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.experiments.scenarios import LAN_SCENARIO, prepare_scenario
from repro.sim import core as sim_core
from repro.telemetry import Telemetry

KINDS = (
    "sim.fire", "sim.cancel", "net.deliver", "net.drop", "client.flow",
    "client.stall.begin", "server.crash", "span.begin", "fault.fired",
)
PREFIXES = st.one_of(
    st.none(),
    st.lists(
        st.sampled_from(
            ("", "sim.", "sim.fire", "net.", "net.deliver", "net.drop",
             "client.", "client.stall", "server.", "span.", "fault.", "x.")
        ),
        max_size=3,
    ).map(tuple),
)
FIELDS = st.dictionaries(st.sampled_from("abc"), st.integers(0, 9), max_size=2)

OPS = st.lists(
    st.one_of(
        st.tuples(st.just("subscribe"), PREFIXES),
        st.tuples(st.just("close"), st.integers(0, 7)),
        st.tuples(st.just("emit"), st.tuples(st.sampled_from(KINDS), FIELDS)),
        st.tuples(st.just("firehose"), st.tuples(st.sampled_from(KINDS), FIELDS)),
        st.tuples(st.just("tick"), st.sampled_from((0.0, 0.5, 1.0))),
    ),
    min_size=1,
    max_size=60,
)


class Reference:
    """A list of open subscriptions scanned linearly per emission."""

    def __init__(self):
        self.open = []  # [(subscriber id, prefixes)], subscription order
        self.deliveries = []
        self.emitted = 0

    def emit(self, now, kind, fields):
        self.emitted += 1
        for sid, prefixes in self.open:
            if prefixes is None or kind.startswith(prefixes):
                self.deliveries.append((sid, kind, now, fields))


@settings(max_examples=300, deadline=None)
@given(OPS)
def test_routing_matches_a_linear_prefix_scan(ops):
    now = [0.0]
    tel = Telemetry(clock=lambda: now[0])
    model = Reference()
    deliveries = []
    subscriptions = []

    def subscriber(sid):
        return lambda event: deliveries.append(
            (sid, event.kind, event.time, event.fields)
        )

    for op, arg in ops:
        if op == "subscribe":
            sid = len(subscriptions)
            subscriptions.append(tel.subscribe(subscriber(sid), prefixes=arg))
            model.open.append((sid, arg))
        elif op == "close":
            if subscriptions:
                sid = arg % len(subscriptions)
                subscriptions[sid].close()
                model.open = [entry for entry in model.open if entry[0] != sid]
        elif op == "emit":
            kind, fields = arg
            tel.emit(kind, **fields)
            model.emit(now[0], kind, fields)
        elif op == "firehose":
            kind, fields = arg
            if not tel.skip(kind):
                tel.emit(kind, **fields)
            model.emit(now[0], kind, fields)
        else:
            now[0] += arg
        assert deliveries == model.deliveries
        assert tel.emitted == model.emitted
        assert tel.active == bool(model.open)


SHORT_LAN = dataclasses.replace(
    LAN_SCENARIO, movie_duration_s=45.0, run_duration_s=45.0
)


def _boom(*args, **kwargs):
    raise AssertionError("a firehose payload was built with nobody routed")


def test_observers_never_build_firehose_payloads(monkeypatch):
    with monkeypatch.context() as patch:
        patch.setattr(sim_core, "_callback_name", _boom)
        live = prepare_scenario(SHORT_LAN, observe=True, flight=True)
        with live:
            live.step(SHORT_LAN.run_duration_s)
    unrouted_emitted = live.sim.telemetry.emitted
    assert live.result.crash_times  # the run got past the crash

    # Route sim.fire to a subscriber: one event per kernel step, named
    # as the tracer names them, and the emission count is unchanged.
    live = prepare_scenario(SHORT_LAN, observe=True, flight=True)
    fired, _ = live.sim.telemetry.collect(prefixes=("sim.fire",))
    with live:
        ran = live.sim.run_until(SHORT_LAN.run_duration_s)
    assert ran > 0 and len(fired) == ran
    assert live.sim.telemetry.emitted == unrouted_emitted

    traced = prepare_scenario(SHORT_LAN)
    traced.sim.tracer.enabled = True
    with traced:
        traced.step(SHORT_LAN.run_duration_s)
    assert not traced.sim.tracer.truncated
    assert [event.fields["name"] for event in fired] == traced.sim.tracer.names()
