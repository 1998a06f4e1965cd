"""The per-hop forwarding cache follows every topology and state change.

A long-lived network forwards a datagram (warming its route and hop
caches), then goes through a sequence of changes.  After each change
its next datagram must cross exactly the links that the same datagram
crosses on a network built from scratch in the same state, and the
QoS path walk must name the same hops.
"""

import pytest

from repro.errors import NetworkError
from repro.net.address import Endpoint
from repro.net.link import LinkParams
from repro.net.network import Network
from repro.net.packet import Datagram
from repro.net.qos import QosManager
from repro.net.udp import UdpSocket
from repro.sim.core import Simulator

FAST = LinkParams(delay_s=0.001, bandwidth_bps=1e9)
SRC, DST, PORT = 0, 4, 9


def diamond(sim):
    """0 - {1, 2} - 3 - 4: two equal-length paths, the one via 1 first."""
    net = Network(sim)
    for _ in range(5):
        net.add_node()
    for a, b in [(0, 1), (1, 3), (0, 2), (2, 3), (3, 4)]:
        net.add_link(a, b, FAST)
    return net


# (name, change, the hops the next datagram's route takes afterwards)
CHANGES = [
    ("partition", lambda net: net.partition([1], [0, 2, 3, 4]),
     [(0, 2), (2, 3), (3, 4)]),
    ("heal", lambda net: net.heal(), [(0, 1), (1, 3), (3, 4)]),
    ("partition_node", lambda net: net.partition_node(1),
     [(0, 2), (2, 3), (3, 4)]),
    ("heal_node", lambda net: net.heal_node(1), [(0, 1), (1, 3), (3, 4)]),
    # A crashed router keeps its links up: routes still cross it, and it
    # blackholes what reaches it.
    ("crash", lambda net: net.node(1).crash(), [(0, 1), (1, 3), (3, 4)]),
    ("restart", lambda net: net.node(1).restart(), [(0, 1), (1, 3), (3, 4)]),
    ("add_link", lambda net: net.add_link(0, 4, FAST), [(0, 4)]),
]


def link_counts(net):
    return {
        (link.node_a, link.node_b): (
            link.stats().sent_packets,
            link.stats().delivered_packets,
        )
        for link in net.links()
    }


def send_one(sim, net, sender):
    """Send one datagram SRC -> DST; per-link (sent, delivered) deltas."""
    before = link_counts(net)
    sender.sendto(Endpoint(DST, PORT), "x", 100)
    sim.run()
    after = link_counts(net)
    return {
        key: (after[key][0] - before.get(key, (0, 0))[0],
              after[key][1] - before.get(key, (0, 0))[1])
        for key in after
    }


def fresh_result(upto):
    """The datagram's link deltas and QoS path on a network built from
    scratch with the first ``upto + 1`` changes applied and no traffic
    sent before."""
    sim = Simulator(seed=5)
    net = diamond(sim)
    qos = QosManager(net)
    qos.install()
    for _, change, _ in CHANGES[: upto + 1]:
        change(net)
    UdpSocket(net.node(DST), PORT)
    sender = UdpSocket(net.node(SRC), PORT)
    return send_one(sim, net, sender), qos._path(SRC, DST)


def test_next_datagram_follows_each_change_like_a_fresh_network():
    sim = Simulator(seed=5)
    net = diamond(sim)
    qos = QosManager(net)
    qos.install()
    received = []
    UdpSocket(net.node(DST), PORT, on_receive=received.append)
    sender = UdpSocket(net.node(SRC), PORT)
    warm = send_one(sim, net, sender)
    assert [k for k, (sent, _) in warm.items() if sent] == [(0, 1), (1, 3), (3, 4)]
    assert qos._path(SRC, DST) == [(0, 1), (1, 3), (3, 4)]

    for i, (name, change, route) in enumerate(CHANGES):
        change(net)
        deltas = send_one(sim, net, sender)
        fresh_deltas, fresh_path = fresh_result(i)
        assert deltas == fresh_deltas, name
        assert qos._path(SRC, DST) == fresh_path == route, name
        assert [to for _, to in net.resolve_path(SRC, DST)] == [
            b for _, b in route
        ], name
        sent_on = sorted(
            tuple(sorted(key)) for key, (sent, _) in deltas.items() if sent
        )
        if name == "crash":
            # The datagram dies at the crashed router after one hop.
            assert sent_on == [(0, 1)], name
        else:
            assert sent_on == sorted(tuple(sorted(hop)) for hop in route), name
    assert len(received) == 1 + len(CHANGES) - 1  # all but the crash


def test_send_from_unknown_node_raises():
    sim = Simulator()
    net = diamond(sim)
    for bad in (5, -1):
        with pytest.raises(NetworkError):
            net.send(Datagram(Endpoint(bad, PORT), Endpoint(DST, PORT), "x", 10))
